//! Microbenchmarks of the substrates every experiment is built on: the
//! PRNG, the pending-event set, exponential sampling, the statistics, and
//! the numerical CTMC solvers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use itua_markov::ctmc::Ctmc;
use itua_sim::queue::EventQueue;
use itua_sim::rng::Rng;
use itua_stats::tdist::t_quantile;
use itua_stats::weighted::WeightedStats;

fn bench_rng(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    c.bench_function("rng_next_u64_x1000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });
    let mut rng2 = Rng::seed_from_u64(2);
    c.bench_function("rng_weighted_choice_x1000", |b| {
        let w = [0.8, 0.15, 0.05];
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc += rng2.weighted_choice(&w);
            }
            black_box(acc)
        });
    });
}

fn bench_exponential(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(3);
    c.bench_function("exponential_sample_x1000", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += -rng.next_f64_open().ln() / 3.0;
            }
            black_box(acc)
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_1000", |b| {
        let mut rng = Rng::seed_from_u64(4);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000 {
                q.schedule(rng.next_f64() * 100.0, i);
            }
            let mut acc = 0.0;
            while let Some((t, _)) = q.pop() {
                acc += t;
            }
            black_box(acc)
        });
    });
    c.bench_function("event_queue_cancel_heavy", |b| {
        let mut rng = Rng::seed_from_u64(5);
        b.iter(|| {
            let mut q = EventQueue::new();
            let keys: Vec<_> = (0..1000)
                .map(|i| q.schedule(rng.next_f64() * 100.0, i))
                .collect();
            for k in keys.iter().step_by(2) {
                q.cancel(*k);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        });
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("weighted_stats_push_x1000", |b| {
        b.iter(|| {
            let mut s = WeightedStats::new();
            for i in 0..1000 {
                s.push(i as f64 * 0.37, 1.0);
            }
            black_box(s.mean())
        });
    });
    c.bench_function("t_quantile_df30", |b| {
        b.iter(|| black_box(t_quantile(0.975, 30.0)));
    });
}

fn bench_ctmc(c: &mut Criterion) {
    // Birth-death chain with 200 states.
    let n = 200;
    let mut rates = Vec::new();
    for i in 0..n - 1 {
        rates.push((i, i + 1, 1.0));
        rates.push((i + 1, i, 2.0));
    }
    let ctmc = Ctmc::from_rates(n, &rates).unwrap();
    let mut initial = vec![0.0; n];
    initial[0] = 1.0;
    c.bench_function("ctmc_transient_200_states_t10", |b| {
        b.iter(|| black_box(ctmc.transient(&initial, 10.0, 1e-9).unwrap()));
    });
    c.bench_function("ctmc_steady_state_200_states", |b| {
        b.iter(|| black_box(ctmc.steady_state(1e-10, 1_000_000).unwrap()));
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = bench_rng, bench_exponential, bench_event_queue, bench_stats, bench_ctmc
}
criterion_main!(substrates);
