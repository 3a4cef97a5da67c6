//! Exhaustive reachability exploration with optional symmetry reduction.
//!
//! Where [`crate::probe`] samples the reachable set under a marking cap and
//! falls back to seeded walks, this module enumerates *every* reachable
//! marking — tangible and vanishing — from the initial marking, under
//! explicit state and work budgets with structured budget-exceeded errors.
//! On the full reachable set, properties are *proved* rather than probed:
//! a conservation law checked here holds at every reachable marking, not
//! just the ones a bounded probe happened to visit.
//!
//! Two explorers live here:
//!
//! * [`explore`] — the checker's graph: every marking is a node, firings
//!   are edges, and the caller's `on_fire` callback sees each firing once
//!   (same signature as the probe's, so firing laws plug in unchanged).
//!   An optional [`SymmetrySpec`] canonicalizes markings under a
//!   permutation group, exploring the quotient graph instead: for ITUA,
//!   domains are interchangeable, hosts within a domain are
//!   interchangeable, and replica slots within an application are
//!   interchangeable, which shrinks the state count by orders of
//!   magnitude on the paper's configurations. Orbit sizes are tracked so
//!   the unreduced explorer can serve as an oracle (`Σ orbit = full`).
//! * [`tangible_projection`] — an operation-for-operation mirror of
//!   `itua_san::statespace::StateSpace::generate` (same BFS order, same
//!   vanishing-marking resolution, same floating-point evaluation order),
//!   written against the public `San` API only. Its tangible state list
//!   and transition multiset must match the analytic backend's generator
//!   *bit for bit*, making two independently written explorers oracles
//!   for each other.
//!
//! Symmetry soundness: a [`SymmetrySpec`] asserts that permuting whole
//! *units* within a group, and whole *blocks* within a unit, maps the
//! model onto itself (same activities, rates, and weights under the
//! induced place permutation). The ITUA composition guarantees this by
//! construction — identical templates are stamped per domain/host/replica
//! and communicate through shared places that the permutation fixes.
//! Checking a permutation-closed *family* of invariants or laws on each
//! canonical representative is then equivalent to checking it on every
//! member of the orbit.

use crate::probe::OnFire;
use itua_san::marking::Marking;
use itua_san::model::{ActivityId, San, SanError, Timing};
use std::collections::{HashMap, VecDeque};

/// Budgets for one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Maximum number of distinct states (tangible + vanishing) interned
    /// before [`ReachError::StateBudget`] is returned.
    pub max_states: usize,
    /// Maximum number of firings performed before
    /// [`ReachError::WorkBudget`] is returned; bounds runtime on graphs
    /// that are narrow in states but dense in edges.
    pub max_work: usize,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            max_states: 1 << 20,
            max_work: 1 << 26,
        }
    }
}

impl ReachConfig {
    /// A config bounded by `max_states`, with the work budget scaled to
    /// a generous constant out-degree.
    pub fn with_max_states(max_states: usize) -> Self {
        ReachConfig {
            max_states,
            max_work: max_states.saturating_mul(64).max(1 << 16),
        }
    }
}

/// Structured failure from exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// More distinct states are reachable than `max_states` allows.
    StateBudget {
        /// The configured state budget.
        max_states: usize,
    },
    /// More firings were needed than `max_work` allows.
    WorkBudget {
        /// The configured work budget.
        max_work: usize,
    },
    /// A timed activity produced a NaN/infinite/negative rate at a
    /// reachable marking.
    BadRate {
        /// Activity name.
        activity: String,
    },
    /// An enabled activity's case weights were NaN/negative, or summed
    /// to a non-positive total, at a reachable marking.
    BadWeights {
        /// Activity name.
        activity: String,
    },
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::StateBudget { max_states } => {
                write!(
                    f,
                    "state budget exceeded: more than {max_states} reachable states"
                )
            }
            ReachError::WorkBudget { max_work } => {
                write!(
                    f,
                    "work budget exceeded: more than {max_work} firings explored"
                )
            }
            ReachError::BadRate { activity } => {
                write!(
                    f,
                    "activity '{activity}' has a NaN/infinite/negative rate at a reachable marking"
                )
            }
            ReachError::BadWeights { activity } => {
                write!(
                    f,
                    "activity '{activity}' has invalid case weights at a reachable marking"
                )
            }
        }
    }
}

impl std::error::Error for ReachError {}

// ---------------------------------------------------------------------
// Symmetry specification (shared home: itua_san::sym)
// ---------------------------------------------------------------------

// The canonicalizer lives in `itua_san::sym` so the statespace
// generator's lumped mode and this explorer use one implementation;
// re-exported here so existing `reach::SymmetrySpec` paths keep working.
pub use itua_san::sym::{SymmetryError, SymmetryGroup, SymmetrySpec, SymmetryUnit};

// ---------------------------------------------------------------------
// Full explorer (tangible + vanishing states)
// ---------------------------------------------------------------------

/// The fully explored reachability graph (or its symmetry quotient).
#[derive(Debug)]
pub struct ReachGraph {
    /// Every reachable marking (canonical representatives under the
    /// symmetry spec, when one was given), in BFS discovery order.
    pub states: Vec<Vec<i32>>,
    /// Per state: tangible (no instantaneous activity enabled)?
    pub tangible: Vec<bool>,
    /// Per state: orbit size under the symmetry spec (all `1` without one).
    pub orbit_sizes: Vec<u128>,
    /// Per activity index: fired at least once somewhere?
    pub fired: Vec<bool>,
    /// Exact per-place maximum over all reachable markings. With a
    /// symmetry spec, propagated over symmetry classes, so the entry is
    /// the exact bound for the place in the *unquotiented* graph.
    pub place_max: Vec<i32>,
    /// Tangible states with no outgoing firing (absorbing states).
    pub deadlocks: Vec<usize>,
    /// Vanishing states on a zero-time cycle (empty = no livelock).
    /// Every marking here can re-reach itself through instantaneous
    /// firings alone.
    pub vanishing_cycle: Vec<usize>,
    /// Total firings explored (graph edges, multi-edges counted).
    pub num_transitions: usize,
}

impl ReachGraph {
    /// Number of states (quotient states under a symmetry spec).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of tangible states.
    pub fn num_tangible(&self) -> usize {
        self.tangible.iter().filter(|&&t| t).count()
    }

    /// Sum of orbit sizes — with a symmetry spec, the size of the *full*
    /// (unreduced) state space; without one, the state count. Saturating.
    pub fn orbit_total(&self) -> u128 {
        self.orbit_sizes
            .iter()
            .fold(0u128, |acc, &o| acc.saturating_add(o))
    }

    /// Sum of orbit sizes over tangible states only.
    pub fn tangible_orbit_total(&self) -> u128 {
        self.orbit_sizes
            .iter()
            .zip(&self.tangible)
            .filter(|&(_, &t)| t)
            .fold(0u128, |acc, (&o, _)| acc.saturating_add(o))
    }
}

/// Exhaustively explores the reachability graph of `san` from its initial
/// marking, visiting tangible and vanishing markings alike.
///
/// With a [`SymmetrySpec`], every marking is canonicalized before
/// interning and the quotient graph is explored instead; `on_fire` then
/// sees firings *from canonical representatives* (sound for
/// permutation-closed law families, see the module docs).
///
/// `on_fire` receives `(san, activity, case, pre-marking, delta)` for
/// every explored firing — the same shape as the probe's callback, so
/// [`crate::FiringLaw`] closures can be driven by either explorer.
///
/// # Errors
///
/// Returns a structured [`ReachError`] on budget exhaustion
/// (`StateBudget`, `WorkBudget`) or invalid rates/weights at a
/// reachable marking.
pub fn explore(
    san: &San,
    cfg: &ReachConfig,
    symmetry: Option<&SymmetrySpec>,
    mut on_fire: impl FnMut(&San, ActivityId, usize, &Marking, &[i64]),
) -> Result<ReachGraph, ReachError> {
    explore_dyn(san, cfg, symmetry, &mut on_fire)
}

/// Monomorphization-free core of [`explore`].
fn explore_dyn(
    san: &San,
    cfg: &ReachConfig,
    symmetry: Option<&SymmetrySpec>,
    on_fire: &mut OnFire<'_>,
) -> Result<ReachGraph, ReachError> {
    let num_places = san.num_places();
    let mut index: HashMap<Vec<i32>, usize> = HashMap::new();
    let mut states: Vec<Vec<i32>> = Vec::new();
    let mut orbit_sizes: Vec<u128> = Vec::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();
    let mut place_max = vec![0i32; num_places];

    let mut intern = |mut vals: Vec<i32>,
                      states: &mut Vec<Vec<i32>>,
                      orbit_sizes: &mut Vec<u128>,
                      frontier: &mut VecDeque<usize>,
                      place_max: &mut [i32]|
     -> Result<usize, ReachError> {
        if let Some(sym) = symmetry {
            sym.canonicalize(&mut vals);
        }
        if let Some(&i) = index.get(&vals) {
            return Ok(i);
        }
        if states.len() >= cfg.max_states {
            return Err(ReachError::StateBudget {
                max_states: cfg.max_states,
            });
        }
        let i = states.len();
        for (m, &v) in place_max.iter_mut().zip(&vals) {
            *m = (*m).max(v);
        }
        orbit_sizes.push(symmetry.map_or(1, |s| s.orbit_size(&vals)));
        index.insert(vals.clone(), i);
        states.push(vals);
        frontier.push_back(i);
        Ok(i)
    };

    let init = san.initial_marking().values().to_vec();
    intern(
        init,
        &mut states,
        &mut orbit_sizes,
        &mut frontier,
        &mut place_max,
    )?;

    let mut tangible: Vec<bool> = Vec::new();
    let mut fired = vec![false; san.num_activities()];
    let mut deadlocks: Vec<usize> = Vec::new();
    // Edges out of vanishing states, for the zero-time cycle check.
    let mut van_edges: Vec<(usize, usize)> = Vec::new();
    let mut num_transitions = 0usize;
    let mut work = 0usize;

    while let Some(s) = frontier.pop_front() {
        let vals = states[s].clone();
        let marking = Marking::new(&vals);
        let inst: Vec<ActivityId> = san
            .activities()
            .filter(|(_, a)| a.is_instantaneous() && a.enabled(&marking))
            .map(|(id, _)| id)
            .collect();
        let is_tangible = inst.is_empty();
        debug_assert_eq!(tangible.len(), s);
        tangible.push(is_tangible);

        let mut fired_any = false;
        // Fires every positive-weight case of `act`, interning successors.
        let mut fire_all_cases = |act_id: ActivityId,
                                  states: &mut Vec<Vec<i32>>,
                                  orbit_sizes: &mut Vec<u128>,
                                  frontier: &mut VecDeque<usize>,
                                  place_max: &mut [i32],
                                  fired_any: &mut bool,
                                  van_edges: &mut Vec<(usize, usize)>|
         -> Result<(), ReachError> {
            let act = san.activity(act_id);
            let weights = act.case_weights(&marking);
            let total: f64 = weights.iter().sum();
            if weights.iter().any(|w| !(w.is_finite() && *w >= 0.0))
                || !(total.is_finite() && total > 0.0)
            {
                return Err(ReachError::BadWeights {
                    activity: act.name().to_owned(),
                });
            }
            for (case, &w) in weights.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                work += 1;
                if work > cfg.max_work {
                    return Err(ReachError::WorkBudget {
                        max_work: cfg.max_work,
                    });
                }
                let mut next = Marking::new(&vals);
                act.fire(case, &mut next);
                let nvals = next.values().to_vec();
                let delta: Vec<i64> = nvals
                    .iter()
                    .zip(&vals)
                    .map(|(&a, &b)| i64::from(a) - i64::from(b))
                    .collect();
                on_fire(san, act_id, case, &marking, &delta);
                let t = intern(nvals, states, orbit_sizes, frontier, place_max)?;
                if !is_tangible {
                    van_edges.push((s, t));
                }
                num_transitions += 1;
                *fired_any = true;
                fired[act_id.index()] = true;
            }
            Ok(())
        };

        if is_tangible {
            for (id, act) in san.activities() {
                let Timing::Exponential(rate_fn) = act.timing() else {
                    continue;
                };
                if !act.enabled(&marking) {
                    continue;
                }
                let rate = rate_fn(&marking);
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(ReachError::BadRate {
                        activity: act.name().to_owned(),
                    });
                }
                if rate == 0.0 {
                    continue;
                }
                fire_all_cases(
                    id,
                    &mut states,
                    &mut orbit_sizes,
                    &mut frontier,
                    &mut place_max,
                    &mut fired_any,
                    &mut van_edges,
                )?;
            }
            if !fired_any {
                deadlocks.push(s);
            }
        } else {
            for &id in &inst {
                fire_all_cases(
                    id,
                    &mut states,
                    &mut orbit_sizes,
                    &mut frontier,
                    &mut place_max,
                    &mut fired_any,
                    &mut van_edges,
                )?;
            }
        }
    }

    // Zero-time livelock: Kahn elimination on the vanishing-only subgraph;
    // states left with positive in-degree sit on an instantaneous cycle.
    let vanishing_cycle = vanishing_cycle_states(&tangible, &van_edges);

    // Propagate exact bounds over symmetry classes: the representative
    // sorts interchangeable slots, so a single slot's max is only exact
    // for the whole class, not for one fixed member.
    if let Some(sym) = symmetry {
        let classes = sym.classes();
        let mut class_max = place_max.clone();
        for (p, &c) in classes.iter().enumerate() {
            class_max[c] = class_max[c].max(place_max[p]);
        }
        for (p, &c) in classes.iter().enumerate() {
            place_max[p] = class_max[c];
        }
    }

    Ok(ReachGraph {
        states,
        tangible,
        orbit_sizes,
        fired,
        place_max,
        deadlocks,
        vanishing_cycle,
        num_transitions,
    })
}

/// States on a cycle of the vanishing-only subgraph, via Kahn elimination.
fn vanishing_cycle_states(tangible: &[bool], van_edges: &[(usize, usize)]) -> Vec<usize> {
    let n = tangible.len();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, t) in van_edges {
        if !tangible[t] {
            adj[s].push(t);
            indeg[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| !tangible[i] && indeg[i] == 0).collect();
    let mut remaining: usize = tangible.iter().filter(|&&t| !t).count();
    while let Some(i) = queue.pop() {
        remaining -= 1;
        for &t in &adj[i] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if remaining == 0 {
        return Vec::new();
    }
    (0..n).filter(|&i| !tangible[i] && indeg[i] > 0).collect()
}

// ---------------------------------------------------------------------
// Tangible projection (statespace.rs mirror)
// ---------------------------------------------------------------------

/// Maximum instantaneous-chain depth during vanishing resolution; must
/// match `itua_san::statespace` for the two generators to agree.
const MAX_VANISHING_DEPTH: usize = 10_000;

/// Work budget for one vanishing resolution (mirror of the statespace
/// generator's scaling).
fn vanishing_budget(max_states: usize) -> usize {
    max_states.saturating_mul(10).max(2 * MAX_VANISHING_DEPTH)
}

/// The reachable *tangible* state space with CTMC rates — the checker's
/// independently written mirror of
/// `itua_san::statespace::StateSpace::generate`.
#[derive(Debug, Clone)]
pub struct TangibleGraph {
    /// Tangible markings in BFS discovery order.
    pub markings: Vec<Vec<i32>>,
    /// `(from, to, rate)` transitions; no self-loops, duplicates kept.
    pub transitions: Vec<(usize, usize, f64)>,
    /// Initial distribution entries, merged and sorted by state index.
    pub initial: Vec<(usize, f64)>,
}

/// Generates the tangible state space of `san`, mirroring the analytic
/// backend's generator operation for operation (same BFS order, same
/// vanishing resolution, same floating-point evaluation order) against
/// the public API only. Used to cross-validate the two explorers: state
/// lists must be identical and transition rates bit-equal.
///
/// # Errors
///
/// The same [`SanError`] family the statespace generator returns:
/// `StateSpaceTooLarge`, `BadValue`, `Unstabilized`.
pub fn tangible_projection(san: &San, max_states: usize) -> Result<TangibleGraph, SanError> {
    let mut index: HashMap<Vec<i32>, usize> = HashMap::new();
    let mut markings: Vec<Vec<i32>> = Vec::new();
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();

    let intern = |m: Vec<i32>,
                  markings: &mut Vec<Vec<i32>>,
                  index: &mut HashMap<Vec<i32>, usize>,
                  frontier: &mut VecDeque<usize>|
     -> Result<usize, SanError> {
        if let Some(&i) = index.get(&m) {
            return Ok(i);
        }
        if markings.len() >= max_states {
            return Err(SanError::StateSpaceTooLarge(max_states));
        }
        let i = markings.len();
        index.insert(m.clone(), i);
        markings.push(m);
        frontier.push_back(i);
        Ok(i)
    };

    let init_marking = san.initial_marking().values().to_vec();
    let resolved = resolve_vanishing(san, init_marking, max_states)?;
    let mut initial = Vec::new();
    for (m, p) in resolved {
        let i = intern(m, &mut markings, &mut index, &mut frontier)?;
        initial.push((i, p));
    }
    initial.sort_by_key(|&(i, _)| i);
    initial.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });

    while let Some(s) = frontier.pop_front() {
        let marking = Marking::new(&markings[s]);
        for (_, act) in san.activities() {
            let rate_fn = match act.timing() {
                Timing::Exponential(r) => r,
                Timing::Instantaneous => continue,
            };
            if !act.enabled(&marking) {
                continue;
            }
            let rate = rate_fn(&marking);
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(SanError::BadValue(act.name().to_owned()));
            }
            if rate == 0.0 {
                continue;
            }
            let weights = act.case_weights(&marking);
            let total: f64 = weights.iter().sum();
            if !(total.is_finite() && total > 0.0) {
                return Err(SanError::BadValue(act.name().to_owned()));
            }
            for (case, &w) in weights.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                let mut next = Marking::new(&markings[s]);
                act.fire(case, &mut next);
                let next = next.values().to_vec();
                for (tangible, p) in resolve_vanishing(san, next, max_states)? {
                    let t = intern(tangible, &mut markings, &mut index, &mut frontier)?;
                    if t != s {
                        transitions.push((s, t, rate * (w / total) * p));
                    }
                }
            }
        }
    }

    Ok(TangibleGraph {
        markings,
        transitions,
        initial,
    })
}

/// Distributes a marking over its tangible successors — mirror of the
/// statespace generator's resolution: LIFO work stack, uniform choice
/// among enabled instantaneous activities in ascending-id order,
/// weight-proportional cases, first-encounter merge order.
fn resolve_vanishing(
    san: &San,
    marking: Vec<i32>,
    max_states: usize,
) -> Result<Vec<(Vec<i32>, f64)>, SanError> {
    let budget = vanishing_budget(max_states);
    let mut pops = 0usize;
    let mut result: Vec<(Vec<i32>, f64)> = Vec::new();
    let mut work: Vec<(Vec<i32>, f64, usize)> = vec![(marking, 1.0, 0)];
    while let Some((vals, p, depth)) = work.pop() {
        pops += 1;
        if pops > budget {
            return Err(SanError::StateSpaceTooLarge(max_states));
        }
        if depth > MAX_VANISHING_DEPTH {
            return Err(SanError::Unstabilized { marking: vals });
        }
        let m = Marking::new(&vals);
        let enabled: Vec<ActivityId> = san
            .activities()
            .filter(|(_, a)| a.is_instantaneous() && a.enabled(&m))
            .map(|(id, _)| id)
            .collect();
        if enabled.is_empty() {
            result.push((vals, p));
            continue;
        }
        let share = p / enabled.len() as f64;
        for &id in &enabled {
            let act = san.activity(id);
            let weights = act.case_weights(&m);
            let total: f64 = weights.iter().sum();
            if !(total.is_finite() && total > 0.0) {
                return Err(SanError::BadValue(act.name().to_owned()));
            }
            for (case, &w) in weights.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                let mut next = Marking::new(&vals);
                act.fire(case, &mut next);
                work.push((next.values().to_vec(), share * (w / total), depth + 1));
            }
        }
    }
    // First-encounter merge order, as in the statespace generator.
    let mut index: HashMap<Vec<i32>, usize> = HashMap::new();
    let mut merged: Vec<(Vec<i32>, f64)> = Vec::new();
    for (m, p) in result {
        match index.get(&m) {
            Some(&i) => merged[i].1 += p,
            None => {
                index.insert(m.clone(), merged.len());
                merged.push((m, p));
            }
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_san::model::SanBuilder;
    use std::sync::Arc;

    fn repairable(fail: f64, fix: f64) -> Arc<San> {
        let mut b = SanBuilder::new("m");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", fail)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("fix", fix)
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    /// `n` independent repairable components — state space 2^n, quotient
    /// n+1 under full exchangeability.
    fn n_components(n: usize) -> Arc<San> {
        let mut b = SanBuilder::new("multi");
        for i in 0..n {
            let up = b.place(format!("c{i}/up"), 1);
            let down = b.place(format!("c{i}/down"), 0);
            b.timed_activity(format!("c{i}/fail"), 1.0)
                .input_arc(up, 1)
                .output_arc(down, 1)
                .build()
                .unwrap();
            b.timed_activity(format!("c{i}/fix"), 2.0)
                .input_arc(down, 1)
                .output_arc(up, 1)
                .build()
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn component_spec(n: usize) -> SymmetrySpec {
        let units = (0..n)
            .map(|i| SymmetryUnit {
                shared: vec![2 * i, 2 * i + 1],
                blocks: vec![],
            })
            .collect();
        SymmetrySpec::new(2 * n, vec![SymmetryGroup { units }]).unwrap()
    }

    #[test]
    fn full_exploration_counts_states_and_edges() {
        let san = repairable(1.0, 2.0);
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.num_tangible(), 2);
        assert_eq!(g.num_transitions, 2);
        assert!(g.deadlocks.is_empty());
        assert!(g.vanishing_cycle.is_empty());
        assert_eq!(g.place_max, vec![1, 1]);
        assert!(g.fired.iter().all(|&f| f));
    }

    #[test]
    fn quotient_matches_full_on_exchangeable_components() {
        let n = 4;
        let san = n_components(n);
        let full = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(full.num_states(), 1 << n);
        let spec = component_spec(n);
        let quot = explore(
            &san,
            &ReachConfig::default(),
            Some(&spec),
            |_, _, _, _, _| {},
        )
        .unwrap();
        assert_eq!(quot.num_states(), n + 1);
        assert_eq!(quot.orbit_total(), (1 << n) as u128);
        assert_eq!(quot.place_max, full.place_max);
    }

    #[test]
    fn state_budget_is_a_structured_error() {
        let san = n_components(5);
        let err = explore(
            &san,
            &ReachConfig {
                max_states: 7,
                max_work: 1 << 20,
            },
            None,
            |_, _, _, _, _| {},
        )
        .unwrap_err();
        assert_eq!(err, ReachError::StateBudget { max_states: 7 });
    }

    #[test]
    fn work_budget_is_a_structured_error() {
        let san = n_components(5);
        let err = explore(
            &san,
            &ReachConfig {
                max_states: 1 << 20,
                max_work: 9,
            },
            None,
            |_, _, _, _, _| {},
        )
        .unwrap_err();
        assert_eq!(err, ReachError::WorkBudget { max_work: 9 });
    }

    #[test]
    fn deadlock_states_are_reported() {
        // One-way: up --fail--> down, no repair.
        let mut b = SanBuilder::new("oneway");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", 1.0)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.deadlocks, vec![1]);
    }

    #[test]
    fn vanishing_cycle_is_detected_without_diverging() {
        // Instantaneous toggle p <-> q: the statespace generator diverges
        // to its depth cap here; the graph explorer closes the loop in two
        // states and reports the cycle.
        let mut b = SanBuilder::new("toggle");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.instantaneous_activity("ab")
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.instantaneous_activity("ba")
            .input_arc(q, 1)
            .output_arc(p, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.num_tangible(), 0);
        let mut cyc = g.vanishing_cycle.clone();
        cyc.sort_unstable();
        assert_eq!(cyc, vec![0, 1]);
    }

    #[test]
    fn on_fire_sees_every_firing_with_raw_deltas() {
        let san = repairable(1.0, 2.0);
        let mut seen: Vec<(String, Vec<i64>)> = Vec::new();
        explore(
            &san,
            &ReachConfig::default(),
            None,
            |san, act, _case, _pre, delta| {
                seen.push((san.activity(act).name().to_owned(), delta.to_vec()));
            },
        )
        .unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                ("fail".to_owned(), vec![-1, 1]),
                ("fix".to_owned(), vec![1, -1]),
            ]
        );
    }

    #[test]
    fn tangible_projection_matches_statespace_bit_for_bit() {
        use itua_san::statespace::StateSpace;
        // A model with vanishing markings and case splits exercises every
        // arithmetic path of the resolution.
        let mut b = SanBuilder::new("v");
        let start = b.place("start", 1);
        let a = b.place("a", 0);
        let c = b.place("c", 0);
        let sink = b.place("sink", 0);
        b.instantaneous_activity("branch")
            .input_arc(start, 1)
            .case(0.3, move |m| m.add(a, 1))
            .case(0.7, move |m| m.add(c, 1))
            .build()
            .unwrap();
        b.timed_activity("tick", 1.5)
            .input_arc(a, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
        b.timed_activity("tock", 0.5)
            .input_arc(c, 1)
            .output_arc(start, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();

        let ours = tangible_projection(&san, 1000).unwrap();
        let theirs = StateSpace::generate(&san, 1000).unwrap();
        assert_eq!(ours.markings.len(), theirs.num_states());
        for (i, m) in ours.markings.iter().enumerate() {
            assert_eq!(m.as_slice(), theirs.marking(i).values());
        }
        assert_eq!(ours.transitions.len(), theirs.transitions().len());
        for (a, b) in ours.transitions.iter().zip(theirs.transitions()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "rates must be bit-equal");
        }
        let mut init = vec![0.0; ours.markings.len()];
        for &(i, p) in &ours.initial {
            init[i] += p;
        }
        let theirs_init = theirs.initial_distribution();
        for (x, y) in init.iter().zip(&theirs_init) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tangible_projection_mirrors_statespace_errors() {
        use itua_san::statespace::StateSpace;
        // Unbounded birth process: both must report the same budget error.
        let mut b = SanBuilder::new("grow");
        let n = b.place("n", 0);
        b.timed_activity("birth", 1.0)
            .output_arc(n, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let ours = tangible_projection(&san, 50).unwrap_err();
        let theirs = StateSpace::generate(&san, 50).unwrap_err();
        assert_eq!(ours, theirs);
        assert_eq!(ours, SanError::StateSpaceTooLarge(50));
    }

    #[test]
    fn full_tangible_count_matches_projection() {
        // The graph explorer's tangible states and the projection's state
        // list must agree in count on a model with vanishing markings.
        let mut b = SanBuilder::new("mix");
        let pool = b.place("pool", 2);
        let stage = b.place("stage", 0);
        let done = b.place("done", 0);
        b.timed_activity("pick", 1.0)
            .input_arc(pool, 1)
            .output_arc(stage, 1)
            .build()
            .unwrap();
        b.instantaneous_activity("commit")
            .input_arc(stage, 1)
            .output_arc(done, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let g = explore(&san, &ReachConfig::default(), None, |_, _, _, _, _| {}).unwrap();
        let t = tangible_projection(&san, 1000).unwrap();
        assert_eq!(g.num_tangible(), t.markings.len());
        assert!(
            g.num_states() > t.markings.len(),
            "vanishing states counted too"
        );
    }
}
