#!/usr/bin/env python3
"""Build the ITUA benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: des-figures, san-figures, exact-figures, tail-split. The
benchmark is built with cargo into $CARGO_TARGET_DIR (default
.bench_build); cargo's output goes to stderr. The benchmark prints every
metric with its unit, the host, nproc, thread count and seed, and, as the
last line of stdout, one JSON result object. Result stores and span files
go under .bench_work/.
"""

import os
import platform
import subprocess
import sys


def main() -> int:
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["HOSTNAME"] = platform.node()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "itua-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
