#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo package, release profile with fat LTO)
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload
at one seed. The last line of standard output is the JSON result; with
`--trace 1` the recorded spans are also written, as JSON lines, next to
the binary. Cargo's own output goes to standard error. The exit code is
the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        opts = dict(zip(args[::2], args[1::2]))
        name = "perfbench-spans-{}-{}.jsonl".format(
            opts.get("--workload", "unknown"), opts.get("--seed", "0"))
        args += ["--trace-out", os.path.join(target, name)]
    binary = os.path.join(target, "release", "mm-perfbench")
    # Fix glibc malloc's thresholds (setting them turns off its dynamic
    # adjustment): large blocks are mapped fresh and unmapped on free, so
    # every `MMachine::build` in a run pays the page faults a fresh
    # process pays, and `setup_s` does not flip between that cost and a
    # reused heap from one run to the next.
    env = dict(env, MALLOC_MMAP_THRESHOLD_="131072",
               MALLOC_TRIM_THRESHOLD_="131072")
    return subprocess.run([binary] + args, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
