#!/usr/bin/env python3
"""Build cwelmax and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both release builds go to
$CARGO_TARGET_DIR (default: .bench_build); generated inputs, stores and
spans go to .bench_work. The last line of stdout is the result object;
see perfbench/RATIONALE.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: the cwelmax sources are not next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "cwelmax"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--cwelmax", os.path.join(release, "cwelmax"),
           "--work", os.path.join(ROOT, ".bench_work")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
