#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. The build goes
through dune into the checkout's own _build/ (dune's shared cache is
turned off, so nothing is written outside the checkout); build output
goes to standard error. The benchmark itself prints, as the last line
of standard output, one JSON object with the run's verdict and its
metrics, and writes its full report under .perfbench/. The exit code is
the benchmark's: 0 when every verdict and check passed, 1 when one
failed, 2 on bad arguments; a failed build or a directory that is not a
checkout exits non-zero without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a checkout (missing: %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
