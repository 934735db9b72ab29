"""Wall time and peak memory of `qtr scan` at several N, one fresh child each.

    python3 tools/scan_cost.py --n-max 100000 1000000 10000000 --jobs 1
    python3 tools/scan_cost.py --n-max 1000000 1000000 1000000 --jobs 1 2
    python3 tools/scan_cost.py --n-max 300000 --format json

For each N, in the order given (repeat an N to run it again), and for each J
of --jobs in turn, so that `--jobs 1 2` gives paired runs, it runs
`python -m qtr.cli scan --ell 37 --n-max N --format F --jobs J`, F being
--format (csv unless given), in src/ of this checkout, which `-m` puts first
on sys.path (PYTHONSAFEPATH, which would stop it, is unset for the child),
so qtr is imported from there whatever the working directory and PYTHONPATH
hold, and hashes the output as it streams.
The peak RSS is that child's own, from os.wait4: the larger of its own peak
and that of each pool worker it waited for.  (The parent's
getrusage(RUSAGE_CHILDREN) would keep the maximum over every child waited
for so far, so one run's reading could be an earlier run's.)  One line per
run: the wall time, the wall time per n in microseconds (us_per_n), the
peak RSS, the sha256 prefix of the output and the 1-minute load average
before and after the run, which says whether the host was busy.
Standard library only; POSIX only (os.wait4, os.getloadavg).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ELL = 37


def run_scan(n_max: int, jobs: int, fmt: str = "csv") -> tuple[float, float, str]:
    """One scan in a fresh child: its wall time in s, its peak RSS in MB and
    the sha256 prefix of its output in fmt."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONSAFEPATH"}
    argv = [sys.executable, "-m", "qtr.cli", "scan", "--ell", str(ELL), "--n-max", str(n_max),
            "--format", fmt, "--jobs", str(jobs)]
    digest = hashlib.sha256()
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=SRC, env=env)
    for block in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(block)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait again
    if child.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss_mb = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    return wall, rss_mb, digest.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-max", type=int, nargs="+", required=True)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1])
    parser.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    args = parser.parse_args(argv)
    if min(args.n_max) < 1:
        parser.error("each N of --n-max must be at least 1")
    if min(args.jobs) < 1:
        parser.error("each J of --jobs must be at least 1")
    print(f"{'N':>10}  jobs  {'wall_s':>7}  {'us_per_n':>8}  {'rss_mb':>6}  {'sha256':<12}  "
          "load before/after")
    for n_max in args.n_max:
        for jobs in args.jobs:
            before = os.getloadavg()[0]
            wall, rss_mb, digest = run_scan(n_max, jobs, args.format)
            after = os.getloadavg()[0]
            print(f"{n_max:>10}  {jobs:>4}  {wall:>7.2f}  {wall / n_max * 1e6:>8.2f}  "
                  f"{rss_mb:>6.1f}  {digest}  {before:.2f}/{after:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
