"""Time of `ntheory.factorize` on seeded products of two primes, per bit band.

    python3 tools/split_cost.py --bits 48 56 64 --count 100 --seed 1

For each band B, in the order given (repeat a B to run it again), it draws
--count products n = p * q of two distinct primes, each the least prime at
or above a seeded draw of B // 2 bits, so that n has about B bits and no
factor below 2^16: factorize goes through Miller-Rabin to the two stages of
Pollard p-1 and, if they do not split n, Pollard-Brent rho.  The products
are seeded by --seed and B alone, not drawn from the benchmark's request
pool.  qtr is imported from src/ of this checkout.

One line per band: the mean time of one factorize call (one split) in ms,
its median and its largest; how many of the n were split by p-1's stage 1,
by its stage 2 and by rho; and the 1-minute load average before and after
the band, which says whether the host was busy.  The split counts come from
a second, untimed pass that watches which stage returned.  A wrong
factorization exits 1.
Standard library only; POSIX only (os.getloadavg).
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qtr import ntheory  # noqa: E402


def products(bits: int, count: int, seed: int) -> list[tuple[int, int]]:
    """count pairs p < q of primes of about bits // 2 bits, from (seed, bits)."""
    rng = random.Random(f"{seed}:{bits}")
    half = bits // 2
    pairs = []
    while len(pairs) < count:
        p, q = sorted(next_prime(rng.randrange(1 << (half - 1), 1 << half)) for _ in range(2))
        if p < q:
            pairs.append((p, q))
    return pairs


def next_prime(m: int) -> int:
    while not ntheory.is_prime(m):
        m += 1
    return m


def split_by(n: int) -> str:
    """Which of stage1, stage2 and rho returns the split of n in ntheory._split:
    the last of them that ran, as stage 1 always runs and each of the others
    runs only when the one before it split nothing."""
    ran = ["stage1"]
    stage2, rho = ntheory._pm1_stage2, ntheory._pollard_brent
    ntheory._pm1_stage2 = lambda z, m: ran.append("stage2") or stage2(z, m)
    ntheory._pollard_brent = lambda m, budget: ran.append("rho") or rho(m, budget)
    try:
        ntheory._split(n, ntheory._RHO_BUDGET)
    finally:
        ntheory._pm1_stage2, ntheory._pollard_brent = stage2, rho
    return ran[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bits", type=int, nargs="+", required=True)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.bits) < 34:
        parser.error("--bits must be at least 34, so that both primes exceed 2^16")
    if args.count < 1:
        parser.error("--count must be at least 1")
    # build the tables that factorize builds at first use, so no band pays for them
    ntheory._trial_blocks(), ntheory._pm1_exponent(), ntheory._pm1_plan()
    print(f"{'bits':>4}  {'count':>5}  {'ms_per_split':>12}  {'median_ms':>9}  {'max_ms':>7}  "
          f"stage1  stage2  {'rho':>5}  load before/after")
    for bits in args.bits:
        pairs = products(bits, args.count, args.seed)
        before = os.getloadavg()[0]
        times = []
        for p, q in pairs:
            start = time.perf_counter()
            factors = ntheory.factorize(p * q)
            times.append(time.perf_counter() - start)
            if factors != [(p, 1), (q, 1)]:
                print(f"factorize({p * q}) = {factors}, not {p} * {q}", file=sys.stderr)
                return 1
        after = os.getloadavg()[0]
        splits = [split_by(p * q) for p, q in pairs]
        ms = [t * 1e3 for t in times]
        print(f"{bits:>4}  {len(pairs):>5}  {statistics.fmean(ms):>12.3f}  "
              f"{statistics.median(ms):>9.3f}  {max(ms):>7.2f}  {splits.count('stage1'):>6}  "
              f"{splits.count('stage2'):>6}  {splits.count('rho'):>5}  {before:.2f}/{after:.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
