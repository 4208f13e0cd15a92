"""Time the enumeration kernels of ``qlat.kernels``.

Runs each kernel on fixed workloads and prints a table of best-of-N wall
times.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import sys
import time

from qlat import kernels


def _hyperbolic(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1
    return tuple(tuple(r) for r in rows)


def _workloads():
    h8 = _hyperbolic(8)
    h6 = _hyperbolic(6)
    h4 = _hyperbolic(4)
    sl2_gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    return [
        (
            # the instance of `qlat quadric lines H⊥H⊥H⊥H --p 7`
            "isotropic_lines dim 8, p=7",
            lambda: kernels.isotropic_lines(7, 8, h8, 10**7),
        ),
        (
            "isotropic_lines dim 6, p=5",
            lambda: kernels.isotropic_lines(5, 6, h6, 10**7),
        ),
        (
            "quadric_points_mod dim 4, p=3, k=2",
            lambda: kernels.quadric_points_mod(3, 2, 4, h4, 10**8),
        ),
        (
            "group_closure SL2(F_13)",
            lambda: kernels.group_closure(sl2_gens, 13, 10**6),
        ),
        (
            "line_orbit SL2(F_101)",
            lambda: kernels.line_orbit(sl2_gens, (1, 0), 101, 10**6),
        ),
    ]


def _best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing (default 3)")
    args = parser.parse_args(argv)

    workloads = _workloads()
    width = max(len(name) for name, _ in workloads)
    print(f"{'workload':<{width}}  {'time':>10}")
    for name, fn in workloads:
        print(f"{name:<{width}}  {_best_time(fn, args.repeat):>9.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
