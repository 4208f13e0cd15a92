"""Time the enumeration kernels, comparing backends when both exist.

Runs each kernel on fixed workloads and prints a table of best-of-N wall
times.  With the compiled extension built, both backends run, the table
adds the speedup ratio, and the outputs are compared, so a disagreement
fails loudly rather than timing garbage.  Without it the pure-Python
kernels are timed alone.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import sys
import time

from qlat import _kernels_py as pure

try:
    from qlat import _speedups as compiled
except ImportError:
    compiled = None


def _hyperbolic(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1
    return tuple(tuple(r) for r in rows)


def _workloads():
    h6 = _hyperbolic(6)
    h4 = _hyperbolic(4)
    sl2_gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    return [
        (
            "isotropic_lines dim 6, p=5",
            lambda impl: impl.isotropic_lines(5, 6, h6, 10**7),
        ),
        (
            "quadric_points_mod dim 4, p=3, k=2",
            lambda impl: impl.quadric_points_mod(3, 2, 4, h4, 10**8),
        ),
        (
            "group_closure SL2(F_13)",
            lambda impl: impl.group_closure(sl2_gens, 13, 10**6),
        ),
        (
            "line_orbit SL2(F_101)",
            lambda impl: impl.line_orbit(sl2_gens, (1, 0), 101, 10**6),
        ),
        (
            "brute_isometry_count H⊥H, p=3",
            lambda impl: impl.brute_isometry_count(3, 4, h4, False, 10**8),
        ),
    ]


def _best_time(fn, impl, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(impl)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing (default 3)")
    args = parser.parse_args(argv)

    width = max(len(name) for name, _ in _workloads())
    header = f"{'workload':<{width}}  {'pure':>10}"
    if compiled is None:
        print("compiled backend not available; timing the pure kernels alone", file=sys.stderr)
    else:
        header += f"  {'compiled':>10}  {'speedup':>8}"
    print(header)
    for name, fn in _workloads():
        t_pure, r_pure = _best_time(fn, pure, args.repeat)
        row = f"{name:<{width}}  {t_pure:>9.4f}s"
        if compiled is not None:
            t_fast, r_fast = _best_time(fn, compiled, args.repeat)
            if r_pure != r_fast:
                print(f"{name}: BACKENDS DISAGREE", file=sys.stderr)
                return 1
            ratio = t_pure / t_fast if t_fast > 0 else float("inf")
            row += f"  {t_fast:>9.4f}s  {ratio:>7.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
