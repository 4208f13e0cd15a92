"""Time the enumeration kernels and the lattice layers built on them.

Runs each of ``qlat.kernels``' enumeration kernels, the brute-force line
count of ``qlat verify neighbor-bijection`` (``verify._brute_line_count``),
the p-neighbor construction (``lattice_from_line``), its inverse
(``line_from_lattice``) and the form of a neighbor in its own basis
(``plattice_quadlattice``), the integer layer under unique recovery
(``saturate``, ``sublattice_in_span`` and ``recover_lattice`` itself), the
cokernel M with its comparison maps (``cokernel_M``), the Witt witness
path (``witt_extension``, on a fresh space and on a warm one), the two
eliminators (``modp.rank``, ``modp.kernel_basis`` and ``modp.det`` mod p,
``IntMatrix.det`` over Z) and the start of a suite's shares
(``verify._run_shares``: one fork, pipe and reaped child) on fixed
workloads, and prints a table of best-of-N wall times.

A basis matrix keeps the annihilator of its span once ``saturate`` or
``sublattice_in_span`` has formed it, so their rows build each W's basis
inside the timing and time the computation they name.

A lattice forms the half-Gram of its form once, on first use, and keeps
it; a neighbor built by ``lattice_from_line`` has formed it already, so
the ``line_from_lattice`` and ``plattice_quadlattice`` rows on such
neighbors time the path that reads the kept form.  The rows marked
"rebuilt" rebuild each neighbor from its basis inside the timing, so they
time the path that forms it.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import product

from qlat import (
    CharLattice,
    FpQuadSpace,
    IntMatrix,
    InvariantViolationError,
    PLattice,
    Sublattice,
    cokernel_M,
    direct_sum,
    e8_lattice,
    enumerate_isotropic_lines,
    enumerate_neighbors,
    hyperbolic_plane,
    k3_lattice,
    kernels,
    lattice_from_line,
    line_from_lattice,
    plattice_quadlattice,
    recover_lattice,
    reduction,
    saturate,
    shrink_set,
    sublattice_in_span,
    witt_extension,
)
from qlat.fp_quadratic import isotropic_lines_in
from qlat.modp import det, kernel_basis, mat_vec, rank
from qlat.verify import (
    _brute_line_count,
    _cochar_instances,
    _hyperbolic_power,
    _run_shares,
    _subspace_bases,
)


def _hyperbolic(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1
    return tuple(tuple(r) for r in rows)


def _recoveries(p=2):
    """The ambient N, the W's and the (W, Ñ) recoveries of `qlat verify nice-cochar --p p`.

    W = Z·(1, q, 0, …) in H⊥H⊥H for each of the suite's q, and one
    recovery per member Ñ of the typed fiber of (W, p·W), as the suite
    makes them.
    """
    N, instances = _cochar_instances((p,), 6)
    ws, recoveries = [], []
    for _, q in instances:
        w = (1, q) + (0,) * (N.rank - 2)
        W = Sublattice(N, IntMatrix.from_columns([w]))
        ws.append(W)
        fiber = shrink_set(N, W, Sublattice(N, IntMatrix.from_columns([[p * x for x in w]])), p)
        recoveries += [(W, Nt) for Nt in fiber]
    return N, ws, recoveries


def _cokernel_instances(count=200, max_rank=10, seed=0, primes=(2, 3, 5)):
    """The instances (split, W, p) of ``qlat verify cokernel-m`` at its defaults.

    Drawn with the suite's seeded generator, in its order: a rank n = b + 2
    up to the suite's top rank and a saturated W whose last coordinates are
    not all divisible by p.
    """
    rng = random.Random(seed)
    instances = []
    for _ in range(count):
        p = primes[rng.randrange(len(primes))]
        n = rng.randint(0, max_rank - 2) + 2
        while True:
            k = rng.randint(1, n)
            raw = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)])
            W, _ = saturate(n, raw)
            if W.cols and any(x % p for x in W.entries[n - 1]):
                break
        instances.append((CharLattice(n, (1, n - 2, 1)), W, p))
    return instances


def _witt_pairs(V, ks=(1, 2)):
    """Every (X, Y) with X the canonical basis of a k-dimensional subspace,
    k in ``ks``, and Y an independent k-tuple with the Gram data of X."""
    p, n = V.p, V.dim
    vectors = [v for v in product(range(p), repeat=n) if any(v)]

    def gram(T):
        return [V.q(t) for t in T] + [V.b(a, b) for i, a in enumerate(T) for b in T[i + 1:]]

    pairs = []
    for k in ks:
        images: dict = {}
        for Y in product(vectors, repeat=k):
            if rank(Y, p) == k:
                images.setdefault(tuple(gram(Y)), []).append(Y)
        for X in _subspace_bases(p, n, k):
            pairs += [(X, Y) for Y in images[tuple(gram(X))]]
    return pairs


def _extend_all(V, pairs):
    """``witt_extension`` of every pair on V; a pair across the rulings of
    two Lagrangians has no special witness and raises."""
    for X, Y in pairs:
        try:
            witt_extension(V, X, Y)
        except InvariantViolationError:
            pass


def _no_op(share):
    return share


def _workloads():
    h8 = _hyperbolic(8)
    h6 = _hyperbolic(6)
    h4 = _hyperbolic(4)
    sl2_gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    he8 = direct_sum(hyperbolic_plane(), e8_lattice())
    he8_lines = enumerate_isotropic_lines(reduction(he8, 2))  # 527 lines
    he8_neighbors = [lattice_from_line(he8, line) for line in he8_lines]
    k3 = k3_lattice()
    # the isotropic lines of K3 mod 2 inside the span of e_1, …, e_10
    k3_lines = isotropic_lines_in(
        reduction(k3, 2), [tuple(int(i == j) for j in range(22)) for i in range(10)]
    )
    k3_neighbors = [lattice_from_line(k3, line) for line in k3_lines]
    h3_mod5 = reduction(_hyperbolic_power(3), 5)
    cochar_N, cochar_ws, recoveries = _recoveries()
    cochar_neighbors = enumerate_neighbors(cochar_N, 2)
    cokernel_instances = _cokernel_instances()
    witt_pairs = _witt_pairs(FpQuadSpace(3, h4))
    h4_mod3 = FpQuadSpace(3, h4)
    # the pairing rows of Y and of x_k, as ``_witt_map`` hands them to ``kernel_basis``
    witt_map_rows = [[mat_vec(h4_mod3.gram(), v, 3) for v in Y + X[-1:]] for X, Y in witt_pairs]
    witnesses = []
    for X, Y in witt_pairs:
        try:
            witnesses.append(witt_extension(h4_mod3, X, Y).matrix)
        except InvariantViolationError:
            pass
    grams = {"K3": k3.gram().entries, "E8": e8_lattice().gram().entries}
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
        (
            # the oracle of the largest item of `qlat verify neighbor-bijection`
            "brute line count H⊥H⊥H, p=5, 5^6 vectors",
            lambda: _brute_line_count(h3_mod5),
        ),
        (
            # the neighbors of `qlat neighbors H⊥E8 --p 2`
            f"lattice_from_line H⊥E8, p=2, {len(he8_lines)} lines",
            lambda: [lattice_from_line(he8, line) for line in he8_lines],
        ),
        (
            f"line_from_lattice H⊥E8, p=2, {len(he8_neighbors)} neighbors",
            lambda: [line_from_lattice(Nt) for Nt in he8_neighbors],
        ),
        (
            f"line_from_lattice H⊥E8, p=2, {len(he8_neighbors)} rebuilt",
            lambda: [line_from_lattice(PLattice(he8, 2, 1, Nt.numerator_basis)) for Nt in he8_neighbors],
        ),
        (
            f"plattice_quadlattice H⊥E8, p=2, {len(he8_neighbors)} neighbors",
            lambda: [plattice_quadlattice(Nt) for Nt in he8_neighbors],
        ),
        (
            # a recovery against building the neighbor, at the paper's rank
            f"lattice_from_line K3, p=2, {len(k3_lines)} lines",
            lambda: [lattice_from_line(k3, line) for line in k3_lines],
        ),
        (
            f"line_from_lattice K3, p=2, {len(k3_neighbors)} neighbors",
            lambda: [line_from_lattice(Nt) for Nt in k3_neighbors],
        ),
        (
            f"line_from_lattice K3, p=2, {len(k3_neighbors)} rebuilt",
            lambda: [line_from_lattice(PLattice(k3, 2, 1, Nt.numerator_basis)) for Nt in k3_neighbors],
        ),
        (
            # the W of each recovery in `qlat verify nice-cochar --p 2`, built in
            # the call: a basis keeps its annihilator, so a built W forms it again
            f"saturate nice-cochar p=2, {len(recoveries)} recoveries",
            lambda: [saturate(W.ambient.rank, IntMatrix(W.basis.entries)) for W, _ in recoveries],
        ),
        (
            # the meets of the suite's filter-all-neighbors route, each W built in the call
            f"sublattice_in_span nice-cochar p=2, {len(cochar_neighbors)} neighbors"
            f" x {len(cochar_ws)} W",
            lambda: [
                sublattice_in_span(Nt.numerator_basis, IntMatrix(W.basis.entries))
                for W in cochar_ws
                for Nt in cochar_neighbors
            ],
        ),
        (
            f"recover_lattice nice-cochar p=2, {len(recoveries)} recoveries",
            lambda: [recover_lattice(Nt, W) for W, Nt in recoveries],
        ),
        (
            # the instances of `qlat verify cokernel-m`
            f"cokernel_M ranks 2-10, p in 2, 3, 5, {len(cokernel_instances)} instances",
            lambda: [cokernel_M(*instance) for instance in cokernel_instances],
        ),
        (
            # the 1- and 2-tuple pairs of split-4 mod 3, Lagrangian cross-ruling pairs too,
            # on a fresh space, so that the Witt records are built inside the timing
            f"witt_extension H⊥H, p=3, {len(witt_pairs)} pairs",
            lambda: _extend_all(FpQuadSpace(3, h4), witt_pairs),
        ),
        (
            # the same pairs on a space that holds every record and witness already:
            # the path most calls of `qlat verify witt-extension` take
            f"witt_extension H⊥H, p=3, {len(witt_pairs)} pairs, warm space",
            lambda: _extend_all(h4_mod3, witt_pairs),
        ),
        (
            # the tuples X + Y whose rank the witt-extension suite reads on Lagrangian pairs
            f"modp.rank H⊥H, p=3, {len(witt_pairs)} tuples X + Y",
            lambda: [rank(X + Y, 3) for X, Y in witt_pairs],
        ),
        (
            f"modp.kernel_basis H⊥H, p=3, {len(witt_map_rows)} _witt_map rows",
            lambda: [kernel_basis(rows, 3, 4) for rows in witt_map_rows],
        ),
        (
            f"modp.det H⊥H, p=3, {len(witnesses)} witness matrices",
            lambda: [det(m, 3) for m in witnesses],
        ),
        (
            # one fork, pipe and reaped child: what a suite pays to start its shares
            "_run_shares, 2 shares of a no-op task",
            lambda: _run_shares(_no_op, 2),
        ),
    ] + [
        (
            f"IntMatrix.det {name} Gram, 100 calls",
            lambda rows=rows: [IntMatrix(rows).det() for _ in range(100)],
        )
        for name, rows in grams.items()
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
