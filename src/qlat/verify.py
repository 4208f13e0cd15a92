"""Named verification suites with machine-readable reports.

Each suite runs a family of exactly checkable instances and returns a
:class:`VerifyReport`; a failure is any instance whose computed values
disagree with the stated law.  All suites are deterministic for a fixed
seed, and report details are ordered canonically by input digest, so
identical invocations produce identical documents.

Suites
------
* ``neighbor-bijection`` — the line ↔ self-dual-lattice correspondence is
  a bijection (counts agree with independent brute force, both round
  trips are identities), and enumerated isotropic-line counts match
  ``fp_quadratic``'s closed forms for every nondegenerate type of dim ≤ 6.
* ``nice-cochar`` — the typed-line fiber equals the brute-force filter
  fiber (two independent routes), every fiber member recovers the unique
  original lattice, and the orbit of the first typed line under SO_W,
  the special isometries fixing W, covers the whole typed set (one orbit
  that covers the set proves the action transitive).
* ``witt-extension`` — exhaustively over small spaces: every isometry
  between subspaces of codimension ≥ 2 extends to a verified special
  isometry of the whole space.
* ``cokernel-m`` — seeded random finite-cokernel instances: the first
  comparison map has image of index exactly p and the second is an
  isomorphism.
* ``lang-counts`` — smooth-scheme point counts: generic typed lines mod
  p² are exactly p^(n-2) per mod-p line.
* ``spinor-surjectivity`` — a verified element of nontrivial spinor norm
  fixing W pointwise exists whenever codim(W) ≥ 3 (odd p).
* ``k3-degree`` — the polarization-change construction satisfies its
  degree, primitivity, signature, and discriminant laws.

Processes
---------
Every suite builds its list of instances in the calling process, together
with whatever work the instances share, and then deals the instances
round-robin to one share per usable core (the process's CPU affinity, else
``os.cpu_count()``): the caller runs share 0 and forked children run the
others, and the caller merges their counts and failure details.
``neighbor-bijection`` deals by weight instead: each instance in turn goes
to the share with the least estimated time so far.  With one
core, or where the platform cannot fork, the caller runs every instance
and starts nothing.  ``witt-extension`` deals whole Gram types: one item
is every subspace of one Gram type in one space, so the Witt records of a
type's tuples are built in one process only.  A report, and so the CLI's
stdout, does not depend on the number of processes; :func:`processes`
gives it, a report keeps the number that ran it as ``processes`` (at most
one per item), and ``qlat verify`` names both on stderr.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import mul

from . import kernels
from .deformation_tori import CharLattice, cokernel_M
from .errors import InvariantViolationError, PreconditionError, SizeGuardError
from .exact_linalg import IntMatrix, saturate
from .fp_quadratic import (
    FpQuadSpace,
    closed_form_line_count,
    enumerate_isotropic_lines,
    half_gram_on,
    isotropic_generators,
    line_sort_key,
    perp_basis,
    reflection,
    spinor_norm,
    stabilizer_orbit,
    witt_decomposition,
    witt_extension,
)
from .hecke_k3 import k3_isogeny
from .modp import MAX_PROJ_POINTS, check_int, check_prime, legendre, mat_vec, rank
from .padic_lattice import (
    PLattice,
    enumerate_neighbors,
    lattice_from_line,
    line_from_lattice,
    recover_lattice,
    reduction,
    shrink_set,
    shrink_set_bruteforce,
    w_generic_lines,
)
from .quad_lattice import (
    QuadLattice,
    Sublattice,
    direct_sum,
    discriminant_group,
    hyperbolic_plane,
    k3_lattice,
    orthogonal_complement,
    restricted_lattice,
    signature,
)

__all__ = ["VerifyReport", "SUITES", "run_suite", "processes"]


@dataclass
class VerifyReport:
    """Outcome of one verification suite."""

    suite: str
    instances: int = 0
    failures: int = 0
    details: list = field(default_factory=list)
    # how many processes ran the suite: not part of the report's document
    processes: int = field(default=1, compare=False)

    def record(self, desc: dict, ok: bool, expected, actual) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            self.details.append(
                {"input": _digest(desc), "expected": expected, "actual": actual}
            )

    def finish(self) -> "VerifyReport":
        """Sort the failure details; a report that checked nothing is an error.

        Raises PreconditionError when no instance was recorded: the suite's
        parameters selected none, and a report of zero failures would claim
        a check that never ran.
        """
        if self.instances == 0:
            raise PreconditionError(
                f"suite {self.suite} selected no instance for these parameters"
            )
        self.details.sort(key=lambda d: d["input"])
        return self

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "failures": self.failures,
            "details": self.details,
        }


def _digest(desc: dict) -> str:
    blob = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _hyperbolic_power(k: int) -> QuadLattice:
    return direct_sum(*[hyperbolic_plane() for _ in range(k)])


def _quadric_value_counts(V: FpQuadSpace) -> list[int]:
    """How many vectors of F_p^n take each value of Q: entry c counts Q(x) = c.

    Visits all p^n vectors, prefix by prefix, with U the half-Gram.  A
    prefix (x_0, …, x_{k−1}) carries Q of the prefix and, for each j ≥ k,
    the coefficient ℓ_j = Σ_{i<k} U_ij·x_i that it contributes to x_j.
    Appending x_k = t adds t·(ℓ_k + U_kk·t) to Q and t·U_kj to each ℓ_j,
    j > k, so a vector costs O(1) amortised where Q from scratch costs
    O(n²).  The last coordinate's p values are tested one by one.
    """
    p, U, n = V.p, V.half_gram, V.dim
    counts = [0] * p
    if n == 0:
        counts[0] = 1
        return counts
    last = U[n - 1][n - 1]

    def scan(k: int, q: int, lin: list[int]) -> None:
        if k == n - 1:
            l = lin[0]
            for t in range(p):
                counts[(q + t * (l + last * t)) % p] += 1
            return
        row = U[k]
        lk, ukk, right, tail = lin[0], row[k], row[k + 1 :], lin[1:]
        for t in range(p):
            scan(k + 1, q + t * (lk + ukk * t), [x + t * u for x, u in zip(tail, right)])

    scan(0, 0, [0] * n)
    return counts


def _brute_line_count(V: FpQuadSpace) -> int:
    """Isotropic-line count by scanning every vector (independent route).

    The nonzero zeros of Q among the p^n vectors that
    :func:`_quadric_value_counts` visits, divided by p − 1.
    """
    p = V.p
    points = _quadric_value_counts(V)[0] - 1
    if points % (p - 1):
        raise InvariantViolationError("isotropic point count not divisible by p - 1")
    return points // (p - 1)


def _nondegenerate_spaces(p: int, max_dim: int):
    """Representatives of every nondegenerate isometry class of dim ≤ max_dim.

    Yields ``(name, space)`` pairs one at a time, so a suite that sweeps one
    space after another holds only the current space and what it keeps.
    """
    if p == 2:
        aniso = [[1, 1], [0, 1]]
        for n in range(2, max_dim + 1, 2):
            split = _hyperbolic_power(n // 2).half_gram.entries
            yield (f"split-{n}", FpQuadSpace(p, split))
            hyp = _hyperbolic_power((n - 2) // 2).half_gram.entries if n > 2 else ()
            block = [list(r) + [0, 0] for r in hyp]
            block += [[0] * (n - 2) + list(r) for r in aniso]
            yield (f"nonsplit-{n}", FpQuadSpace(p, block))
        return
    r = next(x for x in range(2, p) if legendre(x, p) == -1)
    for n in range(1, max_dim + 1):
        for tag, last in (("sq", 1), ("nonsq", r)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n - 1):
                rows[i][i] = 1
            rows[n - 1][n - 1] = last
            yield (f"diag-{n}-{tag}", FpQuadSpace(p, rows))


# ---------------------------------------------------------------------------
# shares
# ---------------------------------------------------------------------------


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes() -> int:
    """How many processes ``run_suite`` deals a suite's instances to.

    One per usable core where the platform can fork; otherwise 1.
    """
    return _usable_cores() if hasattr(os, "fork") else 1


def _shares_by_weight(weights: list[int], shares: int) -> list[list[int]]:
    """The item indices of each share, for items of these weights.

    Each item in turn goes to the share with the least weight so far, the
    lowest such share on a tie; so with equal weights share s holds the
    items s, s + c, s + 2c, … of c shares.  A share keeps the suite's
    order.  Every weight must be a positive integer.
    """
    message = "item weights must be positive integers"
    check_int(*weights, message=message)
    if any(w <= 0 for w in weights):
        raise PreconditionError(message)
    loads = [0] * shares
    out: list[list[int]] = [[] for _ in range(shares)]
    for index, weight in enumerate(weights):
        share = loads.index(min(loads))
        loads[share] += weight
        out[share].append(index)
    return out


def _deal(name: str, items: list, check, weights: list[int] | None = None) -> VerifyReport:
    """The finished report of ``check(part, item)`` over every item.

    Each share runs ``check`` on its items into a report of its own, and
    the caller adds up the shares' counts and failure details.  The items
    are dealt by ``weights`` (one positive integer per item, each a
    measure of its cost; :func:`_shares_by_weight`), so that the shares
    end at about the same time; without weights every item weighs the
    same, and share s of c runs ``items[s::c]``.  c is :func:`processes`,
    but never more than there are items, and the report keeps it as
    ``processes``.  Work that the items share is built by the caller
    before it calls this, so every share inherits it and a guard on it
    trips before anything forks.
    """
    if weights is None:
        weights = [1] * len(items)
    elif len(weights) != len(items):
        raise PreconditionError("one weight per item")
    shares = max(1, min(processes(), len(items)))
    dealt = _shares_by_weight(weights, shares)

    def run(share: int) -> VerifyReport:
        part = VerifyReport(name)
        for index in dealt[share]:
            check(part, items[index])
        return part

    report = VerifyReport(name)
    report.processes = shares
    for part in _run_shares(run, shares):
        report.instances += part.instances
        report.failures += part.failures
        report.details += part.details
    return report.finish()


def _run_shares(task, jobs: int) -> list:
    """``[task(0), …, task(jobs - 1)]``, computed concurrently.

    The caller computes share 0 itself; shares 1 … jobs − 1 run in forked
    children, which send their result back through a pipe and end in
    ``os._exit``, so a child never flushes the stdio buffers it inherited.
    An exception raised by a share is raised here with its type and
    message (the lowest-numbered failing share's).  No child outlives the
    call, whether it returns or raises.  With ``jobs`` = 1 nothing is forked
    and ``multiprocessing`` is not imported.
    """
    if jobs == 1:
        return [task(0)]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in range(1, jobs):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_share_child, args=(task, share, sender))
            child.start()
            sender.close()
            children.append((child, receiver))
        results = [task(0)]
        for share, (child, receiver) in enumerate(children, 1):
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"share {share} ended with exit code {child.exitcode} before reporting"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()


def _share_child(task, share: int, sender) -> None:
    """Run one share in a forked child and send ``(ok, result or exception)``."""
    try:
        try:
            result = (True, task(share))
        except BaseException as exc:  # the caller re-raises it
            result = (False, exc)
        sender.send(result)
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_neighbor_bijection(primes, max_rank, seed, max_points) -> VerifyReport:
    """Line ↔ lattice bijection on H, H⊥H, H⊥H⊥H, plus closed-form counts.

    An instance is a lattice at a prime, whose bijection it checks, or a
    nondegenerate space, whose line count it checks.

    With φ = ``lattice_from_line`` and ψ = ``line_from_lattice``, a
    lattice instance checks (A) that the lines ψ(Ñ) of the enumerated
    neighbors Ñ, sorted, are the enumerated lines, and (B) that
    φ(ψ(Ñ)) = Ñ for each Ñ; so each neighbor is built twice, by the
    enumeration and by (B).  Both round trips follow: (B) is the one
    through ψ first, and for a line l, (A) gives exactly one Ñ with
    ψ(Ñ) = l, so (B) gives φ(l) = Ñ and hence ψ(φ(l)) = l.

    The items are dealt by weight.  A lattice item's time grows as its
    neighbors × n², one neighbor of H^k at p per isotropic line of the
    split space, (p^{k−1} + 1)(p^k − 1)/(p − 1) of them; a space item's as
    the p^n vectors its oracle scans.  One neighbor·n² costs about as much
    as ten scanned vectors.
    """
    primes = tuple(primes) if primes else (2, 3, 5)
    lattices = [(k, _hyperbolic_power(k)) for k in (1, 2, 3) if 2 * k <= max_rank]
    items = [("⊥".join(["H"] * k), N, None, p) for k, N in lattices for p in primes]
    items += [
        (name, None, V, p) for p in primes for name, V in _nondegenerate_spaces(p, max_rank)
    ]

    def weight(item) -> int:
        _, N, V, p = item
        if N is None:
            return p**V.dim
        n = N.rank
        k = n // 2
        return 10 * (p ** (k - 1) + 1) * (p**k - 1) // (p - 1) * n * n

    def check(report: VerifyReport, item) -> None:
        name, N, V, p = item
        if N is None:
            desc = {"suite": "neighbor-bijection", "space": name, "p": p}
            enumerated = len(isotropic_generators(V, max_points))
            formula = closed_form_line_count(V)
            brute = _brute_line_count(V)
            report.record(
                desc,
                enumerated == formula == brute,
                {"count": formula},
                {"enumerated": enumerated, "brute": brute},
            )
            return
        desc = {"suite": "neighbor-bijection", "lattice": name, "p": p}
        V = reduction(N, p)
        lines = enumerate_isotropic_lines(V, max_points)
        brute = _brute_line_count(V)
        neighbors = enumerate_neighbors(N, p, max_points)
        ok_counts = len(lines) == brute and len(neighbors) == brute
        rec = [line_from_lattice(Nt) for Nt in neighbors]
        round_trips = sorted(rec, key=line_sort_key) == list(lines) and all(
            lattice_from_line(N, ln) == Nt for ln, Nt in zip(rec, neighbors)
        )
        report.record(
            desc,
            ok_counts and round_trips,
            {"lines": brute, "neighbors": brute, "round_trips": True},
            {"lines": len(lines), "neighbors": len(neighbors), "round_trips": round_trips},
        )

    return _deal("neighbor-bijection", items, check, weights=[weight(item) for item in items])


def _cochar_instances(primes, max_rank):
    N = _hyperbolic_power(3)
    if N.rank > max_rank:
        return N, []
    qs = (1, -1, 2, -2, 3, -3)
    return N, [(p, q) for p in primes for q in qs]


def suite_nice_cochar(primes, max_rank, seed, max_points) -> VerifyReport:
    """Shrink-fiber dual routes, unique recovery, and orbit transitivity.

    For every instance the typed-line route and the filter-all-neighbors
    route must produce identical fibers; every fiber member must recover
    the original lattice as the unique survivor; and the orbit of the
    first typed line under SO_W, the special isometries fixing W
    (``stabilizer_orbit``, each member certified by ``witt_extension``),
    must equal the full typed set, which proves SO_W transitive on it.
    """
    primes = tuple(primes) if primes else (2, 3)
    N, instances = _cochar_instances(primes, max_rank)
    n = N.rank

    def check(report: VerifyReport, item) -> None:
        p, q = item
        desc = {"suite": "nice-cochar", "p": p, "q": q}
        wcol = [1, q] + [0] * (n - 2)
        W = Sublattice(N, IntMatrix.from_columns([wcol]))
        Wt = Sublattice(N, IntMatrix.from_columns([[p * x for x in wcol]]))
        typed = shrink_set(N, W, Wt, p, max_points)
        brute = shrink_set_bruteforce(N, W, Wt, p, max_points)
        ok_fiber = typed == brute
        home = PLattice(N, p, 0, IntMatrix.identity(n))
        ok_recover = True
        for Nt in typed:
            try:
                if recover_lattice(Nt, W) != home:
                    ok_recover = False
            except InvariantViolationError:
                ok_recover = False
        lines = w_generic_lines(N, W, p, None, max_points)
        V = reduction(N, p)
        ok_orbit = bool(lines) and stabilizer_orbit(V, [wcol], lines[0], lines) == lines
        report.record(
            desc,
            ok_fiber and ok_recover and ok_orbit,
            {"dual_routes_equal": True, "recovered": True, "orbit_covers": True},
            {
                "dual_routes_equal": ok_fiber,
                "recovered": ok_recover,
                "orbit_covers": ok_orbit,
                "fiber_size": len(typed),
            },
        )

    return _deal("nice-cochar", instances, check)


def _subspace_bases(p: int, n: int, k: int):
    """Canonical bases (RREF rows) of all k-dimensional subspaces of F_p^n.

    Each subspace comes out once, as its RREF matrix: the pivot sets in
    lexicographic order, and for each every filling of its free entries
    (the entries right of a row's pivot outside the pivot columns) in
    product order.
    """
    for pivots in combinations(range(n), k):
        free = [(i, c) for i, c0 in enumerate(pivots) for c in range(c0 + 1, n) if c not in pivots]
        for values in product(range(p), repeat=len(free)):
            rows = [[int(c == c0) for c in range(n)] for c0 in pivots]
            for (i, c), x in zip(free, values):
                rows[i][c] = x
            yield tuple(map(tuple, rows))


def suite_witt_extension(primes, max_rank, seed, max_points) -> VerifyReport:
    """Exhaustive extension of subspace isometries over F_2 and F_3.

    For every nondegenerate space of dim ≤ 4, every subspace of
    codimension ≥ 2 (by canonical basis X), and every tuple Y with the
    same Gram data — i.e. every isometry of X onto any subspace — a
    special-orthogonal witness must exist and verify.  One instance per
    (space, X, Y).

    One genuinely impossible family is excluded: when both spans are
    maximal totally isotropic subspaces of a split space (dim = Witt
    index m, ambient dim 2m), those subspaces fall into two rulings —
    two special-orthogonal orbits, swapped by any improper isometry —
    and a map across rulings has no special witness at all.  The two
    spans lie in the same ruling exactly when m − dim(span X ∩ span Y)
    is even, so odd-parity Lagrangian pairs are skipped rather than
    counted as failures.

    Before any sweep, the tuples each space can visit are bounded by the
    sum over X of the product of the Q-value bucket sizes of its vectors;
    past ``max_points`` the suite raises SizeGuardError: an input limit is
    not a counterexample.

    The dealt items are (space, group): a group is every X of one Gram
    type of the space (the Q-values of its vectors and their pairings), in
    canonical order, and a space's groups come in descending order of
    their share of the bound above.  Every tuple a group's sweep hands to
    ``witt_extension``, X or Y, is of the group's type, so each tuple's
    record on the space is built in one share only.  A share holds one
    ``FpQuadSpace`` of its own at a time and builds the next when the space
    changes, so a space's caches go once the share is past it.
    """
    primes = tuple(primes) if primes else (2, 3)
    items = []
    for p in primes:
        for name, V in _nondegenerate_spaces(p, max_rank):
            n = V.dim
            vectors = [v for v in product(range(p), repeat=n) if any(v)]
            by_q: dict[int, list] = {}
            for v in vectors:
                by_q.setdefault(V.q(v), []).append(v)
            groups: dict = {}  # the form on X (its Gram type) -> [bound, its X]
            for k in range(0, n - 1):
                for X in _subspace_bases(p, n, k):
                    form = half_gram_on(V, X)
                    group = groups.setdefault(form, [0, []])
                    # each Y the sweep visits takes y_j from the Q-value bucket of x_j
                    group[0] += math.prod(len(by_q.get(form[j][j], ())) for j in range(k))
                    group[1].append(X)
            tuples = sum(bound for bound, _ in groups.values())
            if tuples > max_points:
                raise SizeGuardError(
                    f"witt-extension over {name} at p = {p} would sweep up to {tuples} "
                    f"tuples, past the guard {max_points} (raise it with --max-points)"
                )
            space = (name, p, V.half_gram, by_q)
            ranked = sorted(groups.values(), key=lambda entry: -entry[0])
            items += [(space, group) for _, group in ranked]
    held = {"space": None}  # this process's current space, its FpQuadSpace and Witt index

    def check(report: VerifyReport, item) -> None:
        space, group = item
        name, p, half_gram, by_q = space
        if held["space"] is not space:
            V = FpQuadSpace(p, half_gram)
            held.update(space=space, V=V, witt_index=len(witt_decomposition(V)[0]))
        _sweep_witt_images(report, name, held["V"], held["witt_index"], by_q, group)

    return _deal("witt-extension", items, check)


def _sweep_witt_images(report, name, V, witt_index, by_q, group) -> None:
    """Record one instance for each isometry of span(X) onto a subspace of V.

    Every X of ``group`` has the same form (``half_gram_on``), so the
    tuples Y that match it, and whether the pairs are Lagrangian, are
    worked out once from the first X and then checked against each X in turn.
    Each X is handed over as the equal tuple among its images, so
    ``witt_extension`` finds every recorded tuple by identity.
    """
    first = group[0]
    p, n, k = V.p, V.dim, len(first)
    form = half_gram_on(V, first)
    lagrangian = 2 * k == n and k == witt_index and not any(map(any, form))
    images = list(_gram_matching_tuples(V, form, by_q, p))
    as_image = {Y: Y for Y in images}
    for X in map(as_image.__getitem__, group):
        for Y in images:
            if lagrangian:
                meet = 2 * k - rank(X + Y, p)
                if (k - meet) % 2 == 1:
                    continue
            try:
                g = witt_extension(V, X, Y)
                ok = all(g.apply(x) == y for x, y in zip(X, Y))
                ok = ok and g.is_special()
                actual = "verified witness" if ok else "invalid witness"
            except InvariantViolationError as exc:
                ok, actual = False, f"{type(exc).__name__}: {exc}"
            if ok:
                report.instances += 1
                continue
            desc = {
                "suite": "witt-extension",
                "space": name,
                "p": p,
                "X": [list(x) for x in X],
                "Y": [list(y) for y in Y],
            }
            report.record(desc, False, "verified witness", actual)


def _gram_matching_tuples(V, form, by_q, p):
    """All independent tuples Y on which V's form is ``form`` (``half_gram_on``).

    A candidate w for y_j pairs with each chosen y_i as B·y_i · w, with
    B·y_i formed once when y_i is chosen.
    """
    k = len(form)
    if k == 0:
        yield ()
        return
    B = V.gram()
    chosen: list = []
    paired: list = []  # B·y for each chosen y

    def extend(j):
        if j == k:
            if rank(chosen, p) == k:
                yield tuple(chosen)
            return
        for w in by_q.get(form[j][j], ()):
            if all(sum(map(mul, by, w)) % p == form[i][j] for i, by in enumerate(paired)):
                chosen.append(w)
                paired.append(mat_vec(B, w, p))
                yield from extend(j + 1)
                chosen.pop()
                paired.pop()

    yield from extend(0)


def suite_cokernel_m(primes, max_rank, seed, max_points) -> VerifyReport:
    """200 seeded random valid instances of the finite-cokernel claims.

    The instances are drawn in the caller, in order, before any is checked.
    Their rank b + 2 is at most ``max_rank``, so below rank 2 there is none.
    """
    primes = tuple(primes) if primes else (2, 3, 5)
    max_b = max_rank - 2
    rng = random.Random(seed)
    count = 200 if max_b >= 0 else 0
    items = []
    for i in range(count):
        p = primes[rng.randrange(len(primes))]
        b = rng.randint(0, max_b)
        n = b + 2
        while True:
            k = rng.randint(1, n)
            raw = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            )
            basis, _ = saturate(n, raw)
            if basis.cols == 0:
                continue
            last = [basis.entries[n - 1][j] for j in range(basis.cols)]
            if any(x % p for x in last):
                break
        items.append((i, p, b, basis))

    def check(report: VerifyReport, item) -> None:
        i, p, b, basis = item
        desc = {
            "suite": "cokernel-m",
            "index": i,
            "p": p,
            "b": b,
            "W": [list(r) for r in basis.entries],
        }
        split = CharLattice(b + 2, (1, b, 1))
        try:
            _, inj1, iso2 = cokernel_M(split, basis, p)
            ok = inj1 == p and iso2
            actual = {"inj1_index": inj1, "iso2": iso2}
        except (InvariantViolationError, PreconditionError) as exc:
            ok, actual = False, f"{type(exc).__name__}: {exc}"
        report.record(desc, ok, {"inj1_index": p, "iso2": True}, actual)

    return _deal("cokernel-m", items, check)


def suite_lang_counts(primes, max_rank, seed, max_points) -> VerifyReport:
    """Smooth-quadric lifting counts: mod-p² generic lines = p^(n-2) per line.

    The mod-p² points of each (lattice, p) are listed once, in the caller.
    """
    primes = tuple(primes) if primes else (2, 3)
    items = []
    for k in (1, 2, 3):
        N = _hyperbolic_power(k)
        n = N.rank
        if n > max_rank:
            continue
        name = "⊥".join(["H"] * k)
        for p in primes:
            half = tuple(
                tuple(x % (p * p) for x in row) for row in N.half_gram.entries
            )
            reps = kernels.quadric_points_mod(p, 2, n, half, max_points)
            items += [(name, N, p, reps, q) for q in (1, -1, 2, -2, 3, -3)]

    def check(report: VerifyReport, item) -> None:
        name, N, p, reps, q = item
        n = N.rank
        desc = {"suite": "lang-counts", "lattice": name, "p": p, "q": q}
        wcol = [1, q] + [0] * (n - 2)
        W = Sublattice(N, IntMatrix.from_columns([wcol]))
        lines = w_generic_lines(N, W, p, None, max_points)
        brow = N.gram().mul_vector(wcol)
        # the points off the line of w mod p that pair with w nontrivially mod p;
        # the pairing alone decides: a rep ≡ c·w has c²q ≡ Q(rep) ≡ 0, so B(w, rep) ≡ 2cq ≡ 0
        lifted = sum(1 for rep in reps if sum(map(mul, brow, rep)) % p)
        expected = len(lines) * p ** (n - 2)
        report.record(
            desc,
            lifted == expected,
            {"mod_p2_count": expected},
            {"mod_p2_count": lifted, "mod_p_count": len(lines)},
        )

    return _deal("lang-counts", items, check)


def suite_spinor_surjectivity(primes, max_rank, seed, max_points) -> VerifyReport:
    """Witnesses of nontrivial spinor norm fixing W pointwise, odd p.

    For each instance a product of two reflections in W^⊥ whose Q-values
    multiply to a nonsquare is searched, then verified independently:
    it must fix W pointwise, be special, and have spinor norm -1 when
    refactored from scratch.
    """
    primes = tuple(p for p in (primes or (3, 5, 7)) if p != 2)
    configs = []
    if max_rank >= 4:
        configs.append(("H⊥H", _hyperbolic_power(2), [[1, 1, 0, 0]]))
    if max_rank >= 6:
        H3 = _hyperbolic_power(3)
        configs.append(("H⊥H⊥H", H3, [[1, 1, 0, 0, 0, 0]]))
        configs.append(("H⊥H⊥H", H3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]))
        configs.append(
            ("H⊥H⊥H", H3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, -1]])
        )
    items = [(p, name, N, wrows) for p in primes for name, N, wrows in configs]

    def check(report: VerifyReport, item) -> None:
        p, name, N, wrows = item
        desc = {"suite": "spinor-surjectivity", "lattice": name, "p": p, "W": wrows}
        V = reduction(N, p)
        wvecs = [tuple(x % p for x in row) for row in wrows]
        perp = perp_basis(V, wvecs)
        cols = tuple(zip(*perp))  # u = Σ c_i·perp_i is cols·c
        sq = nonsq = None
        for coeffs in kernels.proj_reps(p, len(perp)):
            u = mat_vec(cols, coeffs, p)
            qu = V.q(u)
            if qu == 0:
                continue
            if legendre(qu, p) == 1 and sq is None:
                sq = u
            if legendre(qu, p) == -1 and nonsq is None:
                nonsq = u
            if sq and nonsq:
                break
        ok, actual = False, "no witness found"
        if sq and nonsq:
            g = reflection(V, sq) @ reflection(V, nonsq)
            fixes = all(g.apply(w) == w for w in wvecs)
            special = g.is_special()
            norm = spinor_norm(V, g)
            ok = fixes and special and norm == -1
            actual = {"fixes_W": fixes, "special": special, "spinor_norm": norm}
        report.record(
            desc, ok, {"fixes_W": True, "special": True, "spinor_norm": -1}, actual
        )

    return _deal("spinor-surjectivity", items, check)


def suite_k3_degree(primes, max_rank, seed, max_points) -> VerifyReport:
    """Degree/primitivity/signature/discriminant laws of the K3 construction.

    Every instance has rank 22, so a ``max_rank`` below it selects none.
    """
    primes = tuple(p for p in (primes or (2, 3)))
    K3 = k3_lattice()
    target_sig = signature(K3)
    items = [(d, p) for d in range(1, 6) for p in primes] if max_rank >= K3.rank else []

    def check(report: VerifyReport, item) -> None:
        d, p = item
        desc = {"suite": "k3-degree", "d": d, "p": p}
        pol = k3_isogeny(d, p)
        L = pol.lattice
        gram = L.gram()
        unimodular = abs(gram.det()) == 1
        even = all(gram.entries[i][i] % 2 == 0 for i in range(L.rank))
        sig_ok = signature(L) == target_sig
        degree_ok = pol.degree == p * p * d
        primitive = math.gcd(*pol.xi) == 1
        comp = orthogonal_complement(
            L, Sublattice(L, IntMatrix.from_columns([list(pol.xi)]))
        )
        disc = discriminant_group(restricted_lattice(comp))
        disc_ok = disc.free_rank == 0 and disc.torsion == (2 * p * p * d,)
        ok = unimodular and even and sig_ok and degree_ok and primitive and disc_ok
        report.record(
            desc,
            ok,
            {
                "unimodular": True,
                "even": True,
                "signature": list(target_sig),
                "degree": p * p * d,
                "primitive": True,
                "complement_disc": [2 * p * p * d],
            },
            {
                "unimodular": unimodular,
                "even": even,
                "signature": list(signature(L)),
                "degree": pol.degree,
                "primitive": primitive,
                "complement_disc": list(disc.torsion),
            },
        )

    return _deal("k3-degree", items, check)


SUITES = {
    "neighbor-bijection": suite_neighbor_bijection,
    "nice-cochar": suite_nice_cochar,
    "witt-extension": suite_witt_extension,
    "cokernel-m": suite_cokernel_m,
    "lang-counts": suite_lang_counts,
    "spinor-surjectivity": suite_spinor_surjectivity,
    "k3-degree": suite_k3_degree,
}

# the largest rank each suite checks: run_suite's default max_rank, and a
# larger max_rank is an input error
_TOP_RANKS = {
    "neighbor-bijection": 6,
    "nice-cochar": 6,
    "witt-extension": 4,
    "cokernel-m": 10,
    "lang-counts": 6,
    "spinor-surjectivity": 6,
    "k3-degree": 22,
}


def run_suite(
    name: str,
    primes=None,
    max_rank=None,
    seed=0,
    max_points=MAX_PROJ_POINTS,
) -> VerifyReport:
    """Run suite ``name``; ``max_rank`` None checks the suite's whole range."""
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    top = _TOP_RANKS[name]
    if max_rank is None:
        max_rank = top
    elif max_rank > top:
        raise PreconditionError(f"suite {name} checks ranks up to {top}, not {max_rank}")
    for p in primes or ():
        check_prime(p)
    return SUITES[name](
        primes=primes,
        max_rank=max_rank,
        seed=seed,
        max_points=max_points,
    )
