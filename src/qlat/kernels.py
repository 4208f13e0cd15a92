"""The enumeration kernels: the inner loops that dominate the package's time.

Projective quadric enumeration over F_p and Z/p^k, finite matrix-group
closure and line-orbit breadth-first search.  The canonical projective
order (``proj_key``) and its generator of normalized representatives
(``proj_reps``) live here too and are shared by the rest of the package.
``benchmarks/bench_kernels.py`` times the kernels on fixed workloads.

Vectors are tuples of ints in [0, p); matrices are tuples of row tuples.

Quadric points by a prefix sweep
--------------------------------
``isotropic_lines`` and ``quadric_points_mod`` both enumerate the zeros of
Q(v) = sum_{i<=j} h_ij v_i v_j over a box of candidates, one set of
choices per coordinate, through ``_zeros``.  The sweep fixes coordinates
in order.  On a fixed prefix v_0..v_{k-1} it carries the value ``a`` of Q
on the prefix and, for each coordinate j still free, its linear
coefficient lin_j = sum_{i<k} h_ij v_i.  Fixing v_k = x updates them as
``a += x*(lin_k + h_kk*x)`` and ``lin_j += h_kj*x`` for j > k, so each
prefix costs O(n) rather than each candidate O(n^2).

The last coordinate y gives a zero iff ``a + y*(b + c*y) ≡ 0 mod m``,
where b = lin_{n-1}, c = h_{n-1,n-1} and m is the modulus, so its roots
depend on the prefix only through the key (a mod m, b mod m).  Each
sweep keeps a table ``roots`` from the keys met so far to their roots,
in the order of the choices, and solves a key, by testing each choice of
y, only the first time it meets it.  So it tests no more candidates than
one test per choice per prefix would, and the table holds at most
min(m², number of prefixes) keys.  Zeros come out in the product order
of the choices.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .errors import SizeGuardError
from .modp import identity, mat_mul

__all__ = [
    "isotropic_lines",
    "quadric_points_mod",
    "group_closure",
    "line_orbit",
    "proj_key",
    "proj_reps",
    "backend_name",
]


def proj_key(v):
    """Canonical sort key for a normalized projective representative."""
    lead = next(i for i, x in enumerate(v) if x)
    return (lead, v)


def proj_reps(p, n):
    """Normalized projective representatives of F_p^n in canonical order."""
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def _zeros(modulus, half_gram, choices):
    """Every v with v[k] in ``choices[k]`` and Q(v) ≡ 0 mod ``modulus``.

    The prefix sweep of the module docstring; the zeros come out in the
    product order of ``choices``, which must be nonempty.  The last
    coordinate is read off the root table ``roots``, which this call fills
    lazily: each distinct key (a, b) is solved once, over the last
    coordinate's choices, so no more candidates are tested than one test
    per choice per prefix.
    """
    n = len(choices)
    # rows[k] = (h_kk, h_k,k+1, ..., h_k,n-1) reduced mod the modulus
    rows = [[x % modulus for x in half_gram[k][k:]] for k in range(n)]
    last = n - 1
    c = rows[last][0]
    last_choices = choices[last]
    if n == 1:
        return [(x,) for x in last_choices if c * x * x % modulus == 0]
    out = []

    def sweep(k, prefix, a, lin):
        # a = Q(prefix) and lin[j - k] = sum_{i<k} h_ij prefix_i for j >= k
        hkk, *tail = rows[k]
        lk, *rest = lin
        if k + 1 < last:
            for x in choices[k]:
                if x:
                    sweep(
                        k + 1,
                        prefix + (x,),
                        (a + x * (lk + hkk * x)) % modulus,
                        [(l + h * x) % modulus for l, h in zip(rest, tail)],
                    )
                else:
                    sweep(k + 1, prefix + (0,), a, rest)
            return
        # the last but one coordinate: read the last one off the root table
        (l,), (h,) = rest, tail
        for x in choices[k]:
            key = ((a + x * (lk + hkk * x)) % modulus, (l + h * x) % modulus)
            ys = roots.get(key)
            if ys is None:
                ax, b = key
                ys = roots[key] = [
                    (y,) for y in last_choices if (ax + y * (b + c * y)) % modulus == 0
                ]
            if ys:
                pre = prefix + (x,)
                out.extend([pre + y for y in ys])

    roots = {}  # (a mod m, b mod m) -> its roots y as 1-tuples (y,), in order
    sweep(0, (), 0, [0] * n)
    return out


def isotropic_lines(p, n, half_gram, limit):
    """Normalized generators of isotropic lines of Q over F_p, sorted.

    Representatives have leading nonzero coordinate 1.  They are returned
    sorted by (leading position, remaining coordinates), so the first entry
    is the canonical smallest isotropic vector; the sweep emits them in
    that order.  Raises SizeGuardError if the projective space has more
    than ``limit`` points.
    """
    count = (p**n - 1) // (p - 1)
    if count > limit:
        raise SizeGuardError(f"projective space has {count} points, exceeds limit {limit}")
    out = []
    tail = range(p)
    for lead in range(n):
        out += _zeros(p, half_gram, ((0,),) * lead + ((1,),) + (tail,) * (n - lead - 1))
    return out


def quadric_points_mod(p, k, n, half_gram, limit):
    """Normalized unimodular solutions of Q(v) ≡ 0 mod p^k, sorted.

    A unimodular vector over Z/p^k (some coordinate a unit) has a unique
    representative with leading unit coordinate equal to 1 and all earlier
    coordinates divisible by p.  Counting representatives: there are
    p^{(k-1)·lead} · (p^k)^{n-lead-1} with leading unit at position
    ``lead``.  Raises SizeGuardError if the total candidate count exceeds
    ``limit``.
    """
    q = p**k
    total = 0
    for lead in range(n):
        total += (p ** (k - 1)) ** lead * q ** (n - lead - 1)
    if total > limit:
        raise SizeGuardError(f"{total} normalized vectors mod {q}, exceeds limit {limit}")
    out = []
    head = range(0, q, p)
    tail = range(q)
    for lead in range(n):
        out += _zeros(q, half_gram, (head,) * lead + ((1,),) + (tail,) * (n - lead - 1))
    # a nonzero head moves the vector's first nonzero coordinate forward
    out.sort(key=proj_key)
    return out


def group_closure(gens, p, limit):
    """All products of the generator matrices over F_p (the generated group).

    The generators must be invertible mod p; since the group is finite the
    closure under right-multiplication by generators is the full subgroup.
    Returns the elements as a list (identity first, then BFS order).
    Raises ValueError if the closure exceeds ``limit`` elements.
    """
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    ident = identity(n)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new_frontier = []
        for g in frontier:
            for s in gens:
                h = mat_mul(g, s, p)
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    new_frontier.append(h)
                    if len(seen) > limit:
                        raise ValueError(f"group closure exceeds limit {limit}")
        frontier = new_frontier
    return order


def _normalize_line(v, p):
    lead = next((i for i, x in enumerate(v) if x % p), None)
    if lead is None:
        raise ValueError("zero vector spans no line")
    inv = pow(v[lead], p - 2, p) if p > 2 else 1
    return tuple((x * inv) % p for x in v)


def line_orbit(gens, seed, p, limit):
    """Orbit of the line spanned by ``seed`` under the generated group.

    Returns normalized representatives sorted by the canonical projective
    key.  Raises ValueError if the orbit exceeds ``limit``.
    """
    start = _normalize_line(seed, p)
    seen = {start}
    frontier = [start]
    while frontier:
        new_frontier = []
        for v in frontier:
            for g in gens:
                w = tuple([sum(map(mul, row, v)) % p for row in g])
                if next(filter(None, w), 0) != 1:  # else w is already normalized
                    w = _normalize_line(w, p)
                if w not in seen:
                    seen.add(w)
                    new_frontier.append(w)
                    if len(seen) > limit:
                        raise ValueError(f"line orbit exceeds limit {limit}")
        frontier = new_frontier
    return sorted(seen, key=proj_key)


def backend_name() -> str:
    """Name of the kernel implementation; the package is pure Python."""
    return "pure-python"
