"""Backend dispatch for the enumeration kernels.

At import time this module looks for the compiled Cython extension
(``qlat._speedups``); the pure-Python twin (``qlat._kernels_py``) is the
fallback.  Setting the environment variable ``QLAT_PURE=1`` forces the
pure backend regardless.  Both backends expose the same functions with
identical semantics; ``benchmarks/bench_kernels.py`` times them (comparing
the two when the extension is built) and the test suite compares their
output.

The compiled quadric kernels evaluate Q in a C ``long long``.  With
entries of the half-Gram and of v in [0, q), each of the n(n+1)/2 terms
h_ij·v_i·v_j is at most (q−1)³, so ``isotropic_lines`` and
``quadric_points_mod`` run compiled only while n(n+1)/2·(q−1)³ < 2⁶³ and
fall back to the pure twin beyond that.
"""

from __future__ import annotations

import os

from . import _kernels_py

_compiled = None

if not os.environ.get("QLAT_PURE"):
    try:
        from . import _speedups as _compiled  # type: ignore[attr-defined]
    except ImportError:
        pass

_impl = _kernels_py if _compiled is None else _compiled


def _quadric_impl(n, modulus):
    """The backend that evaluates Q on n coordinates mod ``modulus`` exactly."""
    if _compiled is not None and n * (n + 1) // 2 * (modulus - 1) ** 3 < 2**63:
        return _compiled
    return _kernels_py


def isotropic_lines(p, n, half_gram, limit):
    """``_kernels_py.isotropic_lines`` on the backend that is exact here."""
    return _quadric_impl(n, p).isotropic_lines(p, n, half_gram, limit)


def quadric_points_mod(p, k, n, half_gram, limit):
    """``_kernels_py.quadric_points_mod`` on the backend that is exact here."""
    return _quadric_impl(n, p**k).quadric_points_mod(p, k, n, half_gram, limit)


group_closure = _impl.group_closure
line_orbit = _impl.line_orbit
brute_isometry_count = _impl.brute_isometry_count
proj_key = _kernels_py.proj_key
proj_reps = _kernels_py.proj_reps


def backend_name() -> str:
    """Name of the active kernel backend ('compiled' or 'pure-python')."""
    return "pure-python" if _compiled is None else "compiled"
