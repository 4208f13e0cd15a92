"""Backend dispatch for the enumeration kernels.

At import time this module selects the compiled Cython extension
(``qlat._speedups``) when it is available, falling back to the pure-Python
twin (``qlat._kernels_py``).  Setting the environment variable
``QLAT_PURE=1`` forces the pure backend regardless.  Both backends expose
the same functions with identical semantics; ``benchmarks/bench_kernels.py``
times them (comparing the two when the extension is built) and the test
suite compares their output.
"""

from __future__ import annotations

import os

from . import _kernels_py

_impl = _kernels_py
_backend = "pure-python"

if not os.environ.get("QLAT_PURE"):
    try:
        from . import _speedups as _compiled  # type: ignore[attr-defined]

        _impl = _compiled
        _backend = "compiled"
    except ImportError:
        pass

isotropic_lines = _impl.isotropic_lines
quadric_points_mod = _impl.quadric_points_mod
group_closure = _impl.group_closure
line_orbit = _impl.line_orbit
brute_isometry_count = _impl.brute_isometry_count
proj_key = _kernels_py.proj_key


def backend_name() -> str:
    """Name of the active kernel backend ('compiled' or 'pure-python')."""
    return _backend
