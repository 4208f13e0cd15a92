"""Per-layer tracing of qlat from outside the library.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS` while
it is active.  Every binding of a function is patched — the defining module
and each ``qlat`` module that imported it by name — so calls are seen
whichever name the caller used.  Each call becomes a span whose parent is
the innermost wrapped call active at the time; a span's self time is its
duration minus the durations of its wrapped children.  Spans are folded into
per-function totals and per-(parent, child) edges as they end, so memory
stays bounded on workloads with millions of calls.  Leaving the ``with``
block restores every original binding.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module label -> (module whose attribute is the public binding, functions)
TARGETS = {
    "kernels": ("qlat.kernels", (
        "isotropic_lines", "quadric_points_mod", "group_closure", "line_orbit")),
    "exact_linalg": ("qlat.exact_linalg", (
        "hermite_normal_form", "smith_normal_form", "saturate",
        "sublattice_in_span", "quotient_structure", "lattices_equal")),
    "quad_lattice": ("qlat.quad_lattice", (
        "is_self_dual_at", "signature", "discriminant_group",
        "orthogonal_complement")),
    "fp_quadratic": ("qlat.fp_quadratic", (
        "witt_decomposition", "so_order", "witt_extension",
        "enumerate_isotropic_lines", "stabilizer_orbit", "spinor_norm",
        "find_isotropic_vector")),
    "padic_lattice": ("qlat.padic_lattice", (
        "reduction", "hensel_lift_line", "lattice_from_line",
        "line_from_lattice", "enumerate_neighbors", "neighbors_of",
        "w_generic_lines", "shrink_set", "shrink_set_bruteforce",
        "recover_lattice")),
    "hecke_k3": ("qlat.hecke_k3", ("k3_isogeny",)),
    "deformation_tori": ("qlat.deformation_tori", ("cokernel_M",)),
    "serialize": ("qlat.serialize", (
        "plattice_to_dict", "quotient_to_dict", "polarized_to_dict",
        "load_lattice_arg")),
    "verify": ("qlat.verify", ("run_suite",)),
    "cli": ("qlat.cli", ("main",)),
}

RATIOS = (
    "padic_lattice.recover_lattice.candidates_per_call",
    "padic_lattice.w_generic_lines.kept_ratio",
    "fp_quadratic.witt_decomposition.per_witt_extension",
    "exact_linalg.hermite_normal_form.per_lattice_from_line",
    "kernels.isotropic_lines.headroom",
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, (_, fns) in TARGETS.items() for fn in fns]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager that wraps every target and aggregates its spans."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, seconds]
        self.intmatrix_created = 0
        self.recover_candidates = 0  # lattices neighbors_of returns inside recover_lattice
        self.wgl_kept = 0  # lines w_generic_lines returns
        self.wgl_isotropic = 0  # isotropic lines it was given to filter
        self.headroom = 0.0  # largest isotropic_lines count / its limit
        self._stack: list[list] = []  # active spans: [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qlat" or n.startswith("qlat."))]
        observers = self._observers()
        for label, (modname, fns) in TARGETS.items():
            home = sys.modules[modname]
            for fn in fns:
                original = getattr(home, fn)
                name = f"{label}.{fn}"
                wrapper = self._wrap(name, original, observers.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        from qlat.exact_linalg import IntMatrix

        init = IntMatrix.__init__

        def counting_init(obj, *args, **kwargs):
            self.intmatrix_created += 1
            init(obj, *args, **kwargs)

        self._patched.append((IntMatrix, "__init__", init))
        IntMatrix.__init__ = counting_init
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, observe):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                edge = edges.setdefault((parent and parent[0], name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- work-efficiency counters ---------------------------------------

    def _observers(self) -> dict:
        stack = self._stack

        def neighbors_of(args, kwargs, result):
            if any(f[0] == "padic_lattice.recover_lattice" for f in stack):
                self.recover_candidates += len(result)

        def enumerate_isotropic_lines(args, kwargs, result):
            if stack and stack[-1][0] == "padic_lattice.w_generic_lines":
                self.wgl_isotropic += len(result)

        def w_generic_lines(args, kwargs, result):
            self.wgl_kept += len(result)

        def isotropic_lines(args, kwargs, result):
            limit = args[3] if len(args) > 3 else kwargs["limit"]
            self.headroom = max(self.headroom, len(result) / limit)

        return {
            "padic_lattice.neighbors_of": neighbors_of,
            "fp_quadratic.enumerate_isotropic_lines": enumerate_isotropic_lines,
            "padic_lattice.w_generic_lines": w_generic_lines,
            "kernels.isotropic_lines": isotropic_lines,
        }

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self seconds per span, per-module roll-ups and ratios."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for label, (_, fns) in TARGETS.items():
            out[f"{label}.self_s"] = sum(self.self_s[f"{label}.{fn}"] for fn in fns)
        out["exact_linalg.IntMatrix.created"] = self.intmatrix_created
        c = self.calls
        out[RATIOS[0]] = _ratio(self.recover_candidates, c["padic_lattice.recover_lattice"])
        out[RATIOS[1]] = _ratio(self.wgl_kept, self.wgl_isotropic)
        out[RATIOS[2]] = _ratio(c["fp_quadratic.witt_decomposition"],
                                c["fp_quadratic.witt_extension"])
        out[RATIOS[3]] = _ratio(c["exact_linalg.hermite_normal_form"],
                                c["padic_lattice.lattice_from_line"])
        out[RATIOS[4]] = self.headroom
        return out

    def edge_list(self) -> list[dict]:
        """Every (parent, child) span edge with its calls and total seconds."""
        return [
            {"parent": parent, "child": child, "calls": n, "seconds": s}
            for (parent, child), (n, s) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1])
        ]
