"""JSON-dict serialization of the package's domain types, plus name parsing.

Formats (all JSON-compatible dicts; matrices are row-major lists of
integer lists):

* lattice           ``{"rank": n, "half_gram": rows}``
* scaled lattice    ``{"ambient": lattice, "p": p, "power": k, "numerator_basis": rows}``
                    meaning p^{-k} times the column span
* minimal pair      ``{"lambda": lattice, "tilde_basis": rows}``
* polarized lattice ``{"lattice": lattice, "xi": [ints]}``

Command-line arguments that denote a lattice may also be written as named
forms: ``H``, ``E8``, ``K3``, ``rank1(m)``, joined by ``⊥`` or ``+``
(e.g. ``H⊥H`` or ``H+E8``), case-insensitive.
"""

from __future__ import annotations

import json
import os
import re

from .errors import PreconditionError
from .exact_linalg import AbelianQuotient, IntMatrix
from .hecke_k3 import MinimalPair, PolarizedK3Lattice
from .modp import check_int
from .padic_lattice import PLattice
from .quad_lattice import (
    QuadLattice,
    direct_sum,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    rank_one,
)

__all__ = [
    "matrix_to_rows",
    "matrix_from_rows",
    "lattice_to_dict",
    "lattice_from_dict",
    "plattice_to_dict",
    "plattice_from_dict",
    "pair_from_dict",
    "polarized_to_dict",
    "quotient_to_dict",
    "parse_lattice_name",
    "load_lattice_arg",
    "load_matrix_arg",
    "load_plattice_arg",
    "load_pair_arg",
]


def matrix_to_rows(M: IntMatrix) -> list[list[int]]:
    return [list(row) for row in M.entries]


def matrix_from_rows(rows) -> IntMatrix:
    """The matrix of a JSON list of rows; ``IntMatrix`` checks the entries."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise PreconditionError("matrix must be a list of integer rows")
    return IntMatrix.from_rows(rows)


def lattice_to_dict(L: QuadLattice) -> dict:
    return {"rank": L.rank, "half_gram": matrix_to_rows(L.half_gram)}


def lattice_from_dict(d: dict) -> QuadLattice:
    if not isinstance(d, dict) or "half_gram" not in d:
        raise PreconditionError("lattice document needs a half_gram key")
    L = QuadLattice(matrix_from_rows(d["half_gram"]))
    if "rank" in d:
        check_int(d["rank"], message="declared rank disagrees with the matrix")
        if d["rank"] != L.rank:
            raise PreconditionError("declared rank disagrees with the matrix")
    return L


def plattice_to_dict(L: PLattice) -> dict:
    return {
        "ambient": lattice_to_dict(L.ambient),
        "p": L.p,
        "power": L.power,
        "numerator_basis": matrix_to_rows(L.numerator_basis),
    }


def plattice_from_dict(d: dict) -> PLattice:
    if not isinstance(d, dict):
        raise PreconditionError("scaled-lattice document must be a JSON object")
    for key in ("ambient", "p", "power", "numerator_basis"):
        if key not in d:
            raise PreconditionError(f"scaled-lattice document needs a {key} key")
    for key in ("p", "power"):
        check_int(d[key], message=f"scaled-lattice {key} must be an integer")
    return PLattice(
        lattice_from_dict(d["ambient"]),
        d["p"],
        d["power"],
        matrix_from_rows(d["numerator_basis"]),
    )


def pair_from_dict(d: dict) -> MinimalPair:
    if not isinstance(d, dict):
        raise PreconditionError("minimal-pair document must be a JSON object")
    for key in ("lambda", "tilde_basis"):
        if key not in d:
            raise PreconditionError(f"minimal-pair document needs a {key} key")
    return MinimalPair(lattice_from_dict(d["lambda"]), matrix_from_rows(d["tilde_basis"]))


def polarized_to_dict(P: PolarizedK3Lattice) -> dict:
    return {"lattice": lattice_to_dict(P.lattice), "xi": list(P.xi)}


def quotient_to_dict(q: AbelianQuotient) -> dict:
    return {"free_rank": q.free_rank, "torsion": list(q.torsion)}


_ATOM = re.compile(r"^(h|e8|k3|rank1\((-?\d+)\))$")


def parse_lattice_name(name: str) -> QuadLattice:
    """Parse a named form such as ``H⊥H``, ``E8``, or ``H+rank1(2)``."""
    parts = [t.strip() for t in re.split(r"[⊥+]", name)]
    if not all(parts):
        raise PreconditionError(f"lattice name {name!r} has an empty component")
    pieces = []
    for part in parts:
        m = _ATOM.match(part.lower())
        if m is None:
            raise PreconditionError(
                f"unknown lattice atom {part!r} (expected H, E8, K3, or rank1(m))"
            )
        if m.group(1) == "h":
            pieces.append(hyperbolic_plane())
        elif m.group(1) == "e8":
            pieces.append(e8_lattice())
        elif m.group(1) == "k3":
            pieces.append(k3_lattice())
        else:
            try:
                m_value = int(m.group(2))
            except ValueError:  # beyond the interpreter's integer-string limit
                raise PreconditionError(f"rank-one coefficient in {part!r} is too long") from None
            pieces.append(rank_one(m_value))
    return pieces[0] if len(pieces) == 1 else direct_sum(*pieces)


def _load_json_arg(arg: str):
    """Interpret a CLI argument as a JSON file path or inline JSON.

    Besides syntax errors, the decoder raises ValueError for undecodable
    bytes and for integers beyond the interpreter's digit limit, and
    RecursionError for deep nesting; all of them are input errors.
    """
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise PreconditionError(f"invalid JSON in {arg}: {exc}") from None
    stripped = arg.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(arg)
        except (ValueError, RecursionError) as exc:
            raise PreconditionError(f"invalid inline JSON: {exc}") from None
    return None


def load_lattice_arg(arg: str) -> QuadLattice:
    doc = _load_json_arg(arg)
    if doc is not None:
        return lattice_from_dict(doc)
    return parse_lattice_name(arg)


def load_matrix_arg(arg: str) -> IntMatrix:
    doc = _load_json_arg(arg)
    if doc is None:
        raise PreconditionError(f"expected a matrix file or inline JSON, got {arg!r}")
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    return matrix_from_rows(doc)


def load_plattice_arg(arg: str) -> PLattice:
    doc = _load_json_arg(arg)
    if doc is None:
        raise PreconditionError(f"expected a scaled-lattice file or inline JSON, got {arg!r}")
    return plattice_from_dict(doc)


def load_pair_arg(arg: str) -> MinimalPair:
    doc = _load_json_arg(arg)
    if doc is None:
        raise PreconditionError(f"expected a minimal-pair file or inline JSON, got {arg!r}")
    return pair_from_dict(doc)
