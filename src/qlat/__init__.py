"""Exact arithmetic for quadratic lattices over Z, F_p, and Z_p.

The package computes, with no floating point anywhere:

* integer linear algebra — Smith/Hermite normal forms, saturations,
  finite quotient structure (:mod:`qlat.exact_linalg`);
* quadratic lattices and their invariants — signatures, discriminant
  groups, orthogonal complements, standard lattices H, E8, and the K3
  lattice (:mod:`qlat.quad_lattice`);
* quadratic spaces over F_p — Witt decomposition, isotropic-line
  enumeration, reflection factorization, spinor norms, and constructive
  extension of subspace isometries (:mod:`qlat.fp_quadratic`);
* the p-neighbor correspondence between isotropic lines and self-dual
  lattices, with its typed refinement and unique-recovery guarantee
  (:mod:`qlat.padic_lattice`);
* index-p Hecke moves of polarized K3 lattices (:mod:`qlat.hecke_k3`);
* character lattices of formal tori and the cokernel of their graph map
  (:mod:`qlat.deformation_tori`).

Linear algebra, primality and the default enumeration guards over F_p
live in :mod:`qlat.modp`, and the hot enumeration loops in
:mod:`qlat.kernels`.  The package is pure Python.  The ``qlat`` command
exposes the enumerations and the verification suites.
"""

from .errors import InvariantViolationError, PreconditionError, SizeGuardError
from .exact_linalg import (
    AbelianQuotient,
    IntMatrix,
    hermite_normal_form,
    hnf_basis,
    integer_kernel,
    lattices_equal,
    quotient_structure,
    saturate,
    smith_normal_form,
    sublattice_in_span,
)
from .quad_lattice import (
    QuadLattice,
    Sublattice,
    basis_half_gram,
    bilinear_value,
    direct_sum,
    discriminant_group,
    e8_lattice,
    hyperbolic_plane,
    is_self_dual_at,
    k3_lattice,
    orthogonal_complement,
    quad_value,
    rank_one,
    restricted_lattice,
    signature,
)
from .fp_quadratic import (
    FpIsometry,
    FpQuadSpace,
    ProjLine,
    dickson_invariant,
    enumerate_isotropic_lines,
    find_isotropic_vector,
    isotropic_generators,
    line_sort_key,
    reflection,
    reflection_factorization,
    so_order,
    spinor_norm,
    stabilizer_orbit,
    witt_decomposition,
    witt_extension,
)
from .padic_lattice import (
    PLattice,
    enumerate_neighbors,
    hensel_lift_line,
    lattice_from_line,
    line_from_lattice,
    neighbors_of,
    plattice_quadlattice,
    plattice_sort_key,
    recover_lattice,
    reduction,
    shrink_set,
    shrink_set_bruteforce,
    w_generic_lines,
)
from .hecke_k3 import (
    MinimalPair,
    PolarizedK3Lattice,
    k3_isogeny,
    shrink_fiber,
)
from .deformation_tori import (
    CharLattice,
    cokernel_M,
)
from .verify import SUITES, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AbelianQuotient",
    "CharLattice",
    "FpIsometry",
    "FpQuadSpace",
    "IntMatrix",
    "InvariantViolationError",
    "MinimalPair",
    "PLattice",
    "PolarizedK3Lattice",
    "PreconditionError",
    "ProjLine",
    "QuadLattice",
    "SizeGuardError",
    "Sublattice",
    "SUITES",
    "VerifyReport",
    "basis_half_gram",
    "bilinear_value",
    "cokernel_M",
    "dickson_invariant",
    "direct_sum",
    "discriminant_group",
    "e8_lattice",
    "enumerate_isotropic_lines",
    "enumerate_neighbors",
    "find_isotropic_vector",
    "hensel_lift_line",
    "hermite_normal_form",
    "hnf_basis",
    "hyperbolic_plane",
    "integer_kernel",
    "is_self_dual_at",
    "isotropic_generators",
    "k3_isogeny",
    "k3_lattice",
    "lattice_from_line",
    "line_sort_key",
    "lattices_equal",
    "line_from_lattice",
    "neighbors_of",
    "orthogonal_complement",
    "quad_value",
    "quotient_structure",
    "rank_one",
    "recover_lattice",
    "reduction",
    "reflection",
    "reflection_factorization",
    "restricted_lattice",
    "run_suite",
    "saturate",
    "shrink_fiber",
    "shrink_set",
    "shrink_set_bruteforce",
    "signature",
    "smith_normal_form",
    "so_order",
    "spinor_norm",
    "stabilizer_orbit",
    "sublattice_in_span",
    "w_generic_lines",
    "witt_decomposition",
    "witt_extension",
    "__version__",
]
