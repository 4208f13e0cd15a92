"""Design rules of the package source, checked on its syntax trees.

* No module imports another module's private (underscore) name, neither
  by ``from .x import _name`` nor by attribute access ``x._name`` on an
  imported package module.
* Each mod-p primitive is defined once, in ``qlat.modp``: no other module
  defines it under its own name or under a name an earlier copy used.
* Nothing refers to the deleted compiled backend.
* The package computes over the integers only: no module imports
  anything from ``fractions``.
* Each shared construction has one home: the index-p lattice
  {x : r·x ≡ 0 mod p} is ``exact_linalg.kernel_mod_p``, a map of one
  tuple onto another is ``fp_quadratic._witt_map``, the matrices of a
  reflection and of an Eichler transvection are
  ``fp_quadratic._reflection_matrix`` and ``_eichler_matrix``, the
  isotropic lines inside a subspace are ``fp_quadratic.isotropic_lines_in``,
  an orthogonal basis over F_p (odd p) is ``fp_quadratic._orthogonal_basis``,
  the form of a ``PLattice`` in its own basis is
  ``padic_lattice.plattice_quadlattice``, and the form on any basis, the
  half-Gram of Q/d from Sᵀ·B·S, is ``quad_lattice.basis_half_gram``, and
  the split of a Hermite basis into a projection and a meet is
  ``exact_linalg.split_hnf``; the copies they replaced are gone.
  ``cokernel_M`` and ``sublattice_in_span`` both read ``split_hnf``.
* F_p subspace geometry has one home, ``fp_quadratic``: the form on a
  tuple is ``half_gram_on``, the orthogonal complement mod p is
  ``perp_basis``, and the closed forms read off the Witt type are
  ``so_order`` and ``closed_form_line_count``.  Only ``modp`` and
  ``fp_quadratic`` refer to ``kernel_basis``, and no module defines
  ``_restrict``, ``_tuple_type_key`` or ``pairing_rows``, at any depth.
* That form has one home: ``PLattice`` (which keeps the form on its
  basis), ``restricted_lattice`` and ``shrink_fiber`` refer to
  ``basis_half_gram``, and no function of ``padic_lattice`` or
  ``hecke_k3`` refers to ``transpose``.
* The brute-force line count of ``verify`` stays independent of the
  enumeration kernels: ``_brute_line_count`` and its scan
  ``_quadric_value_counts`` name neither ``kernels`` nor any of its
  functions.
* The p-Hecke step has one inverse, ``padic_lattice.recover_lattice``: no
  module defines or names ``grow_unique``, and ``recover_lattice`` is the
  one top-level definition that refers to ``PLattice.span_excess``.
* A p-neighbor's basis is written down, not eliminated:
  ``padic_lattice.lattice_from_line`` refers to ``kernel_mod_p`` and to
  neither ``hnf_basis`` nor ``hermite_normal_form``.
* The F_p layer builds and does not scan: ``fp_quadratic`` refers to no
  ``proj_reps``, so no walk over projective points comes back to find an
  isotropic vector or to factor an isometry.
* Stabilizer orbits are certified by ``witt_extension`` alone: only
  ``fp_quadratic._witt_record`` refers to ``_witt_map``, and
  ``stabilizer_orbit`` refers to neither ``_witt_map`` nor ``FpIsometry``.
  No generator list of the isometries fixing a subspace, nor its
  per-space cache, nor the public Eichler transvection that only it used,
  is defined anywhere.
* There is one integer eliminator, the Hermite form: no module defines
  ``unimodular_inverse`` or a column-operation helper (``_swap_cols``,
  ``_add_col``, ``_two_col_transform``).  The Smith form serves
  ``exact_linalg`` alone: no other module calls it, only the package root
  re-exports it, and ``saturate`` does not call it either.
* Each ring has one eliminator.  Mod p it is ``modp._echelon``, the one
  function of ``modp`` that searches for a pivot, and ``rref``, ``rank``
  and ``det`` refer to it.  Over Z it is the Hermite form:
  ``IntMatrix.det`` refers to ``_row_hnf``, and no module takes a
  fraction-free (Bareiss) step, (a·b − c·d) // e.
  ``fp_quadratic._witt_decomposition`` finds the radical's complement
  with no ``rank`` call.
* The Hermite eliminator carries its transform in the rows it reduces:
  ``_row_hnf(A, m)`` takes no transform list, and no module defines
  ``integral_coefficients``, a transform helper (``_swap_rows``,
  ``_add_row``, ``_negate_row``, ``_two_row_transform``) or
  ``_ident_list``.  A Smith form is taken only where a group's structure
  is reported: only ``discriminant_group`` and ``cokernel_M`` call
  ``quotient_structure``.
* ``cokernel_M`` reads its comparison maps off Hermite bases: no module
  defines ``lattice_intersection``, ``deformation_tori`` refers to none of
  ``lattice_intersection``, ``lattices_equal``, ``hstack`` or
  ``take_rows``, and it calls ``quotient_structure`` once, for M.
* Caller integers are checked in ``qlat.modp`` alone: no other module
  tests ``isinstance(…, int)``, no module but ``exact_linalg`` coerces by
  ``isinstance(…, IntMatrix)`` (``IntMatrix.from_rows`` returns a matrix
  as it is), and ``fp_quadratic`` calls ``int()`` only on a comparison, so
  it truncates no caller value.
* Processes are started in ``qlat.verify`` alone, and lazily: no other
  module imports ``multiprocessing`` or ``concurrent.futures`` or names
  ``os.fork``, and ``qlat.verify`` does so only inside a function body.
* Every name in an ``__all__`` (the package root's and each module's) has a
  library or CLI caller: the package's top-level statements, such as the
  ``main()`` call of ``python -m qlat``, reach it through the top-level
  definitions that refer to it.  Dunders are exempt, and so are the
  functions that ``perfbench/tracer.py`` wraps by name (its ``TARGETS``).
* Each of those ``TARGETS`` is a top-level function of its module, so the
  benchmark's tracer finds every name it wraps.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlat"
MODULES = sorted(PACKAGE.glob("*.py"))

# each primitive of qlat.modp -> the names earlier copies of it went by
PRIMITIVES = {
    "rref": ("_rref", "_rref_key"),
    "rank": ("_rank_mod", "_fp_rank"),
    "kernel_basis": ("_kernel_basis",),
    "det": ("_det_mod",),
    "mat_mul": ("_mat_mul",),
    "mat_vec": ("_mat_vec",),
    "solve": ("_solve_matrix",),
    "inverse": ("_inv_mat",),
    "inv_mod": ("_inv_mod",),
    "legendre": ("_legendre",),
    "is_prime": ("_is_prime", "_primes_up_to"),
    "check_prime": ("_check_prime",),
    "_echelon": (),
    "MAX_PROJ_POINTS": ("_MAX_PROJ_POINTS", "_DEF_MAX_POINTS", "_MAX_POINTS_DEFAULT"),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_level_names(tree):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _defined_anywhere(path):
    """Names a module defines by def or class, at any depth."""
    return {
        node.name
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(path):
    """(line, text) of each private name this module takes from another one."""
    tree = _tree(path)
    found = []
    package_modules = set()  # local names bound to qlat modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "qlat"
            if not internal:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
                elif node.module in (None, "qlat"):  # from . import kernels
                    package_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in package_modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_imports(path):
    assert _private_imports(path) == []


def test_each_modp_primitive_has_one_definition():
    defined = {path.stem: _module_level_names(_tree(path)) for path in MODULES}
    for name, old_names in PRIMITIVES.items():
        homes = sorted(
            (module, n) for module, names in defined.items() for n in (name, *old_names) if n in names
        )
        assert homes == [("modp", name)], name


def test_no_compiled_backend_remains():
    assert not list(PACKAGE.glob("_speedups*"))
    assert not (ROOT / "setup.py").exists()
    for path in [*PACKAGE.iterdir(), ROOT / "pyproject.toml", ROOT / "README.md"]:
        if path.is_file():
            text = path.read_text(encoding="utf-8", errors="replace")
            assert "_speedups" not in text, path.name
            assert "QLAT_PURE" not in text, path.name
            assert "Cython" not in text, path.name


def test_exact_linalg_uses_no_fractions():
    for path in MODULES:
        imported = set()
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "fractions" not in imported, path.name


# each shared construction -> the names earlier copies of it went by
CONSTRUCTIONS = {
    ("exact_linalg", "kernel_mod_p"): ("_fp_kernel_hnf",),
    ("fp_quadratic", "_witt_map"): ("_reach", "_state_matrix"),
    ("fp_quadratic", "_reflection_matrix"): (),
    ("fp_quadratic", "_eichler_matrix"): (),
    ("fp_quadratic", "isotropic_lines_in"): (),
    ("fp_quadratic", "_orthogonal_basis"): ("_isotropic_by_diagonalization",),
    ("padic_lattice", "plattice_quadlattice"): ("plattice_gram",),
    ("quad_lattice", "basis_half_gram"): ("sublattice_gram",),
    ("exact_linalg", "split_hnf"): ("_split",),
    ("fp_quadratic", "half_gram_on"): ("_restrict", "_tuple_type_key"),
    ("fp_quadratic", "perp_basis"): (),
    ("fp_quadratic", "closed_form_line_count"): (),
}


def test_each_construction_has_one_definition():
    defined = {path.stem: _module_level_names(_tree(path)) for path in MODULES}
    for (home, name), old_names in CONSTRUCTIONS.items():
        homes = sorted(
            (module, n) for module, names in defined.items() for n in (name, *old_names) if n in names
        )
        assert homes == [(home, name)], name


def _refers_to(path, name):
    """Whether the module names ``name``: bare, as an attribute, in an import
    or in a definition."""
    tree = _tree(path)
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return name in _names_in(tree) | imported | _defined_anywhere(path)


def test_subspace_geometry_has_one_home():
    referrers = sorted(path.stem for path in MODULES if _refers_to(path, "kernel_basis"))
    assert referrers == ["fp_quadratic", "modp"]
    for path in MODULES:
        defined = _defined_anywhere(path)
        assert not defined & {"_restrict", "_tuple_type_key", "pairing_rows"}, path.name


def test_fp_quadratic_scans_no_projective_points():
    assert "proj_reps" not in _names_in(_tree(PACKAGE / "fp_quadratic.py"))


GENERATOR_BUILDER = (
    "_fixing_generators", "_orthogonal_generators", "_generator_lists", "eichler_transvection"
)


def test_no_generator_builder_remains():
    for path in MODULES:
        defined = _defined_anywhere(path)
        assert not defined & set(GENERATOR_BUILDER), path.name


def test_witt_map_has_one_caller():
    referrers = sorted(
        (path.stem, node.name)
        for path in MODULES
        for node in _tree(path).body
        if "_witt_map" in _names_in(node)
    )
    assert referrers == [("fp_quadratic", "_witt_record")]


def _function(module, name):
    """The top-level function or class ``name`` of ``qlat.<module>``."""
    return next(
        node
        for node in _tree(PACKAGE / f"{module}.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    )


def test_stabilizer_orbit_builds_no_isometry_of_its_own():
    orbit = _function("fp_quadratic", "stabilizer_orbit")
    assert "witt_extension" in _names_in(orbit)
    assert not {"_witt_map", "FpIsometry"} & _names_in(orbit)


def test_the_hecke_step_has_one_inverse():
    for path in MODULES:
        assert "grow_unique" not in _defined_anywhere(path) | _names_in(_tree(path)), path.name
    callers = sorted(
        (path.stem, node.name)
        for path in MODULES
        for node in _tree(path).body
        if "span_excess" in _names_in(node)
    )
    assert callers == [("padic_lattice", "recover_lattice")]


def test_lattice_from_line_eliminates_nothing():
    names = _names_in(_function("padic_lattice", "lattice_from_line"))
    assert "kernel_mod_p" in names
    assert not {"hnf_basis", "hermite_normal_form"} & names


@pytest.mark.parametrize("name", ["_brute_line_count", "_quadric_value_counts"])
def test_the_line_count_oracle_uses_no_kernel(name):
    kernel_functions = {
        node.name
        for node in _tree(PACKAGE / "kernels.py").body
        if isinstance(node, ast.FunctionDef)
    }
    assert "_zeros" in kernel_functions
    names = _names_in(_function("verify", name))
    assert not ({"kernels"} | kernel_functions) & names


@pytest.mark.parametrize(
    "module, name",
    [
        ("padic_lattice", "PLattice"),
        ("quad_lattice", "restricted_lattice"),
        ("hecke_k3", "shrink_fiber"),
    ],
)
def test_the_form_on_a_basis_has_one_home(module, name):
    assert "basis_half_gram" in _names_in(_function(module, name))


@pytest.mark.parametrize("module", ["padic_lattice", "hecke_k3"])
def test_no_dense_form_product_remains(module):
    for node in _tree(PACKAGE / f"{module}.py").body:
        assert "transpose" not in _names_in(node), getattr(node, "name", node.lineno)


SECOND_ELIMINATOR = ("unimodular_inverse", "_swap_cols", "_add_col", "_two_col_transform")


def test_no_second_eliminator_remains():
    for path in MODULES:
        defined = _defined_anywhere(path)
        assert not defined & set(SECOND_ELIMINATOR), path.name


def _pivot_searches(node):
    """Lines of each search for a pivot under ``node``: a loop or
    comprehension over i whose condition reads an entry m[i][j]."""

    def reads_entry(test, names):
        return any(
            isinstance(n, ast.Subscript)
            and isinstance(n.value, ast.Subscript)
            and names & _names_in(n.value.slice)
            for n in ast.walk(test)
        )

    found = []
    for loop in ast.walk(node):
        if isinstance(loop, ast.For):
            names = _names_in(loop.target)
            tests = [n.test for stmt in loop.body for n in ast.walk(stmt) if isinstance(n, ast.If)]
        elif isinstance(loop, ast.comprehension):
            names, tests = _names_in(loop.target), loop.ifs
        else:
            continue
        if any(reads_entry(test, names) for test in tests):
            found.append(loop.target.lineno)
    return sorted(found)


def test_each_ring_has_one_eliminator_mod_p():
    searches = {
        node.name: _pivot_searches(node)
        for node in _tree(PACKAGE / "modp.py").body
        if isinstance(node, ast.FunctionDef)
    }
    assert [name for name, lines in searches.items() if lines] == ["_echelon"]
    for name in ("rref", "rank", "det"):
        assert "_echelon" in _names_in(_function("modp", name)), name


def test_pivot_rule_sees_each_form():
    source = (
        "def f(m, r, c, n):\n"
        "    for piv in range(r, n):\n"
        "        if m[piv][c]:\n"
        "            break\n"
        "    k = next(i for i in range(r, n) if m[i][c])\n"
        "    nz = [i for i in range(r, n) if m[i][c] != 0]\n"
        "    for i in range(r):\n"
        "        f = m[i][c]\n"
        "        if f:\n"
        "            m[i] = [x - f * y for x, y in zip(m[i], m[r])]\n"
        "    for x in m[r]:\n"
        "        if x:\n"
        "            break\n"
    )
    assert _pivot_searches(ast.parse(source)) == [2, 5, 6]


def _bareiss_steps(tree):
    """Lines of each fraction-free elimination step (a·b − c·d) // e."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left.left, node.left.right)
        )
    ]


def test_the_integer_determinant_comes_from_the_hermite_eliminator():
    int_matrix = _function("exact_linalg", "IntMatrix")
    det = next(n for n in int_matrix.body if isinstance(n, ast.FunctionDef) and n.name == "det")
    assert "_row_hnf" in _names_in(det)
    for path in MODULES:
        assert _bareiss_steps(_tree(path)) == [], path.name


def test_bareiss_rule_sees_the_step():
    source = (
        "a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev\n"
        "q = (x - y) // d\n"
        "r = (x * y - z) // d\n"
    )
    assert _bareiss_steps(ast.parse(source)) == [1]


def test_the_witt_decomposition_counts_no_rank():
    assert "rank" not in _names_in(_function("fp_quadratic", "_witt_decomposition"))


def test_smith_form_stays_in_exact_linalg():
    for path in MODULES:
        if path.stem == "exact_linalg":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and path.stem != "__init__":
                assert "smith_normal_form" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.Name):
                assert node.id != "smith_normal_form", (path.name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "smith_normal_form", (path.name, node.lineno)


def test_saturate_calls_no_smith_form():
    saturate = _function("exact_linalg", "saturate")
    assert "smith_normal_form" not in _names_in(saturate)


TRANSFORM_HELPERS = (
    "integral_coefficients", "_swap_rows", "_add_row", "_negate_row", "_two_row_transform", "_ident_list"
)


def test_the_eliminator_keeps_no_transform_list():
    for path in MODULES:
        defined = _defined_anywhere(path)
        assert not defined & set(TRANSFORM_HELPERS), path.name
    params = _function("exact_linalg", "_row_hnf").args.args
    assert [(a.arg, ast.unparse(a.annotation)) for a in params] == [("A", "list[list[int]]"), ("m", "int")]


def test_only_group_structures_take_a_smith_form():
    callers = sorted(
        (path.stem, node.name)
        for path in MODULES
        for node in _tree(path).body
        if any(
            isinstance(call, ast.Call) and "quotient_structure" in _names_in(call.func)
            for call in ast.walk(node)
        )
    )
    assert callers == [("deformation_tori", "cokernel_M"), ("quad_lattice", "discriminant_group")]


@pytest.mark.parametrize(
    "module, name", [("deformation_tori", "cokernel_M"), ("exact_linalg", "sublattice_in_span")]
)
def test_split_hnf_is_the_one_reader_of_split_bases(module, name):
    assert "split_hnf" in _names_in(_function(module, name))


def test_no_module_defines_lattice_intersection():
    for path in MODULES:
        defined = {node.name for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)}
        assert "lattice_intersection" not in defined, path.name


def test_cokernel_M_intersects_nothing():
    tree = _tree(PACKAGE / "deformation_tori.py")
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    referred = _names_in(tree) | imported
    assert not {"lattice_intersection", "lattices_equal", "hstack", "take_rows"} & referred
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "quotient_structure" in _names_in(node.func)
    ]
    assert len(calls) == 1


def _integer_checks(tree):
    """(line, what) of each ``isinstance(…, int)``, ``isinstance(…, IntMatrix)``
    and ``int(…)`` of anything but one comparison."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "isinstance" and len(node.args) == 2:
            for name in {"int", "IntMatrix"} & _names_in(node.args[1]):
                found.append((node.lineno, f"isinstance {name}"))
        elif node.func.id == "int" and not (
            len(node.args) == 1 and isinstance(node.args[0], ast.Compare)
        ):
            found.append((node.lineno, "int"))
    return found


# module -> what ``_integer_checks`` may find there; any other module may call int()
INTEGER_CHECKS = {
    "modp": {"isinstance int", "int"},
    "exact_linalg": {"isinstance IntMatrix", "int"},
    "fp_quadratic": set(),
}


def test_caller_integers_are_checked_in_modp_alone():
    for path in MODULES:
        found = {what for _, what in _integer_checks(_tree(path))}
        assert found <= INTEGER_CHECKS.get(path.stem, {"int"}), path.name


def test_integer_rule_sees_each_form():
    source = (
        "isinstance(x, int)\n"
        "isinstance(x, (bool, int))\n"
        "isinstance(M, IntMatrix)\n"
        "int(x) % p\n"
        "int(k == i)\n"
        "isinstance(x, dict)\n"
    )
    assert _integer_checks(ast.parse(source)) == [
        (1, "isinstance int"), (2, "isinstance int"), (3, "isinstance IntMatrix"), (4, "int")
    ]


PROCESS_MODULES = ("multiprocessing", "concurrent.futures")


def _process_uses(tree):
    """(line, inside a function) of each process-starting import or ``os.fork``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            names = []
        if any(
            name == "os.fork" or any(name == m or name.startswith(m + ".") for m in PROCESS_MODULES)
            for name in names
        ):
            found.append((node.lineno, in_function))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


def test_processes_start_lazily_in_verify_alone():
    for path in MODULES:
        uses = _process_uses(_tree(path))
        if path.stem == "verify":
            assert uses, "verify no longer starts processes"
            assert all(inside for _, inside in uses), uses
        else:
            assert uses == [], path.name


def test_process_rule_sees_each_form():
    source = (
        "import multiprocessing\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import concurrent.futures as cf\n"
        "def f():\n"
        "    import multiprocessing.pool\n"
        "    return os.fork()\n"
    )
    assert _process_uses(ast.parse(source)) == [(1, False), (2, False), (3, False), (5, True), (6, True)]


def _names_in(node):
    """Every name a subtree refers to, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _assigned_names(node):
    """The names a top-level ``x = ...`` binds, else []."""
    if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
        return [t.id for t in node.targets]
    return []


def _uncalled_exports(trees, exempt):
    """Sorted (module, name) of each exported name that no running code reaches.

    ``trees`` maps module names to syntax trees.  The code that runs is the
    top-level statements that neither define nor import (such as the
    ``main()`` call of ``python -m qlat``) and the definitions of the names
    in ``exempt``; a top-level definition runs once running code refers to
    its name, bare or as an attribute.  ``__all__`` and imports are not
    references.
    """
    definitions = {}  # name -> names its top-level definitions refer to
    reached = set(exempt)
    exported = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, set()).update(_names_in(node))
            elif _assigned_names(node):
                for name in _assigned_names(node):
                    if name == "__all__":
                        exported.update((module, n) for n in ast.literal_eval(node.value))
                    else:
                        definitions.setdefault(name, set()).update(_names_in(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names_in(node)
    frontier = set(reached)
    while frontier:
        frontier = set().union(*(definitions.get(name, ()) for name in frontier)) - reached
        reached |= frontier
    return sorted(
        (module, name)
        for module, name in exported
        if name not in reached and not name.startswith("__")
    )


def _tracer_table():
    """perfbench's ``TARGETS``: label -> (module, functions it wraps by name)."""
    for node in _tree(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def test_every_tracer_target_is_a_top_level_function():
    for module, fns in _tracer_table().values():
        path = PACKAGE / (module.removeprefix("qlat.") + ".py")
        defined = {node.name for node in _tree(path).body if isinstance(node, ast.FunctionDef)}
        assert sorted(set(fns) - defined) == [], module


def test_every_exported_name_has_a_caller():
    trees = {path.stem: _tree(path) for path in MODULES}
    tracer_targets = {fn for _, fns in _tracer_table().values() for fn in fns}
    assert _uncalled_exports(trees, tracer_targets) == []


def test_export_rule_follows_references_from_running_code():
    trees = {
        "a": ast.parse(
            '__all__ = ["used", "dead", "helper_only", "exempt", "by_exempt", "__version__"]\n'
            "__version__ = '1'\n"
            "def used(): return _helper()\n"
            "def _helper(): return Table\n"
            "class Table: pass\n"
            "def dead(): return _dead_helper()\n"
            "def _dead_helper(): return helper_only(dead)\n"
            "def helper_only(): return helper_only\n"
            "def exempt(): return by_exempt\n"
            "def by_exempt(): pass\n"
        ),
        "b": ast.parse(
            "from .a import used\n"
            "from . import a\n"
            "TABLE = {'x': a.used}\n"
            "if __name__ == '__main__':\n"
            "    TABLE['x']()\n"
        ),
        "__init__": ast.parse('from .a import Table, dead\n__all__ = ["Table", "dead"]\n'),
    }
    assert _uncalled_exports(trees, {"exempt"}) == [
        ("__init__", "dead"), ("a", "dead"), ("a", "helper_only")
    ]
