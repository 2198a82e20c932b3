"""The public contract: the names `fdtd_stability` exports, and the
test-only referees that live in `tests/referees.py` instead of the package."""

import ast
import importlib
from pathlib import Path

import fdtd_stability

PUBLIC = {
    # errors
    "InvalidInputError", "NumericalFailureError",
    # polyloc
    "Polynomial", "is_simple_von_neumann",
    # schemes
    "DimensionlessParams", "MediumModel", "Scheme", "Wavenumber", "char_poly_closed",
    "courant_q", "dimensionless_params",
    # analyzer
    "Argument", "StabilityVerdict", "classify_at_q", "classify_point",
    "classify_point_2d", "reproduce_argument_table", "stability_boundary_k",
    "worst_case_verdict",
    # simulator
    "FieldState", "GrowthReport", "empirical_verdict", "init_plane_wave", "run_growth",
}

REFEREES = ("root_profile", "RootProfile", "ROOT_CLUSTER_TOL", "conjugate_poly",
            "poly_q",
            "amplification_matrix", "char_poly_from_matrix", "char_poly_2d",
            "fourier_mode", "reduce_step", "plain_bisection_boundary", "_walk",
            "_candidates", "exact_walk", "exact_stable_at_q", "exact_schur_at_q",
            "exact_product", "greedy_clusters", "step", "tm_factor_2d")

# The float eigen route that the exact decision of `classify_at_q` retired,
# its float special-root test, the float recursion's tolerances and
# helpers, the Fraction Euclid and matrix powers that the integer rank
# test retired, the records' Fraction retyping and the analyzer's snap
# helper, which plain arithmetic and `classify_at_q` made redundant, and the
# resonance snap window, since callers pass the degenerate q exactly.
RETIRED = ("OUT_EIG_TOL", "EIG_CLUSTER_TOL", "RANK_REL_TOL", "gn_bounded",
           "BoundednessReport", "UnitEigenvalue", "_eigvals", "_unit_multiplicities",
           "amplification_matrix_at_q", "_special_root_near", "BOUNDARY_REL_TOL",
           "TRIM_REL_TOL", "_tolerances", "_compare_moduli", "_abs2", "_normalized",
           "_trimmed", "_divmod", "_gcd", "_matmul", "_matrix_poly", "_typed",
           "_degenerate_q", "RESONANCE_SNAP_TOL")


def test_all_is_the_public_contract():
    assert len(PUBLIC) == 24
    assert len(fdtd_stability.__all__) == len(PUBLIC)
    assert set(fdtd_stability.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fdtd_stability, name) is not None, name


def test_referees_are_not_in_the_package():
    """Test-only references stay out of src, and so do the retired Schur
    and exact-rational twins of the one recursion."""
    modules = [importlib.import_module(f"fdtd_stability.{m}")
               for m in ("polyloc", "schemes", "simulator", "analyzer", "cli")]
    for name in REFEREES:
        assert not any(hasattr(m, name) for m in modules + [fdtd_stability]), name
    for name in ("from_roots", "monic", "scaled", "__mul__", "derivative"):
        assert not hasattr(fdtd_stability.Polynomial, name), name
    assert not hasattr(fdtd_stability.FieldState, "sup_norm")
    assert "k_limit" not in fdtd_stability.schemes.SchemeSpec.__dataclass_fields__
    for name in ("is_schur", "reduce_step_exact", "is_schur_exact",
                 "is_simple_von_neumann_exact", "_trim_exact"):
        assert not any(hasattr(m, name) for m in modules + [fdtd_stability]), name


def test_the_float_eigen_route_is_retired():
    """No module of the package defines the eigen route's names or
    tolerances, the float special-root test or the float recursion's
    tolerances, and the analyzer imports no numpy: its verdicts come from
    the recursion and from exact rationals."""
    modules = [importlib.import_module(f"fdtd_stability.{m}")
               for m in ("polyloc", "schemes", "simulator", "analyzer", "cli")]
    for name in RETIRED:
        assert not any(hasattr(m, name) for m in modules + [fdtd_stability]), name
    assert "numpy" not in _imports("analyzer")


def _imports(module: str) -> set[str]:
    """The top-level names of every module a package module's source
    imports, at any depth of its syntax tree."""
    source = Path(fdtd_stability.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def _package_imports(module: str) -> set[str]:
    """The modules of the package that a module's source imports, at any
    depth of its syntax tree (``from . import x`` counts as x)."""
    source = Path(fdtd_stability.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("fdtd_stability" if node.level else None,
                                          node.module)))
            paths = [f"{base}.{a.name}" if base == "fdtd_stability" else base
                     for a in node.names]
        else:
            continue
        found |= {p.split(".")[1] for p in paths if p.startswith("fdtd_stability.")}
    return found


def test_the_referees_do_not_import_each_other():
    """The empirical referee imports nothing of the analytic route, and the
    analytic route nothing of the simulator or the front end; nor does the
    analytic vocabulary name the empirical verdict."""
    assert _package_imports("simulator") == {"errors", "schemes"}
    assert not _package_imports("analyzer") & {"simulator", "cli"}
    assert _package_imports("polyloc") == {"errors"}
    assert "EMPIRICAL" not in fdtd_stability.Argument.__members__
