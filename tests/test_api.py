"""The public surface: the package's exported names are pinned, and every
module's __all__ names only what the module defines or imports."""

import importlib
import pkgutil

import g2nil
from g2nil import liealg, structure

PUBLIC = [
    "__version__",
    # exterior
    "DegenerateError", "ExactnessError", "G2nilError", "KForm", "Mode",
    "ModeMismatchError", "ToleranceError", "close", "form_inner", "hodge",
    "resolve_tolerance", "top_wedge_coeff", "volume_form",
    # liealg
    "LieAlgebra", "Metric", "NilsolitonReport", "UnsupportedAlgebraError", "is_nilsoliton",
    "jz_matrix", "ricci_operator",
    # g2su3
    "G2Structure", "TorsionReport", "calibrates", "induced_metric",
    "phi_from_coframe", "phi_standard", "starphi_standard", "torsion_class",
    # structure
    "CriterionReport", "MetricDecomposition",
    "coclosed_always", "coclosed_exists", "decompose", "m_matrix",
    "purely_coclosed_exists", "sd_basis_forms", "sd_gram", "symmetrize_M",
    # construct
    "Construction", "construct", "construct_case1", "construct_case2",
    "construct_case3",
    # catalog
    "catalog", "UnknownAlgebraError",
]


def test_package_all_is_pinned():
    assert g2nil.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(g2nil, name)] == []


def test_every_module_all_entry_exists():
    checked = 0
    for info in pkgutil.iter_modules(g2nil.__path__):
        module = importlib.import_module(f"g2nil.{info.name}")
        names = getattr(module, "__all__", ())
        assert [name for name in names if not hasattr(module, name)] == [], info.name
        checked += bool(names)
    assert checked >= 5


def test_unsupported_algebra_error_is_one_class():
    assert g2nil.UnsupportedAlgebraError is liealg.UnsupportedAlgebraError
    assert structure.UnsupportedAlgebraError is liealg.UnsupportedAlgebraError
    assert issubclass(g2nil.UnsupportedAlgebraError, g2nil.G2nilError)
