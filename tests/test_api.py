"""The public surface: the package's exported names are pinned, every
module's __all__ names only what the module defines or imports, and the
reports' JSON carries each mode's scalars (exact strings, floats)."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import g2nil
from g2nil import catalog, liealg, structure

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
    "Construction", "construct", "construct_case1", "construct_selfdual",
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


_IDENTITY_STRINGS = [["1" if i == j else "0" for j in range(7)] for i in range(7)]


@pytest.mark.parametrize("mode", list(g2nil.Mode))
def test_report_json_scalars_per_mode(mode):
    exact = mode is g2nil.Mode.EXACT

    def to_mode(g):
        return g if exact else g.to_float()

    # scalar torsion of the n7_3_A family coframe at a = b = c = 1
    fx = catalog.load_fixture("n7_3_A_family.json")
    coframe = catalog.coframe_from_fixture(fx, dict.fromkeys("abc", Fraction(1)), mode)
    struct = g2nil.G2Structure.from_coframe(coframe)
    report = g2nil.torsion_class(catalog.get("n7_3_A").algebra, struct).to_json()
    assert report == {"coclosed": True, "tau0": "6/7" if exact else 6 / 7,
                      "purely_coclosed": False, "calibrates_derived": False,
                      "residual_coclosed": 0.0, "residual_tau0": 3.0, "mode": mode.value}
    g = struct.metric.to_json()["g"]
    assert g == [[x if exact else float(x) for x in row] for row in _IDENTITY_STRINGS]
    assert all(type(x) is (str if exact else float) for row in g for x in row)

    entry = catalog.get("h3_h3_R")
    nil = g2nil.is_nilsoliton(entry.algebra, to_mode(entry.nilsoliton_metric)).to_json()
    assert nil == {"is_nilsoliton": True, "soliton_constant": "-3/2" if exact else -1.5,
                   "residual": 0.0, "mode": mode.value}

    # a witness metric with g_26 = 1/2: the plane's second vector is e_2 - e_6 / 2
    entry = catalog.get("n7_3_A")
    rows = [list(r) for r in entry.witness_metric.rows]
    rows[1][5] = rows[5][1] = Fraction(1, 2)
    witness = g2nil.purely_coclosed_exists(entry.algebra, to_mode(g2nil.Metric(rows)))
    plane = [[int(i == j) for j in range(7)] for i in range(4)]
    plane[1][5] = Fraction(-1, 2)
    assert witness.to_json()["witness"] == {
        "rtilde": [[str(x) if exact else float(x) for x in v] for v in plane],
        "orientation": "+"}
