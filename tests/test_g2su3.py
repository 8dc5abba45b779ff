"""G2-structures: the standard 3-form, induced metrics, torsion reports and
calibration of subspaces."""

import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil import catalog
from g2nil.exterior import (DegenerateError, ExactnessError, KForm, Mode, ModeMismatchError,
                             top_wedge_coeff)
from g2nil.g2su3 import (
    G2Structure,
    calibrates,
    induced_metric,
    phi_from_coframe,
    phi_standard,
    starphi_standard,
    torsion_class,
)
from g2nil.liealg import LieAlgebra, Metric, _differential

SEED = 424242


def rand_frac(rng, lo=-2, hi=2, den=3):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _forms(rows, mode=Mode.EXACT):
    return [KForm.from_terms(7, 1, {(j + 1,): x for j, x in enumerate(row) if x}, mode)
            for row in rows]


def rand_coframe(rng, draws=50):
    """A random invertible rational coframe; fails after `draws` rejected draws."""
    for _ in range(draws):
        A = [[rand_frac(rng) for _ in range(7)] for _ in range(7)]
        cof = _forms(A)
        try:
            G2Structure.from_coframe(cof)  # probes invertibility
            return A, cof
        except (DegenerateError, ExactnessError):
            continue
    raise AssertionError(f"no invertible coframe in {draws} random draws")


PHI_TERMS = {(1, 2, 7): 1, (3, 4, 7): 1, (5, 6, 7): 1, (1, 3, 5): 1,
             (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}
STARPHI_TERMS = {(1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (3, 4, 5, 6): 1, (1, 3, 6, 7): 1,
                 (1, 4, 5, 7): 1, (2, 3, 5, 7): 1, (2, 4, 6, 7): -1}


def test_standard_forms_pinned():
    assert phi_standard() == KForm.from_terms(7, 3, PHI_TERMS)
    assert starphi_standard() == KForm.from_terms(7, 4, STARPHI_TERMS)


def test_standard_phi_round_trip():
    struct = G2Structure.from_phi(phi_standard())
    assert struct.metric.rows == Metric.identity(7).rows
    assert struct.orientation == 1
    assert struct.starphi == starphi_standard()
    e = [KForm.basis(7, i) for i in range(1, 8)]
    assert struct.volume * functools.reduce(KForm.wedge, e) == struct.hodge(KForm.from_terms(7, 0, {(): 1}))


def test_induced_metric_is_gram_of_coframe():
    rng = random.Random(SEED)
    for _ in range(15):
        A, cof = rand_coframe(rng)
        struct = G2Structure.from_coframe(cof)
        AtA = [[sum(A[k][i] * A[k][j] for k in range(7)) for j in range(7)]
               for i in range(7)]
        assert [list(r) for r in struct.metric.rows] == AtA


def _rows(coframe):
    return [[f.coeff(j) for j in range(1, 8)] for f in coframe]


def _shear_automorphism(structure, rng):
    """f_j -> f_j + sum_k s_kj f_k for every generator f_j, over the f_k spanning
    n' (those whose d e^k is nonzero); columns are the images of the basis."""
    der = [k for k, eq in enumerate(structure) if eq]
    A = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    for j in range(7):
        if j not in der:
            for k in der:
                A[k][j] = rng.choice([-1, Fraction(1, 2), 1])
    return A


def _cross_check_coframes():
    """The random coframes, the unscaled pure-coframe fixtures composed with a
    shear automorphism, and a coframe of negative orientation."""
    rng = random.Random(SEED + 11)
    out = [rand_coframe(rng)[1] for _ in range(15)]
    for name in catalog.fixture_names():
        fx = catalog.load_fixture(name)
        if fx["kind"] != "pure_coframe" or Fraction(fx.get("scale_sq", 1)) != 1:
            continue
        A = _shear_automorphism(catalog.get(fx["algebra"]).structure, rng)
        C = _rows(catalog.coframe_from_fixture(fx))
        out.append(_forms([[sum(C[i][k] * A[k][j] for k in range(7)) for j in range(7)]
                           for i in range(7)]))
    e = [KForm.basis(7, i) for i in range(1, 8)]
    out.append([e[0] + e[3], -e[1]] + e[2:])
    return out


def _rel_gap(a, b) -> float:
    """max |a - b| over the entries of two scalar lists, relative to max |a|."""
    return max(abs(float(x) - float(y)) for x, y in zip(a, b)) / max(abs(float(x)) for x in a)


def _form_entries(a: KForm, b: KForm) -> tuple[list, list]:
    masks = sorted(set(a._terms) | set(b._terms))
    return ([a._terms.get(m, 0.0) for m in masks], [b._terms.get(m, 0.0) for m in masks])


def test_coframe_route_matches_the_phi_round_trip():
    """from_coframe (g = C^T C, vol = det C, *phi pulled back) against from_phi
    (b-matrix, 9th root, Hodge star) of the same coframe's phi, exactly.

    In float mode the coframe route is held to the exact values. The float
    from_phi route is no reference there: its Hodge star reads Laplace-expanded
    minors of g and misses the exact *phi of one random coframe below by about 2e-10.
    """
    coframes = _cross_check_coframes()
    assert len(coframes) == 15 + 10 + 1
    assert G2Structure.from_coframe(coframes[-1]).orientation == -1
    for cof in coframes:
        direct = G2Structure.from_coframe(cof)
        ref = G2Structure.from_phi(phi_from_coframe(cof))
        assert direct.phi == ref.phi
        assert direct.metric.rows == ref.metric.rows
        assert direct.volume == ref.volume
        assert direct.orientation == ref.orientation
        assert direct.starphi == ref.starphi

        flt = G2Structure.from_coframe([f.to_float() for f in cof])
        assert flt.mode is Mode.FLOAT and flt.orientation == direct.orientation
        for pair in (_form_entries(direct.phi.to_float(), flt.phi),
                     _form_entries(direct.starphi.to_float(), flt.starphi),
                     ([x for r in direct.metric.rows for x in r],
                      [x for r in flt.metric.rows for x in r]),
                     ([direct.volume], [flt.volume])):
            assert _rel_gap(*pair) <= 1e-12


def _catalog_coframes():
    """Every pinned coframe: the pure-coframe fixtures and each sample of the
    family-coframe fixtures."""
    out = []
    for name in catalog.fixture_names():
        fx = catalog.load_fixture(name)
        if fx["kind"] == "pure_coframe":
            out.append(catalog.coframe_from_fixture(fx))
        elif fx["kind"] == "family_coframe":
            for sample in fx["samples"]:
                params = dict(zip(fx["params"], map(Fraction, sample["values"])))
                out.append(catalog.coframe_from_fixture(fx, params))
    return out


@pytest.mark.parametrize("mode", list(Mode))
def test_coframe_metric_is_the_metric_of_its_gram_matrix(mode):
    """from_coframe builds g = C^T C without the checks of Metric(...); it must
    still be the metric Metric(C^T C) builds: the same rows and scalar types,
    JSON and cleared (den, G)."""
    coframes = _catalog_coframes() + _cross_check_coframes()
    assert len(coframes) > 40
    for cof in coframes:
        if mode is Mode.FLOAT:
            cof = [f.to_float() for f in cof]
        C = _rows(cof)
        ref = Metric([[sum(C[k][i] * C[k][j] for k in range(7)) for j in range(7)]
                      for i in range(7)], mode)
        got = G2Structure.from_coframe(cof).metric
        assert got.mode is ref.mode is mode
        assert got.rows == ref.rows
        assert [type(x) for r in got.rows for x in r] == [type(x) for r in ref.rows for x in r]
        assert got.to_json() == ref.to_json()
        _ip, den, G = got.cleared()
        assert (den, G) == ref.cleared()[1:]
        assert [type(x) for r in G for x in r] == [type(x) for r in ref.cleared()[2] for x in r]
        assert got.is_positive_definite()


@pytest.mark.parametrize("mode", list(Mode))
def test_singular_coframe_is_degenerate_in_both_modes(mode):
    rows = [[int(i == j) for j in range(7)] for i in range(7)]
    rows[6] = [1, 1, 0, 0, 0, 0, 0]   # theta^7 = theta^1 + theta^2
    with pytest.raises(DegenerateError, match="degenerate"):
        G2Structure.from_coframe(_forms(rows, mode))


_E = [KForm.basis(7, i) for i in range(1, 8)]
_NOT_SEVEN = "a coframe consists of seven 1-forms"
_NOT_ONE_FORMS = "coframe entries must be 1-forms in dimension 7"
_MIXED = "cannot combine exact and float forms"


@pytest.mark.parametrize("coframe, error, message", [
    (_E[:6], ValueError, _NOT_SEVEN),
    (_E + [_E[0]], ValueError, _NOT_SEVEN),
    (_E[:6] + [KForm.basis(7, (1, 2))], ValueError, _NOT_ONE_FORMS),
    (_E[:6] + [KForm.basis(6, 1)], ValueError, _NOT_ONE_FORMS),
    # the shape is checked before the mode, entry by entry
    (_E[:6] + [KForm.basis(7, (1, 2), Mode.FLOAT)], ValueError, _NOT_ONE_FORMS),
    (_E[:3] + [_E[3].to_float()] + _E[4:], ModeMismatchError, _MIXED),
    ([f.to_float() for f in _E[:6]] + [_E[6]], ModeMismatchError, _MIXED),
], ids=["six", "eight", "two-form", "dim6", "float-two-form", "one-float", "one-exact"])
def test_coframe_input_is_validated(coframe, error, message):
    """from_coframe and phi_from_coframe reject anything but seven 1-forms in
    dimension 7 of one mode, with these errors and messages."""
    for build in (G2Structure.from_coframe, phi_from_coframe):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(coframe)


_HOMOTHETY_BASE = (rand_coframe(random.Random(SEED + 5))[1],
                   catalog.coframe_from_fixture(catalog.load_fixture("n7_3_B_pure.json")))


@settings(max_examples=40, deadline=None)
@given(lam=st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool),
       which=st.sampled_from(range(len(_HOMOTHETY_BASE))))
def test_coframe_homothety(lam, which):
    """theta -> lam * theta scales phi by lam^3, *phi by lam^4, g by lam^2 and
    the volume by lam^7, exactly."""
    cof = _HOMOTHETY_BASE[which]
    base = G2Structure.from_coframe(cof)
    scaled = G2Structure.from_coframe([lam * f for f in cof])
    assert scaled.phi == lam ** 3 * base.phi
    assert scaled.starphi == lam ** 4 * base.starphi
    assert scaled.metric.rows == tuple(tuple(lam ** 2 * x for x in r) for r in base.metric.rows)
    assert scaled.volume == lam ** 7 * base.volume
    assert scaled.orientation == (1 if lam > 0 else -1) * base.orientation


def _textbook_b(phi):
    """b(e_i, e_j) = (1/6) coefficient of (e_i ⌟ phi) ∧ (e_j ⌟ phi) ∧ phi."""
    one = 1 if phi.mode is Mode.EXACT else 1.0
    cs = [phi.interior([one if k == i else 0 * one for k in range(7)]) for i in range(7)]
    return [[top_wedge_coeff(cs[i].wedge(cs[j]), phi) / (6 * one) for j in range(7)]
            for i in range(7)]


def _dense_invertible(rng):
    """L U with L unit lower triangular and U upper triangular with nonzero diagonal."""
    lower = [[Fraction(int(i == j)) if j >= i else rand_frac(rng) for j in range(7)]
             for i in range(7)]
    upper = [[rand_frac(rng) if j > i else (rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), 3)
                                            if j == i else Fraction(0))
              for j in range(7)] for i in range(7)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(7)) for j in range(7)]
            for i in range(7)]


def test_induced_metric_matches_wedge_definition():
    rng = random.Random(SEED + 7)
    for _ in range(8):
        A = _dense_invertible(rng)
        phi = phi_from_coframe([KForm.from_terms(7, 1, {(j + 1,): A[i][j] for j in range(7)
                                                        if A[i][j]}) for i in range(7)])
        # a rational cube keeps det(b)^(1/9) rational and adds denominators
        for lam in (Fraction(1), Fraction(2, 3), Fraction(-5, 7)):
            scaled = lam ** 3 * phi
            g, vol = induced_metric(scaled)
            b = _textbook_b(scaled)
            want_vol = Fraction(lam) ** 7 * G2Structure.from_phi(phi).volume
            assert vol == want_vol
            assert [list(r) for r in g.rows] == [[x / want_vol for x in r] for r in b]
            assert all(type(x) is Fraction for r in g.rows for x in r)
        gf, volf = induced_metric(phi.to_float())
        bf = _textbook_b(phi.to_float())
        assert all(type(x) is float for r in gf.rows for x in r)
        for r, rb in zip(gf.rows, bf):
            for x, xb in zip(r, rb):
                assert abs(x - xb / volf) <= 1e-9 * (1.0 + abs(x))


def test_from_coframe_handles_either_orientation():
    e = [KForm.basis(7, i) for i in range(1, 8)]
    flipped = [-e[0]] + e[1:]  # negative determinant
    struct = G2Structure.from_coframe(flipped)
    assert struct.metric.rows == Metric.identity(7).rows


def test_degenerate_three_form_detected():
    with pytest.raises(DegenerateError):
        induced_metric(KForm.from_terms(7, 3, {(1, 2, 3): 1}))
    induced_metric(phi_standard())


H5_R2 = LieAlgebra.from_structure("h5_R2", [None] * 6 + [{(1, 2): 1, (3, 4): 1}])
N5_2_R2 = LieAlgebra.from_structure(
    "n5_2_R2", [None] * 4 + [{(1, 2): 1}, {(1, 3): 1}, None])


def perm_coframe(order):
    return [KForm.basis(7, i) for i in order]


def test_torsion_reports_on_heisenberg_like_families():
    # identity coframe on h5 + R^2: d e^7 = e^12 + e^34, and the M data is
    # symmetric but not trace-free in the mixed frame
    struct = G2Structure.from_phi(phi_standard())
    rep = torsion_class(H5_R2, struct)
    assert isinstance(rep.coclosed, bool)
    assert rep.purely_coclosed == (rep.coclosed and rep.tau0 == 0)
    # purely coclosed coframes: a permuted frame on h5 + R^2, and one on n5_2 + R^2
    rep = torsion_class(H5_R2, G2Structure.from_coframe(perm_coframe([1, 2, 4, 3, 5, 6, 7])))
    assert rep.coclosed and rep.purely_coclosed
    e = [KForm.basis(7, i) for i in range(1, 8)]
    cof = [e[1], e[2], e[3], e[0], -e[5], e[4], e[6]]
    assert torsion_class(N5_2_R2, G2Structure.from_coframe(cof)).purely_coclosed


def test_torsion_float_matches_exact():
    rng = random.Random(SEED + 2)
    for _ in range(8):
        _, cof = rand_coframe(rng)
        struct = G2Structure.from_coframe(cof)
        rep = torsion_class(H5_R2, struct)
        struct_f = G2Structure.from_coframe([f.to_float() for f in cof])
        rep_f = torsion_class(H5_R2, struct_f)
        assert rep.coclosed == rep_f.coclosed
        assert rep.purely_coclosed == rep_f.purely_coclosed
        assert abs(float(rep.tau0) - float(rep_f.tau0)) < 1e-9 * (1 + abs(float(rep.tau0)))


def test_torsion_class_calls_no_wedge(monkeypatch):
    """from_coframe and torsion_class work in the coframe's own frame: d expands
    by bitmask, with no KForm.wedge. phi and *phi in the basis e are pulled
    back only when read, and then equal the forms of the phi round trip."""
    cof = catalog.coframe_from_fixture(catalog.load_fixture("n7_3_B_pure.json"))
    calls = []
    wedge = KForm.wedge

    def counted(self, other):
        calls.append(other)
        return wedge(self, other)

    monkeypatch.setattr(KForm, "wedge", counted)
    struct = G2Structure.from_coframe(cof)
    report = torsion_class(catalog.get("n7_3_B").algebra, struct)
    assert report.coclosed and report.purely_coclosed
    assert len(calls) == 0
    monkeypatch.undo()
    ref = G2Structure.from_phi(phi_from_coframe(cof))
    assert struct.phi == ref.phi
    assert struct.starphi == ref.starphi


def test_frame_torsion_matches_the_phi_round_trip():
    """torsion_class in the coframe's frame against torsion_class in the basis e
    of the same phi (from_phi), exactly, on every catalog algebra; the float
    coframe matches the exact tau0 to 1e-9 relative and every exact verdict."""
    coframes = _cross_check_coframes()
    refs = [G2Structure.from_phi(phi_from_coframe(cof)) for cof in coframes]
    assert refs[-1].orientation == -1
    for entry in map(catalog.get, catalog.names()):
        L = entry.algebra
        for cof, ref in zip(coframes, refs):
            got = torsion_class(L, G2Structure.from_coframe(cof))
            want = torsion_class(L, ref)
            assert (got.coclosed, got.tau0, got.purely_coclosed, got.calibrates_derived) == (
                want.coclosed, want.tau0, want.purely_coclosed, want.calibrates_derived)
            flt = torsion_class(L, G2Structure.from_coframe([f.to_float() for f in cof]))
            assert (flt.coclosed, flt.purely_coclosed, flt.calibrates_derived) == (
                got.coclosed, got.purely_coclosed, got.calibrates_derived)
            if got.tau0:
                assert abs(flt.tau0 - float(got.tau0)) <= 1e-9 * abs(float(got.tau0))
            else:
                assert flt.residual_tau0 <= 1e-9


def _ratio(num, scale):
    return num / scale if num else 0.0


def _kform_report(L, struct, tol=None):
    """The TorsionReport fields taken on KForms: d *phi_F and d phi_F through
    `_differential` (each coefficient divided), c_F through `top_wedge_coeff`."""
    phi_f, star_f, vol_f = struct._frame_forms()
    table, t_den = struct._frame_table(L)
    constants = max((abs(c) for terms in table for _, c in terms), default=0) / t_den
    d_star = _differential(table, t_den, star_f)
    scale_star = constants * star_f.max_abs()
    coclosed = d_star.is_zero(tol, scale_star)
    dphi = _differential(table, t_den, phi_f)
    c = top_wedge_coeff(dphi, phi_f)
    scale_tau = dphi.max_abs() * phi_f.max_abs()
    derived = L.derived_basis()
    return (coclosed, struct.mode.div(c, 7 * vol_f),
            coclosed and struct.mode.equal(c, 0, tol, scale_tau),
            calibrates(struct, derived, tol) if len(derived) == 3 else None,
            _ratio(d_star.max_abs(), scale_star), _ratio(abs(float(c)), scale_tau),
            struct.mode)


def _fixture_coframes():
    """(algebra, coframe) for every pure-coframe fixture and every sample of the
    family-coframe fixtures, each as it is and composed with a shear
    automorphism of its algebra."""
    rng = random.Random(SEED + 23)
    out = []
    for name in catalog.fixture_names():
        fx = catalog.load_fixture(name)
        entry = catalog.get(fx["algebra"])
        if fx["kind"] == "pure_coframe":
            coframes = [catalog.coframe_from_fixture(fx)]
        elif fx["kind"] == "family_coframe":
            coframes = [catalog.coframe_from_fixture(
                fx, dict(zip(fx["params"], map(Fraction, sample["values"]))))
                for sample in fx["samples"]]
        else:
            continue
        for cof in coframes:
            A = _shear_automorphism(entry.structure, rng)
            C = _rows(cof)
            out += [(entry.algebra, cof), (entry.algebra, _forms(
                [[sum(C[i][k] * A[k][j] for k in range(7)) for j in range(7)]
                 for i in range(7)]))]
    return out


@pytest.mark.parametrize("mode", list(Mode))
def test_torsion_on_numerators_matches_the_kform_route(mode):
    """torsion_class decides and sums on the undivided numerators of d; its
    report equals, field by field in value and type, the one taken on the
    divided KForms, for the coframe structures and for from_phi structures
    of the same coframes."""
    pairs = _fixture_coframes()
    assert len(pairs) == 2 * (10 + 10)  # 10 pure fixtures, 10 family samples
    seen = set()
    for L, cof in pairs:
        if mode is Mode.FLOAT:
            cof = [f.to_float() for f in cof]
        for struct in (G2Structure.from_coframe(cof), G2Structure.from_phi(phi_from_coframe(cof))):
            rep = torsion_class(L, struct)
            got = (rep.coclosed, rep.tau0, rep.purely_coclosed, rep.calibrates_derived,
                   rep.residual_coclosed, rep.residual_tau0, rep.mode)
            want = _kform_report(L, struct)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
            seen.add((rep.coclosed, rep.purely_coclosed))
    assert {(True, True), (True, False)} <= seen


_SCALES = (Fraction(1, 10 ** 8), Fraction(1, 1000), Fraction(1), Fraction(1000), Fraction(10 ** 8))


@pytest.mark.parametrize("lam", _SCALES)
def test_float_torsion_verdicts_are_homothety_invariant(lam):
    """The identity coframe scaled by lam: float and exact verdicts agree on
    every catalog algebra. With a floor of 1 under the residual scales, float
    mode disagreed with exact mode on (coclosed, purely) at lam = 1/1000 on 14
    of the 16 algebras."""
    e = [KForm.basis(7, i) for i in range(1, 8)]
    for entry in map(catalog.get, catalog.names()):
        exact = torsion_class(entry.algebra, G2Structure.from_coframe([lam * f for f in e]))
        flt = torsion_class(entry.algebra,
                            G2Structure.from_coframe([float(lam) * f.to_float() for f in e]))
        assert (flt.coclosed, flt.purely_coclosed, flt.calibrates_derived) == (
            exact.coclosed, exact.purely_coclosed, exact.calibrates_derived), entry.name


@pytest.mark.parametrize("lam", _SCALES)
def test_scaled_family_coframe_is_not_purely_coclosed_in_either_mode(lam):
    """The n7_3_A family coframe at a = b = c = 1 (tau0 = 6/7) scaled by lam has
    tau0 = 6/(7 lam) and residuals that do not move; float mode once called it
    purely coclosed at lam = 1/1000."""
    fx = catalog.load_fixture("n7_3_A_family.json")
    L = catalog.get("n7_3_A").algebra
    for mode in Mode:
        scale = lam if mode is Mode.EXACT else float(lam)
        cof = catalog.coframe_from_fixture(fx, dict.fromkeys("abc", Fraction(1)), mode)
        rep = torsion_class(L, G2Structure.from_coframe([scale * f for f in cof]))
        assert rep.coclosed and not rep.purely_coclosed
        assert abs(float(rep.tau0) - 6 / (7 * float(lam))) <= 1e-12 * abs(float(rep.tau0))
        assert rep.residual_coclosed == 0.0
        assert abs(rep.residual_tau0 - 3.0) <= 1e-12


def test_calibrates_standard_associative_planes():
    phi = phi_standard()
    f = [tuple(Fraction(int(i == k)) for i in range(7)) for k in range(7)]
    assert calibrates(phi, [f[0], f[1], f[6]])   # e127 is a term of phi
    assert calibrates(phi, [f[0], f[2], f[4]])   # e135 is a term of phi
    assert not calibrates(phi, [f[0], f[1], f[2]])  # e123 is not associative


def test_calibrates_is_basis_independent():
    rng = random.Random(SEED + 3)
    phi = phi_standard()
    f = [tuple(Fraction(int(i == k)) for i in range(7)) for k in range(7)]
    plane = [f[0], f[1], f[6]]
    for _ in range(10):
        c = [[rand_frac(rng) for _ in range(3)] for _ in range(3)]
        det = (c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
               - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
               + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0]))
        if not det:
            continue
        mixed = [tuple(sum(c[i][k] * plane[k][j] for k in range(3)) for j in range(7))
                 for i in range(3)]
        assert calibrates(phi, mixed)


def test_calibrates_rejects_wrong_dimension():
    phi = phi_standard()
    f = [tuple(Fraction(int(i == k)) for i in range(7)) for k in range(7)]
    with pytest.raises(ValueError):
        calibrates(phi, [f[0], f[1]])
