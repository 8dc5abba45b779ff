"""Lie algebras from structure constants: Chevalley-Eilenberg differential,
brackets, j(z) maps, the Ricci operator and nilsolitons."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil import catalog
from g2nil._linalg import gram_schmidt_sq, mat_inv, mat_mul, nullspace, row_space_basis
from g2nil.exterior import KForm, Mode, ModeMismatchError
from g2nil.liealg import (
    LieAlgebra,
    Metric,
    UnsupportedAlgebraError,
    is_nilsoliton,
    jz_matrix,
    ricci_operator,
)
from test_structure import _automorphism, _pull_back

SEED = 911


def rand_frac(rng, lo=-2, hi=2, den=3):
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_two_step(rng, dim=7, derived=3):
    """Random 2-step algebra: the last `derived` covectors differentiate to
    2-forms in the first dim - derived indices."""
    gens = dim - derived
    eqs = [None] * gens
    for _ in range(derived):
        terms = {}
        for pair in rng.sample([*combinations(range(1, gens + 1), 2)], rng.randint(1, 3)):
            c = rng.choice([-2, -1, 1, 2])
            terms[pair] = Fraction(c)
        eqs.append(terms)
    return LieAlgebra.from_structure("random", eqs)


def rand_form(rng, dim, degree, nterms=3):
    monos = [*combinations(range(1, dim + 1), degree)]
    terms = {m: rand_frac(rng) for m in rng.sample(monos, min(nterms, len(monos)))}
    return KForm.from_terms(dim, degree, terms)


def rand_spd(rng, dim):
    a = [[rand_frac(rng) for _ in range(dim)] for _ in range(dim)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(dim)) + (1 if i == j else 0)
             for j in range(dim)] for i in range(dim)]
    return Metric(rows)


H3_R4 = LieAlgebra.from_structure("h3_R4", [None] * 6 + [{(1, 2): 1}])
H5_R2 = LieAlgebra.from_structure("h5_R2", [None] * 6 + [{(1, 2): 1, (3, 4): 1}])
H7 = LieAlgebra.from_structure("h7", [None] * 6 + [{(1, 2): 1, (3, 4): 1, (5, 6): 1}])


def test_structure_constants_must_be_exact():
    with pytest.raises(ModeMismatchError):
        LieAlgebra.from_json({"name": "bad", "dim": 7,
                              "d": [[]] * 6 + [[{"idx": [1, 2], "c": 0.5}]]})


def test_json_round_trip():
    data = H5_R2.to_json()
    again = LieAlgebra.from_json(data)
    assert again.dim == 7
    assert all(a == b for a, b in zip(again.d_forms, H5_R2.d_forms))


def test_bracket_convention():
    # d e^7 = f^12 encodes [f1, f2] = -f7 via (d a)(x, y) = -a([x, y])
    minus_f7 = tuple(Fraction(-(i == 6)) for i in range(7))
    assert H3_R4.bracket_basis(1, 2) == minus_f7
    assert H3_R4.bracket_basis(2, 1) == tuple(-x for x in minus_f7)
    assert not any(H3_R4.bracket_basis(1, 7))  # f7 is central


def test_bracket_bilinear_and_matches_float():
    rng = random.Random(SEED)
    for _ in range(40):
        L = rand_two_step(rng)
        x = [rand_frac(rng) for _ in range(7)]
        y = [rand_frac(rng) for _ in range(7)]
        b = L.bracket(x, y)
        assert L.bracket(y, x) == tuple(-v for v in b)
        bf = L.bracket([float(v) for v in x], [float(v) for v in y])
        assert all(type(v) is float for v in bf)
        assert max(abs(float(u) - v) for u, v in zip(b, bf)) < 1e-12
        bn = L.bracket(np.array(x, dtype=float), np.array(y, dtype=float))
        assert bn == bf and all(type(v) is float for v in bn)
        assert all(type(v) is float for v in L.bracket([0.0] * 7, [0.0] * 7))
        with pytest.raises(TypeError):
            L.bracket([Fraction(1)] + [0.5] * 6, y)


def test_d_squared_zero_on_random_two_step():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        assert L.d_squared_is_zero()
        assert L.is_two_step()


def test_three_step_detected():
    L = LieAlgebra.from_structure(
        "threestep", [None, None, None, {(1, 2): 1}, {(1, 4): 1}, None, None])
    assert not L.is_two_step()
    assert L.d_squared_is_zero()  # still a Lie algebra


def test_not_a_lie_algebra_detected():
    # d e^5 = f^14 with d e^4 = f^12 breaks d^2 = 0 only at 3 steps deep;
    # an honest non-Jacobi example: d e^6 = f^45 with e^4, e^5 as above
    L = LieAlgebra.from_structure(
        "bad", [None, None, None, {(1, 2): 1}, {(1, 3): 1}, {(4, 5): 1}, None])
    assert not L.d_squared_is_zero()


def test_ce_diff_leibniz():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        L = rand_two_step(rng)
        k = rng.randint(1, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, rng.randint(1, 3))
        lhs = L.ce_diff(a.wedge(b))
        rhs = L.ce_diff(a).wedge(b) + a.wedge(L.ce_diff(b)) * ((-1) ** k)
        assert lhs == rhs


def test_ce_diff_squares_to_zero_on_forms():
    rng = random.Random(SEED + 3)
    for _ in range(50):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        a = rand_form(rng, 7, rng.randint(1, 4))
        assert not L.ce_diff(L.ce_diff(a))


def _koszul(L, form):
    """d form by the Koszul formula on basis vectors, independent of ce_diff:
    (d a)(f_x0, ..., f_xk) = sum_{i<j} (-1)^(i+j) a([f_xi, f_xj], f_x0, ..^i..^j.., f_xk),
    as {sorted (k+1)-tuple: coefficient}."""
    out = {}
    for xs in combinations(range(1, L.dim + 1), form.degree + 1):
        total = Fraction(0)
        for i, j in combinations(range(len(xs)), 2):
            rest = tuple(x for p, x in enumerate(xs) if p not in (i, j))
            w = L.bracket_basis(xs[i], xs[j])
            total += (-1) ** (i + j) * sum(wl * form.coeff((l, *rest))
                                           for l, wl in enumerate(w, 1) if wl)
        out[xs] = total
    return out


def test_ce_diff_matches_the_koszul_formula():
    """ce_diff against the invariant formula on random algebras (structure
    constants with denominators too) and the catalog, for forms of every degree
    with non-integer coefficients; the float differential of the rounded form
    agrees with the rounded exact one."""
    rng = random.Random(SEED + 7)
    algebras = [catalog.get(name).algebra for name in catalog.names()]
    for _ in range(8):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        algebras.append(LieAlgebra("scaled", [f * rand_frac(rng, 1, 2, 4) for f in L.d_forms]))
    for L in algebras:
        for degree in range(7):
            form = rand_form(rng, 7, degree, nterms=rng.randint(1, 6))
            form = form * Fraction(1, rng.choice([2, 3, 5, 7]))
            d = L.ce_diff(form)
            assert d.degree == degree + 1
            for idx, c in _koszul(L, form).items():
                assert d.coeff(idx) == c, (L.name, form, idx)
            df = L.ce_diff(form.to_float())
            assert df.mode is Mode.FLOAT
            gap = (df - d.to_float()).max_abs()
            assert gap <= 1e-15 * max(d.max_abs(), form.max_abs()), (L.name, form, gap)


def test_derived_and_center_bases():
    derived = H5_R2.derived_basis()
    assert len(derived) == 1 and derived[0][6] != 0
    center = H5_R2.center_basis()
    assert len(center) == 3  # f5, f6, f7


def test_algebra_invariants_are_immutable_and_stable():
    rng = random.Random(SEED + 11)
    for _ in range(10):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        derived, center = L.derived_basis(), L.center_basis()
        assert isinstance(derived, tuple) and isinstance(center, tuple)
        assert all(isinstance(v, tuple) for v in derived + center)
        assert L.is_two_step() is True
        assert L.derived_basis() == derived and L.center_basis() == center
        assert L.is_two_step() is True
        # a fresh copy of the same algebra computes the same invariants
        M = LieAlgebra.from_json(L.to_json())
        assert M.derived_basis() == derived and M.center_basis() == center


def test_bracket_basis_table_is_antisymmetric():
    rng = random.Random(SEED + 12)
    L = rand_two_step(rng, derived=3)
    for a in range(1, 8):
        assert not any(L.bracket_basis(a, a))
        for b in range(1, 8):
            assert L.bracket_basis(b, a) == tuple(-x for x in L.bracket_basis(a, b))


# exact entries with plenty of zeros, as in basis vectors and sparse metrics
_EXACT = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
_FLOAT = st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3,
                                           allow_nan=False, allow_infinity=False))


def _symmetric(entries, n=7):
    """Symmetric n x n matrix from the n(n+1)/2 upper-triangle entries."""
    rows = [[None] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


def _inner_cases(scalar):
    return st.tuples(st.lists(scalar, min_size=28, max_size=28).map(_symmetric),
                     st.lists(scalar, min_size=7, max_size=7),
                     st.lists(scalar, min_size=7, max_size=7))


@settings(max_examples=100, deadline=None)
@given(_inner_cases(_EXACT), st.booleans())
def test_inner_exact_equals_dense_sum(case, diagonal):
    rows, x, y = case
    if diagonal:
        rows = [[rows[i][j] if i == j else Fraction(0) for j in range(7)] for i in range(7)]
    g = Metric(rows)
    got = g.inner(x, y)
    assert type(got) is Fraction
    assert got == sum((x[i] * rows[i][j] * y[j] for i in range(7) for j in range(7)),
                      Fraction(0))


@settings(max_examples=100, deadline=None)
@given(_inner_cases(_FLOAT))
def test_inner_float_equals_dense_sum(case):
    rows, x, y = case
    g = Metric(rows, Mode.FLOAT)
    got = g.inner(x, y)
    assert type(got) is float
    # the same association as the implementation, so skipping zeros is exact
    assert got == sum(sum(gij * xj for gij, xj in zip(row, x)) * yi
                      for row, yi in zip(rows, y))
    # rational vectors against a float metric still give a float
    assert type(g.inner([Fraction(1)] * 7, [Fraction(1, 2)] * 7)) is float


def test_jz_is_g_skew():
    rng = random.Random(SEED + 4)
    basis = [tuple(Fraction(int(i == j)) for j in range(7)) for i in range(7)]
    for _ in range(30):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        g = rand_spd(rng, 7)
        z = [rand_frac(rng) for _ in range(7)]
        J = jz_matrix(L, g, z, basis)
        GJ = [[sum(g.rows[i][k] * J[k][j] for k in range(7)) for j in range(7)]
              for i in range(7)]
        for i in range(7):
            for j in range(7):
                assert GJ[i][j] == -GJ[j][i]


def test_jz_exact_matches_float():
    rng = random.Random(SEED + 5)
    basis = [tuple(Fraction(int(i == j)) for j in range(7)) for i in range(7)]
    for _ in range(10):
        L = rand_two_step(rng)
        g = rand_spd(rng, 7)
        z = [rand_frac(rng) for _ in range(7)]
        J = jz_matrix(L, g, z, basis)
        Jf = jz_matrix(L, g.to_float(), [float(v) for v in z],
                       [[float(x) for x in b] for b in basis])
        assert max(abs(float(J[i][j]) - Jf[i][j]) for i in range(7)
                   for j in range(7)) < 1e-9


def generic_ricci(L, g):
    """Ricci tensor of any nilpotent Lie group, as a bilinear-form matrix: with
    an orthonormal frame {u_i},
      Ric(x,y) = -1/2 sum_i g([x,u_i],[y,u_i])
                 + 1/4 sum_{i,j} g([u_i,u_j],x) g([u_i,u_j],y).
    The frame comes from normalization-free Gram-Schmidt, so an exact metric
    gives an exact tensor (each u_i enters quadratically). The oracle for
    the basis-e formula of `ricci_operator`."""
    n = L.dim
    basis = [g.as_vector(int(i == k) for i in range(n)) for k in range(n)]
    ortho, q = gram_schmidt_sq(basis, g.inner)
    bx = [[L.bracket(basis[a], ortho[i]) for i in range(n)] for a in range(n)]
    bij = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = L.bracket(ortho[i], ortho[j])
            if any(w):
                bij[(i, j)] = w
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            t1 = sum(g.inner(bx[a][i], bx[b][i]) / q[i] for i in range(n))
            t2 = sum(g.inner(w, basis[a]) * g.inner(w, basis[b]) / (q[i] * q[j])
                     for (i, j), w in bij.items())
            # the sum over i < j counts each unordered pair once: 1/4 * 2 = 1/2
            row.append((t2 - t1) / 2)
        rows.append(tuple(row))
    return tuple(rows)


def test_ricci_operator_matches_generic_sum():
    rng = random.Random(SEED + 8)
    for t in range(42):
        L = rand_two_step(rng, derived=1 + t % 3)
        g = rand_spd(rng, 7)
        oracle = mat_mul(mat_inv(g.rows), generic_ricci(L, g))
        assert ricci_operator(L, g) == oracle
        rf = ricci_operator(L, g.to_float())
        assert max(abs(float(oracle[i][j]) - rf[i][j]) for i in range(7)
                   for j in range(7)) < 1e-9


def test_ricci_operator_rejects_three_step_algebra():
    L = LieAlgebra.from_structure(
        "threestep", [None, None, {(1, 2): 1}, {(1, 3): 1}, None, None, None])
    assert L.d_squared_is_zero() and not L.is_two_step()
    for g in (Metric.identity(7), Metric.identity(7, Mode.FLOAT)):
        with pytest.raises(UnsupportedAlgebraError):
            ricci_operator(L, g)
        with pytest.raises(UnsupportedAlgebraError):
            is_nilsoliton(L, g)


def test_heisenberg_ricci_pinned():
    # on the identity metric the Ricci operator and the Ricci tensor agree
    ric = ricci_operator(H3_R4, Metric.identity(7))
    diag = [ric[i][i] for i in range(7)]
    assert diag == [Fraction(-1, 2), Fraction(-1, 2), 0, 0, 0, 0, Fraction(1, 2)]
    assert all(ric[i][j] == 0 for i in range(7) for j in range(7) if i != j)


def test_scalar_curvature_cross_route():
    # tr(Ric#) must equal -(1/4) sum_{i,j} |[f_i, f_j]|^2 in an orthonormal basis
    rng = random.Random(SEED + 6)
    for _ in range(15):
        L = rand_two_step(rng, derived=rng.randint(1, 3))
        rc = ricci_operator(L, Metric.identity(7))
        scal = sum(rc[i][i] for i in range(7))
        total = Fraction(0)
        for i in range(1, 8):
            for j in range(1, 8):
                b = L.bracket_basis(i, j)
                total += sum(x * x for x in b)
        assert scal == -total / 4


def test_ricci_float_agrees_with_exact():
    rng = random.Random(SEED + 7)
    for _ in range(10):
        L = rand_two_step(rng)
        g = rand_spd(rng, 7)
        re_ = ricci_operator(L, g)
        rf = ricci_operator(L, g.to_float())
        assert max(abs(float(re_[i][j]) - rf[i][j]) for i in range(7)
                   for j in range(7)) < 1e-9


def test_nilsoliton_pins():
    assert is_nilsoliton(H3_R4, Metric.identity(7)).soliton_constant == Fraction(-3, 2)
    assert is_nilsoliton(H5_R2, Metric.identity(7)).soliton_constant == Fraction(-2)
    assert is_nilsoliton(H7, Metric.identity(7)).soliton_constant == Fraction(-5, 2)
    for rep in (is_nilsoliton(H3_R4, Metric.identity(7)),
                is_nilsoliton(H7, Metric.identity(7))):
        assert rep.is_nilsoliton
        assert rep.residual == 0


def test_non_nilsoliton_metric_rejected():
    g = Metric.diagonal([2, 1, 1, 1, 1, 1, 1])
    rep = is_nilsoliton(H5_R2, g)
    assert not rep.is_nilsoliton
    assert rep.residual > 0  # c = tr(Rc^2) / tr(Rc) is reported, Rc - c id is no derivation


def _oracle_nilsoliton(L, g):
    """(c, residual) from `generic_ricci`: c = tr(Rc^2) / tr(Rc) and the
    derivation defect of N = tr(Rc) Rc - tr(Rc^2) id over max |N| max |c^k_ab|."""
    rc = mat_mul(mat_inv(g.rows), generic_ricci(L, g))
    tr1 = sum(rc[i][i] for i in range(7))
    tr2 = sum(rc[i][j] * rc[j][i] for i in range(7) for j in range(7))
    N = [[tr1 * x - tr2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rc)]
    def mat_vec(a, v):
        return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)

    units = [tuple(Fraction(int(i == k)) for i in range(7)) for k in range(7)]
    pairs = list(combinations(units, 2))
    defect = max(abs(u - v - w) for x, y in pairs for u, v, w in zip(
        mat_vec(N, L.bracket(x, y)), L.bracket(mat_vec(N, x), y), L.bracket(x, mat_vec(N, y))))
    constants = max(abs(c) for x, y in pairs for c in L.bracket(x, y))
    return tr2 / tr1, defect / (max(abs(x) for row in N for x in row) * constants)


def test_exact_nilsoliton_residual_matches_float():
    g = Metric.diagonal(range(1, 8))
    exact, floated = is_nilsoliton(H7, g), is_nilsoliton(H7, g.to_float())
    assert not exact.is_nilsoliton and not floated.is_nilsoliton
    c, residual = _oracle_nilsoliton(H7, g)
    assert exact.soliton_constant == c
    assert exact.residual == float(residual)
    assert abs(exact.residual - floated.residual) <= 1e-12 * floated.residual


@pytest.mark.parametrize("derived", [1, 2, 3])
def test_nilsoliton_defect_matches_the_oracle_on_random_algebras(derived):
    # dense rational metrics on random 2-step algebras with dim n' = 1, 2, 3:
    # the defect summed from the bracket table against `_oracle_nilsoliton`
    rng = random.Random(SEED + 10 + derived)
    for _ in range(4):
        L = rand_two_step(rng, derived=derived)
        g = rand_spd(rng, 7)
        c, residual = _oracle_nilsoliton(L, g)
        exact, floated = is_nilsoliton(L, g), is_nilsoliton(L, g.to_float())
        assert exact.soliton_constant == c
        assert exact.residual == float(residual)
        assert floated.is_nilsoliton == exact.is_nilsoliton
        assert abs(floated.soliton_constant - c) <= 1e-12 * abs(c)


def test_nilsoliton_float_residual_is_scale_free():
    # float mode judges the defect against max |N| max |C|, not an absolute 1,
    # so a homothety leaves the residual and the verdict alone
    exact = is_nilsoliton(H7, Metric.diagonal(range(1, 8))).residual
    for lam in (10**8, 10**10, 10**12):
        rep = is_nilsoliton(H7, Metric.diagonal([float(lam * i) for i in range(1, 8)]))
        assert not rep.is_nilsoliton
        assert abs(rep.residual - exact) <= 1e-12 * exact


def test_nilsoliton_survives_automorphism_and_homothety():
    # g(A x, A y) for an automorphism A is isometric to g, and lam g has
    # Rc / lam: still a nilsoliton, with constant c / lam, in both modes
    rng = random.Random(SEED + 9)
    checked = 0
    for entry in map(catalog.get, catalog.names()):
        if entry.nilsoliton_diag is None:
            continue
        L, c = entry.algebra, entry.nilsoliton_constant
        g = _pull_back(entry.nilsoliton_metric, _automorphism(entry.structure, rng))
        for lam in (Fraction(1, 10**8), Fraction(1, 2), Fraction(3, 2), 10**8):
            h = Metric([[lam * x for x in row] for row in g.rows])
            exact, floated = is_nilsoliton(L, h), is_nilsoliton(L, h.to_float())
            assert exact.is_nilsoliton and exact.soliton_constant == c / lam, (entry.name, lam)
            assert floated.is_nilsoliton, (entry.name, lam, floated.residual)
            assert abs(floated.soliton_constant - c / lam) <= 1e-12 * abs(c / lam)
            checked += 1
    assert checked == 56


def test_nilsoliton_float_mode():
    rep = is_nilsoliton(H7, Metric.identity(7).to_float())
    assert rep.is_nilsoliton
    assert abs(float(rep.soliton_constant) + 2.5) < 1e-9


def test_center_and_derived_bases_read_the_bracket_table():
    # the bases read off the bracket table equal those built from the
    # bracket_basis vectors, entry for entry and type for type
    for entry in map(catalog.get, catalog.names()):
        L = LieAlgebra.from_structure(entry.name, entry.structure)
        n = range(1, L.dim + 1)
        words = [L.bracket_basis(i, j) for i, j in combinations(n, 2)]
        derived = tuple(row_space_basis(tuple(w for w in words if any(w))))
        rows = [tuple(L.bracket_basis(a, b)[k] for a in n) for b in n for k in range(L.dim)]
        center = tuple(nullspace(tuple(r for r in rows if any(r))))
        for got, want in ((L.derived_basis(), derived), (L.center_basis(), center)):
            assert got == want, entry.name
            assert all(type(x) is Fraction for v in got for x in v), entry.name


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric([[1, 2], [3, 4]])  # not symmetric
    g = Metric.diagonal([1, 2, 3])
    assert g.inner((1, 0, 0), (1, 0, 0)) == 1
    assert g.norm_sq((0, 1, 0)) == 2
    assert g.is_positive_definite()
    assert not Metric.diagonal([1, -1, 1]).is_positive_definite()
    assert Metric.from_json(g.to_json()).rows == g.rows
