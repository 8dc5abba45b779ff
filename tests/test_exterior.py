"""Exterior-algebra core: wedge, interior product, metric pairings, Hodge star."""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil.exterior import (
    DegenerateError,
    KForm,
    MetricContext,
    Mode,
    ModeMismatchError,
    ToleranceError,
    close,
    form_inner,
    hodge,
    resolve_tolerance,
    top_wedge_coeff,
    volume_form,
)
from g2nil._linalg import MinorTable, mat_det, mat_inv_det, rational_root
from g2nil.liealg import Metric

SEED = 20260818


def rand_frac(rng, lo=-3, hi=3, den=4):
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_form(rng, dim, degree, nterms=4, mode=Mode.EXACT):
    monos = [*combinations(range(1, dim + 1), degree)]
    terms = {}
    for mono in rng.sample(monos, min(nterms, len(monos))):
        c = rand_frac(rng)
        if c:
            terms[mono] = c if mode is Mode.EXACT else float(c)
    return KForm.from_terms(dim, degree, terms, mode)


def rand_spd(rng, dim):
    a = [[rand_frac(rng) for _ in range(dim)] for _ in range(dim)]
    g = [[sum(a[k][i] * a[k][j] for k in range(dim)) + (1 if i == j else 0)
          for j in range(dim)] for i in range(dim)]
    return g


def rand_spd_square(rng, dim):
    # g = A^T A with A invertible: det(g) = det(A)^2, so sqrt(det g) is rational
    while True:
        a = [[rand_frac(rng) for _ in range(dim)] for _ in range(dim)]
        det = _det(a)
        if det:
            return [[sum(a[k][i] * a[k][j] for k in range(dim))
                     for j in range(dim)] for i in range(dim)]


def _det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            for j in range(c, n):
                m[r][j] -= f * m[c][j]
    return det


def basis_one_forms(dim, mode=Mode.EXACT):
    one = Fraction(1) if mode is Mode.EXACT else 1.0
    return [KForm.from_terms(dim, 1, {(i,): one}, mode) for i in range(1, dim + 1)]


def test_from_terms_normalizes_monomials():
    # unsorted index tuples pick up the permutation sign
    a = KForm.from_terms(7, 2, {(3, 1): Fraction(2)})
    b = KForm.from_terms(7, 2, {(1, 3): Fraction(-2)})
    assert a == b
    assert not KForm.from_terms(7, 2, {(1, 1): Fraction(1)})  # e^11 alternates to 0
    with pytest.raises(ValueError):
        KForm.from_terms(7, 2, {(0, 1): Fraction(1)})  # out of range


def test_addition_and_scaling():
    rng = random.Random(SEED)
    for _ in range(50):
        k = rng.randint(0, 4)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, k)
        c = rand_frac(rng)
        assert (a + b) - b == a
        assert a * c == c * a
        assert (a + a) == a * 2
        assert not (a - a)


def test_wedge_graded_anticommutativity():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        k = rng.randint(0, 3)
        l = rng.randint(0, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, l)
        lhs = a.wedge(b)
        rhs = b.wedge(a) * ((-1) ** (k * l))
        assert lhs == rhs


def test_wedge_associativity_and_variadic():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        a = rand_form(rng, 7, rng.randint(1, 2))
        b = rand_form(rng, 7, rng.randint(1, 2))
        c = rand_form(rng, 7, rng.randint(1, 2))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    # a product of many factors: e^1 ∧ ... ∧ e^7 in increasing order has sign +1
    e = basis_one_forms(7)
    assert functools.reduce(KForm.wedge, e) == KForm.basis(7, tuple(range(1, 8)))


def test_wedge_of_dependent_one_forms_vanishes():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        a = rand_form(rng, 7, 1)
        s = rand_frac(rng)
        assert not a.wedge(a * s)


def test_interior_is_an_antiderivation():
    rng = random.Random(SEED + 4)
    for _ in range(80):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, l)
        x = tuple(rand_frac(rng) for _ in range(7))
        lhs = a.wedge(b).interior(x)
        rhs = a.interior(x).wedge(b) + a.wedge(b.interior(x)) * ((-1) ** k)
        assert lhs == rhs
        assert not a.wedge(b).interior(x).interior(x)  # i_X i_X = 0


def test_interior_on_basis():
    e = basis_one_forms(7)
    x = tuple(Fraction(int(i == 2)) for i in range(7))  # x = f_3
    e13 = e[0].wedge(e[2])
    assert e13.interior(x) == -e[0]
    assert not e[1].interior(x)


def test_top_wedge_coeff():
    e = basis_one_forms(7)
    a = e[0].wedge(e[1]).wedge(e[2])
    b = e[3].wedge(e[4]).wedge(e[5]).wedge(e[6])
    assert top_wedge_coeff(a, b) == 1
    assert top_wedge_coeff(b, a) == 1
    assert top_wedge_coeff(a, a.wedge(e[3])) == 0


def test_form_inner_identity_metric():
    g = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    e = basis_one_forms(7)
    e12 = e[0].wedge(e[1])
    e13 = e[0].wedge(e[2])
    assert form_inner(e12, e12, g) == 1
    assert form_inner(e12, e13, g) == 0


def test_form_inner_symmetric_bilinear():
    rng = random.Random(SEED + 5)
    for _ in range(40):
        g = rand_spd(rng, 7)
        k = rng.randint(1, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, k)
        c = rand_form(rng, 7, k)
        s = rand_frac(rng)
        ctx = MetricContext(g, Mode.EXACT)
        assert form_inner(a, b, g, ctx) == form_inner(b, a, g, ctx)
        assert form_inner(a + c * s, b, g, ctx) == \
            form_inner(a, b, g, ctx) + s * form_inner(c, b, g, ctx)


def test_hodge_involution_identity_metric():
    g = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    rng = random.Random(SEED + 6)
    for _ in range(60):
        k = rng.randint(0, 7)
        a = rand_form(rng, 7, k)
        assert hodge(hodge(a, g), g) == a  # ** = +1 in odd dimension


def test_hodge_defining_property():
    # a ^ *b = <a, b> vol for random metrics and random pairs
    rng = random.Random(SEED + 7)
    for _ in range(40):
        g = rand_spd_square(rng, 7)
        ctx = MetricContext(g, Mode.EXACT)
        vol = volume_form(g, Mode.EXACT, ctx=ctx)
        k = rng.randint(1, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, k)
        lhs = a.wedge(hodge(b, g, ctx=ctx))
        rhs = vol * form_inner(a, b, g, ctx)
        assert lhs == rhs


def test_hodge_involution_random_metric_float():
    rng = random.Random(SEED + 8)
    for _ in range(30):
        g = [[float(x) for x in row] for row in rand_spd(rng, 7)]
        k = rng.randint(0, 7)
        a = rand_form(rng, 7, k, mode=Mode.FLOAT)
        back = hodge(hodge(a, g), g)
        assert (back - a).is_zero(1e-9, max(back.max_abs(), a.max_abs(), 1.0))


def test_volume_form_orientation_and_normalization():
    g = [[Fraction(int(i == j)) * (4 if i == 0 else 1) for j in range(7)] for i in range(7)]
    vol = volume_form(g, Mode.EXACT)
    e = basis_one_forms(7)
    top = functools.reduce(KForm.wedge, e)
    assert vol == top * 2  # sqrt(det g) = 2
    assert volume_form(g, Mode.EXACT, orientation=-1) == top * -2


def test_degenerate_metric_raises():
    g = [[Fraction(0)] * 7 for _ in range(7)]
    a = basis_one_forms(7)[0]
    with pytest.raises(DegenerateError):
        hodge(a, g)


@pytest.mark.parametrize("mode", list(Mode))
def test_indefinite_metric_raises_degenerate_error_in_both_modes(mode):
    # det g = -1 < 0: there is no real sqrt(det g) in either mode
    g = Metric.diagonal([1] * 6 + [-1], mode).rows
    a = basis_one_forms(7, mode)[0]
    with pytest.raises(DegenerateError, match="negative determinant"):
        hodge(a, g)
    with pytest.raises(DegenerateError, match="negative determinant"):
        volume_form(g, mode)


def test_mode_mismatch_raises():
    a = KForm.from_terms(7, 1, {(1,): Fraction(1)}, Mode.EXACT)
    b = KForm.from_terms(7, 1, {(2,): 1.0}, Mode.FLOAT)
    with pytest.raises(ModeMismatchError):
        a.wedge(b)
    with pytest.raises(ModeMismatchError):
        a + b


def test_exact_and_float_modes_agree():
    rng = random.Random(SEED + 9)
    for _ in range(30):
        g = rand_spd_square(rng, 7)
        k = rng.randint(1, 3)
        a = rand_form(rng, 7, k)
        b = rand_form(rng, 7, k)
        gf = [[float(x) for x in row] for row in g]
        exact = a.wedge(hodge(b, g))
        floated = a.to_float().wedge(hodge(b.to_float(), gf))
        exact = exact.to_float()
        assert (exact - floated).is_zero(1e-9, max(exact.max_abs(), floated.max_abs(), 1.0))


def test_json_round_trip():
    rng = random.Random(SEED + 10)
    for _ in range(20):
        a = rand_form(rng, 7, rng.randint(0, 4))
        assert KForm.from_json(a.to_json()) == a
        af = a.to_float()
        assert (KForm.from_json(af.to_json()) - af).is_zero(0.0)


def test_nth_root_exact():
    assert rational_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_root(Fraction(1), 9) == 1
    assert rational_root(Fraction(512), 9) == 2
    assert rational_root(Fraction(2), 3) is None


@pytest.mark.parametrize("mode", list(Mode))
def test_scalar_layer(mode):
    exact = mode is Mode.EXACT
    scalar = Fraction if exact else float
    assert type(mode.zero) is (int if exact else float) and mode.zero == 0
    # coerce: exact keeps int/Fraction as they are; float turns any real into a float
    assert mode.coerce(3) == 3 and type(mode.coerce(3)) is (int if exact else float)
    assert type(mode.coerce(Fraction(1, 2))) is scalar
    bad = (True, "1", 0.5) if exact else (True, "1")
    for c in bad:
        with pytest.raises(ModeMismatchError):
            mode.coerce(c)
    assert type(mode.convert("1/2" if exact else 0.5)) is scalar
    assert mode.div(1, 4) == Fraction(1, 4) and type(mode.div(1, 4)) is scalar
    if exact:
        assert mode.root(Fraction(-8, 27), 3) == Fraction(-2, 3)
        assert mode.root(Fraction(2), 2) is None
    else:
        assert mode.root(-512.0, 9) == -2.0
        assert mode.root(2.0, 2) == math.sqrt(2.0)
    assert mode.root(mode.convert(-4), 2) is None
    values = [mode.convert(1) / 2, mode.convert(-2) / 3, mode.convert(5)]
    nums, d = mode.cleared(values)
    assert [mode.div(x, d) for x in nums] == values
    assert (nums, d) == (([3, -4, 30], 6) if exact else (values, 1))
    assert mode.encode(mode.convert(-3) / 2) == ("-3/2" if exact else -1.5)


def _cofactor_inverse(a):
    """(adj a, det a) from the cofactor formula, every minor a Laplace expansion."""
    n = len(a)

    def minor(i, j):
        return mat_det(tuple(tuple(x for c, x in enumerate(row) if c != j)
                             for r, row in enumerate(a) if r != i))

    adj = tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n))
    return adj, mat_det(a)


def test_exact_inverse_matches_the_cofactor_formula():
    """Fraction-free Gauss-Jordan (Bareiss) gives the exact adjugate and
    determinant, through row swaps at zero pivots and for either sign of det."""
    rng = random.Random(SEED + 31)
    swaps = negative = singular = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        zeros = rng.choice([0.0, 0.3, 0.6])
        a = [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.1:
            a[-1] = [2 * x for x in a[0]]
        a = tuple(map(tuple, a))
        adj, det = _cofactor_inverse(a)
        if not det:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                Mode.EXACT.inverse(a)
            continue
        swaps += a[0][0] == 0
        negative += det < 0
        assert Mode.EXACT.inverse(a) == (adj, det, det)
    assert swaps and negative and singular
    # a zero leading pivot and a negative determinant, by hand
    assert Mode.EXACT.inverse(((0, 1), (1, 0))) == (((0, -1), (-1, 0)), -1, -1)
    assert Mode.EXACT.inverse(((0, 2, 0), (0, 0, 3), (1, 0, 0))) == (
        ((0, 0, 6), (3, 0, 0), (0, 2, 0)), 6, 6)
    with pytest.raises(ZeroDivisionError):
        Mode.EXACT.inverse(((1, 2), (2, 4)))


NONZERO = st.integers(-9, 9).filter(bool)
SPARSE = st.one_of(st.just(0), st.just(0), NONZERO)


@st.composite
def sparse_integer_matrices(draw):
    """7x7 integer matrices of the shapes a coframe's N takes, and singular ones:
    diagonal, signed permutation, block upper triangular, triangular with its
    rows rotated (zero leading pivots, so the elimination must swap rows),
    dense-ish sparse, and each of these made singular."""
    n = 7
    kind = draw(st.sampled_from(["diagonal", "permutation", "block", "rotated", "sparse"]))
    if kind == "diagonal":
        a = [[draw(NONZERO) if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == "permutation":
        perm = draw(st.permutations(range(n)))
        a = [[draw(NONZERO) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    elif kind == "block":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
        block = [sum(c <= i for c in cuts) for i in range(n)]
        a = [[draw(SPARSE) if block[i] <= block[j] else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            a[i][i] = draw(NONZERO)
    elif kind == "rotated":
        a = [[draw(NONZERO) if i == j else draw(SPARSE) if j > i else 0 for j in range(n)]
             for i in range(n)]
        shift = draw(st.integers(1, n - 1))
        a = a[shift:] + a[:shift]
    else:
        a = [[draw(SPARSE) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # singular: a zero row, a zero column or a row repeated with a factor
        how = draw(st.sampled_from(["row", "column", "multiple"]))
        i, j = draw(st.permutations(range(n)))[:2]
        if how == "row":
            a[i] = [0] * n
        elif how == "column":
            for row in a:
                row[j] = 0
        else:
            a[i] = [draw(NONZERO) * x for x in a[j]]
    return tuple(map(tuple, a))


@settings(max_examples=300, deadline=None)
@given(sparse_integer_matrices())
def test_exact_inverse_on_sparse_integer_matrices(a):
    """Exact Mode.inverse, which leaves rows with a zero multiplier alone, gives
    (det a^-1, det a, det a) against the Fraction inverse and Laplace
    determinant, with integer entries; a singular matrix raises."""
    det = mat_det(a)
    if not det:
        with pytest.raises(ZeroDivisionError):
            Mode.EXACT.inverse(a)
        return
    inv, inv_det = mat_inv_det(a)
    adj, d, got_det = Mode.EXACT.inverse(a)
    assert (d, got_det) == (det, det) == (inv_det, inv_det)
    assert adj == tuple(tuple(det * x for x in row) for row in inv)
    assert all(type(x) is int for row in adj for x in row)


def test_float_inverse_gives_the_determinant():
    """Float Mode.inverse is (a^-1, 1, det a), det a the signed product of the
    elimination's pivots: the Laplace determinant to rounding, row swaps and
    sign included."""
    rng = random.Random(SEED + 37)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = tuple(tuple(rng.choice([0.0, rng.uniform(-3.0, 3.0)]) for _ in range(n))
                  for _ in range(n))
        ref = mat_det(a)
        if not ref:
            continue
        inv, d, det = Mode.FLOAT.inverse(a)
        assert d == 1
        assert np.allclose(np.array(inv) @ np.array(a), np.eye(n), atol=1e-9)
        # Hadamard's bound on |det a| sets the scale of the rounding
        bound = math.prod(math.hypot(*row) for row in a)
        assert abs(det - ref) <= 1e-12 * bound
    _inv, _d, det = Mode.FLOAT.inverse(((0.0, 2.0, 0.0), (0.0, 0.0, 3.0), (1.0, 0.0, 0.0)))
    assert det == 6.0
    assert Mode.FLOAT.inverse(((0.0, 1.0), (1.0, 0.0)))[2] == -1.0


def test_close_is_relative():
    assert close(1e12, 1e12 + 1.0, 1e-9)
    assert not close(1.0, 2.0, 1e-9)
    assert close(0.0, 0.0, 0.0)


# -- the verdict rule: Mode.equal for scalars, KForm.is_zero for forms ---------


def test_exact_verdicts_never_read_a_tolerance(monkeypatch):
    tiny = Fraction(1, 10 ** 400)
    assert float(tiny) == 0.0
    form = KForm.from_terms(7, 2, {(1, 2): tiny})
    # an unusable environment tolerance would raise if exact mode read it
    monkeypatch.setenv("G2NIL_TOLERANCE", "nan")
    assert not form.is_zero(1.0, 1e300)
    assert not Mode.EXACT.equal(tiny, 0, 1.0, 1e300)
    assert Mode.EXACT.equal(tiny, Fraction(2, 2 * 10 ** 400))
    assert KForm.zero(7, 2).is_zero()
    assert (form - form).is_zero()
    assert Mode.FLOAT.equal(float(tiny), 0.0, 0.0)


def test_float_is_zero_respects_scale():
    form = KForm.from_terms(7, 1, {(1,): 1e-6, (3,): -5e-7}, Mode.FLOAT)
    assert not form.is_zero(1e-9)
    assert not form.is_zero(1e-9, scale=500.0)
    assert form.is_zero(1e-9, scale=2000.0)
    assert KForm.zero(7, 1, Mode.FLOAT).is_zero(0.0)
    # Mode.equal takes the same scale; without one it is `close`'s 1 + |lhs| + |rhs|
    assert Mode.FLOAT.equal(1.0, 1.0 + 1e-6, 1e-9, scale=2000.0)
    assert not Mode.FLOAT.equal(1.0, 1.0 + 1e-6, 1e-9)


@pytest.mark.parametrize("bad", [-1, math.nan, math.inf])
def test_explicit_tolerance_is_validated(bad):
    with pytest.raises(ToleranceError):
        resolve_tolerance(bad)
    with pytest.raises(ToleranceError):
        KForm.from_terms(7, 1, {(1,): 1.0}, Mode.FLOAT).is_zero(bad)


def test_zero_tolerance_is_valid():
    assert resolve_tolerance(0) == 0.0
    assert Mode.FLOAT.equal(144.0, 144.0, 0)
    assert not Mode.FLOAT.equal(144.0, 144.0 + 1e-12, 0)


# -- the minor table against an oracle written here ---------------------------
# `hodge` and `form_inner` both read the context's minor table, so the
# defining-property test above cannot catch a wrong table. These tests check
# the table against Gauss-Jordan inverses and determinants computed in this
# file, and against numpy.


def _gauss_jordan_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
NONZERO_FRACTIONS = SMALL_FRACTIONS.filter(bool)


@st.composite
def upper_triangular(draw, diagonal=NONZERO_FRACTIONS):
    """An upper-triangular 7x7 rational matrix; invertible for a nonzero diagonal."""
    return [[draw(diagonal) if i == j else draw(SMALL_FRACTIONS) if j > i else Fraction(0)
             for j in range(7)] for i in range(7)]


def _congruence(a, signs=(1,) * 7):
    """A^T diag(signs) A; non-diagonal unless A's columns are orthogonal."""
    return [[sum(signs[k] * a[k][i] * a[k][j] for k in range(7)) for j in range(7)]
            for i in range(7)]


def _is_diagonal(g):
    return all(g[i][j] == 0 for i in range(7) for j in range(7) if i != j)


def _index_sets(k):
    return st.lists(st.integers(1, 7), min_size=k, max_size=k, unique=True).map(
        lambda idx: tuple(sorted(idx)))


@settings(max_examples=40, deadline=None)
@given(upper_triangular(), st.data())
def test_gram_minor_and_hodge_match_an_independent_oracle(a, data):
    g = _congruence(a)  # SPD, and det g = det(a)^2 has a rational square root
    if _is_diagonal(g):
        return
    gf = [[float(x) for x in row] for row in g]
    inv = _gauss_jordan_inverse(g)
    inv_f = np.linalg.inv(np.array(gf))
    exact, floated = MetricContext(g, Mode.EXACT), MetricContext(gf, Mode.FLOAT)
    # 1e-10 up to condition number 1e4, then in proportion: roundoff in any
    # float inversion grows with cond(g), which reaches 1e7 for these draws
    tol = 1e-10 * max(1.0, np.linalg.cond(np.array(gf)) / 1e4)
    for k in range(8):
        rows_, cols = data.draw(_index_sets(k)), data.draw(_index_sets(k))
        assert exact.gram_minor(rows_, cols) == _det(
            [[inv[i - 1][j - 1] for j in cols] for i in rows_])
        ref = np.linalg.det(inv_f[np.ix_([i - 1 for i in rows_], [j - 1 for j in cols])])
        got = floated.gram_minor(rows_, cols)
        assert type(got) is float
        # relative to the size of a k-minor of g^{-1}, as a cancelling minor can be ~0
        assert abs(got - ref) <= tol * max(abs(ref), np.max(np.abs(inv_f)) ** k)
        form = KForm.from_terms(7, k, {idx: data.draw(SMALL_FRACTIONS)
                                       for idx in data.draw(st.lists(_index_sets(k)))})
        star = hodge(form, g, ctx=exact).to_float()
        got_star = hodge(form.to_float(), gf, ctx=floated)
        assert (got_star - star).is_zero(tol, max(got_star.max_abs(), star.max_abs(), 1.0))


@settings(max_examples=40, deadline=None)
@given(upper_triangular(), st.integers(0, 6), upper_triangular(SMALL_FRACTIONS))
def test_is_positive_definite_on_spd_indefinite_and_singular_metrics(a, neg, b):
    spd = _congruence(a)
    indefinite = _congruence(a, tuple(-1 if i == neg else 1 for i in range(7)))
    singular = _congruence(b)  # A^T A is singular when b has a zero on its diagonal
    if not _is_diagonal(spd):
        assert Metric(spd).is_positive_definite()
        assert not Metric(indefinite).is_positive_definite()
    if not _is_diagonal(singular):
        assert Metric(singular).is_positive_definite() == all(b[i][i] for i in range(7))


def test_is_positive_definite_with_a_zero_leading_entry():
    # g[0][0] = 0: expanding det D along row 0 skips column 0, so the trailing
    # principal minors come from the table on demand, not from the expansion
    shear = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    shear[2][3] = shear[3][2] = Fraction(1, 2)
    nonsingular = [row[:] for row in shear]
    nonsingular[0][0], nonsingular[0][1], nonsingular[1][0] = 0, 1, 1
    singular = [row[:] for row in shear]
    singular[0][0] = 0
    for rows in (nonsingular, singular):
        for g in (Metric(rows), Metric(rows).to_float()):
            assert not g.is_positive_definite()
    assert Metric(shear).is_positive_definite()


def _sylvester_by_minor_table(rows):
    """The test `Metric.is_positive_definite` ran before it eliminated: every
    trailing principal minor of the exact matrix (floats read exactly) > 0,
    from one Laplace `MinorTable`."""
    a = [[Fraction(x) for x in row] for row in rows]
    minor, full = MinorTable(a), (1 << len(a)) - 1
    return all(minor(m, m) > 0 for m in (full >> k << k for k in range(len(a))))


@settings(max_examples=60, deadline=None)
@given(upper_triangular(), st.integers(0, 6), st.integers(0, 5),
       st.sampled_from([1e-10, 1e-4, 1.0, 1e4, 1e10]))
def test_is_positive_definite_agrees_with_eigenvalues_and_the_minor_table(a, neg, j, lam):
    """SPD, indefinite, singular and zero-leading-entry metrics, exact and as
    floats scaled by lam. The singular one has two equal rows (column j + 1 of
    its factor repeats column j), which stay bitwise equal in float mode, so
    its elimination meets an exact zero at any scale."""
    twin = [row[:j + 1] + [row[j]] + row[j + 2:] for row in a]
    zero_lead = _congruence(a)
    zero_lead[0][0] = 0
    signs = tuple(-1 if i == neg else 1 for i in range(7))
    cases = [(_congruence(a), True), (_congruence(a, signs), False),
             (_congruence(twin), False), (zero_lead, False)]
    for rows, want in cases:
        assert _sylvester_by_minor_table(rows) == want
        assert Metric(rows).is_positive_definite() == want
        gf = [[lam * float(x) for x in row] for row in rows]
        got = Metric(gf).is_positive_definite()
        assert got == _sylvester_by_minor_table(gf) == want
        eig = np.linalg.eigvalsh(np.array(gf))
        if abs(eig.min()) > 1e-9 * abs(eig).max():  # a sign that roundoff cannot flip
            assert got == (eig.min() > 0)


@pytest.mark.parametrize("mode", list(Mode))
def test_leading_minors_come_from_one_elimination(mode):
    a = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert list(mode.leading_minors([[mode.convert(x) for x in row] for row in a])) == [2, 3, 4]
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    zero_first = mode.leading_minors([[mode.convert(x) for x in row] for row in swap])
    assert next(zero_first) == 0
    assert next(zero_first) == -1  # det of the leading 2x2 block, read after the zero
    with pytest.raises(ZeroDivisionError):
        next(zero_first)


# `MetricContext` in float mode reads g's minor table with D = g, so its
# accuracy falls with cond(g) faster than the oracle test above allows. All
# upper-triangular a below (g = a^T a) were found by that test. For the first
# (cond 9.8e4) the float G[1, 1] misses the exact one by 2.1 times its
# allowance; for the other three (cond 5.0e3, 6.5e3 and 1.6e3, under the
# test's 1e4 knee, so the allowance is the flat 1e-10) G[2, 2] misses by 3.1
# times and G[3, 3] by 2.1 and 1.45 times.
_ILL_CONDITIONED = [
    [1, -3, 2, -1, Fraction(-1, 3), 3, Fraction(-2, 3)],
    [0, Fraction(2, 3), 1, 3, 1, 0, 0],
    [0, 0, -1, -2, -3, 1, Fraction(2, 3)],
    [0, 0, 0, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2), 3],
    [0, 0, 0, 0, -1, 1, 1],
    [0, 0, 0, 0, 0, Fraction(1, 3), -1],
    [0, 0, 0, 0, 0, 0, Fraction(-2, 3)],
]
_MODERATELY_CONDITIONED = [
    [1, 0, 0, 0, 0, 0, 3],
    [0, 2, -1, 3, 2, 0, 0],
    [0, 0, 1, 0, 0, 2, 0],
    [0, 0, 0, Fraction(1, 3), 0, 1, 1],
    [0, 0, 0, 0, Fraction(-1, 3), 0, 1],
    [0, 0, 0, 0, 0, Fraction(1, 3), 0],
    [0, 0, 0, 0, 0, 0, 1],
]
_SHEARED_HALVES = [
    [1, 1, 0, 2, 0, 0, 0],
    [0, 1, 0, 0, 0, 2, 0],
    [0, 0, -2, 0, 3, 0, 0],
    [0, 0, 0, Fraction(1, 2), 0, 0, 0],
    [0, 0, 0, 0, Fraction(1, 2), 0, 2],
    [0, 0, 0, 0, 0, Fraction(1, 3), 0],
    [0, 0, 0, 0, 0, 0, Fraction(1, 3)],
]
_SHEARED_THIRDS = [
    [1, 0, 0, 3, 0, 0, 0],
    [0, 1, 0, 0, 0, 2, 0],
    [0, 0, 3, 0, 3, 0, 0],
    [0, 0, 0, Fraction(1, 2), 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 2],
    [0, 0, 0, 0, 0, Fraction(1, 3), 0],
    [0, 0, 0, 0, 0, 0, Fraction(1, 3)],
]


@pytest.mark.xfail(strict=True, reason="float minor table misses by more than the oracle test allows")
@pytest.mark.parametrize("a, i", [(_ILL_CONDITIONED, 1), (_MODERATELY_CONDITIONED, 2),
                                  (_SHEARED_HALVES, 3), (_SHEARED_THIRDS, 3)],
                         ids=["cond9.8e4", "cond5.0e3", "cond6.5e3", "cond1.6e3"])
def test_float_gram_minor_on_an_ill_conditioned_metric(a, i):
    g = _congruence([[Fraction(x) for x in row] for row in a])
    gf = [[float(x) for x in row] for row in g]
    tol = 1e-10 * max(1.0, np.linalg.cond(np.array(gf)) / 1e4)
    ref = float(MetricContext(g, Mode.EXACT).gram_minor((i,), (i,)))
    got = MetricContext(gf, Mode.FLOAT).gram_minor((i,), (i,))
    inv_max = np.max(np.abs(np.linalg.inv(np.array(gf))))
    assert abs(got - ref) <= tol * max(abs(ref), inv_max)
