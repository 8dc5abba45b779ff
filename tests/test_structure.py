"""Existence criteria for (purely) coclosed structures: metric decomposition,
the three cases by derived dimension, self-dual Gram matrices, M-matrices and
the orthogonal symmetrization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil import catalog
from g2nil._linalg import gram_schmidt_sq, mat_inv, mat_mul, rref, transpose
from g2nil.exterior import (DegenerateError, ExactnessError, KForm, ToleranceError,
                            form_inner)
from g2nil.g2su3 import G2Structure, torsion_class
from g2nil.liealg import LieAlgebra, Metric
from g2nil.structure import (
    UnsupportedAlgebraError,
    _beta_coords,
    _public_scale,
    case1_exists,
    coclosed_always,
    coclosed_exists,
    decompose,
    m_matrix,
    purely_coclosed_exists,
    sd_basis_forms,
    sd_gram,
    selfdual_exists,
    symmetrize_M,
)

SEED = 13579

H7 = LieAlgebra.from_structure("h7", [None] * 6 + [{(1, 2): 1, (3, 4): 1, (5, 6): 1}])
H3_R4 = LieAlgebra.from_structure("h3_R4", [None] * 6 + [{(1, 2): 1}])
H3C_R = LieAlgebra.from_structure(
    "h3C_R", [None] * 4 + [{(1, 3): 1, (2, 4): -1}, {(1, 4): 1, (2, 3): 1}, None])
N7_2_A = LieAlgebra.from_structure(
    "n7_2_A", [None] * 5 + [{(1, 2): 1}, {(1, 4): 1, (3, 5): 1}])
N6_3_R = LieAlgebra.from_structure(
    "n6_3_R", [None] * 4 + [{(1, 2): 1}, {(1, 3): 1}, {(2, 3): 1}])
N7_3_B = LieAlgebra.from_structure(
    "n7_3_B", [None] * 4 + [{(1, 2): 1}, {(2, 3): 1}, {(3, 4): 1}])
N7_3_D = LieAlgebra.from_structure(
    "n7_3_D", [None] * 4 + [{(1, 2): 1, (3, 4): 1}, {(1, 3): 1}, {(2, 4): 1}])
N7_3_D1 = LieAlgebra.from_structure(
    "n7_3_D1", [None] * 4 + [{(1, 2): 1, (3, 4): -1},
                             {(1, 3): 1, (2, 4): 1}, {(1, 4): 1, (2, 3): -1}])


def rand_frac(rng, lo=-2, hi=2, den=3):
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_pos(rng, den=8):
    return Fraction(rng.randint(1, 3 * den), den)


def rand_spd(rng, dim=7):
    a = [[rand_frac(rng) for _ in range(dim)] for _ in range(dim)]
    rows = [[sum(a[k][i] * a[k][j] for k in range(dim)) + (1 if i == j else 0)
             for j in range(dim)] for i in range(dim)]
    return Metric(rows)


def test_decompose_dimensions():
    for L, derived, abelian in ((H7, 1, 0), (H3C_R, 2, 1), (N6_3_R, 3, 1),
                                (N7_2_A, 2, 0), (N7_3_B, 3, 0)):
        D = decompose(L, Metric.identity(7))
        assert D.derived_dim == derived
        assert D.abelian_dim == abelian


def test_decompose_orthogonality():
    rng = random.Random(SEED)
    for L in (H3C_R, N6_3_R, N7_3_D):
        for _ in range(6):
            g = rand_spd(rng)
            D = decompose(L, g)
            for v in D.complement:
                for w in D.nprime:
                    assert g.inner(v, w) == 0
            for i, v in enumerate(D.complement):
                for w in D.complement[:i]:
                    assert g.inner(v, w) == 0
            assert len(D.complement) == 7 - D.derived_dim
            assert D.rtilde == D.complement[:4]
            units = [tuple(int(i == k) for i in range(7)) for k in range(7)]
            for a in D.abelian:
                assert not any(any(L.bracket(a, e)) for e in units)  # central


def test_decomposition_keeps_its_gram_schmidt_data():
    # the orthogonal basis of n' with its squared norms, and the complement's
    # squared norms, as `_beta_coords` and `construct` read them
    rng = random.Random(SEED + 20)
    for L in (H7, H3C_R, N6_3_R, N7_3_D):
        g = rand_spd(rng)
        for gm in (g, g.to_float()):
            D = decompose(L, gm)
            assert (D.zs, D.p) == gram_schmidt_sq([gm.as_vector(v) for v in D.nprime], gm.inner)
            assert D.complement_sq == [gm.norm_sq(w) for w in D.complement]


def test_unsupported_algebras_raise():
    three_step = LieAlgebra.from_structure(
        "threestep", [None, None, None, {(1, 2): 1}, {(1, 4): 1}, None, None])
    abelian = LieAlgebra.from_structure("abelian", [None] * 7)
    for L in (three_step, abelian):
        with pytest.raises(UnsupportedAlgebraError):
            decompose(L, Metric.identity(7))
    with pytest.raises(UnsupportedAlgebraError):
        case1_exists(decompose(H3C_R, Metric.identity(7)))
    with pytest.raises(UnsupportedAlgebraError):
        selfdual_exists(decompose(H7, Metric.identity(7)))
    # one self-dual criterion serves dim n' = 2 and dim n' = 3
    assert selfdual_exists(decompose(H3C_R, Metric.identity(7))).case == 2
    assert selfdual_exists(decompose(N6_3_R, Metric.identity(7))).case == 3


def test_case1_heis7_harmonic_mean_criterion():
    rng = random.Random(SEED + 1)
    for trial in range(200):
        if trial % 3 == 0:
            s, t = rand_pos(rng), rand_pos(rng)
            r = s * t / (s + t)  # harmonic: 1/r = 1/s + 1/t
        else:
            r, s, t = rand_pos(rng), rand_pos(rng), rand_pos(rng)
        g = Metric.diagonal([r * r, 1, s * s, 1, t * t, 1, 1])
        x = sorted([r, s, t])
        expected = (Fraction(1, 1) / x[0]) == 1 / x[1] + 1 / x[2]
        rep = case1_exists(decompose(H7, g))
        assert rep.exists == expected
        assert rep.case == 1 and rep.kind == "purely"
        if rep.exists:
            assert rep.diagnostics["lhs"] == rep.diagnostics["rhs"]


def test_case1_heis3_never_purely_but_always_coclosed():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        r = rand_pos(rng)
        g = Metric.diagonal([r * r, 1, 1, 1, 1, 1, 1])
        assert not purely_coclosed_exists(H3_R4, g).exists
        assert coclosed_exists(H3_R4, g).exists
    assert coclosed_always(H3_R4)


def test_case1_witness_reported():
    g = Metric.diagonal([Fraction(1, 4), 1, 1, 1, 1, 1, 1])
    rep = purely_coclosed_exists(H7, g)
    assert rep.exists
    assert rep.witness is not None and "z" in rep.witness


def test_case2_without_abelian_factor_never_coclosed():
    rng = random.Random(SEED + 3)
    for _ in range(30):
        g = rand_spd(rng)
        rep = purely_coclosed_exists(N7_2_A, g)
        assert not rep.exists
        assert rep.diagnostics["abelian_dim"] == 0
        assert not coclosed_exists(N7_2_A, g).exists
    assert not coclosed_always(N7_2_A)


def test_case2_closed_form_matches_criterion():
    rng = random.Random(SEED + 4)
    fam = catalog.get_family("h3c")
    checked = 0
    for _ in range(100):
        params = {"r": rand_pos(rng), "s": rand_pos(rng), "E": rand_pos(rng),
                  "F": rng.choice([Fraction(0), rand_frac(rng, den=8)]),
                  "G": rand_pos(rng)}
        try:
            g = fam.metric(**params)
        except ValueError:
            continue  # outside the positive-definite domain
        expected = fam.purely_condition(**params)
        assert purely_coclosed_exists(H3C_R, g).exists == expected
        checked += 1
    assert checked > 60


def test_case3_obstruction_pins():
    D = decompose(N6_3_R, Metric.identity(7))
    half = Fraction(1, 2)
    for orient in (1, -1):
        S = sd_gram(D, orient)
        assert S == [[half, 0, 0], [0, half, 0], [0, 0, half]]
    rep = selfdual_exists(D)
    assert not rep.exists
    assert rep.diagnostics["plus"] == [Fraction(9, 4), Fraction(3, 2)]
    assert rep.diagnostics["minus"] == [Fraction(9, 4), Fraction(3, 2)]

    D1 = decompose(N7_3_D1, Metric.diagonal([4, 1, 1, 1, 1, 1, 1]))
    rep1 = selfdual_exists(D1)
    assert not rep1.exists
    assert rep1.diagnostics["plus"] == [Fraction(9, 64), Fraction(3, 32)]
    assert rep1.diagnostics["minus"] == [Fraction(729, 64), Fraction(243, 32)]


def test_case3_witness_metrics_accepted():
    for L, diag in ((N6_3_R, [1, 1, 1, 1, 1, 1, 4]),
                    (N7_3_B, [1, 1, 1, 1, 2, 4, 2]),
                    (N7_3_D, [1, 1, 1, 1, Fraction(1, 2), 1, 1])):
        rep = purely_coclosed_exists(L, Metric.diagonal(diag))
        assert rep.exists
        assert rep.orientation in ("+", "-")
        lhs, rhs = rep.diagnostics["plus" if rep.orientation == "+" else "minus"]
        assert lhs == rhs


def test_exact_and_float_criteria_agree():
    cases = [
        (N6_3_R, Metric.identity(7)),
        (N6_3_R, Metric.diagonal([1, 1, 1, 1, 1, 1, 4])),
        (N7_3_B, Metric.diagonal([1, 1, 1, 1, 2, 4, 2])),
        (N7_3_B, Metric.diagonal([1, 1, 1, 1, 1, Fraction(1, 2), 1])),
        (N7_3_D1, Metric.diagonal([4, 1, 1, 1, 1, 1, 1])),
        (H3C_R, Metric.identity(7)),
        (H7, Metric.diagonal([Fraction(1, 4), 1, 1, 1, 1, 1, 1])),
    ]
    for L, g in cases:
        exact = purely_coclosed_exists(L, g)
        floated = purely_coclosed_exists(L, g.to_float())
        assert exact.exists == floated.exists
        assert exact.case == floated.case


# -- one self-dual path for both modes ------------------------------------------


def _floated(D):
    """D for the float copy of its metric: both modes orthogonalize the same
    adapted basis, so the plane bases agree up to rounding and S± match entry
    by entry."""
    return decompose(D.L, D.g.to_float())


def _sheared(diag, rng):
    """P^T diag P for a unipotent upper-triangular integer shear P."""
    n = len(diag)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = sorted(rng.sample(range(n), 2))
        P[i][j] = rng.choice([-1, 1])
    return Metric([[sum(P[k][i] * diag[k] * P[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)])


def _automorphism(structure, rng):
    """Grading dilation (t on the generators, t^2 on n') composed with a shear
    of every generator into n'; catalog algebras have n' spanned by the f_k
    whose d e^k is nonzero. Columns are the images of the basis vectors."""
    der = [k for k, eq in enumerate(structure) if eq]
    t = rng.choice([Fraction(2, 3), Fraction(3, 2)])
    A = [[Fraction(0)] * 7 for _ in range(7)]
    for j in range(7):
        A[j][j] = t * t if j in der else t
        if j not in der:
            for k in der:
                A[k][j] = t * rng.choice([-1, Fraction(1, 2), 1])
    return A


def _pull_back(g, A):
    """The metric g(A x, A y)."""
    return Metric([[sum(A[a][i] * g.rows[a][b] * A[b][j] for a in range(7) for b in range(7))
                    for j in range(7)] for i in range(7)])


def _same_pair(x, y):
    """Equal (lhs, rhs) pairs, up to float rounding when they are floats."""
    return all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
               for a, b in zip(x, y))


def test_orientation_label_agrees_across_modes_and_automorphisms():
    # the 4-plane is oriented by a metric-independent adapted basis, so the
    # S_+ of an exact metric is the S_+ of its float copy and of its pull-back
    # by an automorphism preserving the orientations of R^7/n' and center/n'
    rng = random.Random(SEED + 7)
    checked = 0
    for entry in map(catalog.get, catalog.names()):
        L = entry.algebra
        if entry.derived_dim not in (2, 3) or not decompose(L, Metric.identity(7)).rtilde:
            continue
        for _ in range(4):
            diag = [Fraction(rng.randint(1, 4)) ** 2 / rng.choice([1, 4]) for _ in range(7)]
            g = _sheared(diag, rng)
            plus = selfdual_exists(decompose(L, g)).diagnostics["plus"]
            g_back = _pull_back(g, _automorphism(entry.structure, rng))
            for h in (g.to_float(), g_back, g_back.to_float()):
                got = selfdual_exists(decompose(L, h)).diagnostics["plus"]
                assert _same_pair(got, plus), (entry.name, h.rows)
            checked += 1
    assert checked == 44  # 4 case-2 and 7 case-3 algebras


def _sd_gram_in_floats(D, orient):
    """S evaluated in floats from the exact p, K, W and Q of the public bases."""
    _p, K, W, _Q = _beta_coords(D)
    p, K, W, Q = _public_scale(D, K, W)
    root = math.sqrt(1 / Q)
    return [[(float(K[i][j]) + orient * float(W[i][j]) * root) / (2 * math.sqrt(p[i] * p[j]))
             for j in range(len(p))] for i in range(len(p))]


def test_float_sd_gram_matches_exact_entries():
    # an exact S is rational; where an entry is irrational, exact sd_gram raises
    # and the float S is held to S evaluated in floats from the exact p, K, W, Q
    rng = random.Random(SEED)
    rational = irrational = 0
    for entry in map(catalog.get, catalog.names()):
        if entry.derived_dim not in (2, 3):
            continue
        for trial in range(8):
            diag = [Fraction(rng.randint(1, 4)) ** 2 / rng.choice([1, 4]) for _ in range(7)]
            g = Metric.diagonal(diag) if trial % 2 else _sheared(diag, rng)
            D = decompose(entry.algebra, g)
            if not D.rtilde:
                break  # n7_2_A, n7_2_B: no canonical 4-plane
            Df = _floated(D)
            for orient in (1, -1):
                floated = sd_gram(Df, orient)
                try:
                    exact = sd_gram(D, orient)
                except ExactnessError:
                    exact = _sd_gram_in_floats(D, orient)
                    irrational += 1
                else:
                    assert all(type(x) in (int, Fraction) for row in exact for x in row)
                    rational += 1
                scale = max(abs(float(x)) for row in exact for x in row)
                for row_e, row_f in zip(exact, floated):
                    for x, y in zip(row_e, row_f):
                        assert abs(float(x) - y) <= 1e-12 * scale, (entry.name, g.rows)
    assert rational >= 110 and irrational >= 60, (rational, irrational)


def test_irrational_sd_gram_raises_in_exact_mode():
    # at diag(1, ..., 7) the plane's Q is not a square, and S has irrational entries
    g = Metric.diagonal(range(1, 8))
    for L in (N7_3_B, H3C_R):
        D, Df = decompose(L, g), decompose(L, g.to_float())
        for orient in (1, -1):
            with pytest.raises(ExactnessError, match="use a float metric"):
                sd_gram(D, orient)
            S = sd_gram(Df, orient)
            assert all(math.isfinite(x) for row in S for x in row)


@pytest.mark.parametrize("orientation", [0, 2, -2, 0.5, "+"])
def test_sd_gram_rejects_bad_orientation(orientation):
    D = decompose(N6_3_R, Metric.identity(7))
    with pytest.raises(ValueError, match="orientation"):
        sd_gram(D, orientation)


def test_float_identity_is_evaluated_entry_by_entry():
    # S_- vanishes here; summing tr^2 S - 2 tr S^2 as x + y sqrt(T) first leaves
    # rounding noise near 1e-15, the entry-by-entry traces are near 1e-32
    g = catalog.get_family("h3c").metric(r=1, s=1, E=3, F=Fraction(1, 2), G=2).to_float()
    rep = purely_coclosed_exists(H3C_R, g)
    assert rep.exists and rep.orientation == "-"
    assert all(abs(v) < 1e-20 for v in rep.diagnostics["minus"])


def test_exact_identity_with_irrational_root_is_pinned():
    # Q = 24 on diag(1, ..., 7), so sqrt(T) = 1/sqrt(24) is irrational and the
    # verdict comes from the rational and radical components
    pins = {N7_3_B: ([4.168402777777777, 5.253472222222222],
                     [4.168402777777777, 5.253472222222222]),
            H3C_R: ([21.54072751604417, 21.635770740745265],
                    [0.02264053951138786, 0.032632037032513495])}
    for L, (plus, minus) in pins.items():
        rep = selfdual_exists(decompose(L, Metric.diagonal(range(1, 8))))
        assert not rep.exists and rep.orientation is None
        for got, want in zip(rep.diagnostics["plus"] + rep.diagnostics["minus"], plus + minus):
            assert isinstance(got, float)
            assert abs(got - want) <= 1e-12 * want


# -- the cleared-integer criteria against the Fraction formulas ------------------


def _adapted(L):
    """The basis the decomposition orthogonalizes: n', then the center, then
    the coordinate vectors that raise the rank."""
    units = [tuple(Fraction(int(i == j)) for i in range(7)) for j in range(7)]
    candidates = (*L.derived_basis(), *L.center_basis(), *units)
    return [candidates[j] for j in rref(transpose(candidates))[1]]


def _with_norms(L, diag, rng):
    """A metric whose Gram-Schmidt of `_adapted(L)` has the squared norms diag:
    (U V^-1)^T diag (U V^-1) for V the adapted basis and U unipotent upper
    triangular, so every vector is projected and a diagonal of squares gives a
    rational sqrt(T)."""
    U = [[Fraction(int(i == j)) if i >= j else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
          for j in range(7)] for i in range(7)]
    A = mat_mul(U, mat_inv(transpose(_adapted(L))))
    return Metric([[sum(A[m][i] * diag[m] * A[m][j] for m in range(7)) for j in range(7)]
                   for i in range(7)])


def _reference_criterion(L, g):
    """The criterion in plain Fraction arithmetic, as `structure` computed it
    before it cleared denominators: Gram-Schmidt over `Metric.inner`, j(z) as
    mat_inv(gram) times the bracket matrix, and B, K, W, Q with the traces of
    x = K ± W sqrt(T). Returns (decomposition data, report data)."""
    k, c = len(L.derived_basis()), len(L.center_basis())
    ws, q = gram_schmidt_sq(_adapted(L), g.inner)
    complement, complement_sq = ws[c:] + ws[k:c], q[c:] + q[k:c]
    decomposition = (ws[:k], q[:k], complement, complement_sq)
    if k == 1:
        z, basis = ws[0], complement
        gram = tuple(tuple(g.inner(u, w) for w in basis) for u in basis)
        cm = tuple(tuple(g.inner(z, L.bracket(basis[j], basis[i])) for j in range(6))
                   for i in range(6))
        J = mat_mul(mat_inv(gram), cm)
        J2 = mat_mul(J, J)
        tr2 = sum(J2[i][i] for i in range(6))
        lhs, rhs = tr2 * tr2, 4 * sum(J2[i][j] * J2[j][i] for i in range(6) for j in range(6))
        return decomposition, (1, lhs == rhs, None, lhs, rhs, None)
    if k == 2 and c == k:
        return decomposition, (2, False, None, None, None, None)
    zs, p, plane, qp = ws[:k], q[:k], complement[:4], complement_sq[:4]
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    B = [{(a, b): -g.inner(z, L.bracket(plane[a], plane[b])) for a, b in pairs} for z in zs]
    K = [[sum(B[i][ab] * B[j][ab] / (qp[ab[0]] * qp[ab[1]]) for ab in pairs)
          for j in range(k)] for i in range(k)]
    W = [[B[i][(0, 1)] * B[j][(2, 3)] - B[i][(0, 2)] * B[j][(1, 3)]
          + B[i][(0, 3)] * B[j][(1, 2)] + B[j][(0, 1)] * B[i][(2, 3)]
          - B[j][(0, 2)] * B[i][(1, 3)] + B[j][(0, 3)] * B[i][(1, 2)]
          for j in range(k)] for i in range(k)]
    T = 1 / (qp[0] * qp[1] * qp[2] * qp[3])

    def trace(x):
        return sum(x[i][i] / (2 * p[i]) for i in range(k))

    def trace_pair(x, y):
        return sum(x[i][j] * y[j][i] / (4 * p[i] * p[j]) for i in range(k) for j in range(k))

    root = Fraction(math.isqrt(T.numerator), math.isqrt(T.denominator))
    rational = root * root == T
    if not rational:
        root = math.sqrt(T)
    found = {}
    for orient, s in (("+", 1), ("-", -1)):
        x = [[a + s * b * root for a, b in zip(ka, wa)] for ka, wa in zip(K, W)]
        found[orient] = (trace(x) ** 2, 2 * trace_pair(x, x))
    if rational:
        orient = next((o for o in "+-" if found[o][0] == found[o][1]), None)
    else:
        A, Bt = trace(K), trace(W)
        C, E = trace_pair(K, K) + T * trace_pair(W, W), 2 * trace_pair(K, W)
        orient = "+" if A * A + Bt * Bt * T == 2 * C and A * Bt == E else None
    lead = found[orient or "+"]
    return decomposition, (k, orient is not None, orient, lead[0], lead[1], found)


_DENOMINATORS = st.integers(1, 10**6)


@st.composite
def _oracle_inputs(draw):
    """A catalog algebra and a rational metric lam P^T diag P: diagonal entries
    with denominators up to 1e6 (squares or not), P the identity or a
    unipotent rational shear, lam a homothety up to 1e8 either way."""
    name = draw(st.sampled_from(catalog.names()))
    diag = [Fraction(draw(st.integers(1, 10**6)), draw(_DENOMINATORS)) for _ in range(7)]
    if draw(st.booleans()):
        diag = [d * d for d in diag]
    P = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    if draw(st.booleans()):
        for i, j in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                                  .filter(lambda ij: ij[0] < ij[1]), min_size=1, max_size=4)):
            P[i][j] = Fraction(draw(st.integers(-10**3, 10**3)), draw(_DENOMINATORS))
    lam = draw(st.sampled_from((1, 10**8, Fraction(1, 10**8))))
    rows = [[lam * sum(P[m][i] * diag[m] * P[m][j] for m in range(7)) for j in range(7)]
            for i in range(7)]
    return name, Metric(rows)


def _check_against_reference(L, g):
    """Returns True when sqrt(T) was irrational."""
    (zs, p, complement, complement_sq), (case, exists, orient, lhs, rhs, found) = \
        _reference_criterion(L, g)
    D = decompose(L, g)
    assert (D.zs, D.p, D.complement, D.complement_sq) == (zs, p, complement, complement_sq)
    rep = purely_coclosed_exists(L, g)
    assert (rep.case, rep.exists, rep.orientation) == (case, exists, orient)
    if not exists:
        assert rep.witness is None
    elif case == 1:
        assert rep.witness == {"z": [str(x) for x in L.derived_basis()[0]]}
    else:
        assert rep.witness == {"rtilde": [[str(x) for x in v] for v in complement[:4]],
                               "orientation": orient}
    irrational = found is not None and isinstance(found["+"][0], float)
    if irrational:
        for side, o in (("plus", "+"), ("minus", "-")):
            for got, want in zip(rep.diagnostics[side], found[o]):
                assert isinstance(got, float)
                assert abs(got - want) <= 1e-12 * abs(want)
    else:
        assert (rep.diagnostics["lhs"], rep.diagnostics["rhs"]) == (lhs, rhs)
        assert all(type(x) is Fraction for x in (lhs, rhs) if x is not None)
        if found is not None:
            assert rep.diagnostics["plus"] == list(found["+"])
            assert rep.diagnostics["minus"] == list(found["-"])
    return irrational


@settings(max_examples=60, deadline=None)
@given(_oracle_inputs())
def test_cleared_criteria_match_the_fraction_formulas(case):
    name, g = case
    _check_against_reference(catalog.get(name).algebra, g)


def test_cleared_criteria_cover_both_roots_on_every_algebra():
    # every catalog algebra, plus two with fractional structure constants
    # (s = 3 and 6, and a derived vector (0, ..., 0, 1, 2/3)), on diag(1..7)
    # (Q = 24 on n7_3_B: irrational sqrt(T)), on a diagonal of squares, sheared
    # too, and on metrics whose Gram-Schmidt projects every vector and still
    # has square norms (rational sqrt(T), positive multiples that must keep
    # the orientation)
    rng = random.Random(SEED + 11)
    third = Fraction(1, 3)
    extra = [LieAlgebra.from_structure("h5_scaled", [None] * 5 + [
                 {(1, 2): 1, (3, 4): 1}, {(1, 2): 2 * third, (3, 4): 2 * third}]),
             LieAlgebra.from_structure("n6_3_scaled", [None] * 4 + [
                 {(1, 2): 1}, {(1, 3): Fraction(1, 2)}, {(2, 3): 1, (1, 2): third}])]
    irrational = 0
    for L in [catalog.get(name).algebra for name in catalog.names()] + extra:
        squares = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2 for _ in range(7)]
        for diag in ([Fraction(i) for i in range(1, 8)], squares):
            for g in (Metric.diagonal(diag), _sheared(diag, rng)):
                irrational += _check_against_reference(L, g)
        for _ in range(2):
            assert not _check_against_reference(L, _with_norms(L, squares, rng))
    assert irrational >= 10


_HOMOTHETIES = (1, 10**4, 10**8, Fraction(1, 10**8))


def test_exact_verdict_is_homothety_invariant():
    L = catalog.get("n7_3_A").algebra
    for lam in _HOMOTHETIES:
        assert purely_coclosed_exists(L, Metric.diagonal([lam] * 7)).exists is False


@pytest.mark.xfail(strict=True, reason="the 1 in close()'s scale 1 + |lhs| + |rhs| dominates "
                                      "at lambda = 1e8, where lhs and rhs are near 1e-16")
def test_float_verdict_is_homothety_invariant():
    L = catalog.get("n7_3_A").algebra
    for lam in _HOMOTHETIES:
        g = Metric.diagonal([float(lam)] * 7)
        assert purely_coclosed_exists(L, g).exists is False


def test_explicit_tolerance_is_validated():
    g = catalog.get_family("heis7").metric(r=Fraction(1, 2), s=1, t=1).to_float()
    for bad in (-1, math.nan, math.inf):
        with pytest.raises(ToleranceError):
            purely_coclosed_exists(H7, g, tol=bad)
    assert purely_coclosed_exists(H7, g, tol=0).exists
    assert purely_coclosed_exists(H7, g).exists


def test_sd_basis_is_orthogonal_self_dual():
    e = [KForm.basis(7, i) for i in range(1, 8)]
    sigmas = sd_basis_forms(e)
    vol4 = e[0].wedge(e[1]).wedge(e[2]).wedge(e[3])
    for i, si in enumerate(sigmas):
        for j, sj in enumerate(sigmas):
            assert si.wedge(sj) == vol4 * (2 if i == j else 0)
    # anti-self-dual partners pair to zero
    asd = [e[0].wedge(e[2]) + e[1].wedge(e[3]),
           -1 * e[0].wedge(e[3]) + e[1].wedge(e[2]),
           e[0].wedge(e[1]) - e[2].wedge(e[3])]
    for si in sigmas:
        for aj in asd:
            assert not si.wedge(aj)


def test_m_matrix_pinned_fixture():
    data = catalog.load_fixture("n7_3_B_pure.json")
    cof = catalog.coframe_from_fixture(data)
    g = Metric.diagonal([Fraction(x) for x in data["metric"]["diag"]])
    M = m_matrix(N7_3_B, cof, g)
    assert M == [[0, 0, 0], [0, -2, 0], [0, 0, 2]]
    rep = torsion_class(N7_3_B, G2Structure.from_coframe(cof))
    assert rep.purely_coclosed


def test_m_matrix_trace_rule_on_adapted_coframes():
    # adapted diagonal rescalings on n6_3 + R: e = (f1..f4, x f6, y f7, z f5)
    # give M = diag(x, -y, z), so coclosed always and purely iff x - y + z = 0
    f = [KForm.basis(7, i) for i in range(1, 8)]
    rng = random.Random(SEED + 5)
    for trial in range(20):
        x, y = (rand_frac(rng) or Fraction(1) for _ in range(2))
        z = y - x if trial % 3 == 0 and y != x else (rand_frac(rng) or Fraction(1))
        if not (x and y and z):
            continue
        cof = [f[0], f[1], f[2], f[3], f[5] * x, f[6] * y, f[4] * z]
        struct = G2Structure.from_coframe(cof)
        M = m_matrix(N6_3_R, cof, struct.metric)
        assert M == [[x, 0, 0], [0, -y, 0], [0, 0, z]]
        rep = torsion_class(N6_3_R, struct)
        assert rep.coclosed
        assert rep.purely_coclosed == (x - y + z == 0)


def test_family_coframe_plane_rule():
    data = catalog.load_fixture("n7_3_A_family.json")
    L = catalog.get("n7_3_A").algebra
    rng = random.Random(SEED + 8)
    for trial in range(10):
        a, b = (rand_frac(rng) or Fraction(1) for _ in range(2))
        c = -(a + b) if trial % 2 == 0 and a + b != 0 else (rand_frac(rng) or Fraction(1))
        if not (a and b and c):
            continue
        cof = catalog.coframe_from_fixture(data, {"a": a, "b": b, "c": c})
        rep = torsion_class(L, G2Structure.from_coframe(cof))
        assert rep.coclosed
        assert rep.purely_coclosed == (a + b + c == 0)


def rand_orthogonal(rng):
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def rand_sym_trace_free(rng):
    a = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    s = (a + a.T) / 2
    return s - np.eye(3) * (np.trace(s) / 3)


def test_symmetrize_feasible_instances():
    rng = random.Random(SEED + 6)
    for _ in range(300):
        A = rand_sym_trace_free(rng)
        P0 = rand_orthogonal(rng)
        M = A @ P0.T
        out = symmetrize_M(M.tolist())
        P = np.array(out["P"])
        assert np.max(np.abs(P @ P.T - np.eye(3))) < 1e-12
        MP = M @ P
        assert np.max(np.abs(MP - MP.T)) < 1e-9 * (1 + np.max(np.abs(M)))
        assert abs(np.trace(MP)) < 1e-9 * (1 + np.max(np.abs(M)))


def test_symmetrize_matches_trace_identity():
    rng = random.Random(SEED + 7)
    tested = 0
    for _ in range(300):
        M = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
        S = 0.5 * (M.T @ M)
        lhs, rhs = np.trace(S) ** 2, 2 * np.trace(S @ S)
        if abs(lhs - rhs) < 1e-6 * (1 + abs(lhs) + abs(rhs)):
            continue  # too close to the feasibility surface to classify in float
        feasible = abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))
        sv = np.linalg.svd(M, compute_uv=False)
        assert feasible == (abs(sv[0] - sv[1] - sv[2]) <= 1e-9 * (1 + sv[0]))
        try:
            symmetrize_M(M.tolist())
            got = True
        except DegenerateError:
            got = False
        assert got == feasible
        tested += 1
    assert tested > 250


def test_symmetrize_reflects_the_first_column_when_the_top_singular_values_tie():
    # M = lam [m1 m2 0] with m1, m2 orthonormal: singular values (lam, lam, 0),
    # and A = MP has eigenvalues (-lam, lam, 0) with its -lam eigenvector along m1
    rng = random.Random(SEED + 8)
    for lam in (1e-3, 1.0, 1e3):
        Q = rand_orthogonal(rng)
        M = lam * np.column_stack([Q[:, 0], Q[:, 1], np.zeros(3)])
        A = np.array(symmetrize_M(M.tolist())["A"])
        w, V = np.linalg.eigh((A + A.T) / 2)
        assert np.allclose(w, [-lam, 0.0, lam], atol=1e-12 * lam)
        assert abs(abs(V[:, 0] @ Q[:, 0]) - 1.0) < 1e-12


def test_symmetrize_is_continuous_on_a_rank_two_tie():
    # any orthonormal basis of a repeated singular space is an SVD; the
    # canonical P must not follow the one the SVD happens to return
    rng = random.Random(SEED + 9)
    for _ in range(20):
        M = rand_orthogonal(rng) @ np.diag([2.0, 2.0, 0.0]) @ rand_orthogonal(rng).T
        P = np.array(symmetrize_M(M.tolist())["P"])
        nudged = np.array(symmetrize_M(np.nextafter(M, np.inf).tolist())["P"])
        assert np.max(np.abs(P - nudged)) < 1e-9


def test_symmetrize_zero_matrix_is_the_identity():
    assert symmetrize_M([[0.0] * 3 for _ in range(3)])["P"] == np.eye(3).tolist()


def test_symmetrize_rejects_small_infeasible_matrices():
    # lam e1 e2^T has singular values (lam, 0, 0), so a != b + c at every scale
    for lam in (1e-8, 1e-3):
        M = [[0.0, lam, 0.0], [0.0] * 3, [0.0] * 3]
        with pytest.raises(DegenerateError, match="no orthogonal P"):
            symmetrize_M(M)


def test_symmetrize_verdict_is_scale_free():
    rng = random.Random(SEED + 10)
    for _ in range(20):
        M = rand_sym_trace_free(rng) @ rand_orthogonal(rng).T
        for lam in (1e-8, 1.0, 1e8):
            A = np.array(symmetrize_M((lam * M).tolist())["A"])
            assert np.max(np.abs(A - A.T)) < 1e-9 * lam * np.max(np.abs(M))
            assert abs(np.trace(A)) < 1e-9 * lam * np.max(np.abs(M))


def test_coclosed_report_shape():
    rep = coclosed_exists(N6_3_R, Metric.identity(7))
    assert rep.kind == "coclosed"
    assert rep.case == 3
    assert rep.exists


def test_pinned_verdict_independent_of_earlier_calls():
    """Algebra invariants are cached per algebra; nothing metric-dependent is."""
    fx = catalog.load_fixture("n7_3_B_obstructed.json")
    L = LieAlgebra.from_json(catalog.get("n7_3_B").algebra.to_json())
    g = Metric.diagonal([Fraction(x) for x in fx["metric"]["diag"]])
    rows = g.rows
    first = purely_coclosed_exists(L, g).to_json()
    assert first["exists"] is fx["exists"]
    assert first["diagnostics"]["plus"] == fx["diagnostics"]["plus"]
    assert first["diagnostics"]["minus"] == fx["diagnostics"]["minus"]
    # use the same algebra and metric in other calls and with other partners
    purely_coclosed_exists(L, Metric.identity(7))
    purely_coclosed_exists(L, g.to_float())
    purely_coclosed_exists(N7_3_B, g)
    coclosed_exists(L, g)
    with pytest.raises(ExactnessError):
        sd_gram(decompose(L, Metric.diagonal(range(1, 8))), orientation=-1)
    for orient in (1, -1):
        S = sd_gram(decompose(L, g), orientation=orient)
        key = "s_plus" if orient == 1 else "s_minus"
        assert S == [[Fraction(x) for x in row] for row in fx[key]]
    assert purely_coclosed_exists(L, g).to_json() == first
    assert g.rows == rows
