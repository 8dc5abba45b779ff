"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Each test pins its own tolerances. Exact-mode assertions use equality of
Fractions (zero tolerance); float-mode assertions state their bound inline.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from g2nil import catalog
from g2nil.construct import construct_case1
from g2nil.exterior import (
    DegenerateError,
    KForm,
    Mode,
    form_inner,
    hodge,
    volume_form,
)
from g2nil.g2su3 import G2Structure, phi_standard, starphi_standard, torsion_class
from g2nil.liealg import LieAlgebra, Metric, is_nilsoliton, jz_matrix
from g2nil.structure import (
    case1_exists,
    decompose,
    m_matrix,
    purely_coclosed_exists,
    sd_gram,
    selfdual_exists,
    symmetrize_M,
)

SEED = 73  # deterministic across runs


def F(x) -> Fraction:
    return Fraction(x)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def metric_from_fixture(fx) -> Metric:
    spec = fx["metric"]
    if "diag" in spec:
        return Metric.diagonal([Fraction(x) for x in spec["diag"]])
    return Metric(frac_matrix(spec["rows"]))


# --------------------------------------------------------------------------
# 1. standard-form round trip: identity metric and the pinned dual 4-form,
#    exactly, in under a millisecond
# --------------------------------------------------------------------------

def test_c01_standard_form_round_trip_exact_under_1ms():
    expected_star = starphi_standard()
    identity = Metric.identity(7).rows
    best = float("inf")
    for _ in range(30):
        t0 = time.perf_counter()
        struct = G2Structure.from_phi(phi_standard())
        ok = (struct.metric.rows == identity
              and struct.orientation == 1
              and struct.starphi == expected_star)
        best = min(best, time.perf_counter() - t0)
        assert ok
    assert best < 1e-3, f"round trip took {best * 1e3:.3f} ms (budget 1 ms)"


# --------------------------------------------------------------------------
# 2. the seven pinned obstruction fixtures: S± Gram matrices and the
#    (tr²S, 2trS²) diagnostics match exactly, zero tolerance; where a pure
#    coframe is pinned, its M matrix matches exactly as well
# --------------------------------------------------------------------------

HALF = Fraction(1, 2)

S_PINS = {
    # name: (S_plus, S_minus, (tr²S₊, 2trS₊²), (tr²S₋, 2trS₋²))
    "n6_3_R": ([[HALF, 0, 0], [0, HALF, 0], [0, 0, HALF]],
               [[HALF, 0, 0], [0, HALF, 0], [0, 0, HALF]],
               (F("9/4"), F("3/2")), (F("9/4"), F("3/2"))),
    "n7_3_A": ([[HALF, 0, 0], [0, HALF, 0], [0, 0, HALF]],
               [[HALF, 0, 0], [0, HALF, 0], [0, 0, HALF]],
               (F("9/4"), F("3/2")), (F("9/4"), F("3/2"))),
    "n7_3_B": ([[HALF, 0, HALF], [0, F("1/4"), 0], [HALF, 0, HALF]],
               [[HALF, 0, -HALF], [0, F("1/4"), 0], [-HALF, 0, HALF]],
               (F("25/16"), F("17/8")), (F("25/16"), F("17/8"))),
    "n7_3_B1": ([[0, 0, 0], [0, 0, 0], [0, 0, HALF]],
                [[2, 0, 0], [0, 2, 0], [0, 0, HALF]],
                (F("1/4"), F("1/2")), (F("81/4"), F("33/2"))),
    "n7_3_C": ([[2, 0, 0], [0, HALF, 0], [0, 0, 1]],
               [[0, 0, 0], [0, HALF, 0], [0, 0, 1]],
               (F("49/4"), F("21/2")), (F("9/4"), F("5/2"))),
    "n7_3_D": ([[2, 0, 0], [0, HALF, -HALF], [0, -HALF, HALF]],
               [[0, 0, 0], [0, HALF, HALF], [0, HALF, HALF]],
               (F(9), F(10)), (F(1), F(2))),
    "n7_3_D1": ([[F("1/8"), 0, 0], [0, F("1/8"), 0], [0, 0, F("1/8")]],
                [[F("9/8"), 0, 0], [0, F("9/8"), 0], [0, 0, F("9/8")]],
                (F("9/64"), F("3/32")), (F("729/64"), F("243/32"))),
}

M_PINS = {
    "n6_3_R": [[1, 0, 0], [0, -2, 0], [0, 0, 1]],
    "n7_3_B": [[0, 0, 0], [0, -2, 0], [0, 0, 2]],
    "n7_3_B1": [[-2, 0, 0], [0, 4, 0], [0, 0, -2]],
    "n7_3_D": [[-2, 0, 0], [0, 0, 0], [0, 0, 2]],
}


def test_c02_obstruction_fixtures_match_pinned_matrices_exactly():
    for name, (sp, sm, plus, minus) in S_PINS.items():
        fx = catalog.load_fixture(f"{name}_obstructed.json")
        g = metric_from_fixture(fx)
        D = decompose(catalog.get(name).algebra, g)
        got_plus = frac_matrix(sd_gram(D, 1))
        got_minus = frac_matrix(sd_gram(D, -1))
        assert got_plus == frac_matrix(sp) == frac_matrix(fx["s_plus"]), name
        assert got_minus == frac_matrix(sm) == frac_matrix(fx["s_minus"]), name
        rep = selfdual_exists(D)
        assert not rep.exists, name
        assert tuple(rep.diagnostics["plus"]) == plus, name
        assert tuple(rep.diagnostics["minus"]) == minus, name
        assert plus[0] != plus[1] and minus[0] != minus[1], name

    for name, pin in M_PINS.items():
        fx = catalog.load_fixture(f"{name}_pure.json")
        cof = catalog.coframe_from_fixture(fx)
        g = metric_from_fixture(fx)
        M = frac_matrix(m_matrix(catalog.get(name).algebra, cof, g))
        assert M == frac_matrix(pin), name
        assert all(M[i][j] == M[j][i] for i in range(3) for j in range(3)), name
        assert sum(M[i][i] for i in range(3)) == 0, name


# --------------------------------------------------------------------------
# 3. existence verdict across the whole catalog: with the identity metric,
#    falling back to the catalog witness metric where the identity is
#    obstructed, exactly three algebras admit no purely coclosed structure
# --------------------------------------------------------------------------

def test_c03_purely_coclosed_existence_across_catalog():
    never = set()
    for entry in map(catalog.get, catalog.names()):
        ok = purely_coclosed_exists(entry.algebra, Metric.identity(7)).exists
        if not ok and entry.witness_metric is not None:
            ok = purely_coclosed_exists(entry.algebra, entry.witness_metric).exists
        assert ok == entry.admits_purely_coclosed, entry.name
        if not ok:
            never.add(entry.name)
    assert never == {"h3_R4", "n7_2_A", "n7_2_B"}


# --------------------------------------------------------------------------
# 4. one-dimensional derived algebra: over 1000 random triples the criterion
#    agrees with the harmonic-mean rule 1/r = 1/s + 1/t (tolerance 1e-9) and
#    every feasible triple yields a verified construction, all within 5 s
# --------------------------------------------------------------------------

def test_c04_case1_harmonic_rule_and_construction_within_5s():
    L = catalog.get("h7").algebra
    rng = random.Random(SEED + 4)
    t0 = time.perf_counter()
    built = 0
    for trial in range(1000):
        if trial % 3 == 0:
            s, t = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
            r = s * t / (s + t)
        else:
            r, s, t = (rng.uniform(0.2, 3.0) for _ in range(3))
        g = Metric.diagonal([r * r, 1.0, s * s, 1.0, t * t, 1.0, 1.0])
        D = decompose(L, g)
        x = sorted((r, s, t))
        expected = abs(1 / x[0] - 1 / x[1] - 1 / x[2]) < 1e-9
        rep = case1_exists(D)
        assert rep.exists == expected, (r, s, t)
        if rep.exists:
            cof = construct_case1(D, purely=True)
            report = torsion_class(L, G2Structure.from_coframe(cof))
            assert report.purely_coclosed
            assert report.residual_coclosed < 1e-9
            assert report.residual_tau0 < 1e-9
            built += 1
    elapsed = time.perf_counter() - t0
    assert built > 300
    assert elapsed < 5.0, f"took {elapsed:.2f} s (budget 5 s)"


# --------------------------------------------------------------------------
# 5. two-dimensional derived algebra: for each metric family, 500 draws
#    (forced onto the feasible locus and generic) agree with the closed-form
#    conditions with zero disagreements; exact arithmetic throughout
# --------------------------------------------------------------------------

def _rand_pos(rng, den=6):
    return Fraction(rng.randint(1, 3 * den), den)


def test_c05_case2_families_match_closed_forms():
    rng = random.Random(SEED + 5)

    def run_family(fam_name, algebra_name, draw):
        fam = catalog.get_family(fam_name)
        L = catalog.get(algebra_name).algebra
        checked = 0
        for trial in range(500):
            params, expected = draw(rng, trial)
            try:
                g = fam.metric(**params)
            except ValueError:
                continue  # outside the positive-definite domain
            got = purely_coclosed_exists(L, g).exists
            assert got == expected, (fam_name, params)
            checked += 1
        assert checked >= 350, (fam_name, checked)

    def draw_h3c(rng, trial):
        p, q, E = _rand_pos(rng), _rand_pos(rng), _rand_pos(rng)
        branch_plus = E * ((p * q + 1) / (p + q)) ** 2
        branch_minus = E * ((p * q - 1) / (p - q)) ** 2 if p != q else None
        if trial % 5 == 0:
            F_, G = Fraction(0), branch_plus
        elif trial % 5 == 1 and branch_minus is not None:
            F_, G = Fraction(0), branch_minus
        elif trial % 5 == 2:
            p = q = Fraction(1)
            branch_plus = E  # ((q*q+1)/(2q))^2 = 1 at q = 1
            branch_minus = None
            F_, G = rng.choice([Fraction(0), _rand_pos(rng, 8) - 1]), _rand_pos(rng)
        else:
            F_ = rng.choice([Fraction(0), _rand_pos(rng, 8) - 1])
            G = _rand_pos(rng)
        r, s = p * p, q * q
        expected = (r == s == 1) or (F_ == 0 and (
            G == branch_plus or (branch_minus is not None and G == branch_minus)))
        return {"r": r, "s": s, "E": E, "F": F_, "G": G}, expected

    def draw_h3h3(rng, trial):
        u = Fraction(rng.randint(1, 19), 20)
        v = Fraction(rng.randint(1, 19), 20)
        a = 2 * u / (1 + u * u)
        b = 2 * v / (1 + v * v)
        c = (1 - u * u) * (1 - v * v) / ((1 + u * u) * (1 + v * v))
        E = _rand_pos(rng)
        if trial % 4 == 0:
            F_, G = -E * (a * b + c), E
        elif trial % 4 == 1:
            F_, G = -E * (a * b - c), E
        else:
            F_ = rng.choice([Fraction(0), _rand_pos(rng, 8) - 1])
            G = rng.choice([E, _rand_pos(rng)])
        expected = G == E and F_ in (-E * (a * b + c), -E * (a * b - c))
        return {"a": a, "b": b, "E": E, "F": F_, "G": G}, expected

    def draw_n6_2(rng, trial):
        p, E = _rand_pos(rng), _rand_pos(rng)
        plus = E * p * p / (p + 1) ** 2
        minus = E * p * p / (p - 1) ** 2 if p != 1 else None
        if trial % 4 == 0:
            F_, G = Fraction(0), plus
        elif trial % 4 == 1 and minus is not None:
            F_, G = Fraction(0), minus
        else:
            F_ = rng.choice([Fraction(0), _rand_pos(rng, 8) - 1])
            G = _rand_pos(rng)
        expected = F_ == 0 and (G == plus or (minus is not None and G == minus))
        return {"r": p * p, "E": E, "F": F_, "G": G}, expected

    def draw_n5_2(rng, trial):
        E = _rand_pos(rng)
        G = E if trial % 2 == 0 else _rand_pos(rng)
        return {"E": E, "G": G}, E == G

    run_family("h3c", "h3C_R", draw_h3c)
    run_family("h3h3", "h3_h3_R", draw_h3h3)
    run_family("n6_2", "n6_2_R", draw_n6_2)
    run_family("n5_2", "n5_2_R2", draw_n5_2)


# --------------------------------------------------------------------------
# 6. nilsoliton metrics: every pinned one is recognized exactly (soliton
#    constant and zero residual) and the purely-coclosed verdict on each
#    matches the pinned table
# --------------------------------------------------------------------------

SOLITON_CONSTANTS = {
    "h3_R4": F("-3/2"), "h5_R2": F(-2), "h7": F("-5/2"), "n5_2_R2": F(-2),
    "h3_h3_R": F("-3/2"), "h3C_R": F(-3), "n6_2_R": F("-5/2"),
    "n6_3_R": F("-5/2"), "n7_3_A": F("-5/2"), "n7_3_B": F("-7/4"),
    "n7_3_B1": F("-7/2"), "n7_3_C": F(-3), "n7_3_D": F(-2), "n7_3_D1": F(-4),
}

PURELY_ON_NILSOLITON = {
    "h3_R4": False, "h5_R2": True, "h7": False, "n5_2_R2": True,
    "h3_h3_R": False, "h3C_R": True, "n6_2_R": False, "n6_3_R": False,
    "n7_3_A": False, "n7_3_B": False, "n7_3_B1": False, "n7_3_C": True,
    "n7_3_D": True, "n7_3_D1": True,
}


def test_c06_nilsoliton_metrics_and_purely_verdicts():
    seen = set()
    for entry in map(catalog.get, catalog.names()):
        g = entry.nilsoliton_metric
        if g is None:
            assert entry.name in {"n7_2_A", "n7_2_B"}
            continue
        seen.add(entry.name)
        rep = is_nilsoliton(entry.algebra, g)
        assert rep.is_nilsoliton, entry.name
        assert rep.residual == 0, entry.name
        assert rep.soliton_constant == SOLITON_CONSTANTS[entry.name], entry.name
        verdict = purely_coclosed_exists(entry.algebra, g).exists
        assert verdict == PURELY_ON_NILSOLITON[entry.name], entry.name
        assert verdict == entry.nilsoliton_purely_coclosed, entry.name
    assert seen == set(SOLITON_CONSTANTS)


# --------------------------------------------------------------------------
# 7. orthogonal symmetrization: 10^4 feasible instances produce orthogonal P
#    (<1e-12) with MP symmetric trace-free (<1e-9); on 10^4 generic matrices
#    the feasibility verdict matches the trace identity evaluated directly
# --------------------------------------------------------------------------

def _rand_orthogonal(rng):
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def test_c07_symmetrization_property_suite():
    rng = random.Random(SEED + 7)
    eye = np.eye(3)
    for _ in range(10_000):
        a = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
        s = (a + a.T) / 2
        s -= eye * (np.trace(s) / 3)
        M = s @ _rand_orthogonal(rng).T
        out = symmetrize_M(M.tolist())
        P = np.array(out["P"])
        assert np.max(np.abs(P @ P.T - eye)) < 1e-12
        MP = M @ P
        assert np.max(np.abs(MP - MP.T)) < 1e-9
        assert abs(np.trace(MP)) < 1e-9

    tested = 0
    for _ in range(10_000):
        M = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
        S = 0.5 * (M.T @ M)
        lhs, rhs = np.trace(S) ** 2, 2 * np.trace(S @ S)
        scale = 1 + abs(lhs) + abs(rhs)
        if abs(lhs - rhs) < 1e-6 * scale:
            continue  # too close to the feasibility surface to classify in float
        feasible = abs(lhs - rhs) <= 1e-9 * scale
        try:
            symmetrize_M(M.tolist())
            got = True
        except DegenerateError:
            got = False
        assert got == feasible
        tested += 1
    assert tested >= 9990


# --------------------------------------------------------------------------
# 8. oracle identities: d² = 0 exhaustively over the catalog; the Hodge star
#    is an involution; a ∧ *b = <a,b> vol; and the j-map satisfies its
#    defining identity and skewness — all in exact arithmetic
# --------------------------------------------------------------------------

def _rand_frac(rng, lo=-3, hi=3, den=2):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _exact_det(rows):
    n = len(rows)
    m = [list(r) for r in rows]
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
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def _rand_spd_square(rng, dim=7):
    while True:
        a = [[_rand_frac(rng) for _ in range(dim)] for _ in range(dim)]
        if _exact_det(a):
            return [[sum(a[k][i] * a[k][j] for k in range(dim))
                     for j in range(dim)] for i in range(dim)]


def _rand_form(rng, deg, nterms=5):
    if deg == 0:
        return KForm.from_terms(7, 0, {(): _rand_frac(rng)})
    terms = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(1, 8), deg)))
        terms[idx] = _rand_frac(rng)
    return KForm.from_terms(7, deg, terms)


def _rand_two_step(rng, derived):
    gens = 7 - derived
    struct = [None] * gens
    for _ in range(derived):
        two_form = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, gens - 1)
            j = rng.randint(i + 1, gens)
            two_form[(i, j)] = rng.choice((1, -1, 2))
        struct.append(two_form)
    return LieAlgebra.from_structure("random", struct)


def test_c08_oracle_identities_exact():
    # d² = 0 on every basis form of every catalog algebra
    for entry in map(catalog.get, catalog.names()):
        L = entry.algebra
        for deg in range(0, 8):
            if deg == 0:
                forms = [KForm.from_terms(7, 0, {(): Fraction(1)})]
            else:
                forms = [KForm.basis(7, idx)
                         for idx in itertools.combinations(range(1, 8), deg)]
            for form in forms:
                assert not L.ce_diff(L.ce_diff(form)), (entry.name, deg)

    # Hodge involution on 200 random exact metrics (orientation varied)
    rng = random.Random(SEED + 8)
    for _ in range(200):
        g = _rand_spd_square(rng)
        orient = rng.choice((1, -1))
        a = _rand_form(rng, rng.randint(0, 7))
        assert hodge(hodge(a, g, orient), g, orient) == a

    # a ∧ *b = <a, b> vol on 200 random pairs
    for _ in range(200):
        g = _rand_spd_square(rng)
        k = rng.randint(0, 7)
        a, b = _rand_form(rng, k), _rand_form(rng, k)
        vol = volume_form(g, Mode.EXACT)
        assert a.wedge(hodge(b, g)) == vol * form_inner(a, b, g)

    # j-map: defining identity and skewness on 200 random triples
    basis = [tuple(Fraction(int(i == k)) for i in range(7)) for k in range(7)]
    for _ in range(200):
        L = _rand_two_step(rng, rng.randint(1, 3))
        a = [[_rand_frac(rng) for _ in range(7)] for _ in range(7)]
        g = Metric([[sum(a[k][i] * a[k][j] for k in range(7)) + (i == j)
                     for j in range(7)] for i in range(7)])
        z = [sum(_rand_frac(rng) * w[i] for w in L.derived_basis())
             for i in range(7)]
        J = jz_matrix(L, g, z, basis)
        x = [_rand_frac(rng) for _ in range(7)]
        y = [_rand_frac(rng) for _ in range(7)]
        jx = [sum(J[i][j] * x[j] for j in range(7)) for i in range(7)]
        jy = [sum(J[i][j] * y[j] for j in range(7)) for i in range(7)]
        assert g.inner(jx, y) == g.inner(z, L.bracket(x, y))
        assert g.inner(jx, y) == -g.inner(jy, x)


# --------------------------------------------------------------------------
# 9. the three-parameter coframe family: always coclosed, and purely
#    coclosed exactly on the plane a + b + c = 0
# --------------------------------------------------------------------------

def test_c09_family_coframe_plane_rule():
    fx = catalog.load_fixture("n7_3_A_family.json")
    L = catalog.get("n7_3_A").algebra
    rng = random.Random(SEED + 9)

    def verdicts(a, b, c):
        cof = catalog.coframe_from_fixture(fx, {"a": a, "b": b, "c": c})
        rep = torsion_class(L, G2Structure.from_coframe(cof))
        return rep.coclosed, rep.purely_coclosed

    # 100 random triples: coclosed every time, purely iff the sum vanishes
    for trial in range(100):
        a = _rand_frac(rng) or Fraction(1)
        b = _rand_frac(rng) or Fraction(1)
        if trial % 2 == 0 and a + b != 0:
            c = -(a + b)
        else:
            c = _rand_frac(rng) or Fraction(1)
        if not c:
            c = Fraction(1)
        coclosed, purely = verdicts(a, b, c)
        assert coclosed
        assert purely == (a + b + c == 0)

    # a 21-point slice of the plane a + b + c = 0
    for k in range(21):
        a = 1 + Fraction(k, 10)
        coclosed, purely = verdicts(a, Fraction(1), -a - 1)
        assert coclosed and purely

    # 50 triples off the plane
    for _ in range(50):
        while True:
            a, b, c = (_rand_frac(rng) or Fraction(1) for _ in range(3))
            if a and b and c and a + b + c != 0:
                break
        coclosed, purely = verdicts(a, b, c)
        assert coclosed and not purely
