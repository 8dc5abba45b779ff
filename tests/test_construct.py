"""Constructive witnesses: adapted coframes realizing the structures the
existence criteria predict, with the induced metric matching the input."""

import importlib
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from g2nil import catalog
from g2nil.construct import _beta_matrices, construct
from g2nil.exterior import DegenerateError, KForm
from g2nil.g2su3 import G2Structure, phi_from_coframe, torsion_class
from g2nil.liealg import LieAlgebra, Metric
from g2nil.structure import decompose, purely_coclosed_exists

structure_module = importlib.import_module("g2nil.structure")

SEED = 86420

H7 = catalog.get("h7").algebra
H3_R4 = catalog.get("h3_R4").algebra
N7_2_A = catalog.get("n7_2_A").algebra
N6_3_R = catalog.get("n6_3_R").algebra
N7_3_C = catalog.get("n7_3_C").algebra


def rand_pos(rng, den=8):
    return Fraction(rng.randint(1, 3 * den), den)


def test_construct_every_catalog_witness():
    built = 0
    for name in catalog.names():
        entry = catalog.get(name)
        g = entry.witness_metric
        if g is None:
            assert not entry.admits_purely_coclosed
            continue
        result = construct(entry.algebra, g, kind="purely")
        assert result.torsion.purely_coclosed
        assert result.metric_residual < 1e-9
        assert result.kind == "purely"
        assert result.case == entry.derived_dim
        built += 1
    assert built == 13


_SCALES = (Fraction(1, 10**10), Fraction(1, 10**4), 1, 10**4, 10**6, 10**10)


@pytest.mark.parametrize("name, lam", [
    pytest.param(name, lam, id=f"{name}-{float(lam):g}")
    for name in catalog.names() if catalog.get(name).witness_rows is not None
    for lam in _SCALES])
def test_construct_scaled_witness(name, lam):
    # every floor in construct is relative to its own input, and the exact
    # metric is decided exactly, so a homothety of a witness metric builds and
    # verifies a coframe at any scale
    entry = catalog.get(name)
    g = Metric([[lam * x for x in row] for row in entry.witness_rows])
    result = construct(entry.algebra, g, kind="purely")
    assert result.torsion.purely_coclosed
    assert result.metric_residual < 1e-9 * max(abs(x) for row in g.rows for x in row)


def test_construction_verifies_independently():
    entry = catalog.get("n7_3_B")
    result = construct(entry.algebra, entry.witness_metric, kind="purely")
    struct = G2Structure.from_coframe(result.coframe)
    rep = torsion_class(entry.algebra, struct)
    assert rep.coclosed and rep.purely_coclosed
    payload = result.to_json()
    assert json.dumps(payload)
    assert len(payload["coframe"]) == 7


def test_construct_rejects_obstructed_inputs():
    for L, g in ((H3_R4, Metric.identity(7)),
                 (N7_2_A, Metric.identity(7)),
                 (N6_3_R, Metric.identity(7))):
        assert not purely_coclosed_exists(L, g).exists
        with pytest.raises(DegenerateError):
            construct(L, g, kind="purely")


def test_construct_coclosed_on_purely_obstructed_metrics():
    # heis3 + R^4 admits coclosed (never purely) structures for every metric
    result = construct(H3_R4, Metric.identity(7), "coclosed")
    assert result.torsion.coclosed
    assert not result.torsion.purely_coclosed
    assert result.metric_residual < 1e-9
    # same for a case-3 metric on the wrong side of the trace identity
    g = Metric.diagonal([1, 1, 1, 1, 1, 1, 2])
    assert not purely_coclosed_exists(N7_3_C, g).exists
    result = construct(N7_3_C, g, "coclosed")
    assert result.torsion.coclosed
    assert result.metric_residual < 1e-9


def test_construct_coclosed_requires_abelian_factor_in_case_2():
    with pytest.raises(DegenerateError):
        construct(N7_2_A, Metric.identity(7), "coclosed")


def test_case1_harmonic_family_loop():
    rng = random.Random(SEED)
    feasible = infeasible = 0
    for trial in range(100):
        if trial % 2 == 0:
            s, t = rand_pos(rng), rand_pos(rng)
            r = s * t / (s + t)
        else:
            r, s, t = rand_pos(rng), rand_pos(rng), rand_pos(rng)
        g = Metric.diagonal([r * r, 1, s * s, 1, t * t, 1, 1])
        x = sorted([r, s, t])
        if 1 / x[0] == 1 / x[1] + 1 / x[2]:
            result = construct(H7, g, kind="purely")
            assert result.torsion.purely_coclosed
            assert result.metric_residual < 1e-9
            feasible += 1
        else:
            with pytest.raises(DegenerateError):
                construct(H7, g, kind="purely")
            infeasible += 1
    assert feasible >= 50 and infeasible >= 30


def test_case2_family_samples_round_trip():
    for fam_name, algebra in (("h3c", "h3C_R"), ("h3h3", "h3_h3_R"), ("n6_2", "n6_2_R")):
        fam = catalog.get_family(fam_name)
        L = catalog.get(algebra).algebra
        for params, expected in fam.samples:
            g = fam.metric(**params)
            if expected:
                result = construct(L, g, kind="purely")
                assert result.torsion.purely_coclosed
                assert result.metric_residual < 1e-9
            else:
                with pytest.raises(DegenerateError):
                    construct(L, g, kind="purely")


def test_case3_random_diagonal_metrics():
    rng = random.Random(SEED + 1)
    agreed = built = 0
    for _ in range(40):
        diag = [rand_pos(rng) for _ in range(7)]
        g = Metric.diagonal(diag)
        rep = purely_coclosed_exists(N6_3_R, g)
        if rep.exists:
            result = construct(N6_3_R, g, kind="purely")
            assert result.metric_residual < 1e-9
            built += 1
        else:
            with pytest.raises(DegenerateError):
                construct(N6_3_R, g, kind="purely")
        agreed += 1
    assert agreed == 40  # criterion and constructor never disagree


def test_construct_kind_validation():
    with pytest.raises(ValueError):
        construct(H7, Metric.identity(7), kind="bogus")


def _coframe_matrix(L, g, kind="purely"):
    made = construct(L, g, kind=kind)
    return np.array([[f.coeff(i) for i in range(1, 8)] for f in made.coframe])


def _nudged(g):
    """g with every entry moved one ulp up, so it stays symmetric."""
    return Metric(np.nextafter(np.array(g.to_float().rows), np.inf).tolist())


def _selfdual_inputs():
    """Every case-2/3 catalog witness and every feasible family sample."""
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.derived_dim in (2, 3) and entry.witness_metric is not None:
            yield name, entry.algebra, entry.witness_metric
    for fam in catalog.families():
        entry = catalog.get(fam.algebra)
        if entry.derived_dim in (2, 3):
            for params, expected in fam.samples:
                if expected:
                    yield f"{fam.name}{params}", entry.algebra, fam.metric(**params)


def test_selfdual_construction_is_stable_under_a_last_bit_change():
    # the coframe is a continuous function of g, with no arbitrary SVD basis
    # in a repeated singular value
    built = 0
    for label, L, g in _selfdual_inputs():
        moved = np.max(np.abs(_coframe_matrix(L, g) - _coframe_matrix(L, _nudged(g))))
        assert moved < 1e-6, label
        built += 1
    assert built == 26


@pytest.mark.parametrize("name", ["h3_h3_R", "n7_3_B1"])
def test_coclosed_construction_is_stable_when_M_has_rank_one(name):
    # M = sigma u v^T at the identity metric: the SVD is arbitrary off u and v
    L, g = catalog.get(name).algebra, Metric.identity(7)
    moved = np.max(np.abs(_coframe_matrix(L, g, "coclosed")
                          - _coframe_matrix(L, _nudged(g), "coclosed")))
    assert moved < 1e-6


@pytest.mark.parametrize("name", ["h3_h3_R", "h3C_R", "n5_2_R2", "n6_2_R"])
def test_case2_coclosed_construction(name):
    L = catalog.get(name).algebra
    g = Metric.diagonal([1, 1, 1, 1, 1, 2, 1])
    result = construct(L, g, "coclosed")
    assert result.case == 2 and result.kind == "coclosed"
    assert result.torsion.coclosed
    assert not result.torsion.purely_coclosed
    assert result.metric_residual < 1e-9


def _orthonormal_rows(rng, gm, k):
    """k g-orthonormal vectors, as rows: Gram-Schmidt of random vectors in g."""
    frame = []
    for _ in range(k):
        v = np.array([rng.uniform(-1.0, 1.0) for _ in range(7)])
        for u in frame:
            v = v - (u @ gm @ v) * u
        frame.append(v / np.sqrt(v @ gm @ v))
    return np.array(frame)


def test_beta_contraction_matches_brackets():
    """The one contraction B_z = -F (sum_k (g z)_k c_k) F^T against
    B_ab = -g(z, [u_a, u_b]) through L.bracket, on every catalog algebra, for
    random float metrics, orthonormal frames of 4, 6 and 7 vectors and z's."""
    rng = random.Random(SEED + 2)
    checked = 0
    for name in catalog.names():
        L = catalog.get(name).algebra
        a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(7)] for _ in range(7)])
        gm = a.T @ a + np.eye(7)
        for k in (4, 6, 7):
            frame = _orthonormal_rows(rng, gm, k)
            zs = np.array([[rng.uniform(-1.0, 1.0) for _ in range(7)] for _ in range(3)])
            for z, B in zip(zs, _beta_matrices(L, gm, zs, frame)):
                want = np.array([[-(z @ gm @ np.array(L.bracket(frame[i].tolist(),
                                                                 frame[j].tolist())))
                                  for j in range(k)] for i in range(k)])
                assert np.max(np.abs(B - want)) <= 1e-13 * np.max(np.abs(want)), name
                assert np.array_equal(B, -B.T)
                checked += 1
    assert checked == 16 * 3 * 3


def _count_calls(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name", ["h7", "h3C_R", "n7_3_B"])
def test_construct_reuses_the_criterion_decomposition(monkeypatch, name):
    """The criterion and then construct on the same L and g: one Gram-Schmidt
    pass and one _beta_coords (none in case 1); construct wedges nothing, and
    phi is pulled back when read."""
    counts = Counter()
    for owner, fn in ((structure_module, "gram_schmidt_sq"),
                      (structure_module, "_beta_coords"), (KForm, "wedge")):
        _count_calls(monkeypatch, counts, owner, fn)
    entry = catalog.get(name)
    L, g = entry.algebra, entry.witness_metric.to_float()
    assert purely_coclosed_exists(L, g).exists
    made = construct(L, g)
    assert counts == Counter(gram_schmidt_sq=1, _beta_coords=int(entry.derived_dim > 1))
    assert made.phi == phi_from_coframe(made.coframe)
    assert counts["wedge"] > 0
    assert made.to_json()["phi"] == made.phi.to_json()


def test_decompose_is_shared_only_for_the_same_objects(monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, structure_module, "gram_schmidt_sq")
    L, other = N7_3_C, catalog.get("n7_3_B").algebra
    g = Metric.diagonal([1, 2, 3, 4, 5, 6, 7])
    D = decompose(L, g)
    assert decompose(L, g) is D
    assert counts["gram_schmidt_sq"] == 1
    equal_rows = decompose(L, Metric(g.rows))
    assert equal_rows is not D and equal_rows.basis == D.basis
    assert counts["gram_schmidt_sq"] == 2
    on_other = decompose(other, g)
    assert on_other is not D and on_other.L is other
    assert counts["gram_schmidt_sq"] == 3
