"""Constructive witnesses: adapted coframes realizing the structures the
existence criteria predict, with the induced metric matching the input."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from g2nil import catalog
from g2nil.construct import _SIG_M, _SIG_P, _lift_so3_to_so4, _sd_action, construct
from g2nil.exterior import DegenerateError
from g2nil.g2su3 import G2Structure, torsion_class
from g2nil.liealg import LieAlgebra, Metric
from g2nil.structure import purely_coclosed_exists

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


def _rodrigues(n, theta):
    """Rotation of R^3 by theta about the unit axis n."""
    N = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(theta) * N + (1.0 - np.cos(theta)) * N @ N


def _assert_lifts(R):
    """The lift O is in SO(4), rotates the self-dual 2-forms by R and fixes
    the anti-self-dual ones."""
    O = _lift_so3_to_so4(R)
    assert np.max(np.abs(O.T @ O - np.eye(4))) < 1e-12
    assert abs(np.linalg.det(O) - 1.0) < 1e-12
    assert np.max(np.abs(_sd_action(O, _SIG_P) - R)) < 1e-12
    assert np.max(np.abs(_sd_action(O, _SIG_M) - np.eye(3))) < 1e-12


@pytest.mark.parametrize("gap", [1e-2, 2.4e-4, 1e-7, 0.0])
def test_lift_so3_to_so4_near_angle_pi(gap):
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        n = rng.normal(size=3)
        _assert_lifts(_rodrigues(n / np.linalg.norm(n), np.pi - gap))


def test_lift_so3_to_so4_identity_and_random_rotations():
    _assert_lifts(np.eye(3))
    assert np.array_equal(_lift_so3_to_so4(np.eye(3)), np.eye(4))
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        n = rng.normal(size=3)
        _assert_lifts(_rodrigues(n / np.linalg.norm(n), rng.uniform(0.0, np.pi)))
