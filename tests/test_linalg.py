"""The scalar-generic linear-algebra layer: `dot` and `mat_vec` skip zero
factors and must still equal the dense textbook sums; `mat_det`, `mat_inv`,
`mat_mul` and `gram_schmidt_sq` give exact results on Fractions and agree with
numpy on floats."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil._linalg import (dot, gram_schmidt_sq, mat_det, mat_inv, mat_mul, mat_vec,
                           transpose)
from g2nil.exterior import DegenerateError, MetricContext, Mode
from g2nil.liealg import Metric

# rationals with plenty of exact zeros, as in basis vectors and sparse metrics
FRACTIONS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def vectors(n):
    return st.lists(FRACTIONS, min_size=n, max_size=n).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_dot_equals_dense_sum(uv):
    u, v = uv
    got = dot(u, v)
    assert type(got) is Fraction
    assert got == sum((x * y for x, y in zip(u, v)), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.lists(vectors(n), min_size=1, max_size=7), vectors(n))))
def test_mat_vec_equals_dense_product(av):
    a, v = av
    got = mat_vec(tuple(a), v)
    assert all(type(x) is Fraction for x in got)
    assert got == tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


# -- one code path for both scalar types ---------------------------------------
# mat_det, mat_inv, mat_mul and gram_schmidt_sq follow the scalar type of their
# input: Fractions give exact results, floats give float results.

# well-conditioned float matrices: a dominant diagonal plus bounded noise
FLOAT_MATRICES = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: tuple(tuple(x + (2.0 * n if i == j else 0.0) for j, x in enumerate(row))
                           for i, row in enumerate(rows))))


def fraction_matrices(n):
    return st.lists(vectors(n), min_size=n, max_size=n).map(tuple)


@settings(max_examples=100, deadline=None)
@given(FLOAT_MATRICES)
def test_float_det_and_inv_match_numpy(a):
    ref = np.linalg.det(np.array(a))
    got = mat_det(a)
    assert type(got) is float
    assert abs(got - ref) <= 1e-10 * abs(ref)
    inv = np.array(mat_inv(a))
    ref_inv = np.linalg.inv(np.array(a))
    assert all(type(x) is float for row in mat_inv(a) for x in row)
    assert np.max(np.abs(inv - ref_inv)) <= 1e-10 * np.max(np.abs(ref_inv))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(fraction_matrices))
def test_fraction_inverse_is_exact(a):
    if mat_det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
        return
    n = len(a)
    assert mat_mul(a, mat_inv(a)) == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def test_integer_inverse_is_promoted_to_fractions():
    got = mat_inv(((2, 1), (1, 3)))
    assert got == ((Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5)))
    assert all(type(x) is Fraction for row in got for x in row)


def spd_rows(a):
    """g = I + A^T A: a symmetric positive-definite Gram matrix."""
    n = len(a)
    ata = mat_mul(transpose(a), a)
    return [[ata[i][j] + int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(fraction_matrices))
def test_gram_schmidt_sq_orthogonal_in_both_modes(a):
    n = len(a)
    for g in (Metric(spd_rows(a)), Metric(spd_rows(a)).to_float()):
        basis = [g.as_vector(int(i == k) for i in range(n)) for k in range(n)]
        ortho, q = gram_schmidt_sq(basis, g.inner)
        assert all(type(x) is type(g.rows[0][0]) for w in ortho for x in w)
        for i in range(n):
            for j in range(i):
                if g.mode is Mode.EXACT:
                    assert g.inner(ortho[i], ortho[j]) == 0
                else:
                    assert abs(g.inner(ortho[i], ortho[j])) <= 1e-12 * (q[i] * q[j]) ** 0.5


def test_gram_schmidt_sq_rejects_dependent_vectors():
    for g in (Metric.identity(3), Metric.identity(3, Mode.FLOAT)):
        u = g.as_vector((1, 2, 0))
        with pytest.raises(DegenerateError):
            gram_schmidt_sq([u, tuple(2 * x for x in u)], g.inner)


INDEX_TRIPLES = st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True).map(
    lambda idx: tuple(sorted(idx)))


@settings(max_examples=60, deadline=None)
@given(fraction_matrices(7), INDEX_TRIPLES, INDEX_TRIPLES)
def test_float_gram_minor_3x3_matches_numpy(a, rows_, cols):
    g = [[float(x) for x in row] for row in spd_rows(a)]
    ctx = MetricContext(g, Mode.FLOAT)
    inv = np.linalg.inv(np.array(g))
    ref = np.linalg.det(inv[np.ix_([r - 1 for r in rows_], [c - 1 for c in cols])])
    got = ctx.gram_minor(rows_, cols)
    assert type(got) is float
    assert abs(got - ref) <= 1e-10 * max(abs(ref), np.max(np.abs(inv)) ** 3)
