"""The sparse scalar kernels of the exact layer: `dot` and `mat_vec` skip zero
factors, and must still equal the dense textbook sums."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from g2nil._linalg import dot, mat_vec

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
