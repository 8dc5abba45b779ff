"""Scalar-generic linear algebra for small matrices.

Everything in this package lives in dimension <= 7, so plain expansion and
elimination are the right tools. Each routine follows the scalar type of its
input: Python ints stay in the integers (`mat_inv`, whose result is not an
integer matrix, promotes them to Fraction), `fractions.Fraction` entries give
exact results, `float` entries give float results. Only the exact coercion
`frac` rejects floats.

Matrices are tuples of tuples; vectors are tuples. `MinorTable` caches the
minors of one matrix, each a Laplace expansion over smaller cached minors;
`mat_det` is its full minor, and `exterior.MetricContext` reads the
complementary minors behind `hodge` from one. `mat_inv` pivots on the
largest |entry|, and `mat_inv_det` also returns the determinant as the signed
product of those pivots.

The exact criteria run on integers throughout and divide once at the end:
`gram_schmidt_sq` takes its projection step as an argument, and
`exterior.Mode.project_out` (integer Gram-Schmidt) and `Mode.inverse` (the
integer adjugate and determinant, by fraction-free Gauss-Jordan elimination)
are the integer steps; the classical `project_out` and `mat_inv_det` are
the float ones.

`dot` and `mat_vec` skip zero factors: the vectors and matrices met here
(basis vectors, diagonal metrics, structure constants) are mostly zeros, and
a product with a zero Fraction costs as much as any other.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce an int / string / Fraction to Fraction.

    Floats are rejected: silently converting them would launder roundoff
    into the exact pipeline.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact arithmetic requires int/str/Fraction, got {x!r}")
    return Fraction(x)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in a)


def dot(u: Sequence, v: Sequence):
    total = type(u[0])(0) if u else 0  # the zero of u's scalar type
    for x, y in zip(u, v):
        if x and y:
            total += x * y
    return total


class MinorTable:
    """The minors det a[R, C] of one square matrix, filled lazily and kept.

    R and C are equal-sized bitmasks of 0-based row and column indices. A
    minor is the Laplace expansion along the lowest row r of R, the sum over
    c in C of (-1)^(position of c in C) a[r][c] det a[R - r, C - c], skipping
    zero entries and reading the smaller minors from the table. No division
    happens: an integer matrix gives integer minors.
    """

    __slots__ = ("_rows", "_shift", "_table")

    def __init__(self, a: Sequence[Sequence]):
        self._rows = a
        self._shift = len(a)
        self._table: dict[int, object] = {0: 1}  # key rows << shift | cols

    def __call__(self, rows: int, cols: int):
        m = self._table.get(rows << self._shift | cols)
        return self._expand(rows, cols) if m is None else m

    def _expand(self, rows: int, cols: int):
        table, shift = self._table, self._shift
        low = rows & -rows
        rest = rows ^ low
        entries = self._rows[low.bit_length() - 1]
        m = 0
        odd = False
        c = cols
        while c:
            bit = c & -c
            x = entries[bit.bit_length() - 1]
            if x:
                sub = table.get(rest << shift | (cols ^ bit))
                if sub is None:
                    sub = self._expand(rest, cols ^ bit)
                if sub:
                    m = m - x * sub if odd else m + x * sub
            odd = not odd
            c ^= bit
        table[rows << shift | cols] = m
        return m


def mat_det(a: Mat):
    """Determinant, as the full minor of a `MinorTable`."""
    full = (1 << len(a)) - 1
    return MinorTable(a)(full, full)


def mat_inv(a: Mat) -> Mat:
    """a^-1 by Gauss-Jordan elimination on [a | I] (`mat_inv_det`)."""
    return mat_inv_det(a)[0]


def mat_inv_det(a: Mat) -> tuple[Mat, object]:
    """(a^-1, det a) by Gauss-Jordan elimination on [a | I]; det a is the signed
    product of the pivots. Int entries are promoted to Fraction, so an integer
    or Fraction matrix gives its exact inverse and a float matrix a float one;
    raises ZeroDivisionError when a is singular."""
    n = len(a)
    kind = type(a[0][0]) if a else Fraction
    if kind is int or kind is Fraction:
        kind, a = Fraction, [[Fraction(x) if type(x) is int else x for x in row] for row in a]
    aug = [list(row) + [kind(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    det = kind(1)
    for col in range(n):
        # the largest |entry| in column col, from row col on
        pivot = max((r for r in range(col, n) if aug[r][col]),
                    key=lambda r: abs(aug[r][col]), default=None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug), det


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (exact input)."""
    if not a:
        return (), ()
    rows = [list(row) for row in a]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def row_space_basis(a: Mat) -> list[Vec]:
    reduced, pivots = rref(a)
    return [reduced[i] for i in range(len(pivots))]


def nullspace(a: Mat) -> list[Vec]:
    """Basis of {v : a @ v = 0}, from the reduced row echelon form."""
    if not a:
        return []
    n_cols = len(a[0])
    reduced, pivots = rref(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def project_out(w: Sequence, u: Sequence, wu, uu) -> Sequence:
    """w - (wu / uu) u, the classical Gram-Schmidt step; w itself when wu = 0."""
    c = wu / uu
    return [x - c * y for x, y in zip(w, u)] if c else w


def gram_schmidt_sq(vectors: Sequence[Sequence], ip: Callable,
                    step: Callable = project_out) -> tuple[list[Vec], list]:
    """Normalization-free Gram-Schmidt.

    Returns an orthogonal (not orthonormal) basis together with the squared
    norms q_i, so exact callers can stay in rational arithmetic: the
    orthonormal vector is w_i / sqrt(q_i), and any expression quadratic in it
    picks up a rational factor 1/q_i. `step(w, u, <w, u>, <u, u>)` removes
    the component of w along u; `exterior.Mode.project_out` gives an integer
    step that returns positive multiples instead. Raises DegenerateError when
    some q_i is not positive (dependent vectors, or an inner product that is
    not positive definite).
    """
    from .exterior import DegenerateError  # exterior imports this module

    ortho: list[Vec] = []
    norms_sq: list = []
    for v in vectors:
        w = list(v)
        for u, q in zip(ortho, norms_sq):
            w = step(w, u, ip(w, u), q)
        q = ip(w, w)
        if not q > 0:
            raise DegenerateError(
                "gram_schmidt_sq: vectors are dependent or the inner product is not positive")
        ortho.append(tuple(w))
        norms_sq.append(q)
    return ortho, norms_sq


def int_nth_root(k: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None."""
    if k < 0:
        raise ValueError("negative radicand")
    if k in (0, 1):
        return k
    if n == 2:
        r = math.isqrt(k)
        return r if r * r == k else None
    lo, hi = 1, 1 << ((k.bit_length() + n - 1) // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < k:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == k else None


def rational_root(x: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a Fraction, or None if irrational.

    Odd n handles negative x (real root); even n requires x >= 0.
    """
    x = Fraction(x)
    sign = 1
    if x < 0:
        if n % 2 == 0:
            return None
        sign, x = -1, -x
    p = int_nth_root(x.numerator, n)
    q = int_nth_root(x.denominator, n)
    if p is None or q is None:
        return None
    return Fraction(sign * p, q)
