"""Exact rational linear algebra for small matrices.

Everything in this package lives in dimension <= 7, so plain Gaussian
elimination over `fractions.Fraction` is the right tool: no pivot-growth
concerns, no external dependencies, and results are exact.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Floats are deliberately rejected here — the float code paths use numpy.

`dot` and `mat_vec` skip zero factors: the vectors and matrices met here
(basis vectors, diagonal metrics, structure constants) are mostly zeros, and
a product with a zero Fraction costs as much as any other.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

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


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in a)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for x, y in zip(u, v):
        if x and y:
            total += x * y
    return total


def mat_det(a: Mat) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    rows = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve(a: Mat, b: Sequence[Fraction]) -> Vec:
    return mat_vec(mat_inv(a), b)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
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


def gram_schmidt_sq(
    vectors: Sequence[Sequence[Fraction]],
    ip: Callable[[Sequence[Fraction], Sequence[Fraction]], Fraction],
) -> tuple[list[Vec], list[Fraction]]:
    """Normalization-free Gram-Schmidt.

    Returns an orthogonal (not orthonormal) basis together with the squared
    norms q_i, so callers can stay in rational arithmetic: the orthonormal
    vector is w_i / sqrt(q_i), and any expression quadratic in it picks up a
    rational factor 1/q_i.
    """
    ortho: list[Vec] = []
    norms_sq: list[Fraction] = []
    for v in vectors:
        w = [frac(x) for x in v]
        for u, q in zip(ortho, norms_sq):
            c = ip(w, u) / q
            if c != 0:
                w = [x - c * y for x, y in zip(w, u)]
        q = ip(w, w)
        if q == 0:
            raise ValueError("gram_schmidt_sq: vectors are linearly dependent")
        ortho.append(tuple(w))
        norms_sq.append(q)
    return ortho, norms_sq


def int_nth_root(k: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None."""
    if k < 0:
        raise ValueError("negative radicand")
    if k in (0, 1):
        return k
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


def rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    return rational_root(x, 2)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a positive integer as a^2 * b with b squarefree; returns (a, b)."""
    if n <= 0:
        raise ValueError("positive integer required")
    a, b = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            a *= d ** (count // 2)
            if count % 2:
                b *= d
        d += 1 if d == 2 else 2
    return a, b * n
