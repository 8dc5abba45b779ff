"""Exterior algebra on a based vector space of dimension <= 10.

Forms are stored sparsely: a k-form is a dict keyed by bitmasks of basis
indices (bit i-1 set means the basis covector e^i occurs), so wedge products
and contractions are integer bit-twiddling plus scalar arithmetic.

Two scalar modes are supported and never mixed:

* EXACT  — coefficients are int / Fraction; comparisons are literal equality.
* FLOAT  — coefficients are float; comparisons use a relative tolerance.

The vector-space metric enters only through `hodge`, `form_inner` and
`volume_form`; it is given as the Gram matrix of the *vectors*, so covector
inner products use its inverse.
"""
from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import sqrt as _fsqrt
from numbers import Real

from ._linalg import Mat, mat, mat_det, mat_inv, rational_root, rational_sqrt

MAX_DIM = 10

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV = "G2NIL_TOLERANCE"


class G2nilError(Exception):
    """Base class for errors raised by this package."""


class ModeMismatchError(G2nilError):
    """Exact and float data were combined in one operation."""


class ExactnessError(G2nilError):
    """An exact-mode computation hit an irrational value (e.g. sqrt(det g))."""


class DegenerateError(G2nilError):
    """A coframe / 3-form / metric fails the required nondegeneracy."""


class Mode(Enum):
    EXACT = "exact"
    FLOAT = "float"


def resolve_tolerance(tol: float | None = None) -> float:
    """Explicit argument > environment variable > package default."""
    if tol is not None:
        return float(tol)
    env = os.environ.get(TOLERANCE_ENV)
    if env is not None:
        return float(env)
    return DEFAULT_TOLERANCE


def close(lhs: float, rhs: float, tol: float | None = None) -> bool:
    """Relative comparison |lhs - rhs| <= tol * (1 + |lhs| + |rhs|)."""
    eps = resolve_tolerance(tol)
    return abs(lhs - rhs) <= eps * (1.0 + abs(lhs) + abs(rhs))


def _check_exact_scalar(c):
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise ModeMismatchError(f"exact form requires int/Fraction coefficients, got {c!r}")
    return c


def _check_float_scalar(c):
    if isinstance(c, bool) or not isinstance(c, Real):
        raise ModeMismatchError(f"float form requires real coefficients, got {c!r}")
    return float(c)


def _mask_from_indices(indices, dim: int) -> tuple[int, int]:
    """Bitmask and reordering sign for a tuple of 1-based indices."""
    sign = 1
    mask = 0
    seen = list(indices)
    # insertion sort, tracking parity
    for i in range(1, len(seen)):
        j = i
        while j > 0 and seen[j - 1] > seen[j]:
            seen[j - 1], seen[j] = seen[j], seen[j - 1]
            sign = -sign
            j -= 1
    for idx in seen:
        if not 1 <= idx <= dim:
            raise ValueError(f"index {idx} out of range 1..{dim}")
        bit = 1 << (idx - 1)
        if mask & bit:
            return 0, 0  # repeated index
        mask |= bit
    return mask, sign

def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _merge_sign(m1: int, m2: int) -> int:
    """Sign of sorting the concatenation (indices of m1, indices of m2)."""
    inversions = 0
    m = m1
    while m:
        low = m & -m
        inversions += (m2 & (low - 1)).bit_count()
        m ^= low
    return -1 if inversions & 1 else 1


class KForm:
    """Sparse alternating k-form with exact or float coefficients."""

    __slots__ = ("dim", "degree", "mode", "_terms")

    def __init__(self, dim: int, degree: int, terms: dict[int, object], mode: Mode):
        if not 0 < dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        if not 0 <= degree <= dim:
            raise ValueError("degree out of range")
        self.dim = dim
        self.degree = degree
        self.mode = mode
        self._terms = {m: c for m, c in terms.items() if c != 0}

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int, mode: Mode = Mode.EXACT) -> "KForm":
        return cls(dim, degree, {}, mode)

    @classmethod
    def from_terms(cls, dim: int, degree: int, terms, mode: Mode = Mode.EXACT) -> "KForm":
        """Build from {(i1,...,ik): coefficient}; indices are 1-based."""
        check = _check_exact_scalar if mode is Mode.EXACT else _check_float_scalar
        acc: dict[int, object] = {}
        for idx, c in terms.items():
            if isinstance(idx, int):
                idx = (idx,)
            if len(idx) != degree:
                raise ValueError(f"term {idx} does not have degree {degree}")
            mask, sign = _mask_from_indices(idx, dim)
            if sign == 0:
                continue
            acc[mask] = acc.get(mask, 0) + sign * check(c)
        return cls(dim, degree, acc, mode)

    @classmethod
    def basis(cls, dim: int, indices, mode: Mode = Mode.EXACT) -> "KForm":
        if isinstance(indices, int):
            indices = (indices,)
        one = 1 if mode is Mode.EXACT else 1.0
        return cls.from_terms(dim, len(indices), {tuple(indices): one}, mode)

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        return [(_indices_from_mask(m), c) for m, c in sorted(self._terms.items())]

    def coeff(self, indices):
        if isinstance(indices, int):
            indices = (indices,)
        mask, sign = _mask_from_indices(indices, self.dim)
        if sign == 0:
            return 0 if self.mode is Mode.EXACT else 0.0
        zero = 0 if self.mode is Mode.EXACT else 0.0
        return sign * self._terms.get(mask, zero)

    def max_abs(self) -> float:
        return max((abs(float(c)) for c in self._terms.values()), default=0.0)

    def is_zero(self, tol: float | None = None) -> bool:
        if self.mode is Mode.EXACT:
            return not self._terms
        return self.max_abs() <= resolve_tolerance(tol)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.mode == other.mode
                and (self - other).is_zero(0.0))

    def __hash__(self):
        return hash((self.dim, self.degree, self.mode, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for idx, c in self.terms():
            label = "e" + "".join(str(i) for i in idx) if idx else "1"
            parts.append(f"{c}*{label}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- linear structure --------------------------------------------------

    def _require_same(self, other: "KForm"):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("form shape mismatch")
        if self.mode is not other.mode:
            raise ModeMismatchError("cannot combine exact and float forms")

    def __add__(self, other: "KForm") -> "KForm":
        self._require_same(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return KForm(self.dim, self.degree, acc, self.mode)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.degree, {m: -c for m, c in self._terms.items()}, self.mode)

    def __mul__(self, scalar) -> "KForm":
        if isinstance(scalar, KForm):
            return NotImplemented
        c0 = _check_exact_scalar(scalar) if self.mode is Mode.EXACT else _check_float_scalar(scalar)
        return KForm(self.dim, self.degree, {m: c * c0 for m, c in self._terms.items()}, self.mode)

    __rmul__ = __mul__

    # -- multiplicative structure -------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        if self.dim != other.dim:
            raise ValueError("forms live on different spaces")
        if self.mode is not other.mode:
            raise ModeMismatchError("cannot wedge exact and float forms")
        degree = self.degree + other.degree
        if degree > self.dim:
            return KForm.zero(self.dim, min(degree, self.dim), self.mode)
        acc: dict[int, object] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                if not ma & mb:
                    m = ma | mb
                    acc[m] = acc.get(m, 0) + _merge_sign(ma, mb) * ca * cb
        return KForm(self.dim, degree, acc, self.mode)

    def interior(self, vector) -> "KForm":
        """Contraction v ⌟ α for a vector given by its basis coefficients."""
        if len(vector) != self.dim:
            raise ValueError("vector length mismatch")
        if self.degree == 0:
            return KForm.zero(self.dim, 0, self.mode)
        acc: dict[int, object] = {}
        for m, c in self._terms.items():
            rest = m
            pos = 0
            while rest:
                low = rest & -rest
                i = low.bit_length()  # 1-based index
                v = vector[i - 1]
                if v != 0:
                    sign = -1 if pos & 1 else 1
                    nm = m ^ low
                    acc[nm] = acc.get(nm, 0) + sign * v * c
                rest ^= low
                pos += 1
        return KForm(self.dim, self.degree - 1, acc, self.mode)

    def to_float(self) -> "KForm":
        if self.mode is Mode.FLOAT:
            return self
        return KForm(self.dim, self.degree, {m: float(c) for m, c in self._terms.items()}, Mode.FLOAT)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for idx, c in self.terms():
            if self.mode is Mode.EXACT:
                f = Fraction(c)
                terms.append({"idx": list(idx), "num": f.numerator, "den": f.denominator})
            else:
                terms.append({"idx": list(idx), "val": c})
        return {"dim": self.dim, "degree": self.degree, "mode": self.mode.value, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "KForm":
        mode = Mode(data.get("mode", "exact"))
        terms = {}
        for t in data.get("terms", []):
            idx = tuple(t["idx"])
            if "val" in t:
                c = float(t["val"])
                if mode is Mode.EXACT:
                    raise ModeMismatchError("float term in exact form")
            else:
                c = Fraction(t["num"], t.get("den", 1))
                if mode is Mode.FLOAT:
                    c = float(c)
            terms[idx] = terms.get(idx, 0) + c
        return cls.from_terms(data["dim"], data["degree"], terms, mode)


def top_wedge_coeff(a: KForm, b: KForm):
    """Coefficient of e^{1..n} in a ∧ b, via complement lookups."""
    if a.dim != b.dim:
        raise ValueError("forms live on different spaces")
    if a.mode is not b.mode:
        raise ModeMismatchError("cannot wedge exact and float forms")
    n = a.dim
    if a.degree + b.degree != n:
        raise ValueError("degrees do not sum to the dimension")
    full = (1 << n) - 1
    total = 0 if a.mode is Mode.EXACT else 0.0
    for ma, ca in a._terms.items():
        cb = b._terms.get(full ^ ma)
        if cb is not None:
            total += _merge_sign(ma, full ^ ma) * ca * cb
    return total


def wedge(*forms: KForm) -> KForm:
    if not forms:
        raise ValueError("need at least one form")
    out = forms[0]
    for f in forms[1:]:
        out = out.wedge(f)
    return out


def interior(vector, form: KForm) -> KForm:
    return form.interior(vector)


# -- metric-dependent operations ---------------------------------------------


def _matrix_for(g, mode: Mode) -> Mat:
    """g with entries in the mode's scalar type (Fraction or float)."""
    if mode is Mode.FLOAT:
        return tuple(tuple(float(x) for x in row) for row in g)
    return g if isinstance(g, tuple) and g and isinstance(g[0], tuple) else mat(g)


class MetricContext:
    """Precomputed covector Gram data for hodge/inner computations.

    Wraps the vector Gram matrix g; covector inner products use G = g^{-1}.
    Exact contexts carry Fractions, float contexts plain floats.
    """

    __slots__ = ("mode", "dim", "gram_inv", "det_g", "_diag")

    def __init__(self, g, mode: Mode):
        self.mode = mode
        gm = _matrix_for(g, mode)
        self.dim = n = len(gm)
        self._diag = all(gm[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        if self._diag:
            self.det_g = 1
            for i in range(n):
                self.det_g *= gm[i][i]
        else:
            self.det_g = mat_det(gm)
        if self.det_g == 0:
            raise DegenerateError("metric is singular")
        if self._diag:
            self.gram_inv = tuple(
                tuple((1 / gm[i][i]) if i == j else gm[i][j] for j in range(n))
                for i in range(n))
        else:
            self.gram_inv = mat_inv(gm)

    def sqrt_det(self):
        if self.mode is Mode.EXACT:
            r = rational_sqrt(Fraction(self.det_g))
            if r is None:
                raise ExactnessError(
                    f"sqrt(det g) = sqrt({self.det_g}) is irrational; use float mode")
            return r
        if self.det_g < 0:
            raise DegenerateError("metric has negative determinant")
        return _fsqrt(self.det_g)

    def gram_minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        """det of the covector-Gram submatrix; rows/cols are 1-based."""
        G = self.gram_inv
        if self._diag:
            if rows != cols:
                return 0 * G[0][0]
            prod = 1
            for i in rows:
                prod *= G[i - 1][i - 1]
            return prod
        k = len(rows)
        if k == 1:
            return G[rows[0] - 1][cols[0] - 1]
        if k == 2:
            a, b = rows[0] - 1, rows[1] - 1
            c, d = cols[0] - 1, cols[1] - 1
            return G[a][c] * G[b][d] - G[a][d] * G[b][c]
        return mat_det(tuple(tuple(G[r - 1][c - 1] for c in cols) for r in rows))


def metric_context(g, mode: Mode) -> MetricContext:
    return MetricContext(g, mode)


def form_inner(a: KForm, b: KForm, g, ctx: MetricContext | None = None):
    """Inner product of two k-forms induced by the vector metric g."""
    if a.dim != b.dim or a.degree != b.degree:
        raise ValueError("form shape mismatch")
    if a.mode is not b.mode:
        raise ModeMismatchError("cannot pair exact and float forms")
    ctx = ctx or MetricContext(g, a.mode)
    total = 0 if a.mode is Mode.EXACT else 0.0
    for ma, ca in a._terms.items():
        ia = _indices_from_mask(ma)
        for mb, cb in b._terms.items():
            if ctx._diag and ma != mb:
                continue
            total += ca * cb * ctx.gram_minor(ia, _indices_from_mask(mb))
    return total


def hodge(a: KForm, g, orientation: int = 1, ctx: MetricContext | None = None) -> KForm:
    """Hodge star of a k-form for the vector metric g.

    `orientation=+1` declares e^1 ∧ ... ∧ e^n positively oriented;
    `orientation=-1` flips the sign of the star on every degree.
    Exact mode raises ExactnessError when sqrt(det g) is irrational.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    ctx = ctx or MetricContext(g, a.mode)
    n, k = a.dim, a.degree
    if ctx.dim != n:
        raise ValueError("metric dimension mismatch")
    root = ctx.sqrt_det()
    full = (1 << n) - 1
    acc: dict[int, object] = {}
    if ctx._diag:
        # <e^K, a> collapses to a single term, so iterate over a directly.
        for mk, ck in a._terms.items():
            mj = full ^ mk
            weight = ctx.gram_minor(_indices_from_mask(mk), _indices_from_mask(mk))
            val = _merge_sign(mk, mj) * orientation * root * ck * weight
            if val != 0:
                acc[mj] = acc.get(mj, 0) + val
    else:
        for comb in combinations(range(1, n + 1), n - k):
            mj, _ = _mask_from_indices(comb, n)
            mk = full ^ mj
            ik = _indices_from_mask(mk)
            total = 0 if a.mode is Mode.EXACT else 0.0
            for mb, cb in a._terms.items():
                total += cb * ctx.gram_minor(ik, _indices_from_mask(mb))
            val = _merge_sign(mk, mj) * orientation * root * total
            if val != 0:
                acc[mj] = acc.get(mj, 0) + val
    return KForm(n, n - k, acc, a.mode)


def volume_form(g, mode: Mode, orientation: int = 1, ctx: MetricContext | None = None) -> KForm:
    ctx = ctx or MetricContext(g, mode)
    n = ctx.dim
    root = ctx.sqrt_det()
    top = KForm.basis(n, tuple(range(1, n + 1)), mode)
    return (orientation * root) * top


def forms_close(a: KForm, b: KForm, tol: float | None = None) -> bool:
    """Coefficient-wise comparison, relative to the larger form's scale."""
    if a.dim != b.dim or a.degree != b.degree:
        return False
    if a.mode is Mode.EXACT and b.mode is Mode.EXACT:
        return a == b
    af, bf = a.to_float(), b.to_float()
    eps = resolve_tolerance(tol)
    scale = max(af.max_abs(), bf.max_abs(), 1.0)
    diff = af - bf
    return diff.max_abs() <= eps * scale


def nth_root_exact(x: Fraction, n: int) -> Fraction:
    r = rational_root(Fraction(x), n)
    if r is None:
        raise ExactnessError(f"{x} has no rational {n}-th root; use float mode")
    return r
