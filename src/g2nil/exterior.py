"""Exterior algebra on a based vector space of dimension <= 10.

Forms are stored sparsely: a k-form is a dict keyed by bitmasks of basis
indices (bit i-1 set means the basis covector e^i occurs), so wedge products
and contractions are integer bit-twiddling plus scalar arithmetic.

Two scalar modes are supported and never mixed:

* EXACT  — coefficients are int / Fraction; comparisons are literal equality.
* FLOAT  — coefficients are float; comparisons use a relative tolerance.

`Mode` holds every exact/float difference of the package's arithmetic: its
zero, the validation and conversion of scalars, division, real roots,
clearing denominators, sums of quotients, the Gram-Schmidt step, matrix
inversion, leading principal minors and the JSON encoding of a scalar. Code
elsewhere calls these members instead of branching on the mode. The exact
members that take cleared integers (`quotient_sum`, `project_out`, `inverse`,
`leading_minors`) return integers (`inverse` and `leading_minors` divide
only where the quotient is exact), so a computation can run on integers and
divide once at the end; their float branches are the plain float formulas.

Every verdict in the package goes through one of two rules defined here:
`Mode.equal` for two scalars and `KForm.is_zero` for a form. Exact mode never
reads a tolerance; float mode applies `close`, |lhs - rhs| <= tol * scale.

The vector-space metric enters only through `hodge`, `form_inner` and
`volume_form`; it is given as the Gram matrix g of the *vectors*, so covector
inner products are minors of g^{-1}, which `MetricContext` reads as
complementary minors of g's integer matrix (Jacobi's theorem) without inverting g.
"""
from __future__ import annotations

import math
import operator
import os
from enum import Enum
from fractions import Fraction
from itertools import combinations
from numbers import Real

from ._linalg import MinorTable, frac, mat_inv_det, project_out, rational_root

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


class ToleranceError(G2nilError):
    """A tolerance that is not a finite, non-negative number."""


class Mode(Enum):
    """The scalar layer: each member below is the one place that tells the two
    modes apart."""

    EXACT = "exact"
    FLOAT = "float"

    def equal(self, lhs, rhs, tol: float | None = None, scale: float | None = None) -> bool:
        """The verdict rule: lhs == rhs in exact mode, `close` in float mode."""
        if self is Mode.EXACT:
            return lhs == rhs
        return close(lhs, rhs, tol, scale)

    @property
    def zero(self):
        """The additive identity: int 0 or 0.0."""
        return 0 if self is Mode.EXACT else 0.0

    def coerce(self, c):
        """A form coefficient checked for this mode: an int or Fraction kept as
        it is, or any real number as a float; raises ModeMismatchError."""
        if self is Mode.EXACT:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ModeMismatchError(f"exact form requires int/Fraction coefficients, got {c!r}")
            return c
        if isinstance(c, bool) or not isinstance(c, Real):
            raise ModeMismatchError(f"float form requires real coefficients, got {c!r}")
        return float(c)

    def convert(self, x):
        """x (for instance a metric entry) as a Fraction via `frac`, which
        also reads strings and rejects floats, or as a float."""
        return frac(x) if self is Mode.EXACT else float(x)

    def div(self, a, b):
        """a / b: a Fraction of two rationals, or a float."""
        return Fraction(a, b) if self is Mode.EXACT else a / b

    def root(self, x, n: int):
        """The real n-th root of x, negative for odd n and x < 0; None when there
        is none (even n, x < 0) and, in exact mode, when it is irrational."""
        if self is Mode.EXACT:
            return rational_root(x, n)
        if x < 0 and n % 2 == 0:
            return None
        return math.sqrt(x) if n == 2 else math.copysign(abs(x) ** (1.0 / n), x)

    def cleared(self, values) -> tuple[list, int]:
        """(numerators, d) with values = numerators / d: ints over the lcm of the
        denominators in exact mode, the values and d = 1 in float mode."""
        if self is Mode.FLOAT:
            return values, 1
        d = math.lcm(*(x.denominator for x in values))
        return [x.numerator * (d // x.denominator) for x in values], d

    def quotient_sum(self, terms) -> tuple:
        """(n, d) with n / d = sum(a / b for a, b in terms), b > 0: in exact mode
        integers over the lcm of the b (integer terms, nothing divides); in float
        mode the sum term by term and d = 1."""
        if self is Mode.FLOAT:
            return sum(a / b for a, b in terms), 1
        terms = list(terms)
        d = math.lcm(*(b for _, b in terms))
        return sum(a * (d // b) for a, b in terms), d

    def project_out(self, w, u, wu, uu) -> list:
        """The Gram-Schmidt step: w without its component along u, given
        wu = <w, u> and uu = <u, u> > 0. Exact mode takes integer vectors and
        returns (uu w - wu u) / content, a positive multiple of w - (wu / uu) u
        in integers; float mode returns w - (wu / uu) u itself."""
        if self is Mode.FLOAT:
            return project_out(w, u, wu, uu)
        if not wu:
            return w
        v = [uu * x - wu * y for x, y in zip(w, u)]
        c = math.gcd(*v)
        return [x // c for x in v] if c > 1 else v

    def inverse(self, a) -> tuple:
        """(b, d, det a) with a^-1 = b / d: in exact mode the adjugate and
        determinant of an integer matrix, d = det a; in float mode a^-1 itself
        and d = 1, pivoting on the largest entry, with det a the signed product
        of the pivots (`mat_inv_det`). Raises ZeroDivisionError when a is
        singular.

        The exact branch is fraction-free Gauss-Jordan elimination on [a | I]
        (Bareiss 1968): step k replaces every row i != k by (p_k row_i -
        a_ik row_k) / p_(k-1), where p_k is the k-th pivot and p_(-1) = 1; each
        such division is exact. At the end [a | I] has become [p I | p a^-1]
        with p = ±det a, the sign that of the row swaps taken at zero pivots.
        """
        if self is Mode.FLOAT:
            inv, det = mat_inv_det(a)
            return inv, 1, det
        n = len(a)
        rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
        sign, prev = 1, 1
        for k in range(n):
            if not rows[k][k]:
                swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
                if swap is None:
                    raise ZeroDivisionError("singular matrix")
                rows[k], rows[swap] = rows[swap], rows[k]
                sign = -sign
            pk, row_k = rows[k][k], rows[k][k + 1:]
            # columns <= k are never read again (they hold p_k or 0), and a row
            # with a_ik = 0 is only rescaled by p_k / p_(k-1)
            for row in rows[:k] + rows[k + 1:]:
                f = row[k]
                if f:
                    row[k + 1:] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1:], row_k)]
                elif pk != prev:
                    row[k + 1:] = [pk * x // prev for x in row[k + 1:]]
            prev = pk
        det = sign * prev
        return tuple(tuple(sign * x for x in row[n:]) for row in rows), det, det

    def leading_minors(self, a):
        """The leading principal minors det a[:k, :k], k = 1..n, of a square
        matrix, one per step of fraction-free Gaussian elimination without row
        swaps (Bareiss 1968), as a generator: a caller that stops at a minor
        runs no further step.

        The k-th pivot p_k is the k-th minor, and the step after it replaces
        each later row i by (p_k row_i - a_ik row_k) / p_(k-1), with p_0 = 1.
        The division is exact on integers (exact mode) and a float division in
        float mode, where the minors of a metric scaled by t scale by t^k.
        Past a zero minor, the next one is still read; the step after it
        divides by the zero and raises ZeroDivisionError.
        """
        div = operator.floordiv if self is Mode.EXACT else operator.truediv
        rows = [list(row) for row in a]
        prev = 1
        for k, row_k in enumerate(rows):
            pk, tail = row_k[k], row_k[k + 1:]
            yield pk
            for row in rows[k + 1:]:
                f = row[k]
                row[k + 1:] = [div(pk * x - f * y, prev) for x, y in zip(row[k + 1:], tail)]
            prev = pk

    def encode(self, x):
        """A scalar for JSON: the exact value as a string, or a float."""
        return str(x) if self is Mode.EXACT else float(x)


def parse_tolerance(text) -> float:
    """A tolerance as a float; raises ToleranceError unless finite and >= 0."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not 0 <= value < math.inf:  # also rejects NaN
        raise ToleranceError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def resolve_tolerance(tol: float | None = None) -> float:
    """Explicit argument > environment variable > default; the first two are
    checked by `parse_tolerance`."""
    if tol is not None:
        return parse_tolerance(tol)
    env = os.environ.get(TOLERANCE_ENV)
    if env is not None:
        return parse_tolerance(env)
    return DEFAULT_TOLERANCE


def close(lhs: float, rhs: float, tol: float | None = None,
          scale: float | None = None) -> bool:
    """|lhs - rhs| <= tol * scale, the scale defaulting to 1 + |lhs| + |rhs|."""
    if scale is None:
        scale = 1.0 + abs(lhs) + abs(rhs)
    return abs(lhs - rhs) <= resolve_tolerance(tol) * scale


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
        check = mode.coerce
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
        return cls.from_terms(dim, len(indices), {tuple(indices): 1}, mode)

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], object]]:
        return [(_indices_from_mask(m), c) for m, c in sorted(self._terms.items())]

    def coeff(self, indices):
        if isinstance(indices, int):
            indices = (indices,)
        mask, sign = _mask_from_indices(indices, self.dim)
        zero = self.mode.zero
        return sign * self._terms.get(mask, zero) if sign else zero

    def max_abs(self) -> float:
        return max((abs(float(c)) for c in self._terms.values()), default=0.0)

    def is_zero(self, tol: float | None = None, scale: float = 1.0) -> bool:
        """No terms in exact mode; max |coefficient| <= tol * scale in float mode."""
        if self.mode is Mode.EXACT:
            return not self._terms
        return close(self.max_abs(), 0.0, tol, scale)

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
        c0 = self.mode.coerce(scalar)
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
    total = a.mode.zero
    for ma, ca in a._terms.items():
        cb = b._terms.get(full ^ ma)
        if cb is not None:
            total += _merge_sign(ma, full ^ ma) * ca * cb
    return total


# -- metric-dependent operations ---------------------------------------------


def _index_sum_odd(mask: int) -> int:
    """Parity of the sum of the 1-based indices in mask (bits 0, 2, 4, ... are odd)."""
    return (mask & 0x155).bit_count() & 1


class MetricContext:
    """Covector Gram data of one metric g, for hodge/inner computations.

    Covector inner products are minors of G = g^{-1}, which is never formed.
    With g = D / d (exact mode: D an integer matrix, d the lcm of g's
    denominators; float mode: D = g, d = 1), Jacobi's complementary-minor
    theorem gives, for 1-based index sets with |I| = |J| = k,

        det G[I, J] = (-1)^(ΣI+ΣJ) * d^k * det D[J^c, I^c] / det D,

    the d^k turning a k-minor of D^{-1} into one of g^{-1} = d * D^{-1}.
    Every minor of D comes from one `MinorTable` (`_minors`).
    """

    __slots__ = ("mode", "dim", "det_g", "_diag", "_minors", "_d", "_det_d")

    def __init__(self, g, mode: Mode):
        self.mode = mode
        self.dim = n = len(g)
        entries, self._d = mode.cleared([mode.convert(x) for row in g for x in row])
        if len(entries) != n * n:
            raise ValueError("metric must be square")
        self._diag = not any(x for i, x in enumerate(entries) if i % (n + 1))
        self._minors = MinorTable(tuple(entries[i * n:(i + 1) * n] for i in range(n)))
        self._det_d = self._minors((1 << n) - 1, (1 << n) - 1)
        if self._det_d == 0:
            raise DegenerateError("metric is singular")
        self.det_g = mode.div(self._det_d, self._d ** n)

    def sqrt_det(self):
        """sqrt(det g); DegenerateError when det g < 0, and in exact mode
        ExactnessError when the root is irrational."""
        if self.det_g < 0:
            raise DegenerateError("metric has negative determinant")
        r = self.mode.root(self.det_g, 2)
        if r is None:
            raise ExactnessError(
                f"sqrt(det g) = sqrt({self.det_g}) is irrational; use float mode")
        return r

    def gram_minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        """det of the covector-Gram submatrix G[rows, cols]; sorted 1-based indices."""
        return self._gram_minor(_mask_from_indices(rows, self.dim)[0],
                                _mask_from_indices(cols, self.dim)[0])

    def _gram_minor(self, mi: int, mj: int):
        full = (1 << self.dim) - 1
        m = self._minors(full ^ mj, full ^ mi) * self._d ** mi.bit_count()
        return self.mode.div(-m if _index_sum_odd(mi ^ mj) else m, self._det_d)


def form_inner(a: KForm, b: KForm, g, ctx: MetricContext | None = None):
    """Inner product of two k-forms induced by the vector metric g."""
    if a.dim != b.dim or a.degree != b.degree:
        raise ValueError("form shape mismatch")
    if a.mode is not b.mode:
        raise ModeMismatchError("cannot pair exact and float forms")
    ctx = ctx or MetricContext(g, a.mode)
    total = a.mode.zero
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            if ctx._diag and ma != mb:
                continue
            total += ca * cb * ctx._gram_minor(ma, mb)
    return total


def hodge(a: KForm, g, orientation: int = 1, ctx: MetricContext | None = None) -> KForm:
    """Hodge star of a k-form for the vector metric g.

    `orientation=+1` declares e^1 ∧ ... ∧ e^n positively oriented;
    `orientation=-1` flips the sign of the star on every degree.
    A metric with det g < 0 raises DegenerateError in both modes; exact mode
    raises ExactnessError when sqrt(det g) is irrational.

    On a non-diagonal metric, each output coefficient sums a's numerators
    times the minors det D[B^c, J] of `MetricContext` (integers in exact
    mode) and then applies d^k / (den * det D), one division per coefficient.
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
            acc[mj] = _merge_sign(mk, mj) * orientation * root * ck * ctx._gram_minor(mk, mk)
    else:
        nums, den = a.mode.cleared(a._terms.values())
        # (B^c, (-1)^ΣB * numerator of a_B) for each term of a
        signed = [(full ^ mb, -c if _index_sum_odd(mb) else c)
                  for mb, c in zip(a._terms, nums)]
        factor = orientation * root * ctx.mode.div(ctx._d ** k, den * ctx._det_d)
        minor = ctx._minors
        for comb in combinations(range(n), n - k):
            mj = sum(1 << i for i in comb)
            total = 0
            for rows, c in signed:
                m = minor(rows, mj)
                if m:
                    total += c * m
            if total:
                mk = full ^ mj
                sign = -_merge_sign(mk, mj) if _index_sum_odd(mk) else _merge_sign(mk, mj)
                acc[mj] = sign * total * factor
    return KForm(n, n - k, acc, a.mode)


def volume_form(g, mode: Mode, orientation: int = 1, ctx: MetricContext | None = None) -> KForm:
    ctx = ctx or MetricContext(g, mode)
    n = ctx.dim
    root = ctx.sqrt_det()
    top = KForm.basis(n, tuple(range(1, n + 1)), mode)
    return (orientation * root) * top
