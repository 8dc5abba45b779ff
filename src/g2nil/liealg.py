"""Nilpotent Lie algebras presented by their structure equations.

An algebra is given by the differentials of the dual basis covectors:
``d e^k`` is a 2-form, and the bracket is recovered from the convention

    (d a)(x, y) = -a([x, y]),

so ``[f_a, f_b] = -sum_k (d e^k)(f_a, f_b) f_k``. Structure constants are
always exact rationals; metrics may be exact or float, and that choice decides
the arithmetic mode of everything downstream.

Ricci curvature is computed only for 2-step algebras, from the j-map
(Eberlein, Ann. Sci. ENS 27, 1994); `ricci_operator` rejects any other
algebra with `UnsupportedAlgebraError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from ._linalg import (Mat, Vec, dot, gram_schmidt_sq, mat_inv, mat_mul, mat_vec, nullspace,
                      row_space_basis, rref, transpose)
from .exterior import (DegenerateError, G2nilError, KForm, MetricContext, Mode, ModeMismatchError,
                       _indices_from_mask, _merge_sign)

__all__ = [
    "LieAlgebra", "Metric", "jz_matrix", "ricci_operator", "NilsolitonReport", "is_nilsoliton",
    "UnsupportedAlgebraError",
]


class UnsupportedAlgebraError(G2nilError):
    """The algebra is outside the supported family (7-dim, 2-step, dim n' <= 3)."""


def _coeff_from_json(c):
    if isinstance(c, float):
        raise ModeMismatchError("structure constants must be exact rationals")
    return Fraction(c)


class LieAlgebra:
    """A Lie algebra of dimension <= 10 with rational structure constants."""

    def __init__(self, name: str, d_forms: Sequence[KForm]):
        self.name = name
        self.dim = len(d_forms)
        for f in d_forms:
            if f.mode is not Mode.EXACT or f.dim != self.dim or f.degree != 2:
                raise ValueError("d must be a list of exact 2-forms, one per covector")
        self.d_forms = tuple(d_forms)
        # per-mode caches: the structure constants cleared once (`_structure`),
        # and the adapted basis as cleared Gram-Schmidt start vectors
        self._constants: dict[Mode, tuple] = {}
        self._starts: dict[Mode, tuple] = {}
        # metric-independent invariants, computed on first use
        self._derived: tuple[Vec, ...] | None = None
        self._center: tuple[Vec, ...] | None = None
        self._two_step: bool | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_structure(cls, name: str, equations: Sequence) -> "LieAlgebra":
        """Each entry describes one d e^k as {(i,j): coeff} or a KForm."""
        dim = len(equations)
        forms = []
        for eq in equations:
            if isinstance(eq, KForm):
                forms.append(eq)
            else:
                forms.append(KForm.from_terms(dim, 2, eq or {}, Mode.EXACT))
        return cls(name, forms)

    def to_json(self) -> dict:
        d = []
        for form in self.d_forms:
            d.append([
                {"idx": list(idx), "c": str(c)}
                for idx, c in form.terms()
            ])
        return {"name": self.name, "dim": self.dim, "d": d}

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        dim = int(data["dim"])
        raw = data.get("d", [])
        if len(raw) != dim:
            raise ValueError("need one structure equation per basis covector")
        eqs = []
        for entry in raw:
            terms = {}
            for t in entry or []:
                idx = tuple(int(i) for i in t["idx"])
                terms[idx] = terms.get(idx, 0) + _coeff_from_json(t["c"])
            eqs.append(terms)
        return cls.from_structure(str(data.get("name", "algebra")), eqs)

    # -- differential and brackets ------------------------------------------

    def _structure(self, mode: Mode) -> tuple:
        """(d_terms, brackets, s), built once per mode from one `Mode.cleared`
        pass over all structure constants, so that every reader shares the
        numerators over one denominator s (integers in exact mode, s = 1 in
        float mode): d e^k = sum of numerator * e^mask over d_terms[k - 1], divided
        by s, and [f_a, f_b] = sum of numerator * f_(k+1) over the (k, numerator)
        pairs of brackets[(a, b)] (a, b 1-based), divided by s."""
        cached = self._constants.get(mode)
        if cached is None:
            nums, s = mode.cleared([mode.convert(c) for f in self.d_forms
                                    for c in f._terms.values()])
            it = iter(nums)
            d_terms = tuple(tuple((m, next(it)) for m in f._terms) for f in self.d_forms)
            n = self.dim
            cols: dict[tuple[int, int], dict[int, object]] = {
                (i, j): {} for i in range(1, n + 1) for j in range(1, n + 1)}
            for k, terms in enumerate(d_terms):
                for m, c in terms:
                    i, j = _indices_from_mask(m)
                    cols[(i, j)][k], cols[(j, i)][k] = -c, c
            brackets = {ij: tuple(sorted(col.items())) for ij, col in cols.items()}
            cached = self._constants[mode] = (d_terms, brackets, s)
        return cached

    def ce_diff(self, form: KForm) -> KForm:
        """Chevalley-Eilenberg differential, extended as an antiderivation:
        `_differential` over the structure constants of `_structure`."""
        if form.dim != self.dim:
            raise ValueError("form dimension mismatch")
        d_terms, _brackets, d_den = self._structure(form.mode)
        return _differential(d_terms, d_den, form)

    def _bracket_num(self, xs: Sequence, ys: Sequence, mode: Mode) -> list:
        """s [x, y] for x and y given by their nonzero (1-based index, scalar)
        pairs (`_nonzero`), with s the denominator of `_structure`: cleared
        integer vectors give integers. The terms are summed in the order
        (index of x, index of y, output index)."""
        brackets = self._structure(mode)[1]
        out = [mode.zero] * self.dim
        for i, ci in xs:
            for j, cj in ys:
                scale = ci * cj
                for k, wk in brackets[(i, j)]:
                    out[k] += scale * wk
        return out

    def bracket_basis(self, a: int, b: int) -> Vec:
        """[f_a, f_b] as an exact coefficient vector (a, b are 1-based)."""
        _d_terms, brackets, s = self._structure(Mode.EXACT)
        out = [Fraction(0)] * self.dim
        for k, c in brackets[(a, b)]:
            out[k] = Fraction(c, s)
        return tuple(out)

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] for vectors given by their coefficient sequences.

        The first nonzero coefficient (of x, else of y, else x[0]) sets the
        mode. If it is a float (numpy's float64 included), the result is a
        vector of Python floats; otherwise the result is exact, and
        `Mode.convert` rejects any later float. The sum `_bracket_num` runs on
        the nonzero coefficients and is divided by s once per entry when
        s is not 1.
        """
        xs, ys = _nonzero(x), _nonzero(y)
        first = xs[0][1] if xs else ys[0][1] if ys else x[0]
        mode = Mode.FLOAT if isinstance(first, float) else Mode.EXACT
        out = self._bracket_num([(i, mode.convert(c)) for i, c in xs],
                                [(j, mode.convert(c)) for j, c in ys], mode)
        s = self._structure(mode)[2]
        return tuple(out if s == 1 else (mode.div(v, s) for v in out))

    # -- distinguished subspaces ---------------------------------------------

    def derived_basis(self) -> tuple[Vec, ...]:
        """Basis of [g, g]; computed once per algebra."""
        if self._derived is None:
            rows = []
            for i in range(1, self.dim + 1):
                for j in range(i + 1, self.dim + 1):
                    w = self.bracket_basis(i, j)
                    if any(w):
                        rows.append(w)
            self._derived = tuple(row_space_basis(tuple(rows))) if rows else ()
        return self._derived

    def center_basis(self) -> tuple[Vec, ...]:
        """Basis of the center; computed once per algebra."""
        if self._center is None:
            rows = []
            for b in range(1, self.dim + 1):
                for k in range(self.dim):
                    row = [self.bracket_basis(a, b)[k] for a in range(1, self.dim + 1)]
                    if any(row):
                        rows.append(tuple(row))
            if rows:
                self._center = tuple(nullspace(tuple(rows)))
            else:
                self._center = tuple(tuple(Fraction(int(i == j)) for j in range(self.dim))
                                     for i in range(self.dim))
        return self._center

    def _gram_schmidt_starts(self, mode: Mode) -> tuple[tuple, ...]:
        """The metric-free basis of R^n adapted to n' ⊂ center that `decompose`
        orthogonalizes, cleared once per mode: the derived basis, then the
        center and then the coordinate vectors that raise the (exact) rank, i.e.
        the pivot columns. Vector v_i comes as (v_i | e_i), cleared to integers
        in exact mode (primitive, since e_i has a 1); the e_i half carries v_i's
        coefficient through Gram-Schmidt, as mat_inv's [A | I] does."""
        starts = self._starts.get(mode)
        if starts is None:
            n = self.dim
            units = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]
            candidates = (*self.derived_basis(), *self.center_basis(), *units)
            _reduced, pivots = rref(transpose(candidates))
            starts = self._starts[mode] = tuple(
                tuple(mode.cleared([mode.convert(x) for x in (*candidates[j], *units[i])])[0])
                for i, j in enumerate(pivots))
        return starts

    def is_two_step(self) -> bool:
        """Nonabelian with [g, [g, g]] = 0, i.e. derived algebra is central."""
        if self._two_step is None:
            derived = self.derived_basis()
            self._two_step = bool(derived) and not any(
                any(self.bracket(w, tuple(Fraction(int(i == b)) for i in range(self.dim))))
                for w in derived for b in range(self.dim))
        return self._two_step

    def d_squared_is_zero(self) -> bool:
        return all(self.ce_diff(f).is_zero(0.0) for f in self.d_forms)

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def _differential(d_terms: Sequence, d_den, form: KForm) -> KForm:
    """The antiderivation d on a form in a basis e^1..e^n, from the differentials
    d e^i = sum of numerator * e^mask over d_terms[i - 1], divided by d_den.

    One pass over cleared numerators (integers in exact mode): for the indices
    i_0 < i_1 < ... of e^m, d(c e^m) = sum_p (-1)^p c d e^(i_p) ^ e^(m - i_p).
    Each e^ab ^ e^rest (a < b) carries the sign (-1)^(number of indices of rest
    between a and b). The sum is divided by the denominators once, at the end.
    Input terms are read in sorted mask order, so a float sum always runs in
    one order.
    """
    mode = form.mode
    masks = sorted(form._terms)
    nums, den = mode.cleared([form._terms[m] for m in masks])
    acc: dict[int, object] = {}
    for m, c in zip(masks, nums):
        bits, pos = m, 0
        while bits:
            low = bits & -bits
            rest = m ^ low
            signed = -c if pos & 1 else c
            for dm, dc in d_terms[low.bit_length() - 1]:
                if not dm & rest:
                    a = dm & -dm
                    t = signed * dc
                    if (rest & ((dm ^ a) - 1) & -a).bit_count() & 1:
                        t = -t
                    acc[dm | rest] = acc.get(dm | rest, 0) + t
            bits ^= low
            pos += 1
    den *= d_den
    return KForm(form.dim, min(form.degree + 1, form.dim),
                 {key: mode.div(v, den) for key, v in acc.items() if v}, mode)


class Metric:
    """Inner product on the algebra, as the Gram matrix of the vector basis."""

    def __init__(self, data, mode: Mode | None = None):
        if mode is None:
            mode = Mode.FLOAT if _has_float(data) else Mode.EXACT
        self.mode = mode
        self._scalar = mode.convert
        self.rows: Mat = tuple(tuple(map(self._scalar, row)) for row in data)
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise ValueError("metric must be square")
        for i in range(self.dim):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("metric must be symmetric")
        self._zero = self._scalar(0)
        # (j, g_ij) for the nonzero entries of each row; the rows are immutable
        self._nonzero = tuple(tuple((j, gij) for j, gij in enumerate(row) if gij)
                              for row in self.rows)
        self._ctx: MetricContext | None = None
        self._G: tuple[Callable, object] | None = None

    @classmethod
    def identity(cls, dim: int, mode: Mode = Mode.EXACT) -> "Metric":
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)], mode)

    @classmethod
    def diagonal(cls, entries, mode: Mode | None = None) -> "Metric":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], mode)

    @property
    def ctx(self) -> MetricContext:
        if self._ctx is None:
            self._ctx = MetricContext(self.rows, self.mode)
        return self._ctx

    def inner(self, x: Sequence, y: Sequence):
        """g(x, y) = sum_i (sum_j g_ij x_j) y_i over the nonzero y_i, g_ij and x_j.

        One loop for both modes: an exact metric gives a Fraction, a float
        metric a float.
        """
        return _bilinear(self._nonzero, self._zero, x, y)

    def cleared(self) -> tuple[Callable, object]:
        """(ip, den) with g = G / den and ip(x, y) = G(x, y), summed like `inner`.

        Exact mode: G is g's integer matrix over the lcm den of its
        denominators, so integer vectors give an integer. Float mode: G = g,
        den = 1, and ip is `inner`. Built once per metric.
        """
        if self._G is None:
            entries, den = self.mode.cleared([x for row in self.rows for x in row])
            n = self.dim
            rows = tuple(tuple((j, x) for j, x in enumerate(entries[i * n:(i + 1) * n]) if x)
                         for i in range(n))
            self._G = partial(_bilinear, rows, self.mode.zero), den
        return self._G

    def norm_sq(self, x: Sequence):
        return self.inner(x, x)

    def as_vector(self, x: Sequence) -> tuple:
        """x with entries in this metric's scalar type (Fraction or float)."""
        return tuple(map(self._scalar, x))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the trailing principal minors D[{k..n}, {k..n}],
        which expanding det D left in the context's table (d > 0 keeps g's signs)."""
        try:
            minor = self.ctx._minors
        except DegenerateError:
            return False
        full = (1 << self.dim) - 1
        return all(minor(m, m) > 0 for m in (full >> k << k for k in range(self.dim)))

    def to_float(self) -> "Metric":
        if self.mode is Mode.FLOAT:
            return self
        return Metric([[float(x) for x in row] for row in self.rows], Mode.FLOAT)

    def to_json(self) -> dict:
        return {"g": [[self.mode.encode(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Metric":
        return cls(data["g"])

    def __repr__(self):
        return f"Metric(dim={self.dim}, mode={self.mode.value})"


def _has_float(data) -> bool:
    return any(isinstance(x, float) for row in data for x in row)


def _nonzero(v: Sequence) -> list:
    """The (1-based index, entry) pairs of v's nonzero entries."""
    return [(i, c) for i, c in enumerate(v, 1) if c]


def _bilinear(rows, zero, x: Sequence, y: Sequence):
    """sum_i (sum_j a_ij x_j) y_i for a matrix given as (j, a_ij) over the
    nonzero entries of each row, skipping zero y_i and x_j; starts at zero."""
    total = zero
    for yi, row in zip(y, rows):
        if yi:
            acc = 0
            for j, gij in row:
                xj = x[j]
                if xj:
                    acc += gij * xj
            if acc:
                total += acc * yi
    return total


def _jmap(L: LieAlgebra, ip: Callable, z: Sequence, basis: Sequence[Sequence],
          mode: Mode) -> tuple:
    """(E, d) with E / d the matrix of j(z) on span(basis), for vectors and
    inner product over cleared scalars (`Metric.cleared`): with G the cleared
    metric, G(j(z) x, y) = G(z, s[x, y]), s the structure denominator. Exact
    mode keeps integers throughout (`Mode.inverse`); float mode is
    mat_inv(gram) times the bracket matrix."""
    m = len(basis)
    gram = tuple(tuple(ip(u, w) for w in basis) for u in basis)
    sparse = [_nonzero(w) for w in basis]
    c = tuple(tuple(ip(z, L._bracket_num(sparse[j], sparse[i], mode)) for j in range(m))
              for i in range(m))
    adj, d = mode.inverse(gram)
    return mat_mul(adj, c), d


def jz_matrix(L: LieAlgebra, g: Metric, z: Sequence, basis: Sequence[Sequence]) -> list[list]:
    """Matrix of the skew map j(z) on the span of `basis`.

    j(z) is defined by g(j(z) x, y) = g(z, [x, y]); columns are coordinates
    with respect to `basis`, which must span a j(z)-invariant subspace. z and
    the basis are cleared to numerators (z = z' / d_z, b_i = b_i' / d_i), and
    `_jmap` gives E / d for them, so entry (i, j) is E_ij d_i / (d s d_z d_j),
    one division.
    """
    mode = g.mode
    (z, dz), *cleared = [mode.cleared([mode.convert(c) for c in v]) for v in (z, *basis)]
    E, d = _jmap(L, g.cleared()[0], z, [v for v, _ in cleared], mode)
    scale = d * L._structure(mode)[2] * dz
    return [[mode.div(e * di, scale * dj) for e, (_, dj) in zip(row, cleared)]
            for row, (_, di) in zip(E, cleared)]


def _unit_vectors(g: Metric) -> list[tuple]:
    return [g.as_vector(int(i == k) for i in range(g.dim)) for k in range(g.dim)]


def ricci_operator(L: LieAlgebra, g: Metric):
    """Ricci endomorphism Rc = g^{-1} Ric of a 2-step nilpotent algebra, from the j-map.

    Take the normalization-free Gram-Schmidt basis z_k of n' with squared
    norms p_k, and A_k = g^{-1} C_k with (C_k)_ab = g(z_k, [e_a, e_b]), so that
    A_k is -j(z_k) in coordinates. Then (Eberlein)
      Rc = 1/2 sum_k A_k^2 / p_k - 1/4 sum_{i,j} tr(A_i A_j) / (p_i p_j) z_j (g z_i)^T:
    the first sum is Rc on the orthocomplement of n', the second Rc on n'.
    Each z_k enters quadratically, so an exact metric gives an exact operator.
    """
    if not L.is_two_step():
        raise UnsupportedAlgebraError("the j-map Ricci formula needs a 2-step nilpotent algebra")
    n = L.dim
    zs, p = gram_schmidt_sq([g.as_vector(z) for z in L.derived_basis()], g.inner)
    g_inv = mat_inv(g.rows)
    gz = [mat_vec(g.rows, z) for z in zs]
    _d_terms, brackets, s = L._structure(g.mode)
    A = []
    for w in gz:
        ws = [g.mode.div(x, s) for x in w]  # g(z_k, .) / s, so C_k reads the numerators
        C = tuple(tuple(sum(ws[k] * c for k, c in brackets[(a, b)] if ws[k])
                        for b in range(1, n + 1)) for a in range(1, n + 1))
        A.append(mat_mul(g_inv, C))
    squares = [(mat_mul(Ak, Ak), 2 * pk) for Ak, pk in zip(A, p)]
    rc = [[sum(sq[a][b] / d for sq, d in squares) for b in range(n)] for a in range(n)]
    AT = [transpose(Ak) for Ak in A]
    for j, zj in enumerate(zs):
        # Rc -= z_j u^T with u = sum_i tr(A_i A_j) / (4 p_i p_j) g z_i
        u = [g._zero] * n
        for i, wi in enumerate(gz):
            c = sum(dot(row, col) for row, col in zip(A[i], AT[j])) / (4 * p[i] * p[j])
            if c:
                u = [x + c * y for x, y in zip(u, wi)]
        for a, za in enumerate(zj):
            if za:
                rc[a] = [x - za * y for x, y in zip(rc[a], u)]
    return tuple(map(tuple, rc))


@dataclass
class NilsolitonReport:
    is_nilsoliton: bool
    soliton_constant: object
    residual: float
    mode: Mode

    def to_json(self) -> dict:
        return {
            "is_nilsoliton": self.is_nilsoliton,
            "soliton_constant": self.mode.encode(self.soliton_constant),
            "residual": float(self.residual),
            "mode": self.mode.value,
        }


def is_nilsoliton(L: LieAlgebra, g: Metric, tol: float | None = None) -> NilsolitonReport:
    """Test whether Ric = c*id + D for a derivation D of the algebra.

    Equivalently K(x,y) + lam*[x,y] = 0 for all basis pairs, where
    K(x,y) = Rc[x,y] - [Rc x, y] - [x, Rc y]; lam is found by least squares
    and the residual must vanish (exactly, or within the tolerance). Like
    `ricci_operator`, raises UnsupportedAlgebraError unless L is 2-step.
    """
    rc = ricci_operator(L, g)
    basis = _unit_vectors(g)
    pairs = []
    for a, x in enumerate(basis):
        for y in basis[a + 1:]:
            B = L.bracket(x, y)
            K_vec = tuple(
                u - v - w for u, v, w in zip(
                    mat_vec(rc, B), L.bracket(mat_vec(rc, x), y), L.bracket(x, mat_vec(rc, y))))
            pairs.append((K_vec, B))

    # nonzero: ricci_operator rejected abelian algebras
    denom = sum(g.inner(B, B) for _, B in pairs)
    num = sum(g.inner(K, B) for K, B in pairs)
    lam = -num / denom

    # zero entries cannot raise a maximum, and most entries are zero
    worst = max((abs(k + lam * b) for K, B in pairs for k, b in zip(K, B) if k or b),
                default=0.0)
    scale = 1.0 + max((abs(float(x)) for K, _ in pairs for x in K if x), default=0.0) \
        + max((abs(float(x)) for _, B in pairs for x in B if x), default=0.0)
    return NilsolitonReport(g.mode.equal(worst, 0, tol, scale), lam, float(worst), g.mode)
