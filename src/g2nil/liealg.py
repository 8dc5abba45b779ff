"""Nilpotent Lie algebras presented by their structure equations.

An algebra is given by the differentials of the dual basis covectors:
``d e^k`` is a 2-form, and the bracket is recovered from the convention

    (d a)(x, y) = -a([x, y]),

so ``[f_a, f_b] = -sum_k (d e^k)(f_a, f_b) f_k``. Structure constants are
always exact rationals; metrics may be exact or float, and that choice decides
the arithmetic mode of everything downstream.

Ricci curvature is computed only for 2-step algebras, from the nilpotent
Ricci formula in the basis e on cleared metric and structure constants;
`ricci_operator` rejects any other algebra with `UnsupportedAlgebraError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ._linalg import (Mat, Vec, dot, mat_mul, mat_vec, nullspace, row_space_basis, rref,
                      transpose)
from .exterior import (G2nilError, KForm, MetricContext, Mode, ModeMismatchError,
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
        self._tensor: np.ndarray | None = None
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

    def _structure_tensor(self) -> np.ndarray:
        """The float structure tensor c with [f_i, f_j] = sum_k c[k, i, j] f_k
        (0-based), from `_structure`'s float constants; built once, read-only."""
        if self._tensor is None:
            c = np.zeros((self.dim,) * 3)
            for (a, b), col in self._structure(Mode.FLOAT)[1].items():
                for k, x in col:
                    c[k, a - 1, b - 1] = x
            c.flags.writeable = False
            self._tensor = c
        return self._tensor

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
    """Inner product on the algebra, as the Gram matrix of the vector basis.

    Each entry is converted once (`Mode.convert`: a Fraction or a float, kept
    in `rows`) and the matrix is cleared once (`Mode.cleared`): g = G / den,
    with G an integer matrix over the lcm den of the denominators in exact
    mode, and G = g, den = 1 in float mode. The symmetry check runs on G, and
    every later reader (`cleared`, `is_positive_definite`) reads the kept
    (den, G).
    """

    def __init__(self, data, mode: Mode | None = None):
        if mode is None:
            mode = Mode.FLOAT if _has_float(data) else Mode.EXACT
        rows = tuple(tuple(map(mode.convert, row)) for row in data)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("metric must be square")
        entries, den = mode.cleared([x for row in rows for x in row])
        G = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if any(G[i][j] != G[j][i] for i in range(n) for j in range(i)):
            raise ValueError("metric must be symmetric")
        self._keep(mode, rows, den, G)

    @classmethod
    def _from_cleared(cls, G: Mat, den, mode: Mode) -> "Metric":
        """The metric G / den for a matrix G over the scalars of `Mode.cleared`
        (integers with den > 0 in exact mode, floats with den = 1 in float
        mode) that is symmetric by construction, as g = N^T N / den^2 in
        `G2Structure.from_coframe`: nothing is converted or checked again.
        G / den is reduced to lowest terms, so `cleared` gives what
        `Metric(G / den)` would."""
        if den != 1:
            c = math.gcd(den, *(x for row in G for x in row))
            if c > 1:
                G, den = tuple(tuple(x // c for x in row) for row in G), den // c
        n = len(G)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = mode.div(G[i][j], den)
        metric = cls.__new__(cls)
        metric._keep(mode, tuple(map(tuple, rows)), den, G)
        return metric

    def _keep(self, mode: Mode, rows: Mat, den, G: Mat) -> None:
        self.mode = mode
        self.rows = rows
        self.dim = len(rows)
        self._den, self._G = den, G
        self._nonzero = None  # `inner`'s sparse rows, built on first use
        self._ip: Callable | None = None
        self._ctx: MetricContext | None = None

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
        if self._nonzero is None:
            self._nonzero = _sparse_rows(self.rows)
        return _bilinear(self._nonzero, self.mode.convert(0), x, y)

    def cleared(self) -> tuple[Callable, object, Mat]:
        """(ip, den, G) with g = G / den and ip(x, y) = G(x, y), summed like `inner`.

        Exact mode: G is g's integer matrix over the lcm den of its
        denominators, so integer vectors give an integer. Float mode: G = g,
        den = 1, and ip sums like `inner`. (den, G) is kept from construction.
        """
        if self._ip is None:
            self._ip = partial(_bilinear, _sparse_rows(self._G), self.mode.zero)
        return self._ip, self._den, self._G

    def norm_sq(self, x: Sequence):
        return self.inner(x, x)

    def as_vector(self, x: Sequence) -> tuple:
        """x with entries in this metric's scalar type (Fraction or float)."""
        return tuple(map(self.mode.convert, x))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading principal minor of G = den g is
        > 0 (den > 0 keeps g's signs). The minors come from one fraction-free
        elimination of G (`Mode.leading_minors`), which stops at the first
        one <= 0."""
        return all(m > 0 for m in self.mode.leading_minors(self._G))

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


def _sparse_rows(a: Mat) -> tuple:
    """(j, a_ij) for the nonzero entries of each row of a, as `_bilinear` reads them."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)


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
    adj, d, _det = mode.inverse(gram)
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


def _ricci(L: LieAlgebra, g: Metric) -> tuple:
    """(R, q) with the Ricci endomorphism Rc = g^-1 Ric = R / q: integers in
    exact mode, q = 4 in float mode.

    With (c_k)_ab = [e_a, e_b]^k, a 2-step nilpotent metric has, in the basis e,
      Ric = 1/4 g T g - 1/2 sum_kl g_kl c_k g^-1 c_l^T,  T_kl = tr(c_k g^-1 c_l^T g^-1).
    With g = G / den (`Metric.cleared`), G^-1 = H / d (`Mode.inverse`: d = det G
    in exact mode, 1 in float mode), c_k = C_k / s (`LieAlgebra._structure`),
    P_k = C_k H and T'_kl = -tr(P_k P_l) (the C_k are skew):
    Rc = den H (G T' G + 2 d sum_kl G_kl P_k C_l) / (4 d^3 s^2).
    """
    if not L.is_two_step():
        raise UnsupportedAlgebraError("the Ricci formula needs a 2-step nilpotent algebra")
    mode, n = g.mode, L.dim
    _ip, den, G = g.cleared()
    H, d, _det = mode.inverse(G)
    _d_terms, brackets, s = L._structure(mode)
    C: dict[int, list[list]] = {}
    for (a, b), col in brackets.items():
        for k, c in col:
            C.setdefault(k, [[0] * n for _ in range(n)])[a - 1][b - 1] = c
    P = {k: mat_mul(Ck, H) for k, Ck in C.items()}
    T = [[-sum(map(dot, P[k], transpose(P[l]))) if k in P and l in P else 0 for l in range(n)]
         for k in range(n)]
    # sum_kl G_kl P_k C_l as the row (P_k)_k times the column (sum_l G_kl C_l)_k
    PC = mat_mul([sum((P[k][a] for k in P), ()) for a in range(n)],
                 [[sum(G[k][l] * C[l][a][b] for l in C) for b in range(n)]
                  for k in P for a in range(n)])
    X = [[x + 2 * d * y for x, y in zip(*rows)] for rows in zip(mat_mul(mat_mul(G, T), G), PC)]
    return tuple(tuple(den * x for x in row) for row in mat_mul(H, X)), 4 * d ** 3 * s * s


def ricci_operator(L: LieAlgebra, g: Metric):
    """Ricci endomorphism Rc = g^-1 Ric of a 2-step nilpotent algebra: `_ricci`'s
    R / q, one division per entry, so an exact metric gives an exact operator.

    A nilsoliton Rc = c id + D (D a derivation) has c = tr(Rc^2) / tr(Rc)
    (Lauret, Math. Ann. 319, 2001), which `is_nilsoliton` reads.
    """
    R, q = _ricci(L, g)
    return tuple(tuple(g.mode.div(x, q) for x in row) for row in R)


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
    """Test whether Rc = c id + D for a derivation D of the algebra.

    tr(Rc D) = 0 for every derivation D (Lauret, Math. Ann. 319, 2001), so
    c = tr(Rc^2) / tr(Rc), and the test is whether Rc - c id is a derivation.
    With Rc = R / q (`_ricci`), N = tr(R) R - tr(R^2) id is a multiple of it
    (tr R, the scalar curvature times q, is negative). The residual is the
    scale-free defect max |N[x, y] - [N x, y] - [x, N y]| / (max |N| max |C|)
    over basis pairs, C the structure numerators of `LieAlgebra._structure`:
    zero exactly, or within the tolerance. Like `ricci_operator`, raises
    UnsupportedAlgebraError unless L is 2-step.
    """
    R, q = _ricci(L, g)
    mode, n = g.mode, L.dim
    tr1 = sum(R[i][i] for i in range(n))
    tr2 = sum(map(dot, R, transpose(R)))
    N = [[tr1 * x - tr2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(R)]
    cols = [_nonzero(col) for col in zip(*N)]  # N e_a, like e[a]: (1-based index, scalar)
    e = [[(a, 1)] for a in range(1, n + 1)]
    worst = max(abs(u - v - w) for a, b in combinations(range(n), 2) for u, v, w in zip(
        mat_vec(N, L._bracket_num(e[a], e[b], mode)), L._bracket_num(cols[a], e[b], mode),
        L._bracket_num(e[a], cols[b], mode)))
    scale = max(abs(x) for row in N for x in row) * max(
        abs(c) for col in L._structure(mode)[1].values() for _k, c in col)
    residual = mode.div(worst, scale)
    return NilsolitonReport(mode.equal(residual, 0, tol, 1.0), mode.div(tr2, q * tr1),
                            float(residual), mode)
