"""Nilpotent Lie algebras presented by their structure equations.

An algebra is given by the differentials of the dual basis covectors:
``d e^k`` is a 2-form, and the bracket is recovered from the convention

    (d a)(x, y) = -a([x, y]),

so ``[f_a, f_b] = -sum_k (d e^k)(f_a, f_b) f_k``. Structure constants are
always exact rationals; metrics may be exact or float, and that choice decides
the arithmetic mode of everything downstream.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import (Mat, Vec, frac, gram_schmidt_sq, mat_inv, mat_mul, mat_vec, nullspace,
                      row_space_basis)
from .exterior import DegenerateError, KForm, MetricContext, Mode, ModeMismatchError

__all__ = [
    "LieAlgebra", "Metric", "ce_diff", "jz_matrix", "ricci", "ricci_operator",
    "NilsolitonReport", "is_nilsoliton",
]

_ZERO = Fraction(0)


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
        self._d_float = None
        self._brackets: dict[tuple[int, int], Vec] | None = None
        self._brackets_float: dict[tuple[int, int], tuple[float, ...]] | None = None
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
                {"idx": list(idx), "c": str(c if isinstance(c, int) else Fraction(c))}
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

    def _d_for_mode(self, mode: Mode):
        if mode is Mode.EXACT:
            return self.d_forms
        if self._d_float is None:
            self._d_float = tuple(f.to_float() for f in self.d_forms)
        return self._d_float

    def ce_diff(self, form: KForm) -> KForm:
        """Chevalley-Eilenberg differential, extended as an antiderivation."""
        if form.dim != self.dim:
            raise ValueError("form dimension mismatch")
        d_basis = self._d_for_mode(form.mode)
        out = KForm.zero(self.dim, min(form.degree + 1, self.dim), form.mode)
        for idx, c in form.terms():
            for pos, i in enumerate(idx):
                rest = tuple(j for j in idx if j != i)
                piece = d_basis[i - 1]
                if rest:
                    piece = piece.wedge(KForm.basis(self.dim, rest, form.mode))
                sign = -1 if pos & 1 else 1
                out = out + (sign * c) * piece
        return out

    def _bracket_table(self, floats: bool = False) -> dict[tuple[int, int], tuple]:
        """[f_a, f_b] for all basis pairs, as exact (or float) coefficient vectors."""
        if self._brackets is None:
            n = self.dim
            table = {(i, i): (Fraction(0),) * n for i in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    v = [Fraction(0)] * n
                    for k, form in enumerate(self.d_forms):
                        c = form.coeff((i, j))
                        if c:
                            v[k] = -Fraction(c)
                    table[(i, j)] = tuple(v)
                    table[(j, i)] = tuple(-x for x in v)
            self._brackets = table
        if not floats:
            return self._brackets
        if self._brackets_float is None:
            self._brackets_float = {key: tuple(float(c) for c in w)
                                    for key, w in self._brackets.items()}
        return self._brackets_float

    def bracket_basis(self, a: int, b: int) -> Vec:
        """[f_a, f_b] as a coefficient vector (a, b are 1-based)."""
        return self._bracket_table()[(a, b)]

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] for vectors given by their coefficient sequences.

        The first nonzero coefficient (of x, else of y, else x[0]) sets the
        mode. If it is a float (numpy's float64 included), the result is a
        vector of Python floats read off a float copy of the bracket table;
        otherwise the result is exact, and `frac` rejects any later float.
        """
        xs = [(i, c) for i, c in enumerate(x, 1) if c]
        ys = [(j, c) for j, c in enumerate(y, 1) if c]
        floats = isinstance(xs[0][1] if xs else ys[0][1] if ys else x[0], float)
        coerce, zero = (float, 0.0) if floats else (frac, _ZERO)
        table = self._bracket_table(floats)
        xs = [(i, coerce(c)) for i, c in xs]
        ys = [(j, coerce(c)) for j, c in ys]
        out = [zero] * self.dim
        for i, ci in xs:
            for j, cj in ys:
                if i != j:
                    scale = ci * cj
                    for k, wk in enumerate(table[(i, j)]):
                        if wk:
                            out[k] += scale * wk
        return tuple(out)

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


class Metric:
    """Inner product on the algebra, as the Gram matrix of the vector basis."""

    def __init__(self, data, mode: Mode | None = None):
        if mode is None:
            mode = Mode.FLOAT if _has_float(data) else Mode.EXACT
        self.mode = mode
        self._scalar = frac if mode is Mode.EXACT else float
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
        total = self._zero
        for yi, row in zip(y, self._nonzero):
            if yi:
                acc = 0
                for j, gij in row:
                    xj = x[j]
                    if xj:
                        acc += gij * xj
                if acc:
                    total += acc * yi
        return total

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
        if self.mode is Mode.EXACT:
            return {"g": [[str(x) for x in row] for row in self.rows]}
        return {"g": [[float(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Metric":
        return cls(data["g"])

    def __repr__(self):
        return f"Metric(dim={self.dim}, mode={self.mode.value})"


def _has_float(data) -> bool:
    return any(isinstance(x, float) for row in data for x in row)


def ce_diff(L: LieAlgebra, form: KForm) -> KForm:
    return L.ce_diff(form)


def jz_matrix(L: LieAlgebra, g: Metric, z: Sequence, basis: Sequence[Sequence]) -> list[list]:
    """Matrix of the skew map j(z) on the span of `basis`.

    j(z) is defined by g(j(z) x, y) = g(z, [x, y]); columns are coordinates
    with respect to `basis`, which must span a j(z)-invariant subspace.
    """
    m = len(basis)
    z = g.as_vector(z)
    bb = [g.as_vector(w) for w in basis]
    gram = tuple(tuple(g.inner(u, w) for w in bb) for u in bb)
    c = tuple(tuple(g.inner(z, L.bracket(bb[j], bb[i])) for j in range(m))
              for i in range(m))
    return [list(row) for row in mat_mul(mat_inv(gram), c)]


def _unit_vectors(g: Metric) -> list[tuple]:
    return [g.as_vector(int(i == k) for i in range(g.dim)) for k in range(g.dim)]


def ricci(L: LieAlgebra, g: Metric):
    """Ricci tensor of the left-invariant metric, as a bilinear-form matrix.

    For a nilpotent Lie group with orthonormal frame {u_i}:
      Ric(x,y) = -1/2 sum_i g([x,u_i],[y,u_i])
                 + 1/4 sum_{i,j} g([u_i,u_j],x) g([u_i,u_j],y).
    The frame is built by normalization-free Gram-Schmidt, so exact metrics
    give an exact Ricci tensor (each u_i enters the sums quadratically).
    """
    n = L.dim
    basis = _unit_vectors(g)
    ortho, q = gram_schmidt_sq(basis, g.inner)
    bx = [[L.bracket(basis[a], ortho[i]) for i in range(n)] for a in range(n)]
    bij = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = L.bracket(ortho[i], ortho[j])
            if any(w):
                bij[(i, j)] = w

    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            t1 = sum(g.inner(bx[a][i], bx[b][i]) / q[i] for i in range(n))
            t2 = sum(g.inner(w, basis[a]) * g.inner(w, basis[b]) / (q[i] * q[j])
                     for (i, j), w in bij.items())
            # the sum over i < j counts each unordered pair once: 1/4 * 2 = 1/2
            row.append((t2 - t1) / 2)
        rows.append(tuple(row))
    return tuple(rows)


def ricci_operator(L: LieAlgebra, g: Metric):
    """Ricci endomorphism Rc = g^{-1} Ric, as a matrix acting on coordinates."""
    return mat_mul(mat_inv(g.rows), ricci(L, g))


@dataclass
class NilsolitonReport:
    is_nilsoliton: bool
    soliton_constant: object
    residual: float
    mode: Mode

    def to_json(self) -> dict:
        lam = self.soliton_constant
        return {
            "is_nilsoliton": self.is_nilsoliton,
            "soliton_constant": str(lam) if isinstance(lam, Fraction) else float(lam),
            "residual": float(self.residual),
            "mode": self.mode.value,
        }


def is_nilsoliton(L: LieAlgebra, g: Metric, tol: float | None = None) -> NilsolitonReport:
    """Test whether Ric = c*id + D for a derivation D of the algebra.

    Equivalently K(x,y) + lam*[x,y] = 0 for all basis pairs, where
    K(x,y) = Rc[x,y] - [Rc x, y] - [x, Rc y]; lam is found by least squares
    and the residual must vanish (exactly, or within the tolerance).
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

    denom = sum(g.inner(B, B) for _, B in pairs)
    if denom == 0:
        raise DegenerateError("abelian algebra: bracket matrix vanishes")
    num = sum(g.inner(K, B) for K, B in pairs)
    lam = -num / denom

    # zero entries cannot raise a maximum, and most entries are zero
    worst = max((abs(k + lam * b) for K, B in pairs for k, b in zip(K, B) if k or b),
                default=0.0)
    scale = 1.0 + max((abs(float(x)) for K, _ in pairs for x in K if x), default=0.0) \
        + max((abs(float(x)) for _, B in pairs for x in B if x), default=0.0)
    return NilsolitonReport(g.mode.equal(worst, 0, tol, scale), lam, float(worst), g.mode)
