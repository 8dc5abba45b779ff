"""Existence criteria for coclosed and purely coclosed structures.

Everything is driven by the metric decomposition of a 7-dimensional 2-step
nilpotent algebra: the derived algebra n' (dimension 1, 2 or 3), its
orthogonal complement r, and the abelian part a = center ∩ n'-perp, whose
dimension dim(center) - dim(n') is metric independent. One Gram-Schmidt pass
over a metric-independent basis adapted to n' ⊂ center ⊂ R^7 gives orthogonal
bases of n', a and center-perp in both modes; r is center-perp then a, and the
canonical 4-plane is its first four vectors. The basis orients the plane, so
the "+"/"-" label is the same in both modes and is kept by automorphisms that
preserve the orientations of R^7/n' and center/n'.

Exact mode decides on integers throughout. The metric is cleared once to
G = den * g (`Metric.cleared`) and the structure constants to numerators over
one denominator s (`LieAlgebra._structure`); Gram-Schmidt runs on integer
vectors (`Mode.project_out`), which are positive multiples of the rational
ones, and the criteria below are integer sums (`Mode.quotient_sum`,
`Mode.inverse`). Both identities are homogeneous, so den, s and the vectors'
scales leave each verdict alone and come out as one factor: lhs and rhs divide
once, into the same Fractions the rational bases give. Float mode runs the
same code with den = s = 1 and its own float steps, bit for bit the plain
float formulas.

Criteria, by dim n':

* 1 — coclosed always; purely coclosed iff tr^2(A^2) = 4 tr(A^4) for
  A = -j(z), z spanning n' (the condition is scale invariant).
* 2 — coclosed iff a != 0; purely coclosed iff on the canonical oriented
  4-plane the self-dual parts of d(zeta_1), d(zeta_2) are orthogonal with
  equal norms for an orthonormal basis {zeta_i} of (n')*, for one of the two
  orientations. For a symmetric 2x2 Gram matrix S this is tr^2(S) = 2 tr(S^2).
* 3 — coclosed always; purely coclosed iff tr^2(S) = 2 tr(S^2) for the 3x3
  self-dual Gram matrix S, for one of the two orientations.

The self-dual identity is evaluated entry by entry in both modes: with
T = 1/Q, each x = K ± W*sqrt(T) gives tr S = sum x_ii / (2 p_i) and
tr S^2 = sum x_ij x_ji / (4 p_i p_j), where sqrt(T) is rational or a float.
Entry by entry matters in float mode: when S± ≈ 0 the cancellation happens
in each x_ij, so tr^2 S and 2 tr S^2 come out near 1e-32, while summing them
first into x + y*sqrt(T) leaves rounding noise near 1e-15 from the separate
parts. sqrt(T) is rational iff the product Q of the plane's four integer
squared norms is a perfect square (`math.isqrt`). Only an exact metric with
irrational sqrt(T) is decided on components: tr S = A ± B sqrt(T) and
tr S^2 = C ± E sqrt(T) with A, B, C, E rational, and the identity holds iff
A^2 + B^2 T = 2C and AB = E (so the verdict does not depend on the
orientation). Every comparison goes through `Mode.equal`: zero tolerance in
exact mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._linalg import gram_schmidt_sq
from .exterior import (DegenerateError, ExactnessError, KForm, Mode,
                       close, form_inner, resolve_tolerance)
from .liealg import LieAlgebra, Metric, UnsupportedAlgebraError, _jmap, _nonzero

__all__ = [
    "UnsupportedAlgebraError", "MetricDecomposition", "decompose",
    "CriterionReport", "case1_exists", "selfdual_exists",
    "coclosed_exists", "purely_coclosed_exists", "coclosed_always",
    "symmetrize_M", "m_matrix", "sd_basis_forms",
]


# ---------------------------------------------------------------------------
# metric decomposition


@dataclass
class MetricDecomposition:
    """The metric split, from one Gram-Schmidt pass over cleared scalars.

    `basis` is Gram-Schmidt of the adapted basis (n', then a, then
    center-perp) in the cleared metric G = den * g of `Metric.cleared`, with
    `Mode.project_out` as the step: integer vectors in exact mode. Each is
    own[i] > 0 times the vector w_i that Gram-Schmidt over g gives (the
    adapted vector minus its projections), and `norms` are their G-squared
    norms. The public bases divide once: `zs`, `complement`, `abelian` and
    `rtilde` hold the w_i, `p` and `complement_sq` their g-squared norms
    norms[i] / (den own[i]^2), each computed on first use; a vector with
    own[i] = 1 is w_i as it stands (in exact mode its entries stay ints).
    Float mode has den = 1 and own = 1.
    """

    L: LieAlgebra
    g: Metric
    mode: Mode
    nprime: list          # basis of the derived algebra (always exact)
    center: list          # basis of the center (always exact)
    basis: list           # cleared Gram-Schmidt vectors: n', then a, then center-perp
    own: list             # basis[i] = own[i] * w_i
    norms: list           # G(basis[i], basis[i])
    den: object           # g = G / den

    @property
    def derived_dim(self) -> int:
        return len(self.nprime)

    @property
    def abelian_dim(self) -> int:
        return len(self.center) - len(self.nprime)

    @property
    def _r_index(self) -> list[int]:
        """Indices into `basis` of r = n'-perp: center-perp, then a."""
        k, c = len(self.nprime), len(self.center)
        return [*range(c, len(self.basis)), *range(k, c)]

    @property
    def _plane_index(self) -> list[int]:
        """Indices of the canonical oriented 4-plane: the first four of r
        (dim n' in {2, 3}, and a != 0 when dim n' = 2), else none."""
        k = self.derived_dim
        return self._r_index[:4] if k == 3 or (k == 2 and self.abelian_dim) else []

    def _vectors(self, indices) -> list:
        div = self.mode.div
        return [w if c == 1 else tuple(div(x, c) for x in w)
                for w, c in ((self.basis[i], self.own[i]) for i in indices)]

    def _norms_sq(self, indices) -> list:
        return [self.mode.div(self.norms[i], self.den * self.own[i] * self.own[i])
                for i in indices]

    @cached_property
    def zs(self) -> list:
        """Orthogonal basis of n': Gram-Schmidt of nprime."""
        return self._vectors(range(self.derived_dim))

    @cached_property
    def p(self) -> list:
        """Squared norms of zs."""
        return self._norms_sq(range(self.derived_dim))

    @cached_property
    def complement(self) -> list:
        """Orthogonal basis of r = n'-perp: center-perp, then a."""
        return self._vectors(self._r_index)

    @cached_property
    def complement_sq(self) -> list:
        """Squared norms of complement."""
        return self._norms_sq(self._r_index)

    @cached_property
    def abelian(self) -> list:
        """Orthogonal basis of a = center ∩ n'-perp."""
        return self._vectors(range(self.derived_dim, len(self.center)))

    @property
    def rtilde(self) -> list:
        """The canonical oriented 4-plane: complement[:4] (dim n' in {2, 3})."""
        return self.complement[:4] if self._plane_index else []

    @cached_property
    def _beta(self) -> tuple:
        """`_beta_coords` of this decomposition, computed once."""
        return _beta_coords(self)


# the last decomposition made, which `decompose` hands out again
_last: MetricDecomposition | None = None


def decompose(L: LieAlgebra, g: Metric) -> MetricDecomposition:
    """Split the algebra along the metric; entry point for all criteria.

    The last decomposition is kept, and the same L and g objects (matched by
    identity) get it back: a criterion and the construction that follows it
    split the metric, and compute `_beta_coords`, once. It is kept here, not
    on L or g, because it holds both: no reference cycle forms, and neither
    object can be freed for another to take its id while it is kept.
    """
    global _last
    D = _last
    if D is not None and D.L is L and D.g is g:
        return D
    if L.dim != 7:
        raise UnsupportedAlgebraError("expected a 7-dimensional algebra")
    if not L.is_two_step():
        raise UnsupportedAlgebraError("expected a 2-step nilpotent algebra")
    if g.dim != 7:
        raise ValueError("metric dimension mismatch")
    nprime = L.derived_basis()
    if not 1 <= len(nprime) <= 3:
        raise UnsupportedAlgebraError(
            f"derived algebra has dimension {len(nprime)}; supported: 1, 2, 3")
    mode = g.mode
    ip, den, _G = g.cleared()
    # each start vector is (v_i | e_i): its second half ends as v_i's coefficient
    ws, norms = gram_schmidt_sq(L._gram_schmidt_starts(mode), ip, mode.project_out)
    n = L.dim
    D = _last = MetricDecomposition(
        L, g, mode, nprime, L.center_basis(), [w[:n] for w in ws],
        [w[n + i] for i, w in enumerate(ws)], norms, den)
    return D


# ---------------------------------------------------------------------------
# reports


@dataclass
class CriterionReport:
    case: int
    kind: str                      # "purely" or "coclosed"
    exists: bool
    orientation: str | None       # "+", "-" or None
    witness: dict | None
    diagnostics: dict
    mode: Mode

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, (list, tuple)):
                return [enc(v) for v in x]
            if isinstance(x, dict):
                return {k: enc(v) for k, v in x.items()}
            return x
        return {
            "case": self.case,
            "kind": self.kind,
            "exists": self.exists,
            "orientation": self.orientation,
            "witness": enc(self.witness),
            "diagnostics": enc(self.diagnostics),
            "mode": self.mode.value,
        }


# ---------------------------------------------------------------------------
# case 1


def case1_exists(D: MetricDecomposition, tol: float | None = None) -> CriterionReport:
    """Purely coclosed existence for dim n' = 1: tr^2(A^2) = 4 tr(A^4)."""
    if D.derived_dim != 1:
        raise UnsupportedAlgebraError("case 1 requires a 1-dimensional derived algebra")
    mode = D.mode
    E, d = _jmap(D.L, D.g.cleared()[0], D.basis[0], [D.basis[i] for i in D._r_index],
                 mode)
    m = len(E)
    # A = -j(z) for z = nprime[0] is similar to -E / (d s own_0), so tr A^2 and
    # tr A^4 are those of E over the 2nd and 4th power; even powers drop the sign
    E2 = [[sum(E[i][k] * E[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    tr2 = sum(E2[i][i] for i in range(m))
    tr4 = sum(sum(E2[i][k] * E2[k][i] for k in range(m)) for i in range(m))
    unit = (d * D.L._structure(mode)[2] * D.own[0]) ** 4
    lhs, rhs = mode.div(tr2 * tr2, unit), mode.div(4 * tr4, unit)
    exists = mode.equal(lhs, rhs, tol)
    witness = {"z": [str(c) for c in D.nprime[0]]} if exists else None
    return CriterionReport(1, "purely", exists, None, witness,
                           {"lhs": lhs, "rhs": rhs,
                            "identity": "tr^2(A^2) = 4 tr(A^4)"}, D.mode)


# ---------------------------------------------------------------------------
# shared self-dual machinery for cases 2 and 3


def _beta_coords(D: MetricDecomposition):
    """2-forms d(z_i^b) restricted to the canonical 4-plane, over cleared scalars.

    Returns (p, K, W, Q) for the vectors z_i = D.basis[:k] of n' and w_a of
    the plane in the cleared metric G (`MetricDecomposition`):
    p_i = G(z_i, z_i); B_i(a, b) = -G(z_i, s[w_a, w_b]);
    K_ij = sum_ab B_i(a, b) B_j(a, b) / (q_a q_b) as (numerator, denominator)
    from `Mode.quotient_sum`; W_ij = (B_i ∧ B_j)(w_1, w_2, w_3, w_4);
    Q = q_1 q_2 q_3 q_4 with q_a = G(w_a, w_a). Integers in exact mode.
    Positive multiples of the vectors leave the identity's verdict alone;
    `_trace_identity` takes den and s back out.
    """
    L, mode = D.L, D.mode
    ip = D.g.cleared()[0]
    k = D.derived_dim
    zs, p = D.basis[:k], D.norms[:k]
    ws = [_nonzero(D.basis[i]) for i in D._plane_index]
    q = [D.norms[i] for i in D._plane_index]
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    brackets = [L._bracket_num(ws[a], ws[b], mode) for a, b in pairs]
    B = [{ab: -ip(z, w) for ab, w in zip(pairs, brackets)} for z in zs]
    K = [[mode.quotient_sum((B[i][ab] * B[j][ab], q[ab[0]] * q[ab[1]]) for ab in pairs)
          for j in range(k)] for i in range(k)]
    # (beta_i ∧ beta_j)(w1, w2, w3, w4) over the six (2,2)-shuffles
    W = [[B[i][(0, 1)] * B[j][(2, 3)] - B[i][(0, 2)] * B[j][(1, 3)]
          + B[i][(0, 3)] * B[j][(1, 2)] + B[j][(0, 1)] * B[i][(2, 3)]
          - B[j][(0, 2)] * B[i][(1, 3)] + B[j][(0, 3)] * B[i][(1, 2)]
          for j in range(k)] for i in range(k)]
    Q = q[0] * q[1] * q[2] * q[3]
    return p, K, W, Q


def _trace(p, x, mode: Mode):
    """tr S = sum_i x_ii / (2 p_i), for x as (numerator, denominator) entries."""
    return mode.quotient_sum((x[i][i][0], 2 * p[i] * x[i][i][1]) for i in range(len(p)))


def _trace_pair(p, x, y, mode: Mode):
    """tr(S_x S_y) = sum_ij x_ij y_ji / (4 p_i p_j), likewise."""
    k = len(p)
    return mode.quotient_sum((x[i][j][0] * y[j][i][0], 4 * p[i] * p[j] * x[i][j][1] * y[j][i][1])
                             for i in range(k) for j in range(k))


def _trace_identity(p, K, W, root, unit, mode: Mode, tol):
    """Evaluate tr^2(S) ?= 2 tr(S^2) for both orientations.

    p, K, W come from `_beta_coords` and root = sqrt(1/Q) is rational (or a
    float); S_or = (den / s^2) (K + or W root) / (2 sqrt(p_i p_j)) with
    unit = (den, s^2). Entry by entry, x = K + or W root is kept as
    (numerator, denominator), the traces are `quotient_sum`s and lhs and rhs
    divide once. Returns (exists, orientation, pairs) with pairs mapping
    "+"/"-" to a (lhs, rhs) tuple.
    """
    (rn,), rd = mode.cleared([root])
    un, ud = unit
    pairs, verdicts = {}, {}
    for orient, s in (("+", 1), ("-", -1)):
        x = [[(kn * rd + s * w * rn * kd, kd * rd) for (kn, kd), w in zip(krow, wrow)]
             for krow, wrow in zip(K, W)]
        tr, trd = _trace(p, x, mode)
        sq, sqd = _trace_pair(p, x, x, mode)
        pairs[orient] = lhs, rhs = (mode.div(tr * tr * un * un, trd * trd * ud * ud),
                                    mode.div(2 * sq * un * un, sqd * ud * ud))
        verdicts[orient] = mode.equal(lhs, rhs, tol)
    orient = "+" if verdicts["+"] else ("-" if verdicts["-"] else None)
    return orient is not None, orient, pairs


def _irrational_identity(D: MetricDecomposition, p, K, W, Q, tol):
    """`_trace_identity` for an exact metric with irrational sqrt(T), T = 1/Q.

    tr S = u (A + s B sqrt(T)) and tr S^2 = u^2 (C + s E sqrt(T)) with A, B,
    C, E rational and u = den / s^2: the identity holds iff A^2 + B^2 T = 2C
    and AB = E, the rational and radical parts separately, so the verdict does
    not depend on the orientation (conjugation swaps S_+ and S_-). The lhs and
    rhs are floats: the float path of `_trace_identity`, entry by entry, with
    a float sqrt(T) and the public bases' p, K, W, Q, whose sizes floats hold.
    """
    mode = D.mode
    T = mode.div(1, Q)
    Wx = [[(w, 1) for w in row] for row in W]
    A, B = (mode.div(*_trace(p, x, mode)) for x in (K, Wx))
    C = mode.div(*_trace_pair(p, K, K, mode)) + T * mode.div(*_trace_pair(p, Wx, Wx, mode))
    E = 2 * mode.div(*_trace_pair(p, K, Wx, mode))
    exists = mode.equal(A * A + B * B * T, 2 * C, tol) and mode.equal(A * B, E, tol)
    p, K, W, Q = _public_scale(D, K, W)
    _, _, pairs = _trace_identity(p, [[(k, 1) for k in row] for row in K], W,
                                  math.sqrt(1 / Q), (1, 1), Mode.FLOAT, tol)
    return exists, "+" if exists else None, pairs


def _public_scale(D: MetricDecomposition, K, W):
    """p, K, W, Q of `_beta_coords` for the public bases `zs` and `rtilde`:
    K and W with den, s and the own scales divided out, one division per
    entry."""
    mode = D.mode
    s2 = D.L._structure(mode)[2] ** 2
    mu = D.own[:D.derived_dim]
    a, b, c, d = (D.own[i] for i in D._plane_index)
    K = [[mode.div(kn, kd * s2 * mi * mj) for (kn, kd), mj in zip(row, mu)]
         for row, mi in zip(K, mu)]
    W = [[mode.div(w, D.den * D.den * s2 * mi * mj * a * b * c * d) for w, mj in zip(row, mu)]
         for row, mi in zip(W, mu)]
    q = D.complement_sq[:4]
    return D.p, K, W, q[0] * q[1] * q[2] * q[3]


def _identity_diagnostics(orient, pairs) -> dict:
    lead = pairs[orient if orient is not None else "+"]
    return {"identity": "tr^2(S) = 2 tr(S^2)",
            "lhs": lead[0], "rhs": lead[1],
            "plus": list(pairs["+"]), "minus": list(pairs["-"])}


def sd_gram(D: MetricDecomposition, orientation: int = 1):
    """Gram matrix S of the self-dual parts of the d(zeta_i) on the canonical
    4-plane, for the given orientation (+1 or -1).

    S_ij = (K_ij + orientation W_ij sqrt(T)) sqrt(r) with T = 1/Q and
    r = 1/(4 p_i p_j), for p, K, W, Q of the public bases (`zs`, `rtilde`).
    Float mode returns floats. Exact mode returns Fractions and raises
    ExactnessError when an entry is irrational (use a float metric): with
    sqrt(T) rational the entry is x sqrt(r) for x = K_ij + orientation W_ij
    sqrt(T), otherwise its parts K_ij sqrt(r) and W_ij sqrt(r T) are taken
    apart; a part that is 0 needs no root, and every other root must be
    rational. Raises ValueError unless orientation is +1 or -1.
    """
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation!r}")
    if not D._plane_index:
        raise DegenerateError("no canonical 4-plane (abelian part is trivial)")
    mode = D.mode
    _p, K, W, _Q = D._beta
    p, K, W, Q = _public_scale(D, K, W)
    T = mode.div(1, Q)
    root_T = mode.root(T, 2)

    def times_root(x, r):
        if not x:
            return x
        root = mode.root(r, 2)
        if root is None:
            raise ExactnessError("S has an irrational entry; "
                                 "use a float metric for this Gram matrix")
        return x * root

    def entry(i, j):
        r = mode.div(1, 4 * p[i] * p[j])
        w = orientation * W[i][j]
        if root_T is None:
            return times_root(K[i][j], r) + times_root(w, r * T)
        return times_root(K[i][j] + w * root_T, r)

    return [[entry(i, j) for j in range(len(p))] for i in range(len(p))]


# ---------------------------------------------------------------------------
# cases 2 and 3


def selfdual_exists(D: MetricDecomposition, tol: float | None = None) -> CriterionReport:
    """Purely coclosed existence for dim n' in {2, 3}: tr^2(S) = 2 tr(S^2)."""
    case = D.derived_dim
    if case not in (2, 3):
        raise UnsupportedAlgebraError(
            "the self-dual criterion requires a 2- or 3-dimensional derived algebra")
    if case == 2 and D.abelian_dim == 0:
        return CriterionReport(2, "purely", False, None, None,
                               {"lhs": None, "rhs": None, "abelian_dim": 0,
                                "reason": "no coclosed structures: center equals "
                                          "the derived algebra"}, D.mode)
    mode = D.mode
    p, K, W, Q = D._beta
    root = mode.root(mode.div(1, Q), 2)
    if root is None:
        exists, orient, pairs = _irrational_identity(D, p, K, W, Q, tol)
    else:
        unit = (D.den, D.L._structure(mode)[2] ** 2)
        exists, orient, pairs = _trace_identity(p, K, W, root, unit, mode, tol)
    witness = {"rtilde": [[D.mode.encode(x) for x in v] for v in D.rtilde],
               "orientation": orient} if exists else None
    return CriterionReport(case, "purely", exists, orient, witness,
                           _identity_diagnostics(orient, pairs), D.mode)


def purely_coclosed_exists(L: LieAlgebra, g: Metric,
                           tol: float | None = None) -> CriterionReport:
    D = decompose(L, g)
    if D.derived_dim == 1:
        return case1_exists(D, tol)
    return selfdual_exists(D, tol)


def coclosed_exists(L: LieAlgebra, g: Metric, tol: float | None = None) -> CriterionReport:
    """Coclosed existence: metric independent (dim n' != 2, or abelian part != 0)."""
    D = decompose(L, g)
    exists = D.derived_dim != 2 or D.abelian_dim > 0
    diag = {"derived_dim": D.derived_dim, "abelian_dim": D.abelian_dim,
            "lhs": None, "rhs": None}
    return CriterionReport(D.derived_dim, "coclosed", exists, None, None, diag, D.mode)


def coclosed_always(L: LieAlgebra) -> bool:
    """Metric-free coclosed admissibility of the algebra."""
    derived = len(L.derived_basis())
    center = len(L.center_basis())
    return derived != 2 or center > 2


# ---------------------------------------------------------------------------
# coframe-level data and the symmetrization of M


def sd_basis_forms(coframe: Sequence[KForm]) -> list[KForm]:
    """sigma_1 = e13 - e24, sigma_2 = -e14 - e23, sigma_3 = e12 + e34
    built from the first four coframe covectors (each has norm sqrt(2))."""
    e = list(coframe[:4])
    return [
        e[0].wedge(e[2]) - e[1].wedge(e[3]),
        -1 * e[0].wedge(e[3]) - e[1].wedge(e[2]),
        e[0].wedge(e[1]) + e[2].wedge(e[3]),
    ]


def m_matrix(L: LieAlgebra, coframe: Sequence[KForm], g: Metric) -> list[list]:
    """M_ij = g(sigma_i, d e^{4+j}) for an adapted coframe.

    The coframe's last three covectors span the annihilator-dual of n'; the
    structure is purely coclosed iff M is symmetric and trace free.
    """
    sigmas = sd_basis_forms(coframe)
    alphas = [L.ce_diff(coframe[4 + j]) for j in range(3)]
    return [[form_inner(s, a, g.rows, g.ctx) for a in alphas] for s in sigmas]


# P is a product of SVD factors and a reflection: orthogonal to rounding,
# whatever the verdict tolerance
_P_ORTHOGONALITY = 1e-12


def _polar(Mf: np.ndarray, tol: float | None):
    """Canonical orthogonal polar factor of a 3x3 float matrix M.

    Returns (Omega, U, sv, tie) with M = U diag(sv) V^T and Omega =
    U diag(1, 1, s) V^T, so that M Omega^T is symmetric positive semidefinite
    (Higham, SIAM J. Sci. Stat. Comput. 7, 1986). Singular values within
    tie = tolerance * max|M| of 0 count as 0, a bound that scales with M, and
    where the SVD's basis is arbitrary Omega does not depend on it:
    * sv_3 = 0: s makes det Omega = +1 (otherwise s = 1);
    * sv_2 = 0 too: Omega = I - 2 w w^T / |w|^2 for the longer w of
      u_1 -+ v_1, which maps v_1 to +-u_1 (M Omega^T = +-sv_1 u_1 u_1^T);
    * sv_1 = 0: Omega = I.
    """
    tie = resolve_tolerance(tol) * float(np.max(np.abs(Mf)))
    U, sv, Vt = np.linalg.svd(Mf)
    if sv[0] <= tie:
        return np.eye(3), U, sv, tie
    if sv[1] <= tie:
        w = max(U[:, 0] - Vt[0], U[:, 0] + Vt[0], key=np.linalg.norm)
        return np.eye(3) - 2.0 * np.outer(w, w) / (w @ w), U, sv, tie
    s = float(np.sign(np.linalg.det(U) * np.linalg.det(Vt))) if sv[2] <= tie else 1.0
    return U @ np.diag([1.0, 1.0, s]) @ Vt, U, sv, tie


def symmetrize_M(M, tol: float | None = None) -> dict:
    """Find P in O(3) with A = M P symmetric and trace free.

    Feasible iff tr^2(S) = 2 tr(S^2) for S = (1/2) M^T M; equivalently the
    singular values a >= b >= c of M satisfy a = b + c. P is canonical, so it
    is a continuous function of M wherever it is determined up to ties:
    P = Omega^T (I - 2 u u^T) with Omega the polar factor of `_polar`, and u
    the left singular vector of a, or, when a ties with b (singular values
    (a, a, 0)), the first column M e_j with |M e_j| >= a/2, normalised. Then
    A = M P has eigenvalues -a, b and +-c. P = I when M is 0 to the
    tolerance. Raises DegenerateError when the identity fails. Every check is
    relative to M's own scale (tr^2 S + 2 tr S^2, max|M|), so lam * M has the
    verdict of M for every lam > 0.
    """
    eps = resolve_tolerance(tol)
    Mf = np.array([[float(x) for x in row] for row in M], dtype=float)
    if Mf.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    S = 0.5 * (Mf.T @ Mf)
    lhs, rhs = float(np.trace(S)) ** 2, 2.0 * float(np.trace(S @ S))
    if not close(lhs, rhs, eps, lhs + rhs):
        raise DegenerateError(
            f"no orthogonal P makes MP symmetric trace-free: tr^2(S)={lhs} vs 2tr(S^2)={rhs}")
    Omega, U, sv, tie = _polar(Mf, tol)
    P = Omega.T
    if sv[0] > tie:
        if sv[0] - sv[1] > tie:
            u = U[:, 0]
        else:
            norms = np.linalg.norm(Mf, axis=0)
            j = next(j for j in range(3) if norms[j] >= sv[0] / 2)
            u = Mf[:, j] / norms[j]
        P = P @ (np.eye(3) - 2.0 * np.outer(u, u))
    A = Mf @ P
    scale = float(np.max(np.abs(Mf)))
    if not (np.max(np.abs(P @ P.T - np.eye(3)))
            < _P_ORTHOGONALITY * (1.0 + float(np.max(np.abs(P))))):
        raise DegenerateError("symmetrization produced a non-orthogonal P")
    if np.max(np.abs(A - A.T)) > 10 * eps * scale or abs(np.trace(A)) > 10 * eps * scale:
        raise DegenerateError("symmetrization failed numerically")
    return {"P": P.tolist(), "A": A.tolist()}
