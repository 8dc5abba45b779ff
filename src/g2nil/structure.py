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
ones, and each criterion below is an integer sum over a denominator it
already knows (`Mode.reciprocals`). Both identities are homogeneous, so den,
s and the vectors' scales leave each verdict alone and come out as one
factor: lhs and rhs divide once, into the same Fractions the rational bases
give. Float mode runs the same code with den = s = 1 and the reciprocals
themselves in place of cofactors, the plain float formulas.

Criteria, by dim n':

* 1 — coclosed always; purely coclosed iff tr^2(A^2) = 4 tr(A^4) for
  A = -j(z), z spanning n' (scale invariant), j(z) = diag(q)^-1 c with c skew
  on r's orthogonal basis: no Gram matrix is built or inverted.
* 2 — coclosed iff a != 0; purely coclosed iff on the canonical oriented
  4-plane the self-dual parts of d(zeta_1), d(zeta_2) are orthogonal with
  equal norms for an orthonormal basis {zeta_i} of (n')*, for one of the two
  orientations. For a symmetric 2x2 Gram matrix S this is tr^2(S) = 2 tr(S^2).
* 3 — coclosed always; purely coclosed iff tr^2(S) = 2 tr(S^2) for the 3x3
  self-dual Gram matrix S, for one of the two orientations.

The self-dual identity is evaluated entry by entry in both modes: with
T = 1/Q, each x = K ± W*sqrt(T) gives tr S = sum x_ii / (2 p_i) and
tr S^2 = sum x_ij^2 / (4 p_i p_j), each symmetric pair once, over
P = prod p_i in exact mode, where sqrt(T) is rational or a float.
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
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from ._linalg import gram_schmidt_sq
from .exterior import (DegenerateError, ExactnessError, KForm, Mode,
                       close, form_inner, resolve_tolerance)
from .liealg import LieAlgebra, Metric, UnsupportedAlgebraError, _nonzero

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
    """Purely coclosed existence for dim n' = 1: tr^2(A^2) = 4 tr(A^4).

    On r's G-orthogonal basis w_a, A = -j(z) for z = nprime[0] is similar to
    -N / (R s own_0): N = diag(r) c for the skew c_ab = G(z, s[w_b, w_a]),
    read for a < b only, and the `Mode.reciprocals` r / R of the norms q. Even
    powers drop the sign: tr N^2 = sum_a r_a P_aa and tr N^4 =
    sum_ab r_a r_b P_ab^2 for the symmetric P = c diag(r) c.
    """
    if D.derived_dim != 1:
        raise UnsupportedAlgebraError("case 1 requires a 1-dimensional derived algebra")
    mode, L, ip = D.mode, D.L, D.g.cleared()[0]
    ws = [_nonzero(D.basis[i]) for i in D._r_index]
    m = len(ws)
    c = [[mode.zero] * m for _ in range(m)]
    for a, b in combinations(range(m), 2):
        c[a][b] = x = ip(D.basis[0], L._bracket_num(ws[b], ws[a], mode))
        c[b][a] = -x
    r, R = mode.reciprocals([D.norms[i] for i in D._r_index])
    rc = [[rk * x for x in row] for rk, row in zip(r, c)]
    P = {(a, b): sum(map(operator.mul, c[a], col)) for b, col in enumerate(zip(*rc))
         for a in range(b + 1)}
    tr2 = sum(r[a] * P[a, a] for a in range(m))
    tr4 = sum((r[a] * x) ** 2 if a == b else 2 * r[a] * r[b] * x * x
              for (a, b), x in P.items())
    unit = (R * L._structure(mode)[2] * D.own[0]) ** 4
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

    Returns (p, K, kd, W, Q) for the vectors z_i = D.basis[:k] of n' and w_a
    of the plane in the cleared metric G (`MetricDecomposition`):
    p_i = G(z_i, z_i); B_i(a, b) = -G(z_i, s[w_a, w_b]);
    K_ij / kd = sum_ab B_i(a, b) B_j(a, b) / (q_a q_b) over kd = Q in exact
    mode (the weight of (a, b) is q_c q_d, (c, d) the complementary pair);
    W_ij = (B_i ∧ B_j)(w_1, w_2, w_3, w_4); Q = q_1 q_2 q_3 q_4 with
    q_a = G(w_a, w_a). K and W are computed once for each i <= j. Integers in
    exact mode. Positive multiples of the vectors leave the identity's verdict
    alone; `_trace_identity` takes den and s back out.
    """
    L, mode, ip = D.L, D.mode, D.g.cleared()[0]
    k = D.derived_dim
    ws = [_nonzero(D.basis[i]) for i in D._plane_index]
    q = [D.norms[i] for i in D._plane_index]
    Q = q[0] * q[1] * q[2] * q[3]
    pairs = [*combinations(range(4), 2)]
    brackets = [L._bracket_num(ws[a], ws[b], mode) for a, b in pairs]
    B = [[-ip(z, w) for w in brackets] for z in D.basis[:k]]
    weights, kd = mode.reciprocals([q[a] * q[b] for a, b in pairs], Q)
    K, W = [[None] * k for _ in range(k)], [[None] * k for _ in range(k)]
    for i, j in combinations_with_replacement(range(k), 2):
        bi, bj = B[i], B[j]
        K[i][j] = K[j][i] = sum(x * y * w for x, y, w in zip(bi, bj, weights))
        # (beta_i ∧ beta_j)(w1, w2, w3, w4) over the six (2,2)-shuffles; pair e
        # and pair 5 - e are complementary
        W[i][j] = W[j][i] = (bi[0] * bj[5] - bi[1] * bj[4] + bi[2] * bj[3]
                             + bj[0] * bi[5] - bj[1] * bi[4] + bj[2] * bi[3])
    return D.norms[:k], K, kd, W, Q


def _sym_pair_sum(x, y, w):
    """sum_ij x_ij y_ij w_i w_j for symmetric x and y, each pair i < j once."""
    return sum((w[i] * w[i] if i == j else 2 * w[i] * w[j]) * x[i][j] * y[i][j]
               for i, j in combinations_with_replacement(range(len(w)), 2))


def _trace_identity(p, K, kd, W, root, unit, mode: Mode, tol):
    """Evaluate tr^2(S) ?= 2 tr(S^2) for both orientations.

    p, K, kd, W come from `_beta_coords` and root = sqrt(1/Q) = rn / rd is
    rational (or a float); S_or = (den / s^2) x / (2 sqrt(p_i p_j)) with
    unit = (den, s^2), for x = K / kd + or W root. Entry by entry X = x kd rd;
    over the `Mode.reciprocals` pi / P of p, tr S and tr S^2 are
    sum X_ii pi_i and sum X_ij^2 pi_i pi_j, and lhs and rhs divide once.
    Returns (exists, orientation, pairs) with pairs mapping "+"/"-" to a
    (lhs, rhs) tuple.
    """
    (rn,), rd = mode.cleared([root])
    pi, P = mode.reciprocals(p)
    un, ud = unit
    scale = 4 * (ud * kd * rd * P) ** 2
    pairs, verdicts = {}, {}
    for orient, s in (("+", 1), ("-", -1)):
        X = [[kn * rd + s * w * rn * kd for kn, w in zip(krow, wrow)]
             for krow, wrow in zip(K, W)]
        tr = sum(X[i][i] * w for i, w in enumerate(pi))
        pairs[orient] = lhs, rhs = (mode.div(tr * tr * un * un, scale),
                                    mode.div(2 * _sym_pair_sum(X, X, pi) * un * un, scale))
        verdicts[orient] = mode.equal(lhs, rhs, tol)
    orient = "+" if verdicts["+"] else ("-" if verdicts["-"] else None)
    return orient is not None, orient, pairs


def _irrational_identity(D: MetricDecomposition, p, K, kd, W, Q, tol):
    """`_trace_identity` for an exact metric with irrational sqrt(T), T = 1/Q.

    tr S = u (A + s B sqrt(T)) and tr S^2 = u^2 (C + s E sqrt(T)) with A, B,
    C, E rational and u = den / s^2: the identity holds iff A^2 + B^2 T = 2C
    and AB = E, the rational and radical parts separately, so the verdict does
    not depend on the orientation (conjugation swaps S_+ and S_-). Both are
    compared on integers, times 4 kd^2 P^2 Q and 4 kd P^2 (pi / P the
    `Mode.reciprocals` of p). The lhs and rhs are floats: `_trace_identity`'s
    float path with a float sqrt(T) on the public bases' p, K, W, Q.
    """
    mode = D.mode
    pi, _P = mode.reciprocals(p)
    a, b = (sum(x[i][i] * w for i, w in enumerate(pi)) for x in (K, W))
    cK, cW, e = (_sym_pair_sum(x, y, pi) for x, y in ((K, K), (W, W), (K, W)))
    exists = (mode.equal(a * a * Q + b * b * kd * kd, 2 * (cK * Q + cW * kd * kd), tol)
              and mode.equal(a * b, 2 * e, tol))
    p, K, W, Q = _public_scale(D)
    _, _, pairs = _trace_identity(p, K, 1, W, math.sqrt(1 / Q), (1, 1), Mode.FLOAT, tol)
    return exists, "+" if exists else None, pairs


def _public_scale(D: MetricDecomposition):
    """p, K, W, Q of `_beta_coords` for the public bases `zs` and `rtilde`:
    K and W with kd, den, s and the own scales divided out, one division per
    entry."""
    mode = D.mode
    _p, K, kd, W, _Q = D._beta
    s2 = D.L._structure(mode)[2] ** 2
    mu = D.own[:D.derived_dim]
    a, b, c, d = (D.own[i] for i in D._plane_index)
    K = [[mode.div(kn, kd * s2 * mi * mj) for kn, mj in zip(row, mu)]
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
    p, K, W, Q = _public_scale(D)
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
    p, K, kd, W, Q = D._beta
    root = mode.root(mode.div(1, Q), 2)
    if root is None:
        exists, orient, pairs = _irrational_identity(D, p, K, kd, W, Q, tol)
    else:
        unit = (D.den, D.L._structure(mode)[2] ** 2)
        exists, orient, pairs = _trace_identity(p, K, kd, W, root, unit, mode, tol)
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
