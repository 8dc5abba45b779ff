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
tr S^2 = sum x_ij x_ji / (4 p_i p_j), where sqrt(T) is a Fraction or a float.
Entry by entry matters in float mode: when S± ≈ 0 the cancellation happens
in each x_ij, so tr^2 S and 2 tr S^2 come out near 1e-32, while summing them
first into x + y*sqrt(T) leaves rounding noise near 1e-15 from the separate
parts. Only an exact metric with irrational sqrt(T) is decided on components:
tr S = A ± B sqrt(T) and tr S^2 = C ± E sqrt(T) with A, B, C, E rational, and
the identity holds iff A^2 + B^2 T = 2C and AB = E (so the verdict does not
depend on the orientation). Every comparison goes through `Mode.equal`: zero
tolerance in exact mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import gram_schmidt_sq
from ._radicals import Surd
from .exterior import (DegenerateError, ExactnessError, KForm, Mode,
                       close, form_inner, resolve_tolerance)
from .liealg import LieAlgebra, Metric, UnsupportedAlgebraError, jz_matrix

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
    L: LieAlgebra
    g: Metric
    mode: Mode
    nprime: list          # basis of the derived algebra (always exact)
    complement: list      # orthogonal basis of r = n'-perp: center-perp, then a
    center: list          # basis of the center (always exact)
    abelian: list         # orthogonal basis of a = center ∩ n'-perp
    rtilde: list          # canonical oriented 4-plane: complement[:4] (dim n' in {2,3})
    zs: list              # orthogonal basis of n': Gram-Schmidt of nprime
    p: list               # squared norms of zs
    complement_sq: list   # squared norms of complement

    @property
    def derived_dim(self) -> int:
        return len(self.nprime)

    @property
    def abelian_dim(self) -> int:
        return len(self.abelian)


def decompose(L: LieAlgebra, g: Metric) -> MetricDecomposition:
    """Split the algebra along the metric; entry point for all criteria."""
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
    center = L.center_basis()
    k, c = len(nprime), len(center)
    # the adapted basis starts with nprime, so ws[:k] is Gram-Schmidt of nprime
    ws, norms = gram_schmidt_sq([g.as_vector(v) for v in L._adapted_basis()], g.inner)
    abelian = ws[k:c]
    complement = ws[c:] + abelian
    rtilde = complement[:4] if k == 3 or (k == 2 and abelian) else []
    return MetricDecomposition(L, g, g.mode, nprime, complement, center, abelian, rtilde,
                               ws[:k], norms[:k], norms[c:] + norms[k:c])


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
    z = D.nprime[0]
    J = jz_matrix(D.L, D.g, z, D.complement)
    m = len(J)
    # A = -J; traces of even powers are insensitive to the sign
    J2 = [[sum(J[i][k] * J[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    tr2 = sum(J2[i][i] for i in range(m))
    tr4 = sum(sum(J2[i][k] * J2[k][i] for k in range(m)) for i in range(m))
    lhs, rhs = tr2 * tr2, 4 * tr4
    exists = D.mode.equal(lhs, rhs, tol)
    witness = {"z": [str(c) for c in z]} if exists else None
    return CriterionReport(1, "purely", exists, None, witness,
                           {"lhs": lhs, "rhs": rhs,
                            "identity": "tr^2(A^2) = 4 tr(A^4)"}, D.mode)


# ---------------------------------------------------------------------------
# shared self-dual machinery for cases 2 and 3


def _beta_coords(D: MetricDecomposition):
    """2-forms d(z_i^b) restricted to the canonical 4-plane.

    Returns (p, K, W, Q): squared norms p_i of an orthogonal basis of n';
    K_ij = <beta_i, beta_j> in the orthonormal frame of the plane;
    W_ij = coefficient of beta_i ∧ beta_j on the plane's orthonormal volume,
    times sqrt(Q); Q = product of the plane basis squared norms. All exact
    (or float, following the metric mode). beta_i(x, y) = -g(z_i, [x, y]).
    """
    L, g, zs, p = D.L, D.g, D.zs, D.p
    ws, q = D.rtilde, D.complement_sq[:4]
    k = len(zs)
    # beta_i(w_a, w_b) for a < b
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    B = [{(a, b): -g.inner(z, L.bracket(ws[a], ws[b])) for (a, b) in pairs} for z in zs]
    K = [[sum(B[i][ab] * B[j][ab] / (q[ab[0]] * q[ab[1]]) for ab in pairs) for j in range(k)]
         for i in range(k)]
    # (beta_i ∧ beta_j)(w1, w2, w3, w4) over the six (2,2)-shuffles
    W = [[B[i][(0, 1)] * B[j][(2, 3)] - B[i][(0, 2)] * B[j][(1, 3)]
          + B[i][(0, 3)] * B[j][(1, 2)] + B[j][(0, 1)] * B[i][(2, 3)]
          - B[j][(0, 2)] * B[i][(1, 3)] + B[j][(0, 3)] * B[i][(1, 2)]
          for j in range(k)] for i in range(k)]
    Q = q[0] * q[1] * q[2] * q[3]
    return p, K, W, Q


# `sd_gram` keeps irrational exact roots symbolic; the verdicts use
# `Mode.root`, which finds an irrational exact root without factoring
# (`Surd.sqrt` factors the radicand by trial division)
_SQRT = {Mode.EXACT: Surd.sqrt, Mode.FLOAT: math.sqrt}


def _x_matrix(K, W, root, s: int):
    """x = K + s * W * sqrt(T), entry by entry: x_ij = 2 sqrt(p_i p_j) S_ij."""
    return [[a + s * b * root for a, b in zip(ka, wa)] for ka, wa in zip(K, W)]


def _trace(p, x):
    """tr S = sum_i x_ii / (2 p_i)."""
    return sum(x[i][i] / (2 * p[i]) for i in range(len(p)))


def _trace_pair(p, x, y):
    """tr(S_x S_y) = sum_ij x_ij y_ji / (4 p_i p_j)."""
    k = len(p)
    return sum(x[i][j] * y[j][i] / (4 * p[i] * p[j]) for i in range(k) for j in range(k))


def _trace_identity(p, K, W, Q, mode: Mode, tol):
    """Evaluate tr^2(S) ?= 2 tr(S^2) for both orientations.

    S_or = (K + or * W * sqrt(T)) / (2 sqrt(p_i p_j)) with T = 1/Q. Returns
    (exists, orientation, pairs) with pairs mapping "+"/"-" to a (lhs, rhs)
    tuple: Fractions when sqrt(T) is rational, floats otherwise.
    """
    T = 1 / Q
    root = mode.root(T, 2)
    irrational = root is None
    if irrational:
        root = math.sqrt(T)
    pairs, verdicts = {}, {}
    for orient, s in (("+", 1), ("-", -1)):
        x = _x_matrix(K, W, root, s)
        tr = _trace(p, x)
        pairs[orient] = lhs, rhs = tr * tr, 2 * _trace_pair(p, x, x)
        verdicts[orient] = not irrational and mode.equal(lhs, rhs, tol)
    if irrational:
        # tr S = A + s B sqrt(T) and tr S^2 = C + s E sqrt(T): the rational and
        # radical parts must vanish separately, so the verdict is orientation
        # independent (conjugation swaps S_+ and S_-)
        A, B = _trace(p, K), _trace(p, W)
        C = _trace_pair(p, K, K) + T * _trace_pair(p, W, W)
        E = 2 * _trace_pair(p, K, W)
        verdicts["+"] = (mode.equal(A * A + B * B * T, 2 * C, tol)
                         and mode.equal(A * B, E, tol))
    orient = "+" if verdicts["+"] else ("-" if verdicts["-"] else None)
    return orient is not None, orient, pairs


def _identity_diagnostics(orient, pairs) -> dict:
    lead = pairs[orient if orient is not None else "+"]
    return {"identity": "tr^2(S) = 2 tr(S^2)",
            "lhs": lead[0], "rhs": lead[1],
            "plus": list(pairs["+"]), "minus": list(pairs["-"])}


def sd_gram(D: MetricDecomposition, orientation: int = 1):
    """Gram matrix S of the self-dual parts of the d(zeta_i) on the canonical
    4-plane, for the given orientation (+1 or -1).

    Exact mode: entries are Fractions when rational and Surd values otherwise;
    float mode: plain floats.
    """
    if not D.rtilde:
        raise DegenerateError("no canonical 4-plane (abelian part is trivial)")
    p, K, W, Q = _beta_coords(D)
    sqrt = _SQRT[D.mode]
    try:
        x = _x_matrix(K, W, sqrt(1 / Q), orientation)
    except ValueError as exc:
        raise ExactnessError("S mixes incompatible radicals; "
                             "use a float metric for this Gram matrix") from exc
    S = [[x[i][j] * sqrt(1 / (4 * p[i] * p[j])) for j in range(len(p))]
         for i in range(len(p))]
    return [[v.coef if isinstance(v, Surd) and v.is_rational else v for v in row] for row in S]


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
    exists, orient, pairs = _trace_identity(*_beta_coords(D), D.mode, tol)
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


# P = V diag(±1) U^T is a product of SVD factors: orthogonal to rounding,
# whatever the verdict tolerance
_P_ORTHOGONALITY = 1e-12


def symmetrize_M(M, tol: float | None = None) -> dict:
    """Find P in O(3) with A = M P symmetric and trace free.

    Feasible iff tr^2(S) = 2 tr(S^2) for S = (1/2) M^T M; equivalently the
    singular values a >= b >= c of M satisfy a = b + c. P is assembled from
    the SVD M = U Sigma V^T as P = V diag(1, 1, -1)* U^T with the -1 at the
    position of the dominant singular value. Raises DegenerateError when the
    identity fails.
    """
    import numpy as np
    eps = resolve_tolerance(tol)
    Mf = np.array([[float(x) for x in row] for row in M], dtype=float)
    if Mf.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    S = 0.5 * (Mf.T @ Mf)
    lhs, rhs = float(np.trace(S)) ** 2, 2.0 * float(np.trace(S @ S))
    if not close(lhs, rhs, eps):
        raise DegenerateError(
            f"no orthogonal P makes MP symmetric trace-free: tr^2(S)={lhs} vs 2tr(S^2)={rhs}")
    U, sv, Vt = np.linalg.svd(Mf)
    # singular values are sorted descending; feasibility forces sv0 = sv1 + sv2
    signs = np.array([1.0, 1.0, 1.0])
    signs[0] = -1.0
    P = Vt.T @ np.diag(signs) @ U.T
    A = Mf @ P
    scale = 1.0 + float(np.max(np.abs(Mf)))
    if not (np.max(np.abs(P @ P.T - np.eye(3)))
            < _P_ORTHOGONALITY * (1.0 + float(np.max(np.abs(P))))):
        raise DegenerateError("symmetrization produced a non-orthogonal P")
    if np.max(np.abs(A - A.T)) > 10 * eps * scale or abs(np.trace(A)) > 10 * eps * scale:
        raise DegenerateError("symmetrization failed numerically")
    return {"P": P.tolist(), "A": A.tolist()}
