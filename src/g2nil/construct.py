"""Constructive production of coclosed and purely coclosed coframes.

Given an algebra and a metric that passes the relevant existence criterion,
these routines output an explicit orthonormal adapted coframe (seven 1-forms)
whose induced structure realises the requested torsion class, verified a
posteriori through the torsion machinery. Everything here runs in float mode;
the exact criteria live in `structure`.

The common normal form: a coframe (e^1..e^7) is *adapted* when e^1..e^4 span
the duals of the canonical 4-plane and the remaining covectors are fed into
the standard 3-form as phi = sigma_1 ∧ e^5 + sigma_2 ∧ e^6 + sigma_3 ∧ e^7
+ e^567 (which is the standard pattern). Torsion conditions then become
linear-algebra statements about the matrix M_mj = <sigma_m, d e^{4+j}>:
symmetric for coclosed, symmetric trace-free for purely coclosed. Case 1
splits d z-flat into planar blocks. Cases 2 and 3 share one construction:
the last three covectors are an orthonormal basis of n'* (plus, when
dim n' = 2, the unit covector of the abelian direction the 4-plane leaves
over, whose differential vanishes), rotated by the canonical P in O(3) of
`structure.symmetrize_M`.

Each piece of work is done once. The matrices of d z-flat on an orthonormal
frame F come from one contraction over every z at once,
B_z = -F (sum_k (g z)_k c_k) F^T, with c the algebra's float structure
tensor (`LieAlgebra._structure_tensor`). `structure.decompose` hands out its
last decomposition again for the same algebra and metric objects, so a
construction right after the criterion shares its Gram-Schmidt pass and
self-dual data. The coframe is verified in its own frame, and
`Construction.phi` pulls phi back into the basis e only when read.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import DegenerateError, KForm, Mode, resolve_tolerance
from .g2su3 import G2Structure, TorsionReport, torsion_class
from .liealg import LieAlgebra, Metric
from .structure import (CriterionReport, MetricDecomposition, _polar, decompose,
                        selfdual_exists, symmetrize_M)

__all__ = ["Construction", "construct", "construct_case1", "construct_selfdual"]

# Fixed thresholds of numerical steps on unit-size quantities (verdicts go
# through `resolve_tolerance`). A unit eigenvector of -B^2 left this short by
# projecting out the chosen directions repeats one of them:
_DUPLICATE_DIRECTION = 1e-8
# the best signed sum of block amplitudes, relative: each amplitude is the
# square root of an eigenvalue and keeps about half of its digits
_BLOCK_BALANCE = 1e-7
# a self-dual component of d z-flat below this fraction of its largest entry
# is rounding noise; `symmetrize_M` judges M against M's own scale, so it
# cannot tell noise from a small M
_ROUNDING_NOISE = 1e-12


# ---------------------------------------------------------------------------
# small numerical helpers


def _unit(vectors, norms_sq) -> np.ndarray:
    """Pairwise g-orthogonal vectors (a decomposition's bases) divided by their
    norms: an orthonormal frame, one vector per row."""
    return np.array(vectors, dtype=float) / np.sqrt(np.array(norms_sq, dtype=float))[:, None]


def _gram(g: Metric) -> np.ndarray:
    return np.array(g.to_float().rows)


def _flat(v: np.ndarray, gm: np.ndarray) -> KForm:
    """Covector g(v, .) as a float 1-form."""
    return KForm(len(v), 1, {1 << i: float(c) for i, c in enumerate(gm @ v)}, Mode.FLOAT)


# sigma_1 = e13 - e24, sigma_2 = -e14 - e23, sigma_3 = e12 + e34 as
# coefficients on the index pairs a < b of an orthonormal 4-frame (0-based)
_SIGMA = np.zeros((3, 4, 4))
_SIGMA[0, 0, 2], _SIGMA[0, 1, 3] = 1.0, -1.0
_SIGMA[1, 0, 3], _SIGMA[1, 1, 2] = -1.0, -1.0
_SIGMA[2, 0, 1], _SIGMA[2, 2, 3] = 1.0, 1.0


# ---------------------------------------------------------------------------
# shared assembly


@dataclass
class Construction:
    case: int
    kind: str                    # "purely" or "coclosed"
    coframe: list                # seven float 1-forms
    # the verified structure of the coframe; `phi` reads it
    _structure: G2Structure = field(repr=False, compare=False)
    torsion: TorsionReport
    metric_residual: float

    @property
    def phi(self) -> KForm:
        """The adapted 3-form in the basis e, pulled back on first read."""
        return self._structure.phi

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "kind": self.kind,
            "coframe": [f.to_json() for f in self.coframe],
            "phi": self.phi.to_json(),
            "torsion": self.torsion.to_json(),
            "metric_residual": self.metric_residual,
        }


def _finish(L: LieAlgebra, g: Metric, coframe, case: int, kind: str,
            tol: float | None) -> Construction:
    eps = resolve_tolerance(tol)
    struct = G2Structure.from_coframe(coframe)
    gm = _gram(g)
    residual = float(np.max(np.abs(_gram(struct.metric) - gm)))
    report = torsion_class(L, struct, tol=tol)
    if not report.coclosed:
        raise DegenerateError(
            f"constructed coframe is not coclosed (residual {report.residual_coclosed})")
    if kind == "purely" and not report.purely_coclosed:
        raise DegenerateError(
            f"constructed coframe is not purely coclosed (tau0 {report.tau0})")
    if residual > 100 * eps * np.max(np.abs(gm)):
        raise DegenerateError(f"induced metric drifts from the input ({residual})")
    return Construction(case, kind, list(coframe), struct, report, residual)


def _beta_matrices(L: LieAlgebra, gm: np.ndarray, zs: np.ndarray,
                   frame: np.ndarray) -> np.ndarray:
    """B_z(a, b) = -g(z, [u_a, u_b]) for each row z of zs on an orthonormal frame
    u (the rows of frame): the matrices of d z-flat, as one contraction
    B_z = -F (sum_k (g z)_k c_k) F^T with c the structure tensor
    (`LieAlgebra._structure_tensor`) and F the frame. Exactly skew."""
    C = np.tensordot(zs @ gm, L._structure_tensor(), axes=1)
    B = frame @ C @ frame.T
    return 0.5 * (B.transpose(0, 2, 1) - B)


# ---------------------------------------------------------------------------
# case 1: dim n' = 1


def _skew_blocks(B: np.ndarray, eps: float):
    """Decompose a real skew matrix into planar blocks and a kernel.

    Returns (blocks, kernel): blocks are (v, w, a) with a > 0, B v = a w and
    B w = -a v, so the 2-form of B restricts to the plane of v and w as
    -a v-flat ∧ w-flat = a w-flat ∧ v-flat (`construct_case1` orders each
    pair for the sign it needs); kernel is a list of orthonormal vectors
    spanning ker B. All vectors are mutually orthonormal.
    """
    mu, V = np.linalg.eigh(-B @ B)     # eigenvalues a^2, ascending
    scale = float(np.max(np.abs(B))) ** 2
    kernel, blocks = [], []
    idx = list(np.argsort(mu))
    remaining = [V[:, k] for k in idx]
    vals = [mu[k] for k in idx]
    for v, m in zip(remaining, vals):
        # project away directions already consumed
        for u in ([*kernel] + [x for b in blocks for x in b[:2]]):
            v = v - (u @ v) * u
        nv = np.linalg.norm(v)
        if nv < _DUPLICATE_DIRECTION:
            continue
        v = v / nv
        if m < eps * scale:
            kernel.append(v)
            continue
        a = float(np.sqrt(m))
        w = B @ v / a
        w = w / np.linalg.norm(w)
        blocks.append((v, w, a))
    return blocks, kernel


def construct_case1(D: MetricDecomposition, purely: bool = True,
                    tol: float | None = None) -> list:
    """Adapted coframe for dim n' = 1; returns the seven 1-forms."""
    eps = resolve_tolerance(tol)
    L = D.L
    gm = _gram(D.g)
    z = _unit(D.zs, D.p)[0]
    frame6 = _unit(D.complement, D.complement_sq)
    B = _beta_matrices(L, gm, z[None], frame6)[0]
    blocks, kernel = _skew_blocks(B, eps)
    amps = [a for (_v, _w, a) in blocks]
    signs = [1.0] * len(blocks)
    if purely:
        best, best_sum = None, None
        for mask in range(2 ** len(blocks)):
            s = [1.0 if mask & (1 << k) else -1.0 for k in range(len(blocks))]
            total = abs(sum(si * ai for si, ai in zip(s, amps)))
            if best_sum is None or total < best_sum:
                best, best_sum = s, total
        scale = sum(amps)
        if best_sum > _BLOCK_BALANCE * scale:
            raise DegenerateError(
                f"cannot balance the torsion blocks (best residual {best_sum}); "
                "the metric fails the existence criterion")
        signs = best
    # assemble pairs: block (v, w) realises d z-flat = -a v-flat ∧ w-flat + ...,
    # so (w, v) carries +a; flip the pair to flip the sign
    pair_coords = []
    for (v, w, a), s in zip(blocks, signs):
        pair_coords.extend([w, v] if s > 0 else [v, w])
    pair_coords.extend(kernel)
    if len(pair_coords) != 6:
        raise DegenerateError("block decomposition lost directions")
    coframe = [_flat(c @ frame6, gm) for c in pair_coords] + [_flat(z, gm)]
    return coframe


# ---------------------------------------------------------------------------
# cases 2 and 3


def _oriented_plane_frame(D: MetricDecomposition, orientation: str):
    frame = _unit(D.rtilde, D.complement_sq[:4])
    if orientation == "-":
        frame[0] = -frame[0]
    return frame


def _m_matrix(L: LieAlgebra, gm: np.ndarray, zs: np.ndarray, frame4: np.ndarray) -> np.ndarray:
    """M_mj = <sigma_m, d z_j-flat> on the orthonormal 4-frame.

    M is 0 when each column is at rounding noise of the matrix of d z_j-flat,
    so that M = 0 (no self-dual part) stays 0, and P = I, under last-bit
    changes of g.
    """
    Bs = _beta_matrices(L, gm, zs, frame4)
    M = np.tensordot(_SIGMA, Bs, axes=([1, 2], [1, 2]))
    noise = _ROUNDING_NOISE * np.abs(Bs).max(axis=(1, 2))
    return M if (np.abs(M) > noise).any() else np.zeros_like(M)


def construct_selfdual(D: MetricDecomposition, report: CriterionReport | None = None,
                       purely: bool = True, tol: float | None = None) -> list:
    """Adapted coframe for dim n' in {2, 3}; returns the seven 1-forms.

    The last three covectors are the unit zetas of n' and, when dim n' = 2,
    the flat of the unit vector x of the abelian part that the 4-plane leaves
    over: x is orthogonal to n', so d x-flat = 0 and M = [m_1 m_2 0]. They
    are rotated by P in O(3) with MP symmetric and trace free
    (`symmetrize_M`), or, for a coclosed coframe, by the transposed polar
    factor of M, which makes MP symmetric.
    """
    L = D.L
    gm = _gram(D.g)
    if D.derived_dim == 2 and D.abelian_dim == 0:
        raise DegenerateError("no coclosed structures: the center equals n'")
    orientation = "+"
    if purely:
        if report is None:
            report = selfdual_exists(D, tol)
        if not report.exists:
            raise DegenerateError("the metric fails the purely coclosed criterion")
        orientation = report.orientation or "+"
    frame4 = _oriented_plane_frame(D, orientation)
    zs = _unit([*D.zs, *D.complement[4:]], [*D.p, *D.complement_sq[4:]])
    M = _m_matrix(L, gm, zs, frame4)
    if purely:
        P = np.array(symmetrize_M(M.tolist(), tol)["P"])
    else:
        P = _polar(M, tol)[0].T
    rotated = P.T @ zs      # row j: sum_k P_kj z_k
    return [_flat(v, gm) for v in [*frame4, *rotated]]


# ---------------------------------------------------------------------------
# entry points


def construct(L: LieAlgebra, g: Metric, kind: str = "purely",
              tol: float | None = None) -> Construction:
    """Produce a verified adapted coframe of the requested torsion class."""
    if kind not in ("purely", "coclosed"):
        raise ValueError("kind must be 'purely' or 'coclosed'")
    gf = g.to_float()
    D = decompose(L, gf)
    purely = kind == "purely"
    if D.derived_dim == 1:
        coframe = construct_case1(D, purely=purely, tol=tol)
    else:
        coframe = construct_selfdual(D, purely=purely, tol=tol)
    return _finish(L, gf, coframe, D.derived_dim, kind, tol)
