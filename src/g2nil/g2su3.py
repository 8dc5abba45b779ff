"""G2-structures on 7-dimensional algebras: induced metric, torsion, calibration.

The adapted model 3-form is

    phi = e^127 + e^347 + e^567 + e^135 - e^146 - e^236 - e^245,

whose induced metric makes e_1..e_7 orthonormal. A 3-form phi is a
G2-structure iff the symmetric form

    b(v, w) vol = (1/6) (v ⌟ phi) ∧ (w ⌟ phi) ∧ phi

normalizes to a positive-definite metric g = b * det(b)^{-1/9}; the signed
coefficient det(b)^{1/9} of e^{1..7} is the volume, and its sign fixes the
orientation used by the Hodge star; `G2Structure.from_phi` takes this route.
`G2Structure.from_coframe` needs none of it: a coframe theta = C e has
g = C^T C and volume det C, and in the SU(3) split phi = omega ∧ theta^7 + psi_+
(omega = theta^12 + theta^34 + theta^56) the 4-form is the pulled-back model
one, *phi = (1/2) omega ∧ omega + psi_- ∧ theta^7 with
psi_- = theta^136 + theta^145 + theta^235 - theta^246 (Bryant 2005).

Torsion: the structure is coclosed iff d(*phi) = 0 and purely coclosed iff in
addition dphi ∧ phi = 0; the scalar torsion is tau0 = (1/7) * (dphi ∧ phi).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from ._linalg import mat_det, mat_mul, transpose
from .exterior import (DegenerateError, ExactnessError, KForm, Mode, ModeMismatchError,
                       _merge_sign, hodge, top_wedge_coeff)
from .liealg import LieAlgebra, Metric

__all__ = [
    "G2_PATTERN", "phi_standard", "starphi_standard", "phi_from_coframe",
    "induced_metric", "G2Structure", "TorsionReport", "torsion_class", "calibrates",
]

# index triples and signs of the adapted 3-form
G2_PATTERN: tuple[tuple[tuple[int, int, int], int], ...] = (
    ((1, 2, 7), 1), ((3, 4, 7), 1), ((5, 6, 7), 1),
    ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1),
)

# index quadruples and signs of the model 4-form *phi
STARPHI_PATTERN: tuple[tuple[tuple[int, int, int, int], int], ...] = (
    ((1, 2, 3, 4), 1), ((1, 2, 5, 6), 1), ((3, 4, 5, 6), 1),
    ((1, 3, 6, 7), 1), ((1, 4, 5, 7), 1), ((2, 3, 5, 7), 1), ((2, 4, 6, 7), -1),
)


def phi_standard(mode: Mode = Mode.EXACT) -> KForm:
    return KForm.from_terms(7, 3, dict(G2_PATTERN), mode)


def starphi_standard(mode: Mode = Mode.EXACT) -> KForm:
    return KForm.from_terms(7, 4, dict(STARPHI_PATTERN), mode)


def _cleared_coframe(coframe: Sequence[KForm]) -> tuple[list[KForm], int]:
    """(N, den) with theta^i = N^i / den: integer forms over one denominator in
    exact mode, the forms themselves and den = 1 in float mode."""
    if len(coframe) != 7:
        raise ValueError("a coframe consists of seven 1-forms")
    mode = coframe[0].mode
    for c in coframe:
        if c.degree != 1 or c.dim != 7:
            raise ValueError("coframe entries must be 1-forms in dimension 7")
        if c.mode is not mode:
            raise ModeMismatchError("cannot combine exact and float forms")
    nums, den = mode.cleared([x for c in coframe for x in c._terms.values()])
    nums = iter(nums)
    return [KForm(7, 1, {m: next(nums) for m in c._terms}, mode) for c in coframe], den


def _over(form: KForm, d: int) -> KForm:
    """form / d; d = 1 (float mode, an integer coframe) keeps the form as it is."""
    return form if d == 1 else form * form.mode.div(1, d)


def _pullback_phi(t: Sequence[KForm]) -> tuple[KForm, dict]:
    """phi = omega ∧ theta^7 + psi_+ of 1-forms t, term by term in G2_PATTERN's
    order, and the 2-forms theta^ij of its terms (theta^ijk = theta^ij ∧ theta^k)."""
    pairs = {(i, j): t[i - 1].wedge(t[j - 1]) for (i, j, _k), _s in G2_PATTERN}
    phi = KForm.zero(7, 3, t[0].mode)
    for (i, j, k), s in G2_PATTERN:
        phi = phi + s * pairs[i, j].wedge(t[k - 1])
    return phi, pairs


def phi_from_coframe(coframe: Sequence[KForm]) -> KForm:
    """Adapted 3-form of a coframe (seven 1-forms, declared orthonormal)."""
    t, den = _cleared_coframe(coframe)
    return _over(_pullback_phi(t)[0], den ** 3)


@cache
def _top_sign(a: int, b: int) -> int:
    """Sign of e^A ∧ e^B ∧ e^K = ± e^{1..7} for disjoint 2-index masks a, b."""
    ab = a | b
    return _merge_sign(a, b) * _merge_sign(ab, 0x7F ^ ab)


def _b_matrix(terms: dict[int, object]) -> list[list]:
    """6 b(e_i, e_j) = coefficient of (e_i ⌟ phi) ∧ (e_j ⌟ phi) ∧ phi on e^{1..7}.

    `terms` maps the bitmasks of phi's nonzero terms to their coefficients;
    each contraction e_i ⌟ phi is kept as (mask, signed coefficient) pairs, and
    the triple wedge is read off term by term, so integer coefficients stay
    integers.
    """
    contractions = []
    for i in range(7):
        bit = 1 << i
        below = bit - 1
        contractions.append([(m ^ bit, -c if (m & below).bit_count() & 1 else c)
                             for m, c in terms.items() if m & bit])
    b = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            total = 0
            for ma, ca in contractions[i]:
                for mb, cb in contractions[j]:
                    if not ma & mb:
                        ck = terms.get(0x7F ^ ma ^ mb)
                        if ck:
                            total += _top_sign(ma, mb) * ca * cb * ck
            b[i][j] = b[j][i] = total
    return b


def induced_metric(phi: KForm) -> tuple[Metric, object]:
    """Metric and signed volume coefficient induced by a nondegenerate 3-form.

    Raises DegenerateError when phi is not a G2-structure; in exact mode an
    irrational det(b)^{1/9} raises ExactnessError. Exact coefficients are put
    over a common denominator first, so b is built in integer arithmetic.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form in dimension 7")
    mode = phi.mode
    # cleared denominators make b6 below an integer matrix in exact mode
    nums, den = mode.cleared(phi._terms.values())
    # b = b6 / scale
    scale = 6 * den ** 3
    b6 = _b_matrix(dict(zip(phi._terms, nums)))
    det_b = mode.div(mat_det(b6), scale ** 7)
    if det_b == 0:
        raise DegenerateError("3-form is degenerate")
    vol = mode.root(det_b, 9)
    if vol is None:
        raise ExactnessError(f"det(b)^(1/9) is irrational (det b = {det_b}); use float mode")
    factor = 1 / (scale * vol)
    zero = 0 * factor
    metric = Metric([[x * factor if x else zero for x in row] for row in b6], mode)
    if not metric.is_positive_definite():
        raise DegenerateError("3-form does not induce a positive metric")
    return metric, vol


class G2Structure:
    """A nondegenerate 3-form with its induced metric, volume and 4-form *phi."""

    def __init__(self, phi: KForm, metric: Metric, volume, starphi: KForm):
        self.phi = phi
        self.metric = metric
        self.volume = volume
        self.starphi = starphi
        self.mode = phi.mode
        self.orientation = 1 if volume > 0 else -1

    @classmethod
    def from_phi(cls, phi: KForm) -> "G2Structure":
        """The metric and volume induced by phi, and *phi by the Hodge star."""
        metric, vol = induced_metric(phi)
        return cls(phi, metric, vol, hodge(phi, metric.rows, 1 if vol > 0 else -1, metric.ctx))

    @classmethod
    def from_coframe(cls, coframe: Sequence[KForm]) -> "G2Structure":
        """The structure of a coframe theta = C e: g = C^T C, volume det C, and phi,
        *phi as pull-backs of the model forms; DegenerateError when det C = 0."""
        t, den = _cleared_coframe(coframe)
        mode = t[0].mode
        N = tuple(tuple(f._terms.get(1 << j, mode.zero) for j in range(7)) for f in t)
        det = mat_det(N)
        if not det:
            raise DegenerateError("coframe is degenerate")
        gram = mat_mul(transpose(N), N)
        if den != 1:
            gram = [[mode.div(x, den * den) for x in row] for row in gram]
        phi, p = _pullback_phi(t)
        # *phi = (1/2) omega ∧ omega + psi_- ∧ theta^7 from phi's 2-forms theta^ij
        star = (p[1, 2].wedge(p[3, 4]) + p[1, 2].wedge(p[5, 6]) + p[3, 4].wedge(p[5, 6])
                + (p[1, 3] - p[2, 4]).wedge(t[5].wedge(t[6]))
                + (p[1, 4] + p[2, 3]).wedge(t[4].wedge(t[6])))
        return cls(_over(phi, den ** 3), Metric(gram, mode),
                   det if den == 1 else mode.div(det, den ** 7), _over(star, den ** 4))

    def hodge(self, form: KForm) -> KForm:
        return hodge(form, self.metric.rows, self.orientation, self.metric.ctx)


@dataclass
class TorsionReport:
    coclosed: bool
    tau0: object
    purely_coclosed: bool
    calibrates_derived: bool | None
    residual_coclosed: float
    residual_tau0: float
    mode: Mode

    def to_json(self) -> dict:
        return {
            "coclosed": self.coclosed,
            "tau0": self.mode.encode(self.tau0),
            "purely_coclosed": self.purely_coclosed,
            "calibrates_derived": self.calibrates_derived,
            "residual_coclosed": float(self.residual_coclosed),
            "residual_tau0": float(self.residual_tau0),
            "mode": self.mode.value,
        }


def torsion_class(L: LieAlgebra, phi: KForm | G2Structure,
                  tol: float | None = None) -> TorsionReport:
    """Coclosedness, scalar torsion and pure-coclosedness of a G2-structure."""
    struct = phi if isinstance(phi, G2Structure) else G2Structure.from_phi(phi)
    phi_form = struct.phi

    d_star = L.ce_diff(struct.starphi)
    scale_star = max(struct.starphi.max_abs(), 1.0)
    res_co = d_star.max_abs() / scale_star
    coclosed = d_star.is_zero(tol, scale_star)

    dphi = L.ce_diff(phi_form)
    c = top_wedge_coeff(dphi, phi_form)
    # tau0 = (1/7) * *(dphi ∧ phi); *(e^{1..7}) = 1/vol
    tau0 = struct.mode.div(c, 7 * struct.volume)
    scale_tau = max(dphi.max_abs() * phi_form.max_abs(), 1.0)
    res_tau = abs(float(c)) / scale_tau
    purely = coclosed and struct.mode.equal(c, 0, tol, scale_tau)

    derived = L.derived_basis()
    calib = calibrates(struct, derived, tol) if len(derived) == 3 else None
    return TorsionReport(coclosed, tau0, purely, calib, float(res_co), float(res_tau),
                         struct.mode)


def calibrates(phi: KForm | G2Structure, subspace: Sequence[Sequence],
               tol: float | None = None) -> bool:
    """Whether a 3-dimensional subspace is calibrated by phi.

    Equivalent to the vanishing of (z1 ⌟ z2 ⌟ z3 ⌟ *phi) for a basis, which is
    basis-independent by multilinearity.
    """
    if len(subspace) != 3:
        raise ValueError("calibration test requires a 3-dimensional subspace")
    struct = phi if isinstance(phi, G2Structure) else G2Structure.from_phi(phi)
    w = struct.starphi
    scale = max(w.max_abs(), 1.0)
    for z in subspace:
        w = w.interior(struct.metric.as_vector(z))
        scale *= max(max(abs(float(x)) for x in z), 1.0)
    return w.is_zero(tol, scale)
