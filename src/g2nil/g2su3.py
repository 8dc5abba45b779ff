"""G2-structures on 7-dimensional algebras and their SU(3) reductions.

The adapted model 3-form is

    phi = e^127 + e^347 + e^567 + e^135 - e^146 - e^236 - e^245,

whose induced metric makes e_1..e_7 orthonormal. A 3-form phi is a
G2-structure iff the symmetric form

    b(v, w) vol = (1/6) (v ⌟ phi) ∧ (w ⌟ phi) ∧ phi

normalizes to a positive-definite metric g = b * det(b)^{-1/9}; the signed
coefficient det(b)^{1/9} of e^{1..7} is the volume, and its sign fixes the
orientation used by the Hodge star.

Torsion: the structure is coclosed iff d(*phi) = 0 and purely coclosed iff in
addition dphi ∧ phi = 0; the scalar torsion is tau0 = (1/7) * (dphi ∧ phi).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from ._linalg import mat_det, rational_root
from .exterior import (DegenerateError, ExactnessError, KForm, Mode, _cleared, _merge_sign,
                       hodge, top_wedge_coeff)
from .liealg import LieAlgebra, Metric

__all__ = [
    "G2_PATTERN", "phi_standard", "starphi_standard", "phi_from_coframe",
    "induced_metric", "G2Structure", "TorsionReport", "torsion_class",
    "SU3Structure", "su3_reduce", "is_half_flat", "is_special_half_flat",
    "calibrates",
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
    one = 1 if mode is Mode.EXACT else 1.0
    return KForm.from_terms(7, 3, {idx: s * one for idx, s in G2_PATTERN}, mode)


def starphi_standard(mode: Mode = Mode.EXACT) -> KForm:
    one = 1 if mode is Mode.EXACT else 1.0
    return KForm.from_terms(7, 4, {idx: s * one for idx, s in STARPHI_PATTERN}, mode)


def phi_from_coframe(coframe: Sequence[KForm]) -> KForm:
    """Adapted 3-form of a coframe (seven 1-forms, declared orthonormal)."""
    if len(coframe) != 7:
        raise ValueError("a coframe consists of seven 1-forms")
    mode = coframe[0].mode
    for c in coframe:
        if c.degree != 1 or c.dim != 7:
            raise ValueError("coframe entries must be 1-forms in dimension 7")
    out = KForm.zero(7, 3, mode)
    for (i, j, k), s in G2_PATTERN:
        term = coframe[i - 1].wedge(coframe[j - 1]).wedge(coframe[k - 1])
        out = out + (s if mode is Mode.EXACT else float(s)) * term
    return out


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
    exact = mode is Mode.EXACT
    # cleared denominators make b6 below an integer matrix in exact mode
    nums, den = _cleared(phi._terms.values(), mode)
    # b = b6 / scale
    scale = 6 * den ** 3
    b6 = _b_matrix(dict(zip(phi._terms, nums)))
    det_b6 = mat_det(b6)
    det_b = Fraction(det_b6, scale ** 7) if exact else det_b6 / scale ** 7
    if det_b == 0:
        raise DegenerateError("3-form is degenerate")
    if exact:
        vol = rational_root(det_b, 9)
        if vol is None:
            raise ExactnessError(
                f"det(b)^(1/9) is irrational (det b = {det_b}); use float mode")
    else:
        vol = (abs(det_b)) ** (1.0 / 9.0) * (1.0 if det_b > 0 else -1.0)
    factor = 1 / (scale * vol)
    zero = 0 * factor
    metric = Metric([[x * factor if x else zero for x in row] for row in b6], mode)
    if not metric.is_positive_definite():
        raise DegenerateError("3-form does not induce a positive metric")
    return metric, vol


class G2Structure:
    """A nondegenerate 3-form with its induced metric, volume and Hodge star."""

    def __init__(self, phi: KForm, metric: Metric, volume):
        self.phi = phi
        self.metric = metric
        self.volume = volume
        self.mode = phi.mode
        self.orientation = 1 if volume > 0 else -1
        self._starphi: KForm | None = None

    @classmethod
    def from_phi(cls, phi: KForm) -> "G2Structure":
        metric, vol = induced_metric(phi)
        return cls(phi, metric, vol)

    @classmethod
    def from_coframe(cls, coframe: Sequence[KForm]) -> "G2Structure":
        return cls.from_phi(phi_from_coframe(coframe))

    def hodge(self, form: KForm) -> KForm:
        return hodge(form, self.metric.rows, self.orientation, self.metric.ctx)

    @property
    def starphi(self) -> KForm:
        if self._starphi is None:
            self._starphi = self.hodge(self.phi)
        return self._starphi


def nondegenerate(phi: KForm) -> bool:
    try:
        induced_metric(phi)
        return True
    except DegenerateError:
        return False


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
        tau = self.tau0
        return {
            "coclosed": self.coclosed,
            "tau0": str(tau) if isinstance(tau, Fraction) else float(tau),
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
    tau0 = (Fraction(c) / (7 * struct.volume)) if struct.mode is Mode.EXACT \
        else c / (7.0 * struct.volume)
    scale_tau = max(dphi.max_abs() * phi_form.max_abs(), 1.0)
    res_tau = abs(float(c)) / scale_tau
    purely = coclosed and struct.mode.equal(c, 0, tol, scale_tau)

    derived = L.derived_basis()
    calib = calibrates(struct, derived, tol) if len(derived) == 3 else None
    return TorsionReport(coclosed, tau0, purely, calib, float(res_co), float(res_tau),
                         struct.mode)


@dataclass
class SU3Structure:
    """(omega, psi_plus, psi_minus) induced on the orthogonal complement of z."""
    omega: KForm
    psi_plus: KForm
    psi_minus: KForm
    z: tuple
    z_flat: KForm
    mode: Mode


def su3_reduce(phi: KForm | G2Structure, z: Sequence, tol: float | None = None) -> SU3Structure:
    """Split phi = omega ∧ z^b + psi_plus along a unit vector z.

    psi_minus is recovered from the 4-form: *phi = (1/2) omega^2 + psi_minus ∧ z^b,
    so psi_minus = -(z ⌟ *phi).
    """
    struct = phi if isinstance(phi, G2Structure) else G2Structure.from_phi(phi)
    zz = tuple(z)
    norm_sq = struct.metric.norm_sq(zz)
    if not struct.mode.equal(norm_sq, 1, tol):
        raise ValueError(f"z must be a unit vector, |z|^2 = {norm_sq}")
    flat_coeffs = [sum(struct.metric.rows[i][j] * zz[j] for j in range(7)) for i in range(7)]
    z_flat = KForm.from_terms(7, 1, {(i + 1,): c for i, c in enumerate(flat_coeffs) if c != 0},
                              struct.mode)
    omega = struct.phi.interior(zz)
    psi_plus = struct.phi - omega.wedge(z_flat)
    psi_minus = -struct.starphi.interior(zz)
    return SU3Structure(omega, psi_plus, psi_minus, zz, z_flat, struct.mode)


def is_half_flat(L: LieAlgebra, s: SU3Structure, tol: float | None = None) -> bool:
    """d(omega) ∧ omega = 0 and d(psi_minus) = 0."""
    dw_w = L.ce_diff(s.omega).wedge(s.omega)
    dpsi = L.ce_diff(s.psi_minus)
    scale = max(s.omega.max_abs() ** 2, s.psi_minus.max_abs(), 1.0)
    return dw_w.is_zero(tol, scale) and dpsi.is_zero(tol, scale)


def is_special_half_flat(L: LieAlgebra, s: SU3Structure, tol: float | None = None) -> bool:
    """Half-flat with d(omega) ∧ psi_plus = 0 as well."""
    if not is_half_flat(L, s, tol):
        return False
    dw_psi = L.ce_diff(s.omega).wedge(s.psi_plus)
    return dw_psi.is_zero(tol, max(s.omega.max_abs() * s.psi_plus.max_abs(), 1.0))


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
