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
g = C^T C and volume det C, and in the frame theta the structure is the model
one. There phi is phi_0, the volume form is theta^{1..7}, and in the SU(3)
split phi_0 = omega ∧ theta^7 + psi_+ (omega = theta^12 + theta^34 + theta^56)
the 4-form is *phi_0 = (1/2) omega ∧ omega + psi_- ∧ theta^7 with
psi_- = theta^136 + theta^145 + theta^235 - theta^246 (Bryant 2005).

A `G2Structure` is held as its forms in a frame: theta for `from_coframe`,
the basis e for `from_phi`. Torsion: the structure is coclosed iff d(*phi) = 0
and purely coclosed iff in addition dphi ∧ phi = 0; the scalar torsion is
tau0 = (1/7) * (dphi ∧ phi). `torsion_class` writes the algebra's structure
constants in the frame once (for theta = C e, through C^-1 from `Mode.inverse`)
and applies d to the frame forms only, so in the frame theta it differentiates
the 7-term forms phi_0 and *phi_0, and tau0 is the theta^{1..7} coefficient of
dphi_0 ∧ phi_0 over 7. phi and *phi in the basis e are pulled back only when
read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

from ._linalg import dot, mat_det, transpose
from .exterior import (DegenerateError, ExactnessError, KForm, Mode, ModeMismatchError,
                       _indices_from_mask, _merge_sign, hodge, top_wedge_coeff)
from .liealg import LieAlgebra, Metric, _differential

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


@cache
def _model_forms(mode: Mode) -> tuple[KForm, KForm, int]:
    """(phi_0, *phi_0, 1): the frame forms of an adapted coframe, with volume 1."""
    return phi_standard(mode), starphi_standard(mode), 1


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


def _pullback_phi(t: Sequence[KForm]) -> KForm:
    """phi = omega ∧ theta^7 + psi_+ of 1-forms t, term by term in G2_PATTERN's
    order (theta^ijk = theta^ij ∧ theta^k)."""
    phi = KForm.zero(7, 3, t[0].mode)
    for (i, j, k), s in G2_PATTERN:
        phi = phi + s * t[i - 1].wedge(t[j - 1]).wedge(t[k - 1])
    return phi


def _pullback_starphi(t: Sequence[KForm]) -> KForm:
    """*phi = (1/2) omega ∧ omega + psi_- ∧ theta^7 of 1-forms t."""
    p = {(i, j): t[i - 1].wedge(t[j - 1])
         for i, j in ((1, 2), (3, 4), (5, 6), (1, 3), (2, 4), (1, 4), (2, 3), (5, 7), (6, 7))}
    return (p[1, 2].wedge(p[3, 4]) + p[1, 2].wedge(p[5, 6]) + p[3, 4].wedge(p[5, 6])
            + (p[1, 3] - p[2, 4]).wedge(p[6, 7]) + (p[1, 4] + p[2, 3]).wedge(p[5, 7]))


def phi_from_coframe(coframe: Sequence[KForm]) -> KForm:
    """Adapted 3-form of a coframe (seven 1-forms, declared orthonormal)."""
    t, den = _cleared_coframe(coframe)
    return _over(_pullback_phi(t), den ** 3)


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


# (m, n, mask of theta^mn) for 0-based m < n, the basis 2-forms of a 7-dim frame
_PAIRS = tuple((m, n, 1 << m | 1 << n) for m in range(7) for n in range(m + 1, 7))


class _Coframe(NamedTuple):
    """The frame of a coframe theta = N e / den, with N^-1 = adj / det."""
    forms: tuple[KForm, ...]
    N: tuple
    den: int
    adj: tuple
    det: object


def _coframe_table(d_terms: Sequence, s, frame: _Coframe) -> tuple[list, object]:
    """(table, t_den): the differentials of a coframe theta = N e / den in its own
    basis, d theta^i = sum of numerator * theta^mask over table[i - 1], divided by
    t_den, for an algebra with d e^k = (sum over d_terms[k - 1]) / s
    (`LieAlgebra._structure`) and N^-1 = adj / det (`Mode.inverse`).

    e^a = (den / det) sum_m adj_am theta^m, so e^ab = (den / det)^2 sum_{m<n}
    (adj_am adj_bn - adj_an adj_bm) theta^mn, the 2x2 minors of rows a, b of adj,
    and d theta^i = sum_k N_ik d e^k / den. Hence t_den = s det^2 and the
    numerators are den times integers in exact mode.
    """
    de = []  # (k, s det^2 / den times the theta^mn coefficients of d e^k)
    for k, terms in enumerate(d_terms):
        if terms:
            acc = [0] * len(_PAIRS)
            for mask, c in terms:
                ra, rb = (frame.adj[i - 1] for i in _indices_from_mask(mask))
                acc = [x + c * (ra[m] * rb[n] - ra[n] * rb[m])
                       for x, (m, n, _) in zip(acc, _PAIRS)]
            de.append((k, acc if frame.den == 1 else [frame.den * x for x in acc]))
    table = []
    for row in frame.N:
        acc = [0] * len(_PAIRS)
        for k, dk in de:
            if row[k]:
                acc = [x + row[k] * y for x, y in zip(acc, dk)]
        table.append([(mask, x) for (_, _, mask), x in zip(_PAIRS, acc) if x])
    return table, s * frame.det ** 2


class G2Structure:
    """A G2-structure, held as its forms in a frame of 1-forms F^i = sum_j F_ij e^j.

    `from_coframe` works in the adapted coframe theta itself: there phi and *phi
    are the model forms phi_0 and *phi_0, and the volume form is theta^{1..7}.
    `from_phi` works in the basis e (F = I), with phi, *phi = hodge(phi) and the
    volume `volume`. `torsion_class` and `calibrates` read only the frame: its
    forms (`_frame_forms`), the differentials of its 1-forms (`_frame_table`)
    and F z (`_frame_vector`). The public `phi` and `starphi` are the forms in
    the basis e; a coframe-built structure pulls them back on first use.
    """

    def __init__(self, phi: KForm | None, metric: Metric, volume, starphi: KForm | None,
                 coframe: _Coframe | None = None):
        self._phi = phi
        self.metric = metric
        self.volume = volume
        self._starphi = starphi
        self._coframe = coframe
        self.mode = metric.mode
        self.orientation = 1 if volume > 0 else -1

    @classmethod
    def from_phi(cls, phi: KForm) -> "G2Structure":
        """The metric and volume induced by phi, and *phi by the Hodge star."""
        metric, vol = induced_metric(phi)
        return cls(phi, metric, vol, hodge(phi, metric.rows, 1 if vol > 0 else -1, metric.ctx))

    @classmethod
    def from_coframe(cls, coframe: Sequence[KForm]) -> "G2Structure":
        """The structure of a coframe theta = C e: g = C^T C, volume det C, and
        the model forms in the frame theta; DegenerateError when det C = 0."""
        t, den = _cleared_coframe(coframe)
        mode = t[0].mode
        N = tuple(tuple(f._terms.get(1 << j, mode.zero) for j in range(7)) for f in t)
        try:
            adj, d, det = mode.inverse(N)
        except ZeroDivisionError:
            det = 0
        if not det:
            raise DegenerateError("coframe is degenerate")
        # g = N^T N / den^2, each entry above the diagonal computed once;
        # symmetric by construction and positive definite as det N != 0
        cols = transpose(N)
        gram = [[None] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i, 7):
                gram[i][j] = gram[j][i] = dot(cols[i], cols[j])
        metric = Metric._from_cleared(tuple(map(tuple, gram)), den * den, mode)
        return cls(None, metric, det if den == 1 else mode.div(det, den ** 7),
                   None, _Coframe(tuple(coframe), N, den, adj, d))

    @property
    def phi(self) -> KForm:
        """phi in the basis e."""
        if self._phi is None:
            self._phi = phi_from_coframe(self._coframe.forms)
        return self._phi

    @property
    def starphi(self) -> KForm:
        """*phi in the basis e."""
        if self._starphi is None:
            t, den = _cleared_coframe(self._coframe.forms)
            self._starphi = _over(_pullback_starphi(t), den ** 4)
        return self._starphi

    def _frame_forms(self) -> tuple[KForm, KForm, object]:
        """(phi_F, *phi_F, the coefficient of the volume form on F^{1..7})."""
        if self._coframe is None:
            return self._phi, self._starphi, self.volume
        return _model_forms(self.mode)

    def _frame_table(self, L: LieAlgebra) -> tuple[Sequence, object]:
        """(table, t_den): d F^i = (sum over table[i - 1]) / t_den."""
        if L.dim != 7:
            raise ValueError("form dimension mismatch")
        d_terms, _brackets, s = L._structure(self.mode)
        if self._coframe is None:
            return d_terms, s
        return _coframe_table(d_terms, s, self._coframe)

    def _frame_vector(self, z: Sequence) -> Sequence:
        """A positive multiple of F z: integers in exact mode, F z itself in
        float mode."""
        z = self.mode.cleared([self.mode.convert(x) for x in z])[0]
        return z if self._coframe is None else [dot(row, z) for row in self._coframe.N]

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


def _ratio(num: float, scale: float) -> float:
    """num / scale, and 0 when num = 0 (then scale may be 0 too)."""
    return num / scale if num else 0.0


def torsion_class(L: LieAlgebra, phi: KForm | G2Structure,
                  tol: float | None = None) -> TorsionReport:
    """Coclosedness, scalar torsion and pure-coclosedness of a G2-structure.

    Everything is computed in the structure's frame F, with c' the structure
    constants there (the coefficients of d F^i). The residuals are scale-free:
    residual_coclosed = max|d *phi_F| / (max|c'| max|*phi_F|) and residual_tau0
    = |c_F| / (max|d phi_F| max|phi_F|), c_F the F^{1..7} coefficient of
    d phi_F ∧ phi_F; float mode compares each numerator with tol times its
    scale.
    """
    struct = phi if isinstance(phi, G2Structure) else G2Structure.from_phi(phi)
    phi_f, star_f, vol_f = struct._frame_forms()
    table, t_den = struct._frame_table(L)
    constants = max((abs(c) for terms in table for _, c in terms), default=0) / t_den

    d_star = _differential(table, t_den, star_f)
    scale_star = constants * star_f.max_abs()
    res_co = _ratio(d_star.max_abs(), scale_star)
    coclosed = d_star.is_zero(tol, scale_star)

    dphi = _differential(table, t_den, phi_f)
    c = top_wedge_coeff(dphi, phi_f)
    # tau0 = (1/7) * *(dphi ∧ phi); *(F^{1..7}) = 1/vol_F
    tau0 = struct.mode.div(c, 7 * vol_f)
    scale_tau = dphi.max_abs() * phi_f.max_abs()
    res_tau = _ratio(abs(float(c)), scale_tau)
    purely = coclosed and struct.mode.equal(c, 0, tol, scale_tau)

    derived = L.derived_basis()
    calib = calibrates(struct, derived, tol) if len(derived) == 3 else None
    return TorsionReport(coclosed, tau0, purely, calib, res_co, res_tau, struct.mode)


def calibrates(phi: KForm | G2Structure, subspace: Sequence[Sequence],
               tol: float | None = None) -> bool:
    """Whether a 3-dimensional subspace is calibrated by phi.

    Equivalent to the vanishing of (z1 ⌟ z2 ⌟ z3 ⌟ *phi) for a basis, which is
    basis-independent by multilinearity. It is evaluated in the structure's
    frame F as (F z1 ⌟ F z2 ⌟ F z3 ⌟ *phi_F); float mode holds it to tol times
    max|*phi_F| * prod_i max|F z_i|.
    """
    if len(subspace) != 3:
        raise ValueError("calibration test requires a 3-dimensional subspace")
    struct = phi if isinstance(phi, G2Structure) else G2Structure.from_phi(phi)
    w = struct._frame_forms()[1]
    scale = w.max_abs()
    for z in subspace:
        v = struct._frame_vector(z)
        w = w.interior(v)
        scale *= max(abs(float(x)) for x in v)
    return w.is_zero(tol, scale)
