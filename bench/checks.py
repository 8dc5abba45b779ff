"""Independent checks of the program's outputs.

Each checker returns None when the output is right and a one-line reason
when it is wrong. None of them calls into g2nil: float constructions are
re-verified with a small numpy exterior calculus built from the structure
constants, exact verifications with Fraction matrix products, and regression
passes against a row count derived from the catalog data and fixture files.
"""
from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations, permutations

import numpy as np

DIM = 7

# phi = e127 + e347 + e567 + e135 - e146 - e236 - e245 on an orthonormal coframe
PHI = (((0, 1, 6), 1.0), ((2, 3, 6), 1.0), ((4, 5, 6), 1.0), ((0, 2, 4), 1.0),
       ((0, 3, 5), -1.0), ((1, 2, 5), -1.0), ((1, 3, 4), -1.0))

# residual bound for float checks, relative to the size of the structure constants
FLOAT_TOL = 1e-8


def check_verdict(exists, expected: bool) -> str | None:
    if not isinstance(exists, bool):
        return f"verdict {exists!r} is not a bool"
    if exists != expected:
        return f"verdict {exists} != expected {expected}"
    return None


# --------------------------------------------------------------------------
# float constructions


def _perm_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _dense(terms, degree: int) -> np.ndarray:
    """Fully antisymmetric component tensor of sum c e^I over sorted index tuples I."""
    t = np.zeros((DIM,) * degree)
    for idx, c in terms:
        for perm in permutations(range(degree)):
            t[tuple(idx[p] for p in perm)] = c * _perm_sign(perm)
    return t


def _star_terms(terms):
    """Hodge star on an orthonormal coframe oriented by e^1..e^7."""
    out = []
    for idx, c in terms:
        rest = tuple(i for i in range(DIM) if i not in idx)
        out.append((rest, c * _perm_sign(idx + rest)))
    return out


def _d(alpha: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Chevalley-Eilenberg differential of a k-form given as a component tensor.

    (d alpha)(X_0..X_k) = sum_{p<q} (-1)^{p+q} alpha([X_p, X_q], X_0..^p..^q..X_k)
    with c[a, b, m] the structure constants [E_a, E_b] = sum_m c[a, b, m] E_m.
    """
    k = alpha.ndim
    B = np.tensordot(c, alpha, axes=([2], [0]))       # B[a, b, rest]
    out = np.zeros((DIM,) * (k + 1))
    for p, q in combinations(range(k + 1), 2):
        out += (-1) ** (p + q) * np.moveaxis(B, [0, 1], [p, q])
    return out


def frame_constants(structure_s, C: np.ndarray) -> np.ndarray:
    """Structure constants in the frame dual to the coframe rows C."""
    Cinv = np.linalg.inv(C)
    return np.einsum("ai,bj,abk,mk->ijm", Cinv, Cinv, structure_s, C)


def check_construction(structure_s, g: np.ndarray, coframe_rows) -> str | None:
    """The coframe is orthonormal for g, and its phi has d*phi = 0, dphi ∧ phi = 0."""
    C = np.array(coframe_rows, dtype=float)
    if C.shape != (DIM, DIM) or not np.all(np.isfinite(C)):
        return "coframe is not a finite 7x7 matrix"
    scale_g = max(1.0, float(np.max(np.abs(g))))
    err = float(np.max(np.abs(C.T @ C - g)))
    if err > FLOAT_TOL * scale_g:
        return f"coframe is not orthonormal for g (|C^T C - g| = {err:.3g})"
    c = frame_constants(structure_s, C)
    scale = max(1.0, float(np.max(np.abs(c))))
    star = _d(_dense(_star_terms(PHI), 4), c)
    if float(np.max(np.abs(star))) > FLOAT_TOL * scale:
        return f"d*phi != 0 (max {float(np.max(np.abs(star))):.3g})"
    dphi = _d(_dense(PHI, 3), c)
    top = 0.0
    for idx, coef in PHI:
        rest = tuple(i for i in range(DIM) if i not in idx)
        top += dphi[rest] * coef * _perm_sign(rest + idx)
    if abs(top) > FLOAT_TOL * scale:
        return f"dphi ^ phi != 0 ({top:.3g})"
    return None


def structure_array(s) -> np.ndarray:
    return np.array([[[float(x) for x in row] for row in plane] for plane in s])


# --------------------------------------------------------------------------
# exact verifications


def check_verification(coframe_rows, metric_rows, coclosed, purely, expected: bool) -> str | None:
    """Induced metric = C^T C in Fractions; coclosed; purely as expected."""
    C = coframe_rows
    want = [[sum((C[k][i] * C[k][j] for k in range(DIM)), Q(0)) for j in range(DIM)]
            for i in range(DIM)]
    got = [[Q(x) for x in row] for row in metric_rows]
    if got != want:
        bad = next((i, j) for i in range(DIM) for j in range(DIM) if got[i][j] != want[i][j])
        return f"induced metric differs from C^T C at {bad}"
    if coclosed is not True:
        return "structure is not coclosed"
    if purely is not expected:
        return f"purely coclosed {purely} != expected {expected}"
    return None


# --------------------------------------------------------------------------
# regression passes


def regression_row_count(entries, families, fixtures: dict[str, dict]) -> int:
    """Rows one regression pass must produce: a sanity and an existence row per
    algebra, two rows per pinned nilsoliton, one per family sample, one per
    obstruction or pure-coframe fixture and one per family-coframe sample."""
    n = sum(2 + (2 if e.nilsoliton_diag is not None else 0) for e in entries)
    n += sum(len(f.samples) for f in families)
    for fx in fixtures.values():
        n += len(fx["samples"]) if fx["kind"] == "family_coframe" else 1
    return n


def check_regression(rows, expected_rows: int) -> str | None:
    if len(rows) != expected_rows:
        return f"{len(rows)} rows != {expected_rows} derived from the catalog and fixtures"
    failed = [r["id"] for r in rows if r.get("passed") is not True]
    if failed:
        return f"{len(failed)} rows failed, first {failed[0]}"
    if len({r["id"] for r in rows}) != len(rows):
        return "duplicate row ids"
    return None
