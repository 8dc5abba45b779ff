"""Seeded inputs for the benchmark workloads.

Everything here is plain Python over `fractions.Fraction` and reads only the
catalog's *data* (structure equations, pinned witness / nilsoliton /
obstruction metrics, fixture coframes); no g2nil computation is called, so
the expected verdicts attached to each input are independent of the program
under test.

Expected verdicts come from three sources:

* the paper's closed forms for the metric families (evaluated below);
* the pinned flags of witness, nilsoliton and obstruction metrics and of the
  fixture coframes;
* invariance: a metric pulled back by a Lie-algebra automorphism, or scaled
  by a homothety, has the verdict of its source metric.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from pathlib import Path

DIM = 7

# Small positive rationals keep Fraction sizes, and so operation costs,
# comparable from seed to seed.
POS = tuple(Q(x) for x in ("1/3", "1/2", "2/3", "3/4", "1", "4/3", "3/2", "2", "5/2", "3"))
# values whose square stays within a moderate scale range
ROOTS = tuple(Q(x) for x in ("1/2", "2/3", "3/4", "1", "4/3", "3/2", "2"))
# a -> sqrt(1 - a^2), both rational: the legs of Pythagorean triples
PYTH_COS = {Q(a, c): Q(b, c) for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13),
                                             (8, 15, 17), (15, 8, 17), (7, 24, 25), (24, 7, 25))}
PYTH = tuple(PYTH_COS)
SHEAR = tuple(Q(x) for x in ("-1", "-1/2", "1/2", "1"))
DILATE = tuple(Q(x) for x in ("2/3", "1", "3/2"))
HOMOTHETY = tuple(Q(x) for x in ("1/2", "2/3", "1", "3/2", "2"))


# --------------------------------------------------------------------------
# matrices


def identity():
    return [[Q(int(i == j)) for j in range(DIM)] for i in range(DIM)]


def diag(entries):
    return [[Q(entries[i]) if i == j else Q(0) for j in range(DIM)] for i in range(DIM)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def is_diagonal(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(DIM) for j in range(DIM) if i != j)


def leading_minors_positive(rows) -> bool:
    """Positive definiteness by Sylvester's criterion (fraction Gaussian elimination)."""
    a = [list(r) for r in rows]
    for k in range(DIM):
        if a[k][k] <= 0:
            return False
        for r in range(k + 1, DIM):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return True


# --------------------------------------------------------------------------
# algebras as data


def derived_indices(structure) -> list[int]:
    """0-based basis vectors spanning n' (catalog algebras are in adapted form:
    n' is spanned by the f_k whose d e^k is nonzero)."""
    return [k for k, eq in enumerate(structure) if eq]


def structure_tensor(structure):
    """s[a][b][k] with [f_a, f_b] = sum_k s[a][b][k] f_k, from d e^k = sum c e^{ij}
    and the convention (d alpha)(x, y) = -alpha([x, y])."""
    s = [[[Q(0)] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for k, eq in enumerate(structure):
        for (i, j), c in (eq or {}).items():
            s[i - 1][j - 1][k] -= Q(c)
            s[j - 1][i - 1][k] += Q(c)
    return s


def automorphism(rng: random.Random, structure, shear: bool):
    """A seeded rational automorphism A (columns are the images A f_j).

    A = S D_t: D_t is the grading dilation (t on the generators, t^2 on n'),
    S shears every generator into n' (f_i -> f_i + sum s_ik f_k). Both keep
    the structure equations of a 2-step nilpotent algebra because n' is
    central and [V, V] lands in n'.
    """
    der = derived_indices(structure)
    gen = [i for i in range(DIM) if i not in der]
    t = rng.choice(DILATE)
    A = diag([t * t if i in der else t for i in range(DIM)])
    if shear:
        S = identity()
        for i in gen:
            for k in der:
                S[k][i] = rng.choice(SHEAR)
        A = matmul(S, A)
    return A


def pull_back(rows, A, lam=Q(1)):
    """lam * A^T g A, the metric g(A x, A y) scaled by a homothety."""
    return [[lam * x for x in row] for row in matmul(matmul(transpose(A), rows), A)]


# --------------------------------------------------------------------------
# the paper's closed forms for the metric families


def heis5_rows(r, s):
    return diag([r * r, 1, s * s, 1, 1, 1, 1])


def heis5_cond(r, s) -> bool:
    return r == s


def heis7_rows(r, s, t):
    return diag([r * r, 1, s * s, 1, t * t, 1, 1])


def heis7_cond(r, s, t) -> bool:
    """The harmonic rule: 1/r = 1/s + 1/t for the smallest r."""
    x = sorted((r, s, t))
    return 1 / x[0] == 1 / x[1] + 1 / x[2]


def block_rows(diag7, E, F, G):
    rows = diag(diag7[:4] + [E, G] + diag7[6:])
    rows[4][5] = rows[5][4] = Q(F)
    return rows


def h3c_rows(rho, sigma, E, F, G):
    """h3^C + R template with r = rho^2, s = sigma^2 (rational square roots)."""
    return block_rows([1, rho * rho, 1, sigma * sigma, 0, 0, 1], E, F, G)


def h3c_cond(rho, sigma, E, F, G) -> bool:
    if rho == 1 and sigma == 1:
        return True
    if F != 0:
        return False
    if G == E * ((rho * sigma + 1) / (rho + sigma)) ** 2:
        return True
    return rho != sigma and G == E * ((rho * sigma - 1) / (rho - sigma)) ** 2


def h3h3_rows(a, b, E, F, G):
    rows = block_rows([1, 1, 1, 1, 0, 0, 1], E, F, G)
    rows[0][2] = rows[2][0] = Q(a)
    rows[1][3] = rows[3][1] = Q(b)
    return rows


def h3h3_cond(a, b, E, F, G) -> bool:
    if G != E:
        return False
    c = PYTH_COS[a] * PYTH_COS[b]
    return F == -E * (a * b + c) or F == -E * (a * b - c)


def n6_2_rows(rho, E, F, G):
    return block_rows([1, 1, 1, rho * rho, 0, 0, 1], E, F, G)


def n6_2_cond(rho, E, F, G) -> bool:
    if F != 0:
        return False
    r = rho * rho
    if G == E * r / (rho + 1) ** 2:
        return True
    return rho != 1 and G == E * r / (rho - 1) ** 2


def n5_2_rows(E, G):
    return diag([1, 1, 1, 1, E, G, 1])


def n5_2_cond(E, G) -> bool:
    return E == G


# --------------------------------------------------------------------------
# family draws on and off the loci
#
# `k` numbers the draws of one family and side of the locus. It picks the
# branch (and with it whether the metric has off-diagonal entries), so the
# mix of input shapes is the same for every seed; the seed picks the values.


def _draw_heis5(rng, on, k):
    while True:
        r, s = rng.choice(POS), rng.choice(POS)
        if on:
            s = r
        if heis5_cond(r, s) == on:
            return heis5_rows(r, s), on


def _draw_heis7(rng, on, k):
    while True:
        s, t = rng.choice(POS), rng.choice(POS)
        r = s * t / (s + t) if on else rng.choice(POS)
        xs = [r, s, t]
        rng.shuffle(xs)
        if heis7_cond(*xs) == on:
            return heis7_rows(*xs), on


def _draw_h3c(rng, on, k):
    """On: the unit block (F != 0), the plus branch, the minus branch in turn.
    Off: G moved off the plus branch, or F != 0, in turn."""
    while True:
        rho, sigma, E = rng.choice(ROOTS), rng.choice(ROOTS), rng.choice(POS)
        F = Q(0)
        if on and k % 3 == 0:                 # the unit block admits every (E, F, G)
            rho = sigma = Q(1)
            G = rng.choice(POS)
            F = rng.choice((Q(-1, 3), Q(1, 4), Q(1, 2))) * min(E, G)
        elif not on or k % 3 == 1 or rho == sigma:
            G = E * ((rho * sigma + 1) / (rho + sigma)) ** 2
        else:
            G = E * ((rho * sigma - 1) / (rho - sigma)) ** 2
        if not on:
            if rho == 1 and sigma == 1:
                sigma = Q(1, 2)
            if k % 2 == 0:
                G = G * rng.choice((Q(1, 2), Q(3, 2), Q(2)))
            else:
                F = rng.choice((Q(-1, 3), Q(1, 4))) * min(E, G)
        if G <= 0 or E * G <= F * F:
            continue
        if h3c_cond(rho, sigma, E, F, G) == on:
            return h3c_rows(rho, sigma, E, F, G), on


def _draw_h3h3(rng, on, k):
    """Both branches in turn; off the locus G != E, or F halved, in turn."""
    while True:
        a, b = rng.choice(PYTH), rng.choice(PYTH)
        E = rng.choice(POS)
        c = PYTH_COS[a] * PYTH_COS[b]
        F = -E * (a * b + c) if k % 2 == 0 else -E * (a * b - c)
        G = E
        if not on:
            if k % 2 == 0:
                G = E * rng.choice((Q(1, 2), Q(3, 2), Q(2)))
            else:
                F = F / 2
        if E * G <= F * F:
            continue
        if h3h3_cond(a, b, E, F, G) == on:
            return h3h3_rows(a, b, E, F, G), on


def _draw_n6_2(rng, on, k):
    """Both branches in turn; off the locus G moved, or F != 0, in turn."""
    while True:
        rho, E = rng.choice(ROOTS), rng.choice(POS)
        F = Q(0)
        if rho == 1 or k % 2 == 0:
            G = E * rho * rho / (rho + 1) ** 2
        else:
            G = E * rho * rho / (rho - 1) ** 2
        if not on:
            if k % 2 == 0:
                G = G * rng.choice((Q(1, 2), Q(2)))
            else:
                F = rng.choice((Q(-1, 3), Q(1, 4))) * min(E, G)
        if E * G <= F * F:
            continue
        if n6_2_cond(rho, E, F, G) == on:
            return n6_2_rows(rho, E, F, G), on


def _draw_n5_2(rng, on, k):
    while True:
        E = rng.choice(POS)
        G = E if on else rng.choice(POS)
        if n5_2_cond(E, G) == on:
            return n5_2_rows(E, G), on


def _draw_never(rng, on, k):
    """Any metric: h3_R4, n7_2_A and n7_2_B never admit."""
    return diag([rng.choice(POS) for _ in range(DIM)]), False


FAMILY_DRAWS = {
    "h3_R4": _draw_never, "h5_R2": _draw_heis5, "h7": _draw_heis7,
    "h3C_R": _draw_h3c, "h3_h3_R": _draw_h3h3, "n6_2_R": _draw_n6_2,
    "n5_2_R2": _draw_n5_2, "n7_2_A": _draw_never, "n7_2_B": _draw_never,
}


# --------------------------------------------------------------------------
# pinned source metrics


def fixture_files(fixture_dir: Path) -> dict[str, dict]:
    return {p.name: json.loads(p.read_text()) for p in sorted(fixture_dir.glob("*.json"))}


def _fixture_metric(fx):
    spec = fx["metric"]
    if "diag" in spec:
        return diag([Q(x) for x in spec["diag"]])
    return [[Q(x) for x in row] for row in spec["rows"]]


def source_metrics(entry, fixtures: dict[str, dict]):
    """Pinned (label, rows, verdict) triples for one catalog entry."""
    out = []
    if entry.witness_rows is not None:
        out.append(("witness", [[Q(x) for x in row] for row in entry.witness_rows], True))
    if entry.nilsoliton_diag is not None:
        out.append(("nilsoliton", diag(list(entry.nilsoliton_diag)),
                    bool(entry.nilsoliton_purely_coclosed)))
    for name in entry.fixture_names:
        fx = fixtures[name]
        if fx["kind"] == "obstruction":
            out.append(("obstruction", _fixture_metric(fx), bool(fx["exists"])))
    return out


def transform(rng, structure, rows, nondiag: bool):
    """Pull a metric back by a seeded automorphism and homothety."""
    A = automorphism(rng, structure, shear=nondiag)
    out = pull_back(rows, A, rng.choice(HOMOTHETY))
    if not leading_minors_positive(out):
        raise ValueError("pulled-back metric is not positive definite")
    return out


def coframe_rows(rows, params=None):
    """Fixture coframe rows (strings, possibly naming a parameter) as Fractions."""
    out = []
    for row in rows:
        vals = []
        for c in row:
            c = str(c).strip()
            sign = -1 if c.startswith("-") else 1
            c = c.lstrip("+-")
            vals.append(sign * (Q(params[c]) if params and c in params else Q(c)))
        out.append(vals)
    return out
