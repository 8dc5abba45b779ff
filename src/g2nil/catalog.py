"""Built-in catalog of the seven-dimensional 2-step nilpotent Lie algebras.

Sixteen isomorphism classes are recorded with exact rational structure
constants, together with everything needed for regression testing of the
coclosed / purely-coclosed machinery:

* per-algebra verdicts (which algebras admit coclosed, respectively purely
  coclosed, coframes for some metric),
* nilsoliton metrics with their exact soliton constants and the verdict of
  the purely-coclosed criterion on each of them,
* an explicit witness metric for every algebra that admits a purely coclosed
  coframe,
* parameterized metric families with their exact closed-form admissibility
  conditions, and
* a directory of pinned fixtures: obstructed metrics with the exact Gram
  matrices of the torsion quadratic form, explicit rational coframes whose
  torsion verdicts are checked in Exact mode, and one parameterized coframe
  family.

``run_regression`` replays every pinned value through the live pipeline and
reports one row per check.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .exterior import G2nilError, KForm, Mode, form_inner
from .g2su3 import G2Structure, torsion_class
from .liealg import LieAlgebra, Metric, is_nilsoliton
from .structure import (
    coclosed_always,
    coclosed_exists,
    decompose,
    m_matrix,
    purely_coclosed_exists,
    sd_gram,
)

__all__ = [
    "CatalogEntry", "MetricFamily", "UnknownAlgebraError",
    "get", "list", "names",
    "family_metric", "families", "get_family",
    "fixture_dir", "fixture_names", "load_fixture", "check_fixture",
    "parse_coefficient", "coframe_from_fixture",
    "expected_verdicts", "run_regression", "export",
]

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


class UnknownAlgebraError(G2nilError, KeyError):
    """Raised when a catalog lookup does not match any recorded algebra."""


def _normalize(name: str) -> str:
    """Collapse a human-written algebra name onto its catalog key.

    Keeps only letters and digits, lowercased, so ``n_{7,3,B_1}``,
    ``n7,3,B1`` and ``n7_3_b1`` all resolve to the same entry.
    """
    return re.sub(r"[^a-z0-9]", "", name.lower())


# --------------------------------------------------------------------------
# coefficient strings (fixtures and CLI share this tiny grammar)
# --------------------------------------------------------------------------

_COEFF_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:/\d+)?|\d*\.\d+)\s*(?:\*\s*(?P<par>[A-Za-z_]\w*))?"
    r"|(?P<bare>[A-Za-z_]\w*))\s*$")
_PLAIN_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_coefficient(text, params: Mapping[str, object] | None = None,
                      mode: Mode = Mode.EXACT):
    """Parse a coefficient literal such as ``-3/2``, ``a``, ``-b`` or ``1/2*c``.

    Parameter names are substituted from *params*; the result is a Fraction
    when every ingredient is rational and *mode* is Exact, a float otherwise.
    """
    if isinstance(text, (int, Fraction)):
        return mode.convert(Fraction(text))
    if isinstance(text, float):
        return text
    if isinstance(text, str) and _PLAIN_RE.fullmatch(text):
        # a plain integer or ratio, which Fraction reads as the grammar below does
        return mode.convert(Fraction(text))
    m = _COEFF_RE.match(str(text))
    if not m:
        raise ValueError(f"cannot parse coefficient {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    par = m.group("par") or m.group("bare")
    if m.group("num") is None:
        scalar = Fraction(1)
    elif "." in m.group("num"):
        scalar = float(m.group("num"))
    else:
        scalar = Fraction(m.group("num"))
    if par is not None:
        if not params or par not in params:
            raise ValueError(f"coefficient {text!r} needs a value for parameter {par!r}")
        pval = params[par]
        scalar = scalar * (Fraction(pval) if isinstance(pval, (int, Fraction, str)) else pval)
    value = sign * scalar
    if isinstance(value, float):
        if not value.is_integer():
            return value  # an exact form rejects it
        value = int(value)
    return mode.convert(value)


def _coframe_from_rows(rows: Sequence[Sequence], params=None,
                       mode: Mode = Mode.EXACT) -> list[KForm]:
    out = []
    for row in rows:
        values = (parse_coefficient(c, params, mode) for c in row)
        coeffs = {(i + 1,): x for i, x in enumerate(values) if x != 0}
        out.append(KForm.from_terms(7, 1, coeffs, mode))
    return out


# --------------------------------------------------------------------------
# metric families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricFamily:
    """A parameterized diagonal-plus-block metric template for one algebra.

    ``metric(**params)`` instantiates the template (rejecting parameters that
    break positive definiteness); ``purely_condition(**params)`` evaluates
    the exact closed-form criterion for the instantiated metric to admit a
    purely coclosed coframe.
    """

    name: str
    algebra: str
    params: tuple[str, ...]
    domain: str
    equivalence: str
    samples: tuple  # ((param dict, expected purely-verdict), ...)

    def _values(self, params: Mapping[str, object]) -> dict:
        missing = [p for p in self.params if p not in params]
        extra = [p for p in params if p not in self.params]
        if missing or extra:
            raise ValueError(
                f"family {self.name!r} takes parameters {self.params}; "
                f"missing {missing}, unknown {extra}")
        out = {}
        for key in self.params:
            v = params[key]
            if isinstance(v, str):
                v = Fraction(v) if ("/" in v or "." not in v) else float(v)
            out[key] = Fraction(v) if isinstance(v, int) else v
        return out

    def metric(self, **params) -> Metric:
        v = self._values(params)
        rows = _FAMILY_BUILDERS[self.name](v)
        g = Metric(rows)
        if not g.is_positive_definite():
            raise ValueError(
                f"parameters {params} leave the {self.name} template "
                "outside the positive-definite domain")
        return g

    def purely_condition(self, **params) -> bool:
        v = self._values(params)
        g = self.metric(**params)   # enforces the domain and fixes the mode
        return _FAMILY_CONDITIONS[self.name](v, g.mode)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "algebra": self.algebra,
            "params": [*self.params],
            "domain": self.domain,
            "equivalence": self.equivalence,
            "samples": [
                [{k: str(x) for k, x in p.items()}, bool(e)] for p, e in self.samples
            ],
        }


def _diag_rows(entries) -> list[list]:
    zero = Fraction(0)
    n = len(entries)
    return [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]


def _heis3_rows(v):
    r = v["r"]
    return _diag_rows([r * r, 1, 1, 1, 1, 1, 1])


def _heis5_rows(v):
    r, s = v["r"], v["s"]
    return _diag_rows([r * r, 1, s * s, 1, 1, 1, 1])


def _heis7_rows(v):
    r, s, t = v["r"], v["s"], v["t"]
    return _diag_rows([r * r, 1, s * s, 1, t * t, 1, 1])


def _block_rows(diag4, E, F, G, tail):
    rows = _diag_rows([*diag4, E, G, *tail])
    rows[4][5] = rows[5][4] = F
    return rows


def _h3c_rows(v):
    return _block_rows([Fraction(1), v["r"], Fraction(1), v["s"]],
                       v["E"], v["F"], v["G"], [Fraction(1)])


def _h3h3_rows(v):
    rows = _block_rows([Fraction(1)] * 4, v["E"], v["F"], v["G"], [Fraction(1)])
    rows[0][2] = rows[2][0] = v["a"]
    rows[1][3] = rows[3][1] = v["b"]
    return rows


def _n6_2_rows(v):
    return _block_rows([Fraction(1), Fraction(1), Fraction(1), v["r"]],
                       v["E"], v["F"], v["G"], [Fraction(1)])


def _n5_2_rows(v):
    return _diag_rows([1, 1, 1, 1, v["E"], v["G"], 1])


# Each condition below is the paper's closed form with its square roots squared
# away: the two branches of a family become one polynomial identity in the
# parameters, so exact mode decides it over the rationals with `Mode.equal`.
# Each identity is read in degree-0 ratios of parameters that scale together
# (G/E and F/E for an inner block (E, F, G), ratios of r, s, t otherwise),
# so a float verdict does not depend on that scale and never meets close()'s
# absolute floor.

def _never(v, mode: Mode) -> bool:
    return False


def _heis5_cond(v, mode: Mode) -> bool:
    return mode.equal(v["r"] / v["s"], 1)


def _heis7_cond(v, mode: Mode) -> bool:
    # 1/x = 1/y + 1/z, i.e. x/y + x/z = 1, forces x to be the smallest, so
    # try each rotation
    r, s, t = v["r"], v["s"], v["t"]
    return any(mode.equal(x / y + x / z, 1)
               for x, y, z in ((r, s, t), (s, t, r), (t, r, s)))


def _h3c_cond(v, mode: Mode) -> bool:
    r, s, E, F, G = (v[k] for k in ("r", "s", "E", "F", "G"))
    if mode.equal(r, 1) and mode.equal(s, 1):
        # both structure covectors are anti-self-dual for one orientation,
        # so the torsion Gram matrix vanishes for every inner block
        return True
    # with g = G/E, g (sqrt r +- sqrt s)^2 = (sqrt(rs) +- 1)^2 reads
    # g(r + s) - rs - 1 = -+2 sqrt(rs) (g - 1); at r = s != 1 only the plus
    # branch has a solution, and the squared identity keeps only it
    g = G / E
    return mode.equal(F / E, 0) and mode.equal(
        (g * (r + s) - r * s - 1) ** 2, 4 * r * s * (g - 1) ** 2)


def _h3h3_cond(v, mode: Mode) -> bool:
    a, b, E, F, G = (v[k] for k in ("a", "b", "E", "F", "G"))
    # F/E = -(ab +- sqrt((1 - a^2)(1 - b^2))), both signs admitted
    return mode.equal(G / E, 1) and mode.equal(
        (F / E + a * b) ** 2, (1 - a * a) * (1 - b * b))


def _n6_2_cond(v, mode: Mode) -> bool:
    r, E, F, G = (v[k] for k in ("r", "E", "F", "G"))
    # with g = G/E, g (sqrt r +- 1)^2 = r reads g(r + 1) - r = -+2 g sqrt r;
    # at r = 1 the minus branch is empty and the identity reduces to g = 1/4
    g = G / E
    return mode.equal(F / E, 0) and mode.equal((g * (r + 1) - r) ** 2, 4 * g * g * r)


def _n5_2_cond(v, mode: Mode) -> bool:
    return mode.equal(v["G"] / v["E"], 1)


_FAMILY_BUILDERS: dict[str, Callable] = {
    "heis3": _heis3_rows, "heis5": _heis5_rows, "heis7": _heis7_rows,
    "h3c": _h3c_rows, "h3h3": _h3h3_rows, "n6_2": _n6_2_rows, "n5_2": _n5_2_rows,
}

_FAMILY_CONDITIONS: dict[str, Callable] = {
    "heis3": _never, "heis5": _heis5_cond, "heis7": _heis7_cond,
    "h3c": _h3c_cond, "h3h3": _h3h3_cond, "n6_2": _n6_2_cond, "n5_2": _n5_2_cond,
}


def _S(**kw):
    return {k: Fraction(v) for k, v in kw.items()}


_FAMILIES: tuple[MetricFamily, ...] = (
    MetricFamily(
        "heis3", "h3_R4", ("r",),
        domain="r > 0",
        equivalence="every metric on this algebra is equivalent to some g_r",
        samples=(
            (_S(r=1), False), (_S(r=2), False), (_S(r="1/2"), False),
            (_S(r=3), False),
        )),
    MetricFamily(
        "heis5", "h5_R2", ("r", "s"),
        domain="r, s > 0",
        equivalence="parameters may be reordered: (r, s) ~ (s, r)",
        samples=(
            (_S(r=1, s=1), True), (_S(r=2, s=2), True), (_S(r="1/2", s="1/2"), True),
            (_S(r=1, s=2), False), (_S(r="3/2", s="1/2"), False),
        )),
    MetricFamily(
        "heis7", "h7", ("r", "s", "t"),
        domain="r, s, t > 0",
        equivalence="parameters may be reordered: the verdict is symmetric in (r, s, t)",
        samples=(
            (_S(r="1/2", s=1, t=1), True), (_S(r=1, s=2, t=2), True),
            (_S(r="1/3", s="1/2", t=1), True),
            (_S(r=1, s=1, t=1), False), (_S(r=1, s=2, t=3), False),
            (_S(r="2/3", s=2, t=2), False),
        )),
    MetricFamily(
        "h3c", "h3C_R", ("r", "s", "E", "F", "G"),
        domain="r, s, E > 0 and EG - F^2 > 0 (normal form: 0 < s <= r <= 1)",
        equivalence="at r = s = 1 every positive block (E, F, G) carries a "
                    "purely coclosed coframe; otherwise F = 0 and G sits on "
                    "one of the two branches G = E((sqrt(rs) +- 1)/(sqrt(r) +- sqrt(s)))^2",
        samples=(
            (_S(r=1, s=1, E=1, F=0, G=1), True),
            (_S(r=1, s=1, E=3, F="1/2", G=2), True),
            (_S(r="1/4", s="1/4", E=1, F=0, G="25/16"), True),
            (_S(r="1/2", s="1/2", E=1, F=0, G="9/8"), True),
            (_S(r=1, s="1/4", E=1, F=0, G=1), True),
            (_S(r=4, s=1, E=1, F=0, G=1), True),
            (_S(r="1/4", s="1/4", E=1, F=0, G=1), False),
            (_S(r=1, s="1/4", E=1, F="1/2", G=1), False),
            (_S(r="1/2", s="1/2", E=1, F=0, G=1), False),
        )),
    MetricFamily(
        "h3h3", "h3_h3_R", ("a", "b", "E", "F", "G"),
        domain="|a| < 1, |b| < 1, E > 0, EG - F^2 > 0 (normal form: 0 <= a <= b < 1)",
        equivalence="purely coclosed iff G = E and F = -E(ab +- sqrt((1-a^2)(1-b^2))); "
                    "both signs are admitted, so F may be positive",
        samples=(
            (_S(a="3/5", b="4/5", E=1, F="-24/25", G=1), True),
            (_S(a="3/5", b="4/5", E=1, F=0, G=1), True),
            (_S(a="3/5", b="4/5", E=1, F="1/2", G=1), False),
            (_S(a="3/5", b="4/5", E=1, F="-24/25", G=2), False),
            (_S(a=0, b=0, E=1, F=0, G=1), False),
        )),
    MetricFamily(
        "n6_2", "n6_2_R", ("r", "E", "F", "G"),
        domain="r, E > 0 and EG - F^2 > 0",
        equivalence="purely coclosed iff F = 0 and G = E r/(sqrt(r) +- 1)^2 "
                    "(the minus branch needs r != 1)",
        samples=(
            (_S(r=1, E=1, F=0, G="1/4"), True),
            (_S(r="1/4", E=1, F=0, G="1/9"), True),
            (_S(r="1/4", E=1, F=0, G=1), True),
            (_S(r=4, E=1, F=0, G="4/9"), True),
            (_S(r=1, E=1, F=0, G=1), False),
            (_S(r="1/4", E=1, F="1/4", G="1/9"), False),
        )),
    MetricFamily(
        "n5_2", "n5_2_R2", ("E", "G"),
        domain="E, G > 0",
        equivalence="purely coclosed iff E = G",
        samples=(
            (_S(E=1, G=1), True), (_S(E=4, G=4), True), (_S(E="9/4", G="9/4"), True),
            (_S(E=1, G=2), False), (_S(E="1/2", G="1/3"), False),
        )),
)

_FAMILY_BY_NAME = {f.name: f for f in _FAMILIES}


def families() -> tuple[MetricFamily, ...]:
    return _FAMILIES


def get_family(name: str) -> MetricFamily:
    key = _normalize(name)
    for fam in _FAMILIES:
        if _normalize(fam.name) == key or _normalize(fam.algebra) == key:
            return fam
    raise UnknownAlgebraError(f"no metric family named {name!r}")


def family_metric(name: str, params: Mapping[str, object]) -> Metric:
    """Instantiate a metric-family template by family or algebra name."""
    return get_family(name).metric(**params)


# --------------------------------------------------------------------------
# catalog entries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One isomorphism class with its pinned regression data."""

    name: str
    display: str
    alias_names: tuple[str, ...]
    structure: tuple           # 7 entries: None or {(i, j): int}
    derived_dim: int
    decomposable: bool
    admits_coclosed: bool
    admits_purely_coclosed: bool
    nilsoliton_diag: tuple | None
    nilsoliton_constant: Fraction | None
    nilsoliton_purely_coclosed: bool | None
    witness_rows: tuple | None
    family_name: str | None
    fixture_names: tuple[str, ...]

    @cached_property
    def algebra(self) -> LieAlgebra:
        return LieAlgebra.from_structure(self.name, self.structure)

    @property
    def nilsoliton_metric(self) -> Metric | None:
        if self.nilsoliton_diag is None:
            return None
        return Metric.diagonal([*self.nilsoliton_diag])

    @property
    def witness_metric(self) -> Metric | None:
        """An exact metric admitting a purely coclosed coframe, if any."""
        if self.witness_rows is None:
            return None
        return Metric([[x for x in row] for row in self.witness_rows])

    @property
    def metric_family(self) -> MetricFamily | None:
        return _FAMILY_BY_NAME[self.family_name] if self.family_name else None

    @property
    def test_coframes(self) -> tuple:
        """Concrete (coframe, expected-verdict) pairs from the fixtures."""
        out = []
        for fname in self.fixture_names:
            fx = load_fixture(fname)
            if fx["kind"] == "pure_coframe":
                out.append((_coframe_from_rows(fx["coframe"]), {
                    "coclosed": True,
                    "purely_coclosed": bool(fx["purely"]),
                    "scale_sq": Fraction(fx.get("scale_sq", 1)),
                }))
            elif fx["kind"] == "family_coframe":
                for sample in fx["samples"]:
                    params = {k: Fraction(v) for k, v in
                              zip(fx["params"], sample["values"])}
                    out.append((_coframe_from_rows(fx["coframe"], params), {
                        "coclosed": bool(sample["coclosed"]),
                        "purely_coclosed": bool(sample["purely"]),
                        "scale_sq": Fraction(1),
                    }))
        return tuple(out)

    def to_json(self) -> dict:
        eqs = []
        for entry in self.structure:
            if entry is None:
                eqs.append(None)
            else:
                eqs.append({f"{i},{j}": int(c) for (i, j), c in sorted(entry.items())})
        return {
            "name": self.name,
            "display": self.display,
            "aliases": [*self.alias_names],
            "structure": eqs,
            "derived_dim": self.derived_dim,
            "decomposable": self.decomposable,
            "admits_coclosed": self.admits_coclosed,
            "admits_purely_coclosed": self.admits_purely_coclosed,
            "nilsoliton_diag": None if self.nilsoliton_diag is None
            else [str(x) for x in self.nilsoliton_diag],
            "nilsoliton_constant": None if self.nilsoliton_constant is None
            else str(self.nilsoliton_constant),
            "nilsoliton_purely_coclosed": self.nilsoliton_purely_coclosed,
            "witness_metric": None if self.witness_rows is None
            else [[str(x) for x in row] for row in self.witness_rows],
            "family": self.family_name,
            "fixtures": [*self.fixture_names],
        }


def _ident_diag() -> tuple:
    return tuple(Fraction(1) for _ in range(7))


def _diag7(*entries) -> tuple:
    if len(entries) != 7:
        raise ValueError(f"expected 7 diagonal entries, got {len(entries)}")
    return tuple(Fraction(e) for e in entries)


def _witness_from_diag(diag) -> tuple:
    zero = Fraction(0)
    return tuple(tuple(diag[i] if i == j else zero for j in range(7)) for i in range(7))


def _witness_h3h3() -> tuple:
    rows = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    rows[0][2] = rows[2][0] = Fraction(3, 5)
    rows[1][3] = rows[3][1] = Fraction(4, 5)
    rows[4][5] = rows[5][4] = Fraction(-24, 25)
    return tuple(tuple(row) for row in rows)


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="h3_R4", display="h3 + R^4",
        alias_names=("h3+R4", "h_3 + R^4", "heis3"),
        structure=(None, None, None, None, None, None, {(1, 2): 1}),
        derived_dim=1, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=False,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-3, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=None, family_name="heis3", fixture_names=()),
    CatalogEntry(
        name="h5_R2", display="h5 + R^2",
        alias_names=("h5+R2", "h_5 + R^2", "heis5"),
        structure=(None, None, None, None, None, None, {(1, 2): 1, (3, 4): 1}),
        derived_dim=1, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-2),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_ident_diag()),
        family_name="heis5", fixture_names=("h5_R2_pure.json",)),
    CatalogEntry(
        name="h7", display="h7",
        alias_names=("h_7", "heis7"),
        structure=(None, None, None, None, None, None,
                   {(1, 2): 1, (3, 4): 1, (5, 6): 1}),
        derived_dim=1, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-5, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7("1/4", 1, 1, 1, 1, 1, 1)),
        family_name="heis7", fixture_names=("h7_pure.json",)),
    CatalogEntry(
        name="n5_2_R2", display="n5_2 + R^2",
        alias_names=("n5,2+R2", "n_{5,2} + R^2"),
        structure=(None, None, None, None, {(1, 2): 1}, {(1, 3): 1}, None),
        derived_dim=2, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-2),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_ident_diag()),
        family_name="n5_2", fixture_names=("n5_2_R2_pure.json",)),
    CatalogEntry(
        name="h3_h3_R", display="h3 + h3 + R",
        alias_names=("h3+h3+R", "h_3 + h_3 + R"),
        structure=(None, None, None, None, {(1, 2): 1}, {(3, 4): 1}, None),
        derived_dim=2, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-3, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_h3h3(),
        family_name="h3h3", fixture_names=("h3_h3_R_pure.json",)),
    CatalogEntry(
        name="h3C_R", display="h3^C + R",
        alias_names=("h3C+R", "h_3^C + R"),
        structure=(None, None, None, None,
                   {(1, 3): 1, (2, 4): -1}, {(1, 4): 1, (2, 3): 1}, None),
        derived_dim=2, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-3),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_ident_diag()),
        family_name="h3c", fixture_names=("h3C_R_pure.json",)),
    CatalogEntry(
        name="n6_2_R", display="n6_2 + R",
        alias_names=("n6,2+R", "n_{6,2} + R"),
        structure=(None, None, None, None,
                   {(1, 2): 1}, {(1, 4): 1, (2, 3): 1}, None),
        derived_dim=2, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-5, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, 1, "1/4", 1)),
        family_name="n6_2", fixture_names=("n6_2_R_pure.json",)),
    CatalogEntry(
        name="n7_2_A", display="n7_2_A",
        alias_names=("n7,2,A", "n_{7,2,A}"),
        structure=(None, None, None, None, None,
                   {(1, 2): 1}, {(1, 4): 1, (3, 5): 1}),
        derived_dim=2, decomposable=False,
        admits_coclosed=False, admits_purely_coclosed=False,
        nilsoliton_diag=None, nilsoliton_constant=None,
        nilsoliton_purely_coclosed=None,
        witness_rows=None, family_name=None, fixture_names=()),
    CatalogEntry(
        name="n7_2_B", display="n7_2_B",
        alias_names=("n7,2,B", "n_{7,2,B}"),
        structure=(None, None, None, None, None,
                   {(1, 2): 1, (3, 4): 1}, {(1, 5): 1, (2, 3): 1}),
        derived_dim=2, decomposable=False,
        admits_coclosed=False, admits_purely_coclosed=False,
        nilsoliton_diag=None, nilsoliton_constant=None,
        nilsoliton_purely_coclosed=None,
        witness_rows=None, family_name=None, fixture_names=()),
    CatalogEntry(
        name="n6_3_R", display="n6_3 + R",
        alias_names=("n6,3+R", "n_{6,3} + R"),
        structure=(None, None, None, None,
                   {(1, 2): 1}, {(1, 3): 1}, {(2, 3): 1}),
        derived_dim=3, decomposable=True,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-5, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, 1, 1, 4)),
        family_name=None,
        fixture_names=("n6_3_R_pure.json", "n6_3_R_obstructed.json")),
    CatalogEntry(
        name="n7_3_A", display="n7_3_A",
        alias_names=("n7,3,A", "n_{7,3,A}"),
        structure=(None, None, None, None,
                   {(1, 2): 1}, {(2, 3): 1}, {(2, 4): 1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-5, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, 4, 1, 1)),
        family_name=None,
        fixture_names=("n7_3_A_pure.json", "n7_3_A_obstructed.json",
                       "n7_3_A_family.json")),
    CatalogEntry(
        name="n7_3_B", display="n7_3_B",
        alias_names=("n7,3,B", "n_{7,3,B}"),
        structure=(None, None, None, None,
                   {(1, 2): 1}, {(2, 3): 1}, {(3, 4): 1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_diag7(1, 1, 1, 1, 1, "1/2", 1),
        nilsoliton_constant=Fraction(-7, 4),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, 2, 4, 2)),
        family_name=None,
        fixture_names=("n7_3_B_pure.json", "n7_3_B_obstructed.json")),
    CatalogEntry(
        name="n7_3_B1", display="n7_3_B1",
        alias_names=("n7,3,B1", "n_{7,3,B_1}"),
        structure=(None, None, None, None,
                   {(1, 2): 1, (3, 4): -1}, {(1, 3): 1, (2, 4): 1}, {(1, 4): 1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-7, 2),
        nilsoliton_purely_coclosed=False,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, 1, 1, 16)),
        family_name=None,
        fixture_names=("n7_3_B1_pure.json", "n7_3_B1_obstructed.json")),
    CatalogEntry(
        name="n7_3_C", display="n7_3_C",
        alias_names=("n7,3,C", "n_{7,3,C}"),
        structure=(None, None, None, None,
                   {(1, 2): 1, (3, 4): 1}, {(2, 3): 1}, {(2, 4): 1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-3),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_ident_diag()),
        family_name=None, fixture_names=("n7_3_C_obstructed.json",)),
    CatalogEntry(
        name="n7_3_D", display="n7_3_D",
        alias_names=("n7,3,D", "n_{7,3,D}"),
        structure=(None, None, None, None,
                   {(1, 2): 1, (3, 4): 1}, {(1, 3): 1}, {(2, 4): 1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_diag7(1, 1, 1, 1, "1/2", 1, 1),
        nilsoliton_constant=Fraction(-2),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_diag7(1, 1, 1, 1, "1/2", 1, 1)),
        family_name=None,
        fixture_names=("n7_3_D_pure.json", "n7_3_D_obstructed.json")),
    CatalogEntry(
        name="n7_3_D1", display="n7_3_D1",
        alias_names=("n7,3,D1", "n_{7,3,D_1}"),
        structure=(None, None, None, None,
                   {(1, 2): 1, (3, 4): -1}, {(1, 3): 1, (2, 4): 1},
                   {(1, 4): 1, (2, 3): -1}),
        derived_dim=3, decomposable=False,
        admits_coclosed=True, admits_purely_coclosed=True,
        nilsoliton_diag=_ident_diag(), nilsoliton_constant=Fraction(-4),
        nilsoliton_purely_coclosed=True,
        witness_rows=_witness_from_diag(_ident_diag()),
        family_name=None, fixture_names=("n7_3_D1_obstructed.json",)),
)

_BY_KEY: dict[str, CatalogEntry] = {}
for _e in _ENTRIES:
    for _n in (_e.name, _e.display, *_e.alias_names):
        _BY_KEY.setdefault(_normalize(_n), _e)


def names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


def get(name: str) -> CatalogEntry:
    entry = _BY_KEY.get(_normalize(name))
    if entry is None:
        raise UnknownAlgebraError(
            f"unknown algebra {name!r}; known names: {', '.join(names())}")
    return entry


def _list_entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

def fixture_dir() -> Path:
    return _FIXTURE_DIR


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(p.name for p in _FIXTURE_DIR.glob("*.json")))


def load_fixture(name: str) -> dict:
    path = Path(name)
    if not path.is_absolute():
        path = _FIXTURE_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no fixture named {name!r}")
    with path.open() as fh:
        return json.load(fh)


def coframe_from_fixture(data: Mapping, params: Mapping[str, object] | None = None,
                         mode: Mode = Mode.EXACT) -> list[KForm]:
    """Build the list of seven 1-forms described by a fixture dictionary."""
    wanted = [p for p in data.get("params", []) if not params or p not in params]
    if wanted:
        raise ValueError(f"coframe needs parameter values for {wanted}")
    return _coframe_from_rows(data["coframe"], params, mode)


def _frac_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _metric_from_fixture(data: Mapping) -> Metric:
    spec = data["metric"]
    if "diag" in spec:
        return Metric.diagonal([Fraction(x) for x in spec["diag"]])
    return Metric(_frac_matrix(spec["rows"]))


def _row(rid: str, algebra: str, check: str, passed: bool, detail: str) -> dict:
    return {"id": rid, "algebra": algebra, "check": check,
            "passed": bool(passed), "detail": detail}


# Each check below builds its row id first and computes the row only when
# keep(id) is true, so a filtered regression run does only the selected work.

def _check_obstruction(fx: dict, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    entry = get(fx["algebra"])
    rid = f"fixture:{entry.name}:case{entry.derived_dim}:obstruction"
    if not keep(rid):
        return
    L, g = entry.algebra, _metric_from_fixture(fx)
    report = purely_coclosed_exists(L, g, tol)
    problems = []
    if report.exists != bool(fx["exists"]):
        problems.append(f"verdict {report.exists} != pinned {fx['exists']}")
    D = decompose(L, g)
    for key, orient in (("s_plus", 1), ("s_minus", -1)):
        S = sd_gram(D, orientation=orient)
        if _frac_matrix(S) != _frac_matrix(fx[key]):
            problems.append(f"{key} mismatch: computed {S}")
    diag = report.diagnostics
    for side in ("plus", "minus"):
        want = [Fraction(x) for x in fx["diagnostics"][side]]
        got = [Fraction(str(v)) for v in diag[side]]
        if got != want:
            problems.append(f"diagnostics[{side}] {got} != pinned {want}")
    detail = "; ".join(problems) if problems else (
        f"exists={report.exists}, lhs/rhs pinned on both orientations")
    yield _row(rid, entry.name, "obstruction", not problems, detail)


def _check_pure_coframe(fx: dict, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    entry = get(fx["algebra"])
    rid = f"fixture:{entry.name}:case{entry.derived_dim}:pure_coframe"
    if not keep(rid):
        return
    L, g = entry.algebra, _metric_from_fixture(fx)
    scale_sq = Fraction(fx.get("scale_sq", 1))
    coframe = _coframe_from_rows(fx["coframe"])
    problems = []

    if scale_sq == 1:
        struct = G2Structure.from_coframe(coframe)
        if _frac_matrix(struct.metric.rows) != _frac_matrix(g.rows):
            problems.append("induced metric differs from pinned metric")
        report = torsion_class(L, struct, tol)
        if not report.coclosed:
            problems.append("coframe is not coclosed")
        if report.purely_coclosed != bool(fx["purely"]):
            problems.append(
                f"purely={report.purely_coclosed} != pinned {fx['purely']}")
        if "calibrates" in fx and report.calibrates_derived != bool(fx["calibrates"]):
            problems.append(
                f"calibrates={report.calibrates_derived} != pinned {fx['calibrates']}")
    else:
        # rescaled storage: rows 5..7 hold sqrt(scale_sq) times the actual
        # orthonormal covectors, keeping every entry rational
        ctx = g.ctx
        for i in range(7):
            for j in range(i, 7):
                want = (scale_sq if i >= 4 else Fraction(1)) if i == j else Fraction(0)
                got = form_inner(coframe[i], coframe[j], g.rows, ctx)
                if Fraction(got) != want:
                    problems.append(f"stored coframe not orthogonal at ({i+1},{j+1})")
    if "m_matrix" in fx:
        M = m_matrix(L, coframe, g)
        want = _frac_matrix(fx["m_matrix"])
        got = _frac_matrix(M)
        if got != want:
            problems.append(f"m_matrix {got} != pinned {want}")
        else:
            sym = all(got[i][j] == got[j][i] for i in range(3) for j in range(3))
            trace_free = sum(got[i][i] for i in range(3)) == 0
            if (sym and trace_free) != bool(fx["purely"]):
                problems.append("pinned m_matrix contradicts the purely verdict")
    detail = "; ".join(problems) if problems else "torsion verdicts match in exact mode"
    yield _row(rid, entry.name, "pure_coframe", not problems, detail)


def _check_family_coframe(fx: dict, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    entry = get(fx["algebra"])
    L = entry.algebra
    case = entry.derived_dim
    for sample in fx["samples"]:
        params = {p: Fraction(v) for p, v in zip(fx["params"], sample["values"])}
        rid = (f"fixture:{entry.name}:case{case}:family["
               + ",".join(str(params[p]) for p in fx["params"]) + "]")
        if not keep(rid):
            continue
        problems = []
        coframe = _coframe_from_rows(fx["coframe"], params)
        report = torsion_class(L, G2Structure.from_coframe(coframe), tol)
        if report.coclosed != bool(sample["coclosed"]):
            problems.append(f"coclosed={report.coclosed} != {sample['coclosed']}")
        if report.purely_coclosed != bool(sample["purely"]):
            problems.append(f"purely={report.purely_coclosed} != {sample['purely']}")
        if "calibrates" in fx and report.calibrates_derived != bool(fx["calibrates"]):
            problems.append(f"calibrates={report.calibrates_derived}"
                            f" != pinned {fx['calibrates']}")
        want_sum = sum(params.values()) == 0
        if bool(sample["purely"]) != want_sum:
            problems.append("pinned sample verdict contradicts the sum rule")
        detail = "; ".join(problems) if problems else (
            f"purely={report.purely_coclosed} (parameter sum "
            f"{'zero' if want_sum else 'nonzero'})")
        yield _row(rid, entry.name, "family_coframe", not problems, detail)


def _fixture_rows(name: str, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    fx = load_fixture(name)
    kind = fx.get("kind")
    if kind == "obstruction":
        return _check_obstruction(fx, tol, keep)
    if kind == "pure_coframe":
        return _check_pure_coframe(fx, tol, keep)
    if kind == "family_coframe":
        return _check_family_coframe(fx, tol, keep)
    raise ValueError(f"fixture {name!r} has unknown kind {kind!r}")


def check_fixture(name: str, tol: float | None = None) -> tuple[dict, ...]:
    """Replay one pinned fixture; returns one regression row per check."""
    return tuple(_fixture_rows(name, tol, lambda rid: True))


# --------------------------------------------------------------------------
# verdict table and master regression
# --------------------------------------------------------------------------

def expected_verdicts() -> tuple[dict, ...]:
    """The static table of pinned (algebra, metric) -> verdict rows."""
    rows = []
    for e in _ENTRIES:
        rows.append({
            "algebra": e.name, "metric": "any",
            "coclosed": e.admits_coclosed, "purely": e.admits_purely_coclosed,
        })
        if e.nilsoliton_diag is not None:
            rows.append({
                "algebra": e.name,
                "metric": "nilsoliton diag("
                + ", ".join(str(x) for x in e.nilsoliton_diag) + ")",
                "coclosed": e.admits_coclosed,
                "purely": e.nilsoliton_purely_coclosed,
            })
        fam = e.metric_family
        if fam is not None:
            for params, verdict in fam.samples:
                rows.append({
                    "algebra": e.name,
                    "metric": fam.name + "("
                    + ", ".join(f"{k}={v}" for k, v in params.items()) + ")",
                    "coclosed": e.admits_coclosed,
                    "purely": verdict,
                })
    return tuple(rows)


_PROBE_DIAGS = (
    (1, 1, 1, 1, 1, 1, 1),
    (1, 2, 3, 4, 5, 6, 7),
    ("1/2", 1, "3/2", 2, "5/2", 3, "7/2"),
)


def _regress_algebra(e: CatalogEntry, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    rid = f"algebra:{e.name}:case{e.derived_dim}:sanity"
    if not keep(rid):
        return
    L = e.algebra
    problems = []
    if not L.d_squared_is_zero():
        problems.append("d^2 != 0")
    if not L.is_two_step():
        problems.append("not 2-step")
    if len(L.derived_basis()) != e.derived_dim:
        problems.append(f"derived dim {len(L.derived_basis())} != {e.derived_dim}")
    free = [i for i in range(1, 8)
            if e.structure[i - 1] is None
            and all(i not in pair for eq in e.structure if eq
                    for pair in eq)]
    if bool(free) != e.decomposable:
        problems.append(f"abelian-factor split check contradicts decomposable={e.decomposable}")
    if coclosed_always(L) != e.admits_coclosed:
        problems.append("coclosed_always disagrees with pinned admits_coclosed")
    g1 = Metric.identity(7)
    if coclosed_exists(L, g1).exists != e.admits_coclosed:
        problems.append("coclosed_exists(identity) disagrees with pinned verdict")
    detail = "; ".join(problems) if problems else (
        f"2-step, d^2=0, dim n'={e.derived_dim}, "
        f"{'decomposable' if e.decomposable else 'indecomposable'}")
    yield _row(rid, e.name, "algebra", not problems, detail)


def _regress_purely(e: CatalogEntry, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    rid = f"exists:{e.name}:case{e.derived_dim}:purely"
    if not keep(rid):
        return
    L = e.algebra
    problems = []
    if e.admits_purely_coclosed:
        report = purely_coclosed_exists(L, e.witness_metric, tol)
        if not report.exists:
            problems.append("witness metric rejected")
        detail = "; ".join(problems) or "witness metric admits a purely coclosed coframe"
    else:
        probes = [Metric.diagonal([Fraction(x) for x in d]) for d in _PROBE_DIAGS]
        fam = e.metric_family
        if fam is not None:
            probes.extend(fam.metric(**p) for p, _ in fam.samples)
        hits = []
        for k, g in enumerate(probes):
            if purely_coclosed_exists(L, g, tol).exists:
                hits.append(k)
        if hits:
            problems.append(f"probe metrics {hits} unexpectedly admit")
        detail = "; ".join(problems) or \
            f"all {len(probes)} probe metrics rejected, as pinned"
    yield _row(rid, e.name, "purely_exists", not problems, detail)


def _regress_nilsoliton(e: CatalogEntry, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    if e.nilsoliton_diag is None:
        return
    L = e.algebra
    rid = f"nilsoliton:{e.name}:case{e.derived_dim}:ricci"
    rid2 = f"nilsoliton:{e.name}:case{e.derived_dim}:purely"
    if not (keep(rid) or keep(rid2)):
        return
    g = e.nilsoliton_metric
    if keep(rid):
        report = is_nilsoliton(L, g, tol)
        problems = []
        if not report.is_nilsoliton:
            problems.append("metric is not a nilsoliton")
        elif report.soliton_constant != e.nilsoliton_constant:
            problems.append(f"constant {report.soliton_constant} != {e.nilsoliton_constant}")
        yield _row(rid, e.name, "nilsoliton", not problems,
                   "; ".join(problems) or f"soliton constant {e.nilsoliton_constant}")

    if keep(rid2):
        verdict = purely_coclosed_exists(L, g, tol).exists
        ok = verdict == e.nilsoliton_purely_coclosed
        yield _row(rid2, e.name, "nilsoliton_purely", ok,
                   f"purely={verdict}" + ("" if ok else
                                          f" != pinned {e.nilsoliton_purely_coclosed}"))


def _regress_family(fam: MetricFamily, tol, keep: Callable[[str], bool]) -> Iterable[dict]:
    entry = get(fam.algebra)
    L = entry.algebra
    for params, expected in fam.samples:
        rid = (f"family:{fam.algebra}:case{entry.derived_dim}:{fam.name}["
               + ",".join(f"{k}={v}" for k, v in params.items()) + "]")
        if not keep(rid):
            continue
        problems = []
        g = fam.metric(**params)
        closed_form = _FAMILY_CONDITIONS[fam.name](fam._values(params), g.mode)
        verdict = purely_coclosed_exists(L, g, tol).exists
        if closed_form != expected:
            problems.append(f"closed form gives {closed_form}, pinned {expected}")
        if verdict != expected:
            problems.append(f"criterion gives {verdict}, pinned {expected}")
        yield _row(rid, fam.algebra, "family", not problems,
                   "; ".join(problems) or f"purely={verdict} matches closed form")


def run_regression(filter: str | None = None, tol: float | None = None) -> tuple[dict, ...]:
    """Replay the full pinned-verdict table; one row per check.

    *filter* keeps only rows whose id contains the given substring
    (case-insensitive), so ``case3`` selects the dim-3 rows and an algebra
    name selects that algebra's rows. Rows are selected by id before they
    are computed.
    """
    needle = filter.lower() if filter else ""

    def keep(rid: str) -> bool:
        return needle in rid.lower()

    rows: list[dict] = []
    for e in _ENTRIES:
        rows.extend(_regress_algebra(e, tol, keep))
    for e in _ENTRIES:
        rows.extend(_regress_purely(e, tol, keep))
    for e in _ENTRIES:
        rows.extend(_regress_nilsoliton(e, tol, keep))
    for fam in _FAMILIES:
        rows.extend(_regress_family(fam, tol, keep))
    for fname in fixture_names():
        rows.extend(_fixture_rows(fname, tol, keep))
    return tuple(rows)


def export() -> dict:
    """The whole catalog as a JSON-serializable dictionary."""
    return {
        "entries": [e.to_json() for e in _ENTRIES],
        "families": [f.to_json() for f in _FAMILIES],
        "fixtures": [*fixture_names()],
        "expected_verdicts": [dict(r) for r in expected_verdicts()],
    }


# the catalog's listing operation; the module intentionally exports it under
# the short name as well
list = _list_entries
