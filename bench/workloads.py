"""The four benchmark workloads.

A workload is a fixed list of operations (one *round*) built from the seed,
a function that runs one operation through g2nil, and a function that checks
its output independently (see `checks`). Every run repeats whole rounds, so
the input mix, and with it every call count, is the same in every round.

The program is always reached through the `g2nil` package attributes at call
time, so the traced run's wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Callable

import numpy as np

import checks
import inputs

NAMES = ("exact-criteria", "float-construct", "exact-verify", "regress")


@dataclass
class Op:
    kind: str            # a label for the input mix, e.g. "case2/h3C_R/family-on"
    case: int            # dim n'
    nondiag: bool        # does the input metric have off-diagonal entries?
    args: tuple
    expected: Any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], str | None]
    # reference steps timed before a round's first operation and after every
    # operation (see run.py), about a tenth of the operation's own time
    reference_steps: int = 1

    def mix(self) -> dict:
        out: dict[str, int] = {}
        for op in self.ops:
            for key in (f"case{op.case}", "nondiag" if op.nondiag else "diag"):
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


class Catalog:
    """The catalog algebras, built once in set-up, plus the data the inputs use."""

    def __init__(self, g2nil):
        self.g2nil = g2nil
        cat = g2nil.catalog
        self.entries = {e.name: e for e in cat.list()}
        self.fixtures = inputs.fixture_files(cat.fixture_dir())
        self.algebras = {}
        for name, e in self.entries.items():
            L = e.algebra
            L.is_two_step()      # fills the algebra's bracket table
            self.algebras[name] = L
        self.tensors = {name: inputs.structure_tensor(e.structure)
                        for name, e in self.entries.items()}

    def case(self, name: str) -> int:
        return len(inputs.derived_indices(self.entries[name].structure))


# --------------------------------------------------------------------------
# exact-criteria

# (algebra, draws on the closed-form locus, draws off it) per metric family;
# each draw is made once with a diagonal and once with a sheared metric
_FAMILY_MIX = (
    ("h7", 3, 3), ("h5_R2", 2, 2), ("h3_R4", 0, 2),
    ("h3C_R", 3, 2), ("h3_h3_R", 2, 2), ("n6_2_R", 2, 2), ("n5_2_R2", 1, 1),
    ("n7_2_A", 0, 1), ("n7_2_B", 0, 1),
)
_CASE3 = ("n6_3_R", "n7_3_A", "n7_3_B", "n7_3_B1", "n7_3_C", "n7_3_D", "n7_3_D1")


def _criteria_ops(rng, cat: Catalog) -> list[Op]:
    ops = []
    for name, n_on, n_off in _FAMILY_MIX:
        structure = cat.entries[name].structure
        for on, count in ((True, n_on), (False, n_off)):
            for k in range(count):
                for nondiag in (False, True):
                    rows, expected = inputs.FAMILY_DRAWS[name](rng, on, k)
                    rows = inputs.transform(rng, structure, rows, nondiag)
                    tag = "family-on" if on else "family-off"
                    ops.append(Op(f"case{cat.case(name)}/{name}/{tag}", cat.case(name),
                                  not inputs.is_diagonal(rows), (name, rows), expected))
    # every pinned witness, nilsoliton and obstruction metric of the catalog
    for name, entry in cat.entries.items():
        structure = entry.structure
        for label, rows, expected in inputs.source_metrics(entry, cat.fixtures):
            for nondiag in (False, True):
                g = inputs.transform(rng, structure, rows, nondiag)
                ops.append(Op(f"case{cat.case(name)}/{name}/{label}", cat.case(name),
                              not inputs.is_diagonal(g), (name, g), expected))
    return ops


def exact_criteria(seed: int, cat: Catalog) -> Workload:
    g2nil = cat.g2nil
    rng = random.Random(f"exact-criteria:{seed}")
    ops = _criteria_ops(rng, cat)

    def run(op):
        name, rows = op.args
        return g2nil.purely_coclosed_exists(cat.algebras[name], g2nil.Metric(rows))

    def check(op, report):
        if report.case != op.case:
            return f"case {report.case} != dim n' {op.case}"
        return checks.check_verdict(report.exists, op.expected)

    return Workload("exact-criteria", ops, run, check, reference_steps=2)


# --------------------------------------------------------------------------
# float-construct

# feasible metrics only: (algebra, draws on its family's locus); every pinned
# feasible source metric of the algebra is pulled back as well
_FEASIBLE = (
    ("h7", 3), ("h5_R2", 2), ("h3C_R", 3), ("h3_h3_R", 2), ("n6_2_R", 2), ("n5_2_R2", 1),
) + tuple((name, 0) for name in _CASE3)


def _construct_ops(rng, cat: Catalog) -> list[Op]:
    ops = []
    for name, n_family in _FEASIBLE:
        structure = cat.entries[name].structure
        sources = [rows for _label, rows, ok in
                   inputs.source_metrics(cat.entries[name], cat.fixtures) if ok]
        draws = [inputs.FAMILY_DRAWS[name](rng, True, k)[0] for k in range(n_family)]
        # case-2 metrics are not sheared here: on some sheared ones the float
        # construction fails (its rotation lies just short of pi; see CHANGES.md)
        shapes = (False,) if cat.case(name) == 2 else (False, True)
        for rows in draws + sources:
            for nondiag in shapes:
                g = inputs.transform(rng, structure, rows, nondiag)
                gf = [[float(x) for x in row] for row in g]
                ops.append(Op(f"case{cat.case(name)}/{name}", cat.case(name),
                              not inputs.is_diagonal(g), (name, gf), True))
    return ops


def float_construct(seed: int, cat: Catalog) -> Workload:
    g2nil = cat.g2nil
    rng = random.Random(f"float-construct:{seed}")
    ops = _construct_ops(rng, cat)
    tensors = {name: checks.structure_array(s) for name, s in cat.tensors.items()}

    def run(op):
        name, rows = op.args
        L, g = cat.algebras[name], g2nil.Metric(rows)
        report = g2nil.purely_coclosed_exists(L, g)
        return report, g2nil.construct(L, g, "purely")

    def check(op, out):
        report, made = out
        bad = checks.check_verdict(report.exists, True)
        if bad:
            return bad
        C = [[f.coeff(i) for i in range(1, 8)] for f in made.coframe]
        name, rows = op.args
        return checks.check_construction(tensors[name], np.array(rows), C)

    return Workload("float-construct", ops, run, check, reference_steps=4)


# --------------------------------------------------------------------------
# exact-verify

# n7_3_A family coframes per round, twice over: as they are (diagonal metrics)
# and composed with an automorphism; half of each lie on the plane a + b + c = 0
_FAMILY_COFRAMES = 8
# seeded automorphisms composed with each unscaled pure-coframe fixture
_FIXTURE_COMPOSITIONS = 2


def _verify_ops(rng, cat: Catalog) -> list[Op]:
    """Ops with args (algebra, coframe rows C as Fractions, C as g2nil 1-forms)."""
    KForm = cat.g2nil.KForm

    def op(kind, name, C, expected):
        forms = [KForm.from_terms(7, 1, {(i + 1,): x for i, x in enumerate(row) if x})
                 for row in C]
        nondiag = not inputs.is_diagonal(inputs.matmul(inputs.transpose(C), C))
        return Op(kind, cat.case(name), nondiag, (name, C, forms), expected)

    ops = []
    fam = cat.fixtures["n7_3_A_family.json"]
    structure = cat.entries["n7_3_A"].structure
    for k in range(2 * _FAMILY_COFRAMES):
        on = k % 2 == 0
        while True:
            a, b = rng.choice(inputs.POS), -rng.choice(inputs.POS)
            c = -a - b if on else rng.choice(inputs.POS) * rng.choice((-1, 1))
            if c != 0 and (a + b + c == 0) == on:
                break
        C = inputs.coframe_rows(fam["coframe"], {"a": a, "b": b, "c": c})
        if k >= _FAMILY_COFRAMES:
            C = inputs.matmul(C, inputs.automorphism(rng, structure, shear=True))
        ops.append(op("case3/n7_3_A/family-" + ("on" if on else "off"), "n7_3_A", C, on))
    for fname, fx in cat.fixtures.items():
        if fx["kind"] != "pure_coframe" or Q(fx.get("scale_sq", 1)) != 1:
            continue
        name = cat.entries[fx["algebra"]].name
        for _ in range(_FIXTURE_COMPOSITIONS):
            A = inputs.automorphism(rng, cat.entries[name].structure, shear=True)
            C = inputs.matmul(inputs.coframe_rows(fx["coframe"]), A)
            ops.append(op(f"case{cat.case(name)}/{name}/fixture", name, C,
                          bool(fx["purely"])))
    return ops


def exact_verify(seed: int, cat: Catalog) -> Workload:
    g2nil = cat.g2nil
    rng = random.Random(f"exact-verify:{seed}")
    ops = _verify_ops(rng, cat)

    def run(op):
        name, _C, coframe = op.args
        struct = g2nil.G2Structure.from_coframe(coframe)
        return struct, g2nil.torsion_class(cat.algebras[name], struct)

    def check(op, out):
        struct, report = out
        return checks.check_verification(op.args[1], struct.metric.rows, report.coclosed,
                                         report.purely_coclosed, op.expected)

    return Workload("exact-verify", ops, run, check, reference_steps=3)


# --------------------------------------------------------------------------
# regress


def regress(seed: int, cat: Catalog) -> Workload:
    g2nil = cat.g2nil
    expected = checks.regression_row_count(
        cat.entries.values(), g2nil.catalog.families(), cat.fixtures)
    # one whole pass per operation; the pass has no seeded input
    ops = [Op("regress", 0, False, (), expected)]

    def run(op):
        return g2nil.catalog.run_regression()

    def check(op, rows):
        return checks.check_regression(rows, op.expected)

    return Workload("regress", ops, run, check, reference_steps=500)


BUILDERS = {
    "exact-criteria": exact_criteria,
    "float-construct": float_construct,
    "exact-verify": exact_verify,
    "regress": regress,
}
