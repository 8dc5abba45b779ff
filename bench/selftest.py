"""Self-test of the benchmark's checkers: each must pass a right output and
flag a deliberately wrong one.

    python3 bench/selftest.py      (from the root of a checkout)

Exits 0 when every checker behaves, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks      # noqa: E402
import inputs      # noqa: E402
import workloads   # noqa: E402

SEED = 0
_results: list[tuple[str, bool]] = []


def expect(label: str, problem, flagged: bool, contains: str = "") -> None:
    ok = (problem is not None) == flagged and (not flagged or contains in problem)
    _results.append((label, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problem or 'accepted'}")


def _first(wl, prefix: str):
    return next(op for op in wl.ops if op.kind.startswith(prefix))


def criteria(cat) -> None:
    wl = workloads.exact_criteria(SEED, cat)
    for prefix in ("case1/h7/family-on", "case2/h3_h3_R/family-off", "case3/n7_3_C/witness"):
        op = _first(wl, prefix)
        report = wl.run(op)
        expect(f"exact-criteria {prefix}: right verdict", wl.check(op, report), False)
        flipped = dataclasses.replace(report, exists=not report.exists)
        expect(f"exact-criteria {prefix}: flipped verdict", wl.check(op, flipped), True,
               "verdict")
    op = _first(wl, "case2/h3C_R")
    wrong_case = dataclasses.replace(wl.run(op), case=3)
    expect("exact-criteria: wrong case", wl.check(op, wrong_case), True, "case")


def construction(cat) -> None:
    wl = workloads.float_construct(SEED, cat)
    op = _first(wl, "case3/n7_3_D")
    report, made = wl.run(op)
    expect("float-construct: right construction", wl.check(op, (report, made)), False)
    name, g_rows = op.args
    s = checks.structure_array(cat.tensors[name])
    g = np.array(g_rows)
    C = np.array([[f.coeff(i) for i in range(1, 8)] for f in made.coframe])
    scaled = C.copy()
    scaled[2] *= 1.001
    expect("float-construct: rescaled covector", checks.check_construction(s, g, scaled),
           True, "orthonormal")
    # a rotation keeps the coframe orthonormal but moves phi off the torsion class
    t = 0.3
    R = np.eye(7)
    R[0, 0] = R[4, 4] = np.cos(t)
    R[0, 4], R[4, 0] = -np.sin(t), np.sin(t)
    expect("float-construct: rotated coframe", checks.check_construction(s, g, R @ C),
           True, "phi")
    expect("float-construct: flipped verdict",
           wl.check(op, (dataclasses.replace(report, exists=False), made)), True, "verdict")
    # an n7_3_A family coframe off the plane a + b + c = 0 is coclosed, not purely
    fam = cat.fixtures["n7_3_A_family.json"]
    for values, flagged in (((1, 1, -2), False), ((1, 1, 1), True)):
        Cf = np.array(inputs.coframe_rows(fam["coframe"], dict(zip("abc", values))),
                      dtype=float)
        problem = checks.check_construction(
            checks.structure_array(cat.tensors["n7_3_A"]), Cf.T @ Cf, Cf)
        expect(f"float-construct: n7_3_A family coframe {values}", problem, flagged,
               "dphi ^ phi")


def verification(cat) -> None:
    wl = workloads.exact_verify(SEED, cat)
    op = next(op for op in wl.ops if op.kind.endswith("/fixture") and op.nondiag)
    struct, report = wl.run(op)
    expect("exact-verify: right verification", wl.check(op, (struct, report)), False)
    rows = [list(r) for r in struct.metric.rows]
    rows[0][1] += 1
    rows[1][0] += 1
    C = op.args[1]
    expect("exact-verify: metric off by one entry",
           checks.check_verification(C, rows, report.coclosed, report.purely_coclosed,
                                      op.expected), True, "C^T C")
    expect("exact-verify: flipped purely verdict",
           checks.check_verification(C, struct.metric.rows, report.coclosed,
                                      not report.purely_coclosed, op.expected), True, "purely")
    expect("exact-verify: not coclosed",
           checks.check_verification(C, struct.metric.rows, False, report.purely_coclosed,
                                     op.expected), True, "coclosed")
    off = next(op for op in wl.ops if op.kind.endswith("family-off"))
    expect("exact-verify: off-plane coframe", wl.check(off, wl.run(off)), False)


def regression(cat) -> None:
    n = checks.regression_row_count(cat.entries.values(), cat.g2nil.catalog.families(),
                                    cat.fixtures)
    rows = [{"id": f"row{i}", "passed": True} for i in range(n)]
    expect("regress: all rows pass", checks.check_regression(rows, n), False)
    expect("regress: one row missing", checks.check_regression(rows[1:], n), True, "rows")
    failing = [dict(r) for r in rows]
    failing[5]["passed"] = False
    expect("regress: one row failing", checks.check_regression(failing, n), True, "failed")
    expect("regress: the pinned table has 127 rows", None if n == 127 else f"{n} rows", False)


def main() -> int:
    import g2nil
    cat = workloads.Catalog(g2nil)
    criteria(cat)
    construction(cat)
    verification(cat)
    regression(cat)
    bad = [label for label, ok in _results if not ok]
    print(f"{len(_results) - len(bad)}/{len(_results)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
