"""The built-in catalog: name resolution, metric families, pinned fixtures,
the expected-verdict table and the regression runner."""

import json
import pathlib
import tempfile
from fractions import Fraction

import pytest

from g2nil import catalog
from g2nil.catalog import UnknownAlgebraError, parse_coefficient
from g2nil.exterior import Mode
from g2nil.liealg import Metric, is_nilsoliton
from g2nil.structure import coclosed_always, purely_coclosed_exists

ALL_NAMES = ("h3_R4", "h5_R2", "h7", "n5_2_R2", "h3_h3_R", "h3C_R", "n6_2_R",
             "n7_2_A", "n7_2_B", "n6_3_R", "n7_3_A", "n7_3_B", "n7_3_B1",
             "n7_3_C", "n7_3_D", "n7_3_D1")
NEVER_PURELY = {"h3_R4", "n7_2_A", "n7_2_B"}
DECOMPOSABLE = {"h3_R4", "h5_R2", "n5_2_R2", "h3_h3_R", "h3C_R", "n6_2_R", "n6_3_R"}


def test_names_complete():
    assert catalog.names() == ALL_NAMES
    assert len(catalog.list()) == 16


def test_alias_resolution():
    assert catalog.get("n_{7,3,D_1}").name == "n7_3_D1"
    assert catalog.get("h_3^C + R").name == "h3C_R"
    assert catalog.get("h_3 + h_3 + R").name == "h3_h3_R"
    assert catalog.get("h3+r4").name == "h3_R4"
    assert catalog.get("N7,2,A").name == "n7_2_A"
    with pytest.raises(UnknownAlgebraError):
        catalog.get("so(3)")


def test_entries_are_well_formed():
    for name in catalog.names():
        entry = catalog.get(name)
        L = entry.algebra
        assert L.dim == 7
        assert L.d_squared_is_zero()
        assert L.is_two_step()
        assert len(L.derived_basis()) == entry.derived_dim
        assert coclosed_always(L) == entry.admits_coclosed


def test_pinned_flag_sets():
    assert {n for n in catalog.names()
            if not catalog.get(n).admits_purely_coclosed} == NEVER_PURELY
    assert {n for n in catalog.names()
            if catalog.get(n).decomposable} == DECOMPOSABLE
    assert {n for n in catalog.names()
            if not catalog.get(n).admits_coclosed} == {"n7_2_A", "n7_2_B"}


def test_witnesses_match_flags():
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.admits_purely_coclosed:
            g = entry.witness_metric
            assert g is not None
            assert purely_coclosed_exists(entry.algebra, g).exists
        else:
            assert entry.witness_metric is None


def test_nilsoliton_pins():
    expected = {
        "h3_R4": Fraction(-3, 2), "h5_R2": Fraction(-2), "h7": Fraction(-5, 2),
        "n5_2_R2": Fraction(-2), "h3_h3_R": Fraction(-3, 2), "h3C_R": Fraction(-3),
        "n6_2_R": Fraction(-5, 2), "n6_3_R": Fraction(-5, 2),
        "n7_3_A": Fraction(-5, 2), "n7_3_B": Fraction(-7, 4),
        "n7_3_B1": Fraction(-7, 2), "n7_3_C": Fraction(-3),
        "n7_3_D": Fraction(-2), "n7_3_D1": Fraction(-4),
    }
    for name in catalog.names():
        entry = catalog.get(name)
        if name in ("n7_2_A", "n7_2_B"):
            assert entry.nilsoliton_metric is None
            continue
        g = entry.nilsoliton_metric
        assert g is not None
        rep = is_nilsoliton(entry.algebra, g)
        assert rep.is_nilsoliton
        assert rep.soliton_constant == expected[name] == entry.nilsoliton_constant
        assert (purely_coclosed_exists(entry.algebra, g).exists
                == entry.nilsoliton_purely_coclosed)


def test_parse_coefficient():
    assert parse_coefficient("-3/2") == Fraction(-3, 2)
    assert parse_coefficient("0") == 0
    assert parse_coefficient("a", {"a": Fraction(5)}) == 5
    assert parse_coefficient("-b", {"b": Fraction(2, 3)}) == Fraction(-2, 3)
    assert parse_coefficient("1/2*c", {"c": Fraction(4)}) == 2
    assert parse_coefficient("0.25", mode=Mode.FLOAT) == 0.25
    with pytest.raises(ValueError):
        parse_coefficient("x + y")
    with pytest.raises(ValueError):
        parse_coefficient("a")  # parameter without a value


def test_families():
    fams = catalog.families()
    assert {f.name for f in fams} == {"heis3", "heis5", "heis7", "h3c",
                                      "h3h3", "n6_2", "n5_2"}
    heis5 = catalog.get_family("heis5")
    assert heis5.purely_condition(r=Fraction(2), s=Fraction(2))
    assert not heis5.purely_condition(r=Fraction(2), s=Fraction(3))
    g = catalog.family_metric("heis5", {"r": Fraction(2), "s": Fraction(2)})
    assert g.rows[0][0] == 4
    with pytest.raises(ValueError):
        catalog.get_family("h3c").metric(r=Fraction(1), s=Fraction(1),
                                         E=Fraction(1), F=Fraction(5), G=Fraction(1))
    with pytest.raises(ValueError):
        catalog.get_family("heis3").metric(bogus=1)
    with pytest.raises(UnknownAlgebraError):
        catalog.get_family("nope")


def test_family_samples_match_conditions():
    for fam in catalog.families():
        assert fam.samples
        for params, expected in fam.samples:
            assert fam.purely_condition(**params) == expected


def test_entry_family_link():
    entry = catalog.get("h3C_R")
    fam = entry.metric_family
    assert fam is not None and fam.name == "h3c"
    assert catalog.get("n7_3_B").metric_family is None


def test_fixture_inventory_and_replay():
    names = catalog.fixture_names()
    assert len(names) == 19
    assert sum(1 for n in names if n.endswith("_obstructed.json")) == 7
    assert sum(1 for n in names if n.endswith("_pure.json")) == 11
    assert sum(1 for n in names if n.endswith("_family.json")) == 1
    for name in names:
        rows = catalog.check_fixture(name)
        assert rows, name
        for row in rows:
            assert row["passed"], (name, row)


def test_fixture_fault_injection_is_detected():
    tmp = pathlib.Path(tempfile.mkdtemp())
    data = json.loads(json.dumps(catalog.load_fixture("n6_3_R_obstructed.json")))
    data["s_plus"][0][0] = "3/5"
    bad = tmp / "n6_3_R_obstructed.json"
    bad.write_text(json.dumps(data))
    rows = catalog.check_fixture(str(bad))
    assert any(not r["passed"] for r in rows)
    assert all("n6_3_R" in r["id"] for r in rows)

    data = json.loads(json.dumps(catalog.load_fixture("n7_3_B_pure.json")))
    data["m_matrix"][1][1] = "7"
    bad = tmp / "n7_3_B_pure.json"
    bad.write_text(json.dumps(data))
    rows = catalog.check_fixture(str(bad))
    assert any(not r["passed"] for r in rows)


def test_expected_verdicts_table():
    rows = catalog.expected_verdicts()
    assert len(rows) == 70
    by_algebra = {}
    for row in rows:
        assert set(row) == {"algebra", "metric", "coclosed", "purely"}
        by_algebra.setdefault(row["algebra"], []).append(row)
    assert set(by_algebra) == set(ALL_NAMES)
    for name in NEVER_PURELY:
        assert all(not r["purely"] for r in by_algebra[name])
    for name in ("n7_2_A", "n7_2_B"):
        assert all(not r["coclosed"] for r in by_algebra[name])


def test_run_regression_all_green():
    rows = catalog.run_regression()
    assert len(rows) == 127
    failures = [r for r in rows if not r["passed"]]
    assert failures == []
    case3 = catalog.run_regression(filter="case3")
    assert 0 < len(case3) < len(rows)
    assert all("case3" in r["id"] for r in case3)
    assert catalog.run_regression(filter="no-such-check") == ()


def test_filtered_regression_equals_full_run_filtered():
    full = catalog.run_regression()
    for needle in ("case1", "case3", "nilsoliton", "n7_3_B"):
        want = tuple(r for r in full if needle.lower() in r["id"].lower())
        assert want
        assert catalog.run_regression(filter=needle) == want
    assert catalog.run_regression(filter="CASE1") == catalog.run_regression(filter="case1")


def test_filter_skips_unselected_checks(monkeypatch):
    """Rows are selected by id before they are computed."""
    cases = {}

    def counting(fn):
        def wrapper(L, g, *args, **kwargs):
            n = len(L.derived_basis())
            cases[n] = cases.get(n, 0) + 1
            return fn(L, g, *args, **kwargs)
        return wrapper

    for name in ("purely_coclosed_exists", "is_nilsoliton"):
        monkeypatch.setattr(catalog, name, counting(getattr(catalog, name)))
    rows = catalog.run_regression(filter="case1")
    assert rows and all("case1" in r["id"] for r in rows)
    assert cases.get(1, 0) > 0
    assert set(cases) == {1}


def test_export_round_trips_through_json():
    payload = catalog.export()
    assert set(payload) == {"entries", "families", "fixtures", "expected_verdicts"}
    assert len(payload["entries"]) == 16
    assert len(payload["fixtures"]) == 19
    again = json.loads(json.dumps(payload))
    assert again == payload


def test_test_coframes_property():
    pairs = catalog.get("n7_3_B").test_coframes
    assert pairs
    for coframe, expected in pairs:
        assert len(coframe) == 7
        assert isinstance(expected["purely_coclosed"], bool)
