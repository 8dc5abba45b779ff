"""The built-in catalog: name resolution, metric families, pinned fixtures,
the expected-verdict table and the regression runner."""

import json
import math
import pathlib
import random
import tempfile
from fractions import Fraction

import pytest

from g2nil import catalog
from g2nil.catalog import UnknownAlgebraError, parse_coefficient
from g2nil.exterior import MetricContext, Mode
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


_PARAMS = {"a": Fraction(3), "b": Fraction(2, 3), "c": Fraction(4)}

# (text, exact value, float value): the value or exception type that the
# grammar-only parser gave, with _PARAMS substituted. A text that names a
# parameter raises ValueError when no value is given.
_PARSER_CASES = [
    ("1.5", 1.5, 1.5),
    ("2.0", Fraction(2), 2.0),
    ("1e3", ValueError, ValueError),
    (" -3/2 ", Fraction(-3, 2), -1.5),
    ("+0", Fraction(0), 0.0),
    ("-0", Fraction(0), 0.0),
    ("-4/6", Fraction(-2, 3), -2 / 3),
    ("1_0", ValueError, ValueError),  # Fraction("1_0") would read 10
    ("3/0", ZeroDivisionError, ZeroDivisionError),
    ("a", Fraction(3), 3.0),
    ("-b", Fraction(-2, 3), -2 / 3),
    ("1/2*c", Fraction(2), 2.0),
    ("0.5*a", 1.5, 1.5),
]


@pytest.mark.parametrize("text, exact, floated", _PARSER_CASES)
def test_parse_coefficient_keeps_its_values_and_errors(text, exact, floated):
    needs_param = any(ch.isalpha() for ch in text)
    for mode, want in ((Mode.EXACT, exact), (Mode.FLOAT, floated)):
        for params in (None, _PARAMS):
            if isinstance(want, type) or (needs_param and params is None):
                with pytest.raises(want if isinstance(want, type) else ValueError):
                    parse_coefficient(text, params, mode)
                continue
            got = parse_coefficient(text, params, mode)
            assert got == want and type(got) is type(want), (text, mode, params)
            assert got < 0 or math.copysign(1, got) == 1  # no -0.0


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
            floated = {k: float(x) for k, x in params.items()}
            assert fam.purely_condition(**floated) == expected
            # a verdict depends on an inner block (E, F, G) only through G/E and F/E
            for lam in (1e-6, 1e6):
                scaled = {k: x * lam if k in "EFG" else x for k, x in floated.items()}
                assert fam.purely_condition(**scaled) == expected, (fam.name, params, lam)


def test_float_family_conditions_are_scale_free():
    # off-locus parameters far from 1, which an absolute tolerance floor would
    # pass; the exact conditions on the same ratios say False
    assert not catalog.get_family("n5_2").purely_condition(E=1e-10, G=2e-10)
    assert not catalog.get_family("heis5").purely_condition(r=1e-10, s=2e-10)
    assert not catalog.get_family("heis7").purely_condition(r=1e10, s=2e10, t=3e10)
    for fam in catalog.families():
        # the parameters that scale together: the inner block, else all of them
        keys = "EFG" if "E" in fam.params else fam.params
        for params, expected in fam.samples:
            for lam in (1e-10, 1e10):
                scaled = {k: float(x) * lam if k in keys else float(x)
                          for k, x in params.items()}
                assert fam.purely_condition(**scaled) == expected, (fam.name, params, lam)


def _near_locus_inputs():
    """Rationals that round an irrational branch of the closed form: exact
    parameters one float rounding off the purely coclosed locus."""
    r, s = 1 / 2, 1 / 3
    plus = (math.sqrt(r * s) + 1) / (math.sqrt(r) + math.sqrt(s))
    yield "h3c", dict(r=Fraction(1, 2), s=Fraction(1, 3), E=Fraction(1), F=Fraction(0),
                      G=Fraction(plus * plus))
    root = math.sqrt(r) + 1
    yield "n6_2", dict(r=Fraction(1, 2), E=Fraction(1), F=Fraction(0), G=Fraction(r / (root * root)))
    a, b = 1 / 2, 1 / 3
    F = -(a * b + math.sqrt((1 - a * a) * (1 - b * b)))
    yield "h3h3", dict(a=Fraction(1, 2), b=Fraction(1, 3), E=Fraction(1), F=Fraction(F),
                       G=Fraction(1))


def test_exact_family_conditions_have_no_tolerance():
    for name, params in _near_locus_inputs():
        fam = catalog.get_family(name)
        L = catalog.get(fam.algebra).algebra
        exact = purely_coclosed_exists(L, fam.metric(**params)).exists
        assert exact is False
        assert fam.purely_condition(**params) == exact


def _family_draw(name, rng):
    """Parameters for one family, on its purely coclosed locus about half the
    time: the branches are built from rational square roots."""
    def pos():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    def unit():  # (sin, cos) of a rational angle
        m, n = rng.randint(1, 5), rng.randint(0, 4)
        return Fraction(2 * m * n, m * m + n * n), Fraction(m * m - n * n, m * m + n * n)

    if name == "heis3":
        return dict(r=pos())
    if name == "heis5":
        r = pos()
        return dict(r=r, s=rng.choice([r, pos()]))
    if name == "heis7":
        y, z = pos(), pos()
        x = [rng.choice([1 / (1 / y + 1 / z), pos()]), y, z]
        rng.shuffle(x)
        return dict(zip("rst", x))
    if name == "n5_2":
        E = pos()
        return dict(E=E, G=rng.choice([E, pos()]))
    F = rng.choice([Fraction(0), Fraction(0), Fraction(rng.randint(-3, 3), 8)])
    if name == "h3c":
        u, w, E = rng.choice([pos(), Fraction(1)]), rng.choice([pos(), Fraction(1)]), pos()
        G = [E * ((u * w + 1) / (u + w)) ** 2, pos()]
        if u != w:
            G.append(E * ((u * w - 1) / (u - w)) ** 2)
        return dict(r=u * u, s=w * w, E=E, F=F, G=rng.choice(G))
    if name == "n6_2":
        u, E = rng.choice([pos(), Fraction(1)]), pos()
        G = [E * u * u / (u + 1) ** 2, pos()]
        if u != 1:
            G.append(E * u * u / (u - 1) ** 2)
        return dict(r=u * u, E=E, F=F, G=rng.choice(G))
    (a, ca), (b, cb), E = unit(), unit(), pos()
    F = rng.choice([F, -E * (a * b + ca * cb), -E * (a * b - ca * cb)])
    return dict(a=a, b=b, E=E, F=F, G=rng.choice([E, E, pos()]))


def test_family_conditions_match_the_criterion_on_and_off_the_loci():
    rng = random.Random(20)
    for fam in catalog.families():
        L = catalog.get(fam.algebra).algebra
        checked = held = 0
        while checked < 30:
            params = _family_draw(fam.name, rng)
            try:
                g = fam.metric(**params)
            except ValueError:
                continue  # outside the positive-definite domain
            expected = purely_coclosed_exists(L, g).exists
            assert fam.purely_condition(**params) == expected, (fam.name, params)
            floated = {k: float(x) for k, x in params.items()}
            assert fam.purely_condition(**floated) == expected, (fam.name, params)
            checked += 1
            held += expected
        assert fam.name == "heis3" or held >= 5, (fam.name, held)


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


def test_a_regression_pass_reads_each_family_metric_once(monkeypatch):
    """A pass builds and decides each family sample metric once, although the
    family rows and the `h3_R4` probes both read the `heis3` samples (the
    closed form reads the same metric), and no positive-definiteness test
    builds a MetricContext. A filtered pass computes only the rows it keeps."""
    built, decided, inits, in_pd, contexts_in_pd = {}, {}, [0], [0], [0]
    family_metric, metric_init = catalog.MetricFamily.metric, Metric.__init__
    pd, context_init = Metric.is_positive_definite, MetricContext.__init__
    criterion = catalog.purely_coclosed_exists

    def counting_family_metric(self, **params):
        key = (self.name, tuple(sorted(params.items())))
        built[key] = built.get(key, 0) + 1
        g = family_metric(self, **params)
        decided[id(g)] = [key, 0, g]
        return g

    def counting_criterion(L, g, tol=None):
        if id(g) in decided:
            decided[id(g)][1] += 1
        return criterion(L, g, tol)

    def counting_init(self, *args, **kwargs):
        inits[0] += 1
        metric_init(self, *args, **kwargs)

    def counting_pd(self):
        in_pd[0] += 1
        try:
            return pd(self)
        finally:
            in_pd[0] -= 1

    def counting_context(self, *args, **kwargs):
        contexts_in_pd[0] += in_pd[0] > 0
        context_init(self, *args, **kwargs)

    monkeypatch.setattr(catalog.MetricFamily, "metric", counting_family_metric)
    monkeypatch.setattr(catalog, "purely_coclosed_exists", counting_criterion)
    monkeypatch.setattr(Metric, "__init__", counting_init)
    monkeypatch.setattr(Metric, "is_positive_definite", counting_pd)
    monkeypatch.setattr(MetricContext, "__init__", counting_context)

    rows = catalog.run_regression(filter="family:")
    samples = [(f.name, tuple(sorted(p.items()))) for f in catalog.families() for p, _ in f.samples]
    assert len(rows) == len(samples) == len(built)
    assert all(built[key] == 1 for key in samples)
    assert inits[0] == len(samples)

    built.clear()
    decided.clear()
    rows = catalog.run_regression()
    assert all(r["passed"] for r in rows)
    assert "all 7 probe metrics rejected, as pinned" in {r["detail"] for r in rows}
    assert sorted(built) == sorted(samples) and all(n == 1 for n in built.values())
    assert sorted(key for key, n, _g in decided.values() if n == 1) == sorted(samples)
    assert contexts_in_pd[0] == 0


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
