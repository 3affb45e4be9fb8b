"""Deliberation-time selection: EVC arithmetic, suites, knowledge bases."""

import dataclasses
import math
import os
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, cardiac_text, entry_model
from tdid.cli import main
from tdid.deploy import deploy, table_entry_count
from tdid import metareason
from tdid.metareason import (
    ConstructResult,
    CostModel,
    EvcCurve,
    EvcPoint,
    MetareasonError,
    Problem,
    SuiteEntry,
    UrgencyFunction,
    construct,
    estimate_cost,
    evc,
    load_kb,
    make_entry,
    parse_urgency,
    quality,
    select,
    selection_report,
    solve_entry,
    with_cost,
    write_entry,
)
from tdid.model import canonical, parse, serialize
from tdid.abstraction import (
    abstract_space,
    abstract_time,
    enumerate_abstractions,
    parse_lattice,
    retime,
)
from tdid.solve import policy_json, solve

TINY = parse(
    """
    tdid 1
    master 1
    chance X : a b
    value U
    arc inst X U
    cpt X @ 1 | : 0.5 0.5
    util U @ 1 | X : 1 0
    """
)


def entry(name, q, cost, tags=()):
    return SuiteEntry(
        name=name,
        model=TINY,
        cost_time=float(cost),
        space_size=1,
        n_intervals=1,
        quality=None if q is None else float(q),
        tags=tags,
    )


def suite_two():
    # The worked example used throughout: a cheap rough model and a
    # slower, better one.
    return [entry("m1", 5.0, 1.0), entry("m2", 9.0, 4.0)]


# ---------------------------------------------------------------------------
# Urgency functions


def test_linear_urgency():
    u = UrgencyFunction.linear(2.5)
    assert u(0.0) == 0.0
    assert u(2.0) == 5.0


def test_step_urgency():
    u = UrgencyFunction.step(4.0, 100.0)
    assert u(4.0) == 0.0  # deadline instant itself is safe
    assert u(4.0001) == 100.0
    assert u(0.0) == 0.0


def test_tabulated_urgency_interpolates_and_clamps():
    u = UrgencyFunction.tabulated([(1.0, 0.0), (3.0, 10.0)])
    assert u(0.0) == 0.0
    assert u(2.0) == pytest.approx(5.0)
    assert u(99.0) == 10.0


def test_urgency_validation():
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(MetareasonError):
            UrgencyFunction.linear(rate)
    for deadline, penalty in (
        (4.0, -0.5), (4.0, math.nan), (4.0, math.inf), (math.nan, 1.0)
    ):
        with pytest.raises(MetareasonError):
            UrgencyFunction.step(deadline, penalty)
    for points in (
        [(0.0, 5.0), (1.0, 2.0)],  # decreasing
        [(0.0, 0.0), (math.nan, 1.0)],
        [(0.0, 0.0), (1.0, math.inf)],
    ):
        with pytest.raises(MetareasonError):
            UrgencyFunction.tabulated(points)
    with pytest.raises(MetareasonError):
        UrgencyFunction("exotic")


def test_parse_urgency():
    assert parse_urgency("linear:1.5") == UrgencyFunction.linear(1.5)
    assert parse_urgency("step:4,100") == UrgencyFunction.step(4.0, 100.0)
    for bad in ("linear:x", "step:4", "ramp:1", "linear"):
        with pytest.raises(MetareasonError):
            parse_urgency(bad)


# ---------------------------------------------------------------------------
# Cost and comprehensive value


def test_estimate_cost_analytic():
    e = entry("m", 1.0, 0.0)
    e = SuiteEntry(**{**e.__dict__, "space_size": 1000})
    assert estimate_cost(e, CostModel(alpha=0.0, beta=2.0)) == 2.0
    assert estimate_cost(e, CostModel(alpha=1e-6, beta=0.0)) == pytest.approx(1e-3)


def test_with_cost_and_validation():
    e = with_cost(entry("m", 1.0, 7.0), CostModel(alpha=2.0, beta=1.0))
    assert e.cost_time == 3.0  # 2·1 + 1
    for bad in (
        {"alpha": -1.0},
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"beta": math.nan},
        {"beta": math.inf},
    ):
        with pytest.raises(MetareasonError):
            CostModel(**bad)
    for cost in (-2.0, math.nan, math.inf):
        with pytest.raises(MetareasonError):
            entry("m", 1.0, cost)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_cost_of_a_space_past_the_float_range_is_refused(alpha):
    # A manifest's space may be an int of any length; 400 digits do not
    # convert to a float, whatever α multiplies them.
    e = dataclasses.replace(entry("a", 1.0, 0.0), space_size=int("9" * 400))
    message = "entry 'a': cost must be finite and nonnegative"
    with pytest.raises(MetareasonError, match=message):
        estimate_cost(e, CostModel(alpha=alpha, beta=1.0))
    with pytest.raises(MetareasonError, match=message):
        with_cost(e, CostModel(alpha=alpha, beta=1.0))


# ---------------------------------------------------------------------------
# Quality and EVC


def test_quality_picks_best_within_budget():
    s = suite_two()
    assert quality(s, 1.0) == (5.0, s[0])
    assert quality(s, 3.9) == (5.0, s[0])
    assert quality(s, 4.0) == (9.0, s[1])


def test_quality_ties_prefer_cheaper():
    s = [entry("slow", 7.0, 5.0), entry("fast", 7.0, 2.0)]
    assert quality(s, 10.0)[1].name == "fast"


def test_quality_infeasible_budget():
    with pytest.raises(MetareasonError, match="no model is computable"):
        quality(suite_two(), 0.5)
    with pytest.raises(MetareasonError, match="empty"):
        quality([], 1.0)
    for t0 in (None, 1.0):
        with pytest.raises(MetareasonError, match="empty model suite"):
            select([], UrgencyFunction.linear(1.0), t0)


def test_quality_requires_solved_entries():
    with pytest.raises(MetareasonError, match="unsolved"):
        quality([entry("m", None, 1.0)], 2.0)


def test_evc_worked_example():
    s = suite_two()
    u = UrgencyFunction.linear(1.0)
    assert evc(s, u, 1.0, 1.0) == 0.0
    assert evc(s, u, 1.0, 4.0) == 1.0  # (9−5) − (4−1)


def test_evc_rejects_past_times():
    with pytest.raises(MetareasonError):
        evc(suite_two(), UrgencyFunction.linear(1.0), 4.0, 1.0)


def test_select_worked_example():
    s = suite_two()
    curve = select(s, UrgencyFunction.linear(1.0), 1.0)
    assert [p.t for p in curve.points] == [1.0, 4.0]
    assert [p.evc for p in curve.points] == [0.0, 1.0]
    assert curve.t_star == 4.0
    assert curve.best.name == "m2"
    assert curve.points[1].uc == 5.0  # 9 − 4·1


def test_select_high_urgency_stays_home():
    curve = select(suite_two(), UrgencyFunction.linear(10.0), 1.0)
    assert curve.t_star == 1.0
    assert curve.best.name == "m1"
    assert curve.points[1].evc == pytest.approx(4.0 - 30.0)


def test_select_baseline_not_a_cost_time():
    # t0 sits strictly between cost times; it still anchors the curve with
    # EVC 0, so a uniformly negative continuation keeps t* = t0.
    s = suite_two()
    curve = select(s, UrgencyFunction.linear(10.0), 2.0)
    assert [p.t for p in curve.points] == [2.0, 4.0]
    assert curve.t_star == 2.0
    assert curve.best.name == "m1"


def test_select_ties_act_sooner():
    s = [entry("a", 5.0, 1.0), entry("b", 5.0, 3.0)]
    curve = select(s, UrgencyFunction.linear(0.0), 1.0)
    assert curve.t_star == 1.0
    assert curve.best.name == "a"


def test_select_single_model():
    curve = select([entry("only", 2.0, 1.0)], UrgencyFunction.linear(0.5), 1.0)
    assert curve.t_star == 1.0 and curve.best.name == "only"
    assert curve.points == (curve.points[0],)


def test_select_step_urgency_respects_deadline():
    s = suite_two()
    relaxed = select(s, UrgencyFunction.step(5.0, 100.0), 1.0)
    assert relaxed.t_star == 4.0  # deadline past the slow model: free upgrade
    tight = select(s, UrgencyFunction.step(2.0, 100.0), 1.0)
    assert tight.t_star == 1.0  # upgrade would blow the deadline


# ---------------------------------------------------------------------------
# Random-suite properties


def random_suite(rng):
    n = int(rng.integers(1, 7))
    costs = np.round(rng.uniform(0.0, 10.0, size=n), 3)
    costs[0] = 0.0  # guarantee a baseline model
    if n > 1 and rng.random() < 0.3:
        costs[1] = costs[0]  # exercise ties
    quals = np.round(rng.uniform(-5.0, 15.0, size=n), 3)
    return [
        entry(f"m{i}", float(q), float(c)) for i, (q, c) in enumerate(zip(quals, costs))
    ]


def test_random_suites_properties():
    rng = np.random.default_rng(20260815)
    for _ in range(120):
        s = random_suite(rng)
        lam = float(np.round(rng.uniform(0.0, 3.0), 3))
        t0 = float(np.round(rng.uniform(0.0, max(e.cost_time for e in s)), 3))
        u = UrgencyFunction.linear(lam)
        curve = select(s, u, t0)

        # Q is nondecreasing along the curve, and EVC(t0) = 0 exactly.
        qs = [p.q for p in curve.points]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert curve.points[0].t == t0 and curve.points[0].evc == 0.0
        assert curve.t_star >= t0

        # The chosen point dominates a dense grid of alternative times:
        # quality only rises at cost times, so nothing between candidates
        # can beat them.
        best = max(p.evc for p in curve.points)
        hi = max(e.cost_time for e in s) + 1.0
        for t in np.linspace(t0, hi, 23):
            assert evc(s, u, t0, float(t)) <= best + 1e-12

        # Zero urgency: deliberation is free, so the pick is the global
        # best quality.
        free = select(s, UrgencyFunction.linear(0.0), t0)
        assert free.best.quality == max(e.quality for e in s)
        assert all(p.evc >= 0.0 for p in free.points)

        # Rescaling time units (costs ×k, rate /k) changes nothing but the
        # clock: same model, t* scales by k.
        k = 4.0
        scaled = [
            SuiteEntry(**{**e.__dict__, "cost_time": e.cost_time * k}) for e in s
        ]
        curve_k = select(scaled, UrgencyFunction.linear(lam / k), t0 * k)
        assert curve_k.best.name == curve.best.name
        assert curve_k.t_star == pytest.approx(curve.t_star * k)


# ---------------------------------------------------------------------------
# Entries from real models, knowledge bases, the full pipeline


def test_make_and_solve_entry(fixtures_dir):
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    e = make_entry("full", model, tags=("time:all=1,2,3,4",))
    assert e.quality is None
    assert e.space_size == table_entry_count(deploy(model))
    assert e.n_intervals == 4
    solved, policy = solve_entry(e)
    assert solved.quality == policy.meu
    assert policy.meu == solve(deploy(model)).meu


def test_solving_an_entry_just_made_gives_its_models_policy(monkeypatch, fixtures_dir):
    deployed = []

    def counting(model, *args, **kwargs):
        deployed.append(model)
        return deploy(model, *args, **kwargs)

    monkeypatch.setattr(metareason, "_policies", {})
    monkeypatch.setattr(metareason, "deploy", counting)
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    solved, policy = solve_entry(make_entry("full", model))
    assert policy == solve(deploy(model))
    # An equal but distinct model is deployed afresh.
    twin = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    assert solve_entry(make_entry("twin", twin))[1] == policy
    assert deployed[-1] is twin


DAMAGE_LATTICE = """
time CD : 1 2 3 | 1 3
time poa : 1 2 3 | 1 3
space damage : U_dmg
space-choices : keep drop
"""


def test_solve_entry_solves_each_distinct_diagram_once(monkeypatch, fixtures_dir):
    # Dropping U_dmg leaves CD and poa barren, so their four time choices
    # deploy alike: 8 variants, 5 distinct diagrams.
    monkeypatch.setattr(metareason, "_policies", {})
    calls = counting_solve(monkeypatch)
    model = parse((fixtures_dir / "cardiac.tdid").read_bytes())
    variants = enumerate_abstractions(model, parse_lattice(DAMAGE_LATTICE))
    assert len(variants) == 8
    for k, v in enumerate(variants):
        solved, policy = solve_entry(make_entry(f"v{k}", v.model, v.tags))
        fresh = solve(deploy(v.model))
        assert policy == fresh
        assert repr(solved.quality) == repr(fresh.meu)
    assert len(calls) == 5


SIGNED_ZERO = """
tdid 1
master 1
chance X : a b
decision D : go stay
value U
arc inst X D
arc inst X U
arc inst D U
cpt X @ 1 | : 0.5 0.5
util U @ 1 | X D : 0 0 {} 0
"""


@pytest.mark.parametrize("first, second", [("0", "-0"), ("-0", "0")])
def test_solve_entry_reuse_is_exact_across_signed_zeros(
    tmp_path, monkeypatch, first, second
):
    # -0.0 == 0.0, so the two diagrams share one solve; the reused policy
    # must print as a fresh solve of each model does.
    monkeypatch.setattr(metareason, "_policies", {})
    calls = counting_solve(monkeypatch)
    for name, zero in (("a", first), ("b", second)):
        model = parse(SIGNED_ZERO.format(zero))
        solved, policy = solve_entry(make_entry(name, model))
        fresh = solve(deploy(model))
        did = deploy(model)
        assert policy_json(did, policy) == policy_json(did, fresh)
        manifest = write_entry(tmp_path / "reused", solved).read_bytes()
        fresh_entry = dataclasses.replace(solved, quality=fresh.meu)
        assert manifest == write_entry(tmp_path / "fresh", fresh_entry).read_bytes()
    assert len(calls) == 1
    assert b"quality 0\n" in manifest


def test_solve_entry_memo_evicts_the_oldest_past_its_bound(monkeypatch):
    monkeypatch.setattr(metareason, "_policies", {})
    monkeypatch.setattr(metareason, "_POLICY_CAP", 2)
    calls = counting_solve(monkeypatch)
    models = [parse(SIGNED_ZERO.format(u)) for u in ("1", "2", "3")]

    def run(k):
        solved, policy = solve_entry(make_entry(f"m{k}", models[k]))
        fresh = solve(deploy(models[k]))
        assert policy == fresh and repr(solved.quality) == repr(fresh.meu)

    for k in (0, 1, 2):
        run(k)
    assert len(calls) == 3 and len(metareason._policies) == 2
    run(1)  # still held
    assert len(calls) == 3
    run(0)  # the oldest, evicted by the third
    assert len(calls) == 4 and len(metareason._policies) == 2


def test_kb_round_trip(tmp_path, fixtures_dir):
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    a = make_entry("full", model, tags=("granularity:fine",))
    b, _ = solve_entry(make_entry("coarse", abstract_time(model, "X", (1,))))
    b = with_cost(b, CostModel(alpha=0.5, beta=1.0))
    write_entry(tmp_path, a)
    write_entry(tmp_path, b)

    loaded = load_kb(tmp_path)
    assert [e.name for e in loaded] == ["coarse", "full"]  # directory order
    by_name = {e.name: e for e in loaded}
    assert by_name["full"].quality is None
    assert by_name["full"].tags == ("granularity:fine",)
    assert by_name["coarse"].quality == pytest.approx(b.quality)
    assert by_name["coarse"].cost_time == b.cost_time
    assert by_name["coarse"].model == canonical(b.model)
    assert by_name["full"].space_size == a.space_size


def test_kb_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_kb(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MetareasonError, match="no entries"):
        load_kb(empty)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.entry").write_text("model x.tdid\nquality 1\n")
    with pytest.raises(MetareasonError, match="missing"):
        load_kb(bad)


def test_kb_manifest_skips_blank_and_comment_lines(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    want = load_kb(kb)
    manifest = kb / "full.entry"
    lines = manifest.read_text().splitlines()
    lines[1:1] = ["", "   ", "# a note", "  # an indented note"]
    manifest.write_text("\n".join(lines) + "\n")
    assert load_kb(kb) == want


def test_kb_manifest_refuses_a_duplicated_key(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    manifest = kb / "full.entry"
    manifest.write_text(manifest.read_text() + "cost 1\n")
    with pytest.raises(MetareasonError) as err:
        load_kb(kb)
    assert str(err.value) == "full.entry: line 7: duplicate 'cost'"


def build_kb(tmp_path, fixtures_dir, alpha=0.1, beta=1.0):
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    coarse = abstract_time(model, "X", (1,))
    cm = CostModel(alpha=alpha, beta=beta)
    kb = tmp_path / "kb"
    for name, m, tags in (
        ("full", model, ("granularity:fine",)),
        ("coarse", coarse, ("granularity:coarse",)),
    ):
        write_entry(kb, with_cost(make_entry(name, m, tags), cm))
    return kb


def test_kb_reload_models_equal_fresh_parse(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    first, second = load_kb(kb), load_kb(kb)
    assert first == second
    for e in second:
        assert e.model == parse(entry_model(kb, e.name).read_bytes())


def test_kb_reload_skips_parse_of_unchanged_files(tmp_path, fixtures_dir, monkeypatch):
    kb = build_kb(tmp_path, fixtures_dir)
    load_kb(kb)
    calls = []

    def counting_parse(data):
        calls.append(data)
        return parse(data)

    monkeypatch.setattr(metareason, "parse_model", counting_parse)
    load_kb(kb)
    assert calls == []
    # Same bytes again: still no parse.  Different bytes: exactly one.
    full, coarse = entry_model(kb, "full"), entry_model(kb, "coarse")
    full.write_bytes(full.read_bytes())
    load_kb(kb)
    assert calls == []
    full.write_bytes(coarse.read_bytes())
    load_kb(kb)
    assert len(calls) == 1


def test_kb_reload_sees_rewritten_model(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    before = {e.name: e.model for e in load_kb(kb)}
    entry_model(kb, "full").write_bytes(entry_model(kb, "coarse").read_bytes())
    after = {e.name: e.model for e in load_kb(kb)}
    assert after["full"] == before["coarse"] != before["full"]
    assert after["coarse"] == before["coarse"]


def test_kb_reload_of_malformed_model_fails_like_fresh_load(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    load_kb(kb)
    full = entry_model(kb, "full")
    lines = full.read_text().splitlines()
    lines[2] = "bogus"
    full.write_text("\n".join(lines) + "\n")
    fresh = shutil.copytree(kb, tmp_path / "fresh")
    with pytest.raises(MetareasonError) as reloaded:
        load_kb(kb)
    with pytest.raises(MetareasonError) as first:
        load_kb(fresh)
    assert str(reloaded.value) == str(first.value)
    expected = f"full.entry: {full.name}: line 3: unknown directive 'bogus'"
    assert str(first.value) == expected


def test_kb_reload_of_deleted_model(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    load_kb(kb)
    entry_model(kb, "coarse").unlink()
    with pytest.raises(MetareasonError, match="coarse.entry: cannot read model"):
        load_kb(kb)


def test_kb_reload_sees_rewritten_manifest(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    before = {e.name: e for e in load_kb(kb)}
    manifest = kb / "full.entry"
    edits = {"quality": "quality 7.5", "cost": "cost 0.25"}
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(edits.get(ln.split()[0], ln) for ln in lines) + "\n")
    after = {e.name: e for e in load_kb(kb)}
    assert (after["full"].quality, after["full"].cost_time) == (7.5, 0.25)
    assert after["full"].model == before["full"].model
    assert after["coarse"] is before["coarse"]


def test_kb_load_reads_both_files_of_every_entry(tmp_path, fixtures_dir, monkeypatch):
    # Every manifest, and each distinct model file, exactly once per load.
    kb = build_kb(tmp_path, fixtures_dir)
    reads, read = [], metareason._read

    def counting_read(path, *args, **kwargs):
        reads.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(metareason, "_read", counting_read)
    names = ("full", "coarse")
    want = sorted(
        [str(kb / f"{n}.entry") for n in names]
        + list({str(entry_model(kb, n)) for n in names})
    )
    for _ in ("cold", "warm"):
        reads.clear()
        load_kb(kb)
        assert sorted(reads) == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_kb_loads_leave_no_descriptor_open(tmp_path, fixtures_dir):
    # A raw descriptor left open gives no ResourceWarning: count them.
    kb = build_kb(tmp_path, fixtures_dir)
    broken = []
    for name, make in (
        ("directory", lambda p: p.mkdir()),
        ("missing", lambda p: None),
        ("malformed", lambda p: p.write_text("tdid 1\nbogus\n")),
    ):
        path = shutil.copytree(kb, tmp_path / name)
        entry_model(path, "full").unlink()
        make(entry_model(path, "full"))
        broken.append(path)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        load_kb(kb)
        for path in broken:
            with pytest.raises(MetareasonError, match="full.entry: "):
                load_kb(path)
    assert len(os.listdir("/proc/self/fd")) == before


def _empty_kb(kb):
    for path in kb.iterdir():
        path.unlink()
    return MetareasonError, "has no entries"


def _dangling_manifest(kb):
    (kb / "d.entry").symlink_to("absent.entry")
    return FileNotFoundError, "No such file or directory"


def _manifest_name_not_utf8(kb):
    try:
        (kb / "full.entry").rename(kb / os.fsdecode(b"\xff.entry"))
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    return MetareasonError, "is not valid UTF-8"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    "breakage", [_empty_kb, _dangling_manifest, _manifest_name_not_utf8]
)
def test_failed_kb_loads_close_the_directory(tmp_path, fixtures_dir, breakage):
    # load_kb holds the knowledge base's directory open while it reads;
    # every way the load fails must close it.
    kb = build_kb(tmp_path, fixtures_dir)
    error, message = breakage(kb)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with pytest.raises(error, match=message):
            load_kb(kb)
    assert len(os.listdir("/proc/self/fd")) == before


def build_solved_kb(tmp_path, fixtures_dir):
    """Cardiac and its coarsest abstraction, solved; returns the directory
    and the urgency under which each entry wins."""
    model = parse((fixtures_dir / "cardiac.tdid").read_bytes())
    coarse = abstract_space(retime(model, "all", (1, 3)), ["CD"])
    cm = CostModel(alpha=0.1, beta=1.0)
    kb = tmp_path / "solved"
    for name, m in (("full", model), ("coarse", coarse)):
        solved, _ = solve_entry(make_entry(name, m))
        write_entry(kb, with_cost(solved, cm))
    return kb, {"full": UrgencyFunction.linear(0.0), "coarse": UrgencyFunction.linear(1000.0)}


def counting_solve(monkeypatch):
    calls = []

    def counted(did):
        calls.append(did)
        return solve(did)

    monkeypatch.setattr("tdid.solve.solve", counted)
    return calls


def test_construct_solves_each_winner_once(tmp_path, fixtures_dir, monkeypatch):
    kb, urgencies = build_solved_kb(tmp_path, fixtures_dir)
    monkeypatch.setattr(metareason, "_policies", {})
    calls = counting_solve(monkeypatch)
    winners = set()
    for _ in range(3):
        for urgency in urgencies.values():
            result = construct(kb, Problem(urgency=urgency))
            winners.add(result.entry.name)
            assert result.policy == solve(deploy(result.entry.model))
    assert winners == set(urgencies)
    assert len(calls) == len(winners)


def test_construct_after_winner_model_rewritten(tmp_path, fixtures_dir, monkeypatch):
    kb, urgencies = build_solved_kb(tmp_path, fixtures_dir)
    problem = Problem(urgency=urgencies["full"])
    old = construct(kb, problem).policy
    entry_model(kb, "full").write_bytes(entry_model(kb, "coarse").read_bytes())
    result = construct(kb, problem)
    assert result.entry.name == "full"
    fresh = solve(deploy(parse(entry_model(kb, "coarse").read_bytes())))
    assert result.policy == fresh != old


def test_prepare_suite_solves_unsolved_entry_once(tmp_path, fixtures_dir, monkeypatch):
    kb = build_kb(tmp_path, fixtures_dir)
    monkeypatch.setattr(metareason, "_policies", {})
    calls = counting_solve(monkeypatch)
    problem = Problem(urgency=UrgencyFunction.linear(0.0))
    first = metareason.prepare_suite(kb, problem)
    second = metareason.prepare_suite(kb, problem)
    assert len(calls) == 2  # one per unsolved entry, both in the first call
    assert first == second
    assert sorted(first[1]) == ["coarse", "full"]


def test_two_knowledge_bases_with_one_model_share_its_solve(
    tmp_path, fixtures_dir, monkeypatch
):
    # Each directory's models are parsed afresh, but they are equal, so the
    # second knowledge base is served from the first one's solves.
    kb = build_kb(tmp_path, fixtures_dir)
    copy = shutil.copytree(kb, tmp_path / "copy")
    monkeypatch.setattr(metareason, "_policies", {})
    calls = counting_solve(monkeypatch)
    problem = Problem(urgency=UrgencyFunction.linear(0.0))
    first, second = construct(kb, problem), construct(copy, problem)
    assert first.entry.model is not second.entry.model
    assert first.policy == second.policy == solve(deploy(first.entry.model))
    assert len(calls) == 2


def test_construct_pipeline(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    result = construct(kb, Problem(urgency=UrgencyFunction.linear(0.0)))
    assert isinstance(result, ConstructResult)
    # Everything got solved on the way through.
    assert all(e.quality is not None for e in result.suite)
    # Zero urgency: the winner carries the best quality in the suite.
    assert result.entry.quality == max(e.quality for e in result.suite)
    assert result.policy.meu == result.entry.quality
    # Default baseline: the cheapest model's cost time.
    assert result.curve.t0 == min(e.cost_time for e in result.suite)

    report = selection_report(result.curve, result.policy.meu)
    assert report.startswith('{"t0": ')
    assert f'"model": "{result.entry.name}"' in report
    assert '"t_star":' in report and '"evc":' in report
    # Stability: the same pipeline prints the same bytes.
    again = construct(kb, Problem(urgency=UrgencyFunction.linear(0.0)))
    assert selection_report(again.curve, again.policy.meu) == report


def test_construct_heavy_urgency_prefers_cheap(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    entries = load_kb(kb)
    cheap = min(entries, key=lambda e: e.cost_time)
    result = construct(
        kb, Problem(urgency=UrgencyFunction.linear(1000.0), t0=cheap.cost_time)
    )
    assert result.entry.name == cheap.name
    assert result.curve.t_star == cheap.cost_time


def test_construct_tag_filter(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    result = construct(
        kb,
        Problem(
            urgency=UrgencyFunction.linear(0.0),
            tags=("granularity:coarse",),
        ),
    )
    assert result.entry.name == "coarse"
    with pytest.raises(MetareasonError, match="tags"):
        construct(
            kb,
            Problem(urgency=UrgencyFunction.linear(0.0), tags=("granularity:alien",)),
        )


def test_construct_deadline_filter(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    entries = load_kb(kb)
    cheap, dear = sorted(entries, key=lambda e: e.cost_time)
    result = construct(
        kb,
        Problem(
            urgency=UrgencyFunction.linear(0.0),
            deadline=(cheap.cost_time + dear.cost_time) / 2,
        ),
    )
    assert result.entry.name == cheap.name
    with pytest.raises(MetareasonError, match="infeasible deadline"):
        construct(
            kb,
            Problem(
                urgency=UrgencyFunction.linear(0.0),
                deadline=cheap.cost_time / 2,
            ),
        )


def test_selection_report_values_are_canonical():
    s = suite_two()
    curve = select(s, UrgencyFunction.linear(1.0), 1.0)
    report = selection_report(curve, 9.0)
    assert report == (
        '{"t0": 1, "curve": ['
        '{"t": 1, "Q": 5, "uc": 4, "evc": 0}, '
        '{"t": 4, "Q": 9, "uc": 5, "evc": 1}], '
        '"t_star": 4, "model": "m2", "meu": 9}'
    )


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
)
def test_urgency_functions_are_nondecreasing(t1, t2, rate, deadline, penalty):
    lo, hi = sorted((t1, t2))
    for u in (
        UrgencyFunction.linear(rate),
        UrgencyFunction.step(deadline, penalty),
        UrgencyFunction.tabulated([(0.0, 0.0), (deadline + 1.0, penalty)]),
    ):
        assert u(lo) <= u(hi)
        assert u(0.0) == 0.0


# ---------------------------------------------------------------------------
# The sorted sweep against the direct O(n²) definition


def reference_quality(suite, t):
    """Q(t) scanned from scratch: best quality within t, ties to the
    cheaper entry, then suite order."""
    feasible = [e for e in suite if e.cost_time <= t]
    if not feasible:
        raise MetareasonError("no model is computable")
    best = None
    for e in feasible:
        if (
            best is None
            or e.quality > best.quality
            or (e.quality == best.quality and e.cost_time < best.cost_time)
        ):
            best = e
    return best.quality, best


def reference_select(suite, urgency, t0):
    """EVC at every candidate time, each from two fresh scans of Q."""
    if t0 is None:
        t0 = min(e.cost_time for e in suite)
    candidates = sorted({float(t0)} | {e.cost_time for e in suite if e.cost_time >= t0})
    points, best = [], None
    for t in candidates:
        q_t, _ = reference_quality(suite, t)
        q_t0, _ = reference_quality(suite, t0)
        value = (q_t - q_t0) - (urgency(t) - urgency(t0))
        point = (t, q_t, q_t - urgency(t), value)
        points.append(point)
        if best is None or point[3] > best[3]:
            best = point
    return points, best[0], reference_quality(suite, best[0])[1]


def test_select_sweep_matches_reference_on_tie_heavy_suites():
    rng = np.random.default_rng(20261018)
    infeasible = 0
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        costs = rng.choice([0.0, 1.0, 1.0, 2.5, 4.0, 4.0], size=n)
        quals = rng.choice([-1.0, 2.0, 2.0, 5.0, 5.0, 7.5], size=n)
        s = [entry(f"m{i}", q, c) for i, (q, c) in enumerate(zip(quals, costs))]
        t0 = [None, 0.0, 0.5, 1.0, 3.0, 4.0, 9.0, float(costs[0])][int(rng.integers(8))]
        if t0 is not None and t0 < costs.min():
            infeasible += 1
            with pytest.raises(MetareasonError, match="no model is computable"):
                select(s, UrgencyFunction.linear(1.0), t0)
            continue
        for u in (
            UrgencyFunction.linear(0.0),
            UrgencyFunction.linear(float(rng.choice([0.5, 1.0, 2.0]))),
            UrgencyFunction.step(float(rng.choice([1.0, 2.5, 3.0])), 2.5),
        ):
            curve = select(s, u, t0)
            points, t_star, best = reference_select(s, u, t0)
            assert [(p.t, p.q, p.uc, p.evc) for p in curve.points] == points
            assert curve.t_star == t_star
            assert curve.best is best
            for t, q, _, _ in points:
                assert quality(s, t) == (q, reference_quality(s, t)[1])
    assert infeasible


@pytest.mark.parametrize("t0", [None, 0.0])
def test_select_reports_a_later_unsolved_entry_before_a_non_finite_point(t0):
    # Q jumps from -1.7e308 to 1.7e308 at t=1, so EVC overflows there, but
    # the unsolved entry at t=2 is the error: the whole sweep runs first.
    s = [entry("x", -1.7e308, 0.0), entry("y", 1.7e308, 1.0), entry("z", None, 2.0)]
    with pytest.raises(MetareasonError, match="entry 'z' is unsolved"):
        select(s, UrgencyFunction.linear(0.0), t0)


def test_select_keeps_signed_zeros_as_the_reference_does():
    # ``==`` holds -0.0 and 0.0 equal, so compare every time by its repr.
    rng = np.random.default_rng(20261019)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        costs = [float(rng.choice([-0.0, 0.0]))]
        costs += [float(c) for c in rng.choice([-0.0, 0.0, 0.0, 1.0, 2.0], size=n - 1)]
        quals = rng.choice([1.0, 2.0, 3.0], size=n)
        s = [entry(f"m{i}", q, c) for i, (q, c) in enumerate(zip(quals, costs))]
        t0 = [None, 0.0, -0.0][int(rng.integers(3))]
        u = UrgencyFunction.linear(float(rng.choice([0.0, 0.5])))
        curve = select(s, u, t0)
        points, t_star, best = reference_select(s, u, t0)
        ref_t0 = float(min(e.cost_time for e in s) if t0 is None else t0)
        want = EvcCurve(ref_t0, tuple(EvcPoint(*p) for p in points), t_star, best)
        assert [repr(p) for p in curve.points] == [repr(p) for p in want.points]
        assert repr(curve.t0) == repr(want.t0)
        assert repr(curve.t_star) == repr(want.t_star)
        assert curve.best is best
        assert selection_report(curve) == selection_report(want)


def test_select_names_first_unsolved_entry_in_suite_order():
    s = [entry("a", 1.0, 0.0), entry("late", None, 3.0), entry("early", None, 2.0)]
    with pytest.raises(MetareasonError, match="'late' is unsolved"):
        select(s, UrgencyFunction.linear(0.0), 3.0)
    with pytest.raises(MetareasonError, match="'early' is unsolved"):
        select(s, UrgencyFunction.linear(0.0), 0.0)


@pytest.mark.parametrize(
    "suite, urgency",
    [
        ([entry("a", 1.0, 0.0), entry("b", 2.0, 2.0)], UrgencyFunction.linear(1e308)),
        ([entry("a", -1e308, 0.0), entry("b", 1e308, 2.0)], UrgencyFunction.linear(0)),
    ],
)
def test_select_rejects_non_finite_curve(suite, urgency):
    with pytest.raises(MetareasonError, match="not finite at t=2"):
        select(suite, urgency, 0.0)


@pytest.mark.parametrize("field", ["t0", "deadline"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_times(field, value):
    with pytest.raises(MetareasonError, match=f"{field} must be finite"):
        Problem(urgency=UrgencyFunction.linear(1.0), **{field: value})


def test_selection_report_without_meu():
    curve = select(suite_two(), UrgencyFunction.linear(1.0), 1.0)
    assert selection_report(curve) == selection_report(curve, 9.0).replace(
        ', "meu": 9', ""
    )


# ---------------------------------------------------------------------------
# Tabulated urgency, selection reuse and the knowledge-base store


def reference_tabulated(points, t):
    """The segment scan ``UrgencyFunction.__call__`` made before bisection."""
    ts = [p[0] for p in points]
    us = [p[1] for p in points]
    if t <= ts[0]:
        return us[0]
    if t >= ts[-1]:
        return us[-1]
    for (t1, u1), (t2, u2) in zip(points, points[1:]):
        if t1 <= t <= t2:
            if t2 == t1:
                return u2
            return u1 + (u2 - u1) * (t - t1) / (t2 - t1)
    raise AssertionError("unreachable")


def test_tabulated_urgency_bisection_matches_the_segment_scan():
    rng = np.random.default_rng(20261020)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        ts = np.sort(rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 7.0], size=n))
        us = np.sort(rng.uniform(0.0, 10.0, size=n))
        u = UrgencyFunction.tabulated(zip(ts.tolist(), us.tolist()))
        probes = set(ts.tolist()) | set(rng.uniform(-1.0, 8.0, size=20).tolist())
        for t in sorted(probes | {-0.0, 0.25, 1.0 + 1e-16, 1e300, -math.inf, math.inf}):
            assert repr(u(t)) == repr(reference_tabulated(u.points, t))


def test_select_on_an_equal_suite_of_other_objects_names_its_own_entries():
    urgency = UrgencyFunction.linear(0.5)
    first, second = suite_two(), suite_two()
    assert first == second
    a, b = select(first, urgency), select(second, urgency)
    assert a == b and a.best is first[1] and b.best is second[1]
    assert select(first, urgency).best is first[1]


def test_select_sweeps_again_after_the_suite_or_t0_changes():
    s = [entry("a", 1.0, 0.0), entry("b", 2.0, 1.0), entry("c", 3.0, 2.0)]
    urgency = UrgencyFunction.linear(0.25)
    assert select(s, urgency).best.name == "c"
    s[2] = entry("d", 0.5, 2.0)  # the same list, changed in place
    curve = select(s, urgency)
    assert curve.best.name == "b" and len(curve.points) == 3
    points, t_star, best = reference_select(s, urgency, None)
    assert [tuple(p) for p in curve.points] == points
    for t0 in (0.0, -0.0, 0.0, 1.0, -0.0):
        curve = select(s, urgency, t0)
        points, t_star, best = reference_select(s, urgency, t0)
        assert repr(curve.t0) == repr(float(t0))
        assert [repr(p) for p in curve.points] == [repr(EvcPoint(*p)) for p in points]
        assert curve.t_star == t_star and curve.best is best


def test_select_recomputes_errors_after_a_held_sweep():
    s = [entry("a", 1.0, 0.0), entry("b", 2.0, 2.0)]
    select(s, UrgencyFunction.linear(0.0), 0.0)
    with pytest.raises(MetareasonError, match="not finite at t=2"):
        select(s, UrgencyFunction.linear(1e308), 0.0)
    with pytest.raises(MetareasonError, match="no model is computable within t=-1"):
        select(s, UrgencyFunction.linear(0.0), -1.0)
    with pytest.raises(MetareasonError, match="empty model suite"):
        select([], UrgencyFunction.linear(0.0), 0.0)


def counting_parse(monkeypatch):
    calls = []

    def counted(data):
        calls.append(data)
        return parse(data)

    monkeypatch.setattr(metareason, "parse_model", counted)
    return calls


def test_kb_load_parses_each_distinct_model_once(tmp_path, fixtures_dir, monkeypatch):
    kb = build_kb(tmp_path, fixtures_dir)
    coarse = entry_model(kb, "coarse")
    (kb / "again.tdid").write_bytes(coarse.read_bytes())
    text = (kb / "coarse.entry").read_text().replace(coarse.name, "again.tdid")
    (kb / "again.entry").write_text(text)
    calls = counting_parse(monkeypatch)
    by_name = {e.name: e for e in load_kb(kb)}
    assert len(calls) == 2
    assert by_name["again"].model is by_name["coarse"].model
    assert by_name["full"].model is not by_name["coarse"].model
    records = metareason._directories[str(kb)].records
    assert records["again.entry"].model is records["coarse.entry"].model
    for e in by_name.values():
        assert e.model == parse(entry_model(kb, e.name).read_bytes())
    # A model read afresh is not shared with one its load returned as held.
    entry_model(kb, "full").write_bytes(coarse.read_bytes())
    after = {e.name: e for e in load_kb(kb)}
    assert len(calls) == 3
    assert after["full"].model == after["coarse"].model
    assert after["full"].model is not after["coarse"].model
    assert after["coarse"] is by_name["coarse"]


def test_kb_load_reuses_an_unchanged_listing(tmp_path, fixtures_dir, monkeypatch):
    kb = build_kb(tmp_path, fixtures_dir)
    calls, manifests = [], metareason._manifests

    def counted(listing):
        calls.append(listing)
        return manifests(listing)

    monkeypatch.setattr(metareason, "_manifests", counted)
    first = load_kb(kb)
    assert len(calls) == 1
    second = load_kb(kb)
    assert len(calls) == 1
    assert second == first and second is not first  # a new list every call
    (kb / "notes.txt").write_text("not a manifest\n")
    assert load_kb(kb) == first and len(calls) == 2


def test_kb_load_sees_manifests_added_and_removed(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    assert [e.name for e in load_kb(kb)] == ["coarse", "full"]
    (kb / "more.entry").write_text((kb / "full.entry").read_text())
    assert [e.name for e in load_kb(kb)] == ["coarse", "full", "more"]
    (kb / "coarse.entry").unlink()
    assert [e.name for e in load_kb(kb)] == ["full", "more"]
    assert sorted(metareason._directories[str(kb)].records) == ["full.entry", "more.entry"]


def test_kb_load_refuses_a_bad_name_added_after_a_load(tmp_path, fixtures_dir):
    kb = build_kb(tmp_path, fixtures_dir)
    first = load_kb(kb)
    (kb / ".entry").write_text((kb / "full.entry").read_text())
    for _ in range(2):  # a refused listing is not held
        with pytest.raises(MetareasonError) as err:
            load_kb(kb)
        assert str(err.value) == "manifest name '.entry' names no entry"
    (kb / ".entry").unlink()
    assert load_kb(kb) == first
    try:
        (kb / os.fsdecode(b"\xff.entry")).write_text((kb / "full.entry").read_text())
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    for _ in range(2):
        with pytest.raises(MetareasonError, match="is not valid UTF-8"):
            load_kb(kb)


def test_kb_store_is_bounded_and_forgets_removed_entries(
    tmp_path, fixtures_dir, monkeypatch
):
    monkeypatch.setattr(metareason, "_directories", {})
    kb = build_kb(tmp_path, fixtures_dir)
    copies = [shutil.copytree(kb, tmp_path / f"copy{k}") for k in range(metareason._KB_CAP + 2)]
    for path in [kb, *copies]:
        load_kb(path)
        assert len(metareason._directories) <= metareason._KB_CAP
    assert list(metareason._directories) == [str(p) for p in copies[-metareason._KB_CAP:]]
    load_kb(copies[-3])  # the most recently loaded is the last evicted
    assert list(metareason._directories)[-1] == str(copies[-3])
    many = tmp_path / "many"
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    for k in range(6):
        write_entry(many, make_entry(f"e{k}", model))
    load_kb(many)
    for k in range(4):  # e4 and e5 name the one model file these name too
        (many / f"e{k}.entry").unlink()
    assert [e.name for e in load_kb(many)] == ["e4", "e5"]
    assert sorted(metareason._directories[str(many)].records) == ["e4.entry", "e5.entry"]


def test_kb_store_holds_a_directory_once_however_it_is_spelled(
    tmp_path, fixtures_dir, monkeypatch
):
    monkeypatch.setattr(metareason, "_directories", {})
    kb = build_kb(tmp_path, fixtures_dir)
    monkeypatch.chdir(tmp_path)
    calls = counting_parse(monkeypatch)
    first = load_kb("kb")
    assert len(calls) == 2
    for spelling in (str(kb), "./kb", "kb/", os.path.join("..", tmp_path.name, "kb")):
        assert load_kb(spelling) == first
        assert list(metareason._directories) == [str(kb)]
    assert len(calls) == 2  # every later load returned the held entries
    # An error names a file by the spelling given, not by the held one.
    coarse = entry_model(kb, "coarse")
    coarse.unlink()
    with pytest.raises(MetareasonError) as err:
        load_kb("kb")
    assert str(err.value) == (
        f"coarse.entry: cannot read model: [Errno 2] No such file or directory: 'kb/{coarse.name}'"
    )


@pytest.mark.parametrize("name", ["", "a/b", "a\0b", "/abs", "sub/"])
def test_write_entry_refuses_a_name_that_is_not_a_file_name(tmp_path, name):
    kb = tmp_path / "kb"
    (kb / "a").mkdir(parents=True)
    with pytest.raises(MetareasonError) as err:
        write_entry(kb, make_entry(name, TINY))
    assert "\n" not in str(err.value) and "must be a nonempty file name" in str(err.value)
    assert list(kb.rglob("*")) == [kb / "a"]


def test_write_entry_refuses_a_name_that_is_not_utf8_and_writes_nothing(tmp_path):
    kb = tmp_path / "kb"
    kb.mkdir()
    with pytest.raises(MetareasonError) as err:
        write_entry(kb, make_entry("\udcff", TINY))
    assert str(err.value) == "entry name '\\udcff' must be valid UTF-8"
    assert list(kb.iterdir()) == []


@pytest.mark.parametrize("name", [".", "..", "x.entry", "a b", "é"])
def test_entry_names_round_trip(tmp_path, name):
    write_entry(tmp_path, make_entry(name, TINY))
    assert [e.name for e in load_kb(tmp_path)] == [name]


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_entry_refuses_a_quality_that_is_not_finite(q):
    # Written, inf would make load_kb refuse the whole directory, and NaN
    # would fail the manifest's formatting after the model file is written.
    with pytest.raises(MetareasonError) as err:
        dataclasses.replace(make_entry("a", TINY), quality=q)
    assert str(err.value) == f"entry 'a': quality {q!r} is not finite"


@pytest.mark.parametrize("tags", [("x y",), ("",), ("x", ""), (" x",), ("a#b",), ("\udcff",)])
def test_write_entry_refuses_a_tag_that_would_not_read_back_and_writes_nothing(tmp_path, tags):
    kb = tmp_path / "kb"
    with pytest.raises(MetareasonError) as err:
        write_entry(kb, make_entry("a", TINY, tags))
    assert "\n" not in str(err.value) and "without whitespace or '#'" in str(err.value)
    assert not kb.exists()


def test_entry_tags_round_trip(tmp_path):
    tags = ("é", "time:all=1,2", "x.y")
    write_entry(tmp_path, make_entry("a", TINY, tags))
    assert [e.tags for e in load_kb(tmp_path)] == [tags]


def test_write_entry_removes_only_the_model_file_it_wrote_when_the_manifest_fails(tmp_path):
    kb = tmp_path / "kb"
    kb.mkdir()
    (kb / "x.entry").mkdir()  # no manifest can be written there
    for name in ("a" * 300, "x"):
        with pytest.raises(OSError):
            write_entry(kb, make_entry(name, TINY))
        assert sorted(p.name for p in kb.iterdir()) == ["x.entry"]
    # A model file that another entry names is reused, and stays.
    write_entry(kb, make_entry("y", TINY))
    shared = entry_model(kb, "y")
    with pytest.raises(OSError):
        write_entry(kb, make_entry("x", TINY))
    assert sorted(p.name for p in kb.iterdir()) == sorted(["x.entry", "y.entry", shared.name])
    (kb / "x.entry").rmdir()
    assert [e.name for e in load_kb(kb)] == ["y"]


# --- the model-file store ----------------------------------------------------

# Cardiac at T=6 under this lattice gives 12 variants and 8 distinct models:
# dropping the damage utility leaves CD barren, so CD's time choices give
# equal models there.
TWINS_LATTICE = """\
time treat : 1 3 5 | 1 4
time CD : 1 2 3 4 5 6 | 1 3 5 | 1 4
space damage : U_dmg
space-choices : keep drop
"""


def build_twins_kb(kb):
    model = parse(cardiac_text(6))
    variants = enumerate_abstractions(model, parse_lattice(TWINS_LATTICE))
    for k, v in enumerate(variants):
        write_entry(kb, make_entry(f"v{k:02d}", v.model, v.tags))
    return variants


def counting_reads(monkeypatch):
    reads, read = [], metareason._read

    def counted(path, *args, **kwargs):
        reads.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(metareason, "_read", counted)
    return reads


def test_kb_stores_each_distinct_model_once_and_a_load_reads_it_once(tmp_path, monkeypatch):
    kb = tmp_path / "kb"
    variants = build_twins_kb(kb)
    texts = {serialize(v.model) for v in variants}
    assert (len(variants), len(texts)) == (12, 8)
    manifests, model_files = sorted(kb.glob("*.entry")), sorted(kb.glob("*.tdid"))
    assert (len(manifests), len(model_files)) == (12, 8)
    assert {p.read_text(encoding="utf-8") for p in model_files} == texts
    for p in model_files:
        data = p.read_bytes()
        assert p.name == f"m{zlib.crc32(data):08x}{len(data):x}.tdid"
    # A model file no manifest names is never read.
    (kb / "stray.tdid").write_text("not a model\n")
    reads = counting_reads(monkeypatch)
    for _ in ("cold", "warm"):
        reads.clear()
        loaded = load_kb(kb)
        assert sorted(reads) == sorted(map(str, manifests + model_files))
    assert [e.name for e in loaded] == [f"v{k:02d}" for k in range(12)]
    for e, v in zip(loaded, variants):
        assert (e.model, e.tags) == (canonical(v.model), v.tags)


def test_kb_in_the_old_layout_loads_and_selects_alike(tmp_path, capsys):
    # One model file per entry, named after the entry, as knowledge bases
    # were written before model files were named by their bytes.
    new = tmp_path / "new"
    variants = build_twins_kb(new)
    old = tmp_path / "old"
    old.mkdir()
    for manifest in sorted(new.glob("*.entry")):
        name = manifest.name[: -len(".entry")]
        (old / f"{name}.tdid").write_bytes(entry_model(new, name).read_bytes())
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("model ")
        text = "\n".join([f"model {name}.tdid", *lines[1:]]) + "\n"
        (old / manifest.name).write_text(text, encoding="utf-8")
    assert len(list(old.glob("*.tdid"))) == len(variants)
    assert load_kb(old) == load_kb(new)
    for command in ("select", "evc"):
        for urgency in ("linear:0.01", "step:90,1"):
            outputs = {}
            for kb in (old, new):
                out, policy = tmp_path / f"{kb.name}.json", tmp_path / f"{kb.name}-policy.json"
                argv = [command, str(kb), "--urgency", urgency, "-o", str(out)]
                if command == "select":
                    argv += ["--policy-out", str(policy)]
                assert main(argv) == 0
                outputs[kb] = [out.read_bytes()]
                if command == "select":
                    outputs[kb].append(policy.read_bytes())
            assert outputs[old] == outputs[new]
    assert capsys.readouterr().err == ""


def test_kb_model_file_name_taken_by_other_bytes_is_probed(tmp_path):
    kb = tmp_path / "kb"
    kb.mkdir()
    model = parse((FIXTURES / "two_var_lagged.tdid").read_bytes())
    data = serialize(model).encode("utf-8")
    stem = f"m{zlib.crc32(data):08x}{len(data):x}"
    taken = {f"{stem}.tdid": serialize(TINY).encode("utf-8"), f"{stem}-1.tdid": b"x\n"}
    for name, other in taken.items():
        (kb / name).write_bytes(other)
    write_entry(kb, make_entry("a", model))
    write_entry(kb, make_entry("again", model))
    write_entry(kb, make_entry("tiny", TINY))
    assert entry_model(kb, "a").name == entry_model(kb, "again").name == f"{stem}-2.tdid"
    assert entry_model(kb, "a").read_bytes() == data
    assert entry_model(kb, "tiny").name not in taken
    assert {name: (kb / name).read_bytes() for name in taken} == taken
    by_name = {e.name: e for e in load_kb(kb)}
    assert by_name["a"].model == by_name["again"].model == canonical(model)
    assert by_name["tiny"].model == canonical(TINY)


def test_kb_rewriting_an_entry_leaves_the_entries_sharing_its_file(tmp_path):
    kb = tmp_path / "kb"
    model = parse((FIXTURES / "two_var_lagged.tdid").read_bytes())
    for name in ("x", "y"):
        write_entry(kb, make_entry(name, model))
    shared = entry_model(kb, "x")
    before = shared.read_bytes()
    assert entry_model(kb, "y") == shared
    first = {e.name: e for e in load_kb(kb)}
    write_entry(kb, make_entry("x", TINY))
    assert entry_model(kb, "x") != shared
    assert entry_model(kb, "y") == shared and shared.read_bytes() == before
    after = {e.name: e for e in load_kb(kb)}
    assert after["y"] is first["y"]
    assert after["x"].model == canonical(TINY)
