"""Time and space abstraction, and abstraction-lattice enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from test_cli import mutate, tokens
from tdid.model import ModelError, ModelFormatError, parse, serialize, validate
from tdid.deploy import COPY, deploy
from tdid.abstraction import (
    DependencyError,
    LatticeSpec,
    abstract_space,
    abstract_time,
    enumerate_abstractions,
    parse_lattice,
    retime,
)

from gen import random_model


@pytest.fixture
def cardiac(fixtures_dir):
    return parse((fixtures_dir / "cardiac.tdid").read_bytes())


@pytest.fixture
def two_var(fixtures_dir):
    return parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())


# --- abstract_time -----------------------------------------------------------


def test_identity_abstraction(cardiac):
    assert abstract_time(cardiac, "cr", (1, 2, 3)) == cardiac


def test_retime_all_removes_slice_2_nodes(cardiac):
    coarse = retime(cardiac, "all", (1, 3))
    assert all(v.times == (1, 3) for v in coarse.variables)
    did = deploy(coarse)
    # slice-2 copies are childless (nothing at slice 3 points into slice 2
    # once every variable skips it), so barren elimination leaves slice 2
    # empty altogether
    assert all(n.slice != 2 for n in did.nodes)
    raw = deploy(coarse, barren=False)
    assert all(n.kind == COPY for n in raw.nodes if n.slice == 2)


def test_further_abstraction_of_coarse_variable(two_var):
    m = abstract_time(two_var, "X", (1,))
    did = deploy(m)
    assert did.node(("X", 1)).kind == "chance"
    for i in (2, 3, 4):
        assert did.node(("X", i)).kind == COPY
        assert did.table_by_node[("X", i)].parents == (("X", 1),)


def test_abstract_time_drops_tables_at_dropped_indices(two_var):
    m = abstract_time(two_var, "X", (1,))
    assert [c.time_index for c in m.cpds if c.variable == "X"] == [1]


def test_abstract_time_rejects_refinement(two_var):
    with pytest.raises(ModelError, match="only drops"):
        abstract_time(two_var, "X", (1, 2))  # 2 not currently indexed
    with pytest.raises(ModelError, match="first index"):
        abstract_time(two_var, "X", (3,))
    with pytest.raises(ModelError, match="strictly increasing"):
        abstract_time(two_var, "X", (1, 3, 3))


def test_abstract_time_is_idempotent_at_fixpoint(cardiac):
    once = abstract_time(cardiac, "poa", (1, 3))
    assert abstract_time(once, "poa", (1, 3)) == once


def test_copies_exactly_at_dropped_indices_random_models():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = random_model(rng)
        picks = [v for v in m.variables if v.kind != "value" and len(v.times) > 1]
        if not picks:
            continue
        v = picks[int(rng.integers(0, len(picks)))]
        keep = (v.times[0],) + tuple(
            i for i in v.times[1:] if rng.random() < 0.5
        )
        a = abstract_time(m, v.name, keep)
        did = deploy(a, barren=False)
        copies = {n.slice for n in did.nodes if n.base == v.name and n.kind == COPY}
        assert copies == set(m.master) - set(keep), serialize(m)


# --- abstract_space ----------------------------------------------------------


def _kept_by_reference_walk(model, drop):
    """Names abstract_space keeps when dropping ``drop`` (one variable),
    or None where it must refuse: a retained chance variable reads the
    dropped one, or no value variable survives."""
    parents = {
        v.name: {a.src for a in model.arcs_into(v.name)} for v in model.variables
    }
    removed = {drop} | {
        v.name for v in model.variables if v.kind == "value" and drop in parents[v.name]
    }
    if any(
        v.kind == "chance" and v.name not in removed and drop in parents[v.name]
        for v in model.variables
    ):
        return None
    useful = set()
    frontier = [
        v.name for v in model.variables if v.kind == "value" and v.name not in removed
    ]
    while frontier:
        name = frontier.pop()
        if name not in useful:
            useful.add(name)
            frontier.extend(parents[name] - removed - useful)
    kept = [v.name for v in model.variables if v.name in useful]
    return kept if any(model.variable(n).kind == "value" for n in kept) else None


def test_abstract_space_keeps_what_a_reference_walk_keeps():
    rng = np.random.default_rng(37)
    checked = refused = 0
    for _ in range(300):
        m = random_model(rng)
        for v in m.variables:
            want = _kept_by_reference_walk(m, v.name)
            if want is None:
                refused += 1
                with pytest.raises(ModelError):
                    abstract_space(m, {v.name})
            else:
                checked += 1
                got = abstract_space(m, {v.name})
                assert [x.name for x in got.variables] == want, serialize(m)
    assert checked > 300 and refused > 100


def test_drop_cd_removes_dependent_chain(cardiac):
    m = abstract_space(cardiac, {"CD"})
    names = {v.name for v in m.variables}
    # U_dmg depended on CD; poa and cbf then lose their only route to a
    # value variable and go too
    assert names == {"cr", "treat", "U_surv"}
    assert all(a.src in names and a.dst in names for a in m.arcs)


def test_drop_empty_set_is_identity(cardiac):
    assert abstract_space(cardiac, set()) is cardiac


def test_drop_leaf_node_removes_only_it():
    m = parse(
        """
        tdid 1
        master 1
        chance X : a b
        chance L : a b
        value U
        arc inst X U
        cpt X @ 1 | : 0.5 0.5
        cpt L @ 1 | : 0.5 0.5
        util U @ 1 | X : 1 0
        """
    )
    out = abstract_space(m, {"L"})
    assert {v.name for v in out.variables} == {"X", "U"}


def test_drop_parent_of_retained_chance_is_dependency_error(cardiac):
    with pytest.raises(DependencyError) as err:
        abstract_space(cardiac, {"cbf"})
    assert "cpt poa @ 1" in err.value.tables
    assert "cpt poa @ *" in err.value.tables


def test_drop_only_value_variable_rejected(two_var):
    with pytest.raises(ModelError, match="every value variable"):
        abstract_space(two_var, {"U"})


def test_drop_observed_variable_only_loses_observation(cardiac):
    # cr is observed by treat but treat has no table, so dropping cr's
    # *observer* role is fine — but cr is also a parent of cbf and U_surv,
    # so dropping it is refused for the chance table's sake.
    with pytest.raises(DependencyError):
        abstract_space(cardiac, {"cr"})


def test_abstract_space_keeps_retained_tables_unchanged(cardiac):
    m = abstract_space(cardiac, {"CD"})
    for t in m.cpds:
        (orig,) = [
            c
            for c in cardiac.cpds
            if c.variable == t.variable and c.time_index == t.time_index
        ]
        assert t == orig


def test_abstract_space_is_idempotent(cardiac):
    once = abstract_space(cardiac, {"CD"})
    assert abstract_space(once, {"CD"}) == once


# --- lattice enumeration -------------------------------------------------------


def test_parse_lattice(fixtures_dir):
    spec = parse_lattice((fixtures_dir / "cardiac.lattice").read_bytes())
    assert spec.times == (("all", ((1, 2, 3), (1, 3))),)
    assert spec.groups == (("cognitive", ("CD",)),)
    assert spec.choices == ("keep", "drop")


def test_parse_lattice_errors():
    with pytest.raises(ModelFormatError, match="line 1"):
        parse_lattice("time X 1 2\n")
    with pytest.raises(ModelFormatError, match="keep"):
        parse_lattice("space-choices : maybe\n")
    with pytest.raises(ModelFormatError, match="unknown directive"):
        parse_lattice("spce g : X\n")


def test_parse_lattice_rejects_invalid_utf8():
    with pytest.raises(ModelFormatError, match="line 2: not valid UTF-8"):
        parse_lattice(b"time all : 1 | 1 2\nspace g : \xfe\n")


def test_enumerate_cardiac_lattice(cardiac, fixtures_dir):
    spec = parse_lattice((fixtures_dir / "cardiac.lattice").read_bytes())
    variants = enumerate_abstractions(cardiac, spec)
    assert [v.tags for v in variants] == [
        ("time:all=1,2,3", "space:cognitive=keep"),
        ("time:all=1,2,3", "space:cognitive=drop"),
        ("time:all=1,3", "space:cognitive=keep"),
        ("time:all=1,3", "space:cognitive=drop"),
    ]
    assert variants[0].model == cardiac
    assert {v.name for v in variants[1].model.variables} == {"cr", "treat", "U_surv"}
    assert all(v.times == (1, 3) for v in variants[2].model.variables)
    from tdid.model import validate

    assert all(validate(v.model) == [] for v in variants)


def test_enumerate_trivial_spec_returns_original(cardiac):
    spec = LatticeSpec(times=(), groups=(), choices=("keep",))
    variants = enumerate_abstractions(cardiac, spec)
    assert len(variants) == 1
    assert variants[0].model == cardiac
    assert variants[0].tags == ()


def test_enumerate_filters_invalid_combinations(cardiac):
    spec = LatticeSpec(
        times=(("cr", ((1, 2, 3), (2, 3))),),  # second drops the first index
        groups=(),
    )
    variants = enumerate_abstractions(cardiac, spec)
    assert len(variants) == 1
    assert variants[0].tags == ("time:cr=1,2,3",)


def test_enumerate_all_invalid_is_error(cardiac):
    spec = LatticeSpec(times=(("cr", ((2, 3),)),), groups=())
    with pytest.raises(ModelError, match="no feasible abstraction"):
        enumerate_abstractions(cardiac, spec)


def test_enumerate_long_lattice_within_recursion_limit(cardiac):
    text = "space-choices : keep\n" + "".join(f"space g{k} : poa\n" for k in range(1200))
    variants = enumerate_abstractions(cardiac, parse_lattice(text))
    assert len(variants) == 1
    assert variants[0].tags == tuple(f"space:g{k}=keep" for k in range(1200))
    assert variants[0].model == cardiac


FUZZ_MODEL = parse((FIXTURES / "cardiac.tdid").read_bytes())
FUZZ_LATTICE = tokens((FIXTURES / "cardiac.lattice").read_text())
FUZZ_LATTICE_POOL = sorted(
    {*FUZZ_LATTICE, *(v.name for v in FUZZ_MODEL.variables)}
    | {"time", "space", "space-choices", "all", "keep", "drop", "|", ":", "0", "4", "x"}
)


@settings(max_examples=200, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "replace"]),
            st.integers(min_value=0),
            st.sampled_from(FUZZ_LATTICE_POOL),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_lattice_fuzz(mutations):
    # Only ModelError subclasses may escape parsing or enumeration.
    try:
        variants = enumerate_abstractions(
            FUZZ_MODEL, parse_lattice(mutate(FUZZ_LATTICE, mutations))
        )
    except ModelError:
        return
    assert all(validate(v.model) == [] for v in variants)
