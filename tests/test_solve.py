"""Solver: exactness against the brute-force oracle, invariances, reports."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tdid.model import ModelError, parse, serialize
from tdid.abstraction import retime
from tdid.deploy import (
    DeployedDid,
    DeployedTable,
    DeployedUtility,
    SliceNode,
    collapse_copies,
    deploy,
    eliminate_barren,
    node_name,
)
from tdid.solve import (
    FRONTIER_CAP,
    SEARCH_CAP,
    DecisionRule,
    OracleCapError,
    Policy,
    SolveCapError,
    SolveError,
    _Dense,
    _Plan,
    brute_force,
    evaluate_policy,
    policies_agree,
    policy_json,
    policy_space_size,
    solve,
)

from conftest import cardiac_text
from gen import corpus, random_model

ONE_DECISION = """
tdid 1
master 1
chance C : s f
decision D : a b
value U
arc inst C U
arc inst D U
cpt C @ 1 | : 0.7 0.3
util U @ 1 | C D : 10 5 0 5
"""



def test_one_decision_example():
    did = deploy(parse(ONE_DECISION))
    p = solve(did)
    assert p.meu == pytest.approx(7.0, abs=1e-9)
    assert p.rule(("D", 1)).choices == (0,)  # option "a"


def test_degenerate_decision_only():
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            decision D : a b
            value U
            arc inst D U
            util U @ 1 | D : 1 0
            """
        )
    )
    p = solve(did)
    assert p.meu == pytest.approx(1.0)
    assert p.rule(("D", 1)).choices == (0,)


def test_brute_force_matches_worked_example():
    did = deploy(parse(ONE_DECISION))
    p = brute_force(did)
    assert p.meu == pytest.approx(7.0, abs=1e-9)
    assert p.rule(("D", 1)).choices == (0,)


def test_no_decision_model_meu_is_expectation():
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            chance C : s f
            value U
            arc inst C U
            cpt C @ 1 | : 0.25 0.75
            util U @ 1 | C : 8 0
            """
        )
    )
    got, want = solve(did), brute_force(did)
    assert got.rules == want.rules == ()
    assert got.meu == pytest.approx(2.0) and want.meu == pytest.approx(2.0)


def test_policy_count_two_sequential_decisions():
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            decision D1 : a b
            decision D2 : a b
            value U
            arc inst D1 D2
            arc inst D1 U
            arc inst D2 U
            util U @ 1 | D1 D2 : 0 1 2 3
            """
        )
    )
    assert policy_space_size(did) == 8  # 2 for D1, 2^2 for D2


def test_constant_utility_any_policy():
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            chance C : s f
            value U
            arc inst C U
            cpt C @ 1 | : 0.6 0.4
            util U @ 1 | C : 3 3
            """
        )
    )
    assert brute_force(did).meu == pytest.approx(3.0)


def test_evaluate_policy_consistency():
    did = deploy(parse(ONE_DECISION))
    p = solve(did)
    assert evaluate_policy(did, p) == pytest.approx(p.meu, abs=1e-9)
    worse = Policy(
        (DecisionRule(("D", 1), p.rule(("D", 1)).observations, (1,)),), 0.0
    )
    assert evaluate_policy(did, worse) == pytest.approx(5.0, abs=1e-9)


def test_evaluate_policy_rejects_incomplete_policy():
    did = deploy(parse(ONE_DECISION))
    with pytest.raises(SolveError, match="missing D@1"):
        evaluate_policy(did, Policy((), 0.0))


def test_evaluate_policy_rejects_wrong_table_size():
    did = deploy(parse(ONE_DECISION))
    bad = Policy((DecisionRule(("D", 1), (), (0, 0)),), 0.0)
    with pytest.raises(SolveError, match="entries"):
        evaluate_policy(did, bad)


def test_policy_rule_refuses_a_decision_it_has_no_rule_for():
    p = solve(deploy(parse(ONE_DECISION)))
    with pytest.raises(SolveError) as err:
        p.rule(("E", 1))
    assert str(err.value) == "policy has no rule for E@1"


def test_evaluate_policy_rejects_a_rule_keyed_on_the_wrong_observations():
    did = deploy(parse(ONE_DECISION))
    bad = Policy((DecisionRule(("D", 1), (("C", 1),), (0, 0)),), 0.0)
    with pytest.raises(SolveError) as err:
        evaluate_policy(did, bad)
    assert str(err.value) == "policy for D@1 is keyed on the wrong observations"


def test_policies_agree_refuses_another_meu_or_other_observations():
    did = deploy(parse(ONE_DECISION))
    p = solve(did)
    assert policies_agree(did, p, p)
    assert not policies_agree(did, p, Policy(p.rules, p.meu + 1.0))
    keyed_on_c = Policy((DecisionRule(("D", 1), (("C", 1),), (0, 0)),), p.meu)
    assert not policies_agree(did, p, keyed_on_c)


def test_signaling_needs_global_optimization():
    # D1 sees C and influences nothing; D2 sees only D1 but must match C.
    # The optimum routes C through D1's choice, which local backward
    # induction starting at D2 cannot find.
    m = parse(
        """
        tdid 1
        master 1
        chance C : c0 c1
        decision D1 : a b
        decision D2 : a b
        value U
        arc inst C D1
        arc inst D2 U
        arc inst C U
        cpt C @ 1 | : 0.5 0.5
        util U @ 1 | C D2 : 1 0 0 1
        """
    )
    did = deploy(m)
    p = solve(did)
    assert p.meu == pytest.approx(1.0, abs=1e-9)
    assert brute_force(did).meu == pytest.approx(1.0, abs=1e-9)
    assert policies_agree(did, p, brute_force(did))


def test_policies_agree_accepts_coordinated_ties():
    # D0 relays C to D1, which must match C.  The relay convention is
    # arbitrary: identity and inverted encodings are distinct optimal
    # policies that differ on every reachable state of BOTH decisions, yet
    # no single-entry change maps one onto the other.
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            chance C : c0 c1
            decision D0 : a b
            decision D1 : a b
            value V
            arc inst C D0
            arc inst D0 D1
            arc inst C V
            arc inst D1 V
            cpt C @ 1 | : 0.5 0.5
            util V @ 1 | C D1 : 1 0 0 1
            """
        )
    )
    obs0, obs1 = ((("C", 1),), (("D0", 1),))
    identity = Policy(
        rules=(
            DecisionRule(("D0", 1), obs0, (0, 1)),
            DecisionRule(("D1", 1), obs1, (0, 1)),
        ),
        meu=1.0,
    )
    inverted = Policy(
        rules=(
            DecisionRule(("D0", 1), obs0, (1, 0)),
            DecisionRule(("D1", 1), obs1, (1, 0)),
        ),
        meu=1.0,
    )
    assert evaluate_policy(did, identity) == pytest.approx(1.0)
    assert evaluate_policy(did, inverted) == pytest.approx(1.0)
    assert policies_agree(did, identity, inverted)
    assert policies_agree(did, solve(did), inverted)

    # A policy claiming the optimum without achieving it is rejected.
    liar = Policy(
        rules=(
            DecisionRule(("D0", 1), obs0, (0, 0)),
            DecisionRule(("D1", 1), obs1, (0, 0)),
        ),
        meu=1.0,
    )
    assert evaluate_policy(did, liar) == pytest.approx(0.5)
    assert not policies_agree(did, identity, liar)


def test_tie_breaks_toward_lowest_option():
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            decision D : a b
            value U
            arc inst D U
            util U @ 1 | D : 2 2
            """
        )
    )
    assert solve(did).rule(("D", 1)).choices == (0,)
    assert brute_force(did).rule(("D", 1)).choices == (0,)


def test_oracle_cap(monkeypatch):
    did = deploy(
        parse(
            """
            tdid 1
            master 1
            decision D1 : a b
            decision D2 : a b
            value U
            arc inst D1 D2
            arc inst D2 U
            util U @ 1 | D2 : 1 0
            """
        )
    )
    monkeypatch.setattr("tdid.solve.ORACLE_CAP", 4)
    with pytest.raises(OracleCapError, match="above the cap of 4"):
        brute_force(did)
    monkeypatch.undo()
    assert brute_force(did).meu == pytest.approx(1.0)


def test_unsolvable_information_structure_detected():
    did = deploy(parse(ONE_DECISION))
    # The decision observes a node that depends on the decision itself.
    bad = dataclasses.replace(did, decisions=((("D", 1), (("U", 1),)),))
    with pytest.raises(SolveError):
        solve(bad)


SEQUENTIAL = """
tdid 1
master 1
chance C : s f
decision D1 : a b
chance X : s f
decision D2 : a b
chance Y : s f
value U
arc inst C D1
arc inst D1 X
arc inst X D2
arc inst D2 Y
arc inst C U
arc inst Y U
cpt C @ 1 | : 0.7 0.3
cpt X @ 1 | D1 : 0.9 0.1 , 0.2 0.8
cpt Y @ 1 | D2 : 0.6 0.4 , 0.1 0.9
util U @ 1 | C Y : 10 5 0 5
"""

NOT_SOLVABLE = (
    "information structure is not solvable: no consistent ordering places "
    "every observation before its decision"
)


def _option_zero(did):
    """Option 0 at every entry, keyed on what the diagram's decisions observe."""
    rules = []
    for d, obs in did.info:
        entries = math.prod(len(did.states(o)) for o in obs)
        rules.append(DecisionRule(d, obs, (0,) * entries))
    return Policy(tuple(rules), 0.0)


def _unsolvable_diagrams():
    did = deploy(parse(SEQUENTIAL))
    c, d1, x, d2, y = ("C", 1), ("D1", 1), ("X", 1), ("D2", 1), ("Y", 1)
    chance = did.nodes[0]
    loop = (
        DeployedTable(("A", 1), (("B", 1),), ((0.5, 0.5), (0.5, 0.5))),
        DeployedTable(("B", 1), (("A", 1),), ((0.5, 0.5), (0.5, 0.5))),
    )
    err = (SolveError, NOT_SOLVABLE)
    unknown = ("nope", 1)
    yield pytest.param(
        dataclasses.replace(did, decisions=did.decisions[::-1]),
        err, err, err,
        id="reversed-order",
    )
    yield pytest.param(
        dataclasses.replace(did, decisions=((d1, (c, y)), (d2, (x,)))),
        err, err, err,
        id="observes-a-later-decision",
    )
    yield pytest.param(
        dataclasses.replace(did, decisions=did.decisions + ((unknown, ()),)),
        (SolveError, "decision order names unknown node nope@1"),
        (ModelError, "no deployed node nope@1"),
        None,  # no rule can name the options of a node that is not there
        id="unknown-decision",
    )
    yield pytest.param(
        dataclasses.replace(
            did,
            nodes=did.nodes + (chance._replace(base="A"), chance._replace(base="B")),
            tables=did.tables + loop,
        ),
        err, err, err,
        id="unread-cycle",
    )
    ghost = (ModelError, "no deployed node Y@1")
    yield pytest.param(
        dataclasses.replace(did, nodes=tuple(n for n in did.nodes if n.id != y)),
        ghost, ghost, ghost,
        id="read-table-of-no-node",
    )
    # A chance node with no table, read or not: the oracle must not weigh
    # it as 1 in each of its states.
    for node, extra in [(c, ()), (("Z", 1), (chance._replace(base="Z"),))]:
        tableless = (SolveError, f"{node_name(node)} has no distribution")
        yield pytest.param(
            dataclasses.replace(
                did,
                nodes=did.nodes + extra,
                tables=tuple(t for t in did.tables if t.node != node),
            ),
            tableless, tableless, tableless,
            id=f"{node[0]}-has-no-table",
        )
    # A decision outside the decision order has no rule to weigh it.
    stray = (SolveError, "E@1 is not in the decision order")
    yield pytest.param(
        dataclasses.replace(did, nodes=did.nodes + (did.node(d1)._replace(base="E"),)),
        stray, stray, stray,
        id="decision-outside-the-order",
    )
    # A value node has no distribution, so no table may read it.
    v = ("V", 1)
    unreadable = (SolveError, "V@1 is read but has no distribution")
    yield pytest.param(
        dataclasses.replace(
            did,
            nodes=did.nodes + (SliceNode(*v, "value", ()),),
            tables=tuple(
                t._replace(parents=t.parents + (v,)) if t.node == x else t
                for t in did.tables
            ),
        ),
        unreadable, unreadable, unreadable,
        id="value-node-is-read",
    )
    for node, by_evaluation in [
        (c, (SolveError, "C@1 has no states")),
        (d1, (SolveError, "policy for D1@1 picks an unknown option")),
    ]:
        stateless = (SolveError, f"{node_name(node)} has no states")
        yield pytest.param(
            dataclasses.replace(
                did,
                nodes=tuple(
                    n._replace(states=()) if n.id == node else n for n in did.nodes
                ),
            ),
            stateless, stateless, by_evaluation,
            id=f"{node[0]}-has-no-states",
        )


@pytest.mark.parametrize(
    "did, by_solve, by_oracle, by_evaluation", list(_unsolvable_diagrams())
)
def test_unsolvable_diagrams_are_refused_alike(did, by_solve, by_oracle, by_evaluation):
    for call, (kind, message) in [(solve, by_solve), (brute_force, by_oracle)]:
        with pytest.raises(kind) as raised:
            call(did)
        assert (type(raised.value), str(raised.value)) == (kind, message)
    if by_evaluation is not None:
        kind, message = by_evaluation
        with pytest.raises(kind) as raised:
            evaluate_policy(did, _option_zero(did))
        assert (type(raised.value), str(raised.value)) == (kind, message)


def test_figure_model_solves_same_collapsed(fixtures_dir):
    m = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    did = deploy(m)
    meu = solve(did).meu
    assert solve(collapse_copies(did)).meu == pytest.approx(meu, abs=1e-9)
    assert brute_force(did).meu == pytest.approx(meu, abs=1e-9)


# --- random-corpus properties ---------------------------------------------


def test_oracle_equivalence_on_random_corpus():
    for m, did in corpus(60, seed=7):
        got = solve(did)
        want = brute_force(did)
        assert abs(got.meu - want.meu) <= 1e-9, serialize(m)
        assert policies_agree(did, got, want), serialize(m)


def test_oracle_equivalence_on_multi_state_decision_corpus():
    # Two to four states per variable and at least one deployed decision:
    # a search that skips options past the second, or a tie broken at the
    # wrong grain, shows here though binary models hide it.
    for m, raw in corpus(
        200, seed=5, max_policies=4096, states=(2, 4), with_decision=True
    ):
        for did in (raw, collapse_copies(raw)):
            got = solve(did)
            want = brute_force(did)
            assert abs(got.meu - want.meu) <= 1e-9, serialize(m)
            assert got.rules == want.rules, serialize(m)
            value = evaluate_policy(did, got)
            assert value == evaluate_policy(dataclasses.replace(did), got)
            assert abs(value - got.meu) <= 1e-9, serialize(m)


def test_meu_invariant_under_barren_elimination():
    for m, did in [(m, deploy(m, barren=False)) for m, _ in corpus(25, seed=11)]:
        if policy_space_size(did) > 512:
            continue
        assert solve(did).meu == pytest.approx(
            solve(eliminate_barren(did)).meu, abs=1e-9
        ), serialize(m)


def test_meu_invariant_under_copy_collapse():
    for m, did in corpus(25, seed=13):
        assert solve(did).meu == pytest.approx(
            solve(collapse_copies(did)).meu, abs=1e-9
        ), serialize(m)


def test_meu_invariant_under_declaration_permutation():
    rng = np.random.default_rng(17)
    for m, did in corpus(25, seed=19):
        perm = list(m.variables)
        rng.shuffle(perm)
        shuffled = dataclasses.replace(m, variables=tuple(perm))
        assert solve(deploy(shuffled)).meu == pytest.approx(
            solve(did).meu, abs=1e-9
        ), serialize(m)


def test_utility_shift_shifts_meu_by_value_node_count():
    k = 2.5
    for m, did in corpus(15, seed=23):
        base = solve(did)
        shifted = dataclasses.replace(
            m,
            utilities=tuple(
                dataclasses.replace(u, values=tuple(v + k for v in u.values))
                for u in m.utilities
            ),
        )
        did2 = deploy(shifted)
        got = solve(did2)
        assert got.meu == pytest.approx(
            base.meu + k * len(did.value_nodes), abs=1e-9
        ), serialize(m)
        assert [r.choices for r in got.rules] == [r.choices for r in base.rules]


# --- report -----------------------------------------------------------------


def test_policy_json_shape_and_stability():
    did = deploy(parse(ONE_DECISION))
    p = solve(did)
    text = policy_json(did, p)
    assert text == policy_json(did, solve(did))
    data = json.loads(text)
    assert list(data) == ["meu", "decisions"]
    assert data["meu"] == pytest.approx(7.0)
    assert data["decisions"] == [{"node": "D@1", "parents": [], "table": ["a"]}]


# --- beyond the old horizon ---------------------------------------------------


def cardiac(horizon):
    return parse(cardiac_text(horizon))


def test_cardiac_fixture_choices_pinned(fixtures_dir):
    # The choices the entry-variable solver printed for this fixture; they
    # pin lowest-index tie-breaking across the change of solver.
    did = deploy(parse((fixtures_dir / "cardiac.tdid").read_bytes()))
    p = solve(did)
    assert [r.choices for r in p.rules] == [
        (0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 0, 1, 1, 1, 1),
    ]
    assert p.meu == pytest.approx(29.53498332870859, abs=1e-9)


def test_evaluate_policy_refuses_a_decision_ruled_twice(fixtures_dir):
    did = deploy(parse((fixtures_dir / "cardiac.tdid").read_bytes()))
    p = solve(did)
    twice = Policy(p.rules + p.rules[:1], p.meu)
    with pytest.raises(SolveError) as raised:
        evaluate_policy(did, twice)
    assert str(raised.value) == "policy has more than one rule for treat@1"


def test_evaluate_policy_takes_rules_in_any_order(fixtures_dir):
    did = deploy(parse((fixtures_dir / "cardiac.tdid").read_bytes()))
    p = solve(did)
    assert len(p.rules) == 3
    value = evaluate_policy(did, p)
    assert value == pytest.approx(p.meu, abs=1e-9)
    assert evaluate_policy(did, Policy(p.rules[::-1], p.meu)) == value


@pytest.mark.parametrize("horizon", [4, 5])
def test_cardiac_solve_and_evaluate_agree(horizon):
    did = deploy(cardiac(horizon))
    p = solve(did)
    assert len(p.rules) == horizon
    assert evaluate_policy(did, p) == pytest.approx(p.meu, abs=1e-9)
    # Every other single-entry change of the last rule does no better.
    last = p.rules[-1]
    for k in range(len(last.choices)):
        flipped = last.choices[:k] + (1 - last.choices[k],) + last.choices[k + 1 :]
        other = Policy(
            p.rules[:-1] + (DecisionRule(last.node, last.observations, flipped),), 0.0
        )
        assert evaluate_policy(did, other) <= p.meu + 1e-9


def test_evaluate_policy_kb_sized_variant():
    # Cardiac at T=6 with treat at 1, 3, 5 (the largest knowledge-base
    # variant of the benchmark): a dense joint over its 30 binary nodes
    # would take 8 GiB.
    m = retime(cardiac(6), "treat", (1, 3, 5))
    did = deploy(m)
    assert sum(1 for n in did.nodes if n.kind != "value") == 30
    p = solve(did)
    assert evaluate_policy(did, p) == pytest.approx(p.meu, abs=1e-9)


def test_evaluate_policy_matches_dense_joint_on_random_policies():
    rng = np.random.default_rng(29)
    for m, did in corpus(40, seed=31):
        dense = _Dense(did)
        for _ in range(3):
            rules = tuple(
                DecisionRule(
                    r.node,
                    r.observations,
                    rng.integers(0, len(did.states(r.node)), len(r.choices)),
                )
                for r in solve(did).rules
            )
            want = dense.expected_utility(rules)
            got = evaluate_policy(did, Policy(rules, 0.0))
            assert got == pytest.approx(want, abs=1e-9), serialize(m)


def test_preflight_admits_cardiac_through_eight_slices():
    plan = _Plan(deploy(cardiac(8)))
    assert plan.frontier_cells == 3**7 * 32 <= FRONTIER_CAP  # 2,187 rows of 32
    assert plan.search_bound == 335922 <= SEARCH_CAP
    with pytest.raises(SolveCapError, match="reaches 2015538 branches, above the cap"):
        solve(deploy(cardiac(9)))


def test_preflight_refuses_a_wide_frontier():
    # One decision observing 23 binary chance nodes: its frontier has 2^23
    # cells, refused before any table is built.
    names = [f"C{k}" for k in range(23)]
    text = "\n".join(
        ["tdid 1", "master 1", "decision D : a b", "value U"]
        + [f"chance {c} : s f" for c in names]
        + [f"arc inst {c} D" for c in names]
        + ["arc inst D U"]
        + [f"cpt {c} @ 1 | : 0.5 0.5" for c in names]
        + ["util U @ 1 | D : 1 0", ""]
    )
    did = deploy(parse(text))
    with pytest.raises(SolveCapError, match="holds 8388608 frontier cells"):
        solve(did)


def test_search_bound_stops_counting_past_the_cap():
    # D observes 7 binary chance nodes, 128 joint states: its 2^128 rules
    # are refused without being counted, at the cap plus one.
    names = [f"C{k}" for k in range(7)]
    text = "\n".join(
        ["tdid 1", "master 1", "decision D : a b", "decision E : a b", "value U"]
        + [f"chance {c} : s f" for c in names]
        + [f"arc inst {c} D" for c in names]
        + ["arc inst D E", "arc inst E U"]
        + [f"cpt {c} @ 1 | : 0.5 0.5" for c in names]
        + ["util U @ 1 | E : 1 0", ""]
    )
    with pytest.raises(SolveCapError) as err:
        solve(deploy(parse(text)))
    assert str(err.value) == (
        f"the search bound reaches {SEARCH_CAP + 1} branches, above the cap of {SEARCH_CAP}"
    )


def test_a_step_reading_more_variables_than_einsum_letters_is_refused():
    # 53 one-state chance nodes and a decision, all read by one utility:
    # the step placing the 52nd chance node reads 52 of them and the batch
    # axis, one variable more than einsum has letters.  Models need two
    # states per variable, so the diagram is built as deployed.
    chance = [(f"C{k}", 1) for k in range(53)]
    d = ("D", 1)
    did = DeployedDid(
        slices=(1,),
        nodes=tuple(SliceNode(*c, "chance", ("s",)) for c in chance)
        + (SliceNode(*d, "decision", ("a", "b")), SliceNode("U", 1, "value", ())),
        tables=tuple(DeployedTable(c, (), ((1.0,),)) for c in chance),
        utilities=(DeployedUtility(("U", 1), tuple(chance) + (d,), (1.0, 0.0)),),
        decisions=((d, ()),),
    )
    message = "a solver step reads 53 variables, above the cap of 52"
    with pytest.raises(SolveCapError) as raised:
        solve(did)
    assert str(raised.value) == message
    policy = Policy((DecisionRule(d, (), (0,)),), 0.0)
    with pytest.raises(SolveCapError) as raised:
        evaluate_policy(dataclasses.replace(did), policy)
    assert str(raised.value) == message


def test_solved_policy_achieves_its_meu_on_wide_random_models():
    # Three or four decisions: the search batches branches of many rule
    # candidates that share a decision history, and each history's chosen
    # entries must come from the branch the optimum took.
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 150:
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        did = deploy(m)
        if len(did.decision_order) < 3 or policy_space_size(did) > 2**16:
            continue
        p = solve(did)
        assert evaluate_policy(did, p) == pytest.approx(p.meu, abs=1e-9), serialize(m)
        checked += 1


def test_only_summation_noise_counts_as_a_tie():
    text = """
    tdid 1
    master 1
    chance C : s f
    decision D1 : a b
    decision D2 : a b
    value U
    arc inst C D1
    arc inst D1 D2
    arc inst C U
    arc inst D2 U
    cpt C @ 1 | : 0.5 0.5
    util U @ 1 | C D2 : 1 {b} 1 {b}
    """
    # b wins by 1e-9, far above rounding.  D1 never plays b, so that
    # history is unreached and its entry stays at option 0.
    did = deploy(parse(text.format(b="1.000000001")))
    p = solve(did)
    assert p.rule(("D1", 1)).choices == (0, 0)
    assert p.rule(("D2", 1)).choices == (1, 0)
    # Within rounding of each other the options tie: the lowest wins.
    did = deploy(parse(text.format(b="1.0000000000000002")))
    p = solve(did)
    assert p.rule(("D2", 1)).choices == (0, 0)
    assert p.rule(("D1", 1)).choices == (0, 0)


def test_evaluation_after_solve_is_bitwise_that_on_an_equal_twin():
    model = cardiac(3)
    did = deploy(model)
    p = solve(did)
    value = evaluate_policy(did, p)
    twin = deploy(model)
    assert twin == did and twin is not did
    assert evaluate_policy(twin, p) == value


def test_evaluation_after_solve_is_bitwise_that_on_a_copy():
    # What solving leaves behind (skeletons, candidates, utilities-to-go)
    # must not change what evaluating a policy of the same diagram adds up.
    rng = np.random.default_rng(43)
    for m, did in corpus(40, seed=41):
        rules = solve(did).rules
        for _ in range(3):
            choices = [
                rng.integers(0, len(did.states(r.node)), len(r.choices)) for r in rules
            ]
            policy = Policy(
                tuple(
                    DecisionRule(r.node, r.observations, tuple(c.tolist()))
                    for r, c in zip(rules, choices)
                ),
                0.0,
            )
            after_solve = evaluate_policy(did, policy)
            copied = evaluate_policy(dataclasses.replace(did), policy)
            assert after_solve == copied, serialize(m)


def test_solving_another_diagram_leaves_an_evaluation_unchanged():
    did_a, did_b = deploy(cardiac(2)), deploy(cardiac(3))
    p_a = solve(did_a)
    value = evaluate_policy(did_a, p_a)
    solve(did_b)
    assert evaluate_policy(did_a, p_a) == value


def test_evaluate_policy_admits_a_diagram_solve_refuses():
    did = deploy(cardiac(9))
    option_0 = Policy(
        tuple(
            DecisionRule(d, obs, (0,) * int(np.prod([len(did.states(o)) for o in obs])))
            for d, obs in did.info
        ),
        0.0,
    )
    with pytest.raises(SolveCapError, match="reaches 2015538 branches"):
        solve(did)
    assert np.isfinite(evaluate_policy(did, option_0))
    with pytest.raises(SolveCapError, match="reaches 2015538 branches"):
        solve(did)


def test_policies_agree_after_solve():
    did = deploy(cardiac(3))
    p = solve(did)
    assert policies_agree(did, p, dataclasses.replace(p))


# --- plan skeletons, shared by every diagram of one structure ---------------


@pytest.fixture
def skeletons():
    """The module's skeleton memo, cleared before and after the test."""
    import tdid.solve

    tdid.solve._skeletons.clear()
    yield tdid.solve._skeletons
    tdid.solve._skeletons.clear()


def _row(rng, n):
    p = rng.dirichlet(np.ones(n))
    if n > 1 and rng.random() < 0.3:  # a zero, so live states vary
        p[rng.integers(n)] = 0.0
        p /= p.sum()
    return tuple(p.tolist())


def _redraw(did, rng):
    """The diagram with every CPT row and utility value drawn afresh:
    integer utilities, so that ties are common."""
    return dataclasses.replace(
        did,
        tables=tuple(
            t._replace(rows=tuple(_row(rng, len(r)) for r in t.rows))
            for t in did.tables
        ),
        utilities=tuple(
            u._replace(values=tuple(rng.integers(-9, 10, len(u.values)) * 1.0))
            for u in did.utilities
        ),
    )


def _multi_state():
    """The multi-state decision corpus of the oracle test above."""
    return corpus(200, seed=5, max_policies=4096, states=(2, 4), with_decision=True)


def _redrawn_structures():
    """Per structure, redraws of its numbers: 16 of cardiac at T=1..5, and
    two of each diagram of the multi-state corpus."""
    rng = np.random.default_rng(53)
    for horizon in range(1, 6):
        did = deploy(cardiac(horizon))
        yield [_redraw(did, rng) for _ in range(16)]
    for _, did in _multi_state():
        yield [did, _redraw(did, rng)]


def _random_policy(did, rng):
    """Options drawn uniformly at every entry."""
    rules = []
    for r in _option_zero(did).rules:
        k = len(did.states(r.node))
        choices = tuple(rng.integers(0, k, len(r.choices)).tolist())
        rules.append(dataclasses.replace(r, choices=choices))
    return Policy(tuple(rules), 0.0)


def _solved(did):
    p = solve(did)
    return repr(p.meu), policy_json(did, p)


def test_redraws_solve_alike_on_a_warm_and_a_cleared_memo(skeletons):
    for redraws in _redrawn_structures():
        cold = []
        for did in redraws:
            skeletons.clear()
            cold.append(_solved(did))
        # Warm, in either order: what the first redraw leaves on the
        # shared skeleton must not change what the next one solves to.
        assert [_solved(did) for did in redraws] == cold
        assert [_solved(did) for did in redraws[::-1]] == cold[::-1]


def test_evaluation_on_a_warm_memo_is_bitwise_that_of_a_cleared_one(skeletons):
    rng = np.random.default_rng(59)
    for redraws in _redrawn_structures():
        for did in redraws[:4]:
            policy = _random_policy(did, rng)
            solve(did)
            warm = [evaluate_policy(dataclasses.replace(did), policy) for _ in range(2)]
            skeletons.clear()
            assert warm == [evaluate_policy(dataclasses.replace(did), policy)] * 2


def test_the_memo_never_holds_more_than_its_cap(skeletons):
    import tdid.solve

    cap = tdid.solve._SKELETON_CAP
    sizes = []
    for _, did in corpus(3 * cap, seed=7):
        solve(did)
        sizes.append(len(skeletons))
    assert max(sizes) == cap == sizes[-1]


def test_a_refused_structure_is_refused_again_and_never_stored(skeletons):
    did = deploy(cardiac(9))
    messages = []
    for _ in range(2):
        with pytest.raises(SolveCapError) as raised:
            solve(did)
        messages.append(str(raised.value))
    message = "the search bound reaches 2015538 branches, above the cap of 1000000"
    assert messages == [message] * 2
    assert skeletons == {}


@pytest.mark.parametrize(
    "cap, figure", [("SEARCH_CAP", "search_bound"), ("FRONTIER_CAP", "frontier_cells")]
)
def test_a_lower_cap_refuses_a_structure_already_stored(
    skeletons, monkeypatch, cap, figure
):
    did = deploy(cardiac(3))
    p = solve(did)
    assert len(skeletons) == 1
    n = getattr(_Plan(did), figure)
    monkeypatch.setattr(f"tdid.solve.{cap}", n - 1)
    with pytest.raises(SolveCapError, match=f" {n} .*above the cap of {n - 1}$"):
        solve(dataclasses.replace(did))
    monkeypatch.undo()
    assert solve(dataclasses.replace(did)) == p
    assert len(skeletons) == 1


# --- a local-optimality certificate ------------------------------------------


def _certificate(did, policy):
    """The policy's value, and the most that changing any one rule entry
    to another option adds to it."""
    value = evaluate_policy(did, policy)
    gain = -math.inf
    for k, r in enumerate(policy.rules):
        for e, c in enumerate(r.choices):
            for a in range(len(did.states(r.node))):
                if a != c:
                    changed = r.choices[:e] + (a,) + r.choices[e + 1 :]
                    rules = list(policy.rules)
                    rules[k] = dataclasses.replace(r, choices=changed)
                    gain = max(gain, evaluate_policy(did, Policy(tuple(rules), 0.0)) - value)
    return value, gain


def _certified(did):
    p = solve(did)
    value, gain = _certificate(did, p)
    tol = 1e-9 * max(1.0, abs(value))
    return abs(value - p.meu) <= tol and gain <= tol


@pytest.mark.parametrize("horizon", [4, 5, 6, 7, 8])
def test_solved_cardiac_policies_are_locally_optimal_past_the_oracle(horizon):
    # brute_force reaches cardiac only to T=3; past it, a solver that
    # picked a wrong rule at a searched decision would still claim the
    # value of what it picked, but one entry changed would beat it.
    assert _certified(deploy(cardiac(horizon)))


def test_solved_multi_state_policies_are_locally_optimal():
    for m, did in _multi_state():
        assert _certified(did), serialize(m)


# --- binding per body, and the einsum kernel ----------------------------------


def test_a_choice_that_is_no_index_is_refused():
    did = deploy(parse(ONE_DECISION))
    for choice in (1.5, 1.0):
        bad = Policy((DecisionRule(("D", 1), (), (choice,)),), 0.0)
        with pytest.raises(SolveError, match="^policy for D@1 picks an unknown option$"):
            evaluate_policy(did, bad)
        with pytest.raises(SolveError, match="^policy for D@1 picks an unknown option$"):
            policies_agree(did, bad, bad)
    # numpy integers are indices.
    good = Policy((DecisionRule(("D", 1), (), (np.int64(1),)),), 0.0)
    assert evaluate_policy(did, good) == pytest.approx(5.0, abs=1e-9)


def test_the_direct_kernel_gives_bitwise_what_np_einsum_gives(monkeypatch):
    import tdid.solve

    dids = [deploy(cardiac(h)) for h in range(1, 7)] + [did for _, did in _multi_state()]

    def solved():
        out = []
        for did in dids:
            p = solve(did)
            out.append(repr((p, evaluate_policy(did, p))))
        return out

    direct = solved()
    monkeypatch.setattr(tdid.solve, "_einsum", np.einsum)
    assert solved() == direct


def test_importing_the_solver_raises_no_deprecation_warning():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", "import tdid.solve"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def _steps_by_node(plan, did):
    """Each chance step's node with its bound array."""
    return {
        did.tables[s.table.source].node: plan.arrays[s.table.slot]
        for s in plan.steps
        if not s.decision
    }


def test_stationary_slices_share_one_read_only_array():
    did = deploy(cardiac(3))
    assert len(did.tables) + len(did.utilities) == 18
    plan = _Plan(did)
    assert not any(a.flags.writeable for a in plan.arrays)


def test_one_body_under_two_layouts_binds_two_arrays():
    # cbf@2 reads a decision, so its array moves that axis first; poa@2
    # reads none.  Given one body object, each still gets its own layout.
    did = deploy(cardiac(3))
    cbf = did.table_by_node[("cbf", 2)]
    shared = dataclasses.replace(
        did,
        tables=tuple(
            t._replace(rows=cbf.rows) if t.node == ("poa", 2) else t for t in did.tables
        ),
    )
    plan = _Plan(shared)
    arrays = _steps_by_node(plan, shared)
    a, b = arrays[("cbf", 2)], arrays[("poa", 2)]
    assert a is not b
    want = np.array(cbf.rows).reshape(2, 2, 2)
    assert np.array_equal(b, want)
    assert np.array_equal(a, want.transpose(1, 0, 2))
