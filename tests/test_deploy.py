"""Deployment: unrolling, copies, lag wiring, barren removal, collapse."""

import dataclasses
import gc
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tdid.model import DECISION, INST, VALUE, ModelError, UtilityTable, parse, validate
from tdid.deploy import (
    COPY,
    collapse_copies,
    deploy,
    eliminate_barren,
    emit_dot,
    node_name,
    serialize_deployed,
    table_entry_count,
)

from conftest import cardiac_text
from gen import corpus, random_model
from tdid._fmt import fmt_float, fmt_int
from tdid.deploy import DeployedDid, DeployedTable, DeployedUtility, SliceNode, _restrict


def two_var(fixtures_dir):
    return parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())


def cardiac(fixtures_dir):
    return parse((fixtures_dir / "cardiac.tdid").read_bytes())


# --- parents ---------------------------------------------------------------


def test_lag_parent_is_most_recent_prior_indexed_slice(fixtures_dir):
    parents = deploy(two_var(fixtures_dir), barren=False).parents_of
    assert parents[("X", 3)] == (("Y", 2),)


def test_no_lag_parent_at_first_index(fixtures_dir):
    parents = deploy(two_var(fixtures_dir), barren=False).parents_of
    assert parents[("X", 1)] == ()


def test_inst_parent_through_copy_slice(fixtures_dir):
    parents = deploy(two_var(fixtures_dir), barren=False).parents_of
    assert parents[("Y", 2)] == (("X", 2),)  # X@2 is a copy of X@1


def test_non_indexed_slice_is_a_copy_node(fixtures_dir):
    did = deploy(two_var(fixtures_dir), barren=False)
    assert did.node(("X", 2)).kind == COPY
    assert did.parents_of[("X", 2)] == (("X", 1),)


def test_lag_parent_skips_copies_of_the_parent(fixtures_dir):
    # Y reads X both instantaneously and lagged.  At slice 3 the lag reads
    # X's most recent indexed slice, X@1, not the copy X@2 in between.
    text = (fixtures_dir / "two_var_lagged.tdid").read_text()
    text = text.replace("arc lag Y X\n", "arc lag Y X\narc lag X Y\n")
    text = text.replace(
        "cpt Y @ * | X : 0.9 0.1 , 0.25 0.75\n",
        "cpt Y @ 1 | X : 0.9 0.1 , 0.25 0.75\n"
        "cpt Y @ * | X X : 0.9 0.1 , 0.5 0.5 , 0.4 0.6 , 0.25 0.75\n",
    )
    parents = deploy(parse(text), barren=False).parents_of
    assert parents[("Y", 1)] == (("X", 1),)
    assert parents[("Y", 2)] == (("X", 2), ("X", 1))
    assert parents[("Y", 3)] == (("X", 3), ("X", 1))
    assert parents[("Y", 4)] == (("X", 4), ("X", 3))


# --- deploy ------------------------------------------------------------------


def test_figure_structure_probabilistic_vs_copy(fixtures_dir):
    did = deploy(two_var(fixtures_dir))
    kinds = {node_name(n.id): n.kind for n in did.nodes}
    assert kinds == {
        "X@1": "chance",
        "X@2": "copy",
        "X@3": "chance",
        "X@4": "copy",
        "Y@1": "chance",
        "Y@2": "chance",
        "Y@3": "chance",
        "Y@4": "chance",
        "U@1": "value",
        "U@2": "value",
        "U@3": "value",
        "U@4": "value",
    }
    xy_arcs = {
        (node_name(s), node_name(d)) for s, d in did.arcs if s[0] != "U" and d[0] != "U"
    }
    assert xy_arcs == {
        ("X@1", "Y@1"),
        ("X@2", "Y@2"),
        ("X@3", "Y@3"),
        ("X@4", "Y@4"),
        ("Y@2", "X@3"),
        ("X@1", "X@2"),
        ("X@3", "X@4"),
    }


def test_copy_nodes_get_identity_tables(fixtures_dir):
    did = deploy(two_var(fixtures_dir))
    t = did.table_by_node[("X", 2)]
    assert t.parents == (("X", 1),)
    assert t.rows == ((1.0, 0.0), (0.0, 1.0))


def test_uniform_sequences_replicate_slices(fixtures_dir):
    m = cardiac(fixtures_dir)
    did = deploy(m)
    assert all(n.kind != COPY for n in did.nodes)
    inst = [(a.src, a.dst) for a in m.arcs if a.kind == "inst"]
    lag = [(a.src, a.dst) for a in m.arcs if a.kind == "lag"]
    expected = set()
    for i in (1, 2, 3):
        expected |= {((s, i), (d, i)) for s, d in inst}
    for i, j in ((1, 2), (2, 3)):
        expected |= {((s, i), (d, j)) for s, d in lag}
    assert set(did.arcs) == expected


def test_single_slice_master_deploys_to_condensed_structure():
    m = parse(
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
    did = deploy(m)
    assert {node_name(n.id) for n in did.nodes} == {"X@1", "U@1"}
    assert did.value_nodes == (("U", 1),)


def test_deploy_rejects_invalid_model():
    m = parse(
        """
        tdid 1
        master 1
        chance X : a b
        value U
        arc inst X U
        cpt X @ 1 | : 0.5 0.4
        util U @ 1 | X : 1 0
        """
    )
    with pytest.raises(ModelError, match="sums to"):
        deploy(m)


def test_decision_copy_repeats_most_recent_decision():
    m = parse(
        """
        tdid 1
        master 1 2
        decision D : d0 d1 ; times 1
        value U
        arc inst D U
        util U @ * | D : 3 1
        """
    )
    did = deploy(m)
    assert did.node(("D", 2)).kind == COPY
    t = did.table_by_node[("D", 2)]
    assert t.parents == (("D", 1),)
    assert t.rows == ((1.0, 0.0), (0.0, 1.0))
    assert did.decision_order == (("D", 1),)


def test_lag_arc_into_value_node():
    m = parse(
        """
        tdid 1
        master 1 2
        chance X : a b
        value U ; times 1 2
        arc lag X U
        arc inst X U
        cpt X @ * | : 0.5 0.5
        util U @ 1 | X : 1 0
        util U @ 2 | X X : 4 3 2 1
        """
    )
    did = deploy(m)
    (u2,) = [u for u in did.utilities if u.node == ("U", 2)]
    assert u2.parents == (("X", 2), ("X", 1))


def test_deployed_graph_is_acyclic(fixtures_dir):
    did = deploy(cardiac(fixtures_dir))
    order = {}
    for k, n in enumerate(did.nodes):
        order[n.id] = k
    # nodes are created slice-major, so every arc must not point backward
    # in (slice, creation) order once lag arcs are taken into account
    seen = set()
    import collections

    indeg = collections.Counter()
    children = collections.defaultdict(list)
    for s, d in did.arcs:
        indeg[d] += 1
        children[s].append(d)
    queue = [n.id for n in did.nodes if indeg[n.id] == 0]
    while queue:
        nid = queue.pop()
        seen.add(nid)
        for c in children[nid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    assert len(seen) == len(did.nodes)


# --- barren elimination ------------------------------------------------------


def barren_chain_model():
    return parse(
        """
        tdid 1
        master 1
        chance A : a0 a1
        chance B : b0 b1
        chance C : c0 c1
        value U
        arc inst A B
        arc inst C U
        cpt A @ 1 | : 0.5 0.5
        cpt B @ 1 | A : 0.5 0.5 , 0.5 0.5
        cpt C @ 1 | : 0.3 0.7
        util U @ 1 | C : 1 0
        """
    )


def test_barren_chain_removed_transitively():
    did = deploy(barren_chain_model(), barren=False)
    assert did.has_node(("A", 1)) and did.has_node(("B", 1))
    out = eliminate_barren(did)
    assert not out.has_node(("A", 1))
    assert not out.has_node(("B", 1))
    assert out.has_node(("C", 1))
    assert out.has_node(("U", 1))


def test_deploy_eliminates_barren_by_default():
    did = deploy(barren_chain_model())
    assert {node_name(n.id) for n in did.nodes} == {"C@1", "U@1"}


def test_childless_decision_kept_when_later_decision_observes_it():
    # D1 observes C and has no children; D2 could still read C through D1's
    # choice, so D1 must survive barren elimination.
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
    assert did.has_node(("D1", 1))
    obs = did.info_by_decision[("D2", 1)]
    assert ("D1", 1) in obs


def test_earlier_decisions_are_derived_and_arcs_follow_node_order():
    # D2's record stores only its informational parent Z; observing the
    # earlier decision D1 is implied.  Z is declared first, so node order
    # differs from sorted order.
    m = parse(
        """
        tdid 1
        master 1
        chance Z : z0 z1
        decision D1 : a b
        decision D2 : a b
        value U
        arc inst Z D2
        arc inst Z U
        arc inst D1 U
        arc inst D2 U
        cpt Z @ 1 | : 0.5 0.5
        util U @ 1 | Z D1 D2 : 0 1 2 3 4 5 6 7
        """
    )
    did = deploy(m)
    z, d1, d2, u = ("Z", 1), ("D1", 1), ("D2", 1), ("U", 1)
    assert did.decisions == ((d1, ()), (d2, (z,)))
    assert did.decision_order == (d1, d2)
    assert did.info_by_decision == {d1: (), d2: (z, d1)}
    assert did.arcs == ((z, d2), (z, u), (d1, u), (d2, u))


def test_trailing_childless_decision_removed():
    m = parse(
        """
        tdid 1
        master 1
        chance C : c0 c1
        decision D : a b
        value U
        arc inst C U
        cpt C @ 1 | : 0.5 0.5
        util U @ 1 | C : 1 0
        """
    )
    did = deploy(m)
    assert not did.has_node(("D", 1))
    assert did.decision_order == ()


def fixpoint_barren(did):
    """Reference rule, iterated to a fixpoint: delete childless chance and
    copy nodes, and the last remaining decision when it is childless."""
    kinds = {n.id: n.kind for n in did.nodes}
    arcs = set(did.arcs)
    order = list(did.decision_order)
    changed = True
    while changed:
        changed = False
        with_children = {src for src, _ in arcs}
        for nid, kind in list(kinds.items()):
            if kind == VALUE or nid in with_children:
                continue
            if kind == DECISION and order[-1] != nid:
                continue
            del kinds[nid]
            arcs = {a for a in arcs if a[1] != nid}
            if kind == DECISION:
                order.remove(nid)
            changed = True
    return set(kinds), tuple(order)


def test_barren_rule_matches_reference_fixpoint():
    rng = np.random.default_rng(20260)
    removed_decision = kept_childless_decision = 0
    for _ in range(400):
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        did = deploy(m, barren=False)
        out = eliminate_barren(did)
        assert ({n.id for n in out.nodes}, out.decision_order) == fixpoint_barren(did)
        removed_decision += len(out.decision_order) < len(did.decision_order)
        with_children = {src for src, _ in out.arcs}
        kept_childless_decision += any(
            d not in with_children for d in out.decision_order
        )
    # The draws exercise both halves of the decision rule.
    assert removed_decision and kept_childless_decision


def test_trailing_decisions_removed_even_when_one_observes_the_other():
    # D0 reaches U.  D1 and D2 come after it and reach no value node; D2
    # observes D1, yet both are barren.
    m = parse(
        """
        tdid 1
        master 1
        chance C : c0 c1
        decision D0 : a b
        decision D1 : a b
        decision D2 : a b
        value U
        arc inst C D1
        arc inst D1 D2
        arc inst C U
        arc inst D0 U
        cpt C @ 1 | : 0.5 0.5
        util U @ 1 | C D0 : 1 0 0 1
        """
    )
    full = deploy(m, barren=False)
    assert full.decision_order == (("D0", 1), ("D1", 1), ("D2", 1))
    did = eliminate_barren(full)
    assert {node_name(n.id) for n in did.nodes} == {"C@1", "D0@1", "U@1"}
    assert did.decision_order == (("D0", 1),)
    assert did.info == ((("D0", 1), ()),)
    assert fixpoint_barren(full) == ({n.id for n in did.nodes}, did.decision_order)


# --- collapse ----------------------------------------------------------------


def test_collapse_removes_copies_and_rewires(fixtures_dir):
    did = collapse_copies(deploy(two_var(fixtures_dir)))
    assert all(n.kind != COPY for n in did.nodes)
    t = did.table_by_node[("Y", 2)]
    assert t.parents == (("X", 1),)
    assert (("X", 1), ("Y", 2)) in did.arcs


def test_collapse_merges_duplicate_parent_axes():
    m = parse(
        """
        tdid 1
        master 1 2
        chance X : a b ; times 1
        chance Y : y0 y1
        value U
        arc inst X Y
        arc lag X Y
        arc inst Y U
        cpt X @ 1 | : 0.5 0.5
        cpt Y @ 1 | X : 0.9 0.1 , 0.2 0.8
        cpt Y @ 2 | X X : 0.9 0.1 , 0.8 0.2 , 0.3 0.7 , 0.2 0.8
        util U @ * | Y : 1 0
        """
    )
    did = collapse_copies(deploy(m))
    t = did.table_by_node[("Y", 2)]
    # X@2 (copy of X@1) and lag parent X@1 merge into one axis: keep the
    # diagonal rows (a,a) and (b,b) of the original 4-row table.
    assert t.parents == (("X", 1),)
    assert t.rows == ((0.9, 0.1), (0.2, 0.8))


def test_entry_count_skips_copy_identities(fixtures_dir):
    did = deploy(two_var(fixtures_dir))
    # X@1: 2, X@3: 4 (lag parent Y), Y@i: 4 each; identity tables on the
    # copies X@2/X@4 carry no parameters.
    assert table_entry_count(did) == 2 + 4 + 4 * 4
    # Collapsing removes the copies outright; the count is unchanged.
    assert table_entry_count(collapse_copies(did)) == 2 + 4 + 4 * 4


def test_entry_count_falls_under_time_abstraction(fixtures_dir):
    from tdid.abstraction import abstract_time

    m = two_var(fixtures_dir)
    coarse = abstract_time(m, "X", (1,))
    assert table_entry_count(deploy(coarse)) < table_entry_count(deploy(m))


# --- output formats ----------------------------------------------------------


def test_serialize_deployed_mentions_copies_and_super(fixtures_dir):
    text = serialize_deployed(deploy(two_var(fixtures_dir)))
    assert "copy X@2 of X@1" in text
    assert "copy X@4 of X@3" in text
    assert "super U@1 U@2 U@3 U@4" in text
    assert text == serialize_deployed(deploy(two_var(fixtures_dir)))  # stable


def test_emit_dot_lists_every_node_and_super(fixtures_dir):
    did = deploy(two_var(fixtures_dir))
    dot = emit_dot(did)
    for n in did.nodes:
        assert f'"{node_name(n.id)}"' in dot
    assert '"super"' in dot


def unrestricted_decision_order(did):
    """Reference order: by slice, then repeatedly the first decision (by
    name) that no other waiting decision of its slice reaches along any
    arc, instantaneous or not."""
    parents_of: dict = {}
    for src, dst in did.arcs:
        parents_of.setdefault(dst, []).append(src)

    def ancestors(node):
        seen, stack = set(), [node]
        while stack:
            for p in parents_of.get(stack.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    decisions = sorted(
        (n.id for n in did.nodes if n.kind == DECISION), key=lambda d: (d[1], d[0])
    )
    order = []
    for i in sorted({d[1] for d in decisions}):
        group = [d for d in decisions if d[1] == i]
        while group:
            d = next(
                d for d in group if not any(o in ancestors(d) for o in group if o != d)
            )
            order.append(d)
            group.remove(d)
    return tuple(order)


def test_decision_order_matches_unrestricted_ancestor_walk():
    rng = np.random.default_rng(20261)
    not_by_name = 0
    for _ in range(400):
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        did = deploy(m, barren=False)
        assert did.decision_order == unrestricted_decision_order(did)
        by_name = tuple(sorted(did.decision_order, key=lambda d: (d[1], d[0])))
        not_by_name += did.decision_order != by_name
    # Some draws order a slice's decisions by influence, not by name.
    assert not_by_name


def test_decision_order_walks_nodes_declared_after_the_decisions():
    # x is declared after both decisions and lies on the path b -> x -> a,
    # so b acts first in every slice although a sorts first by name.
    m = parse(
        "tdid 1\nmaster 1 2\n"
        "decision a : y n\ndecision b : y n\nchance x : y n\nvalue u\n"
        "arc inst b x\narc inst x a\narc inst a u\n"
        "cpt x @ * | b : 0.5 0.5 , 0.5 0.5\nutil u @ * | a : 1 0\n"
    )
    for barren in (False, True):
        did = deploy(m, barren=barren)
        assert did.decision_order == (("b", 1), ("a", 1), ("b", 2), ("a", 2))
        assert did.decision_order == unrestricted_decision_order(did)


def test_decision_order_is_the_same_for_any_declaration_order():
    rng = np.random.default_rng(20262)
    for _ in range(600):
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        order = deploy(m, barren=False).decision_order
        variables = [m.variables[k] for k in rng.permutation(len(m.variables))]
        shuffled = dataclasses.replace(m, variables=tuple(variables))
        did = deploy(shuffled, barren=False)
        assert did.decision_order == order == unrestricted_decision_order(did)


# --- renderers, collapse and order on long and random diagrams ----------------


def reference_serialize(did):
    """serialize_deployed as a plain loop that formats every id with
    node_name where it is printed."""
    out = ["deployed 2", "slices " + " ".join(fmt_int(i) for i in did.slices)]
    src_of = {t.node: t.parents[0] for t in did.tables if did.node(t.node).kind == COPY}
    for n in did.nodes:
        if n.kind == COPY:
            out.append(f"copy {node_name(n.id)} of {node_name(src_of[n.id])}")
        elif n.kind == VALUE:
            out.append(f"value {node_name(n.id)}")
        else:
            out.append(f"{n.kind} {node_name(n.id)} : " + " ".join(n.states))
    for src, dst in sorted(did.arcs):
        out.append(f"arc {node_name(src)} {node_name(dst)}")
    for t in sorted(did.tables, key=lambda t: t.node):
        if did.node(t.node).kind == COPY:
            continue
        rows = " , ".join(" ".join(fmt_float(x) for x in row) for row in t.rows)
        parents = " ".join(node_name(p) for p in t.parents)
        out.append(f"cpt {node_name(t.node)} |{' ' + parents if parents else ''} : {rows}")
    for u in sorted(did.utilities, key=lambda u: u.node):
        parents = " ".join(node_name(p) for p in u.parents)
        vals = " ".join(fmt_float(x) for x in u.values)
        out.append(f"util {node_name(u.node)} |{' ' + parents if parents else ''} : {vals}")
    for d, parents in did.decisions:
        out.append(f"info {node_name(d)} : " + " ".join(node_name(p) for p in parents))
    if did.decision_order:
        out.append("order " + " ".join(node_name(d) for d in did.decision_order))
    out.append("super " + " ".join(node_name(v) for v in did.value_nodes))
    return "\n".join(out) + "\n"


def reference_dot(did):
    """emit_dot as a plain loop that calls node_name per id."""
    shape = {"chance": "ellipse", "decision": "box", "value": "diamond", COPY: "ellipse"}
    out = ["digraph deployed {", "  rankdir=LR;"]
    for n in did.nodes:
        style = ", style=dashed" if n.kind == COPY else ""
        out.append(f'  "{node_name(n.id)}" [shape={shape[n.kind]}{style}];')
    out.append('  "super" [shape=doublecircle];')
    for src, dst in sorted(did.arcs):
        out.append(f'  "{node_name(src)}" -> "{node_name(dst)}";')
    for v in did.value_nodes:
        out.append(f'  "{node_name(v)}" -> "super";')
    out.append("}")
    return "\n".join(out) + "\n"


def cardiac_shape(shape, horizon=40):
    """Cardiac at ``horizon`` slices: dense, copy-heavy (poa and CD indexed
    every fourth slice), barren-heavy (U_dmg only at slice 1) or
    signed-zero (at slice 3, a -0 where every other slice has a 0)."""
    text = cardiac_text(horizon)
    if shape == "signed-zero":
        cbf = "cpt cbf @ * | cr treat : 0.7 0.3 , 0.9 0.1 , 0.2 0.8 , 0.1 0.9\n"
        u_surv = "util U_surv @ * | cr treat : 2 0 8 10\n"
        text = text.replace(
            cbf,
            "cpt cbf @ * | cr treat : 0.7 0.3 , 0.9 0.1 , 0.2 0.8 , 1 0\n"
            "cpt cbf @ 3 | cr treat : 0.7 0.3 , 0.9 0.1 , 0.2 0.8 , 1 -0\n",
        )
        text = text.replace(u_surv, u_surv + "util U_surv @ 3 | cr treat : 2 -0 8 10\n")
    elif shape == "copy-heavy":
        grid = " ".join(str(i) for i in range(1, horizon + 1, 4))
        for var in ("poa : long short", "CD : present absent"):
            text = text.replace(f"chance {var}\n", f"chance {var} ; times {grid}\n")
    elif shape == "barren-heavy":
        text = text.replace("value U_dmg\n", "value U_dmg ; times 1\n")
    return parse(text)


def deployed_forms(m):
    raw = deploy(m, barren=False)
    barren = eliminate_barren(raw)
    return raw, barren, collapse_copies(raw), collapse_copies(barren)


@pytest.mark.parametrize("shape", ["dense", "copy-heavy", "barren-heavy", "signed-zero"])
def test_renderers_match_per_id_reference_on_long_cardiac(shape):
    m = cardiac_shape(shape)
    if shape == "copy-heavy":
        assert any(n.kind == COPY for n in deploy(m).nodes)
    if shape == "signed-zero":
        assert serialize_deployed(deploy(m)).count(" -0") == 2
    for did in deployed_forms(m):
        assert serialize_deployed(did) == reference_serialize(did)
        assert emit_dot(did) == reference_dot(did)


def test_renderers_match_per_id_reference_on_random_models():
    rng = np.random.default_rng(4242)
    for _ in range(400):
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        for did in deployed_forms(m):
            assert serialize_deployed(did) == reference_serialize(did)
            assert emit_dot(did) == reference_dot(did)


def test_renderers_name_an_id_that_is_not_a_node():
    did = deploy(cardiac_shape("dense", horizon=3))
    gone = did.decision_order[0]
    hand_built = DeployedDid(
        did.slices,
        tuple(n for n in did.nodes if n.id != gone),
        did.tables,
        did.utilities,
        did.decisions,
    )
    for render in (serialize_deployed, emit_dot):
        with pytest.raises(ModelError) as raised:
            render(hand_built)
        assert str(raised.value) == f"no deployed node {node_name(gone)}"


def _renderer_faults():
    did = deploy(cardiac_shape("copy-heavy", horizon=6), barren=False)
    ghost = ("ghost", 2)
    table = did.tables[0]
    return {
        "a parent that is no node": (
            dataclasses.replace(did, tables=(table._replace(parents=(ghost,)),) + did.tables[1:]),
            "no deployed node ghost@2",
            (serialize_deployed, emit_dot),
        ),
        "a node listed twice": (
            dataclasses.replace(did, nodes=did.nodes + did.nodes[3:5]),
            f"deployed node {node_name(did.nodes[3].id)} is given twice",
            (serialize_deployed, emit_dot),
        ),
        "a node with two tables": (
            dataclasses.replace(did, tables=did.tables + (table,)),
            f"deployed node {node_name(table.node)} is given twice",
            (serialize_deployed,),
        ),
        "a node with two utilities": (
            dataclasses.replace(did, utilities=did.utilities[-1:] + did.utilities),
            f"deployed node {node_name(did.utilities[-1].node)} is given twice",
            (serialize_deployed,),
        ),
    }


@pytest.mark.parametrize("fault", list(_renderer_faults()))
def test_renderers_refuse_a_hand_built_diagram_with_one_line(fault):
    hand_built, message, renderers = _renderer_faults()[fault]
    for render in renderers:
        with pytest.raises(ModelError) as raised:
            render(hand_built)
        assert str(raised.value) == message


@pytest.mark.parametrize("fault", ["a node with two tables", "a node with two utilities"])
def test_both_renderers_refuse_a_node_with_two_records(fault, fixtures_dir):
    # ``emit_dot`` reads parents through ``parents_of``, which keeps one
    # record per node, so it must check the records as ``serialize_deployed`` does.
    hand_built, message, _ = _renderer_faults()[fault]
    did = deploy(parse((fixtures_dir / "cardiac.tdid").read_bytes()))
    cd = next(t for t in did.tables if t.node == ("CD", 1))
    second = cd._replace(parents=(), rows=(cd.rows[0],))
    cases = [
        (hand_built, message),
        (dataclasses.replace(did, tables=did.tables + (second,)), "deployed node CD@1 is given twice"),
    ]
    for diagram, want in cases:
        for render in (serialize_deployed, emit_dot):
            with pytest.raises(ModelError) as raised:
                render(diagram)
            assert str(raised.value) == want


def test_collapse_keeps_copy_free_tables_as_they_are():
    did = deploy(cardiac_shape("dense"))
    assert not any(n.kind == COPY for n in did.nodes)
    out = collapse_copies(did)
    assert out.tables == did.tables
    assert out.utilities == did.utilities
    kept = zip(out.tables + out.utilities, did.tables + did.utilities)
    assert all(a is b for a, b in kept)


def test_collapse_keeps_every_table_that_reads_no_copy():
    did = deploy(cardiac_shape("copy-heavy"))
    copies = {n.id for n in did.nodes if n.kind == COPY}
    assert copies
    before = {t.node: t for t in did.tables + did.utilities if t.node not in copies}
    out = collapse_copies(did)
    after = {t.node: t for t in out.tables + out.utilities}
    assert after.keys() == before.keys()
    untouched = [n for n, t in before.items() if copies.isdisjoint(t.parents)]
    rewired = [n for n, t in before.items() if not copies.isdisjoint(t.parents)]
    assert untouched and rewired
    for n in untouched:
        assert after[n] == before[n]
    for n in rewired:
        assert copies.isdisjoint(after[n].parents)


# --- deployed records --------------------------------------------------------


RECORDS = [
    lambda: SliceNode("X", 1, "chance", ("a", "b")),
    lambda: DeployedTable(("X", 2), (("X", 1),), ((1.0, 0.0), (0.0, 1.0))),
    lambda: DeployedUtility(("U", 1), (("X", 1),), (1.0, 2.0)),
]


@pytest.mark.parametrize("make", RECORDS, ids=["node", "table", "utility"])
def test_deployed_records_are_immutable_values(make):
    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b)
    for field in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b


def test_deployed_records_keep_their_repr():
    assert repr(RECORDS[0]()) == (
        "SliceNode(base='X', slice=1, kind='chance', states=('a', 'b'))"
    )
    assert repr(RECORDS[1]()) == (
        "DeployedTable(node=('X', 2), parents=(('X', 1),), "
        "rows=((1.0, 0.0), (0.0, 1.0)))"
    )
    assert repr(RECORDS[2]()) == (
        "DeployedUtility(node=('U', 1), parents=(('X', 1),), values=(1.0, 2.0))"
    )


def test_slice_node_id_is_a_plain_pair():
    node_id = SliceNode("X", 1, "chance", ("a", "b")).id
    assert type(node_id) is tuple and node_id == ("X", 1)


def test_copies_of_one_variable_share_their_identity_rows():
    did = deploy(cardiac_shape("copy-heavy"), barren=False)
    rows = {}
    for t in did.tables:
        if did.node(t.node).kind == COPY:
            rows.setdefault(t.node[0], []).append(t.rows)
    assert len(rows) == 2 and all(len(r) > 1 for r in rows.values())
    for shared in rows.values():
        assert all(r is shared[0] for r in shared)
        k = len(shared[0])
        assert shared[0] == tuple(tuple(float(c == r) for c in range(k)) for r in range(k))


def test_a_table_of_no_node_is_a_model_error():
    did = deploy(cardiac_shape("copy-heavy", horizon=6), barren=False)
    stray = DeployedTable(("ghost", 1), (), ((1.0,),))
    hand_built = DeployedDid(
        did.slices, did.nodes, did.tables + (stray,), did.utilities, did.decisions
    )
    for render in (collapse_copies, serialize_deployed, table_entry_count):
        with pytest.raises(ModelError, match="^no deployed node ghost@1$"):
            render(hand_built)


# --- deployment plans, shared by every model of one structure ---------------


@pytest.fixture
def plans():
    """The module's plan cache, cleared before and after the test."""
    import tdid.deploy

    tdid.deploy._plans.clear()
    yield tdid.deploy._plans
    tdid.deploy._plans.clear()


def _redraw(m, rng):
    """The model with every CPT row and utility value drawn afresh."""

    def rows(t):
        return tuple(tuple(rng.dirichlet(np.ones(len(r))).tolist()) for r in t.table)

    def values(u):
        return tuple(rng.integers(-9, 10, len(u.values)) * 1.0)

    return dataclasses.replace(
        m,
        cpds=tuple(dataclasses.replace(t, table=rows(t)) for t in m.cpds),
        utilities=tuple(dataclasses.replace(u, values=values(u)) for u in m.utilities),
    )


def _redrawn_structures():
    """Per structure, redraws of its numbers: eight of cardiac at T=1..5,
    and two of each model of a binary and a multi-state corpus."""
    rng = np.random.default_rng(61)
    for horizon in range(1, 6):
        m = parse(cardiac_text(horizon))
        yield [m] + [_redraw(m, rng) for _ in range(7)]
    binary = corpus(60, seed=7)
    multi = corpus(40, seed=5, max_policies=4096, states=(2, 4), with_decision=True)
    for m, _ in binary + multi:
        yield [m, _redraw(m, rng)]


def _deployed(m, barren):
    did = deploy(m, barren=barren)
    return did, serialize_deployed(did)


@pytest.mark.parametrize("barren", [True, False])
def test_models_deploy_alike_on_a_warm_and_a_cleared_cache(plans, barren):
    for models in _redrawn_structures():
        cold = []
        for m in models:
            plans.clear()
            cold.append(_deployed(m, barren))
        # Warm, in either order: every model after the first is a hit.
        assert [_deployed(m, barren) for m in models] == cold
        assert [_deployed(m, barren) for m in models[::-1]] == cold[::-1]
        assert len(plans) == 1


def test_a_planned_structure_skips_validate(plans, monkeypatch):
    import tdid.deploy

    calls = []
    monkeypatch.setattr(tdid.deploy, "validate", lambda m: calls.append(m) or [])
    m = parse(cardiac_text(3))
    redrawn = _redraw(m, np.random.default_rng(3))
    deploy(m)
    deploy(redrawn)
    assert calls == [m]


def _cardiac_with(cpd=None, util=None, **fields):
    """Cardiac at T=3 with its stationary ``cr`` CPT's rows or its ``U_surv``
    utility's values replaced, or with other fields replaced."""
    m = parse(cardiac_text(3))
    cpds, utilities = list(m.cpds), list(m.utilities)
    if cpd is not None:
        cpds[1] = dataclasses.replace(cpds[1], table=cpd)
    if util is not None:
        utilities[0] = dataclasses.replace(utilities[0], values=util)
    return dataclasses.replace(
        m, cpds=tuple(cpds), utilities=tuple(utilities), **fields
    )


# cr's stationary CPT after its first row.
CR_ROWS = ((0.75, 0.25), (0.15, 0.85), (0.05, 0.95))

NUMERIC_FAULTS = {
    "row sum": _cardiac_with(cpd=((0.4, 0.5),) + CR_ROWS),
    "nan": _cardiac_with(cpd=((math.nan, 0.6),) + CR_ROWS),
    "negative": _cardiac_with(cpd=((-0.4, 1.4),) + CR_ROWS),
    "row count": _cardiac_with(cpd=((0.4, 0.6),) + CR_ROWS[:2]),
    "row width": _cardiac_with(cpd=((0.4, 0.3, 0.3),) + CR_ROWS),
    "utility": _cardiac_with(util=(2.0, 0.0, math.inf, 10.0)),
    "tick": _cardiac_with(tick=(0.0, "minute")),
}


@pytest.mark.parametrize("fault", NUMERIC_FAULTS)
def test_a_numeric_fault_on_a_planned_structure_is_reported_as_on_a_cold_one(
    plans, fault
):
    bad = NUMERIC_FAULTS[fault]
    problems = validate(bad)
    assert problems
    messages = []
    for warm in (True, False):
        plans.clear()
        if warm:
            deploy(parse(cardiac_text(3)))
        with pytest.raises(ModelError) as raised:
            deploy(bad)
        messages.append(str(raised.value))
        assert len(plans) == warm
    assert messages == ["invalid model: " + "; ".join(problems)] * 2


def _remastered(m, master):
    """The model with its master sequence, and every variable's times,
    replaced by ``master``."""
    return dataclasses.replace(
        m,
        master=master,
        variables=tuple(dataclasses.replace(v, times=master) for v in m.variables),
    )


def test_an_equal_structure_with_float_indices_is_still_refused(plans):
    m = parse(cardiac_text(2))
    deploy(m)
    floats = [
        _remastered(m, (1.0, 2.0)),
        dataclasses.replace(
            m, variables=(dataclasses.replace(m.variables[0], times=(1, 2.0)),)
            + m.variables[1:],
        ),
    ]
    for bad in floats:
        assert bad == m
        with pytest.raises(ModelError, match="must be positive integers") as raised:
            deploy(bad)
        assert str(raised.value) == "invalid model: " + "; ".join(validate(bad))
    assert len(plans) == 1


def test_a_table_of_the_other_class_is_still_refused(plans):
    m = parse(cardiac_text(2))
    deploy(m)
    cr = m.cpds[1]
    swapped = UtilityTable(cr.variable, cr.time_index, cr.parents, (1.0,) * 4)
    bad = dataclasses.replace(m, cpds=(m.cpds[0], swapped) + m.cpds[2:])
    with pytest.raises(ModelError, match="utility declared for chance variable"):
        deploy(bad)
    assert len(plans) == 1


def test_a_bool_index_names_its_nodes_as_given(plans):
    m = parse(cardiac_text(2))
    deploy(m)
    truthy = _remastered(m, (True, 2))
    assert truthy == m
    text = serialize_deployed(deploy(truthy))
    assert "chance cr@True :" in text and "chance cr@1 " not in text
    plans.clear()
    assert serialize_deployed(deploy(truthy)) == text


def test_a_model_that_cannot_be_hashed_is_refused_and_not_stored(plans):
    m = parse(cardiac_text(3))
    listed = dataclasses.replace(
        m,
        variables=tuple(
            dataclasses.replace(v, states=list(v.states)) for v in m.variables
        ),
    )
    with pytest.raises(TypeError):
        hash(listed)
    deploy(m)
    held = list(plans.items())
    for model, field in (
        (listed, "variables"),
        (dataclasses.replace(m, master=list(m.master)), "master"),
        (dataclasses.replace(m, tick=[1.0, "minute"]), "tick"),
    ):
        for barren in (True, False):
            with pytest.raises(ModelError) as raised:
                deploy(model, barren=barren)
            assert str(raised.value) == f"model field {field} cannot be hashed"
            assert list(plans.items()) == held


def test_the_cache_never_holds_more_than_its_cap(plans):
    import tdid.deploy

    cap = tdid.deploy._PLAN_CAP
    models = [m for m, _ in corpus(3 * cap, seed=7)]
    plans.clear()
    sizes = []
    for m in models:
        deploy(m)
        sizes.append(len(plans))
    assert max(sizes) == cap == sizes[-1]


def test_a_refused_structure_is_refused_again_and_never_stored(plans):
    m = parse(cardiac_text(3))
    # cr's stationary CPT read as if cr had no lag parents.
    bad = _cardiac_with(cpd=((0.4, 0.6),))
    cpds = list(bad.cpds)
    cpds[1] = dataclasses.replace(cpds[1], parents=())
    bad = dataclasses.replace(bad, cpds=tuple(cpds))
    messages = []
    for _ in range(2):
        with pytest.raises(ModelError) as raised:
            deploy(bad)
        messages.append(str(raised.value))
    assert messages == ["invalid model: " + "; ".join(validate(bad))] * 2
    assert "do not match" in messages[0]
    assert plans == {}
    deploy(m)
    assert len(plans) == 1


def test_long_deploy_plans_stay_small(plans):
    models = [
        cardiac_shape(shape, horizon)
        for horizon in (80, 100, 120, 140, 160)
        for shape in ("dense", "copy-heavy", "barren-heavy")
    ]
    for m in models:  # the models' own lazily built indexes, outside the count
        deploy(m, barren=False)
    plans.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for m in models:
            deploy(m, barren=False)
        assert len(plans) == len(models)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        plans.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 0.5e6


# --- copy faults in hand-built diagrams ---------------------------------------


def _with_copy_table(did, copy, table):
    """``did`` with ``copy``'s table replaced by ``table`` (None: removed)."""
    tables = tuple(
        t for t in (table if t.node == copy else t for t in did.tables) if t is not None
    )
    return DeployedDid(did.slices, did.nodes, tables, did.utilities, did.decisions)


def _copy_faults():
    did = deploy(cardiac_shape("copy-heavy", horizon=6), barren=False)
    copy = next(n.id for n in did.nodes if n.kind == COPY)
    (source,) = did.table_by_node[copy].parents
    two = DeployedTable(copy, (source, ("cr", 1)), ((1.0, 0.0),) * 4)
    return {
        "no table": (
            _with_copy_table(did, copy, None),
            f"copy {node_name(copy)} has no table",
        ),
        "two parents": (
            _with_copy_table(did, copy, two),
            f"copy {node_name(copy)} has 2 parents, not 1",
        ),
    }


@pytest.mark.parametrize("render", [collapse_copies, serialize_deployed])
@pytest.mark.parametrize("fault", ["no table", "two parents"])
def test_a_faulty_copy_is_a_model_error(fault, render):
    hand_built, message = _copy_faults()[fault]
    with pytest.raises(ModelError) as raised:
        render(hand_built)
    assert str(raised.value) == message


def test_collapse_refuses_a_body_that_does_not_fit_its_parents():
    did = deploy(cardiac_shape("copy-heavy", horizon=6), barren=False)
    copies = {n.id for n in did.nodes if n.kind == COPY}
    u = next(u for u in did.utilities if not copies.isdisjoint(u.parents))
    short = u._replace(values=u.values[:1])
    hand_built = DeployedDid(
        did.slices, did.nodes, did.tables,
        tuple(short if x is u else x for x in did.utilities), did.decisions,
    )
    with pytest.raises(ModelError) as raised:
        collapse_copies(hand_built)
    assert str(raised.value) == f"{node_name(u.node)}: 1 entries for 2 joint parent states"


# --- the axis merge of collapse, against numpy ---------------------------------


def reference_rewire(parents, body, sizes, source):
    """collapse_copies' merge of a repeated parent's axes, as numpy's
    diagonal and moveaxis compute it."""
    arr = np.asarray(body, dtype=float)
    tail = arr.shape[1:]
    arr = arr.reshape(list(sizes) + list(tail))
    out = list(parents)
    k = 0
    while k < len(out):
        p = source.get(out[k], out[k])
        if p in out[:k]:
            first = out.index(p)
            arr = np.moveaxis(np.diagonal(arr, axis1=first, axis2=k), -1, first)
            del out[k]
        else:
            out[k] = p
            k += 1
    flat = arr.reshape(-1, *tail).tolist()
    return tuple(out), tuple(map(tuple, flat)) if tail else tuple(flat)


def _signed(rng, n):
    """n draws, a quarter of them zeros of either sign."""
    x = rng.uniform(-1, 1, n)
    x[rng.random(n) < 0.25] = 0.0
    return [float(-v if v == 0 and rng.random() < 0.5 else v) for v in x]


def _repeated_parents(rng):
    """A diagram whose child Y@3 and utility U@3 read one to three variables
    each through their node at slice 1 and one or two copies of it (slices
    2 and 3), plus one parent read once, in a random order; each variable
    has 2-4 states, and the parents at most 1024 joint states.  A few
    copies have one state fewer than their source, which only a hand-built
    diagram can hold: numpy's diagonal then keeps the shorter axis."""
    repeated = [f"X{j}" for j in range(rng.integers(1, 4))]
    copies = {v: int(rng.integers(1, 3)) for v in repeated}
    sizes = {v: int(rng.integers(2, 5)) for v in repeated + ["Z", "Y"]}
    if sizes["Z"] * math.prod(sizes[v] ** (1 + copies[v]) for v in repeated) > 1024:
        return _repeated_parents(rng)
    states = {v: tuple(f"s{k}" for k in range(n)) for v, n in sizes.items()}
    nodes, tables, parents = [], [], [("Z", 1)]
    for v in repeated:
        nodes.append(SliceNode(v, 1, "chance", states[v]))
        tables.append(DeployedTable((v, 1), (), (tuple(_signed(rng, sizes[v])),)))
        parents.append((v, 1))
        for i in range(2, 2 + copies[v]):
            short = sizes[v] > 2 and rng.random() < 0.2
            nodes.append(SliceNode(v, i, COPY, states[v][: -1 if short else None]))
            tables.append(DeployedTable((v, i), ((v, 1),), ((1.0,),)))
            parents.append((v, i))
    nodes.append(SliceNode("Z", 1, "chance", states["Z"]))
    tables.append(DeployedTable(("Z", 1), (), (tuple(_signed(rng, sizes["Z"])),)))
    parents = tuple(parents[k] for k in rng.permutation(len(parents)))
    size = {n.id: len(n.states) for n in nodes}
    n = math.prod(size[p] for p in parents)
    rows = tuple(tuple(_signed(rng, sizes["Y"])) for _ in range(n))
    nodes += [SliceNode("Y", 3, "chance", states["Y"]), SliceNode("U", 3, VALUE, ())]
    tables.append(DeployedTable(("Y", 3), parents, rows))
    utility = DeployedUtility(("U", 3), parents, tuple(_signed(rng, n)))
    return DeployedDid((1, 2, 3), tuple(nodes), tuple(tables), (utility,), ())


def test_collapse_merges_repeated_axes_as_numpy_does():
    rng = np.random.default_rng(2323)
    signed_zeros = 0
    for _ in range(300):
        did = _repeated_parents(rng)
        source = {t.node: t.parents[0] for t in did.tables if did.node(t.node).kind == COPY}
        out = collapse_copies(did)
        t, u = did.table_by_node[("Y", 3)], did.utilities[0]
        sizes = [len(did.states(p)) for p in t.parents]
        want_t = reference_rewire(t.parents, t.rows, sizes, source)
        want_u = reference_rewire(u.parents, u.values, sizes, source)
        got_t, got_u = out.table_by_node[("Y", 3)], out.utilities[0]
        assert len(want_t[0]) < len(t.parents)
        # repr tells -0.0 from 0.0, which == does not.
        assert repr((got_t.parents, got_t.rows)) == repr(want_t)
        assert repr((got_u.parents, got_u.values)) == repr(want_u)
        signed_zeros += repr(got_u.values).count("-0.0")
    assert signed_zeros


# --- pass-through and seeded parent maps --------------------------------------


def _derived_parents_of(did):
    """``did.parents_of`` as the view derives it on a fresh diagram."""
    fields = (did.slices, did.nodes, did.tables, did.utilities, did.decisions)
    return list(DeployedDid(*fields).parents_of.items())


def _assert_seeded_maps_are_derived(m):
    raw = deploy(m, barren=False)
    for did in (
        raw,
        deploy(m),
        eliminate_barren(raw),
        _restrict(raw, {n.id for n in raw.nodes[::2]}),
        collapse_copies(raw),
        collapse_copies(eliminate_barren(raw)),
    ):
        assert list(did.parents_of.items()) == _derived_parents_of(did)


@pytest.mark.parametrize("shape", ["dense", "copy-heavy", "barren-heavy"])
def test_seeded_parent_maps_are_derived_ones_on_long_cardiac(shape):
    for horizon in (80, 100, 120, 140, 160):
        _assert_seeded_maps_are_derived(cardiac_shape(shape, horizon))


def test_seeded_parent_maps_are_derived_ones_on_random_models():
    rng = np.random.default_rng(4242)
    models = [
        random_model(rng, max_deployed_nonvalue=12, max_decisions=4) for _ in range(400)
    ]
    binary = corpus(60, seed=7)
    multi = corpus(40, seed=5, max_policies=4096, states=(2, 4), with_decision=True)
    for m in models + [m for m, _ in binary + multi]:
        _assert_seeded_maps_are_derived(m)


def test_collapse_seeds_the_last_record_of_a_node_that_has_two():
    did = deploy(cardiac_shape("copy-heavy", horizon=6), barren=False)
    copies = {n.id for n in did.nodes if n.kind == COPY}
    reads = next(u for u in did.utilities if not copies.isdisjoint(u.parents))
    plain = next(u for u in did.utilities if copies.isdisjoint(u.parents))
    fields = (did.slices, did.nodes, did.tables)
    # A second utility of the node, then a decision entry for it: either
    # reads no copy, and as the node's last record it gives its parents.
    second = DeployedUtility(reads.node, plain.parents, plain.values)
    for hand_built in (
        DeployedDid(*fields, did.utilities + (second,), did.decisions),
        DeployedDid(*fields, did.utilities, did.decisions + ((reads.node, plain.parents),)),
    ):
        out = collapse_copies(hand_built)
        assert out.parents_of[reads.node] == plain.parents
        assert list(out.parents_of.items()) == _derived_parents_of(out)


def test_passes_return_a_diagram_they_do_not_change():
    dense = deploy(cardiac_shape("dense"), barren=False)
    assert eliminate_barren(dense) is dense
    assert collapse_copies(dense) is dense
    lean = eliminate_barren(deploy(cardiac_shape("barren-heavy"), barren=False))
    assert not any(n.kind == COPY for n in lean.nodes)
    assert collapse_copies(lean) is lean
    copied = deploy(cardiac_shape("copy-heavy"))
    assert collapse_copies(copied) is not copied


def test_collapse_drops_a_repeated_decision_parent():
    did = deploy(cardiac_shape("dense", horizon=3))
    d, parents = did.decisions[-1]
    twice = DeployedDid(
        did.slices, did.nodes, did.tables, did.utilities,
        did.decisions[:-1] + ((d, parents + parents[:1]),),
    )
    out = collapse_copies(twice)
    assert out is not twice
    assert out.decisions == did.decisions


# --- import cost ---------------------------------------------------------------


def test_structural_modules_do_not_import_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tdid.model, tdid.deploy, tdid.abstraction; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# --- plans record table bodies by position ------------------------------------


def test_a_body_shared_by_two_tables_deploys_as_two_equal_bodies(plans):
    # cr's and cbf's stationary CPTs have the same shape; one model hands
    # both the same rows object.  A plan that told sources apart by body
    # would give every later model of the structure cr's rows for cbf.
    m = parse(cardiac_text(3))
    cr, cbf = m.cpds[1], m.cpds[2]
    assert (cr.variable, cbf.variable) == ("cr", "cbf")

    def with_cbf_rows(rows):
        cpds = m.cpds[:2] + (dataclasses.replace(cbf, table=rows),) + m.cpds[3:]
        return dataclasses.replace(m, cpds=cpds)

    shared = with_cbf_rows(cr.table)
    separate = with_cbf_rows(tuple(tuple(list(r)) for r in cr.table))
    assert separate.cpds[2].table is not cr.table
    own = m  # the same structure, cbf with rows of its own
    for barren in (True, False):
        for order in ((shared, separate, own), (own, separate, shared)):
            plans.clear()
            dids = [deploy(x, barren=barren) for x in order]
            assert len(plans) == 1
            for x, did in zip(order, dids):
                for slice_ in (2, 3):
                    for t in x.cpds[1:3]:
                        got = did.table_by_node[(t.variable, slice_)].rows
                        assert got is t.table
            texts = {id(x): serialize_deployed(d) for x, d in zip(order, dids)}
            assert texts[id(shared)] == texts[id(separate)] != texts[id(own)]
