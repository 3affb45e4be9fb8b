"""Deployment against an independent reference unrolling.

``reference_unroll`` is written from README "Deployment" alone, with
plain dicts and no plan, packing or cache: one node per variable per
master index, a copy node where a chance or decision variable is not
indexed, a lag parent read at the parent's most recent indexed slice
strictly before the child's, an instantaneous parent in the child's own
slice, and a variable's explicit table at an index in place of its
stationary one.  ``deploy`` is compared with it on a plan miss and on a
plan hit (differential testing, McKeeman 1998).
"""

import dataclasses

import numpy as np
import pytest

import tdid.deploy
from tdid.abstraction import enumerate_abstractions, parse_lattice
from tdid.deploy import (
    COPY,
    DeployedDid,
    DeployedTable,
    DeployedUtility,
    SliceNode,
    deploy,
    serialize_deployed,
)
from tdid.model import CHANCE, DECISION, INST, LAG, VALUE, parse

from conftest import FIXTURES, cardiac_text
from gen import corpus, random_model
from test_deploy import cardiac_shape, fixpoint_barren


def reference_unroll(model):
    """The deployed form of a valid model, with barren nodes kept."""
    var = {v.name: v for v in model.variables}

    def table(pool, name, i):
        own = {t.time_index: t for t in pool if t.variable == name}
        return own.get(i, own.get(None))

    def before(name, i):
        """``name``'s node at its most recent indexed slice before ``i``."""
        earlier = [k for k in var[name].times if k < i]
        return [(name, earlier[-1])] if earlier else []

    def wired(pairs, i):
        out = []
        for p, role in pairs:
            out += [(p, i)] if role == INST else before(p, i)
        return tuple(out)

    nodes, tables, utilities, info = [], [], [], {}
    for i in model.master:
        for v in model.variables:
            node = (v.name, i)
            if v.kind == VALUE:
                if i in v.times:
                    nodes.append(SliceNode(v.name, i, VALUE, v.states))
                    u = table(model.utilities, v.name, i)
                    utilities.append(DeployedUtility(node, wired(u.parents, i), u.values))
            elif i not in v.times:
                k = len(v.states)
                rows = tuple(tuple(float(r == c) for c in range(k)) for r in range(k))
                nodes.append(SliceNode(v.name, i, COPY, v.states))
                tables.append(DeployedTable(node, tuple(before(v.name, i)), rows))
            elif v.kind == CHANCE:
                nodes.append(SliceNode(v.name, i, CHANCE, v.states))
                t = table(model.cpds, v.name, i)
                tables.append(DeployedTable(node, wired(t.parents, i), t.table))
            else:
                nodes.append(SliceNode(v.name, i, DECISION, v.states))
                arcs = [a for a in model.arcs if a.dst == v.name]
                pairs = [(a.src, a.kind) for a in arcs if a.kind == INST]
                pairs += [(a.src, a.kind) for a in arcs if a.kind == LAG]
                info[node] = wired(pairs, i)

    parents_of = {t.node: t.parents for t in tables + utilities} | info

    def reaches(a, b):
        """Whether a directed path runs from ``a`` to ``b``."""
        seen, stack = set(), [b]
        while stack:
            for p in parents_of.get(stack.pop(), ()):
                if p == a:
                    return True
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return False

    # By slice; within one, the first decision by name that no other
    # waiting decision of the slice can influence.
    order = []
    for i in model.master:
        waiting = sorted(d for d in info if d[1] == i)
        while waiting:
            d = next(d for d in waiting if not any(reaches(o, d) for o in waiting if o != d))
            order.append(d)
            waiting.remove(d)
    decisions = [(d, info[d]) for d in order]
    return DeployedDid(model.master, *map(tuple, (nodes, tables, utilities, decisions)))


def restricted(did, keep, order):
    """``did`` cut to the nodes ``keep``, its decisions in ``order``."""
    info = dict(did.decisions)
    return DeployedDid(
        did.slices,
        tuple(n for n in did.nodes if n.id in keep),
        tuple(t for t in did.tables if t.node in keep),
        tuple(u for u in did.utilities if u.node in keep),
        tuple((d, info[d]) for d in order),
    )


def assert_deploys_as(model, want, barren):
    """``deploy`` gives ``want`` on a plan miss, then on a hit."""
    tdid.deploy._plans.clear()
    miss, hit = deploy(model, barren=barren), deploy(model, barren=barren)
    for got in (miss, hit):
        assert got.slices == want.slices
        assert got.nodes == want.nodes
        assert got.tables == want.tables
        assert got.utilities == want.utilities
        assert got.decisions == want.decisions
        assert list(got.parents_of.items()) == list(want.parents_of.items())
    # Equal fields: the text differs only if the seeded parent map or a
    # body's signed zero does.
    assert serialize_deployed(miss) == serialize_deployed(want)


def check(model, barren=True):
    want = reference_unroll(model)
    assert_deploys_as(model, want, barren=False)
    if barren:
        assert_deploys_as(model, restricted(want, *fixpoint_barren(want)), barren=True)


def shuffled_random_models():
    """Random models in shuffled declaration order.  Draws 256 and 475
    order a slice's decisions through a node declared after both."""
    rng = np.random.default_rng(20262)
    for _ in range(500):
        m = random_model(rng, max_deployed_nonvalue=12, max_decisions=4)
        variables = [m.variables[k] for k in rng.permutation(len(m.variables))]
        yield dataclasses.replace(m, variables=tuple(variables))


# The kb-select lattice of the benchmark: 486 variants of cardiac at T=6.
KB_LATTICE = """\
time treat : 1 3 5 | 1 4 | 1
time cr : 1 2 3 4 5 6 | 1 3 5 | 1 4
time poa : 1 2 3 4 5 6 | 1 3 5 | 1 4
time CD : 1 2 3 4 5 6 | 1 3 5 | 1 4
space cognitive : CD
space flow : cbf
space damage : U_dmg
space-choices : keep drop
"""


@pytest.fixture(autouse=True)
def _plans_cleared():
    yield
    tdid.deploy._plans.clear()


def test_corpora_deploy_as_the_reference():
    binary = corpus(60, seed=7)
    multi = corpus(40, seed=5, max_policies=4096, states=(2, 4), with_decision=True)
    for m, _ in binary + multi:
        check(m)


def test_shuffled_random_models_deploy_as_the_reference():
    for m in shuffled_random_models():
        check(m)


def test_fixtures_deploy_as_the_reference():
    for name in ("cardiac.tdid", "two_var_lagged.tdid"):
        check(parse((FIXTURES / name).read_bytes()))


@pytest.mark.parametrize("shape", ["dense", "copy-heavy", "barren-heavy", "signed-zero"])
def test_long_cardiac_deploys_as_the_reference(shape):
    for horizon in (80, 160):
        # The barren fixpoint is quadratic in the nodes: checked at 80.
        check(cardiac_shape(shape, horizon), barren=horizon == 80)


def test_kb_select_variants_deploy_as_the_reference():
    variants = enumerate_abstractions(parse(cardiac_text(6)), parse_lattice(KB_LATTICE))
    assert len(variants) == 486
    for v in variants:
        check(v.model)
