"""Deploy a condensed model into a slice-indexed influence diagram.

Deployment unrolls each temporal variable over the master time sequence.
A chance or decision variable gets one probabilistic (or free) node per
index in its own sequence and an identity *copy node* at every other
master index; copies point at their abstraction group's starting node, so
a copy always equals the most recent indexed value.  Value variables get
nodes only at their own indices.  Time-lag arcs wire each node to the most
recent strictly earlier indexed slice of the parent; instantaneous arcs
stay within a slice, passing through copies where the parent is not
indexed.

The result carries an implicit super value node: total utility is the sum
over all value nodes.  Decision nodes observe their informational parents
plus every earlier decision; only the informational parents are stored.

Each model structure is validated once: the master sequence, the
variables, the arcs, each table's class, variable, index and parents, the
tick and the ``barren`` flag, but not the table numbers.  Its plan
(``_Plan``) holds each table's row and column counts and, with barren
removal, the positions of the nodes it keeps; at most 16 plans are kept,
the oldest evicted first.  A structure is planned only after ``validate``
passes it.  A model whose structure is planned still has its indices and
every table number checked on each call, and a fault is reported with the
message ``validate`` gives.  ``validate`` itself still checks everything.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._memo import remember
from .model import (
    CHANCE,
    DECISION,
    INST,
    VALUE,
    CondensedTdid,
    ModelError,
    _ancestors,
    _check_sequence,
    _number_faults,
    parent_signature,
    validate,
)

__all__ = [
    "COPY",
    "NodeId",
    "SliceNode",
    "DeployedTable",
    "DeployedUtility",
    "DeployedDid",
    "node_name",
    "deploy",
    "eliminate_barren",
    "collapse_copies",
    "table_entry_count",
    "serialize_deployed",
    "emit_dot",
]

COPY = "copy"

NodeId = tuple[str, int]  # (base variable, slice)


def node_name(node: NodeId) -> str:
    return f"{node[0]}@{node[1]}"


def _no_node(node: NodeId) -> ModelError:
    return ModelError(f"no deployed node {node_name(node)}")


class SliceNode(NamedTuple):
    base: str
    slice: int
    kind: str  # chance | decision | value | copy
    states: tuple[str, ...]

    # The node's id, (base, slice): a C-level getter, as every pass reads ids.
    id = property(itemgetter(slice(0, 2)))


class DeployedTable(NamedTuple):
    """Conditional distribution of one chance or copy node."""

    node: NodeId
    parents: tuple[NodeId, ...]
    rows: tuple[tuple[float, ...], ...]  # row per joint parent state, last fastest


class DeployedUtility(NamedTuple):
    """Additive utility contribution of one value node."""

    node: NodeId
    parents: tuple[NodeId, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class DeployedDid:
    """Unrolled influence diagram with an implicit additive super value node.

    Each node's parents are stored once: a chance or copy node's on its
    table, a value node's on its utility, and a decision's in
    ``decisions``, which lists the decisions in decision order, each with
    its informational parents.  ``parents_of``, ``arcs``,
    ``decision_order`` and ``info`` are views derived from these.
    """

    slices: tuple[int, ...]
    nodes: tuple[SliceNode, ...]
    tables: tuple[DeployedTable, ...]
    utilities: tuple[DeployedUtility, ...]
    decisions: tuple[tuple[NodeId, tuple[NodeId, ...]], ...]

    @cached_property
    def parents_of(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Every node's parents, keyed in node order."""
        out = dict.fromkeys((n.id for n in self.nodes), ())
        out.update((t.node, t.parents) for t in self.tables)
        out.update((u.node, u.parents) for u in self.utilities)
        out.update(self.decisions)
        return out

    @cached_property
    def arcs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """(parent, child) pairs: children in node order, each child's
        parents in their stored order."""
        return tuple((p, n) for n, ps in self.parents_of.items() for p in ps)

    @cached_property
    def decision_order(self) -> tuple[NodeId, ...]:
        return tuple(d for d, _ in self.decisions)

    @cached_property
    def info(self) -> tuple[tuple[NodeId, tuple[NodeId, ...]], ...]:
        """Per decision, everything it observes: its informational parents,
        then every earlier decision not already among them (no forgetting)."""
        order = self.decision_order
        return tuple(
            (d, tuple(dict.fromkeys([*parents, *order[:k]])))
            for k, (d, parents) in enumerate(self.decisions)
        )

    @cached_property
    def _by_id(self) -> dict[NodeId, SliceNode]:
        return {n.id: n for n in self.nodes}

    def node(self, node: NodeId) -> SliceNode:
        try:
            return self._by_id[tuple(node)]
        except KeyError:
            raise _no_node(node) from None

    def has_node(self, node: NodeId) -> bool:
        return tuple(node) in self._by_id

    def states(self, node: NodeId) -> tuple[str, ...]:
        return self.node(node).states

    @cached_property
    def value_nodes(self) -> tuple[NodeId, ...]:
        """Summands of the super value node."""
        return tuple(n.id for n in self.nodes if n.kind == VALUE)

    @cached_property
    def table_by_node(self) -> dict[NodeId, DeployedTable]:
        return {t.node: t for t in self.tables}

    @cached_property
    def info_by_decision(self) -> dict[NodeId, tuple[NodeId, ...]]:
        return dict(self.info)


# ---------------------------------------------------------------------------


def deploy(model: CondensedTdid, *, barren: bool = True) -> DeployedDid:
    """Unroll a valid condensed model into its deployed form.

    With ``barren=True`` (the default), nodes that cannot influence any
    value node are removed before returning; this never changes the
    maximum expected utility.

    A structure is validated and planned once (``_plans``): a model whose
    structure has a plan skips the structural checks of ``validate``, which
    that structure has passed, and has its indices and table numbers
    checked; any fault is reported by ``validate`` itself.
    """
    # A table's class is part of the key: ``validate`` tells a CPT from a
    # utility by it.
    try:
        key = (
            barren,
            model.master,
            model.variables,
            model.arcs,
            tuple((type(t), t.variable, t.time_index, t.parents) for t in model.cpds),
            tuple((type(u), u.variable, u.time_index, u.parents) for u in model.utilities),
            model.tick,
        )
        plan = _plans.get(key)
    except TypeError:  # a hand-built field that cannot be hashed: no plan kept
        key = plan = None
    if plan is None or not plan.admits(model):
        problems = validate(model)
        if problems:
            raise ModelError("invalid model: " + "; ".join(problems))
    did = _unroll(model)
    if plan is None:
        plan = _Plan.of(model, did, barren)
        if key is not None:
            remember(_plans, key, plan, _PLAN_CAP)
    if plan.keep is not None:
        did = _restrict(did, {did.nodes[k].id for k in plan.keep})
    return did


# Deployment plans by structure (the key ``deploy`` builds), oldest first
# and at most _PLAN_CAP of them.
_PLAN_CAP = 16
_plans: dict[tuple, _Plan] = {}


class _Plan(NamedTuple):
    """What every valid model of one structure shares beyond its unrolling:
    each table's row and column counts, for the numeric checks, and the
    positions, in unrolling order, of the nodes barren removal keeps (None:
    all of them, or no barren removal).  It holds no number, index or node
    id of the model that built it."""

    shapes: tuple[tuple[int, int], ...]
    keep: tuple[int, ...] | None

    @classmethod
    def of(cls, model: CondensedTdid, did: DeployedDid, barren: bool) -> _Plan:
        size = {v.name: len(v.states) for v in model.variables}
        shapes = tuple(
            (math.prod(size[p] for p, _ in t.parents), size[t.variable])
            for t in model.cpds + model.utilities
        )
        keep = None
        if barren:
            kept = _not_barren(did)
            if len(kept) < len(did.nodes):
                keep = tuple(k for k, n in enumerate(did.nodes) if n.id in kept)
        return cls(shapes, keep)

    def admits(self, model: CondensedTdid) -> bool:
        """Whether ``validate`` passes a model of this structure, which it
        has passed: an equal structure can still hold an index that is not
        an int (1.0 == 1) or faulty numbers."""
        master = model.master
        if _check_sequence("", master):
            return False
        for v in model.variables:
            if v.times is not master and _check_sequence("", v.times):
                return False
        tables = model.cpds + model.utilities
        return not any(
            _number_faults(t, *shape) for t, shape in zip(tables, self.shapes)
        )


def _unroll(model: CondensedTdid) -> DeployedDid:
    """The deployed form of a valid model, barren nodes included."""
    nodes: list[SliceNode] = []
    tables: list[DeployedTable] = []
    utilities: list[DeployedUtility] = []
    parents_of: dict[NodeId, tuple[NodeId, ...]] = {}
    # Each variable's most recent indexed slice strictly before the slice
    # being deployed: where a lag arc from it, or a copy of it, reads.
    prev: dict[str, int] = {}

    # Nodes with a table of their own; every other indexed chance or value
    # node takes its variable's stationary table.
    explicit = {
        (t.variable, t.time_index)
        for t in model.cpds + model.utilities
        if t.time_index is not None
    }
    # Per variable, what its nodes share: its indices, one identity-rows
    # tuple for all its copies, and its stationary table or, for a
    # decision, its parents.  A decision's parents are the same at every
    # index but the first (see ``parent_signature``); there ``prev`` is
    # empty, so its lag parents drop out below.
    plan = []
    for v in model.variables:
        k = range(len(v.states))
        ident = tuple(tuple(float(c == r) for c in k) for r in k)
        if v.kind == DECISION:
            shared = parent_signature(model, v.name, model.master[-1])
        else:
            shared = model.table_for(v.name, None)
        plan.append((v.name, v.kind, v.states, set(v.times), ident, shared))
    for i in model.master:
        for name, kind, states, times, ident, shared in plan:
            nid = (name, i)
            if i not in times:
                if kind != VALUE:  # value variables get no copies
                    nodes.append(SliceNode(name, i, COPY, states))
                    parents = parents_of[nid] = ((name, prev[name]),)
                    tables.append(DeployedTable(nid, parents, ident))
                continue
            nodes.append(SliceNode(name, i, kind, states))
            if kind == DECISION:
                signature = shared
            else:
                t = model.table_for(name, i) if nid in explicit else shared
                signature = t.parents
            # A lag parent with no earlier indexed slice is absent.
            parents = parents_of[nid] = tuple(
                [
                    (p, i) if role == INST else (p, prev[p])
                    for p, role in signature
                    if role == INST or p in prev
                ]
            )
            if kind == CHANCE:
                tables.append(DeployedTable(nid, parents, t.table))
            elif kind == VALUE:
                utilities.append(DeployedUtility(nid, parents, t.values))
        prev.update((name, i) for name, _, _, times, _, _ in plan if i in times)

    did = DeployedDid(
        model.master,
        tuple(nodes),
        tuple(tables),
        tuple(utilities),
        tuple((d, parents_of[d]) for d in _order_decisions(nodes, parents_of)),
    )
    return did


def _order_decisions(nodes, parents_of) -> list[NodeId]:
    """Total order over decision nodes: by slice, then topologically within
    a slice (a decision that can influence another — possibly through
    intermediate chance nodes — acts first), then by name.  Name, not
    declaration order, breaks ties so the order is stable under permuting
    the model's variable declarations."""
    decisions = sorted(
        (n.id for n in nodes if n.kind == DECISION), key=lambda d: (d[1], d[0])
    )
    out: list[NodeId] = []
    for i, group in groupby(decisions, key=lambda d: d[1]):
        waiting = list(group)
        if len(waiting) == 1:
            out.extend(waiting)
            continue
        # Only same-slice paths can order two decisions of one slice: lag and
        # copy arcs run strictly forward in time, so walk instantaneous arcs.
        anc = {d: _ancestors(parents_of, (d,), i) - {d} for d in waiting}
        while waiting:
            # Kahn step: take the first decision (by name) no other waiting
            # decision can influence.  Instantaneous arcs are acyclic, so
            # one always exists.
            d = next(d for d in waiting if anc[d].isdisjoint(waiting))
            out.append(d)
            waiting.remove(d)
    return out


def eliminate_barren(did: DeployedDid) -> DeployedDid:
    """Drop nodes that cannot influence any value node.

    Let D* be the last decision in ``decision_order`` with a directed path
    to a value node.  A node is kept exactly when it has a directed path to
    a value node or to a decision at or before D* (value nodes and those
    decisions are kept themselves).  Decisions before D* may be childless:
    a later decision observes them, so they can still act as a signal.
    This is the fixpoint of repeatedly deleting childless chance and copy
    nodes and a childless last decision: arcs and the decision order both
    run forward, so a decision after D* reaches only nodes that are
    stripped too.  The maximum expected utility is unchanged.
    """
    return _restrict(did, _not_barren(did))


def _not_barren(did: DeployedDid) -> set[NodeId]:
    """The ids of the nodes ``eliminate_barren`` keeps."""
    order = did.decision_order
    keep = _ancestors(did.parents_of, did.value_nodes)
    cut = max((k + 1 for k, d in enumerate(order) if d in keep), default=0)
    _ancestors(did.parents_of, order[:cut], out=keep)
    return keep


def _restrict(did: DeployedDid, keep: set[NodeId]) -> DeployedDid:
    """The diagram with only the nodes in ``keep``, in their order."""
    return DeployedDid(
        did.slices,
        tuple(n for n in did.nodes if n.id in keep),
        tuple(t for t in did.tables if t.node in keep),
        tuple(u for u in did.utilities if u.node in keep),
        tuple(d for d in did.decisions if d[0] in keep),
    )


def collapse_copies(did: DeployedDid) -> DeployedDid:
    """Remove all copy nodes, rewiring children to the copied node.

    A copy is an identity of its group's starting node, so substituting
    the source everywhere preserves the joint distribution and hence the
    maximum expected utility exactly.  When a child ends up with the same
    parent twice (it already depended on the source directly), the two
    table axes are merged by taking their diagonal.
    """
    states = {n.id: n.states for n in did.nodes}
    copies = {n.id for n in did.nodes if n.kind == COPY}
    source = {}
    for t in did.tables:
        if t.node in copies:
            (source[t.node],) = t.parents
        elif t.node not in states:
            raise _no_node(t.node)

    def resolve(nid: NodeId) -> NodeId:
        return source.get(nid, nid)

    def rewire(parents, body):
        """Parents with each copy replaced by its source, and the body
        (rows or values) with the axes of a repeated parent merged."""
        arr = np.asarray(body, dtype=float)
        tail = arr.shape[1:]  # the child's states, for a table's rows
        for p in parents:
            if p not in states:
                raise _no_node(p)
        arr = arr.reshape([len(states[p]) for p in parents] + list(tail))
        new_parents = list(parents)
        k = 0
        while k < len(new_parents):
            p = resolve(new_parents[k])
            first = new_parents.index(p) if p in new_parents[:k] else k
            if first < k:
                arr = np.diagonal(arr, axis1=first, axis2=k)
                arr = np.moveaxis(arr, -1, first)
                del new_parents[k]
            else:
                new_parents[k] = p
                k += 1
        flat = arr.reshape(-1, *tail).tolist()
        return tuple(new_parents), tuple(map(tuple, flat) if tail else flat)

    # A table or utility that reads no copy is kept as it is.
    nodes = tuple(n for n in did.nodes if n.kind != COPY)
    tables = tuple(
        t if source.keys().isdisjoint(t.parents)
        else DeployedTable(t.node, *rewire(t.parents, t.rows))
        for t in did.tables
        if t.node not in source
    )
    utilities = tuple(
        u if source.keys().isdisjoint(u.parents)
        else DeployedUtility(u.node, *rewire(u.parents, u.values))
        for u in did.utilities
    )
    decisions = tuple(
        (d, tuple(dict.fromkeys(map(resolve, parents)))) for d, parents in did.decisions
    )
    return DeployedDid(did.slices, nodes, tables, utilities, decisions)


def table_entry_count(did: DeployedDid) -> int:
    """Total probability-table entries across non-copy nodes.

    Identity tables on copy nodes carry no free parameters and vanish
    under ``collapse_copies``, so they do not count toward a model's
    space complexity; coarsening a time sequence therefore shrinks it.
    """
    return sum(
        len(t.rows) * len(t.rows[0])
        for t in did.tables
        if did.node(t.node).kind != COPY
    )


# ---------------------------------------------------------------------------
# Output formats


class _Names(dict):
    """Each node's printed name, formatted once.  An id that is not a node
    of the diagram, which only a hand-built one can hold, still renders."""

    def __init__(self, did: DeployedDid):
        super().__init__((n.id, node_name(n.id)) for n in did.nodes)

    def __missing__(self, node: NodeId) -> str:
        return node_name(node)

    def join(self, ids) -> str:
        return " ".join(map(self.__getitem__, ids))

    def arcs(self, did: DeployedDid) -> list[tuple[str, list[str]]]:
        """Each parent's printed name with its children's, in the order of
        ``sorted(did.arcs)``: children are sorted once per node, not arcs
        as pairs, and each parent's name is looked up once."""
        parents_of = did.parents_of
        children: defaultdict[NodeId, list[str]] = defaultdict(list)
        for child in sorted(parents_of):
            shown = self[child]
            for p in parents_of[child]:
                children[p].append(shown)
        return [(self[p], children[p]) for p in sorted(children)]


def serialize_deployed(did: DeployedDid) -> str:
    """Canonical text rendering of a deployed diagram.

    Nodes appear slice by slice; copies print as ``copy X@2 of X@1``
    (their identity tables are implied).  The ``super`` line lists the
    value nodes summed by the implicit super value node.  Each ``info``
    line lists a decision's informational parents only: that it also
    observes every earlier decision is implied by the ``order`` line.
    """
    from ._fmt import fmt_float, fmt_int

    name = _Names(did)
    out = ["deployed 2"]
    out.append("slices " + " ".join(map(fmt_int, did.slices)))
    copies = {n.id for n in did.nodes if n.kind == COPY}
    src_of = {}
    for t in did.tables:
        if t.node in copies:
            src_of[t.node] = t.parents[0]
        elif t.node not in name:
            raise _no_node(t.node)
    for n in did.nodes:
        if n.kind == COPY:
            out.append(f"copy {name[n.id]} of {name[src_of[n.id]]}")
        elif n.kind == VALUE:
            out.append(f"value {name[n.id]}")
        else:
            out.append(f"{n.kind} {name[n.id]} : " + " ".join(n.states))
    for src, dsts in name.arcs(did):
        prefix = "arc " + src + " "
        out.extend([prefix + dst for dst in dsts])
    # Unrolled slices share a few table bodies among many nodes: format each
    # once.  Keyed by identity, not value: -0.0 == 0.0 but prints as "-0".
    body: dict = {}
    for t in sorted(did.tables, key=lambda t: t.node):
        if t.node in src_of:
            continue
        rows = body.get(id(t.rows))
        if rows is None:
            rows = " , ".join(" ".join(map(fmt_float, r)) for r in t.rows)
            body[id(t.rows)] = rows
        parents = name.join(t.parents)
        out.append(f"cpt {name[t.node]} |{' ' + parents if parents else ''} : {rows}")
    body = {}
    for u in sorted(did.utilities, key=lambda u: u.node):
        parents = name.join(u.parents)
        vals = body.get(id(u.values))
        if vals is None:
            vals = " ".join(map(fmt_float, u.values))
            body[id(u.values)] = vals
        out.append(f"util {name[u.node]} |{' ' + parents if parents else ''} : {vals}")
    out.extend(f"info {name[d]} : " + name.join(obs) for d, obs in did.decisions)
    if did.decision_order:
        out.append("order " + name.join(did.decision_order))
    out.append("super " + name.join(did.value_nodes))
    return "\n".join(out) + "\n"


_DOT_SHAPE = {CHANCE: "ellipse", DECISION: "box", VALUE: "diamond", COPY: "ellipse"}


def emit_dot(did: DeployedDid) -> str:
    """Graph-description text for visualization."""
    name = _Names(did)
    out = ["digraph deployed {", "  rankdir=LR;"]
    for n in did.nodes:
        style = ', style=dashed' if n.kind == COPY else ""
        out.append(f'  "{name[n.id]}" [shape={_DOT_SHAPE[n.kind]}{style}];')
    out.append('  "super" [shape=doublecircle];')
    for src, dsts in name.arcs(did):
        out.extend(f'  "{src}" -> "{dst}";' for dst in dsts)
    out.extend(f'  "{name[v]}" -> "super";' for v in did.value_nodes)
    out.append("}")
    return "\n".join(out) + "\n"
