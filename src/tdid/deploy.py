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

Each pass copies nothing it does not change, and one that would change
nothing returns its input.  A diagram has one parent map: ``deploy``
seeds ``parents_of`` with the one it builds while unrolling, and barren
removal and ``collapse_copies`` derive theirs from their input's.  No
pass needs numpy: ``collapse_copies`` merges a repeated parent's axes by
picking entries.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from ._memo import remember
from .model import (
    CHANCE,
    DECISION,
    INST,
    LAG,
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
    # Each (variable, role) parent's slot in ``ids``, which holds, per
    # variable, its id at the slice being deployed (an instantaneous
    # parent) and then its id at its most recent indexed slice strictly
    # before it (a lag parent, and what a copy reads), None while it has
    # none.
    names = [v.name for v in model.variables]
    slot = {}
    for k, p in enumerate(names):
        slot[p, INST] = k
        slot[p, LAG] = len(names) + k
    ids: list = [None] * len(slot)
    slots = partial(map, slot.__getitem__)

    # Nodes with a table of their own; every other indexed chance or value
    # node takes its variable's stationary table.
    explicit = {
        (t.variable, t.time_index)
        for t in model.cpds + model.utilities
        if t.time_index is not None
    }
    # Per variable, what its nodes share: its indices, one identity-rows
    # tuple for all its copies (if it has any), its stationary table, the
    # slots of its parents, and its lag slot.  A decision's parents are the
    # same at every index but the first (see ``parent_signature``); there no
    # lag slot is filled, so its lag parents drop out below.
    plan = []
    for v in model.variables:
        times = set(v.times)
        ident = None
        if len(times) < len(model.master):
            k = range(len(v.states))
            ident = tuple(tuple(float(c == r) for c in k) for r in k)
        if v.kind == DECISION:
            shared, parents = None, parent_signature(model, v.name, model.master[-1])
        else:
            shared = model.table_for(v.name, None)
            parents = () if shared is None else shared.parents
        lag = slot[v.name, LAG]
        at = tuple(slots(parents))
        plan.append((v.name, v.kind, v.states, times, ident, shared, at, lag))
    # The records' constructors without their Python-level ``__new__``.
    new = tuple.__new__
    read = ids.__getitem__
    for i in model.master:
        here = [(name, i) for name in names]
        ids[: len(names)] = here
        # Once every variable has an earlier indexed slice, every slot is
        # filled.
        complete = None not in ids
        indexed = []
        for (name, kind, states, times, ident, t, at, lag), nid in zip(plan, here):
            if i not in times:
                if kind != VALUE:  # value variables get no copies
                    nodes.append(new(SliceNode, (name, i, COPY, states)))
                    parents = parents_of[nid] = (ids[lag],)
                    tables.append(new(DeployedTable, (nid, parents, ident)))
                continue
            indexed.append((lag, nid))
            nodes.append(new(SliceNode, (name, i, kind, states)))
            if nid in explicit:
                t = model.table_for(name, i)
                at = tuple(slots(t.parents))
            if complete:
                parents = tuple(map(read, at))
            else:  # a lag parent with no earlier indexed slice is absent
                parents = tuple([ids[k] for k in at if ids[k] is not None])
            parents_of[nid] = parents
            if kind == CHANCE:
                tables.append(new(DeployedTable, (nid, parents, t.table)))
            elif kind == VALUE:
                utilities.append(new(DeployedUtility, (nid, parents, t.values)))
        for lag, nid in indexed:
            ids[lag] = nid

    did = DeployedDid(
        model.master,
        tuple(nodes),
        tuple(tables),
        tuple(utilities),
        tuple((d, parents_of[d]) for d in _order_decisions(nodes, parents_of)),
    )
    return _seeded(did, parents_of)


def _seeded(did: DeployedDid, parents_of: dict) -> DeployedDid:
    """``did`` with its ``parents_of`` view set to ``parents_of``, which
    must equal what the view would derive, in value and in key order."""
    did.__dict__["parents_of"] = parents_of
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
    """The diagram with only the nodes in ``keep``, in their order: ``did``
    itself when that keeps every node, table, utility and decision."""
    parents_of = did.parents_of
    if keep.issuperset(parents_of):
        return did
    out = DeployedDid(
        did.slices,
        tuple(n for n in did.nodes if n.id in keep),
        tuple(t for t in did.tables if t.node in keep),
        tuple(u for u in did.utilities if u.node in keep),
        tuple(d for d in did.decisions if d[0] in keep),
    )
    return _seeded(out, {n: ps for n, ps in parents_of.items() if n in keep})


def _copy_sources(did: DeployedDid, index) -> dict[NodeId, NodeId]:
    """Each copy node's source, the one parent of its table; ``index`` holds
    the ids of the diagram's nodes.  A table of no node, a copy with no
    table and a copy table with other than one parent are model errors."""
    copies = {n.id for n in did.nodes if n.kind == COPY}
    source = {}
    for t in did.tables:
        if t.node in copies:
            if len(t.parents) != 1:
                raise ModelError(
                    f"copy {node_name(t.node)} has {len(t.parents)} parents, not 1"
                )
            source[t.node] = t.parents[0]
        elif t.node not in index:
            raise _no_node(t.node)
    if len(source) < len(copies):
        bare = next(n.id for n in did.nodes if n.kind == COPY and n.id not in source)
        raise ModelError(f"copy {node_name(bare)} has no table")
    return source


def collapse_copies(did: DeployedDid) -> DeployedDid:
    """Remove all copy nodes, rewiring children to the copied node.

    A copy is an identity of its group's starting node, so substituting
    the source everywhere preserves the joint distribution and hence the
    maximum expected utility exactly.  When a child ends up with the same
    parent twice (it already depended on the source directly), the two
    table axes are merged by taking their diagonal.  A diagram with no
    copy, and no decision that lists a parent twice, is returned as it is.
    """
    by_id = did._by_id
    source = _copy_sources(did, by_id)
    if not source and all(len(set(ps)) == len(ps) for _, ps in did.decisions):
        return did

    def resolve(nid: NodeId) -> NodeId:
        return source.get(nid, nid)

    parents_of = {n: ps for n, ps in did.parents_of.items() if n not in source}

    def rewire(record, body):
        """The record's node, its parents with each copy replaced by its
        source, and its body (rows or values) with the axes of a repeated
        parent merged; a body whose parents stay distinct is kept as it
        is, and one that does not fit its parents is a model error."""
        for p in record.parents:
            if p not in by_id:
                raise _no_node(p)
        sizes = [len(by_id[p].states) for p in record.parents]
        if len(body) != math.prod(sizes):
            raise ModelError(
                f"{node_name(record.node)}: {len(body)} entries"
                f" for {math.prod(sizes)} joint parent states"
            )
        parents = tuple(map(resolve, record.parents))
        merged = tuple(dict.fromkeys(parents))
        if len(merged) < len(parents):
            body = _merge_axes(parents, sizes, body)
        # A node's entry is its last record's parents (a hand-built diagram
        # can give a node more than one record): set it only from that one.
        if did.parents_of.get(record.node) is record.parents:
            parents_of[record.node] = merged
        return record.node, merged, body

    # A table or utility that reads no copy is kept as it is.
    nodes = tuple(n for n in did.nodes if n.kind != COPY)
    tables = tuple(
        t if source.keys().isdisjoint(t.parents)
        else DeployedTable(*rewire(t, t.rows))
        for t in did.tables
        if t.node not in source
    )
    utilities = tuple(
        u if source.keys().isdisjoint(u.parents)
        else DeployedUtility(*rewire(u, u.values))
        for u in did.utilities
    )
    decisions = tuple(
        (d, tuple(dict.fromkeys(map(resolve, parents)))) for d, parents in did.decisions
    )
    parents_of.update(decisions)
    out = DeployedDid(did.slices, nodes, tables, utilities, decisions)
    return _seeded(out, parents_of)


def _merge_axes(parents, sizes, body) -> tuple:
    """``body``, one entry per joint state of ``parents`` (last fastest,
    axes of ``sizes``), over each distinct parent once, in order of first
    appearance.  Each entry is the one whose repeats of a parent all take
    that parent's state: numpy's ``diagonal`` of their axes, picked and
    never computed, so every float (a signed zero too) is kept as it is."""
    stride = dict.fromkeys(parents, 0)
    size = {}
    step = 1
    for p, k in zip(reversed(parents), reversed(sizes)):
        stride[p] += step
        size[p] = min(k, size.get(p, k))
        step *= k
    picks = [0]
    for p, step in stride.items():
        picks = [at + s * step for at in picks for s in range(size[p])]
    return tuple(map(body.__getitem__, picks))


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
    """Each node's printed name, formatted once, and the node ids sorted
    once (``order``).  An id that is not a node of the diagram, which only
    a hand-built one can hold, still renders, and what holds one is sorted
    on its own."""

    def __init__(self, did: DeployedDid):
        super().__init__({(b, i): f"{b}@{i}" for b, i, _, _ in did.nodes})  # node_name
        self.order = sorted(self)

    def __missing__(self, node: NodeId) -> str:
        return node_name(node)

    def join(self, ids) -> str:
        return " ".join(map(self.__getitem__, ids))

    def by_node(self, records) -> list:
        """Tables or utilities sorted by node, stably."""
        by_node = {r.node: r for r in records}
        if len(by_node) < len(records) or not by_node.keys() <= self.keys():
            return sorted(records, key=itemgetter(0))
        # ``get`` gives None for a node with no record.
        return list(filter(None, map(by_node.get, self.order)))

    def arcs(self, did: DeployedDid) -> list[tuple[str, list[str]]]:
        """Each parent's printed name with its children's, in the order of
        ``sorted(did.arcs)``: children in node order, each appended to its
        parents' lists, and each parent's name looked up once."""
        parents_of = did.parents_of
        children = defaultdict(list, {p: [] for p in self.order})
        # Every node is a key of ``parents_of``; a further key is no node's.
        kids = self.order if len(parents_of) == len(self) else sorted(parents_of)
        for child in kids:
            shown = self[child]
            for p in parents_of[child]:
                children[p].append(shown)
        if len(children) > len(self):  # a parent that is no node
            return [(self[p], children[p]) for p in sorted(children) if children[p]]
        return [(self[p], shown) for p, shown in children.items() if shown]


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
    src_of = _copy_sources(did, name)
    out = ["deployed 2"]
    out.append("slices " + " ".join(map(fmt_int, did.slices)))
    # Nodes of one variable share its states, and unrolled slices share a
    # few table bodies among many nodes: format each once.  Keyed by
    # identity, not value: -0.0 == 0.0 but prints as "-0".
    shown: dict = {}
    for base, i, kind, states in did.nodes:
        nid = (base, i)
        if kind == COPY:
            out.append(f"copy {name[nid]} of {name[src_of[nid]]}")
        elif kind == VALUE:
            out.append(f"value {name[nid]}")
        else:
            listed = shown.get(id(states))
            if listed is None:
                listed = shown[id(states)] = " ".join(states)
            out.append(f"{kind} {name[nid]} : {listed}")
    for src, dsts in name.arcs(did):
        prefix = "arc " + src + " "
        out.append(prefix + ("\n" + prefix).join(dsts))
    get = name.__getitem__
    shown = {}
    for node, parents, rows in name.by_node(did.tables):
        if node in src_of:
            continue
        body = shown.get(id(rows))
        if body is None:
            body = " , ".join(" ".join(map(fmt_float, r)) for r in rows)
            shown[id(rows)] = body
        out.append(" ".join(["cpt", get(node), "|", *map(get, parents), ":", body]))
    shown = {}
    for node, parents, values in name.by_node(did.utilities):
        body = shown.get(id(values))
        if body is None:
            body = shown[id(values)] = " ".join(map(fmt_float, values))
        out.append(" ".join(["util", get(node), "|", *map(get, parents), ":", body]))
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
