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

Each model structure is validated and unrolled once: the master
sequence, the variables, the arcs, each table's class, variable, index and
parents, the tick and the ``barren`` flag, but not the table numbers.  Its
plan (``_Plan``) holds each table's row and column counts and the
unrolling as packed integer positions, for the nodes barren removal keeps
when it is on; at most 16 plans are kept, the oldest evicted first.  A
structure is planned only after ``validate`` passes it.  A model whose
structure is planned still has its indices and every table number checked
on each call, and a fault is reported with the message ``validate`` gives.
``validate`` itself still checks everything.  Every call, the one that
plans a structure too, builds its diagram from the plan (``_Plan.bind``):
ids, records and parent map, with the model's own names, indices, states
and table bodies.

Each pass copies nothing it does not change, and one that would change
nothing returns its input.  A diagram has one parent map: ``deploy``
seeds ``parents_of`` with the one it builds from the plan, and barren
removal and ``collapse_copies`` derive theirs from their input's.  No
pass needs numpy: ``collapse_copies`` merges a repeated parent's axes by
picking entries.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import cache, cached_property, partial
from itertools import accumulate, chain, compress, count, groupby, repeat
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
    _number_faults,
    _sequence_faults,
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


def _twice(ids) -> ModelError:
    node = next(n for n, k in Counter(ids).items() if k > 1)  # the first repeated
    return ModelError(f"deployed node {node_name(node)} is given twice")


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
    checked; any fault is reported by ``validate`` itself.  Every model is
    then bound to its structure's plan; a field that cannot be hashed is refused.
    """
    # The key holds the structure's fields as plain tuples, which hash and
    # compare in C, where the records' own hash and equality run in Python.
    # A table's class is part of it: ``validate`` tells a CPT from a utility
    # by it.
    key = (
        barren,
        model.master,
        tuple([(v.name, v.kind, v.states, v.times) for v in model.variables]),
        tuple([(a.src, a.dst, a.kind) for a in model.arcs]),
        tuple([(type(t), t.variable, t.time_index, t.parents) for t in model.cpds]),
        tuple([(type(u), u.variable, u.time_index, u.parents) for u in model.utilities]),
        model.tick,
    )
    try:
        plan = _plans.get(key)
    except TypeError:  # a hand-built field: name the first that does not hash
        for field, part in zip(fields(model), key[1:]):
            try:
                hash(part)
            except TypeError:
                raise ModelError(f"model field {field.name} cannot be hashed") from None
        raise
    if plan is None or not plan.admits(model):
        problems = validate(model)
        if problems:
            raise ModelError("invalid model: " + "; ".join(problems))
    if plan is None:
        plan = _Plan.of(model, barren)
        remember(_plans, key, plan, _PLAN_CAP)
    return plan.bind(model)


# Deployment plans by structure (the key ``deploy`` builds), oldest first
# and at most _PLAN_CAP of them.
_PLAN_CAP = 16
_plans: dict[tuple, _Plan] = {}

# Node kinds by their code in a plan.
_KINDS = (CHANCE, DECISION, VALUE, COPY)


def _packed(values: list[int]) -> array:
    """The nonnegative ints ``values`` in an array of 8-, 16- or wider
    ints, the narrowest that holds them."""
    top = max(values, default=0)
    return array("B" if top < 1 << 8 else "H" if top < 1 << 16 else "L", values)


class _Plan(NamedTuple):
    """A structure's unrolling as positions, and each table's row and
    column counts (``shapes``) for the numeric checks.

    Per node, in node order, and only the nodes barren removal keeps when
    it is on: its variable's position in ``model.variables`` (``var``), its
    slice's position in ``model.master`` (``at``), its kind's in ``_KINDS``,
    and its parents as node positions, every node's one after another in
    ``parents`` with each node's end in ``ends``.  Per table, its node's
    position and its body's (``bodies``): a position in ``model.cpds``, or
    past them, a position in ``copied``, the variables whose identity rows
    copies take.  Per utility, its node's position and its position in
    ``model.utilities`` (``values``).  Then the decisions' node positions,
    in decision order.  It holds no number, index, slice, state or node id
    of the model that built it: ``bind`` takes those from each model.
    """

    shapes: tuple[tuple[int, int], ...]
    var: array
    at: array
    kind: array
    parents: array
    ends: array
    tables: array
    bodies: array
    copied: array
    utilities: array
    values: array
    decisions: array

    @classmethod
    def of(cls, model: CondensedTdid, barren: bool) -> _Plan:
        """The plan of a valid model: its structure unrolled once, then,
        with ``barren``, cut to the nodes barren removal keeps.  Each body
        is recorded by its table's position, never by the body object,
        which a hand-built model can share between tables."""
        variables, master = model.variables, model.master
        n = len(variables)
        names = [v.name for v in variables]
        # A valid model's tables have the sizes its structure gives them: a
        # CPT a row per joint parent state, each with an entry per state,
        # and a utility a value per joint parent state (a value variable
        # has no states).
        shapes = tuple(
            [(len(t.table), len(t.table[0])) for t in model.cpds]
            + [(len(u.values), 0) for u in model.utilities]
        )
        # Each (variable, role) parent's slot in ``ids``, which holds, per
        # variable, the position of its node at the slice being deployed (an
        # instantaneous parent) and then that of its node at its most recent
        # indexed slice strictly before it (a lag parent, and what a copy
        # reads), None while it has none.
        slot = {}
        for j, name in enumerate(names):
            slot[name, INST] = j
            slot[name, LAG] = n + j
        slots = partial(map, slot.__getitem__)
        ids = [None] * (2 * n)
        # Per variable, its explicit tables: by index, the table's position
        # and parent slots.  Every other indexed chance or value node takes
        # its variable's stationary table.
        explicit: dict = {}
        for pool, index in (
            (model.cpds, model._cpd_positions),
            (model.utilities, model._utility_positions),
        ):
            for (name, i), k in index.items():
                if i is not None:
                    explicit.setdefault(name, {})[i] = k, tuple(slots(pool[k].parents))

        var, at, parents_of, copies, copied = [], [], [], [], []
        tables, bodies, utilities, values, decisions = [], [], [], [], []
        add = {
            CHANCE: (tables.append, bodies.append),
            VALUE: (utilities.append, values.append),
            DECISION: (decisions.append, [].append),
        }
        # Per variable, what its nodes share: its indices, its explicit
        # tables, its stationary table's position (None: none), the slots of
        # its parents, its copies' body (None: no copies), and where a
        # node's position and source go.  A decision's parents are the same
        # at every index but the first (see ``parent_signature``); there no
        # lag slot is filled, so its lag parents drop out below.  A value
        # variable has nodes at its own indices only (``valued``), every
        # other variable at every index.
        per_var, valued = [], []
        for j, v in enumerate(variables):
            times = set(v.times)
            body = None
            if v.kind != VALUE and len(times) < len(master):
                body = len(model.cpds) + len(copied)
                copied.append(j)
            if v.kind == DECISION:
                shared, reads = None, parent_signature(model, v.name, master[-1])
            else:
                pool, index = (
                    (model.utilities, model._utility_positions) if v.kind == VALUE
                    else (model.cpds, model._cpd_positions)
                )
                shared = index.get((v.name, None))
                reads = () if shared is None else pool[shared].parents
            per_var.append(
                (j, times, explicit.get(v.name), shared, tuple(slots(reads)), body, *add[v.kind])
            )
            valued.append(times if v.kind == VALUE else None)
        # The indices where every variable has a node.
        full = set(master).intersection(*(t for t in valued if t is not None))

        read, add_parents = ids.__getitem__, parents_of.append
        complete = False
        for m, i in enumerate(master):
            # The variables with a node here, and their nodes' positions.
            k = len(var)
            if i in full:
                here = range(n)
                ids[:n] = range(k, k + n)
            else:
                here = [j for j, times in enumerate(valued) if times is None or i in times]
                for j, node in zip(here, count(k)):
                    ids[j] = node
            var += here
            at += repeat(m, len(here))
            # Once every variable has an earlier indexed slice, every slot
            # is filled.
            complete = complete or None not in ids[n:]
            indexed = []
            for j, times, own, source, reads, body, node_at, source_at in per_var:
                if i in times:
                    indexed.append(j)
                    if own:
                        source, reads = own.get(i, (source, reads))
                    if complete:
                        add_parents(list(map(read, reads)))
                    else:  # a lag parent with no earlier indexed slice is absent
                        add_parents([ids[s] for s in reads if ids[s] is not None])
                    node_at(ids[j])
                    source_at(source)
                elif body is not None:  # value variables get no copies
                    copies.append(ids[j])
                    add_parents([ids[n + j]])
                    tables.append(ids[j])
                    bodies.append(body)
            if len(indexed) == n:
                ids[n:] = ids[:n]
            else:
                for j in indexed:
                    ids[n + j] = ids[j]
        # Each node's kind is its variable's, but a copy's.
        kind = list(map([_KINDS.index(v.kind) for v in variables].__getitem__, var))
        for node in copies:
            kind[node] = _KINDS.index(COPY)

        decisions = _order_decisions(decisions, var, at, names, parents_of)
        if barren:
            keep = _not_barren(dict(enumerate(parents_of)), utilities, decisions)
            if len(keep) < len(var):
                # The kept nodes, renumbered in order, and what is theirs.
                positions = range(len(var))
                var, at, kind, parents_of = (
                    list(_kept(keep, x, positions)) for x in (var, at, kind, parents_of)
                )
                new = dict(zip(_kept(keep, positions, positions), count()))
                parents_of = [list(map(new.__getitem__, ps)) for ps in parents_of]
                bodies = list(_kept(new, bodies, tables))
                values = list(_kept(new, values, utilities))
                tables, utilities, decisions = (
                    list(map(new.__getitem__, _kept(new, x, x)))
                    for x in (tables, utilities, decisions)
                )
        ends = list(accumulate(map(len, parents_of)))
        parents = list(chain.from_iterable(parents_of))
        packed = var, at, kind, parents, ends, tables, bodies, copied, utilities, values, decisions
        return cls(shapes, *map(_packed, packed))

    def admits(self, model: CondensedTdid) -> bool:
        """Whether ``validate`` passes a model of this structure, which it
        has passed: an equal structure can still hold an index that is not
        an int (1.0 == 1) or faulty numbers."""
        master = model.master
        if _sequence_faults(master):
            return False
        for v in model.variables:
            if v.times is not master and _sequence_faults(v.times):
                return False
        tables = model.cpds + model.utilities
        return not any(
            _number_faults(t, *shape) for t, shape in zip(tables, self.shapes)
        )

    def bind(self, model: CondensedTdid) -> DeployedDid:
        """The deployed form of a valid model of this structure: its ids,
        records and parent map built from the positions, with the model's
        own names, indices, states and table bodies.  A node id is one
        tuple shared by its record, its map key and its children's parent
        tuples."""
        variables = model.variables
        names = [v.name for v in variables]
        states = [v.states for v in variables]
        base = list(map(names.__getitem__, self.var))
        at = list(map(model.master.__getitem__, self.at))
        ids = list(zip(base, at))
        parents = _split(list(map(ids.__getitem__, self.parents)), self.ends)
        id_of, parents_of = ids.__getitem__, parents.__getitem__
        # The records' constructors without their Python-level ``__new__``.
        new = partial(map, tuple.__new__)
        nodes = new(
            repeat(SliceNode),
            zip(base, at, map(_KINDS.__getitem__, self.kind), map(states.__getitem__, self.var)),
        )
        bodies = [t.table for t in model.cpds]
        bodies += [_identity(len(states[k])) for k in self.copied]
        tables = new(
            repeat(DeployedTable),
            zip(
                map(id_of, self.tables),
                map(parents_of, self.tables),
                map(bodies.__getitem__, self.bodies),
            ),
        )
        values = [u.values for u in model.utilities]
        utilities = new(
            repeat(DeployedUtility),
            zip(
                map(id_of, self.utilities),
                map(parents_of, self.utilities),
                map(values.__getitem__, self.values),
            ),
        )
        decisions = zip(map(id_of, self.decisions), map(parents_of, self.decisions))
        # Each tuple is made from a list, at its exact size: one grown from
        # an iterator is allocated at a guessed size and resized, and once
        # freed it joins the interpreter's free list of its final size, so
        # call after call the process's peak memory grows.
        did = DeployedDid(
            model.master,
            tuple(list(nodes)),
            tuple(list(tables)),
            tuple(list(utilities)),
            tuple(list(decisions)),
        )
        return _seeded(did, dict(zip(ids, parents)))


@cache
def _identity(k: int) -> tuple[tuple[float, ...], ...]:
    """A copy's rows: the identity over ``k`` states, built once per ``k``."""
    return tuple(tuple(float(c == r) for c in range(k)) for r in range(k))


def _seeded(did: DeployedDid, parents_of: dict) -> DeployedDid:
    """``did`` with its ``parents_of`` view set to ``parents_of``, which
    must equal what the view would derive, in value and in key order."""
    did.__dict__["parents_of"] = parents_of
    return did


def _split(parents: list, ends) -> list[tuple]:
    """Each node's parents, from every node's one after another and each
    node's end among them.  Each is sliced from the list and made a tuple
    at its exact size (see ``_Plan.bind``): a tuple of every parent, sliced
    instead, can have 20 items, and CPython 3.11 never reuses a freed tuple
    of 20 items from its free list."""
    return list(map(tuple, map(parents.__getitem__, map(slice, chain((0,), ends), ends))))


def _order_decisions(decisions, var, at, names, parents_of) -> list[int]:
    """Total order over decision nodes, given by position in slice order:
    by slice, then topologically within a slice (a decision that can
    influence another — possibly through intermediate chance nodes — acts
    first), then by name.  Per node position, ``var`` and ``at`` give its
    variable's and its slice's positions, and ``parents_of`` its parents'
    positions.  Name, not declaration order, breaks ties so the order is
    stable under permuting the model's variable declarations."""
    out: list[int] = []
    for i, group in groupby(decisions, key=at.__getitem__):
        waiting = sorted(group, key=lambda d: names[var[d]])
        if len(waiting) == 1:  # no other decision of its slice to order
            out += waiting
            continue
        # Only same-slice paths can order two decisions of one slice: lag and
        # copy arcs run strictly forward in time, so walk instantaneous arcs.
        # A slice's nodes are consecutive, ``first`` up to ``end``, so a
        # parent in it is one at or after its first node.  Every node of
        # the slice is walked: one declared after both decisions can still
        # lie on a path between them.
        first, end = bisect_left(at, i), bisect_right(at, i)
        within = {k: [p for p in parents_of[k] if p >= first] for k in range(first, end)}
        anc = {d: _ancestors(within, (d,)) - {d} for d in waiting}
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
    return _restrict(did, _not_barren(did.parents_of, did.value_nodes, did.decision_order))


def _not_barren(parents_of, value_nodes, order) -> set:
    """The nodes ``eliminate_barren`` keeps, given every node's parents,
    the value nodes and the decisions in decision order."""
    keep = _ancestors(parents_of, value_nodes)
    cut = max((k + 1 for k, d in enumerate(order) if d in keep), default=0)
    _ancestors(parents_of, order[:cut], out=keep)
    return keep


def _restrict(did: DeployedDid, keep: set[NodeId]) -> DeployedDid:
    """The diagram with only the nodes in ``keep``, in their order: ``did``
    itself when that keeps every node, table, utility and decision."""
    parents_of = did.parents_of
    if keep.issuperset(parents_of):
        return did

    def kept(records, node=itemgetter(0)):
        return tuple(_kept(keep, records, map(node, records)))

    out = DeployedDid(
        did.slices,
        kept(did.nodes, SliceNode.id.fget),
        kept(did.tables),
        kept(did.utilities),
        kept(did.decisions),
    )
    return _seeded(out, dict(_kept(keep, parents_of.items(), parents_of)))


def _kept(keep, records, nodes) -> Iterator:
    """The ``records`` whose node, given in ``nodes`` in the same order, is
    in ``keep``: the one filter of barren removal, on node ids
    (``_restrict``) and on node positions (``_Plan.of``)."""
    return compress(records, map(keep.__contains__, nodes))


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
    once (``order``).  A node listed twice, an id that is not a node and a
    node's second table or utility, which only a hand-built diagram can
    hold, are model errors."""

    def __init__(self, did: DeployedDid):
        super().__init__({(b, i): f"{b}@{i}" for b, i, _, _ in did.nodes})  # node_name
        if len(self) < len(did.nodes):
            raise _twice(n.id for n in did.nodes)
        self.order = sorted(self)

    def join(self, ids) -> str:
        return " ".join(map(self.__getitem__, ids))

    def by_node(self, records) -> list:
        """Tables or utilities in node order (``arcs`` has checked their nodes)."""
        by_node = {r.node: r for r in records}
        if len(by_node) < len(records):
            raise _twice(r.node for r in records)
        # ``get`` gives None for a node with no record.
        return list(filter(None, map(by_node.get, self.order)))

    def arcs(self, did: DeployedDid) -> list[tuple[str, list[str]]]:
        """Each parent's printed name with its children's, in the order of
        ``sorted(did.arcs)``: children in node order, each appended to its
        parents' lists, and each parent's name looked up once."""
        parents_of = did.parents_of
        children = defaultdict(list, {p: [] for p in self.order})
        for child in self.order:
            shown = self[child]
            for p in parents_of[child]:
                children[p].append(shown)
        # Every node is a key of both: a further key, a record's or a parent's, is no node.
        if len(parents_of) > len(self) or len(children) > len(self):
            raise _no_node(next(n for n in chain(parents_of, children) if n not in self))
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
    arcs = name.arcs(did)  # every id of the diagram is a node's from here
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
    for src, dsts in arcs:
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
    for records in (did.tables, did.utilities):
        name.by_node(records)  # refuses a node's second table or utility
    out.extend(f'  "{name[v]}" -> "super";' for v in did.value_nodes)
    out.append("}")
    return "\n".join(out) + "\n"
