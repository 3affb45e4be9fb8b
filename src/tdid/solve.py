"""Exact solving of deployed influence diagrams.

A policy assigns, for every decision node, one option per joint state of
what that decision observes.  The observation sets here (informational
parents plus earlier decisions, but not earlier chance observations) do
not give perfect recall, so classic backward induction is not exact: an
early decision can be worth changing purely to signal information to a
later one.

Every decision does observe every earlier decision, though, so policy
entries keyed on different decision histories cover disjoint worlds, and

    MEU = max_{rule 1} sum_{a1} max_{rule 2 | a1} sum_{a2} ...

is exact, signaling included.  ``solve`` searches that expression in one
forward pass over a static plan (``_Plan``), whose skeleton depends on the
diagram's structure alone and is built once per structure (``_skeletons``),
with the diagram's tables bound to it per call, one read-only array per
table.  The frontier is the joint of the chance variables some later step
reads; at a decision the search enumerates rules over the observed states
with nonzero mass and branches on each option a rule uses, with the
decision fixed.  Branches that share a decision history run as one batch:
the frontier carries a leading axis over them, so each step is one einsum
for the whole batch, a direct call of numpy's ``c_einsum`` kernel
(``_einsum``).  The last decision needs no enumeration: its utility-to-go
is one backward pass, cached by the decision values the tail reads.
``evaluate_policy`` makes each decision a chance node whose table is its
rule, one-hot over the options, and runs the same plan on that
decision-free diagram: chance steps only, no search (Shachter 1986,
"Evaluating influence diagrams"; Cooper 1988, "A method for using belief
networks as influence diagrams").

``brute_force`` is an independent oracle: it enumerates every
deterministic policy in lexicographic order and evaluates each against
the dense joint distribution.  Both break ties toward the lowest option
index, so they return identical policies up to floating-point ties.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import string
from dataclasses import dataclass

import numpy as np

from ._errors import CapError, OracleCapError, SolveCapError, SolveError
from ._memo import remember
from .deploy import DeployedDid, DeployedTable, NodeId, node_name
from .model import CHANCE, DECISION, VALUE, _ancestors

# numpy's einsum kernel, called without ``np.einsum``'s Python layer: the
# same C function with the same arithmetic, minus the dispatch.  It lives in
# ``numpy._core`` from numpy 2 on and in ``numpy.core`` before.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = [
    "SolveError",
    "CapError",
    "OracleCapError",
    "SolveCapError",
    "DecisionRule",
    "Policy",
    "solve",
    "brute_force",
    "evaluate_policy",
    "policies_agree",
    "policy_json",
    "ORACLE_CAP",
    "FRONTIER_CAP",
    "SEARCH_CAP",
    "policy_space_size",
]

# ``brute_force`` refuses a diagram with more deterministic policies than this.
ORACLE_CAP = 10**6
# The solver refuses, before allocating, a diagram whose largest batch of
# frontiers (the cells one step's einsum loops over) or whose bound on
# search branches exceeds these.  Cardiac at T=8 needs 69,984 cells (2,187
# frontiers of 32) and 335,922 branches, about 0.9 s on a shared 2-vCPU VM
# (0.84 to 1.17 s, best of five solves, over five runs); its 2,015,538
# branches at T=9 are refused.  ``brute_force`` refuses a dense
# joint of more than FRONTIER_CAP cells too.
FRONTIER_CAP = 2**22
SEARCH_CAP = 10**6
_LETTERS = string.ascii_letters  # einsum's subscript alphabet
# Expected utilities within this relative distance of the best are tied
# with it, so ties break toward the lowest option (or the lexicographically
# first rule) whatever the summation order.
_TIE = 1e-12
# The search carries a batch of frontiers; this names their leading axis.
_ROW = ("rows",)


@dataclass(frozen=True)
class DecisionRule:
    """One decision's policy table.

    ``choices[k]`` is the chosen option index for the k-th joint state of
    ``observations`` (last observation varying fastest).
    """

    node: NodeId
    observations: tuple[NodeId, ...]
    choices: tuple[int, ...]


@dataclass(frozen=True)
class Policy:
    rules: tuple[DecisionRule, ...]  # in decision order
    meu: float

    def rule(self, node: NodeId) -> DecisionRule:
        for r in self.rules:
            if r.node == tuple(node):
                return r
        raise SolveError(f"policy has no rule for {node_name(node)}")


# ---------------------------------------------------------------------------
# Shared structure


def _schedule(did: DeployedDid) -> list[NodeId]:
    """Every node in one solving order: chance, copy and value nodes first in,
    first out as their parents are placed, and each decision, in decision
    order, once everything it observes is placed.  Refuses a diagram where
    no order places every node after its parents and every decision after
    what it observes.  Also refuses a chance or copy node with no table, a
    decision node outside the decision order, and a read of anything that
    has no distribution and is not a decision."""
    order = did.decision_order
    info = did.info_by_decision
    tables = did.table_by_node
    for n in did.nodes:
        if n.kind == VALUE:
            continue
        if not n.states:
            raise SolveError(f"{node_name(n.id)} has no states")
        if n.kind == DECISION:
            if n.id not in info:
                raise SolveError(f"{node_name(n.id)} is not in the decision order")
        elif n.id not in tables:
            raise SolveError(f"{node_name(n.id)} has no distribution")
    for d in order:
        if not did.has_node(d):
            raise SolveError(f"decision order names unknown node {node_name(d)}")
    bare = did.parents_of.keys() - tables.keys() - info.keys()
    waiting: dict[NodeId, int] = {}
    children: dict[NodeId, list[NodeId]] = {}
    for n, parents in did.parents_of.items():
        if not bare.isdisjoint(parents):
            p = next(p for p in parents if p in bare)
            raise SolveError(f"{node_name(p)} is read but has no distribution")
        if n not in info:
            parents = set(parents)
            waiting[n] = len(parents)
            for p in parents:
                children.setdefault(p, []).append(n)
    ready = collections.deque(n for n, w in waiting.items() if not w)
    schedule: list[NodeId] = []
    placed: set[NodeId] = set()
    for d in order + (None,):
        while ready:
            n = ready.popleft()
            schedule.append(n)
            placed.add(n)
            for c in children.get(n, ()):
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
        if d is None or not placed.issuperset(info[d]):
            break
        ready.append(d)  # placed next, before what it unlocks
    if len(schedule) < len(did.parents_of):
        raise SolveError(
            "information structure is not solvable: no consistent "
            "ordering places every observation before its decision"
        )
    return schedule


def _alignment(scope, target) -> tuple:
    """How a table over the variables ``scope`` broadcasts against the
    superset ``target``: its axis order, then the index adding the rest."""
    return (
        [scope.index(v) for v in target if v in scope],
        tuple(slice(None) if v in scope else None for v in target),
    )


def _domains(did: DeployedDid) -> dict[NodeId, int]:
    return {n.id: len(n.states) for n in did.nodes if n.kind != VALUE}


def _entry_count(did: DeployedDid, d: NodeId) -> int:
    """Entries of the decision's rule: joint states of what it observes."""
    return math.prod(len(did.states(o)) for o in did.info_by_decision[d])


def policy_space_size(did: DeployedDid) -> int:
    """Number of deterministic policies of the diagram."""
    total = 1
    for d in did.decision_order:
        total *= len(did.states(d)) ** _entry_count(did, d)
    return total


# ---------------------------------------------------------------------------
# Exact solver: a search over decision histories


def _cells(scope, domains) -> int:
    return math.prod(domains[v] for v in scope)


def _union(*scopes) -> tuple:
    return tuple(dict.fromkeys(itertools.chain(*scopes)))


def _subscripts(*scopes, out=()) -> str:
    """``np.einsum`` subscripts for operands over the given scopes, each
    variable lettered in the order it is first seen."""
    letter: dict = {}
    for v in itertools.chain(*scopes):
        if v not in letter:  # past the cap the letters wrap; refused below
            letter[v] = _LETTERS[len(letter) % len(_LETTERS)]
    if len(letter) > len(_LETTERS):
        raise SolveCapError(
            f"a solver step reads {len(letter)} variables, above the cap of "
            f"{len(_LETTERS)}"
        )
    words = ["".join([letter[v] for v in scope]) for scope in scopes + (out,)]
    return ",".join(words[:-1]) + "->" + words[-1]


class _Table:
    """Where a CPT or utility table sits in a plan: its scope, and the
    decision axes it moves first, so that fixing the decisions of a
    history is one basic index.  For each diagram, ``bind`` makes the
    table's own read-only array from position ``source`` of
    ``did.utilities`` (``utility``) or of ``did.tables``; the diagram's
    plan holds it as ``arrays[slot]``."""

    __slots__ = (
        "slot", "source", "utility", "shape", "axes", "picks", "scope", "_pick",
    )

    def __init__(self, slot, source, parents, node, dpos, domains):
        self.slot = slot
        self.source = source
        self.utility = node is None
        axes = tuple(parents) + ((node,) if node is not None else ())
        self.shape = [domains[v] for v in axes]
        front = [i for i, p in enumerate(parents) if p in dpos]
        self.picks = tuple(dpos[parents[i]] for i in front)
        self._pick = operator.itemgetter(*self.picks) if front else None
        self.axes = None
        if front:
            back = [i for i in range(len(axes)) if i not in front]
            self.axes = front + back
            axes = tuple(axes[i] for i in back)
        self.scope = axes

    def bind(self, flat) -> np.ndarray:
        """The body as this table's read-only array."""
        array = np.array(flat, float).reshape(self.shape)
        if self.axes:
            array = np.ascontiguousarray(array.transpose(self.axes))
        array.flags.writeable = False
        return array

    def at(self, arrays, hist) -> np.ndarray:
        array = arrays[self.slot]
        return array[self._pick(hist)] if self._pick else array


class _ChanceStep:
    __slots__ = ("node", "table", "values", "spec")
    decision = False


class _DecisionStep:
    __slots__ = (
        "node", "j", "options", "values", "scope_in", "observed", "shape",
        "dec_obs", "offsets", "columns", "marginal", "restrict", "to_go",
        "searched",
    )
    decision = True


def _refuse_search(bound: int) -> None:
    if bound > SEARCH_CAP:
        raise SolveCapError(
            f"the search bound reaches {bound} branches, above the cap of {SEARCH_CAP}"
        )


def _refuse_frontier(cells: int) -> None:
    if cells > FRONTIER_CAP:
        raise SolveCapError(
            f"solving holds {cells} frontier cells at once, above the cap of "
            f"{FRONTIER_CAP}"
        )


class _Skeleton:
    """The static schedule of the forward pass for one diagram structure.

    Chance and copy nodes that some value node or decision reads (directly
    or through descendants) are placed as soon as their parents are, and
    decisions in ``decision_order`` as late as possible.  Decisions never
    enter the frontier, since each branch of the search fixes them, so the
    frontier's scope at every step is known here: each chance step is one
    ``np.einsum`` that multiplies in the node's table, sliced at the fixed
    decisions, and sums out what no later step reads.  A value node's
    expected utility is added at the step that places its last parent.
    Every frontier operand has a leading axis over the batch of branches
    that share the decision history (``_ROW``).

    Everything here follows from the diagram's structure: no table's
    numbers are read, and none is kept (``_Plan`` binds them).  The
    constructor refuses a plan whose largest frontier or whose bound on
    search branches exceeds the caps.
    """

    def __init__(self, did: DeployedDid):
        schedule = _schedule(did)
        order = did.decision_order
        info = did.info_by_decision
        dpos = {d: j for j, d in enumerate(order)}
        domains = _domains(did)
        # Per decision: its options, and the joint states of what it
        # observes that the search does not fix.
        shapes = {
            d: (domains[d], _cells([o for o in info[d] if o not in dpos], domains))
            for d in order
        }
        self.search_bound = _search_bound([shapes[d] for d in order])
        _refuse_search(self.search_bound)
        tables = did.table_by_node
        reads = [p for u in did.utilities for p in u.parents]
        reads += [o for d in order for o in info[d]]
        needed = _ancestors(did.parents_of, reads).difference(dpos)
        # A node that is not needed never unlocks a needed one, so the needed
        # nodes and decisions keep the order a schedule of them alone gives.
        sequence = [n for n in schedule if n in needed or n in dpos]
        for n in sequence:
            if n in needed:
                did.node(n)  # a table of no node: ModelError, as in brute_force
        pos = {n: s for s, n in enumerate(sequence)}

        # The step each value node (by position) is scored at, and the last
        # step reading each chance variable, from each (step, what it reads).
        scored: dict[int, list] = {}
        readers = [
            (s, info[n] if n in dpos else tables[n].parents)
            for s, n in enumerate(sequence)
        ]
        for k, u in enumerate(did.utilities):
            s = max((pos[p] for p in u.parents), default=-1)
            scored.setdefault(s, []).append(k)
            readers.append((s, u.parents))
        last = {n: s for n, s in pos.items() if n not in dpos}
        for s, parents in readers:
            for p in parents:
                if p in last:
                    last[p] = max(last[p], s)

        # Scopes, then the caps, then the tables.  One batch of the search
        # holds the frontiers that share a decision history: per earlier
        # decision but the last, at most one per nonempty set of its observed
        # states.  The tail after the last decision runs unbatched.
        scopes = []
        cells = []
        scope: tuple = ()
        rows = 1
        for s, n in enumerate(sequence):
            scopes.append(scope)
            if n in dpos:
                cells.append(rows * _cells(scope, domains))
                k, m = shapes[n]
                if n == order[-1]:
                    rows = 1
                elif k > 1:
                    rows *= 2 ** min(m, 64) - 1
                continue
            chance = [p for p in tables[n].parents if p not in dpos]
            joint = _union(scope, chance, (n,))
            cells.append(rows * _cells(joint, domains))
            scope = tuple(v for v in joint if last[v] > s)
        scopes.append(())  # after the end
        self.frontier_cells = max(cells, default=1)
        _refuse_frontier(self.frontier_cells)

        # From the last decision on, the tail (``_plan_to_go``) reads the
        # tables alone, so those steps get no forward einsum spec.
        self.last = pos[order[-1]] if order else len(sequence)
        self.constant = scored.get(-1, [])  # utilities of no parent
        source = {t.node: k for k, t in enumerate(did.tables)}  # as table_by_node
        self.tables: list[_Table] = []  # in slot order
        self.steps: list = []
        for s, n in enumerate(sequence):
            f = _ROW + scopes[s]
            if n in dpos:
                step = self._decision(did, n, dpos, domains, scopes[s])
                ins: tuple = (f,)
            else:
                step = _ChanceStep()
                step.node = n
                step.table = self._table(source[n], tables[n].parents, n, dpos, domains)
                ins = (f, step.table.scope)
                if s < self.last:
                    step.spec = _subscripts(*ins, out=_ROW + scopes[s + 1])
            step.values = []
            for k in scored.get(s, ()):
                t = self._table(k, did.utilities[k].parents, None, dpos, domains)
                spec = _subscripts(*ins, t.scope, out=_ROW) if s < self.last else None
                step.values.append((t, spec))
            self.steps.append(step)
        self.tail: list = []
        self.to_go_reads: tuple = ()
        if order:
            self._plan_to_go()

    def _table(self, source, parents, node, dpos, domains) -> _Table:
        t = _Table(len(self.tables), source, parents, node, dpos, domains)
        self.tables.append(t)
        return t

    @staticmethod
    def _decision(did, d, dpos, domains, scope) -> _DecisionStep:
        step = _DecisionStep()
        step.node = d
        step.j = dpos[d]
        step.options = domains[d]
        step.scope_in = scope
        obs = did.info_by_decision[d]
        strides = [math.prod(domains[o] for o in obs[i + 1 :]) for i in range(len(obs))]
        step.dec_obs = tuple((dpos[o], st) for o, st in zip(obs, strides) if o in dpos)
        observed = tuple(o for o in obs if o not in dpos)
        step.observed = observed
        step.shape = tuple(domains[o] for o in observed)
        # Each observed state (in C order over ``observed``) offsets the
        # entry index by its digits times their strides.
        offsets = [0]
        for o, st in zip(obs, strides):
            if o not in dpos:
                offsets = [x + i * st for x in offsets for i in range(domains[o])]
        step.offsets = offsets
        if step.j == len(dpos) - 1:  # the last decision reads the tail instead
            step.columns = np.arange(len(offsets))
            return step
        step.searched = {}  # live states -> candidates, while searching
        step.marginal = _subscripts(_ROW + scope, out=_ROW + observed)
        step.restrict = _subscripts(_ROW + scope, _ROW + observed, out=_ROW + scope)
        return step

    def _plan_to_go(self) -> None:
        """The backward pass from the end to the last decision.  Its scopes
        lie inside the forward frontiers, so the frontier cap covers it."""
        scope: tuple = ()
        tail = []
        reads: set[int] = set()
        for step in reversed(self.steps[self.last :]):
            terms = [scope] + [t.scope for t, _ in step.values]
            joint = _union(*terms)
            reads.update(j for t, _ in step.values for j in t.picks)
            spec, scope = None, joint
            if not step.decision:
                reads.update(step.table.picks)
                table = step.table.scope
                scope = tuple(v for v in _union(table, joint) if v != step.node)
                spec = _subscripts(table, joint, out=scope)
            tail.append((step, [_alignment(t, joint) for t in terms], spec))
        decision = self.steps[self.last]
        self.tail = tail
        self.to_go_reads = tuple(sorted(reads - {decision.j}))
        # The utility-to-go carries the last decision's options as its
        # first axis; the decision's own node id names that axis.
        decision.to_go = _subscripts(
            _ROW + decision.scope_in,
            (decision.node,) + scope,
            out=_ROW + (decision.node,) + decision.observed,
        )


# Plan skeletons by structure (the key ``_Plan`` builds), oldest first and at
# most _SKELETON_CAP of them.  A skeleton holds no table of any diagram; the
# candidates its decision steps keep depend on the live states alone, so
# every diagram of the structure shares them.
_SKELETON_CAP = 16
_skeletons: dict[tuple, _Skeleton] = {}


class _Plan:
    """The forward pass for one diagram: its structure's skeleton, shared
    through ``_skeletons``, with this diagram's tables bound to it.  The
    caps are compared on every call, so a structure stored under one cap
    is refused under a lower one."""

    def __init__(self, did: DeployedDid):
        key = (
            did.slices,
            did.nodes,
            tuple((t.node, t.parents) for t in did.tables),
            tuple((u.node, u.parents) for u in did.utilities),
            did.decisions,
        )
        skeleton = _skeletons.get(key)
        if skeleton is None:
            skeleton = _Skeleton(did)
            remember(_skeletons, key, skeleton, _SKELETON_CAP)
        self.search_bound = skeleton.search_bound
        self.frontier_cells = skeleton.frontier_cells
        _refuse_search(self.search_bound)
        _refuse_frontier(self.frontier_cells)
        self.steps = skeleton.steps
        self.last = skeleton.last
        utilities = did.utilities
        self.const = sum(float(utilities[k].values[0]) for k in skeleton.constant)
        tables = did.tables
        self.arrays = [
            t.bind(utilities[t.source].values if t.utility else tables[t.source].rows)
            for t in skeleton.tables
        ]
        self.tail = skeleton.tail
        self.to_go_reads = skeleton.to_go_reads
        self.to_go: dict = {}

    # -- the pass --------------------------------------------------------

    def run(self) -> tuple[float, list]:
        """The best policy's expected utility and its chosen entries, as
        (decision position, entry, option) triples."""
        eu, trees = self._forward(0, np.ones(1), ())
        chosen: list = []
        stack = trees
        while stack:
            node = stack.pop()
            if node is not None:
                j, entries, choices, kids = node
                chosen.extend((j, e, c) for e, c in zip(entries, choices))
                stack.extend(kids)
        return self.const + float(eu[0]), chosen

    def _forward(self, s, f, hist):
        """Expected utility from step ``s`` on, and the chosen entries, for
        each row of ``f``: frontiers that share the decision history."""
        eu = np.zeros(len(f))
        steps = self.steps
        while s < self.last:
            step = steps[s]
            if step.decision:
                v, trees = self._decide(s, step, f, hist)
                return eu + v, trees
            table = step.table.at(self.arrays, hist)
            for u, spec in step.values:
                eu += _einsum(spec, f, table, u.at(self.arrays, hist))
            f = _einsum(step.spec, f, table)
            s += 1
        if s == len(steps):
            return eu, [None] * len(f)
        v, trees = self._last_decision(steps[s], f, hist)
        return eu + v, trees

    def _decide(self, s, step, f, hist):
        """Per row, enumerate rules over the observed states with nonzero
        mass and branch on each option a rule uses; keep the first rule
        within _TIE of the best.  The branches of every row that take one
        option share the extended history, so they run on as one batch."""
        base = sum(hist[j] * st for j, st in step.dec_obs)
        mass = _einsum(step.marginal, f).reshape(len(f), -1) > 0
        groups: dict[tuple, list[int]] = {}  # live states -> rows
        for z, nonzero in enumerate(mass.tolist()):
            live = tuple(o for o, m in enumerate(nonzero) if m)
            groups.setdefault(live, []).append(z)
        # Rows with the same live states share their candidates.  Per option,
        # each row's branches are the distinct state sets the candidates
        # give that option: a block of ``len(sets[a])`` items at ``start[a]
        # + r * len(sets[a])`` in the option's batch for the group's r-th row.
        items: list[list] = [[] for _ in range(step.options)]
        layout = []
        for live, zs in groups.items():
            candidates, sets = self._candidates(step, live)
            start = [len(items[a]) for a in range(step.options)]
            for a in range(step.options):
                items[a].extend((z, sel) for z in zs for sel in sets[a])
            layout.append((live, zs, candidates, sets, start))
        done = [
            self._branch(s, step, f, hist + (a,), batch) if batch else None
            for a, batch in enumerate(items)
        ]
        eu = np.empty(len(f))
        trees: list = [None] * len(f)
        for live, zs, candidates, sets, start in layout:
            n = len(zs)
            blocks = [
                done[a][0][start[a] : start[a] + n * len(sels)].reshape(n, -1)
                if sels else None
                for a, sels in enumerate(sets)
            ]
            zero = np.zeros(n)
            totals = np.array(
                [sum((blocks[a][:, i] for a, i in br), zero) for _, br in candidates]
            ).T
            top = np.maximum.reduce(totals, axis=1, keepdims=True)
            best = (totals >= top - _TIE * abs(top)).argmax(axis=1)
            eu[zs] = totals[np.arange(n), best]
            entries = [base + step.offsets[o] for o in live]
            for r, (z, c) in enumerate(zip(zs, best.tolist())):
                cand, br = candidates[c]
                kids = [done[a][1][start[a] + r * len(sets[a]) + i] for a, i in br]
                trees[z] = (step.j, entries, cand, kids)
        return eu, trees

    @staticmethod
    def _candidates(step, live) -> tuple:
        """The candidate rules over the live states, in lexicographic order,
        each with the branches it uses, as (option, index of the set of live
        states taking it); and per option those sets, first seen first.
        They depend on the live states alone, so the step keeps them."""
        if live in step.searched:
            return step.searched[live]
        sets: list[dict] = [{} for _ in range(step.options)]
        out = []
        for cand in itertools.product(range(step.options), repeat=len(live)):
            br = []
            for a in sorted(set(cand)):
                sel = tuple(o for o, c in zip(live, cand) if c == a)
                br.append((a, sets[a].setdefault(sel, len(sets[a]))))
            out.append((cand, br))
        found = step.searched[live] = out, [list(s) for s in sets]
        return found

    def _branch(self, s, step, f, hist, items):
        """For each (row, states) item, the row's worlds where the decision
        (now last in ``hist``) observes one of the states, scored from here
        on: values and chosen entries per item."""
        mask = np.zeros((len(items), len(step.offsets)))
        rows = [i for i, (_, sel) in enumerate(items) for _ in sel]
        mask[rows, [o for _, sel in items for o in sel]] = 1.0
        mask = mask.reshape((len(items),) + step.shape)
        f = _einsum(step.restrict, f[[z for z, _ in items]], mask)
        eu = np.zeros(len(items))
        for u, spec in step.values:
            eu += _einsum(spec, f, u.at(self.arrays, hist))
        rest, trees = self._forward(s + 1, f, hist)
        return eu + rest, trees

    def _last_decision(self, step, f, hist):
        """Best option per row and observed state from the cached
        utility-to-go: the lowest within _TIE of the best."""
        base = sum(hist[j] * st for j, st in step.dec_obs)
        table = _einsum(step.to_go, f, self._utility_to_go(step, hist))
        table = table.reshape(len(f), step.options, -1)
        top = np.maximum.reduce(table, axis=1, keepdims=True)
        choice = (table >= top - _TIE * abs(top)).argmax(axis=1)
        eu = table[np.arange(len(f))[:, None], choice, step.columns].sum(axis=1)
        entries = [base + o for o in step.offsets]
        return eu, [(step.j, entries, row, ()) for row in choice.tolist()]

    def _utility_to_go(self, decision, hist) -> np.ndarray:
        """Expected utility from the last decision on, per option, over
        that decision's frontier."""
        key = tuple(hist[j] for j in self.to_go_reads)
        stacked = self.to_go.get(key)
        if stacked is None:
            per_option = []
            for a in range(decision.options):
                h = hist + (a,)
                g = np.zeros(())
                for step, aligned, spec in self.tail:
                    parts = [g] + [u.at(self.arrays, h) for u, _ in step.values]
                    g = sum(p.transpose(o)[i] for p, (o, i) in zip(parts, aligned))
                    if spec is not None:
                        g = _einsum(spec, step.table.at(self.arrays, h), g)
                per_option.append(g)
            stacked = self.to_go[key] = np.stack(per_option)
        return stacked


def _search_bound(decisions) -> int:
    """Upper bound on the branches the search visits below decisions other
    than the last, or a partial sum once that exceeds SEARCH_CAP.  Each
    (options k, observed states m) pair is a decision in order; it
    enumerates k^m rules and branches on the options each uses:
    k·(k^m − (k−1)^m) branches in all."""
    total, width = 0, 1
    for k, m in decisions[:-1]:
        if m * k.bit_length() > 128:
            return SEARCH_CAP + 1
        width *= k * (k**m - (k - 1) ** m)
        total += width
        if total > SEARCH_CAP:
            return total
    return total


def solve(did: DeployedDid) -> Policy:
    """Maximum-expected-utility policy of the deployed diagram.

    Exact for the module's information structure; ties between options
    break toward the lowest option index for every entry.
    """
    meu, chosen = _Plan(did).run()
    order = did.decision_order
    tables = [[0] * _entry_count(did, d) for d in order]  # unreached: option 0
    for j, e, c in chosen:
        tables[j][e] = c
    return Policy(
        tuple(
            DecisionRule(d, did.info_by_decision[d], tuple(t))
            for d, t in zip(order, tables)
        ),
        meu,
    )


# ---------------------------------------------------------------------------
# Policy evaluation, and the oracle's dense joint


class _Dense:
    """All non-value nodes as axes of one dense array: the oracle's own
    evaluator, independent of the solver's plan.  The chance joint is
    weighted by the total utility once, so a policy costs one product
    with its indicators and one sum."""

    def __init__(self, did: DeployedDid):
        _schedule(did)
        self.did = did
        self.nodes = [n.id for n in did.nodes if n.kind != VALUE]
        self.shape = tuple(len(did.states(n)) for n in self.nodes)
        chance = np.float64(1.0)
        for t in did.tables:
            chance = chance * self._aligned(t.parents + (t.node,), t.rows)
        utility = np.zeros(self.shape)
        for u in did.utilities:
            utility += self._aligned(u.parents, u.values)
        self.weighted = chance * utility

    def _aligned(self, scope, flat) -> np.ndarray:
        """A flat table over ``scope`` on the dense axes."""
        shape = tuple(len(self.did.states(v)) for v in scope)
        order, index = _alignment(scope, self.nodes)
        return np.asarray(flat).reshape(shape).transpose(order)[index]

    def indicator(self, rule: DecisionRule) -> np.ndarray:
        """The rule as one-hot rows over its options, on the dense axes."""
        one_hot = np.eye(len(self.did.states(rule.node)))[list(rule.choices)]
        return self._aligned(rule.observations + (rule.node,), one_hot)

    def expected_utility(self, rules) -> float:
        policy = np.float64(1.0)
        for rule in rules:
            policy = policy * self.indicator(rule)
        return float((self.weighted * policy).sum())


def _check_policy(did: DeployedDid, policy: Policy) -> None:
    have = {r.node for r in policy.rules}
    want = set(did.decision_order)
    if have != want:
        missing = ", ".join(node_name(d) for d in sorted(want - have))
        extra = ", ".join(node_name(d) for d in sorted(have - want))
        raise SolveError(
            "policy does not cover the decisions: "
            + (f"missing {missing}" if missing else f"unknown {extra}")
        )
    if len(policy.rules) != len(want):
        seen = set()
        for r in policy.rules:
            if r.node in seen:
                raise SolveError(
                    f"policy has more than one rule for {node_name(r.node)}"
                )
            seen.add(r.node)
    for r in policy.rules:
        if r.observations != did.info_by_decision[r.node]:
            raise SolveError(
                f"policy for {node_name(r.node)} is keyed on the wrong observations"
            )
        n = _entry_count(did, r.node)
        if len(r.choices) != n:
            raise SolveError(
                f"policy for {node_name(r.node)} has {len(r.choices)} entries, "
                f"needs {n}"
            )
        # An option is an index: 1.0 == 1, but no list takes it as one.
        k = len(did.states(r.node))
        if not all(hasattr(c, "__index__") and 0 <= c < k for c in r.choices):
            raise SolveError(f"policy for {node_name(r.node)} picks an unknown option")


def evaluate_policy(did: DeployedDid, policy: Policy) -> float:
    """Expected total utility of following the fixed policy.

    Each decision becomes a chance node whose table is its rule, one-hot
    over its options, so the plan of that decision-free diagram is chance
    steps alone.  A decision outside the decision order has no rule and
    stays a decision, which the plan refuses as ``solve`` does.
    """
    _check_policy(did, policy)
    rules = {r.node: r for r in policy.rules}
    tables = list(did.tables)
    for d in did.decision_order:  # so every order of the rules shares a skeleton
        r = rules[d]
        k = range(len(did.states(d)))
        one_hot = tuple(tuple(float(a == c) for a in k) for c in r.choices)
        tables.append(DeployedTable(d, r.observations, one_hot))
    fixed = DeployedDid(
        did.slices,
        tuple(n._replace(kind=CHANCE) if n.id in rules else n for n in did.nodes),
        tuple(tables),
        did.utilities,
        (),
    )
    return _Plan(fixed).run()[0]


def brute_force(did: DeployedDid) -> Policy:
    """Exhaustive oracle: try every deterministic policy, keep the best.

    Policies are enumerated lexicographically (decisions in decision
    order, observation states in row order, options ascending) and the
    first maximum is kept, matching ``solve``'s tie-breaking.  Before
    allocating anything it refuses more than ``ORACLE_CAP`` policies or a
    dense joint of more than ``FRONTIER_CAP`` cells (``OracleCapError``).
    """
    size = policy_space_size(did)
    if size > ORACLE_CAP:
        raise OracleCapError(
            f"policy space has {size} policies, above the cap of {ORACLE_CAP}"
        )
    cells = math.prod(_domains(did).values())
    if cells > FRONTIER_CAP:
        raise OracleCapError(
            f"dense joint has {cells} cells, above the cap of {FRONTIER_CAP}"
        )
    dense = _Dense(did)
    per_entry: list[range] = []
    layout: list[tuple[NodeId, int]] = []  # (decision, n_entries)
    for d in did.decision_order:
        m = _entry_count(did, d)
        k = len(did.states(d))
        layout.append((d, m))
        per_entry.extend([range(k)] * m)

    best_eu = None
    best_assign = None
    for assign in itertools.product(*per_entry):
        rules = []
        at = 0
        for d, m in layout:
            rules.append(
                DecisionRule(d, did.info_by_decision[d], assign[at : at + m])
            )
            at += m
        eu = dense.expected_utility(rules)
        if best_eu is None or eu > best_eu:
            best_eu = eu
            best_assign = rules
    return Policy(tuple(best_assign), best_eu)


def policies_agree(
    did: DeployedDid, a: Policy, b: Policy, tol: float = 1e-9
) -> bool:
    """Whether two policies agree wherever it can matter.

    Both must claim the same maximum expected utility (within ``tol``)
    over the same information structure, and both must independently
    evaluate to that optimum.  Choices may still differ on observation
    states -- reachable or not -- whenever the difference costs nothing,
    even when realizing the tie takes coordinated differences across
    several decisions (one decision relaying a signal another decodes);
    any difference that matters shows up as lost expected utility.
    """
    if abs(a.meu - b.meu) > tol:
        return False
    for ra in a.rules:
        rb = b.rule(ra.node)
        if ra.observations != rb.observations:
            return False
    optimum = max(a.meu, b.meu)
    return (
        abs(evaluate_policy(did, a) - optimum) <= tol
        and abs(evaluate_policy(did, b) - optimum) <= tol
    )


def policy_json(did: DeployedDid, policy: Policy) -> str:
    """Policy as JSON with stable key order and canonical floats."""
    from ._fmt import canonical_json

    decisions = []
    for r in policy.rules:
        options = did.states(r.node)
        decisions.append(
            {
                "node": node_name(r.node),
                "parents": [node_name(o) for o in r.observations],
                "table": [options[c] for c in r.choices],
            }
        )
    return canonical_json({"meu": policy.meu, "decisions": decisions})
