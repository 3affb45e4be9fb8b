"""Condensed-form time-critical dynamic influence diagrams.

A condensed model describes a dynamic decision problem compactly: each
variable stands for a whole family of time-indexed nodes.  The model carries

* a master time sequence (the global, strictly increasing index set),
* temporal chance / decision / value variables, each indexed by a
  subsequence of the master sequence that shares its first index,
* instantaneous arcs (dependence within one slice) and time-lag arcs
  (dependence on the most recent earlier indexed slice of the parent),
* tabular conditional distributions for chance variables and utility
  tables for value variables, either per index or stationary (``@ *``).

Models are immutable after construction and safe to share across threads.
``validate`` reports every violated invariant; ``parse`` / ``serialize``
implement the line-oriented text format documented in the README.
"""

from __future__ import annotations

import errno
import math
import os
import re
from dataclasses import dataclass, replace
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import chain, repeat
from math import isfinite
from operator import le

__all__ = [
    "CHANCE",
    "DECISION",
    "VALUE",
    "INST",
    "LAG",
    "ROW_SUM_TOL",
    "ModelError",
    "ModelFormatError",
    "TemporalVariable",
    "Arc",
    "TabularCpd",
    "UtilityTable",
    "CondensedTdid",
    "parent_signature",
    "validate",
    "parse",
    "serialize",
    "canonical",
]

CHANCE = "chance"
DECISION = "decision"
VALUE = "value"

INST = "inst"
LAG = "lag"

ROW_SUM_TOL = 1e-9

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class ModelError(Exception):
    """Domain error raised by model operations."""


class ModelFormatError(ModelError):
    """Raised by the parser; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TemporalVariable:
    """A time-indexed family of chance, decision, or value nodes."""

    name: str
    kind: str
    states: tuple[str, ...]
    times: tuple[int, ...]


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    kind: str  # INST or LAG


@dataclass(frozen=True)
class TabularCpd:
    """Conditional distribution of one chance variable at one time index.

    ``time_index`` is an integer, or None for a stationary table that covers
    every index of the variable not covered by an explicit table.  Parents
    are (name, role) pairs, role INST or LAG; rows follow the joint parent
    states with the last listed parent varying fastest, columns follow the
    child's states.
    """

    variable: str
    time_index: int | None
    parents: tuple[tuple[str, str], ...]
    table: tuple[tuple[float, ...], ...]

    @property
    def stationary(self) -> bool:
        return self.time_index is None


@dataclass(frozen=True)
class UtilityTable:
    """Additive utility contribution of one value variable at one index."""

    variable: str
    time_index: int | None
    parents: tuple[tuple[str, str], ...]
    values: tuple[float, ...]

    @property
    def stationary(self) -> bool:
        return self.time_index is None


@dataclass(frozen=True)
class CondensedTdid:
    """The condensed model: master sequence, variables, arcs, and tables."""

    master: tuple[int, ...]
    variables: tuple[TemporalVariable, ...]
    arcs: tuple[Arc, ...]
    cpds: tuple[TabularCpd, ...]
    utilities: tuple[UtilityTable, ...]
    tick: tuple[float, str] | None = None  # real duration of one index step

    @cached_property
    def _by_name(self) -> dict[str, TemporalVariable]:
        return {v.name: v for v in self.variables}

    def variable(self, name: str) -> TemporalVariable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def of_kind(self, kind: str) -> tuple[TemporalVariable, ...]:
        return tuple(v for v in self.variables if v.kind == kind)

    @cached_property
    def _arcs_by_dst(self) -> dict[str, list[Arc]]:
        index: dict[str, list[Arc]] = {}
        for a in self.arcs:
            index.setdefault(a.dst, []).append(a)
        return index

    def arcs_into(self, name: str, kind: str | None = None) -> tuple[Arc, ...]:
        return tuple(
            a
            for a in self._arcs_by_dst.get(name, ())
            if kind is None or a.kind == kind
        )

    @cached_property
    def _cpd_positions(self) -> dict[tuple[str, int | None], int]:
        return _table_positions(self.cpds)

    @cached_property
    def _utility_positions(self) -> dict[tuple[str, int | None], int]:
        return _table_positions(self.utilities)

    def table_for(
        self, name: str, i: int | None
    ) -> TabularCpd | UtilityTable | None:
        """The CPD or utility table covering variable ``name`` at index ``i``.

        An explicit table at ``i`` takes precedence; otherwise the stationary
        table applies (``i=None`` asks for it alone).  Returns None when
        neither exists.
        """
        if self.variable(name).kind == VALUE:
            pool, index = self.utilities, self._utility_positions
        else:
            pool, index = self.cpds, self._cpd_positions
        k = index.get((name, i))
        if k is None:
            k = index.get((name, None))
        return None if k is None else pool[k]


def _table_positions(pool) -> dict:
    """(variable, time_index) -> the position in ``pool`` of the table for
    it, keeping the first explicit table at each index and the last
    stationary one, as a scan of the pool would."""
    index = {}
    for k, t in enumerate(pool):
        key = (t.variable, t.time_index)
        if t.time_index is None or key not in index:
            index[key] = k
    return index


def parent_signature(
    model: CondensedTdid, name: str, i: int
) -> tuple[tuple[str, str], ...]:
    """Parents of variable ``name`` at index ``i`` as (name, role) pairs.

    Instantaneous parents come first, then time-lag parents, each in arc
    declaration order.  A lag parent is present only when the parent's
    sequence has some index strictly before ``i``: its first index, since
    callers pass models whose sequences are strictly increasing.  When every
    sequence starts at ``master[0]``, as ``validate`` requires, the signature
    is therefore the same at every index but the first.
    """
    arcs = model._arcs_by_dst.get(name, ())
    by_name = model._by_name
    sig = [(a.src, INST) for a in arcs if a.kind == INST]
    for a in arcs:
        if a.kind == LAG and a.src in by_name and by_name[a.src].times[0] < i:
            sig.append((a.src, LAG))
    return tuple(sig)


# ---------------------------------------------------------------------------
# Validation


def validate(model: CondensedTdid) -> list[str]:
    """Check every model invariant; return one message per violation.

    An empty list means the model is valid and deployable.  Violations are
    reported, never repaired: a denormalized probability row, for example,
    is flagged rather than silently renormalized.
    """
    out: list[str] = []
    _add_faults(out, "master sequence", _sequence_faults(model.master))
    master_ok = not out
    master = set(model.master) if master_ok else None
    names_seen: set[str] = set()

    for v in model.variables:
        where = f"variable {v.name!r}"
        if not _NAME_RE.match(v.name):
            out.append(f"{where}: invalid identifier")
        if v.name in names_seen:
            out.append(f"{where}: duplicate name")
        names_seen.add(v.name)
        if v.kind not in (CHANCE, DECISION, VALUE):
            out.append(f"{where}: unknown kind {v.kind!r}")
            continue
        if v.kind == VALUE:
            if v.states:
                out.append(f"{where}: value variables have no states")
        else:
            if len(v.states) < 2:
                out.append(f"{where}: needs at least 2 states, has {len(v.states)}")
            if len(set(v.states)) != len(v.states):
                out.append(f"{where}: duplicate state labels")
        if master_ok and v.times is model.master:
            continue  # the master's own checks cover it
        faults = _sequence_faults(v.times)
        if faults:
            _add_faults(out, f"{where} times", faults)
        if master_ok and v.times:
            if not master.issuperset(v.times):
                out.append(f"{where}: times not a subset of the master sequence")
            elif v.times[0] != model.master[0]:
                out.append(
                    f"{where}: first index {v.times[0]} differs from master "
                    f"first index {model.master[0]}"
                )

    structure_ok = not out

    arc_triples: set[tuple[str, str, str]] = set()
    for a in model.arcs:
        triple = (a.src, a.dst, a.kind)
        faults = []
        if a.kind not in (INST, LAG):
            faults.append("unknown arc kind")
        for end in (a.src, a.dst):
            if end not in names_seen:
                faults.append(f"undeclared variable {end!r}")
        if triple in arc_triples:
            faults.append("duplicate arc")
        arc_triples.add(triple)
        if a.src in names_seen and model._by_name[a.src].kind == VALUE:
            faults.append("value variables have no outgoing arcs")
        if faults:
            _add_faults(out, f"arc {a.kind} {a.src} {a.dst}", faults)

    cycle = _inst_cycle(model) if structure_ok else None
    if cycle:
        out.append("instantaneous arcs form a cycle: " + " -> ".join(cycle))

    if not model.of_kind(VALUE):
        out.append("model has no value variable")

    if model.tick is not None and not 0 < model.tick[0] < math.inf:
        out.append(f"tick duration must be positive and finite, got {model.tick[0]}")

    if not structure_ok:
        return out  # table checks below assume sound structure

    covered: dict[str, set] = {}
    times: dict[str, frozenset] = {}
    for t in chain(model.cpds, model.utilities):
        faults = _table_faults(model, t, covered, times)
        if faults:
            _add_faults(out, _table_name(t), faults)

    # Coverage: every indexed node needs exactly one applicable table.
    for v in model.variables:
        if v.kind == DECISION:
            continue
        label = "cpd" if v.kind == CHANCE else "utility"
        own = covered.get(v.name, ())
        uncovered = [i for i in v.times if i not in own]
        if None not in own:
            out.extend(f"{v.name}: no {label} covers index {i}" for i in uncovered)
            continue
        if not uncovered:
            continue
        # Fit the stationary table to each parent set once (see
        # parent_signature): the first index's, then every later one's.
        if v.kind == CHANCE:
            t = model.cpds[model._cpd_positions[v.name, None]]
        else:
            t = model.utilities[model._utility_positions[v.name, None]]
        have = sorted(t.parents)
        head = 1 if uncovered[0] == v.times[0] else 0
        for same in (uncovered[:head], uncovered[head:]):
            if not same:
                continue
            want = parent_signature(model, v.name, same[0])
            if have != sorted(want):
                misfit = f"{label} {v.name} @ *: parents {_sig(t.parents)} do not match"
                out.extend(f"{misfit} {_sig(want)} required at index {i}" for i in same)

    return out


def _sig(parents) -> str:
    if not parents:
        return "(none)"
    return " ".join(f"{n}/{r}" for n, r in parents)


def _add_faults(out: list[str], where: str, faults: list[str]) -> None:
    """Append each fault to ``out`` as ``where: fault``."""
    out.extend(f"{where}: {fault}" for fault in faults)


def _sequence_faults(seq: tuple[int, ...]) -> list[str]:
    """The faults of an index sequence, each without the sequence's name:
    empty, an index that is not a positive int, or not strictly increasing."""
    if not seq:
        return ["empty"]
    out = []
    if not all(map(isinstance, seq, repeat(int))) or min(seq) < 1:
        out.append("indices must be positive integers")
    if any(map(le, seq[1:], seq)):
        out.append("not strictly increasing")
    return out


def _table_name(t) -> str:
    """How a fault names a table: ``cpd X @ 3``, ``utility U @ *``."""
    label = "cpd" if isinstance(t, TabularCpd) else "utility"
    at = "*" if t.time_index is None else str(t.time_index)
    return f"{label} {t.variable} @ {at}"


def _table_faults(model, t, covered, times) -> list[str]:
    """The faults of one table, each without the table's name; ``covered``
    gathers, per variable, the index (None: stationary) of each of its
    tables of the right class, and ``times`` each variable's indices as a
    set, made when first needed."""
    is_cpd = isinstance(t, TabularCpd)
    i = t.time_index
    by_name = model._by_name
    v = by_name.get(t.variable)
    if v is None:
        return ["undeclared variable"]
    if is_cpd and v.kind != CHANCE:
        return [f"cpd declared for {v.kind} variable"]
    if not is_cpd and v.kind != VALUE:
        return [f"utility declared for {v.kind} variable"]

    out: list[str] = []
    own = covered.setdefault(t.variable, set())
    if i in own:
        out.append("duplicate table")
    own.add(i)

    if i is not None:
        indices = times.get(t.variable)
        if indices is None:
            indices = times[t.variable] = frozenset(v.times)
        if i not in indices:
            out.append(f"index {i} not in the variable's times")

    n_rows = 1
    for pname, role in t.parents:
        p = by_name.get(pname)
        if p is None:
            out.append(f"undeclared parent {pname!r}")
            return out
        if p.kind == VALUE:
            out.append(f"value variable {pname!r} cannot be a parent")
            return out
        n_rows *= len(p.states)

    if i is not None:
        want = parent_signature(model, t.variable, i)
        if sorted(t.parents) != sorted(want):
            out.append(f"parents {_sig(t.parents)} do not match arcs ({_sig(want)})")

    return out + _number_faults(t, n_rows, len(v.states))


def _number_faults(t, n_rows: int, n_cols: int) -> list[str]:
    """The checks of one table's numbers, each fault without the table's
    name: a CPT's row count, row widths, finite entries in [0, 1] and row
    sums, or a utility's value count and finite values.  ``n_rows`` is the
    product of the parents' state counts and ``n_cols`` the child's."""
    out: list[str] = []
    if isinstance(t, TabularCpd):
        if len(t.table) != n_rows:
            out.append(f"expected {n_rows} rows, got {len(t.table)}")
        for r, row in enumerate(t.table):
            if len(row) != n_cols:
                out.append(f"row {r} has {len(row)} entries, expected {n_cols}")
                continue
            if not all(map(isfinite, row)):
                out.append(f"row {r} has non-finite entries")
                continue
            if min(row) < 0.0 or max(row) > 1.0:
                out.append(f"row {r} has entries outside [0, 1]")
            s = sum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                out.append(f"row {r} sums to {s!r}, expected 1")
    else:
        if len(t.values) != n_rows:
            out.append(f"expected {n_rows} values, got {len(t.values)}")
        if not all(map(isfinite, t.values)):
            out.append("utility values must be finite")
    return out


# ---------------------------------------------------------------------------
# Graph helpers


def _inst_cycle(model: CondensedTdid) -> list[str] | None:
    """One cycle among instantaneous arcs, or None: the one ``graphlib``
    finds from each variable, and along arcs, in declaration order."""
    graph = TopologicalSorter()
    for v in model.variables:
        graph.add(v.name)
    for a in model.arcs:
        if a.kind == INST and model.has_variable(a.src) and model.has_variable(a.dst):
            graph.add(a.dst, a.src)
    try:
        graph.prepare()
    except CycleError as err:
        return err.args[1]
    return None


def _ancestors(parents_of, roots, out=None) -> set:
    """The roots and every node with a directed path to one of them, where
    ``parents_of`` maps a node to its parents.  ``out``, if given, is an
    earlier result: it grows in place, and its nodes are not walked again."""
    out = set() if out is None else out
    stack = [r for r in dict.fromkeys(roots) if r not in out]
    out.update(stack)
    while stack:
        for p in parents_of.get(stack.pop(), ()):
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


# ---------------------------------------------------------------------------
# Text format


def parse(text: str | bytes) -> CondensedTdid:
    """Parse model-file text into a CondensedTdid.

    Raises ModelFormatError (with the line number) on syntax errors,
    references to undeclared variables, duplicate declarations, and tables
    at indices the variable is not indexed by.  Numeric invariants such as
    row normalization are left to ``validate``.
    """
    lines = _logical_lines(_decode(text))
    if not lines:
        raise ModelFormatError("empty model file")

    ln, toks = lines[0]
    if toks[:1] != ["tdid"]:
        raise ModelFormatError("expected 'tdid 1' header", ln)
    if toks[1:] != ["1"]:
        raise ModelFormatError(f"unsupported format version {' '.join(toks[1:])!r}", ln)

    master: tuple[int, ...] | None = None
    tick: tuple[float, str] | None = None
    variables: list[TemporalVariable] = []
    var_lines: dict[str, int] = {}
    arcs: list[Arc] = []
    seen_arcs: set[Arc] = set()
    raw_cpds: list[
        tuple[int, str, int | None, list[str], tuple[tuple[float, ...], ...]]
    ] = []
    raw_utils: list[tuple[int, str, int | None, list[str], tuple[float, ...]]] = []

    for ln, toks in lines[1:]:
        head = toks[0]
        if head == "master":
            if master is not None:
                raise ModelFormatError("duplicate master declaration", ln)
            master = tuple(_int(t, ln) for t in toks[1:])
            if not master:
                raise ModelFormatError("master sequence is empty", ln)
        elif head == "tick":
            if tick is not None:
                raise ModelFormatError("duplicate tick declaration", ln)
            if len(toks) != 3:
                raise ModelFormatError("expected: tick <duration> <unit>", ln)
            tick = (_float(toks[1], ln), toks[2])
        elif head in (CHANCE, DECISION, VALUE):
            name, states, times = _parse_variable(head, toks, ln, master)
            if name in var_lines:
                raise ModelFormatError(f"duplicate variable {name!r}", ln)
            var_lines[name] = ln
            variables.append(TemporalVariable(name, head, states, times))
        elif head == "arc":
            if len(toks) != 4 or toks[1] not in (INST, LAG):
                raise ModelFormatError("expected: arc inst|lag <src> <dst>", ln)
            arc = Arc(toks[2], toks[3], toks[1])
            if arc in seen_arcs:
                raise ModelFormatError(
                    f"duplicate arc {arc.kind} {arc.src} {arc.dst}", ln
                )
            seen_arcs.add(arc)
            arcs.append(arc)
        elif head == "cpt":
            name, idx, parents, rows = _parse_table(toks, ln, rows=True)
            raw_cpds.append((ln, name, idx, parents, rows))
        elif head == "util":
            name, idx, parents, values = _parse_table(toks, ln, rows=False)
            raw_utils.append((ln, name, idx, parents, values))
        else:
            raise ModelFormatError(f"unknown directive {head!r}", ln)

    if master is None:
        raise ModelFormatError("missing master declaration")
    for v in variables:
        if v.times == ():
            raise ModelFormatError(
                f"variable {v.name!r} declared before the master sequence "
                "and without a times clause",
                var_lines[v.name],
            )

    # Each declared variable's indices, and each child's instantaneous and
    # lag parents by name.
    times = {v.name: frozenset(v.times) for v in variables}
    into: dict[str, tuple[set[str], set[str]]] = {}
    for a in arcs:
        for end in (a.src, a.dst):
            if end not in times:
                raise ModelFormatError(f"arc references undeclared variable {end!r}")
        into.setdefault(a.dst, (set(), set()))[a.kind == LAG].add(a.src)

    cpds = []
    seen_tables: set[tuple[str, str, int | None]] = set()
    for ln, name, idx, parents, rows in raw_cpds:
        roles = _assign_roles(times, into.get(name), name, parents, ln)
        cpds.append(TabularCpd(name, idx, roles, rows))
        _check_declared(times, "cpt", name, idx, ln, seen_tables)
    utils = []
    for ln, name, idx, parents, values in raw_utils:
        roles = _assign_roles(times, into.get(name), name, parents, ln)
        utils.append(UtilityTable(name, idx, roles, values))
        _check_declared(times, "util", name, idx, ln, seen_tables)

    return CondensedTdid(
        master, tuple(variables), tuple(arcs), tuple(cpds), tuple(utils), tick
    )


def _check_declared(times, label, name, idx, ln, seen) -> None:
    """``times`` maps each declared variable to the set of its indices."""
    if name not in times:
        raise ModelFormatError(f"{label} references undeclared variable {name!r}", ln)
    key = (label, name, idx)
    if key in seen:
        at = "*" if idx is None else idx
        raise ModelFormatError(f"duplicate {label} {name} @ {at}", ln)
    seen.add(key)
    if idx is not None and idx not in times[name]:
        raise ModelFormatError(
            f"{label} {name} @ {idx}: variable is not indexed at time {idx}", ln
        )


def _assign_roles(declared, into, child, parents, ln) -> tuple[tuple[str, str], ...]:
    """Resolve listed parent names to (name, role) pairs using the arcs:
    ``into`` is the child's instantaneous and lag parent names (None when
    no arc enters it), and ``declared`` holds every variable name.

    A parent connected by both an instantaneous and a lag arc must be listed
    twice; the first mention is the instantaneous one.
    """
    inst, lag = into or ((), ())
    used_inst: set[str] = set()
    out = []
    for pname in parents:
        if pname not in declared:
            raise ModelFormatError(
                f"table for {child!r} references undeclared variable {pname!r}", ln
            )
        if pname in inst and pname in lag:
            role = INST if pname not in used_inst else LAG
        elif pname in lag:
            role = LAG
        else:
            # Not a declared lag parent: instantaneous (or reported by
            # validate as a parent mismatch).
            role = INST
        if role == INST:
            used_inst.add(pname)
        out.append((pname, role))
    return tuple(out)


def _parse_variable(kind, toks, ln, master):
    rest = toks[1:]
    times_part: list[str] = []
    if ";" in rest:
        cut = rest.index(";")
        rest, times_part = rest[:cut], rest[cut + 1:]
        if times_part[:1] != ["times"] or len(times_part) < 2:
            raise ModelFormatError("expected: ; times <i> ...", ln)
        times_part = times_part[1:]
    if not rest:
        raise ModelFormatError(f"missing {kind} variable name", ln)
    name = rest[0]
    if not _NAME_RE.match(name):
        raise ModelFormatError(f"invalid variable name {name!r}", ln)
    states: list[str] = []
    if kind == VALUE:
        if len(rest) > 1:
            raise ModelFormatError("value variables take no states", ln)
    else:
        if len(rest) < 2 or rest[1] != ":":
            raise ModelFormatError(f"expected: {kind} <name> : <state> ...", ln)
        states = rest[2:]
        if not states:
            raise ModelFormatError(f"{kind} variable {name!r} lists no states", ln)
    if times_part:
        times = tuple(_int(t, ln) for t in times_part)
    else:
        if master is None:
            times = ()  # resolved (or rejected) after all lines are read
        else:
            times = master
    return name, tuple(states), times


def _parse_table(toks, ln, rows: bool):
    # cpt  <name> @ <i|*> | <parent> ... : r11 r12 ... , r21 ...
    # util <name> @ <i|*> | <parent> ... : v1 v2 ...
    label = toks[0]
    if len(toks) < 3 or toks[2] != "@":
        raise ModelFormatError(f"expected: {label} <name> @ <i|*> | ... : ...", ln)
    name = toks[1]
    idx_tok = toks[3] if len(toks) > 3 else ""
    idx = None if idx_tok == "*" else _int(idx_tok, ln)
    rest = toks[4:]
    if rest[:1] != ["|"]:
        raise ModelFormatError("expected '|' before the parent list", ln)
    rest = rest[1:]
    if ":" not in rest:
        raise ModelFormatError("expected ':' before table entries", ln)
    cut = rest.index(":")
    parents, entries = rest[:cut], rest[cut + 1:]
    for p in parents:
        if not _NAME_RE.match(p):
            raise ModelFormatError(f"invalid parent name {p!r}", ln)
    if rows:
        table: list[list[float]] = [[]]
        for tok in entries:
            if tok == ",":
                table.append([])
            else:
                table[-1].append(_float(tok, ln))
        if any(not row for row in table):
            raise ModelFormatError("empty probability row", ln)
        return name, idx, parents, tuple(map(tuple, table))
    values = tuple(_float(tok, ln) for tok in entries)
    if not values:
        raise ModelFormatError("utility table lists no values", ln)
    return name, idx, parents, values


# Non-blocking by default, so that a FIFO in a knowledge base reads as
# empty (and fails the load) instead of waiting for a writer.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_NONBLOCK", 0)

# No manifest or model comes near this; an endless file (a link to
# /dev/zero, say) fails the read at it instead of exhausting memory.
_READ_CAP = 64 << 20  # bytes per file


def _read(
    path: str, flags: int = _READ_FLAGS, dir_fd: int | None = None, name: str = ""
) -> bytes:
    """The whole file, at most ``_READ_CAP`` bytes, through raw descriptor
    calls opened with ``flags``: ``open()`` would build a file object and
    a buffer for every file of every knowledge-base load.  Given a
    directory descriptor, ``name`` is opened under it, so the directory's
    path is not resolved again; ``path`` still names the file in errors."""
    try:
        fd = os.open(name if dir_fd is not None else path, flags, dir_fd=dir_fd)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    try:
        data = os.read(fd, 1 << 16)
        if data and (chunk := os.read(fd, 1 << 16)):  # past one read: gather
            chunks = [data, chunk]
            size = len(data) + len(chunk)
            while size <= _READ_CAP and (chunk := os.read(fd, 1 << 16)):
                chunks.append(chunk)
                size += len(chunk)
            if size > _READ_CAP:
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
            data = b"".join(chunks)
    except OSError as err:
        # os.read names no file (a directory fails here, not at os.open).
        raise OSError(err.errno, err.strerror, path) from None
    finally:
        os.close(fd)
    return data


def _decode(text: str | bytes) -> str:
    """Text of a model-format file; bytes must be UTF-8."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as err:
        line = text.count(b"\n", 0, err.start) + 1
        raise ModelFormatError("not valid UTF-8 text", line) from None


def _logical_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.append((n, line.split()))
    return out


def _int(tok: str, ln: int) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ModelFormatError(f"expected an integer, got {tok!r}", ln) from None


def _float(tok: str, ln: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ModelFormatError(f"expected a number, got {tok!r}", ln) from None


def canonical(model: CondensedTdid) -> CondensedTdid:
    """The same model with arcs and tables in canonical order.

    Canonical order is what ``serialize`` emits, so
    ``parse(serialize(m)) == canonical(m)`` for every valid model.  Table
    parent order is part of each table (it fixes the row layout) and is
    left untouched.
    """
    order = {v.name: k for k, v in enumerate(model.variables)}

    def table_key(t):
        return (order.get(t.variable, len(order)), t.stationary, t.time_index or 0)

    return replace(
        model,
        arcs=tuple(sorted(model.arcs, key=lambda a: (a.kind, a.src, a.dst))),
        cpds=tuple(sorted(model.cpds, key=table_key)),
        utilities=tuple(sorted(model.utilities, key=table_key)),
    )


def serialize(model: CondensedTdid) -> str:
    """Render a model in canonical form.

    Variables keep declaration order; arcs and tables follow ``canonical``:
    arcs sorted by (kind, src, dst), tables grouped per variable with
    explicit indices ascending and the stationary table last.  Output is
    byte-stable: structurally identical models serialize identically.
    """
    from ._fmt import fmt_float, fmt_int

    model = canonical(model)
    out = ["tdid 1"]
    out.append("master " + " ".join(fmt_int(i) for i in model.master))
    if model.tick is not None:
        out.append(f"tick {fmt_float(model.tick[0])} {model.tick[1]}")

    for v in model.variables:
        line = v.kind + " " + v.name
        if v.kind != VALUE:
            line += " : " + " ".join(v.states)
        if v.times != model.master:
            line += " ; times " + " ".join(fmt_int(i) for i in v.times)
        out.append(line)

    for a in model.arcs:
        out.append(f"arc {a.kind} {a.src} {a.dst}")
    for cpd in model.cpds:
        at = "*" if cpd.stationary else fmt_int(cpd.time_index)
        parents = " ".join(n for n, _ in cpd.parents)
        rows = " , ".join(" ".join(fmt_float(x) for x in row) for row in cpd.table)
        out.append(f"cpt {cpd.variable} @ {at} |{' ' + parents if parents else ''} : {rows}")
    for util in model.utilities:
        at = "*" if util.stationary else fmt_int(util.time_index)
        parents = " ".join(n for n, _ in util.parents)
        vals = " ".join(fmt_float(x) for x in util.values)
        out.append(f"util {util.variable} @ {at} |{' ' + parents if parents else ''} : {vals}")

    return "\n".join(out) + "\n"
