"""Space and temporal abstraction of condensed models.

Temporal abstraction drops indices from a variable's time sequence; the
variable keeps its tables at the surviving indices and is represented by
copy nodes elsewhere once deployed.  Space abstraction removes variables
outright: utility contributions that depended on a removed variable go
with it, and anything left with no remaining path to a value variable is
barren and removed too.

``enumerate_abstractions`` expands a small lattice specification — allowed
time grids per variable and droppable variable groups — into the suite of
valid model variants used for deliberation-time model selection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .model import (
    CHANCE,
    VALUE,
    CondensedTdid,
    ModelError,
    ModelFormatError,
    _ancestors,
    _decode,
    _logical_lines,
    validate,
)

__all__ = [
    "DependencyError",
    "LatticeSpec",
    "Variant",
    "abstract_time",
    "abstract_space",
    "enumerate_abstractions",
    "parse_lattice",
]


class DependencyError(ModelError):
    """Dropping a variable would orphan retained probability tables.

    Carries the tables that the caller would have to re-specify; nothing
    is marginalized silently.
    """

    def __init__(self, dropped: str, tables: list[str]):
        self.dropped = dropped
        self.tables = list(tables)
        super().__init__(
            f"cannot drop {dropped!r}: retained tables depend on it and "
            "would need re-specification: " + ", ".join(self.tables)
        )


def abstract_time(
    model: CondensedTdid, variable: str, new_times: tuple[int, ...]
) -> CondensedTdid:
    """Restrict one variable to a subsequence of its current indices.

    Only drops indices: the new sequence must be a subset of the old one
    and keep the first index.  Tables at dropped indices are discarded.
    Parent relationships are unchanged at the condensed level — lag
    parents re-resolve to earlier slices at deploy time.
    """
    v = model.variable(variable)
    new_times = tuple(int(i) for i in new_times)
    if not set(new_times) <= set(v.times):
        raise ModelError(
            f"new times for {variable!r} must be a subsequence of its "
            f"current times (abstraction only drops indices)"
        )
    if not new_times or new_times[0] != v.times[0]:
        raise ModelError(f"new times for {variable!r} must keep the first index")
    if any(b <= a for a, b in zip(new_times, new_times[1:])):
        raise ModelError(f"new times for {variable!r} must be strictly increasing")

    keep = set(new_times)
    out = replace(
        model,
        variables=tuple(
            replace(x, times=new_times) if x.name == variable else x
            for x in model.variables
        ),
        cpds=tuple(
            t
            for t in model.cpds
            if t.variable != variable or t.stationary or t.time_index in keep
        ),
        utilities=tuple(
            t
            for t in model.utilities
            if t.variable != variable or t.stationary or t.time_index in keep
        ),
    )
    problems = validate(out)
    if problems:
        raise ModelError("abstraction produced an invalid model: " + "; ".join(problems))
    return out


def abstract_space(model: CondensedTdid, drop) -> CondensedTdid:
    """Remove the given variables, everything that depended on them, and
    everything left without a path to a value variable.

    A value variable with a dropped parent is a dependent utility
    contribution and is removed.  A retained *chance* variable with a
    dropped parent is an error: its tables would need re-specification,
    which is the caller's job.  Decisions merely lose the observation.

    Names not present in the model are ignored, so the operation is
    idempotent: earlier abstraction steps may already have removed a
    group member transitively.
    """
    drop = {str(d) for d in drop if model.has_variable(str(d))}
    if not drop:
        return model

    parents = {
        v.name: {a.src for a in model.arcs_into(v.name)} for v in model.variables
    }
    removed = set(drop)
    for v in model.variables:
        if v.kind == VALUE and v.name not in removed and parents[v.name] & removed:
            removed.add(v.name)

    broken: list[str] = []
    for v in model.variables:
        if v.kind == CHANCE and v.name not in removed and parents[v.name] & drop:
            for t in model.cpds:
                if t.variable == v.name:
                    at = "*" if t.stationary else t.time_index
                    broken.append(f"cpt {v.name} @ {at}")
    if broken:
        raise DependencyError(", ".join(sorted(drop)), broken)

    # Transitive barrenness: no directed path to any surviving value
    # variable.  Arcs into decisions count as paths — an observed variable
    # can still steer choices downstream.
    kept = [v for v in model.variables if v.name not in removed]
    useful = _ancestors(
        {v.name: parents[v.name] - removed for v in kept},
        [v.name for v in kept if v.kind == VALUE],
    )
    removed |= {v.name for v in model.variables if v.name not in useful}

    if not any(v.kind == VALUE for v in kept):
        raise ModelError("abstraction would remove every value variable")

    out = replace(
        model,
        variables=tuple(v for v in model.variables if v.name not in removed),
        arcs=tuple(
            a for a in model.arcs if a.src not in removed and a.dst not in removed
        ),
        cpds=tuple(t for t in model.cpds if t.variable not in removed),
        utilities=tuple(t for t in model.utilities if t.variable not in removed),
    )
    problems = validate(out)
    if problems:
        raise ModelError("abstraction produced an invalid model: " + "; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# Abstraction lattices


@dataclass(frozen=True)
class LatticeSpec:
    """Allowed abstraction choices.

    ``times``: per target (a variable name or ``all``), the alternative
    time sequences.  ``groups``: named droppable variable sets.
    ``choices``: which of keep/drop each group may take.
    """

    times: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...]
    choices: tuple[str, ...] = ("keep", "drop")


@dataclass(frozen=True)
class Variant:
    """One enumerated abstraction, tagged with its lattice coordinates."""

    tags: tuple[str, ...]
    model: CondensedTdid


def parse_lattice(text: str | bytes) -> LatticeSpec:
    """Parse a lattice specification file."""
    times: list[tuple[str, tuple[tuple[int, ...], ...]]] = []
    groups: list[tuple[str, tuple[str, ...]]] = []
    choices: tuple[str, ...] | None = None
    for n, toks in _logical_lines(_decode(text)):
        if toks[0] == "time":
            if len(toks) < 4 or toks[2] != ":":
                raise ModelFormatError("expected: time <var> : <seq> | <seq> ...", n)
            alts, cur = [], []
            for tok in toks[3:]:
                if tok == "|":
                    alts.append(cur)
                    cur = []
                else:
                    try:
                        cur.append(int(tok))
                    except ValueError:
                        raise ModelFormatError(
                            f"expected a time index, got {tok!r}", n
                        ) from None
            alts.append(cur)
            if any(not a for a in alts):
                raise ModelFormatError("empty time sequence alternative", n)
            times.append((toks[1], tuple(tuple(a) for a in alts)))
        elif toks[0] == "space":
            if len(toks) < 4 or toks[2] != ":":
                raise ModelFormatError("expected: space <group> : <var> ...", n)
            groups.append((toks[1], tuple(toks[3:])))
        elif toks[0] == "space-choices":
            body = toks[2:] if toks[1:2] == [":"] else toks[1:]
            if not body or any(c not in ("keep", "drop") for c in body):
                raise ModelFormatError("space-choices must list keep and/or drop", n)
            choices = tuple(body)
        else:
            raise ModelFormatError(f"unknown directive {toks[0]!r}", n)
    if choices is None:
        choices = ("keep", "drop")
    return LatticeSpec(tuple(times), tuple(groups), choices)


def retime(model: CondensedTdid, target: str, seq: tuple[int, ...]) -> CondensedTdid:
    """Apply one time choice: a named variable, or ``all`` of them.

    For ``all``, each variable is restricted to the intersection of its
    current times with the sequence (its first index always survives,
    since the sequence must start the master sequence).
    """
    if target != "all":
        return abstract_time(model, target, seq)
    if not seq or seq[0] != model.master[0]:
        raise ModelError("an 'all' time choice must start at the master's first index")
    chosen = set(seq)
    out = model
    for v in model.variables:
        new_times = tuple(i for i in v.times if i in chosen)
        if new_times != v.times:
            out = abstract_time(out, v.name, new_times)
    return out


def enumerate_abstractions(model: CondensedTdid, spec: LatticeSpec) -> list[Variant]:
    """All valid combinations of the lattice's choices, in odometer order
    (first time line slowest, group choices fastest).  Combinations that
    fail to produce a valid model are skipped; an empty result is an error.

    Each lattice line is one axis; a depth-first walk with an explicit
    stack applies each choice once per prefix, so long lattices stay
    within the interpreter's recursion limit.
    """
    axes = [
        [
            (
                f"time:{target}={','.join(map(str, seq))}",
                partial(retime, target=target, seq=seq),
            )
            for seq in alts
        ]
        for target, alts in spec.times
    ]
    for name, members in spec.groups:
        drop = partial(abstract_space, drop=members)
        axes.append(
            [(f"space:{name}={c}", _keep if c == "keep" else drop) for c in spec.choices]
        )
    out: list[Variant] = []
    stack: list[tuple[tuple[str, ...], CondensedTdid]] = [((), model)]
    while stack:
        tags, current = stack.pop()
        if len(tags) == len(axes):  # one tag per axis
            out.append(Variant(tags, current))
            continue
        children = []
        for tag, step in axes[len(tags)]:
            try:
                children.append((tags + (tag,), step(current)))
            except ModelError:
                pass  # an invalid prefix has no valid completion
        stack.extend(reversed(children))
    if not out:
        raise ModelError("no feasible abstraction: every combination is invalid")
    return out


def _keep(model: CondensedTdid) -> CondensedTdid:
    return model
