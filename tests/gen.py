"""Random valid condensed models for property and oracle tests.

Models are kept deliberately small: binary states by default and a bounded
number of deployed non-value nodes, so the brute-force oracle stays cheap.
"""

from __future__ import annotations

import math

import numpy as np

from tdid.model import (
    CHANCE,
    DECISION,
    INST,
    LAG,
    VALUE,
    Arc,
    CondensedTdid,
    TabularCpd,
    TemporalVariable,
    UtilityTable,
    parent_signature,
    validate,
)


def corpus(n, seed, max_policies=512, states=(2, 2), with_decision=False):
    """n random models whose policy spaces stay oracle-enumerable; with
    ``with_decision``, only models whose deployed form keeps a decision.
    ``states`` is passed to ``random_model``."""
    from tdid.deploy import deploy
    from tdid.solve import policy_space_size

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        m = random_model(rng, states=states)
        did = deploy(m)
        if with_decision and not did.decisions:
            continue
        if 0 < policy_space_size(did) <= max_policies:
            out.append((m, did))
    return out


def random_model(
    rng: np.random.Generator,
    max_deployed_nonvalue: int = 8,
    max_decisions: int = 2,
    states: tuple[int, int] = (2, 2),
) -> CondensedTdid:
    """One random valid model with ≤ max_deployed_nonvalue non-value nodes.

    Each chance and decision variable gets between ``states[0]`` and
    ``states[1]`` states.  The binary default draws no state counts, so it
    consumes the generator exactly as it always has.
    """
    first = int(rng.integers(1, 3))
    n_master = int(rng.integers(1, 5))
    master = [first]
    for _ in range(n_master - 1):
        master.append(master[-1] + int(rng.integers(1, 3)))
    master = tuple(master)

    n_nonvalue = int(rng.integers(1, max(2, max_deployed_nonvalue // len(master) + 1)))
    n_nonvalue = max(1, min(n_nonvalue, max_deployed_nonvalue // len(master)))
    n_decisions = int(rng.integers(0, min(max_decisions, n_nonvalue) + 1))

    variables: list[TemporalVariable] = []
    for k in range(n_nonvalue):
        kind = DECISION if k < n_decisions else CHANCE
        name = f"{'D' if kind == DECISION else 'C'}{k}"
        times = _random_times(rng, master)
        n_states = 2
        if states != (2, 2):
            n_states = int(rng.integers(states[0], states[1] + 1))
        labels = tuple(f"s{j}" for j in range(n_states))
        variables.append(TemporalVariable(name, kind, labels, times))
    rng.shuffle(variables)

    n_values = int(rng.integers(1, 3))
    for k in range(n_values):
        variables.append(
            TemporalVariable(f"V{k}", VALUE, (), _random_times(rng, master))
        )

    nonvalue = [v for v in variables if v.kind != VALUE]
    values = [v for v in variables if v.kind == VALUE]

    arcs: list[Arc] = []
    # Instantaneous arcs follow the shuffled order, so they stay acyclic.
    for i, child in enumerate(nonvalue):
        for parent in nonvalue[:i]:
            if rng.random() < 0.4:
                arcs.append(Arc(parent.name, child.name, INST))
    for child in values:
        for parent in nonvalue:
            if rng.random() < 0.5:
                arcs.append(Arc(parent.name, child.name, INST))
        if not any(a.dst == child.name for a in arcs):
            pick = nonvalue[int(rng.integers(0, len(nonvalue)))]
            arcs.append(Arc(pick.name, child.name, INST))
    for child in variables:
        for parent in nonvalue:
            if rng.random() < 0.25:
                arc = Arc(parent.name, child.name, LAG)
                if arc not in arcs:
                    arcs.append(arc)

    draft = CondensedTdid(master, tuple(variables), tuple(arcs), (), ())

    cpds: list[TabularCpd] = []
    utilities: list[UtilityTable] = []
    for v in variables:
        if v.kind == DECISION:
            continue
        sigs = {i: parent_signature(draft, v.name, i) for i in v.times}
        stationary_ok = len(set(sigs.values())) == 1
        if stationary_ok and (len(v.times) == 1 or rng.random() < 0.5):
            targets: list[int | None] = [None]
        else:
            targets = list(v.times)
        for i in targets:
            sig = sigs[v.times[0] if i is None else i]
            n_rows = math.prod(len(draft.variable(p).states) for p, _ in sig)
            if v.kind == CHANCE:
                rows = _random_rows(rng, n_rows, len(v.states))
                cpds.append(TabularCpd(v.name, i, sig, rows))
            else:
                vals = tuple(float(x) for x in rng.uniform(-10, 10, n_rows).round(3))
                utilities.append(UtilityTable(v.name, i, sig, vals))

    model = CondensedTdid(master, tuple(variables), tuple(arcs), tuple(cpds), tuple(utilities))
    problems = validate(model)
    assert not problems, problems  # generator bug, not a test failure
    return model


def _random_times(rng: np.random.Generator, master: tuple[int, ...]) -> tuple[int, ...]:
    keep = [master[0]]
    keep += [i for i in master[1:] if rng.random() < 0.6]
    return tuple(keep)


def _random_rows(
    rng: np.random.Generator, n_rows: int, n_states: int = 2
) -> tuple[tuple[float, ...], ...]:
    rows = []
    for _ in range(n_rows):
        if n_states == 2:
            p = round(float(rng.uniform(0.05, 0.95)), 4)
            rows.append((p, 1.0 - p))  # exact row sum by construction
        else:
            w = rng.uniform(0.05, 1.0, n_states)
            head = [round(float(x), 4) for x in w[:-1] / w.sum()]
            rows.append((*head, 1.0 - sum(head)))  # sums to 1 within 1e-15
    return tuple(rows)
