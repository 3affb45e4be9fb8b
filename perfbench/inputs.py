"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program is generated here from ``--seed``, as
model text, lattice text and CLI-syntax strings, so the same seed always
gives the same inputs.  The module keeps its own copy of the cardiac
structure (the one in ``fixtures/cardiac.tdid``) and imports nothing from
``tdid`` or the tests: a change to the program, a fixture or a test
generator cannot change a workload.

The seed redraws numbers only (probabilities, utilities, cost jitter and
urgencies).  Structure and sizes are fixed, so every seed asks for the same
amount of work and run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Cardiac arrest resuscitation: every variable is binary.
CARDIAC_VARIABLES = (
    ("chance", "cr", "vf sinus"),
    ("chance", "cbf", "low ok"),
    ("chance", "poa", "long short"),
    ("chance", "CD", "present absent"),
    ("decision", "treat", "aggressive standard"),
    ("value", "U_surv", ""),
    ("value", "U_dmg", ""),
)
CARDIAC_ARCS = (
    "inst cr treat",
    "inst cr cbf",
    "inst treat cbf",
    "inst cbf poa",
    "inst poa CD",
    "inst cr U_surv",
    "inst treat U_surv",
    "inst CD U_dmg",
    "lag cr cr",
    "lag treat cr",
    "lag poa poa",
    "lag CD CD",
)
# (variable, index, parents, number of rows); every row is a binary distribution.
CARDIAC_CPTS = (
    ("cr", "1", "", 1),
    ("cr", "*", "cr treat", 4),
    ("cbf", "*", "cr treat", 4),
    ("poa", "1", "cbf", 2),
    ("poa", "*", "cbf poa", 4),
    ("CD", "1", "poa", 2),
    ("CD", "*", "poa CD", 4),
)
# (variable, parents, number of values); utilities are stationary.
CARDIAC_UTILS = (
    ("U_surv", "cr treat", 4),
    ("U_dmg", "CD", 2),
)

# cardiac-horizon: the horizons one op solves.
HORIZONS = (1, 2, 3)
# cardiac-horizon: distinct redraws cycled through by the ops of a batch.
REDRAWS = 16

# long-deploy: horizons of each shape, small enough that a 20 s run makes
# over 100 ops.  From T=80 to T=160 a linear pass doubles; the quadratic
# hot spots grow 4x.  Fifteen ops of distinct cost put the median and the
# 90th percentile in the middle of one op's samples (the 8th and 14th
# cheapest), not on the edge between two.
DEPLOY_HORIZONS = (80, 100, 120, 140, 160)
DEPLOY_SHAPES = ("dense", "copy-heavy", "barren-heavy")
COPY_STRIDE = 4

# kb-select: abstraction lattice of cardiac at T=6.  3^4 time choices times
# 2^3 group choices = 648 combinations.  Dropping ``flow`` while ``poa`` is
# kept orphans poa's tables, so 2 of the 8 group choices are invalid and
# 486 variants remain.  ``treat`` never keeps more than three indices,
# which keeps every variant's solve small (at most 2^14 policies).
KB_HORIZON = 6
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
KB_COMBINATIONS = 3**4 * 2**3
# Relative cost jitter, so that every variant has a distinct cost time.
COST_JITTER = 0.05
# Decision-time selections per sweep: half linear, half step urgencies.
URGENCIES = 16


@dataclass(frozen=True)
class Inputs:
    cardiac: tuple[tuple[str, ...], ...]  # per redraw, one text per horizon
    long_deploy: tuple[tuple[str, int, str], ...]  # (shape, T, text)
    kb_model: str
    kb_lattice: str
    cost_jitter: tuple[float, ...]  # multiplier per enumerated variant
    urgencies: tuple[str, ...]  # CLI syntax: linear:<rate>, step:<d>,<p>


def draw_parameters(rng: random.Random) -> dict:
    """One redraw of every CPT row and utility value of cardiac."""
    rows = {}
    for var, at, _, n in CARDIAC_CPTS:
        out = []
        for _ in range(n):
            # Six decimals on both sides, so each row sums to exactly 1.
            k = rng.randrange(50_000, 950_001)
            out.append(f"0.{k:06d} 0.{1_000_000 - k:06d}")
        rows[(var, at)] = " , ".join(out)
    utils = {
        var: " ".join(f"{rng.uniform(0.0, 10.0):.3f}" for _ in range(n))
        for var, _, n in CARDIAC_UTILS
    }
    return {"rows": rows, "utils": utils}


def cardiac_text(params: dict, horizon: int, times: dict | None = None) -> str:
    """Model text of cardiac over master 1..horizon.

    ``times`` restricts variables to a subsequence; every table the
    template has stays valid, since each keeps index 1.
    """
    times = times or {}
    out = ["tdid 1", "master " + " ".join(map(str, range(1, horizon + 1)))]
    out.append("tick 1 minute")
    for kind, name, states in CARDIAC_VARIABLES:
        line = f"{kind} {name}" + (f" : {states}" if states else "")
        if name in times:
            line += " ; times " + " ".join(map(str, times[name]))
        out.append(line)
    out.extend(f"arc {a}" for a in CARDIAC_ARCS)
    for var, at, parents, _ in CARDIAC_CPTS:
        sep = f" {parents}" if parents else ""
        out.append(f"cpt {var} @ {at} |{sep} : {params['rows'][(var, at)]}")
    for var, parents, _ in CARDIAC_UTILS:
        out.append(f"util {var} @ * | {parents} : {params['utils'][var]}")
    return "\n".join(out) + "\n"


def shape_times(shape: str, horizon: int) -> dict:
    if shape == "dense":
        return {}
    if shape == "copy-heavy":
        grid = tuple(range(1, horizon + 1, COPY_STRIDE))
        return {"CD": grid, "poa": grid}
    if shape == "barren-heavy":
        return {"U_dmg": (1,)}
    raise ValueError(f"unknown shape {shape!r}")


def urgency_sweep(rng: random.Random) -> tuple[str, ...]:
    """Linear and step urgencies, alternating.  Each is drawn from its own
    equal slice of the range (rates log-uniform over 1e-3..10^-0.5,
    deadlines over 20..300, penalties over 1..30 in a shuffled order), so
    every seed sweeps the range alike and picks a like mix of winners."""
    half = URGENCIES // 2
    slots = list(range(half))
    rng.shuffle(slots)
    out = []
    for k in range(half):
        rate = 10 ** (-3.0 + 2.5 * (k + rng.random()) / half)
        deadline = 20.0 + 280.0 * (k + rng.random()) / half
        penalty = 1.0 + 29.0 * (slots[k] + rng.random()) / half
        out.append(f"linear:{rate!r}")
        out.append(f"step:{deadline!r},{penalty!r}")
    return tuple(out)


def generate(seed: int) -> Inputs:
    rng = random.Random(seed)
    cardiac = tuple(
        tuple(cardiac_text(params, t) for t in HORIZONS)
        for params in (draw_parameters(rng) for _ in range(REDRAWS))
    )
    long_deploy = tuple(
        (shape, t, cardiac_text(draw_parameters(rng), t, shape_times(shape, t)))
        for t in DEPLOY_HORIZONS
        for shape in DEPLOY_SHAPES
    )
    kb_model = cardiac_text(draw_parameters(rng), KB_HORIZON)
    jitter = tuple(
        1.0 + COST_JITTER * rng.random() for _ in range(KB_COMBINATIONS)
    )
    return Inputs(
        cardiac, long_deploy, kb_model, KB_LATTICE, jitter, urgency_sweep(rng)
    )


def probe_text(seed: int, horizon: int) -> str:
    """Cardiac at one horizon for the capacity probe; one redraw per seed."""
    return cardiac_text(draw_parameters(random.Random(seed)), horizon)
