"""In-memory spans around the program's layer boundaries.

The program is not modified.  ``Tracer.install`` rebinds the public layer
functions listed in ``WRAPPED`` to timing wrappers, in every ``tdid``
module namespace that holds them, so calls the layers make to each other
(``construct`` -> ``load_kb`` -> ``parse``) nest as child spans.
``uninstall`` puts the original functions back.

Helpers that a layer calls once per element (``node_name``, ``quality``,
``evc``, ``parent_signature``, ...) are left unwrapped: a span costs about
a microsecond, more than their own work, so their time stays in the
caller's self time.

A span is ``[name, start, end, parent, op, phase]``.  ``op`` is the id of
the benchmark op that caused it and ``phase`` is ``"timed"`` for the
workload's repeated batches or ``"once"`` for the run's one-off phases.
Self time is a span's duration minus the durations of its children; spans
nest strictly because each workload runs in one thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

WRAPPED = {
    "model": ("parse", "validate", "serialize"),
    "deploy": ("deploy", "eliminate_barren", "collapse_copies", "serialize_deployed"),
    "solve": ("solve", "evaluate_policy", "brute_force", "policy_json"),
    "abstraction": ("enumerate_abstractions",),
    "metareason": (
        "make_entry",
        "solve_entry",
        "write_entry",
        "load_kb",
        "select",
        "construct",
        "selection_report",
        "parse_urgency",
    ),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, PHASE = range(6)


def _count_deploy(tracer, args, did):
    tracer.count("deploy.nodes", len(did.nodes))
    tracer.count("deploy.copy_nodes", sum(1 for n in did.nodes if n.kind == "copy"))
    tracer.count(
        "deploy.table_entries", sum(len(t.rows) * len(t.rows[0]) for t in did.tables)
    )


def _count_barren(tracer, args, did):
    tracer.count("deploy.barren_removed", len(args[0].nodes) - len(did.nodes))


def _count_policy(tracer, args, policy):
    tracer.count("solve.policy_entries", sum(len(r.choices) for r in policy.rules))


def _count_enumerate(tracer, args, variants):
    spec = args[1]
    tried = len(spec.choices) ** len(spec.groups)
    for _, alts in spec.times:
        tried *= len(alts)
    tracer.count("abstraction.variants", len(variants))
    tracer.count("abstraction.combinations", tried)


def _count_select(tracer, args, curve):
    tracer.count("metareason.candidates", len(curve.points))


COUNTERS = {
    "deploy.deploy": _count_deploy,
    "deploy.eliminate_barren": _count_barren,
    "solve.solve": _count_policy,
    "abstraction.enumerate_abstractions": _count_enumerate,
    "metareason.select": _count_select,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = -1
        self.phase = "once"
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, self.phase])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped function wherever a tdid module holds it."""
        if self._saved:
            return
        originals = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"tdid.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "tdid" and not modname.startswith("tdid."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Self time of every span, in the spans' order."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
