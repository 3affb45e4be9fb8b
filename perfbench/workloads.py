"""The workloads' ops, the run's shared phases, and the correctness checks.

Import this module only after ``tdid`` has been imported for the last
time: the functions below call the layers through module attributes
(``sol.solve``), which is where ``spans.Tracer.install`` puts its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import traceback
from dataclasses import dataclass, replace

from tdid import abstraction as abst
from tdid import cli
from tdid import deploy as dep
from tdid import metareason as meta
from tdid import model as mdl
from tdid import solve as sol

import inputs

# brute_force runs only where the policy space is at most POLICY_CAP and the
# dense joint it enumerates over has at most DENSE_CAP cells; evaluate_policy
# checks outside the timed ops use the same DENSE_CAP.
POLICY_CAP = 64
DENSE_CAP = 2**13
# Cardiac redraws checked against brute_force, at every horizon under the caps.
ORACLE_REDRAWS = 4
MEU_TOL = 1e-9


class Tally:
    """Ops and checks attempted, and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """Run fn, counting an exception as a failure; returns (ok, result)."""
        try:
            return True, fn(*args)
        except Exception:
            self.record(False, f"{what}: {traceback.format_exc(limit=3)}")
            return False, None


# ---------------------------------------------------------------------------
# Ops.  Each returns (output, ok); the output must be identical every time
# the same input comes round again.


def cardiac_op(texts):
    """The ladder T=1..3 of one redraw: parse, deploy, solve, evaluate, JSON."""
    outs = []
    ok = True
    for text in texts:
        did = dep.deploy(mdl.parse(text))
        policy = sol.solve(did)
        value = sol.evaluate_policy(did, policy)
        ok = ok and abs(policy.meu - value) <= MEU_TOL
        outs.append(sol.policy_json(did, policy))
    return tuple(outs), ok


def long_deploy_op(text):
    """One long model from text to its collapsed, serialized deployed form."""
    did = dep.deploy(mdl.parse(text), barren=False)
    did = dep.eliminate_barren(did)
    did = dep.collapse_copies(did)
    ok = not any(n.kind == dep.COPY for n in did.nodes)
    return dep.serialize_deployed(did), ok


def kb_select_op(kb_dir, urgency_text):
    """One decision-time selection, as ``tdid select --policy-out`` makes it."""
    urgency = meta.parse_urgency(urgency_text)
    result = meta.construct(kb_dir, meta.Problem(urgency))
    did = dep.deploy(result.entry.model)
    return Selection.of(result, sol.policy_json(did, result.policy)), True


@dataclass(frozen=True)
class Selection:
    t_star: float
    model: str
    points: tuple[tuple[float, float, float, float], ...]  # (t, Q, uc, evc)
    meu: float
    policy_json: str

    @staticmethod
    def of(result, policy_json: str) -> "Selection":
        curve = result.curve
        points = tuple((p.t, p.q, p.uc, p.evc) for p in curve.points)
        return Selection(curve.t_star, curve.best.name, points, result.policy.meu, policy_json)


def batch(workload: str, inp: inputs.Inputs, kb_dir) -> list:
    """The workload's fixed timed work: (key, op, argument) per op."""
    if workload == "cardiac-horizon":
        return [(("cardiac", r), cardiac_op, texts) for r, texts in enumerate(inp.cardiac)]
    if workload == "long-deploy":
        return [
            (("long", shape, t), long_deploy_op, text)
            for shape, t, text in inp.long_deploy
        ]
    if workload == "kb-select":
        return [
            (("select", k), lambda u: kb_select_op(kb_dir, u), u)
            for k, u in enumerate(inp.urgencies)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Knowledge-base write phase


@dataclass(frozen=True)
class Written:
    name: str
    cost: float
    quality: float
    policy: object
    model: object


def build_kb(inp: inputs.Inputs, kb_dir: pathlib.Path, tally: Tally, meter):
    """Enumerate the lattice, then annotate, jitter the cost of and write
    every variant.  Returns what was written, in suite (name) order, and
    the raw and normalized seconds it took."""
    spec = abst.parse_lattice(inp.kb_lattice)
    variants, raw, norm = meter.time(
        abst.enumerate_abstractions, mdl.parse(inp.kb_model), spec
    )
    written = []
    for k, variant in enumerate(variants):
        name = f"v{k:03d}"

        def annotate():
            entry = meta.make_entry(name, variant.model, variant.tags)
            entry, policy = meta.solve_entry(entry)
            entry = replace(entry, cost_time=entry.cost_time * inp.cost_jitter[k])
            meta.write_entry(kb_dir, entry)
            return Written(name, entry.cost_time, entry.quality, policy, variant.model)

        ok, timed = tally.attempt(f"kb entry {name}", meter.time, annotate)
        if ok:
            tally.record(True, name)
            written.append(timed[0])
            raw += timed[1]
            norm += timed[2]
    return written, raw, norm


# ---------------------------------------------------------------------------
# Checks, run outside the timed phase


def _dense_cells(did) -> int:
    return math.prod(len(n.states) for n in did.nodes if n.kind != mdl.VALUE)


def _oracle(tally: Tally, what: str, did, meu: float) -> None:
    if sol.policy_space_size(did) > POLICY_CAP or _dense_cells(did) > DENSE_CAP:
        return
    ok, ref = tally.attempt(what, sol.brute_force, did)
    if ok:
        tally.record(
            abs(ref.meu - meu) <= MEU_TOL,
            f"{what}: meu {meu!r}, brute force {ref.meu!r}",
        )


def check_oracles(inp: inputs.Inputs, written: list[Written], tally: Tally) -> None:
    """MEUs against brute_force under the caps, and the knowledge base's
    qualities against evaluate_policy of their policies."""
    for r, texts in enumerate(inp.cardiac[:ORACLE_REDRAWS]):
        for horizon, text in zip(inputs.HORIZONS, texts):
            did = dep.deploy(mdl.parse(text))
            _oracle(tally, f"redraw {r} T={horizon}", did, sol.solve(did).meu)
    for w in written:
        did = dep.deploy(w.model)
        _oracle(tally, f"kb entry {w.name}", did, w.quality)
        if _dense_cells(did) <= DENSE_CAP:
            ok, value = tally.attempt(f"evaluate {w.name}", sol.evaluate_policy, did, w.policy)
            if ok:
                tally.record(
                    abs(value - w.quality) <= MEU_TOL,
                    f"kb entry {w.name}: quality {w.quality!r} evaluates to {value!r}",
                )


def _urgency(text: str):
    """The urgency function, parsed and evaluated here, not by the program."""
    kind, _, args = text.partition(":")
    if kind == "linear":
        rate = float(args)
        return lambda t: rate * t
    deadline, penalty = (float(x) for x in args.split(","))
    return lambda t: penalty if t > deadline else 0.0


def quality_steps(written: list[Written]) -> list[tuple[float, Written]]:
    """Q(t) and the entry achieving it at every distinct cost t, straight
    from the definition: the best quality among entries costing at most t,
    ties toward the cheaper entry, then suite order."""

    def best(t):
        out = None
        for w in written:
            if w.cost <= t and (
                out is None
                or w.quality > out.quality
                or (w.quality == out.quality and w.cost < out.cost)
            ):
                out = w
        return out

    return [(t, best(t)) for t in sorted({w.cost for w in written})]


def expected_selection(steps, urgency_text: str):
    """Re-derive (t*, model, curve) from the EVC definition.

    The baseline t0 is the cheapest cost, so the candidates are every cost;
    t* maximizes EVC(t) = [Q(t) - Q(t0)] - [u(t) - u(t0)], ties toward the
    smaller t.
    """
    u = _urgency(urgency_text)
    t0, base = steps[0]
    points = [
        (t, b.quality, b.quality - u(t), (b.quality - base.quality) - (u(t) - u(t0)), b)
        for t, b in steps
    ]
    top = points[0]
    for p in points[1:]:
        if p[3] > top[3]:
            top = p
    return top[0], top[4], points


def _same_selection(got: Selection, want) -> bool:
    t_star, winner, points = want
    return (
        got.t_star == t_star
        and got.model == winner.name
        and abs(got.meu - winner.quality) <= MEU_TOL
        and len(got.points) == len(points)
        and all(
            g[0] == w[0] and all(abs(a - b) <= MEU_TOL for a, b in zip(g[1:], w[1:4]))
            for g, w in zip(got.points, points)
        )
    )


def check_selections(selections: dict, steps, tally: Tally) -> None:
    """Each urgency's selection against the re-derived EVC optimum."""
    for urgency_text, got in selections.items():
        tally.record(
            _same_selection(got, expected_selection(steps, urgency_text)),
            f"selection under {urgency_text} disagrees with the EVC definition",
        )


def _cli(tally: Tally, what: str, argv: list[str], expected: dict) -> None:
    """One in-process ``tdid`` call: exit 0 and byte-identical outputs."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        ok, code = tally.attempt(what, cli.main, argv)
    if not ok:
        return
    same = all(p.is_file() and p.read_bytes() == want.encode() for p, want in expected.items())
    tally.record(
        code == 0 and same,
        f"{what}: exit {code}, outputs {'match' if same else 'differ'}: {stderr.getvalue()}",
    )


def check_cli(inp: inputs.Inputs, kb_dir: pathlib.Path, work: pathlib.Path,
              steps, tally: Tally) -> None:
    """``tdid solve``, ``deploy --collapse`` and ``select`` against direct calls."""
    for horizon, text in zip(inputs.HORIZONS, inp.cardiac[0]):
        path = work / f"cardiac-{horizon}.tdid"
        path.write_text(text)
        did = dep.deploy(mdl.parse(text))
        want = sol.policy_json(did, sol.solve(did)) + "\n"
        out = work / f"solve-{horizon}.json"
        _cli(tally, f"tdid solve T={horizon}", ["solve", str(path), "-o", str(out)], {out: want})

    for shape, horizon, text in inp.long_deploy[: len(inputs.DEPLOY_SHAPES)]:
        path = work / f"{shape}-{horizon}.tdid"
        path.write_text(text)
        want = dep.serialize_deployed(dep.collapse_copies(dep.deploy(mdl.parse(text))))
        out = work / f"deploy-{shape}.txt"
        _cli(tally, f"tdid deploy --collapse {shape}",
             ["deploy", "--collapse", str(path), "-o", str(out)], {out: want})

    for k, urgency in enumerate(inp.urgencies[:2]):
        result = meta.construct(kb_dir, meta.Problem(meta.parse_urgency(urgency)))
        report = meta.selection_report(result.curve, result.policy.meu) + "\n"
        policy = sol.policy_json(dep.deploy(result.entry.model), result.policy) + "\n"
        out, pout = work / f"select-{k}.json", work / f"policy-{k}.json"
        _cli(tally, f"tdid select {urgency}",
             ["select", str(kb_dir), "--urgency", urgency, "-o", str(out),
              "--policy-out", str(pout)],
             {out: report, pout: policy})
        check_selections({urgency: Selection.of(result, policy)}, steps, tally)
