"""Deliberation-time model selection.

A suite holds abstracted variants of one decision model, each annotated
with its quality (the maximum expected utility it achieves, once solved)
and its computation cost in time.  Deliberating longer admits better
models but delays action, which an urgency function converts into lost
utility.  The comprehensive value of using model m after deliberating for
time t is u*(m) − urgency(t).

Writing Q(t) for the best quality achievable within cost t, the expected
value of continuing to deliberate from the baseline t0 up to t is

    EVC(t) = [Q(t) − Q(t0)] − [urgency(t) − urgency(t0)]

Q is a right-continuous step function that only rises at the suite's cost
times, and urgency is nondecreasing, so EVC is maximized at one of those
cost times (or at t0 itself); ``select`` evaluates exactly those
candidates, breaks ties toward acting sooner, and reports the winning
deliberation time t*, the model to use, and the full curve.
"""

from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

from ._fmt import canonical_json, fmt_float, fmt_int
from ._memo import remember
from .deploy import deploy, table_entry_count
from .model import CondensedTdid, ModelError, ModelFormatError, _decode, _read
from .model import parse as parse_model
from .model import serialize as serialize_model
from .solve import Policy, solve

__all__ = [
    "MetareasonError",
    "SuiteEntry",
    "UrgencyFunction",
    "CostModel",
    "EvcPoint",
    "EvcCurve",
    "Problem",
    "make_entry",
    "solve_entry",
    "estimate_cost",
    "with_cost",
    "quality",
    "evc",
    "select",
    "prepare_suite",
    "construct",
    "selection_report",
    "parse_urgency",
    "load_kb",
    "write_entry",
]


class MetareasonError(ModelError):
    """Selection cannot proceed as posed."""


def _bad_cost(name: str) -> MetareasonError:
    return MetareasonError(f"entry {name!r}: cost must be finite and nonnegative")


@dataclass(frozen=True)
class SuiteEntry:
    """One candidate model with its selection annotations.

    ``quality`` is the model's maximum expected utility, present once the
    model has been solved.  ``space_size`` counts deployed probability
    table entries (copy identities excluded); ``cost_time`` is the
    deliberation time charged for using the model.
    """

    name: str
    model: CondensedTdid
    cost_time: float
    space_size: int
    n_intervals: int
    quality: float | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 <= self.cost_time < math.inf:
            raise _bad_cost(self.name)
        if self.space_size < 1:
            raise MetareasonError(f"entry {self.name!r}: empty deployed model")
        if self.n_intervals < 0:
            raise MetareasonError(f"entry {self.name!r}: intervals must be nonnegative")


@dataclass(frozen=True)
class UrgencyFunction:
    """Utility lost by delaying action until time t; nondecreasing, 0 at 0.

    Kinds: ``linear`` (rate·t), ``step`` (penalty once t exceeds the
    deadline), ``tabulated`` (piecewise-linear through given points,
    clamped outside their range).
    """

    kind: str
    rate: float = 0.0
    deadline: float = 0.0
    penalty: float = 0.0
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "linear":
            if not 0 <= self.rate < math.inf:
                raise MetareasonError("linear urgency needs a finite nonnegative rate")
        elif self.kind == "step":
            if not (math.isfinite(self.deadline) and 0 <= self.penalty < math.inf):
                raise MetareasonError(
                    "step urgency needs a finite deadline and a finite "
                    "nonnegative penalty"
                )
        elif self.kind == "tabulated":
            ts = [t for t, _ in self.points]
            us = [u for _, u in self.points]
            if not all(map(math.isfinite, ts + us)):
                raise MetareasonError("tabulated urgency needs finite points")
            if not self.points or ts != sorted(ts) or us != sorted(us):
                raise MetareasonError(
                    "tabulated urgency needs points nondecreasing in t and u"
                )
        else:
            raise MetareasonError(f"unknown urgency kind {self.kind!r}")

    @staticmethod
    def linear(rate: float) -> "UrgencyFunction":
        return UrgencyFunction("linear", rate=float(rate))

    @staticmethod
    def step(deadline: float, penalty: float) -> "UrgencyFunction":
        return UrgencyFunction(
            "step", deadline=float(deadline), penalty=float(penalty)
        )

    @staticmethod
    def tabulated(points) -> "UrgencyFunction":
        return UrgencyFunction(
            "tabulated", points=tuple((float(t), float(u)) for t, u in points)
        )

    def __call__(self, t: float) -> float:
        if self.kind == "linear":
            return self.rate * t
        if self.kind == "step":
            return self.penalty if t > self.deadline else 0.0
        ts = [p[0] for p in self.points]
        us = [p[1] for p in self.points]
        if t <= ts[0]:
            return us[0]
        if t >= ts[-1]:
            return us[-1]
        for (t1, u1), (t2, u2) in zip(self.points, self.points[1:]):
            if t1 <= t <= t2:
                if t2 == t1:
                    return u2
                return u1 + (u2 - u1) * (t - t1) / (t2 - t1)
        raise AssertionError("unreachable")


def parse_urgency(text: str) -> UrgencyFunction:
    """Parse CLI syntax: ``linear:<rate>`` or ``step:<deadline>,<penalty>``."""
    kind, _, args = text.partition(":")
    try:
        nums = tuple(float(a) for a in args.split(","))
    except ValueError:
        nums = ()
    if len(nums) != {"linear": 1, "step": 2}.get(kind):
        raise MetareasonError(
            f"cannot parse urgency {text!r}: expected linear:<rate> or "
            "step:<deadline>,<penalty>"
        )
    if not all(map(math.isfinite, nums)):
        raise MetareasonError(f"urgency {text!r}: numbers must be finite")
    if kind == "linear":
        return UrgencyFunction.linear(*nums)
    return UrgencyFunction.step(*nums)


@dataclass(frozen=True)
class CostModel:
    """How deliberation time is charged: α·space + β."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise MetareasonError("cost parameters must be finite and nonnegative")


def estimate_cost(entry: SuiteEntry, cost_model: CostModel) -> float:
    """Deliberation time for the entry under the cost model."""
    try:
        return cost_model.alpha * entry.space_size + cost_model.beta
    except OverflowError:  # a space size past the float range, even at α = 0
        raise _bad_cost(entry.name) from None


def with_cost(entry: SuiteEntry, cost_model: CostModel) -> SuiteEntry:
    return replace(entry, cost_time=estimate_cost(entry, cost_model))


# The model last deployed here, and its deployed form, so that solving an
# entry just made does not deploy its model again.  Matched by identity:
# at most one deployed diagram is held.
_last_deployed: tuple = (None, None)


def _deployed(model: CondensedTdid):
    global _last_deployed
    held, did = _last_deployed
    if held is not model:
        did = deploy(model)
        _last_deployed = (model, did)
    return did


def make_entry(name: str, model: CondensedTdid, tags=()) -> SuiteEntry:
    """Build an unsolved entry, measuring deployed size. Cost defaults to
    the space size (an analytic model with α=1, β=0) until re-costed."""
    did = _deployed(model)
    space = table_entry_count(did)
    return SuiteEntry(
        name=name,
        model=model,
        cost_time=float(space),
        space_size=space,
        n_intervals=len(model.master),
        tags=tuple(tags),
    )


# Models solved here, each to its policy, oldest first and at most
# _POLICY_CAP of them.  ``deploy`` reads only the model's fields and
# ``solve`` only the diagram, so equal models have equal policies: a rule's
# options are picked by comparisons that hold -0.0 and 0.0 equal, and the
# MEU, a sum that starts from int 0, is never -0.0.  The key is the model
# as given, not its canonical form, whose sorted arcs may order a
# decision's observations differently.
_POLICY_CAP = 256
_policies: dict[CondensedTdid, Policy] = {}


def _policy(model: CondensedTdid) -> Policy:
    policy = _policies.get(model)
    if policy is None:
        policy = solve(_deployed(model))
        remember(_policies, model, policy, _POLICY_CAP)
    return policy


def solve_entry(entry: SuiteEntry) -> tuple[SuiteEntry, Policy]:
    """Solve the entry's model; fill in its quality.  Each distinct model
    is solved once per process (see ``_policies``)."""
    policy = _policy(entry.model)
    return replace(entry, quality=policy.meu), policy


def _sweep(suite, t):
    """Yield ``(t, entry)``, then ``(c, entry)`` for each distinct cost time
    c above t, ascending: the entry attaining Q at that time.  Walking the
    suite in stable cost order, a newly affordable entry replaces the best
    only with strictly higher quality: ties go to the cheaper entry, then
    to suite order.  Of equal cost times (``-0.0`` and ``0.0``), the
    first in suite order is yielded."""
    if not suite:
        raise MetareasonError("empty model suite")
    order = sorted(suite, key=attrgetter("cost_time"))
    n = len(order)
    best, k = None, 0
    while True:
        while k < n and order[k].cost_time <= t:
            e, k = order[k], k + 1
            if e.quality is None:  # name the first unsolved entry in suite order
                e = next(x for x in suite if x.quality is None and x.cost_time <= t)
                raise MetareasonError(f"entry {e.name!r} is unsolved; no quality yet")
            if best is None or e.quality > best.quality:
                best = e
        if best is None:
            raise MetareasonError(
                f"no model is computable within t={fmt_float(float(t))}; suites "
                "should include a zero-cost baseline (default action)"
            )
        yield t, best
        if k == n:
            return
        t = order[k].cost_time


def quality(suite, t: float) -> tuple[float, SuiteEntry]:
    """Best quality achievable within deliberation time t, and its entry.

    Ties break toward the cheaper entry, then suite order.
    """
    _, best = next(_sweep(suite, t))
    return best.quality, best


def evc(suite, urgency: UrgencyFunction, t0: float, t: float) -> float:
    """Expected value of extending deliberation from t0 to t."""
    if t < t0:
        raise MetareasonError(f"t={t} is before the baseline t0={t0}")
    q_t, _ = quality(suite, t)
    q_t0, _ = quality(suite, t0)
    return (q_t - q_t0) - (urgency(t) - urgency(t0))


class EvcPoint(NamedTuple):
    t: float
    q: float
    uc: float  # comprehensive value Q(t) − urgency(t)
    evc: float


@dataclass(frozen=True)
class EvcCurve:
    t0: float
    points: tuple[EvcPoint, ...]
    t_star: float
    best: SuiteEntry


def select(suite, urgency: UrgencyFunction, t0: float | None = None) -> EvcCurve:
    """Pick the deliberation time maximizing EVC, and the model to use.

    Candidates are the suite's distinct cost times ≥ t0, plus t0 itself
    (whose EVC is identically 0, so deliberation never extends at a
    loss).  Ties break toward the smaller time: act sooner.  A t0 of
    None means "the fastest model available": its cheapest cost time.
    One sweep over the suite, sorted once by cost, yields every candidate
    and Q there; curve values must be finite, checked once the whole sweep
    has run, so its own errors come first.
    """
    if t0 is None:
        t0 = min((e.cost_time for e in suite), default=0.0)
    points = []
    best_point, best_entry = None, None
    for t, entry in _sweep(suite, float(t0)):
        if not points:
            q_t0, u_t0 = entry.quality, urgency(t0)
        q, u_t = entry.quality, urgency(t)
        point = EvcPoint(t, q, q - u_t, (q - q_t0) - (u_t - u_t0))
        points.append(point)
        if best_point is None or point.evc > best_point.evc:
            best_point, best_entry = point, entry
    for p in points:
        if not (math.isfinite(p.uc) and math.isfinite(p.evc)):
            raise MetareasonError(f"EVC curve is not finite at t={fmt_float(p.t)}")
    return EvcCurve(float(t0), tuple(points), best_point.t, best_entry)


# ---------------------------------------------------------------------------
# Knowledge base


@dataclass(frozen=True)
class Problem:
    """Requirements for a selection run."""

    urgency: UrgencyFunction
    t0: float | None = None  # None: baseline is the cheapest model's cost
    deadline: float | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        for name, x in (("t0", self.t0), ("deadline", self.deadline)):
            if x is not None and not math.isfinite(x):
                raise MetareasonError(f"{name} must be finite, got {x!r}")


def load_kb(path) -> list[SuiteEntry]:
    """Read every ``*.entry`` manifest (and its model file) in a directory.

    Both files of every entry are read on every call.  An entry whose two
    files hold the same bytes as at its last successful load is returned
    as that load built it (see ``_records``); any other entry is read
    afresh.  The directory is opened once, and every file is opened
    relative to that descriptor.
    """
    path = pathlib.Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"knowledge base {str(path)!r} is not a directory")
    root = str(path)
    dir_fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        names = sorted(n for n in os.listdir(dir_fd) if n.endswith(".entry"))
        for n in names:  # an entry's name goes into reports, which are UTF-8
            try:
                n.encode("utf-8")
            except UnicodeEncodeError:
                raise MetareasonError(
                    f"manifest name {n!r} is not valid UTF-8"
                ) from None
        prefix = os.path.join(root, "")  # a listed name holds no separator
        entries = [_load_entry(dir_fd, prefix, n) for n in names]
    finally:
        os.close(dir_fd)
    if not entries:
        raise MetareasonError(f"knowledge base {str(path)!r} has no entries")
    return entries


@dataclass(eq=False, slots=True)
class _Record:
    """One manifest's last successful load: the bytes of both its files
    and the entry built from them."""

    manifest: bytes
    model_path: str
    model_file: str
    model: bytes
    entry: SuiteEntry


# Manifest path -> its record.  An entry is a pure function of its two
# files' bytes and entries are immutable, so equal bytes may return the
# same entry.  A changed file replaces the record.
_records: dict[str, _Record] = {}


def _load_entry(dir_fd: int, prefix: str, name: str) -> SuiteEntry:
    """The entry of manifest ``name`` in the directory open as ``dir_fd``,
    whose path is ``prefix`` (ending in a separator)."""
    manifest = prefix + name
    data = _read(manifest, dir_fd=dir_fd, name=name)
    record = _records.get(manifest)
    if record is not None and record.manifest == data:
        try:
            model = _read(record.model_path, dir_fd=dir_fd, name=record.model_file)
            if model == record.model:
                return record.entry
        except OSError:
            pass  # read again, and reported, below
    record = _records[manifest] = _read_entry(pathlib.Path(manifest), data, dir_fd)
    return record.entry


def _read_entry(manifest: pathlib.Path, data: bytes, dir_fd: int) -> _Record:
    try:
        text = _decode(data)
    except ModelFormatError as err:
        raise MetareasonError(f"{manifest.name}: {err}") from None
    fields: dict[str, str] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in fields:
            raise ModelFormatError(f"duplicate {key!r} in {manifest.name}", n)
        fields[key] = rest.strip()
    missing = {"model", "quality", "cost", "space", "intervals"} - set(fields)
    if missing:
        raise MetareasonError(
            f"{manifest.name}: missing {', '.join(sorted(missing))}"
        )
    model_file = fields["model"]
    # A file of this directory only: no path, no "..", no NUL for open().
    plain = model_file not in ("", ".", "..") and "\0" not in model_file
    if not plain or os.path.dirname(model_file):
        raise MetareasonError(
            f"{manifest.name}: model must be a file name in the knowledge "
            f"base, got {model_file!r}"
        )
    model_path = os.path.join(str(manifest.parent), model_file)
    try:
        model_bytes = _read(model_path, dir_fd=dir_fd, name=model_file)
    except OSError as err:
        raise MetareasonError(f"{manifest.name}: cannot read model: {err}") from err
    try:
        model = parse_model(model_bytes)
    except ModelFormatError as err:
        raise MetareasonError(f"{manifest.name}: {model_file}: {err}") from None

    def number(key, kind):
        try:
            x = kind(fields[key])
            if kind is int or math.isfinite(x):  # an int is finite, however long
                return x
        except ValueError:
            pass
        raise MetareasonError(
            f"{manifest.name}: {key} must be a finite {kind.__name__}, "
            f"got {fields[key]!r}"
        )

    entry = SuiteEntry(
        name=manifest.stem,
        model=model,
        cost_time=number("cost", float),
        space_size=number("space", int),
        n_intervals=number("intervals", int),
        quality=None if fields["quality"] == "unsolved" else number("quality", float),
        tags=tuple(fields.get("tags", "").split()),
    )
    return _Record(data, model_path, model_file, model_bytes, entry)


def write_entry(kb_dir, entry: SuiteEntry) -> pathlib.Path:
    """Write ``<name>.tdid`` and ``<name>.entry`` into the directory."""
    kb_dir = pathlib.Path(kb_dir)
    kb_dir.mkdir(parents=True, exist_ok=True)
    model_file = f"{entry.name}.tdid"
    (kb_dir / model_file).write_text(serialize_model(entry.model), encoding="utf-8")
    lines = [
        f"model {model_file}",
        f"quality {'unsolved' if entry.quality is None else fmt_float(entry.quality)}",
        f"cost {fmt_float(entry.cost_time)}",
        f"space {fmt_int(entry.space_size)}",
        f"intervals {fmt_int(entry.n_intervals)}",
    ]
    if entry.tags:
        lines.append("tags " + " ".join(entry.tags))
    out = kb_dir / f"{entry.name}.entry"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


@dataclass(frozen=True)
class ConstructResult:
    curve: EvcCurve
    entry: SuiteEntry
    policy: Policy
    suite: tuple[SuiteEntry, ...]


def prepare_suite(
    kb_path, problem: Problem
) -> tuple[list[SuiteEntry], dict[str, Policy]]:
    """Load a knowledge base and make it ready for ``select``.

    Keeps the entries carrying the problem's tags and costing at most its
    deadline, and solves any entry still missing its quality.  Returns the
    suite and the policies solved on the way, by entry name.
    """
    suite = load_kb(kb_path)
    if problem.tags:
        want = set(problem.tags)
        suite = [e for e in suite if want <= set(e.tags)]
        if not suite:
            raise MetareasonError("no knowledge-base entry carries the required tags")
    if problem.deadline is not None:
        suite = [e for e in suite if e.cost_time <= problem.deadline]
        if not suite:
            raise MetareasonError(
                f"infeasible deadline: no model is computable within "
                f"{fmt_float(float(problem.deadline))}"
            )

    policies: dict[str, Policy] = {}
    for k, e in enumerate(suite):
        if e.quality is None:
            policies[e.name] = policy = _policy(e.model)
            suite[k] = replace(e, quality=policy.meu)
    return suite, policies


def construct(kb_path, problem: Problem) -> ConstructResult:
    """Full selection pipeline over a knowledge base: ``prepare_suite``,
    ``select``, then the winner's policy (see ``_policies``)."""
    suite, _ = prepare_suite(kb_path, problem)
    curve = select(suite, problem.urgency, problem.t0)
    winner = curve.best
    return ConstructResult(curve, winner, _policy(winner.model), tuple(suite))


def selection_report(curve: EvcCurve, meu: float | None = None) -> str:
    """Selection result as JSON with stable key order; the ``"meu"`` key
    is left out when ``meu`` is None."""
    report = {
        "t0": curve.t0,
        "curve": [{"t": p.t, "Q": p.q, "uc": p.uc, "evc": p.evc} for p in curve.points],
        "t_star": curve.t_star,
        "model": curve.best.name,
    }
    if meu is not None:
        report["meu"] = meu
    return canonical_json(report)
