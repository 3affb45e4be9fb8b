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
import zlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, repeat
from operator import attrgetter, is_, sub
from typing import TYPE_CHECKING, NamedTuple

from ._fmt import canonical_json, fmt_float, fmt_int
from ._memo import remember
from .deploy import deploy, table_entry_count
from .model import CondensedTdid, ModelError, ModelFormatError, _decode, _read
from .model import parse as parse_model
from .model import serialize as serialize_model

if TYPE_CHECKING:
    from .solve import Policy

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
        if self.quality is not None and not math.isfinite(self.quality):
            raise MetareasonError(f"entry {self.name!r}: quality {self.quality!r} is not finite")
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

    @cached_property
    def _times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    def __call__(self, t: float) -> float:
        if self.kind == "linear":
            return self.rate * t
        if self.kind == "step":
            return self.penalty if t > self.deadline else 0.0
        ts = self._times
        if t <= ts[0]:
            return self.points[0][1]
        if t >= ts[-1]:
            return self.points[-1][1]
        # The first segment with t1 <= t <= t2: t1 < t there, so t2 > t1.
        k = bisect_left(ts, t)
        (t1, u1), (t2, u2) = self.points[k - 1], self.points[k]
        return u1 + (u2 - u1) * (t - t1) / (t2 - t1)


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


def make_entry(name: str, model: CondensedTdid, tags=()) -> SuiteEntry:
    """Build an unsolved entry, measuring deployed size. Cost defaults to
    the space size (an analytic model with α=1, β=0) until re-costed."""
    space = table_entry_count(deploy(model))
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
        # ``tdid.solve`` loads numpy, so only a call that solves imports it.
        from .solve import solve

        policy = solve(deploy(model))
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


# The Q(t) steps of the suite last swept: the suite's entries, the repr of
# the t0 given (so -0.0 and 0.0 differ), the baseline, and per candidate
# time, ascending, Q there and the entry attaining it.  Only the urgency
# changes from one decision to the next.  A suite matches entry by entry by
# identity: an equal suite of other objects (another knowledge base's) is
# swept again, so its curve names its own entries.
_steps: tuple = ((), None, 0.0, [], [], [])


def _q_steps(suite, t0):
    global _steps
    held, key, base, times, qs, entries = _steps
    if key != repr(t0) or len(held) != len(suite) or not all(map(is_, held, suite)):
        held, key = tuple(suite), repr(t0)
        base = min((e.cost_time for e in suite), default=0.0) if t0 is None else t0
        steps = list(_sweep(suite, float(base)))
        times = [t for t, _ in steps]
        entries = [e for _, e in steps]
        qs = [e.quality for e in entries]
        _steps = (held, key, base, times, qs, entries)
    return base, times, qs, entries


def select(suite, urgency: UrgencyFunction, t0: float | None = None) -> EvcCurve:
    """Pick the deliberation time maximizing EVC, and the model to use.

    Candidates are the suite's distinct cost times ≥ t0, plus t0 itself
    (whose EVC is identically 0, so deliberation never extends at a
    loss).  Ties break toward the smaller time: act sooner.  A t0 of
    None means "the fastest model available": its cheapest cost time.
    One sweep over the suite, sorted once by cost, yields every candidate
    and Q there, and is kept for the next selection on the same entries
    (see ``_steps``); curve values must be finite, checked after the
    sweep, so its own errors come first.
    """
    t0, times, qs, entries = _q_steps(suite, t0)
    us = list(map(urgency, times))
    q_t0, u_t0 = qs[0], urgency(t0)
    ucs = list(map(sub, qs, us))
    evcs = list(map(sub, map(sub, qs, repeat(q_t0)), map(sub, us, repeat(u_t0))))
    if not (all(map(math.isfinite, ucs)) and all(map(math.isfinite, evcs))):
        for t, uc, v in zip(times, ucs, evcs):
            if not (math.isfinite(uc) and math.isfinite(v)):
                raise MetareasonError(f"EVC curve is not finite at t={fmt_float(t)}")
    k = evcs.index(max(evcs))  # the first of equal maxima: act sooner
    points = list(map(tuple.__new__, repeat(EvcPoint), zip(times, qs, ucs, evcs)))
    return EvcCurve(float(t0), tuple(points), times[k], entries[k])


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
    """Read every ``*.entry`` manifest (and the model file it names) in a
    directory.

    Every manifest is read on every call, and every model file a manifest
    names once per call, however many manifests name it.  An entry whose
    manifest and model file hold the same bytes as at its directory's last
    successful load is returned as that load built it (see
    ``_directories``); any other entry is read afresh, and entries read
    afresh in one call whose model files hold equal bytes share one parsed
    model.  The directory is opened once, and every file is opened
    relative to that descriptor.
    """
    path = pathlib.Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"knowledge base {str(path)!r} is not a directory")
    root = str(path)
    key = os.path.abspath(root)  # one directory, however it is spelled
    held = _directories.get(key) or _Directory([], [], {})  # [] has no manifest
    dir_fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        listing = os.listdir(dir_fd)
        names = held.names if held.listing == listing else _manifests(listing)
        prefix = os.path.join(root, "")  # a listed name holds no separator
        # ``files``: model file name -> its bytes, read at this load's first
        # request for it (``read``); ``models``: see ``_read_entry``.
        records, files, models = {}, {}, {}

        def read(model_file: str) -> bytes:
            data = files.get(model_file)
            if data is None:
                data = files[model_file] = _read(
                    prefix + model_file, dir_fd=dir_fd, name=model_file
                )
            return data

        for n in names:
            data = _read(prefix + n, dir_fd=dir_fd, name=n)
            record = held.records.get(n)
            if record is not None and record.manifest == data:
                try:
                    kept = read(record.model_file) == record.model
                except OSError:
                    kept = False  # read again, and reported, below
                if kept:
                    # The record's equal bytes stand for the file, so the
                    # read is freed now, not held to the load's end: a
                    # knowledge base with one model file per entry loads no
                    # slower.
                    files[record.model_file] = record.model
                    records[n] = record
                    continue
            records[n] = _read_entry(n, data, read, models)
    finally:
        os.close(dir_fd)
    if not records:
        raise MetareasonError(f"knowledge base {str(path)!r} has no entries")
    _directories.pop(key, None)
    remember(_directories, key, _Directory(listing, names, records), _KB_CAP)
    return [r.entry for r in records.values()]


def _manifests(listing: list[str]) -> list[str]:
    """The manifest names of a directory listing, sorted; each must name
    an entry, and in UTF-8, since entry names go into reports."""
    names = sorted(n for n in listing if n.endswith(".entry"))
    for n in names:
        if n == ".entry":
            raise MetareasonError("manifest name '.entry' names no entry")
        try:
            n.encode("utf-8")
        except UnicodeEncodeError:
            raise MetareasonError(f"manifest name {n!r} is not valid UTF-8") from None
    return names


@dataclass(eq=False, slots=True)
class _Record:
    """One manifest's last successful load: its bytes, the name and bytes
    of the model file it names, and the entry built from them."""

    manifest: bytes
    model_file: str
    model: bytes
    entry: SuiteEntry


@dataclass(eq=False, slots=True)
class _Directory:
    """A knowledge base's last successful load: its ``os.listdir``, the
    manifest names derived from it, and each manifest's record by name."""

    listing: list[str]
    names: list[str]
    records: dict[str, _Record]


# Absolute directory path -> its last successful load, least recently
# loaded first and at most _KB_CAP of them.  An entry is a pure function
# of its two files' bytes and entries are immutable, so equal bytes may
# return the same entry.  A load keeps the records of the manifests it lists.
_KB_CAP = 8
_directories: dict[str, _Directory] = {}


def _read_entry(name: str, data: bytes, read, models: dict) -> _Record:
    """Manifest ``name``, holding ``data``, read afresh: ``read`` gives the
    bytes of the model file it names, and ``models`` maps the model bytes
    this load has parsed to those bytes and their model."""
    try:
        text = _decode(data)
    except ModelFormatError as err:
        raise MetareasonError(f"{name}: {err}") from None
    fields: dict[str, str] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in fields:
            raise MetareasonError(f"{name}: line {n}: duplicate {key!r}")
        fields[key] = rest.strip()
    missing = {"model", "quality", "cost", "space", "intervals"} - set(fields)
    if missing:
        raise MetareasonError(f"{name}: missing {', '.join(sorted(missing))}")
    model_file = fields["model"]
    # A file of this directory only: no path, no "..", no NUL for open().
    plain = model_file not in ("", ".", "..") and "\0" not in model_file
    if not plain or os.path.dirname(model_file):
        raise MetareasonError(
            f"{name}: model must be a file name in the knowledge "
            f"base, got {model_file!r}"
        )
    try:
        model_bytes = read(model_file)
    except OSError as err:
        raise MetareasonError(f"{name}: cannot read model: {err}") from err
    shared = models.get(model_bytes)
    if shared is None:
        try:
            shared = models[model_bytes] = (model_bytes, parse_model(model_bytes))
        except ModelFormatError as err:
            raise MetareasonError(f"{name}: {model_file}: {err}") from None
    model_bytes, model = shared

    def number(key, kind):
        try:
            x = kind(fields[key])
            if kind is int or math.isfinite(x):  # an int is finite, however long
                return x
        except ValueError:
            pass
        raise MetareasonError(
            f"{name}: {key} must be a finite {kind.__name__}, got {fields[key]!r}"
        )

    entry = SuiteEntry(
        name=name[: -len(".entry")],
        model=model,
        cost_time=number("cost", float),
        space_size=number("space", int),
        n_intervals=number("intervals", int),
        quality=None if fields["quality"] == "unsolved" else number("quality", float),
        tags=tuple(fields.get("tags", "").split()),
    )
    return _Record(data, model_file, model_bytes, entry)


def write_entry(kb_dir, entry: SuiteEntry) -> pathlib.Path:
    """Write the entry's model file, unless the directory already holds
    its bytes (see ``_model_file``), then ``<name>.entry`` naming it.  The
    name must be a file name and each tag a word without ``#``, in UTF-8,
    so that ``load_kb`` reads the entry back.  A model file written here is
    removed again if the manifest cannot be written."""
    if not entry.name or {"\0", os.sep, os.altsep} & set(entry.name):
        raise MetareasonError(
            f"entry name {entry.name!r} must be a nonempty file name, "
            "without a path separator or NUL"
        )
    try:
        entry.name.encode("utf-8")
    except UnicodeEncodeError:
        raise MetareasonError(f"entry name {entry.name!r} must be valid UTF-8") from None
    for tag in entry.tags:
        # A tag with no UTF-8 form (a lone surrogate) changes when encoded.
        if tag.split() != [tag] or "#" in tag or tag.encode("utf-8", "replace").decode() != tag:
            raise MetareasonError(
                f"entry {entry.name!r}: tag {tag!r} must be nonempty UTF-8, "
                "without whitespace or '#'"
            )
    kb_dir = pathlib.Path(kb_dir)
    kb_dir.mkdir(parents=True, exist_ok=True)
    model_file, written = _model_file(kb_dir, serialize_model(entry.model).encode("utf-8"))
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
    try:
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError:
        if written:  # a reused file may be another entry's model
            (kb_dir / model_file).unlink()
        raise
    return out


def _model_file(kb_dir: pathlib.Path, data: bytes) -> tuple[str, bool]:
    """The name of a model file in ``kb_dir`` holding ``data``, written
    there unless one is already, and whether it was written.  The name is
    ``m<crc32><length>.tdid`` (both hex) of ``data``, or, where a file of
    that name holds other bytes, the first of ``-1``, ``-2``, ... inserted
    before ``.tdid`` that is free or holds ``data``.  No file is ever
    rewritten, so the entries naming one keep their model."""
    stem = f"m{zlib.crc32(data):08x}{len(data):x}"
    for k in count():
        name = f"{stem}-{k}.tdid" if k else f"{stem}.tdid"
        try:
            with open(kb_dir / name, "xb") as fh:
                fh.write(data)
            return name, True
        except FileExistsError:
            try:
                if _read(str(kb_dir / name)) == data:
                    return name, False
            except OSError:
                pass  # not a readable file holding data: try the next name


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
