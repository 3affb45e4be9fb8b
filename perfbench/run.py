"""Benchmark of the tdid pipeline, end to end and per layer.

    python3 perfbench/run.py --workload cardiac-horizon --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload is a closed loop with one client in one
single-threaded process.  Its inputs come from ``inputs.generate(seed)``.

Every time reported is normalized to the machine's momentary speed with
a reference loop timed after each unit of work (see ``meter.py``); the
raw times are printed on the ``#`` info line of each run.

A run has these phases, in order:

1. set-up (``setup_s``): import the program's layers afresh and generate
   the inputs, repeated ``SETUP_REPS`` times; the median is reported.
2. kb-select only: the knowledge-base write phase (``kb_build_s``).
3. the timed phase: the workload's fixed batch of ops, repeated until
   ``--seconds`` have passed.  ``wall_s`` is the median over batches of
   the batch's summed op times, ``op_p50_ms`` / ``op_p90_ms`` are over
   every op of the run, and
   ``peak_rss_mb`` is read from ``getrusage`` right after it.
4. the other workloads: the knowledge-base write phase (``kb_build_s``).
5. the capacity probe (``max_horizon``): a child process with its own
   address-space limit and a wall budget solves and verifies cardiac at
   T = 1, 2, ... until it stops.
6. checks: brute-force oracles, policy evaluation, the EVC re-derivation
   and in-process ``tdid`` CLI calls compared byte for byte.

Every run measures every end-to-end metric, so the knowledge-base build
and the probe run in every workload; each workload's own ops are what
tell the workloads apart.  ``attempted`` counts timed ops, written
knowledge-base entries and check items; ``failed`` counts those that
raised or failed a check, and ``fail_ratio`` is their ratio.

With ``--trace 1`` the same phases run with spans recorded around the
layers' public functions (see ``spans.py``), and timed batches alternate
between untraced and traced.  Per-layer ``*_s`` metrics are self time
summed over the one-off phases plus one traced batch (the traced batches'
sum divided by their number), so they describe a fixed amount of work;
counts are summed the same way.  ``deploy.table_entries`` counts the
entries of every deployed table, copy identities included.
``trace.overhead_s`` is the median traced
batch minus the median untraced batch, and ``trace.coverage`` is the share
of the traced ops' wall time that the layers' self times account for.
Spans (``trace-*.json``) and, untraced, every op's raw and normalized
time (``samples-*.json``) are written to ``.perfbench/`` at the root when
the run ends.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# One thread per workload process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
from meter import Meter  # noqa: E402

WORKLOADS = ("cardiac-horizon", "long-deploy", "kb-select")
LAYERS = ("model", "deploy", "solve", "abstraction", "metareason", "cli")
SETUP_REPS = 5

# Capacity probe: horizons tried, wall budget for the whole ladder, and the
# child's address-space limit.  1.5 GiB stops the 128 GiB request at T=4
# at once and keeps the probe small on a shared machine.
PROBE_CEILING = 8
PROBE_BUDGET_S = 10.0
PROBE_AS_BYTES = 1536 * 2**20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "max_horizon": "slices",
    "kb_build_s": "s",
}

# Per-layer metric -> span name whose self time it sums.
SELF_TIME = {
    "solve.solve_s": "solve.solve",
    "solve.evaluate_policy_s": "solve.evaluate_policy",
    "solve.brute_force_s": "solve.brute_force",
    "solve.policy_json_s": "solve.policy_json",
    "model.parse_s": "model.parse",
    "model.validate_s": "model.validate",
    "model.serialize_s": "model.serialize",
    "deploy.deploy_s": "deploy.deploy",
    "deploy.eliminate_barren_s": "deploy.eliminate_barren",
    "deploy.collapse_copies_s": "deploy.collapse_copies",
    "deploy.serialize_deployed_s": "deploy.serialize_deployed",
    "abstraction.enumerate_s": "abstraction.enumerate_abstractions",
    "metareason.make_entry_s": "metareason.make_entry",
    "metareason.solve_entry_s": "metareason.solve_entry",
    "metareason.write_entry_s": "metareason.write_entry",
    "metareason.load_kb_s": "metareason.load_kb",
    "metareason.select_s": "metareason.select",
    "metareason.construct_s": "metareason.construct",
    "cli.main_s": "cli.main",
}
CALLS = {"solve.solve.calls": "solve.solve", "cli.main.calls": "cli.main"}
COUNTS = (
    "solve.policy_entries",
    "deploy.nodes",
    "deploy.copy_nodes",
    "deploy.barren_removed",
    "deploy.table_entries",
    "abstraction.variants",
    "metareason.candidates",
)


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def set_up(seed: int, meter: Meter) -> tuple[list[float], list[float], inputs.Inputs]:
    """Fresh import of the layers plus input generation, repeated; returns
    the raw and normalized seconds of each repetition, and the inputs.

    numpy is imported once beforehand: it is a dependency, not the
    program's own set-up, and its first import is dominated by the disk.
    """
    import numpy  # noqa: F401

    def once():
        for name in [m for m in sys.modules if m == "tdid" or m.startswith("tdid.")]:
            del sys.modules[name]
        for layer in LAYERS:
            importlib.import_module(f"tdid.{layer}")
        return inputs.generate(seed)

    raw, norm = [], []
    for _ in range(SETUP_REPS):
        inp, r, n = meter.time(once)
        raw.append(r)
        norm.append(n)
    return raw, norm, inp


def timed_phase(work, seconds: float, tally, meter: Meter, tracer):
    """Repeat the batch until ``seconds`` pass.  With a tracer, batches
    alternate untraced / traced and only untraced ops give latencies.

    Returns the (batch, op key, raw, normalized) seconds of every untraced
    op, each batch's normalized time by whether it was traced, and the
    last output of every op."""
    samples: list[tuple[int, str, float, float]] = []
    walls = {False: [], True: []}
    first: dict = {}
    outputs: dict = {}
    deadline = time.perf_counter() + seconds
    op_id = 0

    def traced_op(op, arg):
        idx = tracer.begin("bench.op")
        try:
            return op(arg)
        finally:
            tracer.end(idx)

    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if tracer is not None:
            tracer.phase = "timed"
            (tracer.install if traced else tracer.uninstall)()
        wall = 0.0
        for key, op, arg in work:
            op_id += 1
            if traced:
                tracer.op = op_id
                ok, timed = tally.attempt(f"op {key}", meter.time, traced_op, op, arg)
            else:
                ok, timed = tally.attempt(f"op {key}", meter.time, op, arg)
            if not ok:
                continue
            (out, good), raw, norm = timed
            wall += norm
            if not traced:
                samples.append((len(walls[False]), repr(key), raw, norm))
            if key in first:
                good = good and out == first[key]
            else:
                first[key] = out
            outputs[key] = out
            tally.record(good, f"op {key}: check failed or output changed")
        walls[traced].append(wall)
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break
    if tracer is not None:
        tracer.install()
        tracer.phase = "once"
        tracer.op = -1
    return samples, walls, outputs


def capacity_probe(seed: int) -> tuple[int, str, float, bool]:
    """Largest horizon solved and verified in the child, why it stopped,
    the child's peak RSS in MB, and whether the probe itself worked: a
    wrong answer or a child that could not run is a failure, running out
    of memory or budget is not."""
    cmd = [
        sys.executable,
        str(HERE / "probe.py"),
        "--seed", str(seed),
        "--ceiling", str(PROBE_CEILING),
        "--as-bytes", str(PROBE_AS_BYTES),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=PROBE_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    best, stop, ok = 0, None, True
    for line in out.splitlines():
        word, horizon, *rest = line.split()
        if word == "ok" and int(horizon) == best + 1:
            best += 1
        else:
            stop, ok = f"T={horizon} {word} {' '.join(rest)}", word != "bad"
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if proc.returncode == -9:
        stop = stop or f"wall budget of {PROBE_BUDGET_S} s at T={best + 1}"
    elif proc.returncode != 0 or best == 0:
        return best, f"probe exited {proc.returncode}: {err.strip()[-200:]}", peak, False
    return best, stop or f"ceiling T={PROBE_CEILING}", peak, ok


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: spans.Tracer, meter: Meter, n_traced: int) -> dict:
    """Normalized self times, calls and counts for the one-off phases plus
    one batch."""
    self_s = spans.self_times(tracer.spans)
    factor = [meter.run_factor()] * len(tracer.spans)
    for first, end, f in meter.units:
        factor[first:end] = [f] * (end - first)
    total = {"timed": defaultdict(float), "once": defaultdict(float)}
    calls = {"timed": defaultdict(int), "once": defaultdict(int)}
    for s, own, f in zip(tracer.spans, self_s, factor):
        total[s[spans.PHASE]][s[spans.NAME]] += own * f
        calls[s[spans.PHASE]][s[spans.NAME]] += 1

    def per_batch(table, key):
        return table["timed"][key] / n_traced + table["once"][key]

    counts = {"timed": defaultdict(float), "once": defaultdict(float)}
    for (phase, name), value in tracer.counts.items():
        counts[phase][name] += value

    metrics = {}
    for metric, name in SELF_TIME.items():
        metrics[metric] = (per_batch(total, name), "s")
    for metric, name in CALLS.items():
        metrics[metric] = (per_batch(calls, name), "count")
    for name in COUNTS:
        metrics[name] = (per_batch(counts, name), "count")
    tried = per_batch(counts, "abstraction.combinations")
    metrics["abstraction.valid_ratio"] = (
        per_batch(counts, "abstraction.variants") / tried if tried else 0.0,
        "1",
    )
    ops = [i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "bench.op"]
    wall = sum(tracer.spans[i][spans.END] - tracer.spans[i][spans.START] for i in ops)
    glue = sum(self_s[i] for i in ops)
    metrics["trace.coverage"] = (1.0 - glue / wall, "1")
    return metrics


def write_trace(path: pathlib.Path, tracer: spans.Tracer, info: dict) -> None:
    self_s = spans.self_times(tracer.spans)
    by_name: dict = defaultdict(lambda: [0, 0.0])
    for s, own in zip(tracer.spans, self_s):
        by_name[s[spans.NAME]][0] += 1
        by_name[s[spans.NAME]][1] += own
    doc = dict(info)
    doc["self_s"] = {k: {"calls": c, "self_s": t} for k, (c, t) in sorted(by_name.items())}
    doc["counts"] = {f"{p}:{n}": v for (p, n), v in sorted(tracer.counts.items())}
    doc["span_fields"] = ["name", "start", "end", "parent", "op", "phase"]
    doc["spans"] = tracer.spans
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "tdid" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'tdid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if trace else None
    meter = Meter(tracer)
    setup_raw, setup_norm, inp = set_up(seed, meter)
    import tdid

    if pathlib.Path(tdid.__file__).resolve().parent != (SRC / "tdid").resolve():
        print(f"error: imported tdid from {tdid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    tally = wl.Tally()
    if tracer is not None:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    kb_dir = scratch / "kb"
    try:
        if workload == "kb-select":
            written, kb_raw, kb_norm = wl.build_kb(inp, kb_dir, tally, meter)
        work = wl.batch(workload, inp, kb_dir)
        samples, walls, outputs = timed_phase(work, seconds, tally, meter, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload != "kb-select":
            written, kb_raw, kb_norm = wl.build_kb(inp, kb_dir, tally, meter)

        max_horizon, stop, probe_rss_mb, probe_ok = capacity_probe(seed)
        tally.record(probe_ok, f"capacity probe: {stop}")

        steps = wl.quality_steps(written)
        wl.check_oracles(inp, written, tally)
        wl.check_cli(inp, kb_dir, scratch, steps, tally)
        if workload == "kb-select":
            selections = {u: outputs[("select", k)] for k, u in enumerate(inp.urgencies)
                          if ("select", k) in outputs}
            wl.check_selections(selections, steps, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    raw_ms = [1e3 * s[2] for s in samples]
    info = {
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "ops_timed": len(samples),
        "batches": len(walls[False]),
        "probe_stop": stop,
        "reference_median_s": statistics.median(meter.refs),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "op_p50_ms": statistics.median(raw_ms),
            "op_p90_ms": percentile(raw_ms, 90),
            "kb_build_s": kb_raw,
        },
    }
    print("# " + json.dumps(info))
    for message in tally.messages[:5]:
        print("# failed: " + message.replace("\n", " | "), file=sys.stderr)

    if tracer is None:
        norm_ms = [1e3 * s[3] for s in samples]
        values = {
            "setup_s": statistics.median(setup_norm),
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": statistics.median(norm_ms),
            "op_p90_ms": percentile(norm_ms, 90),
            "peak_rss_mb": peak_rss_mb,
            "max_horizon": max_horizon,
            "kb_build_s": kb_norm,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        (OUT / f"samples-{workload}-{seed}.json").write_text(
            json.dumps({"info": info, "samples": samples, "refs": meter.refs}))
    else:
        metrics = layer_metrics(tracer, meter, len(walls[True]))
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]),
            "s",
        )
        metrics["solve.probe_peak_rss_mb"] = (probe_rss_mb, "MB")
        metrics["fail_ratio"] = (tally.failed / tally.attempted, "1")
        write_trace(OUT / f"trace-{workload}-{seed}.json", tracer, info)

    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; exit 1 unless all are correct."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(line for line in lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
        print(f"== {workload}: " + (json.dumps(result) if result else f"exit {proc.returncode}"))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
