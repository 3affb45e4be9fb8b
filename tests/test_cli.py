"""Command-line interface: exit codes, report formats, byte stability."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, cardiac_text, entry_model
from tdid.cli import main
from tdid.metareason import CostModel, load_kb, make_entry, solve_entry, with_cost, write_entry
from tdid.model import parse, serialize
from tdid.abstraction import abstract_time

ONE_DECISION = """\
tdid 1
master 1
chance X : x0 x1
decision D : act wait
value U
arc inst X D
arc inst X U
arc inst D U
cpt X @ 1 | : 0.5 0.5
util U @ 1 | X D : 10 0 4 4
"""

CYCLIC = """\
tdid 1
master 1
chance X : a b
chance Y : a b
value U
arc inst X Y
arc inst Y X
arc inst Y U
cpt X @ 1 | Y : 0.5 0.5 , 0.5 0.5
cpt Y @ 1 | X : 0.5 0.5 , 0.5 0.5
util U @ 1 | Y : 1 0
"""


@pytest.fixture
def one_decision(tmp_path):
    path = tmp_path / "one_decision.tdid"
    path.write_text(ONE_DECISION)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", fixtures_dir / "two_var_lagged.tdid")
    assert code == 0 and err == ""


def test_validate_cycle(capsys, tmp_path):
    path = tmp_path / "cyclic.tdid"
    path.write_text(CYCLIC)
    code, _, err = run(capsys, "validate", path)
    assert code == 1
    lines = err.strip().splitlines()
    assert any("cycle" in line for line in lines)


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", tmp_path / "nope.tdid")
    assert code == 2 and "error:" in err


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "garbled.tdid"
    path.write_text("tdid 1\nmaster 1\nfrobnicate X\n")
    code, _, err = run(capsys, "validate", path)
    assert code == 1 and "line 3" in err


# ---------------------------------------------------------------------------
# deploy


def test_deploy_stdout(capsys, fixtures_dir):
    code, out, err = run(capsys, "deploy", fixtures_dir / "two_var_lagged.tdid")
    assert code == 0
    assert out.startswith("deployed 2\n")
    assert "copy X@2 of X@1" in out


def test_deploy_to_file_and_dot(capsys, tmp_path, fixtures_dir):
    out_path = tmp_path / "deployed.txt"
    code, out, _ = run(
        capsys,
        "deploy",
        fixtures_dir / "two_var_lagged.tdid",
        "-o",
        out_path,
        "--emit-dot",
    )
    assert code == 0
    assert out_path.read_text().startswith("deployed 2\n")
    assert out.startswith("digraph")  # stdout carries only the DOT text


def test_deploy_collapse_removes_copies(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "deploy", fixtures_dir / "two_var_lagged.tdid", "--collapse"
    )
    assert code == 0 and "copy " not in out


def test_deploy_invalid_model(capsys, tmp_path):
    path = tmp_path / "cyclic.tdid"
    path.write_text(CYCLIC)
    code, _, err = run(capsys, "deploy", path)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "bad",
    [
        ONE_DECISION.replace("0.5 0.5", "nan nan").encode(),
        ONE_DECISION.replace("0.5 0.5", "inf 0").encode(),
        ONE_DECISION.replace("master 1", "tick inf s\nmaster 1").encode(),
        ONE_DECISION.encode().replace(b"act wait", b"act w\xffit"),
    ],
    ids=["nan-row", "inf-row", "inf-tick", "not-utf8"],
)
def test_solve_rejects_bad_model_input(capsys, tmp_path, bad):
    path = tmp_path / "bad.tdid"
    path.write_bytes(bad)
    code, out, err = run(capsys, "solve", path)
    assert code == 1 and out == "" and one_error_line(err)


def test_deploy_byte_stable(capsys, fixtures_dir):
    first = run(capsys, "deploy", fixtures_dir / "cardiac.tdid")
    second = run(capsys, "deploy", fixtures_dir / "cardiac.tdid")
    assert first == second


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_policy(capsys, one_decision):
    code, out, _ = run(capsys, "solve", one_decision)
    assert code == 0
    report = json.loads(out)
    assert report["meu"] == 7
    assert report["decisions"][0]["node"] == "D@1"


def test_solve_oracle_agrees(capsys, one_decision):
    code, _, _ = run(capsys, "solve", one_decision, "--oracle")
    assert code == 0


def test_solve_oracle_cap(capsys, one_decision, monkeypatch):
    monkeypatch.setattr("tdid.solve.ORACLE_CAP", 2)
    code, _, err = run(capsys, "solve", one_decision, "--oracle")
    assert code == 4 and "error:" in err


def test_solve_oracle_refuses_dense_joint_before_allocating(capsys, tmp_path):
    # Cardiac at T=6 with one treatment has 4 policies, but its dense joint
    # has 2^30 cells (8 GiB): the oracle refuses before building it.
    path = tmp_path / "cardiac-6-once.tdid"
    path.write_text(
        cardiac_text(6).replace(
            "decision treat : aggressive standard\n",
            "decision treat : aggressive standard ; times 1\n",
        )
    )
    code, out, err = run(capsys, "solve", path, "--oracle")
    assert (code, out) == (4, "")
    assert err == "error: dense joint has 1073741824 cells, above the cap of 4194304\n"


def test_solve_oracle_mismatch_exit(capsys, one_decision, monkeypatch):
    monkeypatch.setattr("tdid.solve.policies_agree", lambda *a, **k: False)
    code, _, err = run(capsys, "solve", one_decision, "--oracle")
    assert code == 3 and "oracle mismatch" in err


def cardiac_file(tmp_path, horizon):
    path = tmp_path / f"cardiac-{horizon}.tdid"
    path.write_text(cardiac_text(horizon))
    return path


def test_solve_cardiac_beyond_three_slices(capsys, tmp_path):
    code, out, err = run(capsys, "solve", cardiac_file(tmp_path, 4))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert [d["node"] for d in report["decisions"]] == [
        "treat@1", "treat@2", "treat@3", "treat@4"
    ]
    assert len(report["decisions"][3]["table"]) == 16


def test_solve_oracle_cap_beyond_three_slices(capsys, tmp_path):
    # The solver handles T=4; the brute-force oracle refuses its 2^30
    # policies before allocating anything.
    path = cardiac_file(tmp_path, 4)
    code, out, err = run(capsys, "solve", path, "--oracle")
    assert code == 4 and out == ""
    assert one_error_line(err)
    assert "policy space has 1073741824 policies, above the cap" in err


def test_solve_search_cap(capsys, tmp_path):
    path = cardiac_file(tmp_path, 9)
    code, out, err = run(capsys, "solve", path)
    assert code == 4 and out == ""
    assert one_error_line(err)
    assert "branches, above the cap" in err


# ---------------------------------------------------------------------------
# abstract


def test_abstract_no_edits_is_canonical(capsys, fixtures_dir):
    path = fixtures_dir / "cardiac.tdid"
    code, out, _ = run(capsys, "abstract", path)
    assert code == 0
    assert out == serialize(parse(path.read_bytes()))
    # Feeding the output back through changes nothing: it is a fixed point.
    assert serialize(parse(out.encode())) == out


def test_abstract_retime(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "abstract", fixtures_dir / "cardiac.tdid", "--retime", "all=1,3"
    )
    assert code == 0
    model = parse(out.encode())
    assert all(v.times == (1, 3) for v in model.variables if v.kind != "value")
    assert model.master == (1, 2, 3)


def test_abstract_drop(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "abstract", fixtures_dir / "cardiac.tdid", "--drop", "CD"
    )
    assert code == 0
    names = {v.name for v in parse(out.encode()).variables}
    assert names == {"cr", "treat", "U_surv"}


def test_abstract_edits_apply_in_order(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "abstract",
        fixtures_dir / "cardiac.tdid",
        "--drop",
        "CD",
        "--retime",
        "all=1,3",
    )
    assert code == 0
    model = parse(out.encode())
    assert {v.name for v in model.variables} == {"cr", "treat", "U_surv"}
    assert model.variable("cr").times == (1, 3)


def test_abstract_dependency_error(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "abstract", fixtures_dir / "cardiac.tdid", "--drop", "poa"
    )
    assert code == 1
    assert "cpt CD" in err  # the tables that would need re-specification


def test_abstract_bad_retime_syntax(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "abstract", fixtures_dir / "cardiac.tdid", "--retime", "all=x"
    )
    assert code == 1 and "retime" in err


# ---------------------------------------------------------------------------
# select / evc


@pytest.fixture
def kb(tmp_path, fixtures_dir):
    model = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    cm = CostModel(alpha=0.1, beta=1.0)
    kb_dir = tmp_path / "kb"
    write_entry(kb_dir, with_cost(make_entry("full", model), cm))
    write_entry(
        kb_dir, with_cost(make_entry("coarse", abstract_time(model, "X", (1,))), cm)
    )
    return kb_dir


def test_select_report(capsys, kb):
    code, out, _ = run(capsys, "select", kb, "--urgency", "linear:0")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"t0", "curve", "t_star", "model", "meu"}
    assert {"t", "Q", "uc", "evc"} == set(report["curve"][0])
    assert report["model"] in {"full", "coarse"}

    again = run(capsys, "select", kb, "--urgency", "linear:0")
    assert again[1] == out  # byte-stable


def test_select_heavy_urgency(capsys, kb):
    code, out, _ = run(capsys, "select", kb, "--urgency", "linear:1000")
    assert code == 0
    report = json.loads(out)
    assert report["t_star"] == report["t0"]


def test_select_policy_out(capsys, tmp_path, kb):
    policy_path = tmp_path / "policy.json"
    code, out, _ = run(
        capsys, "select", kb, "--urgency", "linear:0", "--policy-out", policy_path
    )
    assert code == 0
    policy = json.loads(policy_path.read_text())
    assert policy["meu"] == json.loads(out)["meu"]


def test_select_empty_kb(capsys, tmp_path):
    empty = tmp_path / "kb"
    empty.mkdir()
    code, _, err = run(capsys, "select", empty, "--urgency", "linear:1")
    assert code == 1 and "error:" in err


def test_select_missing_kb(capsys, tmp_path):
    code, _, err = run(capsys, "select", tmp_path / "nope", "--urgency", "linear:1")
    assert code == 2


def test_select_names_a_dangling_manifest_by_its_relative_path(capsys, kb, monkeypatch):
    # Each file is opened under the directory's descriptor; the error still
    # names it by the path given on the command line.
    (kb / "d.entry").symlink_to("absent.entry")
    monkeypatch.chdir(kb.parent)
    code, out, err = run(capsys, "select", "kb", "--urgency", "linear:1")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'kb/d.entry'\n"


def test_select_infeasible_deadline(capsys, kb):
    code, _, err = run(
        capsys, "select", kb, "--urgency", "linear:1", "--deadline", "0.1"
    )
    assert code == 1 and "infeasible" in err


def test_select_bad_urgency(capsys, kb):
    code, _, err = run(capsys, "select", kb, "--urgency", "ramp:1")
    assert code == 1 and "urgency" in err


@pytest.mark.parametrize("urgency", ["linear:inf", "linear:nan", "step:inf,1", "step:4,-inf"])
def test_select_non_finite_urgency(capsys, kb, urgency):
    code, _, err = run(capsys, "select", kb, "--urgency", urgency)
    assert code == 1 and one_error_line(err) and "finite" in err


@pytest.mark.parametrize(
    "bad", ["quality abc", "cost abc", "space abc", "intervals abc", "cost inf", "quality nan"]
)
def test_select_bad_manifest_number(capsys, kb, bad):
    field = bad.split()[0]
    manifest = kb / "full.entry"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(bad if ln.split()[0] == field else ln for ln in lines))
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:1")
    assert code == 1 and one_error_line(err)
    assert f"full.entry: {field} must be" in err


def test_select_non_utf8_manifest(capsys, kb):
    manifest = kb / "full.entry"
    manifest.write_bytes(manifest.read_bytes() + b"tags caf\xe9\n")
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:1")
    assert code == 1 and one_error_line(err)
    assert "full.entry: line 6: not valid UTF-8" in err


def test_select_names_malformed_model_file(capsys, kb):
    model = entry_model(kb, "full")
    lines = model.read_text().splitlines()
    lines[2] = "bogus"
    model.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:1")
    assert code == 1 and one_error_line(err)
    assert err == f"error: full.entry: {model.name}: line 3: unknown directive 'bogus'\n"


def set_manifest_field(manifest, field, value):
    lines = manifest.read_text().splitlines()
    manifest.write_text(
        "\n".join(f"{field} {value}" if ln.split()[0] == field else ln for ln in lines)
    )


@pytest.mark.parametrize("where", ["../x.tdid", "/etc/hostname", "absolute"])
def test_select_refuses_model_outside_kb(capsys, kb, where):
    # A valid model just outside the knowledge base is still refused.
    (kb.parent / "x.tdid").write_bytes(entry_model(kb, "full").read_bytes())
    if where == "absolute":
        where = str(entry_model(kb, "full").resolve())
    set_manifest_field(kb / "full.entry", "model", where)
    for command in ("select", "evc"):
        code, _, err = run(capsys, command, kb, "--urgency", "linear:1")
        assert code == 1 and one_error_line(err)
        assert err == (
            "error: full.entry: model must be a file name in the knowledge "
            f"base, got {where!r}\n"
        )


def test_select_refuses_negative_intervals(capsys, kb):
    set_manifest_field(kb / "full.entry", "intervals", "-1")
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:1")
    assert code == 1 and one_error_line(err) and "intervals must be nonnegative" in err


@pytest.mark.parametrize("field", ["space", "intervals"])
def test_select_accepts_a_manifest_integer_of_any_length(capsys, kb, field):
    # An int is finite however long; only floats are checked for finiteness.
    big = "9" * 400
    set_manifest_field(kb / "full.entry", field, big)
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:1")
    assert (code, err) == (0, "")
    full = next(e for e in load_kb(kb) if e.name == "full")
    assert {"space": full.space_size, "intervals": full.n_intervals}[field] == int(big)


@pytest.mark.parametrize("command", ["select", "evc"])
def test_selection_refuses_a_manifest_name_not_utf8(capsys, tmp_path, kb, command):
    # The entry's name would go into the UTF-8 report: refuse it at load.
    (kb / "coarse.entry").unlink()  # so that the renamed entry wins
    try:
        os.rename(kb / "full.entry", os.path.join(os.fsencode(kb), b"\xff.entry"))
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "report.json"
    code, _, err = run(capsys, command, kb, "--urgency", "linear:1", "-o", out)
    name = os.fsdecode(b"\xff.entry")
    assert (code, err) == (1, f"error: manifest name {name!r} is not valid UTF-8\n")


def test_select_requires_urgency(capsys, kb):
    with pytest.raises(SystemExit) as exc:
        main(["select", str(kb)])
    assert exc.value.code == 2


def test_evc_curve_only(capsys, kb):
    code, out, _ = run(capsys, "evc", kb, "--urgency", "linear:0.5")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"t0", "curve", "t_star", "model"}
    assert report["t0"] == report["curve"][0]["t"]  # baseline anchors the curve


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
needs_zero = pytest.mark.skipif(
    resource is None or not os.path.exists("/dev/zero"), reason="no /dev/zero"
)
MAKE = {
    "fifo": getattr(os, "mkfifo", None),
    "directory": os.mkdir,
    "zero": lambda path: os.symlink("/dev/zero", path),
}
# Address space of a child that reads a hostile knowledge base: enough for
# the interpreter, numpy and a file at the read cap, so reading without a
# cap fails fast instead of taking the machine's memory.
CHILD_AS = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS, CHILD_AS))


@pytest.mark.parametrize(
    "kind, role, code, error",
    [
        pytest.param(
            "fifo", "entry", 1, "a.entry: missing cost, intervals, model, quality, space",
            marks=needs_fifo,
        ),
        pytest.param(
            "fifo", "model", 1, "full.entry: m.tdid: empty model file", marks=needs_fifo
        ),
        ("directory", "entry", 2, "[Errno 21] Is a directory: '{kb}/a.entry'"),
        (
            "directory", "model", 1,
            "full.entry: cannot read model: [Errno 21] Is a directory: '{kb}/m.tdid'",
        ),
        pytest.param(
            "zero", "entry", 2, "[Errno 27] File too large: '{kb}/a.entry'",
            marks=needs_zero,
        ),
        pytest.param(
            "zero", "model", 1,
            "full.entry: cannot read model: [Errno 27] File too large: '{kb}/m.tdid'",
            marks=needs_zero,
        ),
    ],
    ids=[
        "fifo-entry", "fifo-model", "directory-entry", "directory-model",
        "zero-entry", "zero-model",
    ],
)
def test_select_hostile_entry_fails_with_one_line(kb, kind, role, code, error):
    # In a child process with a timeout and a bounded address space, so that
    # a read that blocks or never ends fails the test instead of hanging the
    # suite or exhausting memory.
    if role == "entry":
        MAKE[kind](kb / "a.entry")
    else:
        MAKE[kind](kb / "m.tdid")
        set_manifest_field(kb / "full.entry", "model", "m.tdid")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tdid", "select", str(kb), "--urgency", "linear:1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
        preexec_fn=_limit_address_space if resource else None,
    )
    assert (proc.returncode, proc.stderr) == (code, f"error: {error.format(kb=kb)}\n")


def _tdid_child(*argv, **kwargs):
    """``python -m tdid`` as a child process with, where the platform
    allows, a bounded address space; callers wait on it with a timeout."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "tdid", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=_limit_address_space if resource else None,
        **kwargs,
    )


@needs_zero
@pytest.mark.parametrize("command", ["validate", "deploy", "solve", "abstract"])
def test_endless_model_file_fails_with_one_line(command):
    # An unbounded read would end in a MemoryError traceback here.
    proc = _tdid_child(command, "/dev/zero")
    _, err = proc.communicate(timeout=30)
    want = "error: [Errno 27] File too large: '/dev/zero'\n"
    assert (proc.returncode, err) == (2, want)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_model_path_may_be_a_pipe_written_late(fixtures_dir):
    # Half the model, a pause, then the rest: a non-blocking read would
    # stop at the pause instead of waiting for the writer.
    data = (fixtures_dir / "cardiac.tdid").read_bytes()
    r, w = os.pipe()
    try:
        proc = _tdid_child("validate", f"/dev/fd/{r}", pass_fds=(r,))
        os.close(r)
        os.write(w, data[: len(data) // 2])
        time.sleep(0.5)
        os.write(w, data[len(data) // 2 :])
    finally:
        os.close(w)
    _, err = proc.communicate(timeout=30)
    assert (proc.returncode, err) == (0, "")


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_invocation(tmp_path, fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "tdid", "validate", str(fixtures_dir / "cardiac.tdid")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# Writes a knowledge-base entry, runs every command that writes a file, and
# reads the knowledge base back.  The child runs with ``-X
# warn_default_encoding`` and EncodingWarning as an error, so any file opened
# in the locale's encoding fails it, whatever the locale.
UTF8_CHILD = """\
import sys
from tdid.cli import main
from tdid.metareason import CostModel, load_kb, make_entry, solve_entry, with_cost, write_entry
from tdid.model import parse, serialize

model_path, kb, out = sys.argv[1:]
model = parse(open(model_path, "rb").read())
write_entry(kb, with_cost(make_entry("full", model), CostModel(alpha=0.1, beta=1.0)))
for argv in (
    ["deploy", model_path, "-o", out + "/deployed.txt"],
    ["abstract", model_path, "-o", out + "/abstract.tdid"],
    ["select", kb, "--urgency", "linear:0", "-o", out + "/report.json",
     "--policy-out", out + "/policy.json"],
):
    assert main(argv) == 0, argv
assert serialize(load_kb(kb)[0].model) == serialize(model)
"""


def test_written_files_are_utf8_whatever_the_locale(tmp_path):
    text = ONE_DECISION.replace("x0", "état").replace("act", "arrêt")
    model_path = tmp_path / "accented.tdid"
    model_path.write_bytes(text.encode("utf-8"))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding",
            "-W", "error::EncodingWarning",
            "-c", UTF8_CHILD, str(model_path), str(tmp_path / "kb"), str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for name, label in [
        (entry_model(tmp_path / "kb", "full"), "état"),
        ("deployed.txt", "état"),
        ("abstract.tdid", "état"),
        ("policy.json", "arrêt"),
    ]:
        assert label.encode("utf-8") in (tmp_path / name).read_bytes(), name


# Runs every command that solves nothing, ``evc`` on a solved knowledge base
# included, and exits 1 if numpy was loaded: ``tdid.solve`` is imported only
# where a command solves.
NUMPY_FREE_CHILD = """\
import sys
from tdid.cli import main

model_path, kb, out = sys.argv[1:]
for argv in (
    ["validate", model_path],
    ["deploy", model_path, "-o", out + "/deployed.txt"],
    ["abstract", model_path, "-o", out + "/abstract.tdid"],
    ["evc", kb, "--urgency", "linear:0.5", "-o", out + "/curve.json"],
):
    assert main(argv) == 0, argv
sys.exit("numpy" in sys.modules)
"""


def test_commands_that_do_not_solve_load_no_numpy(tmp_path, fixtures_dir):
    model_path = fixtures_dir / "two_var_lagged.tdid"
    entry, _ = solve_entry(make_entry("full", parse(model_path.read_bytes())))
    write_entry(tmp_path / "kb", entry)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, str(model_path), str(tmp_path / "kb"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "curve.json").read_text().endswith('"model": "full"}\n')


@pytest.mark.parametrize(
    "extra",
    [[], ["--t0", "3"], ["--deadline", "3"], ["--t0", "2.9", "--deadline", "9"]],
)
@pytest.mark.parametrize("urgency", ["linear:0", "linear:0.5", "step:2,3"])
def test_evc_is_select_without_meu(capsys, kb, urgency, extra):
    code, selected, _ = run(capsys, "select", kb, "--urgency", urgency, *extra)
    assert code == 0
    code, curve, _ = run(capsys, "evc", kb, "--urgency", urgency, *extra)
    assert code == 0
    head, meu = selected.rsplit(', "meu": ', 1)
    assert meu.endswith("}\n") and "," not in meu
    assert curve == head + "}\n"


def test_evc_infeasible_deadline(capsys, kb):
    code, _, err = run(capsys, "evc", kb, "--urgency", "linear:1", "--deadline", "0.1")
    assert code == 1 and one_error_line(err) and "infeasible deadline" in err


@pytest.mark.parametrize("command", ["select", "evc"])
@pytest.mark.parametrize(
    "flag", ["--t0=nan", "--t0=inf", "--t0=-inf", "--deadline=nan", "--deadline=inf"]
)
def test_selection_rejects_non_finite_times(capsys, kb, command, flag):
    code, _, err = run(capsys, command, kb, "--urgency", "linear:1", flag)
    field = flag[2:].split("=")[0]
    assert code == 1 and one_error_line(err) and f"{field} must be finite" in err


@pytest.mark.parametrize("command", ["select", "evc"])
def test_selection_rejects_overflowing_curve(capsys, kb, command):
    code, _, err = run(capsys, command, kb, "--urgency", "linear:1e308")
    assert code == 1 and one_error_line(err) and "not finite at t=" in err


def test_selection_rejects_overflowing_qualities(capsys, kb):
    for name, q in (("full", "1e308"), ("coarse", "-1e308")):
        manifest = kb / f"{name}.entry"
        lines = manifest.read_text().splitlines()
        lines = [f"quality {q}" if ln.startswith("quality") else ln for ln in lines]
        manifest.write_text("\n".join(lines))
    code, _, err = run(capsys, "select", kb, "--urgency", "linear:0")
    assert code == 1 and one_error_line(err) and "not finite at t=" in err


# ---------------------------------------------------------------------------
# selection command-line fuzzing

NUMBER = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "1e3", "abc", ""]
) | st.floats().map(repr)
URGENCY = (
    st.builds("linear:{}".format, NUMBER)
    | st.builds("step:{},{}".format, NUMBER, NUMBER)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
)
# A valid run, and what may replace each of its values.
BASELINE = {
    "urgency": "linear:1",
    "t0": None,
    "deadline": None,
    "quality": "unsolved",
    "cost": "2",
    "space": "3",
    "intervals": "1",
}
EDITS = {key: URGENCY if key == "urgency" else NUMBER for key in BASELINE}


def run_quiet(argv):
    """Run the CLI in-process; return its exit code and stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["select", "evc"]),
    edits=st.sets(st.sampled_from(sorted(EDITS)), max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: EDITS[k] for k in keys})
    ),
)
def test_selection_cli_fuzz(tmp_path, command, edits):
    v = {**BASELINE, **edits}
    kb = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    (kb / "m.tdid").write_text(ONE_DECISION)
    (kb / "base.entry").write_text(
        "model m.tdid\nquality 1\ncost 0\nspace 3\nintervals 1\n"
    )
    fields = ("quality", "cost", "space", "intervals")
    manifest = ["model m.tdid", *(f"{k} {v[k]}" for k in fields)]
    (kb / "fuzz.entry").write_text("\n".join(manifest) + "\n")
    argv = [command, str(kb), f"--urgency={v['urgency']}"]
    argv += [f"--{k}={v[k]}" for k in ("t0", "deadline") if v[k] is not None]
    code, err = run_quiet(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert one_error_line(err), err


def tokens(text):
    """A model file as its tokens, comments dropped, with "\\n" ending each line."""
    lines = (line.split("#")[0].split() + ["\n"] for line in text.splitlines())
    return [tok for line in lines for tok in line]


FUZZ_SOURCES = {p.name: tokens(p.read_text()) for p in sorted(FIXTURES.glob("*.tdid"))}
FUZZ_POOL = sorted({tok for toks in FUZZ_SOURCES.values() for tok in toks})
MUTATION = st.tuples(
    st.sampled_from(["delete", "duplicate", "replace"]),
    st.integers(min_value=0),
    st.sampled_from(FUZZ_POOL),
)


def mutate(toks, mutations):
    """Delete, duplicate or replace one token per mutation; render as text."""
    toks = list(toks)
    for op, at, tok in mutations:
        if not toks:
            break
        at %= len(toks)
        if op == "delete":
            del toks[at]
        elif op == "duplicate":
            toks.insert(at, toks[at])
        else:
            toks[at] = tok
    return "".join(tok if tok == "\n" else tok + " " for tok in toks)


# ``solve`` has a fuzz test of its own (``test_solve_cli_fuzz``, below), so
# that its exit-4 preflight refusals are checked apart from these commands.
MODEL_COMMANDS = st.sampled_from(FUZZ_POOL).flatmap(
    lambda var: st.sampled_from(
        [
            ["validate"],
            ["deploy"],
            ["deploy", "--collapse", "--emit-dot"],
            ["deploy", "--keep-barren"],
            ["abstract"],
            ["abstract", "--drop", var],
            ["abstract", "--retime", f"{var}=1,3"],
        ]
    )
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    source=st.sampled_from(sorted(FUZZ_SOURCES)),
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
    command=MODEL_COMMANDS,
)
def test_model_cli_fuzz(tmp_path, source, mutations, command):
    path = tmp_path / "fuzz.tdid"
    path.write_text(mutate(FUZZ_SOURCES[source], mutations))
    code, err = run_quiet([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    source=st.sampled_from(sorted(FUZZ_SOURCES)),
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
)
def test_solve_cli_fuzz(tmp_path, monkeypatch, source, mutations):
    # A mutation that widens a model meets the solver's or the oracle's
    # preflight (exit 4) before anything is allocated: never a MemoryError
    # traceback.  The lowered policy cap keeps the oracle to a fraction of
    # a second per example: cardiac's 16,384 policies take about 17 s on a
    # 2-vCPU VM, and are refused instead, through the same exit-4 path.
    monkeypatch.setattr("tdid.solve.ORACLE_CAP", 256)
    path = tmp_path / "fuzz.tdid"
    path.write_text(mutate(FUZZ_SOURCES[source], mutations))
    code, err = run_quiet(["solve", str(path), "--oracle"])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
