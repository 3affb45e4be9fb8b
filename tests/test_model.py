"""Condensed model: validation, parsing, canonical serialization."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdid._fmt import _quote, fmt_float
from tdid.model import (
    CHANCE,
    INST,
    LAG,
    VALUE,
    Arc,
    CondensedTdid,
    ModelFormatError,
    TabularCpd,
    TemporalVariable,
    UtilityTable,
    canonical,
    parent_signature,
    parse,
    serialize,
    _read,
    validate,
)

from gen import random_model

MINIMAL = """\
tdid 1
master 1
chance X : a b
value U
arc inst X U
cpt X @ 1 | : 0.5 0.5
util U @ 1 | X : 1 0
"""


def two_var_model():
    return parse(
        """
        tdid 1
        master 1 2 3 4
        chance X : x0 x1 ; times 1 3
        chance Y : y0 y1
        value U
        arc inst X Y
        arc lag Y X
        arc inst Y U
        cpt X @ 1 | : 0.6 0.4
        cpt X @ 3 | Y : 0.7 0.3 , 0.2 0.8
        cpt Y @ * | X : 0.9 0.1 , 0.25 0.75
        util U @ * | Y : 10 2
        """
    )


def test_minimal_model_parses():
    m = parse(MINIMAL)
    assert [v.name for v in m.variables] == ["X", "U"]
    assert m.master == (1,)
    assert m.variable("X").states == ("a", "b")
    assert m.variable("U").kind == VALUE
    assert validate(m) == []


def test_two_var_fixture_is_valid(fixtures_dir):
    m = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    assert validate(m) == []
    assert m.variable("X").times == (1, 3)
    assert m.variable("Y").times == (1, 2, 3, 4)


def test_cardiac_fixture_is_valid(fixtures_dir):
    m = parse((fixtures_dir / "cardiac.tdid").read_bytes())
    assert validate(m) == []
    assert m.master == (1, 2, 3)
    assert m.tick == (1.0, "minute")
    assert all(v.times == (1, 2, 3) for v in m.variables)


def test_parent_signature_lag_skips_first_index():
    m = two_var_model()
    assert parent_signature(m, "X", 1) == ()
    assert parent_signature(m, "X", 3) == (("Y", LAG),)
    assert parent_signature(m, "Y", 2) == (("X", INST),)


def test_denormalized_row_reported():
    text = MINIMAL.replace("0.5 0.5", "0.5 0.4")
    problems = validate(parse(text))
    assert len(problems) == 1
    assert "sums to" in problems[0]


@pytest.mark.parametrize("row", ["nan nan", "inf 0", "-inf 1", "0.5 nan"])
def test_non_finite_cpt_entries_reported(row):
    problems = validate(parse(MINIMAL.replace("0.5 0.5", row)))
    assert problems == ["cpd X @ 1: row 0 has non-finite entries"]


@pytest.mark.parametrize("duration", ["inf", "nan", "0", "-1"])
def test_tick_must_be_positive_and_finite(duration):
    text = MINIMAL.replace("master 1", f"tick {duration} s\nmaster 1")
    problems = validate(parse(text))
    assert len(problems) == 1 and "tick duration" in problems[0]


def test_instantaneous_cycle_reported():
    m = parse(
        """
        tdid 1
        master 1
        chance X : a b
        chance Y : a b
        value U
        arc inst X Y
        arc inst Y X
        arc inst X U
        cpt X @ 1 | Y : 0.5 0.5 , 0.5 0.5
        cpt Y @ 1 | X : 0.5 0.5 , 0.5 0.5
        util U @ 1 | X : 1 0
        """
    )
    problems = validate(m)
    assert any("cycle" in p for p in problems)


def inst_chain(n: int, loop: bool) -> str:
    """A single-slice model whose n chance variables form one chain of
    instantaneous arcs, closed back to its start when ``loop``."""
    lines = ["tdid 1", "master 1", "value U"]
    lines += [f"chance V{i} : a b" for i in range(n)]
    lines += [f"arc inst V{i} V{i + 1}" for i in range(n - 1)]
    lines += [f"arc inst V{n - 1} U"]
    if loop:
        lines += [f"arc inst V{n - 1} V0", f"cpt V0 @ 1 | V{n - 1} : 0.5 0.5 , 0.5 0.5"]
    else:
        lines += ["cpt V0 @ 1 | : 0.5 0.5"]
    lines += [f"cpt V{i} @ 1 | V{i - 1} : 0.9 0.1 , 0.2 0.8" for i in range(1, n)]
    lines += [f"util U @ 1 | V{n - 1} : 1 0"]
    return "\n".join(lines) + "\n"


def test_deep_instantaneous_chain_within_recursion_limit():
    assert validate(parse(inst_chain(1500, loop=False))) == []
    problems = validate(parse(inst_chain(1500, loop=True)))
    cycle = [p for p in problems if "cycle" in p]
    assert len(cycle) == 1
    assert cycle[0].startswith("instantaneous arcs form a cycle: V0 -> V1 -> ")
    assert cycle[0].endswith(" -> V1499 -> V0")


def _inst_cycle_by_colours(model):
    """Reference cycle finder: a three-colour depth-first search from each
    declared variable in declaration order, children in arc order."""
    children = {v.name: [] for v in model.variables}
    for a in model.arcs:
        if a.kind == INST and a.src in children and a.dst in children:
            children[a.src].append(a.dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in children}
    for root in children:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path, pending = [root], [iter(children[root])]
        while pending:
            c = next(pending[-1], None)
            if c is None:
                color[path.pop()] = BLACK
                pending.pop()
            elif color[c] == GRAY:
                return path[path.index(c):] + [c]
            elif color[c] == WHITE:
                color[c] = GRAY
                path.append(c)
                pending.append(iter(children[c]))
    return None


def test_cycle_message_matches_reference_search_on_random_graphs():
    # Self-loops, duplicate instantaneous arcs and arcs to undeclared
    # variables included; arcs of an undeclared end are never followed.
    rng = np.random.default_rng(31)
    pool = [f"N{k}" for k in range(9)]
    cyclic = 0
    for _ in range(3000):
        declared = list(rng.permutation(pool)[: int(rng.integers(1, 8))])
        ends = declared + ["ghost"]
        arcs = tuple(
            Arc(
                str(ends[int(rng.integers(0, len(ends)))]),
                str(ends[int(rng.integers(0, len(ends)))]),
                INST if rng.random() < 0.8 else LAG,
            )
            for _ in range(int(rng.integers(0, 12)))
        )
        variables = tuple(
            TemporalVariable(str(n), CHANCE, ("a", "b"), (1,)) for n in declared
        )
        m = CondensedTdid((1,), variables, arcs, (), ())
        want = _inst_cycle_by_colours(m)
        got = [p for p in validate(m) if p.startswith("instantaneous arcs form")]
        if want is None:
            assert got == [], m
        else:
            cyclic += 1
            assert got == ["instantaneous arcs form a cycle: " + " -> ".join(want)], m
    assert 1000 < cyclic < 2900  # both outcomes well covered


def test_first_index_must_match_master():
    m = CondensedTdid(
        master=(1, 2),
        variables=(
            TemporalVariable("X", CHANCE, ("a", "b"), (2,)),
            TemporalVariable("U", VALUE, (), (1, 2)),
        ),
        arcs=(Arc("X", "U", INST),),
        cpds=(TabularCpd("X", 2, (), ((0.5, 0.5),)),),
        utilities=(UtilityTable("U", None, (("X", INST),), (1.0, 0.0)),),
    )
    problems = validate(m)
    assert any("first index" in p for p in problems)


def test_times_must_be_subset_of_master():
    m = CondensedTdid(
        master=(1, 2),
        variables=(
            TemporalVariable("X", CHANCE, ("a", "b"), (1, 3)),
            TemporalVariable("U", VALUE, (), (1,)),
        ),
        arcs=(Arc("X", "U", INST),),
        cpds=(TabularCpd("X", None, (), ((0.5, 0.5),)),),
        utilities=(UtilityTable("U", 1, (("X", INST),), (1.0, 0.0)),),
    )
    problems = validate(m)
    assert any("subset" in p for p in problems)


def test_missing_value_variable_reported():
    m = CondensedTdid(
        master=(1,),
        variables=(TemporalVariable("X", CHANCE, ("a", "b"), (1,)),),
        arcs=(),
        cpds=(TabularCpd("X", 1, (), ((0.5, 0.5),)),),
        utilities=(),
    )
    assert any("no value variable" in p for p in validate(m))


def test_value_variable_cannot_have_outgoing_arcs():
    m = parse(MINIMAL)
    bad = CondensedTdid(
        m.master, m.variables, m.arcs + (Arc("U", "X", LAG),), m.cpds, m.utilities
    )
    assert any("no outgoing arcs" in p for p in validate(bad))


def test_cpd_parent_mismatch_reported():
    text = MINIMAL.replace("cpt X @ 1 | : 0.5 0.5", "cpt X @ 1 | X : 0.5 0.5 , 0.5 0.5")
    problems = validate(parse(text))
    assert any("do not match" in p for p in problems)


def test_stationary_cpd_must_fit_every_uncovered_index():
    # X gains a lag parent from slice 2 onward, so one stationary table
    # cannot cover slice 1 as well.
    m = parse(
        """
        tdid 1
        master 1 2
        chance X : a b
        value U
        arc lag X X
        arc inst X U
        cpt X @ * | X : 0.5 0.5 , 0.5 0.5
        util U @ * | X : 1 0
        """
    )
    problems = validate(m)
    assert any("@ *" in p and "index 1" in p for p in problems)
    fixed = parse(
        """
        tdid 1
        master 1 2
        chance X : a b
        value U
        arc lag X X
        arc inst X U
        cpt X @ 1 | : 0.5 0.5
        cpt X @ * | X : 0.5 0.5 , 0.5 0.5
        util U @ * | X : 1 0
        """
    )
    assert validate(fixed) == []


def test_dual_role_parent_listed_twice():
    m = parse(
        """
        tdid 1
        master 1 2
        chance X : a b
        chance Y : a b
        value U
        arc inst X Y
        arc lag X Y
        arc inst Y U
        cpt X @ * | : 0.5 0.5
        cpt Y @ 1 | X : 0.5 0.5 , 0.5 0.5
        cpt Y @ 2 | X X : 0.5 0.5 , 0.5 0.5 , 0.5 0.5 , 0.5 0.5
        util U @ * | Y : 1 0
        """
    )
    assert validate(m) == []
    (cpd,) = [c for c in m.cpds if c.variable == "Y" and c.time_index == 2]
    assert cpd.parents == (("X", INST), ("X", LAG))


# --- parser errors -------------------------------------------------------


def test_parse_error_reports_line_number():
    with pytest.raises(ModelFormatError) as err:
        parse("tdid 1\nmaster 1\nchance X a b\n")
    assert "line 3" in str(err.value)


def test_parse_rejects_undeclared_variable():
    with pytest.raises(ModelFormatError, match="undeclared"):
        parse("tdid 1\nmaster 1\nvalue U\narc inst X U\nutil U @ 1 | : 1\n")


def test_parse_rejects_duplicate_variable():
    with pytest.raises(ModelFormatError, match="duplicate"):
        parse("tdid 1\nmaster 1\nchance X : a b\nchance X : a b\n")


def test_parse_rejects_cpd_at_unindexed_time():
    text = """
    tdid 1
    master 1 2
    chance X : a b ; times 1
    value U
    arc inst X U
    cpt X @ 2 | : 0.5 0.5
    util U @ * | X : 1 0
    """
    with pytest.raises(ModelFormatError, match="not indexed at time 2"):
        parse(text)


def test_parse_rejects_bad_header():
    with pytest.raises(ModelFormatError, match="header"):
        parse("master 1\n")
    with pytest.raises(ModelFormatError, match="version"):
        parse("tdid 9\nmaster 1\n")


def test_parse_reads_each_table_entry_as_one_number():
    text = MINIMAL.replace(": 0.5 0.5", ": 0.5,0.5")
    assert text != MINIMAL
    with pytest.raises(ModelFormatError, match="expected a number, got '0.5,0.5'"):
        parse(text)


def test_parse_rejects_duplicate_table():
    text = MINIMAL + "cpt X @ 1 | : 0.5 0.5\n"
    with pytest.raises(ModelFormatError, match="duplicate cpt"):
        parse(text)


def test_parse_rejects_invalid_utf8():
    data = MINIMAL.encode().replace(b"value U", b"value U # caf\xff")
    with pytest.raises(ModelFormatError, match="line 4: not valid UTF-8"):
        parse(data)


# --- serialization -------------------------------------------------------


def test_round_trip_identity():
    m = parse(MINIMAL)
    assert parse(serialize(m)) == m


def test_serialize_is_canonical_fixed_point():
    m = two_var_model()
    once = serialize(m)
    assert serialize(parse(once)) == once


def test_structurally_identical_models_serialize_identically():
    a = two_var_model()
    # Same model, different arc declaration order and spacing.
    b = parse(
        """
        tdid 1
        master 1 2 3 4
        chance   X : x0 x1 ; times 1 3
        chance Y : y0 y1 ; times 1 2 3 4
        value U
        arc inst Y U
        arc lag Y X
        arc inst X Y

        cpt Y @ * | X : 0.9 0.1 , 0.25 0.75
        cpt X @ 3 | Y : 0.7 0.3 , 0.2 0.8
        cpt X @ 1 | : 0.6 0.4
        util U @ * | Y : 10 2
        """
    )
    assert serialize(a) == serialize(b)


def test_figure_arcs_serialize_one_line_each(fixtures_dir):
    m = parse((fixtures_dir / "two_var_lagged.tdid").read_bytes())
    lines = serialize(m).splitlines()
    assert lines.count("arc lag Y X") == 1
    assert lines.count("arc inst X Y") == 1


def test_round_trip_property_on_random_models():
    rng = np.random.default_rng(20260815)
    for _ in range(100):
        m = random_model(rng)
        text = serialize(m)
        again = parse(text)
        assert again == canonical(m)
        assert serialize(again) == text


def test_comments_and_blank_lines_ignored():
    m = parse("# header comment\n" + MINIMAL.replace("master 1", "master 1  # one slice\n"))
    assert m.master == (1,)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trips(x):
    # 17 significant digits reproduce any double exactly.
    assert float(fmt_float(x)) == x
    assert fmt_float(x) == fmt_float(x)


def _quote_by_character(s):
    """JSON string quoting one character at a time, as ``_quote`` must."""
    escapes = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    out = []
    for ch in s:
        if ch in escapes:
            out.append(escapes[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def test_quote_matches_the_per_character_escape():
    singles = [chr(c) for c in range(0xA0)]
    mixed = ["", "treat@1", "caf\u00e9 \u03b1\u03b2", "\U0001f600 x", "a\u2028b"]
    mixed.append("\u00ff\"\\\n")
    for s in singles + [f"a{c}b" for c in singles] + mixed:
        assert _quote(s) == _quote_by_character(s)
        assert json.loads(_quote(s)) == s


def scanned_table_for(model, name, i):
    """``table_for`` as a scan of the pool: the first explicit table at
    ``i``, else the last stationary one."""
    kind = model.variable(name).kind
    pool = model.utilities if kind == VALUE else model.cpds
    stationary = None
    for t in pool:
        if t.variable != name:
            continue
        if t.time_index == i:
            return t
        if t.time_index is None:
            stationary = t
    return stationary


def assert_table_for_matches_scan(model):
    for v in model.variables:
        for i in (0, *v.times, max(v.times) + 1):
            assert model.table_for(v.name, i) is scanned_table_for(model, v.name, i)


def test_table_for_matches_scan_on_fixtures(fixtures_dir):
    for name in ("cardiac.tdid", "two_var_lagged.tdid"):
        assert_table_for_matches_scan(parse((fixtures_dir / name).read_bytes()))


def test_table_for_matches_scan_on_random_models():
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        assert_table_for_matches_scan(random_model(rng))


def test_table_for_precedence_with_repeated_tables():
    # Invalid, so built directly: two explicit tables at 1, two stationary.
    x = TemporalVariable("X", CHANCE, ("a", "b"), (1, 2))
    u = TemporalVariable("U", VALUE, (), (1, 2))
    cpds = tuple(
        TabularCpd("X", i, (), ((p, 1 - p),))
        for i, p in ((None, 0.1), (1, 0.2), (None, 0.3), (1, 0.4))
    )
    utils = tuple(UtilityTable("U", i, (), (v,)) for i, v in ((1, 1.0), (None, 2.0), (1, 3.0)))
    m = CondensedTdid((1, 2), (x, u), (), cpds, utils)
    assert m.table_for("X", 1) is cpds[1]
    assert m.table_for("X", 2) is cpds[2]
    assert m.table_for("U", 1) is utils[0]
    assert m.table_for("U", 2) is utils[1]
    assert_table_for_matches_scan(m)


LAGGED_STATIONARY = """\
tdid 1
master 1 2 3 4 5
chance X : a b
value U
arc lag X X
arc inst X U
cpt X @ 3 | X : 0.5 0.5 , 0.5 0.5
cpt X @ * | {parents}: 0.5 0.5{rows}
util U @ * | X : 1 0
"""


def test_stationary_table_misfit_is_reported_at_every_index_it_covers():
    # At index 1 X has no lag parent; at 2, 4 and 5 it has X/lag, and 3 has
    # its own table.
    m = parse(LAGGED_STATIONARY.format(parents="", rows=""))
    assert validate(m) == [
        "cpd X @ *: parents (none) do not match X/lag required at index 2",
        "cpd X @ *: parents (none) do not match X/lag required at index 4",
        "cpd X @ *: parents (none) do not match X/lag required at index 5",
    ]
    m = parse(LAGGED_STATIONARY.format(parents="X ", rows=" , 0.5 0.5"))
    assert validate(m) == [
        "cpd X @ *: parents X/lag do not match (none) required at index 1",
    ]


@pytest.mark.parametrize("size", [0, 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
def test_read_returns_files_of_any_length_whole(tmp_path, size):
    # Around the 64 KiB read size: one read, exactly one, and several.
    data = bytes(k % 251 for k in range(size))
    path = tmp_path / "f"
    path.write_bytes(data)
    assert _read(str(path)) == data
    fd = os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        assert _read("shown in errors", dir_fd=fd, name="f") == data
    finally:
        os.close(fd)


# --- messages of faults that parse never builds ----------------------------


def _faulty_models():
    """MINIMAL (X with one table at 1, U reading X) with one hand-built
    fault each; over master 1 2, X and U have stationary tables."""
    m = parse(MINIMAL)
    (x, u), (cpd,), (util,) = m.variables, m.cpds, m.utilities
    edit = dataclasses.replace
    two = edit(
        m,
        master=(1, 2),
        variables=(edit(x, times=(1, 2)), edit(u, times=(1, 2))),
        cpds=(edit(cpd, time_index=None),),
        utilities=(edit(util, time_index=None),),
    )
    return {
        "invalid identifier": edit(
            m, variables=(x, u, TemporalVariable("9Z", CHANCE, ("a", "b"), (1,)))
        ),
        "duplicate name": edit(m, variables=(x, u, x)),
        "unknown kind": edit(
            m, variables=(x, u, TemporalVariable("Z", "hidden", ("a", "b"), (1,)))
        ),
        "value states": edit(m, variables=(x, edit(u, states=("a",)))),
        "one state": edit(m, variables=(edit(x, states=("a",)), u)),
        "arc kind": edit(m, arcs=m.arcs + (Arc("X", "U", "both"),)),
        "empty times": edit(m, variables=(edit(x, times=()), u)),
        "not increasing": edit(
            two, variables=(edit(x, times=(1, 2, 2)), two.variables[1])
        ),
        "undeclared table": edit(m, cpds=(cpd, edit(cpd, variable="W"))),
        "cpd of a value": edit(m, cpds=(cpd, TabularCpd("U", 1, (), ((1.0,),)))),
        "duplicate table": edit(m, cpds=(cpd, cpd)),
        "index outside": edit(
            two,
            variables=(x, two.variables[1]),
            cpds=(cpd, edit(cpd, time_index=2)),
        ),
        "undeclared parent": edit(m, cpds=(edit(cpd, parents=(("W", INST),)),)),
        "value parent": edit(m, cpds=(edit(cpd, parents=(("U", INST),)),)),
    }


FAULTY = _faulty_models()


@pytest.mark.parametrize(
    "fault, messages",
    [
        ("invalid identifier", ["variable '9Z': invalid identifier"]),
        ("duplicate name", ["variable 'X': duplicate name"]),
        ("unknown kind", ["variable 'Z': unknown kind 'hidden'"]),
        ("value states", ["variable 'U': value variables have no states"]),
        ("one state", ["variable 'X': needs at least 2 states, has 1"]),
        ("arc kind", ["arc both X U: unknown arc kind"]),
        ("empty times", ["variable 'X' times: empty"]),
        ("not increasing", ["variable 'X' times: not strictly increasing"]),
        ("undeclared table", ["cpd W @ 1: undeclared variable"]),
        ("cpd of a value", ["cpd U @ 1: cpd declared for value variable"]),
        ("duplicate table", ["cpd X @ 1: duplicate table"]),
        ("index outside", ["cpd X @ 2: index 2 not in the variable's times"]),
        ("undeclared parent", ["cpd X @ 1: undeclared parent 'W'"]),
        ("value parent", ["cpd X @ 1: value variable 'U' cannot be a parent"]),
    ],
)
def test_validate_names_each_hand_built_fault(fault, messages):
    assert validate(FAULTY[fault]) == messages


@pytest.mark.parametrize(
    "text, message",
    [
        ("tdid 1\nmaster\nchance X : a b\n", "line 2: master sequence is empty"),
        ("tdid 1\nchance X : a b ; times 1\n", "missing master declaration"),
        (
            "tdid 1\nchance X : a b\nmaster 1\n",
            "line 2: variable 'X' declared before the master sequence "
            "and without a times clause",
        ),
        ("tdid 1\nmaster 1\nchance X :\n", "line 3: chance variable 'X' lists no states"),
        (MINIMAL.replace("1 | X : 1 0", "1 | X :"), "line 7: utility table lists no values"),
        (MINIMAL + "arc inst X U\n", "line 8: duplicate arc inst X U"),
        (
            MINIMAL.replace("| X : 1 0", "| W : 1 0"),
            "line 7: table for 'U' references undeclared variable 'W'",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ModelFormatError) as err:
        parse(text)
    assert str(err.value) == message
