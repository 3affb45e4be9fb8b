"""Command-line front end.

Subcommands cover the full pipeline: ``validate`` a condensed model file,
``deploy`` it to the unrolled form, ``solve`` for an optimal policy,
``abstract`` it in time or space, and ``select``/``evc`` to pick a model
variant from a knowledge base under deliberation pressure.

Exit codes: 0 success, 1 domain error (invalid model, infeasible
selection, broken dependency), 2 I/O or usage error, 3 oracle
disagreement, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._errors import CapError
from .abstraction import abstract_space, retime
from .deploy import collapse_copies, deploy, emit_dot, serialize_deployed
from .metareason import (
    Problem,
    construct,
    parse_urgency,
    prepare_suite,
    select,
    selection_report,
)
from .model import _READ_FLAGS, ModelError, _read, parse, serialize, validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_ORACLE = 3
EXIT_CAP = 4


def _read_model(path: str):
    # Blocking, unlike a knowledge-base read: the model path may be a pipe
    # (``tdid validate <(cat model.tdid)``) whose writer has not written yet.
    return parse(_read(path, _READ_FLAGS & ~getattr(os, "O_NONBLOCK", 0)))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def cmd_validate(args) -> int:
    model = _read_model(args.model)
    problems = validate(model)
    for problem in problems:
        print(problem, file=sys.stderr)
    return EXIT_DOMAIN if problems else EXIT_OK


def cmd_deploy(args) -> int:
    model = _read_model(args.model)
    did = deploy(model, barren=not args.keep_barren)
    if args.collapse:
        did = collapse_copies(did)
    _write(serialize_deployed(did), args.out)
    if args.emit_dot:
        sys.stdout.write(emit_dot(did))
    return EXIT_OK


def cmd_solve(args) -> int:
    # ``tdid.solve`` loads numpy, so only the commands that solve import it.
    from .solve import brute_force, policies_agree, policy_json, solve

    model = _read_model(args.model)
    did = deploy(model)
    policy = solve(did)
    if args.oracle:
        reference = brute_force(did)
        if not policies_agree(did, policy, reference):
            print(
                "oracle mismatch: solver meu "
                f"{policy.meu!r} vs brute force {reference.meu!r}",
                file=sys.stderr,
            )
            return EXIT_ORACLE
    _write(policy_json(did, policy), args.out)
    return EXIT_OK


class _Edit(argparse.Action):
    """Collect --retime/--drop options in the order they appear."""

    def __call__(self, parser, namespace, values, option_string=None):
        edits = getattr(namespace, "edits", None) or []
        edits.append((option_string.lstrip("-"), values))
        namespace.edits = edits


def _parse_retime(text: str) -> tuple[str, tuple[int, ...]]:
    var, eq, seq = text.partition("=")
    try:
        if not eq or not var:
            raise ValueError
        times = tuple(int(tok) for tok in seq.split(","))
    except ValueError:
        raise ModelError(
            f"cannot parse retime {text!r}: expected <var>=<t1>,<t2>,..."
        ) from None
    return var, times


def cmd_abstract(args) -> int:
    model = _read_model(args.model)
    for kind, value in getattr(args, "edits", None) or []:
        if kind == "retime":
            var, times = _parse_retime(value)
            model = retime(model, var, times)
        else:
            model = abstract_space(model, value)
    _write(serialize(model), args.out)
    return EXIT_OK


def _problem(args) -> Problem:
    return Problem(
        urgency=parse_urgency(args.urgency), t0=args.t0, deadline=args.deadline
    )


def cmd_select(args) -> int:
    result = construct(args.kb, _problem(args))
    _write(selection_report(result.curve, result.policy.meu), args.out)
    if args.policy_out:
        from .solve import policy_json

        did = deploy(result.entry.model)
        _write(policy_json(did, result.policy), args.policy_out)
    return EXIT_OK


def cmd_evc(args) -> int:
    problem = _problem(args)
    suite, _ = prepare_suite(args.kb, problem)
    _write(selection_report(select(suite, problem.urgency, problem.t0)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdid",
        description="Time-critical dynamic influence diagrams: model, "
        "deploy, solve, abstract, select.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a condensed model file")
    p.add_argument("model", help="condensed model file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("deploy", help="unroll a model to its deployed form")
    p.add_argument("model", help="condensed model file")
    p.add_argument("-o", "--out", help="write here instead of stdout")
    p.add_argument(
        "--emit-dot", action="store_true", help="also print the graph as DOT"
    )
    p.add_argument(
        "--keep-barren", action="store_true", help="skip barren-node elimination"
    )
    p.add_argument(
        "--collapse", action="store_true", help="rewire copy nodes away"
    )
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("solve", help="compute an optimal policy")
    p.add_argument("model", help="condensed model file")
    p.add_argument("-o", "--out", help="write here instead of stdout")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against brute-force enumeration",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("abstract", help="drop variables or coarsen time")
    p.add_argument("model", help="condensed model file")
    p.add_argument("-o", "--out", help="write here instead of stdout")
    p.add_argument(
        "--retime",
        action=_Edit,
        metavar="VAR=T1,T2,...",
        help="restrict VAR (or 'all') to the given time sequence",
    )
    p.add_argument(
        "--drop",
        action=_Edit,
        nargs="+",
        metavar="VAR",
        help="remove variables and everything made irrelevant",
    )
    p.set_defaults(func=cmd_abstract)

    def selection_args(p, policy_out: bool):
        p.add_argument("kb", help="knowledge-base directory")
        p.add_argument(
            "--urgency",
            required=True,
            help="linear:<rate> or step:<deadline>,<penalty>, in utility "
            "units per time unit",
        )
        p.add_argument(
            "--t0",
            type=float,
            help="baseline deliberation time (default: cheapest model)",
        )
        p.add_argument(
            "--deadline", type=float, help="ignore models costing more than this"
        )
        p.add_argument("-o", "--out", help="write here instead of stdout")
        if policy_out:
            p.add_argument(
                "--policy-out", help="also write the winning model's policy JSON"
            )

    p = sub.add_parser("select", help="pick a model variant from a knowledge base")
    selection_args(p, policy_out=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evc", help="print the value-of-computation curve only")
    selection_args(p, policy_out=False)
    p.set_defaults(func=cmd_evc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
