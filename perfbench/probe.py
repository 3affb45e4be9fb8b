"""Capacity probe: solve and verify cardiac at T = 1, 2, 3, ... in a child.

Run by ``run.py`` with a wall budget the parent enforces.  The child sets
its own address-space limit (``RLIMIT_AS``) before importing anything
large, so the limit binds this process only.  Prints one
line per horizon as it finishes:

    ok <T> <seconds>      solved, and evaluate_policy agrees with the MEU
    bad <T> <detail>      solved, but the check failed
    stop <T> <reason>     the attempt ran out of memory or raised

and exits at the first line that is not ``ok`` or at the ceiling.
"""

from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ceiling", type=int, required=True)
    ap.add_argument("--as-bytes", type=int, required=True)
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (args.as_bytes, args.as_bytes))

    from tdid.deploy import deploy
    from tdid.model import parse
    from tdid.solve import evaluate_policy, solve

    for horizon in range(1, args.ceiling + 1):
        text = inputs.probe_text(args.seed, horizon)
        t0 = time.perf_counter()
        try:
            did = deploy(parse(text))
            policy = solve(did)
            value = evaluate_policy(did, policy)
        except MemoryError:
            print(f"stop {horizon} memory", flush=True)
            return 0
        except Exception as err:  # the probe's stopping failure is recorded
            print(f"stop {horizon} {type(err).__name__}", flush=True)
            return 0
        elapsed = time.perf_counter() - t0
        if abs(policy.meu - value) > 1e-9:
            print(f"bad {horizon} meu {policy.meu!r} evaluates to {value!r}", flush=True)
            return 0
        print(f"ok {horizon} {elapsed!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
