"""Choosing how much model to afford when deliberation costs utility.

Each abstraction variant has a quality (its maximum expected utility once
solved) and a computation cost in time.  An urgency function converts
deliberation time into lost utility, making the trade explicit: the
expected value of computation (EVC) of deliberating until time t is the
quality gained minus the urgency incurred, relative to the baseline.

This script builds a knowledge base from the cardiac model's abstraction
lattice, then sweeps the urgency rate and watches the selected model move
from the full model (patient setting) down to the cheapest sketch
(critical setting).
"""

import pathlib
import tempfile

from tdid.abstraction import enumerate_abstractions, parse_lattice
from tdid.deploy import deploy
from tdid.metareason import (
    CostModel,
    Problem,
    UrgencyFunction,
    construct,
    make_entry,
    selection_report,
    with_cost,
    write_entry,
)
from tdid.model import parse
from tdid.solve import brute_force, policies_agree

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def build_knowledge_base(kb_dir):
    """One entry per lattice variant; analytic cost 0.1·parameters + 1."""
    model = parse((FIXTURES / "cardiac.tdid").read_text())
    spec = parse_lattice((FIXTURES / "cardiac.lattice").read_text())
    cost_model = CostModel(alpha=0.1, beta=1.0)
    for variant in enumerate_abstractions(model, spec):
        name = "_".join(t.split("=", 1)[1].replace(",", "") for t in variant.tags)
        entry = with_cost(make_entry(name, variant.model, variant.tags), cost_model)
        write_entry(kb_dir, entry)


def main():
    with tempfile.TemporaryDirectory(prefix="tdid_kb_") as tmp:
        run(pathlib.Path(tmp) / "cardiac")


def run(kb):
    """Build the knowledge base in ``kb``, then select under several urgencies."""
    build_knowledge_base(kb)
    manifests = sorted(kb.glob("*.entry"))
    print(f"knowledge base: {kb.name}, {len(manifests)} entries")
    for manifest in manifests:
        print(f"--- {manifest.name}")
        print("   ", manifest.read_text().strip().replace("\n", "\n    "))

    # Sweep the urgency rate.  Low urgency: deliberation is nearly free,
    # take the full model.  High urgency: every second hurts, act on the
    # cheapest abstraction.
    print("\n=== urgency sweep ===")
    for rate in (0.1, 2.0, 20.0):
        problem = Problem(urgency=UrgencyFunction.linear(rate))
        result = construct(kb, problem)
        curve = " ".join(
            f"EVC({p.t:.1f})={p.evc:+.2f}" for p in result.curve.points
        )
        print(f"rate {rate:5.1f}: pick {result.entry.name:10s} "
              f"t*={result.curve.t_star:.1f}   {curve}")

    # The full machine-readable report for one setting, plus an oracle
    # check of the winning policy (feasible here: the winner is small).
    problem = Problem(urgency=UrgencyFunction.linear(2.0))
    result = construct(kb, problem)
    print("\n=== selection report (rate 2.0) ===")
    print(selection_report(result.curve, result.policy.meu))

    did = deploy(result.entry.model)
    print("\nwinner agrees with brute-force oracle:",
          policies_agree(did, result.policy, brute_force(did)))


if __name__ == "__main__":
    main()
