"""Offload count versus expected cost.

Forces the total number of offloaded copies to each value v in a range,
re-solves the allocation, and draws the resulting cost curve: second
stage climbs with v, recourse falls, and the total bottoms out strictly
inside the range. The free optimum lands on the same interior point.
"""

from pathlib import Path

import numpy as np

from uavplan.io import load_instance
from uavplan.planner import offload_curve, solve_phase2

DATA = Path(__file__).resolve().parent.parent / "data"


def bar(x: float, lo: float, hi: float, width: int = 34) -> str:
    frac = 0.0 if hi <= lo else (x - lo) / (hi - lo)
    return "#" * max(1, int(round(frac * width)))


def main() -> None:
    inst = load_instance(DATA / "curve_instance.json")
    rows = offload_curve(inst)
    totals = [r["total"] for r in rows]
    lo, hi = min(totals), max(totals)
    best = rows[int(np.argmin(totals))]["offload"]

    print("v (forced offloads) vs expected cost")
    for r in rows:
        mark = "  <- minimum" if r["offload"] == best else ""
        print(
            f"v={r['offload']:2d}  total {r['total']:9.4f}  "
            f"stage2 {r['stage2']:8.4f}  stage3 {r['stage3']:8.4f}  "
            f"{bar(r['total'], lo, hi)}{mark}"
        )

    free = solve_phase2(inst, "sip")
    v_free = sum(free.decisions[2, 0, (), 0].offload)  # the lone station
    print()
    print(f"unconstrained optimum offloads v={v_free} at cost {free.expected_cost:.4f}")
    assert v_free == best
    print("matching the curve minimum: below it the plan pays recourse "
          "for unrecoverable losses, above it the per-copy price dominates.")


if __name__ == "__main__":
    main()
