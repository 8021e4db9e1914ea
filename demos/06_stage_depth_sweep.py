"""Cost of the allocation as the scenario tree deepens.

Each added recourse stage injects a guaranteed server-side loss, so
deeper trees expose offloaded copies to more destruction. The sweep
re-solves the allocation per depth and reports the point where the
plan abandons offloading entirely.

The sweep runs in a few seconds; pass a grid to choose the depths,
e.g. python3 demos/06_stage_depth_sweep.py 2 3 5
"""

import sys
from pathlib import Path

from uavplan.evaluate import DEFAULT_Z_MAGNITUDES, sweep
from uavplan.io import load_instance

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    depths = [int(a) for a in sys.argv[1:]] or [2, 3, 4, 5]
    inst = load_instance(DATA / "instance.json")
    rows = sweep(
        inst,
        {
            "parameter": "z",
            "grid": depths,
            "shortfall_magnitudes": list(DEFAULT_Z_MAGNITUDES),
        },
    )
    print(f"guaranteed loss per added stage: {DEFAULT_Z_MAGNITUDES[:max(depths) - 2]}")
    print()
    for row in rows:
        print(f"z = {int(row['value'])}: expected cost {row['objective']:10.4f}  "
              f"{row['summary']}")
    print()
    print("once cumulative exposure can destroy every copy a server "
          "could hold, the offload discount is dead weight and the "
          "plan computes everything on board.")


if __name__ == "__main__":
    main()
