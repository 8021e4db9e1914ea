"""Per-copy economics on the bundled network.

Where does one coded copy cost less: on the vehicle or on a server?
Tabulates ``copy_prices`` (compute local, push to each BS, hover wait
budget, decode) across the demand levels of the bundled tree, plus the
fleet prices that phase 1 trades against.
"""

from pathlib import Path

from uavplan.costs import copy_prices, on_demand_cost, reservation_cost
from uavplan.io import load_instance
from uavplan.physics import Position3D

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    inst = load_instance(DATA / "instance.json")
    env, split, coeff = inst.environment, inst.split, inst.costs
    uav = {u.id: u for u in inst.uav_types}[inst.stations[0].uav_type]
    st = inst.stations[0]
    pos = Position3D(st.a, st.b, uav.hover_height)
    servers = [Position3D(b.a, b.b, b.height) for b in inst.base_stations]

    print(f"station {st.id}, class {uav.id}, split (s,t)=({split.s},{split.t}), k={split.k}")
    print()
    dims = sorted({d for sc in inst.tree.demand for d in sc.dims})
    prices = [copy_prices(uav, env, n, split, coeff, pos, servers) for n in dims]
    print("n      local     decode    wait" + "".join(f"    off->BS{b.id}" for b in inst.base_stations))
    for n, p in zip(dims, prices):
        cells = "".join(f"  {o:9.4f}" for o in p.offload)
        print(f"{n:<5d}  {p.local:8.4f}  {p.decode:8.4f}  {p.wait:7.4f}{cells}")

    print()
    # the wait budget scales with k * t_local, so keeping copies local is
    # penalized twice at large n: compute time and hover energy
    print("local/offload price ratio per copy: "
          + "  ".join(f"n={n}: {p.local / p.offload[0]:5.2f}" for n, p in zip(dims, prices)))
    print("raw copy prices favor the servers, and more so as n grows; "
          "the full plan still keeps light tasks on board because "
          "offloaded copies face server-side losses and the BS seats "
          "are scarce.")

    print()
    print("== fleet prices per slot ==")
    largest = inst.largest_type
    for u in inst.uav_types:
        print(f"class {u.id}: reserve {reservation_cost(u, coeff):8.4f}")
    print(f"on-demand replacement (class {largest.id} only): "
          f"{on_demand_cost(largest, coeff):8.4f}")


if __name__ == "__main__":
    main()
