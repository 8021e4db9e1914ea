"""Shared fixtures: a small configurable network and the bundled data."""

from __future__ import annotations

import ctypes
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from uavplan.coding import CodeSplit
from uavplan.costs import CostCoefficients
from uavplan.io import load_instance
from uavplan.physics import Environment, UavType
from uavplan.planner import BaseStation, NetworkInstance, Station
from uavplan.scenario import (
    DemandScenario,
    ScenarioTree,
    ShortfallScenario,
    WeatherScenario,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, or None when
    it cannot be asked (no /proc, another BLAS). ``bench/run.py`` asks
    the same way, but importing it sets the BLAS thread variables."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def pytest_report_header(config) -> str:
    """Pivot paths can depend on the BLAS thread count, so a pinned step
    count that fails is read together with this line."""
    return f"numpy {np.__version__}, OpenBLAS threads {openblas_threads()}"


ENV = Environment(
    air_density=1.225,
    rotor_radius=0.5,
    rotor_disc_area=0.79,
    tip_speed=120.0,
    induced_velocity=4.03,
    fuselage_drag_ratio=0.6,
    rotor_solidity=0.05,
    profile_drag_coefficient=0.012,
    induced_power_correction=0.1,
    channel_gain_ref=1e-6,
    noise_power=1e-13,
    bits_per_symbol=4,
)


def make_uav(tid: int, batt: float, mass: float, omega: float, tau: float) -> UavType:
    return UavType(
        id=tid,
        battery_mah=batt,
        mass_kg=mass,
        blade_angular_velocity=omega,
        cpu_rate=tau,
        cycles_per_bit=20.0,
        bandwidth=2e6,
        tx_power=0.032,
        rx_power=0.032,
        hover_height=100.0,
    )


UAV_TYPES = (
    make_uav(1, 2375.0, 8.0, 380.0, 0.6e9),
    make_uav(2, 3500.0, 10.0, 400.0, 0.8e9),
    make_uav(3, 5200.0, 12.0, 420.0, 1.0e9),
)


def make_costs(crash: float = 1.0, completion: float = 200.0) -> CostCoefficients:
    return CostCoefficients(
        reservation_per_mah=0.001,
        on_demand_per_mah=0.0015,
        per_second=0.5,
        per_joule=0.5,
        hover_per_watt_second=1e-4,
        service_fee=0.05,
        subscription_fee=1.0,
        crash_penalty=crash,
        completion_penalty=completion,
    )


def tree_z2(n_stations: int, dims_list, probs, p_strong: float = 0.3) -> ScenarioTree:
    """Two-stage tree: one strong-wind and one calm weather scenario,
    arbitrary demand set, no recourse stages."""
    return ScenarioTree(
        weather=(
            WeatherScenario(strong_wind=(1,) * n_stations, probability=p_strong),
            WeatherScenario(strong_wind=(0,) * n_stations, probability=1.0 - p_strong),
        ),
        demand=tuple(
            DemandScenario(dims=tuple(d), probability=p)
            for d, p in zip(dims_list, probs)
        ),
    )


def guaranteed_stage(n_stations: int, magnitude: int) -> tuple[ShortfallScenario, ...]:
    return (
        ShortfallScenario(
            flags=(1,) * n_stations,
            magnitudes=(magnitude,) * n_stations,
            probability=1.0,
        ),
    )


def zero_stage(n_stations: int) -> tuple[ShortfallScenario, ...]:
    return (
        ShortfallScenario(
            flags=(0,) * n_stations,
            magnitudes=(0,) * n_stations,
            probability=1.0,
        ),
    )


def scaled_fee(instance: NetworkInstance, mult: float) -> NetworkInstance:
    """The instance with its service fee scaled by ``mult``, as a price
    comparison scales it."""
    fee = instance.costs.service_fee * mult
    costs = dataclasses.replace(instance.costs, service_fee=fee)
    return dataclasses.replace(instance, costs=costs)


def small_instance(
    tree: ScenarioTree,
    n_stations: int = 1,
    n_bs: int = 2,
    q: int = 6,
    time_slots: int = 1,
    **kw,
) -> NetworkInstance:
    stations = tuple(
        Station(id=y + 1, a=60.0, b=350.0 + 60.0 * y, uav_type=3)
        for y in range(n_stations)
    )
    bss = tuple(
        BaseStation(id=f + 1, a=300.0 + 50.0 * f, b=400.0, height=20.0, servers=q)
        for f in range(n_bs)
    )
    return NetworkInstance(
        time_slots=time_slots,
        stations=stations,
        uav_types=kw.pop("uav_types", UAV_TYPES),
        base_stations=bss,
        environment=ENV,
        costs=kw.pop("costs", make_costs()),
        split=kw.pop("split", CodeSplit.from_slices(2, 1, 2)),
        tree=tree,
        **kw,
    )


def branching_instance() -> NetworkInstance:
    """One station, two demand scenarios and one loss stage: the SIP
    needs more than one branch-and-bound node, while the expected-value
    DIP closes at the root, so ``node_limit=1`` cuts the SIP short and
    leaves the DIP proven."""
    loss = (
        ShortfallScenario(flags=(1,), magnitudes=(2,), probability=0.5),
        ShortfallScenario(flags=(0,), magnitudes=(0,), probability=0.5),
    )
    tree = dataclasses.replace(
        tree_z2(1, [(240,), (480,)], [0.5, 0.5]), shortfall_stages=(loss,)
    )
    return small_instance(tree)


def dip_infeasible_instance() -> NetworkInstance:
    """Three stations capped at 3 local copies (k = 4) and one loss
    stage that takes 6 copies from every station with probability 0.8.
    The SIP buys out coverage through its residual variables; the
    mean-value DIP has none and needs k + 4.8 copies per station, more
    than the local cap and the base-station seats supply, so it is
    infeasible."""
    loss = (
        ShortfallScenario(flags=(1,) * 3, magnitudes=(6,) * 3, probability=0.8),
        ShortfallScenario(flags=(0,) * 3, magnitudes=(0,) * 3, probability=0.2),
    )
    tree = dataclasses.replace(
        tree_z2(3, [(240,) * 3], [1.0]), shortfall_stages=(loss,)
    )
    return small_instance(tree, n_stations=3, max_local_copies=3)


def phase1_instance(rng, t, y, x, w):
    """Instance whose first-phase model has shape (t, y, x, w)."""
    types = UAV_TYPES[:x]
    weather = tuple(
        WeatherScenario(
            strong_wind=tuple(int(f) for f in rng.integers(0, 2, size=y)),
            probability=float(p),
        )
        for p in rng.dirichlet(np.ones(w))
    )
    tree = ScenarioTree(
        weather=weather,
        demand=(DemandScenario(dims=(240,) * y, probability=1.0),),
    )
    stations = tuple(
        Station(id=i + 1, a=60.0, b=350.0 + 60.0 * i, uav_type=types[-1].id)
        for i in range(y)
    )
    bss = tuple(
        BaseStation(id=f + 1, a=300.0 + 50.0 * f, b=400.0, height=20.0, servers=6)
        for f in range(2)
    )
    return NetworkInstance(
        time_slots=t,
        stations=stations,
        uav_types=types,
        base_stations=bss,
        environment=ENV,
        costs=make_costs(),
        split=CodeSplit.from_slices(2, 1, 2),
        tree=tree,
    )


@pytest.fixture(scope="session")
def bundled_instance() -> NetworkInstance:
    return load_instance(DATA_DIR / "instance.json")


@pytest.fixture(scope="session")
def curve_instance() -> NetworkInstance:
    return load_instance(DATA_DIR / "curve_instance.json")
