"""Sensitivity studies and baseline comparisons.

Two jobs: one-parameter sensitivity sweeps that re-solve the relevant
phase per grid point, and the exact three-way comparison (stochastic
plan vs expected-value plan vs feasible random plans). Both return one
row dict per grid value, in grid order, each with an ``optimal`` flag.

Each checks its whole grid before its first solve: non-empty, finite
and strictly increasing, and a sweep builds every point's instance
first, so a bad value anywhere raises before any solve. Both price
plans by exact tree expectations, never sampling, so repeated runs are
byte-identical. Each phase-2 solve offers its root LP the previous
point's optimal basis, which a model of the same shape takes when it
fits.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Any, Mapping, Sequence

import numpy as np

from .coding import fractional_split
from .io import _entry, _finite, _integer
from .milp import Basis
from .planner import (
    InfeasibleModelError,
    NetworkInstance,
    Phase1Plan,
    Phase2Model,
    Phase2Plan,
    _Bill,
    _draw_random_plan,
    _evf_model,
    _evf_solve,
    _phase2_model,
    _solve_built,
    solve_phase1,
    solve_phase2,
)
from .scenario import ShortfallScenario, WeatherScenario

__all__ = [
    "SWEEP_PARAMETERS",
    "sweep",
    "offload_price_comparison",
    "DEFAULT_PRICE_MULTIPLIERS",
    "DEFAULT_COMPARE_SEEDS",
]

SWEEP_PARAMETERS = (
    "penalty_C_p",
    "weather_prob",
    "z",
    "hover_multiplier",
    "shortfall_prob",
    "split_s",
    "uav_type",
)

# magnitudes for the guaranteed per-stage shortfall used by the z sweep
# when the caller does not supply its own
DEFAULT_Z_MAGNITUDES = (4, 14, 24, 24)

DEFAULT_PRICE_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0)

DEFAULT_COMPARE_SEEDS = tuple(range(30))


def _grid(values: Any, key: str, name: str, empty: str) -> tuple[float, ...]:
    """``values`` as a grid of floats, checked before any solve: ``empty``
    is the error for no values; a value that is not a finite number
    raises ``InputError`` naming ``key``, and a grid out of order names
    ``name``."""
    grid = _entry(key, lambda vs: tuple(map(_finite, vs)), values)
    if not grid:
        raise ValueError(empty)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# sensitivity sweeps
# ---------------------------------------------------------------------------


def _phase1_summary(plan: Phase1Plan, time_slots: int) -> str:
    """Reservation counts over all ``time_slots``."""
    counts = sorted(Counter(plan.reservations).items())
    body = ", ".join(f"type {tid} x{time_slots * n}" for tid, n in counts)
    return f"reserve {body}" if body else "reserve nothing"


def _phase2_summary(plan: Phase2Plan, time_slots: int) -> str:
    """Decision counts over all ``time_slots``, each a repeat of the
    plan's one slot."""
    stage2 = [dec for (_, _, prefix, _), dec in plan.decisions.items() if not prefix]
    recourse = [dec for (_, _, prefix, _), dec in plan.decisions.items() if prefix]
    counts = (
        plan.subscription_count(),
        sum(dec.local for dec in stage2),
        sum(sum(dec.offload) for dec in stage2),
        sum(dec.total for dec in recourse),
        sum(plan.residuals.values()),
    )
    subs, local, offload, recourse, residual = (time_slots * n for n in counts)
    return (
        f"subs {subs}, local {local}, offload {offload}, "
        f"recourse {recourse}, residual {residual}"
    )


def _guaranteed_stages(
    n_stations: int, z: int, magnitudes: Sequence[int]
) -> tuple[tuple[ShortfallScenario, ...], ...]:
    if not isinstance(magnitudes, Sequence) or z - 2 > len(magnitudes):
        raise ValueError(
            f"z={z} needs a list of {z - 2} shortfall_magnitudes, got {magnitudes!r}"
        )
    stages = []
    for zz in range(3, z + 1):
        key = f"shortfall_magnitudes[{zz - 3}]"
        mag = _entry(key, _integer, magnitudes[zz - 3])
        stages.append(
            (
                ShortfallScenario(
                    flags=tuple([1] * n_stations),
                    magnitudes=tuple([mag] * n_stations),
                    probability=1.0,
                ),
            )
        )
    return tuple(stages)


def _sweep_input(
    instance: NetworkInstance, parameter: str, value: float, spec: Mapping
) -> tuple[NetworkInstance, list[int] | None, dict]:
    """The instance, fleet type ids (None for the reserved fleet) and
    extra row columns of one grid point. Raises ``ValueError`` for a
    value ``parameter`` cannot take; solves nothing."""
    costs = instance.costs
    tree = instance.tree
    n_y = len(instance.stations)

    inst, type_ids, extra = instance, None, {}
    if parameter == "penalty_C_p":
        inst = dataclasses.replace(
            instance, costs=dataclasses.replace(costs, crash_penalty=float(value))
        )
    elif parameter == "weather_prob":
        if len(tree.weather) != 2:
            raise ValueError(
                "weather_prob sweep needs exactly two weather scenarios "
                "(calm and strong wind)"
            )
        strong = [any(w.strong_wind) for w in tree.weather]
        if strong[0] == strong[1]:
            raise ValueError(
                "weather_prob sweep needs one calm and one strong-wind scenario"
            )
        if not 0.0 <= value <= 1.0:
            raise ValueError("weather_prob grid values must lie in [0, 1]")
        weather = tuple(
            WeatherScenario(
                strong_wind=w.strong_wind,
                probability=float(value) if strong[i] else 1.0 - float(value),
            )
            for i, w in enumerate(tree.weather)
        )
        inst = dataclasses.replace(
            instance, tree=dataclasses.replace(tree, weather=weather)
        )
    elif parameter == "z":
        zi = int(value)
        if zi != value or zi < 2:
            raise ValueError("z grid values must be integers >= 2")
        mags = spec.get("shortfall_magnitudes", DEFAULT_Z_MAGNITUDES)
        stages = _guaranteed_stages(n_y, zi, mags)
        inst = dataclasses.replace(
            instance, tree=dataclasses.replace(tree, shortfall_stages=stages)
        )
    elif parameter == "hover_multiplier":
        if value <= 0:
            raise ValueError("hover_multiplier grid values must be positive")
        inst = dataclasses.replace(
            instance,
            costs=dataclasses.replace(
                costs, hover_per_watt_second=costs.hover_per_watt_second * float(value)
            ),
        )
    elif parameter == "shortfall_prob":
        if not tree.shortfall_stages:
            raise ValueError("shortfall_prob sweep needs at least one recourse stage")
        if not 0.0 <= value <= 1.0:
            raise ValueError("shortfall_prob grid values must lie in [0, 1]")
        stages = []
        for stage in tree.shortfall_stages:
            # keep the stage's worst loss pattern; the complement is no loss
            loss = max(stage, key=lambda s: sum(f * m for f, m in zip(s.flags, s.magnitudes)))
            stages.append(
                (
                    ShortfallScenario(
                        flags=loss.flags,
                        magnitudes=loss.magnitudes,
                        probability=float(value),
                    ),
                    ShortfallScenario(
                        flags=tuple([0] * n_y),
                        magnitudes=tuple([0] * n_y),
                        probability=1.0 - float(value),
                    ),
                )
            )
        inst = dataclasses.replace(
            instance,
            tree=dataclasses.replace(tree, shortfall_stages=tuple(stages)),
        )
    elif parameter == "split_s":
        si = int(value)
        if si != value or si < 1:
            raise ValueError("split_s grid values must be positive integers")
        m = _entry("split_m", _integer, spec.get("split_m", instance.split.m))
        split = fractional_split(m, si)
        inst = dataclasses.replace(instance, split=split)
        extra = {"k": split.k}
    else:
        # uav_type, the last of SWEEP_PARAMETERS; sweep rejects any other name
        tid = int(value)
        if tid != value or tid not in {u.id for u in instance.uav_types}:
            raise ValueError(f"uav_type grid value {value!r} is not a known type id")
        type_ids = [tid] * n_y

    return inst, type_ids, extra


def _sweep_row(
    parameter: str,
    value: float,
    point: tuple[NetworkInstance, list[int] | None, dict],
    node_limit: int | None,
    start_basis: Basis | None,
) -> tuple[dict, Basis | None]:
    """The row of one grid point over all ``time_slots``, and the root
    basis of its phase-2 solve (None at phase-1 points)."""
    inst, type_ids, extra = point
    slots = inst.time_slots
    row: dict = {"parameter": parameter, "value": value}
    if parameter in ("penalty_C_p", "weather_prob"):
        p1 = solve_phase1(inst)
        row["objective"] = slots * p1.expected_cost
        row["summary"] = _phase1_summary(p1, slots)
        row["optimal"] = True
        return row, None

    # a phase-2 grid point: the stage breakdown, then the extra columns
    plan = solve_phase2(
        inst, "sip", type_ids=type_ids, node_limit=node_limit, start_basis=start_basis
    )
    row["objective"] = slots * plan.expected_cost
    row.update((stage, slots * c) for stage, c in plan.stage_breakdown.items())
    row.update(extra)
    row["summary"] = _phase2_summary(plan, slots)
    row["optimal"] = plan.optimal
    return row, plan.basis


def sweep(
    instance: NetworkInstance,
    spec: Mapping,
    node_limit: int | None = None,
) -> list[dict]:
    """Re-solve the relevant phase across a one-parameter grid.

    ``spec`` maps ``parameter`` to one of ``SWEEP_PARAMETERS`` and
    ``grid`` to a non-empty, strictly increasing list of finite
    numbers. The z sweep reads an optional ``shortfall_magnitudes``
    list of integers (one per added stage, loss guaranteed); the split
    sweep reads an optional integer ``split_m``. Inapplicable
    parameters and malformed grids raise ``ValueError``; an entry of
    the wrong kind, a boolean, a string or a fraction where an integer
    belongs, raises ``InputError`` naming its key. Every grid value is
    checked before the first solve.

    One row per grid value, in grid order, over all ``time_slots``:
    ``parameter``, ``value``, ``objective``, the per-stage cost
    breakdown of a phase-2 point, ``k`` at a split point, ``summary``,
    and ``optimal``, false at a point whose phase-2 solve a node limit
    cut short (phase-1 points are always proven).
    """
    parameter = spec.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    grid = _grid(spec.get("grid", ()), "grid", "sweep grid", "empty sweep grid")
    points = [_sweep_input(instance, parameter, value, spec) for value in grid]
    rows, basis = [], None
    for value, point in zip(grid, points):
        row, basis = _sweep_row(parameter, value, point, node_limit, basis)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# three-way comparison
# ---------------------------------------------------------------------------


def _compare_drawn(
    models: tuple[tuple[Phase2Model, np.ndarray | None], ...],
    bills: Sequence[_Bill],
    node_limit: int | None,
    starts: tuple[Basis | None, Basis | None],
) -> tuple[dict[str, float], bool, tuple[Basis | None, Basis | None]]:
    """The three-way comparison over all ``time_slots`` at the prices the
    SIP and the mean-value DIP in ``models`` were last priced at, each
    with its warm start, whether every phase-2 solve in it was proven
    optimal, and the root bases of the two solves. ``starts`` holds the
    bases those solves start from. The SIP's pricing charges the random
    plans' ``bills``; ``decode_phase2`` has already checked the SIP
    objective against its exact tree expectation."""
    (sip_model, sip_warm), (dip_model, dip_warm) = models
    pricing = sip_model.pricing
    sip = _solve_built(sip_model, sip_warm, node_limit, starts[0])
    try:
        evf = _evf_solve(dip_model, dip_warm, pricing, node_limit, starts[1])
    except InfeasibleModelError:
        # no expected-value plan exists; branch and bound proved it
        evf_cost, evf_optimal, evf_basis = math.inf, True, None
    else:
        evf_cost, evf_optimal, evf_basis = evf.expected_cost, evf.optimal, evf.basis
    rand_costs = [pricing.charge(bill)[0] for bill in bills]
    slots = pricing.instance.time_slots
    costs = {
        "sip_cost": slots * sip.expected_cost,
        "evf_cost": slots * evf_cost,
        "random_cost": slots * float(np.mean(rand_costs)),
    }
    return costs, sip.optimal and evf_optimal, (sip.basis, evf_basis)


def offload_price_comparison(
    instance: NetworkInstance,
    multipliers: Sequence[float] = DEFAULT_PRICE_MULTIPLIERS,
    seeds: Sequence[int] | None = None,
    node_limit: int | None = None,
) -> list[dict]:
    """Exact expected cost of the stochastic, expected-value, and random
    plans on the same tree, swept over the offload service fee.

    Scales the per-copy service fee by each multiplier, which must be
    finite and strictly increasing; the grid and the seed list are
    checked before the first draw or solve. One row per multiplier in
    grid order: ``multiplier``, ``sip_cost``, ``evf_cost``,
    ``random_cost`` and ``optimal``, false when a node limit cut one of
    its phase-2 solves short. All three costs are exact tree
    expectations (no sampling noise). The random baseline is averaged
    over the seed list, which must hold at least 30 seeds for the
    average to mean anything; the random plans read no price, so each
    seed's plan is drawn and billed once and its bill charged at every
    multiplier. ``node_limit`` caps the SIP solve and the
    expected-value plan's deterministic solve. ``evf_cost`` is ``inf``
    when that deterministic program has no feasible point, so no
    expected-value plan exists. Only the costs change between
    multipliers, so the SIP and the mean-value DIP are built once and
    priced anew at each multiplier, and each solve starts from the
    previous multiplier's optimal basis."""
    multipliers = _grid(
        multipliers,
        "multipliers",
        "price multipliers",
        "need at least one price multiplier",
    )
    if seeds is None:
        seeds = DEFAULT_COMPARE_SEEDS
    if len(seeds) < 30:
        raise ValueError(f"random baseline needs >= 30 seeds, got {len(seeds)}")
    drawn = [_draw_random_plan(instance, s) for s in seeds]
    models = (_phase2_model(instance, "sip"), _evf_model(instance))
    bills = [models[0][0].pricing.bill(plan) for plan in drawn]
    rows, starts = [], (None, None)
    for mult in multipliers:
        inst = dataclasses.replace(
            instance,
            costs=dataclasses.replace(
                instance.costs, service_fee=instance.costs.service_fee * mult
            ),
        )
        for built, _ in models:
            built.price(dataclasses.replace(built.pricing, instance=inst))
        costs, optimal, starts = _compare_drawn(models, bills, node_limit, starts)
        rows.append({"multiplier": mult, **costs, "optimal": optimal})
    return rows
