"""Plan evaluation and sensitivity studies.

Three jobs: Monte Carlo evaluation of a frozen plan under sampled
scenario paths, one-parameter sensitivity sweeps that re-solve the
relevant phase per grid point, and the exact three-way comparison
(stochastic plan vs expected-value plan vs feasible random plans).

Sweeps and comparisons use exact tree expectations, never sampling, so
repeated runs are byte-identical. ``evaluate_plan`` is the sampled path
and draws from ``numpy.random.default_rng`` (PCG64); the seed is part
of the report. Grid points are independent; results are merged in grid
order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coding import fractional_split
from .planner import (
    NetworkInstance,
    Phase2Plan,
    PlanningError,
    _tree_path_costs,
    evf_plan,
    exact_expected_cost,
    random_plan,
    solve_phase1,
    solve_phase2,
)
from .scenario import ShortfallScenario, WeatherScenario

__all__ = [
    "EvaluationReport",
    "SweepResult",
    "SWEEP_PARAMETERS",
    "evaluate_plan",
    "sweep",
    "compare",
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


@dataclass(frozen=True)
class EvaluationReport:
    """Sampled-cost summary for one plan on one instance."""

    mean_cost: float
    std_error: float
    n_samples: int
    stages: tuple[str, ...]
    breakdown: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.mean_cost < -1e-12 or self.std_error < 0.0:
            raise ValueError("negative mean cost or standard error")
        if len(self.stages) != len(self.breakdown):
            raise ValueError("stage labels and breakdown lengths differ")
        if abs(sum(self.breakdown) - self.mean_cost) > 1e-6:
            raise ValueError("stage breakdown does not sum to the mean cost")

    def to_dict(self) -> dict:
        return {
            "mean_cost": self.mean_cost,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "breakdown": dict(zip(self.stages, self.breakdown)),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SweepResult:
    """One sensitivity sweep: objective and decision summary per grid
    point, in grid order."""

    parameter: str
    grid: tuple[float, ...]
    objectives: tuple[float, ...]
    summaries: tuple[str, ...]
    breakdowns: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("empty sweep grid")
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ValueError("sweep grid must be strictly increasing")
        n = len(self.grid)
        if not (len(self.objectives) == len(self.summaries) == len(self.breakdowns) == n):
            raise ValueError("sweep result columns have mismatched lengths")

    def rows(self) -> list[dict]:
        """One CSV-ready mapping per grid point.

        Columns: parameter, value, objective, then any per-stage
        breakdown keys, then summary. Stable across versions."""
        out = []
        for value, obj, summary, bd in zip(
            self.grid, self.objectives, self.summaries, self.breakdowns
        ):
            row: dict = {"parameter": self.parameter, "value": value, "objective": obj}
            row.update(bd)
            row["summary"] = summary
            out.append(row)
        return out


def evaluate_plan(
    plan: Phase2Plan,
    instance: NetworkInstance,
    n_samples: int = 10_000,
    seed: int = 0,
) -> EvaluationReport:
    """Monte Carlo estimate of the plan's expected cost.

    Samples terminal scenario paths with their branch probabilities and
    reads each draw's realized cost from the plan's per-path stage costs:
    the frozen decisions along the path, plus the completion penalty for
    every (slot, station) whose cumulative copies fall short of the
    threshold plus its offload-gated losses or whose residual flag is
    set. Reports the unbiased mean with its standard error. Same seed,
    same report. A plan that lacks a decision this tree needs raises
    ``PlanningError``.
    """
    instance.require_valid()
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    paths, stages, part_matrix = _tree_path_costs(instance, plan)
    probs = np.array([p.probability for p in paths])
    totals = part_matrix.sum(axis=1)

    rng = np.random.default_rng(seed)
    draws = rng.choice(len(paths), size=n_samples, p=probs)
    counts = np.bincount(draws, minlength=len(paths)).astype(float)

    mean = float(counts @ totals) / n_samples
    if n_samples > 1:
        var = float(counts @ (totals - mean) ** 2) / (n_samples - 1)
        stderr = math.sqrt(max(var, 0.0) / n_samples)
    else:
        stderr = 0.0
    breakdown = tuple(float(v) for v in (counts @ part_matrix) / n_samples)
    return EvaluationReport(
        mean_cost=mean,
        std_error=stderr,
        n_samples=int(n_samples),
        stages=stages,
        breakdown=breakdown,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# sensitivity sweeps
# ---------------------------------------------------------------------------


def _phase1_summary(plan) -> str:
    counts: dict[int, int] = {}
    for tid in plan.reservations.values():
        counts[tid] = counts.get(tid, 0) + 1
    body = ", ".join(f"type {tid} x{n}" for tid, n in sorted(counts.items()))
    return f"reserve {body}" if body else "reserve nothing"


def _phase2_summary(plan: Phase2Plan) -> str:
    local = sum(dec.local for dec in plan.stage2.values())
    offload = sum(sum(dec.offload) for dec in plan.stage2.values())
    recourse = sum(dec.total for dec in plan.recourse.values())
    residual = sum(plan.residuals.values())
    return (
        f"subs {plan.subscription_count()}, local {local}, offload {offload}, "
        f"recourse {recourse}, residual {residual}"
    )


def _guaranteed_stages(
    n_stations: int, z: int, magnitudes: Sequence[int]
) -> tuple[tuple[ShortfallScenario, ...], ...]:
    if z - 2 > len(magnitudes):
        raise ValueError(
            f"z={z} needs {z - 2} per-stage shortfall magnitudes, got {len(magnitudes)}"
        )
    stages = []
    for zz in range(3, z + 1):
        mag = int(magnitudes[zz - 3])
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


def _sweep_point(
    instance: NetworkInstance,
    parameter: str,
    value: float,
    spec: Mapping,
    node_limit: int | None,
) -> tuple[float, str, dict]:
    costs = instance.costs
    tree = instance.tree
    n_y = len(instance.stations)

    if parameter == "penalty_C_p":
        inst = dataclasses.replace(
            instance, costs=dataclasses.replace(costs, crash_penalty=float(value))
        )
        plan = solve_phase1(inst, node_limit=node_limit)
        return plan.expected_cost, _phase1_summary(plan), {}

    if parameter == "weather_prob":
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
        plan = solve_phase1(inst, node_limit=node_limit)
        return plan.expected_cost, _phase1_summary(plan), {}

    if parameter == "z":
        zi = int(value)
        if zi != value or zi < 2:
            raise ValueError("z grid values must be integers >= 2")
        mags = spec.get("shortfall_magnitudes", DEFAULT_Z_MAGNITUDES)
        stages = _guaranteed_stages(n_y, zi, mags)
        inst = dataclasses.replace(
            instance, tree=dataclasses.replace(tree, shortfall_stages=stages)
        )
        plan = solve_phase2(inst, "sip", node_limit=node_limit)
        return plan.expected_cost, _phase2_summary(plan), dict(plan.stage_breakdown)

    if parameter == "hover_multiplier":
        if value <= 0:
            raise ValueError("hover_multiplier grid values must be positive")
        inst = dataclasses.replace(
            instance,
            costs=dataclasses.replace(
                costs, hover_per_watt_second=costs.hover_per_watt_second * float(value)
            ),
        )
        plan = solve_phase2(inst, "sip", node_limit=node_limit)
        return plan.expected_cost, _phase2_summary(plan), dict(plan.stage_breakdown)

    if parameter == "shortfall_prob":
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
        plan = solve_phase2(inst, "sip", node_limit=node_limit)
        return plan.expected_cost, _phase2_summary(plan), dict(plan.stage_breakdown)

    if parameter == "split_s":
        si = int(value)
        if si != value or si < 1:
            raise ValueError("split_s grid values must be positive integers")
        m = int(spec.get("split_m", instance.split.m))
        split = fractional_split(m, si)
        inst = dataclasses.replace(instance, split=split)
        plan = solve_phase2(inst, "sip", node_limit=node_limit)
        bd = dict(plan.stage_breakdown)
        bd["k"] = split.k
        return plan.expected_cost, _phase2_summary(plan), bd

    if parameter == "uav_type":
        tid = int(value)
        if tid != value or tid not in {u.id for u in instance.uav_types}:
            raise ValueError(f"uav_type grid value {value!r} is not a known type id")
        plan = solve_phase2(
            instance, "sip", type_ids=[tid] * n_y, node_limit=node_limit
        )
        return plan.expected_cost, _phase2_summary(plan), dict(plan.stage_breakdown)

    raise ValueError(
        f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
    )


def sweep(
    instance: NetworkInstance,
    spec: Mapping,
    node_limit: int | None = None,
) -> SweepResult:
    """Re-solve the relevant phase across a one-parameter grid.

    ``spec`` maps ``parameter`` to one of ``SWEEP_PARAMETERS`` and
    ``grid`` to a strictly increasing value list. The z sweep reads an
    optional ``shortfall_magnitudes`` list (one per added stage, loss
    guaranteed); the split sweep reads an optional ``split_m``.
    Inapplicable parameters and malformed grids raise ``ValueError``.
    """
    instance.require_valid()
    parameter = spec.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    grid = tuple(float(v) for v in spec.get("grid", ()))
    if not grid:
        raise ValueError("empty sweep grid")
    objectives = []
    summaries = []
    breakdowns = []
    for value in grid:
        obj, summary, bd = _sweep_point(instance, parameter, value, spec, node_limit)
        objectives.append(obj)
        summaries.append(summary)
        breakdowns.append(bd)
    return SweepResult(
        parameter=parameter,
        grid=grid,
        objectives=tuple(objectives),
        summaries=tuple(summaries),
        breakdowns=tuple(breakdowns),
    )


# ---------------------------------------------------------------------------
# three-way comparison
# ---------------------------------------------------------------------------


def compare(
    instance: NetworkInstance,
    seeds: Sequence[int] | None = None,
    node_limit: int | None = None,
) -> dict[str, float]:
    """Exact expected cost of the stochastic, expected-value, and random
    plans on the same tree.

    All three are exact tree expectations (no sampling noise); the
    random baseline is averaged over the seed list, which must hold at
    least 30 seeds for the average to mean anything.
    """
    instance.require_valid()
    if seeds is None:
        seeds = DEFAULT_COMPARE_SEEDS
    if len(seeds) < 30:
        raise ValueError(f"random baseline needs >= 30 seeds, got {len(seeds)}")
    sip = solve_phase2(instance, "sip", node_limit=node_limit)
    evf = evf_plan(instance)
    rand_costs = [random_plan(instance, seed=s).expected_cost for s in seeds]
    # the SIP objective is its own exact expectation; assert rather than trust
    gap = abs(sip.expected_cost - exact_expected_cost(instance, sip))
    if gap > 1e-9:
        raise PlanningError(f"solver objective drifted from tree expectation by {gap}")
    return {
        "sip_cost": sip.expected_cost,
        "evf_cost": evf.expected_cost,
        "random_cost": float(np.mean(rand_costs)),
    }


def offload_price_comparison(
    instance: NetworkInstance,
    multipliers: Sequence[float] = DEFAULT_PRICE_MULTIPLIERS,
    seeds: Sequence[int] | None = None,
) -> list[dict]:
    """Three-way comparison swept over the offload service fee.

    Scales the per-copy service fee by each multiplier and runs the
    exact comparison; one row per multiplier in grid order."""
    if len(multipliers) < 1:
        raise ValueError("need at least one price multiplier")
    if any(b >= a for a, b in zip(multipliers[1:], multipliers)):
        raise ValueError("price multipliers must be strictly increasing")
    rows = []
    for mult in multipliers:
        inst = dataclasses.replace(
            instance,
            costs=dataclasses.replace(
                instance.costs, service_fee=instance.costs.service_fee * float(mult)
            ),
        )
        result = compare(inst, seeds=seeds)
        rows.append({"multiplier": float(mult), **result})
    return rows
