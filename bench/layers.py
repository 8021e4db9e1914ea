"""Traced runs: per-layer metrics from spans and counts.

Layer metrics are taken per traced pass and reported as the median
over traced passes. Self times come from ``spans.self_times``; counts
come from observers on the functions that return them (the program
does not report simplex iterations or sampler draws, see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import spans as sp

BUILD_FUNCS = ("planner.build_phase1", "planner.build_phase2_sip", "planner.build_phase2_dip")
EXACT_EVAL_FUNCS = (
    "planner.exact_expected_cost",
    "planner.realized_path_cost",
    "planner.realized_path_parts",
)
IO_LOAD_PREFIXES = ("io.load_", "io.read_", "io.instance_from_dict")
SELF_SUM_TOL = 1e-9


@dataclass
class Counts:
    """What the observers saw during one traced pass."""

    bb_solves: int = 0
    bb_nodes: int = 0
    root_closed: int = 0
    enum_points: int = 0
    vars_max: int = 0
    rows_max: int = 0
    phase2_solves: int = 0
    fleet_lookups: int = 0
    fleet_hits: int = 0
    paths: int = 0
    models: dict = field(default_factory=dict)  # id -> model passed to solve_exact

    def observers(self) -> dict:
        def solve_exact(args, kwargs, sol):
            model = args[0] if args else kwargs["model"]
            self.bb_solves += 1
            self.bb_nodes += sol.nodes_explored
            self.root_closed += sol.nodes_explored == 1
            self.vars_max = max(self.vars_max, model.num_variables)
            self.rows_max = max(self.rows_max, model.num_constraints)
            self.models[id(model)] = model

        def solve_enumerate(args, kwargs, sol):
            self.enum_points += sol.nodes_explored

        def solve_phase2(args, kwargs, plan):
            self.phase2_solves += 1

        def plan_both_phases(args, kwargs, result):
            plans = result[1]
            self.fleet_lookups += len(plans)
            self.fleet_hits += len(plans) - len({id(p) for p in plans.values()})

        def enumerate_terminal_paths(args, kwargs, paths):
            self.paths += len(paths)

        return {
            "milp.solve_exact": solve_exact,
            "milp.solve_enumerate": solve_enumerate,
            "planner.solve_phase2": solve_phase2,
            "planner.plan_both_phases": plan_both_phases,
            "scenario.enumerate_terminal_paths": enumerate_terminal_paths,
        }


def pass_metrics(spans: list[list], counts: Counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, each as (value, unit)."""
    selfs = sp.self_times(spans)

    def self_of(names) -> float:
        return sp.sum_self(spans, selfs, names)

    def self_where(pred) -> float:
        return sum(st for s, st in zip(spans, selfs) if pred(s))

    bb_s = self_of(["milp.solve_exact"])
    phase1_s = sum(
        s[sp.END] - s[sp.START]
        for s in spans
        if s[sp.NAME] == "planner.solve_phase1"
        and (s[sp.PARENT] < 0 or spans[s[sp.PARENT]][sp.NAME] != "planner.solve_phase1")
    )
    cost_calls = [
        s
        for s in spans
        if s[sp.LAYER] == "costs" and s[sp.PARENT] >= 0 and spans[s[sp.PARENT]][sp.LAYER] == "planner"
    ]
    return {
        "milp.bb_s": (bb_s, "s"),
        "milp.bb_nodes": (counts.bb_nodes, "count"),
        "milp.ms_per_node": (1000.0 * bb_s / counts.bb_nodes if counts.bb_nodes else 0.0, "ms"),
        "milp.root_closed_ratio": (
            counts.root_closed / counts.bb_solves if counts.bb_solves else 0.0,
            "ratio",
        ),
        "milp.enum_s": (self_of(["milp.solve_enumerate"]), "s"),
        "milp.enum_points": (counts.enum_points, "count"),
        "milp.model_vars_max": (counts.vars_max, "count"),
        "milp.model_rows_max": (counts.rows_max, "count"),
        "planner.build_s": (self_of(BUILD_FUNCS), "s"),
        "planner.decode_s": (self_of(["planner.decode_phase2"]), "s"),
        "planner.phase1_s": (phase1_s, "s"),
        "planner.random_plan_s": (self_of(["planner.random_plan"]), "s"),
        "planner.exact_eval_s": (self_of(EXACT_EVAL_FUNCS), "s"),
        "planner.phase2_solves": (counts.phase2_solves, "count"),
        "planner.fleet_cache_hit_ratio": (
            counts.fleet_hits / counts.fleet_lookups if counts.fleet_lookups else 0.0,
            "ratio",
        ),
        "costs.s": (sum(s[sp.END] - s[sp.START] for s in cost_calls), "s"),
        "costs.calls": (len(cost_calls), "count"),
        "scenario.paths": (counts.paths, "count"),
        "io.load_s": (self_where(lambda s: s[sp.NAME].startswith(IO_LOAD_PREFIXES)), "s"),
        "io.write_s": (
            self_where(
                lambda s: s[sp.LAYER] == "io" and not s[sp.NAME].startswith(IO_LOAD_PREFIXES)
            ),
            "s",
        ),
        "cli.s": (self_where(lambda s: s[sp.LAYER] == "cli"), "s"),
        "evaluate.s": (self_where(lambda s: s[sp.LAYER] == "evaluate"), "s"),
    }


def root_lp_seconds(models) -> float:
    """Time a fresh LP relaxation of each model (outside job timing)."""
    from uavplan.milp import solve_lp_relaxation

    total = 0.0
    for model in models:
        t = time.perf_counter()
        solve_lp_relaxation(model)
        total += time.perf_counter() - t
    return total


def layer_self_totals(spans: list[list]) -> dict[str, float]:
    """Layer -> self time summed over every job of the pass."""
    totals: dict[str, float] = {}
    for s, st in zip(spans, sp.self_times(spans)):
        totals[s[sp.LAYER]] = totals.get(s[sp.LAYER], 0.0) + st
    return totals
