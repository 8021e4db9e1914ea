"""Release acceptance suite.

Nine end-to-end gates, one test each, ordered roughly from algebra to
full pipeline.  Every test finishes by printing a single verdict line,
so `pytest tests/test_acceptance.py -s` doubles as a release checklist;
without `-s` the usual pytest PASSED/FAILED column carries the same
information.  Tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from uavplan.coding import (
    fractional_split,
    optimal_split,
    recovery_threshold,
)
from uavplan.evaluate import (
    DEFAULT_PRICE_MULTIPLIERS,
    offload_price_comparison,
)
from uavplan.milp import solve_enumerate, solve_exact
from uavplan.physics import GRAVITY, Position3D, hover_power, link_rate
from uavplan.planner import (
    build_phase1,
    exact_expected_cost,
    offload_curve,
    solve_phase1,
    solve_phase2,
)
from uavplan.scenario import (
    DemandScenario,
    ScenarioTree,
    WeatherScenario,
    model_size_phase1,
)

from conftest import (
    ENV,
    UAV_TYPES,
    guaranteed_stage,
    make_costs,
    phase1_instance,
    small_instance,
    tree_z2,
    zero_stage,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def test_1_recovery_identities():
    """Coded-computation bookkeeping on the worked examples."""
    assert recovery_threshold(1, 2) == 4
    split = optimal_split(2)
    assert (split.s, split.t, split.k) == (1, 2, 4)
    assert fractional_split(4, 1).k == 16
    print("ACCEPT 1/9 recovery identities: PASS")


def test_2_reservation_model_size_formula():
    """Closed-form first-phase model size against the built model,
    on the documented shape and on 50 random shapes.  Exact match."""
    rng = np.random.default_rng(2)
    inst = phase1_instance(rng, 6, 6, 3, 10)
    assert build_phase1(inst).size == model_size_phase1(6, 6, 3, 10) == (468, 864)
    for _ in range(50):
        t = int(rng.integers(1, 6))
        y = int(rng.integers(1, 5))
        x = int(rng.integers(2, 4))
        w = int(rng.integers(1, 5))
        inst = phase1_instance(rng, t, y, x, w)
        assert build_phase1(inst).size == model_size_phase1(t, y, x, w)
    print("ACCEPT 2/9 first-phase model size formula: PASS")


def test_3_solver_cross_validation():
    """200 random integer programs, 5 to 25 variables, enumeration
    space capped at 1e6 points: branch and bound must agree with brute
    force on status, on objective to 1e-9, and return a point feasible
    to 1e-6.  Budget: under two minutes."""
    t0 = time.monotonic()
    bb_s = enum_s = 0.0
    nodes = feasibility_steps = phase2_steps = 0
    statuses: dict[str, int] = {}
    worst_gap = 0.0
    worst_violation = 0.0
    for trial, model in enumerate(workloads.gate3_models(200)):
        t_bb = time.monotonic()
        exact = solve_exact(model)
        t_enum = time.monotonic()
        brute = solve_enumerate(model)
        bb_s += t_enum - t_bb
        enum_s += time.monotonic() - t_enum
        nodes += exact.nodes_explored
        feasibility_steps += exact.simplex_pivots[0]
        phase2_steps += exact.simplex_pivots[1]
        assert exact.status == brute.status, (trial, exact.status, brute.status)
        statuses[exact.status] = statuses.get(exact.status, 0) + 1
        if exact.status == "optimal":
            worst_gap = max(worst_gap, abs(exact.objective - brute.objective))
            worst_violation = max(
                worst_violation, model.max_violation(exact.assignment)
            )
    elapsed = time.monotonic() - t0
    assert worst_gap <= 1e-9
    assert worst_violation <= 1e-6
    assert elapsed < 120.0
    assert (nodes, feasibility_steps, phase2_steps) == (50_362, 59_544, 0)
    steps = feasibility_steps + phase2_steps
    print(
        f"ACCEPT 3/9 solver cross-validation: PASS "
        f"({statuses.get('optimal', 0)} optimal, "
        f"{statuses.get('infeasible', 0)} infeasible, "
        f"gap {worst_gap:.1e}, {elapsed:.0f}s: "
        f"branch and bound {bb_s:.1f}s over {nodes} nodes and "
        f"{steps} entering steps, {1e6 * bb_s / nodes:.0f} us per node, "
        f"{1e6 * bb_s / steps:.0f} us per entering step, "
        f"enumeration {enum_s:.1f}s)"
    )


def test_4_crash_penalty_flip_point():
    """First-phase reservations switch from the cheapest to the largest
    class as the crash penalty or the storm probability crosses the
    break-even; the flip is bracketed within 0.05 on the penalty axis."""
    tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
    below = solve_phase1(small_instance(tree, costs=make_costs(crash=1.567)))
    above = solve_phase1(small_instance(tree, costs=make_costs(crash=1.667)))
    assert below.reservations == (1,)
    assert above.reservations == (3,)

    for p_strong, expected in ((0.0, 1), (0.5, 3), (0.9, 3)):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=p_strong)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=0.5)))
        assert plan.reservations == (expected,), p_strong
    print("ACCEPT 4/9 crash penalty flip point: PASS")


def test_5_deterministic_twin():
    """On single-demand instances with no possible shortfall the
    deterministic second-phase program must reproduce the stochastic
    optimum to 1e-9, across 20 random shapes."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        n_y = int(rng.integers(1, 3))
        n_bs = int(rng.integers(1, 3))
        q = int(rng.integers(4, 9))
        dims = tuple((120, 240, 360)[rng.integers(3)] for _ in range(n_y))
        # alternate between no recourse stage and a certain no-loss one
        stages = (zero_stage(n_y),) if trial % 2 else ()
        tree = ScenarioTree(
            weather=(WeatherScenario((0,) * n_y, 1.0),),
            demand=(DemandScenario(dims, 1.0),),
            shortfall_stages=stages,
        )
        costs = dataclasses.replace(
            make_costs(), service_fee=float(rng.uniform(0.01, 0.2))
        )
        inst = small_instance(tree, n_stations=n_y, n_bs=n_bs, q=q, costs=costs)
        sip = solve_phase2(inst, "sip")
        dip = solve_phase2(inst, "dip", demand=list(dims))
        assert sip.optimal and dip.optimal
        worst = max(worst, abs(sip.expected_cost - dip.expected_cost))
    assert worst <= 1e-9
    print(f"ACCEPT 5/9 deterministic twin: PASS (worst gap {worst:.1e})")


def test_6_offload_curve_minimum(curve_instance):
    """Forcing the offload count and sweeping it traces a curve whose
    second-stage cost rises, whose recourse cost falls, and whose total
    bottoms out strictly inside the sweep; the free optimum lands on
    that interior minimizer."""
    rows = offload_curve(curve_instance)
    values = [r["offload"] for r in rows]
    assert values == list(range(4, 13))
    stage2 = [r["stage2"] for r in rows]
    stage3 = [r["stage3"] for r in rows]
    totals = [r["total"] for r in rows]
    assert all(b > a for a, b in zip(stage2, stage2[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(stage3, stage3[1:]))
    best = values[int(np.argmin(totals))]
    assert values[0] < best < values[-1]

    free = solve_phase2(curve_instance, "sip")
    assert free.optimal
    forced = sum(free.decisions[2, 0, (), 0].offload)
    assert forced == best == 8
    assert free.expected_cost == pytest.approx(min(totals), abs=1e-9)
    print(f"ACCEPT 6/9 offload curve minimum: PASS (interior at {best})")


def test_7_bundled_plan_structure(bundled_instance):
    """On the bundled network the light demand scenario is served
    entirely on board, every heavier scenario offloads, and once losses
    grow past anything recoverable the plan goes all-local."""
    plan = solve_phase2(bundled_instance, "sip")
    assert plan.optimal
    n_y = len(bundled_instance.stations)
    light = 1  # demand scenario with 240 bits everywhere
    for y in range(n_y):
        dec = plan.decisions[2, light, (), y]
        assert dec.local == 4 and sum(dec.offload) == 0
    for li in (0, 2, 3):
        moved = sum(sum(plan.decisions[2, li, (), y].offload) for y in range(n_y))
        assert moved > 0, li

    # three certain loss stages deep enough to kill any offloaded copy
    deep = dataclasses.replace(
        bundled_instance,
        tree=dataclasses.replace(
            bundled_instance.tree,
            shortfall_stages=(
                guaranteed_stage(n_y, 4),
                guaranteed_stage(n_y, 14),
                guaranteed_stage(n_y, 24),
            ),
        ),
    )
    hoard = solve_phase2(deep, "sip")
    assert hoard.optimal
    for (_, li, prefix, y), dec in hoard.decisions.items():
        if not prefix:
            assert dec.local == 4 and sum(dec.offload) == 0, (li, y)
    print("ACCEPT 7/9 bundled plan structure: PASS")


def test_8_price_sweep_dominance(bundled_instance):
    """Across the default service-fee multipliers the stochastic plan
    never loses to the expected-value plan or to a random feasible one,
    and its reported cost is the exact expectation to 1e-9."""
    plan = solve_phase2(bundled_instance, "sip")
    assert abs(plan.expected_cost - exact_expected_cost(bundled_instance, plan)) <= 1e-9

    rows = offload_price_comparison(
        bundled_instance, DEFAULT_PRICE_MULTIPLIERS, seeds=range(30)
    )
    assert len(rows) == len(DEFAULT_PRICE_MULTIPLIERS) == 8
    for row in rows:
        assert row["sip_cost"] <= row["evf_cost"] + 1e-9, row["multiplier"]
        assert row["sip_cost"] <= row["random_cost"] + 1e-9, row["multiplier"]
    print("ACCEPT 8/9 price sweep dominance: PASS")


def test_9_power_and_rate_anchors():
    """Hover power for the 10 kg class and the link rate on the
    documented geometry, recomputed term by term with plain floats and
    held to 0.1 percent of the registered figures."""
    uav = UAV_TYPES[1]  # 10 kg, blade angular velocity 400 rad/s
    delta, rho, s, a, r = 0.012, 1.225, 0.05, 0.79, 0.5
    blade = delta / 8.0 * rho * s * a * 400.0**3 * r**3
    induced = 1.1 * (10.0 * GRAVITY) ** 1.5 / math.sqrt(2.0 * rho * a)
    got = hover_power(uav, ENV)
    assert got == pytest.approx(blade + induced, rel=1e-12)
    assert got == pytest.approx(1347.8, rel=1e-3)

    # D^2 = 100^2 + 100^2 + 80^2 = 26400 at 32 mW over 2 MHz
    snr = 0.032 * (1e-6 / 26400.0) / 1e-13
    rate = link_rate(
        UAV_TYPES[0], ENV, Position3D(0.0, 0.0, 100.0), Position3D(100.0, 100.0, 20.0)
    )
    assert rate == pytest.approx(2e6 * math.log2(1.0 + snr), rel=1e-12)
    assert rate == pytest.approx(7.43e6, rel=1e-3)
    print("ACCEPT 9/9 power and rate anchors: PASS")
