"""Reservation and allocation programs, baselines, cost accounting."""

import dataclasses

import numpy as np
import pytest

from uavplan.planner import (
    BaseStation,
    NetworkInstance,
    ResourceLimitError,
    Station,
    _phase2_warm_start,
    big_m_sigma,
    build_phase1,
    build_phase2_dip,
    build_phase2_sip,
    effective_station_types,
    evf_plan,
    exact_expected_cost,
    offload_curve,
    plan_both_phases,
    random_plan,
    realized_path_parts,
    solve_phase1,
    solve_phase2,
)
from uavplan.scenario import (
    DemandScenario,
    ScenarioTree,
    ShortfallScenario,
    WeatherScenario,
    enumerate_terminal_paths,
    model_size_phase1,
)

from conftest import UAV_TYPES, guaranteed_stage, make_costs, small_instance, tree_z2


def z3_tree(p_loss: float = 0.5, mag: int = 2) -> ScenarioTree:
    """One station, certain demand, one hit-or-miss recourse stage."""
    stage = (
        ShortfallScenario(flags=(1,), magnitudes=(mag,), probability=p_loss),
        ShortfallScenario(flags=(0,), magnitudes=(0,), probability=1.0 - p_loss),
    )
    return ScenarioTree(
        weather=(WeatherScenario(strong_wind=(0,), probability=1.0),),
        demand=(DemandScenario(dims=(240,), probability=1.0),),
        shortfall_stages=(stage,),
    )


class TestInstanceValidation:
    def test_clean(self):
        assert small_instance(z3_tree()).validate() == []

    def test_misordered_types_reported(self):
        inst = small_instance(
            tree_z2(1, [(240,)], [1.0]), uav_types=tuple(reversed(UAV_TYPES))
        )
        assert any("ascending battery" in m for m in inst.validate())

    def test_station_count_mismatch_reported(self):
        inst = small_instance(tree_z2(2, [(240, 240)], [1.0]), n_stations=1)
        assert any("station vectors" in m for m in inst.validate())

    def test_unknown_station_type_reported(self):
        base = small_instance(tree_z2(1, [(240,)], [1.0]))
        inst = dataclasses.replace(
            base, stations=(dataclasses.replace(base.stations[0], uav_type=99),)
        )
        assert any("unknown UAV type 99" in m for m in inst.validate())

    def test_low_hover_reported(self):
        base = small_instance(tree_z2(1, [(240,)], [1.0]))
        tall_bs = dataclasses.replace(base.base_stations[0], height=150.0)
        inst = dataclasses.replace(base, base_stations=(tall_bs,))
        assert any("does not clear" in m for m in inst.validate())

    def test_require_valid_raises(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]), time_slots=0)
        with pytest.raises(ValueError, match="time_slots"):
            inst.require_valid()

    def test_big_m_covers_capacity_threshold_exposure(self):
        flat = small_instance(tree_z2(1, [(240,)], [1.0]))
        assert big_m_sigma(flat) == 12 + 4
        lossy = small_instance(
            dataclasses.replace(
                flat.tree, shortfall_stages=(guaranteed_stage(1, 3),)
            )
        )
        assert big_m_sigma(lossy) == 12 + 4 + 3


class TestPhase1:
    def test_size_identity(self):
        inst = small_instance(
            tree_z2(2, [(240, 240), (480, 480)], [0.5, 0.5]),
            n_stations=2,
            time_slots=2,
        )
        built = build_phase1(inst)
        assert built.size == model_size_phase1(2, 2, 3, 2)

    def test_crash_penalty_flip(self):
        """Reserving cheap pays until the crash penalty crosses the
        break-even between reservation gap and replacement risk."""
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        cheap = solve_phase1(small_instance(tree, costs=make_costs(crash=1.60)))
        dear = solve_phase1(small_instance(tree, costs=make_costs(crash=1.65)))
        assert cheap.reservations[0, 0] == 1
        assert dear.reservations[0, 0] == 3
        assert cheap.optimal and dear.optimal

    def test_calm_forecast_reserves_smallest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.0)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=0.5)))
        assert plan.reservations[0, 0] == 1
        # the zero-probability storm still books a (free) replacement
        assert plan.recourse[1, 0, 0] == 0
        assert plan.expected_cost == pytest.approx(2.375, rel=1e-12)

    def test_stormy_forecast_reserves_largest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.5)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=0.5)))
        assert plan.reservations[0, 0] == 3

    def test_expected_cost_analytic(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=1.0)))
        # type 1: 0.001 * 2375 + 0.3 * (0.0015 * 5200 + 1.0)
        assert plan.expected_cost == pytest.approx(5.015, rel=1e-12)
        assert plan.recourse[0, 0, 0] == 1  # strong-wind scenario replaces it

    def test_effective_types_substitute_largest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        inst = small_instance(tree, costs=make_costs(crash=1.0))
        plan = solve_phase1(inst)
        assert effective_station_types(inst, plan, 0, 0) == (3,)
        assert effective_station_types(inst, plan, 1, 0) == (1,)


class TestPhase2Solutions:
    def test_sip_matches_exact_expectation(self):
        inst = small_instance(z3_tree())
        plan = solve_phase2(inst, "sip")
        assert plan.optimal
        gap = abs(plan.expected_cost - exact_expected_cost(inst, plan))
        assert gap <= 1e-9
        assert sum(plan.stage_breakdown.values()) == pytest.approx(
            plan.expected_cost, abs=1e-9
        )

    def test_all_local_ignores_shortfall(self):
        """Losses only hit offloaded copies; with offloading priced out
        the plan keeps every copy on the UAV and owes nothing later."""
        costly = dataclasses.replace(make_costs(), service_fee=50.0)
        inst = small_instance(z3_tree(mag=3), costs=costly)
        plan = solve_phase2(inst, "sip")
        for dec in plan.stage2.values():
            assert dec.local == 4 and sum(dec.offload) == 0
            assert dec.offload_indicator == 0
        assert all(r == 0 for r in plan.residuals.values())
        assert plan.stage_breakdown["stage3"] == pytest.approx(0.0, abs=1e-12)
        assert plan.stage_breakdown["terminal"] == pytest.approx(0.0, abs=1e-12)

    def test_local_cap_zero_forces_offload(self):
        inst = small_instance(z3_tree(), max_local_copies=0)
        plan = solve_phase2(inst, "sip")
        for dec in plan.stage2.values():
            assert dec.local == 0
            assert dec.offload_indicator == 1
            assert sum(dec.offload) >= 4

    def test_dip_equals_sip_on_degenerate_tree(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        sip = solve_phase2(inst, "sip")
        dip = solve_phase2(inst, "dip", demand=[240])
        assert abs(sip.expected_cost - dip.expected_cost) <= 1e-9

    def test_gated_wait_cost_keeps_identity(self):
        inst = small_instance(
            tree_z2(1, [(240,)], [1.0]), wait_cost_gated_by_offload=True
        )
        sip = solve_phase2(inst, "sip")
        dip = solve_phase2(inst, "dip", demand=[240])
        assert abs(sip.expected_cost - dip.expected_cost) <= 1e-9

    def test_unknown_formulation(self):
        with pytest.raises(ValueError, match="formulation"):
            solve_phase2(small_instance(z3_tree()), "lp")

    def test_dip_requires_demand(self):
        with pytest.raises(ValueError, match="demand"):
            solve_phase2(small_instance(z3_tree()), "dip")


class TestWarmStart:
    def assert_feasible(self, inst):
        built = build_phase2_sip(inst)
        warm = _phase2_warm_start(inst, built)
        assert warm is not None
        lo, up = built.model.bounds_arrays()
        assert np.all(warm >= lo - 1e-9) and np.all(warm <= up + 1e-9)
        assert built.model.max_violation(warm) <= 1e-6

    def test_all_local_route(self):
        self.assert_feasible(small_instance(z3_tree()))

    def test_saturation_route(self):
        self.assert_feasible(small_instance(z3_tree(), max_local_copies=0))

    def test_capacity_short_returns_none(self):
        inst = small_instance(z3_tree(), max_local_copies=0, n_bs=1, q=3)
        built = build_phase2_sip(inst)
        assert _phase2_warm_start(inst, built) is None


class TestBaselines:
    def test_random_plan_deterministic(self):
        inst = small_instance(z3_tree())
        a = random_plan(inst, seed=7)
        b = random_plan(inst, seed=7)
        assert a.subscriptions == b.subscriptions
        assert a.stage2 == b.stage2
        assert a.expected_cost == b.expected_cost

    def test_random_plan_cost_is_exact_evaluation(self):
        inst = small_instance(z3_tree())
        plan = random_plan(inst, seed=3)
        gap = abs(plan.expected_cost - exact_expected_cost(inst, plan))
        assert gap <= 1e-9

    def test_baselines_never_beat_sip(self):
        inst = small_instance(
            tree_z2(1, [(240,), (480,)], [0.5, 0.5])
        )
        sip = solve_phase2(inst, "sip")
        evf = evf_plan(inst)
        assert sip.expected_cost <= evf.expected_cost + 1e-9
        for seed in range(5):
            rnd = random_plan(inst, seed)
            assert sip.expected_cost <= rnd.expected_cost + 1e-9

    def test_evf_freezes_recourse_at_zero(self):
        inst = small_instance(z3_tree())
        plan = evf_plan(inst)
        for dec in plan.recourse.values():
            assert dec.local == 0 and sum(dec.offload) == 0


class TestRealizedCosts:
    def test_parts_sum_and_keys(self):
        inst = small_instance(z3_tree())
        plan = solve_phase2(inst, "sip")
        parts = realized_path_parts(inst, plan, 0, (0,))
        assert set(parts) == {"stage1", "stage2", "stage3", "terminal"}
        et = sum(
            p.probability
            * sum(realized_path_parts(inst, plan, 0, p.loss_indices).values())
            for p in enumerate_terminal_paths(inst.tree)
        )
        assert et == pytest.approx(plan.expected_cost, abs=1e-9)
        with pytest.raises(ValueError, match="no terminal path"):
            realized_path_parts(inst, plan, 0, ())

    def test_residual_flag_charges_penalty_where_coverage_holds(self):
        inst = small_instance(z3_tree())
        plan = evf_plan(inst)
        calm = next(
            p for p in enumerate_terminal_paths(inst.tree) if p.loss_indices == (1,)
        )
        key = (0, (calm.demand_index, *calm.loss_indices), 0)
        assert plan.residuals[key] == 0
        flagged = dataclasses.replace(plan, residuals={**plan.residuals, key: 1})
        total, breakdown = exact_expected_cost(inst, flagged, with_breakdown=True)
        rise = calm.probability * inst.costs.completion_penalty
        assert total == pytest.approx(plan.expected_cost + rise, abs=1e-9)
        assert breakdown["terminal"] == pytest.approx(
            plan.stage_breakdown["terminal"] + rise, abs=1e-9
        )
        assert sum(breakdown.values()) == pytest.approx(total, abs=1e-9)


class TestOffloadCurve:
    def test_rows_trace_pinned_totals(self):
        inst = small_instance(z3_tree())
        rows = offload_curve(inst, values=range(4, 9))
        assert [r["offload"] for r in rows] == [4, 5, 6, 7, 8]
        for r in rows:
            assert r["status"] == "optimal"
            parts = [v for key, v in r.items() if key.startswith("stage") or key == "terminal"]
            assert sum(parts) == pytest.approx(r["total"], abs=1e-9)

    def test_rejects_multi_station(self):
        inst = small_instance(tree_z2(2, [(240, 240)], [1.0]), n_stations=2)
        with pytest.raises(ValueError, match="one slot"):
            offload_curve(inst)


class TestNodeLimits:
    def test_dip_without_incumbent_raises(self, curve_instance):
        with pytest.raises(ResourceLimitError, match="node limit"):
            solve_phase2(
                curve_instance,
                "dip",
                demand=list(curve_instance.tree.demand[0].dims),
                node_limit=1,
            )

    def test_sip_returns_warm_incumbent(self, bundled_instance):
        n = len(bundled_instance.stations)
        z4 = dataclasses.replace(
            bundled_instance,
            tree=dataclasses.replace(
                bundled_instance.tree,
                shortfall_stages=(guaranteed_stage(n, 4), guaranteed_stage(n, 14)),
            ),
        )
        plan = solve_phase2(z4, "sip", node_limit=1)
        assert not plan.optimal
        assert plan.expected_cost > 0.0
        assert sum(plan.stage_breakdown.values()) == pytest.approx(
            plan.expected_cost, abs=1e-9
        )
        assert exact_expected_cost(z4, plan) == pytest.approx(
            plan.expected_cost, abs=1e-9
        )


class TestComposition:
    def test_composed_cost_and_caching(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        inst = small_instance(tree, costs=make_costs(crash=50.0))
        p1, plans, composed = plan_both_phases(inst)
        assert p1.reservations[0, 0] == 3  # crash risk prices out small types
        # same effective fleet in both weathers, so one shared solve
        assert plans[0, 0] is plans[0, 1]
        expect = p1.expected_cost + sum(
            w.probability * plans[0, mu].expected_cost
            for mu, w in enumerate(tree.weather)
        )
        assert composed == pytest.approx(expect, rel=1e-12)
