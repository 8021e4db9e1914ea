"""Sensitivity sweeps and baseline comparisons."""

import dataclasses
import math

import pytest

import uavplan.evaluate as evaluate
import uavplan.planner as planner
from uavplan.evaluate import (
    SWEEP_PARAMETERS,
    offload_price_comparison,
    sweep,
)
from uavplan.scenario import (
    DemandScenario,
    ScenarioTree,
    ShortfallScenario,
    WeatherScenario,
)

from conftest import (
    branching_instance,
    dip_infeasible_instance,
    make_costs,
    scaled_fee,
    small_instance,
    tree_z2,
)


def z3_tree(p_loss: float = 0.5, mag: int = 2) -> ScenarioTree:
    stage = (
        ShortfallScenario(flags=(1,), magnitudes=(mag,), probability=p_loss),
        ShortfallScenario(flags=(0,), magnitudes=(0,), probability=1.0 - p_loss),
    )
    return ScenarioTree(
        weather=(WeatherScenario(strong_wind=(0,), probability=1.0),),
        demand=(DemandScenario(dims=(240,), probability=1.0),),
        shortfall_stages=(stage,),
    )


class TestSweep:
    def test_unknown_parameter(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(inst, {"parameter": "battery", "grid": [1.0]})

    def test_empty_grid(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="empty"):
            sweep(inst, {"parameter": "penalty_C_p", "grid": []})

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"parameter": "penalty_C_p", "grid": [2.0, 1.0]}, "strictly increasing"),
            ({"parameter": "z", "grid": [2, 3, 4.5]}, "integers >= 2"),
            ({"parameter": "z", "grid": [4, 3, 2]}, "strictly increasing"),
            ({"parameter": "weather_prob", "grid": [0.2, 1.5]}, r"\[0, 1\]"),
        ],
        ids=["penalty-decreasing", "z-fraction-last", "z-decreasing", "weather-last"],
    )
    def test_unsorted_grid(self, monkeypatch, spec, match):
        """A grid out of order, or with a bad value in any position,
        raises before the sweep's first solve."""
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        solves = []
        for name in ("solve_phase1", "solve_phase2"):
            solve = getattr(evaluate, name)

            def counted(*args, _solve=solve, **kwargs):
                solves.append(args)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(evaluate, name, counted)
        with pytest.raises(ValueError, match=match):
            sweep(inst, spec)
        assert solves == []

    def test_penalty_sweep_crosses_reservation_flip(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0], p_strong=0.3))
        low, high = sweep(inst, {"parameter": "penalty_C_p", "grid": [1.60, 1.65]})
        assert low["objective"] < high["objective"]
        assert "type 1" in low["summary"]
        assert "type 3" in high["summary"]

    def test_weather_sweep_needs_mixed_scenarios(self):
        calm_only = ScenarioTree(
            weather=(
                WeatherScenario(strong_wind=(0,), probability=0.4),
                WeatherScenario(strong_wind=(0,), probability=0.6),
            ),
            demand=(DemandScenario(dims=(240,), probability=1.0),),
        )
        inst = small_instance(calm_only)
        with pytest.raises(ValueError, match="strong-wind"):
            sweep(inst, {"parameter": "weather_prob", "grid": [0.5]})

    def test_weather_prob_outside_unit_interval(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sweep(inst, {"parameter": "weather_prob", "grid": [1.5]})

    def test_shortfall_sweep_needs_recourse_stage(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="recourse stage"):
            sweep(inst, {"parameter": "shortfall_prob", "grid": [0.5]})

    def test_uav_type_sweep_validates_ids(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="known type id"):
            sweep(inst, {"parameter": "uav_type", "grid": [7]})

    def test_z_sweep_grows_stages(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        rows = sweep(
            inst,
            {"parameter": "z", "grid": [2, 3], "shortfall_magnitudes": [2]},
        )
        assert len(rows) == 2
        # a guaranteed loss can only cost more than no recourse stage
        assert rows[1]["objective"] >= rows[0]["objective"] - 1e-9
        assert rows[0]["parameter"] == "z" and rows[0]["value"] == 2.0
        assert list(rows[0])[:3] == ["parameter", "value", "objective"]
        assert list(rows[0])[-2:] == ["summary", "optimal"]

    def test_split_sweep_reports_threshold(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        rows = sweep(
            inst, {"parameter": "split_s", "grid": [1, 2], "split_m": 4}
        )
        assert [row["k"] for row in rows] == [16, 12]

    def test_penalty_sweep_counts_every_slot(self, bundled_instance):
        """The README penalty sweep on a three-slot copy of the bundled
        network: objectives and reservation counts cover all three
        slots of six stations. A phase-2 point's objective and stage
        columns are three times the one-slot values."""
        inst = dataclasses.replace(bundled_instance, time_slots=3)
        rows = sweep(inst, {"parameter": "penalty_C_p", "grid": [0.5, 1, 1.5, 2]})
        objectives = [row["objective"] for row in rows]
        assert objectives == pytest.approx([87.57, 90.27, 92.97, 93.6], abs=1e-9)
        summaries = [row["summary"] for row in rows]
        assert summaries == ["reserve type 1 x18"] * 3 + ["reserve type 3 x18"]
        hover = {"parameter": "hover_multiplier", "grid": [2.0]}
        (one,), (three,) = sweep(bundled_instance, hover), sweep(inst, hover)
        # the objective and every stage column
        labels = ("parameter", "value", "summary", "optimal")
        costs = [key for key in one if key not in labels]
        assert costs[0] == "objective" and len(costs) > 1
        tripled = {key: 3 * one[key] for key in costs}
        assert {key: three[key] for key in costs} == pytest.approx(tripled, abs=1e-9)

    def test_sweep_is_deterministic(self):
        inst = small_instance(z3_tree())
        spec = {"parameter": "shortfall_prob", "grid": [0.2, 0.8]}
        assert sweep(inst, spec) == sweep(inst, spec)

    def test_points_flag_solves_cut_short(self):
        inst = branching_instance()
        spec = {"parameter": "hover_multiplier", "grid": [0.5, 1.0]}
        def optimal(spec, **kwargs):
            return [row["optimal"] for row in sweep(inst, spec, **kwargs)]

        assert optimal(spec, node_limit=1) == [False, False]
        assert optimal(spec) == [True, True]
        penalty = {"parameter": "penalty_C_p", "grid": [1.0]}
        assert optimal(penalty, node_limit=1) == [True]

    @pytest.mark.parametrize(
        "spec, restarted",
        [
            ({"parameter": "hover_multiplier", "grid": [0.5, 1.0, 2.0]}, True),
            ({"parameter": "uav_type", "grid": [1, 2, 3]}, True),
            ({"parameter": "z", "grid": [2, 3]}, False),
        ],
        ids=["hover_multiplier", "uav_type", "z"],
    )
    def test_points_restart_from_previous_point(
        self, bundled_instance, monkeypatch, spec, restarted
    ):
        """Each phase-2 point offers its root the previous point's basis.
        A point of the same model shape takes it and takes no dual step; a z
        point has another shape and starts cold. Either way every row is
        the one the point gives when swept alone."""
        dual_steps = []
        solve = planner.solve_exact

        def counted(model, **kwargs):
            sol = solve(model, **kwargs)
            dual_steps.append(sol.simplex_pivots[0])
            return sol

        monkeypatch.setattr(planner, "solve_exact", counted)
        rows = sweep(bundled_instance, spec)
        assert dual_steps[0] > 0
        assert all((steps == 0) == restarted for steps in dual_steps[1:])
        for value, row in zip(spec["grid"], rows):
            (alone,) = sweep(bundled_instance, {**spec, "grid": [value]})
            assert row == alone

    def test_parameter_catalog_is_exposed(self):
        assert "penalty_C_p" in SWEEP_PARAMETERS
        assert len(SWEEP_PARAMETERS) == 7


class TestCompare:
    """The comparison at the instance's own prices, multiplier 1."""

    def test_orders_baselines(self):
        inst = small_instance(tree_z2(1, [(240,), (480,)], [0.5, 0.5]))
        (result,) = offload_price_comparison(inst, (1.0,))
        assert set(result) == {
            "multiplier",
            "sip_cost",
            "evf_cost",
            "random_cost",
            "optimal",
        }
        assert result["sip_cost"] <= result["evf_cost"] + 1e-9
        assert result["sip_cost"] <= result["random_cost"] + 1e-9

    def test_degenerate_tree_equates_sip_and_evf(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        (result,) = offload_price_comparison(inst, (1.0,))
        assert result["sip_cost"] == pytest.approx(result["evf_cost"], abs=1e-9)

    def test_rejects_thin_seed_list(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="30 seeds"):
            offload_price_comparison(inst, (1.0,), seeds=range(5))

    def test_infeasible_mean_value_program_costs_inf(self):
        inst = dip_infeasible_instance()
        with pytest.raises(planner.InfeasibleModelError):
            planner.evf_plan(inst)
        (row,) = offload_price_comparison(inst, multipliers=(1.0,))
        assert row["evf_cost"] == math.inf
        assert row["sip_cost"] == pytest.approx(7.433182307114871, rel=1e-9)
        assert row["optimal"] is True


class TestPriceComparison:
    @pytest.mark.parametrize(
        "multipliers, seeds, match",
        [
            ((), None, "at least one"),
            ((2.0, 1.0), None, "strictly increasing"),
            ((1.0, 1.0), None, "strictly increasing"),
            ((float("nan"),), None, "finite"),
            ((1.0, math.inf), None, "finite"),
            ((1.0, 2.0), range(29), "30 seeds"),
        ],
        ids=["empty", "decreasing", "repeated", "nan", "inf", "thin-seeds"],
    )
    def test_rejects_bad_multipliers(self, monkeypatch, multipliers, seeds, match):
        """Bad grids and thin seed lists fail before any draw or solve."""
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        calls = []
        monkeypatch.setattr(planner, "solve_exact", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(evaluate, "_draw_random_plan", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=match):
            offload_price_comparison(inst, multipliers=multipliers, seeds=seeds)
        assert calls == []

    def test_rows_equal_compare_run_alone(self):
        inst = small_instance(tree_z2(1, [(240,), (480,)], [0.5, 0.5]))
        mults = (0.5, 1.0, 3.0)
        rows = offload_price_comparison(inst, multipliers=mults, seeds=range(30))
        assert len(rows) == len(mults)
        for mult, row in zip(mults, rows):
            (alone,) = offload_price_comparison(
                scaled_fee(inst, mult), (1.0,), seeds=range(30)
            )
            assert row == {**alone, "multiplier": mult}
            assert row["optimal"] is True

    def test_draws_each_seed_once(self, monkeypatch):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        seeds = []
        draw = evaluate._draw_random_plan

        def counted(instance, seed):
            seeds.append(seed)
            return draw(instance, seed)

        monkeypatch.setattr(evaluate, "_draw_random_plan", counted)
        offload_price_comparison(inst, multipliers=(0.5, 1.0, 2.0), seeds=range(30))
        assert seeds == list(range(30))

    def test_cost_tables_built_per_multiplier_not_per_plan(
        self, bundled_instance, monkeypatch
    ):
        """One pricing per model at the build and one per model at each
        of the 8 multipliers. The SIP's pricing also prices the
        expected-value plan, and the drawn plans' bills read no price."""
        calls = []
        tables = planner._stage_cost_tables

        def counted(*args):
            calls.append(None)
            return tables(*args)

        monkeypatch.setattr(planner, "_stage_cost_tables", counted)
        offload_price_comparison(bundled_instance)
        assert len(calls) == 2 + 2 * 8

    def test_builds_each_model_once_and_bills_each_plan_once(
        self, bundled_instance, monkeypatch
    ):
        """Over the 8 default multipliers, the SIP and the mean-value DIP
        are built once and re-priced, and each drawn plan is billed once;
        only the solved plans are billed again, on decode."""
        calls, drawn = [], []
        spied = [
            (planner, "build_phase2_sip"),
            (planner, "build_phase2_dip"),
            (planner._Pricing, "bill"),
        ]
        for owner, name in spied:

            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.append((_name, args[-1]))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        draw = evaluate._draw_random_plan
        monkeypatch.setattr(
            evaluate, "_draw_random_plan", lambda *a: drawn.append(draw(*a)) or drawn[-1]
        )
        offload_price_comparison(bundled_instance)
        names = [name for name, _ in calls]
        assert names.count("build_phase2_sip") == names.count("build_phase2_dip") == 1
        billed = [id(plan) for name, plan in calls if name == "bill"]
        assert len(drawn) == 30
        assert [billed.count(id(plan)) for plan in drawn] == [1] * 30
        # each multiplier bills the SIP, DIP and expected-value plans it solves
        assert len(billed) == 30 + 3 * 8

    def test_roots_restart_from_previous_multiplier(self, bundled_instance, monkeypatch):
        """Only the service fee changes between multipliers, so every root
        after the first of its kind starts from the previous optimal basis
        and takes no dual step. Cold, the eight SIP roots take 690 entering
        steps."""
        solves = []
        solve = planner.solve_exact

        def counted(model, **kwargs):
            sol = solve(model, **kwargs)
            solves.append((model.name, sol.nodes_explored, sol.simplex_pivots))
            return sol

        monkeypatch.setattr(planner, "solve_exact", counted)
        offload_price_comparison(bundled_instance)
        assert [name for name, _, _ in solves] == ["phase2_sip", "phase2_dip"] * 8
        assert all(nodes == 1 for _, nodes, _ in solves)  # steps are the root's
        sip = [steps for name, _, steps in solves if name == "phase2_sip"]
        dip = [steps for name, _, steps in solves if name == "phase2_dip"]
        assert [s[0] for s in sip] == [92] + [0] * 7
        assert [s[0] for s in dip] == [26] + [0] * 7
        assert sum(map(sum, sip)) == 111

    def test_rows_flag_solves_cut_short(self):
        inst = branching_instance()
        (row,) = offload_price_comparison(inst, multipliers=(1.0,), node_limit=1)
        assert row["optimal"] is False
        (row,) = offload_price_comparison(inst, multipliers=(1.0,))
        assert row["optimal"] is True

    def test_rows_keep_dominance(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        rows = offload_price_comparison(inst, multipliers=(0.5, 2.0))
        assert [r["multiplier"] for r in rows] == [0.5, 2.0]
        for r in rows:
            assert r["sip_cost"] <= r["evf_cost"] + 1e-9
            assert r["sip_cost"] <= r["random_cost"] + 1e-9
