"""Reservation and allocation programs, baselines, cost accounting."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavplan.planner as planner
from uavplan.coding import CodeSplit
from uavplan.milp import solve_enumerate, solve_exact
from uavplan.planner import (
    BaseStation,
    NetworkInstance,
    PlanningError,
    ResourceLimitError,
    Station,
    _bounded_draws,
    _draw_random_plan,
    _mean_demand_and_shortfall,
    _phase2_warm_start,
    _Pricing,
    build_phase1,
    build_phase2_dip,
    build_phase2_sip,
    decode_phase2,
    effective_station_types,
    evf_plan,
    exact_expected_cost,
    offload_curve,
    plan_both_phases,
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

from conftest import (
    UAV_TYPES,
    branching_instance,
    dip_infeasible_instance,
    guaranteed_stage,
    make_costs,
    phase1_instance,
    small_instance,
    tree_z2,
)


def stage2_decisions(plan) -> list:
    return [dec for (_, _, prefix, _), dec in plan.decisions.items() if not prefix]


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
    """Building an instance runs its checks; an invalid one never exists."""

    def test_clean(self):
        assert small_instance(z3_tree())._problems() == []

    def test_misordered_types_reported(self):
        with pytest.raises(ValueError, match="ascending battery"):
            small_instance(
                tree_z2(1, [(240,)], [1.0]), uav_types=tuple(reversed(UAV_TYPES))
            )

    def test_station_count_mismatch_reported(self):
        with pytest.raises(ValueError, match="station vectors"):
            small_instance(tree_z2(2, [(240, 240)], [1.0]), n_stations=1)

    def test_unknown_station_type_reported(self):
        base = small_instance(tree_z2(1, [(240,)], [1.0]))
        with pytest.raises(ValueError, match="unknown UAV type 99"):
            dataclasses.replace(
                base, stations=(dataclasses.replace(base.stations[0], uav_type=99),)
            )

    def test_low_hover_reported(self):
        base = small_instance(tree_z2(1, [(240,)], [1.0]))
        tall_bs = dataclasses.replace(base.base_stations[0], height=150.0)
        with pytest.raises(ValueError, match="does not clear"):
            dataclasses.replace(base, base_stations=(tall_bs,))

    def test_time_slots_rejected(self):
        with pytest.raises(ValueError, match="time_slots"):
            small_instance(tree_z2(1, [(240,)], [1.0]), time_slots=0)


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
        assert cheap.reservations == (1,)
        assert dear.reservations == (3,)

    def test_calm_forecast_reserves_smallest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.0)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=0.5)))
        assert plan.reservations == (1,)
        # the zero-probability storm still books a (free) replacement
        assert plan.recourse[1, 0] == 0
        assert plan.expected_cost == pytest.approx(2.375, rel=1e-12)

    def test_stormy_forecast_reserves_largest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.5)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=0.5)))
        assert plan.reservations == (3,)

    def test_expected_cost_analytic(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        plan = solve_phase1(small_instance(tree, costs=make_costs(crash=1.0)))
        # type 1: 0.001 * 2375 + 0.3 * (0.0015 * 5200 + 1.0)
        assert plan.expected_cost == pytest.approx(5.015, rel=1e-12)
        assert plan.recourse[0, 0] == 1  # strong-wind scenario replaces it

    def test_closed_form_matches_branch_and_bound(self):
        """The closed form against the integer model on 200 random
        gate-2 shapes (1-3 slots) with random crash penalties: the
        optimum costs the number of slots times the one-slot plan, every
        slot of it reserves and replaces as that plan, and each
        weather's effective fleet is the type the optimum flies there,
        the largest where R = 1 and the reservation otherwise."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            shape = [int(rng.integers(1, 4)), int(rng.integers(1, 5))]
            shape += [int(rng.integers(2, 4)), int(rng.integers(1, 5))]
            inst = dataclasses.replace(
                phase1_instance(rng, *shape),
                costs=make_costs(crash=float(rng.uniform(0.0, 10.0))),
            )
            plan = solve_phase1(inst)
            built = build_phase1(inst)
            sol = solve_exact(built.model)
            assert sol.status == "optimal"
            assert inst.time_slots * plan.expected_cost == pytest.approx(
                sol.objective, abs=1e-9
            )

            def value(name: str) -> int:
                return round(sol.assignment[built.model.variable_id(name)])

            largest = inst.largest_type.id
            for t in range(inst.time_slots):
                booked = []  # the optimum's reserved type per station
                for st, tid in zip(inst.stations, plan.reservations):
                    for uav in inst.uav_types:
                        x = value(f"T[slot={t}][station={st.id}][type={uav.id}]")
                        assert x == int(uav.id == tid)
                        booked += [uav.id] * x
                for mu in range(len(inst.tree.weather)):
                    flags = [
                        value(f"R[weather={mu}][slot={t}][station={st.id}]")
                        for st in inst.stations
                    ]
                    for y, flag in enumerate(flags):
                        assert flag == plan.recourse[mu, y]
                    flown = [largest if f else tid for f, tid in zip(flags, booked)]
                    assert effective_station_types(inst, plan, mu) == tuple(flown)

    def test_effective_types_substitute_largest(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        inst = small_instance(tree, costs=make_costs(crash=1.0))
        plan = solve_phase1(inst)
        assert effective_station_types(inst, plan, 0) == (3,)
        assert effective_station_types(inst, plan, 1) == (1,)


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
        for dec in stage2_decisions(plan):
            assert dec.local == 4 and sum(dec.offload) == 0
            assert dec.offload_indicator == 0
        assert all(r == 0 for r in plan.residuals.values())
        assert plan.stage_breakdown["stage3"] == pytest.approx(0.0, abs=1e-12)
        assert plan.stage_breakdown["terminal"] == pytest.approx(0.0, abs=1e-12)

    def test_local_cap_zero_forces_offload(self):
        inst = small_instance(z3_tree(), max_local_copies=0)
        plan = solve_phase2(inst, "sip")
        for dec in stage2_decisions(plan):
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

    @pytest.mark.parametrize(
        "kind, fleet",
        [("sip", (1,)), ("dip", (1,)), ("evf", (1,)), ("random", (3,))],
        ids=["sip", "dip", "evf", "random"],
    )
    def test_slots_repeat_one_slot_plan(self, kind, fleet):
        """A multi-slot instance makes the one-slot plan, its one-slot
        cost and stage breakdown included, and the plan carries the fleet
        it was made for: the one asked for, or the stations' own (type 3)
        for a random draw."""
        make = {
            "sip": lambda inst: solve_phase2(inst, "sip", type_ids=fleet),
            "dip": lambda inst: solve_phase2(
                inst, "dip", demand=[240], shortfall=[1.0], type_ids=fleet
            ),
            "evf": lambda inst: evf_plan(inst, type_ids=fleet),
            "random": lambda inst: _Pricing.of(inst).price(_draw_random_plan(inst, 3)),
        }[kind]
        one = small_instance(z3_tree())
        two = dataclasses.replace(one, time_slots=2)
        base, plan = make(one), make(two)
        assert plan == base
        assert plan.type_ids == fleet
        assert sum(plan.stage_breakdown.values()) == pytest.approx(
            plan.expected_cost, abs=1e-9
        )
        # a DIP plan has no recourse stages, so its exact expectation is
        # taken on the tree without them
        tree = two.tree
        if kind == "dip":
            tree = dataclasses.replace(tree, shortfall_stages=())
        evaluated = dataclasses.replace(two, tree=tree)
        assert exact_expected_cost(evaluated, plan) == pytest.approx(
            plan.expected_cost, abs=1e-9
        )

    def test_unknown_formulation(self):
        with pytest.raises(ValueError, match="formulation"):
            solve_phase2(small_instance(z3_tree()), "lp")

    def test_dip_requires_demand(self):
        with pytest.raises(ValueError, match="demand"):
            solve_phase2(small_instance(z3_tree()), "dip")


# sha256 of to_lp_text() of the bundled instance's SIP and mean-value
# DIP with z - 2 guaranteed loss stages, pinned when one Phase2Model
# took over building both. A change to either model updates these on
# purpose and says why.
PINNED_MODEL_HASHES = {
    2: (
        "6ac8c11999ee48759aba2a9254da2d83aa2681f4a1859925ad13ad97a5f2c0e1",
        "ae0d006da7545f3aef62d1019ea0c5854df069c9e7ee96c49b6d09ca6c1e66a0",
    ),
    3: (
        "39097f8d2d5e515eadf600d6629582be9ce8b24bcaadb3b3942d47b6c273e53f",
        "f7eb280ab8074b4f3a91e6cc7b670902d3bc5d8f354924192508a4e458ee80d9",
    ),
    4: (
        "1744732e8426d7c04fc76729e9188388640eb660e80ecbeda00ae36d4688a389",
        "8187de6a45ebcc4e939ba31b956cd7ce648b942681b6e42049e52477d8602f20",
    ),
    5: (
        "f288da804d3b2fe7806f8cac15ed8bc35958a9c5ce97e7f141bf8374c1630ebb",
        "0d6d2a7a5d89bb528c3f84a2f04845ecec037cfa405b8284326b9fac26f9c21a",
    ),
}


class TestPhase2Model:
    @pytest.mark.parametrize("z", sorted(PINNED_MODEL_HASHES))
    def test_models_pinned(self, bundled_instance, z):
        n = len(bundled_instance.stations)
        stages = tuple(guaranteed_stage(n, mag) for mag in (4, 14, 24)[: z - 2])
        inst = dataclasses.replace(
            bundled_instance,
            tree=dataclasses.replace(bundled_instance.tree, shortfall_stages=stages),
        )
        sip = build_phase2_sip(inst)
        dip = build_phase2_dip(inst, *_mean_demand_and_shortfall(inst))
        digests = tuple(
            hashlib.sha256(built.model.to_lp_text().encode()).hexdigest()
            for built in (sip, dip)
        )
        assert digests == PINNED_MODEL_HASHES[z]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_phase2_sip(small_instance(z3_tree())),
            lambda: build_phase2_sip(small_instance(z3_tree(), max_local_copies=0)),
            lambda: build_phase2_sip(branching_instance()),
            lambda: build_phase2_dip(small_instance(z3_tree()), [240], [1.0]),
        ],
        ids=["sip", "sip-offloading", "sip-two-demands", "dip"],
    )
    def test_encode_inverts_decode(self, build):
        built = build()
        sol = solve_exact(built.model)
        plan = decode_phase2(built, sol)
        assert np.array_equal(built.encode(plan), np.round(sol.assignment))


class TestWarmStart:
    def assert_feasible(self, inst):
        built = build_phase2_sip(inst)
        warm = _phase2_warm_start(built)
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
        assert _phase2_warm_start(built) is None


def oracle_instance(split, n_y, n_bs, seats, n_d, loss, cap, gated) -> NetworkInstance:
    """One point of the enumeration check's grid: ``n_y`` stations under
    the code split ``split`` (m, s, t), ``n_d`` equally likely demand
    scenarios (dimension 240, then 480), ``n_bs`` base stations of
    ``seats`` servers, at most ``cap`` local copies, the wait cost gated
    by offloading if ``gated``, and, unless ``loss`` is None, one loss
    stage that takes ``loss`` copies from every station with p = 0.5 and
    none otherwise."""
    tree = tree_z2(n_y, [(240,) * n_y, (480,) * n_y][:n_d], [1.0 / n_d] * n_d)
    if loss is not None:
        stage = (
            ShortfallScenario(flags=(1,) * n_y, magnitudes=(loss,) * n_y, probability=0.5),
            ShortfallScenario(flags=(0,) * n_y, magnitudes=(0,) * n_y, probability=0.5),
        )
        tree = dataclasses.replace(tree, shortfall_stages=(stage,))
    return small_instance(
        tree, n_stations=n_y, n_bs=n_bs, q=seats,
        split=CodeSplit.from_slices(*split), max_local_copies=cap,
        wait_cost_gated_by_offload=gated,
    )


def oracle_grid() -> list[tuple]:
    """The grid points whose SIP enumeration space, the product of the
    variable ranges, is at most 1e6: 378 of 864, 274 of them feasible."""
    points = itertools.product(
        ((1, 1, 1), (2, 2, 1)),  # k = 1 or 3
        (1, 2), (1, 2), (1, 2, 3), (1, 2), (None, 1, 2), (None, 0, 1), (False, True),
    )
    return [
        point for point in points
        if math.prod(
            int(v.upper - v.lower) + 1
            for v in build_phase2_sip(oracle_instance(*point)).model.variables
        ) <= 1_000_000
    ]


def oracle_id(point) -> str:
    split, n_y, n_bs, seats, n_d, loss, cap, gated = point
    k = CodeSplit.from_slices(*split).k
    return f"k{k}-y{n_y}-bs{n_bs}x{seats}-d{n_d}-loss{loss}-cap{cap}" + "-gated" * gated


class TestEnumerationOracle:
    """Branch and bound against the enumerator on models the planner
    builds, cold and from the all-local warm start."""

    @pytest.mark.parametrize("point", oracle_grid(), ids=oracle_id)
    def test_exact_matches_enumeration(self, point):
        built = build_phase2_sip(oracle_instance(*point))
        want = solve_enumerate(built.model)
        warm = _phase2_warm_start(built)
        for sol in (solve_exact(built.model), solve_exact(built.model, warm_start=warm)):
            assert sol.status == want.status
            if want.status != "optimal":
                continue
            assert sol.objective == pytest.approx(want.objective, rel=0, abs=1e-9)
            plan = decode_phase2(built, sol)
            assert exact_expected_cost(built.instance, plan) == pytest.approx(
                sol.objective, rel=0, abs=1e-9
            )
            assert np.array_equal(built.encode(plan), np.round(sol.assignment))
        if want.status == "optimal":
            # a random draw is a SIP point, so it cannot beat the optimum
            drawn = _draw_random_plan(built.instance, 0)
            assert want.objective <= exact_expected_cost(built.instance, drawn) + 1e-9


class TestBaselines:
    def test_random_plan_deterministic(self):
        inst = small_instance(z3_tree())
        a = _draw_random_plan(inst, seed=7)
        b = _draw_random_plan(inst, seed=7)
        assert a.subscriptions == b.subscriptions
        assert a.decisions == b.decisions
        assert exact_expected_cost(inst, a) == exact_expected_cost(inst, b)

    def test_random_plan_draw_ignores_service_fee(self):
        inst = branching_instance()
        dear = dataclasses.replace(
            inst, costs=dataclasses.replace(inst.costs, service_fee=3.0)
        )
        repriced = 0
        for seed in range(5):
            a, b = _draw_random_plan(inst, seed), _draw_random_plan(dear, seed)
            assert a.subscriptions == b.subscriptions
            assert a.decisions == b.decisions
            assert a.residuals == b.residuals
            repriced += exact_expected_cost(inst, a) != exact_expected_cost(dear, b)
        assert repriced  # some draws offload, so the fee reaches their cost

    def test_random_plan_cost_is_exact_evaluation(self):
        inst = small_instance(z3_tree())
        plan = _Pricing.of(inst).price(_draw_random_plan(inst, seed=3))
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
            rnd = _draw_random_plan(inst, seed)
            assert sip.expected_cost <= exact_expected_cost(inst, rnd) + 1e-9

    @pytest.mark.parametrize("cap", [1, 2])
    def test_random_plan_draws_a_sip_point_at_tight_local_caps(
        self, bundled_instance, monkeypatch, cap
    ):
        """On the bundled network at local-copy caps 1 and 2, uniform
        draws leave the last stations too few seats, and every block
        falls back to the bounded draw. Seeds 0-29 with only bounded
        draws, and seed 0 after the full uniform budget, each draw a
        point of the SIP that costs no less than its optimum."""
        inst = dataclasses.replace(bundled_instance, max_local_copies=cap)
        built = build_phase2_sip(inst)
        optimum = solve_phase2(inst, "sip").expected_cost
        pricing = _Pricing.of(inst)
        plans = [_draw_random_plan(inst, 0)]
        monkeypatch.setattr(planner, "_UNIFORM_DRAWS", 0)
        plans += [_draw_random_plan(inst, seed) for seed in range(30)]
        for plan in plans:
            assert built.model.max_violation(built.encode(plan)) <= 1e-6
            assert pricing.price(plan).expected_cost >= optimum - 1e-9

    def test_random_plan_bounded_draw_refuses_too_few_seats(self, bundled_instance, monkeypatch):
        """With no local copy allowed, six stations need 6 k = 24 seats at
        each BS; 23 seats cannot hold them, so the sampler raises."""
        seats = dataclasses.replace(bundled_instance.base_stations[0], servers=23)
        inst = dataclasses.replace(
            bundled_instance,
            max_local_copies=0,
            base_stations=(seats, *bundled_instance.base_stations[1:]),
        )
        monkeypatch.setattr(planner, "_UNIFORM_DRAWS", 0)
        with pytest.raises(PlanningError, match="exhausted 0 draws"):
            _draw_random_plan(inst, 0)

    # sha256 of repr() of (subscriptions, sorted decisions, sorted
    # residuals) of every plan below, on the bundled network; pinned while
    # the sampler still called ``Generator.integers`` for each draw, so a
    # sampler that reads the words itself must give NumPy's draws
    DRAWS_SHA256 = "a20c22c966abb16c6839ffea9625b27d2e98787fb5a7b499391be40e1df80d8f"

    def test_random_plan_draws_pinned(self, bundled_instance):
        """Seeds 0-59 at local-copy caps None, 3, 4 and 5, and seeds 0-2
        at caps 1 and 2, where every block spends the whole uniform
        budget before its bounded draw."""
        plans = []
        for cap, seeds in [(None, 60), (3, 60), (4, 60), (5, 60), (1, 3), (2, 3)]:
            inst = dataclasses.replace(bundled_instance, max_local_copies=cap)
            for seed in range(seeds):
                plan = _draw_random_plan(inst, seed)
                plans.append(
                    (
                        plan.subscriptions,
                        sorted(plan.decisions.items()),
                        sorted(plan.residuals.items()),
                    )
                )
        assert hashlib.sha256(repr(plans).encode()).hexdigest() == self.DRAWS_SHA256

    @pytest.mark.parametrize("chunk", [3, None], ids=["chunk3", "default_chunk"])
    def test_bounded_draws_match_numpy(self, monkeypatch, chunk):
        """In lockstep with ``Generator.integers`` on the same seed over
        three chunks of words: spans 0 (no word read), 1 and 2, the
        bundled network's seat counts, negative lows, spans near 3 * 2**30
        and 2**31, where a quarter to a half of the words are rejected,
        and the widest span emulated, 2**32 - 2. A failure on a new NumPy
        means its stream changed under the pinned draws."""
        if chunk is not None:
            monkeypatch.setattr(planner, "_WORD_CHUNK", chunk)
        spans = [0, 1, 2, 3, 23, 24, 1000, 3 * 2**30, 3 * 2**30 + 7, 2**31, 2**32 - 2]
        lows = [0, -1, 5, -(2**40), 2**40]
        n_draws = 3 * planner._WORD_CHUNK
        for seed in (0, 1, 2027):
            draw, ref = _bounded_draws(seed), np.random.default_rng(seed)
            for i in range(n_draws):
                low, span = lows[i % len(lows)], spans[i % len(spans)]
                assert draw(low, low + span) == int(ref.integers(low, low + span + 1)), i
            # still in step once the sequence is over
            assert draw(0, 2**32 - 2) == int(ref.integers(0, 2**32 - 1))

    def test_bounded_draws_refuse_empty_and_wide_ranges(self):
        draw = _bounded_draws(0)
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(5, 5)
        with pytest.raises(ValueError, match=r"cannot draw from \[5, 4\]"):
            draw(5, 4)
        with pytest.raises(ValueError, match="cannot draw"):
            draw(0, 2**32 - 1)  # NumPy's own 32-bit path, not emulated
        with pytest.raises(ValueError, match="cannot draw"):
            draw(-(2**40), 2**40)
        assert draw(7, 7) == 7

    def test_evf_freezes_recourse_at_zero(self):
        inst = small_instance(z3_tree())
        plan = evf_plan(inst)
        recourse = [dec for (_, _, prefix, _), dec in plan.decisions.items() if prefix]
        assert recourse
        for dec in recourse:
            assert dec.local == 0 and sum(dec.offload) == 0


class TestRealizedCosts:
    def test_parts_sum_and_keys(self):
        inst = small_instance(z3_tree())
        plan = solve_phase2(inst, "sip")
        total, breakdown = _Pricing.of(inst, plan.type_ids).expectation(plan)
        assert tuple(breakdown) == ("stage1", "stage2", "stage3", "terminal")
        assert total == pytest.approx(plan.expected_cost, abs=1e-9)
        assert sum(breakdown.values()) == pytest.approx(total, abs=1e-9)

    def test_degenerate_tree_prices_its_one_path(self):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        plan = solve_phase2(inst, "sip")
        pricing = _Pricing.of(inst, plan.type_ids)
        assert [p.probability for p in pricing.paths] == [1.0]
        total, breakdown = pricing.expectation(plan)
        assert tuple(breakdown) == ("stage1", "stage2", "terminal")
        assert total == pytest.approx(plan.expected_cost, abs=1e-9)
        assert sum(breakdown.values()) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize(
        "tree",
        [z3_tree(p_loss=0.3), tree_z2(1, [(240,), (480,)], [0.3, 0.7])],
        ids=["lossy", "two-demand"],
    )
    def test_weighs_each_path_by_its_probability(self, tree):
        """Each path priced alone, as a one-path tree, and weighed by its
        probability sums to the expectation, stage by stage."""
        inst = small_instance(tree)
        plan = solve_phase2(inst, "sip")
        pricing = _Pricing.of(inst, plan.type_ids)
        assert len(pricing.paths) > 1
        total, breakdown = pricing.expectation(plan)
        weighed = dict.fromkeys(breakdown, 0.0)
        for path in pricing.paths:
            alone = dataclasses.replace(
                pricing, paths=[dataclasses.replace(path, probability=1.0)]
            )
            cost, parts = alone.expectation(plan)
            assert tuple(parts) == tuple(breakdown)
            assert min(parts.values()) >= 0.0
            assert sum(parts.values()) == pytest.approx(cost, abs=1e-9)
            for stage, c in parts.items():
                weighed[stage] += path.probability * c
        assert weighed == pytest.approx(breakdown, abs=1e-9)
        assert sum(weighed.values()) == pytest.approx(total, abs=1e-9)

    def test_repeat_pricing_is_identical(self):
        inst = small_instance(z3_tree())
        plan = solve_phase2(inst, "sip")
        cost, parts = plan.expected_cost, dict(plan.stage_breakdown)
        first = _Pricing.of(inst, plan.type_ids).expectation(plan)
        assert _Pricing.of(inst, plan.type_ids).expectation(plan) == first
        assert exact_expected_cost(inst, plan) == exact_expected_cost(inst, plan)
        assert exact_expected_cost(inst, plan) == first[0]
        # pricing reads the plan and leaves it as it was
        assert plan.expected_cost == cost and plan.stage_breakdown == parts

    @pytest.mark.parametrize("kind", ["sip", "evf", "random"])
    def test_plan_carries_its_expectation(self, kind):
        """The SIP's decoded breakdown and the baselines' priced cost and
        breakdown are the numbers ``expectation`` returns, bit for bit."""
        inst = small_instance(z3_tree())
        if kind == "sip":
            plan = solve_phase2(inst, "sip")
        elif kind == "evf":
            plan = evf_plan(inst)
        else:
            plan = _draw_random_plan(inst, 3)
            _Pricing.of(inst, plan.type_ids).price(plan)
        total, breakdown = _Pricing.of(inst, plan.type_ids).expectation(plan)
        assert plan.stage_breakdown == breakdown
        assert exact_expected_cost(inst, plan) == total
        if kind == "sip":
            # the solver's objective, checked against the breakdown on decode
            assert plan.expected_cost == pytest.approx(total, abs=1e-9)
        else:
            assert plan.expected_cost == total

    def test_plan_from_other_tree_rejected(self):
        flat = small_instance(tree_z2(1, [(240,)], [1.0]))
        plan = solve_phase2(flat, "sip")
        lossy = small_instance(z3_tree())
        with pytest.raises(PlanningError, match="stage-3"):
            exact_expected_cost(lossy, plan)
        wide = small_instance(tree_z2(1, [(240,), (480,)], [0.5, 0.5]))
        with pytest.raises(PlanningError, match="stage-2"):
            exact_expected_cost(wide, plan)

    def test_residual_flag_charges_penalty_where_coverage_holds(self):
        inst = small_instance(z3_tree())
        plan = evf_plan(inst)
        calm = next(
            p for p in enumerate_terminal_paths(inst.tree) if p.loss_indices == (1,)
        )
        key = (calm.demand_index, calm.loss_indices, 0)
        assert plan.residuals[key] == 0
        flagged = dataclasses.replace(plan, residuals={**plan.residuals, key: 1})
        total, breakdown = _Pricing.of(inst, flagged.type_ids).expectation(flagged)
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
        with pytest.raises(ValueError, match="one station"):
            offload_curve(inst)

    def test_slots_leave_rows_unchanged(self, curve_instance):
        three = dataclasses.replace(curve_instance, time_slots=3)
        assert offload_curve(three) == offload_curve(curve_instance)


class TestNodeLimits:
    def test_dip_without_incumbent_raises(self, curve_instance):
        with pytest.raises(ResourceLimitError, match="node limit"):
            solve_phase2(
                curve_instance,
                "dip",
                demand=list(curve_instance.tree.demand[0].dims),
                node_limit=1,
            )

    def test_evf_forwards_node_limit(self, bundled_instance):
        n = len(bundled_instance.stations)
        z4 = dataclasses.replace(
            bundled_instance,
            tree=dataclasses.replace(
                bundled_instance.tree,
                shortfall_stages=(guaranteed_stage(n, 4), guaranteed_stage(n, 14)),
            ),
        )
        # its mean-value DIP needs more than one node, so the limit
        # leaves the all-local incumbent, dearer than the proven plan's
        # 398.8758790788
        plan = evf_plan(z4, node_limit=1)
        assert not plan.optimal
        assert plan.expected_cost == pytest.approx(505.4679328921, abs=1e-9)
        # this one's DIP closes at the root, so its plan is proven
        assert evf_plan(branching_instance(), node_limit=1).optimal

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


def z4_point(instance: NetworkInstance) -> NetworkInstance:
    """The bundled network with guaranteed losses of 4 and 14 copies."""
    n = len(instance.stations)
    stages = (guaranteed_stage(n, 4), guaranteed_stage(n, 14))
    return dataclasses.replace(
        instance, tree=dataclasses.replace(instance.tree, shortfall_stages=stages)
    )


class TestBranchingTrees:
    """SIPs whose roots are fractional: the tree, the optimum, and the
    work per node. Children start from their parent's basis, so the z = 4
    point takes about 7 entering steps per node (about 106 when every
    node started cold)."""

    @pytest.mark.parametrize(
        "make, nodes, objective, steps_per_node",
        [
            (lambda bundled: branching_instance(), 5, 5.97982282571592, None),
            (lambda bundled: dip_infeasible_instance(), 21, 7.433182307114871, None),
            (z4_point, 119, 194.59380308410854, 15),
        ],
        ids=["branching", "dip-infeasible", "z4"],
    )
    def test_tree_pinned(self, bundled_instance, make, nodes, objective, steps_per_node):
        built = build_phase2_sip(make(bundled_instance))
        sol = solve_exact(built.model, warm_start=_phase2_warm_start(built))
        assert sol.status == "optimal"
        assert sol.nodes_explored == nodes
        assert sol.objective == pytest.approx(objective, abs=1e-9, rel=0)
        if steps_per_node is not None:
            assert sum(sol.simplex_pivots) <= steps_per_node * nodes


_Z4_SOLVE = """
import json
from conftest import DATA_DIR, openblas_threads
from test_planner import z4_point
from uavplan.io import load_instance
from uavplan.milp import solve_exact
from uavplan.planner import _phase2_warm_start, build_phase2_sip
bundled = load_instance(DATA_DIR / "instance.json")
built = build_phase2_sip(z4_point(bundled))
results = [
    solve_exact(built.model, warm_start=_phase2_warm_start(built)),
    solve_exact(build_phase2_sip(bundled).model),  # a cold root that closes
]
print(json.dumps([openblas_threads(), [
    [sol.status, sol.nodes_explored, sol.objective.hex(), sol.assignment.tolist()]
    for sol in results
]]))
"""


def test_z4_tree_same_under_one_and_two_blas_threads():
    """The pivot path may change with the BLAS thread count (the entering
    steps do at z = 4), but the tree, optimum and assignment may not, at
    z = 4 nor at the bundled SIP's cold root, which the dual simplex
    closes. The solves run at once, in two subprocesses that each set
    their count."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _Z4_SOLVE],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    (threads_one, one), (threads_two, two) = (
        json.loads(run.communicate(timeout=120)[0]) for run in runs
    )
    if (threads_one, threads_two) != (1, 2):
        pytest.skip(f"OpenBLAS ran {threads_one} and {threads_two} threads, not 1 and 2")
    assert one[0][:3] == ["optimal", 119, (194.59380308410854).hex()]
    assert one[1][:3] == ["optimal", 1, (141.93176307290378).hex()]
    assert two == one


class TestFleet:
    def test_pricing_refuses_another_fleet(self):
        inst = small_instance(z3_tree())
        plan = solve_phase2(inst, "sip", type_ids=(1,))
        assert plan.type_ids == (1,)
        with pytest.raises(PlanningError, match="fleet"):
            _Pricing.of(inst, (3,)).expectation(plan)

    def test_fleet_is_part_of_plan_identity(self):
        plan = solve_phase2(small_instance(z3_tree()), "sip", type_ids=(1,))
        assert dataclasses.replace(plan, type_ids=(3,)) != plan


class TestComposition:
    def test_composed_cost_and_caching(self):
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        inst = small_instance(tree, costs=make_costs(crash=50.0))
        p1, plans, composed = plan_both_phases(inst)
        assert p1.reservations == (3,)  # crash risk prices out small types
        # same effective fleet in both weathers, so one shared solve
        assert plans[0] is plans[1]
        expect = p1.expected_cost + sum(
            w.probability * plans[mu].expected_cost
            for mu, w in enumerate(tree.weather)
        )
        assert composed == pytest.approx(expect, rel=1e-12)
        # the composition alone counts the slots
        _, _, three = plan_both_phases(dataclasses.replace(inst, time_slots=3))
        assert three == pytest.approx(3 * composed, rel=1e-12)

    @pytest.mark.parametrize("slots", [1, 3], ids=["one-slot", "three-slot"])
    def test_every_plan_priced_for_its_fleet(self, slots):
        """The calm-weather plan flies type 1, not the stations' type 3;
        ``exact_expected_cost`` takes that fleet from the plan, and
        prices one slot however many the instance has."""
        tree = tree_z2(1, [(240,)], [1.0], p_strong=0.3)
        inst = small_instance(tree, time_slots=slots)
        _, plans, _ = plan_both_phases(inst)
        calm = plans[1]
        assert exact_expected_cost(inst, calm) == pytest.approx(
            1.7829770795846827, abs=1e-9
        )
        for plan in plans.values():
            assert exact_expected_cost(inst, plan) == pytest.approx(
                plan.expected_cost, abs=1e-9
            )
        assert [plans[mu].type_ids for mu in range(2)] == [(3,), (1,)]
