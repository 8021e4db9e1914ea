"""Dollar pricing of fleet choices and copy pipelines."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavplan.coding import CodeSplit
from uavplan.costs import (
    CostCoefficients,
    copy_prices,
    on_demand_cost,
    reservation_cost,
)
from uavplan.physics import Position3D, hover_power

from conftest import ENV, UAV_TYPES, make_costs

SPLIT = CodeSplit.from_slices(2, 1, 2)
COSTS = make_costs()
UAV_POS = Position3D(0.0, 0.0, 100.0)
BS_POS = Position3D(100.0, 100.0, 20.0)
FAR_POS = Position3D(400.0, -300.0, 20.0)


def prices(uav, n=240, split=SPLIT, coeff=COSTS, uav_pos=UAV_POS, servers=(BS_POS,)):
    return copy_prices(uav, ENV, n, split, coeff, uav_pos, servers)


class TestFleetPricing:
    def test_reservation_scales_battery(self):
        assert reservation_cost(UAV_TYPES[0], COSTS) == pytest.approx(2.375)
        assert reservation_cost(UAV_TYPES[2], COSTS) == pytest.approx(5.2)

    def test_on_demand_largest_only(self):
        assert on_demand_cost(UAV_TYPES[2], COSTS) == pytest.approx(7.8)

    def test_on_demand_dearer_than_reservation(self):
        for uav in UAV_TYPES:
            assert on_demand_cost(uav, COSTS) > reservation_cost(uav, COSTS)


class TestCopyPricing:
    def test_local_registered_value(self):
        """0.5 * (t_local + t_enc) on the 1 GHz class at N = 240."""
        got = prices(UAV_TYPES[2]).local
        assert got == pytest.approx(0.5 * (0.27648 + 0.004608), rel=1e-12)

    def test_decode_registered_value(self):
        got = prices(UAV_TYPES[2]).decode
        assert got == pytest.approx(0.036864, rel=1e-12)

    def test_decode_free_when_single_copy_recovers(self):
        whole = CodeSplit.from_slices(1, 1, 1)
        assert prices(UAV_TYPES[2], split=whole).decode == 0.0

    def test_offload_assembled_from_parts(self):
        """Recompute the offload price from the raw link and symbol
        formulas rather than through task_timings."""
        uav = UAV_TYPES[2]
        rate = 2e6 * math.log2(1.0 + 0.032 * (1e-6 / 26400.0) / 1e-13)
        t_to = 4.0 * (240**2 / 2) / rate
        t_enc = 240**2 * 4 * 20 / 1e9
        e_rx = 0.032 * 4.0 * (240**2 / 4) / rate
        expected = 0.5 * (t_to + t_enc) + 0.5 * e_rx + 0.05
        (got,) = prices(uav).offload
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.060183, abs=1e-4)

    def test_offload_cheaper_at_large_dims_only(self):
        """The flat service fee dominates tiny tasks; transmit time stays
        quadratic while local compute grows cubically."""
        uav = UAV_TYPES[2]
        for n, offload_wins in ((24, False), (240, True)):
            p = prices(uav, n)
            assert (p.offload[0] < p.local) == offload_wins

    def test_offload_follows_server_order(self):
        uav = UAV_TYPES[2]
        near, far = prices(uav).offload[0], prices(uav, servers=[FAR_POS]).offload[0]
        assert near < far
        assert prices(uav, servers=[BS_POS, FAR_POS]).offload == (near, far)
        assert prices(uav, servers=[FAR_POS, BS_POS]).offload == (far, near)

    def test_no_servers_prices_compute_only(self):
        uav = UAV_TYPES[2]
        alone, linked = prices(uav, servers=[]), prices(uav, servers=[BS_POS, FAR_POS])
        assert alone.offload == ()
        assert (alone.local, alone.wait, alone.decode) == (
            linked.local,
            linked.wait,
            linked.decode,
        )

    def test_offload_propagates_geometry_errors(self):
        with pytest.raises(ValueError, match="altitude"):
            prices(UAV_TYPES[2], uav_pos=Position3D(0, 0, 5.0))

    def test_hover_threshold_assembled_from_parts(self):
        uav = UAV_TYPES[2]
        t_copy = 0.27648 + 0.004608
        expected = (SPLIT.k * t_copy) * SPLIT.k * 1e-4 * hover_power(uav, ENV)
        got = prices(uav).wait
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_rate_prices_nothing(self):
        free = CostCoefficients(
            reservation_per_mah=0.001,
            on_demand_per_mah=0.0015,
            per_second=0.0,
            per_joule=0.0,
            hover_per_watt_second=1e-4,
            service_fee=0.05,
            subscription_fee=1.0,
            crash_penalty=1.0,
            completion_penalty=200.0,
        )
        p = prices(UAV_TYPES[2], coeff=free)
        assert p.local == 0.0
        assert p.decode == 0.0
        assert p.offload[0] == pytest.approx(0.05, rel=1e-12)

    @given(st.floats(0.01, 50.0))
    def test_offload_homogeneous_in_prices(self, lam):
        base = make_costs()
        scaled = CostCoefficients(
            reservation_per_mah=base.reservation_per_mah,
            on_demand_per_mah=base.on_demand_per_mah,
            per_second=lam * base.per_second,
            per_joule=lam * base.per_joule,
            hover_per_watt_second=base.hover_per_watt_second,
            service_fee=lam * base.service_fee,
            subscription_fee=base.subscription_fee,
            crash_penalty=base.crash_penalty,
            completion_penalty=base.completion_penalty,
        )
        uav = UAV_TYPES[1]
        one = prices(uav, 120, coeff=base).offload[0]
        two = prices(uav, 120, coeff=scaled).offload[0]
        assert two == pytest.approx(lam * one, rel=1e-9)


class TestCoefficientValidation:
    def test_rejects_negative_price(self):
        with pytest.raises(ValueError, match="service_fee"):
            CostCoefficients(
                reservation_per_mah=0.001,
                on_demand_per_mah=0.0015,
                per_second=0.5,
                per_joule=0.5,
                hover_per_watt_second=1e-4,
                service_fee=-0.05,
                subscription_fee=1.0,
                crash_penalty=1.0,
                completion_penalty=200.0,
            )

    def test_rejects_cheap_on_demand(self):
        with pytest.raises(ValueError, match="on_demand_per_mah"):
            CostCoefficients(
                reservation_per_mah=0.002,
                on_demand_per_mah=0.002,
                per_second=0.5,
                per_joule=0.5,
                hover_per_watt_second=1e-4,
                service_fee=0.05,
                subscription_fee=1.0,
                crash_penalty=1.0,
                completion_penalty=200.0,
            )
