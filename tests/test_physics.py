"""Propulsion power, the air-to-ground link, and pipeline timings."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavplan.coding import CodeSplit
from uavplan.physics import (
    GRAVITY,
    Environment,
    Position3D,
    UavType,
    db_to_linear,
    dbm_to_watts,
    hover_power,
    link_rate,
    propulsion_power,
    task_timings,
)

from conftest import ENV, UAV_TYPES, make_uav


class TestConversions:
    def test_db(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-60.0) == pytest.approx(1e-6)

    def test_dbm(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(-100.0) == pytest.approx(1e-13)


class TestHoverPower:
    def test_term_by_term(self):
        """Independent recomputation of both hover terms with plain
        floats, against the registered figure for the 10 kg class."""
        uav = UAV_TYPES[1]  # mass 10 kg, blade angular velocity 400 rad/s
        delta, rho, s, a, r = 0.012, 1.225, 0.05, 0.79, 0.5
        blade = delta / 8.0 * rho * s * a * 400.0**3 * r**3
        weight = 10.0 * GRAVITY
        induced = 1.1 * weight**1.5 / math.sqrt(2.0 * rho * a)
        expected = blade + induced
        got = hover_power(uav, ENV)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1347.8, rel=1e-3)

    def test_hover_equals_zero_speed_propulsion(self):
        for uav in UAV_TYPES:
            assert propulsion_power(uav, ENV, 0.0) == pytest.approx(
                hover_power(uav, ENV), rel=1e-12
            )

    def test_monotone_in_mass(self):
        light = make_uav(1, 1000.0, 6.0, 400.0, 1e9)
        heavy = make_uav(2, 1000.0, 14.0, 400.0, 1e9)
        assert hover_power(heavy, ENV) > hover_power(light, ENV)

    def test_propulsion_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            propulsion_power(UAV_TYPES[0], ENV, -1.0)

    @given(st.floats(0.1, 60.0))
    def test_propulsion_positive(self, speed):
        assert propulsion_power(UAV_TYPES[2], ENV, speed) > 0.0


class TestLinkRate:
    UAV_POS = Position3D(0.0, 0.0, 100.0)
    BS_POS = Position3D(100.0, 100.0, 20.0)

    def test_documented_geometry(self):
        """D^2 = 100^2 + 100^2 + 80^2 = 26400 at 32 mW over 2 MHz."""
        uav = UAV_TYPES[0]
        snr = 0.032 * (1e-6 / 26400.0) / 1e-13
        expected = 2e6 * math.log2(1.0 + snr)
        got = link_rate(uav, ENV, self.UAV_POS, self.BS_POS)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(7.43e6, rel=1e-3)

    def test_zero_power_limit(self):
        quiet = make_uav(9, 1000.0, 8.0, 380.0, 1e9)
        object.__setattr__(quiet, "tx_power", 1e-30)
        assert link_rate(quiet, ENV, self.UAV_POS, self.BS_POS) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_rejects_uav_below_ground_node(self):
        with pytest.raises(ValueError, match="altitude"):
            link_rate(UAV_TYPES[0], ENV, Position3D(0, 0, 10.0), self.BS_POS)

    def test_rejects_coincident_endpoints(self):
        pos = Position3D(5.0, 5.0, 30.0)
        with pytest.raises(ValueError):
            link_rate(UAV_TYPES[0], ENV, pos, pos)

    @given(
        st.floats(10.0, 900.0),
        st.floats(10.0, 900.0),
        st.floats(25.0, 300.0),
    )
    def test_decreasing_in_distance(self, a, b, h):
        """Scaling all displacement components by 2 quarters the SNR."""
        uav = UAV_TYPES[1]
        near = link_rate(uav, ENV, Position3D(a, b, h), Position3D(0, 0, 20.0))
        far = link_rate(
            uav,
            ENV,
            Position3D(2 * a, 2 * b, 20.0 + 2 * (h - 20.0)),
            Position3D(0, 0, 20.0),
        )
        assert far < near

    def test_increasing_in_tx_power(self):
        weak = make_uav(1, 1000.0, 8.0, 380.0, 1e9)
        strong = make_uav(2, 1000.0, 8.0, 380.0, 1e9)
        object.__setattr__(strong, "tx_power", 0.1)
        assert link_rate(strong, ENV, self.UAV_POS, self.BS_POS) > link_rate(
            weak, ENV, self.UAV_POS, self.BS_POS
        )


class TestTaskTimings:
    SPLIT = CodeSplit.from_slices(2, 1, 2)

    def test_compute_time_registered_value(self):
        """240^3 / (m t) symbols, 4 bits each, 20 cycles/bit, 1 GHz."""
        uav = UAV_TYPES[2]
        tt = task_timings(uav, ENV, 240, self.SPLIT, rates=[7.43e6])
        assert tt.t_local == pytest.approx(0.27648, rel=1e-12)

    def test_encode_decode_times(self):
        uav = UAV_TYPES[2]
        tt = task_timings(uav, ENV, 240, self.SPLIT, rates=[7.43e6])
        assert tt.t_enc == pytest.approx(240**2 * 4 * 20 / 1e9, rel=1e-12)
        # decode touches N^2 k (log2 k)^2 = 921600 symbols
        assert tt.t_dec == pytest.approx(921600 * 4 * 20 / 1e9, rel=1e-12)

    def test_transmit_time_and_receive_energy(self):
        uav = UAV_TYPES[2]
        rate = 7.43e6
        tt = task_timings(uav, ENV, 240, self.SPLIT, rates=[rate])
        assert tt.t_to[0] == pytest.approx(4 * 28800 / rate, rel=1e-12)
        assert tt.e_receive[0] == pytest.approx(0.032 * 57600 / rate, rel=1e-12)

    def test_one_link_entry_per_server(self):
        uav = UAV_TYPES[2]
        one = task_timings(uav, ENV, 240, self.SPLIT, rates=[7.43e6])
        two = task_timings(uav, ENV, 240, self.SPLIT, rates=[7.43e6, 2 * 7.43e6])
        assert two.t_to == pytest.approx((one.t_to[0], one.t_to[0] / 2), rel=1e-12)
        assert two.e_receive[0] == one.e_receive[0]
        none = task_timings(uav, ENV, 240, self.SPLIT, rates=[])
        assert none.t_to == () and none.e_receive == ()
        assert (none.t_local, none.t_enc, none.t_dec) == (
            one.t_local,
            one.t_enc,
            one.t_dec,
        )

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="link rates"):
            task_timings(UAV_TYPES[2], ENV, 240, self.SPLIT, rates=[7.43e6, 0.0])

    def test_cpu_rate_scaling(self):
        slow = make_uav(1, 1000.0, 8.0, 380.0, 0.5e9)
        fast = make_uav(2, 1000.0, 8.0, 380.0, 1e9)
        a = task_timings(slow, ENV, 240, self.SPLIT, [1e6])
        b = task_timings(fast, ENV, 240, self.SPLIT, [1e6])
        assert a.t_local == pytest.approx(2 * b.t_local, rel=1e-12)


class TestValidation:
    def test_uav_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="mass_kg"):
            make_uav(1, 1000.0, -1.0, 380.0, 1e9)

    def test_environment_rejects_bad_bits_per_symbol(self):
        with pytest.raises(ValueError, match="bits_per_symbol"):
            Environment(
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
                bits_per_symbol=3,
            )

    def test_environment_rejects_nonpositive_density(self):
        with pytest.raises(ValueError, match="air_density"):
            Environment(
                air_density=0.0,
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
            )
