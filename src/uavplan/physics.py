"""Rotary-wing UAV power and air-to-ground link models.

Propulsion power follows the standard blade-element decomposition
(blade profile + induced + parasite terms); the channel is free-space
path loss with distance-squared attenuation. All quantities are SI and
linear; dB/dBm conversion belongs to configuration loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .coding import symbol_counts

__all__ = [
    "GRAVITY",
    "UavType",
    "Environment",
    "Position3D",
    "TaskTimings",
    "db_to_linear",
    "dbm_to_watts",
    "propulsion_power",
    "hover_power",
    "link_rate",
    "task_timings",
]

GRAVITY = 9.8  # m/s^2, weight = mass * GRAVITY

_ALLOWED_BITS_PER_SYMBOL = (1, 2, 4, 6, 8)


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** (value_dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class UavType:
    """One vehicle class of the fleet.

    battery_mah drives reservation pricing, mass and blade angular
    velocity drive propulsion power, the CPU fields drive compute and
    code timings, and the radio fields drive the offload link.
    """

    id: int
    battery_mah: float
    mass_kg: float
    blade_angular_velocity: float  # rad/s
    cpu_rate: float  # cycles/s
    cycles_per_bit: float
    bandwidth: float  # Hz
    tx_power: float  # W
    rx_power: float  # W
    hover_height: float  # m

    def __post_init__(self) -> None:
        for name in (
            "battery_mah",
            "mass_kg",
            "blade_angular_velocity",
            "cpu_rate",
            "cycles_per_bit",
            "bandwidth",
            "tx_power",
            "rx_power",
            "hover_height",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"UavType.{name} must be positive")


@dataclass(frozen=True)
class Environment:
    """Physical constants shared by every station and link."""

    air_density: float  # kg/m^3
    rotor_radius: float  # m
    rotor_disc_area: float  # m^2
    tip_speed: float  # m/s
    induced_velocity: float  # m/s, mean rotor induced velocity in hover
    fuselage_drag_ratio: float
    rotor_solidity: float
    profile_drag_coefficient: float
    induced_power_correction: float
    channel_gain_ref: float  # linear gain at 1 m
    noise_power: float  # W
    bits_per_symbol: int = 4

    def __post_init__(self) -> None:
        positive = (
            "air_density",
            "rotor_radius",
            "rotor_disc_area",
            "tip_speed",
            "induced_velocity",
            "rotor_solidity",
            "profile_drag_coefficient",
            "channel_gain_ref",
            "noise_power",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"Environment.{name} must be positive")
        if self.fuselage_drag_ratio < 0 or self.induced_power_correction < 0:
            raise ValueError("drag ratio and power correction must be non-negative")
        if self.bits_per_symbol not in _ALLOWED_BITS_PER_SYMBOL:
            raise ValueError(
                f"bits_per_symbol must be one of {_ALLOWED_BITS_PER_SYMBOL}, "
                f"got {self.bits_per_symbol}"
            )


@dataclass(frozen=True)
class Position3D:
    a: float
    b: float
    h: float


def _blade_profile_hover_power(uav: UavType, env: Environment) -> float:
    # (delta/8) * rho * solidity * disc_area * omega^3 * radius^3
    return (
        env.profile_drag_coefficient
        / 8.0
        * env.air_density
        * env.rotor_solidity
        * env.rotor_disc_area
        * uav.blade_angular_velocity**3
        * env.rotor_radius**3
    )


def _induced_hover_power(uav: UavType, env: Environment) -> float:
    # (1 + correction) * W^(3/2) / sqrt(2 rho disc_area)
    weight = uav.mass_kg * GRAVITY
    return (
        (1.0 + env.induced_power_correction)
        * weight**1.5
        / math.sqrt(2.0 * env.air_density * env.rotor_disc_area)
    )


def propulsion_power(uav: UavType, env: Environment, speed: float) -> float:
    """Forward-flight propulsion power draw in watts.

    Blade profile power grows with speed squared, induced power decays
    through the rotor inflow term, and parasite (fuselage drag) power
    grows with speed cubed.
    """
    if speed < 0:
        raise ValueError(f"speed must be non-negative, got {speed}")
    p0 = _blade_profile_hover_power(uav, env)
    p1 = _induced_hover_power(uav, env)
    v2 = speed * speed
    blade = p0 * (1.0 + 3.0 * v2 / env.tip_speed**2)
    v0 = env.induced_velocity
    inflow = math.sqrt(1.0 + v2 * v2 / (4.0 * v0**4)) - v2 / (2.0 * v0**2)
    induced = p1 * math.sqrt(inflow)
    parasite = (
        0.5
        * env.fuselage_drag_ratio
        * env.air_density
        * env.rotor_disc_area
        * speed**3
    )
    return blade + induced + parasite


def hover_power(uav: UavType, env: Environment) -> float:
    """Power draw while hovering: the speed-zero blade + induced terms."""
    return _blade_profile_hover_power(uav, env) + _induced_hover_power(uav, env)


def link_rate(
    uav: UavType,
    env: Environment,
    uav_pos: Position3D,
    bs_pos: Position3D,
) -> float:
    """Achievable air-to-ground rate in bits/s.

    Free-space channel gain ref_gain / D^2 over the 3D separation, fed
    into the Shannon capacity of the UAV's band. The UAV must sit above
    the ground node. The same rate is used for the return direction
    (symmetric geometry, same band and power).
    """
    if uav_pos.h <= bs_pos.h:
        raise ValueError(
            f"UAV altitude {uav_pos.h} must exceed ground-node height {bs_pos.h}"
        )
    d2 = (
        (uav_pos.a - bs_pos.a) ** 2
        + (uav_pos.b - bs_pos.b) ** 2
        + (uav_pos.h - bs_pos.h) ** 2
    )
    if d2 <= 0.0:
        raise ValueError("link endpoints coincide")
    gain = env.channel_gain_ref / d2
    snr = uav.tx_power * gain / env.noise_power
    return uav.bandwidth * math.log2(1.0 + snr)


@dataclass(frozen=True)
class TaskTimings:
    """Seconds (and joule figures) for the per-copy pipeline steps; the
    link steps hold one entry per server."""

    t_local: float  # compute one copy on the UAV
    t_enc: float  # encode one copy
    t_dec: float  # decode once k copies returned
    t_to: tuple[float, ...]  # transmit one copy to each server
    e_receive: tuple[float, ...]  # energy to receive one computed copy back


def task_timings(
    uav: UavType,
    env: Environment,
    n_dim: int,
    split,
    rates: Sequence[float],
) -> TaskTimings:
    """Copy-level timings for an N x N product under the given split.

    Compute/encode/decode scale with cycles_per_bit over the CPU rate;
    transmit/receive scale with the link rate to each server, one entry
    of ``rates`` per server (empty prices compute only). ``split`` needs
    m, s, t fields (integer or fractional splits both work).
    """
    counts = symbol_counts(n_dim, split)
    if any(rate <= 0 for rate in rates):
        raise ValueError("link rates must be positive")
    bits = float(env.bits_per_symbol)
    cycles_per_symbol = uav.cycles_per_bit * bits
    return TaskTimings(
        t_local=cycles_per_symbol * counts.d_cmp / uav.cpu_rate,
        t_enc=cycles_per_symbol * counts.d_enc / uav.cpu_rate,
        t_dec=cycles_per_symbol * counts.d_dec / uav.cpu_rate,
        t_to=tuple(bits * counts.d_comm_to / rate for rate in rates),
        e_receive=tuple(
            uav.rx_power * bits * counts.d_comm_fr / rate for rate in rates
        ),
    )
