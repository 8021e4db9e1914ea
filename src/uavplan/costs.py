"""Money model: converts fleet choices and copy pipelines into dollars.

Two groups of prices. Fleet prices are per-mAh rates on the reserved or
on-demand battery capacity plus a crash repair penalty. Task prices turn
seconds, joules, and watts into dollars through the per_second,
per_joule, and hover rate coefficients, plus flat per-copy service and
per-BS subscription fees. ``copy_prices`` gives the task prices of one
coded copy in one table: on board, offloaded to each server, hovering
while waiting, and decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .physics import (
    Environment,
    Position3D,
    UavType,
    hover_power,
    link_rate,
    task_timings,
)

__all__ = [
    "CostCoefficients",
    "reservation_cost",
    "on_demand_cost",
    "CopyPrices",
    "copy_prices",
]


@dataclass(frozen=True)
class CostCoefficients:
    """Price coefficients; all must be provided explicitly.

    on_demand_per_mah must exceed reservation_per_mah (renting late is
    always dearer than reserving). subscription_fee is charged once per
    subscribed base station, service_fee once per offloaded copy,
    crash_penalty on each weather-loss replacement, completion_penalty
    on each station/path that ends with unrecovered copies.
    """

    reservation_per_mah: float
    on_demand_per_mah: float
    per_second: float
    per_joule: float
    hover_per_watt_second: float
    service_fee: float
    subscription_fee: float
    crash_penalty: float
    completion_penalty: float

    def __post_init__(self) -> None:
        for name in (
            "reservation_per_mah",
            "on_demand_per_mah",
            "per_second",
            "per_joule",
            "hover_per_watt_second",
            "service_fee",
            "subscription_fee",
            "crash_penalty",
            "completion_penalty",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"CostCoefficients.{name} must be non-negative")
        if self.on_demand_per_mah <= self.reservation_per_mah:
            raise ValueError(
                "on_demand_per_mah must exceed reservation_per_mah "
                f"({self.on_demand_per_mah} <= {self.reservation_per_mah})"
            )


def reservation_cost(uav: UavType, coeff: CostCoefficients) -> float:
    """Up-front price of reserving one vehicle of this class."""
    return coeff.reservation_per_mah * uav.battery_mah


def on_demand_cost(largest: UavType, coeff: CostCoefficients) -> float:
    """Price of renting the largest class after a weather loss; only
    the fleet's largest class is rentable on demand."""
    return coeff.on_demand_per_mah * largest.battery_mah


@dataclass(frozen=True)
class CopyPrices:
    """Dollars for one coded copy of an N x N task on one UAV at one
    station, each of the four ways phase 2 prices it."""

    local: float  # compute on board, plus encode
    offload: tuple[float, ...]  # push to each server and take back, in order
    wait: float  # hover while waiting out the recovery threshold
    decode: float  # decode the returned product


def copy_prices(
    uav: UavType,
    env: Environment,
    n_dim: int,
    split,
    coeff: CostCoefficients,
    uav_pos: Position3D,
    server_positions: Sequence[Position3D],
) -> CopyPrices:
    """The per-copy prices of one UAV hovering at ``uav_pos``.

    - local: compute plus encode time at per_second;
    - offload, one entry per server: transmit plus encode time at
      per_second, receive energy at per_joule, and the flat service
      fee; link-rate errors (bad geometry) propagate;
    - wait: the hover energy budgeted while waiting on k copies, whose
      worst case computes all k on board one after another,
      t_thresh = k * (t_local + t_enc), charged as
      t_thresh * k * hover_rate * hover_power;
    - decode: decode time at per_second.
    """
    rates = [link_rate(uav, env, uav_pos, pos) for pos in server_positions]
    timings = task_timings(uav, env, n_dim, split, rates)
    t_copy = timings.t_local + timings.t_enc
    t_thresh = split.k * t_copy
    return CopyPrices(
        local=coeff.per_second * t_copy,
        offload=tuple(
            coeff.per_second * (t_to + timings.t_enc)
            + coeff.per_joule * e_receive
            + coeff.service_fee
            for t_to, e_receive in zip(timings.t_to, timings.e_receive)
        ),
        wait=t_thresh * split.k * coeff.hover_per_watt_second * hover_power(uav, env),
        decode=coeff.per_second * timings.t_dec,
    )
