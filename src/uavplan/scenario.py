"""Scenario sets, trees, demand histograms, and model-size formulas.

A planning tree couples three kinds of uncertainty:

- weather scenarios (phase 1): per-station strong-wind flags;
- demand scenarios (stage 2): per-station task matrix dimensions;
- shortfall scenarios (stages 3..z): per-station loss flags and copy
  magnitudes for offloaded work that fails to return in time.

Stage sets are explicit and finite; a path is one pick per stage and its
probability is the product of branch probabilities. Shortfall flags
multiply along a path, so a stage with flag 0 silences every deeper
stage for that station ("no shortfall yesterday means none today");
validation therefore checks per-stage data invariants and leaves the
propagation rule to the flag-product semantics used by the model
builders and the exact tree expectation (``exact_expected_cost``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "WeatherScenario",
    "DemandScenario",
    "ShortfallScenario",
    "ScenarioTree",
    "ScenarioPath",
    "validate_tree",
    "enumerate_terminal_paths",
    "loss_prefixes",
    "flag_product_exposure",
    "DemandHistogram",
    "demand_hist_from_csv",
    "ModelSize",
    "model_size_phase1",
    "model_size_phase2",
]

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class WeatherScenario:
    """One weather outcome: strong_wind[y] = 1 crashes any non-largest
    UAV type stationed at y."""

    strong_wind: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class DemandScenario:
    """One demand outcome: dims[y] is the square-matrix dimension of the
    task arriving at station y."""

    dims: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class ShortfallScenario:
    """One shortfall outcome at a recourse stage: flags[y] = 1 means the
    loss event hits station y, in which case magnitudes[y] offloaded
    copies fail to return."""

    flags: tuple[int, ...]
    magnitudes: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class ScenarioTree:
    """Stage-indexed scenario sets. ``shortfall_stages[i]`` holds the
    scenario set for stage 3+i; z = 2 + len(shortfall_stages)."""

    weather: tuple[WeatherScenario, ...]
    demand: tuple[DemandScenario, ...]
    shortfall_stages: tuple[tuple[ShortfallScenario, ...], ...] = ()

    @property
    def z(self) -> int:
        return 2 + len(self.shortfall_stages)

    @property
    def n_stations(self) -> int:
        if self.demand:
            return len(self.demand[0].dims)
        if self.weather:
            return len(self.weather[0].strong_wind)
        return 0


def _check_prob_set(probs: Sequence[float], label: str, out: list[str]) -> None:
    for i, p in enumerate(probs):
        if not 0.0 <= p <= 1.0:
            out.append(f"{label}[{i}]: probability {p} outside [0, 1]")
    if probs and abs(sum(probs) - 1.0) > _PROB_TOL:
        out.append(f"{label}: probabilities sum to {sum(probs)!r}, expected 1")


def validate_tree(tree: ScenarioTree) -> list[str]:
    """Check every data invariant; an empty list means the tree is ok.

    Checked: per-stage probability sums (tolerance 1e-9), vector-length
    consistency across all scenarios, positive integer demand dims,
    binary flags, non-negative integer magnitudes, and magnitude = 0
    wherever the flag is 0. Each violation names its stage and scenario.
    """
    out: list[str] = []
    n = tree.n_stations
    if n == 0:
        out.append("tree has no weather or demand scenarios")
        return out

    _check_prob_set([w.probability for w in tree.weather], "weather", out)
    for i, w in enumerate(tree.weather):
        if len(w.strong_wind) != n:
            out.append(f"weather[{i}]: flag vector length {len(w.strong_wind)} != {n}")
        for y, g in enumerate(w.strong_wind):
            if g not in (0, 1):
                out.append(f"weather[{i}] station {y}: flag {g!r} not binary")

    _check_prob_set([d.probability for d in tree.demand], "demand", out)
    for i, d in enumerate(tree.demand):
        if len(d.dims) != n:
            out.append(f"demand[{i}]: dim vector length {len(d.dims)} != {n}")
        for y, dim in enumerate(d.dims):
            if int(dim) != dim or dim <= 0:
                out.append(f"demand[{i}] station {y}: dimension {dim!r} not a positive integer")

    for si, stage in enumerate(tree.shortfall_stages):
        label = f"shortfall stage {si + 3}"
        _check_prob_set([s.probability for s in stage], label, out)
        if not stage:
            out.append(f"{label}: empty scenario set")
        for i, s in enumerate(stage):
            if len(s.flags) != n or len(s.magnitudes) != n:
                out.append(f"{label}[{i}]: vector lengths != {n}")
                continue
            for y in range(n):
                if s.flags[y] not in (0, 1):
                    out.append(f"{label}[{i}] station {y}: flag {s.flags[y]!r} not binary")
                if int(s.magnitudes[y]) != s.magnitudes[y] or s.magnitudes[y] < 0:
                    out.append(
                        f"{label}[{i}] station {y}: magnitude {s.magnitudes[y]!r} "
                        "not a non-negative integer"
                    )
                elif s.flags[y] == 0 and s.magnitudes[y] != 0:
                    out.append(
                        f"{label}[{i}] station {y}: magnitude {s.magnitudes[y]} with flag 0"
                    )
    return out


# ---------------------------------------------------------------------------
# path enumeration and flag-product accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPath:
    """A terminal path: one demand pick plus one shortfall pick per
    recourse stage. ``loss_indices[i]`` indexes shortfall_stages[i]."""

    demand_index: int
    loss_indices: tuple[int, ...]
    probability: float


def loss_prefixes(tree: ScenarioTree, upto_stage: int) -> list[tuple[int, ...]]:
    """All shortfall index tuples covering stages 3..upto_stage."""
    if not 2 <= upto_stage <= tree.z:
        raise ValueError(f"stage {upto_stage} outside 2..{tree.z}")
    sets = tree.shortfall_stages[: upto_stage - 2]
    return [tuple(c) for c in itertools.product(*(range(len(s)) for s in sets))]


def _path_probability(
    tree: ScenarioTree, demand_index: int, loss_indices: Sequence[int]
) -> float:
    """Probability of a demand pick followed by a shortfall prefix."""
    p = tree.demand[demand_index].probability
    for si, wi in enumerate(loss_indices):
        p *= tree.shortfall_stages[si][wi].probability
    return p


def enumerate_terminal_paths(tree: ScenarioTree) -> list[ScenarioPath]:
    return [
        ScenarioPath(di, combo, _path_probability(tree, di, combo))
        for di in range(len(tree.demand))
        for combo in loss_prefixes(tree, tree.z)
    ]


def flag_product_exposure(
    tree: ScenarioTree, loss_indices: Sequence[int], station: int
) -> int:
    """Cumulative copy loss along a path for one station.

    The stage-z contribution counts only while every earlier stage's
    flag is 1; the first calm stage zeroes everything after it.
    """
    total = 0
    running_flag = 1
    for si, wi in enumerate(loss_indices):
        sc = tree.shortfall_stages[si][wi]
        running_flag *= sc.flags[station]
        total += running_flag * sc.magnitudes[station]
    return total


def max_total_exposure(tree: ScenarioTree) -> int:
    """Largest cumulative loss any station can face on any path (sum of
    per-stage maxima; used to size relaxation constants and recourse
    variable bounds)."""
    total = 0
    for stage in tree.shortfall_stages:
        worst = 0
        for sc in stage:
            worst = max(worst, max(sc.magnitudes, default=0))
        total += worst
    return total


# ---------------------------------------------------------------------------
# demand-distribution ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemandHistogram:
    """Empirical distribution over observed square-matrix dimensions."""

    values: tuple[int, ...]
    probabilities: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def demand_hist_from_csv(rows: Iterable[tuple[int, int]]) -> DemandHistogram:
    """Build the empirical demand distribution from (rows, cols) pairs.

    Only square observations are accepted; a non-square pair raises with
    its 1-based entry position (the CSV reader maps entries to file
    lines). Frequencies are exact rationals before float conversion, so
    the probabilities sum to exactly 1.
    """
    counts: dict[int, int] = {}
    n_rows = 0
    for i, (r, c) in enumerate(rows, start=1):
        if r != c:
            raise ValueError(f"entry {i}: non-square dimensions ({r}, {c})")
        if int(r) != r or r <= 0:
            raise ValueError(f"entry {i}: dimension {r!r} not a positive integer")
        counts[int(r)] = counts.get(int(r), 0) + 1
        n_rows += 1
    if n_rows == 0:
        raise ValueError("no demand observations")
    values = tuple(sorted(counts))
    fracs = [Fraction(counts[v], n_rows) for v in values]
    assert sum(fracs) == 1
    return DemandHistogram(
        values=values,
        probabilities=tuple(float(f) for f in fracs),
        counts=tuple(counts[v] for v in values),
    )


# ---------------------------------------------------------------------------
# model-size formulas
# ---------------------------------------------------------------------------


class ModelSize(NamedTuple):
    n_vars: int
    n_cons: int


def model_size_phase1(
    n_slots: int, n_stations: int, n_types: int, n_weather: int
) -> ModelSize:
    """Closed-form dimensions of the phase-1 reservation program.

    Variables: one reservation binary per (slot, station, type) plus one
    recourse binary per (weather scenario, slot, station). Constraints
    count the one-type-per-station rows, the survival/recourse rows per
    weather scenario, and one domain row per variable; the builder
    reports its dimensions under the same convention.
    """
    for name, v in (
        ("n_slots", n_slots),
        ("n_stations", n_stations),
        ("n_types", n_types),
        ("n_weather", n_weather),
    ):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    ty = n_slots * n_stations
    n_vars = ty * n_types + n_weather * ty
    n_cons = ty + 2 * n_weather * ty + ty * n_types
    return ModelSize(n_vars, n_cons)


def model_size_phase2(
    n_slots: int,
    n_bs: int,
    n_stations: int,
    n_demand: int,
    *loss_counts: int,
) -> ModelSize:
    """Closed-form dimensions of the phase-2 allocation program.

    The variable count uses per-stage scenario-set sizes (subscription
    block + one stage-2 block + one block per recourse stage). The
    constraint count uses cumulative path products P_z (demand count
    times the product of loss-set sizes up to that stage):

        2 t f (P2+..+Pz) + 2 t y f (P3+..+Pz) + t y (P3+..+Pz)
        + t y f P2 + 2 t y f Pz

    With no recourse stages the P3.. sums are empty and Pz = P2. This
    is the paper's count, whose variables are the subscription and
    offload variables; it is not the size of the model
    ``build_phase2_sip`` builds, which also carries local-copy counts,
    route indicators and residual binaries, and covers one slot.
    """
    for name, v in (
        ("n_slots", n_slots),
        ("n_bs", n_bs),
        ("n_stations", n_stations),
        ("n_demand", n_demand),
    ):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    for i, w in enumerate(loss_counts):
        if int(w) != w or w < 1:
            raise ValueError(f"loss count for stage {i + 3} must be >= 1, got {w!r}")

    t, f, y = n_slots, n_bs, n_stations
    n_vars = t * f + t * n_demand * y * f + sum(t * w * y * f for w in loss_counts)

    path_products = []  # P2, P3, ..., Pz
    running = n_demand
    path_products.append(running)
    for w in loss_counts:
        running *= w
        path_products.append(running)
    p2 = path_products[0]
    pz = path_products[-1]
    sum_all = sum(path_products)
    sum_deep = sum(path_products[1:])  # P3 + ... + Pz, empty when z = 2
    n_cons = (
        2 * t * f * sum_all
        + 2 * t * y * f * sum_deep
        + t * y * sum_deep
        + t * y * f * p2
        + 2 * t * y * f * pz
    )
    return ModelSize(n_vars, n_cons)
