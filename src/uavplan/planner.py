"""Build and solve the planning integer programs.

Phase 1 reserves one UAV type per (slot, station) against weather
uncertainty, with an on-demand largest-type recourse in crash scenarios.
Phase 2 allocates coded task copies between local computation and
offloading to subscribed edge servers, as either a deterministic program
(known demand/shortfall) or a z-stage stochastic program in extensive
form over the scenario tree.

Key structural choices:

- shortfall losses hit a station only on the offload route: a binary
  per (station, demand scenario) offload indicator gates the loss terms;
- cumulative copy coverage is enforced per terminal path, softened by a
  per (station, terminal path) residual binary that buys out the
  constraint at the completion penalty;
- the per-BS threshold rows require local + per-BS offload >= k for
  every base station, so any station that offloads needs every BS
  subscribed and provisioned to at least k - local copies.

A plan's cost is priced in one place, a (terminal path x stage) cost
array that the decoder's stage breakdown, ``exact_expected_cost``,
``realized_path_parts`` and the Monte Carlo evaluator all read. Its one
completion-penalty rule: a (slot, path, station) pays the penalty when
its cumulative copies fall short of k + exposure * stage-2 offload
indicator, or when the plan's residual flag is set there. Coverage
alone prices a plan on another tree of the same shape; the flag keeps
an incumbent that buys out coverage it already meets priced as its
objective. On every plan the library returns for its own instance the
two agree, so the model objective equals the exact tree expectation.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .coding import CodeSplit
from .costs import (
    CostCoefficients,
    decode_cost,
    hover_threshold_cost,
    local_copy_cost,
    offload_copy_cost,
    on_demand_cost,
    reservation_cost,
)
from .milp import IPModel, Solution, solve_exact
from .physics import Environment, Position3D, UavType
from .scenario import (
    ModelSize,
    ScenarioPath,
    ScenarioTree,
    _path_probability,
    enumerate_terminal_paths,
    flag_product_exposure,
    loss_prefixes,
    max_total_exposure,
    model_size_phase1,
    model_size_phase2,
    validate_tree,
)

__all__ = [
    "Station",
    "BaseStation",
    "NetworkInstance",
    "PlanningError",
    "ResourceLimitError",
    "Phase1Model",
    "Phase1Plan",
    "Phase2Model",
    "Phase2Plan",
    "StageDecision",
    "big_m_sigma",
    "build_phase1",
    "solve_phase1",
    "build_phase2_dip",
    "build_phase2_sip",
    "solve_phase2",
    "evf_plan",
    "random_plan",
    "exact_expected_cost",
    "offload_curve",
    "plan_both_phases",
]


class PlanningError(RuntimeError):
    """Internal invariant violation (e.g. an instance that should be
    feasible came back infeasible)."""


class ResourceLimitError(RuntimeError):
    """Node budget exhausted before any incumbent was found."""


@dataclass(frozen=True)
class Station:
    id: int
    a: float
    b: float
    uav_type: int  # type id used for phase-2 planning


@dataclass(frozen=True)
class BaseStation:
    id: int
    a: float
    b: float
    height: float
    servers: int  # q_f, simultaneous copies the BS can host per stage


@dataclass(frozen=True)
class NetworkInstance:
    time_slots: int
    stations: tuple[Station, ...]
    uav_types: tuple[UavType, ...]
    base_stations: tuple[BaseStation, ...]
    environment: Environment
    costs: CostCoefficients
    split: CodeSplit
    tree: ScenarioTree
    max_local_copies: int | None = None
    wait_cost_gated_by_offload: bool = False

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """All structural violations, empty when the instance is usable."""
        out: list[str] = []
        if self.time_slots < 1:
            out.append(f"time_slots must be >= 1, got {self.time_slots}")
        if not self.stations:
            out.append("no stations")
        if not self.uav_types:
            out.append("no UAV types")
        if not self.base_stations:
            out.append("no base stations")
        caps = [u.battery_mah for u in self.uav_types]
        if len(caps) != len(set(caps)):
            out.append("battery capacities must be distinct across types")
        if caps != sorted(caps):
            out.append("UAV types must be listed in ascending battery order")
        for label, ids in (
            ("station", [st.id for st in self.stations]),
            ("base station", [bs.id for bs in self.base_stations]),
            ("UAV type", [u.id for u in self.uav_types]),
        ):
            if len(ids) != len(set(ids)):
                out.append(f"duplicate {label} ids")
        type_ids = {u.id for u in self.uav_types}
        for st in self.stations:
            if st.uav_type not in type_ids:
                out.append(f"station {st.id}: unknown UAV type {st.uav_type}")
        for bs in self.base_stations:
            if bs.servers < 1:
                out.append(f"base station {bs.id}: servers must be >= 1")
            for u in self.uav_types:
                if u.hover_height <= bs.height:
                    out.append(
                        f"type {u.id} hover height {u.hover_height} does not "
                        f"clear base station {bs.id} at height {bs.height}"
                    )
        out.extend(validate_tree(self.tree))
        if self.tree.n_stations and self.tree.n_stations != len(self.stations):
            out.append(
                f"tree station vectors have length {self.tree.n_stations}, "
                f"instance has {len(self.stations)} stations"
            )
        if self.max_local_copies is not None and self.max_local_copies < 0:
            out.append("max_local_copies must be >= 0")
        return out

    def require_valid(self) -> "NetworkInstance":
        problems = self.validate()
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))
        return self

    # -- lookups --------------------------------------------------------

    @property
    def z(self) -> int:
        return self.tree.z

    def uav_type_by_id(self, type_id: int) -> UavType:
        for u in self.uav_types:
            if u.id == type_id:
                return u
        raise KeyError(f"no UAV type with id {type_id}")

    @property
    def largest_type(self) -> UavType:
        return max(self.uav_types, key=lambda u: u.battery_mah)

    def station_types(self) -> tuple[int, ...]:
        return tuple(st.uav_type for st in self.stations)

    def local_cap(self, base: int) -> int:
        if self.max_local_copies is None:
            return base
        return min(base, self.max_local_copies)


def big_m_sigma(instance: NetworkInstance) -> int:
    """Indicator-linking constant: total server capacity plus the
    recovery threshold plus the worst cumulative shortfall. Individual
    link rows use tighter per-row coefficients; this is the documented
    ceiling they all respect."""
    return (
        sum(bs.servers for bs in instance.base_stations)
        + instance.split.k
        + max_total_exposure(instance.tree)
    )


# ---------------------------------------------------------------------------
# per-(station, demand) cost tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CostTable:
    """Stage-cost ingredients for one (station, demand-dimension, type)."""

    local: float  # per locally computed copy
    offload: tuple[float, ...]  # per offloaded copy, one entry per base station
    wait: float  # hover cost while waiting out the return threshold
    decode: float  # decoding the returned product


def _cost_table(
    instance: NetworkInstance, station: Station, uav: UavType, n_dim: int
) -> _CostTable:
    env = instance.environment
    split = instance.split
    coeff = instance.costs
    uav_pos = Position3D(station.a, station.b, uav.hover_height)
    per_bs = tuple(
        offload_copy_cost(
            uav,
            env,
            n_dim,
            split,
            uav_pos,
            Position3D(bs.a, bs.b, bs.height),
            coeff,
        )
        for bs in instance.base_stations
    )
    return _CostTable(
        local=local_copy_cost(uav, env, n_dim, split, coeff),
        offload=per_bs,
        wait=hover_threshold_cost(uav, env, n_dim, split, coeff),
        decode=decode_cost(uav, env, n_dim, split, coeff),
    )


def _stage_cost_tables(
    instance: NetworkInstance,
    type_ids: Sequence[int],
    demand_dims: Sequence[Sequence[int]],
) -> list[list[_CostTable]]:
    """tables[demand_index][station_index], one row per demand vector."""
    tables = []
    for dims in demand_dims:
        row = []
        for y, st in enumerate(instance.stations):
            uav = instance.uav_type_by_id(type_ids[y])
            row.append(_cost_table(instance, st, uav, dims[y]))
        tables.append(row)
    return tables


# ---------------------------------------------------------------------------
# phase 1: reservation under weather uncertainty
# ---------------------------------------------------------------------------


@dataclass
class Phase1Model:
    model: IPModel
    size: ModelSize  # structural rows + one domain row per variable
    reserve_ids: dict[tuple[int, int, int], int]  # (slot, station, type idx) -> vid
    recourse_ids: dict[tuple[int, int, int], int]  # (weather, slot, station) -> vid


@dataclass
class Phase1Plan:
    reservations: dict[tuple[int, int], int]  # (slot, station idx) -> type id
    recourse: dict[tuple[int, int, int], int]  # (weather, slot, station idx) -> 0/1
    expected_cost: float
    optimal: bool = True


def build_phase1(instance: NetworkInstance) -> Phase1Model:
    instance.require_valid()
    tree = instance.tree
    if not tree.weather:
        raise ValueError("phase 1 requires at least one weather scenario")
    model = IPModel("phase1_reservation")
    largest = instance.largest_type
    largest_idx = instance.uav_types.index(largest)
    c_on_demand = on_demand_cost(largest, instance.costs, instance.uav_types)

    reserve_ids: dict[tuple[int, int, int], int] = {}
    recourse_ids: dict[tuple[int, int, int], int] = {}
    for t in range(instance.time_slots):
        for y, st in enumerate(instance.stations):
            for xi, uav in enumerate(instance.uav_types):
                vid = model.add_variable(
                    f"T[slot={t}][station={st.id}][type={uav.id}]", kind="binary"
                )
                model.add_objective_term(vid, reservation_cost(uav, instance.costs))
                reserve_ids[t, y, xi] = vid
    for mu, weather in enumerate(tree.weather):
        for t in range(instance.time_slots):
            for y, st in enumerate(instance.stations):
                vid = model.add_variable(
                    f"R[weather={mu}][slot={t}][station={st.id}]", kind="binary"
                )
                model.add_objective_term(
                    vid,
                    weather.probability * (c_on_demand + instance.costs.crash_penalty),
                )
                recourse_ids[mu, t, y] = vid

    for t in range(instance.time_slots):
        for y in range(len(instance.stations)):
            model.add_constraint(
                [(reserve_ids[t, y, xi], 1.0) for xi in range(len(instance.uav_types))],
                "==",
                1.0,
                name=f"one_type[slot={t}][station={y}]",
            )
    for mu, weather in enumerate(tree.weather):
        for t in range(instance.time_slots):
            for y in range(len(instance.stations)):
                # a reserved non-largest type survives only in calm wind;
                # otherwise the largest-type recourse must step in
                terms: list[tuple[int, float]] = []
                survive = 1.0 - weather.strong_wind[y]
                for xi in range(len(instance.uav_types)):
                    coef = 1.0 if xi == largest_idx else survive
                    if coef:
                        terms.append((reserve_ids[t, y, xi], coef))
                terms.append((recourse_ids[mu, t, y], 1.0))
                model.add_constraint(
                    terms, "==", 1.0, name=f"survive[weather={mu}][slot={t}][station={y}]"
                )

    size = ModelSize(
        n_vars=model.num_variables,
        n_cons=model.num_constraints + model.num_variables,
    )
    expected = model_size_phase1(
        instance.time_slots,
        len(instance.stations),
        len(instance.uav_types),
        len(tree.weather),
    )
    if size != expected:
        raise PlanningError(f"phase-1 size drift: built {size}, formula {expected}")
    return Phase1Model(model, size, reserve_ids, recourse_ids)


def solve_phase1(
    instance: NetworkInstance, node_limit: int | None = None
) -> Phase1Plan:
    built = build_phase1(instance)
    # reserve the largest type everywhere: survives every weather row
    # with zero recourse, so it always seeds a feasible incumbent
    largest_idx = instance.uav_types.index(instance.largest_type)
    warm = np.zeros(built.model.num_variables)
    for (t, y, xi), vid in built.reserve_ids.items():
        if xi == largest_idx:
            warm[vid] = 1.0
    sol = solve_exact(built.model, node_limit=node_limit, warm_start=warm)
    if sol.status == "infeasible":
        raise PlanningError("phase-1 model infeasible for a validated instance")
    if sol.status == "node_limit" and sol.assignment is None:
        raise ResourceLimitError("phase-1 node limit hit before any incumbent")
    assert sol.assignment is not None and sol.objective is not None
    reservations: dict[tuple[int, int], int] = {}
    for (t, y, xi), vid in built.reserve_ids.items():
        if round(sol.assignment[vid]) == 1:
            reservations[t, y] = instance.uav_types[xi].id
    recourse = {
        key: int(round(sol.assignment[vid]))
        for key, vid in built.recourse_ids.items()
    }
    return Phase1Plan(
        reservations=reservations,
        recourse=recourse,
        expected_cost=float(sol.objective),
        optimal=sol.status == "optimal",
    )


def effective_station_types(
    instance: NetworkInstance, plan: Phase1Plan, weather_index: int, slot: int
) -> tuple[int, ...]:
    """Per-station type ids actually flying in one weather scenario: the
    reservation, except that a crashed non-largest type is replaced by
    the on-demand largest type."""
    weather = instance.tree.weather[weather_index]
    largest_id = instance.largest_type.id
    out = []
    for y in range(len(instance.stations)):
        reserved = plan.reservations[slot, y]
        if weather.strong_wind[y] and reserved != largest_id:
            out.append(largest_id)
        else:
            out.append(reserved)
    return tuple(out)


# ---------------------------------------------------------------------------
# phase 2: task allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDecision:
    local: int
    offload: tuple[int, ...]  # per base station
    offload_indicator: int

    @property
    def total(self) -> int:
        return self.local + sum(self.offload)


@dataclass
class Phase2Plan:
    subscriptions: tuple[tuple[int, ...], ...]  # [slot][bs index] -> 0/1
    stage2: dict[tuple[int, int, int], StageDecision]  # (slot, demand, station)
    recourse: dict[tuple[int, int, tuple[int, ...], int], StageDecision]
    # ^ (slot, stage, loss prefix, station)
    residuals: dict[tuple[int, tuple[int, ...], int], int]  # (slot, terminal, station)
    expected_cost: float
    stage_breakdown: dict[str, float] = field(default_factory=dict)
    optimal: bool = True

    def subscription_count(self) -> int:
        return sum(sum(row) for row in self.subscriptions)


@dataclass
class Phase2Model:
    model: IPModel
    formulation: str  # "dip" | "sip"
    size: ModelSize  # sizing-formula output on the builder-derived shape
    shape: tuple[int, ...]  # (slots, bs, stations, demand, *loss set sizes)
    actual_vars: int
    actual_cons: int
    type_ids: tuple[int, ...]
    sub_ids: dict[tuple[int, int], int]  # (slot, f) -> vid
    local_ids: dict[tuple, int]
    offload_ids: dict[tuple, int]
    indicator_ids: dict[tuple, int]
    residual_ids: dict[tuple, int]
    tables: list[list[_CostTable]]
    dip_demand: tuple[int, ...] | None = None
    dip_shortfall: tuple[float, ...] | None = None


def _resolve_type_ids(
    instance: NetworkInstance, type_ids: Sequence[int] | None
) -> tuple[int, ...]:
    if type_ids is None:
        return instance.station_types()
    ids = tuple(int(x) for x in type_ids)
    if len(ids) != len(instance.stations):
        raise ValueError(
            f"type vector length {len(ids)} != station count {len(instance.stations)}"
        )
    known = {u.id for u in instance.uav_types}
    for tid in ids:
        if tid not in known:
            raise ValueError(f"unknown UAV type id {tid}")
    return ids


class _Phase2Builder:
    """An allocation model under construction and its variable-id maps;
    the SIP and DIP builders share its stage-2 block."""

    def __init__(self, instance: NetworkInstance, name: str) -> None:
        self.instance = instance
        self.model = IPModel(name)
        self.sub_ids: dict[tuple[int, int], int] = {}
        self.local_ids: dict[tuple, int] = {}
        self.offload_ids: dict[tuple, int] = {}
        self.indicator_ids: dict[tuple, int] = {}
        self.residual_ids: dict[tuple, int] = {}

    def add_subscriptions(self, t: int) -> None:
        for fi, bs in enumerate(self.instance.base_stations):
            vid = self.model.add_variable(f"M_s[slot={t}][bs={bs.id}]", kind="binary")
            self.model.add_objective_term(vid, self.instance.costs.subscription_fee)
            self.sub_ids[t, fi] = vid

    def add_decision(
        self,
        key: tuple,
        tag: str,
        probability: float,
        tab: _CostTable,
        local_ub: int,
        wait_gated: bool,
    ) -> None:
        """Local count, offload-route indicator and per-BS offload counts
        of one station at one stage, priced at ``probability`` times its
        cost table. The hover wait is an indicator term when
        ``wait_gated``, a constant otherwise."""
        model = self.model
        lv = model.add_variable(f"M_L{tag}", kind="integer", upper=local_ub)
        model.add_objective_term(lv, probability * tab.local)
        self.local_ids[key] = lv
        th = model.add_variable(f"M_TH{tag}", kind="binary")
        self.indicator_ids[key] = th
        if wait_gated:
            model.add_objective_term(th, probability * tab.wait)
        else:
            model.add_objective_constant(probability * tab.wait)
        for fi, bs in enumerate(self.instance.base_stations):
            ov = model.add_variable(
                f"M_O{tag}[bs={bs.id}]", kind="integer", upper=bs.servers
            )
            model.add_objective_term(ov, probability * tab.offload[fi])
            self.offload_ids[(*key, fi)] = ov

    def add_server_rows(self, prefix: tuple, tag: str) -> None:
        """Subscription link and capacity per base station over the
        offloads of every station under one (slot, stage, scenario
        prefix)."""
        n_y = len(self.instance.stations)
        for fi, bs in enumerate(self.instance.base_stations):
            terms = [(self.offload_ids[(*prefix, y, fi)], 1.0) for y in range(n_y)]
            self.model.add_constraint(
                terms + [(self.sub_ids[prefix[0], fi], -float(bs.servers))],
                "<=",
                0.0,
                name=f"sub_link{tag}[bs={bs.id}]",
            )
            self.model.add_constraint(
                terms, "<=", float(bs.servers), name=f"capacity{tag}[bs={bs.id}]"
            )

    def add_route_link(self, key: tuple, tag: str, fi: int) -> None:
        """No offload to base station ``fi`` without the route indicator."""
        bs = self.instance.base_stations[fi]
        self.model.add_constraint(
            [
                (self.offload_ids[(*key, fi)], 1.0),
                (self.indicator_ids[key], -float(bs.servers)),
            ],
            "<=",
            0.0,
            name=f"route_link{tag}[bs={bs.id}]",
        )

    def add_stage2_block(
        self,
        t: int,
        li: int,
        probability: float,
        tables: Sequence[_CostTable],
        local_ub: Sequence[int],
    ) -> None:
        """Stage-2 decisions and link rows for one (slot, demand scenario):
        the subscription link and capacity per base station, then per
        station the per-BS threshold and route links and the
        local-or-route cut."""
        instance, model = self.instance, self.model
        k = instance.split.k
        for y, st in enumerate(instance.stations):
            self.add_decision(
                (t, 2, li, y),
                f"[stage=2][slot={t}][scenario={li}][station={st.id}]",
                probability,
                tables[y],
                local_ub[y],
                wait_gated=instance.wait_cost_gated_by_offload,
            )
            model.add_objective_constant(probability * tables[y].decode)

        self.add_server_rows((t, 2, li), f"[stage=2][slot={t}][scenario={li}]")
        for y in range(len(instance.stations)):
            key = (t, 2, li, y)
            route_tag = f"[stage=2][slot={t}][scenario={li}][station={y}]"
            for fi, bs in enumerate(instance.base_stations):
                model.add_constraint(
                    [(self.local_ids[key], 1.0), (self.offload_ids[(*key, fi)], 1.0)],
                    ">=",
                    float(k),
                    name=f"threshold[slot={t}][scenario={li}][station={y}][bs={bs.id}]",
                )
                self.add_route_link(key, route_tag, fi)
            if instance.base_stations:
                # implied for integer points (no route -> no offload ->
                # threshold forces local >= k) but cuts fractional
                # indicators, which otherwise wreck the LP bound
                model.add_constraint(
                    [(self.local_ids[key], 1.0), (self.indicator_ids[key], float(k))],
                    ">=",
                    float(k),
                    name=f"local_or_route[slot={t}][scenario={li}][station={y}]",
                )

    def build(
        self,
        formulation: str,
        shape: tuple[int, ...],
        type_ids: tuple[int, ...],
        tables: list[list[_CostTable]],
        **dip_inputs,
    ) -> Phase2Model:
        """The finished model; ``dip_inputs`` records a DIP's known
        demand and shortfall."""
        return Phase2Model(
            model=self.model,
            formulation=formulation,
            size=model_size_phase2(*shape),
            shape=shape,
            actual_vars=self.model.num_variables,
            actual_cons=self.model.num_constraints,
            type_ids=type_ids,
            sub_ids=self.sub_ids,
            local_ids=self.local_ids,
            offload_ids=self.offload_ids,
            indicator_ids=self.indicator_ids,
            residual_ids=self.residual_ids,
            tables=tables,
            **dip_inputs,
        )


def build_phase2_sip(
    instance: NetworkInstance, type_ids: Sequence[int] | None = None
) -> Phase2Model:
    """Extensive-form multistage allocation program over the full tree."""
    instance.require_valid()
    tree = instance.tree
    if not tree.demand:
        raise ValueError("phase 2 requires at least one demand scenario")
    ids = _resolve_type_ids(instance, type_ids)
    tables = _stage_cost_tables(instance, ids, [d.dims for d in tree.demand])
    k = instance.split.k
    n_y = len(instance.stations)
    n_f = len(instance.base_stations)
    sigma_hat = k + max_total_exposure(tree)
    l2_ub = instance.local_cap(k)
    lz_ub = instance.local_cap(sigma_hat)

    builder = _Phase2Builder(instance, "phase2_sip")
    model, residual_ids = builder.model, builder.residual_ids
    local_ids, offload_ids = builder.local_ids, builder.offload_ids
    indicator_ids = builder.indicator_ids

    stage_range = range(3, tree.z + 1)
    prefixes = {zz: loss_prefixes(tree, zz) for zz in stage_range}
    terminal = enumerate_terminal_paths(tree)

    for t in range(instance.time_slots):
        builder.add_subscriptions(t)
        for li, dem in enumerate(tree.demand):
            builder.add_stage2_block(t, li, dem.probability, tables[li], [l2_ub] * n_y)

        for zz in stage_range:
            for combo in prefixes[zz]:
                for li in range(len(tree.demand)):
                    prob = _path_probability(tree, li, combo)
                    for y in range(n_y):
                        tag = (
                            f"[stage={zz}][slot={t}][scenario={li}]"
                            f"[path={','.join(map(str, combo)) or '-'}]"
                            f"[station={instance.stations[y].id}]"
                        )
                        builder.add_decision(
                            (t, zz, li, combo, y),
                            tag,
                            prob,
                            tables[li][y],
                            lz_ub,
                            wait_gated=True,
                        )

        for path in terminal:
            for y in range(n_y):
                rv = model.add_variable(
                    f"rho[slot={t}][scenario={path.demand_index}]"
                    f"[path={','.join(map(str, path.loss_indices)) or '-'}]"
                    f"[station={instance.stations[y].id}]",
                    kind="binary",
                )
                model.add_objective_term(
                    rv, path.probability * instance.costs.completion_penalty
                )
                residual_ids[t, path.demand_index, path.loss_indices, y] = rv

        # -- rows -------------------------------------------------------

        for zz in stage_range:
            for combo in prefixes[zz]:
                for li in range(len(tree.demand)):
                    ptag = f"[slot={t}][scenario={li}][path={','.join(map(str, combo)) or '-'}]"
                    builder.add_server_rows((t, zz, li, combo), f"[stage={zz}]{ptag}")
                    for y in range(n_y):
                        route_tag = f"[stage={zz}]{ptag}[station={y}]"
                        for fi in range(n_f):
                            builder.add_route_link((t, zz, li, combo, y), route_tag, fi)

        for path in terminal:
            li = path.demand_index
            for y in range(n_y):
                exposure = flag_product_exposure(tree, path.loss_indices, y)
                terms: list[tuple[int, float]] = [
                    (local_ids[t, 2, li, y], 1.0)
                ]
                terms += [(offload_ids[t, 2, li, y, fi], 1.0) for fi in range(n_f)]
                for zz in stage_range:
                    combo = path.loss_indices[: zz - 2]
                    terms.append((local_ids[t, zz, li, combo, y], 1.0))
                    terms += [
                        (offload_ids[t, zz, li, combo, y, fi], 1.0)
                        for fi in range(n_f)
                    ]
                terms.append(
                    (residual_ids[t, li, path.loss_indices, y], float(sigma_hat))
                )
                if exposure:
                    terms.append((indicator_ids[t, 2, li, y], -float(exposure)))
                model.add_constraint(
                    terms,
                    ">=",
                    float(k),
                    name=f"coverage[slot={t}][scenario={li}]"
                    f"[path={','.join(map(str, path.loss_indices)) or '-'}][station={y}]",
                )

    shape = (
        instance.time_slots,
        n_f,
        n_y,
        len(tree.demand),
        *[len(s) for s in tree.shortfall_stages],
    )
    return builder.build("sip", shape, ids, tables)


def build_phase2_dip(
    instance: NetworkInstance,
    demand: Sequence[int],
    shortfall: Sequence[float] | None = None,
    type_ids: Sequence[int] | None = None,
) -> Phase2Model:
    """Deterministic allocation program: demand and shortfall known."""
    instance.require_valid()
    n_y = len(instance.stations)
    n_f = len(instance.base_stations)
    if len(demand) != n_y:
        raise ValueError(f"demand vector length {len(demand)} != {n_y}")
    for d in demand:
        if int(d) != d or d <= 0:
            raise ValueError(f"demand must be positive integers, got {d!r}")
    if shortfall is None:
        shortfall = [0.0] * n_y
    if len(shortfall) != n_y:
        raise ValueError(f"shortfall vector length {len(shortfall)} != {n_y}")
    for s in shortfall:
        if s < 0:
            raise ValueError(f"shortfall must be non-negative, got {s!r}")

    ids = _resolve_type_ids(instance, type_ids)
    k = instance.split.k
    tables = _stage_cost_tables(instance, ids, [[int(d) for d in demand]])
    local_ub = [instance.local_cap(k + math.ceil(s)) for s in shortfall]

    builder = _Phase2Builder(instance, "phase2_dip")
    model = builder.model
    local_ids, offload_ids = builder.local_ids, builder.offload_ids

    for t in range(instance.time_slots):
        builder.add_subscriptions(t)
        builder.add_stage2_block(t, 0, 1.0, tables[0], local_ub)
        for y in range(n_y):
            provided = [(local_ids[t, 2, 0, y], 1.0)]
            provided += [(offload_ids[t, 2, 0, y, fi], 1.0) for fi in range(n_f)]
            # coverage with the known shortfall, loss gated by the
            # offload-route indicator
            cov = list(provided)
            if shortfall[y]:
                cov.append((builder.indicator_ids[t, 2, 0, y], -float(shortfall[y])))
            model.add_constraint(
                cov, ">=", float(k), name=f"coverage[slot={t}][station={y}]"
            )
            # literal restoration row: offloads must make up whatever the
            # known shortfall exceeds the local count by
            model.add_constraint(
                provided,
                ">=",
                float(shortfall[y]),
                name=f"restoration[slot={t}][station={y}]",
            )

    return builder.build(
        "dip",
        (instance.time_slots, n_f, n_y, 1),
        ids,
        tables,
        dip_demand=tuple(int(d) for d in demand),
        dip_shortfall=tuple(float(s) for s in shortfall),
    )


def decode_phase2(
    instance: NetworkInstance, built: Phase2Model, sol: Solution
) -> Phase2Plan:
    if sol.assignment is None or sol.objective is None:
        raise PlanningError(f"cannot decode a solution with status {sol.status!r}")
    x = sol.assignment
    n_f = len(instance.base_stations)
    subs = tuple(
        tuple(int(round(x[built.sub_ids[t, fi]])) for fi in range(n_f))
        for t in range(instance.time_slots)
    )
    stage2: dict[tuple[int, int, int], StageDecision] = {}
    recourse: dict[tuple[int, int, tuple[int, ...], int], StageDecision] = {}
    for key, lv in built.local_ids.items():
        dec = StageDecision(
            local=int(round(x[lv])),
            offload=tuple(
                int(round(x[built.offload_ids[(*key, fi)]])) for fi in range(n_f)
            ),
            offload_indicator=int(round(x[built.indicator_ids[key]])),
        )
        if key[1] == 2:
            t, _, li, y = key
            stage2[t, li, y] = dec
        else:
            t, zz, li, combo, y = key
            recourse[t, zz, (li, *combo), y] = dec
    residuals = {
        (t, (li, *combo), y): int(round(x[vid]))
        for (t, li, combo, y), vid in built.residual_ids.items()
    }
    plan = Phase2Plan(
        subscriptions=subs,
        stage2=stage2,
        recourse=recourse,
        residuals=residuals,
        expected_cost=float(sol.objective),
        optimal=sol.status == "optimal",
    )
    if built.formulation == "sip":
        paths = enumerate_terminal_paths(instance.tree)
    else:
        paths = [ScenarioPath(0, (), 1.0)]
    _, plan.stage_breakdown = _expectation(
        paths, *_path_costs(instance, plan, built.tables, paths)
    )
    total = sum(plan.stage_breakdown.values())
    if abs(total - plan.expected_cost) > 1e-6:
        raise PlanningError(
            f"stage breakdown {total} disagrees with objective {plan.expected_cost}"
        )
    return plan


def _phase2_warm_start(
    instance: NetworkInstance, built: Phase2Model
) -> np.ndarray | None:
    """All-local incumbent for the stochastic build.

    Keep exactly k copies on board per station and scenario; stations
    whose local cap falls short of k route the difference to every BS
    instead. Recourse stages stay at zero, residuals fall out of the
    coverage arithmetic. Gives branch and bound a finite incumbent at
    the root. Returns None when the fallback offloads do not fit BS
    capacity (caller just solves cold)."""
    tree = instance.tree
    k = instance.split.k
    l2_ub = instance.local_cap(k)
    n_f = len(instance.base_stations)
    n_y = len(instance.stations)
    x = np.zeros(built.model.num_variables)
    used_bs: set[tuple[int, int]] = set()
    for t in range(instance.time_slots):
        for li in range(len(tree.demand)):
            remaining = [bs.servers for bs in instance.base_stations]
            for y in range(n_y):
                if l2_ub >= k:
                    x[built.local_ids[t, 2, li, y]] = float(k)
                    continue
                need = k - l2_ub
                x[built.local_ids[t, 2, li, y]] = float(l2_ub)
                x[built.indicator_ids[t, 2, li, y]] = 1.0
                for fi in range(n_f):
                    if remaining[fi] < need:
                        return None
                    remaining[fi] -= need
                    x[built.offload_ids[t, 2, li, y, fi]] = float(need)
                    used_bs.add((t, fi))
    for t, fi in used_bs:
        x[built.sub_ids[t, fi]] = 1.0
    for (t, li, combo, y), rv in built.residual_ids.items():
        provided = x[built.local_ids[t, 2, li, y]] + sum(
            x[built.offload_ids[t, 2, li, y, fi]] for fi in range(n_f)
        )
        indicator = x[built.indicator_ids[t, 2, li, y]]
        x[rv] = float(_falls_short(tree, k, provided, indicator, combo, y))
    return x


def solve_phase2(
    instance: NetworkInstance,
    formulation: str = "sip",
    demand: Sequence[int] | None = None,
    shortfall: Sequence[float] | None = None,
    type_ids: Sequence[int] | None = None,
    node_limit: int | None = None,
) -> Phase2Plan:
    if formulation == "sip":
        built = build_phase2_sip(instance, type_ids=type_ids)
        warm = _phase2_warm_start(instance, built)
    elif formulation == "dip":
        if demand is None:
            raise ValueError("dip formulation requires a demand vector")
        built = build_phase2_dip(instance, demand, shortfall, type_ids=type_ids)
        warm = None
    else:
        raise ValueError(f"unknown formulation {formulation!r}")
    sol = solve_exact(built.model, node_limit=node_limit, warm_start=warm)
    if sol.status == "infeasible":
        raise PlanningError("phase-2 model infeasible for a validated instance")
    if sol.status == "node_limit" and sol.assignment is None:
        raise ResourceLimitError("phase-2 node limit hit before any incumbent")
    return decode_phase2(instance, built, sol)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def _mean_demand_and_shortfall(
    instance: NetworkInstance,
) -> tuple[list[int], list[float]]:
    tree = instance.tree
    n_y = len(instance.stations)
    mean_dims = []
    for y in range(n_y):
        m = sum(d.probability * d.dims[y] for d in tree.demand)
        mean_dims.append(int(math.floor(m + 0.5)))  # ties round up
    mean_short = []
    for y in range(n_y):
        total = 0.0
        running_flag = 1.0
        for stage in tree.shortfall_stages:
            e_fa = sum(s.probability * s.flags[y] * s.magnitudes[y] for s in stage)
            total += running_flag * e_fa
            running_flag *= sum(s.probability * s.flags[y] for s in stage)
        mean_short.append(total)
    return mean_dims, mean_short


def evf_plan(
    instance: NetworkInstance, type_ids: Sequence[int] | None = None
) -> Phase2Plan:
    """Expected-value baseline: solve the deterministic program on mean
    demand and mean shortfall, then freeze those decisions across every
    scenario. Expected cost is the exact tree evaluation of the frozen
    plan (recourse stages stay at zero; residual penalties fall where
    the frozen provision cannot cover a path's losses)."""
    instance.require_valid()
    ids = _resolve_type_ids(instance, type_ids)
    mean_dims, mean_short = _mean_demand_and_shortfall(instance)
    dip = solve_phase2(
        instance, "dip", demand=mean_dims, shortfall=mean_short, type_ids=ids
    )
    return _freeze_stage2_plan(
        instance,
        ids,
        subscriptions=dip.subscriptions,
        decision_for=lambda t, li, y: dip.stage2[t, 0, y],
    )


def random_plan(
    instance: NetworkInstance, seed: int, type_ids: Sequence[int] | None = None
) -> Phase2Plan:
    """Feasibility-constrained uniform baseline (deterministic per seed).

    Subscribes a uniform random BS subset (all, when the local-copy cap
    cannot meet the per-BS threshold rows alone), then per (slot, demand
    scenario) draws local counts and per-BS offloads inside the
    threshold and capacity rows; a draw that runs out of capacity is
    rejected and redrawn, scenario block by scenario block. Recourse
    stages stay at zero; residual penalties land wherever the drawn
    provision cannot cover a path's losses."""
    instance.require_valid()
    ids = _resolve_type_ids(instance, type_ids)
    rng = np.random.default_rng(seed)
    tree = instance.tree
    k = instance.split.k
    n_y = len(instance.stations)
    n_f = len(instance.base_stations)
    l2_ub = instance.local_cap(k)
    must_subscribe_all = l2_ub < k  # threshold rows cannot be met locally

    if must_subscribe_all:
        subs_row = [1] * n_f
    else:
        subs_row = [int(rng.integers(0, 2)) for _ in range(n_f)]
    all_subscribed = all(subs_row)

    def draw_scenario_block() -> list[StageDecision] | None:
        remaining = [
            bs.servers if subs_row[fi] else 0
            for fi, bs in enumerate(instance.base_stations)
        ]
        block = []
        for _y in range(n_y):
            if all_subscribed:
                local = int(rng.integers(0, l2_ub + 1))
            else:
                # an unsubscribed BS forces its threshold row to be met
                # locally, so the local draw starts at k
                local = int(rng.integers(k, min(k + 2, l2_ub) + 1))
            offload = []
            need = max(0, k - local)
            for fi in range(n_f):
                if not subs_row[fi]:
                    if need > 0:
                        return None
                    offload.append(0)
                    continue
                if need > remaining[fi]:
                    return None
                o = int(rng.integers(need, remaining[fi] + 1))
                offload.append(o)
                remaining[fi] -= o
            block.append(
                StageDecision(
                    local=local,
                    offload=tuple(offload),
                    offload_indicator=int(any(offload)),
                )
            )
        return block

    decisions: dict[tuple[int, int, int], StageDecision] = {}
    for t in range(instance.time_slots):
        for li in range(len(tree.demand)):
            for _attempt in range(10_000):
                block = draw_scenario_block()
                if block is not None:
                    break
            else:
                raise PlanningError(
                    "random plan sampler exhausted 10000 draws without a "
                    f"feasible block (slot {t}, demand scenario {li})"
                )
            for y, dec in enumerate(block):
                decisions[t, li, y] = dec

    return _freeze_stage2_plan(
        instance,
        ids,
        subscriptions=tuple(tuple(subs_row) for _ in range(instance.time_slots)),
        decision_for=lambda t, li, y: decisions[t, li, y],
    )


def _freeze_stage2_plan(
    instance: NetworkInstance,
    type_ids: tuple[int, ...],
    subscriptions: tuple[tuple[int, ...], ...],
    decision_for,
) -> Phase2Plan:
    """Assemble a Phase2Plan from fixed stage-2 decisions: zero recourse
    and residual flags derived from path coverage."""
    tree = instance.tree
    k = instance.split.k
    n_y = len(instance.stations)
    n_f = len(instance.base_stations)
    zero = StageDecision(local=0, offload=(0,) * n_f, offload_indicator=0)
    stage2 = {}
    recourse = {}
    residuals = {}
    for t in range(instance.time_slots):
        for li in range(len(tree.demand)):
            for y in range(n_y):
                stage2[t, li, y] = decision_for(t, li, y)
        for zz in range(3, tree.z + 1):
            for combo in loss_prefixes(tree, zz):
                for li in range(len(tree.demand)):
                    for y in range(n_y):
                        recourse[t, zz, (li, *combo), y] = zero
        for path in enumerate_terminal_paths(tree):
            for y in range(n_y):
                dec = stage2[t, path.demand_index, y]
                residuals[t, (path.demand_index, *path.loss_indices), y] = int(
                    _falls_short(
                        tree, k, dec.total, dec.offload_indicator, path.loss_indices, y
                    )
                )
    plan = Phase2Plan(
        subscriptions=subscriptions,
        stage2=stage2,
        recourse=recourse,
        residuals=residuals,
        expected_cost=0.0,
    )
    plan.expected_cost, plan.stage_breakdown = exact_expected_cost(
        instance, plan, type_ids, with_breakdown=True
    )
    return plan


# ---------------------------------------------------------------------------
# cost accounting: one (path x stage) array per plan
# ---------------------------------------------------------------------------


def _falls_short(
    tree: ScenarioTree,
    k: int,
    provided: float,
    offload_indicator: float,
    loss_indices: Sequence[int],
    station: int,
) -> bool:
    """Coverage test of one (slot, path, station): the copies provided
    along the path fall short of k plus the losses that hit the station
    while it offloads."""
    exposure = flag_product_exposure(tree, loss_indices, station)
    return provided < k + exposure * offload_indicator


def _decision(decisions: Mapping, key: tuple, stage: int) -> StageDecision:
    try:
        return decisions[key]
    except KeyError:
        raise PlanningError(f"plan has no stage-{stage} decision for {key!r}") from None


def _decision_cost(tab: _CostTable, dec: StageDecision, wait: float) -> float:
    cost = tab.local * dec.local
    cost += sum(c * o for c, o in zip(tab.offload, dec.offload))
    return cost + tab.wait * wait


def _path_costs(
    instance: NetworkInstance,
    plan: Phase2Plan,
    tables: Sequence[Sequence[_CostTable]],
    paths: Sequence[ScenarioPath],
) -> tuple[tuple[str, ...], np.ndarray]:
    """The cost the plan pays on each path, split by stage.

    Returns the stage labels (stage1, stage2, stage3.., terminal) and a
    paths x stages array with one row per path, in the given order.
    Subscriptions are charged on every path; the terminal column follows
    the completion-penalty rule in the module docstring."""
    tree = instance.tree
    k = instance.split.k
    gated = instance.wait_cost_gated_by_offload
    penalty = instance.costs.completion_penalty
    n_recourse = len(paths[0].loss_indices) if paths else 0
    labels = (
        "stage1",
        *(f"stage{zz}" for zz in range(2, n_recourse + 3)),
        "terminal",
    )
    stage1 = instance.costs.subscription_fee * plan.subscription_count()
    rows = []
    for path in paths:
        li, losses = path.demand_index, path.loss_indices
        row = [stage1] + [0.0] * (n_recourse + 2)
        for t in range(instance.time_slots):
            for y, tab in enumerate(tables[li]):
                dec = _decision(plan.stage2, (t, li, y), 2)
                wait = dec.offload_indicator if gated else 1.0
                row[1] += _decision_cost(tab, dec, wait) + tab.decode
                provided = dec.total
                for zz in range(3, n_recourse + 3):
                    key = (t, zz, (li, *losses[: zz - 2]), y)
                    rdec = _decision(plan.recourse, key, zz)
                    row[zz - 1] += _decision_cost(tab, rdec, rdec.offload_indicator)
                    provided += rdec.total
                if plan.residuals.get((t, (li, *losses), y)) or _falls_short(
                    tree, k, provided, dec.offload_indicator, losses, y
                ):
                    row[-1] += penalty
        rows.append(row)
    return labels, np.array(rows, dtype=float).reshape(len(paths), len(labels))


def _tree_path_costs(
    instance: NetworkInstance, plan: Phase2Plan, type_ids: Sequence[int] | None = None
) -> tuple[list[ScenarioPath], tuple[str, ...], np.ndarray]:
    """The tree's terminal paths and the plan's cost array over them."""
    paths = enumerate_terminal_paths(instance.tree)
    ids = _resolve_type_ids(instance, type_ids)
    tables = _stage_cost_tables(instance, ids, [d.dims for d in instance.tree.demand])
    return (paths, *_path_costs(instance, plan, tables, paths))


def _expectation(
    paths: Sequence[ScenarioPath], labels: tuple[str, ...], costs: np.ndarray
) -> tuple[float, dict[str, float]]:
    """Probability-weighted path costs, in total and per stage."""
    probs = np.array([p.probability for p in paths])
    total = float(probs @ costs.sum(axis=1))
    return total, dict(zip(labels, (probs @ costs).tolist()))


def realized_path_parts(
    instance: NetworkInstance,
    plan: Phase2Plan,
    demand_index: int,
    loss_indices: tuple[int, ...],
    type_ids: Sequence[int] | None = None,
) -> dict[str, float]:
    """Per-stage cost the plan actually pays on one terminal path.

    Subscriptions are charged in full (they are path-independent), then
    the stage-2 decision for the path's demand scenario and the recourse
    decisions along the path's prefixes. A station pays the completion
    penalty in a slot when its cumulative copies fall short of the
    threshold plus its offload-gated losses, or when the plan's residual
    flag is set there. Keys: stage1, stage2, stage3.., terminal.
    """
    paths, labels, costs = _tree_path_costs(instance, plan, type_ids)
    wanted = (demand_index, tuple(loss_indices))
    for path, row in zip(paths, costs):
        if (path.demand_index, path.loss_indices) == wanted:
            return dict(zip(labels, row.tolist()))
    raise ValueError(f"no terminal path ({demand_index}, {loss_indices}) in the tree")


def exact_expected_cost(
    instance: NetworkInstance,
    plan: Phase2Plan,
    type_ids: Sequence[int] | None = None,
    with_breakdown: bool = False,
):
    """Exact expectation of the plan's realized cost over all terminal
    paths (no sampling)."""
    total, breakdown = _expectation(*_tree_path_costs(instance, plan, type_ids))
    return (total, breakdown) if with_breakdown else total


# ---------------------------------------------------------------------------
# structure probes
# ---------------------------------------------------------------------------


def offload_curve(
    instance: NetworkInstance,
    values: Sequence[int] | None = None,
    type_ids: Sequence[int] | None = None,
) -> list[dict]:
    """Total-cost curve over forced stage-2 offload totals.

    Requires a single-slot, single-station, single-demand-scenario
    instance (anything else has no one-dimensional curve to trace). For
    each value v, the stage-2 offloads of the lone station are pinned to
    sum to v and the rest of the program is re-optimized; each row
    records the per-stage breakdown and the total.
    """
    instance.require_valid()
    tree = instance.tree
    if (
        instance.time_slots != 1
        or len(instance.stations) != 1
        or len(tree.demand) != 1
    ):
        raise ValueError(
            "offload curve needs exactly one slot, one station, and one demand scenario"
        )
    if values is None:
        cap = sum(bs.servers for bs in instance.base_stations)
        values = range(instance.split.k, cap + 1)
    rows = []
    for v in values:
        built = build_phase2_sip(instance, type_ids=type_ids)
        n_f = len(instance.base_stations)
        terms = [(built.offload_ids[0, 2, 0, 0, fi], 1.0) for fi in range(n_f)]
        built.model.add_constraint(terms, "==", float(v), name=f"pin_offload[{v}]")
        sol = solve_exact(built.model)
        if sol.status != "optimal":
            rows.append({"offload": int(v), "status": sol.status})
            continue
        plan = decode_phase2(instance, built, sol)
        row = {"offload": int(v), "status": "optimal", "total": plan.expected_cost}
        row.update(plan.stage_breakdown)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# two-phase composition
# ---------------------------------------------------------------------------


def plan_both_phases(
    instance: NetworkInstance, node_limit: int | None = None
) -> tuple[Phase1Plan, dict[tuple[int, int], Phase2Plan], float]:
    """Reserve types under weather uncertainty, then allocate tasks per
    weather scenario with the effective (reserved or recourse) types.

    Returns the phase-1 plan, the phase-2 plan per (slot, weather
    scenario), and the composed expected cost: phase-1 objective plus
    the probability-weighted phase-2 objectives. Identical effective
    type vectors share one solve.
    """
    p1 = solve_phase1(instance, node_limit=node_limit)
    single = dataclasses.replace(instance, time_slots=1)
    cache: dict[tuple[int, ...], Phase2Plan] = {}
    plans: dict[tuple[int, int], Phase2Plan] = {}
    composed = p1.expected_cost
    for t in range(instance.time_slots):
        for mu, weather in enumerate(instance.tree.weather):
            ids = effective_station_types(instance, p1, mu, t)
            if ids not in cache:
                cache[ids] = solve_phase2(
                    single, "sip", type_ids=ids, node_limit=node_limit
                )
            plans[t, mu] = cache[ids]
            composed += weather.probability * plans[t, mu].expected_cost
    return p1, plans, composed
