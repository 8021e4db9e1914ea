"""Build and solve the two planning phases.

Phase 1 reserves one UAV type per station against weather uncertainty,
with an on-demand largest-type recourse in crash scenarios; every slot
repeats the same choice, so ``solve_phase1`` makes it once per station
in closed form and its ``Phase1Plan`` holds one slot.
Phase 2 allocates coded task copies between local computation and
offloading to subscribed edge servers, as either a deterministic program
(known demand/shortfall) or a z-stage stochastic program in extensive
form over the scenario tree. One ``Phase2Model`` builds, decodes and
encodes both with one stage loop: every decision block is keyed by
(stage, demand scenario, loss prefix), stage 2 is the stage whose loss
prefix is empty, and the deterministic program is the stage-2 block of
one demand scenario. Every slot repeats the same program, so the model
and its ``Phase2Plan`` cover one slot, the plan keyed the way the model
keys its variables. Every plan's cost, phase 1 or phase 2, is one
slot's; only ``plan_both_phases``'s composed cost and the reports built
on the plans multiply it by the number of slots.

Key structural choices:

- shortfall losses hit a station only on the offload route: a binary
  per (station, demand scenario) offload indicator gates the loss terms;
- cumulative copy coverage is enforced per terminal path, softened by a
  per (station, terminal path) residual binary that buys out the
  constraint at the completion penalty;
- the per-BS threshold rows require local + per-BS offload >= k for
  every base station, so any station that offloads needs every BS
  subscribed and provisioned to at least k - local copies.

A plan carries the fleet it was made for, and its cost is priced in one
place, ``_Pricing.expectation``, which bills the plan, then charges the
bill. ``bill`` weighs what the plan buys on each terminal path by the
path probabilities, per stage and (demand scenario, station), and reads
no price; ``charge`` multiplies a bill by the fleet's cost tables. The
decoder's stage breakdown and ``exact_expected_cost`` both read it, and
a price comparison bills each plan once and charges the bill at every
price. Another fleet's tables refuse the plan's bill with
``PlanningError``. Its one completion-penalty rule: a (path, station)
pays the penalty when its cumulative copies fall short of k + exposure
* stage-2 offload indicator, or when the plan's residual flag is set
there. Coverage alone prices a plan on another tree of the same shape;
the flag keeps an incumbent that buys out coverage it already meets
priced as its objective. On every plan the library returns for its own
instance the two agree, so the model objective equals the exact tree
expectation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coding import CodeSplit
from .costs import (
    CopyPrices,
    CostCoefficients,
    copy_prices,
    on_demand_cost,
    reservation_cost,
)
from .milp import Basis, IPModel, Solution, solve_exact
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
    validate_tree,
)

__all__ = [
    "Station",
    "BaseStation",
    "NetworkInstance",
    "PlanningError",
    "InfeasibleModelError",
    "ResourceLimitError",
    "Phase1Model",
    "Phase1Plan",
    "Phase2Model",
    "Phase2Plan",
    "StageDecision",
    "build_phase1",
    "solve_phase1",
    "build_phase2_dip",
    "build_phase2_sip",
    "solve_phase2",
    "evf_plan",
    "exact_expected_cost",
    "offload_curve",
    "plan_both_phases",
]


# uniform draws of one scenario block before the random-plan sampler
# draws it once more with bounded draws
_UNIFORM_DRAWS = 10_000
# 32-bit generator words the random-plan sampler reads per NumPy call
_WORD_CHUNK = 1024


class PlanningError(RuntimeError):
    """Internal invariant violation (e.g. an instance that should be
    feasible came back infeasible)."""


class InfeasibleModelError(PlanningError):
    """A phase-2 model has no feasible point. For the stochastic program
    of a validated instance that is an invariant violation; the
    mean-value program behind ``evf_plan`` can lack one legitimately."""


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
    """One planning network. Building one (``dataclasses.replace``
    included) runs every structural check and raises ``ValueError``
    with the problems joined by "; ", so an instance that exists is
    valid."""

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

    def __post_init__(self) -> None:
        problems = self._problems()
        if problems:
            raise ValueError("; ".join(problems))

    def _problems(self) -> list[str]:
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


# ---------------------------------------------------------------------------
# per-(station, demand) cost tables
# ---------------------------------------------------------------------------


def _stage_cost_tables(
    instance: NetworkInstance,
    type_ids: Sequence[int],
    demand_dims: Sequence[Sequence[int]],
) -> list[list[CopyPrices]]:
    """tables[demand_index][station_index], one row per demand vector."""
    env, split, coeff = instance.environment, instance.split, instance.costs
    servers = [Position3D(bs.a, bs.b, bs.height) for bs in instance.base_stations]
    tables = []
    for dims in demand_dims:
        row = []
        for y, st in enumerate(instance.stations):
            uav = instance.uav_type_by_id(type_ids[y])
            pos = Position3D(st.a, st.b, uav.hover_height)
            row.append(copy_prices(uav, env, dims[y], split, coeff, pos, servers))
        tables.append(row)
    return tables


# ---------------------------------------------------------------------------
# phase 1: reservation under weather uncertainty
# ---------------------------------------------------------------------------


@dataclass
class Phase1Model:
    model: IPModel
    size: ModelSize  # structural rows + one domain row per variable


@dataclass
class Phase1Plan:
    """One slot's reservations and recourse flags, which every slot
    repeats, and their expected cost in that slot."""

    reservations: tuple[int, ...]  # station idx -> type id
    recourse: dict[tuple[int, int], int]  # (weather, station idx) -> 0/1
    expected_cost: float


def build_phase1(instance: NetworkInstance) -> Phase1Model:
    """The reservation program as an integer model (the paper's model
    size, and the reference for ``solve_phase1``)."""
    tree = instance.tree
    if not tree.weather:
        raise ValueError("phase 1 requires at least one weather scenario")
    model = IPModel("phase1_reservation")
    largest = instance.largest_type
    largest_idx = instance.uav_types.index(largest)
    c_on_demand = on_demand_cost(largest, instance.costs)

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
    return Phase1Model(model, size)


def solve_phase1(instance: NetworkInstance) -> Phase1Plan:
    """Optimal reservations in closed form.

    The program splits into one choice per station that every slot
    repeats. A type other than the largest is replaced by the on-demand
    largest type, at its price plus the crash penalty, wherever strong
    wind hits the station, so each station takes the type with the
    lowest reservation price plus P(strong wind) times that bill. Ties
    go to the larger type."""
    tree = instance.tree
    if not tree.weather:
        raise ValueError("phase 1 requires at least one weather scenario")
    largest = instance.largest_type
    bill = on_demand_cost(largest, instance.costs)
    bill += instance.costs.crash_penalty

    def cost(uav: UavType, p_strong: float) -> float:
        risk = 0.0 if uav is largest else p_strong * bill
        return reservation_cost(uav, instance.costs) + risk

    plan = Phase1Plan(reservations=(), recourse={}, expected_cost=0.0)
    for y in range(len(instance.stations)):
        p_strong = sum(w.probability for w in tree.weather if w.strong_wind[y])
        # types come in ascending battery order, so the reversed scan
        # meets the larger of two tied types first
        uav = min(reversed(instance.uav_types), key=lambda u: cost(u, p_strong))
        plan.expected_cost += cost(uav, p_strong)
        plan.reservations += (uav.id,)
        for mu, w in enumerate(tree.weather):
            plan.recourse[mu, y] = int(uav is not largest and bool(w.strong_wind[y]))
    return plan


def effective_station_types(
    instance: NetworkInstance, plan: Phase1Plan, weather_index: int
) -> tuple[int, ...]:
    """Per-station type ids actually flying in one weather scenario: the
    on-demand largest type where the plan's recourse flag is 1, the
    reservation otherwise."""
    largest_id = instance.largest_type.id
    return tuple(
        largest_id if plan.recourse[weather_index, y] else reserved
        for y, reserved in enumerate(plan.reservations)
    )


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
    """One slot's phase-2 decisions, which every slot repeats, keyed the
    way ``Phase2Model`` keys its variables: a decision by (stage, demand
    scenario, loss prefix, station), stage 2 being the empty prefix, and
    a residual flag by (demand scenario, loss indices, station) of its
    terminal path. ``type_ids`` is the fleet the plan was made for, one
    UAV type per station; the plan is priced with that fleet's cost
    tables and no other. ``expected_cost`` and ``stage_breakdown`` cover
    that one slot. ``basis`` is the root LP basis of the solve that made
    the plan, a start for the next solve of a model with the same rows
    and columns; drawn plans have none."""

    type_ids: tuple[int, ...]  # station idx -> UAV type id
    subscriptions: tuple[int, ...]  # bs index -> 0/1
    decisions: dict[tuple[int, int, tuple[int, ...], int], StageDecision]
    residuals: dict[tuple[int, tuple[int, ...], int], int]
    expected_cost: float
    stage_breakdown: dict[str, float] = field(default_factory=dict)
    optimal: bool = True
    basis: Basis | None = field(default=None, compare=False, repr=False)

    def subscription_count(self) -> int:
        """Subscriptions in the plan's one slot; every slot repeats them."""
        return sum(self.subscriptions)


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


class Phase2Model:
    """The allocation program of one time slot, the paths and cost
    tables that price its plans, and the variable-id maps that decode a
    solution into a plan and encode a plan into a point. Every slot
    repeats the same tree, prices and fleet, so one slot's block is the
    whole program; the id maps carry no slot index.

    A decision is keyed (stage, demand scenario, loss prefix, station),
    and stage 2 is the stage whose loss prefix is empty; an offload
    count adds the base-station index. A residual binary is keyed
    (demand scenario, loss indices, station) by its terminal path.

    The rows, bounds and warm starts read no price: ``price`` alone
    writes the objective, so a built model re-priced for other costs or
    another fleet equals a model built for them."""

    def __init__(self, formulation: str, pricing: _Pricing) -> None:
        self.formulation = formulation  # "dip" | "sip"
        self.pricing = pricing
        self.model = IPModel(f"phase2_{formulation}")
        self.sub_ids: dict[int, int] = {}  # bs index -> vid
        self.local_ids: dict[tuple, int] = {}
        self.offload_ids: dict[tuple, int] = {}
        self.indicator_ids: dict[tuple, int] = {}
        self.residual_ids: dict[tuple, int] = {}
        # (stage, demand, prefix, probability, wait gated) per decision block
        self.blocks: list[tuple[int, int, tuple[int, ...], float, bool]] = []
        for fi, bs in enumerate(pricing.instance.base_stations):
            self.sub_ids[fi] = self.model.add_variable(f"M_s[bs={bs.id}]", kind="binary")

    @property
    def instance(self) -> NetworkInstance:
        return self.pricing.instance

    def price(self, pricing: _Pricing) -> None:
        """Replace the objective with ``pricing``'s: the subscription
        fees, every decision block's probability times its station's cost
        table, and every residual's path probability times the completion
        penalty. The hover wait is an indicator term where the block is
        wait-gated, a constant otherwise; stage 2 also carries the
        decoding constant. A pricing of other paths raises
        ``PlanningError``."""
        if pricing.paths != self.pricing.paths or pricing.demand != self.pricing.demand:
            raise PlanningError("pricing covers other paths than the model")
        model, costs = self.model, pricing.instance.costs
        model.clear_objective()
        self.pricing = pricing
        for vid in self.sub_ids.values():
            model.add_objective_term(vid, costs.subscription_fee)
        for stage, demand, prefix, p, wait_gated in self.blocks:
            for y, tab in enumerate(pricing.tables[demand]):
                key = (stage, demand, prefix, y)
                model.add_objective_term(self.local_ids[key], p * tab.local)
                if wait_gated:
                    model.add_objective_term(self.indicator_ids[key], p * tab.wait)
                else:
                    model.add_objective_constant(p * tab.wait)
                for fi, cost in enumerate(tab.offload):
                    model.add_objective_term(self.offload_ids[(*key, fi)], p * cost)
                if not prefix:
                    model.add_objective_constant(p * tab.decode)
        for path in pricing.paths:
            p = path.probability
            for y in range(len(self.instance.stations)):
                rv = self.residual_ids.get((path.demand_index, path.loss_indices, y))
                if rv is not None:
                    model.add_objective_term(rv, p * costs.completion_penalty)

    def add_decisions(
        self,
        stage: int,
        demand: int,
        prefix: tuple[int, ...],
        probability: float,
        local_ub: Sequence[int],
        wait_gated: bool,
    ) -> None:
        """Local count, offload-route indicator and per-BS offload counts
        of every station at one (stage, demand scenario, loss prefix),
        which ``price`` weighs by ``probability``; ``wait_gated`` makes
        the hover wait an indicator term there."""
        model = self.model
        self.blocks.append((stage, demand, prefix, probability, wait_gated))
        for y, st in enumerate(self.instance.stations):
            key = (stage, demand, prefix, y)
            tag = f"{_block_tag(stage, demand, prefix)}[station={st.id}]"
            self.local_ids[key] = model.add_variable(
                f"M_L{tag}", kind="integer", upper=local_ub[y]
            )
            self.indicator_ids[key] = model.add_variable(f"M_TH{tag}", kind="binary")
            for fi, bs in enumerate(self.instance.base_stations):
                self.offload_ids[(*key, fi)] = model.add_variable(
                    f"M_O{tag}[bs={bs.id}]", kind="integer", upper=bs.servers
                )

    def add_rows(self, stage: int, demand: int, prefix: tuple[int, ...]) -> None:
        """Link rows of one (stage, demand scenario, loss prefix): the
        subscription link and capacity per base station, then per
        station the route links. Stage 2 adds the per-BS threshold rows
        and the local-or-route cut."""
        instance, model = self.instance, self.model
        k = instance.split.k
        tag = _block_tag(stage, demand, prefix)
        for fi, bs in enumerate(instance.base_stations):
            terms = [
                (self.offload_ids[stage, demand, prefix, y, fi], 1.0)
                for y in range(len(instance.stations))
            ]
            model.add_constraint(
                terms + [(self.sub_ids[fi], -float(bs.servers))],
                "<=",
                0.0,
                name=f"sub_link{tag}[bs={bs.id}]",
            )
            model.add_constraint(
                terms, "<=", float(bs.servers), name=f"capacity{tag}[bs={bs.id}]"
            )
        for y in range(len(instance.stations)):
            key = (stage, demand, prefix, y)
            lv, th = self.local_ids[key], self.indicator_ids[key]
            for fi, bs in enumerate(instance.base_stations):
                ov = self.offload_ids[(*key, fi)]
                if not prefix:
                    model.add_constraint(
                        [(lv, 1.0), (ov, 1.0)],
                        ">=",
                        float(k),
                        name=f"threshold[scenario={demand}][station={y}][bs={bs.id}]",
                    )
                # no offload to this base station without the route
                model.add_constraint(
                    [(ov, 1.0), (th, -float(bs.servers))],
                    "<=",
                    0.0,
                    name=f"route_link{tag}[station={y}][bs={bs.id}]",
                )
            if not prefix:
                # implied for integer points (no route -> no offload ->
                # threshold forces local >= k) but cuts fractional
                # indicators, which otherwise wreck the LP bound
                model.add_constraint(
                    [(lv, 1.0), (th, float(k))],
                    ">=",
                    float(k),
                    name=f"local_or_route[scenario={demand}][station={y}]",
                )

    def _provided(self, key: tuple) -> list[tuple[int, float]]:
        """Row terms of the copies one decision provides: local plus
        every per-BS offload."""
        n_f = len(self.instance.base_stations)
        offloads = [self.offload_ids[(*key, fi)] for fi in range(n_f)]
        return [(vid, 1.0) for vid in (self.local_ids[key], *offloads)]

    def encode(self, plan: Phase2Plan) -> np.ndarray:
        """The model point of the plan; the inverse of ``decode_phase2``."""
        x = np.zeros(self.model.num_variables)
        for fi, vid in self.sub_ids.items():
            x[vid] = plan.subscriptions[fi]
        for key, lv in self.local_ids.items():
            dec = plan.decisions[key]
            x[lv] = dec.local
            x[self.indicator_ids[key]] = dec.offload_indicator
            for fi, count in enumerate(dec.offload):
                x[self.offload_ids[(*key, fi)]] = count
        for key, rv in self.residual_ids.items():
            x[rv] = plan.residuals[key]
        return x


def _path_label(loss_indices: Sequence[int]) -> str:
    return ",".join(map(str, loss_indices)) or "-"


def _block_tag(stage: int, demand: int, prefix: tuple[int, ...]) -> str:
    path = f"[path={_path_label(prefix)}]" if prefix else ""
    return f"[stage={stage}][scenario={demand}]{path}"


def _blocks(tree: ScenarioTree) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (stage, demand scenario, loss prefix) decision block, by
    stage, then prefix, then demand scenario; stage 2 has the one empty
    prefix."""
    return [
        (zz, li, prefix)
        for zz in range(2, tree.z + 1)
        for prefix in loss_prefixes(tree, zz)
        for li in range(len(tree.demand))
    ]


def build_phase2_sip(
    instance: NetworkInstance, type_ids: Sequence[int] | None = None
) -> Phase2Model:
    """Extensive-form multistage allocation program of one slot over the
    full tree: one decision block per (stage, loss prefix, demand
    scenario), stage 2 first, and one coverage row per (terminal path,
    station)."""
    tree = instance.tree
    if not tree.demand:
        raise ValueError("phase 2 requires at least one demand scenario")
    k = instance.split.k
    n_y = len(instance.stations)
    sigma_hat = k + max_total_exposure(tree)
    built = Phase2Model("sip", _Pricing.of(instance, type_ids))

    blocks = _blocks(tree)
    for zz, li, prefix in blocks:
        built.add_decisions(
            zz,
            li,
            prefix,
            _path_probability(tree, li, prefix),
            [instance.local_cap(k if zz == 2 else sigma_hat)] * n_y,
            wait_gated=zz > 2 or instance.wait_cost_gated_by_offload,
        )

    for path in built.pricing.paths:
        for y, st in enumerate(instance.stations):
            built.residual_ids[path.demand_index, path.loss_indices, y] = (
                built.model.add_variable(
                    f"rho[scenario={path.demand_index}]"
                    f"[path={_path_label(path.loss_indices)}][station={st.id}]",
                    kind="binary",
                )
            )

    for block in blocks:
        built.add_rows(*block)

    for path in built.pricing.paths:
        li, losses = path.demand_index, path.loss_indices
        for y in range(n_y):
            terms: list[tuple[int, float]] = []
            for zz in range(2, tree.z + 1):
                terms += built._provided((zz, li, losses[: zz - 2], y))
            terms.append((built.residual_ids[li, losses, y], float(sigma_hat)))
            exposure = flag_product_exposure(tree, losses, y)
            if exposure:
                terms.append((built.indicator_ids[2, li, (), y], -float(exposure)))
            built.model.add_constraint(
                terms,
                ">=",
                float(k),
                name=f"coverage[scenario={li}][path={_path_label(losses)}]"
                f"[station={y}]",
            )
    built.price(built.pricing)
    return built


def build_phase2_dip(
    instance: NetworkInstance,
    demand: Sequence[int],
    shortfall: Sequence[float] | None = None,
    type_ids: Sequence[int] | None = None,
) -> Phase2Model:
    """Deterministic allocation program of one slot: demand and
    shortfall known. It is the stage-2 block of one demand scenario
    with coverage and restoration rows for the known shortfall."""
    n_y = len(instance.stations)
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

    k = instance.split.k
    local_ub = [instance.local_cap(k + math.ceil(s)) for s in shortfall]

    built = Phase2Model(
        "dip", _Pricing.of(instance, type_ids, demand=tuple(int(d) for d in demand))
    )
    built.add_decisions(
        2, 0, (), 1.0, local_ub, wait_gated=instance.wait_cost_gated_by_offload
    )
    built.add_rows(2, 0, ())
    for y in range(n_y):
        provided = built._provided((2, 0, (), y))
        # coverage with the known shortfall, loss gated by the
        # offload-route indicator
        cov = list(provided)
        if shortfall[y]:
            cov.append((built.indicator_ids[2, 0, (), y], -float(shortfall[y])))
        built.model.add_constraint(cov, ">=", float(k), name=f"coverage[station={y}]")
        # literal restoration row: offloads must make up whatever the
        # known shortfall exceeds the local count by
        built.model.add_constraint(
            provided, ">=", float(shortfall[y]), name=f"restoration[station={y}]"
        )
    built.price(built.pricing)
    return built


def decode_phase2(built: Phase2Model, sol: Solution) -> Phase2Plan:
    """The plan of the solved slot, its expected cost the objective."""
    if sol.assignment is None or sol.objective is None:
        raise PlanningError(f"cannot decode a solution with status {sol.status!r}")
    x = np.round(sol.assignment).astype(int).tolist()
    n_f = len(built.instance.base_stations)
    plan = Phase2Plan(
        type_ids=built.pricing.type_ids,
        subscriptions=tuple(x[vid] for vid in built.sub_ids.values()),
        decisions={
            key: StageDecision(
                local=x[lv],
                offload=tuple(x[built.offload_ids[(*key, fi)]] for fi in range(n_f)),
                offload_indicator=x[built.indicator_ids[key]],
            )
            for key, lv in built.local_ids.items()
        },
        residuals={key: x[rv] for key, rv in built.residual_ids.items()},
        expected_cost=float(sol.objective),
        optimal=sol.status == "optimal",
        basis=sol.basis,
    )
    _, plan.stage_breakdown = built.pricing.expectation(plan)
    total = sum(plan.stage_breakdown.values())
    if abs(total - plan.expected_cost) > 1e-9:
        raise PlanningError(
            f"stage breakdown {total} disagrees with objective {plan.expected_cost}"
        )
    return plan


def _phase2_warm_start(built: Phase2Model) -> np.ndarray | None:
    """All-local incumbent for the stochastic build.

    Keep k copies on board per station and scenario; when the local cap
    falls short of k, every station routes the difference to every BS
    instead. Recourse stages stay at zero and residuals follow the
    coverage rule, as in every frozen stage-2 plan. Gives branch and
    bound a finite incumbent at the root. Returns None when the routed
    copies do not fit BS capacity (caller just solves cold)."""
    instance = built.instance
    k = instance.split.k
    local = instance.local_cap(k)
    need = k - local
    if any(bs.servers < need * len(instance.stations) for bs in instance.base_stations):
        return None
    n_f = len(instance.base_stations)
    dec = StageDecision(
        local=local, offload=(need,) * n_f, offload_indicator=int(need > 0)
    )
    plan = _freeze_stage2_plan(
        instance,
        built.pricing.type_ids,
        subscriptions=(int(need > 0),) * n_f,
        decision_for=lambda li, y: dec,
    )
    return built.encode(plan)


def _dip_warm_start(
    built: Phase2Model, shortfall: Sequence[float]
) -> np.ndarray | None:
    """All-local incumbent for the deterministic build: every station
    keeps max(k, ceil(shortfall)) copies on board, offloads nothing and
    subscribes nowhere. Returns None when that exceeds the local cap."""
    instance = built.instance
    k = instance.split.k
    local = [max(k, math.ceil(s)) for s in shortfall]
    if any(n > instance.local_cap(n) for n in local):
        return None
    n_f = len(instance.base_stations)
    decisions = {
        (2, 0, (), y): StageDecision(local=n, offload=(0,) * n_f, offload_indicator=0)
        for y, n in enumerate(local)
    }
    plan = Phase2Plan(built.pricing.type_ids, (0,) * n_f, decisions, {}, 0.0)
    return built.encode(plan)


def solve_phase2(
    instance: NetworkInstance,
    formulation: str = "sip",
    demand: Sequence[int] | None = None,
    shortfall: Sequence[float] | None = None,
    type_ids: Sequence[int] | None = None,
    node_limit: int | None = None,
    start_basis: Basis | None = None,
) -> Phase2Plan:
    """Build, solve and decode one slot's SIP or DIP, with an all-local
    incumbent where one fits. ``start_basis``, such as the ``basis`` of a
    plan solved for the same model shape at other prices, is offered to
    the root LP (see ``solve_exact``)."""
    built, warm = _phase2_model(instance, formulation, demand, shortfall, type_ids)
    return _solve_built(built, warm, node_limit, start_basis)


def _phase2_model(
    instance: NetworkInstance,
    formulation: str,
    demand: Sequence[int] | None = None,
    shortfall: Sequence[float] | None = None,
    type_ids: Sequence[int] | None = None,
) -> tuple[Phase2Model, np.ndarray | None]:
    """One slot's SIP or DIP and its all-local warm start, None where
    none fits; neither depends on prices."""
    if formulation == "sip":
        built = build_phase2_sip(instance, type_ids=type_ids)
        return built, _phase2_warm_start(built)
    if formulation == "dip":
        if demand is None:
            raise ValueError("dip formulation requires a demand vector")
        if shortfall is None:
            shortfall = [0.0] * len(instance.stations)
        built = build_phase2_dip(instance, demand, shortfall, type_ids=type_ids)
        return built, _dip_warm_start(built, shortfall)
    raise ValueError(f"unknown formulation {formulation!r}")


def _solve_built(
    built: Phase2Model,
    warm: np.ndarray | None,
    node_limit: int | None = None,
    start_basis: Basis | None = None,
) -> Phase2Plan:
    """Solve a built SIP or DIP at its current prices and decode it."""
    sol = solve_exact(
        built.model, node_limit=node_limit, warm_start=warm, start_basis=start_basis
    )
    if sol.status == "infeasible":
        raise InfeasibleModelError(f"phase-2 {built.formulation} model infeasible")
    if sol.status == "node_limit" and sol.assignment is None:
        raise ResourceLimitError("phase-2 node limit hit before any incumbent")
    return decode_phase2(built, sol)


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
    instance: NetworkInstance,
    type_ids: Sequence[int] | None = None,
    node_limit: int | None = None,
    start_basis: Basis | None = None,
) -> Phase2Plan:
    """Expected-value baseline: solve the deterministic program on mean
    demand and mean shortfall, then freeze those decisions across every
    scenario. Expected cost is the exact tree evaluation of the frozen
    plan (recourse stages stay at zero; residual penalties fall where
    the frozen provision cannot cover a path's losses). ``node_limit``
    caps the deterministic solve; the plan is ``optimal`` when that
    solve was proven. ``start_basis`` goes to that solve, and the plan's
    ``basis`` is its root basis. Raises ``InfeasibleModelError`` when the
    mean-value program has no feasible point (it has no residual
    variables, so its coverage rows can ask for more copies than the
    local cap and the base-station seats supply)."""
    pricing = _Pricing.of(instance, type_ids)
    built, warm = _evf_model(instance, pricing.type_ids)
    return _evf_solve(built, warm, pricing, node_limit, start_basis)


def _evf_model(
    instance: NetworkInstance, type_ids: Sequence[int] | None = None
) -> tuple[Phase2Model, np.ndarray | None]:
    """The mean-value DIP behind ``evf_plan`` and its warm start."""
    mean_dims, mean_short = _mean_demand_and_shortfall(instance)
    return _phase2_model(instance, "dip", mean_dims, mean_short, type_ids)


def _evf_solve(
    built: Phase2Model,
    warm: np.ndarray | None,
    pricing: _Pricing,
    node_limit: int | None = None,
    start_basis: Basis | None = None,
) -> Phase2Plan:
    """Solve the mean-value DIP ``built`` and freeze its decisions on the
    tree, priced by ``pricing``, the tree's pricing at the DIP's prices."""
    dip = _solve_built(built, warm, node_limit, start_basis)
    plan = _freeze_stage2_plan(
        pricing.instance,
        pricing.type_ids,
        subscriptions=dip.subscriptions,
        decision_for=lambda li, y: dip.decisions[2, 0, (), y],
    )
    plan.optimal, plan.basis = dip.optimal, dip.basis
    return pricing.price(plan)


def _bounded_draws(seed: int):
    """``draw(low, high)``: a uniform integer of [low, high], the one
    ``np.random.default_rng(seed).integers(low, high + 1)`` gives when
    every draw so far came from it. It reads the generator's 32-bit
    words in chunks and maps each through Lemire's multiply-and-reject,
    as ``Generator.integers`` does below spans of 2**32 - 1 (Lemire,
    ACM TOMACS 29(1), 2019); a span of 0 reads no word. Raises
    ``ValueError`` on an empty range, as NumPy does, and on spans it
    does not emulate."""
    rng = np.random.default_rng(seed)
    chunks = iter(
        lambda: rng.integers(0, 1 << 32, size=_WORD_CHUNK, dtype=np.uint32).tolist(), None
    )
    word = itertools.chain.from_iterable(chunks).__next__

    def draw(low: int, high: int) -> int:
        span = high - low
        if not 0 <= span < 0xFFFFFFFF:
            raise ValueError(f"cannot draw from [{low}, {high}]")
        if not span:
            return low
        n = span + 1
        m = word() * n
        if (m & 0xFFFFFFFF) < n:  # only then can it fall below the threshold
            threshold = (0xFFFFFFFF - span) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = word() * n
        return low + (m >> 32)

    return draw


def _draw_random_plan(instance: NetworkInstance, seed: int) -> Phase2Plan:
    """Feasibility-constrained uniform baseline (deterministic per seed)
    for the stations' own fleet, not yet priced.

    Subscribes a uniform random BS subset (all, when the local-copy cap
    cannot meet the per-BS threshold rows alone), then per demand
    scenario draws local counts and per-BS offloads inside the
    threshold and capacity rows; a draw that runs out of capacity is
    rejected and redrawn, scenario block by scenario block. A block
    whose ``_UNIFORM_DRAWS`` uniform draws all fail is drawn once more
    with bounded draws (``draw_bounded_block``), so the draws are the
    uniform ones wherever one of those succeeds. Recourse
    stages stay at zero; residual penalties land wherever the drawn
    provision cannot cover a path's losses. The draw reads no price, so
    one draw serves the instance at every price; ``_Pricing.price``
    sets its cost.

    Every draw comes from ``_bounded_draws(seed)``, which maps the
    seed's PCG64 32-bit words to bounded integers exactly as
    ``Generator.integers`` does, so the draws are NumPy's and
    reproducible; nothing else reads that per-seed generator."""
    draw = _bounded_draws(seed)
    tree = instance.tree
    k = instance.split.k
    n_y = len(instance.stations)
    n_f = len(instance.base_stations)
    l2_ub = instance.local_cap(k)
    must_subscribe_all = l2_ub < k  # threshold rows cannot be met locally

    if must_subscribe_all:
        subs_row = [1] * n_f
    else:
        subs_row = [draw(0, 1) for _ in range(n_f)]
    all_subscribed = all(subs_row)
    seats_row = [
        bs.servers if subs_row[fi] else 0 for fi, bs in enumerate(instance.base_stations)
    ]

    def decision(local: int, offload: list[int]) -> StageDecision:
        return StageDecision(
            local=local, offload=tuple(offload), offload_indicator=int(any(offload))
        )

    def draw_scenario_block() -> list[tuple[int, list[int]]] | None:
        remaining = seats_row.copy()
        block = []
        for _y in range(n_y):
            if all_subscribed:
                local = draw(0, l2_ub)
            else:
                # an unsubscribed BS forces its threshold row to be met
                # locally, so the local draw starts at k
                local = draw(k, min(k + 2, l2_ub))
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
                o = draw(need, remaining[fi])
                offload.append(o)
                remaining[fi] -= o
            block.append((local, offload))
        return block

    def draw_bounded_block() -> list[tuple[int, list[int]]] | None:
        """The block drawn with every draw bounded, so that the stations
        after it can still meet their needs. The locals come first: each
        one is at least what leaves the later stations room for their
        needs at the largest locals, a need being the copies short of k,
        which each subscribed BS must take. Then each station's offload
        to each subscribed BS is drawn from [need, remaining - the later
        stations' needs]. None when the needs exceed a subscribed BS's
        seats even at the largest locals."""
        low, high = (0, l2_ub) if all_subscribed else (k, min(k + 2, l2_ub))
        seats = min(
            (bs.servers for fi, bs in enumerate(instance.base_stations) if subs_row[fi]),
            default=0,
        )
        least_need = max(0, k - high)
        if n_y * least_need > seats:
            return None
        locals_, needs = [], []
        for y in range(n_y):
            room = seats - sum(needs) - (n_y - 1 - y) * least_need
            locals_.append(draw(max(low, k - room), high))
            needs.append(max(0, k - locals_[-1]))
        remaining = [bs.servers for bs in instance.base_stations]
        block = []
        for y, local in enumerate(locals_):
            later = sum(needs[y + 1 :])
            offload = []
            for fi in range(n_f):
                o = draw(needs[y], remaining[fi] - later) if subs_row[fi] else 0
                offload.append(o)
                remaining[fi] -= o
            block.append((local, offload))
        return block

    blocks = []
    for li in range(len(tree.demand)):
        for _attempt in range(_UNIFORM_DRAWS):
            block = draw_scenario_block()
            if block is not None:
                break
        else:
            block = draw_bounded_block()
            if block is None:
                raise PlanningError(
                    f"random plan sampler exhausted {_UNIFORM_DRAWS} draws without a "
                    f"feasible block (demand scenario {li})"
                )
        blocks.append([decision(local, offload) for local, offload in block])

    return _freeze_stage2_plan(
        instance,
        instance.station_types(),
        tuple(subs_row),
        decision_for=lambda li, y: blocks[li][y],
    )


def _freeze_stage2_plan(
    instance: NetworkInstance,
    type_ids: tuple[int, ...],
    subscriptions: tuple[int, ...],
    decision_for,
) -> Phase2Plan:
    """Assemble an unpriced Phase2Plan for the fleet ``type_ids`` from
    fixed stage-2 decisions, ``decision_for(demand, station)``: zero
    recourse and residual flags derived from path coverage."""
    tree = instance.tree
    k = instance.split.k
    n_y = len(instance.stations)
    zero = StageDecision(
        local=0, offload=(0,) * len(instance.base_stations), offload_indicator=0
    )
    decisions = {
        (zz, li, prefix, y): zero if prefix else decision_for(li, y)
        for zz, li, prefix in _blocks(tree)
        for y in range(n_y)
    }
    residuals = {}
    for path in enumerate_terminal_paths(tree):
        li, losses = path.demand_index, path.loss_indices
        for y in range(n_y):
            dec = decisions[2, li, (), y]
            residuals[li, losses, y] = int(
                _falls_short(tree, k, dec.total, dec.offload_indicator, losses, y)
            )
    return Phase2Plan(type_ids, subscriptions, decisions, residuals, expected_cost=0.0)


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
    """Coverage test of one (path, station): the copies provided
    along the path fall short of k plus the losses that hit the station
    while it offloads."""
    exposure = flag_product_exposure(tree, loss_indices, station)
    return provided < k + exposure * offload_indicator


def _decision(plan: Phase2Plan, key: tuple) -> StageDecision:
    try:
        return plan.decisions[key]
    except KeyError:
        stage = key[0]
        raise PlanningError(f"plan has no stage-{stage} decision for {key!r}") from None


@dataclass(frozen=True)
class _Bill:
    """What one plan buys on a pricing's paths, weighed by the path
    probabilities, at no price: per stage column from stage 2 on, the
    counts each (demand scenario, station) pays a unit price of
    ``_Pricing.units`` for; the subscriptions, which every path pays;
    and the (path, station) pairs that pay the completion penalty."""

    type_ids: tuple[int, ...]  # the fleet of the plan
    subscribed: float
    counts: np.ndarray  # (stage column, unit price)
    short: float


@dataclass(frozen=True)
class _Pricing:
    """The paths and cost tables of one instance and fleet: the terminal
    paths of its tree, or the one path of a deterministic program with
    the known ``demand``. Built once, they price any number of plans
    made for that fleet, and refuse a plan made for another."""

    instance: NetworkInstance
    type_ids: tuple[int, ...]
    paths: list[ScenarioPath]
    demand: tuple[int, ...] | None = None
    tables: list[list[CopyPrices]] = field(init=False, repr=False, compare=False)
    # local, per-BS offload, wait and decode price per (demand, station)
    units: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        demand = self.instance.tree.demand
        dims = [d.dims for d in demand] if self.demand is None else [self.demand]
        tables = _stage_cost_tables(self.instance, self.type_ids, dims)
        object.__setattr__(self, "tables", tables)
        units = [[t.local, *t.offload, t.wait, t.decode] for row in tables for t in row]
        object.__setattr__(self, "units", np.ravel(units))

    @classmethod
    def of(
        cls,
        instance: NetworkInstance,
        type_ids: Sequence[int] | None = None,
        demand: tuple[int, ...] | None = None,
    ) -> "_Pricing":
        """The pricing of ``instance``'s tree, or with ``demand`` of the
        deterministic program on that demand vector."""
        ids = _resolve_type_ids(instance, type_ids)
        if demand is None:
            return cls(instance, ids, enumerate_terminal_paths(instance.tree))
        return cls(instance, ids, [ScenarioPath(0, (), 1.0)], demand)

    def bill(self, plan: Phase2Plan) -> _Bill:
        """The plan's bill on these paths. A decision's counts are
        weighed by the probability of the paths through it; a (path,
        station) pays the penalty by the rule in the module docstring."""
        instance, paths = self.instance, self.paths
        tree, k = instance.tree, instance.split.k
        gated = instance.wait_cost_gated_by_offload
        n_y = len(instance.stations)
        n_recourse = len(paths[0].loss_indices) if paths else 0
        reach: dict[tuple, float] = {}  # decision block -> its paths' probability
        short = 0.0
        for path in paths:
            li, losses, p = path.demand_index, path.loss_indices, path.probability
            blocks = [(zz, li, losses[: zz - 2]) for zz in range(2, n_recourse + 3)]
            for block in blocks:
                reach[block] = reach.get(block, 0.0) + p
            for y in range(n_y):
                provided = sum(_decision(plan, (*block, y)).total for block in blocks)
                indicator = plan.decisions[2, li, (), y].offload_indicator
                if plan.residuals.get((li, losses, y)) or _falls_short(
                    tree, k, provided, indicator, losses, y
                ):
                    short += p
        n_d = len(self.tables)
        weights = np.zeros(((n_recourse + 1) * n_d, len(reach)))
        counts = []
        for j, ((zz, li, prefix), p) in enumerate(reach.items()):
            weights[(zz - 2) * n_d + li, j] = p
            for y in range(n_y):
                dec = plan.decisions[zz, li, prefix, y]
                wait = dec.offload_indicator if zz > 2 or gated else 1
                counts.append([dec.local, *dec.offload, wait, zz == 2])
        table = weights @ np.array(counts, dtype=float).reshape(len(reach), -1)
        return _Bill(
            plan.type_ids,
            plan.subscription_count() * sum(p.probability for p in paths),
            table.reshape(n_recourse + 1, -1),
            short,
        )

    def charge(self, bill: _Bill) -> tuple[float, dict[str, float]]:
        """The bill's one-slot cost at these prices, in total and per
        stage (stage1, stage2, stage3.., terminal). A bill for another
        fleet raises ``PlanningError``."""
        if bill.type_ids != self.type_ids:
            raise PlanningError(
                f"plan made for fleet {bill.type_ids} priced with fleet {self.type_ids}"
            )
        costs = self.instance.costs
        stages = (bill.counts @ self.units).tolist()
        parts = [
            costs.subscription_fee * bill.subscribed,
            *stages,
            costs.completion_penalty * bill.short,
        ]
        labels = ("stage1", *(f"stage{zz}" for zz in range(2, len(stages) + 2)), "terminal")
        return sum(parts), dict(zip(labels, parts))

    def expectation(self, plan: Phase2Plan) -> tuple[float, dict[str, float]]:
        """The plan's one-slot expected cost, in total and per stage."""
        return self.charge(self.bill(plan))

    def price(self, plan: Phase2Plan) -> Phase2Plan:
        """Set the plan's expected cost and stage breakdown; returns it."""
        plan.expected_cost, plan.stage_breakdown = self.expectation(plan)
        return plan


def exact_expected_cost(instance: NetworkInstance, plan: Phase2Plan) -> float:
    """Exact expectation of the plan's realized cost over all terminal
    paths (no sampling), priced for the fleet the plan was made for."""
    return _Pricing.of(instance, plan.type_ids).expectation(plan)[0]


# ---------------------------------------------------------------------------
# structure probes
# ---------------------------------------------------------------------------


def offload_curve(
    instance: NetworkInstance,
    values: Sequence[int] | None = None,
    type_ids: Sequence[int] | None = None,
) -> list[dict]:
    """Total-cost curve over forced stage-2 offload totals.

    Requires a single-station, single-demand-scenario instance (anything
    else has no one-dimensional curve to trace). For each value v, the
    stage-2 offloads of the lone station are pinned to sum to v and the
    rest of the program is re-optimized; each row records the one-slot
    per-stage breakdown and total.
    """
    if len(instance.stations) != 1 or len(instance.tree.demand) != 1:
        raise ValueError(
            "offload curve needs exactly one station and one demand scenario"
        )
    if values is None:
        cap = sum(bs.servers for bs in instance.base_stations)
        values = range(instance.split.k, cap + 1)
    rows = []
    for v in values:
        built = build_phase2_sip(instance, type_ids=type_ids)
        n_f = len(instance.base_stations)
        terms = [(built.offload_ids[2, 0, (), 0, fi], 1.0) for fi in range(n_f)]
        built.model.add_constraint(terms, "==", float(v), name=f"pin_offload[{v}]")
        sol = solve_exact(built.model)
        if sol.status != "optimal":
            rows.append({"offload": int(v), "status": sol.status})
            continue
        plan = decode_phase2(built, sol)
        row = {"offload": int(v), "status": "optimal", "total": plan.expected_cost}
        row.update(plan.stage_breakdown)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# two-phase composition
# ---------------------------------------------------------------------------


def plan_both_phases(
    instance: NetworkInstance, node_limit: int | None = None
) -> tuple[Phase1Plan, dict[int, Phase2Plan], float]:
    """Reserve types under weather uncertainty, then allocate tasks per
    weather scenario with the effective (reserved or recourse) types.

    Returns the phase-1 plan, the phase-2 plan per weather scenario, and
    the composed expected cost over all ``time_slots``: the number of
    slots times the sum of the phase-1 cost and the probability-weighted
    phase-2 costs, each of them one slot's. Each phase-2 plan carries
    the effective fleet it was solved for. Identical effective type
    vectors share one solve. A fleet changes only the prices, so one SIP
    is built and priced anew for each fleet, and each solve starts cold.
    """
    p1 = solve_phase1(instance)
    weather = instance.tree.weather
    fleets = [effective_station_types(instance, p1, mu) for mu in range(len(weather))]
    distinct = list(dict.fromkeys(fleets))
    built, warm = _phase2_model(instance, "sip", type_ids=distinct[0])
    solved = {}
    for ids in distinct:
        if ids != built.pricing.type_ids:
            built.price(_Pricing.of(instance, ids))
        solved[ids] = _solve_built(built, warm, node_limit)
    plans = {mu: solved[ids] for mu, ids in enumerate(fleets)}
    phase2 = sum(w.probability * plans[mu].expected_cost for mu, w in enumerate(weather))
    return p1, plans, instance.time_slots * (p1.expected_cost + phase2)
