"""Batch entry point: load a config, run a command, write results.

Subcommands: ``plan`` (phase 1 then phase 2, plan JSONs plus a text
summary), ``sweep`` (one-parameter sensitivity CSV), ``compare``
(three-way cost comparison CSV over an offload-price grid), ``size``
(model dimensions for a given shape), ``ingest-demand`` (demand CSV to
histogram JSON).

Exit codes are a stable contract: 0 success, 1 internal invariant
violation, 2 input error, 3 resource-limited result. Failures leave a
machine-readable ``error.json`` in the output directory when one is
known. All file writes are atomic (temp file + rename). The config is
JSON with a ``schema_version`` field; one config-level seed drives
every random draw in a run.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .evaluate import (
    DEFAULT_PRICE_MULTIPLIERS,
    offload_price_comparison,
    sweep,
)
from .io import (
    InputError,
    histogram_to_dict,
    load_instance,
    load_json,
    phase1_plan_to_dict,
    phase2_plan_to_dict,
    read_demand_csv,
    write_csv_atomic,
    write_json_atomic,
    write_text_atomic,
    _check_schema,
    _entry,
    _finite,
    _integer,
)
from .planner import (
    NetworkInstance,
    PlanningError,
    ResourceLimitError,
    plan_both_phases,
)
from .scenario import demand_hist_from_csv, model_size_phase1, model_size_phase2

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    """One resolved run: paths checked before any solve starts."""

    path: Path
    instance_path: Path | None
    out_dir: Path
    seed: int
    node_limit: int | None
    data: dict = field(default_factory=dict)  # the config object

    def section(self, name: str) -> Mapping:
        value = self.data.get(name, {})
        if not isinstance(value, Mapping):
            raise InputError(f"{self.path}: config section {name!r} must be an object")
        return value

    def value(self, section: str, key: str, read, default):
        """``read`` of one entry of a config section; a failed conversion
        raises ``InputError`` naming ``section.key``."""
        entry = self.section(section).get(key, default)
        return _entry(f"{self.path}: {section}.{key}", read, entry)

    def load_instance(self) -> NetworkInstance:
        if self.instance_path is None:
            raise InputError(f"{self.path}: config is missing an 'instance' path")
        return load_instance(self.instance_path)


def load_run_config(args: argparse.Namespace, make_out: bool = False) -> RunConfig:
    """Read and check the config. With ``make_out`` the output directory
    is created first, so a bad value after it still leaves ``error.json``."""
    cfg_path = Path(args.config)
    where = str(cfg_path)
    data = load_json(cfg_path)
    out = args.out if args.out is not None else data.get("out", ".")
    out_dir = _entry(f"{where}: out", Path, out)
    if make_out:
        _ensure_out(out_dir, args)
    _check_schema(data, where)

    instance_path: Path | None = None
    if data.get("instance") is not None:
        instance_path = _entry(f"{where}: instance", Path, data["instance"])
        if not instance_path.is_absolute():
            # paths in a config resolve relative to the config file
            instance_path = cfg_path.parent / instance_path
        if not instance_path.exists():
            raise InputError(f"{cfg_path}: instance file not found: {instance_path}")

    seed = args.seed if args.seed is not None else data.get("seed", 0)
    seed = _entry(f"{where}: seed", _integer, seed)
    node_limit = args.node_limit
    if node_limit is None and data.get("node_limit") is not None:
        node_limit = _entry(f"{where}: node_limit", _integer, data["node_limit"])
    if node_limit is not None and node_limit < 1:
        raise InputError("node_limit must be a positive integer")

    return RunConfig(
        path=cfg_path,
        instance_path=instance_path,
        out_dir=out_dir,
        seed=seed,
        node_limit=node_limit,
        data=data,
    )


def _ensure_out(out: Path, args: argparse.Namespace) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    args.resolved_out = out
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    config = load_run_config(args, make_out=True)
    out = config.out_dir
    instance = config.load_instance()

    p1, plans, composed = plan_both_phases(instance, node_limit=config.node_limit)

    write_json_atomic(out / "phase1_plan.json", phase1_plan_to_dict(instance, p1))
    # every slot repeats the one-slot plans; the outputs list each slot
    slots = range(instance.time_slots)
    scenario_plans, plan_lines = [], []
    for t, (mu, plan) in itertools.product(slots, plans.items()):
        entry = phase2_plan_to_dict(instance, plan, slot=t)
        entry["slot"] = t
        entry["weather_scenario"] = mu
        entry["probability"] = instance.tree.weather[mu].probability
        scenario_plans.append(entry)
        flag = "" if plan.optimal else "  [NOT PROVEN OPTIMAL]"
        plan_lines.append(
            f"phase 2 slot {t} weather {mu}: expected cost "
            f"{plan.expected_cost:.6f}, subscriptions {plan.subscription_count()}{flag}"
        )
    write_json_atomic(
        out / "phase2_plan.json",
        {
            "schema_version": 1,
            "phase": 2,
            "composed_expected_cost": composed,
            "plans": scenario_plans,
        },
    )

    all_optimal = all(p.optimal for p in plans.values())
    lines = [
        f"composed expected cost: {composed:.6f}",
        f"phase 1 expected cost: {instance.time_slots * p1.expected_cost:.6f}",
        "reservations: "
        + ", ".join(
            f"slot {t} station {st.id} -> type {tid}"
            for t in slots
            for st, tid in zip(instance.stations, p1.reservations)
        ),
        *plan_lines,
    ]
    if not all_optimal:
        lines.append("node limit reached: plans above are feasible, not proven optimal")
    write_text_atomic(out / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all_optimal else EXIT_RESOURCE


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_run_config(args, make_out=True)
    out = config.out_dir
    spec = config.section("sweep")
    if not spec:
        raise InputError(f"{config.path}: sweep command needs a 'sweep' config section")
    instance = config.load_instance()
    try:
        rows = sweep(instance, spec, node_limit=config.node_limit)
    except (TypeError, ValueError) as exc:
        raise InputError(f"sweep: {exc}") from exc
    parameter = spec["parameter"]
    return _write_grid(out / f"sweep_{parameter}.csv", rows, parameter, "value")


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_run_config(args, make_out=True)
    out = config.out_dir
    instance = config.load_instance()

    multipliers = config.value(
        "compare",
        "multipliers",
        lambda values: tuple(map(_finite, values)),
        DEFAULT_PRICE_MULTIPLIERS,
    )
    n_seeds = config.value("compare", "n_seeds", _integer, 30)
    seeds = [config.seed + i for i in range(n_seeds)]
    try:
        rows = offload_price_comparison(
            instance, multipliers, seeds, node_limit=config.node_limit
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"compare: {exc}") from exc
    return _write_grid(out / "compare.csv", rows, "multiplier", "multiplier")


def _write_grid(path: Path, rows: Sequence[Mapping], label: str, column: str) -> int:
    """Write a grid command's rows as CSV and return its exit code.

    The header is the rows' keys in first-appearance order, ``summary``
    last and ``optimal`` left out; a row without a column leaves its
    cell empty. The exit code is resource-limited when a node limit cut
    any grid point's phase-2 solve short, and stdout names those points
    by ``label`` and their ``column`` value."""
    keys = dict.fromkeys(key for row in rows for key in row if key != "optimal")
    header = sorted(keys, key=lambda key: key == "summary")  # stable: summary last
    write_csv_atomic(path, header, [[row.get(h, "") for h in header] for row in rows])
    print(f"wrote {path} ({len(rows)} grid points)")
    cut = [row[column] for row in rows if not row["optimal"]]
    if not cut:
        return EXIT_OK
    values = ", ".join(f"{v:g}" for v in cut)
    print(
        f"node limit reached at {label} {values}: "
        "plans there are feasible, not proven optimal"
    )
    return EXIT_RESOURCE


def cmd_size(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    section = config.section("size")
    if not section:
        raise InputError(f"{config.path}: size command needs a 'size' config section")
    shape = section.get("shape")
    if isinstance(shape, str) or not isinstance(shape, Sequence) or not shape:
        raise InputError(f"{config.path}: size.shape must be a non-empty list")
    phase = config.value("size", "phase", _integer, 1)
    dims = config.value("size", "shape", lambda s: [_integer(v) for v in s], None)
    if phase == 1:
        if len(dims) != 4:
            raise InputError(
                "phase-1 shape is (time_slots, stations, uav_types, weather)"
            )
        size = model_size_phase1(*dims)
    elif phase == 2:
        if len(dims) < 4:
            raise InputError(
                "phase-2 shape is (time_slots, base_stations, stations, "
                "demand_scenarios, per-stage loss counts...)"
            )
        size = model_size_phase2(*dims)
    else:
        raise InputError(f"unknown phase {phase}; expected 1 or 2")
    print(
        f"phase {phase} model for shape {tuple(dims)}: "
        f"{size.n_vars} variables, {size.n_cons} constraints"
    )
    return EXIT_OK


def cmd_ingest_demand(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    section = config.section("ingest_demand")
    csv_path = section.get("csv")
    if csv_path is None:
        raise InputError(
            f"{config.path}: ingest-demand needs an ingest_demand.csv config entry"
        )
    csv_file = _entry(f"{config.path}: ingest_demand.csv", Path, csv_path)
    if not csv_file.is_absolute():
        csv_file = config.path.parent / csv_file
    out = _ensure_out(config.out_dir, args)

    rows = read_demand_csv(csv_file)
    hist = demand_hist_from_csv(rows)
    path = out / "demand_histogram.json"
    write_json_atomic(path, histogram_to_dict(hist))
    print(
        f"wrote {path} ({hist.total} observations, {len(hist.values)} distinct sizes)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and error mapping
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument(
        "--node-limit",
        type=int,
        default=None,
        help="cap branch-and-bound nodes per phase-2 solve (phase 1 is closed form)",
    )

    parser = argparse.ArgumentParser(
        prog="uavplan",
        description="Two-phase stochastic planning for UAV coded offloading",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plan", parents=[common], help="run both phases").set_defaults(
        func=cmd_plan
    )
    sub.add_parser(
        "sweep", parents=[common], help="one-parameter sensitivity sweep"
    ).set_defaults(func=cmd_sweep)
    sub.add_parser(
        "compare", parents=[common], help="SIP vs EVF vs random comparison"
    ).set_defaults(func=cmd_compare)
    sub.add_parser("size", parents=[common], help="model dimensions").set_defaults(
        func=cmd_size
    )
    sub.add_parser(
        "ingest-demand", parents=[common], help="demand CSV to histogram JSON"
    ).set_defaults(func=cmd_ingest_demand)
    return parser


def _write_error_record(args: argparse.Namespace, kind: str, message: str, code: int) -> None:
    out = getattr(args, "resolved_out", None)
    if out is None:
        return
    try:
        write_json_atomic(
            Path(out) / "error.json",
            {"error": kind, "message": message, "exit_code": code},
        )
    except OSError:
        pass  # error reporting must not mask the original failure


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        _write_error_record(args, "input", str(exc), EXIT_INPUT)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        _write_error_record(args, "resource_limit", str(exc), EXIT_RESOURCE)
        return EXIT_RESOURCE
    except PlanningError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        _write_error_record(args, "internal", str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL
    except Exception as exc:  # keep the exit-code contract even for bugs
        print(f"internal error: {exc!r}", file=sys.stderr)
        _write_error_record(args, "internal", repr(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(None))
