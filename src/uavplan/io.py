"""File formats: instance/config JSON, demand CSV, plan and report output.

All output files are written atomically (temp file in the target
directory, then rename) so a crashed run never leaves a half-written
artifact. Floats are emitted rounded to 12 significant digits, which is
stable across platforms and far below model tolerances.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .coding import CodeSplit
from .costs import CostCoefficients
from .physics import Environment, UavType, db_to_linear, dbm_to_watts
from .planner import (
    BaseStation,
    NetworkInstance,
    Phase1Plan,
    Phase2Plan,
    Station,
)
from .scenario import (
    DemandHistogram,
    DemandScenario,
    ScenarioTree,
    ShortfallScenario,
    WeatherScenario,
)

__all__ = [
    "InputError",
    "SCHEMA_VERSION",
    "load_instance",
    "instance_from_dict",
    "instance_to_dict",
    "load_json",
    "read_demand_csv",
    "write_demand_csv",
    "sig12",
    "round_floats",
    "write_json_atomic",
    "write_text_atomic",
    "write_csv_atomic",
    "phase1_plan_to_dict",
    "phase2_plan_to_dict",
    "histogram_to_dict",
]

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed or missing input data; the message names the offending
    file/field."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def sig12(x: float) -> float:
    """Round to 12 significant digits for emission."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def round_floats(obj: Any) -> Any:
    """Recursively round every float in a JSON-ready structure."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return sig12(obj)
    if isinstance(obj, Mapping):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise InputError(f"{where}: missing required field {key!r}")
    return mapping[key]


def load_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def _check_schema(data: Mapping, where: str) -> None:
    version = _require(data, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise InputError(
            f"{where}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )


# ---------------------------------------------------------------------------
# instance loading
# ---------------------------------------------------------------------------


def _uav_type_from_dict(d: Mapping, where: str) -> UavType:
    try:
        return UavType(
            id=int(_require(d, "id", where)),
            battery_mah=float(_require(d, "battery_mah", where)),
            mass_kg=float(_require(d, "mass_kg", where)),
            blade_angular_velocity=float(_require(d, "blade_angular_velocity", where)),
            cpu_rate=float(_require(d, "cpu_rate_hz", where)),
            cycles_per_bit=float(_require(d, "cycles_per_bit", where)),
            bandwidth=float(_require(d, "bandwidth_hz", where)),
            tx_power=float(_require(d, "tx_power_w", where)),
            rx_power=float(_require(d, "rx_power_w", where)),
            hover_height=float(_require(d, "hover_height_m", where)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{where}: {exc}") from exc


def _environment_from_dict(d: Mapping, where: str) -> Environment:
    # channel gain and noise arrive in dB / dBm and convert here, once
    try:
        return Environment(
            air_density=float(_require(d, "air_density", where)),
            rotor_radius=float(_require(d, "rotor_radius", where)),
            rotor_disc_area=float(_require(d, "rotor_disc_area", where)),
            tip_speed=float(_require(d, "tip_speed", where)),
            induced_velocity=float(_require(d, "induced_velocity", where)),
            fuselage_drag_ratio=float(_require(d, "fuselage_drag_ratio", where)),
            rotor_solidity=float(_require(d, "rotor_solidity", where)),
            profile_drag_coefficient=float(
                _require(d, "profile_drag_coefficient", where)
            ),
            induced_power_correction=float(
                _require(d, "induced_power_correction", where)
            ),
            channel_gain_ref=db_to_linear(float(_require(d, "channel_gain_ref_db", where))),
            noise_power=dbm_to_watts(float(_require(d, "noise_power_dbm", where))),
            bits_per_symbol=int(d.get("bits_per_symbol", 4)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{where}: {exc}") from exc


def _costs_from_dict(d: Mapping, where: str) -> CostCoefficients:
    fields = (
        "reservation_per_mah",
        "on_demand_per_mah",
        "per_second",
        "per_joule",
        "hover_per_watt_second",
        "service_fee",
        "subscription_fee",
        "crash_penalty",
        "completion_penalty",
    )
    try:
        return CostCoefficients(**{f: float(_require(d, f, where)) for f in fields})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{where}: {exc}") from exc


def _tree_from_dict(d: Mapping, where: str) -> ScenarioTree:
    weather = tuple(
        WeatherScenario(
            strong_wind=tuple(int(g) for g in _require(w, "strong_wind", f"{where}.weather[{i}]")),
            probability=float(_require(w, "probability", f"{where}.weather[{i}]")),
        )
        for i, w in enumerate(_require(d, "weather", where))
    )
    demand = tuple(
        DemandScenario(
            dims=tuple(int(x) for x in _require(s, "dims", f"{where}.demand[{i}]")),
            probability=float(_require(s, "probability", f"{where}.demand[{i}]")),
        )
        for i, s in enumerate(_require(d, "demand", where))
    )
    stages = []
    for si, stage in enumerate(d.get("shortfall_stages", [])):
        stages.append(
            tuple(
                ShortfallScenario(
                    flags=tuple(
                        int(f)
                        for f in _require(s, "flags", f"{where}.shortfall_stages[{si}][{j}]")
                    ),
                    magnitudes=tuple(
                        int(a)
                        for a in _require(
                            s, "magnitudes", f"{where}.shortfall_stages[{si}][{j}]"
                        )
                    ),
                    probability=float(
                        _require(s, "probability", f"{where}.shortfall_stages[{si}][{j}]")
                    ),
                )
                for j, s in enumerate(stage)
            )
        )
    return ScenarioTree(weather=weather, demand=demand, shortfall_stages=tuple(stages))


def instance_from_dict(data: Mapping, where: str = "instance") -> NetworkInstance:
    _check_schema(data, where)
    stations = tuple(
        Station(
            id=int(_require(s, "id", f"{where}.stations[{i}]")),
            a=float(_require(s, "a", f"{where}.stations[{i}]")),
            b=float(_require(s, "b", f"{where}.stations[{i}]")),
            uav_type=int(_require(s, "uav_type", f"{where}.stations[{i}]")),
        )
        for i, s in enumerate(_require(data, "stations", where))
    )
    base_stations = tuple(
        BaseStation(
            id=int(_require(b, "id", f"{where}.base_stations[{i}]")),
            a=float(_require(b, "a", f"{where}.base_stations[{i}]")),
            b=float(_require(b, "b", f"{where}.base_stations[{i}]")),
            height=float(_require(b, "height", f"{where}.base_stations[{i}]")),
            servers=int(_require(b, "servers", f"{where}.base_stations[{i}]")),
        )
        for i, b in enumerate(_require(data, "base_stations", where))
    )
    split_d = _require(data, "split", where)
    try:
        split = CodeSplit.from_slices(
            int(_require(split_d, "m", f"{where}.split")),
            int(_require(split_d, "s", f"{where}.split")),
            int(_require(split_d, "t", f"{where}.split")),
        )
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{where}.split: {exc}") from exc
    try:
        instance = NetworkInstance(
            time_slots=int(_require(data, "time_slots", where)),
            stations=stations,
            uav_types=tuple(
                _uav_type_from_dict(u, f"{where}.uav_types[{i}]")
                for i, u in enumerate(_require(data, "uav_types", where))
            ),
            base_stations=base_stations,
            environment=_environment_from_dict(
                _require(data, "environment", where), f"{where}.environment"
            ),
            costs=_costs_from_dict(_require(data, "costs", where), f"{where}.costs"),
            split=split,
            tree=_tree_from_dict(_require(data, "tree", where), f"{where}.tree"),
            max_local_copies=(
                None
                if data.get("max_local_copies") is None
                else int(data["max_local_copies"])
            ),
            wait_cost_gated_by_offload=bool(data.get("wait_cost_gated_by_offload", False)),
        )
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    problems = instance.validate()
    if problems:
        raise InputError(f"{where}: " + "; ".join(problems))
    return instance


def load_instance(path: str | Path) -> NetworkInstance:
    return instance_from_dict(load_json(path), where=str(path))


def instance_to_dict(instance: NetworkInstance) -> dict:
    """Inverse of instance_from_dict (dB fields restored)."""
    env = instance.environment
    return {
        "schema_version": SCHEMA_VERSION,
        "time_slots": instance.time_slots,
        "stations": [
            {"id": s.id, "a": s.a, "b": s.b, "uav_type": s.uav_type}
            for s in instance.stations
        ],
        "uav_types": [
            {
                "id": u.id,
                "battery_mah": u.battery_mah,
                "mass_kg": u.mass_kg,
                "blade_angular_velocity": u.blade_angular_velocity,
                "cpu_rate_hz": u.cpu_rate,
                "cycles_per_bit": u.cycles_per_bit,
                "bandwidth_hz": u.bandwidth,
                "tx_power_w": u.tx_power,
                "rx_power_w": u.rx_power,
                "hover_height_m": u.hover_height,
            }
            for u in instance.uav_types
        ],
        "base_stations": [
            {"id": b.id, "a": b.a, "b": b.b, "height": b.height, "servers": b.servers}
            for b in instance.base_stations
        ],
        "environment": {
            "air_density": env.air_density,
            "rotor_radius": env.rotor_radius,
            "rotor_disc_area": env.rotor_disc_area,
            "tip_speed": env.tip_speed,
            "induced_velocity": env.induced_velocity,
            "fuselage_drag_ratio": env.fuselage_drag_ratio,
            "rotor_solidity": env.rotor_solidity,
            "profile_drag_coefficient": env.profile_drag_coefficient,
            "induced_power_correction": env.induced_power_correction,
            "channel_gain_ref_db": 10.0 * math.log10(env.channel_gain_ref),
            "noise_power_dbm": 10.0 * math.log10(env.noise_power * 1e3),
            "bits_per_symbol": env.bits_per_symbol,
        },
        "costs": {
            "reservation_per_mah": instance.costs.reservation_per_mah,
            "on_demand_per_mah": instance.costs.on_demand_per_mah,
            "per_second": instance.costs.per_second,
            "per_joule": instance.costs.per_joule,
            "hover_per_watt_second": instance.costs.hover_per_watt_second,
            "service_fee": instance.costs.service_fee,
            "subscription_fee": instance.costs.subscription_fee,
            "crash_penalty": instance.costs.crash_penalty,
            "completion_penalty": instance.costs.completion_penalty,
        },
        "split": {"m": instance.split.m, "s": instance.split.s, "t": instance.split.t},
        "tree": {
            "weather": [
                {"strong_wind": list(w.strong_wind), "probability": w.probability}
                for w in instance.tree.weather
            ],
            "demand": [
                {"dims": list(d.dims), "probability": d.probability}
                for d in instance.tree.demand
            ],
            "shortfall_stages": [
                [
                    {
                        "flags": list(s.flags),
                        "magnitudes": list(s.magnitudes),
                        "probability": s.probability,
                    }
                    for s in stage
                ]
                for stage in instance.tree.shortfall_stages
            ],
        },
        "max_local_copies": instance.max_local_copies,
        "wait_cost_gated_by_offload": instance.wait_cost_gated_by_offload,
    }


# ---------------------------------------------------------------------------
# demand CSV
# ---------------------------------------------------------------------------


def read_demand_csv(path: str | Path) -> list[tuple[int, int]]:
    """Observed task shapes, one ``rows,cols`` pair per line after the
    header. Errors carry 1-based line numbers."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"file not found: {path}")
    out: list[tuple[int, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        if [h.strip() for h in header] != ["rows", "cols"]:
            raise InputError(f"{path}: line 1: header must be 'rows,cols', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise InputError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                r, c = int(row[0]), int(row[1])
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: non-integer entry {row!r}"
                ) from None
            out.append((r, c))
    if not out:
        raise InputError(f"{path}: no data rows")
    return out


def write_demand_csv(path: str | Path, pairs: Sequence[tuple[int, int]]) -> None:
    write_csv_atomic(path, ["rows", "cols"], [[r, c] for r, c in pairs])


def histogram_to_dict(hist: DemandHistogram) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "total_observations": hist.total,
        "bins": [
            {"dimension": v, "count": c, "probability": p}
            for v, c, p in zip(hist.values, hist.counts, hist.probabilities)
        ],
    }


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------


def _atomic_write(path: str | Path, write_body) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str | Path, obj: Any) -> None:
    payload = round_floats(obj)
    _atomic_write(path, lambda fh: (json.dump(payload, fh, indent=2), fh.write("\n")))


def write_text_atomic(path: str | Path, text: str) -> None:
    _atomic_write(path, lambda fh: fh.write(text))


def _format_cell(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return f"{sig12(value):.12g}"
    return value


def write_csv_atomic(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])

    _atomic_write(path, body)


# ---------------------------------------------------------------------------
# plan serialization
# ---------------------------------------------------------------------------


def phase1_plan_to_dict(instance: NetworkInstance, plan: Phase1Plan) -> dict:
    reservations = []
    for (t, y), type_id in sorted(plan.reservations.items()):
        sid = instance.stations[y].id
        reservations.append(
            {
                "variable": f"T[slot={t}][station={sid}][type={type_id}]",
                "slot": t,
                "station": sid,
                "type": type_id,
                "value": 1,
            }
        )
    recourse = []
    for (mu, t, y), value in sorted(plan.recourse.items()):
        sid = instance.stations[y].id
        recourse.append(
            {
                "variable": f"R[weather={mu}][slot={t}][station={sid}]",
                "weather": mu,
                "slot": t,
                "station": sid,
                "value": value,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "phase": 1,
        "expected_cost": plan.expected_cost,
        "optimal": True,  # the closed form is always optimal
        "reservations": reservations,
        "recourse": recourse,
    }


def _decision_entries(
    instance: NetworkInstance,
    stage: int,
    slot: int,
    scenario: int,
    path: tuple[int, ...],
    station_index: int,
    dec,
) -> list[dict]:
    sid = instance.stations[station_index].id
    ptag = "" if stage == 2 else f"[path={','.join(map(str, path)) or '-'}]"
    base = f"[stage={stage}][slot={slot}][scenario={scenario}]{ptag}[station={sid}]"
    entries = [
        {"variable": f"M_L{base}", "value": dec.local},
        {"variable": f"M_TH{base}", "value": dec.offload_indicator},
    ]
    for fi, bs in enumerate(instance.base_stations):
        entries.append({"variable": f"M_O{base}[bs={bs.id}]", "value": dec.offload[fi]})
    return entries


def phase2_plan_to_dict(
    instance: NetworkInstance, plan: Phase2Plan, slot: int = 0
) -> dict:
    """Variable-by-variable dump of a plan whose first slot is ``slot``."""
    subscriptions = []
    for t, row in enumerate(plan.subscriptions, start=slot):
        for fi, bs in enumerate(instance.base_stations):
            subscriptions.append(
                {"variable": f"M_s[slot={t}][bs={bs.id}]", "value": row[fi]}
            )
    stage2 = []
    for (t, li, y), dec in sorted(plan.stage2.items()):
        stage2.extend(_decision_entries(instance, 2, slot + t, li, (), y, dec))
    recourse = []
    for (t, zz, path_key, y), dec in sorted(plan.recourse.items()):
        li, combo = path_key[0], path_key[1:]
        recourse.extend(_decision_entries(instance, zz, slot + t, li, combo, y, dec))
    residuals = []
    for (t, path_key, y), value in sorted(plan.residuals.items()):
        li, combo = path_key[0], path_key[1:]
        sid = instance.stations[y].id
        residuals.append(
            {
                "variable": f"rho[slot={slot + t}][scenario={li}]"
                f"[path={','.join(map(str, combo)) or '-'}][station={sid}]",
                "value": value,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "phase": 2,
        "expected_cost": plan.expected_cost,
        "optimal": plan.optimal,
        "stage_breakdown": dict(plan.stage_breakdown),
        "subscriptions": subscriptions,
        "stage2": stage2,
        "recourse": recourse,
        "residuals": residuals,
    }
