"""File formats: instance/config JSON, demand CSV, plan and report output.

The instance format is defined once: each record (station, base
station, UAV class, environment, costs, split, the weather, demand and
shortfall scenarios, the tree and the instance itself) has one field
table of (json key, attribute, read, write, default) rows, and the same
table drives ``instance_from_dict`` and ``instance_to_dict``. Reading
turns every missing field, wrong type or failed conversion into an
``InputError`` that names the record's path, for example
``instance.json.stations[0]``; the instance's structural checks run
once, when ``NetworkInstance`` is built.

All output files are written atomically (temp file in the target
directory, then rename) so a crashed run never leaves a half-written
artifact. Floats are emitted rounded to 12 significant digits, which is
stable across platforms and far below model tolerances.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .coding import CodeSplit
from .costs import CostCoefficients
from .physics import Environment, UavType, db_to_linear, dbm_to_watts
from .planner import (
    BaseStation,
    NetworkInstance,
    Phase1Plan,
    Phase2Plan,
    Station,
    _path_label,
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
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise InputError(
            f"{where}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )


# ---------------------------------------------------------------------------
# instance format
# ---------------------------------------------------------------------------

_REQUIRED = object()  # default of a field every instance file must give

# a field read takes (JSON value, its path); the TypeError, ValueError or
# OverflowError of a failed conversion becomes an InputError naming the path
_Read = Callable[[Any, str], Any]
_Write = Callable[[Any], Any]


@dataclass(frozen=True)
class _Record:
    """One JSON object of the instance format: the class it builds and
    its field table, rows of (json key, attribute, read, write, default).
    The same table reads the object and writes it back."""

    build: Callable[..., Any]
    fields: tuple[tuple[str, str, _Read, _Write, Any], ...]

    def read(self, data: Any, where: str) -> Any:
        if not isinstance(data, Mapping):
            raise InputError(f"{where}: expected an object, got {type(data).__name__}")
        kwargs = {}
        for key, attr, read, _, default in self.fields:
            if key not in data:
                if default is _REQUIRED:
                    raise InputError(f"{where}: missing required field {key!r}")
                kwargs[attr] = default
                continue
            try:
                kwargs[attr] = read(data[key], f"{where}.{key}")
            except InputError:
                raise
            except (OverflowError, TypeError, ValueError) as exc:
                raise InputError(f"{where}.{key}: {exc}") from exc
        try:
            return self.build(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc

    def write(self, obj: Any) -> dict:
        return {key: write(getattr(obj, attr)) for key, attr, _, write, _ in self.fields}


def _scalar(convert: Callable[[Any], Any]) -> _Read:
    return lambda value, where: convert(value)


def _number(value: Any) -> int | float:
    """A JSON number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return value


def _finite(value: Any) -> float:
    number = float(_number(value))
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _integer(value: Any) -> int:
    """A JSON number with an integral value: ``24.0`` reads as 24, while
    ``2.7``, ``true`` and ``"2"`` are rejected."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _entry(key: str, read: Callable[[Any], Any], value: Any) -> Any:
    """``read(value)``, with a failed conversion raised as ``InputError``
    naming ``key``."""
    try:
        return read(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{key}: {exc}") from exc


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _list_of(read: _Read) -> _Read:
    def read_list(values: Any, where: str) -> tuple:
        if not isinstance(values, list):
            raise InputError(f"{where}: expected a list, got {type(values).__name__}")
        return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(values))

    return read_list


def _each(write: _Write) -> _Write:
    return lambda values: [write(v) for v in values]


def _same(value: Any) -> Any:
    return value


_INT = _scalar(_integer)
_FLOAT = _scalar(_finite)
_INTS = _list_of(_INT)


def _field(
    key: str,
    read: _Read = _FLOAT,
    write: _Write = _same,
    default: Any = _REQUIRED,
    attr: str | None = None,
) -> tuple[str, str, _Read, _Write, Any]:
    """One row of a field table; the attribute defaults to the json key."""
    return (key, attr or key, read, write, default)


_STATION = _Record(
    Station,
    (_field("id", _INT), _field("a"), _field("b"), _field("uav_type", _INT)),
)
_BASE_STATION = _Record(
    BaseStation,
    (
        _field("id", _INT),
        _field("a"),
        _field("b"),
        _field("height"),
        _field("servers", _INT),
    ),
)
_UAV_TYPE = _Record(
    UavType,
    (
        _field("id", _INT),
        _field("battery_mah"),
        _field("mass_kg"),
        _field("blade_angular_velocity"),
        _field("cpu_rate_hz", attr="cpu_rate"),
        _field("cycles_per_bit"),
        _field("bandwidth_hz", attr="bandwidth"),
        _field("tx_power_w", attr="tx_power"),
        _field("rx_power_w", attr="rx_power"),
        _field("hover_height_m", attr="hover_height"),
    ),
)
# channel gain and noise are written in dB and dBm and convert here, once
_ENVIRONMENT = _Record(
    Environment,
    (
        _field("air_density"),
        _field("rotor_radius"),
        _field("rotor_disc_area"),
        _field("tip_speed"),
        _field("induced_velocity"),
        _field("fuselage_drag_ratio"),
        _field("rotor_solidity"),
        _field("profile_drag_coefficient"),
        _field("induced_power_correction"),
        _field(
            "channel_gain_ref_db",
            _scalar(lambda db: db_to_linear(_finite(db))),
            lambda gain: 10.0 * math.log10(gain),
            attr="channel_gain_ref",
        ),
        _field(
            "noise_power_dbm",
            _scalar(lambda dbm: dbm_to_watts(_finite(dbm))),
            lambda watts: 10.0 * math.log10(watts * 1e3),
            attr="noise_power",
        ),
        _field("bits_per_symbol", _INT, default=4),
    ),
)
_COSTS = _Record(
    CostCoefficients,
    tuple(_field(f.name) for f in dataclasses.fields(CostCoefficients)),
)
_SPLIT = _Record(
    CodeSplit.from_slices, (_field("m", _INT), _field("s", _INT), _field("t", _INT))
)
_WEATHER = _Record(
    WeatherScenario, (_field("strong_wind", _INTS, list), _field("probability"))
)
_DEMAND = _Record(DemandScenario, (_field("dims", _INTS, list), _field("probability")))
_SHORTFALL = _Record(
    ShortfallScenario,
    (
        _field("flags", _INTS, list),
        _field("magnitudes", _INTS, list),
        _field("probability"),
    ),
)
_TREE = _Record(
    ScenarioTree,
    (
        _field("weather", _list_of(_WEATHER.read), _each(_WEATHER.write)),
        _field("demand", _list_of(_DEMAND.read), _each(_DEMAND.write)),
        _field(
            "shortfall_stages",
            _list_of(_list_of(_SHORTFALL.read)),
            _each(_each(_SHORTFALL.write)),
            default=(),
        ),
    ),
)
_INSTANCE = _Record(
    NetworkInstance,
    (
        _field("time_slots", _INT),
        _field("stations", _list_of(_STATION.read), _each(_STATION.write)),
        _field("uav_types", _list_of(_UAV_TYPE.read), _each(_UAV_TYPE.write)),
        _field("base_stations", _list_of(_BASE_STATION.read), _each(_BASE_STATION.write)),
        _field("environment", _ENVIRONMENT.read, _ENVIRONMENT.write),
        _field("costs", _COSTS.read, _COSTS.write),
        _field("split", _SPLIT.read, _SPLIT.write),
        _field("tree", _TREE.read, _TREE.write),
        _field(
            "max_local_copies",
            _scalar(lambda copies: None if copies is None else _integer(copies)),
            default=None,
        ),
        _field("wait_cost_gated_by_offload", _scalar(_flag), default=False),
    ),
)


def instance_from_dict(data: Mapping, where: str = "instance") -> NetworkInstance:
    """Build an instance from its JSON object. Every missing field,
    wrong type, failed conversion or structural problem raises
    ``InputError`` naming its path, e.g. ``instance.json.stations[0]``."""
    _check_schema(data, where)
    return _INSTANCE.read(data, where)


def load_instance(path: str | Path) -> NetworkInstance:
    return instance_from_dict(load_json(path), where=str(path))


def instance_to_dict(instance: NetworkInstance) -> dict:
    """Inverse of instance_from_dict (dB fields restored)."""
    return {"schema_version": SCHEMA_VERSION, **_INSTANCE.write(instance)}


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
    """Variable-by-variable dump of the plan's one slot for every slot,
    with the expected cost of all slots."""
    slots = range(instance.time_slots)
    reservations = [
        {
            "variable": f"T[slot={t}][station={st.id}][type={type_id}]",
            "slot": t,
            "station": st.id,
            "type": type_id,
            "value": 1,
        }
        for t in slots
        for st, type_id in zip(instance.stations, plan.reservations)
    ]
    recourse = [
        {
            "variable": f"R[weather={mu}][slot={t}][station={st.id}]",
            "weather": mu,
            "slot": t,
            "station": st.id,
            "value": plan.recourse[mu, y],
        }
        for mu in range(len(instance.tree.weather))
        for t in slots
        for y, st in enumerate(instance.stations)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "phase": 1,
        "expected_cost": instance.time_slots * plan.expected_cost,
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
    ptag = "" if stage == 2 else f"[path={_path_label(path)}]"
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
    """Variable-by-variable dump of a plan's one slot, its variables
    named for ``slot``, with the plan's own one-slot expected cost and
    stage breakdown."""
    subscriptions = [
        {"variable": f"M_s[slot={slot}][bs={bs.id}]", "value": value}
        for bs, value in zip(instance.base_stations, plan.subscriptions)
    ]
    stage2, recourse = [], []
    for (zz, li, prefix, y), dec in sorted(plan.decisions.items()):
        part = recourse if prefix else stage2
        part.extend(_decision_entries(instance, zz, slot, li, prefix, y, dec))
    residuals = []
    for (li, losses, y), value in sorted(plan.residuals.items()):
        sid = instance.stations[y].id
        residuals.append(
            {
                "variable": f"rho[slot={slot}][scenario={li}]"
                f"[path={_path_label(losses)}][station={sid}]",
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
