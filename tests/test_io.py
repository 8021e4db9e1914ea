"""Serialization round trips, input validation, atomic writers."""

import json
import math
import re

import pytest

from uavplan.io import (
    InputError,
    SCHEMA_VERSION,
    histogram_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_json,
    phase1_plan_to_dict,
    phase2_plan_to_dict,
    read_demand_csv,
    round_floats,
    sig12,
    write_csv_atomic,
    write_demand_csv,
    write_json_atomic,
    write_text_atomic,
)
from uavplan.planner import solve_phase1, solve_phase2
from uavplan.scenario import demand_hist_from_csv

from conftest import DATA_DIR, small_instance, tree_z2

DATA_FILES = ("instance.json", "curve_instance.json")

# every record of the instance format, as a path of keys and list
# indices into the bundled instance file
RECORD_PATHS = (
    (),
    ("stations", 0),
    ("base_stations", 0),
    ("uav_types", 0),
    ("environment",),
    ("costs",),
    ("split",),
    ("tree",),
    ("tree", "weather", 0),
    ("tree", "demand", 0),
    ("tree", "shortfall_stages", 0, 0),
)
OPTIONAL_KEYS = {
    "schema_version",  # checked before any record; see test_schema_version_checked
    "bits_per_symbol",
    "shortfall_stages",
    "max_local_copies",
    "wait_cost_gated_by_offload",
}


def bundled_data() -> dict:
    return json.loads((DATA_DIR / "instance.json").read_text())


def record_at(data: dict, path: tuple) -> dict:
    for step in path:
        data = data[step]
    return data


def path_label(path: tuple) -> str:
    """``instance.json.tree.weather[0]`` for ("tree", "weather", 0)."""
    return "instance.json" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    )


def required_fields():
    data = bundled_data()
    return [
        pytest.param(path, key, id=f"{path_label(path)}.{key}")
        for path in RECORD_PATHS
        for key in record_at(data, path)
        if key not in OPTIONAL_KEYS
    ]


@pytest.fixture
def inst():
    return small_instance(tree_z2(1, [(240,), (480,)], [0.5, 0.5]))


class TestRounding:
    def test_sig12(self):
        assert sig12(1.0 / 3.0) == 0.333333333333
        assert sig12(123456.0) == 123456.0
        assert math.isinf(sig12(math.inf))

    def test_round_floats_structure(self):
        obj = {"a": [1.0 / 3.0, True], "b": (2.0 / 3.0,)}
        out = round_floats(obj)
        assert out["a"] == [0.333333333333, True]
        assert out["a"][1] is True  # bools survive the float pass
        assert out["b"] == [0.666666666667]


class TestInstanceRoundTrip:
    def test_dict_round_trip(self, inst):
        data = instance_to_dict(inst)
        back = instance_from_dict(data)
        assert back.split == inst.split
        assert back.stations == inst.stations
        assert back.base_stations == inst.base_stations
        assert back.uav_types == inst.uav_types
        assert back.tree == inst.tree
        assert back.costs == inst.costs
        # gain/noise pass through dB and return within float round trip
        assert back.environment.channel_gain_ref == pytest.approx(
            inst.environment.channel_gain_ref, rel=1e-12
        )
        assert back.environment.noise_power == pytest.approx(
            inst.environment.noise_power, rel=1e-12
        )

    def test_file_round_trip(self, inst, tmp_path):
        path = tmp_path / "instance.json"
        write_json_atomic(path, instance_to_dict(inst))
        back = load_instance(path)
        assert back.split == inst.split
        assert back.tree.demand == inst.tree.demand
        assert back.costs.service_fee == pytest.approx(
            inst.costs.service_fee, rel=1e-11
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="file not found"):
            load_instance(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            load_json(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="top level"):
            load_json(path)

    def test_schema_version_checked(self, inst):
        data = instance_to_dict(inst)
        data["schema_version"] = 99
        with pytest.raises(InputError, match="schema_version 99"):
            instance_from_dict(data)
        del data["schema_version"]
        with pytest.raises(InputError, match="schema_version"):
            instance_from_dict(data)

    def test_missing_nested_field_named(self, inst):
        data = instance_to_dict(inst)
        del data["uav_types"][0]["mass_kg"]
        with pytest.raises(InputError, match=r"uav_types\[0\].*mass_kg"):
            instance_from_dict(data)

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_data_file_round_trip(self, name):
        data = json.loads((DATA_DIR / name).read_text())
        back = instance_to_dict(instance_from_dict(data))
        assert back == data
        assert json.dumps(back) == json.dumps(data)  # same key order too

    @pytest.mark.parametrize("path, key", required_fields())
    def test_missing_field_names_record(self, path, key):
        data = bundled_data()
        del record_at(data, path)[key]
        message = f"{path_label(path)}: missing required field {key!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            instance_from_dict(data, where="instance.json")

    def test_optional_fields_take_their_defaults(self):
        data = bundled_data()
        del data["environment"]["bits_per_symbol"]
        del data["tree"]["shortfall_stages"]
        del data["max_local_copies"]
        del data["wait_cost_gated_by_offload"]
        inst = instance_from_dict(data)
        assert inst.environment.bits_per_symbol == 4
        assert inst.tree.shortfall_stages == ()
        assert inst.max_local_copies is None
        assert inst.wait_cost_gated_by_offload is False

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(path, value, id=path_label(path))
            for path, value in (
                (("stations", 0, "id"), "abc"),
                (("base_stations", 0, "servers"), None),
                (("uav_types", 0, "mass_kg"), [8.0]),
                (("environment", "noise_power_dbm"), "loud"),
                (("environment", "channel_gain_ref_db"), 1e6),  # overflows
                (("costs", "per_second"), float("nan")),
                (("tree", "demand", 0, "dims"), "480"),
                (("stations",), {"id": 1}),
                (("uav_types",), 3),
                (("base_stations", 0), 7),
                # integers take integral JSON numbers only
                (("base_stations", 1, "servers"), 2.7),
                (("tree", "demand", 1, "dims"), [480.9] * 6),
                (("stations", 1, "id"), True),
                (("split", "m"), "2"),
                (("max_local_copies",), 2.5),
                # floats take JSON numbers only
                (("uav_types", 1, "mass_kg"), True),
                (("costs", "service_fee"), "1.5"),
                # the flag takes true or false only
                (("wait_cost_gated_by_offload",), "false"),
            )
        ],
    )
    def test_malformed_field_names_record(self, path, value):
        data = bundled_data()
        record_at(data, path[:-1])[path[-1]] = value
        with pytest.raises(InputError, match=re.escape(f"{path_label(path)}: ")):
            instance_from_dict(data, where="instance.json")

    def test_integral_float_reads_as_integer(self):
        data = bundled_data()
        data["base_stations"][0]["servers"] = 24.0
        servers = instance_from_dict(data).base_stations[0].servers
        assert servers == 24 and isinstance(servers, int)

    def test_structural_problems_reported(self, inst):
        data = instance_to_dict(inst)
        data["time_slots"] = 0
        with pytest.raises(InputError, match="time_slots"):
            instance_from_dict(data)

    def test_bad_split_wrapped(self, inst):
        data = instance_to_dict(inst)
        data["split"]["s"] = 3  # s * t != m
        with pytest.raises(InputError, match="split"):
            instance_from_dict(data)


class TestDemandCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "demand.csv"
        pairs = [(240, 240), (360, 360), (240, 240)]
        write_demand_csv(path, pairs)
        assert read_demand_csv(path) == pairs

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("width,height\n240,240\n")
        with pytest.raises(InputError, match="header"):
            read_demand_csv(path)

    def test_field_count_names_line(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("rows,cols\n240,240\n360\n")
        with pytest.raises(InputError, match="line 3"):
            read_demand_csv(path)

    def test_non_integer_names_line(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("rows,cols\nbig,240\n")
        with pytest.raises(InputError, match="line 2"):
            read_demand_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("rows,cols\n240,240\n\n360,360\n")
        assert read_demand_csv(path) == [(240, 240), (360, 360)]

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("rows,cols\n")
        with pytest.raises(InputError, match="no data rows"):
            read_demand_csv(path)

    def test_histogram_dict(self):
        hist = demand_hist_from_csv([(240, 240), (360, 360), (240, 240)])
        d = histogram_to_dict(hist)
        assert d["total_observations"] == 3
        assert d["bins"][0] == {"dimension": 240, "count": 2, "probability": 2 / 3}


class TestAtomicWriters:
    def test_json_writes_once_and_clean(self, tmp_path):
        path = tmp_path / "out" / "report.json"
        write_json_atomic(path, {"value": 1.0 / 3.0})
        data = json.loads(path.read_text())
        assert data == {"value": 0.333333333333}
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_text(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_text_atomic(path, "composed cost 12.5\n")
        assert path.read_text() == "composed cost 12.5\n"

    def test_csv_formats_floats(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv_atomic(path, ["name", "value"], [["x", 1.0 / 3.0]])
        assert path.read_text().splitlines() == ["name,value", "x,0.333333333333"]
        assert not list(path.parent.glob("*.tmp"))


class TestPlanSerialization:
    def test_phase1_dict(self, inst):
        plan = solve_phase1(inst)
        d = phase1_plan_to_dict(inst, plan)
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["phase"] == 1 and d["optimal"] is True
        assert d["reservations"][0]["variable"].startswith("T[slot=0][station=1]")
        assert len(d["recourse"]) == 2  # one per weather scenario

    def test_phase2_dict(self, inst):
        plan = solve_phase2(inst, "sip")
        d = phase2_plan_to_dict(inst, plan)
        assert d["phase"] == 2
        assert d["expected_cost"] == pytest.approx(plan.expected_cost)
        assert set(d["stage_breakdown"]) == set(plan.stage_breakdown)
        names = [e["variable"] for e in d["stage2"]]
        assert any(n.startswith("M_L[stage=2]") for n in names)
        assert any(n.startswith("M_TH[stage=2]") for n in names)
        subs = [e["variable"] for e in d["subscriptions"]]
        assert subs == ["M_s[slot=0][bs=1]", "M_s[slot=0][bs=2]"]
