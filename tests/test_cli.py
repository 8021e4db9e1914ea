"""End-to-end command runs: files written, exit codes, error records."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import uavplan.milp as milp
import uavplan.planner as planner
from uavplan import cli
from uavplan.io import instance_to_dict, write_json_atomic

from conftest import (
    branching_instance,
    dip_infeasible_instance,
    guaranteed_stage,
    small_instance,
    tree_z2,
)

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name="config.json", **body):
    body.setdefault("schema_version", 1)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    write_json_atomic(path, instance_to_dict(inst))
    return name


@pytest.fixture
def branching_setup(tmp_path):
    """Config for an instance whose SIP a node limit of 1 cuts short."""
    iname = write_instance(tmp_path, branching_instance())
    cfg = write_config(
        tmp_path,
        instance=iname,
        out=str(tmp_path / "out"),
        sweep={"parameter": "hover_multiplier", "grid": [0.5, 1.0]},
        compare={"multipliers": [1.0, 2.0], "n_seeds": 30},
    )
    return cfg, tmp_path / "out"


@pytest.fixture
def flat_setup(tmp_path):
    """Config + tiny two-weather instance in one temp directory."""
    inst = small_instance(tree_z2(1, [(240,)], [1.0], p_strong=0.3))
    iname = write_instance(tmp_path, inst)
    cfg = write_config(tmp_path, instance=iname, out=str(tmp_path / "out"))
    return cfg, tmp_path / "out"


class TestSize:
    def test_phase1_documented_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, size={"phase": 1, "shape": [6, 6, 3, 10]})
        assert cli.main(["size", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "phase 1 model for shape (6, 6, 3, 10)" in out
        assert "468 variables, 864 constraints" in out

    def test_phase2_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, size={"phase": 2, "shape": [1, 2, 1, 2, 2]})
        assert cli.main(["size", "--config", cfg]) == 0
        assert "10 variables, 64 constraints" in capsys.readouterr().out

    def test_string_shape_rejected(self, tmp_path):
        cfg = write_config(tmp_path, size={"phase": 1, "shape": "6,6,3,10"})
        assert cli.main(["size", "--config", cfg]) == 2

    def test_missing_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["size", "--config", cfg]) == 2


class TestPlan:
    def test_writes_plans_and_summary(self, flat_setup, capsys):
        cfg, out = flat_setup
        assert cli.main(["plan", "--config", cfg]) == 0
        for name in ("phase1_plan.json", "phase2_plan.json", "summary.txt"):
            assert (out / name).exists()
        p2 = json.loads((out / "phase2_plan.json").read_text())
        assert p2["composed_expected_cost"] > 0
        assert {e["weather_scenario"] for e in p2["plans"]} == {0, 1}
        assert all(e["optimal"] for e in p2["plans"])
        summary = (out / "summary.txt").read_text()
        assert "composed expected cost" in summary
        assert capsys.readouterr().out.startswith("composed expected cost")

    def test_multislot_entries_name_their_slot(self, tmp_path):
        inst = small_instance(tree_z2(1, [(240,)], [1.0], p_strong=0.3), time_slots=2)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, instance=write_instance(tmp_path, inst), out=str(out))
        assert cli.main(["plan", "--config", cfg]) == 0
        p2 = json.loads((out / "phase2_plan.json").read_text())
        assert {e["slot"] for e in p2["plans"]} == {0, 1}
        for entry in p2["plans"]:
            names = [
                v["variable"]
                for part in ("subscriptions", "stage2", "recourse", "residuals")
                for v in entry[part]
            ]
            assert names
            assert all(f"[slot={entry['slot']}]" in name for name in names)

    def test_uncertified_solver_point_is_internal_error(
        self, flat_setup, monkeypatch, capsys
    ):
        """A solver point that breaks a row never reaches the plan files."""

        def solve(self, lo, up, start=None):
            return "optimal", lo.copy(), 0.0, (0, 0), None

        monkeypatch.setattr(milp._PreparedLP, "solve", solve)
        cfg, out = flat_setup
        assert cli.main(["plan", "--config", cfg]) == 1
        assert "violates a row" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] == "internal"
        assert not (out / "phase2_plan.json").exists()

    def test_missing_instance_file_names_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, instance="missing.json", out=str(out))
        assert cli.main(["plan", "--config", cfg]) == 2
        assert "missing.json" in capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())
        assert "missing.json" in error["message"]

    @pytest.mark.parametrize(
        "record, key, value",
        [
            ("stations", "id", "abc"),
            ("base_stations", "servers", None),
            ("uav_types", None, {"id": 1}),
        ],
        ids=["station-id", "base-station-servers", "uav-types-not-a-list"],
    )
    def test_malformed_instance_field_leaves_error_record(
        self, flat_setup, record, key, value
    ):
        cfg, out = flat_setup
        path = out.parent / "instance.json"
        data = json.loads(path.read_text())
        if key is None:
            data[record] = value
        else:
            data[record][0][key] = value
        path.write_text(json.dumps(data))
        assert cli.main(["plan", "--config", cfg]) == 2
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "input" and error["exit_code"] == 2
        assert f"instance.json.{record}" in error["message"]
        if key is not None:
            assert f"{record}[0].{key}" in error["message"]

    def test_missing_config(self, tmp_path, capsys):
        assert cli.main(["plan", "--config", str(tmp_path / "none.json")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_node_limit_returns_resource_code(
        self, tmp_path, bundled_instance, capsys
    ):
        n = len(bundled_instance.stations)
        z4 = dataclasses.replace(
            bundled_instance,
            tree=dataclasses.replace(
                bundled_instance.tree,
                shortfall_stages=(guaranteed_stage(n, 4), guaranteed_stage(n, 14)),
            ),
        )
        iname = write_instance(tmp_path, z4)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, instance=iname, out=str(out))
        assert cli.main(["plan", "--config", cfg, "--node-limit", "1"]) == 3
        summary = (out / "summary.txt").read_text()
        assert "NOT PROVEN OPTIMAL" in summary
        p2 = json.loads((out / "phase2_plan.json").read_text())
        assert not all(e["optimal"] for e in p2["plans"])


class TestSweep:
    def test_writes_csv(self, flat_setup, capsys):
        cfg, out = flat_setup
        with open(cfg) as fh:
            body = json.load(fh)
        body["sweep"] = {"parameter": "penalty_C_p", "grid": [1.0, 2.0]}
        with open(cfg, "w") as fh:
            json.dump(body, fh)
        assert cli.main(["sweep", "--config", cfg]) == 0
        lines = (out / "sweep_penalty_C_p.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,objective,summary"
        assert len(lines) == 3
        assert lines[1].startswith("penalty_C_p,1,")

    def test_bad_parameter_leaves_error_record(self, tmp_path):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        iname = write_instance(tmp_path, inst)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            instance=iname,
            out=str(out),
            sweep={"parameter": "battery", "grid": [1.0]},
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "input" and record["exit_code"] == 2
        assert "battery" in record["message"]

    def test_empty_grid_rejected(self, tmp_path):
        inst = small_instance(tree_z2(1, [(240,)], [1.0]))
        iname = write_instance(tmp_path, inst)
        cfg = write_config(
            tmp_path,
            instance=iname,
            out=str(tmp_path / "out"),
            sweep={"parameter": "penalty_C_p", "grid": []},
        )
        assert cli.main(["sweep", "--config", cfg]) == 2


    def test_node_limit_returns_resource_code(self, branching_setup, capsys):
        cfg, out = branching_setup
        assert cli.main(["sweep", "--config", cfg, "--node-limit", "1"]) == 3
        assert len((out / "sweep_hover_multiplier.csv").read_text().splitlines()) == 3
        stdout = capsys.readouterr().out
        assert "node limit reached at hover_multiplier 0.5, 1: " in stdout
        assert cli.main(["sweep", "--config", cfg]) == 0


class TestCompare:
    def test_writes_dominant_rows(self, flat_setup):
        cfg, out = flat_setup
        with open(cfg) as fh:
            body = json.load(fh)
        body["compare"] = {"multipliers": [1.0], "n_seeds": 30}
        with open(cfg, "w") as fh:
            json.dump(body, fh)
        assert cli.main(["compare", "--config", cfg]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "multiplier,sip_cost,evf_cost,random_cost"
        _, sip, evf, rand = (float(v) for v in lines[1].split(","))
        assert sip <= evf + 1e-9 and sip <= rand + 1e-9

    def test_infeasible_mean_value_program_writes_inf(self, tmp_path):
        iname = write_instance(tmp_path, dip_infeasible_instance())
        cfg = write_config(
            tmp_path,
            instance=iname,
            out=str(tmp_path / "out"),
            compare={"multipliers": [1.0], "n_seeds": 30},
        )
        assert cli.main(["compare", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        assert lines[1].split(",")[:3] == ["1", "7.43318230711", "inf"]
        assert not (tmp_path / "out" / "error.json").exists()

    def test_node_limit_returns_resource_code(self, branching_setup, capsys):
        cfg, out = branching_setup
        assert cli.main(["compare", "--config", cfg, "--node-limit", "1"]) == 3
        assert len((out / "compare.csv").read_text().splitlines()) == 3
        stdout = capsys.readouterr().out
        assert "node limit reached at multiplier 1, 2: " in stdout
        assert cli.main(["compare", "--config", cfg]) == 0

    def test_node_limit_keeps_every_row(self, tmp_path, bundled_instance, capsys):
        """On the z = 4 network neither phase-2 solve closes at the root;
        both start from an incumbent, so a node limit of one still fills
        the row."""
        n = len(bundled_instance.stations)
        z4 = dataclasses.replace(
            bundled_instance,
            tree=dataclasses.replace(
                bundled_instance.tree,
                shortfall_stages=(guaranteed_stage(n, 4), guaranteed_stage(n, 14)),
            ),
        )
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            instance=write_instance(tmp_path, z4),
            out=str(out),
            compare={"multipliers": [1.0], "n_seeds": 30},
        )
        assert cli.main(["compare", "--config", cfg, "--node-limit", "1"]) == 3
        assert len((out / "compare.csv").read_text().splitlines()) == 2
        assert "node limit reached at multiplier 1: " in capsys.readouterr().out
        assert not (out / "error.json").exists()

    def test_node_limit_reaches_every_solve(self, branching_setup, monkeypatch):
        cfg, _ = branching_setup
        calls = []
        solve = planner.solve_exact

        def recorded(model, **kwargs):
            calls.append((model.name, kwargs.get("node_limit")))
            return solve(model, **kwargs)

        monkeypatch.setattr(planner, "solve_exact", recorded)
        assert cli.main(["compare", "--config", cfg, "--node-limit", "500"]) == 0
        # one SIP and one expected-value DIP per multiplier
        assert sorted(calls) == [("phase2_dip", 500)] * 2 + [("phase2_sip", 500)] * 2


class TestIngestDemand:
    def test_histogram_written(self, tmp_path, capsys):
        (tmp_path / "demand.csv").write_text(
            "rows,cols\n240,240\n360,360\n240,240\n480,480\n"
        )
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, out=str(out), ingest_demand={"csv": "demand.csv"}
        )
        assert cli.main(["ingest-demand", "--config", cfg]) == 0
        hist = json.loads((out / "demand_histogram.json").read_text())
        assert hist["total_observations"] == 4
        by_dim = {b["dimension"]: b["count"] for b in hist["bins"]}
        assert by_dim == {240: 2, 360: 1, 480: 1}
        assert "4 observations" in capsys.readouterr().out

    def test_missing_csv_entry(self, tmp_path):
        cfg = write_config(tmp_path, ingest_demand={})
        assert cli.main(["ingest-demand", "--config", cfg]) == 2


# (command, config entries, key the message names); every case exits 2
BAD_CONFIG_VALUES = [
    ("compare", {"seed": "x"}, "seed"),
    ("compare", {"seed": 1.9}, "seed"),
    ("plan", {"node_limit": "abc"}, "node_limit"),
    ("plan", {"node_limit": 2.5}, "node_limit"),
    ("plan", {"instance": 5}, "instance"),
    ("plan", {"out": 5}, "out"),
    ("plan", {"schema_version": True}, "schema_version"),
    ("compare", {"compare": {"n_seeds": "abc"}}, "compare.n_seeds"),
    ("compare", {"compare": {"n_seeds": 30.7}}, "compare.n_seeds"),
    ("compare", {"compare": {"multipliers": 5}}, "compare.multipliers"),
    ("compare", {"compare": {"multipliers": [True, 2]}}, "compare.multipliers"),
    ("compare", {"compare": {"multipliers": ["0.5", 2]}}, "compare.multipliers"),
    ("sweep", {"sweep": {"parameter": "penalty_C_p", "grid": 5}}, "grid"),
    ("sweep", {"sweep": {"parameter": "penalty_C_p", "grid": [True, "2.5"]}}, "grid"),
    (
        "sweep",
        {"sweep": {"parameter": "z", "grid": [3], "shortfall_magnitudes": [2.5]}},
        "shortfall_magnitudes[0]",
    ),
    (
        "sweep",
        {"sweep": {"parameter": "split_s", "grid": [2], "split_m": 4.7}},
        "split_m",
    ),
    (
        "sweep",
        {"sweep": {"parameter": "z", "grid": [3], "shortfall_magnitudes": 5}},
        "shortfall_magnitudes",
    ),
    ("size", {"size": {"phase": "1", "shape": [6, 6, 3, 10]}}, "size.phase"),
    ("size", {"size": {"phase": 1, "shape": [6.5, 6, 3, 10]}}, "size.shape"),
    ("ingest-demand", {"ingest_demand": {"csv": 5}}, "ingest_demand.csv"),
]


@pytest.mark.parametrize(
    "command, entries, key",
    [
        pytest.param(*case, id=f"{case[0]}-{json.dumps(case[1])}")
        for case in BAD_CONFIG_VALUES
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, command, entries, key):
    """A malformed config value is an input error, never a crash or a
    silently cut value; plan, sweep and compare record it in error.json
    unless the bad value is the output directory itself."""
    out = tmp_path / "out"
    iname = write_instance(tmp_path, small_instance(tree_z2(1, [(240,)], [1.0])))
    body = {"instance": iname, "out": str(out), **entries}
    cfg = write_config(tmp_path, **body)
    assert cli.main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    if command in ("plan", "sweep", "compare") and key != "out":
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "input" and key in error["message"]
    else:
        assert not (out / "error.json").exists()


# sha256 of every file a command writes, on the README config (the
# bundled instance) and on a three-slot copy of the bundled instance.
# A change that alters CLI output updates these on purpose and says why.
PINNED_OUTPUTS = {
    ("readme", "plan"): {
        "phase1_plan.json": "87c29b6eb7ec80f3423cb2dad68f7eec451b0ff01d8a0a80f21f302362c5344e",
        "phase2_plan.json": "ca3e05884639f238a05429923f4a7068cfd930039d103bc8098e4dedf4efc75b",
        "summary.txt": "0c13e08e5fdb397a147c1d11d41a00bdb13cff7b83b1a14e5c306779e5e51ec5",
    },
    ("readme", "sweep"): {
        "sweep_penalty_C_p.csv": "d934bab43adcc0173cfc1c46e360d8cd3f9bd4d6d496abd589516beba8ad58ac",
    },
    ("readme", "compare"): {
        "compare.csv": "c758a259e7759da3a9ee06ca8fec00ba77aa2563f5409feb1c587aea7c65e9d3",
    },
    ("three-slot", "compare"): {
        "compare.csv": "256ce13dd723c80243118aa3247704d7f5d795e7ba924938e7970454f35acbfb",
    },
    ("three-slot", "plan"): {
        "phase1_plan.json": "05a72cbb5473b5af342e26e6f7377bea891bff82a9ce218d261cab862386edd8",
        "phase2_plan.json": "ea6867805e2f381aec51c3055e30ad2a3f7b1382ef0d9bc140ce10e43291da43",
        "summary.txt": "429f46f56d68b29174baf9711cf8e7703183d462dc2a29eab9b782d42e6ebd53",
    },
    ("three-slot", "sweep"): {
        "sweep_hover_multiplier.csv": "d1c5880b6866d46475e5f0e566ed06d9c084025291a2ebe488e04e6cba629887",
    },
}


def run_pinned(tmp_path, setup, command) -> dict[str, str]:
    """The sha256 of each file ``command`` writes for one pinned setup."""
    data = json.loads((ROOT / "data" / "instance.json").read_text())
    body = {
        "seed": 0,
        "sweep": {"parameter": "penalty_C_p", "grid": [0.5, 1.0, 1.5, 2.0]},
        "compare": {"multipliers": [0.5, 1.0, 2.0], "n_seeds": 30},
    }
    if setup == "three-slot":
        data["time_slots"] = 3
        body["sweep"] = {"parameter": "hover_multiplier", "grid": [0.5, 1.0, 2.0]}
    (tmp_path / "instance.json").write_text(json.dumps(data))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, instance="instance.json", out=str(out), **body)
    assert cli.main([command, "--config", cfg]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize(
    "setup, command",
    sorted(PINNED_OUTPUTS),
    ids=[f"{setup}-{command}" for setup, command in sorted(PINNED_OUTPUTS)],
)
def test_outputs_pinned(tmp_path, setup, command):
    assert run_pinned(tmp_path, setup, command) == PINNED_OUTPUTS[setup, command]
