"""Tests of the benchmark itself: inputs, span arithmetic, output checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402
from uavplan.milp import Solution, solve_exact  # noqa: E402

REFERENCES = json.loads((BENCH / "references.json").read_text())


def _inputs(name: str, seed: int, workdir: Path):
    """What a workload hands the program: file bytes, or model texts."""
    if name == "oracle-xval":
        return [m.to_lp_text() for m in wl.oracle_models(seed)]
    wl.build_workload(name, seed, ROOT / "data", workdir, REFERENCES)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    assert _inputs(name, 7, tmp_path / "a") == _inputs(name, 7, tmp_path / "b")


def test_oracle_seed_changes_the_models_but_not_their_difficulty():
    a, b = wl.oracle_models(1, count=6), wl.oracle_models(2, count=6)
    assert [m.to_lp_text() for m in a] != [m.to_lp_text() for m in b]
    for ma, mb in zip(a, b):
        ea, eb = solve_exact(ma), solve_exact(mb)
        assert ea.status == eb.status
        assert ea.nodes_explored == eb.nodes_explored
        if ea.status == "optimal":
            assert ea.objective == pytest.approx(eb.objective, abs=1e-9)


def test_instance_workloads_derive_from_the_bundled_network():
    base = json.loads((ROOT / "data" / "instance.json").read_text())
    inst, sections, commands = wl.instance_spec("multislot-t3", base)
    assert inst["time_slots"] == 3 and commands == ["sweep"]
    assert sections["sweep"] == {"parameter": "hover_multiplier", "grid": [1.0]}
    inst, _, commands = wl.instance_spec("bundled-cli", base)
    assert inst == base and commands == ["plan", "sweep", "compare"]
    assert base["time_slots"] == 1  # left untouched


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _span(name, layer, start, end, parent, job=0):
    return [name, layer, start, end, parent, job]


def test_self_times_on_a_synthetic_tree():
    # job 0: root [0, 10] > cli [1, 9] > planner [2, 8] > milp [3, 5], costs [6, 7]
    # job 1: root [20, 24] > milp [21, 22]
    spans = [
        _span("job:a", "bench", 0.0, 10.0, -1),
        _span("cli.main", "cli", 1.0, 9.0, 0),
        _span("planner.solve_phase2", "planner", 2.0, 8.0, 1),
        _span("milp.solve_exact", "milp", 3.0, 5.0, 2),
        _span("costs.decode_cost", "costs", 6.0, 7.0, 2),
        _span("job:b", "bench", 20.0, 24.0, -1, job=1),
        _span("milp.solve_exact", "milp", 21.0, 22.0, 5, job=1),
    ]
    assert sp.self_times(spans) == [2.0, 2.0, 3.0, 2.0, 1.0, 3.0, 1.0]
    by_job = sp.layer_self_by_job(spans, sp.self_times(spans))
    assert by_job[0] == {"bench": 2.0, "cli": 2.0, "planner": 3.0, "milp": 2.0, "costs": 1.0}
    assert by_job[1] == {"bench": 3.0, "milp": 1.0}
    assert sp.root_durations(spans) == {0: 10.0, 1: 4.0}
    assert sp.self_sum_error(spans) == 0.0
    assert sp.sum_self(spans, sp.self_times(spans), ["milp.solve_exact"]) == 3.0


def test_tracer_wraps_every_namespace_and_restores_it():
    import uavplan
    import uavplan.cli
    import uavplan.planner

    original = uavplan.planner.plan_both_phases
    tracer = sp.Tracer()
    tracer.install(uavplan)
    try:
        assert uavplan.cli.plan_both_phases is uavplan.planner.plan_both_phases
        assert uavplan.planner.plan_both_phases is not original
        assert uavplan.plan_both_phases is uavplan.planner.plan_both_phases
        model = wl.gate3_models(1)[0]
        tracer.run_job(0, "job:x", uavplan.milp.solve_exact, model)
    finally:
        tracer.uninstall()
    assert uavplan.planner.plan_both_phases is original
    assert uavplan.cli.plan_both_phases is original
    names = [s[sp.NAME] for s in tracer.spans]
    assert names[0] == "job:x" and "milp.solve_exact" in names
    assert all(s[sp.END] >= s[sp.START] for s in tracer.spans)
    assert sp.self_sum_error(tracer.spans) < 1e-9


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _write_outputs(out: Path, ref: dict, scale: float = 1.0) -> None:
    out.mkdir(parents=True, exist_ok=True)
    plan = ref["plan"]["composed_expected_cost"] * scale
    (out / "phase2_plan.json").write_text(json.dumps({"composed_expected_cost": plan}))
    sweep = ref["sweep"]
    rows = "".join(
        f"{sweep['parameter']},{i},{obj * scale!r},x\n" for i, obj in enumerate(sweep["objectives"])
    )
    (out / f"sweep_{sweep['parameter']}.csv").write_text("parameter,value,objective,summary\n" + rows)
    cmp_ = ref["compare"]
    rows = "".join(
        f"{m!r},{s * scale!r},{e!r},{r!r}\n"
        for m, s, e, r in zip(
            cmp_["multipliers"], cmp_["sip_cost"], cmp_["evf_cost"], cmp_["random_cost"]
        )
    )
    (out / "compare.csv").write_text("multiplier,sip_cost,evf_cost,random_cost\n" + rows)


@pytest.mark.parametrize("command", ["plan", "sweep", "compare"])
def test_checker_accepts_the_references_and_flags_a_perturbed_objective(command, tmp_path):
    ref = REFERENCES["bundled-cli"]
    _write_outputs(tmp_path / "good", ref)
    assert wl.check_outputs(command, tmp_path / "good", ref[command]) == []
    _write_outputs(tmp_path / "bad", ref, scale=1.0 + 1e-8)
    assert wl.check_outputs(command, tmp_path / "bad", ref[command])


def test_checker_flags_missing_outputs(tmp_path):
    problems = wl.check_outputs("plan", tmp_path, REFERENCES["bundled-cli"]["plan"])
    assert problems and "unreadable" in problems[0]


def test_oracle_check_flags_a_perturbed_objective():
    model = wl.gate3_models(1)[0]
    exact = solve_exact(model)
    assert exact.status == "optimal"
    assert wl.check_oracle(model, exact, exact) == []
    off = Solution("optimal", exact.objective + 1e-6, exact.assignment)
    assert wl.check_oracle(model, exact, off)
    assert wl.check_oracle(model, exact, Solution("infeasible", None, None))
