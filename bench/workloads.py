"""Workload inputs, the jobs that run them, and the output checks.

Every workload is a list of jobs; one pass runs each job once. The
two instance workloads write a derived copy of ``data/instance.json``
and a run config into a work directory, and each job is one
``uavplan.cli.main`` call in process. ``oracle-xval`` builds random
integer programs and each job solves one with branch and bound and
with the enumerator. See README.md for why each workload is here.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("bundled-cli", "multislot-t3", "oracle-xval")

# oracle-xval: the first ORACLE_MODELS models of acceptance gate 3's
# random integer programs (drawn from GATE3_SEED), each with its
# variables and rows put in an order drawn from the workload seed
ORACLE_MODELS = 30
GATE3_SEED = 3

REL_TOL = 1e-9
ORACLE_OBJ_TOL = 1e-9
ORACLE_VIOLATION_TOL = 1e-6


@dataclass
class Job:
    """One timed unit of work. ``run`` is timed; ``prepare`` (clear old
    outputs) and ``check`` (returns a list of problems) are not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# instance workloads
# ---------------------------------------------------------------------------


def instance_spec(name: str, base: dict) -> tuple[dict, dict, list[str]]:
    """(instance dict, config sections, subcommands) for an instance
    workload, derived from the bundled network ``base``."""
    if name == "bundled-cli":
        sections = {
            "sweep": {"parameter": "penalty_C_p", "grid": [0.5, 1.0, 1.5, 2.0]},
            "compare": {"n_seeds": 30},
        }
        return copy.deepcopy(base), sections, ["plan", "sweep", "compare"]
    if name == "multislot-t3":
        inst = copy.deepcopy(base)
        inst["time_slots"] = 3
        sections = {"sweep": {"parameter": "hover_multiplier", "grid": [1.0]}}
        return inst, sections, ["sweep"]
    raise ValueError(f"not an instance workload: {name!r}")


def _rel_close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(command: str, out: Path, ref: dict) -> list[str]:
    """Compare one command's output files with the pinned references."""
    problems: list[str] = []
    try:
        if command == "plan":
            got = json.loads((out / "phase2_plan.json").read_text())
            want = ref["composed_expected_cost"]
            if not _rel_close(got["composed_expected_cost"], want):
                problems.append(
                    f"plan: composed cost {got['composed_expected_cost']!r} != {want!r}"
                )
        elif command == "sweep":
            rows = _read_csv(out / f"sweep_{ref['parameter']}.csv")
            got = [float(r["objective"]) for r in rows]
            if len(got) != len(ref["objectives"]) or not all(
                _rel_close(g, w) for g, w in zip(got, ref["objectives"])
            ):
                problems.append(f"sweep: objectives {got} != {ref['objectives']}")
        elif command == "compare":
            rows = _read_csv(out / "compare.csv")
            if len(rows) != len(ref["sip_cost"]):
                problems.append(f"compare: {len(rows)} rows, expected {len(ref['sip_cost'])}")
            for i, row in enumerate(rows):
                mult, sip, evf, rnd = (
                    float(row[k]) for k in ("multiplier", "sip_cost", "evf_cost", "random_cost")
                )
                pinned = ("multipliers", mult), ("sip_cost", sip), ("evf_cost", evf), ("random_cost", rnd)
                for key, val in pinned:
                    if i < len(ref[key]) and not _rel_close(val, ref[key][i]):
                        problems.append(f"compare row {i}: {key} {val!r} != {ref[key][i]!r}")
                if not sip <= evf:
                    problems.append(f"compare row {i}: sip_cost {sip} > evf_cost {evf}")
                if not sip <= rnd:
                    problems.append(f"compare row {i}: sip_cost {sip} > random_cost {rnd}")
        else:
            problems.append(f"no check for command {command!r}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{command}: unreadable output: {exc!r}")
    return problems


def _cli_job(command: str, config: Path, out: Path, ref: dict) -> Job:
    argv = [command, "--config", str(config), "--out", str(out)]

    def prepare() -> None:
        shutil.rmtree(out, ignore_errors=True)

    def run() -> int:
        import uavplan.cli  # looked up per call so a traced pass sees the wrapper

        with contextlib.redirect_stdout(io.StringIO()):
            return uavplan.cli.main(argv)

    def check(rc: object) -> list[str]:
        if rc != 0:
            return [f"{command}: exit code {rc}"]
        return check_outputs(command, out, ref)

    return Job(name=command, run=run, check=check, prepare=prepare)


def instance_workload(name: str, base: dict, workdir: Path, references: dict) -> list[Job]:
    """Write the derived instance and its config; one CLI job per command.

    The workload seed is not used. The config keeps ``seed: 0``, so
    ``compare``'s random baseline always draws seeds 0 to 29: the
    rejection sampler's work over 30 consecutive seeds ranges from
    0.6 s to 2.1 s depending on the first seed (8 multipliers), which a
    seed-driven baseline would turn into run-to-run spread."""
    inst, sections, commands = instance_spec(name, base)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "instance.json").write_text(json.dumps(inst, indent=1))
    config = {"schema_version": 1, "instance": "instance.json", "seed": 0, **sections}
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps(config, indent=1))
    refs = references[name]
    return [
        _cli_job(cmd, config_path, workdir / f"out-{cmd}", refs[cmd])
        for cmd in commands
    ]


# ---------------------------------------------------------------------------
# oracle-xval: random integer programs, branch and bound vs enumeration
# ---------------------------------------------------------------------------


def gate3_models(count: int) -> list:
    """The random integer programs of acceptance gate 3, in order.

    5 to 25 variables (70% binary, the rest small integer ranges),
    1 to 8 rows, enumeration space capped at 1e6; nine in ten models
    are anchored at a feasible integer point, every tenth keeps fully
    random right-hand sides."""
    from uavplan.milp import IPModel

    rng = np.random.default_rng(GATE3_SEED)
    models = []
    for trial in range(count):
        n = int(rng.integers(5, 26))
        m = int(rng.integers(1, 9))
        anchored = trial % 10 != 9
        model = IPModel(f"cross{trial}")
        space = 1
        los, his = [], []
        for j in range(n):
            if rng.random() < 0.7:
                lo, hi = 0, 1
            else:
                lo = int(rng.integers(-2, 1))
                hi = lo + int(rng.integers(1, 5))
            if space * (hi - lo + 1) > 1_000_000:
                lo = hi = 0  # keep the enumeration space under the cap
            space *= hi - lo + 1
            kind = "binary" if (lo, hi) == (0, 1) else "integer"
            model.add_variable(f"x{j}", kind, lower=float(lo), upper=float(hi))
            los.append(lo)
            his.append(hi)
        anchor = np.array([float(rng.integers(lo, hi + 1)) for lo, hi in zip(los, his)])
        for j in range(n):
            model.add_objective_term(j, float(np.round(rng.normal(), 3)))
        model.add_objective_constant(float(np.round(rng.normal(), 3)))
        for i in range(m):
            size = int(rng.integers(1, n + 1))
            cols = rng.choice(n, size=size, replace=False)
            coefs = np.round(rng.normal(size=size), 3)
            terms = [(int(j), float(c)) for j, c in zip(cols, coefs)]
            sense = str(rng.choice(["<=", ">=", "=="]))
            if anchored:
                at = float(coefs @ anchor[cols])
                slack = float(np.round(abs(rng.normal()), 3))
                rhs = {"<=": at + slack, ">=": at - slack, "==": at}[sense]
            else:
                rhs = float(np.round(rng.normal() * 3.0, 3))
            model.add_constraint(terms, sense, rhs, name=f"c{i}")
        models.append(model)
    return models


def permuted(model, rng: np.random.Generator):
    """The same program with its variables and rows in a random order."""
    from uavplan.milp import IPModel

    n = model.num_variables
    order = rng.permutation(n)  # new position j holds old variable order[j]
    new_id = np.empty(n, dtype=int)
    new_id[order] = np.arange(n)
    out = IPModel(model.name)
    for j in order:
        v = model.variables[j]
        out.add_variable(v.name, v.kind, lower=v.lower, upper=v.upper)
    c = model.objective_vector()
    for j in range(n):
        if c[order[j]] != 0.0:
            out.add_objective_term(j, float(c[order[j]]))
    out.add_objective_constant(model.objective_constant)
    for i in rng.permutation(len(model.constraints)):
        row = model.constraints[i]
        terms = [(int(new_id[vid]), coef) for vid, coef in zip(row.ids, row.coefs)]
        out.add_constraint(terms, row.sense, row.rhs, name=row.name)
    return out


def oracle_models(seed: int, count: int = ORACLE_MODELS) -> list:
    """Gate 3's first ``count`` models, reordered by the workload seed.

    Reordering leaves each model's difficulty alone (branch and bound
    explores the same number of nodes), so every seed does the same
    work; a freshly drawn set would not (see README.md)."""
    rng = np.random.default_rng(seed)
    return [permuted(model, rng) for model in gate3_models(count)]


def check_oracle(model, exact, brute) -> list[str]:
    """Branch and bound must match enumeration on status and objective,
    and return a point feasible to ``ORACLE_VIOLATION_TOL``."""
    if exact.status != brute.status:
        return [f"{model.name}: status {exact.status} != enumeration {brute.status}"]
    if exact.status != "optimal":
        return []
    problems = []
    if abs(exact.objective - brute.objective) > ORACLE_OBJ_TOL:
        problems.append(
            f"{model.name}: objective {exact.objective!r} != enumeration {brute.objective!r}"
        )
    violation = model.max_violation(exact.assignment)
    if violation > ORACLE_VIOLATION_TOL:
        problems.append(f"{model.name}: max violation {violation:.3g}")
    return problems


def _oracle_job(model) -> Job:
    def run():
        import uavplan.milp as milp  # looked up per call so a traced pass sees the wrapper

        return milp.solve_exact(model), milp.solve_enumerate(model)

    def check(result) -> list[str]:
        return check_oracle(model, *result)

    return Job(name=model.name, run=run, check=check)


def build_workload(
    name: str, seed: int, data_dir: Path, workdir: Path, references: dict
) -> list[Job]:
    """Everything a workload needs before its first timed job: its jobs."""
    if name == "oracle-xval":
        return [_oracle_job(m) for m in oracle_models(seed)]
    base = json.loads((data_dir / "instance.json").read_text())
    return instance_workload(name, base, workdir, references)
