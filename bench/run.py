"""uavplan benchmark: one workload per invocation, every output checked.

    python3 bench/run.py --workload bundled-cli --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout (``src/uavplan`` and ``data/``
must be there; nothing is installed). The workload is built from the
seed, then passes over its jobs repeat until ``--seconds`` have gone
by (at least ``MIN_PASSES``). Every job's output is checked against
pinned references; a failed check marks the job failed.

``--trace 0`` prints the end-to-end metrics: medians over the passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics taken from the traced passes. The last stdout line is
the result object; the line before it carries the environment, the job
counts and the per-pass figures.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before any heavy import

import argparse
import gzip
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from spans import Tracer, self_sum_error

# one BLAS thread: the kernel's matrices are small, and on a 2-core
# machine a second BLAS thread made passes slower and noisier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
WORK = BENCH_DIR / "_work"

MIN_PASSES = 3  # untraced run; a traced run makes at least two, one of each kind
SETUP_PROBES = 9
SETUP_PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def require_checkout() -> None:
    missing = [str(p) for p in (SRC / "uavplan", DATA / "instance.json") if not p.exists()]
    if missing:
        sys.exit(f"bench: not a uavplan source checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))


def load_references() -> dict:
    return json.loads((BENCH_DIR / "references.json").read_text())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Child process: import, load, generate, report the elapsed time."""
    import uavplan  # noqa: F401  (the import is part of what is timed)
    from workloads import build_workload

    workdir = WORK / f"probe-{os.getpid()}"
    try:
        build_workload(args.workload, args.seed, DATA, workdir, load_references())
        elapsed = time.perf_counter() - _T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Median-ready set-up samples, each from a fresh process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "1",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once. Job times exclude preparation and checks."""
    times, failures, failed = [], [], 0
    for jid, job in enumerate(jobs):
        job.prepare()
        t = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                result = tracer.run_job(jid, f"job:{job.name}", job.run)
            times.append(time.perf_counter() - t)
            problems = job.check(result)
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            times.append(time.perf_counter() - t)
            problems = [f"{job.name}: raised {exc!r}"]
        failed += bool(problems)
        failures.extend(problems)
    return {"wall_s": sum(times), "job_s": times, "failed": failed, "failures": failures}


def repeat_passes(seconds: float, min_passes: int, step) -> list:
    """Call ``step(i)`` while the next call, taking as long as the last
    one, still ends within ``seconds`` (at least ``min_passes`` calls)."""
    start = time.perf_counter()
    results: list = []
    last = 0.0
    while len(results) < min_passes or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - t
    return results


def job_latencies(passes: list[dict]) -> tuple[float, float, str]:
    """(median, tail, tail label) over the workload's jobs, each job
    taken as its median time over the passes.

    The tail is the highest percentile with at least ten jobs beyond
    it, so its quantile depends only on the jobs per pass; with fewer
    than eleven jobs it is the slowest job."""
    n = len(passes[0]["job_s"])
    per_job = sorted(statistics.median(p["job_s"][i] for p in passes) for i in range(n))
    if n >= 11:
        idx = n - 11
        label = f"p{100 * idx / (n - 1):.0f} of {n} jobs (10 beyond)"
    else:
        idx = n - 1
        label = f"slowest of {n} job(s)"
    return statistics.median(per_job), per_job[idx], label


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "job_tail_s": (job_latencies(passes)[1], "s"),
    }


def traced_run(package, jobs, seconds: float):
    """Alternate untraced and traced passes for ``seconds`` (at least
    one of each). Returns (passes, per-layer metrics, spans of the last
    traced pass, layer self totals of that pass)."""
    untraced, traced, per_pass = [], [], []
    last: dict = {"spans": [], "models": []}

    def step(i: int) -> dict:
        if i % 2 == 0:
            result = run_pass(jobs)
            untraced.append(result["wall_s"])
            return result
        counts = layers.Counts()
        tracer = Tracer(counts.observers())
        tracer.install(package)
        try:
            result = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        error = self_sum_error(tracer.spans)
        if error > layers.SELF_SUM_TOL:
            result["failed"] += 1
            result["failures"].append(f"layer self times miss their job span by {error:.3g}")
        traced.append(result["wall_s"])
        per_pass.append(layers.pass_metrics(tracer.spans, counts))
        last["spans"], last["models"] = tracer.spans, list(counts.models.values())
        return result

    passes = repeat_passes(seconds, 2, step)
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["milp.root_lp_s"] = (layers.root_lp_seconds(last["models"]), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio",
    )
    return passes, metrics, last["spans"], layers.layer_self_totals(last["spans"])


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg: tuple[float, float, float]) -> dict:
    import hashlib
    import platform

    import numpy as np

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "uavplan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through ``finally``, so the work directory goes


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    require_checkout()
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup = [] if args.trace else measure_setup(args)

    import uavplan
    from workloads import build_workload

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        jobs = build_workload(args.workload, args.seed, DATA, workdir, load_references())
        if args.trace:
            passes, metrics, spans, layer_self = traced_run(uavplan, jobs, args.seconds)
        else:
            passes = repeat_passes(args.seconds, MIN_PASSES, lambda i: run_pass(jobs))
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    job_p50, _, tail_label = job_latencies(passes)
    failures = [f for p in passes for f in p["failures"]]
    failed_jobs = sum(p["failed"] for p in passes)
    attempted = sum(len(p["job_s"]) for p in passes)
    if args.trace:
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(trace_path, "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(loadavg),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "job_p50_s": job_p50,
        "job_tail_quantile": tail_label,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup,
        "layer_self_s": layer_self if args.trace else None,
        "fail_ratio": failed_jobs / attempted,
        "failures": failures[:20],
    }
    print(json.dumps(detail))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
