"""The ``fleet-sharded`` workload, run in a child process of its own.

A job is one ``run_fleet_sharded`` call (thresholding arm, streaming,
two workers, 10% dropout), one ``run_fleet_categorical`` call (OLH over
32 categories, two workers) over the same devices, and the analyst's
per-epoch read (moments mean, ``estimate_from_counts``).  No socket.

The parent side, :func:`run` (called by ``run.py``), starts this file
in ``--mode setup`` several times to time a cold start, then once in
``--mode run``, which prints one JSON object with its measurements.
Running in a child keeps the CPU and peak-memory figures the program's
own: ``os.times`` covers this process and its reaped pool workers,
``VmHWM`` and ``RUSAGE_CHILDREN`` their peaks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from common import ROOT, GateFailure, Tracer, median, normalized, program_env, split_evenly, stop_process

SENSOR_RANGE = (0.0, 50.0)
EPSILON = 2.0
CATEGORIES = 32
OLH_EPSILON = 2.0
DEVICES = 200_000
EPOCHS = 8
DROPOUT = 0.1
WORKERS = 2
#: Jobs per second of ``--seconds``; a job takes about 1.4 s here.
JOBS_PER_S = 0.7
#: Timed repetitions of each runner alone in the traced run.
RUNNER_REPEATS = 3


def inputs(seed: int, devices: int, epochs: int) -> Tuple[np.ndarray, np.ndarray]:
    from repro.rng import audited_generator

    gen = audited_generator([seed, 0])
    truth = gen.uniform(5.0, 45.0, size=(epochs, devices))
    categories = np.minimum(gen.geometric(0.15, size=(epochs, devices)) - 1, CATEGORIES - 1)
    return truth, categories.astype(np.int64)


def numeric_run(truth: np.ndarray, seed: int, job: int, workers: int):
    from repro.mechanisms import SensorSpec
    from repro.parallel import run_fleet_sharded
    from repro.rng import audited_generator

    return run_fleet_sharded(
        truth, SensorSpec(*SENSOR_RANGE), EPSILON, arm="thresholding",
        dropout=DROPOUT, rng=audited_generator([seed, job, 1]),
        source_seed=[seed, job, 2], workers=workers, streaming=True,
        with_devices=False,
    )


def categorical_run(categories: np.ndarray, seed: int, job: int, workers: int):
    from repro.parallel import run_fleet_categorical
    from repro.rng import audited_generator

    return run_fleet_categorical(
        categories, CATEGORIES, OLH_EPSILON, oracle="olh", dropout=DROPOUT,
        rng=audited_generator([seed, job, 3]), source_seed=[seed, job, 4],
        workers=workers,
    )


def estimate(numeric, categorical, call=None) -> None:
    """The analyst's per-epoch read: moments mean, OLH estimates."""
    from repro.queries import estimate_from_counts

    call = call or (lambda _name, fn, *a: fn(*a))
    server, cat_server = numeric.server, categorical.server
    for epoch in server.epochs:
        call("queries.estimate", server.moments, epoch)
        if epoch in cat_server.categorical_epochs:
            counts, n = cat_server.category_counts(epoch)
            call("queries.estimate", estimate_from_counts, categorical.oracle, counts, n)


def reports_of(numeric, categorical) -> Tuple[int, int]:
    n_num = sum(int(numeric.server.moments(e)["count"]) for e in numeric.server.epochs)
    n_cat = sum(categorical.server.category_counts(e)[1] for e in categorical.server.categorical_epochs)
    return n_num, n_cat


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        own = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def gates(truth, categories, seed: int, numeric, categorical) -> List[Tuple[str, bool]]:
    """Job 0 at two workers is bit-identical to its inline run, and the
    OLH estimates equal ``estimate_from_counts`` over the server's counts."""
    from repro.queries import estimate_from_counts

    inline_num = numeric_run(truth, seed, 0, 1)
    inline_cat = categorical_run(categories, seed, 0, 1)
    out = [
        ("numeric-workers-bit-identical",
         normalized(inline_num.server.snapshot()) == normalized(numeric.server.snapshot())),
        ("categorical-workers-bit-identical",
         normalized(inline_cat.server.snapshot()) == normalized(categorical.server.snapshot())),
    ]
    server = categorical.server
    ok = len(categorical.estimates) == len(server.categorical_epochs) > 0
    for est, epoch in zip(categorical.estimates, server.categorical_epochs):
        counts, n = server.category_counts(epoch)
        ok &= np.array_equal(est.frequencies, estimate_from_counts(categorical.oracle, counts, n).frequencies)
    out.append(("olh-estimates", ok))
    return out


#: Job number of the cold 1-epoch call (never a timed job's number).
COLD_JOB = 1_000_000


def cold_call(seed: int, devices: int) -> None:
    truth, categories = inputs(seed, devices, 1)
    numeric_run(truth, seed, COLD_JOB, WORKERS)
    categorical_run(categories, seed, COLD_JOB, WORKERS)


def run_window(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    devices, epochs = (2_000, 2) if smoke else (DEVICES, EPOCHS)
    jobs = 1 if smoke else max(2, int(round(JOBS_PER_S * seconds)))
    truth, categories = inputs(seed, devices, epochs)
    cold_call(seed, devices)  # warm: imports, codebook, first pool
    jobs_out: List[Dict[str, float]] = []
    first = None
    for job in range(jobs):
        cpu0 = _cpu()
        t0 = time.perf_counter()
        numeric = numeric_run(truth, seed, job, WORKERS)
        categorical = categorical_run(categories, seed, job, WORKERS)
        estimate(numeric, categorical)
        jobs_out.append({
            "reports": sum(reports_of(numeric, categorical)),
            "seconds": time.perf_counter() - t0,
            "cpu_s": _cpu() - cpu0,
        })
        if first is None:
            first = (numeric, categorical)
    checks = gates(truth, categories, seed, *first)
    return {
        "jobs": jobs_out,
        "peak_rss_mib": _peak_rss_mib(),
        "devices": devices,
        "epochs": epochs,
        "gates": checks,
    }


def run_traced(seed: int, smoke: bool, spans_path: str) -> Dict[str, Any]:
    from repro.aggregation import AggregationServer
    from repro.mechanisms import ThresholdingMechanism
    from repro.mechanisms.oracles import OptimizedLocalHashing
    from repro.runtime.pipeline import ReleasePipeline

    devices, epochs = (2_000, 2) if smoke else (DEVICES, EPOCHS)
    truth, categories = inputs(seed, devices, epochs)
    cold_call(seed, devices)
    repeats = 1 if smoke else RUNNER_REPEATS

    def timed(fn, *args) -> float:
        t = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t

    par_num = median([timed(numeric_run, truth, seed, r, WORKERS) for r in range(repeats)])
    par_cat = median([timed(categorical_run, categories, seed, r, WORKERS) for r in range(repeats)])

    def inline_job(tracer: Tracer):
        # This file's own calls into the runners and queries, in spans.
        numeric = tracer.call("parallel.run_fleet_sharded", numeric_run, truth, seed, 0, 1)
        categorical = tracer.call("parallel.run_fleet_categorical", categorical_run, categories, seed, 0, 1)
        estimate(numeric, categorical, call=lambda name, fn, *a: tracer.call(name, fn, *a))
        tracer.call("aggregation.snapshot", numeric.server.snapshot)
        return numeric, categorical

    # The untraced replay: spans only around this file's own calls.
    light = Tracer(enabled=True)
    t = time.perf_counter()
    inline_job(light)
    untraced = time.perf_counter() - t
    inline = light.totals()

    tracer = Tracer(enabled=True)
    draws = [0]

    def count_draws(outcome):
        draws[0] += int(np.asarray(outcome.rounds).sum())

    def size(_self, x, *a, **k) -> int:
        return int(np.asarray(x).size)

    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.patched(
            ThresholdingMechanism, "release", "mechanisms.release", size, observe=count_draws))
        stack.enter_context(tracer.patched(ReleasePipeline, "release", "runtime.release"))
        stack.enter_context(tracer.patched(OptimizedLocalHashing, "report", "mechanisms.oracle_report", size))
        stack.enter_context(tracer.patched(OptimizedLocalHashing, "support_counts", "mechanisms.support_counts", size))
        stack.enter_context(tracer.patched(AggregationServer, "submit_array", "aggregation.fold"))
        stack.enter_context(tracer.patched(AggregationServer, "submit_counts", "aggregation.fold"))
        t = time.perf_counter()
        numeric, categorical = inline_job(tracer)
        traced = time.perf_counter() - t
    tracer.dump(pathlib.Path(spans_path))

    n_num, n_cat = reports_of(numeric, categorical)
    totals = tracer.totals()

    def per(name: str, base: int, key: str = "incl_ns"):
        if name in tracer.notes:
            return None
        slot = totals.get(name)
        return slot[key] / base if slot and base else 0.0

    snap = totals.get("aggregation.snapshot")
    est = totals.get("queries.estimate")
    layer = {
        "mechanisms.release_ns_per_report": per("mechanisms.release", n_num),
        "mechanisms.oracle_report_ns_per_report": per("mechanisms.oracle_report", n_cat),
        "mechanisms.support_counts_ns_per_report": per("mechanisms.support_counts", n_cat),
        "runtime.draws_per_report": draws[0] / n_num if "mechanisms.release" not in tracer.notes else None,
        "protocol.encode_ns_per_report": 0.0,
        "protocol.decode_ns_per_report": 0.0,
        "guards.check_ns_per_report": 0.0,
        "guards.commit_ns_per_report": 0.0,
        "guards.admitted_share": 0.0,
        "aggregation.fold_ns_per_report": per("aggregation.fold", n_num + n_cat),
        "aggregation.devices_tracked": float(numeric.server.snapshot()["n_devices_tracked"]),
        "aggregation.snapshot_us": snap["incl_ns"] / snap["calls"] / 1e3 if snap else 0.0,
        "queries.estimate_us_per_epoch": est["incl_ns"] / len(numeric.server.epochs) / 1e3 if est else 0.0,
        "service.admit_p50_us": 0.0,
        "service.admit_p99_us": 0.0,
        "service.max_queue_depth": 0.0,
        "service.busy_replies": 0.0,
        "service.events_per_request": 0.0,
        "service.residual_ns_per_report": 0.0,
        "parallel.numeric_run_s": par_num,
        "parallel.categorical_run_s": par_cat,
        "parallel.speedup": (inline["parallel.run_fleet_sharded"]["incl_ns"]
                             + inline["parallel.run_fleet_categorical"]["incl_ns"]) / 1e9 / (par_num + par_cat),
        "loadgen.lag_p99_ms": 0.0,
        "trace.overhead_share": traced / untraced - 1.0,
    }
    reports = n_num + n_cat
    table = {
        "reports": reports,
        "rows": {name: {**t, "self_ns_per_report": t["self_ns"] / reports} for name, t in totals.items()},
        "inline_job_s": untraced,
    }
    return {"per_layer": layer, "table": table, "notes": tracer.notes}


# ---------------------------------------------------------------------------
# The parent side: cold starts, then one child for the window
# ---------------------------------------------------------------------------
def _spawn(args: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        stdout=subprocess.PIPE, env=program_env(), cwd=ROOT,
    )


def _child(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run one child to the end; its last stdout line is its result."""
    proc = _spawn(args)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        stop_process(proc)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise GateFailure(f"fleet child {args[:2]} exited {proc.returncode}")
    return json.loads(lines[-1])


def _setup_time(seed: int, smoke: bool) -> float:
    """Spawn until the child's cold 1-epoch call has returned."""
    t0 = time.perf_counter()
    proc = _spawn(["--mode", "setup", "--seed", str(seed)] + (["--smoke"] if smoke else []))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        proc.stdout.close()
        stop_process(proc)
    if not line or not json.loads(line).get("ready"):
        raise GateFailure("fleet setup child did not become ready")
    return elapsed


def run(seed: int, seconds: float, trace: bool, smoke: bool, setups: int,
        spans_path: str) -> Dict[str, Any]:
    """The workload as ``run.py`` sees it: one child that runs the window
    (or the traced run), with ``setups`` cold starts before and after it."""
    before, after = split_evenly(setups, 2)
    setup_times = [_setup_time(seed, smoke) for _ in range(before)]
    common_args = ["--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    if trace:
        child = _child(
            ["--mode", "run", "--trace", "1", "--spans", spans_path, *common_args], 170)
        return {"setup_times": setup_times, "per_layer": child["per_layer"],
                "table": child["table"], "notes": child["notes"], "gate_list": [],
                "attempted": 1, "failed_ops": 0}
    child = _child(["--mode", "run", *common_args], 170)
    setup_times += [_setup_time(seed, smoke) for _ in range(after)]
    jobs = child["jobs"]
    return {
        "setup_times": setup_times,
        "reports_per_s": median([j["reports"] / j["seconds"] for j in jobs]),
        "cpu_us_per_report": median([j["cpu_s"] * 1e6 / j["reports"] for j in jobs]),
        "peak_rss_mb": child["peak_rss_mib"],
        "gate_list": child["gates"],
        "attempted": 2 * len(jobs),
        "failed_ops": 0,
        "windows": jobs,
        "shape": {"devices": child["devices"], "epochs": child["epochs"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fleet-sharded workload child")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        cold_call(args.seed, 2_000 if args.smoke else DEVICES)
        print(json.dumps({"ready": True}), flush=True)
        return 0
    if args.trace:
        out = run_traced(args.seed, args.smoke, args.spans)
    else:
        out = run_window(args.seed, args.seconds, args.smoke)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
