"""Parallel-fleet bench — sharded multi-core execution vs single-process.

Sweeps the sharded fleet runner (``repro.parallel.run_fleet_sharded``)
across fleet sizes under the hardware (CORDIC) logarithm with the live
per-draw datapath — the compute-bound regime where extra cores matter —
and reports, per size, the single-process time, the pool time (median
and spread over three runs each), the speedup, and the mode the
adaptive planner's auto mode (``plan_execution`` with no pinned worker
count) picks for that size on this host.

Before timing anything it verifies the headline invariant on a small
fleet: a run sharded across W workers is bit-identical to the same plan
at ``workers=1`` — the numeric fleet's values and the OLH fleet's
support counts, and both servers' per-device disclosure bounds — and a
``shards=1`` run is bit-identical to the legacy unsharded batched fleet.

The ≥2× speedup floor is only asserted on machines with ≥4 cores (and
not in ``--quick`` mode); smaller hosts still record the sweep so the
trajectory is visible in ``BENCH_parallel.json`` (schema 3).

Standalone script (not pytest-benchmark): CI runs ``--quick`` with two
workers as a smoke test, developers run it bare for the full sweep.
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

from repro.aggregation import run_fleet
from repro.mechanisms import SensorSpec
from repro.parallel import (
    plan_execution,
    plan_shards,
    run_fleet_categorical,
    run_fleet_sharded,
)
from repro.rng import CordicLn, audited_generator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_JSON = REPO_ROOT / "BENCH_parallel.json"

SENSOR = SensorSpec(0.0, 50.0)
EPSILON = 2.0
SEED = 20260806
MIN_SPEEDUP = 2.0
#: The floor only binds on machines with enough cores to show it.
MIN_CORES_FOR_FLOOR = 4

#: Fleet sizes swept (full mode) — the 50k row is the headline number.
SWEEP_SIZES = (5_000, 50_000, 500_000)
QUICK_SIZES = (500, 2_000)
#: Timed runs per configuration in full mode (median and range kept);
#: quick mode times each once.
REPEATS = 3


def _same_disclosure(a, b) -> bool:
    """Two servers hold the same per-device composition bound, bit for bit."""
    return list(a.disclosure.items()) == list(b.disclosure.items()) and (
        a.snapshot()["n_devices_tracked"] == b.snapshot()["n_devices_tracked"]
    )


def _categorical_identity_check(workers: int) -> bool:
    """OLH fleet: W workers ≡ 1 worker in counts and disclosure."""
    truth = audited_generator(SEED).integers(0, 16, size=(3, 600))
    one, many = (
        run_fleet_categorical(
            truth, 16, EPSILON, oracle="olh", dropout=0.15,
            rng=audited_generator(3), source_seed=SEED, shards=8, workers=w,
        )
        for w in (1, workers)
    )
    for epoch in one.server.categorical_epochs:
        counts_one, n_one = one.server.category_counts(epoch)
        counts_many, n_many = many.server.category_counts(epoch)
        if n_one != n_many or not np.array_equal(counts_one, counts_many):
            return False
    return _same_disclosure(one.server, many.server)


def _identity_check(workers: int) -> bool:
    """Bit-identity: W workers ≡ 1 worker (numeric values and disclosure,
    OLH counts and disclosure), and shards=1 ≡ unsharded."""
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(4, 96))
    common = dict(
        arm="thresholding",
        source_seed=SEED,
        dropout=0.15,
        device_budget=60.0,
    )
    one = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8, workers=1, **common
    )
    many = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8,
        workers=workers, **common
    )
    for epoch in one.server.epochs:
        if not np.array_equal(one.server.values(epoch), many.server.values(epoch)):
            return False
    if not _same_disclosure(one.server, many.server):
        return False
    if not _categorical_identity_check(workers):
        return False

    legacy = run_fleet(
        truth, SENSOR, EPSILON, rng=audited_generator(1), batched=True, **common
    )
    bridge = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=1, workers=1, **common
    )
    for epoch in legacy.server.epochs:
        if not np.array_equal(
            legacy.server.values(epoch), bridge.server.values(epoch)
        ):
            return False
    return True


def _run(truth, workers, shards) -> float:
    """Seconds for one streaming sharded run on the live CORDIC datapath."""
    t0 = time.perf_counter()
    run_fleet_sharded(
        truth,
        SENSOR,
        EPSILON,
        arm="thresholding",
        source_seed=SEED,
        rng=audited_generator(2),
        workers=workers,
        shards=shards,
        streaming=True,
        with_devices=False,
        log_backend=CordicLn(),
        kernel="live",
    )
    return time.perf_counter() - t0


def _timed(truth, workers, shards, repeats):
    """Median and [min, max] seconds over ``repeats`` runs."""
    times = sorted(_run(truth, workers, shards) for _ in range(repeats))
    return round(float(np.median(times)), 4), [round(times[0], 4), round(times[-1], 4)]


def _sweep_row(devices, epochs, workers, shards, repeats):
    """Timings, speedup and the planner's auto decision for one size."""
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(epochs, devices))
    auto = plan_execution(devices, epochs, shards=shards)
    t_single, single_spread = _timed(truth, 1, shards, repeats)
    t_parallel, parallel_spread = _timed(truth, workers, shards, repeats)
    return {
        "devices": devices,
        "epochs": epochs,
        "t_single_s": t_single,
        "t_single_range_s": single_spread,
        "t_parallel_s": t_parallel,
        "t_parallel_range_s": parallel_spread,
        "speedup": round(t_single / t_parallel, 3),
        "planner_auto": auto.describe(),
        "planner_auto_mode": auto.mode,
        "planner_estimated_serial_s": (
            None
            if auto.estimated_serial_s is None
            else round(auto.estimated_serial_s, 3)
        ),
    }


def _host(cores: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=24)
    parser.add_argument("--workers", type=int, default=None,
                        help="default: min(4, cpu_count)")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help="fleet sizes to sweep (default: 5k/50k/500k, or small in --quick)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=RESULTS_JSON,
        help="where to write the schema-3 JSON results",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small fleets, 2 workers, 1 repeat, no speedup floor",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.quick:
        sizes = tuple(args.sizes) if args.sizes else QUICK_SIZES
        epochs = min(args.epochs, 4)
        workers = 2 if args.workers is None else args.workers
        repeats = 1
    else:
        sizes = tuple(args.sizes) if args.sizes else SWEEP_SIZES
        epochs = args.epochs
        workers = min(4, cores) if args.workers is None else args.workers
        repeats = REPEATS
    assert_floor = (
        not args.quick
        and cores >= MIN_CORES_FOR_FLOOR
        and workers >= MIN_CORES_FOR_FLOOR
    )
    shards = plan_shards(max(sizes), args.shards).n_shards

    print(f"cores={cores} workers={workers} shards={shards} "
          f"sizes={list(sizes)} epochs={epochs} repeats={repeats}")

    bit_identical = _identity_check(workers)
    print(f"bit-identity (W={workers} vs W=1 numeric and OLH with disclosure, "
          f"shards=1 vs unsharded): "
          f"{'OK' if bit_identical else 'FAILED'}")

    # Warm codebook/table caches outside the timed region.
    warm = audited_generator(SEED).uniform(5.0, 45.0, size=(1, 256))
    _run(warm, 1, args.shards)

    sweep = []
    for devices in sizes:
        row = _sweep_row(devices, epochs, workers, args.shards, repeats)
        sweep.append(row)
        print(
            f"devices={devices:>7d}  single={row['t_single_s']:.3f}s  "
            f"pool={row['t_parallel_s']:.3f}s  speedup={row['speedup']}x  "
            f"auto={row['planner_auto']}"
        )
    misplanned = [
        row["devices"]
        for row in sweep
        if row["planner_auto_mode"] == "pool" and row["speedup"] < 1.0
    ]

    headline = sweep[-1]
    payload = {
        "schema": 3,
        "host": _host(cores),
        "workers": workers,
        "shards": shards,
        "repeats": repeats,
        "arm": "thresholding",
        "datapath": "cordic-live",
        "sweep": sweep,
        "speedup": headline["speedup"],
        "speedup_floor": MIN_SPEEDUP,
        "floor_asserted": assert_floor,
        "planner_pool_below_break_even": misplanned,
        "bit_identical": bit_identical,
        "quick": args.quick,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if misplanned:
        print(f"note: the planner's auto mode picks a pool at devices="
              f"{misplanned}, where the pool measured slower than one core")
    if not bit_identical:
        print("FAIL: sharded run is not bit-identical across worker counts")
        return 1
    if assert_floor and headline["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {headline['speedup']:.2f}x below the "
              f"{MIN_SPEEDUP}x floor on a {cores}-core machine")
        return 1
    if not assert_floor:
        print(f"speedup floor not asserted "
              f"(quick={args.quick}, cores={cores} < {MIN_CORES_FOR_FLOOR} "
              f"or workers={workers} < {MIN_CORES_FOR_FLOOR})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
