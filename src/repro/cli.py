"""Command-line interface: ``python -m repro <command>``.

A thin operational layer over the library for quick experiments:

* ``verify``    — exact ε-LDP certification of an arm for given parameters
* ``calibrate`` — guard thresholds (paper closed forms vs exact search)
* ``noise``     — privatize values from the command line
* ``datasets``  — list the Table-I evaluation datasets
* ``latency``   — measure DP-Box noising latency for a configuration
* ``selftest``  — run the integrity BIST (URNG health, CORDIC, noise shape)
* ``lint``      — dplint DP-safety static analysis (rules DPL001-DPL008)
* ``trace``     — runtime release-event tracing: selfcheck every release
  path, or replay a JSONL event trace (see docs/runtime.md)
* ``kernels``   — codebook sampling-kernel report: table size vs budget,
  measured codebook-vs-live speedup, cache statistics
  (see docs/performance.md)
* ``fleet``     — sharded multi-core fleet simulation with an optional
  streaming aggregation server (see docs/performance.md)
* ``serve``     — network-facing ingestion service (JSONL + negotiated
  binary columnar wire) in front of a streaming aggregation server
  (see docs/service.md)
* ``loadgen``   — load-generator client for a running ingestion service

Every command prints plain text; exit code 0 means the operation
succeeded (for ``verify``: the mechanism was *analyzed*, whatever the
verdict — the verdict itself is in the output and in ``--expect``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis import render_table
from .core import DPBox, DPBoxConfig, DPBoxDriver, GuardMode, LatencyStats
from .datasets import PAPER_DATASETS, load
from .errors import ReproError
from .mechanisms import SensorSpec, make_mechanism
from .privacy import (
    BudgetAccountant,
    calibrate_threshold_exact,
    paper_resampling_threshold,
    paper_thresholding_threshold,
)
from .rng import FxpLaplaceConfig, FxpLaplaceRng, audited_generator

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Local differential privacy on ultra-low-power systems "
        "(ISCA 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mech_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--range", nargs=2, type=float, required=True,
                       metavar=("M_LO", "M_HI"), help="declared sensor range")
        p.add_argument("--epsilon", type=float, default=0.5)
        p.add_argument(
            "--arm",
            choices=["ideal", "baseline", "resampling", "thresholding"],
            default="thresholding",
        )
        p.add_argument("--input-bits", type=int, default=14, help="URNG width Bu")
        p.add_argument("--loss-multiple", type=float, default=2.0)

    p_verify = sub.add_parser("verify", help="exact epsilon-LDP certification")
    add_mech_args(p_verify)
    p_verify.add_argument(
        "--expect",
        choices=["ldp", "not-ldp"],
        help="exit nonzero unless the verdict matches",
    )

    p_cal = sub.add_parser("calibrate", help="guard threshold calibration")
    p_cal.add_argument("--range", nargs=2, type=float, required=True,
                       metavar=("M_LO", "M_HI"))
    p_cal.add_argument("--epsilon", type=float, default=0.5)
    p_cal.add_argument("--input-bits", type=int, default=17)
    p_cal.add_argument("--delta-bits", type=int, default=5,
                       help="grid step = range/2**delta_bits")
    p_cal.add_argument("--loss-multiple", type=float, default=2.0)

    p_noise = sub.add_parser("noise", help="privatize values")
    add_mech_args(p_noise)
    p_noise.add_argument("values", nargs="+", type=float)
    p_noise.add_argument("--seed", type=int, default=None)
    p_noise.add_argument(
        "--budget",
        type=float,
        default=None,
        help="privacy budget for this invocation; the per-value loss is the "
        "mechanism's claimed bound (default: exactly enough for the "
        "requested values)",
    )

    sub.add_parser("datasets", help="list the Table-I evaluation datasets")

    p_lat = sub.add_parser("latency", help="measure DP-Box noising latency")
    p_lat.add_argument("--range", nargs=2, type=float, default=(0.0, 10.0),
                       metavar=("M_LO", "M_HI"))
    p_lat.add_argument("--epsilon-exponent", type=int, default=1,
                       help="eps = 2**-nm")
    p_lat.add_argument("--mode", choices=["resample", "threshold"],
                       default="threshold")
    p_lat.add_argument("--samples", type=int, default=200)

    p_bist = sub.add_parser("selftest", help="run the integrity BIST")
    p_bist.add_argument("--seed", type=int, default=12345)

    p_lint = sub.add_parser(
        "lint", help="DP-safety static analysis (dplint, see docs/lint.md)"
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)

    p_kern = sub.add_parser(
        "kernels",
        help="codebook sampling-kernel report (see docs/performance.md)",
    )
    p_kern.add_argument("--range", nargs=2, type=float, default=(0.0, 10.0),
                        metavar=("M_LO", "M_HI"), help="declared sensor range")
    p_kern.add_argument("--epsilon", type=float, default=0.5)
    p_kern.add_argument("--input-bits", type=int, default=17, help="URNG width Bu")
    p_kern.add_argument("--output-bits", type=int, default=20)
    p_kern.add_argument(
        "--backend",
        choices=["exact", "cordic", "poly"],
        default="exact",
        help="logarithm datapath model",
    )
    p_kern.add_argument(
        "--samples",
        type=int,
        default=200_000,
        help="draws per kernel for the timing comparison (0 skips timing)",
    )
    p_kern.add_argument(
        "--budget-bytes",
        type=int,
        default=None,
        help="override the per-table budget for this invocation",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="sharded multi-core fleet simulation (see docs/performance.md)",
    )
    p_fleet.add_argument("--range", nargs=2, type=float, default=(0.0, 50.0),
                         metavar=("M_LO", "M_HI"), help="declared sensor range")
    p_fleet.add_argument("--epsilon", type=float, default=2.0)
    p_fleet.add_argument(
        "--arm",
        choices=["ideal", "baseline", "resampling", "thresholding", "rr"],
        default="thresholding",
    )
    p_fleet.add_argument("--devices", type=int, default=2000)
    p_fleet.add_argument("--epochs", type=int, default=8)
    p_fleet.add_argument("--dropout", type=float, default=0.0)
    p_fleet.add_argument("--device-budget", type=float, default=None)
    p_fleet.add_argument(
        "--workers", type=int, default=None,
        help="pin the worker-process count (1 = inline, no pool); "
        "overrides --plan",
    )
    p_fleet.add_argument(
        "--plan",
        default="auto",
        metavar="auto|serial|pool:<W>",
        help="execution plan: 'auto' probes cores + a cached calibration "
        "to pick serial vs pool, 'serial' forces inline, 'pool:<W>' "
        "forces a W-worker pool; never changes the noise streams "
        "(default: auto)",
    )
    p_fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count; fixes the noise streams independently of "
        "--workers/--plan (default 8, clamped to the device count)",
    )
    p_fleet.add_argument(
        "--streaming",
        action="store_true",
        help="streaming aggregation server: per-epoch running moments, "
        "O(epochs) memory, reports not retained",
    )
    p_fleet.add_argument("--seed", type=int, default=1234,
                         help="fleet seed (noise streams + simulated data)")

    p_oracle = sub.add_parser(
        "oracle",
        help="categorical frequency oracles (encode/perturb/aggregate/"
        "estimate; see docs/api.md)",
    )
    p_oracle.add_argument(
        "--oracle",
        choices=["krr", "oue", "olh"],
        default="oue",
        help="frequency-oracle arm",
    )
    p_oracle.add_argument("--categories", type=int, default=16,
                          help="domain size d")
    p_oracle.add_argument("--epsilon", type=float, default=2.0)
    p_oracle.add_argument("--devices", type=int, default=5000)
    p_oracle.add_argument("--epochs", type=int, default=1)
    p_oracle.add_argument("--dropout", type=float, default=0.0)
    p_oracle.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = inline, no pool)")
    p_oracle.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count; fixes the noise streams independently of "
        "--workers (default 8, clamped to the device count)",
    )
    p_oracle.add_argument("--seed", type=int, default=1234,
                          help="oracle seed (noise streams + simulated data)")
    p_oracle.add_argument("--zipf", type=float, default=1.3,
                          help="Zipf exponent of the simulated category skew")
    p_oracle.add_argument(
        "--heavy-hitters",
        type=int,
        default=None,
        metavar="K",
        help="instead of full-domain estimation, find the top-K heavy "
        "hitters over a 2^--domain-bits domain via prefix extension (PEM)",
    )
    p_oracle.add_argument("--domain-bits", type=int, default=12,
                          help="with --heavy-hitters: prefix-domain width")

    p_serve = sub.add_parser(
        "serve",
        help="ingestion service: JSONL-over-TCP device-report admission "
        "in front of an aggregation server (see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7787,
        help="TCP port (0 lets the OS pick; the bound port is printed)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="pending-batch bound; a full queue answers 'busy' (backpressure)",
    )
    p_serve.add_argument("--max-batch", type=int, default=65536,
                         help="largest admissible reports-per-request")
    p_serve.add_argument(
        "--per-epoch-limit", type=int, default=1,
        help="reports each device may land per epoch (rate-limit guard)",
    )
    p_serve.add_argument(
        "--device-budget", type=float, default=None,
        help="cumulative claimed-loss budget per device (epoch/budget guard)",
    )
    p_serve.add_argument("--max-claimed-loss", type=float, default=16.0,
                         help="per-batch claimed-loss cap")
    p_serve.add_argument("--epoch-horizon", type=int, default=1_000_000,
                         help="largest admissible epoch number")
    p_serve.add_argument(
        "--strict", action="store_true",
        help="disable schema repair: every recoverable coercion BLOCKs instead",
    )
    p_serve.add_argument(
        "--retain", action="store_true",
        help="retain-mode aggregation server (default: streaming moments)",
    )
    p_serve.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also write every admission decision (IngestEvent) to PATH",
    )
    p_serve.add_argument(
        "--allow-shutdown", action="store_true",
        help="honor the remote 'shutdown' op (off by default: DoS door)",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive a burst of report batches at a running ingestion "
        "service and report throughput + admission latency",
    )
    p_load.add_argument(
        "--connect", default="127.0.0.1:7787", metavar="HOST:PORT",
        help="service address (default 127.0.0.1:7787)",
    )
    p_load.add_argument("--batches", type=int, default=200)
    p_load.add_argument("--batch-size", type=int, default=256)
    p_load.add_argument("--epochs", type=int, default=4)
    p_load.add_argument("--claimed-loss", type=float, default=1.0)
    p_load.add_argument("--range", nargs=2, type=float, default=(0.0, 50.0),
                        metavar=("M_LO", "M_HI"), help="simulated value range")
    p_load.add_argument("--seed", type=int, default=1234,
                        help="load seed (batch values; replayable)")
    p_load.add_argument(
        "--wire", choices=("jsonl", "binary"), default="jsonl",
        help="request encoding: jsonl (default) or the negotiated "
        "binary columnar frames (wire v2)",
    )
    p_load.add_argument(
        "--pipeline", type=int, default=1, metavar="DEPTH",
        help="request window depth: batches in flight before the oldest "
        "reply is read (default 1 = lock-step)",
    )
    p_load.add_argument(
        "--shutdown-after", action="store_true",
        help="send the 'shutdown' op when the burst completes "
        "(the service must run with --allow-shutdown)",
    )

    p_trace = sub.add_parser(
        "trace", help="release-event tracing (see docs/runtime.md)"
    )
    trace_action = p_trace.add_mutually_exclusive_group(required=True)
    trace_action.add_argument(
        "--selfcheck",
        action="store_true",
        help="exercise every release path through one instrumented "
        "pipeline and validate the emitted events",
    )
    trace_action.add_argument(
        "--replay",
        metavar="FILE",
        help="validate and summarize a JSONL event trace",
    )
    p_trace.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="with --selfcheck: also write the event trace to PATH",
    )
    p_trace.add_argument(
        "--limit",
        type=int,
        default=None,
        help="with --replay: only read the first N events",
    )
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _cmd_verify(args: argparse.Namespace) -> int:
    sensor = SensorSpec(args.range[0], args.range[1])
    kwargs = {} if args.arm == "ideal" else {"input_bits": args.input_bits}
    mech = make_mechanism(
        args.arm, sensor, args.epsilon, loss_multiple=args.loss_multiple, **kwargs
    )
    report = mech.ldp_report()
    print(f"arm           : {mech.name}")
    print(f"claimed bound : {mech.claimed_loss_bound:g}")
    print(f"verdict       : {report.describe()}")
    if getattr(mech, "threshold", None) is not None:
        print(f"threshold     : {mech.threshold:g}")
    if args.expect:
        want = args.expect == "ldp"
        return 0 if bool(report.satisfied) == want else 1
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    m, M = args.range
    d = M - m
    delta = d / (1 << args.delta_bits)
    cfg = FxpLaplaceConfig(
        input_bits=args.input_bits, output_bits=20, delta=delta, lam=d / args.epsilon
    )
    noise = FxpLaplaceRng(cfg).exact_pmf()
    from .privacy import input_grid_codes

    codes = input_grid_codes(0.0, d, delta, n_points=5)
    n = args.loss_multiple
    rows = []
    t_paper_rs = paper_resampling_threshold(d, delta, args.epsilon, args.input_bits, n)
    t_exact_rs = calibrate_threshold_exact(noise, codes, n * args.epsilon, "resample")
    rows.append(["resampling", f"{t_paper_rs:g}", f"{t_exact_rs:g}"])
    t_paper_th = paper_thresholding_threshold(
        d, delta, args.epsilon, args.input_bits, n
    )
    t_exact_th = calibrate_threshold_exact(noise, codes, n * args.epsilon, "threshold")
    rows.append(["thresholding", f"{t_paper_th:g}", f"{t_exact_th:g}"])
    print(
        render_table(
            ["guard", "paper closed form", "exact calibration"],
            rows,
            title=(
                f"thresholds bounding loss by {n:g}·ε "
                f"(d={d:g}, ε={args.epsilon:g}, Bu={args.input_bits}, Δ={delta:g})"
            ),
        )
    )
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    sensor = SensorSpec(args.range[0], args.range[1])
    kwargs = {} if args.arm == "ideal" else {"input_bits": args.input_bits}
    if args.arm == "ideal" and args.seed is not None:
        kwargs["rng"] = audited_generator(args.seed)
    elif args.arm != "ideal" and args.seed is not None:
        from .rng import NumpySource

        kwargs["source"] = NumpySource(seed=args.seed)
    mech = make_mechanism(
        args.arm, sensor, args.epsilon, loss_multiple=args.loss_multiple, **kwargs
    )
    # Every release is debited against an explicit budget (composition,
    # paper Section II-A): the whole request runs as ONE pipeline release
    # with a per-value FlatCharge, so a budget too small for the request
    # is refused mid-charge and nothing unaccounted is printed.
    from .runtime import FlatCharge

    per_value_loss = mech.claimed_loss_bound
    budget = (
        args.budget
        if args.budget is not None
        else per_value_loss * len(args.values)
    )
    accountant = BudgetAccountant(budget)
    outcome = mech.release(
        np.asarray(args.values, dtype=float),
        accounting=FlatCharge(accountant, per_value_loss),
    )
    noisy = [float(v) for v in outcome.values]
    for raw, out in zip(args.values, noisy):
        print(f"{raw:g} -> {out:g}")
    print(
        f"budget        : spent {accountant.spent:g} of {accountant.budget:g} "
        f"({len(args.values)} release(s) at {per_value_loss:g} each)"
    )
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in PAPER_DATASETS:
        ds = load(name)
        st = ds.stats()
        rows.append(
            [
                name,
                st.entries,
                f"[{ds.sensor.m:g}, {ds.sensor.M:g}]",
                f"{st.mean:.4g}",
                f"{st.std:.4g}",
            ]
        )
    # dplint: allow[DPL006] -- Table-I summary of the SYNTHETIC evaluation
    # datasets: the printed means/stds describe generated stand-in data
    # (datasets/ is simulation scaffolding), not readings from a device.
    print(
        render_table(
            ["dataset", "entries", "declared range", "mean", "std"],
            rows,
            title="Table-I evaluation datasets (synthetic substitutes)",
        )
    )
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    # Measurements come off the release-event stream, not the driver's
    # return values: the DP-Box emits one event per noising with its
    # cycle latency attached, and a dedicated pipeline isolates them.
    from .runtime import ReleasePipeline, RingBufferSink

    mode = GuardMode.RESAMPLE if args.mode == "resample" else GuardMode.THRESHOLD
    pipeline = ReleasePipeline()
    ring = pipeline.add_sink(RingBufferSink(capacity=args.samples))
    box = DPBox(
        DPBoxConfig(input_bits=14, range_frac_bits=6, guard_mode=mode),
        pipeline=pipeline,
    )
    driver = DPBoxDriver(box)
    driver.initialize(budget=1e12)
    driver.configure(
        epsilon_exponent=args.epsilon_exponent,
        range_lower=args.range[0],
        range_upper=args.range[1],
    )
    rng = audited_generator(0)
    for x in rng.uniform(args.range[0], args.range[1], args.samples):
        driver.noise(float(x))
    stats = LatencyStats.from_events(ring.events)
    print(f"mode          : {args.mode}")
    print(f"samples       : {stats.n}")
    print(f"mean cycles   : {stats.mean_cycles:.3f}")
    print(f"max cycles    : {stats.max_cycles}")
    print(f"mean draws    : {stats.mean_draws:.3f}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .core import run_selftest
    from .rng import TauswortheSource

    report = run_selftest(TauswortheSource(seed=args.seed))
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_kernels(args: argparse.Namespace) -> int:
    import time

    from .rng import CordicLn, NumpySource, PiecewisePolyLn, codebook_cache
    from .rng.codebook import configure_codebooks

    m_lo, m_hi = args.range
    sensor_d = m_hi - m_lo
    cfg = FxpLaplaceConfig(
        input_bits=args.input_bits,
        output_bits=args.output_bits,
        delta=sensor_d / 64.0,
        lam=sensor_d / args.epsilon,
    )
    backend = {
        "exact": None,
        "cordic": CordicLn(),
        "poly": PiecewisePolyLn(),
    }[args.backend]
    cache = codebook_cache()
    if args.budget_bytes is not None:
        configure_codebooks(table_budget_bytes=args.budget_bytes)
    planned = cache.planned_bytes(cfg)
    print(f"config        : Bu={cfg.input_bits} By={cfg.output_bits} "
          f"Δ={cfg.delta:g} λ={cfg.lam:g} backend={args.backend}")
    print(f"alphabet      : 2**{cfg.input_bits} = {1 << cfg.input_bits} codes")
    print(f"table         : {planned} bytes "
          f"(budget {cache.table_budget_bytes} bytes)")
    rng = FxpLaplaceRng(cfg, source=NumpySource(seed=0), log_backend=backend)
    t0 = time.perf_counter()
    kernel = rng.kernel  # resolves (and possibly builds) the codebook
    build_s = time.perf_counter() - t0
    print(f"kernel        : {kernel}"
          + (f" (resolved in {build_s * 1e3:.1f} ms)" if kernel == "codebook" else
             " (over budget — live datapath)"))
    if args.samples > 0:
        live = FxpLaplaceRng(
            cfg, source=NumpySource(seed=0), log_backend=backend, kernel="live"
        )
        t0 = time.perf_counter()
        rng.sample_codes(args.samples)
        t_kernel = time.perf_counter() - t0
        t0 = time.perf_counter()
        live.sample_codes(args.samples)
        t_live = time.perf_counter() - t0
        print(f"draw timing   : {args.samples} samples — "
              f"{kernel} {t_kernel * 1e3:.1f} ms, live {t_live * 1e3:.1f} ms "
              f"({t_live / t_kernel:.1f}x)")
    stats = cache.stats()
    print("cache         : "
          + ", ".join(f"{k}={stats[k]}" for k in
                      ("entries", "hits", "builds", "evictions",
                       "budget_fallbacks", "bytes")))
    return 0


def _parse_plan(args: argparse.Namespace):
    """Resolve --plan/--workers into an ExecutionPlan (never the streams)."""
    from .errors import ConfigurationError
    from .parallel import plan_execution

    if args.workers is not None:
        workers = args.workers
    elif args.plan == "auto":
        workers = None
    elif args.plan == "serial":
        workers = 1
    elif args.plan.startswith("pool:"):
        try:
            workers = int(args.plan[len("pool:"):])
        except ValueError:
            raise ConfigurationError(
                f"--plan pool:<W> needs an integer, got {args.plan!r}"
            )
    else:
        raise ConfigurationError(
            f"--plan must be 'auto', 'serial' or 'pool:<W>', got {args.plan!r}"
        )
    return plan_execution(
        args.devices, args.epochs, shards=args.shards, workers=workers
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .parallel import run_fleet_sharded

    lo, hi = args.range
    sensor = SensorSpec(m=lo, M=hi)
    sim_rng = audited_generator(args.seed)
    if args.arm == "rr":
        truth = np.where(
            sim_rng.random((args.epochs, args.devices)) < 0.5, lo, hi
        )
    else:
        truth = sim_rng.uniform(lo, hi, size=(args.epochs, args.devices))
    plan = _parse_plan(args)
    result = run_fleet_sharded(
        truth,
        sensor,
        args.epsilon,
        arm=args.arm,
        device_budget=args.device_budget,
        dropout=args.dropout,
        rng=audited_generator(args.seed + 1),
        source_seed=args.seed,
        shards=args.shards,
        streaming=args.streaming,
        with_devices=not args.streaming,
        execution_plan=plan,
    )
    mode = "streaming" if args.streaming else "retain"
    print(
        f"fleet: {args.devices} devices x {args.epochs} epochs, arm={args.arm}, "
        f"eps={args.epsilon}, plan={plan.describe()}, server={mode}"
    )
    print(f"  plan reason: {plan.reason}")
    for epoch in result.server.epochs:
        s = result.server.summarize(epoch)
        # dplint: allow[DPL006] -- prints the simulated ground-truth mean
        # next to the estimate so the demo shows fleet accuracy; `truth`
        # is drawn above from the audited sim generator, not a sensor.
        print(
            f"  epoch {epoch}: n={s.n_reports}  true_mean="
            f"{result.true_means[epoch]:.4f}  est_mean={s.mean:.4f}"
        )
    print(f"mean abs error: {result.mean_abs_error:.4f}")
    print(
        f"retained reports: {result.server.n_retained_reports} "
        f"(events={result.counters.n_events}, "
        f"samples={result.counters.n_samples})"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .mechanisms import make_oracle
    from .parallel import plan_shards, run_fleet_categorical
    from .queries import pem_heavy_hitters

    sim_rng = audited_generator(args.seed)
    if args.heavy_hitters is not None:
        domain = 1 << args.domain_bits
        values = np.minimum(
            sim_rng.zipf(args.zipf, size=args.devices) - 1, domain - 1
        )
        # Scatter the ranks across the domain so prefixes aren't trivially
        # clustered at zero.
        perm = sim_rng.permutation(domain)
        values = perm[values]
        result = pem_heavy_hitters(
            values, args.domain_bits, args.epsilon, args.heavy_hitters,
            oracle=args.oracle, seed=args.seed,
        )
        print(
            f"heavy hitters: top-{args.heavy_hitters} of a 2^{args.domain_bits} "
            f"domain, oracle={args.oracle}, eps={args.epsilon}, "
            f"n={args.devices}, levels={len(result.levels)}"
        )
        true_counts = np.bincount(values, minlength=domain)
        rows = [
            [f"{item}", f"{freq:.4f}", f"{se:.4f}",
             f"{true_counts[item] / args.devices:.4f}"]
            for item, freq, se in zip(
                result.items, result.frequencies, result.std_errors
            )
        ]
        print(render_table(["value", "est freq", "std err", "true freq"], rows))
        return 0

    truth = np.minimum(
        sim_rng.zipf(args.zipf, size=(args.epochs, args.devices)) - 1,
        args.categories - 1,
    )
    plan = plan_shards(args.devices, args.shards)
    result = run_fleet_categorical(
        truth,
        args.categories,
        args.epsilon,
        oracle=args.oracle,
        dropout=args.dropout,
        rng=audited_generator(args.seed + 1),
        source_seed=args.seed,
        workers=args.workers,
        shards=args.shards,
    )
    arm = result.oracle
    print(
        f"oracle: {arm.name}, d={args.categories}, eps={args.epsilon} "
        f"(exact {arm.exact_epsilon():.4f}), {arm.report_bits} bits/report, "
        f"{args.devices} devices x {args.epochs} epochs, "
        f"shards={plan.n_shards}, workers={args.workers}"
    )
    for epoch, est in zip(result.server.categorical_epochs, result.estimates):
        err = float(np.abs(est.frequencies - result.true_frequencies[epoch]).max())
        # dplint: allow[DPL006] -- utility report: `truth` is synthesized
        # above by the audited sim generator, not sensor data; printing
        # the estimate-vs-truth error is the point of the demo.
        print(
            f"  epoch {epoch}: n={est.n}  max |f_hat - f|={err:.4f}  "
            f"rare-item sigma={est.std_errors()[int(np.argmin(est.counts))]:.4f}"
        )
    print(f"mean abs error: {result.mean_abs_error:.4f}")
    print(
        f"retained reports: {result.server.n_retained_reports} "
        f"(events={result.counters.n_events}, draws={result.counters.n_draws})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .aggregation import AggregationServer
    from .runtime import JsonlSink
    from .service import IngestionService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        coerce=not args.strict,
        epoch_horizon=args.epoch_horizon,
        max_claimed_loss=args.max_claimed_loss,
        device_budget=args.device_budget,
        per_epoch_limit=args.per_epoch_limit,
        allow_shutdown=args.allow_shutdown,
    )
    aggregation = AggregationServer(streaming=not args.retain)
    extra_sinks = [JsonlSink(args.jsonl)] if args.jsonl else []
    service = IngestionService(aggregation, config=config, extra_sinks=extra_sinks)

    async def _serve() -> None:
        host, port = await service.start()
        mode = "retain" if args.retain else "streaming"
        print(f"listening on {host}:{port} ({mode} aggregation, "
              f"queue={config.queue_capacity}, "
              f"per-epoch-limit={config.per_epoch_limit})", flush=True)
        try:
            await service.wait_stopped()
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; stopping", file=sys.stderr)
    finally:
        for sink in extra_sinks:
            sink.close()
    summary = service.counters.ingest_summary()
    print(
        f"served {summary['events']} decisions — "
        f"admitted {summary['reports_admitted']} reports "
        f"({summary['reports_repaired']} repaired), "
        f"blocked {summary['reports_blocked']}, busy {summary['busy']}, "
        f"internal errors {summary['internal_errors']}"
    )
    return 0 if summary["internal_errors"] == 0 else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .service import IngestClient, run_load

    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"--connect needs HOST:PORT, got {args.connect!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"--connect port must be an integer, "
                                 f"got {port_text!r}")
    report = run_load(
        host,
        port,
        batches=args.batches,
        batch_size=args.batch_size,
        epochs=args.epochs,
        claimed_loss=args.claimed_loss,
        value_range=(args.range[0], args.range[1]),
        seed=args.seed,
        wire=args.wire,
        pipeline=args.pipeline,
    )
    print(report.describe())
    if args.shutdown_after:
        with IngestClient(host, port) as client:
            reply = client.shutdown()
        print(f"shutdown: {reply.get('status')}")
    internal_errors = report.server_metrics.get("internal_errors", 0)
    if internal_errors:
        print(f"error: {internal_errors} internal admission error(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .runtime.trace import run_replay, run_selfcheck

    if args.selfcheck:
        return run_selfcheck(jsonl_path=args.jsonl)
    return run_replay(args.replay, limit=args.limit)


_COMMANDS = {
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
    "noise": _cmd_noise,
    "datasets": _cmd_datasets,
    "latency": _cmd_latency,
    "selftest": _cmd_selftest,
    "lint": _cmd_lint,
    "kernels": _cmd_kernels,
    "fleet": _cmd_fleet,
    "oracle": _cmd_oracle,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
