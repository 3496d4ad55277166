"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` is a separate run that gives the
per-layer metrics (spans around the calls into each layer).  The metric
names and units are those in ``BENCHMARK.json``; their definitions, the
workloads, and the layer-to-metric predictions are in ``perfbench/``
(``METRICS.md``, ``predictions.json``).

Every run checks its outputs (the correctness gates), writes its full
result with the host envelope and, when traced, its spans under
``.perfbench/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed gate counts
in ``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from common import OUT, ROOT, SRC, GateFailure, host_cpu_ticks, host_envelope, median, write_json

WORKLOADS = ("ingest-binary-fresh", "ingest-jsonl-returning", "fleet-sharded")
#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 13


def _spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def _print_end_to_end(workload: str, res: Dict[str, Any], metrics: Dict[str, Any]) -> None:
    """Every end-to-end metric of the workload, by name and unit."""
    print(f"== {workload}: end-to-end (untraced) ==")
    for name, m in metrics.items():
        print(f"  {name:28s} {_fmt(m['value'])} {m['unit']}")
    if "ack" in res:
        ack = res["ack"]
        print(f"  {'ack_p50_ms':28s} {_fmt(ack['p50'])} ms   (paced, from due time, n={ack['n']})")
        print(f"  {'ack_p99_ms':28s} {_fmt(ack['tail'])} ms   (p{ack['tail_q']}, n={ack['n']})")
        q = res["query"]
        print(f"  {'query_p50_ms':28s} {_fmt(q['p50'])} ms   (n={q['n']})")
    if "wire_bytes_per_report" in res:
        print(f"  {'wire_bytes_per_report':28s} {_fmt(res['wire_bytes_per_report'])} B")
    print(f"  {'failed_share':28s} {_fmt(res['failed_share'])} ratio")


def _print_rows(title: str, rows, reports: int) -> float:
    total = sum(r["self_ns_per_report"] for _, r in rows)
    print(f"  -- {title}")
    for name, r in rows:
        share = r["self_ns_per_report"] / total if total else 0.0
        print(f"  {name:30s} {r['self_ns_per_report']:12.1f} ns/report  {share:6.1%}  calls={r['calls']}")
    print(f"  {'sum':30s} {total:12.1f} ns/report  ({reports} reports)")
    return total


def _print_table(workload: str, table: Dict[str, Any], layer: Dict[str, Any]) -> None:
    """Per-layer self time per report, split into device side and program."""
    print(f"== {workload}: traced per-layer self time ==")
    rows = sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_ns"])
    device = set(table.get("device_side", ()))
    if device:
        _print_rows("device side (release, encode; before the timed window)",
                    [r for r in rows if r[0] in device], table["reports"])
    _print_rows("program" if not device else "service side (in-process replay)",
                [r for r in rows if r[0] not in device], table["reports"])
    if "service_cpu_ns_per_report" in table:
        print(f"  service path (decode+check+commit+fold): {_fmt(table['service_path_sum_ns'])} ns/report")
        print(f"  end-to-end service CPU:                   {_fmt(table['service_cpu_ns_per_report'])} ns/report")
        print(f"  residual (loop, socket, events, GC):      {_fmt(table['residual_ns_per_report'])} ns/report")
    print(f"  tracing overhead: {_fmt(layer.get('trace.overhead_share'))} of the untraced replay")


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one cold start: every metric, in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}/repro: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    loadavg = os.getloadavg()
    steal0, total0 = host_cpu_ticks()
    spec = _spec()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{tag}-spans.json"
    # setup_s is an end-to-end metric: a traced run makes no extra cold starts.
    setups = 0 if args.trace else 1 if args.smoke else SETUPS

    gate_failures: List[str] = []
    if args.workload == "fleet-sharded":
        import fleet

        res = fleet.run(args.seed, args.seconds, bool(args.trace), args.smoke, setups,
                        str(spans_path))
        gate_failures = [name for name, ok in res["gate_list"] if not ok]
        gates_checked = len(res["gate_list"])
    else:
        import ingest

        res = ingest.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.smoke, setups)
        gates = res["gates"]
        gate_failures, gates_checked = gates.failures, gates.checked
        if args.trace:
            res["tracer"].dump(spans_path)
            res["notes"] = res["tracer"].notes

    attempted = res["attempted"] + gates_checked
    failed = res["failed_ops"] + len(gate_failures)
    res["failed_share"] = failed / attempted

    if args.trace:
        layer = res.get("per_layer", {})  # none if the service stalled
        metrics = {m["name"]: {"value": layer.get(m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        if layer:
            _print_table(args.workload, res["table"], layer)
        for name, note in sorted(res.get("notes", {}).items()):
            print(f"  note: {name}: {note}")
    else:
        values = {
            "setup_s": median(res["setup_times"]),
            "reports_per_s": res["reports_per_s"],
            "cpu_us_per_report": res["cpu_us_per_report"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        _print_end_to_end(args.workload, res, metrics)
    for failure in gate_failures:
        print(f"  GATE FAILED: {failure}")

    detail = {k: v for k, v in res.items() if k not in ("gates", "tracer", "admitted")}
    host = host_envelope(args.seed, loadavg)
    steal1, total1 = host_cpu_ticks()
    # Time the hypervisor gave the host's CPUs to someone else during the run.
    host["cpu_steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    print("  host: " + " ".join(f"{k}={host[k]}" for k in (
        "nproc", "python", "numpy", "git_sha", "loadavg_start", "seed", "cpu_steal_share")))
    write_json(OUT / f"{tag}.json", {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        "metrics": metrics,
        "detail": detail,
        "gate_failures": gate_failures,
    })
    correct = not gate_failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except GateFailure as exc:  # the run could not finish: no result line
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
