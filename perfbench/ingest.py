"""The two service workloads: ``ingest-binary-fresh`` and
``ingest-jsonl-returning``.

Each run generates its requests from the seed (device-side release and
encoding, before any timing), starts ``python -m repro serve`` as its own
process, drives it over loopback, and checks the result against an
in-process :class:`~repro.aggregation.AggregationServer` fed the admitted
batches in reply-``seq`` order.  The traced run then replays the same
requests in-process through the program's public entry points (decode,
guard check, commit, fold, snapshot) with a span around each call.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import wire
from common import Tracer, median, normalized, proc_cpu_s, proc_hwm_mib, split_evenly, timing_summary
from service import DEVICE_BUDGET, Channel, Service, await_folded, drive

SENSOR_RANGE = (0.0, 50.0)
EPSILON = 1.0
OLH_CATEGORIES = 32
OLH_EPSILON = 2.0

#: The budget guard's default spend-map bound (``max_devices_tracked``):
#: ``ingest-binary-fresh`` sends more distinct devices than this.
SPEND_MAP_BOUND = 1 << 20
FRESH_BATCH = 1024
FRESH_BATCHES_PER_EPOCH = 128
#: Batches sent past the bound.  Each evicts 1024 spend-map entries; at
#: the seed's eviction cost the phase past the bound takes about as long
#: as the 1024 batches before it.
FRESH_EXTRA_BATCHES = 64
#: Trials (each a fresh service fed the whole sequence) per second of
#: ``--seconds``; the run reports the median trial.
FRESH_TRIALS_PER_S = 0.25
PIPELINE_WINDOW = 16

RETURNING_DEVICES = 8192
RETURNING_GROUP = 128
#: Closed-loop epochs per trial per second of ``--seconds``, split into
#: this many throughput windows; the run reports the median window.
RETURNING_SAT_EPOCHS_PER_S = 15
SATURATION_BLOCKS = 6
#: The paced phase's offered load: requests per second, below saturation.
PACED_RATE = 600.0
#: Share of ``--seconds`` spent in each trial's paced phase.
PACED_SHARE = 0.25
#: Trials (each a fresh service fed the whole sequence).  The snapshot
#: read each epoch costs more as epochs accumulate, so the run repeats
#: the sequence rather than lengthening it.
RETURNING_TRIALS = 2

#: Spans made while generating the requests, before any timing.
DEVICE_SIDE = frozenset({
    "mechanisms.release", "mechanisms.oracle_report", "mechanisms.support_counts",
    "protocol.encode",
})

#: Requests replayed twice (untraced, traced) to measure tracing cost.
OVERHEAD_PREFIX = 256

#: Seconds from the start of a run after which the load generator stops
#: waiting for the service: unanswered requests then count as failed.
RUN_DEADLINE_S = 150.0


@dataclasses.dataclass
class Request:
    """One generated data request: its bytes and what it should fold."""

    raw: bytes
    op: str            # "submit" | "submit_counts"
    epoch: int
    n_reports: int
    loss: float
    values: Any = None         # numeric column (submit)
    ids: Any = None            # device ids (submit)
    counts: Any = None         # support counts (submit_counts)


# ---------------------------------------------------------------------------
# Workload generation (device side; before any timing)
# ---------------------------------------------------------------------------
def _mechanisms(seed: int):
    from repro.mechanisms import SensorSpec, make_mechanism
    from repro.mechanisms.oracles import make_oracle
    from repro.rng.urng import SplitStreamSource

    numeric = make_mechanism(
        "thresholding", SensorSpec(*SENSOR_RANGE), EPSILON,
        input_bits=14, source=SplitStreamSource(seed),
    )
    olh = make_oracle(
        "olh", OLH_CATEGORIES, OLH_EPSILON, source=SplitStreamSource(seed + 1)
    )
    return numeric, olh


class DeviceSide:
    """Release and encode calls, traced when the run is a traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.draws = 0
        #: Batches the program's encoders encoded differently (traced runs).
        self.encoding_mismatches = 0
        try:
            from repro.service import protocol
        except ImportError:
            protocol = None
        self.protocol = protocol

    def release(self, mechanism, x: np.ndarray) -> np.ndarray:
        outcome = self.tracer.call("mechanisms.release", mechanism.release, x, reports=x.size)
        self.draws += int(np.asarray(outcome.rounds).sum())
        return np.asarray(outcome.values, dtype=float)

    def oracle(self, olh, categories: np.ndarray) -> np.ndarray:
        users = np.arange(categories.size)
        reports = self.tracer.call(
            "mechanisms.oracle_report", olh.report, categories,
            user_offset=users, reports=categories.size,
        )
        return np.asarray(
            self.tracer.call(
                "mechanisms.support_counts", olh.support_counts, reports,
                user_offset=users, reports=categories.size,
            ),
            dtype=np.int64,
        )

    def check_encoding(self, name: str, ours: bytes, *args) -> None:
        """Time the program's encoder on the same batch and count the
        batches whose bytes differ from the benchmark's own."""
        if not self.tracer.enabled:
            return
        fn = getattr(self.protocol, name, None) if self.protocol else None
        if fn is None:
            self.tracer.notes["protocol.encode"] = f"protocol.{name} not found"
            return
        theirs = self.tracer.call("protocol.encode", fn, *args, reports=0)
        self.encoding_mismatches += theirs != ours


def fresh_requests(seed: int, smoke: bool, side: DeviceSide) -> List[Request]:
    """First-contact batches: every id is new; more ids than the bound."""
    from repro.rng import audited_generator

    numeric, _ = _mechanisms(seed)
    loss = float(numeric.claimed_loss_bound)
    if smoke:
        n_batches = 24
    else:
        n_batches = SPEND_MAP_BOUND // FRESH_BATCH + FRESH_EXTRA_BATCHES
    truth = audited_generator(seed).uniform(5.0, 45.0, size=n_batches * FRESH_BATCH)
    out = []
    for b in range(n_batches):
        lo = b * FRESH_BATCH
        values = side.release(numeric, truth[lo : lo + FRESH_BATCH])
        ids = wire.id_column(lo, FRESH_BATCH, b"dev-")
        epoch = b // FRESH_BATCHES_PER_EPOCH
        raw = wire.binary_submit(epoch, ids, values, loss)
        side.check_encoding("encode_binary_submit", raw, epoch, ids, values, loss)
        out.append(Request(raw, "submit", epoch, FRESH_BATCH, loss, values, ids))
    return out


def returning_requests(
    seed: int, epochs: int, first_epoch: int, side: DeviceSide, mechs
) -> Tuple[List[Request], List[int]]:
    """A fixed fleet reporting once per epoch in groups, plus one OLH
    count batch per epoch.  Returns the requests and the indices after
    which the epoch's snapshot read is scheduled."""
    from repro.rng import audited_generator

    numeric, olh = mechs
    loss = float(numeric.claimed_loss_bound)
    olh_loss = float(olh.claimed_loss_bound)
    gen = audited_generator([seed, first_epoch])
    ids = [f"dev-{i:05d}" for i in range(RETURNING_DEVICES)]
    out: List[Request] = []
    snapshot_after: List[int] = []
    for epoch in range(first_epoch, first_epoch + epochs):
        values = side.release(numeric, gen.uniform(5.0, 45.0, RETURNING_DEVICES))
        for lo in range(0, RETURNING_DEVICES, RETURNING_GROUP):
            group_ids = ids[lo : lo + RETURNING_GROUP]
            group_values = values[lo : lo + RETURNING_GROUP]
            obj = {
                "op": "submit", "epoch": epoch, "device_ids": group_ids,
                "values": group_values.tolist(), "claimed_loss": loss,
            }
            raw = wire.jsonl(obj)
            side.check_encoding("encode", raw, obj)
            out.append(
                Request(raw, "submit", epoch, len(group_ids), loss, group_values, group_ids)
            )
        categories = np.minimum(gen.geometric(0.15, RETURNING_DEVICES) - 1, OLH_CATEGORIES - 1)
        counts = side.oracle(olh, categories)
        obj = {
            "op": "submit_counts", "epoch": epoch, "counts": counts.tolist(),
            "n_reports": RETURNING_DEVICES, "claimed_loss": olh_loss,
        }
        raw = wire.jsonl(obj)
        side.check_encoding("encode", raw, obj)
        out.append(
            Request(raw, "submit_counts", epoch, RETURNING_DEVICES, olh_loss, counts=counts)
        )
        snapshot_after.append(len(out) - 1)
    return out, snapshot_after


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def reference_server(admitted: List[Request]):
    """An in-process streaming server fed ``admitted`` in order."""
    from repro.aggregation import AggregationServer

    server = AggregationServer(streaming=True)
    for req in admitted:
        if req.op == "submit":
            ids = req.ids.astype(str).tolist() if isinstance(req.ids, np.ndarray) else req.ids
            server.submit_array(req.epoch, np.asarray(req.values, dtype=float), req.loss, device_ids=ids)
        else:
            server.submit_counts(req.epoch, req.counts, req.n_reports, req.loss)
    return server


class Gates:
    """Correctness gates; each failure is counted, and any fails the run."""

    def __init__(self):
        self.checked = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checked += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def olh_gate(gates: Gates, snapshot: Dict[str, Any], reference, olh) -> None:
    """OLH estimates over the served counts equal the reference's."""
    from repro.queries import estimate_from_counts

    cats = snapshot.get("categorical_epochs", {})
    ok = bool(cats)
    for epoch, entry in cats.items():
        est = estimate_from_counts(olh, np.asarray(entry["counts"]), entry["n_reports"])
        ref = reference.frequency_estimates(int(epoch), olh)
        ok &= np.array_equal(est.frequencies, ref.frequencies)
    gates.check("olh-estimates", ok, "estimate_from_counts over served counts differs")


# ---------------------------------------------------------------------------
# The socket run
# ---------------------------------------------------------------------------
def _admitted_in_seq_order(reqs: List[Request], results) -> List[Tuple[Request, int]]:
    """``(request, busy replies it got)`` for every admitted request, in
    reply-``seq`` order: the order the service folded them."""
    found = []
    for result, offset in results:
        for k, seq in enumerate(result.seq):
            if result.status[k] == "admitted":
                found.append((seq, reqs[offset + k], result.busy[k]))
    found.sort(key=lambda item: item[0])
    return [(req, busy) for _seq, req, busy in found]


def run_trial(workload: str, reqs: List[Request], phases, binary: bool, gates: "Gates",
              deadline: float, between: Callable[[], None], olh=None) -> Dict[str, Any]:
    """One service lifetime: start it, run the phases, gate the outcome.

    ``phases`` is a list of ``(first_index, stop_index, drive_kwargs,
    timed)``.  Each timed phase is one throughput window: from its first
    send until a snapshot shows every admitted report folded, with the
    service's CPU over the same span.  ``between`` runs after each phase,
    outside the windows.  If the service leaves requests unanswered at
    ``deadline``, the trial stops there and fails its gates.
    """
    service = Service(workload)
    try:
        data = Channel(service.address, binary=binary)
        ctrl = service.ctrl
        results = []
        windows = []
        stalled = False
        gc.collect()
        gc.disable()  # the load generator's own GC; the service keeps its own on
        try:
            folded = [0, 0]  # admitted so far: numeric, categorical reports
            for lo, hi, kwargs, timed in phases:
                frames = [r.raw for r in reqs[lo:hi]]
                cpu0 = proc_cpu_s(service.pid)
                res = drive(data, ctrl, frames, deadline=deadline, **kwargs)
                results.append((res, lo))
                if res.timed_out:
                    stalled = True
                    break
                admitted_now = [r for r, s in zip(reqs[lo:hi], res.status) if s == "admitted"]
                for r in admitted_now:
                    folded[r.op != "submit"] += r.n_reports
                t_end, snapshot = await_folded(ctrl, *folded, deadline=deadline)
                if timed:
                    windows.append({
                        "reports": sum(r.n_reports for r in admitted_now),
                        "seconds": t_end - res.t_start,
                        "cpu_s": proc_cpu_s(service.pid) - cpu0,
                        "requests": hi - lo,
                    })
                between()
        finally:
            gc.enable()
        if not stalled:
            metrics_reply = ctrl.request({"op": "metrics"})
        peak_rss = proc_hwm_mib(service.pid)
        data_bytes = data.bytes_sent
        sent = data.requests + ctrl.requests
        data.close()
    finally:
        service.stop()

    bad = [s for res, _ in results for s in res.status if s != "admitted"]
    gates.check("all-admitted", not bad, f"{len(bad)} requests not admitted: {sorted(set(map(str, bad)))}")
    snap_bad = [s for res, _ in results for s in res.snapshot_status if s != "ok"]
    gates.check("snapshots-ok", not snap_bad, f"{len(snap_bad)} scheduled snapshots failed")
    gates.check("service-answered", not stalled,
                f"requests still unanswered {RUN_DEADLINE_S:.0f} s after the run started")
    admitted = _admitted_in_seq_order(reqs, results)
    metrics: Dict[str, Any] = {}
    if not stalled:
        metrics = metrics_reply.get("metrics", {})
        gates.check("metrics-events", metrics.get("events") == sent,
                    f"service counted {metrics.get('events')} events for {sent} requests")
        gates.check("internal-errors", metrics.get("internal_errors") == 0,
                    f"{metrics.get('internal_errors')} internal errors")
        reference = reference_server([req for req, _busy in admitted])
        gates.check("snapshot-bit-identical",
                    normalized(reference.snapshot()) == normalized(snapshot),
                    "served snapshot differs from the in-process reference")
        if olh is not None:
            olh_gate(gates, snapshot, reference, olh)

    total_reports = sum(req.n_reports for req, _busy in admitted)
    return {
        "stalled": stalled,
        "windows": windows,
        "results": results,
        "snapshot": None if stalled else snapshot,
        "service_metrics": metrics,
        "peak_rss_mib": peak_rss,
        "wire_bytes_per_report": data_bytes / max(total_reports, 1),
        "requests_sent": sent,
        "busy": sum(sum(res.busy) for res, _ in results),
        "admitted": admitted,
        "attempted": len(reqs) + sum(len(res.snapshot_status) for res, _ in results),
        "failed_ops": len(bad) + len(snap_bad) + int(metrics.get("internal_errors") or 0),
    }


def run_socket(workload: str, reqs: List[Request], phases, binary: bool, trials: int,
               setups: int, deadline: float, olh=None) -> Dict[str, Any]:
    """``trials`` service lifetimes (none after one that stalled), with
    ``setups`` bare cold starts spread over the run: before each trial and
    after each of its phases."""
    setup_times: List[float] = []
    groups = iter(split_evenly(setups, trials * (len(phases) + 1)))

    def cold_starts() -> None:
        for _ in range(next(groups, 0)):
            service = Service(workload)
            service.stop()
            setup_times.append(service.setup_s)

    gates = Gates()
    runs = []
    for _ in range(trials):
        cold_starts()
        runs.append(run_trial(workload, reqs, phases, binary, gates, deadline, cold_starts, olh))
        if runs[-1]["stalled"]:
            break
    return {"setup_times": setup_times, "runs": runs, "gates": gates}


# ---------------------------------------------------------------------------
# The traced in-process replay
# ---------------------------------------------------------------------------
def _entry(tracer: Tracer, owner: Any, names: Tuple[str, ...], layer: str) -> Optional[Callable]:
    for i, name in enumerate(names):
        fn = getattr(owner, name, None)
        if fn is not None:
            if i:
                tracer.notes[layer] = f"{names[0]} not found; used {name}"
            return fn
    tracer.notes[layer] = f"none of {', '.join(names)} found"
    return None


def replay(requests: List[Tuple[Request, int]], snapshot_every: int, tracer: Tracer,
           binary: bool) -> Dict[str, Any]:
    """Feed ``(request, busy_attempts)`` through decode → check → commit
    → fold, in seq order, with a snapshot every ``snapshot_every`` requests."""
    from repro.aggregation import AggregationServer
    from repro.service import guards, protocol

    server = AggregationServer(streaming=True)
    handle = server.ingest_handle()
    chain = guards.default_chain(device_budget=DEVICE_BUDGET)
    decode = _entry(tracer, protocol, ("decode_binary_frame",) if binary else ("decode_line",),
                    "protocol.decode")
    check = _entry(tracer, chain, ("check_array", "check") if binary else ("check", "check_array"),
                   "guards.check")
    if decode is None or check is None:
        return {"server": server, "complete": False, "checks": 0, "admitted": 0}
    checks = admitted = 0
    for i, (req, busy) in enumerate(requests):
        tracer.request_id = i
        raw = wire.frame_payload(req.raw) if binary else req.raw
        decoded = tracer.call("protocol.decode", decode, raw, reports=req.n_reports)
        for _ in range(busy):  # the checks the live service made for busy replies
            tracer.call("guards.check", check, decoded, reports=0)
            checks += 1
        outcome = tracer.call("guards.check", check, decoded, reports=req.n_reports)
        checks += 1
        if not outcome.admitted:
            continue  # the replay gates count it; nothing folds
        admitted += 1
        tracer.call("guards.commit", outcome.commit, reports=req.n_reports)
        tracer.call("aggregation.fold", handle.submit_many, [_fold(outcome.request)],
                    reports=req.n_reports)
        if snapshot_every and (i + 1) % snapshot_every == 0:
            tracer.call("aggregation.snapshot", handle.snapshot)
    tracer.request_id = None
    return {"server": server, "complete": True, "checks": checks, "admitted": admitted}


def _fold(request: Dict[str, Any]) -> Callable:
    """The whole-batch fold the service applies for one admitted request."""
    if request["op"] == "submit":
        columnar = isinstance(request["values"], np.ndarray)

        def fold(server) -> None:
            server.submit_array(
                request["epoch"], np.asarray(request["values"], dtype=float),
                request["claimed_loss"], device_ids=request["device_ids"], donate=columnar,
            )
        return fold

    def fold_counts(server) -> None:
        server.submit_counts(
            request["epoch"], np.asarray(request["counts"], dtype=np.int64),
            request["n_reports"], request["claimed_loss"],
        )
    return fold_counts


def estimate_pass(server, olh, tracer: Tracer) -> float:
    """The analyst's read of every epoch (moments mean, OLH estimates);
    returns the seconds per epoch."""
    from repro.queries import estimate_from_counts

    t0 = time.perf_counter()
    for epoch in server.epochs:
        tracer.call("queries.estimate", server.moments, epoch)
    if olh is not None:
        for epoch in server.categorical_epochs:
            counts, n = server.category_counts(epoch)
            tracer.call("queries.estimate", estimate_from_counts, olh, counts, n)
    return (time.perf_counter() - t0) / max(len(server.epochs), 1)


# ---------------------------------------------------------------------------
# Workload drivers
# ---------------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setups: int) -> Dict[str, Any]:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tracer = Tracer(enabled=trace)
    side = DeviceSide(tracer)
    binary = workload == "ingest-binary-fresh"
    olh = None
    if binary:
        reqs = fresh_requests(seed, smoke, side)
        # The traced run needs one trial's counters and CPU, not a median.
        trials = 1 if smoke or trace else max(1, int(FRESH_TRIALS_PER_S * seconds + 0.5))
        phases = [(0, len(reqs), {"window": PIPELINE_WINDOW}, True)]
    else:
        mechs = _mechanisms(seed)
        olh = mechs[1]
        blocks = 2 if smoke else SATURATION_BLOCKS
        block_epochs = 2 if smoke else max(1, int(RETURNING_SAT_EPOCHS_PER_S * seconds / blocks + 0.5))
        paced_epochs = 4 if smoke else max(1, int(
            PACED_RATE * seconds * PACED_SHARE / (RETURNING_DEVICES // RETURNING_GROUP + 1) + 0.5))
        reqs, phases, epoch = [], [], 0
        for block in range(blocks + 1):
            paced = block == blocks
            n_epochs = paced_epochs if paced else block_epochs
            more, snaps = returning_requests(seed, n_epochs, epoch, side, mechs)
            kwargs = {"rate": PACED_RATE} if paced else {"window": PIPELINE_WINDOW}
            kwargs["snapshot_after"] = set(snaps)
            phases.append((len(reqs), len(reqs) + len(more), kwargs, not paced))
            reqs += more
            epoch += n_epochs
        trials = 1 if smoke or trace else RETURNING_TRIALS
    live = run_socket(workload, reqs, phases, binary, trials, setups, deadline, olh=olh)
    out = _end_to_end(live, binary)
    out["gates"] = live["gates"]
    out["tracer"] = tracer
    if trace and not live["runs"][-1]["stalled"]:
        out["per_layer"], out["table"] = _traced(
            live["runs"][-1], live["gates"], side, tracer, binary, olh, out)
    return out


def _end_to_end(live: Dict[str, Any], binary: bool) -> Dict[str, Any]:
    """Medians over the timed windows.  JSONL also gives the paced
    phases' acknowledgements and scheduled snapshot reads."""
    runs = live["runs"]
    windows = [w for run in runs for w in run["windows"]]
    last = runs[-1]
    out = {
        "setup_times": live["setup_times"],
        "reports_per_s": _median_or_none([w["reports"] / w["seconds"] for w in windows]),
        "cpu_us_per_report": _median_or_none([w["cpu_s"] * 1e6 / w["reports"] for w in windows]),
        "peak_rss_mb": median([run["peak_rss_mib"] for run in runs]),
        "wire_bytes_per_report": last["wire_bytes_per_report"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed_ops": sum(run["failed_ops"] for run in runs),
        "windows": windows,
        "service_metrics": last["service_metrics"],
        "busy": last["busy"],
        "requests_sent": last["requests_sent"],
    }
    if not binary and not last["stalled"]:
        paced = [run["results"][-1][0] for run in runs]
        acks = [a - d for res in paced for a, d in zip(res.t_ack, res.t_due) if a]
        out["ack"] = timing_summary([x * 1e3 for x in acks])
        out["query"] = timing_summary([x * 1e3 for res in paced for x in res.snapshot_s])
        out["lag_ms"] = timing_summary([x * 1e3 for res in paced for x in res.lag_s] or [0.0])
    return out


def _median_or_none(samples: List[float]) -> Optional[float]:
    return median(samples) if samples else None


def _traced(live, gates: "Gates", side: DeviceSide, tracer: Tracer, binary: bool, olh, e2e):
    """Replay one run's admitted requests with spans; build the per-layer table."""
    items = live["admitted"]
    n_snaps = sum(len(res.snapshot_s) for res, _ in live["results"])
    every = max(1, len(items) // max(n_snaps, 1))

    # Tracing overhead: the same prefix replayed untraced and traced on
    # fresh state, alternating, best of each.
    prefix = items[:OVERHEAD_PREFIX]
    best = {False: float("inf"), True: float("inf")}
    for enabled in (False, True, False, True):
        t0 = time.perf_counter()
        replay(prefix, every, Tracer(enabled=enabled), binary)
        best[enabled] = min(best[enabled], time.perf_counter() - t0)
    untraced, traced_prefix = best[False], best[True]

    gc.collect()
    result = replay(items, every, tracer, binary)
    server = result["server"]
    gates.check("program-encoders-match-wire", side.encoding_mismatches == 0,
                f"{side.encoding_mismatches} batches encoded differently by the program")
    if result["complete"]:
        gates.check("replay-admitted", result["admitted"] == len(items),
                    f"the replay admitted {result['admitted']} of {len(items)} requests")
        gates.check("replay-bit-identical",
                    normalized(server.snapshot()) == normalized(live["snapshot"]),
                    "in-process replay snapshot differs from the served one")
    estimate_s = estimate_pass(server, olh, tracer)
    totals = tracer.totals()
    reports = sum(req.n_reports for req, _ in items)
    numeric = sum(req.n_reports for req, _ in items if req.op == "submit")
    categorical = reports - numeric
    metrics = e2e["service_metrics"]

    def per_report(name: str, base: int, key: str = "self_ns") -> Optional[float]:
        if name in tracer.notes and name not in totals:
            return None
        t = totals.get(name)
        return (t[key] / base) if t and base else 0.0

    service_ns = e2e["cpu_us_per_report"] * 1e3
    path = ("protocol.decode", "guards.check", "guards.commit", "aggregation.fold")
    path_ns = [per_report(n, reports) for n in path]
    residual = (service_ns - sum(path_ns)) if None not in path_ns else None
    snap = totals.get("aggregation.snapshot")
    layer = {
        "mechanisms.release_ns_per_report": per_report("mechanisms.release", numeric, "incl_ns"),
        "mechanisms.oracle_report_ns_per_report": per_report("mechanisms.oracle_report", categorical, "incl_ns"),
        "mechanisms.support_counts_ns_per_report": per_report("mechanisms.support_counts", categorical, "incl_ns"),
        "runtime.draws_per_report": side.draws / numeric if numeric else 0.0,
        "protocol.encode_ns_per_report": per_report("protocol.encode", reports, "incl_ns"),
        "protocol.decode_ns_per_report": path_ns[0],
        "guards.check_ns_per_report": path_ns[1],
        "guards.commit_ns_per_report": path_ns[2],
        "guards.admitted_share": result["admitted"] / result["checks"] if result["checks"] else None,
        "aggregation.fold_ns_per_report": path_ns[3],
        "aggregation.devices_tracked": float(live["snapshot"].get("n_devices_tracked", 0)),
        "aggregation.snapshot_us": (snap["incl_ns"] / snap["calls"] / 1e3) if snap else 0.0,
        "queries.estimate_us_per_epoch": estimate_s * 1e6,
        "service.admit_p50_us": _num(metrics.get("latency_p50_us")),
        "service.admit_p99_us": _num(metrics.get("latency_p99_us")),
        "service.max_queue_depth": _num(metrics.get("max_queue_depth")),
        "service.busy_replies": float(e2e["busy"]),
        "service.events_per_request": (metrics.get("events") or 0) / e2e["requests_sent"],
        "service.residual_ns_per_report": residual,
        "parallel.numeric_run_s": 0.0,
        "parallel.categorical_run_s": 0.0,
        "parallel.speedup": 0.0,
        "loadgen.lag_p99_ms": e2e["lag_ms"]["tail"] if not binary else 0.0,
        "trace.overhead_share": traced_prefix / untraced - 1.0,
    }
    table = {
        "reports": reports,
        "service_cpu_ns_per_report": service_ns,
        "rows": {name: {**t, "self_ns_per_report": t["self_ns"] / reports} for name, t in totals.items()},
        "device_side": sorted(DEVICE_SIDE & set(totals)),
        "service_path": dict(zip(path, path_ns)),
        "service_path_sum_ns": sum(path_ns) if None not in path_ns else None,
        "residual_ns_per_report": residual,
    }
    return layer, table


def _num(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None
