"""The coordinator: plan shards, run them, merge — deterministically.

:func:`run_sharded` is the one sharded orchestrator.  The numeric fleet
(:func:`run_fleet_sharded`, below) and the categorical fleet
(:func:`~repro.parallel.categorical.run_fleet_categorical`) are each a
:class:`ShardSpec` over it, supplying only what differs per kind: the
worker-side recipe, the output buffers it fills, and the server merge.
The contract:

* **Determinism across worker counts.**  The shard plan and the
  per-shard noise streams (``SeedSequence.spawn`` sub-seeds of the fleet
  seed) depend only on ``(n_devices, shards, source_seed)`` — never on
  ``workers``, which only decides where the buffers live (in-process
  arrays inline, a :class:`~repro.parallel.shm.ShmArena` under a pool).
  Resampling agrees with itself across worker counts but not with other
  shard plans (its redraw interleaving is batch-shaped).
* **Bridge to the legacy path.**  ``shards=1`` uses the *root* seed
  sequence (no spawn), so its single shard consumes exactly the stream
  ``run_fleet(batched=True, source_seed=...)`` consumes — bit-identical
  to the unsharded fleet, event channels included.
* **Coordinator-owned simulation randomness and layout.**  Dropout masks
  are drawn here with the same generator call pattern as the unsharded
  fleet; every output buffer is sized from them and carved into
  per-shard rows before any worker starts.  Workers consume only their
  audited stream, write only their rows, and return only their trace.
* **Shard-ordered merge.**  Server submissions, trace events
  (re-numbered through :meth:`~repro.runtime.ReleasePipeline.adopt`),
  counter aggregates and per-device budget state all fold in shard
  order, so every merged artifact is reproducible.

Note on traces: in a sharded run each ``ReleaseEvent`` is per
(epoch, shard) — channel ``epoch-E/shard-S`` — and its
``budget_remaining`` is the *shard's* remaining budget sum, not the
fleet's (each worker only sees its slice).  Fleet-wide budget state
lives on the returned devices, as in the unsharded path.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExhaustedError, ConfigurationError
from ..mechanisms import SensorSpec, make_mechanism
from ..rng.codebook import backend_fingerprint, codebook_cache
from ..rng.urng import SplitStreamSource, audited_generator, shard_seed_sequences
from ..runtime import ArrayCharge, CounterSink
from ..runtime.events import ReleaseEvent
from ..runtime.pipeline import ReleasePipeline, default_pipeline
from .planner import ExecutionPlan
from .sharding import ShardPlan, plan_shards
from .shm import ShmArena
from .worker import (
    CodebookShipment,
    ShardResult,
    ShardTask,
    install_shipments,
    run_shard,
)

__all__ = ["run_fleet_sharded", "plan_trace_event"]


def _shippable(fingerprint) -> bool:
    # Identity-keyed fingerprints (unknown backends) cannot be shared
    # across processes — the worker-side unpickled instance has a new
    # id, so the worker rebuilds its table (deterministically) instead.
    return not (len(fingerprint) == 3 and fingerprint[1] == "id")


def _codebook_shipments(mechanism) -> List[CodebookShipment]:
    """Extract the coordinator's resolved codebook for worker warm-up."""
    rng = getattr(mechanism, "rng", None)
    if rng is None or not hasattr(rng, "kernel"):
        return []
    if rng.kernel != "codebook":
        return []
    entry = codebook_cache().peek(rng.config, rng.log_backend)
    fingerprint = backend_fingerprint(rng.log_backend)
    if entry is None or not _shippable(fingerprint):
        return []
    return [
        CodebookShipment(
            config=rng.config, fingerprint=fingerprint, table=entry.table
        )
    ]


def plan_trace_event(execution_plan: ExecutionPlan) -> ReleaseEvent:
    """The plan-echo event: scheduling metadata, visibly not a release.

    ``batch=0``/``draws=0`` and a ``plan/...`` channel make it inert for
    every counter that aggregates draws or batches; it exists so a trace
    records *how* the run was scheduled next to what it released.
    """
    return ReleaseEvent(
        seq=0,  # renumbered on adoption
        mechanism="execution-plan",
        epsilon=0.0,
        claimed_loss=0.0,
        guard="none",
        batch=0,
        draws=0,
        resample_rounds=0,
        max_rounds_used=0,
        channel=f"plan/{execution_plan.describe()}",
    )


@dataclasses.dataclass(frozen=True)
class ShardLayout:
    """The coordinator-drawn facts every spec callback reads."""

    plan: ShardPlan
    reporting: np.ndarray
    """Reporting masks, ``(n_epochs, n_devices)`` bool."""
    tally: np.ndarray
    """Reports per (shard, epoch), ``(n_shards, n_epochs)`` int64."""


@dataclasses.dataclass(frozen=True)
class OutputBuffer:
    """One coordinator-allocated output array, stacked shard-major.

    ``per`` is what one row stands for, which fixes how many rows each
    shard owns: ``"device"`` (one per device of its slice), ``"report"``
    (one per report it releases, epochs in order) or ``"epoch"``.
    """

    per: str
    dtype: object
    row_shape: Tuple[int, ...] = ()
    fill: float = 0.0


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """What one kind of fleet supplies to :func:`run_sharded`."""

    recipe: object
    """Picklable worker side: ``recipe.run(task, arrays, pipeline)``."""
    outputs: Mapping[str, OutputBuffer]
    """The output buffers the recipe fills, by field name."""
    merge: Callable[[ShardLayout, Mapping[str, np.ndarray]], None]
    """Fold the filled buffers into the server (and whatever else the
    kind keeps), in shard order.  The buffers die after the call."""
    shipments: Sequence[CodebookShipment] = ()
    """Codebook tables to warm every pool worker with."""


def _allocate(arena: Optional[ShmArena], buffer: OutputBuffer, rows: np.ndarray):
    """One output buffer (shard ``s`` owns ``rows[s]`` rows): its
    coordinator view and its per-shard fields."""
    bounds = np.concatenate([[0], np.cumsum(rows)])
    shape = (int(bounds[-1]),) + tuple(buffer.row_shape)
    if arena is None:
        view = np.zeros(shape, dtype=buffer.dtype)
        fields = [view[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    else:
        # Freshly created segments are zero pages; no memset needed.
        ref = arena.allocate(shape, buffer.dtype)
        view = arena.view(ref)
        row = int(np.prod(buffer.row_shape, dtype=np.int64))
        fields = [
            ref.sub(int(lo) * row, (int(hi - lo),) + shape[1:])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    if buffer.fill:
        view[...] = buffer.fill
    return view, fields


def record_bulk_losses(server, reporting: np.ndarray, loss: float) -> None:
    """Record the composition bound in bulk: every report claims the same
    per-release loss, and each device's report count is fixed by the
    coordinator-drawn masks."""
    counts = reporting.sum(axis=0)
    server.record_claimed_losses(
        {f"dev-{i:04d}": float(counts[i]) * loss for i in np.flatnonzero(counts)}
    )


def run_sharded(
    spec: ShardSpec,
    true_values: np.ndarray,
    dropout: float,
    rng: Optional[np.random.Generator],
    source_seed,
    pipeline: Optional[ReleasePipeline],
    workers: int,
    shards: Optional[int],
    execution_plan: Optional[ExecutionPlan],
    kind_kwargs: Mapping[str, object],
) -> Tuple[ShardLayout, CounterSink, List[List[ReleaseEvent]]]:
    """Run one fleet epoch matrix through ``spec``, sharded.

    Validates the run, draws the reporting masks, spawns the per-shard
    seed sequences, allocates and carves the output buffers, runs the
    shards (inline for ``workers=1``, else on a process pool whose
    workers are warmed with ``spec.shipments``), lets ``spec.merge``
    fold the buffers, adopts the shard events into the target pipeline
    and merges the counters — all in shard order.  Shared-memory blocks
    are unlinked on every exit path, a killed worker included.

    Returns the layout, the merged counters and each shard's events.
    """
    if execution_plan is not None:
        workers = execution_plan.workers
        if shards is None:
            shards = execution_plan.shards
    if true_values.ndim != 2 or 0 in true_values.shape:
        raise ConfigurationError(
            "true_values must be a non-empty (n_epochs, n_devices) matrix"
        )
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    # `rng` and `pipeline` are named parameters of both public runners, so
    # only a noise source can arrive among the kind's keyword arguments.
    if "source" in kind_kwargs:
        raise ConfigurationError(
            "a sharded fleet derives its noise source per shard; pass "
            "source_seed instead of a shared instance"
        )
    # dplint: allow[DPL001] -- dropout/straggler simulation randomness only;
    # release noise comes from the per-shard audited sources.
    rng = rng or np.random.default_rng()
    n_epochs, n_devices = true_values.shape
    plan: ShardPlan = plan_shards(n_devices, shards)

    # All simulation randomness is drawn here, with the exact call
    # pattern of the unsharded fleet (one `random(n)` per epoch, plus
    # one `integers(n)` on an all-straggler epoch), so a given `rng`
    # seed yields the same reporting sets sharded or not.
    reporting = np.empty((n_epochs, n_devices), dtype=bool)
    for epoch in range(n_epochs):
        mask = rng.random(n_devices) >= dropout
        if not mask.any():
            mask[int(rng.integers(n_devices))] = True  # never a silent epoch
        reporting[epoch] = mask
    layout = ShardLayout(
        plan=plan,
        reporting=reporting,
        tally=np.add.reduceat(
            reporting, list(plan.offsets[:-1]), axis=1, dtype=np.int64
        ).T,
    )
    rows_per_shard = {
        "device": np.diff(plan.offsets),
        "report": layout.tally.sum(axis=1),
        "epoch": np.full(plan.n_shards, n_epochs),
    }
    seqs = shard_seed_sequences(source_seed, plan.n_shards)

    # Inline shards read slice views and write plain arrays; a pool gets
    # the same arrays as named shared-memory blocks, one block per input
    # kind (every shard's slice packed inside) and one per output.
    arena = ShmArena() if workers > 1 else None
    views: Dict[str, np.ndarray] = {}
    try:
        inputs = {}
        for name, matrix in (("truth", true_values), ("reporting", reporting)):
            slices = [matrix[:, start:stop] for start, stop in plan.slices]
            inputs[name] = slices if arena is None else arena.pack(slices)
        outputs = {}
        for name, buffer in spec.outputs.items():
            rows = rows_per_shard[buffer.per]
            views[name], outputs[name] = _allocate(arena, buffer, rows)
        tasks = [
            ShardTask(
                shard_index=s,
                n_shards=plan.n_shards,
                start=start,
                seed_seq=seqs[s],
                recipe=spec.recipe,
                fields={
                    name: per_shard[s]
                    for name, per_shard in {**inputs, **outputs}.items()
                },
            )
            for s, (start, _) in enumerate(plan.slices)
        ]

        if arena is None:
            results: List[ShardResult] = [run_shard(t) for t in tasks]
        else:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, plan.n_shards),
                initializer=install_shipments,
                initargs=(tuple(spec.shipments),),
            ) as pool:
                # map() yields in shard order, so a failing shard surfaces
                # deterministically (lowest shard index first).
                results = list(pool.map(run_shard, tasks))

        spec.merge(layout, views)
    finally:
        # Drop the coordinator's views before close() so every mapping
        # can actually unmap (unlink succeeds regardless).
        views.clear()
        if arena is not None:
            arena.close()

    target_pipeline = pipeline if pipeline is not None else default_pipeline()
    if execution_plan is not None:
        target_pipeline.adopt([plan_trace_event(execution_plan)])
    for result in results:
        target_pipeline.adopt(result.events)
    counters = functools.reduce(
        CounterSink.merge, (r.counter for r in results), CounterSink()
    )
    return layout, counters, [r.events for r in results]


# ---------------------------------------------------------------------------
# The numeric kind: one mechanism arm, values per report.
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NumericRecipe:
    """Worker side of the numeric fleet: one mechanism arm per shard."""

    arm: str
    sensor: SensorSpec
    epsilon: float
    mechanism_kwargs: Mapping[str, object]

    def run(self, task: ShardTask, arrays, pipeline: ReleasePipeline) -> None:
        """Mirror :func:`repro.aggregation.fleet.run_fleet`'s batched path
        on the shard's slice: one pipeline release per (epoch, shard) with
        vectorized :class:`~repro.runtime.ArrayCharge` budget accounting.

        Outputs: ``values`` is the shard's flat value region, epochs in
        order, each epoch's reports contiguous.  Under a device budget,
        ``remaining`` / ``cached_codes`` / ``n_cached`` are the shard's
        rows of the per-device budget state, which ``ArrayCharge``
        mutates in place.
        """
        kwargs = dict(self.mechanism_kwargs, pipeline=pipeline)
        if self.arm != "ideal":
            kwargs.setdefault("source", SplitStreamSource(task.seed_seq))
        else:
            kwargs.setdefault("rng", audited_generator(task.seed_seq))
        mechanism = make_mechanism(self.arm, self.sensor, self.epsilon, **kwargs)
        if hasattr(mechanism, "rng") and hasattr(mechanism.rng, "kernel"):
            mechanism.rng.kernel  # resolve the codebook before the epoch loop
        loss = mechanism.claimed_loss_bound

        truth, reporting = arrays["truth"], arrays["reporting"]
        values_out, budgeted = arrays["values"], "remaining" in arrays
        out_offset = 0
        for epoch in range(reporting.shape[0]):
            idx = np.flatnonzero(reporting[epoch])
            if idx.size == 0:
                continue
            accounting = None
            if budgeted:
                accounting = ArrayCharge(
                    arrays["remaining"], arrays["cached_codes"], loss, index=idx
                )
            try:
                outcome = mechanism.release(
                    truth[epoch, idx],
                    accounting=accounting,
                    channel=task.channel(epoch),
                )
            except BudgetExhaustedError as exc:
                # Typed, picklable: crosses the pool boundary as the same
                # error the unsharded fleet raises.
                raise ConfigurationError(str(exc)) from exc
            if budgeted:
                arrays["n_cached"][idx] += outcome.cache_hits
            values_out[out_offset : out_offset + idx.size] = outcome.values
            out_offset += idx.size


def run_fleet_sharded(
    true_values: np.ndarray,
    sensor: SensorSpec,
    epsilon: float,
    arm: str = "thresholding",
    device_budget: Optional[float] = None,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    source_seed=None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    streaming: bool = False,
    count_thresholds: Sequence[float] = (),
    with_devices: bool = True,
    execution_plan: Optional[ExecutionPlan] = None,
    **mechanism_kwargs,
):
    """Run a fleet epoch matrix sharded across worker processes.

    Parameters beyond :func:`~repro.aggregation.fleet.run_fleet`:

    ``workers``
        Process count.  ``1`` runs the shards inline (no pool) — same
        results, no multiprocessing overhead.  A pool exchanges the
        shard arrays through named shared-memory blocks
        (:mod:`repro.parallel.shm`); only block names and the trace
        cross the pipe.
    ``shards``
        Shard count (default :data:`~repro.parallel.sharding.DEFAULT_SHARDS`,
        clamped to ``n_devices``).  Part of the reproducibility key.
    ``streaming``
        Build the server with ``streaming=True``: shard batches fold
        into per-epoch running moments, O(epochs) server memory.
    ``count_thresholds``
        Thresholds whose count-above counters a streaming server keeps.
    ``with_devices``
        ``False`` skips materializing per-device ``Device`` objects
        (the 50k-device benchmark path); the result's ``devices`` list
        is then empty.  Budget enforcement is unaffected — it is
        vectorized in the workers either way.
    ``execution_plan``
        A :class:`~repro.parallel.planner.ExecutionPlan` (usually from
        :func:`~repro.parallel.planner.plan_execution`).  Overrides
        ``workers`` (and ``shards`` when not explicitly given), and is
        echoed into the trace as an ``execution-plan`` event.
    """
    from ..aggregation.device import Device
    from ..aggregation.fleet import FleetResult
    from ..aggregation.server import AggregationServer

    true_values = np.asarray(true_values, dtype=float)
    # Coordinator reference mechanism: validates the configuration once,
    # provides the loss bound, the devices' shared mechanism handle, and
    # the codebook table to ship.  It consumes no noise (never released).
    # The shard recipes build their mechanisms from the same kwargs.
    kwargs = dict(mechanism_kwargs)
    if arm != "ideal":
        kwargs.setdefault("input_bits", 14)
    reference = make_mechanism(arm, sensor, epsilon, **kwargs)
    loss = reference.claimed_loss_bound

    lam = sensor.d / epsilon if arm != "rr" else None
    server = AggregationServer(
        noise_scale=lam, streaming=streaming, count_thresholds=count_thresholds
    )
    devices: List[Device] = []

    outputs = {
        # Each shard's reports, epochs in order: the layout is fixed by
        # the masks, so no size metadata needs to ride back.
        "values": OutputBuffer("report", np.float64),
    }
    if device_budget is not None:
        # Per-device state exists only under a budget: without one every
        # release is fresh and nothing is ever cached.
        outputs["remaining"] = OutputBuffer(
            "device", np.float64, fill=float(device_budget)
        )
        outputs["cached_codes"] = OutputBuffer("device", np.float64, fill=np.nan)
        outputs["n_cached"] = OutputBuffer("device", np.int64)

    def merge(layout: ShardLayout, views: Mapping[str, np.ndarray]) -> None:
        n_epochs = layout.tally.shape[1]
        bounds = np.concatenate([[0], np.cumsum(layout.tally)])
        for epoch in range(n_epochs):
            for s, (start, stop) in enumerate(layout.plan.slices):
                lo, hi = bounds[s * n_epochs + epoch : s * n_epochs + epoch + 2]
                if lo == hi:
                    continue
                ids = None
                if not streaming:
                    idx = start + np.flatnonzero(layout.reporting[epoch, start:stop])
                    ids = [f"dev-{i:04d}" for i in idx]
                # donate: the buffer dies after the merge, so a retaining
                # server copies; a streaming fold consumes it in place.
                server.submit_array(
                    epoch, views["values"][lo:hi], loss, device_ids=ids, donate=True
                )
        if streaming:
            record_bulk_losses(server, layout.reporting, loss)
        if with_devices:
            # Every report is either fresh or served from the cache.
            n_reports = layout.reporting.sum(axis=0)
            for i in range(layout.plan.n_devices):
                dev = Device(f"dev-{i:04d}", reference, budget=device_budget)
                dev.n_fresh = int(n_reports[i])
                if device_budget is not None:
                    dev.n_cached = int(views["n_cached"][i])
                    dev.n_fresh -= dev.n_cached
                    dev._accountant._spent = float(device_budget) - float(
                        views["remaining"][i]
                    )
                    if not np.isnan(views["cached_codes"][i]):
                        dev._cache.code = float(views["cached_codes"][i])
                devices.append(dev)

    spec = ShardSpec(
        recipe=NumericRecipe(
            arm=arm,
            sensor=sensor,
            epsilon=epsilon,
            mechanism_kwargs=kwargs,
        ),
        outputs=outputs,
        merge=merge,
        shipments=_codebook_shipments(reference),
    )
    layout, counters, _ = run_sharded(
        spec,
        true_values,
        dropout=dropout,
        rng=rng,
        source_seed=source_seed,
        pipeline=pipeline,
        workers=workers,
        shards=shards,
        execution_plan=execution_plan,
        kind_kwargs=mechanism_kwargs,
    )
    reporting = layout.reporting
    true_means = [
        float(true_values[epoch, reporting[epoch]].mean())
        for epoch in range(reporting.shape[0])
    ]
    return FleetResult(
        server=server,
        devices=devices,
        true_means=true_means,
        estimated_means=[server.summarize(e).mean for e in server.epochs],
        counters=counters,
        shard_plan=layout.plan,
    )
