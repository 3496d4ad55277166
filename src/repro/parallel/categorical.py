"""Sharded categorical fleet: vector-valued reports, O(d) merges.

The frequency-oracle kind of :func:`~repro.parallel.runner.run_sharded`.
Each shard privatizes its device slice through an oracle arm
(:func:`~repro.mechanisms.make_oracle`) on its own spawned audited
stream, then *aggregates locally*: the shard writes back its per-epoch
support-count vector (O(d) integers), never the reports.  Counts fold by
integer addition, which is associative, so the merged counts — and
everything estimated from them — are bit-identical for any worker count.

Per-user public randomness survives sharding: OLH's hash is a pure
function of the *global* device index, which every shard derives from
its start offset and the reporting mask (dropout makes the reporting
set non-contiguous), so shard layout never changes any user's hash.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.oracles import make_oracle
from ..queries.frequency import FrequencyEstimate
from ..rng.urng import SplitStreamSource
from ..runtime import CounterSink, JsonlSink, ReleasePipeline
from .planner import ExecutionPlan
from .runner import (
    OutputBuffer,
    ShardLayout,
    ShardSpec,
    record_bulk_losses,
    run_sharded,
)
from .sharding import ShardPlan
from .worker import ShardTask

__all__ = ["CategoricalFleetResult", "run_fleet_categorical"]


@dataclasses.dataclass(frozen=True)
class OracleRecipe:
    """Worker side of the categorical fleet: one frequency oracle per shard."""

    oracle: str
    n_categories: int
    epsilon: float
    oracle_kwargs: Mapping[str, object]

    def run(self, task: ShardTask, arrays, pipeline: ReleasePipeline) -> None:
        """Privatize and locally aggregate the shard's slice across epochs.

        One pipeline release per (epoch, shard); the reports are folded
        into the shard's support-count row (``counts``, one row per
        epoch) immediately and discarded — the streaming discipline
        starts at the worker.
        """
        arm = make_oracle(
            self.oracle,
            self.n_categories,
            self.epsilon,
            source=SplitStreamSource(task.seed_seq),
            pipeline=pipeline,
            **self.oracle_kwargs,
        )
        truth, reporting = arrays["truth"], arrays["reporting"]
        counts_out = arrays["counts"]
        for epoch in range(reporting.shape[0]):
            idx = np.flatnonzero(reporting[epoch])
            if idx.size == 0:
                continue
            # Global device indices: the per-user public randomness key.
            users = task.start + idx
            reports = arm.report(
                truth[epoch, idx],
                channel=task.channel(epoch),
                user_offset=users,
            )
            counts_out[epoch] = arm.support_counts(reports, user_offset=users)


@dataclasses.dataclass(frozen=True)
class CategoricalFleetResult:
    """Outcome of a categorical fleet simulation."""

    server: object
    #: The coordinator's reference oracle (public channel metadata only —
    #: it never consumed noise).
    oracle: object
    #: Per-epoch unbiased frequency estimates.
    estimates: List[FrequencyEstimate]
    #: Per-epoch true frequencies (over the devices that reported).
    true_frequencies: List[np.ndarray]
    counters: CounterSink
    shard_plan: ShardPlan

    @property
    def mean_abs_error(self) -> float:
        """MAE of the per-epoch frequency vectors, averaged over epochs."""
        errs = [
            float(np.abs(est.frequencies - f).mean())
            for est, f in zip(self.estimates, self.true_frequencies)
        ]
        return float(np.mean(errs))


def run_fleet_categorical(
    true_values: np.ndarray,
    n_categories: int,
    epsilon: float,
    oracle: str = "oue",
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    source_seed=None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    streaming: bool = True,
    count_thresholds: Sequence[float] = (),
    trace_path=None,
    execution_plan: Optional[ExecutionPlan] = None,
    **oracle_kwargs,
) -> CategoricalFleetResult:
    """Run a categorical fleet epoch matrix sharded across processes.

    ``true_values`` is an ``(n_epochs, n_devices)`` integer category
    matrix; each reporting device sends one privatized report per epoch
    through the chosen frequency-oracle arm.  The server receives only
    per-shard support counts (``submit_counts``) — the categorical path
    is streaming-native, ``streaming`` only controls the server's mode
    flag for any numeric traffic sharing it.  ``trace_path`` appends
    every shard's release events to one JSONL trace, shard by shard, via
    :class:`~repro.runtime.JsonlSink` in append mode.

    ``workers``/``shards``/``execution_plan`` behave exactly as on
    :func:`~repro.parallel.runner.run_fleet_sharded`.

    Determinism contract: bit-identical for any ``workers``; the
    ``(shards, source_seed, n_devices)`` triple fixes the streams.
    """
    from ..aggregation.server import AggregationServer

    true_values = np.asarray(true_values)
    if not np.issubdtype(true_values.dtype, np.integer):
        raise ConfigurationError("categorical fleet values must be integers")
    true_values = true_values.astype(np.int64, copy=False)
    # Empty matrices pass through to the coordinator's shape check.
    if true_values.size and (
        true_values.min() < 0 or true_values.max() >= n_categories
    ):
        raise ConfigurationError(f"categories must be in 0..{n_categories - 1}")

    # Reference oracle: validates the configuration once and supplies the
    # public channel metadata for estimation.  It consumes no noise.
    reference = make_oracle(oracle, n_categories, epsilon, **oracle_kwargs)
    loss = reference.claimed_loss_bound
    server = AggregationServer(streaming=streaming, count_thresholds=count_thresholds)
    d = int(n_categories)

    def merge(layout: ShardLayout, views: Mapping[str, np.ndarray]) -> None:
        n_shards, n_epochs = layout.tally.shape
        counts = views["counts"].reshape(n_shards, n_epochs, d)
        for epoch in range(n_epochs):
            for s in range(n_shards):
                n = int(layout.tally[s, epoch])
                if n:
                    # The count fold is additive and consumes the row
                    # immediately; nothing outlives the buffer.
                    server.submit_counts(epoch, counts[s, epoch], n, loss)
        record_bulk_losses(server, layout.reporting, loss)

    spec = ShardSpec(
        recipe=OracleRecipe(
            oracle=oracle,
            n_categories=d,
            epsilon=float(epsilon),
            oracle_kwargs=dict(oracle_kwargs),
        ),
        # One count row per epoch: the shard's (n_epochs × d) region.
        outputs={"counts": OutputBuffer("epoch", np.int64, (d,))},
        merge=merge,
    )
    layout, counters, events = run_sharded(
        spec,
        true_values,
        dropout=dropout,
        rng=rng,
        source_seed=source_seed,
        pipeline=pipeline,
        workers=workers,
        shards=shards,
        execution_plan=execution_plan,
        kind_kwargs=oracle_kwargs,
    )
    if trace_path is not None:
        # One append-mode sink per shard: successive sinks extend the
        # file, which is exactly the JsonlSink(append=True) contract.
        for shard_events in events:
            with JsonlSink(trace_path, append=True) as sink:
                for event in shard_events:
                    sink.emit(event)

    reporting = layout.reporting
    true_frequencies = [
        np.bincount(true_values[epoch, reporting[epoch]], minlength=n_categories)
        / max(int(reporting[epoch].sum()), 1)
        for epoch in range(reporting.shape[0])
    ]
    return CategoricalFleetResult(
        server=server,
        oracle=reference,
        estimates=[
            server.frequency_estimates(e, reference)
            for e in server.categorical_epochs
        ],
        true_frequencies=true_frequencies,
        counters=counters,
        shard_plan=layout.plan,
    )
