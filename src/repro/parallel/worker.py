"""The per-shard worker: one device slice, one noise stream, one pipeline.

Everything a worker needs crosses the process boundary once, as a
picklable :class:`ShardTask`: the spawned
:class:`~numpy.random.SeedSequence` for the shard's audited stream, the
kind's *recipe* (a numeric mechanism arm or a frequency oracle), and
named array *fields* — the shard's truth slice, its reporting masks (the
coordinator draws all dropout randomness so workers consume *only*
their own audited stream) and its regions of the coordinator-allocated
output buffers.

A field is a plain ndarray when the shards run inline (``workers=1``;
inputs are slice views of the coordinator's matrices) and a
:class:`~repro.parallel.shm.ShmArrayRef` into a named shared-memory
block under a pool.  :func:`resolve` turns either into an ndarray, so
the worker body never asks which one it got, and only the trace rides
back.  :func:`run_shard` is module-level so it pickles by reference
into a ``ProcessPoolExecutor``.

Codebook shipping: pool workers start via :func:`install_shipments`,
which adopts the coordinator's already-built ``m → k`` table into the
process-wide :class:`~repro.rng.codebook.CodebookCache` — each worker
process warms once per (config, backend) instead of re-sweeping the
``2**Bu`` alphabet.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..rng.codebook import codebook_cache
from ..runtime import CounterSink, ReleasePipeline, RingBufferSink
from ..runtime.events import ReleaseEvent
from .shm import ShmArrayRef

__all__ = [
    "CodebookShipment",
    "ShardTask",
    "ShardResult",
    "resolve",
    "run_shard",
    "install_shipments",
]

#: A shard's array field: in-process ndarray or a shared-memory ref.
Field = Union[np.ndarray, ShmArrayRef]


@dataclasses.dataclass(frozen=True)
class CodebookShipment:
    """A pre-built codebook table shipped coordinator → worker.

    The table is a deterministic function of ``(config, backend)``, so
    adopting it is exactly as audited as rebuilding it — see
    :meth:`repro.rng.codebook.CodebookCache.install`.
    """

    config: object  # FxpLaplaceConfig (kept untyped: no rng import cycle)
    fingerprint: Tuple
    table: np.ndarray


def install_shipments(shipments: Sequence[CodebookShipment]) -> None:
    """Pool initializer: warm this process's codebook cache."""
    cache = codebook_cache()
    for shipment in shipments:
        cache.install(shipment.config, shipment.fingerprint, shipment.table)


@dataclasses.dataclass
class ShardTask:
    """Everything one shard needs, picklable."""

    shard_index: int
    n_shards: int
    start: int
    """Global device index of this shard's first device."""
    seed_seq: np.random.SeedSequence
    """Spawned sub-seed of the fleet seed; this shard's audited stream."""
    recipe: object
    """The kind's privatization: ``recipe.run(task, arrays, pipeline)``."""
    fields: Dict[str, Field]
    """``truth`` and ``reporting`` (shape ``(n_epochs, shard_devices)``)
    plus the shard's output regions, keyed by the kind's buffer names."""

    def channel(self, epoch: int) -> str:
        """The release channel of one (epoch, shard).

        A single-shard plan reproduces the legacy per-epoch channel
        names, so shards=1 traces are indistinguishable from unsharded
        ones.
        """
        if self.n_shards == 1:
            return f"epoch-{epoch}"
        return f"epoch-{epoch}/shard-{self.shard_index}"


@dataclasses.dataclass
class ShardResult:
    """What rides back from a shard: its trace, never its data (the
    privatized outputs already sit in the coordinator's buffers)."""

    events: List[ReleaseEvent]
    counter: CounterSink


def resolve(field: Field) -> np.ndarray:
    """A field as an ndarray: passthrough, or attach the shared block."""
    if isinstance(field, ShmArrayRef):
        return field.attach()
    return field


def run_shard(task: ShardTask) -> ShardResult:
    """Privatize one shard's device slice across all epochs.

    The worker owns a private :class:`~repro.runtime.ReleasePipeline`
    (a :class:`~repro.runtime.CounterSink` plus a ring buffer) and hands
    it, with the resolved arrays, to the kind's recipe.  The recipe
    releases one batch per (epoch, shard) with a reporting device —
    shard-epochs with none are skipped deterministically, since the
    masks are fixed inputs — and writes into the output regions.
    """
    arrays = {name: resolve(field) for name, field in task.fields.items()}
    n_epochs = arrays["reporting"].shape[0]
    counter = CounterSink()
    ring = RingBufferSink(capacity=max(n_epochs + 4, 16))
    task.recipe.run(task, arrays, ReleasePipeline(sinks=[counter, ring]))
    return ShardResult(events=ring.events, counter=counter)
