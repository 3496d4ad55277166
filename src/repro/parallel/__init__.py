"""Multi-core sharded fleet execution.

Splits a fleet epoch across worker processes without giving up the
repo's headline invariant — determinism.  The device axis is cut into a
fixed number of shards (:mod:`repro.parallel.sharding`), each shard owns
an independent audited noise stream spawned from the fleet seed via
``numpy.random.SeedSequence.spawn`` (:mod:`repro.rng.urng`), and each
worker privatizes its slice through a private
:class:`~repro.runtime.ReleasePipeline` (:mod:`repro.parallel.worker`).
One coordinator (:func:`repro.parallel.runner.run_sharded`) drives both
fleet kinds — numeric mechanism arms (:func:`run_fleet_sharded`) and
frequency oracles (:func:`run_fleet_categorical`) — and merges shard
outputs in shard order, so the result is **bit-identical** for any
worker count: the shard plan, not the pool size, fixes the noise streams.

Workers write into coordinator-allocated output buffers: plain arrays
when the shards run inline (``workers=1``), named shared-memory blocks
(:mod:`repro.parallel.shm`) under a pool, where only block names and
the trace cross the pool pipe.  The adaptive planner
(:mod:`repro.parallel.planner`) picks serial-vs-pool and the worker
count from host probes while the shard count (the reproducibility key)
stays caller-fixed.
"""

from .categorical import CategoricalFleetResult, run_fleet_categorical
from .planner import ExecutionPlan, calibrate_throughput, plan_execution
from .sharding import DEFAULT_SHARDS, ShardPlan, clamp_workers, plan_shards
from .shm import ShmArena, ShmArrayRef, attach_array, detach_all
from .worker import CodebookShipment, ShardResult, ShardTask, run_shard
from .runner import plan_trace_event, run_fleet_sharded

__all__ = [
    "DEFAULT_SHARDS",
    "ShardPlan",
    "plan_shards",
    "clamp_workers",
    "ExecutionPlan",
    "plan_execution",
    "calibrate_throughput",
    "ShmArena",
    "ShmArrayRef",
    "attach_array",
    "detach_all",
    "CodebookShipment",
    "ShardTask",
    "ShardResult",
    "run_shard",
    "run_fleet_sharded",
    "plan_trace_event",
    "CategoricalFleetResult",
    "run_fleet_categorical",
]
