"""Recorded golden digests for the sharded fleet runners.

Every grid point below was run once through ``run_fleet_sharded`` /
``run_fleet_categorical`` and its outputs reduced to SHA-256 digests,
stored in ``parallel_goldens.json`` next to this file.  The test replays
each point at workers ∈ {1, 2, 4} and demands the same digests
bit-for-bit, so any change to the coordinator, the worker, the output
buffers or the merge that moves a single released bit shows up here.

Digested outputs:

* numeric — per-epoch server values and device ids (retain mode) or
  moments (streaming), per-device ``n_fresh`` / ``n_cached`` /
  ``remaining_budget``, and the merged counter totals;
* categorical — per-epoch category counts and ``n``, and the merged
  counter totals.

Re-record (only when a change to the released streams is intended)::

    PYTHONPATH=src python tests/unit/test_parallel_goldens.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.mechanisms import SensorSpec
from repro.parallel import run_fleet_categorical, run_fleet_sharded

GOLDENS = pathlib.Path(__file__).with_name("parallel_goldens.json")

SENSOR = SensorSpec(0.0, 8.0)
NUMERIC_ARMS = ("thresholding", "baseline", "rr", "resampling")
ORACLES = ("krr", "oue", "olh")
COUNTER_KEYS = (
    "events",
    "samples",
    "draws",
    "cache_hits",
    "exhausted",
    "charged_total",
    "max_rounds_used",
    "per_mechanism",
    "per_kernel",
)


def numeric_grid():
    for arm in NUMERIC_ARMS:
        for dropout in (0.0, 0.2):
            for budget in (None, 2.5):
                for mode in ("retain", "streaming"):
                    yield f"{arm}-d{dropout}-b{budget}-{mode}", (
                        arm,
                        dropout,
                        budget,
                        mode,
                    )


def categorical_grid():
    for oracle in ORACLES:
        for dropout in (0.0, 0.1):
            yield f"{oracle}-d{dropout}", (oracle, dropout)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _counter_digest(counters) -> str:
    summary = counters.summary()
    return _digest({key: summary[key] for key in COUNTER_KEYS})


def run_numeric(arm, dropout, budget, mode, workers):
    rng = np.random.default_rng(0)
    truth = rng.uniform(0.5, 7.5, size=(3, 48))
    if arm == "rr":
        truth = np.where(truth > 4.0, SENSOR.M, SENSOR.m)
    return run_fleet_sharded(
        truth,
        SENSOR,
        0.5,
        arm=arm,
        device_budget=budget,
        dropout=dropout,
        rng=np.random.default_rng(9),
        source_seed=42,
        workers=workers,
        shards=4,
        streaming=(mode == "streaming"),
    )


def run_categorical(oracle, dropout, workers):
    truth = np.random.default_rng(12).integers(0, 6, size=(3, 1200))
    return run_fleet_categorical(
        truth,
        6,
        2.0,
        oracle=oracle,
        dropout=dropout,
        rng=np.random.default_rng(5),
        source_seed=77,
        workers=workers,
        shards=4,
    )


def numeric_digests(result) -> dict:
    server = result.server
    parts = []
    for epoch in server.epochs:
        if server.streaming:
            parts.append(server.moments(epoch))
        else:
            parts.append(server.values(epoch))
            parts.append([r.device_id for r in server.reports(epoch)])
    devices = [
        [d.n_fresh, d.n_cached, d.remaining_budget] for d in result.devices
    ]
    return {
        "server": _digest(server.epochs, *parts),
        "devices": _digest(devices),
        "counters": _counter_digest(result.counters),
    }


def categorical_digests(result) -> dict:
    server = result.server
    parts = []
    for epoch in server.categorical_epochs:
        counts, n = server.category_counts(epoch)
        parts.extend([np.asarray(counts, dtype=np.int64), int(n)])
    return {
        "counts": _digest(server.categorical_epochs, *parts),
        "counters": _counter_digest(result.counters),
    }


NUMERIC = dict(numeric_grid())
CATEGORICAL = dict(categorical_grid())


def _load():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("key", list(NUMERIC))
def test_numeric_goldens(key, workers):
    result = run_numeric(*NUMERIC[key], workers=workers)
    assert numeric_digests(result) == _load()["numeric"][key]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("key", list(CATEGORICAL))
def test_categorical_goldens(key, workers):
    result = run_categorical(*CATEGORICAL[key], workers=workers)
    assert categorical_digests(result) == _load()["categorical"][key]


def record() -> dict:
    return {
        "numeric": {
            key: numeric_digests(run_numeric(*point, workers=1))
            for key, point in NUMERIC.items()
        },
        "categorical": {
            key: categorical_digests(run_categorical(*point, workers=1))
            for key, point in CATEGORICAL.items()
        },
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_parallel_goldens.py --record")
    GOLDENS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
