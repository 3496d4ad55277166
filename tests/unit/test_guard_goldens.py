"""Recorded admission goldens for the guard chain and the fold.

Seeded batch sequences are fed through ``default_chain`` on both wires
(JSONL: ``decode_line`` then ``GuardChain.check``; binary:
``decode_binary_frame`` then ``GuardChain.check_array``), every admitted
outcome is committed and folded into an :class:`AggregationServer` the
way the ingestion service does it, and after every request the test
records:

* the chain's ruling — verdict, guard, reason, delta, warnings;
* the final canonical ``(id, value)`` pairs (or counts) of an admission;
* the budget guard's spend map as an ordered, least-recently-charged
  first item list;
* the rate guard's per-epoch counts;
* the server's per-device disclosure totals, its ``n_devices_tracked``
  and a SHA-256 digest of its whole ``snapshot()`` (canonical JSON).

State is stored for admitted requests only; after a blocked request the
test demands that every piece of state is exactly what it was before.

The records in ``guard_goldens.json`` were produced by the
string-keyed-dict implementation of the guards and the server, and the
test demands them exactly.  The corpus reuses the id pool and the
configuration grid of
``tests/property/test_columnar_guard_equivalence.py``: budget
{None, 2, 4}, ``per_epoch_limit`` {1, 2}, ``max_devices_tracked``
{3, 2^20}, coercion on/off.

Re-record (only when an admission behaviour change is intended)::

    PYTHONPATH=src python tests/unit/test_guard_goldens.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random
import sys

import numpy as np
import pytest

from repro.aggregation import AggregationServer
from repro.aggregation.devices import DeviceTable
from repro.service.guards import default_chain
from repro.service.protocol import (
    decode_binary_frame,
    decode_line,
    encode,
    encode_binary_counts,
    encode_binary_submit,
)

GOLDENS = pathlib.Path(__file__).with_name("guard_goldens.json")

ID_POOL = ["a", "b", "cc", "d0", "èé", "dev-1", "x" * 12]
LOSSES = [0.5, 1.0, 3.0, 9.0, 17.0]
STEPS = 10
#: Seed 0 folds into a streaming server whose device table the chain
#: shares (the ingestion service's arrangement); seed 1 into a retaining
#: server with a table of its own, so every fold re-interns the ids.
SEEDS = (0, 1)


def configs():
    for budget, limit, cap, coerce in itertools.product(
        (None, 2.0, 4.0), (1, 2), (3, 1 << 20), (True, False)
    ):
        key = f"b{budget}-l{limit}-c{cap}-{'coerce' if coerce else 'strict'}"
        yield key, {
            "coerce": coerce,
            "max_claimed_loss": 16.0,
            "device_budget": budget,
            "per_epoch_limit": limit,
            "max_devices_tracked": cap,
        }


def cases():
    for key, config in configs():
        for seed in SEEDS:
            for wire in ("jsonl", "binary"):
                yield f"{key}-s{seed}-{wire}", (key, config, seed, wire)


def _value(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.03:
        return float("nan")
    if roll < 0.05:
        return float("inf")
    return round(rng.uniform(-1e3, 1e3), 2)


def batch_sequence(key: str, seed: int):
    """The seeded request sequence of one case, as wire-neutral dicts.

    Each submit carries JSONL-only coercion mutations (a numeric-string
    value, an integral-float epoch, an unknown field) that the binary
    wire cannot express; the binary leg sends the unmutated batch.
    """
    rng = random.Random(f"{key}-{seed}")
    out = []
    for _ in range(STEPS):
        epoch = rng.randint(0, 3)
        loss = rng.choice(LOSSES)
        if rng.random() < 0.1:
            counts = [rng.randint(0, 4) for _ in range(3)]
            out.append({"op": "submit_counts", "epoch": epoch, "counts": counts,
                        "n_reports": max(sum(counts), 1), "claimed_loss": loss})
            continue
        n = rng.randint(1, 6)
        out.append({
            "op": "submit",
            "epoch": epoch,
            "device_ids": [rng.choice(ID_POOL) for _ in range(n)],
            "values": [_value(rng) for _ in range(n)],
            "claimed_loss": loss,
            "mutate": [rng.random() < 0.15 for _ in range(3)],
        })
    return out


def wire_request(batch, wire: str):
    """Encode one batch on ``wire`` and decode it as the service does."""
    batch = dict(batch)
    mutate = batch.pop("mutate", (False, False, False))
    if wire == "binary":
        if batch["op"] == "submit":
            frame = encode_binary_submit(
                batch["epoch"], batch["device_ids"], batch["values"],
                batch["claimed_loss"],
            )
        else:
            frame = encode_binary_counts(
                batch["epoch"], batch["counts"], batch["n_reports"],
                batch["claimed_loss"],
            )
        return decode_binary_frame(frame[4:])
    if mutate[0]:
        batch["values"] = [repr(batch["values"][0])] + batch["values"][1:]
    if mutate[1]:
        batch["epoch"] = float(batch["epoch"])
    if mutate[2]:
        batch["debug"] = 1
    return decode_line(encode(batch))


def _fold(server: AggregationServer, request, columnar: bool) -> None:
    """The whole-batch fold the ingestion service applies."""
    if request["op"] == "submit":
        server.submit_array(
            request["epoch"], np.asarray(request["values"], dtype=float),
            request["claimed_loss"], device_ids=request["device_ids"],
            donate=columnar,
        )
    else:
        server.submit_counts(
            request["epoch"], np.asarray(request["counts"], dtype=np.int64),
            request["n_reports"], request["claimed_loss"],
        )


def _state(chain, server):
    """(spend items in LRU order, per-epoch rate counts, disclosure)."""
    budget, rate = chain.guards[1], chain.guards[2]
    spend = [[k, v] for k, v in budget.spent.items()]
    counts = {
        str(epoch): sorted([k, n] for k, n in per.items())
        for epoch, per in rate.epoch_counts.items()
    }
    disclosure = sorted([k, v] for k, v in server.disclosure.items())
    return spend, counts, disclosure


def _digest(snapshot) -> str:
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_case(key, config, seed, wire):
    server = AggregationServer(streaming=seed == 0)
    shared = {"devices": server.devices} if seed == 0 else {}
    chain = default_chain(**config, **shared)
    records = []
    before = None
    for batch in batch_sequence(key, seed):
        request = wire_request(batch, wire)
        if wire == "binary":
            outcome = chain.check_array(request)
        else:
            outcome = chain.check(request)
        record = {
            "verdict": outcome.verdict,
            "guard": outcome.guard,
            "reason": outcome.reason,
            "delta": list(outcome.delta),
            "warnings": list(outcome.warnings),
        }
        if outcome.admitted:
            final = outcome.request
            if final["op"] == "submit":
                values = np.asarray(final["values"], dtype=float).tolist()
                record["final"] = [
                    [device_id, value]
                    for device_id, value in zip(final["device_ids"], values)
                ]
            else:
                record["final"] = [int(c) for c in final["counts"]]
            outcome.commit()
            _fold(server, final, wire == "binary")
        spend, counts, disclosure = _state(chain, server)
        snapshot = server.snapshot()
        state = {
            "spend": spend,
            "rate": counts,
            "disclosure": disclosure,
            "n_devices_tracked": snapshot["n_devices_tracked"],
            "snapshot": _digest(snapshot),
        }
        if outcome.admitted:
            record.update(state)
            before = state
        else:
            assert before is None or state == before, "a block changed state"
        records.append(record)
    # One JSON round trip normalizes tuples and int-keyed dicts exactly
    # as the stored goldens were normalized.
    return json.loads(json.dumps(records))


def _load():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,case", list(cases()), ids=[n for n, _ in cases()])
def test_guard_goldens(name, case):
    expected = _load()[name]
    got = run_case(*case)
    assert len(got) == len(expected)
    for step, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"{name} step {step}"


@pytest.mark.parametrize("name,case", list(cases()), ids=[n for n, _ in cases()])
def test_guard_goldens_hash_index(name, case, monkeypatch):
    # The same corpus with every device table indexed by its hash array
    # from the first id on, instead of the small-table dict.
    monkeypatch.setattr(DeviceTable, "SMALL", 0)
    test_guard_goldens(name, case)


def test_corpus_reaches_every_ruling():
    # The corpus is only worth pinning if it exercises every branch:
    # blocks by each guard, rate-limit and schema repairs, warnings,
    # and LRU eviction under the small cap.
    goldens = _load()
    records = [r for recs in goldens.values() for r in recs]
    guards = {r["guard"] for r in records if r["verdict"] == "blocked"}
    assert {"schema", "epoch-budget", "rate-limit"} <= guards
    assert any("rate limit" in d for r in records for d in r["delta"])
    assert any("->" in d for r in records for d in r["delta"])
    assert any(r["warnings"] for r in records)
    assert any(
        r["verdict"] != "blocked" and len(r["spend"]) == 3
        for name, recs in goldens.items() if "-c3-" in name and "bNone" not in name
        for r in recs
    )


def _record() -> None:
    out = {name: run_case(*case) for name, case in cases()}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(out)} cases to {GOLDENS}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        sys.exit("usage: test_guard_goldens.py --record")
