"""The dense device-state table and the state kept on it.

* :class:`DeviceTable` interning: dense append-only slots, one slot per
  distinct key, lookups that add nothing until the column is interned,
  re-interning across tables, and the lazily decoding
  :class:`DeviceIds` sequence — on both index kinds (the small-table
  dict, and the hash array past ``DeviceTable.SMALL``), which must give
  the same slots.
* Refused batches — blocked by a guard, or admitted but never committed
  — add no id to the table.
* The budget guard's charge-log eviction at a realistic cap, against
  the naive LRU-dict walk after every commit.
* Device identity across the two wires: a valid non-ASCII id is one
  device on JSONL and binary, a lone surrogate (legal JSON) keeps its
  own accounting, and invalid UTF-8 on the binary wire still blocks.
"""

import random

import numpy as np
import pytest

from repro.aggregation import AggregationServer
from repro.aggregation.devices import Column, DeviceIds, DeviceTable
from repro.service.guards import EpochBudgetGuard, Verdict, default_chain
from repro.service.protocol import (
    decode_binary_frame,
    decode_line,
    encode,
    encode_binary_submit,
)


@pytest.fixture(params=["dict", "hash"])
def index(request, monkeypatch):
    """Run a test on both index kinds: the small-table dict, and (with
    ``SMALL`` at 0) the hash array from the first id on."""
    if request.param == "hash":
        monkeypatch.setattr(DeviceTable, "SMALL", 0)
    return request.param


@pytest.mark.usefixtures("index")
class TestDeviceTable:
    def test_fresh_batch_gets_consecutive_slots(self):
        table = DeviceTable()
        ids = table.intern(["a", "b", "c"])
        assert ids.slots.tolist() == [0, 1, 2]
        assert ids.unique and ids.new is None
        assert table.intern(["d", "e"]).slots.tolist() == [3, 4]
        assert len(table) == 5

    def test_mixed_batch_stays_dense(self):
        table = DeviceTable()
        table.intern(["a", "b"])
        ids = table.intern(["x", "a", "x", "y", "b", "y"])
        assert ids.slots.tolist() == [2, 0, 2, 3, 1, 3]
        assert not ids.unique
        assert len(table) == 4
        assert table.decode_many(np.arange(4)) == ["a", "b", "x", "y"]
        assert table.find("y") == 3 and table.find("zz") is None

    def test_repeat_batch_inserts_nothing(self):
        table = DeviceTable()
        table.intern(["a", "b"])
        ids = table.intern(["b", "a", "a"])
        assert ids.slots.tolist() == [1, 0, 0]
        assert len(table) == 2

    def test_lookup_adds_nothing_until_interned(self):
        table = DeviceTable()
        table.intern(["a"])
        ids = table.lookup([b"x", b"a", b"x", b"y"])
        # New ids get provisional slots past the end, in first-appearance
        # order; the table is unchanged.
        assert ids.slots.tolist() == [1, 0, 1, 2]
        assert ids.new == [b"x", b"y"] and ids.base == 1
        assert len(table) == 1 and table.find("x") is None
        assert list(ids) == ["x", "a", "x", "y"]
        assert table.intern(ids) is ids
        assert ids.new is None and ids.slots.tolist() == [1, 0, 1, 2]
        assert table.find("y") == 2 and len(table) == 3
        assert table.intern(ids).slots.tolist() == [1, 0, 1, 2]
        assert len(table) == 3

    def test_s_column_rows_are_the_keys(self):
        table = DeviceTable()
        column = np.array([b"ab", b"c", b"ab"], dtype="S4")
        ids = table.intern(table.lookup(column))
        assert ids.slots.tolist() == [0, 1, 0]
        assert table.find("c") == 1 and table.find("c\0") is None

    def test_interning_after_others_added_remaps(self):
        # Two batches looked up against the same table state: the one
        # interned second has its provisional slots replaced.
        table = DeviceTable()
        first = table.lookup([b"p", b"q"])
        second = table.lookup([b"q", b"r", b"q"])
        assert second.slots.tolist() == [0, 1, 0]
        table.intern(first)
        # A stale column is looked up again before it is read ...
        assert table.adopt(second).slots.tolist() == [1, 2, 1]
        # ... and interning it gives its new ids the next slots.
        assert table.intern(second).slots.tolist() == [1, 2, 1]
        assert len(table) == 3 and list(second) == ["q", "r", "q"]

    def test_interning_a_subset_adds_only_its_ids_in_its_order(self):
        table = DeviceTable()
        ids = table.lookup([b"a", b"b", b"a", b"c"])
        kept = ids.take(np.array([1, 2]))
        assert table.intern(kept).slots.tolist() == [0, 1]
        assert table.decode_many(np.arange(len(table))) == ["b", "a"]
        # The whole column, interned after its subset, finds them.
        assert table.intern(ids).slots.tolist() == [1, 0, 1, 2]
        assert len(table) == 3

    def test_adopt_looks_up_foreign_columns_and_strings(self):
        ours, theirs = DeviceTable(), DeviceTable()
        ours.intern(["zz"])
        foreign = theirs.intern(["a", "b", "a"])
        assert ours.adopt(foreign).slots.tolist() == [1, 2, 1]
        assert len(ours) == 1
        assert ours.intern(foreign).slots.tolist() == [1, 2, 1]
        own = ours.adopt(["zz", "a"])
        assert ours.adopt(own) is own

    def test_ids_read_as_a_sequence_of_str(self):
        table = DeviceTable()
        ids = table.adopt(["èé", "a", "èé"])
        assert isinstance(ids, DeviceIds)
        assert len(ids) == 3
        assert list(ids) == ["èé", "a", "èé"]
        assert ids[2] == "èé" and ids[-1] == "èé" and ids[1:] == ["a", "èé"]
        assert ids == ["èé", "a", "èé"] and ids != ["a"]
        assert ids == DeviceTable().intern(["èé", "a", "èé"])
        assert ids.take(np.array([1])) == ["a"]
        with pytest.raises(ValueError):
            ids.slots[0] = 5  # slots are read-only

    def test_moving_past_small_keeps_every_slot(self, monkeypatch):
        table = DeviceTable()
        monkeypatch.setattr(table, "SMALL", 100)
        first = table.intern([f"d{i}" for i in range(80)])
        pending = table.lookup([b"d3", b"late", b"e5"])
        table.intern([f"e{i}" for i in range(80)])  # past SMALL
        assert table._dict is None
        assert table.adopt([f"d{i}" for i in range(80)]).slots.tolist() == (
            first.slots.tolist()
        )
        assert table.find("e5") == 85 and table.find("late") is None
        assert table.intern(pending).slots.tolist() == [3, 160, 85]
        assert table.decode_many([160, 0, 159]) == ["late", "d0", "e79"]


def _random_batches(seed, n_batches=40):
    """Batches mixing first contacts, returning ids, in-batch repeats,
    long ids and NUL-ended ids."""
    rng = random.Random(seed)
    seen = []
    for b in range(n_batches):
        batch = []
        for _ in range(rng.randint(1, 300)):
            roll = rng.random()
            if seen and roll < 0.4:
                key = rng.choice(seen)
            elif roll < 0.45:
                key = b"L" * rng.randint(65, 200) + str(b).encode()
            elif roll < 0.5:
                key = f"nul-{rng.randint(0, 50)}".encode() + b"\0"
            else:
                key = f"dev-{rng.randint(0, 10**9)}".encode()
            batch.append(key)
        seen.extend(batch)
        yield batch


def test_hash_array_gives_the_dicts_slots(monkeypatch):
    reference, hashed = DeviceTable(), DeviceTable()
    monkeypatch.setattr(hashed, "SMALL", 0)
    for seed in range(3):
        for batch in _random_batches(seed):
            want = reference.lookup(batch)
            got = hashed.lookup(batch)
            assert got.slots.tolist() == want.slots.tolist()
            assert got.unique == want.unique and got.new == want.new
            assert hashed.intern(got).slots.tolist() == (
                reference.intern(want).slots.tolist()
            )
            assert got.keys() == batch
    assert reference._dict is not None and hashed._dict is None
    assert len(hashed) == len(reference)
    assert hashed._cells.size >= 3 * len(hashed)


class TestColumn:
    def _ids(self, slots):
        return DeviceIds(DeviceTable(), np.asarray(slots, dtype=np.intp), 0)

    def test_holds_only_the_band_written(self):
        column = Column(np.int64)
        column.add(self._ids(range(5000, 5010)), 1)
        assert column.lo == 5000 and column.data.size < 100
        column.add(self._ids([4990, 5003, 5003]), 2)  # grows downward
        assert column.lo <= 4990 and column.end == 5010
        assert column.gather(self._ids([0, 4990, 5003, 5009, 5010, 9999])).tolist() == [
            0, 2, 5, 1, 0, 0
        ]
        assert column.nonzero().tolist() == [4990] + list(range(5000, 5010))
        assert column[np.array([5003])].tolist() == [5]

    def test_growth_keeps_every_value(self):
        rng = random.Random(5)
        column, oracle = Column(np.float64), {}
        for _ in range(200):
            lo = rng.randint(0, 10**5)
            slots = [lo + rng.randint(0, 300) for _ in range(rng.randint(1, 40))]
            column.add(self._ids(slots), 0.5)
            for slot in slots:
                oracle[slot] = oracle.get(slot, 0.0) + 0.5
        want = sorted(oracle)
        assert column.nonzero().tolist() == want
        assert column[np.array(want)].tolist() == [oracle[s] for s in want]


@pytest.mark.usefixtures("index")
class TestRefusedBatchesAddNothing:
    """Only a committed batch adds ids to the table: one the chain
    blocks, or one whose outcome is never committed (the queue refused
    it as busy), leaves the table as it was."""

    def _fresh(self, n, tag):
        return [f"{tag}-{i}" for i in range(n)]

    def test_blocked_batches_on_both_wires(self):
        server = AggregationServer(streaming=True)
        chain = default_chain(
            device_budget=2.0, epoch_horizon=10, devices=server.devices
        )
        for ids, epoch, loss in [
            (self._fresh(50, "horizon"), 11, 1.0),
            (self._fresh(50, "loss"), 0, 99.0),
            (self._fresh(50, "budget"), 0, 3.0),
        ]:
            values = [1.0] * len(ids)
            for outcome in (
                _jsonl(chain, epoch=epoch, device_ids=ids, values=values,
                       claimed_loss=loss),
                _binary(chain, epoch, ids, values, loss),
            ):
                assert outcome.verdict == "blocked"
        assert len(server.devices) == 0

    def test_uncommitted_admission(self):
        server = AggregationServer(streaming=True)
        chain = default_chain(device_budget=2.0, devices=server.devices)
        ids = self._fresh(64, "busy")
        outcome = _binary(chain, 0, ids, [1.0] * 64, 1.0)
        assert outcome.verdict == "admitted"
        assert len(server.devices) == 0
        # The retried batch is admitted again and, committed, adds its ids.
        retry = _binary(chain, 0, ids, [1.0] * 64, 1.0)
        _admit(retry, server)
        assert len(server.devices) == 64
        assert server.snapshot()["n_devices_tracked"] == 64

    def test_rate_repair_commits_only_kept_ids(self):
        server = AggregationServer(streaming=True)
        chain = default_chain(devices=server.devices)
        _admit(_jsonl(chain, epoch=0, device_ids=["a"], values=[1.0],
                      claimed_loss=1.0), server)
        outcome = _jsonl(chain, epoch=0, device_ids=["a", "b", "b"],
                         values=[1.0, 2.0, 3.0], claimed_loss=1.0)
        assert outcome.verdict == "repaired"
        assert list(outcome.request["device_ids"]) == ["b"]
        _admit(outcome, server)
        assert server.devices.decode_many(np.arange(len(server.devices))) == [
            "a", "b"
        ]
        assert dict(server.disclosure) == {"a": 1.0, "b": 1.0}


def _charge(guard, ids, loss):
    request = {
        "op": "submit", "epoch": 0, "device_ids": list(ids),
        "values": [0.0] * len(ids), "claimed_loss": loss,
    }
    decision = guard.check(request)
    assert decision.verdict is Verdict.ALLOW
    decision.commit(request)


@pytest.mark.usefixtures("index")
def test_eviction_at_scale_matches_naive_lru_walk():
    cap = 4096
    guard = EpochBudgetGuard(device_budget=1e9, max_devices_tracked=cap)
    rng = random.Random(13)
    oracle = {}
    seen = []
    fresh = iter(f"dev-{i:06d}" for i in range(10**6))
    evicted_total = 0
    for b in range(32):
        batches = [[next(fresh) for _ in range(256)]]
        # Returning devices (tracked or already evicted, some twice in
        # the batch) mixed with first contacts.
        mixed = [rng.choice(seen) for _ in range(128)] if seen else []
        mixed += [next(fresh) for _ in range(128)]
        rng.shuffle(mixed)
        batches.append(mixed)
        for ids in batches:
            loss = rng.choice([0.25, 0.5, 1.0, 0.1])
            _charge(guard, ids, loss)
            before = list(oracle)
            for device_id in ids:
                oracle[device_id] = oracle.pop(device_id, 0.0) + loss
            victims = []
            while len(oracle) > cap:
                victim = next(iter(oracle))
                victims.append(victim)
                del oracle[victim]
            evicted_total += len(victims)
            got = list(guard.spent.items())
            assert got == list(oracle.items())
            assert set(before) - set(dict(got)) == set(victims)
            seen.extend(ids)
    assert evicted_total > 4096  # the cap was really exercised


def _jsonl(chain, **request):
    outcome = chain.check(decode_line(encode({"op": "submit", **request})))
    return outcome


def _binary(chain, epoch, ids, values, loss):
    frame = encode_binary_submit(epoch, ids, values, loss)
    return chain.check_array(decode_binary_frame(frame[4:]))


def _admit(outcome, server):
    assert outcome.admitted, outcome.reason
    outcome.commit()
    req = outcome.request
    server.submit_array(
        req["epoch"], np.asarray(req["values"], dtype=float),
        req["claimed_loss"], device_ids=req["device_ids"],
    )


@pytest.mark.usefixtures("index")
class TestKeysAcrossWires:
    def _setup(self):
        server = AggregationServer(streaming=True)
        chain = default_chain(device_budget=2.5, devices=server.devices)
        return server, chain

    def test_non_ascii_id_is_one_device_on_both_wires(self):
        server, chain = self._setup()
        _admit(_jsonl(chain, epoch=0, device_ids=["èé"], values=[1.0],
                      claimed_loss=1.0), server)
        _admit(_binary(chain, 1, ["èé"], [2.0], 1.0), server)
        assert dict(chain.guards[1].spent) == {"èé": 2.0}
        assert dict(server.disclosure) == {"èé": 2.0}
        assert server.snapshot()["n_devices_tracked"] == 1
        # Same device, same epoch: the binary report is rate-limited ...
        blocked = _binary(chain, 1, ["èé"], [3.0], 0.5)
        assert blocked.verdict == "blocked" and blocked.guard == "rate-limit"
        # ... and the next one over JSONL busts the shared budget.
        over = _jsonl(chain, epoch=2, device_ids=["èé"], values=[1.0],
                      claimed_loss=1.0)
        assert over.verdict == "blocked" and over.guard == "epoch-budget"
        assert over.reason.endswith(": èé")

    def test_lone_surrogate_id_keeps_its_accounting(self):
        server, chain = self._setup()
        lone = "\ud800"
        first = _jsonl(chain, epoch=0, device_ids=[lone, "a"], values=[1.0, 2.0],
                       claimed_loss=1.0)
        assert first.verdict == "admitted"
        assert list(first.request["device_ids"]) == [lone, "a"]
        _admit(first, server)
        _admit(_jsonl(chain, epoch=1, device_ids=[lone], values=[1.0],
                      claimed_loss=1.0), server)
        assert chain.guards[1].spent[lone] == 2.0
        assert server.worst_case_disclosure(lone) == 2.0
        assert server.snapshot()["n_devices_tracked"] == 2
        again = _jsonl(chain, epoch=1, device_ids=[lone, "a"], values=[1.0, 2.0],
                       claimed_loss=0.25)
        assert again.verdict == "repaired"
        assert again.delta == (
            f"values[0]: <dropped: device {lone!r} over 1/epoch rate limit>",
        )

    @pytest.mark.parametrize("raw", [b"\xff\xfe", b"\xed\xa0\x80", b"\xc3"])
    def test_invalid_utf8_binary_id_blocks(self, raw):
        server, chain = self._setup()
        ids = np.array([b"ok", raw], dtype=f"S{len(raw)}")
        outcome = _binary(chain, 0, ids, [1.0, 2.0], 1.0)
        assert outcome.verdict == "blocked"
        assert outcome.guard == "schema"
        assert outcome.reason == "device_ids[1] is not valid UTF-8"


@pytest.mark.usefixtures("index")
def test_concurrent_interning_gives_one_slot_per_id():
    # The guard chain looks ids up and interns them on the event loop
    # while folds intern on executor threads; a lost update would give
    # one id two slots.
    import sys
    import threading

    table = DeviceTable()
    results = []

    def work(seed):
        rng = random.Random(seed)
        for i in range(40):
            keys = [f"dev-{rng.randint(0, 3000)}" for _ in range(64)]
            if i % 2:
                ids = table.intern(keys)
            else:
                ids = table.lookup([key.encode() for key in keys])
                ids = table.intern(ids.take(np.arange(0, 64, 2)))
                keys = keys[::2]
            results.append((keys, ids.slots.tolist()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    slot_of = {}
    for keys, slots in results:
        for key, slot in zip(keys, slots):
            assert slot_of.setdefault(key, slot) == slot
    assert sorted(slot_of.values()) == list(range(len(table)))
    assert all(table.decode_many([s])[0] == k for k, s in slot_of.items())


@pytest.mark.usefixtures("index")
def test_recharging_the_same_column():
    # Charging one column twice counts its devices once.
    server = AggregationServer(streaming=True)
    ids = server.devices.adopt(["a", "b", "c"])
    for _ in range(2):
        server.submit_array(0, np.zeros(3), 0.5, device_ids=ids)
    assert server.snapshot()["n_devices_tracked"] == 3
    assert dict(server.disclosure) == {"a": 1.0, "b": 1.0, "c": 1.0}
    chain = default_chain(
        device_budget=10.0, per_epoch_limit=2, devices=server.devices
    )
    request = {"op": "submit", "epoch": 0, "device_ids": ids,
               "values": [0.0] * 3, "claimed_loss": 0.5}
    budget, rate = chain.guards[1], chain.guards[2]
    for _ in range(2):
        budget.check(request).commit(request)
        rate.check(request).commit(request)
    assert dict(budget.spent) == {"a": 1.0, "b": 1.0, "c": 1.0}
    assert dict(rate.epoch_counts[0]) == {"a": 2, "b": 2, "c": 2}
    assert rate.check(request).verdict is Verdict.BLOCK
