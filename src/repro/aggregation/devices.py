"""Dense per-device state: intern each device id once, keep state in columns.

The ingestion path keeps three pieces of per-device bookkeeping — the
budget guard's spend, the rate guard's per-epoch report counts and the
server's disclosure total.  Keyed by device-id strings, each batch would
pay one dict probe per id per map, into maps of a million entries.
Instead a :class:`DeviceTable` maps every id to a dense integer *slot*
once per batch, and each piece of state lives in a numpy
:class:`Column` indexed by slot, so the per-device updates become
array operations over the batch's slot vector.

* **Keys** are the UTF-8 bytes of the id.  Binary-wire ids are the rows
  of the fixed-width ``S`` column, never decoded; JSONL ids are encoded
  with ``surrogatepass``, so a lone surrogate that ``json.loads``
  accepts keeps its own key, and a valid non-ASCII id is the same
  device on both wires.
* **Index.**  Up to ``SMALL`` ids, a dict from key to slot: one probe
  per id, the cheapest for the small batches of a returning fleet.
  Past it, a hash array probed for a whole batch at once with numpy,
  from Python's own keyed hash of the key bytes (so crafted ids cannot
  pile onto one probe chain), every candidate confirmed by comparing
  the keys.  Per id the dict costs about 130 bytes (key object, dict
  entry and an ``int`` slot, plus the slot → key and hash arrays) and
  the hash array about 80 — the difference that keeps a first-contact
  fleet of a million devices inside the memory of the string-keyed
  maps the table replaced.  Slot numbers never depend on the index.
* **Look up, then add.**  :meth:`DeviceTable.lookup` finds a batch's
  known ids with one dict probe each and numbers its new ids
  provisionally, past the table's end, without changing the table —
  the guard chain rules on a batch this way, so a batch the chain or
  the queue refuses adds nothing.  :meth:`DeviceTable.intern` gives the
  new ids their slots (in place, on an id column from ``lookup``); the
  first commit of an admitted batch does it.
* **Slots are never reused.**  The index is append-only: it grows with
  every distinct id of an admitted batch, like the disclosure totals it
  backs, so a slot vector still waiting in the fold queue can never
  charge the wrong device.
* **Concurrency.**  Lookups and interning take a short table lock.
  Columns have no lock of their own: each is grown and written by one
  owner (the guard chain on the event loop, or the server under its
  ingest lock).

:class:`DeviceIds` is the id column a canonical request carries: a
``Sequence[str]`` whose length, iteration and indexing decode lazily, so
readers that expect a list of strings keep working.
"""

from __future__ import annotations

import threading
import types
from itertools import repeat
from typing import Any, Collection, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = ["Column", "DeviceIds", "DeviceTable"]


def _encode(device_id: str) -> bytes:
    return device_id.encode("utf-8", "surrogatepass")


def _decode(key: bytes) -> str:
    try:
        return key.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:  # only raw ``lookup`` calls store such keys
        return key.decode("utf-8", "backslashreplace")


class DeviceIds(Sequence[str]):
    """An id column: one slot per report, in batch order.

    A column from :meth:`DeviceTable.lookup` may hold ids the table has
    not added yet: ``new`` lists their keys, and such an id's slot is
    provisional — ``base`` (the table's size at the lookup) plus its
    index in ``new``.  :meth:`DeviceTable.intern` replaces them with
    real slots and clears ``new``.
    """

    __slots__ = (
        "table", "slots", "base", "new", "_whole", "_unique", "_start", "_end"
    )

    def __init__(
        self,
        table: "DeviceTable",
        slots: np.ndarray,
        base: int,
        new: Optional[List[bytes]] = None,
        unique: Optional[bool] = None,
        whole: bool = True,
    ):
        slots.flags.writeable = False
        self.table = table
        self.slots = slots
        self.base = base
        self.new = new
        #: Whether this is the column ``new`` was collected from (so its
        #: new ids first appear in ``new``'s order), not a subset of it.
        self._whole = whole
        self._unique = unique
        self._start: Optional[int] = None
        self._end: Optional[int] = None

    @property
    def unique(self) -> bool:
        """Whether no slot repeats (worked out on first use if unknown)."""
        if self._unique is None:
            ordered = np.sort(self.slots)
            self._unique = bool((ordered[1:] != ordered[:-1]).all())
        return self._unique

    @property
    def start(self) -> int:
        """The smallest slot (0 for an empty column)."""
        if self._start is None:
            self._start = int(self.slots.min()) if self.slots.size else 0
        return self._start

    @property
    def end(self) -> int:
        """One past the largest slot (0 for an empty column)."""
        if self._end is None:
            self._end = int(self.slots.max()) + 1 if self.slots.size else 0
        return self._end

    def keys(self) -> List[bytes]:
        """The key bytes of every report's device."""
        with self.table._lock:  # a consistent pair against ``intern``
            slots, new, known = self.slots, self.new, self.table._keys
        if new is None:
            return known[slots].tolist()
        base = self.base
        return [known[s] if s < base else new[s - base] for s in slots.tolist()]

    def __len__(self) -> int:
        return int(self.slots.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return _decode(self.take([i]).keys()[0])

    def __iter__(self):
        return map(_decode, self.keys())

    def take(self, positions) -> "DeviceIds":
        """The reports at ``positions`` (increasing, or a slice)."""
        # A subset of distinct slots is distinct; of repeating ones, unknown.
        unique = self._unique or None
        slots = self.slots[positions]
        return DeviceIds(self.table, slots, self.base, self.new, unique, whole=False)

    def _set_slots(self, slots: np.ndarray) -> None:
        slots.flags.writeable = False
        self.slots = slots
        self._start = self._end = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (DeviceIds, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DeviceIds({list(self)!r})"


class Column:
    """One per-slot numpy column, zero wherever nothing was written.

    ``data[i]`` holds slot ``lo + i``; ``end`` is one past the highest
    slot reserved for writing.  The column grows geometrically, in
    either direction, to cover the slots :meth:`reserve` is given — never
    preallocated to a fleet-size bound — so one written only at a band
    of slots (one epoch's rate counts over a first-contact fleet) holds
    that band alone.
    """

    __slots__ = ("data", "lo", "end")

    def __init__(self, dtype: Any):
        self.data = np.zeros(0, dtype=dtype)
        self.lo = 0
        self.end = 0

    def reserve(self, ids: DeviceIds) -> np.ndarray:
        """Make ``ids``' slots writable; returns their positions in ``data``."""
        if not len(ids):
            return ids.slots
        lo, end = ids.start, ids.end
        if not self.data.size:
            self.lo = self.end = lo
        if lo < self.lo or end > self.lo + self.data.size:
            slack = self.data.size // 2
            new_lo = self.lo if lo >= self.lo else max(lo - slack, 0)
            cap = max(end + slack, self.lo + self.data.size)
            grown = np.zeros(max(cap - new_lo, 64), self.data.dtype)
            grown[self.lo - new_lo : self.end - new_lo] = self.data[: self.end - self.lo]
            self.data, self.lo = grown, new_lo
        self.end = max(self.end, end)
        return ids.slots - self.lo

    def __getitem__(self, slots: np.ndarray) -> np.ndarray:
        """Values at reserved ``slots``."""
        return self.data[slots - self.lo]

    def __setitem__(self, slots: np.ndarray, values: Any) -> None:
        self.data[slots - self.lo] = values

    def gather(self, ids: DeviceIds) -> np.ndarray:
        """The column's values at ``ids``' slots (zeros outside it)."""
        slots = ids.slots
        if self.lo <= ids.start and ids.end <= self.end:
            return self.data[slots - self.lo]
        out = np.zeros(len(ids), self.data.dtype)
        inside = (slots >= self.lo) & (slots < self.end)
        out[inside] = self.data[slots[inside] - self.lo]
        return out

    def add(self, ids: DeviceIds, amount: Any) -> None:
        """Add ``amount`` once per report, in batch order.

        Repeated slots accumulate one report at a time (``np.add.at``),
        so a float total is bit-for-bit the per-report running sum.
        """
        at = self.reserve(ids)
        if ids.unique:
            self.data[at] += amount
        else:
            np.add.at(self.data, at, amount)

    def nonzero(self) -> np.ndarray:
        """The slots holding a nonzero value, in slot order."""
        return np.flatnonzero(self.data) + self.lo


class DeviceTable:
    """Device id → dense slot, append-only, shared by guards and server."""

    #: Up to this many ids the index is a dict, the fastest for the
    #: small batches of a returning fleet; a batch that takes the table
    #: past it moves the index to the hash array, which holds an id in
    #: about 60% of the dict's memory (see the module docstring).
    SMALL = 1 << 16

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._n = 0
        #: Slot → key bytes and its hash, grown geometrically.
        self._keys = np.empty(0, dtype=object)
        self._hash = np.empty(0, dtype=np.int64)
        #: The index while the table is small: key → slot.
        self._dict: Optional[Dict[bytes, int]] = {}
        #: The index past that: cell → slot + 1 (0 = empty).  A key's
        #: probe sequence starts at its hash and strides by
        #: :func:`_step`; at most a third of the cells are taken and none
        #: is ever emptied.
        self._cells = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return self._n

    # -- the index ----------------------------------------------------------
    def _find(self, keys: List[bytes], hashes: Optional[np.ndarray]) -> np.ndarray:
        """The slot of each key, -1 where absent.

        In the hash array every key walks its probe sequence in step
        with the others; a key is settled by a cell holding it or by an
        empty cell.
        """
        if self._dict is not None:
            get, k = self._dict.get, len(keys)
            return np.fromiter(map(get, keys, repeat(-1, k)), dtype=np.intp, count=k)
        cells, column = self._cells, _objects(keys)
        mask = cells.size - 1
        slots = np.full(len(keys), -1, dtype=np.intp)
        todo = np.arange(len(keys))
        pos, step = hashes & mask, _step(hashes)
        while todo.size:
            cell = cells[pos]
            filled = np.flatnonzero(cell)
            cand = cell[filled] - 1
            # Equal hashes first; the keys themselves settle it.
            same = self._hash[cand] == hashes[todo[filled]]
            alike = np.flatnonzero(same)
            same[alike] = self._keys[cand[alike]] == column[todo[filled[alike]]]
            slots[todo[filled[same]]] = cand[same]
            on = filled[~same]
            todo, step = todo[on], step[on]
            pos = (pos[on] + step) & mask
        return slots

    def _place(self, hashes: np.ndarray, slots: np.ndarray) -> None:
        """Enter absent, distinct keys in the hash array.  Keys that
        reach the same empty cell all write it; the one whose write
        stayed wins it and the rest probe on."""
        cells = self._cells
        mask = cells.size - 1
        pos, step = hashes & mask, _step(hashes)
        mark = (slots + 1).astype(np.int32)
        while pos.size:
            free = np.flatnonzero(cells[pos] == 0)
            cells[pos[free]] = mark[free]
            lost = np.ones(pos.size, dtype=bool)
            lost[free] = cells[pos[free]] != mark[free]
            mark, step = mark[lost], step[lost]
            pos = (pos[lost] + step) & mask

    def _append(self, keys: List[bytes], hashes: np.ndarray) -> None:
        """Give absent, distinct ``keys`` the next slots."""
        n, m = self._n, len(keys)
        if n + m > self._keys.size:
            size = max(n + m, self._keys.size * 3 // 2, 64)
            keys_, hash_ = np.empty(size, dtype=object), np.empty(size, np.int64)
            keys_[:n], hash_[:n] = self._keys[:n], self._hash[:n]
            self._keys, self._hash = keys_, hash_
        self._keys[n : n + m] = keys
        self._hash[n : n + m] = hashes
        if self._dict is not None and n + m <= self.SMALL:
            self._dict.update(zip(keys, range(n, n + m)))
        else:
            if self._dict is not None or 3 * (n + m) > self._cells.size:
                # A new hash array, with room for a third as many again.
                self._dict = None
                size = 64
                while 3 * (n + m) > size:
                    size *= 2
                self._cells = np.zeros(size, dtype=np.int32)
                for lo in range(0, n, 1 << 16):  # in chunks: a small peak
                    hi = min(lo + (1 << 16), n)
                    self._place(self._hash[lo:hi], np.arange(lo, hi))
            self._place(hashes, np.arange(n, n + m))
        self._n = n + m

    # -- public API -------------------------------------------------------
    def lookup(self, keys: Union[np.ndarray, Sequence[bytes]]) -> DeviceIds:
        """The slots of ``keys``, without adding the new ones.

        ``keys`` is an ``S`` column (each row's key is the bytes
        ``tolist()`` reads: NUL padding stripped) or a sequence of exact
        UTF-8 key bytes.  New ids get provisional slots past the table's
        end, in order of first appearance (see :class:`DeviceIds`).
        """
        if isinstance(keys, np.ndarray):
            keys = keys.reshape(-1).tolist()
        with self._lock:
            base = self._n
            # The dict hashes the keys itself (and caches the hashes on
            # them); the hash array needs them up front.
            hashes = None if self._dict is not None else _hashes(keys)
            slots = self._find(keys, hashes) if base else np.full(len(keys), -1)
        miss = np.flatnonzero(slots < 0)
        if not miss.size:
            return DeviceIds(self, slots, base)
        missing = keys if miss.size == len(keys) else [keys[i] for i in miss.tolist()]
        ordered = np.sort(_hashes(missing) if hashes is None else hashes[miss])
        if (ordered[1:] != ordered[:-1]).all():
            # Distinct hashes, so distinct keys: each is new in turn.
            new = missing
            slots[miss] = np.arange(base, base + miss.size)
        else:
            new = list(dict.fromkeys(missing))
            rank = {key: slot for slot, key in enumerate(new, start=base)}
            slots[miss] = [rank[key] for key in missing]
        unique = True if len(new) == len(keys) else None
        return DeviceIds(self, slots, base, new, unique)

    def adopt(self, device_ids: Union[DeviceIds, Collection[str]]) -> DeviceIds:
        """``device_ids`` as a column of this table, adding nothing.

        A column of this table passes through unless the table has added
        ids since its lookup (its provisional slots may now be taken):
        that one, a column of another table and a plain collection of
        strings are looked up by key.
        """
        if isinstance(device_ids, DeviceIds):
            if device_ids.table is self and (
                device_ids.new is None or device_ids.base == self._n
            ):
                return device_ids
            return self.lookup(device_ids.keys())
        try:
            keys = list(map(str.encode, device_ids))
        except UnicodeEncodeError:  # a lone surrogate, which JSON allows
            keys = [d.encode("utf-8", "surrogatepass") for d in device_ids]
        return self.lookup(keys)

    def intern(self, device_ids: Union[DeviceIds, Collection[str]]) -> DeviceIds:
        """``device_ids`` as a column of this table, adding the new ids.

        A column from this table's :meth:`lookup` gets its real slots in
        place, so every holder of it (the guards' commits, the fold) sees
        them; anything else is looked up first.  New ids take the next
        slots in order of first appearance in the column.
        """
        if not isinstance(device_ids, DeviceIds) or device_ids.table is not self:
            device_ids = self.adopt(device_ids)
        with self._lock:
            new = device_ids.new
            if new is None:
                return device_ids
            base, n = device_ids.base, self._n
            if device_ids._whole and base == n:
                # Nothing was added since the lookup: the provisional
                # slots are the real ones.
                self._append(new, _hashes(new))
            else:
                slots = device_ids.slots
                mine = slots >= base
                at = slots[mine] - base
                _, first = np.unique(at, return_index=True)
                order = at[np.sort(first)]  # first-appearance order
                keys = [new[j] for j in order.tolist()]
                hashes = _hashes(keys)
                found = self._find(keys, hashes)
                absent = np.flatnonzero(found < 0)
                found[absent] = np.arange(n, n + absent.size)
                self._append([keys[i] for i in absent.tolist()], hashes[absent])
                real = np.empty(len(new), dtype=np.intp)
                real[order] = found
                slots = slots.copy()
                slots[mine] = real[at]
                device_ids._set_slots(slots)
            device_ids.new = None
        return device_ids

    def find(self, device_id: str) -> Optional[int]:
        """The slot of ``device_id``, or None if it was never added."""
        key = [_encode(device_id)]
        with self._lock:
            slot = int(self._find(key, _hashes(key))[0])
        return None if slot < 0 else slot

    def decode_many(self, slots: np.ndarray) -> List[str]:
        return list(map(_decode, self._keys[np.asarray(slots, dtype=np.intp)]))

    def view(self, slots: np.ndarray, values: np.ndarray) -> Mapping[str, Any]:
        """A read-only ``{device id: value}`` mapping, ordered as ``slots``."""
        return types.MappingProxyType(
            dict(zip(self.decode_many(slots), values.tolist()))
        )


def _objects(keys: Sequence[bytes]) -> np.ndarray:
    column = np.empty(len(keys), dtype=object)
    column[:] = keys
    return column


def _step(hashes: np.ndarray) -> np.ndarray:
    """Each key's probe stride: odd (so a probe sequence visits every
    cell of the power-of-two index) and drawn from the hash's high bits."""
    return (hashes >> 40) | 1


def _hashes(keys: List[bytes]) -> np.ndarray:
    """Each key's hash (Python's keyed ``bytes`` hash, cached per object)."""
    return np.fromiter(map(hash, keys), dtype=np.int64, count=len(keys))
