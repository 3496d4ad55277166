"""Composable pre-admission guard chain (ALLOW / WARN / BLOCK / REPAIR).

Every submission request runs through a :class:`GuardChain` before any
of it reaches the aggregation server.  Each guard inspects the request
and returns a :class:`GuardDecision`:

* **ALLOW** — proceed unchanged.
* **WARN** — proceed, but record a structured warning on the outcome.
* **BLOCK** — refuse the whole batch; the decision carries the reason.
* **REPAIR** — proceed with a *modified* request; every change is
  recorded as a ``field: old -> new`` delta string.

The chain's contract — property-tested in
``tests/property/test_service_guard_properties.py`` — is a strict trichotomy: any
request is either *fully admitted*, *repaired with a recorded delta*,
or *blocked with a reason*.  Nothing is ever silently dropped: a repair
that removes reports names every removal in the delta, and a batch
whose reports would all be removed is blocked instead.

Guards are deterministic state machines over the request sequence (no
wall clock, no randomness), so an admission trace is replayable: the
same requests in the same order produce the same verdicts on any host.

State is applied in **two phases**: :meth:`Guard.check` must be free of
side effects — it rules on the request against the guard's *committed*
state and may attach a ``commit`` callback to its decision.  The chain
collects those callbacks onto the :class:`ChainOutcome`, and the server
invokes :meth:`ChainOutcome.commit` only once the batch is actually
enqueued.  Two consequences, both load-bearing:

* a batch refused at the queue (``busy`` backpressure) or at shutdown
  leaves guard state untouched, so the documented retry of the *same*
  batch is admissible — admission state never charges for work the
  aggregation side never accepted;
* commit callbacks receive the **final** (post-repair) request, so a
  budget charge covers exactly the reports that survived later repairs,
  not the ones a downstream guard dropped.

**Device state.**  The stateful guards keep their per-device
bookkeeping — the budget guard's spend, the rate guard's per-epoch
counts — in numpy columns of a shared
:class:`~repro.aggregation.devices.DeviceTable`, indexed by dense
device *slots*.  :class:`SchemaGuard` looks the batch's ids up once
(binary ids straight from the fixed-width ``S`` column, JSONL ids after
its JSON-specific repairs), so after it both wires carry the same
canonical request: ``device_ids`` is a
:class:`~repro.aggregation.devices.DeviceIds` column (a lazily decoding
``Sequence[str]``) and the budget screen, the rate screen and both
commits are array operations over its slots.  The lookup adds nothing
to the table: an id seen for the first time gets a provisional slot,
which reads as "never charged", and the first commit adds it — so a
refused batch leaves the table as it was.  Only BLOCK and REPAIR
messages decode the few ids they name.  A guard handed a plain list of
strings (standalone use) looks the ids up itself.

:meth:`GuardChain.check_array` rules on a binary-wire request, whose
values arrive as a ``float64`` column: only the schema guard reads it
differently (single ``np.isfinite``/shape sweeps, no coercion — the
wire is typed), and the rulings are verdict-, delta- and
commit-equivalent to :meth:`GuardChain.check` on the same logical
batch (recorded in ``tests/unit/guard_goldens.json``).  The base-class
:meth:`Guard.check_array` delegates to :meth:`Guard.check`, so custom
guards work on both wires unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..aggregation.devices import Column, DeviceIds, DeviceTable
from ..errors import ConfigurationError

__all__ = [
    "Verdict",
    "GuardDecision",
    "ChainOutcome",
    "Guard",
    "GuardChain",
    "SchemaGuard",
    "EpochBudgetGuard",
    "RateLimitGuard",
    "default_chain",
]


class Verdict(enum.Enum):
    """One guard's ruling on one request."""

    ALLOW = "allow"
    WARN = "warn"
    BLOCK = "block"
    REPAIR = "repair"


@dataclasses.dataclass(frozen=True)
class GuardDecision:
    """One guard's decision, with its auditable why.

    ``request`` is the (possibly repaired) request to hand the next
    guard; ``None`` means "unchanged".  ``delta`` records every repair
    as a human-readable ``field: old -> new`` string.  ``commit``, when
    set, applies the guard's state change for this request; it is
    called with the chain's *final* admitted request, and only once the
    batch has actually been accepted downstream (see module docstring).
    """

    verdict: Verdict
    guard: str
    reason: str = ""
    request: Optional[Dict[str, Any]] = None
    delta: Tuple[str, ...] = ()
    commit: Optional[Callable[[Dict[str, Any]], None]] = None


@dataclasses.dataclass(frozen=True)
class ChainOutcome:
    """The chain's aggregate ruling over all guards.

    ``verdict`` is the trichotomy: ``admitted`` / ``repaired`` /
    ``blocked``.  ``request`` is the final request (repairs applied) for
    admitted/repaired outcomes.  ``guard`` names the blocking guard, or
    ``"chain"`` when every guard let the request through.
    """

    verdict: str
    guard: str
    reason: str
    request: Dict[str, Any]
    decisions: Tuple[GuardDecision, ...]
    delta: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.verdict in ("admitted", "repaired")

    def commit(self) -> None:
        """Apply every guard's state change for this admitted batch.

        Call exactly once, and only after the batch has been accepted
        downstream (enqueued for folding).  A blocked or queue-refused
        request is never committed, so guards charge nothing for it.
        Each callback receives the final (post-repair) request.
        """
        if not self.admitted:
            raise ConfigurationError(
                "cannot commit a blocked outcome (nothing was admitted)"
            )
        if getattr(self, "_committed", False):
            raise ConfigurationError("outcome already committed")
        object.__setattr__(self, "_committed", True)
        for decision in self.decisions:
            if decision.commit is not None:
                decision.commit(self.request)


class Guard:
    """Base guard: stateless or deterministically stateful check.

    :meth:`check` must not mutate guard state — a stateful guard rules
    against its committed state and hands the mutation to the decision's
    ``commit`` callback (applied post-admission; see module docstring).
    """

    name = "guard"

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        raise NotImplementedError

    def check_array(self, request: Dict[str, Any]) -> GuardDecision:
        """Rule on a *columnar* request (numpy column buffers).

        Defaults to :meth:`check`, which suits any guard that only
        reads scalar fields — ``op``, ``epoch``, ``claimed_loss`` are
        identical in both representations.  Guards that inspect
        per-report columns override this with a vectorized
        implementation; the same two-phase commit contract applies.
        """
        return self.check(request)

    # Decision helpers ---------------------------------------------------
    def allow(
        self, commit: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> GuardDecision:
        return GuardDecision(Verdict.ALLOW, self.name, commit=commit)

    def warn(
        self,
        reason: str,
        commit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> GuardDecision:
        return GuardDecision(Verdict.WARN, self.name, reason, commit=commit)

    def block(self, reason: str) -> GuardDecision:
        return GuardDecision(Verdict.BLOCK, self.name, reason)

    def repair(
        self,
        request: Dict[str, Any],
        delta: Sequence[str],
        reason: str = "",
        commit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> GuardDecision:
        if not delta:
            raise ConfigurationError(
                f"{self.name}: REPAIR must record at least one delta entry"
            )
        return GuardDecision(
            Verdict.REPAIR,
            self.name,
            reason,
            request=request,
            delta=tuple(delta),
            commit=commit,
        )


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class SchemaGuard(Guard):
    """Strict structural validation of submission requests.

    BLOCKs malformed batches (missing/mistyped fields, non-finite
    values, length mismatches, oversized batches).  With
    ``coerce=True`` (default) it REPAIRs the recoverable cases instead
    of blocking them, recording each change in the delta:

    * numeric strings in ``values`` / ``claimed_loss`` → parsed floats,
    * an integral float ``epoch`` (``3.0``) → the int ``3``,
    * unknown extra fields → dropped.

    Anything the repair cannot make exact — a NaN, an unparseable
    string, a negative count — is a BLOCK, never a guess.

    An admitted submit's ``device_ids`` are looked up in ``devices``
    (the chain's shared table; a private one by default), which adds
    nothing to it.
    """

    name = "schema"

    _SUBMIT_KEYS = frozenset(
        {"op", "epoch", "device_ids", "values", "claimed_loss"}
    )
    _COUNTS_KEYS = frozenset(
        {"op", "epoch", "counts", "n_reports", "claimed_loss"}
    )

    def __init__(
        self,
        max_batch: int = 65536,
        coerce: bool = True,
        *,
        devices: Optional[DeviceTable] = None,
    ):
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.coerce = bool(coerce)
        self.devices = devices if devices is not None else DeviceTable()

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        op = request.get("op")
        if op == "submit":
            return self._check_submit(request)
        if op == "submit_counts":
            return self._check_counts(request)
        return self.block(f"unknown submission op {op!r}")

    # -----------------------------------------------------------------
    def _strip_extras(
        self, request: Dict[str, Any], allowed: frozenset, delta: List[str]
    ) -> Optional[Dict[str, Any]]:
        extras = sorted(set(request) - allowed)
        if not extras:
            return dict(request)
        if not self.coerce:
            return None
        out = {k: v for k, v in request.items() if k in allowed}
        delta.extend(f"{k}: <dropped unknown field>" for k in extras)
        return out

    def _coerce_epoch(
        self, req: Dict[str, Any], delta: List[str]
    ) -> Optional[int]:
        epoch = req.get("epoch")
        if _is_int(epoch):
            return epoch if epoch >= 0 else None
        if (
            self.coerce
            and isinstance(epoch, float)
            and math.isfinite(epoch)
            and epoch == int(epoch)
            and epoch >= 0
        ):
            delta.append(f"epoch: {epoch!r} -> {int(epoch)}")
            return int(epoch)
        return None

    def _coerce_loss(
        self, req: Dict[str, Any], delta: List[str]
    ) -> Optional[float]:
        loss = req.get("claimed_loss")
        if isinstance(loss, str) and self.coerce:
            try:
                parsed = float(loss)
            except ValueError:
                return None
            delta.append(f"claimed_loss: {loss!r} -> {parsed!r}")
            loss = parsed
        if not _is_number(loss):
            return None
        loss = float(loss)
        if not math.isfinite(loss) or loss <= 0.0:
            return None
        return loss

    def _check_submit(self, request: Dict[str, Any]) -> GuardDecision:
        delta: List[str] = []
        req = self._strip_extras(request, self._SUBMIT_KEYS, delta)
        if req is None:
            extras = sorted(set(request) - self._SUBMIT_KEYS)
            return self.block(f"unknown fields {extras} (strict schema)")
        missing = sorted(self._SUBMIT_KEYS - set(req))
        if missing:
            return self.block(f"missing fields {missing}")
        epoch = self._coerce_epoch(req, delta)
        if epoch is None:
            return self.block(
                f"epoch must be a nonnegative integer, got {req.get('epoch')!r}"
            )
        ids = req.get("device_ids")
        values = req.get("values")
        if not isinstance(ids, list) or not isinstance(values, list):
            return self.block("device_ids and values must be arrays")
        if not values:
            return self.block("empty batch (no values)")
        if len(ids) != len(values):
            return self.block(
                f"device_ids ({len(ids)}) and values ({len(values)}) disagree"
            )
        if len(values) > self.max_batch:
            return self.block(
                f"batch of {len(values)} exceeds max_batch={self.max_batch}"
            )
        for i, device_id in enumerate(ids):
            if not isinstance(device_id, str) or not device_id:
                return self.block(f"device_ids[{i}] must be a nonempty string")
        clean_values: List[float] = []
        for i, v in enumerate(values):
            if isinstance(v, str) and self.coerce:
                try:
                    parsed = float(v)
                except ValueError:
                    return self.block(f"values[{i}] is not numeric: {v!r}")
                delta.append(f"values[{i}]: {v!r} -> {parsed!r}")
                v = parsed
            if not _is_number(v):
                return self.block(f"values[{i}] must be a number, got {v!r}")
            v = float(v)
            if not math.isfinite(v):
                return self.block(f"values[{i}] is not finite")
            clean_values.append(v)
        loss = self._coerce_loss(req, delta)
        if loss is None:
            return self.block(
                f"claimed_loss must be a positive finite number, "
                f"got {req.get('claimed_loss')!r}"
            )
        out = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": self.devices.adopt(ids),
            "values": clean_values,
            "claimed_loss": loss,
        }
        if delta:
            return self.repair(out, delta, reason="schema coercion")
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    def _check_counts(self, request: Dict[str, Any]) -> GuardDecision:
        delta: List[str] = []
        req = self._strip_extras(request, self._COUNTS_KEYS, delta)
        if req is None:
            extras = sorted(set(request) - self._COUNTS_KEYS)
            return self.block(f"unknown fields {extras} (strict schema)")
        missing = sorted(self._COUNTS_KEYS - set(req))
        if missing:
            return self.block(f"missing fields {missing}")
        epoch = self._coerce_epoch(req, delta)
        if epoch is None:
            return self.block(
                f"epoch must be a nonnegative integer, got {req.get('epoch')!r}"
            )
        counts = req.get("counts")
        if not isinstance(counts, list) or len(counts) < 2:
            return self.block("counts must be an array of >= 2 categories")
        for i, c in enumerate(counts):
            if not _is_int(c) or c < 0:
                return self.block(
                    f"counts[{i}] must be a nonnegative integer, got {c!r}"
                )
        n_reports = req.get("n_reports")
        if not _is_int(n_reports) or n_reports < 1:
            return self.block(
                f"n_reports must be a positive integer, got {n_reports!r}"
            )
        if sum(counts) > n_reports * len(counts):
            return self.block(
                f"counts sum {sum(counts)} impossible for {n_reports} reports "
                f"over {len(counts)} categories"
            )
        if n_reports > self.max_batch:
            return self.block(
                f"batch of {n_reports} exceeds max_batch={self.max_batch}"
            )
        loss = self._coerce_loss(req, delta)
        if loss is None:
            return self.block(
                f"claimed_loss must be a positive finite number, "
                f"got {req.get('claimed_loss')!r}"
            )
        out = {
            "op": "submit_counts",
            "epoch": epoch,
            "counts": [int(c) for c in counts],
            "n_reports": int(n_reports),
            "claimed_loss": loss,
        }
        if delta:
            return self.repair(out, delta, reason="schema coercion")
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    # -- Binary wire ----------------------------------------------------
    def check_array(self, request: Dict[str, Any]) -> GuardDecision:
        """Vectorized structural validation of a columnar request.

        The binary decoder already guarantees the dtypes (float64
        values, ``S`` ids, int64 counts) and column-length agreement,
        so the columnar schema check reduces to the *content* rules —
        finiteness, non-empty ids, valid UTF-8, batch bounds — ruled
        with single numpy sweeps.  Coercion never arises (the wire is
        typed), which matches the scalar path on equivalently-typed
        input: neither coerces, both ALLOW or BLOCK with the same
        reason.

        The canonical submit this guard emits carries the value column
        untouched (the zero-copy f8 view) and the id column looked up
        by its raw rows: an all-ASCII column is valid UTF-8 by one byte
        sweep, so the guard decodes no id.
        """
        op = request.get("op")
        if op == "submit":
            return self._check_submit_array(request)
        if op == "submit_counts":
            return self._check_counts_array(request)
        return self.block(f"unknown submission op {op!r}")

    def _check_submit_array(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request.get("epoch")
        if not _is_int(epoch) or epoch < 0:
            return self.block(
                f"epoch must be a nonnegative integer, got {epoch!r}"
            )
        ids = request.get("device_ids")
        values = request.get("values")
        if not isinstance(ids, np.ndarray) or not isinstance(values, np.ndarray):
            return self.block("device_ids and values must be arrays")
        if values.size == 0:
            return self.block("empty batch (no values)")
        if ids.size != values.size:
            return self.block(
                f"device_ids ({ids.size}) and values ({values.size}) disagree"
            )
        if values.size > self.max_batch:
            return self.block(
                f"batch of {values.size} exceeds max_batch={self.max_batch}"
            )
        if np.ascontiguousarray(ids).view(np.uint8).max(initial=0) >= 0x80:
            bad = next(
                (i for i, raw in enumerate(ids.tolist()) if not _decodes(raw)), None
            )
            if bad is not None:
                return self.block(f"device_ids[{bad}] is not valid UTF-8")
        empty = ids == b""
        if empty.any():
            i = int(np.flatnonzero(empty)[0])
            return self.block(f"device_ids[{i}] must be a nonempty string")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            return self.block(f"values[{i}] is not finite")
        loss = request.get("claimed_loss")
        if not _is_number(loss) or not math.isfinite(float(loss)) or loss <= 0.0:
            return self.block(
                f"claimed_loss must be a positive finite number, got {loss!r}"
            )
        out = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": self.devices.lookup(ids),
            "values": values,
            "claimed_loss": float(loss),
        }
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    def _check_counts_array(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request.get("epoch")
        if not _is_int(epoch) or epoch < 0:
            return self.block(
                f"epoch must be a nonnegative integer, got {epoch!r}"
            )
        counts = request.get("counts")
        if not isinstance(counts, np.ndarray) or counts.size < 2:
            return self.block("counts must be an array of >= 2 categories")
        negative = counts < 0
        if negative.any():
            i = int(np.flatnonzero(negative)[0])
            return self.block(
                f"counts[{i}] must be a nonnegative integer, "
                f"got {int(counts[i])!r}"
            )
        n_reports = request.get("n_reports")
        if not _is_int(n_reports) or n_reports < 1:
            return self.block(
                f"n_reports must be a positive integer, got {n_reports!r}"
            )
        total = int(counts.sum())
        if total > n_reports * counts.size:
            return self.block(
                f"counts sum {total} impossible for {n_reports} reports "
                f"over {counts.size} categories"
            )
        if n_reports > self.max_batch:
            return self.block(
                f"batch of {n_reports} exceeds max_batch={self.max_batch}"
            )
        loss = request.get("claimed_loss")
        if not _is_number(loss) or not math.isfinite(float(loss)) or loss <= 0.0:
            return self.block(
                f"claimed_loss must be a positive finite number, got {loss!r}"
            )
        out = {
            "op": "submit_counts",
            "epoch": epoch,
            "counts": counts,
            "n_reports": int(n_reports),
            "claimed_loss": float(loss),
        }
        return GuardDecision(Verdict.ALLOW, self.name, request=out)


def _decodes(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


class EpochBudgetGuard(Guard):
    """Epoch-window and claimed-loss/budget validation.

    * Epochs beyond ``epoch_horizon`` are BLOCKed (a device reporting
      for epoch 10^9 is malfunctioning or probing).
    * ``claimed_loss`` above ``max_claimed_loss`` is BLOCKed — the
      server will not fold reports whose claimed disclosure is absurd;
      above ``warn_claimed_loss`` it is admitted with a WARN.
    * With a ``device_budget``, the guard tracks each device's
      cumulative claimed loss across admitted batches and BLOCKs
      batches that would push any device past it — the server-side
      mirror of the on-device accountant (conservative, like
      :meth:`~repro.aggregation.AggregationServer.worst_case_disclosure`).

    Budget state is charged by the decision's ``commit`` callback, not
    at check time, and against the chain's *final* request — so a batch
    refused downstream (queue-full ``busy``, shutdown) charges nothing,
    and reports a later guard repairs away are never charged.  At most
    ``max_devices_tracked`` devices hold a spend: past the bound the
    exact least-recently-charged devices are evicted, which forgets
    their accumulated spend, so size the bound above the expected fleet
    cardinality — the bound trades completeness against a malicious
    fleet of throwaway device ids exhausting server memory.

    Spend lives in a per-slot column of the ``devices`` table next to a
    *stamp* column, and every charged report appends its device's slot
    to a charge log.  A device's stamp is one past the log position of
    its latest charge (0 = untracked), so a log entry is live exactly
    while the stamp points back at it and a recharge simply leaves a
    dead entry behind.  Eviction walks the log from its head, skipping
    dead entries, and passes each entry once — O(batch) per commit,
    never O(bound); when the log fills up, its live entries are packed
    to the front and restamped.

    Runs after :class:`SchemaGuard`, so fields are already typed.
    """

    name = "epoch-budget"

    def __init__(
        self,
        epoch_horizon: int = 1_000_000,
        max_claimed_loss: float = 16.0,
        warn_claimed_loss: Optional[float] = None,
        device_budget: Optional[float] = None,
        max_devices_tracked: int = 1_048_576,
        *,
        devices: Optional[DeviceTable] = None,
    ):
        if epoch_horizon < 0:
            raise ConfigurationError("epoch_horizon must be >= 0")
        if max_claimed_loss <= 0:
            raise ConfigurationError("max_claimed_loss must be positive")
        if max_devices_tracked < 1:
            raise ConfigurationError("max_devices_tracked must be >= 1")
        self.epoch_horizon = int(epoch_horizon)
        self.max_claimed_loss = float(max_claimed_loss)
        self.warn_claimed_loss = float(
            warn_claimed_loss if warn_claimed_loss is not None
            else max_claimed_loss / 2.0
        )
        self.device_budget = None if device_budget is None else float(device_budget)
        self.max_devices_tracked = int(max_devices_tracked)
        self.devices = devices if devices is not None else DeviceTable()
        self._spend = Column(np.float64)
        self._stamp = Column(np.int32)
        self._n_tracked = 0
        self._log = np.zeros(0, dtype=np.int32)
        self._log_head = 0
        self._log_len = 0

    def _live(self, start: int, stop: int) -> np.ndarray:
        """Positions (from ``start``) of the live log entries in ``[start, stop)``."""
        slots = self._log[start:stop]
        return np.flatnonzero(
            self._stamp[slots] == np.arange(start + 1, stop + 1)
        )

    @property
    def spent(self) -> Mapping[str, float]:
        """Read-only ``{device id: spend}``, least-recently-charged first."""
        head = self._log_head
        slots = self._log[head + self._live(head, self._log_len)]
        return self.devices.view(slots, self._spend[slots])

    def _charge(self, final: Dict[str, Any]) -> None:
        """Commit hook: charge spend for the devices that actually made
        it into the admitted batch (post-repair), then evict past the
        bound."""
        if self.device_budget is None or final.get("op") != "submit":
            return
        ids = self.devices.intern(final["device_ids"])
        slots, k = ids.slots, len(ids)
        self._reserve_log(k)
        start = self._log_len
        stamps = np.arange(start + 1, start + 1 + k, dtype=np.int32)
        at = self._stamp.reserve(ids)
        stamp = self._stamp.data
        untracked = stamp[at] == 0
        # An evicted or never-charged device has spend 0.0, so adding
        # the loss once per report in batch order is exactly the
        # ``pop(id, 0.0) + loss`` walk of an LRU dict.
        self._spend.add(ids, final["claimed_loss"])
        if ids.unique:
            stamp[at] = stamps
            self._n_tracked += int(np.count_nonzero(untracked))
        else:
            # A repeated device's last report is its latest charge; it
            # alone keeps a live stamp, so it alone counts as new.
            np.maximum.at(stamp, at, stamps)
            self._n_tracked += int(
                np.count_nonzero(untracked & (stamp[at] == stamps))
            )
        self._log[start : start + k] = slots
        self._log_len = start + k
        if self._n_tracked > self.max_devices_tracked:
            self._evict(self._n_tracked - self.max_devices_tracked)

    def _reserve_log(self, k: int) -> None:
        if self._log_len + k <= self._log.size:
            return
        head = self._log_head
        live = self._log[head + self._live(head, self._log_len)]
        n = live.size
        self._log = np.zeros(max((n + k) * 3 // 2, 1024), dtype=np.int32)
        self._log[:n] = live
        self._stamp[live] = np.arange(1, n + 1)
        self._log_head, self._log_len = 0, n

    def _evict(self, excess: int) -> None:
        """Forget the ``excess`` least-recently-charged devices."""
        head = self._log_head
        while excess:
            stop = min(head + max(2 * excess, 1024), self._log_len)
            live = self._live(head, stop)
            if live.size >= excess:
                live = live[:excess]
                stop = head + int(live[-1]) + 1
            victims = self._log[head + live]
            self._stamp[victims] = 0
            self._spend[victims] = 0.0
            self._n_tracked -= victims.size
            excess -= victims.size
            head = stop
        self._log_head = head

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request["epoch"]
        if epoch > self.epoch_horizon:
            return self.block(
                f"epoch {epoch} beyond horizon {self.epoch_horizon}"
            )
        loss = request["claimed_loss"]
        if loss > self.max_claimed_loss:
            return self.block(
                f"claimed_loss {loss:g} exceeds cap {self.max_claimed_loss:g}"
            )
        commit = None
        if self.device_budget is not None and request["op"] == "submit":
            ids = self.devices.adopt(request["device_ids"])
            threshold = self.device_budget + 1e-12
            over = np.flatnonzero(self._spend.gather(ids) + loss > threshold)
            if over.size:
                names = sorted(set(ids.take(over)))
                shown = ", ".join(names[:5]) + (", ..." if len(names) > 5 else "")
                return self.block(
                    f"{len(names)} device(s) past budget "
                    f"{self.device_budget:g}: {shown}"
                )
            commit = self._charge
        if loss > self.warn_claimed_loss:
            return self.warn(
                f"claimed_loss {loss:g} above warning level "
                f"{self.warn_claimed_loss:g}",
                commit=commit,
            )
        return self.allow(commit=commit)


class RateLimitGuard(Guard):
    """Per-device, per-epoch report-rate limiting.

    The fleet contract is one report per device per epoch; a device
    (or a replaying middlebox) exceeding ``per_epoch_limit`` is either
    REPAIRed — its over-limit reports removed from the batch, each
    removal recorded in the delta — or, if the repair would empty the
    batch, the batch is BLOCKed.  Counting is deterministic in the
    request sequence; only the most recent ``max_epochs_tracked``
    epochs are retained so state stays bounded.  Once that window is
    full, a batch for an epoch older than every tracked epoch is
    BLOCKed: its counts could not be kept, so its reports could not be
    limited.

    Like the budget guard, per-device counts are applied by the
    decision's ``commit`` callback: a batch the queue refuses as
    ``busy`` consumes nobody's rate allowance, so the documented
    same-batch retry is not self-blocking.  Each tracked epoch is one
    count column over the ``devices`` table's slots.
    """

    name = "rate-limit"

    def __init__(
        self,
        per_epoch_limit: int = 1,
        max_epochs_tracked: int = 64,
        *,
        devices: Optional[DeviceTable] = None,
    ):
        if per_epoch_limit < 1:
            raise ConfigurationError("per_epoch_limit must be >= 1")
        if max_epochs_tracked < 1:
            raise ConfigurationError("max_epochs_tracked must be >= 1")
        self.per_epoch_limit = int(per_epoch_limit)
        self.max_epochs_tracked = int(max_epochs_tracked)
        self.devices = devices if devices is not None else DeviceTable()
        self._seen: Dict[int, Column] = {}

    @property
    def epoch_counts(self) -> Dict[int, Mapping[str, int]]:
        """Read-only per-epoch ``{device id: reports}``, tracked epochs only."""
        out = {}
        for epoch in sorted(self._seen):
            counts = self._seen[epoch]
            slots = counts.nonzero()
            out[epoch] = self.devices.view(slots, counts[slots])
        return out

    def _apply(self, epoch: int, kept: DeviceIds) -> None:
        """Commit hook: fold this batch's kept reports into the
        committed epoch state (creating/evicting epoch columns here,
        not at check time)."""
        counts = self._seen.get(epoch)
        if counts is None:
            counts = self._seen[epoch] = Column(np.int64)
            while len(self._seen) > self.max_epochs_tracked:
                del self._seen[min(self._seen)]
        counts.add(self.devices.intern(kept), 1)

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        if request["op"] != "submit":
            # Count batches carry no device ids; nothing to rate-limit.
            return self.allow()
        epoch = request["epoch"]
        counts = self._seen.get(epoch)
        if counts is None and len(self._seen) >= self.max_epochs_tracked:
            oldest = min(self._seen)
            if epoch < oldest:
                return self.block(
                    f"epoch {epoch} is older than every tracked epoch "
                    f"(oldest tracked: {oldest}); its reports cannot be "
                    f"rate-limited"
                )
        ids = self.devices.adopt(request["device_ids"])
        limit = self.per_epoch_limit
        used = np.zeros(len(ids), np.int64) if counts is None else counts.gather(ids)
        if not ids.unique:
            # A report's budget is what its device had left before the
            # batch, minus that device's earlier reports in the batch.
            used = used + _occurrence_rank(ids.slots)
        over = np.flatnonzero(used >= limit)

        def commit(final: Dict[str, Any], epoch=epoch, kept=ids) -> None:
            self._apply(epoch, kept)

        if not over.size:
            return self.allow(commit=commit)
        if over.size == len(ids):
            return self.block(
                f"every report in the batch is over the "
                f"{limit}/epoch rate limit"
            )
        names = ids.take(over)
        dropped = [
            f"values[{i}]: <dropped: device {name!r} over "
            f"{limit}/epoch rate limit>"
            for i, name in zip(over.tolist(), names)
        ]
        keep = np.flatnonzero(used < limit)
        kept = ids.take(keep)
        repaired = dict(request)
        repaired["device_ids"] = kept
        values = request["values"]
        if isinstance(values, np.ndarray):
            # Columnar batch: the surviving reports are one fancy-index
            # over the value column — the repaired request stays
            # columnar (no per-report Python floats materialize).
            repaired["values"] = values[keep]
        else:
            repaired["values"] = [values[i] for i in keep.tolist()]

        def commit_kept(final: Dict[str, Any], epoch=epoch, kept=kept) -> None:
            self._apply(epoch, kept)

        return self.repair(
            repaired, dropped, reason="rate limit", commit=commit_kept
        )


def _occurrence_rank(slots: np.ndarray) -> np.ndarray:
    """For each report, how many earlier reports in the batch share its slot."""
    order = np.argsort(slots, kind="stable")
    ordered = slots[order]
    n = ordered.size
    starts = np.ones(n, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - first
    return rank


class GuardChain:
    """Run guards in order; fold their decisions into one outcome.

    REPAIR hands the repaired request to the next guard; WARN records
    and continues; BLOCK stops the chain.  The final verdict is the
    trichotomy described in the module docstring.

    :meth:`check` is side-effect-free; stateful guards hand their
    mutations to the outcome, and the caller applies them with
    :meth:`ChainOutcome.commit` once (and only if) the admitted batch
    is actually accepted downstream.
    """

    def __init__(self, guards: Sequence[Guard]):
        if not guards:
            raise ConfigurationError("a guard chain needs at least one guard")
        self.guards = list(guards)

    def check(self, request: Dict[str, Any]) -> ChainOutcome:
        return self._run(request, columnar=False)

    def check_array(self, request: Dict[str, Any]) -> ChainOutcome:
        """The columnar analogue of :meth:`check` — same trichotomy,
        same two-phase commit, vectorized guard rulings throughout."""
        return self._run(request, columnar=True)

    def _run(self, request: Dict[str, Any], columnar: bool) -> ChainOutcome:
        decisions: List[GuardDecision] = []
        delta: List[str] = []
        warnings: List[str] = []
        current = request
        for guard in self.guards:
            decision = guard.check_array(current) if columnar else guard.check(current)
            decisions.append(decision)
            if decision.verdict is Verdict.BLOCK:
                return ChainOutcome(
                    verdict="blocked",
                    guard=decision.guard,
                    reason=decision.reason,
                    request=current,
                    decisions=tuple(decisions),
                    delta=tuple(delta),
                    warnings=tuple(warnings),
                )
            if decision.verdict is Verdict.WARN:
                warnings.append(f"{decision.guard}: {decision.reason}")
            if decision.verdict is Verdict.REPAIR:
                delta.extend(decision.delta)
            if decision.request is not None:
                current = decision.request
        return ChainOutcome(
            verdict="repaired" if delta else "admitted",
            guard="chain",
            reason="; ".join(warnings),
            request=current,
            decisions=tuple(decisions),
            delta=tuple(delta),
            warnings=tuple(warnings),
        )


def default_chain(
    max_batch: int = 65536,
    coerce: bool = True,
    epoch_horizon: int = 1_000_000,
    max_claimed_loss: float = 16.0,
    device_budget: Optional[float] = None,
    per_epoch_limit: int = 1,
    max_devices_tracked: int = 1_048_576,
    *,
    devices: Optional[DeviceTable] = None,
) -> GuardChain:
    """The service's standard chain: schema → epoch/budget → rate limit.

    The three guards share one device table: ``devices`` (the
    ingestion service passes its aggregation server's, so the fold
    reuses the chain's slots), or a fresh one.
    """
    if devices is None:
        devices = DeviceTable()
    return GuardChain(
        [
            SchemaGuard(max_batch=max_batch, coerce=coerce, devices=devices),
            EpochBudgetGuard(
                epoch_horizon=epoch_horizon,
                max_claimed_loss=max_claimed_loss,
                device_budget=device_budget,
                max_devices_tracked=max_devices_tracked,
                devices=devices,
            ),
            RateLimitGuard(per_epoch_limit=per_epoch_limit, devices=devices),
        ]
    )
