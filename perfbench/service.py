"""Out-of-process service harness: spawn ``python -m repro serve`` and
drive it over loopback from this one load-generator process.

:class:`Channel` is one non-blocking TCP connection with FIFO reply
matching (the service answers each connection's requests in order).
:func:`drive` runs a list of pre-encoded requests on the data channel,
either closed-loop (a pipelined window) or open-loop (each request due
at a fixed rate, timed from when it was due), while the control channel
issues scheduled ``snapshot`` reads.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import re
import select
import socket
import subprocess
import sys
import time
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import wire
from common import OUT, GateFailure, program_env, stop_process

_LISTENING = re.compile(rb"listening on (\S+):(\d+)")

#: Cumulative claimed-loss budget per device: finite, so every report is
#: charged by the budget guard, and far above what any run spends.
DEVICE_BUDGET = 1_000_000.0

#: Backoff before resending a request the service answered ``busy``.
BUSY_BACKOFF_S = 0.001


class Channel:
    """One connection; requests queue here and replies come back in order."""

    def __init__(self, address: Tuple[str, int], binary: bool = False):
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: Deque[Any] = collections.deque()
        self.bytes_sent = 0
        self.requests = 0
        self.binary = False
        if binary:
            reply = self.request(wire.HELLO_BINARY)
            if reply.get("status") != "ok" or reply.get("wire") != "binary":
                raise GateFailure(f"binary wire negotiation failed: {reply!r}")
            self.binary = True

    def encode_control(self, obj: Dict[str, Any]) -> bytes:
        return wire.binary_json(obj) if self.binary else wire.jsonl(obj)

    def queue(self, data: bytes, tag: Any) -> None:
        self.out += data
        self.pending.append(tag)
        self.bytes_sent += len(data)
        self.requests += 1

    def flush(self) -> None:
        if not self.out:
            return
        try:
            sent = self.sock.send(self.out)
        except BlockingIOError:
            return
        del self.out[:sent]

    def replies(self) -> List[Tuple[Any, Dict[str, Any]]]:
        """Every complete reply available now, paired with its tag."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise GateFailure("service closed the connection")
        self.inbuf += data
        out = []
        start = 0
        while True:
            end = self.inbuf.find(b"\n", start)
            if end < 0:
                break
            out.append((self.pending.popleft(), json.loads(self.inbuf[start:end])))
            start = end + 1
        del self.inbuf[:start]
        return out

    def request(self, obj: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
        """Blocking request/reply (nothing else may be in flight)."""
        if self.pending:
            raise RuntimeError("blocking request with replies outstanding")
        self.queue(self.encode_control(obj), "sync")
        deadline = time.perf_counter() + timeout
        while True:
            self.flush()
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise GateFailure(f"no reply to {obj.get('op')!r} in {timeout}s")
            readable, _, _ = select.select(
                [self.sock], [self.sock] if self.out else [], [], remaining
            )
            if readable:
                got = self.replies()
                if got:
                    return got[0][1]

    def close(self) -> None:
        self.sock.close()


class Service:
    """A ``python -m repro serve`` child process, started and pinged."""

    def __init__(self, log_name: str):
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / f"{log_name}.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--device-budget", repr(DEVICE_BUDGET),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(),
        )
        try:
            self.address = self._await_listening(60.0)
            #: The control connection; its first request is the liveness ping.
            self.ctrl = Channel(self.address)
            reply = self.ctrl.request({"op": "ping"})
            if reply.get("status") != "ok":
                raise GateFailure(f"ping failed: {reply!r}")
        except BaseException:
            self.stop()
            raise
        #: Spawn until the first ping succeeded.
        self.setup_s = time.perf_counter() - t0

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.perf_counter() + timeout
        buf = b""
        fd = self.proc.stdout
        while time.perf_counter() < deadline:
            readable, _, _ = select.select([fd], [], [], 0.5)
            if readable:
                chunk = fd.read1(4096)
                if not chunk:
                    break
                buf += chunk
                match = _LISTENING.search(buf)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise GateFailure(
            f"service did not start (exit code {self.proc.poll()}); see {self._log.name}"
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if hasattr(self, "ctrl"):
            self.ctrl.close()
        stop_process(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


@dataclasses.dataclass
class DriveResult:
    """Per-request outcome of one :func:`drive` call.

    A request the service never answered has status ``None``; so does a
    scheduled snapshot still unanswered at the deadline.
    """

    t_start: float
    status: List[Optional[str]]
    seq: List[Optional[int]]
    t_due: List[float]
    t_ack: List[float]
    busy: List[int]
    lag_s: List[float]
    snapshot_s: List[float]
    snapshot_status: List[Optional[str]]
    timed_out: bool


def drive(
    data: Channel,
    ctrl: Channel,
    frames: Sequence[bytes],
    *,
    deadline: float,
    window: Optional[int] = None,
    rate: Optional[float] = None,
    snapshot_after: Set[int] = frozenset(),
) -> DriveResult:
    """Send ``frames`` on ``data``; closed-loop with ``window``, else paced.

    Closed loop: at most ``window`` requests unanswered; ``t_due`` is the
    first send.  Open loop: request ``k`` is due at ``start + k / rate``
    and is sent then whatever is outstanding; ``lag_s`` records how late
    each send ran.  A ``busy`` reply is resent after a short backoff and
    its acknowledgement still counts from the original due time.  A
    scheduled ``snapshot`` goes out on ``ctrl`` after each index in
    ``snapshot_after``, one outstanding at a time.  At ``deadline`` (a
    ``time.perf_counter()`` value) it stops waiting and returns with
    ``timed_out`` set and the unanswered requests' status ``None``.
    """
    if (window is None) == (rate is None):
        raise ValueError("give exactly one of window= and rate=")
    n = len(frames)
    status: List[Optional[str]] = [None] * n
    seq: List[Optional[int]] = [None] * n
    t_due = [0.0] * n
    t_ack = [0.0] * n
    busy = [0] * n
    lag: List[float] = []
    snaps: List[float] = []
    snap_status: List[Optional[str]] = []
    retry: Deque[Tuple[float, int]] = collections.deque()
    start = time.perf_counter()
    next_op = 0
    outstanding = 0
    done = 0
    snap_wanted = False
    snap_sent: Optional[float] = None
    data_sock, ctrl_sock = data.sock, ctrl.sock

    while done < n or snap_wanted or snap_sent is not None:
        now = time.perf_counter()
        if now >= deadline:
            break
        while retry and retry[0][0] <= now:
            k = retry.popleft()[1]
            data.queue(frames[k], k)
        if rate is not None:
            while next_op < n and start + next_op / rate <= now:
                t_due[next_op] = start + next_op / rate
                lag.append(now - t_due[next_op])
                data.queue(frames[next_op], next_op)
                snap_wanted |= next_op in snapshot_after
                next_op += 1
                outstanding += 1
        else:
            while next_op < n and outstanding < window:
                t_due[next_op] = now
                data.queue(frames[next_op], next_op)
                snap_wanted |= next_op in snapshot_after
                next_op += 1
                outstanding += 1
        if snap_wanted and snap_sent is None:
            ctrl.queue(ctrl.encode_control({"op": "snapshot"}), "snapshot")
            snap_sent = now
            snap_wanted = False
        data.flush()
        ctrl.flush()

        wake = [deadline]
        if retry:
            wake.append(retry[0][0])
        if rate is not None and next_op < n:
            wake.append(start + next_op / rate)
        timeout = max(0.0, min(wake) - time.perf_counter())
        writers = [s for s, ch in ((data_sock, data), (ctrl_sock, ctrl)) if ch.out]
        readable, _, _ = select.select(
            [data_sock, ctrl_sock], writers, [], min(timeout, 1.0)
        )
        if not readable:
            continue
        now = time.perf_counter()
        if data_sock in readable:
            for k, reply in data.replies():
                verdict = reply.get("status")
                if verdict == "busy":
                    busy[k] += 1
                    retry.append((now + BUSY_BACKOFF_S, k))
                    continue
                status[k] = verdict
                seq[k] = reply.get("seq")
                t_ack[k] = now
                outstanding -= 1
                done += 1
        if ctrl_sock in readable:
            for _tag, reply in ctrl.replies():
                snaps.append(now - snap_sent)
                snap_status.append(reply.get("status"))
                snap_sent = None
    timed_out = done < n or snap_wanted or snap_sent is not None
    if snap_sent is not None:
        snap_status.append(None)
    return DriveResult(start, status, seq, t_due, t_ack, busy, lag, snaps, snap_status,
                       timed_out)


def folded_counts(snapshot: Dict[str, Any]) -> Tuple[int, int]:
    """(numeric reports folded, categorical reports folded) in a snapshot."""
    numeric = sum(int(e["count"]) for e in snapshot.get("epochs", {}).values())
    categorical = sum(
        int(e["n_reports"]) for e in snapshot.get("categorical_epochs", {}).values()
    )
    return numeric, categorical


def await_folded(
    ctrl: Channel, numeric: int, categorical: int, deadline: float
) -> Tuple[float, Dict[str, Any]]:
    """Poll ``snapshot`` until every admitted report is folded, or fail
    at ``deadline`` (a ``time.perf_counter()`` value).

    Returns the time the confirming snapshot arrived, and that snapshot.
    """
    while True:
        remaining = max(deadline - time.perf_counter(), 0.001)
        reply = ctrl.request({"op": "snapshot"}, timeout=remaining)
        now = time.perf_counter()
        if reply.get("status") != "ok":
            raise GateFailure(f"snapshot failed: {reply!r}")
        snap = reply["snapshot"]
        got = folded_counts(snap)
        if got == (numeric, categorical):
            return now, snap
        if got[0] > numeric or got[1] > categorical or now > deadline:
            raise GateFailure(
                f"folded {got} but {(numeric, categorical)} were admitted"
            )
        time.sleep(0.002)
