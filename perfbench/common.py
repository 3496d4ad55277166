"""Shared plumbing for the end-to-end benchmark.

Host envelope, the timing-statistics rule, ``/proc`` readers, and the
span tracer the traced runs use.  Nothing here imports the program
(``repro``); the workload modules do that after ``run.py`` has put the
checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the directory the benchmark command runs from.
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
#: Everything a run writes (results, spans, service logs) lands here.
OUT = ROOT / ".perfbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Tail percentiles tried, highest first, by :func:`timing_summary`.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class GateFailure(Exception):
    """A correctness gate failed; the run counts it and exits nonzero."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``samples``."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def split_evenly(total: int, groups: int) -> List[int]:
    """``total`` split into ``groups`` counts as equal as possible.

    Cold starts are spread this way over a run: the host's CPU speed
    drifts over seconds, and back-to-back starts would all sample one
    moment of it.
    """
    return [total // groups + (i < total % groups) for i in range(groups)]


def timing_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    out: Dict[str, Any] = {"n": n, "p50": median(samples) if n else None}
    out["tail_q"] = None
    out["tail"] = None
    for q in _TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            out["tail_q"] = q
            out["tail"] = percentile(samples, q)
            break
    return out


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # After the ")" the state is field 3, so utime/stime (14/15) sit at 11/12.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def program_env() -> Dict[str, str]:
    """Environment for a child that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait until it has exited."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Host envelope
# ---------------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's source files (path + bytes, sorted).

    Identifies the measured code where the checkout carries no git
    metadata.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_envelope(seed: int, loadavg: Tuple[float, float, float]) -> Dict[str, Any]:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "loadavg_start": list(loadavg),
        "seed": seed,
        "platform": platform.platform(),
    }


def normalized(snapshot: Dict[str, Any]) -> Any:
    """A snapshot as its JSON form reads back: compare these for bit-identity."""
    return json.loads(json.dumps(snapshot, sort_keys=True))


def write_json(path: pathlib.Path, obj: Any) -> None:
    """Atomic JSON write (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True, default=float))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    Spans nest by call order (a span opened while another is open is its
    child).  Self time is a span's duration minus its direct children's.
    ``enabled=False`` turns every span into a bare call, which is how the
    tracing overhead is measured on the same calls.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: ``[name, start_ns, end_ns, parent_index, request_id, reports]``
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request_id: Optional[int] = None
        #: Entry points that were missing, with the reason.
        self.notes: Dict[str, str] = {}

    @contextlib.contextmanager
    def span(self, name: str, reports: int = 0):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.request_id, reports]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, reports: int = 0, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, reports):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable, reports_of: Optional[Callable] = None,
             observe: Optional[Callable] = None):
        """A wrapper recording one span per call of ``fn``; ``observe``
        sees each result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = reports_of(*args, **kwargs) if reports_of is not None else 0
            with self.span(name, n):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, owner: Any, attr: str, name: str,
                reports_of: Optional[Callable] = None,
                observe: Optional[Callable] = None):
        """Wrap ``owner.attr`` for the duration; note it if it is gone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        fn = getattr(owner, attr, None)
        if fn is None:
            self.notes[name] = f"entry point {getattr(owner, '__name__', owner)}.{attr} not found"
            yield False
            return
        setattr(owner, attr, self.wrap(name, fn, reports_of, observe))
        try:
            yield True
        finally:
            if isinstance(owner, type) and original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original if original is not None else fn)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self nanoseconds, reports."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _rid, _n in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent, _rid, n) in enumerate(self.spans):
            slot = out.setdefault(
                name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "reports": 0}
            )
            slot["calls"] += 1
            slot["incl_ns"] += end - start
            slot["self_ns"] += end - start - child_ns[i]
            slot["reports"] += n
        return out

    def dump(self, path: pathlib.Path) -> None:
        """Write the spans out (one JSON object, columns as lists)."""
        write_json(
            path,
            {
                "columns": ["name", "start_ns", "end_ns", "parent", "request_id", "reports"],
                "spans": self.spans,
                "notes": self.notes,
            },
        )

