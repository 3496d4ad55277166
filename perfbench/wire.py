"""The two documented request wires, encoded by the benchmark itself.

The load generator ships bytes built here rather than by the program's
encoders, so the end-to-end runs depend only on the wire formats in
``docs/service.md`` (JSONL lines; length-prefixed binary columnar frames
negotiated by ``hello``), not on the encoder API.  The traced run times
the program's own encoders on the same batches and checks they produce
these bytes.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict

import numpy as np

#: Frame header: magic, opcode, dtype tag, n, aux, epoch, claimed loss.
_HEADER = struct.Struct("<2sBBIIQd")
_PREFIX = struct.Struct("<I")
OP_JSON, OP_SUBMIT = 0, 1
DTYPE_NONE, DTYPE_F64 = 0, 1

HELLO_BINARY = {"op": "hello", "wire": "binary", "version": 2}


def jsonl(obj: Dict[str, Any]) -> bytes:
    """One JSONL request line (sorted keys, trailing newline)."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _frame(header: bytes, *columns: bytes) -> bytes:
    payload = b"".join((header, *columns))
    return _PREFIX.pack(len(payload)) + payload


def binary_submit(epoch: int, ids: np.ndarray, values: np.ndarray, loss: float) -> bytes:
    """``submit`` frame: f64 values then the NUL-padded ``S{w}`` id column."""
    values = np.ascontiguousarray(values, dtype="<f8")
    ids = np.ascontiguousarray(ids)
    header = _HEADER.pack(
        b"R2", OP_SUBMIT, DTYPE_F64, values.size, ids.dtype.itemsize, epoch, loss
    )
    return _frame(header, values.tobytes(), ids.tobytes())


def binary_json(obj: Dict[str, Any]) -> bytes:
    """``OP_JSON`` escape frame carrying one JSONL request (no newline)."""
    line = json.dumps(obj, sort_keys=True).encode("utf-8")
    return _frame(_HEADER.pack(b"R2", OP_JSON, DTYPE_NONE, len(line), 0, 0, 0.0), line)


def frame_payload(frame: bytes) -> bytes:
    """The payload of one length-prefixed frame (what the decoder sees)."""
    return frame[_PREFIX.size:]


def id_column(start: int, count: int, prefix: bytes) -> np.ndarray:
    """``count`` distinct fixed-width ids ``prefix + 9 decimal digits``."""
    width = len(prefix) + 9
    out = np.empty((count, width), dtype=np.uint8)
    out[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    x = np.arange(start, start + count, dtype=np.int64)
    for k in range(width - 1, len(prefix) - 1, -1):
        out[:, k] = 48 + x % 10
        x //= 10
    return out.view(f"S{width}").reshape(-1)
