"""Text serialization for states, channels, recovery maps and reports.

Matrices are stored as ``(re, im)`` pairs in row-major order at 17
significant digits, which round-trips IEEE doubles exactly.  Report files
come in two flavors: a whitespace table with one row per instance and a
JSON summary document; both are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile

import numpy as np

from .channels import Channel
from .recovery import RecoveryMap

_PAIR = re.compile(r"\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_lines(mat: np.ndarray):
    return [
        " ".join(f"({_fmt(v.real)}, {_fmt(v.imag)})" for v in row) for row in mat
    ]


def _parse_matrix(lines, dim_rows: int, dim_cols: int) -> np.ndarray:
    if len(lines) != dim_rows:
        raise ValueError(f"expected {dim_rows} matrix rows, got {len(lines)}")
    out = np.empty((dim_rows, dim_cols), dtype=complex)
    for i, line in enumerate(lines):
        pairs = _PAIR.findall(line)
        if len(pairs) != dim_cols:
            raise ValueError(f"row {i} has {len(pairs)} entries, expected {dim_cols}")
        out[i] = [float(a) + 1j * float(b) for a, b in pairs]
    return out


def _kraus_lines(kraus) -> list:
    """One ``block k`` header and the matrix rows of each Kraus operator."""
    lines = []
    for k, op in enumerate(kraus):
        lines.append(f"block {k}")
        lines += _matrix_lines(op)
    return lines


def _parse_kraus(lines, head: dict) -> list:
    """Inverse of ``_kraus_lines``, sized by the ``kraus``, ``dim_in`` and
    ``dim_out`` fields of a file's ``head``; ``lines`` start at ``block 0``."""
    n_kraus, dim_in, dim_out = (int(head[key]) for key in ("kraus", "dim_in", "dim_out"))
    ops = []
    cursor = 0
    for k in range(n_kraus):
        if lines[cursor] != f"block {k}":
            raise ValueError(f"missing Kraus block {k}")
        cursor += 1
        ops.append(_parse_matrix(lines[cursor : cursor + dim_out], dim_out, dim_in))
        cursor += dim_out
    return ops


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".petzlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def dumps_state(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=complex)
    lines = ["petzlab state v1", f"dim {mat.shape[0]}"]
    lines += _matrix_lines(mat)
    return "\n".join(lines) + "\n"


def loads_state(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "petzlab state v1":
        raise ValueError("not a petzlab state file")
    dim = int(lines[1].split()[1])
    return _parse_matrix(lines[2 : 2 + dim], dim, dim)


def save_state(path: str, mat: np.ndarray) -> None:
    atomic_write_text(path, dumps_state(mat))


def load_state(path: str) -> np.ndarray:
    with open(path) as handle:
        return loads_state(handle.read())


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def dumps_channel(channel: Channel) -> str:
    lines = [
        "petzlab channel v1",
        f"mode {channel.mode}",
        f"dim_in {channel.dim_in}",
        f"dim_out {channel.dim_out}",
        f"kraus {channel.num_kraus}",
    ]
    return "\n".join(lines + _kraus_lines(channel.kraus)) + "\n"


def loads_channel(text: str) -> Channel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "petzlab channel v1":
        raise ValueError("not a petzlab channel file")
    head = {}
    for ln in lines[1:5]:
        key, val = ln.split()
        head[key] = val
    return Channel(_parse_kraus(lines[5:], head), mode=head["mode"])


def save_channel(path: str, channel: Channel) -> None:
    atomic_write_text(path, dumps_channel(channel))


def load_channel(path: str) -> Channel:
    with open(path) as handle:
        return loads_channel(handle.read())


def state_sha256(mat: np.ndarray) -> str:
    return hashlib.sha256(dumps_state(mat).encode()).hexdigest()


def channel_sha256(channel: Channel) -> str:
    return hashlib.sha256(dumps_channel(channel).encode()).hexdigest()


# ---------------------------------------------------------------------------
# recovery maps
# ---------------------------------------------------------------------------

def dumps_recovery(rec: RecoveryMap) -> str:
    lines = [
        "petzlab recovery v1",
        f"kind {rec.kind}",
        f"sigma_sha256 {state_sha256(rec.sigma)}",
        f"channel_sha256 {channel_sha256(rec.channel)}",
    ]
    if rec.nodes is None:
        lines.append("tnodes none")
    else:
        lines.append("tnodes " + " ".join(_fmt(t) for t in rec.nodes))
    if rec.weights is None:
        lines.append("weights none")
    else:
        lines.append("weights " + " ".join(_fmt(w) for w in rec.weights))
    lines += [
        f"dim_in {rec.dim_in}",
        f"dim_out {rec.dim_out}",
        f"kraus {rec.kraus.shape[0]}",
    ]
    return "\n".join(lines + _kraus_lines(rec.kraus)) + "\n"


def loads_recovery(text: str) -> dict:
    """Parse a recovery-map file into its header and Kraus stack."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "petzlab recovery v1":
        raise ValueError("not a petzlab recovery file")
    head = {}
    cursor = 1
    while not lines[cursor].startswith("block "):
        key, _, val = lines[cursor].partition(" ")
        head[key] = val
        cursor += 1
        if cursor >= len(lines):
            break
    for key in ("tnodes", "weights"):
        if head.get(key, "none") == "none":
            head[key] = None
        else:
            head[key] = np.array([float(v) for v in head[key].split()])
    head["kraus"] = np.stack(_parse_kraus(lines[cursor:], head))
    return head


def save_recovery(path: str, rec: RecoveryMap) -> None:
    atomic_write_text(path, dumps_recovery(rec))


def load_recovery(path: str) -> dict:
    with open(path) as handle:
        return loads_recovery(handle.read())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt12(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def emit_table(rows, columns=None) -> str:
    """Whitespace table, one row per instance, 12 significant digits.

    ``columns`` defaults to every key of ``rows`` in order of first use; a
    row without one of them shows ``-`` in its place.
    """
    lines = ["# petzlab report v1"]
    if not rows:
        lines.append("# empty")
        return "\n".join(lines) + "\n"
    if columns is None:
        columns = list(dict.fromkeys(key for row in rows for key in row))
    lines.append(" ".join(columns))
    for row in rows:
        lines.append(" ".join(_fmt12(row.get(c, "-")) for c in columns))
    return "\n".join(lines) + "\n"


def parse_table(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "# petzlab report v1":
        raise ValueError("not a petzlab report table")
    if len(lines) == 2 and lines[1] == "# empty":
        return []
    columns = lines[1].split()
    rows = []
    for ln in lines[2:]:
        values = ln.split()
        row = {}
        for c, v in zip(columns, values):
            try:
                row[c] = int(v)
            except ValueError:
                try:
                    row[c] = float(v)
                except ValueError:
                    row[c] = v
        rows.append(row)
    return rows


_NON_FINITE = {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}


def _encode_non_finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if x != x else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {k: _encode_non_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_encode_non_finite(v) for v in x]
    return x


def _decode_non_finite(x):
    if isinstance(x, str):
        return _NON_FINITE.get(x, x)
    if isinstance(x, dict):
        return {k: _decode_non_finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_decode_non_finite(v) for v in x]
    return x


def emit_structured(payload: dict) -> str:
    """Deterministic strict JSON document (sorted keys, exact float round-trip).

    Non-finite floats, which JSON cannot hold, are written as the strings
    ``"inf"``, ``"-inf"`` and ``"nan"``.
    """
    doc = _encode_non_finite(payload)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_structured(text: str) -> dict:
    """Inverse of ``emit_structured``: the strings ``"inf"``, ``"-inf"`` and
    ``"nan"`` come back as floats."""
    return _decode_non_finite(json.loads(text))


__all__ = [
    "atomic_write_text",
    "channel_sha256",
    "dumps_channel",
    "dumps_recovery",
    "dumps_state",
    "emit_structured",
    "emit_table",
    "load_channel",
    "load_recovery",
    "load_state",
    "loads_channel",
    "loads_recovery",
    "loads_state",
    "parse_structured",
    "parse_table",
    "save_channel",
    "save_recovery",
    "save_state",
    "state_sha256",
]
