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


def _floats(values) -> str:
    return "none" if values is None else " ".join("%.17g" % x for x in values)


def _dumps(kind: str, head: dict, stack, blocks: bool = True) -> str:
    """A ``petzlab <kind> v1`` file: one ``key value`` line per item of
    ``head``, then each matrix of the ``(n, rows, cols)`` ``stack`` as rows of
    ``(re, im)`` pairs, after a ``block k`` line when ``blocks`` is set."""
    stack = np.ascontiguousarray(stack, dtype=complex)
    _, rows, cols = stack.shape
    matrix = "\n".join([" ".join(["(%.17g, %.17g)"] * cols)] * rows)
    lines = [f"petzlab {kind} v1"] + [f"{key} {val}" for key, val in head.items()]
    for k, mat in enumerate(stack):
        if blocks:
            lines.append(f"block {k}")
        lines.append(matrix % tuple(mat.view(np.float64).ravel().tolist()))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _loads(text: str, kind: str, fields, blocks: bool = True):
    """Inverse of ``_dumps``: the header (every name in ``fields`` exactly
    once, in any order; the sizes among them as positive ints) and the
    ``(n, rows, cols)`` stack sized by ``kraus``, ``dim_out`` and ``dim_in``
    (``dim`` for a block-less state).  Any malformed text is a ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"petzlab {kind} v1":
        raise ValueError(f"not a petzlab {kind} file")
    head = {}
    for line in lines[1 : 1 + len(fields)]:
        key, _, val = line.strip().partition(" ")
        if key not in fields or key in head:
            raise ValueError(f"unexpected header line {line!r}")
        head[key] = val.strip()
    if len(head) != len(fields):
        raise ValueError(f"missing header fields {sorted(set(fields) - set(head))}")
    for key in ("kraus", "dim_out", "dim_in") if blocks else ("dim",):
        if not head[key].isdecimal() or int(head[key]) < 1:
            raise ValueError(f"{key} must be a positive integer, got {head[key]!r}")
        head[key] = int(head[key])
    if blocks:
        n, rows, cols = head["kraus"], head["dim_out"], head["dim_in"]
    else:
        n, rows, cols = 1, head["dim"], head["dim"]
    body = lines[1 + len(fields) :]
    per = rows + blocks
    if len(body) != n * per:
        raise ValueError(f"expected {n * per} lines after the header, got {len(body)}")
    try:
        out = np.empty((n, rows, cols, 2))
    except MemoryError:
        raise ValueError(f"sizes {n} x {rows} x {cols} do not fit in memory") from None
    for k in range(n):
        if blocks and body[k * per] != f"block {k}":
            raise ValueError(f"missing block {k}")
        for i, line in enumerate(body[k * per + blocks : (k + 1) * per]):
            pairs = _PAIR.findall(line)
            if len(pairs) != cols:
                raise ValueError(
                    f"row {i} of block {k} has {len(pairs)} entries, expected {cols}"
                )
            out[k, i] = pairs
    return head, out.view(complex)[..., 0]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename.

    An ``OSError`` names ``path``, never the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".petzlab-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def dumps_state(mat: np.ndarray) -> str:
    return _dumps("state", {"dim": len(mat)}, [mat], blocks=False)


def loads_state(text: str) -> np.ndarray:
    return _loads(text, "state", ("dim",), blocks=False)[1][0]


def save_state(path: str, mat: np.ndarray) -> None:
    atomic_write_text(path, dumps_state(mat))


def load_state(path: str) -> np.ndarray:
    with open(path) as handle:
        return loads_state(handle.read())


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def dumps_channel(channel: Channel) -> str:
    head = {
        "mode": channel.mode,
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": channel.num_kraus,
    }
    return _dumps("channel", head, channel.kraus)


def loads_channel(text: str) -> Channel:
    head, kraus = _loads(text, "channel", ("mode", "dim_in", "dim_out", "kraus"))
    return Channel(kraus, mode=head["mode"])


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
    head = {
        "kind": rec.kind,
        "sigma_sha256": state_sha256(rec.sigma),
        "channel_sha256": channel_sha256(rec.channel),
        "tnodes": _floats(rec.nodes),
        "weights": _floats(rec.weights),
        "dim_in": rec.dim_in,
        "dim_out": rec.dim_out,
        "kraus": rec.kraus.shape[0],
    }
    return _dumps("recovery", head, rec.kraus)


_RECOVERY_FIELDS = ("kind", "sigma_sha256", "channel_sha256", "tnodes", "weights",
                    "dim_in", "dim_out", "kraus")


def loads_recovery(text: str) -> dict:
    """Parse a recovery-map file into its header and Kraus stack."""
    head, kraus = _loads(text, "recovery", _RECOVERY_FIELDS)
    for key in ("tnodes", "weights"):
        if head[key] == "none":
            head[key] = None
        else:
            head[key] = np.array([float(v) for v in head[key].split()])
    head["kraus"] = kraus
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
