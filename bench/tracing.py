"""In-memory span tracer over petzlab's layers, for the traced benchmark run.

While installed, :class:`Tracer` replaces each traced function in every
petzlab module namespace that holds it (so calls between modules are seen
too), and the ``__init__``/``apply`` methods of ``Channel`` and
``RecoveryMap`` on their classes.  Leaving the ``with`` block restores
every original object, and the untraced benchmark never imports this
module, so petzlab stays unpatched whenever tracing is off.

A span is ``(op, name, parent, start_ns, end_ns)``, kept as five integers
in one flat array; ``name`` indexes ``SPAN_NAMES`` and ``parent`` is the
index of the enclosing span, or -1 for a span called directly by the
operation.
Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, function) of every traced function; "module.function" names it
FUNCTIONS = (
    ("linalg", "eig_hermitian"),
    ("linalg", "hermiticity_residual"),
    ("linalg", "fun_on_support"),
    ("linalg", "tensor_product"),
    ("linalg", "partial_trace"),
    ("entropy", "fidelity"),
    ("entropy", "relative_entropy"),
    ("entropy", "von_neumann_entropy"),
    ("entropy", "renyi_delta"),
    ("entropy", "fidelity_measurement"),
    ("recovery", "universal_recovery"),
    ("recovery", "rotated_petz_family"),
    ("verify", "dpi_remainder"),
    ("verify", "alpha_bound_check"),
    ("verify", "finite_set_recovery_search"),
    ("verify", "ssa_remainder"),
    ("verify", "concavity_remainder"),
    ("verify", "joint_convexity_remainder"),
    ("verify", "qec_analyze"),
    ("serialize", "dumps_recovery"),
    ("serialize", "loads_recovery"),
    ("serialize", "atomic_write_text"),
    ("cli", "main"),
)
# (module, class, method, label); "module.class.label" names it
METHODS = (
    ("channels", "Channel", "__init__", "init"),
    ("channels", "Channel", "apply", "apply"),
    ("recovery", "RecoveryMap", "__init__", "init"),
    ("recovery", "RecoveryMap", "apply", "apply"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"{m}.{c}.{label}" for m, c, _, label in METHODS
)


def _kraus_built(args, result):
    return "recovery.kraus_ops_built", args[0].kraus.shape[0]


def _bytes_dumped(args, result):
    return "serialize.bytes", len(result)


def _bytes_written(args, result):
    return "serialize.bytes", len(args[1])


COUNTERS = {
    "recovery.RecoveryMap.init": _kraus_built,
    "serialize.dumps_recovery": _bytes_dumped,
    "serialize.atomic_write_text": _bytes_written,
}
_BLANK = array("q", [0] * 5)
COUNTER_UNITS = {"recovery.kraus_ops_built": "count/op", "serialize.bytes": "B/op"}


def metric_names() -> list:
    """Names of every per-layer metric, in report order."""
    names = [f"{n}.{kind}" for n in SPAN_NAMES for kind in ("calls", "self_ms")]
    return names + list(COUNTER_UNITS) + ["untraced.self_ms"]


class Tracer:
    """Records spans and counts for calls made inside an operation."""

    def __init__(self):
        self.spans = array("q")
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.uncovered_ns = 0
        self.ops = 0
        self._op = None
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "petzlab" or name.startswith("petzlab."))
        ]
        for module, func in FUNCTIONS:
            original = getattr(sys.modules[f"petzlab.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module, cls_name, method, label in METHODS:
            cls = getattr(sys.modules[f"petzlab.{module}"], cls_name)
            name = f"{module}.{cls_name}.{label}"
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            index = len(spans) // 5
            spans.extend(_BLANK)
            frame = [0, index]
            parent = stack[-1][1]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[0]
                at = 5 * index
                spans[at] = tracer._op
                spans[at + 1] = name_id
                spans[at + 2] = parent
                spans[at + 3] = start
                spans[at + 4] = end
            if counter is not None:
                key, amount = counter(args, result)
                tracer.counters[key] += amount
            return result

        return traced

    # -- per operation ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [[0, -1]]

    def end_op(self, op_ns: int) -> None:
        """Close the operation that took ``op_ns`` of wall time."""
        self.uncovered_ns += op_ns - self._stack[0][0]
        self.ops += 1
        self._op = None
        self._stack = []

    # -- results ----------------------------------------------------------

    def metrics(self, time_scale: float = 1.0) -> dict:
        """Per-layer metrics, averaged per traced operation; times are
        multiplied by ``time_scale``."""
        n = max(self.ops, 1)
        ms = time_scale / n / 1e6
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / n, "unit": "calls/op"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[name] * ms, "unit": "ms/op"}
        for key, unit in COUNTER_UNITS.items():
            out[key] = {"value": self.counters[key] / n, "unit": unit}
        out["untraced.self_ms"] = {"value": self.uncovered_ns * ms, "unit": "ms/op"}
        return out

    def dump(self, path: str, metrics: dict, header: dict) -> None:
        """Write ``header``, counts, ``metrics`` and the spans as one JSON
        document; ``spans`` is flat, five integers per span."""
        doc = dict(header)
        doc.update(
            span_names=list(SPAN_NAMES),
            span_fields=["op", "name", "parent", "start_ns", "end_ns"],
            calls=dict(self.calls),
            self_ns=dict(self.self_ns),
            counters=dict(self.counters),
            metrics=metrics,
        )
        head = json.dumps(doc, separators=(",", ":"))
        chunk = 5 * 10000
        with open(path, "w") as handle:
            handle.write(head[:-1] + ',"spans":[')
            for at in range(0, len(self.spans), chunk):
                handle.write(("," if at else "") + ",".join(map(str, self.spans[at:at + chunk])))
            handle.write("]}\n")
