"""Print one sha256 digest per ``petzlab`` entry point over fixed inputs.

Each digest covers every public field of every result that the entry point
returns on a few instances, drawn from fixed seeds with petzlab's own
``random_*`` helpers, down to the last bit of every float.  The
``partial_trace[k]`` digest covers the splits of ``PARTIAL_TRACES`` that
trace ``k`` factors.  The ``cli``
digest covers the stdout, stderr, exit status, report table and ``.summary``
of the ``CLI_COMMANDS`` below, each run in both units.  A change meant
to leave every result bit-identical is checked by running the script at the
parent commit and at the change and diffing the two outputs:

    python3 tools/parity.py > digests.txt

``petzlab`` is imported from the ``src`` directory next to this script's
directory, so each checkout digests its own code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import numbers
import os
import struct
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import petzlab  # noqa: E402
from petzlab import (  # noqa: E402
    Channel,
    RecoveryMap,
    SweepConfig,
    alpha_bound_check,
    beta0_quadrature,
    concavity_remainder,
    dpi_remainder,
    finite_set_recovery_search,
    joint_convexity_remainder,
    partial_trace,
    partial_trace_channel,
    qec_analyze,
    random_channel,
    random_density,
    single_bit_flip_channel,
    ssa_remainder,
    sweep,
    three_qubit_bit_flip_code,
    universal_recovery,
)
from petzlab import cli  # noqa: E402
from petzlab.serialize import dumps_recovery  # noqa: E402

# the ``petzlab`` commands of the ``cli`` digest, each run with ``--unit nats``
# and with ``--unit bits``; ``sweep --count 0`` writes no rows, and
# ``--tolerance -1`` is refused with exit status 2
CLI_COMMANDS = [
    *(f"sweep --count 30 --seed 1 --kind {kind}"
      for kind in ("dpi", "ssa", "concavity", "joint-convexity")),
    "sweep --count 0 --seed 1",
    "sweep --count 5 --tolerance -1",
    "verify-dpi --example classical",
    "verify-dpi --random 3 --seed 4",
    "verify-ssa --ghz",
    "verify-ssa --random 2 --seed 2",
    "verify-corollaries --random 3 --dims 2..3",
    "qec",
    "qec --code random --seed 3",
    "qec --code bitflip3 --p 0.2 --samples 50 --seed 3",
    "qec --code random --dim 4 --code-dim 2 --env-max 2 --seed 7127",
    "quadrature-info --nodes 9",
]

# ``(dims, keeps)`` of the ``partial_trace[k]`` digests: ``partial_trace`` of a
# single density matrix and of a ``(3, D, D)`` stack, and the Kraus stack of
# ``partial_trace_channel``, for each ``keep``
PARTIAL_TRACES = [
    ((2, 3), [(0,), (1,)]),
    ((2, 2, 2), [(0, 1), (1, 2), (0, 2), (0,), (1,), (2,), ()]),
    ((3, 3, 3), [(0, 1), (1, 2), (1,), ()]),
    ((2, 3, 4), [(0, 2), (1,), (0,), ()]),
    ((1, 2, 2), [(0, 2), (1,)]),
    ((2, 2, 2, 2), [(0, 1, 3), (1, 2), (3,)]),
]


def _feed(h, value) -> None:
    """Add ``value`` to the hash ``h``, each part tagged with its type."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                h.update(f.name.encode())
                _feed(h, getattr(value, f.name))
    elif isinstance(value, RecoveryMap):
        h.update(b"RecoveryMap")
        _feed(h, [value.kind, value.kraus, value.t, value.nodes, value.weights, value.phases])
    elif isinstance(value, Channel):
        h.update(b"Channel")
        _feed(h, [value.mode, value.kraus])
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"sequence {len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"dict {len(value)}".encode())
        for key in sorted(value):
            _feed(h, [key, value[key]])
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"bool " + str(bool(value)).encode())
    elif isinstance(value, numbers.Integral):
        h.update(f"int {int(value)}".encode())
    elif isinstance(value, numbers.Real):
        h.update(b"float " + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        h.update(b"str " + value.encode())
    elif value is None:
        h.update(b"none")
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def _digest(results) -> str:
    h = hashlib.sha256()
    _feed(h, results)
    return h.hexdigest()


def _dpi_instances():
    """``(rho, sigma, channel)`` triples: full rank, a pure ``rho``, a
    rank-deficient ``sigma`` with ``rho`` inside its support, and an
    isometric channel."""
    gen = np.random.default_rng(2015)
    out = []
    for d_in, d_out, env in [(2, 2, 2), (3, 4, 2), (4, 3, 3), (5, 2, 4)]:
        out.append((random_density(d_in, gen), random_density(d_in, gen),
                    random_channel(d_in, d_out, env, gen)))
    out.append((random_density(3, gen, ensemble="rank-k", rank=1), random_density(3, gen),
                random_channel(3, 3, 2, gen)))
    sigma = random_density(4, gen, ensemble="rank-k", rank=2)
    vals, vecs = np.linalg.eigh(sigma)
    cols = vecs[:, vals > 1e-12]
    out.append((cols @ random_density(2, gen) @ cols.conj().T, sigma,
                random_channel(4, 3, 2, gen)))
    out.append((random_density(3, gen), random_density(3, gen), random_channel(3, 4, 1, gen)))
    return out


def _ensembles(gen, size, dim):
    return gen.dirichlet(np.ones(size)), [random_density(dim, gen) for _ in range(size)]


def cli_runs():
    """``[argv, stdout, stderr, exit status, report table, .summary]`` of each
    ``CLI_COMMANDS`` run through ``cli.main`` in both units, the reports
    written to a temporary directory with ``PETZLAB_OUTPUT_DIR`` unset; a
    report that a run does not write reads ``None``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("PETZLAB_OUTPUT_DIR", None)
        for i, command in enumerate(CLI_COMMANDS):
            for unit in ("nats", "bits"):
                argv = command.split() + ["--unit", unit]
                report = Path(tmp, f"{i}-{unit}.txt")
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    status = cli.main(argv + ["-o", str(report)])
                files = [path.read_text() if path.exists() else None
                         for path in (report, Path(f"{report}.summary"))]
                out.append([argv, stdout.getvalue(), stderr.getvalue(), status, *files])
    return out


def partial_trace_cases():
    """``(traced, dims, keep, rho, stack)`` for every split of
    ``PARTIAL_TRACES``: ``traced`` counts the factors it traces, and ``rho``
    and the ``(3, D, D)`` ``stack`` are drawn for each ``dims``."""
    gen = np.random.default_rng(12)
    out = []
    for dims, keeps in PARTIAL_TRACES:
        dim = int(np.prod(dims))
        rho, stack = random_density(dim, gen), np.stack([random_density(dim, gen) for _ in range(3)])
        out += [(len(dims) - len(keep), dims, keep, rho, stack) for keep in keeps]
    return out


def _partial_traces(traced):
    """What the ``partial_trace[traced]`` digest covers."""
    return [[partial_trace(rho, dims, keep), partial_trace(stack, dims, keep),
             partial_trace_channel(dims, keep).kraus]
            for count, dims, keep, rho, stack in partial_trace_cases() if count == traced]


def entry_points():
    """``(name, callable)`` pairs; each callable returns the results to digest."""
    rule = beta0_quadrature(33)
    dpi = _dpi_instances()

    def search():
        gen = np.random.default_rng(7)
        out = []
        for rho, sigma, chan in dpi[:4]:
            states = [rho, random_density(len(sigma), gen)]
            out.append(finite_set_recovery_search(states, sigma, chan,
                                                  np.linspace(-1.0, 1.0, 5), iterations=5))
        return out

    def ssa():
        gen = np.random.default_rng(8)
        return [ssa_remainder(random_density(int(np.prod(dims)), gen), dims)
                for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 3), (1, 2, 2)]]

    def concavity():
        gen = np.random.default_rng(9)
        out = []
        for da, db, size in [(2, 2, 2), (2, 3, 3), (3, 2, 2)]:
            weights, states = _ensembles(gen, size, da * db)
            out.append(concavity_remainder(list(zip(weights, states)), (da, db)))
        return out

    def joint_convexity():
        gen = np.random.default_rng(10)
        out = []
        for dim, size in [(2, 2), (3, 3), (4, 2)]:
            weights, rhos = _ensembles(gen, size, dim)
            sigmas = [random_density(dim, gen) for _ in range(size)]
            out.append(joint_convexity_remainder(list(zip(weights, rhos, sigmas))))
        # a zero weight, and a member outside its sigma's support
        pure = random_density(2, gen, ensemble="rank-k", rank=1)
        out.append(joint_convexity_remainder(
            [(0.5, random_density(2, gen), random_density(2, gen)), (0.0, pure, pure),
             (0.5, random_density(2, gen), pure)]))
        return out

    def qec():
        gen = np.random.default_rng(11)
        code = np.zeros((4, 4), dtype=complex)
        code[:2, :2] = np.eye(2)
        return [qec_analyze(three_qubit_bit_flip_code(), single_bit_flip_channel(0.1), 4, seed=3),
                qec_analyze(code, random_channel(4, 4, 2, gen), 4, seed=5)]

    def universal():
        return [universal_recovery(sigma, chan) for _, sigma, chan in dpi]

    def sweeps():
        return [sweep(SweepConfig(seed=4, count=5, dims=(2, 3), nodes=33, kind=kind)).rows
                for kind in ("dpi", "ssa", "concavity", "joint-convexity")]

    return [
        ("dpi_remainder", lambda: [dpi_remainder(*inst, rule) for inst in dpi]),
        ("alpha_bound_check",
         lambda: [alpha_bound_check(*inst, [0.5, 0.6, 0.75, 0.9], rule) for inst in dpi[:4]]),
        ("finite_set_recovery_search", search),
        ("ssa_remainder", ssa),
        ("concavity_remainder", concavity),
        ("joint_convexity_remainder", joint_convexity),
        ("qec_analyze", qec),
        ("universal_recovery", universal),
        ("dumps_recovery", lambda: [dumps_recovery(rec) for rec in universal()]),
        ("sweep", sweeps),
        ("cli", cli_runs),
        *((f"partial_trace[{k}]", lambda k=k: _partial_traces(k)) for k in (1, 2, 3)),
    ]


def main() -> int:
    print(f"petzlab {petzlab.__version__}")
    for name, run in entry_points():
        print(f"{name:<28} {_digest(run())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
