"""Command-line front end.

Subcommands: ``verify-dpi``, ``verify-ssa``, ``verify-corollaries``,
``qec``, ``sweep`` and ``quadrature-info``.  Flags may be preloaded from a
JSON config file (flags win); ``PETZLAB_OUTPUT_DIR`` supplies the default
directory for report files.  Exit status: 0 when every checked slack is
above ``-tolerance``, 1 on a violation, 2 on unusable arguments, 3 on I/O
failure.

There is one parser per process: ``main`` builds it on its first call and
reuses it on every later one, while ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

import numpy as np

from . import serialize
from .channels import (
    ghz_state,
    random_channel,
    random_density,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
)
from .entropy import LN2
from .linalg import _eigh
from .recovery import beta_quadrature
from .verify import (
    SWEEP_KINDS,
    SweepConfig,
    _TOLERANCE,
    _check_tolerance,
    _dpi_row,
    _ssa_row,
    dpi_remainder,
    qec_analyze,
    ssa_remainder,
    sweep,
)

# row and summary entries that hold entropies, written in ``--unit``
_ENTROPY_COLUMNS = {
    "lhs", "rhs", "rhs_mixture", "rhs_strong", "slack", "slack_mixture",
    "slack_strong", "gap", "max_gap", "min_slack", "mean_slack",
}


def _unit_scale(unit: str) -> float:
    return 1.0 / LN2 if unit == "bits" else 1.0


def _convert_rows(rows, unit: str):
    scale = _unit_scale(unit)
    if scale == 1.0:
        return rows
    out = []
    for row in rows:
        conv = dict(row)
        for key in row:
            if key in _ENTROPY_COLUMNS and isinstance(row[key], float):
                conv[key] = row[key] * scale
        out.append(conv)
    return out


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("PETZLAB_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_report(path: str | None, rows, summary, unit: str, fmt_columns=None):
    path = _resolve_output(path)
    if path is None:
        return
    from . import __version__

    rows = _convert_rows(rows, unit)
    summary = dict(_convert_rows([summary], unit)[0])
    summary["unit"] = unit
    summary.setdefault("version", __version__)
    serialize.atomic_write_text(path, serialize.emit_table(rows, fmt_columns))
    serialize.atomic_write_text(
        path + ".summary", serialize.emit_structured({"rows": rows, "summary": summary})
    )


def _print_values(pairs, unit: str):
    scale = _unit_scale(unit)
    for label, value, is_entropy in pairs:
        shown = value * scale if (is_entropy and isinstance(value, float)) else value
        if isinstance(shown, float):
            print(f"{label}: {shown:.12g}" + (f" ({unit})" if is_entropy else ""))
        else:
            print(f"{label}: {shown}")


def _bundled(name: str) -> str:
    return str(resources.files("petzlab").joinpath("data", name))


def _load(loader, path: str):
    """``loader(path)``, with the path at the head of a ``ValueError``'s
    message, so a run given several files names the one it refused."""
    try:
        return loader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_dims(spec: str):
    lo, _, hi = spec.partition("..")
    lo = int(lo)
    hi = int(hi) if hi else lo
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_quadrature_info(args) -> int:
    rule = beta_quadrature(args.nodes, args.theta)
    rows = [
        {"index": i, "node": float(t), "weight": float(w)}
        for i, (t, w) in enumerate(zip(rule.nodes, rule.weights))
    ]
    print(serialize.emit_table(rows, ["index", "node", "weight"]), end="")
    print(f"weight_sum: {float(rule.weights.sum()):.17g}")
    _write_report(args.output, rows, {"nodes": args.nodes, "theta": args.theta},
                  args.unit, ["index", "node", "weight"])
    return 0


def _swept(args, kind: str, **config):
    """``args.random`` rows of a ``kind`` sweep, each with its label."""
    result = sweep(SweepConfig(seed=args.seed, count=args.random, tolerance=args.tolerance,
                               kind=kind, **config))
    return [(f"{kind}-{row['instance']}", row) for row in result.rows]


def _report_checks(args, labelled) -> int:
    """Print, write and judge the ``(label, row)`` pairs of a ``verify-*`` run."""
    _print_values(
        [(f"[{label}] {key}", value, True)
         for label, row in labelled for key, value in row.items()
         if key in _ENTROPY_COLUMNS],
        args.unit,
    )
    rows = [row for _, row in labelled]
    worst = min((row["slack"] for row in rows), default=np.inf)
    _write_report(args.output, rows, {"checked": len(rows), "min_slack": worst},
                  args.unit)
    return 0 if worst >= -args.tolerance else 1


def _cmd_verify_dpi(args) -> int:
    _check_tolerance(args.tolerance)
    if args.example == "classical":
        name = "classical"
        rho = serialize.load_state(_bundled("classical_rho.txt"))
        sigma = serialize.load_state(_bundled("classical_sigma.txt"))
        chan = serialize.load_channel(_bundled("classical_channel.txt"))
    elif args.rho or args.sigma or args.channel:
        if not (args.rho and args.sigma and args.channel):
            raise ValueError("--rho, --sigma and --channel must be given together")
        name = "file"
        rho, sigma = _load(serialize.load_state, args.rho), _load(serialize.load_state, args.sigma)
        chan = _load(serialize.load_channel, args.channel)
    elif args.dump_recovered:
        raise ValueError("--dump-recovered needs --example or --rho/--sigma/--channel")
    else:
        return _report_checks(args, _swept(args, "dpi", dims=_parse_dims(args.dims),
                                           env_max=args.env_max, nodes=args.nodes))
    rep = dpi_remainder(rho, sigma, chan, beta_quadrature(args.nodes))
    if args.dump_recovered:
        state = rep.recovered_state
        if args.renormalize:
            state = state / np.trace(state).real
        serialize.save_state(_resolve_output(args.dump_recovered), state)
    return _report_checks(args, [(name, {"instance": name, **_dpi_row(rep, chan)})])


def _cmd_verify_ssa(args) -> int:
    _check_tolerance(args.tolerance)
    if args.state:
        name, rho = "file", _load(serialize.load_state, args.state)
        dims = tuple(int(d) for d in args.state_dims.split(","))
    elif args.ghz:
        name, rho, dims = "ghz", ghz_state(3), (2, 2, 2)
    else:
        return _report_checks(args, _swept(args, "ssa", dims=(2, 2)))
    rep = ssa_remainder(rho, dims)
    return _report_checks(args, [(name, {"instance": name, **_ssa_row(rep, dims)})])


def _cmd_verify_corollaries(args) -> int:
    dims = _parse_dims(args.dims)
    return _report_checks(
        args, _swept(args, "concavity", dims=dims) + _swept(args, "joint-convexity", dims=dims)
    )


def _cmd_qec(args) -> int:
    if args.code == "bitflip3":
        projector = three_qubit_bit_flip_code()
        channel = single_bit_flip_channel(args.p)
    else:
        if not 1 <= args.code_dim <= args.dim:
            raise ValueError(f"--code-dim {args.code_dim} must lie between 1 and "
                             f"--dim {args.dim}")
        rng = np.random.default_rng(args.seed)
        # the eigenvectors of the smallest eigenvalues span the code
        cols = _eigh(random_density(args.dim, rng))[1][:, ::-1][:, : args.code_dim]
        projector = cols @ cols.conj().T
        channel = random_channel(args.dim, args.dim, args.env_max, rng)
    rep = qec_analyze(projector, channel, args.samples, seed=args.seed, tol=args.tolerance)
    _print_values(
        [
            ("dim_code", rep.dim_code, False),
            ("max_gap", rep.sampled_max_gap, True),
            ("min_fidelity", rep.min_recovered_fidelity, False),
            ("forward_bound", rep.forward_bound, False),
            ("converse_bound", rep.converse_bound, True),
            ("forward_ok", rep.forward_ok, False),
            ("converse_ok", rep.converse_ok, False),
        ],
        args.unit,
    )
    rows = [
        {"sample": i, "gap": float(g), "fidelity": float(f)}
        for i, (g, f) in enumerate(zip(rep.gaps, rep.fidelities))
    ]
    summary = {
        "dim_code": rep.dim_code,
        "max_gap": rep.sampled_max_gap,
        "min_fidelity": rep.min_recovered_fidelity,
        "forward_ok": rep.forward_ok,
        "converse_ok": rep.converse_ok,
    }
    _write_report(args.output, rows, summary, args.unit)
    return 0 if (rep.forward_ok and rep.converse_ok) else 1


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        seed=args.seed,
        count=args.count,
        dims=_parse_dims(args.dims),
        env_max=args.env_max,
        nodes=args.nodes,
        tolerance=args.tolerance,
        kind=args.kind,
        include_timings=args.timings,
    )
    result = sweep(config)
    _print_values(
        [
            ("instances", len(result.rows), False),
            ("min_slack", result.summary["min_slack"], True),
            ("mean_slack", result.summary["mean_slack"], True),
            ("violations", result.summary["violations"], False),
            ("regenerated", result.summary["regenerated"], False),
        ],
        args.unit,
    )
    _write_report(args.output, result.rows, result.summary, args.unit)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(parser, judged: bool = True):
    """The flags of every command.  One that judges no inequality and draws
    nothing at random (``judged=False``) takes no ``--tolerance`` or
    ``--seed``."""
    parser.add_argument("--unit", choices=("nats", "bits"), default="nats")
    if judged:
        parser.add_argument("--tolerance", type=float, default=_TOLERANCE)
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", "-o", default=None,
                        help="report file path (table; .summary JSON alongside)")
    parser.add_argument("--config", default=None,
                        help="JSON file with flag defaults; flags override")


def _add_nodes(parser, text: str):
    parser.add_argument("--nodes", type=int, default=129, help=text + " (default 129)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petzlab",
        description="Universal recovery maps and entropy-inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-dpi", help="data processing inequality remainder")
    _add_common(p)
    _add_nodes(p, "quadrature nodes of the per-node average rhs_strong; rhs_mixture "
                  "reads the exact universal map")
    p.add_argument("--rho", help="state file")
    p.add_argument("--sigma", help="reference state file")
    p.add_argument("--channel", help="channel file")
    p.add_argument("--example", choices=("classical",),
                   help="run a bundled example instance")
    p.add_argument("--random", type=int, default=1, help="random instance count")
    p.add_argument("--dims", default="2..4", help="dimension range LO..HI")
    p.add_argument("--env-max", type=int, default=4)
    p.add_argument("--dump-recovered", default=None,
                   help="write the recovered state to this file")
    p.add_argument("--renormalize", action="store_true",
                   help="renormalize the dumped recovered state (display only)")
    p.set_defaults(func=_cmd_verify_dpi)

    p = sub.add_parser("verify-ssa", help="strong subadditivity remainder")
    _add_common(p)
    p.add_argument("--state", help="tripartite state file")
    p.add_argument("--state-dims", default="2,2,2", help="factor dims dA,dB,dC")
    p.add_argument("--ghz", action="store_true", help="use the three-qubit GHZ state")
    p.add_argument("--random", type=int, default=1)
    p.set_defaults(func=_cmd_verify_ssa)

    p = sub.add_parser("verify-corollaries",
                       help="concavity and joint convexity remainders")
    _add_common(p)
    p.add_argument("--random", type=int, default=1)
    p.add_argument("--dims", default="2..2")
    p.set_defaults(func=_cmd_verify_corollaries)

    p = sub.add_parser("qec", help="approximate error correction bounds")
    _add_common(p)
    p.add_argument("--code", choices=("bitflip3", "random"), default="bitflip3")
    p.add_argument("--p", type=float, default=0.1, help="bitflip3 noise weight")
    p.add_argument("--dim", type=int, default=4, help="random code ambient dimension")
    p.add_argument("--code-dim", type=int, default=2)
    p.add_argument("--env-max", type=int, default=2)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_qec)

    p = sub.add_parser("sweep", help="seeded random verification sweep")
    _add_common(p)
    _add_nodes(p, "quadrature nodes of the DPI kind's per-node average rhs_strong; the "
                  "other kinds read the exact universal map and ignore it, but the "
                  ".summary records it")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dims", default="2..5")
    p.add_argument("--env-max", type=int, default=4)
    p.add_argument("--kind", default="dpi", choices=tuple(SWEEP_KINDS))
    p.add_argument("--timings", action="store_true",
                   help="add wall-time column (breaks byte reproducibility)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("quadrature-info", help="print a quadrature rule")
    _add_common(p, judged=False)
    _add_nodes(p, "quadrature nodes of the printed rule")
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=_cmd_quadrature_info)

    return parser


@functools.cache
def _parsers():
    """``main``'s parser and its ``--config`` probe, built on first use and
    then kept: parsing reads them and changes neither."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    return build_parser(), probe


def _apply_config(probe, argv):
    """Load defaults from --config (JSON), keeping explicit flags dominant."""
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    extra = []
    for key, value in payload.items():
        flag = "--" + key.replace("_", "-")
        if any(a == flag or a.startswith(flag + "=") for a in argv):
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    # insert defaults right after the subcommand
    return argv[:1] + extra + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, probe = _parsers()
    try:
        argv = _apply_config(probe, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        # bad arguments or input the library cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


__all__ = ["build_parser", "main"]


if __name__ == "__main__":
    sys.exit(main())
