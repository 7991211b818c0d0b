import json
import math
import os

import numpy as np
import pytest

from petzlab import cli
from petzlab.channels import identity_channel, random_channel, random_density
from petzlab.cli import build_parser, main
from petzlab.entropy import LN2
from petzlab.serialize import (
    load_state,
    parse_structured,
    parse_table,
    save_channel,
    save_state,
)
from petzlab.verify import SWEEP_KINDS, SweepConfig, ssa_remainder, sweep


def run(args):
    return main(list(args))


def _in_bits(values):
    """``values`` with each float under a ``cli._ENTROPY_COLUMNS`` key times
    ``1.0 / LN2``: the one unit rule of the command line."""
    return {key: value * (1.0 / LN2) if key in cli._ENTROPY_COLUMNS and isinstance(value, float)
            else value for key, value in values.items()}


def assert_unit_rule(argv, tmp_path, capsys):
    """Run ``argv`` in nats and in bits and check the unit rule on the two
    runs: in bits, every ``.summary`` entropy is the nats value times ``1.0 /
    LN2``, bit for bit, and the table and stdout show that product at
    ``.12g``, stdout followed by ``(bits)``; every other entry, cell and line
    is the nats one.  Returns the nats and the bits stdout lines and the bits
    ``.summary``."""
    capsys.readouterr()
    runs = []
    for unit in ("nats", "bits"):
        path = tmp_path / f"{unit}.txt"
        assert run(argv + ["--unit", unit, "-o", str(path)]) in (0, 1)
        runs.append((capsys.readouterr().out.splitlines(), path.read_text().splitlines(),
                     parse_structured((tmp_path / f"{unit}.txt.summary").read_text())))
    (out_n, table_n, doc_n), (out_b, table_b, doc_b) = runs
    assert repr(doc_b["rows"]) == repr([_in_bits(row) for row in doc_n["rows"]])
    assert repr(doc_b["summary"]) == repr({**_in_bits(doc_n["summary"]), "unit": "bits"})

    assert table_b[:2] == table_n[:2] and len(table_b) == len(table_n)
    for line_n, line_b, row in zip(table_n[2:], table_b[2:], doc_b["rows"]):
        for column, cell_n, cell_b in zip(table_b[1].split(), line_n.split(), line_b.split()):
            entropy = column in cli._ENTROPY_COLUMNS and isinstance(row.get(column), float)
            assert cell_b == (f"{row[column]:.12g}" if entropy else cell_n)

    labels = []  # of the verify-* rows, in order
    assert len(out_b) == len(out_n)
    for line_n, line_b in zip(out_n, out_b):
        if not line_n.endswith(" (nats)"):
            assert line_b == line_n
            continue
        head, text = line_b.removesuffix(" (bits)").rsplit(": ", 1)
        assert line_b.endswith(" (bits)") and line_n.startswith(head + ": ")
        label, _, key = head.rpartition("] ")
        assert key in cli._ENTROPY_COLUMNS
        if label and label not in labels:
            labels.append(label)
        value = doc_b["rows"][len(labels) - 1][key] if label else doc_b["summary"].get(key)
        if value is not None:
            assert text == f"{value:.12g}"
    return out_n, out_b, doc_b


class TestQuadratureInfo:
    def test_weight_table(self, capsys):
        assert run(["quadrature-info", "--nodes", "65"]) == 0
        out = capsys.readouterr().out
        assert "weight_sum" in out
        total = float(out.split("weight_sum:")[1].strip())
        assert abs(total - 1.0) <= 1e-12
        assert "node weight" in out.replace("index ", "")

    def test_tolerance_and_seed_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            run(["quadrature-info", "--help"])
        out = capsys.readouterr().out
        assert "--tolerance" not in out and "--seed" not in out

    def test_config_keys_still_work(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 5}))
        assert run(["quadrature-info", "--config", str(config)]) == 0
        configured = capsys.readouterr()
        assert run(["quadrature-info", "--nodes", "5"]) == 0
        assert configured == capsys.readouterr() and configured.err == ""
        # the command takes no --tolerance or --seed, so, like any key it
        # lacks, either one in a config is a usage error
        for key, value in (("tolerance", 1e-6), ("seed", 3)):
            config.write_text(json.dumps({"nodes": 5, key: value}))
            with pytest.raises(SystemExit) as info:
                run(["quadrature-info", "--config", str(config)])
            assert info.value.code == 2
            assert f"unrecognized arguments: --{key}" in capsys.readouterr().err


class TestVerifyDpi:
    def test_bundled_classical_example(self, capsys):
        assert run(["verify-dpi", "--example", "classical"]) == 0
        out = capsys.readouterr().out
        assert "0.143841" in out
        assert "0.0693365" in out or "0.069336" in out
        assert "(nats)" in out

    def test_bits_conversion(self, tmp_path, capsys):
        run(["verify-dpi", "--example", "classical", "--unit", "bits"])
        out = capsys.readouterr().out
        lhs_bits = float(
            [ln for ln in out.splitlines() if "lhs" in ln][0].split(":")[1].split()[0]
        )
        lhs_nats = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert lhs_bits == pytest.approx(lhs_nats / math.log(2.0), abs=1e-12)
        assert_unit_rule(["verify-dpi", "--example", "classical"], tmp_path, capsys)

    def test_file_inputs_and_report(self, tmp_path, capsys):
        gen = np.random.default_rng(3)
        rho = random_density(3, gen)
        sigma = random_density(3, gen)
        chan = random_channel(3, 2, 2, gen)
        save_state(str(tmp_path / "rho.txt"), rho)
        save_state(str(tmp_path / "sigma.txt"), sigma)
        save_channel(str(tmp_path / "chan.txt"), chan)
        report = tmp_path / "report.txt"
        code = run(
            [
                "verify-dpi",
                "--rho", str(tmp_path / "rho.txt"),
                "--sigma", str(tmp_path / "sigma.txt"),
                "--channel", str(tmp_path / "chan.txt"),
                "--nodes", "65",
                "-o", str(report),
            ]
        )
        assert code == 0
        rows = parse_table(report.read_text())
        assert rows[0]["slack"] >= -1e-8
        summary = parse_structured((tmp_path / "report.txt.summary").read_text())
        assert summary["summary"]["unit"] == "nats"

    def test_random_instances(self, capsys):
        assert run(["verify-dpi", "--random", "2", "--dims", "2..3",
                    "--nodes", "33", "--seed", "5"]) == 0

    def test_random_instances_match_sweep(self, tmp_path, capsys):
        report = tmp_path / "dpi.txt"
        assert run(["verify-dpi", "--random", "5", "--seed", "61", "--dims", "2..5",
                    "-o", str(report)]) == 0
        rows = parse_structured((tmp_path / "dpi.txt.summary").read_text())["rows"]
        expected = sweep(SweepConfig(seed=61, count=5)).rows
        assert len(rows) == len(expected) == 5
        for row, ref in zip(rows, expected):
            for key in ("lhs", "rhs_mixture", "rhs_strong"):
                assert row[key] == ref[key], key

    def test_example_row_uses_sweep_columns(self, tmp_path, capsys):
        report = tmp_path / "example.txt"
        assert run(["verify-dpi", "--example", "classical", "--nodes", "33",
                    "-o", str(report)]) == 0
        row = parse_structured((tmp_path / "example.txt.summary").read_text())["rows"][0]
        columns = list(sweep(SweepConfig(count=1, nodes=33)).rows[0])
        assert list(row) == sorted(["instance"] + columns[2:])
        assert row["instance"] == "classical"
        assert row["slack"] == min(row["slack_mixture"], row["slack_strong"])

    def test_dump_recovered_needs_fixed_input(self, tmp_path, capsys):
        assert run(["verify-dpi", "--random", "1", "--nodes", "33",
                    "--dump-recovered", str(tmp_path / "rec.txt")]) == 2
        assert not (tmp_path / "rec.txt").exists()

    def test_partial_file_args_usage_error(self, capsys):
        assert run(["verify-dpi", "--rho", "only.txt"]) == 2

    @pytest.mark.parametrize("flag", ["--rho", "--sigma", "--channel"])
    def test_example_and_file_refused(self, flag, tmp_path, capsys):
        # the example once ran and the file was ignored
        save_state(str(tmp_path / "r.txt"), random_density(2, 1))
        assert run(["verify-dpi", "--example", "classical", flag, str(tmp_path / "r.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --example and {flag} cannot be given together\n"

    @pytest.mark.parametrize("source", ["--example", "--rho"])
    @pytest.mark.parametrize("flag, value", [("--random", "5"), ("--dims", "3..4"),
                                             ("--env-max", "2")])
    def test_instance_flags_with_fixed_input_refused(self, source, flag, value, tmp_path,
                                                     capsys):
        # the fixed instance once ran and the flag was ignored
        state, chan = str(tmp_path / "r.txt"), str(tmp_path / "c.txt")
        save_state(state, random_density(2, 1))
        save_channel(chan, identity_channel(2))
        fixed = (["--example", "classical"] if source == "--example"
                 else ["--rho", state, "--sigma", state, "--channel", chan])
        assert run(["verify-dpi", *fixed, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source} and {flag} cannot be given together\n"

    def test_config_value_counts_as_given(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"random": 3}))
        assert run(["verify-dpi", "--config", str(config), "--example", "classical"]) == 2
        assert capsys.readouterr().err == \
            "error: --example and --random cannot be given together\n"

    def test_renormalize_needs_dump_recovered(self, capsys):
        # --renormalize once did nothing without --dump-recovered
        assert run(["verify-dpi", "--example", "classical", "--renormalize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --renormalize needs --dump-recovered\n"

    @pytest.mark.parametrize("cut", ["--rho", "--channel"])
    def test_truncated_input_file_usage_error(self, cut, tmp_path, capsys):
        files = {"--rho": tmp_path / "rho.txt", "--sigma": tmp_path / "sigma.txt",
                 "--channel": tmp_path / "chan.txt"}
        save_state(str(files["--rho"]), random_density(2, 1))
        save_state(str(files["--sigma"]), random_density(2, 2))
        save_channel(str(files["--channel"]), random_channel(2, 2, 2, 3))
        # keep the magic line of the state file, and the channel file's
        # header without its Kraus blocks
        keep = 1 if cut == "--rho" else 5
        lines = files[cut].read_text().splitlines(keepends=True)
        files[cut].write_text("".join(lines[:keep]))
        args = ["verify-dpi", "--nodes", "17"]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_channel_file_usage_error(self, tmp_path, capsys):
        files = {"--rho": tmp_path / "rho.txt", "--sigma": tmp_path / "sigma.txt",
                 "--channel": tmp_path / "chan.txt"}
        save_state(str(files["--rho"]), random_density(2, 1))
        save_state(str(files["--sigma"]), random_density(2, 2))
        save_channel(str(files["--channel"]), identity_channel(2))
        text = files["--channel"].read_text()
        files["--channel"].write_text(text.replace("(1, 0)", "(nan, 0)", 1))
        args = ["verify-dpi", "--nodes", "17"]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("bad, text, message", [
        ("--rho", "(0, 0) (nan, 0)", "non-finite"),
        ("--sigma", "(0, 0)", "is not 2 (re, im) pairs"),
        ("--channel", "(0, 0) (inf, 0)", "non-finite"),
    ], ids=["rho", "sigma", "channel"])
    def test_bad_file_is_named(self, bad, text, message, tmp_path, capsys):
        files = {"--rho": tmp_path / "rho.txt", "--sigma": tmp_path / "sigma.txt",
                 "--channel": tmp_path / "chan.txt"}
        save_state(str(files["--rho"]), np.eye(2) / 2)
        save_state(str(files["--sigma"]), np.eye(2) / 2)
        save_channel(str(files["--channel"]), identity_channel(2))
        lines = files[bad].read_text().splitlines(keepends=True)
        lines[-1] = text + "\n"  # the last row of the last block
        files[bad].write_text("".join(lines))
        args = ["verify-dpi", "--nodes", "17"]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: ") and message in err
        assert all(str(path) not in err for flag, path in files.items() if flag != bad)

    def test_missing_file_io_error(self, capsys):
        code = run(
            ["verify-dpi", "--rho", "/nonexistent/a", "--sigma", "/nonexistent/b",
             "--channel", "/nonexistent/c"]
        )
        assert code == 3

    def test_renormalize_affects_only_dump(self, tmp_path, capsys):
        base = ["verify-dpi", "--example", "classical", "--nodes", "33"]
        run(base + ["--dump-recovered", str(tmp_path / "raw.txt")])
        first = capsys.readouterr().out
        run(base + ["--dump-recovered", str(tmp_path / "renorm.txt"), "--renormalize"])
        second = capsys.readouterr().out
        assert first == second  # proven-bound output unchanged

    def test_infinite_slack_summary_is_strict_json(self, tmp_path, capsys):
        # rho outside the support of sigma: the left side and the slack are +inf
        save_state(str(tmp_path / "rho.txt"), np.diag([1.0, 0.0]).astype(complex))
        save_state(str(tmp_path / "sigma.txt"), np.diag([0.0, 1.0]).astype(complex))
        save_channel(str(tmp_path / "chan.txt"), identity_channel(2))
        args = [
            "verify-dpi",
            "--rho", str(tmp_path / "rho.txt"),
            "--sigma", str(tmp_path / "sigma.txt"),
            "--channel", str(tmp_path / "chan.txt"),
            "--nodes", "17",
        ]
        assert run(args + ["-o", str(tmp_path / "a.txt")]) == 0
        assert run(args + ["-o", str(tmp_path / "b.txt")]) == 0
        text = (tmp_path / "a.txt.summary").read_text()

        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        doc = json.loads(text, parse_constant=reject)
        assert doc["rows"][0]["slack"] == "inf"
        assert parse_structured(text)["rows"][0]["slack"] == math.inf
        assert (tmp_path / "a.txt.summary").read_bytes() == (
            tmp_path / "b.txt.summary"
        ).read_bytes()


class TestVerifySsa:
    def test_ghz(self, capsys):
        assert run(["verify-ssa", "--ghz"]) == 0
        out = capsys.readouterr().out
        assert "0.693147" in out

    def test_random(self):
        assert run(["verify-ssa", "--random", "2", "--seed", "2"]) == 0

    def test_state_file_with_dims(self, tmp_path, capsys):
        rho = random_density(12, np.random.default_rng(3))
        save_state(str(tmp_path / "abc.txt"), rho)
        report = tmp_path / "ssa.txt"
        assert run(["verify-ssa", "--state", str(tmp_path / "abc.txt"), "--state-dims", "2,3,2",
                    "-o", str(report)]) == 0
        [row] = parse_structured((tmp_path / "ssa.txt.summary").read_text())["rows"]
        rep = ssa_remainder(load_state(str(tmp_path / "abc.txt")), (2, 3, 2))
        assert row == {"instance": "file", "dim_a": 2, "dim_b": 3, "dim_c": 2,
                       "lhs": rep.cmi, "rhs": rep.rhs, "slack": rep.slack}
        assert "[file] lhs:" in capsys.readouterr().out

    def test_state_and_ghz_refused(self, tmp_path, capsys):
        # the file once ran and --ghz was ignored
        save_state(str(tmp_path / "abc.txt"), random_density(8, np.random.default_rng(3)))
        assert run(["verify-ssa", "--ghz", "--state", str(tmp_path / "abc.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --state and --ghz cannot be given together\n"

    @pytest.mark.parametrize("source", ["--ghz", "--state"])
    def test_random_with_fixed_state_refused(self, source, tmp_path, capsys):
        # the fixed state once ran and --random was ignored
        save_state(str(tmp_path / "abc.txt"), random_density(8, np.random.default_rng(3)))
        fixed = ["--ghz"] if source == "--ghz" else ["--state", str(tmp_path / "abc.txt")]
        assert run(["verify-ssa", *fixed, "--random", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source} and --random cannot be given together\n"

    @pytest.mark.parametrize("others", [[], ["--ghz"], ["--random", "2"]])
    def test_state_dims_needs_state(self, others, capsys):
        # --state-dims was ignored without --state
        assert run(["verify-ssa", "--state-dims", "2,3,2", *others]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --state-dims needs --state\n"

    def test_state_dims_must_match_the_state(self, tmp_path):
        save_state(str(tmp_path / "abc.txt"), random_density(12, np.random.default_rng(3)))
        assert run(["verify-ssa", "--state", str(tmp_path / "abc.txt"),
                    "--state-dims", "2,2,2"]) == 2


    def test_bad_state_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "abc.txt"
        save_state(str(path), np.eye(8) / 8)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "(0.125, 0)\n"
        path.write_text("".join(lines))
        assert run(["verify-ssa", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "is not 8 (re, im) pairs" in err

    def test_random_rows_match_sweep(self, tmp_path, capsys):
        report = tmp_path / "ssa.txt"
        assert run(["verify-ssa", "--random", "3", "--seed", "2", "-o", str(report)]) == 0
        rows = parse_structured((tmp_path / "ssa.txt.summary").read_text())["rows"]
        expected = sweep(SweepConfig(kind="ssa", dims=(2, 2), seed=2, count=3))
        assert rows == expected.rows
        assert "[ssa-2] lhs:" in capsys.readouterr().out


class TestVerifyCorollaries:
    def test_runs_both(self, capsys):
        assert run(["verify-corollaries", "--random", "2"]) == 0
        out = capsys.readouterr().out
        assert "concavity-0" in out
        assert "joint-convexity-0" in out


    def test_rows_match_sweeps(self, tmp_path, capsys):
        report = tmp_path / "cor.txt"
        assert run(["verify-corollaries", "--random", "2", "--dims", "2..3", "--seed", "4",
                    "-o", str(report)]) == 0
        rows = parse_structured((tmp_path / "cor.txt.summary").read_text())["rows"]
        expected = [
            row
            for kind in ("concavity", "joint-convexity")
            for row in sweep(SweepConfig(kind=kind, dims=(2, 3), seed=4, count=2)).rows
        ]
        assert rows == expected
        # one table holds both schemas; a cell a kind lacks reads "-"
        table = parse_table(report.read_text())
        assert [row["dim"] for row in table] == ["-", "-"] + [r["dim"] for r in expected[2:]]
        assert [row["dim_a"] for row in table][2:] == ["-", "-"]

    def test_size_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["verify-corollaries", "--random", "1", "--size", "3"])
        assert info.value.code == 2


class TestQec:
    def test_bitflip_code(self, capsys):
        assert run(["qec", "--code", "bitflip3", "--p", "0.1", "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "forward_ok: True" in out
        assert "converse_ok: True" in out

    def test_random_code(self):
        assert run(["qec", "--code", "random", "--dim", "4", "--code-dim", "2",
                    "--samples", "4", "--seed", "8"]) == 0

    def test_bits_report_converts_gaps(self, tmp_path, capsys):
        # the table's gap column and the summary's max_gap follow --unit
        base = ["qec", "--code", "random", "--samples", "3"]
        docs = {}
        for unit in ("nats", "bits"):
            path = tmp_path / f"{unit}.txt"
            assert run(base + ["--unit", unit, "-o", str(path)]) == 0
            docs[unit] = parse_structured((tmp_path / f"{unit}.txt.summary").read_text())
        nats, bits = docs["nats"], docs["bits"]
        assert bits["summary"]["unit"] == "bits"
        assert len(bits["rows"]) == len(nats["rows"]) == 3
        for row_n, row_b in zip(nats["rows"], bits["rows"]):
            assert row_b["gap"] == pytest.approx(row_n["gap"] / math.log(2), rel=1e-11)
            assert row_b["fidelity"] == row_n["fidelity"]
        assert bits["summary"]["max_gap"] == pytest.approx(
            nats["summary"]["max_gap"] / math.log(2), rel=1e-11
        )
        out_n, out_b, doc = assert_unit_rule(base, tmp_path, capsys)
        assert set(doc["summary"]) == {"dim_code", "max_gap", "min_fidelity", "forward_ok",
                                       "converse_ok", "unit", "version"}
        assert [ln.split(":")[0] for ln in out_b if ln.endswith(" (bits)")] == [
            "max_gap", "converse_bound"]
        # the printed bound, which no report holds, converts too
        bound_n, bound_b = (float(next(ln for ln in out if ln.startswith("converse_bound: "))
                                  .split()[1]) for out in (out_n, out_b))
        assert bound_b == pytest.approx(bound_n / LN2, rel=1e-11)

    @pytest.mark.parametrize("code_dim", ["5", "0", "-1"])
    def test_code_dim_outside_dim_is_usage_error(self, code_dim, capsys):
        # a slice of the drawn basis would quietly keep some other number of columns
        assert run(["qec", "--code", "random", "--dim", "4", "--code-dim", code_dim,
                    "--samples", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --code-dim {code_dim} must lie between 1 and "
                                "--dim 4\n")

    def test_rank_deficient_recovered_state(self, capsys):
        # the recovered pure code state has an eigenvalue of -2.1e-15, below
        # the rank cutoff -1.8e-15 that fidelity once rejected
        assert run(["qec", "--code", "bitflip3", "--p", "0.13182888647952362",
                    "--seed", "1561593255", "--samples", "4"]) == 0


class TestSweep:
    def test_byte_identical_reports(self, tmp_path):
        args = ["sweep", "--seed", "7", "--count", "10", "--dims", "2..4",
                "--nodes", "33"]
        code = run(args + ["-o", str(tmp_path / "a.txt")])
        assert code == 0
        assert run(args + ["-o", str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.txt.summary").read_bytes() == (
            tmp_path / "b.txt.summary"
        ).read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PETZLAB_OUTPUT_DIR", str(tmp_path))
        assert run(["sweep", "--count", "2", "--nodes", "33", "-o", "env.txt"]) == 0
        assert (tmp_path / "env.txt").exists()

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 3, "nodes": 33, "seed": 11}))
        report_a = tmp_path / "a.txt"
        assert run(["sweep", "--config", str(config), "-o", str(report_a)]) == 0
        rows = parse_table(report_a.read_text())
        assert len(rows) == 3
        report_b = tmp_path / "b.txt"
        assert run(["sweep", "--config", str(config), "--count", "2",
                    "-o", str(report_b)]) == 0
        assert len(parse_table(report_b.read_text())) == 2

    @pytest.mark.parametrize("kind", ["ssa", "concavity", "joint-convexity"])
    def test_mixture_kinds_take_any_nodes(self, kind, capsys):
        assert run(["sweep", "--kind", kind, "--nodes", "2", "--count", "2"]) == 0
        two = capsys.readouterr().out
        assert run(["sweep", "--kind", kind, "--count", "2"]) == 0
        assert two == capsys.readouterr().out

    def test_bad_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json at all {")
        assert run(["sweep", "--config", str(config)]) == 2

    def test_config_list_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text(json.dumps([["count", 2]]))
        assert run(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    @pytest.mark.parametrize("flag", [True, False])
    def test_config_boolean_key_is_a_switch(self, tmp_path, flag):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 2, "nodes": 33, "timings": flag}))
        out = tmp_path / "t.txt"
        assert run(["sweep", "--config", str(config), "-o", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert ("wall_time" in header) is flag
        assert len(parse_table(out.read_text())) == 2

    def test_timings_column_optional(self, tmp_path):
        out = tmp_path / "t.txt"
        run(["sweep", "--count", "2", "--nodes", "33", "--timings", "-o", str(out)])
        assert "wall_time" in out.read_text().splitlines()[1]
        run(["sweep", "--count", "2", "--nodes", "33", "-o", str(out)])
        assert "wall_time" not in out.read_text().splitlines()[1]


class TestUnitRule:
    @pytest.mark.parametrize("args", [
        *(f"sweep --count 4 --seed 1 --dims 2..3 --nodes 33 --kind {kind}"
          for kind in SWEEP_KINDS),
        "sweep --count 0",
        "verify-dpi --random 2 --seed 4 --nodes 33",
        "verify-ssa --ghz",
        "verify-ssa --random 2 --seed 2",
        "verify-corollaries --random 2 --dims 2..3",
    ])
    def test_entropy_keys_follow_unit(self, args, tmp_path, capsys):
        _, out, doc = assert_unit_rule(args.split(), tmp_path, capsys)
        # every row entropy of a verify-* run is printed, nothing else is in bits
        printed = [key for row in doc["rows"] for key in row if key in cli._ENTROPY_COLUMNS]
        if args.startswith("verify-"):
            assert sum(ln.endswith(" (bits)") for ln in out) == len(printed)


class TestDeprecatedNodes:
    """A command that applies the exact universal map builds no quadrature
    rule and takes no ``--nodes``: the flag is a usage error there."""

    @pytest.mark.parametrize("args", [
        "qec --code bitflip3 --samples 4",
        "qec --code random --seed 4 --samples 4",
        "verify-ssa --ghz",
        "verify-ssa --random 2 --seed 3",
        "verify-corollaries --random 2 --seed 1",
    ])
    def test_nodes_changes_no_byte(self, args, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("built a quadrature rule")

        monkeypatch.setattr("petzlab.cli.beta_quadrature", refuse)
        monkeypatch.setattr("petzlab.verify.beta_quadrature", refuse)
        base = args.split()
        assert run(base) == 0
        assert capsys.readouterr().err == ""
        with pytest.raises(SystemExit) as info:
            run(base + ["--nodes", "33"])
        assert info.value.code == 2
        assert "unrecognized arguments: --nodes 33" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qec", "verify-ssa", "verify-corollaries"])
    def test_nodes_hidden_from_help(self, command, capsys):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert "--nodes" not in capsys.readouterr().out


class TestIoErrors:
    @pytest.mark.parametrize("missing_flag", ["--rho", "--sigma", "--channel"])
    def test_missing_input_file(self, missing_flag, tmp_path, capsys):
        save_state(str(tmp_path / "state.txt"), random_density(2, 1))
        save_channel(str(tmp_path / "chan.txt"), identity_channel(2))
        files = {"--rho": tmp_path / "state.txt", "--sigma": tmp_path / "state.txt",
                 "--channel": tmp_path / "chan.txt"}
        files[missing_flag] = tmp_path / "missing.txt"
        args = ["verify-dpi", "--nodes", "17"]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert run(args) == 3
        assert str(tmp_path / "missing.txt") in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["sweep", "--count", "1", "--config", str(missing)]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_output_into_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run(["sweep", "--count", "1", "--nodes", "17",
                    "-o", str(missing / "r.txt")]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_output_error_names_the_report_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["sweep", "--count", "1", "--nodes", "17",
                    "-o", "missing-dir/r.txt"]) == 3
        err = capsys.readouterr().err
        assert "missing-dir/r.txt" in err and ".petzlab-" not in err
        assert os.listdir(tmp_path) == []


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            run(["sweep", "--bogus"])
        assert info.value.code == 2

    # each with what its message names: the flag and its form for a value
    # that does not parse
    UNUSABLE = {
        "sweep --dims 5..2 --count 2": "sweep configuration",
        "sweep --nodes 2 --count 2": "sweep configuration",
        "quadrature-info --nodes 2": "3 nodes",
        "qec --p 0.5 --samples 2": "flip probability",
        "qec --samples -3": "samples",
        "verify-dpi --dims x..3": "--dims must have the form LO..HI, got 'x..3'",
        "verify-dpi --dims 2..x": "--dims must have the form LO..HI, got '2..x'",
        "sweep --dims 2..3..4": "--dims must have the form LO..HI, got '2..3..4'",
        "verify-corollaries --dims two": "--dims must have the form LO..HI",
        # checked before the state file is read
        "verify-ssa --state absent.txt --state-dims 2,2":
            "--state-dims must have the form dA,dB,dC, got '2,2'",
        "verify-ssa --state absent.txt --state-dims 2,x,2":
            "--state-dims must have the form dA,dB,dC, got '2,x,2'",
    }

    @pytest.mark.parametrize("args", list(UNUSABLE))
    def test_unusable_values_exit_2(self, args, capsys):
        assert run(args.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert self.UNUSABLE[args] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("args", [
        "sweep --count 3",
        "sweep --count 3 --kind ssa",
        "qec --samples 2",
        "verify-dpi --random 2",
        "verify-dpi --example classical",
        "verify-ssa --ghz",
        "verify-ssa --random 1",
        "verify-corollaries --random 1",
    ])
    def test_unusable_tolerance_exit_2(self, args, tol, capsys):
        # a NaN would pass every check, since slack < -nan is never true
        assert run(args.split() + ["--tolerance", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance must be finite and nonnegative")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_unusable_tolerance_on_file_input_exit_2(self, tol, tmp_path, capsys):
        save_state(str(tmp_path / "state.txt"), random_density(2, 1))
        save_channel(str(tmp_path / "chan.txt"), identity_channel(2))
        assert run(["verify-dpi", "--rho", str(tmp_path / "state.txt"),
                    "--sigma", str(tmp_path / "state.txt"),
                    "--channel", str(tmp_path / "chan.txt"),
                    "--dump-recovered", str(tmp_path / "rec.txt"),
                    "--tolerance", tol]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance must be finite")
        assert not (tmp_path / "rec.txt").exists()


@pytest.fixture
def counted_builds(monkeypatch):
    """``main`` with no parser built yet; the list grows by one per
    ``build_parser`` call."""
    builds = []

    def counting():
        builds.append(None)
        return build_parser()

    cli._parsers.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    yield builds
    cli._parsers.cache_clear()


def _outputs(args, path, capsys):
    """Exit status, stdout, stderr, report and ``.summary`` bytes of one call."""
    status = run(args + ["-o", str(path)])
    captured = capsys.readouterr()
    return (status, captured.out, captured.err, path.read_bytes(),
            path.with_name(path.name + ".summary").read_bytes())


REUSE_RUNS = [
    ["sweep", "--count", "4", "--seed", "3", "--nodes", "33"],
    ["sweep", "--kind", "ssa", "--count", "3", "--seed", "5"],
    ["qec", "--code", "bitflip3", "--p", "0.1", "--samples", "4", "--seed", "1509"],
    ["qec", "--code", "random", "--samples", "3", "--seed", "7127", "--unit", "bits"],
]


class TestParserReuse:
    def test_built_once_per_process(self, counted_builds, capsys):
        assert counted_builds == []
        for _ in range(3):
            assert run(["quadrature-info", "--nodes", "3"]) == 0
            assert run(["qec", "--samples", "2"]) == 0
        assert len(counted_builds) == 1
        cli._parsers.cache_clear()
        assert run(["quadrature-info", "--nodes", "3"]) == 0
        assert len(counted_builds) == 2

    def test_build_parser_returns_a_fresh_parser(self, counted_builds, capsys):
        assert run(["quadrature-info", "--nodes", "3"]) == 0
        parsers = [build_parser() for _ in range(3)] + [cli._parsers()[0]]
        assert len({id(parser) for parser in parsers}) == 4

    def test_config_defaults_do_not_leak(self, counted_builds, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 3, "nodes": 33, "seed": 11, "timings": True}))
        plain = ["sweep", "--count", "2", "--nodes", "33"]
        before = _outputs(plain, tmp_path / "before.txt", capsys)
        configured = _outputs(["sweep", "--config", str(config)], tmp_path / "cfg.txt", capsys)
        assert len(parse_table(configured[3].decode())) == 3
        assert "wall_time" in configured[3].decode()
        after = _outputs(plain, tmp_path / "after.txt", capsys)
        assert after == before
        assert "wall_time" not in after[3].decode()
        assert len(counted_builds) == 1

    @pytest.mark.parametrize("bad", [["sweep", "--bogus"], ["frobnicate"], ["sweep", "--help"]])
    def test_usage_error_then_valid_call(self, counted_builds, bad, tmp_path, capsys):
        args = REUSE_RUNS[0]
        fresh = _outputs(args, tmp_path / "fresh.txt", capsys)
        with pytest.raises(SystemExit) as info:
            run(bad)
        assert info.value.code == (0 if "--help" in bad else 2)
        capsys.readouterr()
        assert _outputs(args, tmp_path / "again.txt", capsys) == fresh
        assert len(counted_builds) == 1

    def test_reused_parser_writes_the_fresh_parser_bytes(self, counted_builds, tmp_path,
                                                         capsys):
        # a parser built for each call, as main once did, against one kept
        # across every call in between
        fresh = []
        for i, args in enumerate(REUSE_RUNS):
            cli._parsers.cache_clear()
            fresh.append(_outputs(args, tmp_path / f"fresh{i}.txt", capsys))
        assert len(counted_builds) == len(REUSE_RUNS)
        for i, args in enumerate(REUSE_RUNS + REUSE_RUNS):
            assert _outputs(args, tmp_path / f"kept{i}.txt", capsys) == fresh[i % len(fresh)]
        assert len(counted_builds) == len(REUSE_RUNS)
