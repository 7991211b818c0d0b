import json
import math
import os

import numpy as np
import pytest

from petzlab.channels import identity_channel, random_channel, random_density
from petzlab.cli import main
from petzlab.serialize import parse_structured, parse_table, save_channel, save_state
from petzlab.verify import SweepConfig, sweep


def run(args):
    return main(list(args))


class TestQuadratureInfo:
    def test_weight_table(self, capsys):
        assert run(["quadrature-info", "--nodes", "65"]) == 0
        out = capsys.readouterr().out
        assert "weight_sum" in out
        total = float(out.split("weight_sum:")[1].strip())
        assert abs(total - 1.0) <= 1e-12
        assert "node weight" in out.replace("index ", "")


class TestVerifyDpi:
    def test_bundled_classical_example(self, capsys):
        assert run(["verify-dpi", "--example", "classical"]) == 0
        out = capsys.readouterr().out
        assert "0.143841" in out
        assert "0.0693365" in out or "0.069336" in out
        assert "(nats)" in out

    def test_bits_conversion(self, capsys):
        run(["verify-dpi", "--example", "classical", "--unit", "bits"])
        out = capsys.readouterr().out
        lhs_bits = float(
            [ln for ln in out.splitlines() if "lhs" in ln][0].split(":")[1].split()[0]
        )
        lhs_nats = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert lhs_bits == pytest.approx(lhs_nats / math.log(2.0), abs=1e-12)

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
        assert run(["verify-ssa", "--ghz", "--nodes", "65"]) == 0
        out = capsys.readouterr().out
        assert "0.693147" in out

    def test_random(self):
        assert run(["verify-ssa", "--random", "2", "--nodes", "33", "--seed", "2"]) == 0


    def test_random_rows_match_sweep(self, tmp_path, capsys):
        report = tmp_path / "ssa.txt"
        assert run(["verify-ssa", "--random", "3", "--seed", "2", "--nodes", "33",
                    "-o", str(report)]) == 0
        rows = parse_structured((tmp_path / "ssa.txt.summary").read_text())["rows"]
        expected = sweep(SweepConfig(kind="ssa", dims=(2, 2), seed=2, count=3, nodes=33))
        assert rows == expected.rows
        assert "[ssa-2] lhs:" in capsys.readouterr().out


class TestVerifyCorollaries:
    def test_runs_both(self, capsys):
        assert run(["verify-corollaries", "--random", "2", "--nodes", "33"]) == 0
        out = capsys.readouterr().out
        assert "concavity-0" in out
        assert "joint-convexity-0" in out


    def test_rows_match_sweeps(self, tmp_path, capsys):
        report = tmp_path / "cor.txt"
        assert run(["verify-corollaries", "--random", "2", "--dims", "2..3", "--seed", "4",
                    "--nodes", "33", "-o", str(report)]) == 0
        rows = parse_structured((tmp_path / "cor.txt.summary").read_text())["rows"]
        expected = [
            row
            for kind in ("concavity", "joint-convexity")
            for row in sweep(SweepConfig(kind=kind, dims=(2, 3), seed=4, count=2,
                                         nodes=33)).rows
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
        assert run(["qec", "--code", "bitflip3", "--p", "0.1", "--samples", "4",
                    "--nodes", "33"]) == 0
        out = capsys.readouterr().out
        assert "forward_ok: True" in out
        assert "converse_ok: True" in out

    def test_random_code(self):
        assert run(["qec", "--code", "random", "--dim", "4", "--code-dim", "2",
                    "--samples", "4", "--nodes", "33", "--seed", "8"]) == 0

    def test_bits_report_converts_gaps(self, tmp_path, capsys):
        # the table's gap column and the summary's max_gap follow --unit
        base = ["qec", "--code", "random", "--samples", "3", "--nodes", "33"]
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

    def test_bad_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json at all {")
        assert run(["sweep", "--config", str(config)]) == 2

    def test_timings_column_optional(self, tmp_path):
        out = tmp_path / "t.txt"
        run(["sweep", "--count", "2", "--nodes", "33", "--timings", "-o", str(out)])
        assert "wall_time" in out.read_text().splitlines()[1]
        run(["sweep", "--count", "2", "--nodes", "33", "-o", str(out)])
        assert "wall_time" not in out.read_text().splitlines()[1]


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

    @pytest.mark.parametrize(
        "args",
        [
            "sweep --dims 5..2 --count 2",
            "quadrature-info --nodes 2",
            "qec --p 0.5 --samples 2",
            "qec --samples -3",
            "verify-dpi --dims x..3",
        ],
    )
    def test_unusable_values_exit_2(self, args, capsys):
        assert run(args.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
