import json
import math

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

    def test_partial_file_args_usage_error(self, capsys):
        assert run(["verify-dpi", "--rho", "only.txt"]) == 2

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


class TestVerifyCorollaries:
    def test_runs_both(self, capsys):
        assert run(["verify-corollaries", "--random", "2", "--nodes", "33"]) == 0
        out = capsys.readouterr().out
        assert "concavity-0" in out
        assert "joint-convexity-0" in out


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


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            run(["sweep", "--bogus"])
        assert info.value.code == 2
