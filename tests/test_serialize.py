import os
from pathlib import Path

import numpy as np
import pytest

import petzlab
from conftest import quadrature_map
from petzlab.channels import random_channel, random_density
from petzlab.recovery import beta0_quadrature, petz
from petzlab.serialize import (
    atomic_write_text,
    channel_sha256,
    dumps_channel,
    dumps_recovery,
    dumps_state,
    emit_structured,
    emit_table,
    load_channel,
    load_recovery,
    load_state,
    loads_channel,
    loads_recovery,
    loads_state,
    parse_structured,
    parse_table,
    save_channel,
    save_recovery,
    save_state,
    state_sha256,
)


class TestStateFormat:
    def test_round_trip_exact(self, rng):
        rho = random_density(5, rng)
        again = loads_state(dumps_state(rho))
        np.testing.assert_array_equal(again, rho)

    def test_file_round_trip(self, rng, tmp_path):
        rho = random_density(3, rng)
        path = tmp_path / "state.txt"
        save_state(str(path), rho)
        np.testing.assert_array_equal(load_state(str(path)), rho)

    def test_awkward_floats_survive(self):
        rho = np.array(
            [[1.0 / 3.0, 1e-17 + 0.25j], [1e-17 - 0.25j, 2.0 / 3.0]], dtype=complex
        )
        np.testing.assert_array_equal(loads_state(dumps_state(rho)), rho)

    def test_rejects_other_files(self):
        with pytest.raises(ValueError, match="state"):
            loads_state("petzlab channel v1\n")

    def test_signed_zeros_survive(self):
        rho = np.array(
            [[complex(-0.0, -0.0), complex(0.5, -0.0)], [complex(-0.0, 0.5), 1.0]]
        )
        assert loads_state(dumps_state(rho)).tobytes() == rho.tobytes()


class TestChannelFormat:
    def test_round_trip_exact(self, rng):
        chan = random_channel(3, 2, 3, rng)
        again = loads_channel(dumps_channel(chan))
        np.testing.assert_array_equal(again.kraus, chan.kraus)
        assert again.mode == chan.mode

    def test_file_round_trip(self, rng, tmp_path):
        chan = random_channel(2, 2, 2, rng)
        path = tmp_path / "chan.txt"
        save_channel(str(path), chan)
        np.testing.assert_array_equal(load_channel(str(path)).kraus, chan.kraus)

    def test_trace_non_increasing_mode_round_trip(self):
        from petzlab.channels import Channel

        chan = Channel([0.5 * np.eye(2)], mode="tni")
        again = loads_channel(dumps_channel(chan))
        assert again.mode == "tni"
        np.testing.assert_array_equal(again.kraus, chan.kraus)

    def test_hashes_stable(self, rng):
        chan = random_channel(2, 2, 2, rng)
        assert channel_sha256(chan) == channel_sha256(chan)
        rho = random_density(2, rng)
        assert state_sha256(rho) != channel_sha256(chan)


class TestRecoveryFormat:
    def test_round_trip(self, rng):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        rec = quadrature_map(sigma, chan, beta0_quadrature(9))
        head = loads_recovery(dumps_recovery(rec))
        assert head["kind"] == "mixture"
        np.testing.assert_array_equal(head["kraus"], rec.kraus)
        np.testing.assert_array_equal(head["tnodes"], rec.nodes)
        np.testing.assert_array_equal(head["weights"], rec.weights)
        assert head["sigma_sha256"] == state_sha256(sigma)
        assert head["channel_sha256"] == channel_sha256(chan)

    def test_file_round_trip(self, rng, tmp_path):
        sigma = random_density(3, rng)
        chan = random_channel(3, 2, 2, rng)
        rec = petz(sigma, chan)
        path = tmp_path / "petz.txt"
        save_recovery(str(path), rec)
        assert path.read_text() == dumps_recovery(rec)
        head = load_recovery(str(path))
        assert head["kind"] == "petz"
        assert head["kraus"].tobytes() == rec.kraus.tobytes()
        assert head["sigma_sha256"] == state_sha256(sigma)
        assert head["channel_sha256"] == channel_sha256(chan)

    def test_petz_header(self, rng):
        sigma = random_density(2, rng)
        chan = random_channel(2, 2, 2, rng)
        head = loads_recovery(dumps_recovery(petz(sigma, chan)))
        assert head["kind"] == "petz"
        assert head["tnodes"] is None


def _recovery_text():
    sigma, chan = random_density(2, 3), random_channel(2, 2, 2, 4)
    return dumps_recovery(quadrature_map(sigma, chan, beta0_quadrature(3)))


# one d = 2 file of each format and its loader
FILES = {
    "state": (lambda: dumps_state(random_density(2, 1)), loads_state),
    "channel": (lambda: dumps_channel(random_channel(2, 2, 2, 2)), loads_channel),
    "recovery": (_recovery_text, loads_recovery),
}


def _first_row(lines):
    return next(i for i, line in enumerate(lines) if line.startswith("("))


def _swap_blocks(lines):
    i, j = lines.index("block 0"), lines.index("block 1")
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _size_line(lines):
    """Index of the ``dim`` (state) or ``dim_in`` (channel, recovery) line."""
    return next(i for i, ln in enumerate(lines) if ln.split()[0] in ("dim", "dim_in"))


def _drop_field(lines):
    del lines[_size_line(lines)]
    return lines


def _set_field(value):
    def mutate(lines):
        i = _size_line(lines)
        lines[i] = f"{lines[i].split()[0]} {value}"
        return lines
    return mutate


def _repeat_field(lines):
    return lines[:2] + lines[1:]


def _edit_row(edit):
    def mutate(lines):
        i = _first_row(lines)
        lines[i] = edit(lines[i])
        return lines
    return mutate


MALFORMED = {
    "extra row": lambda lines: lines + [lines[-1]],
    "pair too many": _edit_row(lambda row: row + " (0, 0)"),
    "pair too few": _edit_row(lambda row: row.rsplit(" (", 1)[0]),
    "non-numeric entry": _edit_row(lambda row: "(abc" + row[row.index(","):]),
    "non-numeric imaginary part": _edit_row(
        lambda row: row[: row.index(",")] + ", 1e)" + row[row.index(")") + 1 :]
    ),
    "text between pairs": _edit_row(lambda row: row.replace(") (", ") junk (", 1)),
    "text after the pairs": _edit_row(lambda row: row + "x"),
    "missing size field": _drop_field,
    "repeated size field": _repeat_field,
    "non-integer size": _set_field("two"),
    "zero size": _set_field("0"),
    "unallocatable size": _set_field(10**15),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("fmt", sorted(FILES))
    def test_every_line_prefix_raises_value_error(self, fmt):
        make, loads = FILES[fmt]
        lines = make().splitlines()
        for cut in range(len(lines)):
            with pytest.raises(ValueError):
                loads("\n".join(lines[:cut]) + "\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("fmt", sorted(FILES))
    def test_malformed_raises_value_error(self, fmt, case):
        make, loads = FILES[fmt]
        lines = make().splitlines()
        loads("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            loads("\n".join(MALFORMED[case](lines)) + "\n")

    def test_text_around_pairs_raises_value_error(self):
        with pytest.raises(ValueError, match="row 0 of block 0"):
            loads_state("petzlab state v1\ndim 2\n(0.5, 0) junk (0, 0)\n(0, 0)(0.5, 0)x\n")

    @pytest.mark.parametrize("fmt", ["channel", "recovery"])
    def test_blocks_out_of_order(self, fmt):
        make, loads = FILES[fmt]
        with pytest.raises(ValueError, match="block 0"):
            loads("\n".join(_swap_blocks(make().splitlines())) + "\n")


DATA = sorted((Path(petzlab.__file__).parent / "data").glob("*.txt"))


@pytest.mark.parametrize("path", DATA, ids=[p.name for p in DATA])
def test_bundled_files_redump_byte_for_byte(path):
    text = path.read_text()
    if text.startswith("petzlab channel v1"):
        assert dumps_channel(loads_channel(text)) == text
    else:
        assert dumps_state(loads_state(text)) == text


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".petzlab-")]
        assert leftovers == []

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"


class TestReports:
    def test_empty_table(self):
        text = emit_table([])
        assert text.startswith("# petzlab report v1")
        assert parse_table(text) == []

    def test_single_row(self):
        rows = [{"instance": 0, "lhs": 0.125, "slack": 1.5e-9}]
        parsed = parse_table(emit_table(rows))
        assert parsed[0]["instance"] == 0
        assert parsed[0]["lhs"] == pytest.approx(0.125)

    def test_twelve_significant_digits(self):
        rows = [{"value": 0.123456789012345678}]
        text = emit_table(rows)
        assert "0.123456789012" in text

    def test_structured_round_trip(self):
        payload = {
            "rows": [{"a": 1, "b": 0.1 + 0.2}],
            "summary": {"min_slack": -3.3e-17, "count": 2},
        }
        assert parse_structured(emit_structured(payload)) == payload

    def test_deterministic_bytes(self):
        rows = [{"b": 2.0, "a": 1.0}]
        assert emit_structured({"rows": rows}) == emit_structured({"rows": rows})
        assert emit_table(rows) == emit_table(rows)


class TestStrictJson:
    def test_non_finite_floats_round_trip(self):
        payload = {
            "rows": [{"slack": float("inf"), "lhs": 0.5}, {"slack": float("-inf")}],
            "summary": {"min_slack": 0.1 + 0.2, "count": 2, "unit": "nats"},
        }
        text = emit_structured(payload)
        assert "Infinity" not in text
        assert parse_structured(text) == payload

    def test_nan_is_a_string(self):
        text = emit_structured({"x": float("nan")})
        assert '"nan"' in text
        assert np.isnan(parse_structured(text)["x"])
