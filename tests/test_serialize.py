import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petzlab
from conftest import quadrature_map
from petzlab import serialize
from petzlab.channels import random_channel, random_density
from petzlab.recovery import beta0_quadrature, convex_mixture, petz, universal_recovery
from petzlab.serialize import (
    _loads,
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


def _edit_header(key, edit):
    """Replace the values of the ``key`` header line by ``edit(values)``."""
    def mutate(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
        lines[i] = " ".join([key] + edit(lines[i].split()[1:]))
        return lines
    return mutate


MALFORMED = {
    "extra row": lambda lines: lines + [lines[-1]],
    "pair too many": _edit_row(lambda row: row + " (0, 0)"),
    "pair too few": _edit_row(lambda row: row.rsplit(" (", 1)[0]),
    "non-numeric entry": _edit_row(lambda row: "(abc" + row[row.index(","):]),
    "non-finite entry": _edit_row(lambda row: "(nan" + row[row.index(","):]),
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
    "non-finite node": _edit_header("tnodes", lambda values: ["nan"] + values[1:]),
    "nodes and weights of unequal length": _edit_header("weights", lambda values: values[1:]),
}
# the cases that edit a header line only recovery files have
RECOVERY_ONLY = {"non-finite node", "nodes and weights of unequal length"}
MALFORMED_CASES = [
    (fmt, case) for case in sorted(MALFORMED) for fmt in sorted(FILES)
    if fmt == "recovery" or case not in RECOVERY_ONLY
]


class TestMalformedFiles:
    @pytest.mark.parametrize("fmt", sorted(FILES))
    def test_every_line_prefix_raises_value_error(self, fmt):
        make, loads = FILES[fmt]
        lines = make().splitlines()
        for cut in range(len(lines)):
            with pytest.raises(ValueError):
                loads("\n".join(lines[:cut]) + "\n")

    @pytest.mark.parametrize("fmt, case", MALFORMED_CASES,
                             ids=[f"{fmt}-{case}" for fmt, case in MALFORMED_CASES])
    def test_malformed_raises_value_error(self, fmt, case):
        make, loads = FILES[fmt]
        lines = make().splitlines()
        loads("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            loads("\n".join(MALFORMED[case](lines)) + "\n")

    @pytest.mark.parametrize("fmt", sorted(FILES))
    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
    def test_non_finite_entries_raise_value_error(self, fmt, value):
        make, loads = FILES[fmt]
        lines = make().splitlines()
        # the imaginary part of the last entry of the last block
        lines[-1] = lines[-1][: lines[-1].rindex(",")] + f", {value})"
        with pytest.raises(ValueError, match="non-finite"):
            loads("\n".join(lines) + "\n")

    def test_text_around_pairs_raises_value_error(self):
        with pytest.raises(ValueError, match="row 0 of block 0"):
            loads_state("petzlab state v1\ndim 2\n(0.5, 0) junk (0, 0)\n(0, 0)(0.5, 0)x\n")

    @pytest.mark.parametrize("value, message", [
        ("nan 0 1", "tnodes must be finite"),
        ("-inf 0 1", "tnodes must be finite"),
        ("0 1", "2 tnodes but 3 weights"),
        ("0 1 2 3", "4 tnodes but 3 weights"),
    ])
    def test_recovery_nodes_are_finite_and_one_per_weight(self, value, message):
        lines = _edit_header("tnodes", lambda _: value.split())(_recovery_text().splitlines())
        with pytest.raises(ValueError, match=message):
            loads_recovery("\n".join(lines) + "\n")

    def test_non_finite_weight_raises_value_error(self):
        edit = _edit_header("weights", lambda values: values[:-1] + ["inf"])
        with pytest.raises(ValueError, match="weights must be finite"):
            loads_recovery("\n".join(edit(_recovery_text().splitlines())) + "\n")

    def test_weights_without_nodes_load(self, rng):
        sigma, chan = random_density(2, rng), random_channel(2, 2, 2, rng)
        rec = convex_mixture([petz(sigma, chan), universal_recovery(sigma, chan)], [0.25, 0.75])
        head = loads_recovery(dumps_recovery(rec))
        assert head["tnodes"] is None
        np.testing.assert_array_equal(head["weights"], [0.25, 0.75])

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


# ---------------------------------------------------------------------------
# whole-block check against the row-by-row loader
# ---------------------------------------------------------------------------

_REFERENCE_ROW = re.compile(r"(?:\s*\(\s*[^\s,()]+\s*,\s*[^\s,()]+\s*\))*\s*")


def _reference_loads(text: str, kind: str, fields, blocks: bool = True):
    """``serialize._loads`` as it was before canonical blocks were checked
    as a whole: every row of every block goes through the regex.  Non-finite
    entries are refused as ``_loads`` refuses them."""
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
        out = np.empty((n, 2 * rows * cols))
    except MemoryError:
        raise ValueError(f"sizes {n} x {rows} x {cols} do not fit in memory") from None
    for k in range(n):
        if blocks and body[k * per] != f"block {k}":
            raise ValueError(f"missing block {k}")
        matrix = body[k * per + blocks : (k + 1) * per]
        for i, line in enumerate(matrix):
            if not _REFERENCE_ROW.fullmatch(line) or line.count("(") != cols:
                raise ValueError(f"row {i} of block {k} is not {cols} (re, im) pairs")
        out[k] = " ".join(matrix).translate(str.maketrans("(),", "   ")).split()
    # every block parses before the first non-finite one is named
    for k in range(n):
        if not np.all(np.isfinite(out[k])):
            raise ValueError(f"block {k} has non-finite entries")
    return head, out.view(complex).reshape(n, rows, cols)


def _parity_files():
    """Canonical files, non-square blocks and signed zeros among them, each
    with the ``_loads`` arguments of its format."""
    rng = np.random.default_rng(23)
    sigma, chan = random_density(2, rng), random_channel(2, 3, 2, rng)
    rho = np.array([[complex(-0.0, 0.0), 1e-300], [1e-300, 1.0 / 3.0]])
    recovery_fields = serialize._RECOVERY_FIELDS
    return [
        (dumps_state(random_density(3, rng)), "state", ("dim",), False),
        (dumps_state(rho), "state", ("dim",), False),
        (dumps_channel(chan), "channel", ("mode", "dim_in", "dim_out", "kraus"), True),
        (dumps_recovery(universal_recovery(sigma, chan)), "recovery", recovery_fields, True),
        (_recovery_text(), "recovery", recovery_fields, True),
    ]


PARITY_FILES = _parity_files()
PARITY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# layouts other than the canonical ``(re, im) (re, im)`` that a row may take
_RELAYOUTS = [
    lambda row, j: row.replace(" ", "\t", j + 1).replace("\t", " ", j),
    lambda row, j: row.replace(" ", "  ", j + 1).replace("  ", " ", j),
    lambda row, j: " " * (j + 1) + row,
    lambda row, j: row + " " * (j + 1),
    lambda row, j: row.replace(", ", ","),
    lambda row, j: row.replace("(", "( ").replace(")", " )").replace(", ", " , "),
    lambda row, j: row.replace(" ", "\u00a0\u2003\u3000"[j % 3], j + 1),
]
_EDIT_CHARS = "(), \t0123456789e.-x"


@st.composite
def relaid_files(draw):
    """A canonical file with some of its rows laid out another way."""
    text, *args = draw(st.sampled_from(PARITY_FILES))
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("(")]
    for i in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
        relayout = draw(st.sampled_from(_RELAYOUTS))
        lines[i] = relayout(lines[i], draw(st.integers(0, 3)))
    return "\n".join(lines) + "\n", *args


@st.composite
def edited_files(draw):
    """A canonical file after one to three single-character insertions or
    deletions."""
    text, *args = draw(st.sampled_from(PARITY_FILES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text) - 1))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from(_EDIT_CHARS)) + text[at:]
    return text, *args


def _outcome(loads, text, kind, fields, blocks):
    """The header and the stack's bytes, or the error's type and message."""
    try:
        head, stack = loads(text, kind, fields, blocks)
    except Exception as exc:
        return type(exc), str(exc)
    return head, stack.shape, stack.tobytes()


class TestWholeBlockParity:
    """``_loads`` returns what the row-by-row loader returns, bit for bit,
    and raises where it raises, with the same message."""

    @pytest.mark.parametrize("case", range(len(PARITY_FILES)))
    def test_canonical_files(self, case):
        expected = _outcome(_reference_loads, *PARITY_FILES[case])
        assert isinstance(expected[0], dict)
        assert _outcome(_loads, *PARITY_FILES[case]) == expected

    @PARITY
    @given(relaid_files())
    def test_other_layouts(self, case):
        expected = _outcome(_reference_loads, *case)
        assert isinstance(expected[0], dict)
        assert _outcome(_loads, *case) == expected

    @PARITY
    @given(edited_files())
    def test_single_character_edits(self, case):
        assert _outcome(_loads, *case) == _outcome(_reference_loads, *case)

    def test_canonical_blocks_skip_the_row_regex(self, monkeypatch):
        class Refuse:
            def fullmatch(self, line):
                raise AssertionError("row regex on a canonical block")

        monkeypatch.setattr(serialize, "_ROW", Refuse())
        for case in PARITY_FILES:
            _loads(*case)
        text, *args = PARITY_FILES[2]
        with pytest.raises(AssertionError, match="row regex"):
            _loads(text.replace(", ", ",", 1), *args)
