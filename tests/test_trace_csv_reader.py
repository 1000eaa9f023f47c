"""The one trace CSV reader: the writer's layout in, every value out bit for bit.

read_trace_csv accepts one layout, the one write_trace_csv writes, and
parses it in chunks straight into one array. Any other file is a DataError
that names its first bad line and the rule it breaks. The line-by-line
parser in oracles.read_trace_rows gives the values, and the messages of the
rules it shares with the reader.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from qmonitor import cli, traces

DATA = Path(__file__).parent / "data"


def outcome(path, read=cli.read_trace_csv):
    try:
        labels, taus, values = read(path)
    except cli.DataError as exc:
        return ("error", str(exc))
    assert len(values) == len(taus)
    return (
        "ok",
        labels,
        [tau.hex() for tau in taus],
        [block.shape for block in values],
        [block.tobytes() for block in values],
    )


def simulate(tmp_path, model, engine, tau_count, n_max, *extra):
    args = ["simulate", "--model", model, "--engine", engine, "--tau-count", tau_count,
            "--n-max", n_max, "--out", tmp_path, *extra]
    assert cli.main([str(a) for a in args]) == 0
    return tmp_path / f"{cli._model_key(str(model))}_{engine}.csv"


# cells that text round trips get wrong first: signed zeros, the smallest subnormal, the
# edge between subnormal and normal floats, and the neighbours of short decimals
TINY = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        float(np.nextafter(2.2250738585072014e-308, 0.0)), 1e-300)
NEIGHBOURS = tuple(float(np.nextafter(x, d)) for x in (0.1, 0.25, 1 / 3) for d in (0.0, 1.0))
TAUS = (*TINY, 1e308, -1e308, float(np.finfo(float).max), np.pi, *NEIGHBOURS)
CELLS = st.one_of(st.sampled_from(TINY + NEIGHBOURS), st.floats(0.0, 0.2))
STDERRS = st.one_of(st.sampled_from(TAUS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def traces_to_write(draw):
    """(taus, (T, R, N) outcome distributions, a matching stderr stack or None)."""
    t, r, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    # unique as floats, with 0.0 == -0.0: the reader reads a repeated tau as a repeated block
    taus = draw(st.lists(st.one_of(st.sampled_from(TAUS), st.floats(allow_nan=False)),
                         min_size=t, max_size=t, unique_by=lambda x: x + 0.0))
    cells = np.array(draw(st.lists(CELLS, min_size=t * r * n, max_size=t * r * n)))
    values = cells.reshape(t, r, n)
    values[..., -1] = 1.0 - values[..., :-1].sum(axis=-1)  # each row sums to 1 within an ulp
    stderrs = None
    if draw(st.booleans()):
        stderrs = np.array(draw(st.lists(STDERRS, min_size=t * r * n, max_size=t * r * n)))
        stderrs = stderrs.reshape(t, r, n)
    return taus, values, stderrs


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=traces_to_write())
def test_a_written_trace_reads_back_bit_for_bit(tmp_path, trace):
    taus, values, stderrs = trace
    labels = tuple(f"s{k}" for k in range(values.shape[2]))
    path = tmp_path / "trace.csv"
    traces.write_trace_csv(path, labels, taus, values, stderrs)
    got_labels, got_taus, got = cli.read_trace_csv(path)
    assert got_labels == list(labels)
    assert [tau.hex() for tau in got_taus] == [float(tau).hex() for tau in taus]
    assert got.shape == values.shape and got.tobytes() == values.tobytes()
    if stderrs is not None:  # the reader drops them; their text still round trips
        text = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        want = stderrs.reshape(-1, values.shape[2])
        assert text[:, 2 + values.shape[2]:].tobytes() == want.tobytes()


class TestSimulateCsvs:
    @pytest.mark.parametrize("name", ["chain_dim8_seed67", "chain_dim16_seed0", "ring3_complex"])
    def test_fixture_markov_csvs(self, tmp_path, name):
        path = simulate(tmp_path, DATA / f"{name}.json", "markov", 9, 40)
        got = outcome(path)
        assert got[0] == "ok"
        assert got == outcome(path, oracles.read_trace_rows)

    def test_sample_csv_with_stderr_columns(self, tmp_path):
        path = simulate(tmp_path, "single_qubit", "sample", 5, 8, "--shots", 64)
        assert "stderr_1" in path.read_text().splitlines()[0]
        got = outcome(path)
        assert got[0] == "ok"
        assert got == outcome(path, oracles.read_trace_rows)

    def test_quoted_label_in_header(self, tmp_path):
        rows = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]])
        path = tmp_path / "quoted.csv"
        traces.write_trace_csv(path, ("g", "e,1"), [0.0, 1 / 3], np.stack([rows, rows[:, ::-1]]))
        assert path.read_text().startswith('tau,n,g,"e,1"\n')
        got = outcome(path)
        assert got[1] == ["g", "e,1"]
        assert got[4] == [rows.tobytes(), rows[:, ::-1].tobytes()]

    def test_file_longer_than_a_chunk(self, tmp_path):
        n_max = 300
        path = simulate(tmp_path, DATA / "chain_dim8_seed67.json", "markov", 17, n_max)
        assert 17 * (n_max + 1) > traces._CHUNK_ROWS
        assert traces._CHUNK_ROWS % (n_max + 1) != 0  # a block straddles the chunk edge
        got = outcome(path)
        assert got[0] == "ok" and len(got[2]) == 17
        assert got == outcome(path, oracles.read_trace_rows)


BASE = (
    "tau,n,a,b\n"
    "0.5,0,1,0\n"
    "0.5,1,0.75,0.25\n"
    "0.5,2,0.5,0.5\n"
    "1,0,1,0\n"
    "1,1,0.25,0.75\n"
    "1,2,0.5,0.5\n"
)
ROWS = BASE.splitlines(keepends=True)
# BASE with stderr columns, which the reader checks by name and counts, but never converts
STDERR = "".join(
    row.replace("\n", ",stderr_0,stderr_1\n" if k == 0 else ",0.125,0.25\n")
    for k, row in enumerate(ROWS)
)
CONTIGUOUS = "n values must be contiguous from 0"
CARRIAGE_RETURN = "a carriage return; lines end with \\n alone"


class NumpyWords(str):
    """An error's line prefix; the rest is numpy's words, which its releases may change."""


# name -> (file text, the reader's verdict: None when it reads the file, else its error)
DEVIATIONS = {
    "short_row": (BASE.replace("0.5,1,0.75,0.25", "0.5,1,0.75"), "trace.csv:3: too few columns"),
    "extra_trailing_column": (BASE.replace("0.5,1,0.75,0.25", "0.5,1,0.75,0.25,9"),
                              "trace.csv:3: too many columns"),
    "n_written_as_float": (BASE.replace("0.5,1,", "0.5,1.0,"),
                           "trace.csv:3: invalid literal for int() with base 10: '1.0'"),
    "n_with_leading_space": (BASE.replace("0.5,1,", "0.5, 1,"), None),
    "non_contiguous_n": (BASE.replace("0.5,2,", "0.5,3,"), f"trace.csv:4: {CONTIGUOUS}"),
    "interleaved_taus": ("".join(ROWS[:1] + [ROWS[k] for k in (1, 4, 2, 5, 3, 6)]),
                         f"trace.csv:4: {CONTIGUOUS}"),
    "repeated_tau_block": (BASE + "".join(ROWS[1:4]), f"trace.csv:8: {CONTIGUOUS}"),
    "tau_changes_mid_block": (BASE.replace("0.5,2,", "0.7,2,"), f"trace.csv:4: {CONTIGUOUS}"),
    "unequal_blocks": ("".join(ROWS[:-1]), "trace.csv: tau blocks have differing n ranges"),
    # a short last block is checked row by row like the full ones
    "short_last_block_out_of_place": (BASE + "2,5,1,0\n", f"trace.csv:8: {CONTIGUOUS}"),
    "short_last_block_repeats_a_tau": (BASE + "".join(ROWS[1:3]), f"trace.csv:8: {CONTIGUOUS}"),
    # an extra field then a missing one: the cells still tile a valid array
    "misaligned_rows": ("tau,n,a,b\n1,0,1,0,1\n1,0.25,0.75\n", "trace.csv:3: too few columns"),
    "crlf_line_endings": (BASE.replace("\n", "\r\n"), f"trace.csv:1: {CARRIAGE_RETURN}"),
    "blank_final_line": (BASE + "\n", "trace.csv:8: too few columns"),
    "nan_cell": (BASE.replace("1,1,0.25,", "1,1,nan,"),
                 "trace.csv: tau=1.0: trace has non-finite entries"),
    "tau_spelled_two_ways": (BASE.replace("0.5,2,", "5e-1,2,"), None),
    "no_final_newline": (BASE.rstrip("\n"), None),
    "n_with_leading_zero": (BASE.replace("1,2,", "1,02,"), None),
    "header_ends_in_carriage_return": (BASE.replace("b\n", "b\r", 1),
                                       f"trace.csv:1: {CARRIAGE_RETURN}"),
    "stderr_columns": (STDERR, None),
    "malformed_stderr_cell": (STDERR.replace("0.75,0.125,0.25\n1,2", "0.75,x,0.25\n1,2"), None),
    "nan_stderr_cell": (STDERR.replace("0.5,2,0.5,0.5,0.125,", "0.5,2,0.5,0.5,nan,"), None),
    "missing_stderr_cell": (STDERR.replace("1,1,0.25,0.75,0.125,0.25", "1,1,0.25,0.75,0.125"),
                            "trace.csv:6: too few columns"),
    # float() reads these spellings, numpy's parser does not
    "underscore": (BASE.replace("\n1,", "\n1_0,"), NumpyWords("trace.csv:5: ")),
    "arabic_indic_digit": (BASE.replace("1,1,0.25,", "1,1,٠.25,"), NumpyWords("trace.csv:6: ")),
    # numpy strips the separators \x1c-\x1f around a number, which float() rejects
    "separator_x1c": (BASE.replace("0.5,1,0.75,", "0.5,1,0.75\x1c,"), None),
}


@pytest.mark.parametrize("name", sorted(DEVIATIONS))
def test_the_verdict_on_each_deviation(tmp_path, name):
    text, error = DEVIATIONS[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    got = outcome(path)
    if error is None:
        # the labels, taus and values of the file it deviates from
        want = path.with_name("want.csv")
        want.write_bytes((STDERR if "stderr" in name else BASE).encode())
        assert got == outcome(want)
    elif isinstance(error, NumpyWords):
        assert got[0] == "error" and got[1].startswith(f"{path.parent}/{error}")
    else:
        assert got == ("error", f"{path.parent}/{error}")


@pytest.mark.parametrize(
    "name, message",
    [
        ("short_row", "trace.csv:3: too few columns"),
        ("n_written_as_float", "trace.csv:3: invalid literal for int()"),
        ("non_contiguous_n", "trace.csv:4: n values must be contiguous from 0"),
        ("repeated_tau_block", "trace.csv:8: n values must be contiguous from 0"),
        ("tau_changes_mid_block", "trace.csv:4: n values must be contiguous from 0"),
        ("unequal_blocks", "trace.csv: tau blocks have differing n ranges"),
        ("misaligned_rows", "trace.csv:3: too few columns"),
        ("blank_final_line", "trace.csv:8: too few columns"),
        ("nan_cell", "trace.csv: tau=1.0: trace has non-finite entries"),
    ],
)
def test_errors_name_the_line(tmp_path, name, message):
    path = tmp_path / "trace.csv"
    path.write_bytes(DEVIATIONS[name][0].encode())
    with pytest.raises(cli.DataError) as info:
        cli.read_trace_csv(path)
    assert message in str(info.value)


def chain_lines(tmp_path, tau_count=17, n_max=60):
    """(path, lines) of a markov CSV of the dimension-8 fixture."""
    path = simulate(tmp_path, DATA / "chain_dim8_seed67.json", "markov", tau_count, n_max)
    return path, path.read_text().splitlines(keepends=True)


def read_with_lines(path, lines, edits):
    """The reader's outcome once the 1-based lines in edits are replaced by their texts."""
    lines = list(lines)
    for number, text in edits.items():
        lines[number - 1] = text
    path.write_text("".join(lines))
    return outcome(path)


class TestBadLines:
    # body line 1 is file line 2, so a chunk's last line is its first line + CHUNK - 1
    CHUNK = traces._CHUNK_ROWS

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("step", [-1, 0, 1, 2])
    def test_a_bad_line_at_a_chunk_edge_is_named(self, tmp_path, step, chunk):
        path, lines = chain_lines(tmp_path, n_max=80)
        # the last line of the first or the second chunk; the first starts at file line 2
        number = 2 + chunk * self.CHUNK - 1 + step
        assert number < len(lines)
        tau, n, rest = lines[number - 1].split(",", 2)
        got = read_with_lines(path, lines, {number: f"{tau},{n}.0,{rest}"})
        assert got == ("error", f"{path}:{number}: invalid literal for int() with base 10: "
                                f"'{n}.0'")

    def test_the_first_chunk_with_a_bad_line_is_named_first(self, tmp_path):
        # a row too long at the end of the first chunk, a short one at the start of the next
        path, lines = chain_lines(tmp_path)
        edge = self.CHUNK + 1
        got = read_with_lines(path, lines, {edge: lines[edge - 1][:-1] + ",0\n",
                                            edge + 1: "0.5,0\n"})
        assert got[0] == "error"
        assert got == ("error", f"{path}:{edge}: too many columns")

    def test_a_carriage_return_is_named_by_its_line(self, tmp_path):
        path, lines = chain_lines(tmp_path)
        got = read_with_lines(path, lines, {700: lines[699].replace("\n", "\r\n")})
        assert got == ("error", f"{path}:700: {CARRIAGE_RETURN}")

    @pytest.mark.parametrize("spelling", ["1.0", "1.5"])
    def test_n_read_through_float_is_named_on_every_numpy(self, tmp_path, monkeypatch,
                                                          spelling):
        # numpy from 1.23 until it dropped the fallback reads an integer field through
        # float, truncated, with only a DeprecationWarning; when that warning is an error,
        # its C parser raises a ValueError from it. This loadtxt does the same.
        real = np.loadtxt

        def loadtxt(lines, **kwargs):
            lines = list(lines)
            truncated = [re.sub(r"^([^,]*),(\d+)\.\d+,", r"\1,\2,", line) for line in lines]
            if truncated != lines:
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string to int64") from exc
            return real(truncated, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path = tmp_path / "trace.csv"
        path.write_text(BASE.replace("0.5,1,", f"0.5,{spelling},"))
        assert outcome(path) == ("error", f"{path}:3: invalid literal for int() with base 10: "
                                          f"'{spelling}'")


# pieces of cell text: spellings float() and numpy's parser read alike, and ones where they part
TOKENS = ("0", "1", "5", "9", "+", "-", ".", "e", "E", "_", " ", "\t", "nan", "inf",
          "Infinity", "0x1p-3", "#", "", "١", "\x1c")
# the taus of two blocks, then the n, a and b cells of their three rows each
FUZZ_CELLS = ("0.5", "2", "0", "1", "0", "1", "0.25", "0.75", "2", "0.5", "0.5",
              "0", "0", "1", "1", "0.75", "0.25", "2", "0.5", "0.5")
# (before, core, after): tokens around the cell, or around the token core put in its place
EDIT = st.tuples(*map(st.sampled_from, (TOKENS, (None, *TOKENS), TOKENS)))


def as_csv(edits):
    cells = list(FUZZ_CELLS)
    for k, (before, core, after) in edits.items():
        cells[k] = before + (cells[k] if core is None else core) + after
    rows = iter(zip(*[iter(cells[2:])] * 3))
    lines = ["tau,n,a,b\n"]
    for tau in cells[:2]:  # one tau spelling per block, so blocks can stay whole
        lines += [",".join((tau, *next(rows))) + "\n" for _ in range(3)]
    return "".join(lines)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.dictionaries(st.integers(0, len(FUZZ_CELLS) - 1), EDIT, min_size=1, max_size=4))
def test_any_cell_spelling_the_reader_accepts_reads_as_float_reads_it(tmp_path, edits):
    text = as_csv(edits)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    got = outcome(path)
    if got[0] == "error":
        assert got[1].startswith(f"{path}:")
    elif "\x1c" not in text:  # numpy strips \x1c around a number, which float() rejects
        assert got == outcome(path, oracles.read_trace_rows)
