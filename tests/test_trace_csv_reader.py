"""The chunked array reader of trace CSVs against the line-by-line parser.

read_trace_csv parses a body in the writer's own layout straight into one
array and hands every other body to the line parser. Both must give the
same labels, the same tau order, bitwise-equal traces and the same
DataError text.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmonitor import cli, traces

DATA = Path(__file__).parent / "data"


def outcome(path):
    try:
        labels, taus, values = cli.read_trace_csv(path)
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


def read_both(path, monkeypatch):
    """(reader outcome, line-parser outcome, whether the array path accepted the body)."""
    accepted = []
    fast = traces._read_body_fast

    def spy(*args):
        body = fast(*args)
        accepted.append(body is not None)
        return body

    monkeypatch.setattr(traces, "_read_body_fast", spy)
    got = outcome(path)
    monkeypatch.setattr(traces, "_read_body_fast", lambda *args: None)
    want = outcome(path)
    return got, want, accepted == [True]


def simulate(tmp_path, model, engine, tau_count, n_max, *extra):
    args = ["simulate", "--model", model, "--engine", engine, "--tau-count", tau_count,
            "--n-max", n_max, "--out", tmp_path, *extra]
    assert cli.main([str(a) for a in args]) == 0
    return tmp_path / f"{cli._model_key(str(model))}_{engine}.csv"


class TestSameResults:
    @pytest.mark.parametrize("name", ["chain_dim8_seed67", "chain_dim16_seed0", "ring3_complex"])
    def test_fixture_markov_csvs(self, tmp_path, monkeypatch, name):
        path = simulate(tmp_path, DATA / f"{name}.json", "markov", 9, 40)
        got, want, fast = read_both(path, monkeypatch)
        assert fast and got[0] == "ok"
        assert got == want

    def test_sample_csv_with_stderr_columns(self, tmp_path, monkeypatch):
        path = simulate(tmp_path, "single_qubit", "sample", 5, 8, "--shots", 64)
        assert "stderr_1" in path.read_text().splitlines()[0]
        got, want, fast = read_both(path, monkeypatch)
        assert fast and got[0] == "ok"
        assert got == want

    def test_quoted_label_in_header(self, tmp_path, monkeypatch):
        rows = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]])
        path = tmp_path / "quoted.csv"
        traces.write_trace_csv(path, ("g", "e,1"), [0.0, 1 / 3], np.stack([rows, rows[:, ::-1]]))
        assert path.read_text().startswith('tau,n,g,"e,1"\n')
        got, want, fast = read_both(path, monkeypatch)
        assert fast and got[1] == ["g", "e,1"]
        assert got == want

    def test_file_longer_than_a_chunk(self, tmp_path, monkeypatch):
        n_max = 300
        path = simulate(tmp_path, DATA / "chain_dim8_seed67.json", "markov", 17, n_max)
        assert 17 * (n_max + 1) > traces._CHUNK_ROWS
        assert traces._CHUNK_ROWS % (n_max + 1) != 0  # a block straddles the chunk edge
        got, want, fast = read_both(path, monkeypatch)
        assert fast and len(got[2]) == 17
        assert got == want


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
# BASE with stderr columns, which both parsers check by name and never convert
STDERR = "".join(
    row.replace("\n", ",stderr_0,stderr_1\n" if k == 0 else ",0.125,0.25\n")
    for k, row in enumerate(ROWS)
)

# name -> (file text, whether the array path accepts it, the line parser's verdict)
DEVIATIONS = {
    "short_row": (BASE.replace("0.5,1,0.75,0.25", "0.5,1,0.75"), False, "error"),
    "extra_trailing_column": (BASE.replace("0.5,1,0.75,0.25", "0.5,1,0.75,0.25,9"), False, "ok"),
    "n_written_as_float": (BASE.replace("0.5,1,", "0.5,1.0,"), False, "error"),
    "n_with_leading_space": (BASE.replace("0.5,1,", "0.5, 1,"), False, "ok"),
    "non_contiguous_n": (BASE.replace("0.5,2,", "0.5,3,"), False, "error"),
    "interleaved_taus": ("".join(ROWS[:1] + [ROWS[k] for k in (1, 4, 2, 5, 3, 6)]), False, "ok"),
    "repeated_tau_block": (BASE + "".join(ROWS[1:4]), False, "error"),
    "tau_changes_mid_block": (BASE.replace("0.5,2,", "0.7,2,"), False, "error"),
    "unequal_blocks": ("".join(ROWS[:-1]), False, "error"),
    # an extra field then a missing one: the cells still tile a valid array
    "misaligned_rows": ("tau,n,a,b\n1,0,1,0,1\n1,0.25,0.75\n", False, "error"),
    "crlf_line_endings": (BASE.replace("\n", "\r\n"), False, "ok"),
    "blank_final_line": (BASE + "\n", False, "error"),
    "nan_cell": (BASE.replace("1,1,0.25,", "1,1,nan,"), True, "error"),
    "tau_spelled_two_ways": (BASE.replace("0.5,2,", "5e-1,2,"), True, "ok"),
    "no_final_newline": (BASE.rstrip("\n"), True, "ok"),
    "n_with_leading_zero": (BASE.replace("1,2,", "1,02,"), True, "ok"),
    # the text iterator ends the header at \r, the line count does not: the counts disagree
    "header_ends_in_carriage_return": (BASE.replace("b\n", "b\r", 1), False, "ok"),
    "stderr_columns": (STDERR, True, "ok"),
    "malformed_stderr_cell": (STDERR.replace("0.75,0.125,0.25\n1,2", "0.75,x,0.25\n1,2"), True, "ok"),
    "nan_stderr_cell": (STDERR.replace("0.5,2,0.5,0.5,0.125,", "0.5,2,0.5,0.5,nan,"), True, "ok"),
    "missing_stderr_cell": (STDERR.replace("1,1,0.25,0.75,0.125,0.25", "1,1,0.25,0.75,0.125"),
                            False, "ok"),
}


@pytest.mark.parametrize("name", sorted(DEVIATIONS))
def test_same_outcome_as_the_line_parser(tmp_path, monkeypatch, name):
    text, fast_accepts, verdict = DEVIATIONS[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    got, want, fast = read_both(path, monkeypatch)
    assert fast == fast_accepts
    assert want[0] == verdict
    assert got == want


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


# pieces of cell text: spellings float() and numpy's parser read alike, and ones where they part
TOKENS = ("0", "1", "5", "9", "+", "-", ".", "e", "E", "_", " ", "\t", "nan", "inf",
          "Infinity", "0x1p-3", "#", "", "١", "\x1c")
# the taus of two blocks, then the n, a and b cells of their three rows each
CELLS = ("0.5", "2", "0", "1", "0", "1", "0.25", "0.75", "2", "0.5", "0.5",
         "0", "0", "1", "1", "0.75", "0.25", "2", "0.5", "0.5")
# (before, core, after): tokens around the cell, or around the token core put in its place
EDIT = st.tuples(*map(st.sampled_from, (TOKENS, (None, *TOKENS), TOKENS)))


def as_csv(edits):
    cells = list(CELLS)
    for k, (before, core, after) in edits.items():
        cells[k] = before + (cells[k] if core is None else core) + after
    rows = iter(zip(*[iter(cells[2:])] * 3))
    lines = ["tau,n,a,b\n"]
    for tau in cells[:2]:  # one tau spelling per block, so blocks can stay whole
        lines += [",".join((tau, *next(rows))) + "\n" for _ in range(3)]
    return "".join(lines)


EDITED_CSV = st.dictionaries(st.integers(0, len(CELLS) - 1), EDIT, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITED_CSV)
def test_any_cell_spelling_reads_as_the_line_parser_reads_it(tmp_path, edits):
    path = tmp_path / "trace.csv"
    path.write_bytes(as_csv(edits).encode())
    with pytest.MonkeyPatch.context() as mp:
        got, want, _ = read_both(path, mp)
    assert got == want


@pytest.mark.parametrize(
    "edit, taus",
    [
        (("\n1,", "\n1_0,"), [0.5, 10.0]),  # float() reads underscores, numpy does not
        (("1,1,0.25,", "1,1,٠.25,"), [0.5, 1.0]),  # nor non-ASCII digits
        (("0.5,1,0.75,", "0.5,1,0.75\x1c,"), None),  # float() rejects what numpy strips
    ],
    ids=["underscore", "arabic_indic_digit", "separator_x1c"],
)
def test_spellings_only_one_parser_reads_take_the_line_parser(tmp_path, monkeypatch, edit, taus):
    path = tmp_path / "trace.csv"
    path.write_bytes(BASE.replace(*edit).encode())
    got, want, fast = read_both(path, monkeypatch)
    assert not fast
    assert got == want
    if taus is None:
        assert got[0] == "error"
    else:
        assert got[0] == "ok" and got[2] == [tau.hex() for tau in taus]
