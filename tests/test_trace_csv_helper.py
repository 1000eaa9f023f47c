"""The trace CSV, written and read in one process with the grid in bounded chunks.

write_trace_csv asks a source of blocks for consecutive ranges of the grid
of at most traces._CHUNK_CELLS written cells: simulate's exact, markov and
closed_form engines compute one range at a time inside the write, and
sample slices the trace it drew and adds the range's stderr columns. The
ranges must not show: every chunk size writes the bytes of the per-cell
writer (test_cli.TestTraceCsvFormat.reference), an error in any range fails
the write and the command as a one-call run would, and leaves the target's
earlier bytes and no temporary file. No command starts a process, and a
computed trace is held one chunk at a time. The reader gives the values of
the line-by-line oracle (oracles.read_trace_rows) bit for bit.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from qmonitor import analytic, cli, evolve, model, sample, traces

import oracles
import test_cli
from conftest import write_stack
from test_render_memory import traced_cli_peak

DATA = Path(__file__).parent / "data"
SWEEP_TAUS = np.linspace(0.0, np.pi, 257)  # the exact_sweep shape: 257 blocks of 257 rows
SWEEP_N = 256
GAMMA = 0.033
BELL = model.build_model("two_qubit_bell")
# grid points per chunk: one, two, seven and the whole sweep grid
POINTS = [1, 2, 7, 257]


def assert_no_leftovers(directory):
    assert not list(Path(directory).rglob("*.tmp"))


def set_chunk(monkeypatch, points, rows, width):
    """Make a chunk hold exactly this many grid points of rows x width written cells."""
    monkeypatch.setattr(traces, "_CHUNK_CELLS", points * rows * width)


def write_earlier(path):
    """Write a small trace to path and return its bytes."""
    write_stack(path, ("a", "b"), [0.0], np.array([[[1.0, 0.0], [0.5, 0.5]]]))
    return path.read_bytes()


def reference_bytes(path, labels, taus, values, stderrs=None):
    """The bytes of the per-cell writer, one format(x, '.17g') per cell."""
    test_cli.TestTraceCsvFormat.reference(path, labels, taus, values, stderrs)
    return path.read_bytes()


def run_engine(engine, taus):
    """One engine on the Bell model over taus, as simulate calls it."""
    if engine in ("exact", "markov"):
        return evolve.run_exact(BELL, taus, SWEEP_N, GAMMA)
    return analytic.closed_form_trace("two_qubit_bell", taus, SWEEP_N, GAMMA)


def sample_trace():
    """(values, stderrs) of sample on the Bell sweep grid, as simulate writes them."""
    values = sample.run_shots(BELL, SWEEP_TAUS, SWEEP_N, GAMMA, shots=1024, seed=7)
    return values, np.sqrt(values * (1.0 - values) / 1024)


@pytest.fixture(scope="module")
def sweep_references(tmp_path_factory):
    """{engine: (the sweep-shape bytes of the per-cell writer, sample's trace or None)}."""
    directory = tmp_path_factory.mktemp("references")
    labels = BELL.basis.labels
    got = {}
    for engine in ("exact", "markov", "closed_form"):
        values = run_engine(engine, SWEEP_TAUS)
        want = reference_bytes(directory / f"{engine}.csv", labels, SWEEP_TAUS, values)
        got[engine] = want, None
    trace = sample_trace()
    got["sample"] = reference_bytes(directory / "sample.csv", labels, SWEEP_TAUS, *trace), trace
    return got


class TestWriter:
    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize("engine", ["exact", "markov", "sample", "closed_form"])
    def test_sweep_shape_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch,
                                                          sweep_references, engine, points):
        want, trace = sweep_references[engine]
        # sample writes a stderr column beside each outcome column, so 8 columns
        set_chunk(monkeypatch, points, SWEEP_N + 1, 4 if trace is None else 8)
        labels = BELL.basis.labels
        ranges = []

        def blocks(start, stop):  # one range at a time, as simulate does
            ranges.append((start, stop))
            if trace is None:
                return run_engine(engine, SWEEP_TAUS[start:stop])
            return np.concatenate([part[start:stop] for part in trace], axis=2)

        traces.write_trace_csv(tmp_path / "t.csv", labels, SWEEP_TAUS, blocks,
                               rows=SWEEP_N + 1, stderr=trace is not None)
        starts = range(0, 257, points)
        assert ranges == [(start, min(start + points, 257)) for start in starts]
        got = (tmp_path / "t.csv").read_bytes()
        assert got.count(b"\n") == 1 + 257 * 257
        assert (b"stderr_3" in got) == (trace is not None)
        assert got == want

    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 7])
    def test_odd_and_tiny_grids(self, tmp_path, monkeypatch, blocks, points):
        set_chunk(monkeypatch, points, 10, 4)
        taus = np.linspace(0.1, 3.0, blocks)
        values = evolve.run_exact(BELL, taus, 9, GAMMA)
        labels = ("a", "b", "c", "d")
        write_stack(tmp_path / "t.csv", labels, taus, values)
        want = reference_bytes(tmp_path / "want.csv", labels, taus, values)
        assert (tmp_path / "t.csv").read_bytes() == want

    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize(
        "repeats",
        [
            # blocks 0..3 and their copied columns; with two points a chunk starts at block 2
            ((), (0,), (0, 1), ()),  # the middle block changes which columns repeat
            ((), (0, 1, 2), (0, 1, 2), (1,)),  # a whole block repeats across the split
            ((), (), (), ()),
        ],
        ids=["middle_block_changes_the_repeats", "block_repeats_across_the_split", "none"],
    )
    def test_repeated_columns_across_the_split(self, tmp_path, monkeypatch, repeats, points):
        rows = 6
        set_chunk(monkeypatch, points, rows, 3)
        rng = np.random.default_rng(5)
        values = np.empty((len(repeats), rows, 3))
        for i, copied in enumerate(repeats):
            values[i] = rng.dirichlet(np.ones(3), size=rows)
            for c in copied:
                values[i, :, c] = values[i - 1, :, c]
        taus = [0.5, 1.0, 1.5, 2.0]
        write_stack(tmp_path / "t.csv", ("a", "b", "c"), taus, values)
        want = reference_bytes(tmp_path / "want.csv", ("a", "b", "c"), taus, values)
        assert (tmp_path / "t.csv").read_bytes() == want

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_range_of_the_wrong_length_raises(self, tmp_path, count):
        earlier = write_earlier(tmp_path / "t.csv")
        rows = np.array([[[1.0, 0.0]]] * count)
        with pytest.raises(ValueError):
            traces.write_trace_csv(tmp_path / "t.csv", ("a", "b"), [0.1, 0.2],
                                   lambda start, stop: rows, rows=1)
        assert (tmp_path / "t.csv").read_bytes() == earlier
        assert_no_leftovers(tmp_path)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_in_a_later_chunk_leaves_the_earlier_bytes(self, tmp_path, monkeypatch,
                                                                error):
        set_chunk(monkeypatch, 2, 10, 4)
        taus = np.linspace(0.1, 3.0, 7)
        ranges = []

        def blocks(start, stop):
            ranges.append((start, stop))
            if start == 4:
                raise error("the third chunk fails")
            return evolve.run_exact(BELL, taus[start:stop], 9, GAMMA)

        earlier = write_earlier(tmp_path / "t.csv")
        with pytest.raises(error, match="the third chunk fails"):
            traces.write_trace_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), taus, blocks,
                                   rows=10)
        assert ranges == [(0, 2), (2, 4), (4, 6)]
        assert (tmp_path / "t.csv").read_bytes() == earlier
        assert_no_leftovers(tmp_path)


class TestReplacing:
    @pytest.mark.parametrize("earlier", [False, True], ids=["absent", "earlier"])
    def test_a_completed_block_moves_the_temp_file_onto_the_path(self, tmp_path, earlier):
        path = tmp_path / "t.csv"
        if earlier:
            path.write_bytes(b"earlier\n")
        with traces.replacing(path) as tmp:
            assert tmp == f"{path}.{os.getpid()}.tmp"
            Path(tmp).write_bytes(b"new\n")
            assert path.exists() == earlier
        assert path.read_bytes() == b"new\n"
        assert_no_leftovers(tmp_path)

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    @pytest.mark.parametrize("earlier", [False, True], ids=["absent", "earlier"])
    def test_a_failed_block_keeps_the_earlier_bytes(self, tmp_path, error, earlier):
        path = tmp_path / "t.csv"
        if earlier:
            path.write_bytes(b"earlier\n")
        with pytest.raises(error):
            with traces.replacing(path) as tmp:
                Path(tmp).write_bytes(b"half")
                raise error
        assert path.read_bytes() == b"earlier\n" if earlier else not path.exists()
        assert_no_leftovers(tmp_path)

    def test_a_block_that_fails_before_writing_raises_its_own_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="before the temp file"):
            with traces.replacing(tmp_path / "t.csv"):
                raise RuntimeError("before the temp file")
        assert list(tmp_path.iterdir()) == []


def simulate_csv(tmp_path, model_name, engine, tau_count, n_max, *extra):
    """The CSV of one simulate run."""
    argv = ["simulate", "--model", model_name, "--engine", engine, "--tau-count", tau_count,
            "--n-max", n_max, "--out", tmp_path, *extra]
    assert cli.main([str(a) for a in argv]) == 0
    return tmp_path / f"{cli._model_key(str(model_name))}_{engine}.csv"


def chain_csv(tmp_path, tau_count=17, n_max=60):
    return simulate_csv(tmp_path, DATA / "chain_dim8_seed67.json", "markov", tau_count, n_max)


def read_outcome(path, read=cli.read_trace_csv):
    try:
        labels, taus, values = read(path)
    except cli.DataError as exc:
        return ("error", str(exc))
    return ("ok", labels, [tau.hex() for tau in taus], values.shape, values.tobytes())


def line_parser_outcome(path):
    """The outcome of the line-by-line oracle parser."""
    return read_outcome(path, oracles.read_trace_rows)


def late_line(path):
    """The 1-based number of a body line past the reader's first chunk, with its text."""
    lines = path.read_text().splitlines()
    number = (traces._CHUNK_ROWS + len(lines)) // 2 + 1
    assert traces._CHUNK_ROWS + 1 < number < len(lines)
    return number, lines[number - 1]


class TestReader:
    @pytest.mark.parametrize("tau_count, n_max", [(17, 60), (8, 33), (1, 200)])
    def test_values_are_the_line_parsers(self, tmp_path, tau_count, n_max):
        path = chain_csv(tmp_path, tau_count, n_max)
        got = read_outcome(path)
        assert got[0] == "ok" and got[3] == (tau_count, n_max + 1, 8)
        assert got == line_parser_outcome(path)
        assert_no_leftovers(tmp_path)

    def test_stderr_columns(self, tmp_path):
        path = simulate_csv(tmp_path, "two_qubit_bell", "sample", 33, 40, "--shots", 64)
        got = read_outcome(path)
        assert got[0] == "ok"
        assert got == line_parser_outcome(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda tau, n, rest: f"{tau},{n}", "too few columns"),
            (lambda tau, n, rest: f"{tau},{n}.0,{rest}", "invalid literal for int()"),
            (lambda tau, n, rest: f"{tau},{n},x{rest}", "could not convert string to float"),
        ],
        ids=["short_row", "n_written_as_float", "bad_cell"],
    )
    def test_a_bad_line_past_the_first_chunk_is_named(self, tmp_path, edit, message):
        path = chain_csv(tmp_path)
        number, line = late_line(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[number - 1] = edit(*line.split(",", 2)) + "\n"
        path.write_text("".join(lines))
        got = read_outcome(path)
        assert got[0] == "error" and got[1].startswith(f"{path}:{number}: {message}")
        assert got == line_parser_outcome(path)
        assert_no_leftovers(tmp_path)

    def test_bytes_that_are_not_utf8_past_the_first_chunk(self, tmp_path):
        path = chain_csv(tmp_path)
        number, line = late_line(path)
        data = path.read_bytes()
        at = data.index(line.encode()) + len(line) - 2
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        got = read_outcome(path)
        assert got[0] == "error" and "not UTF-8 text" in got[1]
        assert_no_leftovers(tmp_path)


def test_no_command_starts_a_process(tmp_path, monkeypatch):
    started = []

    def fork():
        started.append("fork")
        raise OSError("a process was started")

    monkeypatch.setattr(os, "fork", fork)
    for engine in ("exact", "markov", "closed_form", "sample"):
        simulate_csv(tmp_path, "two_qubit_bell", engine, 257, SWEEP_N, "--gamma", GAMMA,
                     "--seed", 7)
    argvs = [
        ["render", tmp_path / "two_qubit_bell_markov.csv", "--out", tmp_path],
        ["fit-noise", tmp_path / "two_qubit_bell_sample.csv", "--model", "two_qubit_bell",
         "--out", tmp_path],
        ["analyze", "--model", "two_qubit_bell", "--tau-count", 257, "--out", tmp_path],
    ]
    for argv in argvs:
        assert cli.main([str(a) for a in argv]) == 0
    assert started == []
    assert_no_leftovers(tmp_path)


class TestSimulateSplit:
    """Every simulate engine is a source of blocks for the chunked write.

    exact, markov and closed_form compute one chunk of the grid at a time;
    sample, whose one random stream covers the whole grid, draws it first
    and writes it one chunk at a time. Any split writes the one-chunk run's
    CSV and summary, and a failure in any chunk looks like the one-chunk
    run's: its exit code, its stderr line, the earlier outputs, and no
    temporary file.
    """

    TAUS, N_MAX = 9, 12  # with two grid points per chunk: 2, 2, 2, 2 and 1 of 13 rows each

    def simulate(self, capsys, out, model_name="two_qubit_bell", engine="exact"):
        """(exit code, stderr, {file name: bytes}) of one simulate run into out."""
        argv = ["simulate", "--model", model_name, "--engine", engine, "--tau-count",
                self.TAUS, "--n-max", self.N_MAX, "--gamma", GAMMA, "--out", out]
        capsys.readouterr()
        code = cli.main([str(a) for a in argv])
        files = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
        return code, capsys.readouterr().err, files

    def chunked(self, monkeypatch, capsys, out, model_name="two_qubit_bell", engine="exact",
                points=2):
        """simulate with this many grid points per chunk of the Bell model's 4 outcome
        columns, and as many stderr columns with sample."""
        with monkeypatch.context() as mp:
            set_chunk(mp, points, self.N_MAX + 1, 8 if engine == "sample" else 4)
            return self.simulate(capsys, out, model_name, engine)

    @pytest.mark.parametrize("points", [1, 2, 4, 8, 9])
    @pytest.mark.parametrize("engine", ["exact", "markov", "closed_form", "sample"])
    def test_every_split_writes_the_one_chunk_csv_and_summary(self, tmp_path, monkeypatch,
                                                               capsys, engine, points):
        grids = []
        write_blocks = traces._write_blocks

        def counting(fh, taus, values):
            grids.append(len(taus))
            write_blocks(fh, taus, values)

        monkeypatch.setattr(traces, "_write_blocks", counting)
        whole = self.simulate(capsys, tmp_path, "two_qubit_bell", engine)
        assert whole[0] == 0 and grids == [self.TAUS]
        grids.clear()
        # into the same directory, which the summary names
        assert self.chunked(monkeypatch, capsys, tmp_path, "two_qubit_bell", engine,
                            points=points) == whole
        assert grids == [min(points, self.TAUS - start) for start in range(0, self.TAUS, points)]

    def test_a_trace_held_one_chunk_at_a_time(self, tmp_path):
        # Bell exact at 257 x 1025 is 18 chunks; the bound was fixed before the first run
        # (a one-process write without chunks held 0.58 x payload, one half of the trace)
        argv = ["simulate", "--model", "two_qubit_bell", "--engine", "exact", "--tau-count",
                257, "--n-max", 1024, "--gamma", GAMMA, "--out", tmp_path]
        payload = 257 * 1025 * 4 * 8  # every outcome cell as a float64
        points = traces._CHUNK_CELLS // (1025 * 4)
        assert -(-257 // points) >= 8
        code, peak = traced_cli_peak(argv)
        assert code == 0
        assert peak <= 0.25 * payload

    def test_the_engine_runs_once_per_chunk(self, tmp_path, monkeypatch, capsys):
        grids = []
        run_exact = evolve.run_exact

        def counting(m, taus, *args):
            grids.append(len(taus))
            return run_exact(m, taus, *args)

        monkeypatch.setattr(evolve, "run_exact", counting)
        chunked = self.chunked(monkeypatch, capsys, tmp_path)
        assert chunked[0] == 0 and grids == [2, 2, 2, 2, 1]
        grids.clear()
        assert self.simulate(capsys, tmp_path) == chunked
        assert grids == [self.TAUS]

    def test_sample_draws_the_whole_grid_first(self, tmp_path, monkeypatch):
        calls = []
        run_shots = sample.run_shots
        monkeypatch.setattr(sample, "run_shots",
                            lambda m, taus, *args, **kw: calls.append(len(taus))
                            or run_shots(m, taus, *args, **kw))
        argv = ["simulate", "--model", "two_qubit_bell", "--engine", "sample", "--tau-count",
                257, "--n-max", 256, "--gamma", GAMMA, "--seed", 7, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 0
        assert calls == [257]
        # the CSV is the per-cell write of the whole grid's one stream
        values = run_shots(BELL, SWEEP_TAUS, SWEEP_N, GAMMA, shots=8192, seed=7)
        stderrs = np.sqrt(values * (1.0 - values) / 8192)
        want = reference_bytes(tmp_path / "want.csv", BELL.basis.labels, SWEEP_TAUS, values,
                               stderrs)
        assert (tmp_path / "two_qubit_bell_sample.csv").read_bytes() == want

    @pytest.mark.parametrize("bad", [[1], [6], [2, 6], [3, 4], [8]],
                             ids=["first_chunk", "later_chunk", "two_chunks", "across", "last"])
    def test_an_engine_failure_in_any_chunk_reads_as_in_one_call(
            self, tmp_path, monkeypatch, capsys, bad):
        out = tmp_path / "out"
        earlier = self.simulate(capsys, out)
        assert earlier[0] == 0
        grid = np.linspace(0.0, np.pi, self.TAUS)
        run_exact = evolve.run_exact

        def failing(m, taus, *args):
            rows = run_exact(m, taus, *args)
            rows[np.isin(taus, grid[bad]), 1, 0] = np.nan
            return traces.check_trace(rows, taus)

        monkeypatch.setattr(evolve, "run_exact", failing)
        chunked = self.chunked(monkeypatch, capsys, out)
        assert_no_leftovers(out)
        assert chunked == self.simulate(capsys, out)
        assert chunked == (4, f"numerical failure: tau={grid[bad[0]]}: trace has non-finite "
                              f"entries\n", earlier[2])

    @pytest.mark.parametrize("engine, failing_rows", [
        ("exact", 2), ("exact", 1), ("exact", 9), ("markov", 2), ("markov", 1), ("markov", 9),
        ("sample", 9),  # sample allocates its whole grid, before the write
    ])
    def test_a_failed_allocation_exits_2_with_the_traces_size(
            self, tmp_path, monkeypatch, capsys, engine, failing_rows):
        # rows 2: the first chunk; 1: the last chunk; 9: the whole grid in one chunk
        out = tmp_path / "out"
        earlier = self.simulate(capsys, out, "two_qubit_bell", engine)
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if shape == (failing_rows, self.N_MAX + 1, 4):
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        if failing_rows == self.TAUS:
            got = self.simulate(capsys, out, "two_qubit_bell", engine)
        else:
            got = self.chunked(monkeypatch, capsys, out, "two_qubit_bell", engine)
        assert got == (2, "config error: not enough memory for the 9 x 13 x 4 trace "
                          "(3744 bytes)\n", earlier[2])
        assert_no_leftovers(out)

    def test_a_trace_past_numpys_sizes_is_refused_before_any_work(self, tmp_path, monkeypatch,
                                                                   capsys):
        monkeypatch.setattr(cli.RunConfig, "tau_grid", None)  # never reached
        argv = ["simulate", "--tau-count", 2**62, "--n-max", 0, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"config error: not enough memory for the {2**62} x 1 x 2 trace ({2**66} bytes)\n")
        assert list(tmp_path.iterdir()) == []
