"""The forked helper that writes or reads the second half of a trace CSV.

write_trace_csv and read_trace_csv split the text of a large trace between
this process and one forked helper. The split must not show: the forked
write equals the one-process write byte for byte, the forked read gives the
values of the line-by-line oracle (oracles.read_trace_rows) bit for bit and
the one-process DataError word for word, and no helper process, part file or
temporary file outlives a call, on success or failure. A failed write leaves
the target's earlier bytes.
"""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmonitor import analytic, cli, evolve, markov, model, sample, traces

import oracles
import test_cli

DATA = Path(__file__).parent / "data"
SWEEP_TAUS = np.linspace(0.0, np.pi, 257)  # the exact_sweep shape: 257 blocks of 257 rows
SWEEP_N = 256
GAMMA = 0.033


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers started, with the size floor and CPU count out of the way."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(traces, "_forks", lambda cells: True)
    return started


def assert_no_leftovers(directory):
    assert not list(Path(directory).glob("*.part"))
    assert not list(Path(directory).glob("*.tmp"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_earlier(path):
    """Write a small one-process trace to path and return its bytes."""
    traces.write_trace_csv(path, ("a", "b"), [0.0], np.array([[[1.0, 0.0], [0.5, 0.5]]]))
    return path.read_bytes()


def write_both(tmp_path, monkeypatch, forks, labels, taus, values, stderrs=None):
    """(bytes of the forked write, bytes of the one-process write)."""
    traces.write_trace_csv(tmp_path / "forked.csv", labels, taus, values, stderrs)
    assert len(forks) == (len(values) > 1)
    assert_no_leftovers(tmp_path)
    with monkeypatch.context() as mp:
        mp.setattr(traces, "_forks", lambda cells: False)
        traces.write_trace_csv(tmp_path / "serial.csv", labels, taus, values, stderrs)
    assert len(forks) == (len(values) > 1)
    return (tmp_path / "forked.csv").read_bytes(), (tmp_path / "serial.csv").read_bytes()


def sweep_trace(engine):
    """(values, stderrs) of one engine on the Bell sweep grid, as simulate writes them."""
    bell = model.build_model("two_qubit_bell")
    if engine == "exact":
        return evolve.run_exact(bell, SWEEP_TAUS, SWEEP_N, GAMMA), None
    if engine == "markov":
        return markov.run_chain(bell, SWEEP_TAUS, SWEEP_N, GAMMA), None
    if engine == "closed_form":
        return analytic.closed_form_trace("two_qubit_bell", SWEEP_TAUS, SWEEP_N, GAMMA), None
    values = sample.run_shots(bell, SWEEP_TAUS, SWEEP_N, GAMMA, shots=1024, seed=7)
    return values, np.sqrt(values * (1.0 - values) / 1024)


class TestWriter:
    @pytest.mark.parametrize("engine", ["exact", "markov", "sample", "closed_form"])
    def test_sweep_shape_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch, forks,
                                                          engine):
        values, stderrs = sweep_trace(engine)
        labels = model.build_model("two_qubit_bell").basis.labels
        forked, serial = write_both(tmp_path, monkeypatch, forks, labels, SWEEP_TAUS, values,
                                    stderrs)
        assert forked == serial
        assert forked.count(b"\n") == 1 + 257 * 257
        assert (b"stderr_3" in forked) == (stderrs is not None)
        # the per-cell writer: one format(x, '.17g') per cell, no distinct values shared
        test_cli.TestTraceCsvFormat.reference(tmp_path / "want.csv", labels, SWEEP_TAUS, values,
                                              stderrs)
        assert forked == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 7])
    def test_odd_and_tiny_grids(self, tmp_path, monkeypatch, forks, blocks):
        taus = np.linspace(0.1, 3.0, blocks)
        values = markov.run_chain(model.build_model("two_qubit_bell"), taus, 9, GAMMA)
        forked, serial = write_both(tmp_path, monkeypatch, forks, ("a", "b", "c", "d"), taus,
                                    values)
        assert forked == serial

    @pytest.mark.parametrize(
        "repeats",
        [
            # blocks 0..3 and their copied columns; the helper starts at block 2
            ((), (0,), (0, 1), ()),  # the middle block changes which columns repeat
            ((), (0, 1, 2), (0, 1, 2), (1,)),  # a whole block repeats across the split
            ((), (), (), ()),
        ],
        ids=["middle_block_changes_the_repeats", "block_repeats_across_the_split", "none"],
    )
    def test_repeated_columns_across_the_split(self, tmp_path, monkeypatch, forks, repeats):
        rows = 6
        rng = np.random.default_rng(5)
        values = np.empty((len(repeats), rows, 3))
        for i, copied in enumerate(repeats):
            values[i] = rng.dirichlet(np.ones(3), size=rows)
            for c in copied:
                values[i, :, c] = values[i - 1, :, c]
        taus = [0.5, 1.0, 1.5, 2.0]
        forked, serial = write_both(tmp_path, monkeypatch, forks, ("a", "b", "c"), taus, values)
        assert forked == serial

    def test_a_failing_helper_fails_the_write_and_leaves_nothing(self, tmp_path, monkeypatch,
                                                                 forks):
        parent = os.getpid()
        write_blocks = traces._write_blocks

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise RuntimeError("the helper fails")
            return write_blocks(*args)

        earlier = write_earlier(tmp_path / "t.csv")
        monkeypatch.setattr(traces, "_write_blocks", failing_in_the_helper)
        values, _ = sweep_trace("markov")
        with pytest.raises(OSError, match="helper writing blocks 128..256 exited with status 1"):
            traces.write_trace_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), SWEEP_TAUS, values)
        assert len(forks) == 1
        assert (tmp_path / "t.csv").read_bytes() == earlier
        assert_no_leftovers(tmp_path)

    def test_a_failing_parent_kills_the_helper_and_leaves_nothing(self, tmp_path, monkeypatch,
                                                                  forks):
        parent = os.getpid()
        write_blocks = traces._write_blocks

        def failing_in_the_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return write_blocks(*args)

        earlier = write_earlier(tmp_path / "t.csv")
        monkeypatch.setattr(traces, "_write_blocks", failing_in_the_parent)
        values, _ = sweep_trace("markov")
        with pytest.raises(KeyboardInterrupt):
            traces.write_trace_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), SWEEP_TAUS, values)
        assert len(forks) == 1
        assert (tmp_path / "t.csv").read_bytes() == earlier
        assert_no_leftovers(tmp_path)

    def test_no_fork_warning_reaches_the_caller(self, tmp_path, forks):
        # Python 3.12+ warns on fork() from a process with threads, as OpenBLAS makes it
        values, _ = sweep_trace("markov")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces.write_trace_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), SWEEP_TAUS, values)
        assert len(forks) == 1

    def test_blas_in_the_helper_does_not_hang(self, tmp_path, monkeypatch, forks):
        # OpenBLAS's thread pool is up in this process at every fork but the first; a
        # helper that deadlocked on one of its locks would never be reaped
        import signal

        bell = model.build_model("two_qubit_bell")
        engines = [evolve.run_exact, markov.run_chain]
        want = [sweep_trace("exact")[0], sweep_trace("markov")[0]]

        def timeout(signum, frame):
            raise TimeoutError("a forked sweep-shape write took over 30 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for i in range(20):
                    engine = engines[i % 2]
                    signal.setitimer(signal.ITIMER_REAL, 30.0)
                    traces.write_trace_csv(
                        tmp_path / f"{i % 2}.csv", bell.basis.labels, SWEEP_TAUS,
                        lambda start, stop: engine(bell, SWEEP_TAUS[start:stop], SWEEP_N, GAMMA),
                        rows=SWEEP_N + 1,
                    )
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                    assert len(forks) == i + 1
                    assert_no_leftovers(tmp_path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for i, values in enumerate(want):
            with monkeypatch.context() as mp:
                mp.setattr(traces, "_forks", lambda cells: False)
                traces.write_trace_csv(tmp_path / "serial.csv", bell.basis.labels, SWEEP_TAUS,
                                       values)
            assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


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


def simulate_csv(tmp_path, forks, model_name, engine, tau_count, n_max, *extra):
    """The CSV of one simulate run; forks then lists only the helpers started after it."""
    argv = ["simulate", "--model", model_name, "--engine", engine, "--tau-count", tau_count,
            "--n-max", n_max, "--out", tmp_path, *extra]
    assert cli.main([str(a) for a in argv]) == 0
    forks.clear()
    return tmp_path / f"{cli._model_key(str(model_name))}_{engine}.csv"


def chain_csv(tmp_path, forks, tau_count=17, n_max=60):
    return simulate_csv(tmp_path, forks, DATA / "chain_dim8_seed67.json", "markov", tau_count,
                        n_max)


def read_outcome(path, read=cli.read_trace_csv):
    try:
        labels, taus, values = read(path)
    except cli.DataError as exc:
        return ("error", str(exc))
    return ("ok", labels, [tau.hex() for tau in taus], values.shape, values.tobytes())


def line_parser_outcome(path):
    """The outcome of the line-by-line oracle parser."""
    return read_outcome(path, oracles.read_trace_rows)


def second_half_line(path):
    """The 1-based number of a body line that the helper reads, with its text."""
    lines, split, _ = traces._count_lines(path)
    assert 1 < split < lines
    number = (split + lines) // 2 + 1
    return number, path.read_text().splitlines()[number - 1]


class TestReader:
    @pytest.mark.parametrize("tau_count, n_max", [(17, 60), (8, 33), (1, 200)])
    def test_values_are_the_line_parsers(self, tmp_path, forks, tau_count, n_max):
        path = chain_csv(tmp_path, forks, tau_count, n_max)
        got = read_outcome(path)
        assert len(forks) == 1
        assert got[0] == "ok" and got[3] == (tau_count, n_max + 1, 8)
        assert got == line_parser_outcome(path)
        assert_no_leftovers(tmp_path)

    def test_stderr_columns(self, tmp_path, forks):
        path = simulate_csv(tmp_path, forks, "two_qubit_bell", "sample", 33, 40, "--shots", 64)
        got = read_outcome(path)
        assert len(forks) == 1 and got[0] == "ok"
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
    def test_a_bad_line_in_the_helpers_half_gives_the_serial_error(self, tmp_path, monkeypatch,
                                                                   forks, edit, message):
        path = chain_csv(tmp_path, forks)
        number, line = second_half_line(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[number - 1] = edit(*line.split(",", 2)) + "\n"
        path.write_text("".join(lines))
        got = read_outcome(path)
        assert len(forks) == 1
        assert got[0] == "error" and got[1].startswith(f"{path}:{number}: {message}")
        with monkeypatch.context() as mp:
            mp.setattr(traces, "_forks", lambda cells: False)
            assert read_outcome(path) == got
        assert got == line_parser_outcome(path)
        assert_no_leftovers(tmp_path)

    def test_bytes_that_are_not_utf8_in_the_helpers_half(self, tmp_path, monkeypatch, forks):
        path = chain_csv(tmp_path, forks)
        number, line = second_half_line(path)
        data = path.read_bytes()
        at = data.index(line.encode()) + len(line) - 2
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        got = read_outcome(path)
        assert len(forks) == 1
        assert got[0] == "error" and "not UTF-8 text" in got[1]
        with monkeypatch.context() as mp:
            mp.setattr(traces, "_forks", lambda cells: False)
            assert read_outcome(path) == got
        assert_no_leftovers(tmp_path)

    def test_a_failing_helper_has_its_half_converted_here(self, tmp_path, monkeypatch, forks):
        path = chain_csv(tmp_path, forks)
        want = line_parser_outcome(path)
        parent = os.getpid()
        convert = traces._convert

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise MemoryError
            return convert(*args)

        monkeypatch.setattr(traces, "_convert", failing_in_the_helper)
        assert read_outcome(path) == want
        assert len(forks) == 1
        assert_no_leftovers(tmp_path)

    def test_a_killed_helper_has_its_half_converted_here(self, tmp_path, monkeypatch, forks):
        # a signal, not an exception, ends the helper: this process reads its half again
        import signal

        path = chain_csv(tmp_path, forks)
        parent = os.getpid()
        convert = traces._convert
        halves = []

        def killed_in_the_helper(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            halves.append(len(args[1]))
            return convert(*args)

        monkeypatch.setattr(traces, "_convert", killed_in_the_helper)
        got = read_outcome(path)
        assert len(forks) == 1 and len(halves) == 2 and sum(halves) == 17 * 61
        assert got == line_parser_outcome(path)
        assert_no_leftovers(tmp_path)


class TestWhenToFork:
    def test_the_size_floor(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert not traces._forks(traces._FORK_MIN_CELLS - 1)
        assert traces._forks(traces._FORK_MIN_CELLS)

    def test_one_cpu_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert not traces._forks(10 * traces._FORK_MIN_CELLS)

    def test_no_fork_stays_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert not traces._forks(10 * traces._FORK_MIN_CELLS)

    def test_the_noise_roundtrip_csvs_stay_serial(self):
        # 33 taus x 33 rows of tau, n, 4 outcomes and 4 stderr columns
        assert 33 * 33 * 10 < traces._FORK_MIN_CELLS

    def test_a_sweep_command_leaves_no_helper_and_no_part_file(self, tmp_path, monkeypatch):
        started = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: started.append(1) or real_fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["simulate", "--model", "two_qubit_bell", "--engine", "exact", "--tau-count",
                257, "--n-max", 256, "--gamma", GAMMA, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 0
        argv = ["render", tmp_path / "two_qubit_bell_exact.csv", "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 0
        assert len(started) == 2  # the write and the read
        assert_no_leftovers(tmp_path)


class TestSimulateSplit:
    """simulate's exact, markov and closed_form engines run inside the split write.

    Each process computes and writes its own half of the grid; sample, whose
    one random stream covers the whole grid, runs first. A failure in either
    half looks like the one-process run's: its exit code, its stderr line,
    the earlier outputs, and no helper, part file or temporary file.
    """

    TAUS, N_MAX = 9, 12  # halves of 4 and 5 grid points, 13 rows each

    def simulate(self, capsys, out, model_name="two_qubit_bell", engine="exact"):
        """(exit code, stderr, {file name: bytes}) of one simulate run into out."""
        argv = ["simulate", "--model", model_name, "--engine", engine, "--tau-count",
                self.TAUS, "--n-max", self.N_MAX, "--gamma", GAMMA, "--out", out]
        capsys.readouterr()
        code = cli.main([str(a) for a in argv])
        files = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
        return code, capsys.readouterr().err, files

    def serial(self, monkeypatch, capsys, out, *args):
        with monkeypatch.context() as mp:
            mp.setattr(traces, "_forks", lambda cells: False)
            return self.simulate(capsys, out, *args)

    @pytest.mark.parametrize("engine, model_name", [
        *((engine, name) for engine in ("exact", "markov", "closed_form")
          for name in analytic.CLOSED_FORMS),
        *((engine, str(path)) for engine in ("exact", "markov")
          for path in sorted(DATA.glob("*.json"))),
    ])
    def test_each_process_computes_and_writes_its_half(self, tmp_path, monkeypatch, capsys,
                                                       forks, engine, model_name):
        parent, grids = os.getpid(), []
        closed_form_trace = analytic.closed_form_trace
        run_chain, run_exact = markov.run_chain, evolve.run_exact

        def spy(run):
            def engine_call(m, taus, *args):  # m is the model name for closed_form_trace
                if os.getpid() == parent:
                    grids.append(len(taus))
                return run(m, taus, *args)
            return engine_call

        monkeypatch.setattr(evolve, "run_exact", spy(run_exact))
        monkeypatch.setattr(markov, "run_chain", spy(run_chain))
        monkeypatch.setattr(analytic, "closed_form_trace", spy(closed_form_trace))
        forked = self.simulate(capsys, tmp_path, model_name, engine)
        assert forked[0] == 0 and grids == [self.TAUS // 2] and len(forks) == 1
        assert_no_leftovers(tmp_path)
        grids.clear()
        assert self.serial(monkeypatch, capsys, tmp_path, model_name, engine) == forked
        assert grids == [self.TAUS] and len(forks) == 1

    def test_sample_draws_the_whole_grid_first(self, tmp_path, monkeypatch, forks):
        calls = []
        run_shots = sample.run_shots
        monkeypatch.setattr(sample, "run_shots",
                            lambda m, taus, *args, **kw: calls.append(len(taus))
                            or run_shots(m, taus, *args, **kw))
        argv = ["simulate", "--model", "two_qubit_bell", "--engine", "sample", "--tau-count",
                257, "--n-max", 256, "--gamma", GAMMA, "--seed", 7, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 0
        assert calls == [257] and len(forks) == 1
        # the CSV is the one-process write of the whole grid's one stream
        bell = model.build_model("two_qubit_bell")
        values = run_shots(bell, SWEEP_TAUS, SWEEP_N, GAMMA, shots=8192, seed=7)
        stderrs = np.sqrt(values * (1.0 - values) / 8192)
        monkeypatch.setattr(traces, "_forks", lambda cells: False)
        traces.write_trace_csv(tmp_path / "want.csv", bell.basis.labels, SWEEP_TAUS, values,
                               stderrs)
        got = (tmp_path / "two_qubit_bell_sample.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad", [[2], [6], [2, 6], [3, 4], [8]],
                             ids=["parents_half", "helpers_half", "both", "across", "last"])
    def test_an_engine_failure_in_either_half_reads_as_in_one_process(
            self, tmp_path, monkeypatch, capsys, forks, bad):
        out = tmp_path / "out"
        earlier = self.simulate(capsys, out)
        assert earlier[0] == 0
        forks.clear()
        grid = np.linspace(0.0, np.pi, self.TAUS)
        run_exact = evolve.run_exact

        def failing(m, taus, *args):
            rows = run_exact(m, taus, *args)
            rows[np.isin(taus, grid[bad]), 1, 0] = np.nan
            return traces.check_trace(rows, taus)

        monkeypatch.setattr(evolve, "run_exact", failing)
        forked = self.simulate(capsys, out)
        assert len(forks) == 1
        assert_no_leftovers(out)
        assert forked == self.serial(monkeypatch, capsys, out)
        assert forked == (4, f"numerical failure: tau={grid[bad[0]]}: trace has non-finite "
                             f"entries\n", earlier[2])

    @pytest.mark.parametrize("engine, failing_rows", [
        ("exact", 4), ("exact", 5), ("exact", 9), ("markov", 4), ("markov", 5), ("markov", 9),
        ("sample", 9),  # sample allocates its whole grid, before the write
    ])
    def test_a_failed_allocation_exits_2_with_the_traces_size(
            self, tmp_path, monkeypatch, capsys, forks, engine, failing_rows):
        # rows 4: this process's half; 5: the helper's half; 9: the one-process grid
        out = tmp_path / "out"
        earlier = self.simulate(capsys, out, "two_qubit_bell", engine)
        forks.clear()
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if shape == (failing_rows, self.N_MAX + 1, 4):
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        if failing_rows == self.TAUS:
            got = self.serial(monkeypatch, capsys, out, "two_qubit_bell", engine)
        else:
            got = self.simulate(capsys, out, "two_qubit_bell", engine)
        assert len(forks) == (failing_rows < self.TAUS)
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
