"""Peak traced memory of the trace-sized paths: a markov simulate, the trace
reader and the heatmap render each hold every trace value once, a sample
simulate at most twice, and the render never holds the whole SVG.

tracemalloc counts Python objects and numpy buffers alike, so the bounds do
not depend on the machine. Each was fixed from the sizes involved before
the first run.
"""

import tracemalloc
from pathlib import Path

import numpy as np

from qmonitor import cli, render

DATA = Path(__file__).parent / "data"


class ByteCounter:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def traced_peak(fn, *args):
    """(fn(*args), the peak of traced memory during the call in bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_cli_peak(argv):
    """(exit code, traced peak) of cli.main(argv), after an untraced run on a 2-point grid.

    cli imports a command's modules, and numpy.random, when the command first
    runs; the warm-up run loads them, so the peak counts the data the command
    holds and not its code.
    """
    argv = [str(a) for a in argv]
    small = list(argv)
    small[small.index("--tau-count") + 1] = "2"
    assert cli.main(small) == 0
    return traced_peak(cli.main, argv)


def test_markov_simulate_holds_the_trace_once(tmp_path):
    model = DATA / "chain_dim8_seed67.json"
    argv = ["simulate", "--model", model, "--engine", "markov", "--tau-count", 129,
            "--n-max", 256, "--out", tmp_path]
    payload = 129 * 257 * 8 * 8  # every outcome cell as a float64
    code, peak = traced_cli_peak(argv)
    assert code == 0
    assert peak <= 1.3 * payload


def test_reader_holds_the_values_and_keys_once(tmp_path):
    model = DATA / "chain_dim8_seed67.json"
    argv = ["simulate", "--model", model, "--engine", "markov", "--tau-count", 129,
            "--n-max", 256, "--out", tmp_path]
    assert cli.main([str(a) for a in argv]) == 0
    payload = 129 * 257 * (8 + 2) * 8  # every outcome cell and (tau, n) key as a float64
    path = tmp_path / "chain_dim8_seed67_markov.csv"
    (_, _, values), peak = traced_peak(cli.read_trace_csv, path)
    assert values.shape == (129, 257, 8)
    assert peak <= 1.3 * payload


def test_sample_simulate_holds_at_most_two_traces(tmp_path):
    # the probabilities live with the stderr stack while the CSV is written, and with
    # the exact trace while the summary measures the deviation from it
    argv = ["simulate", "--model", "two_qubit_bell", "--engine", "sample", "--tau-count", 257,
            "--n-max", 256, "--gamma", 0.033, "--seed", 7, "--out", tmp_path]
    payload = 257 * 257 * 4 * 8  # every outcome cell as a float64
    code, peak = traced_cli_peak(argv)
    assert code == 0
    assert peak <= 2.3 * payload


def test_heatmap_streams_rows_without_holding_the_document():
    n_taus, n_cols = 257, 1025
    values = np.random.default_rng(3).uniform(0.0, 1.0, (n_taus, n_cols))
    sink = ByteCounter()
    _, peak = traced_peak(
        render.heatmap_svg, sink, list(range(n_cols)), list(np.linspace(0.0, 3.0, n_taus)),
        values, "t",
    )
    assert sink.size > 15_000_000  # the whole document is about 19 MB
    assert peak < 1_000_000


def test_render_holds_a_small_multiple_of_the_float_payload(tmp_path):
    model = DATA / "chain_dim8_seed67.json"
    sim = ["simulate", "--model", model, "--engine", "markov", "--tau-count", 65,
           "--n-max", 512, "--out", tmp_path]
    assert cli.main([str(a) for a in sim]) == 0
    path = tmp_path / "chain_dim8_seed67_markov.csv"
    payload = 65 * 513 * (2 + 8) * 8  # every tau, n and outcome cell as a float64
    argv = ["render", str(path), "--kind", "heatmap", "--column", "1", "--out", str(tmp_path)]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    assert (tmp_path / "chain_dim8_seed67_markov_heatmap_1.svg").stat().st_size > payload / 2
    assert peak < 3 * payload
