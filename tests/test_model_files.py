"""Model files of any size, scale and block structure through every command of cli.main.

A valid file runs through simulate (exact, markov, sample), analyze,
fit-noise and render and exits 0, apart from the documented exceptions:
closed_form on a file exits 2, and fit-noise of a trace that is uniform on
its fit range exits 3. A file with one defect exits 2 or 3. Nothing exits 4
or prints a traceback, and analyze reports the blocks a file was built with.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import cli


def block_model(rng, sizes, scale: float, rotate: bool) -> tuple[dict, list[list[int]]]:
    """A model file's JSON object and its blocks: H = V B V^dag, B block-diagonal.

    B holds a dense complex Hermitian block of each size in sizes, in order,
    scaled so that max|B_ij| = scale. V is a random unitary, or the identity
    without rotate, and psi a random unit vector. H is made exactly Hermitian.
    """
    dim = sum(sizes)
    b = np.zeros((dim, dim), dtype=complex)
    blocks, start = [], 0
    for size in sizes:
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        b[start:start + size, start:start + size] = a + a.conj().T
        blocks.append(list(range(start, start + size)))
        start += size
    b *= scale / np.max(np.abs(b))
    if rotate:
        v = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    else:
        v = np.eye(dim, dtype=complex)
    h = v @ b @ v.conj().T
    h = (h + h.conj().T) / 2
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    spec = {
        "hamiltonian": {"re": h.real.tolist(), "im": h.imag.tolist()},
        "basis": {"re": v.real.tolist(), "im": v.imag.tolist()},
        "initial_state": {"re": psi.real.tolist(), "im": psi.imag.tolist()},
    }
    return spec, blocks


def run(argv) -> tuple[int, str]:
    """(exit code, stderr) of cli.main(argv), with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


GRID = ["--tau-count", 9, "--n-max", 8]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e2, 1e4, 1e5, 1e6])
def test_the_hamiltonian_blocks_do_not_depend_on_the_units_of_h(tmp_path, scale):
    # rounding in V^dag H V grows as eps max|H_ij|, past an absolute 1e-10 from about 1e5
    for seed in range(5):
        spec, blocks = block_model(np.random.default_rng(seed), (5, 2, 1), scale, rotate=True)
        path = tmp_path / f"m{seed}.json"
        path.write_text(json.dumps(spec))
        assert run(["analyze", "--model", path, "--tau-count", 3, "--out", tmp_path]) == (0, "")
        report = json.loads((tmp_path / f"analyze_m{seed}.json").read_text())
        assert report["results"]["hamiltonian_blocks"] == blocks, seed


@st.composite
def model_files(draw):
    """(spec, blocks): dimensions 1-16, max|B_ij| from 1e-6 to 1e6, blocks or one block."""
    dim = draw(st.integers(1, 16), label="dim")
    if draw(st.booleans(), label="blocks"):
        sizes = []
        while sum(sizes) < dim:
            sizes.append(draw(st.integers(1, dim - sum(sizes))))
    else:
        sizes = [dim]
    scale = 10.0 ** draw(st.floats(-6.0, 6.0), label="log10 scale")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return block_model(rng, sizes, scale, rotate=draw(st.booleans(), label="rotate"))


def _mutate(spec: dict, defect: str) -> dict:
    """spec with one defect: the model it describes is invalid."""
    spec = json.loads(json.dumps(spec))
    dim = len(spec["initial_state"]["re"])
    scale = max(abs(x) for row in spec["hamiltonian"]["re"] for x in row) or 1.0
    if defect == "non_hermitian":
        spec["hamiltonian"]["im"][0][dim - 1] += scale
    elif defect == "non_unitary":
        spec["basis"]["re"] = (1.5 * np.array(spec["basis"]["re"])).tolist()
        spec["basis"]["im"] = (1.5 * np.array(spec["basis"]["im"])).tolist()
    elif defect == "unnormalised":
        spec["initial_state"]["re"] = [2.0 * x for x in spec["initial_state"]["re"]]
        spec["initial_state"]["im"] = [2.0 * x for x in spec["initial_state"]["im"]]
    elif defect == "nan":
        spec["hamiltonian"]["re"][dim - 1][0] = float("nan")
    elif defect == "reserved_label":
        spec["labels"] = ["tau", *(f"s{k}" for k in range(1, dim))]
    elif defect == "repeated_label":
        spec["labels"] = ["s"] * dim if dim > 1 else ["n"]  # one label cannot repeat
    else:
        del spec[defect]
    return spec


DEFECTS = ("non_hermitian", "non_unitary", "unnormalised", "nan", "reserved_label",
           "repeated_label", "hamiltonian", "initial_state")


@settings(max_examples=30, deadline=None)
@given(model_files(), st.sampled_from(DEFECTS))
def test_every_model_file_runs_through_every_command(case, defect):
    spec, blocks = case
    dim = sum(map(len, blocks))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "m.json"
        path.write_text(json.dumps(spec))
        for engine in ("exact", "markov", "sample"):
            argv = ["simulate", "--model", path, "--engine", engine, *GRID, "--gamma", 0.05,
                    "--shots", 64, "--out", out]
            assert run(argv) == (0, ""), engine
        code, err = run(["simulate", "--model", path, "--engine", "closed_form", *GRID,
                         "--out", out])
        assert code == 2 and err.startswith("config error: engine closed_form supports")
        assert run(["analyze", "--model", path, *GRID, "--out", out]) == (0, "")
        report = json.loads((out / "analyze_m.json").read_text())
        assert report["results"]["hamiltonian_blocks"] == blocks
        for engine in ("exact", "sample"):
            code, err = run(["fit-noise", out / f"m_{engine}.csv", "--model", path,
                             "--out", out])
            assert code == 0 or (code == 3 and "uniform on the fit range" in err), (code, err)
            assert code == 0 or dim == 1, err  # only a dimension-1 trace is always uniform
        assert run(["render", out / "m_markov.csv", "--out", out]) == (0, "")
        assert run(["render", out / "m_exact.csv", "--kind", "rho_grid", "--model", path,
                    "--n", 1, "--tau", 0, "--out", out]) == (0, "")

        path.write_text(json.dumps(_mutate(spec, defect)))
        for argv in (["simulate", "--model", path, *GRID, "--out", out],
                     ["analyze", "--model", path, *GRID, "--out", out],
                     ["fit-noise", out / "m_exact.csv", "--model", path, "--out", out],
                     ["render", out / "m_exact.csv", "--kind", "rho_grid", "--model", path,
                      "--n", 1, "--tau", 0, "--out", out]):
            code, err = run(argv)
            assert code in (2, 3) and "Traceback" not in err, (defect, argv[0], code, err)
