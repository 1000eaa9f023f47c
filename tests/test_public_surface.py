"""The benchmark's traced entry points resolve, and each command loads only the modules
it runs: never dataclasses, whose classes cost every process an exec each."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmonitor import cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_entry_point_resolves(monkeypatch):
    # the tracer rebinds each (module, attr) with getattr, so a missing one breaks every traced run
    path = ROOT / "qmbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_qmbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"qmonitor.{mod}"), attr, None))
    ]
    assert missing == []


def loaded_modules(tmp_path, code) -> set[str]:
    """The qmonitor modules, configparser and dataclasses loaded in a fresh interpreter
    after code runs."""
    report = "import sys; print('\\n' + ' '.join(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.splitlines()[-1].split())
    return {m for m in loaded if m.startswith("qmonitor") or m in ("configparser", "dataclasses")}


def run_cli(tmp_path, *argv) -> str:
    """Code that runs one CLI command, writing into tmp_path."""
    argv = [str(a) for a in (*argv, "--out", tmp_path)]
    return f"from qmonitor import cli; assert cli.main({argv!r}) == 0"


CLI_IMPORTS = {"qmonitor", "qmonitor.cli", "qmonitor.traces", "qmonitor.model", "qmonitor.linalg"}


def test_the_cli_module_loads_only_traces_model_and_linalg(tmp_path):
    assert loaded_modules(tmp_path, "import qmonitor") == {"qmonitor"}
    assert loaded_modules(tmp_path, "import qmonitor.cli") == CLI_IMPORTS


SWEEP = ("--tau-count", 5, "--n-max", 6, "--shots", 16)
ENGINES_UNUSED = {
    "exact": {"markov", "sample", "analytic", "noisefit", "render", "configparser", "dataclasses"},
    "markov": {"markov", "sample", "analytic", "noisefit", "render", "configparser", "dataclasses"},
    "sample": {"markov", "analytic", "noisefit", "render", "dataclasses"},
    "closed_form": {"markov", "sample", "noisefit", "render", "dataclasses"},
}


def unqualified(modules) -> set[str]:
    return {m.removeprefix("qmonitor.") for m in modules}


@pytest.mark.parametrize("engine", ENGINES_UNUSED)
def test_simulate_loads_only_its_engine(tmp_path, engine):
    loaded = loaded_modules(tmp_path, run_cli(tmp_path, "simulate", "--engine", engine, *SWEEP))
    assert unqualified(loaded) & ENGINES_UNUSED[engine] == set()


def test_analyze_loads_no_engine_but_markov(tmp_path):
    loaded = loaded_modules(tmp_path, run_cli(tmp_path, "analyze", *SWEEP[:4]))
    assert unqualified(loaded) & {"sample", "analytic", "noisefit", "render", "dataclasses"} == set()


def test_trace_readers_load_only_what_they_run(tmp_path):
    args = ["simulate", "--engine", "markov", *SWEEP, "--out", tmp_path]
    assert cli.main([str(a) for a in args]) == 0
    path = tmp_path / "single_qubit_markov.csv"
    heatmap = loaded_modules(tmp_path, run_cli(tmp_path, "render", path, "--kind", "heatmap"))
    assert heatmap == CLI_IMPORTS | {"qmonitor.render"}
    rho_grid = loaded_modules(tmp_path, run_cli(tmp_path, "render", path, "--kind", "rho_grid",
                                                "--model", "single_qubit", "--n", 2, "--tau", 0))
    assert rho_grid == CLI_IMPORTS | {"qmonitor.render"}
    fit = loaded_modules(tmp_path, run_cli(tmp_path, "fit-noise", path, "--model", "single_qubit"))
    assert fit == CLI_IMPORTS | {"qmonitor.evolve", "qmonitor.noisefit"}


def test_a_config_file_loads_configparser(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ntau_count = 3\nn_max = 2\n")
    loaded = loaded_modules(tmp_path, run_cli(tmp_path, "simulate", "--config", ini))
    assert "configparser" in loaded



def blas_threads(tmp_path, **env) -> int:
    """The threads of a fresh process that imported the CLI, after one BLAS matmul."""
    code = ("import os; import qmonitor.cli; import numpy as np; a = np.ones((64, 64)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))")
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), full.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env={**full, **env},
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
def test_a_cli_process_runs_blas_on_one_thread_unless_told_otherwise(tmp_path):
    # the matrices are at most 16 x 16, where a BLAS thread pool only spins
    assert blas_threads(tmp_path) == 1
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a second BLAS thread needs a second CPU")
    assert blas_threads(tmp_path, OPENBLAS_NUM_THREADS="2") == 2
