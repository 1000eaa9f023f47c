"""A qmonitor process ends through cli.process_main: stdout and stderr are flushed, then os._exit.

Each test starts a small qmonitor.cli process. The environment sets or
removes PYTHONUNBUFFERED on purpose: with it set, print writes straight
through, which would hide a missing flush. A case that patches the process
first runs the module the way `python -m` does, through runpy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qmonitor import cli

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ("simulate", "--model", "two_qubit_bell", "--engine", "exact",
         "--tau-count", 5, "--n-max", 6, "--gamma", 0.033)
# what `python -m qmonitor.cli` runs, after the code in front of it
AS_MAIN = "\nimport runpy\nrunpy.run_module('qmonitor.cli', run_name='__main__', alter_sys=True)\n"
DISK_FULL = "cannot write output: [Errno 28] No space left on device\n"


def child_env(unbuffered=False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop(cli.ENV_OUT, None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def qmonitor(cwd, *argv, unbuffered=False, before=None, stdout=subprocess.PIPE):
    """Run one qmonitor process in cwd; before is code that runs first in it."""
    head = ["-m", "qmonitor.cli"] if before is None else ["-c", before + AS_MAIN]
    return subprocess.run(
        [sys.executable, *head, *map(str, argv)], cwd=cwd, env=child_env(unbuffered),
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_a_buffered_stdout_is_flushed_before_the_process_ends(tmp_path):
    done = qmonitor(tmp_path, *SWEEP, "--out", tmp_path / "process")
    assert (done.returncode, done.stderr) == (0, "")
    csv = tmp_path / "process" / "two_qubit_bell_exact.csv"
    assert done.stdout == f"wrote {csv}\nwrote {tmp_path / 'process'}/two_qubit_bell_exact_summary.json\n"
    assert cli.main([*map(str, SWEEP), "--out", str(tmp_path / "in_process")]) == 0
    assert csv.read_bytes() == (tmp_path / "in_process" / csv.name).read_bytes()


def test_each_error_code_arrives_with_one_stderr_line(tmp_path):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("tau,x\n0.0,0\n")
    done = qmonitor(tmp_path, "timing", "--layers", "a,b")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "config error: bad --layers value 'a,b'; expected 1q,cnot,meas\n"
    done = qmonitor(tmp_path, "fit-noise", bad_csv, "--model", "single_qubit")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"data error: {bad_csv}: header must start with tau,n\n"
    failing = ("def boom(*args, **kwargs):\n    raise RuntimeError('solver failed to converge')\n"
               "from qmonitor import noisefit\nnoisefit.decay_rate = boom")
    done = qmonitor(tmp_path, "timing", "--layers", "10,2,1", before=failing)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == "numerical failure: solver failed to converge\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_2_with_one_line(tmp_path, unbuffered):
    with open("/dev/full", "w") as full:
        done = qmonitor(tmp_path, *SWEEP, "--out", tmp_path, unbuffered=unbuffered, stdout=full)
    assert (done.returncode, done.stderr) == (2, DISK_FULL)
    # the report fails, not the outputs, which are complete before it
    assert cli.main([*map(str, SWEEP), "--out", str(tmp_path / "in_process")]) == 0
    csv = "two_qubit_bell_exact.csv"
    assert (tmp_path / csv).read_bytes() == (tmp_path / "in_process" / csv).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
        csv, "two_qubit_bell_exact_summary.json"]


def test_a_closed_stdout_ends_with_code_0(tmp_path):
    # with file descriptor 1 closed, sys.stdout is None and print writes nothing
    shell = 'exec "$0" -m qmonitor.cli timing --layers 10,2,1 >&-'
    done = subprocess.run(["sh", "-c", shell, sys.executable], cwd=tmp_path, env=child_env(),
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_atexit_handlers_do_not_run(tmp_path):
    handler = "import atexit\natexit.register(print, 'atexit handler ran')"
    done = qmonitor(tmp_path, "timing", "--layers", "10,2,1", before=handler)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith('{"cycle_duration_us": ')
    assert "atexit handler ran" not in done.stdout


def test_the_script_target_is_the_function_the_main_block_calls():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (ROOT / "pyproject.toml").read_text()
    target = re.search(r'^qmonitor = "qmonitor\.cli:(\w+)"$', pyproject, re.M).group(1)
    source = Path(cli.__file__).read_text()
    called = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)\n', source, re.M).group(1)
    assert target == called == "process_main"


def test_main_returns_its_code_without_ending_the_process(tmp_path, monkeypatch):
    def ended(status):
        raise AssertionError(f"os._exit({status}) called")

    monkeypatch.setattr(os, "_exit", ended)
    small = ("--tau-count", "3", "--n-max", "2", "--out", str(tmp_path))
    csv = str(tmp_path / "single_qubit_exact.csv")
    runs = {
        ("simulate", *small): 0,
        ("analyze", *small): 0,
        ("fit-noise", csv, "--model", "single_qubit", "--out", str(tmp_path)): 0,
        ("render", csv, "--out", str(tmp_path)): 0,
        ("timing", "--layers", "10,2,1"): 0,
        ("timing", "--layers", "a,b"): 2,
        ("render", csv, "--out", str(tmp_path / "single_qubit_exact.csv" / "x")): 2,
        ("fit-noise", str(tmp_path), "--model", "single_qubit"): 3,
    }
    assert {argv: cli.main(list(argv)) for argv in runs} == runs
