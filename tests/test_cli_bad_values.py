"""Bad flag values through cli.main: a documented exit code, never a traceback.

Every flag of every build_parser() command is drawn with a small good value
or one of the bad ones: "", -1, nan, inf, 1e400, a directory, /dev/null/x
and a file that is not UTF-8. Whatever the mix, a run exits 0 (ok), 2
(configuration, argparse's usage errors included) or 3 (data), prints no
traceback and leaves no temporary or part file. Each grid stays tiny: simulate
and analyze always get --tau-count and --n-max, as a value of at most 3 or
as one that is rejected, so no draw allocates a large trace.
"""

import argparse
import contextlib
import io
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmonitor import cli

BAD = ("", "-1", "nan", "inf", "1e400", "DIR", "/dev/null/x", "NOT_UTF8")

# the good values of each flag (by dest), besides its choices
GOOD = {
    "model": ("single_qubit", "two_qubit_bell"),
    "tau_start": ("0.5",),
    "tau_stop": ("2",),
    "tau_count": ("1", "3"),
    "n_max": ("0", "2"),
    "gamma": ("0.1",),
    "shots": ("16",),
    "seed": ("7",),
    "out": ("OUT",),
    "config": ("CONFIG",),
    "input": ("CSV",),
    "column": ("0", "magnetization"),
    "at_n": ("0,1",),
    "n": ("1",),
    "tau": ("0",),
    "n_fit_range": ("1:2",),
    "layers": ("10,2,1",),
    "hw_profile": ("PROFILE",),
}
ALWAYS = {"simulate": ("tau_count", "n_max"), "analyze": ("tau_count", "n_max")}


def commands() -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


@st.composite
def argvs(draw):
    """A command with some of its flags; each value is bad with odds 1 in 4."""
    name, parser = draw(st.sampled_from(sorted(commands().items())))
    argv = [name]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            if action.dest not in ALWAYS.get(name, ()) and not draw(st.booleans()):
                continue
            argv.append(action.option_strings[0])
        good = (*GOOD.get(action.dest, ()), *(action.choices or ()))
        bad = draw(st.integers(0, 3)) == 0
        argv.append(draw(st.sampled_from(BAD if bad else good), label=action.dest))
    return argv


def resources(root: Path) -> dict[str, str]:
    """The paths that stand for the placeholders in GOOD and BAD, made once under root."""
    names = {
        "DIR": root / "dir",
        "NOT_UTF8": root / "not_utf8",
        "CONFIG": root / "run.ini",
        "PROFILE": root / "profile.json",
        "CSV": root / "single_qubit_exact.csv",
        "OUT": root / "out",
    }
    if not names["DIR"].exists():
        names["DIR"].mkdir()
        names["NOT_UTF8"].write_bytes(b"tau,n,0,1\n0.0,0,1.0,\xff0.0\n")
        names["CONFIG"].write_text("[run]\ntau_count = 2\nn_max = 2\n")
        names["PROFILE"].write_text('{"dur_1q_ns": 35, "dur_cnot_ns": 300, "dur_readout_ns": 700}')
        assert cli.main(["simulate", "--tau-count", "3", "--n-max", "2", "--out", str(root)]) == 0
    return {key: str(path) for key, path in names.items()}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_bad_values_exit_0_2_or_3_without_a_traceback(tmp_path, monkeypatch, argv):
    # --out "" falls back to $QMONITOR_OUT, then to ./out: keep both inside tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    names = resources(tmp_path)
    argv = [names.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert [p for p in tmp_path.rglob("*") if p.suffix in (".tmp", ".part")] == []
