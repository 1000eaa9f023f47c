"""Command-line front end.

Subcommands: simulate (sweep a tau grid and write its (T, n_max+1, dim)
probability trace as CSV), analyze (spectrum/regime/stationary report as
JSON), fit-noise (estimate the depolarizing strength from a trace CSV),
render (static SVG plots from a trace CSV), and timing (cycle duration and
decay rate from layer counts).

Every engine is a function of (model, taus, n_max, gamma) that returns the
finished, checked (T, n_max+1, dim) trace; simulate dispatches to one, writes
the trace to the CSV as it is and summarises it. exact and markov are one
chain, evolve.run_exact, and differ only in the name of the file they
write. exact, markov and closed_form run inside the CSV write, one bounded
range of the grid at a time, so the trace is never held whole (see
_simulate). The CSV format belongs to qmonitor.traces. The commands call
its reader through this module's own name read_trace_csv, the name that
qmbench/tracing.py wraps.

This module imports only traces, model and linalg. Each command imports the
modules it runs when it runs, and simulate imports only its engine's, so a
process loads and compiles no code its command skips.

Runs are reproducible: a fixed config plus seed yields byte-identical CSV
and JSON, and SVG identical up to the version comment. Every file is written
through traces.replacing into the output directory that _out_dir names, so
a failed command leaves earlier outputs as they were. Exit codes: 0 ok,
2 configuration error (an output that cannot be written included), 3 data
error, 4 numerical failure. Running out of memory is a configuration error:
simulate names its trace's T x (n_max+1) x dim shape and bytes, and every
other command says "not enough memory to run <command>".

main returns the exit code and never ends the interpreter. A process runs
it through process_main, which flushes stdout and stderr and ends with
os._exit, skipping the interpreter's teardown (about 10 ms); every output is
closed before main returns. atexit handlers do not run there (coverage's
subprocess mode collects nothing, for one), so instrument main in process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple, NoReturn

# BLAS sees matrices of at most 16 x 16 here, where an OpenBLAS thread pool only spins.
# One thread unless the caller chose a count; set before numpy loads (traces loads it too).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, linalg, traces
from . import model as model_mod
from .traces import DataError, read_trace_csv

ENV_OUT = "QMONITOR_OUT"
ENGINES = ("exact", "markov", "closed_form", "sample")
SCHEMA_VERSION = 3


class ConfigError(Exception):
    """Bad configuration: unknown keys, invalid values, missing files."""


class RunConfig(NamedTuple):
    """Sweep configuration shared by simulate and analyze; immutable once built."""

    model: str = "single_qubit"
    engine: str = "exact"
    tau_start: float = 0.0
    tau_stop: float = math.pi
    tau_count: int = 33
    n_max: int = 32
    gamma: float = 0.0
    shots: int = 8192
    seed: int = 0
    out: str = "out"

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if not (0.0 <= self.tau_start <= self.tau_stop <= 2.0 * math.pi + 1e-12):
            raise ConfigError("tau grid must satisfy 0 <= start <= stop <= 2*pi")
        # tau_count, n_max and shots reach numpy as C longs
        if not 1 <= self.tau_count < 2**63:
            raise ConfigError("tau_count must lie in [1, 2**63)")
        if not 0 <= self.n_max < 2**63:
            raise ConfigError("n_max must lie in [0, 2**63)")
        if not (0.0 <= self.gamma <= 1.0):
            raise ConfigError("gamma must lie in [0, 1]")
        if not 1 <= self.shots < 2**63:
            raise ConfigError("shots must lie in [1, 2**63)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")

    def tau_grid(self) -> np.ndarray:
        if self.tau_count == 1:
            return np.array([self.tau_start])
        return np.linspace(self.tau_start, self.tau_stop, self.tau_count)


_CONFIG_TYPES = {name: type(value) for name, value in RunConfig._field_defaults.items()}


def _read_config_file(path: str) -> dict:
    import configparser

    parser = configparser.ConfigParser()
    try:
        loaded = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"config file not found: {path}")
    merged: dict = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"config file {path}: unknown key {key!r}")
            try:
                merged[key] = _CONFIG_TYPES[key](raw)
            except ValueError as exc:
                raise ConfigError(f"config file {path}: bad value for {key!r}: {raw!r}") from exc
    return merged


def _out_dir(out: str | None) -> str:
    """The output directory: --out, else $QMONITOR_OUT, else ./out."""
    return out or os.environ.get(ENV_OUT, "out")


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["out"] = _out_dir(values.get("out"))
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _build_model(name: str) -> model_mod.Model:
    try:
        return model_mod.build_model(name)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build model {name!r}: {exc}") from exc


def _model_key(name: str) -> str:
    stem = os.path.splitext(os.path.basename(name))[0]
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in stem) or "model"


def _parse_n_range(text: str, n_max: int) -> tuple[int, int]:
    if not text:
        return (min(1, n_max), n_max)
    sep = ":" if ":" in text else ","
    parts = text.split(sep)
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad n range {text!r}; expected LO:HI") from exc
    if not (0 <= lo <= hi <= n_max):
        raise ConfigError(f"n range {text!r} outside 0..{n_max}")
    return (lo, hi)


def _cycle_timing(args: argparse.Namespace) -> tuple[noisefit.LayerCount, float]:
    """(layers, cycle duration in us) from --layers and --hw-profile."""
    from . import noisefit

    try:
        n1q, ncnot, nmeas = (int(p) for p in args.layers.split(","))
        layers = noisefit.LayerCount(n_1q_layers=n1q, n_cnot_layers=ncnot, n_meas_layers=nmeas)
    except ValueError as exc:
        raise ConfigError(f"bad --layers value {args.layers!r}; expected 1q,cnot,meas") from exc
    hw = noisefit.DEFAULT_HARDWARE
    if args.hw_profile is not None:
        try:
            hw = noisefit.hardware_profile_from_file(args.hw_profile)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load hardware profile: {exc}") from exc
    return layers, noisefit.cycle_duration(layers, hw)


def _require_model_labels(labels: list[str], m: model_mod.Model, name: str) -> None:
    """A trace CSV's outcome columns must be the model's own labels, in order."""
    want = list(m.basis.labels)
    if labels != want:
        raise DataError(f"CSV labels {labels} are not the labels of model {name!r}: {want}")


def _write_json(path: str, payload: dict) -> None:
    with traces.replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _summary(command: str, config_echo: dict, files: list[str], results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": config_echo,
        "files": files,
        "results": results,
    }


# ---------------------------------------------------------------------------
# engines


def cmd_simulate(cfg: RunConfig) -> dict:
    m = _build_model(cfg.model)
    shape = (cfg.tau_count, cfg.n_max + 1, m.dim)
    try:
        if math.prod(shape) * 8 > sys.maxsize:  # numpy refuses such sizes with a ValueError
            raise MemoryError
        return _simulate(cfg, m)
    except MemoryError:
        raise ConfigError(f"not enough memory for the {' x '.join(map(str, shape))} trace "
                          f"({math.prod(shape) * 8} bytes)") from None


def _simulate(cfg: RunConfig, m: model_mod.Model) -> dict:
    """Run cfg.engine over the tau grid, write the trace CSV and the summary.

    exact, markov and closed_form compute each grid point from its own tau
    alone, so the engine runs inside the CSV write, on one range of the grid
    at a time (traces.write_trace_csv). sample draws the whole grid from one
    random stream, so it runs first and the write gets the finished trace.
    """
    taus = cfg.tau_grid()
    stderrs = None
    if cfg.engine == "sample":
        from . import evolve, sample

        values = sample.run_shots(m, taus, cfg.n_max, cfg.gamma, shots=cfg.shots, seed=cfg.seed)
        stderrs = 1.0 - values  # sqrt(values (1 - values) / shots) in this one buffer
        stderrs *= values
        stderrs /= cfg.shots
        np.sqrt(stderrs, out=stderrs)
        blocks = values
    else:
        from . import evolve

        if cfg.engine in ("exact", "markov"):
            engine = evolve.run_exact
        else:
            from . import analytic

            if cfg.model not in analytic.CLOSED_FORMS:
                raise ConfigError(
                    f"engine closed_form supports {sorted(analytic.CLOSED_FORMS)}, not {cfg.model!r}"
                )

            def engine(m, taus, n_max, gamma):
                return analytic.closed_form_trace(cfg.model, taus, n_max, gamma)

        def blocks(start, stop):
            return engine(m, taus[start:stop], cfg.n_max, cfg.gamma)

    os.makedirs(cfg.out, exist_ok=True)
    key = f"{_model_key(cfg.model)}_{cfg.engine}"
    csv_path = os.path.join(cfg.out, f"{key}.csv")
    traces.write_trace_csv(csv_path, m.basis.labels, taus, blocks, stderrs, rows=cfg.n_max + 1)
    del stderrs  # freed before the sample check below builds an exact trace

    results: dict = {"rows": int(len(taus) * (cfg.n_max + 1)), "labels": list(m.basis.labels)}
    if cfg.engine == "sample":
        p = evolve.run_exact(m, taus, cfg.n_max, cfg.gamma)
        deviation = values  # written, so its buffer takes |values - p|: no trace-sized temporary
        deviation -= p
        np.abs(deviation, out=deviation)
        results["max_abs_dev_from_exact"] = float(np.max(deviation))
        results["five_sigma_bound"] = 5.0 / math.sqrt(cfg.shots)
        # each cell's binomial standard error, with the variance floored at 1/shots;
        # p (1 - p) as 1/4 - (p - 1/2)^2, in place, so no third trace is held
        p -= 0.5
        np.square(p, out=p)
        np.subtract(0.25, p, out=p)
        np.maximum(p, 1.0 / cfg.shots, out=p)
        p /= cfg.shots
        deviation /= np.sqrt(p, out=p)
        results["max_abs_z"] = float(np.max(deviation))

    summary = _summary("simulate", cfg._asdict(), [csv_path], results)
    summary_path = os.path.join(cfg.out, f"{key}_summary.json")
    summary["files"].append(summary_path)
    _write_json(summary_path, summary)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return summary


def cmd_analyze(cfg: RunConfig) -> dict:
    from . import markov

    m = _build_model(cfg.model)
    p0 = m.initial_distribution
    taus = cfg.tau_grid()
    kernels = markov.build_transition_matrix(m, taus)
    eigenvalues = markov.spectrum(kernels)
    reports = markov.classify(kernels)
    limits = markov.stationary_limit(reports, p0)
    per_tau = [
        {
            "tau": tau,
            "eigenvalues": lam.real.tolist(),
            "eigenvalues_imag": lam.imag.tolist(),
            "regime": report.kind,
            "classes": [list(c) for c in report.classes],
            "periods": list(report.periods),
            "masses": markov.class_masses(report.classes, p0),
            "stationary": None if limit is None else limit.tolist(),
            "details": report.details,
        }
        for tau, lam, report, limit in zip(taus.tolist(), eigenvalues, reports, limits)
    ]
    results = {
        "hamiltonian_blocks": [list(b) for b in m.hamiltonian_blocks],
        "initial_distribution": [float(x) for x in p0],
        "per_tau": per_tau,
    }
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"analyze_{_model_key(cfg.model)}.json")
    summary = _summary("analyze", cfg._asdict(), [path], results)
    _write_json(path, summary)
    print(f"wrote {path}")
    return summary


def cmd_fit_noise(args: argparse.Namespace) -> dict:
    from . import evolve, noisefit

    if not args.model:
        raise ConfigError("fit-noise requires --model (the noiseless reference)")
    m = _build_model(args.model)
    labels, taus, values = read_trace_csv(args.input)
    _require_model_labels(labels, m, args.model)
    n_max = values.shape[1] - 1
    n_range = _parse_n_range(args.n_fit_range or "", n_max)

    try:
        measured = noisefit.tau_average(values, taus)
        reference = noisefit.tau_average(evolve.run_exact(m, taus, n_max, 0.0), taus)
        fit = noisefit.fit_gamma(measured, reference, n_range)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    results = {
        "gamma": fit.gamma,
        "residual_sum_sq": fit.residual_sum_sq,
        "n_noise": fit.n_noise if math.isfinite(fit.n_noise) else None,
        "fitted_on": list(fit.fitted_on),
        "tau_points": len(taus),
    }
    if args.layers:
        dt = _cycle_timing(args)[1]
        results["cycle_duration_us"] = dt
        results["decay_rate_mhz"] = noisefit.decay_rate(fit.gamma, dt)

    out_dir = _out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fit_{_model_key(args.model)}.json")
    summary = _summary("fit-noise", {"input": args.input, "model": args.model}, [path], results)
    _write_json(path, summary)
    print(f"wrote {path}")
    print(f"gamma = {fit.gamma:.6f}")
    return summary


# ---------------------------------------------------------------------------
# rendering


def _column_values(labels, values, column: str) -> np.ndarray:
    """Grid values[tau_index, n] for a named column or 'magnetization'."""
    if column == "magnetization":
        from . import render

        if len(labels) != 2:
            raise DataError("magnetization rendering needs a two-state trace")
        return render.magnetization_grid(values)
    if column in labels:
        k = labels.index(column)
    else:
        try:
            k = int(column)
        except ValueError:
            raise DataError(f"unknown column {column!r}; have {labels}") from None
        if not 0 <= k < len(labels):
            raise DataError(f"column index {k} out of range")
    return values[:, :, k]


def cmd_render(args: argparse.Namespace) -> dict:
    from . import render

    labels, taus, values = read_trace_csv(args.input)
    n_rows = values.shape[1]
    column = args.column or ("magnetization" if len(labels) == 2 else labels[0])

    out_dir = _out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    stem = _model_key(args.input)

    if args.kind == "heatmap":
        grid = _column_values(labels, values, column)
        name = f"{stem}_heatmap_{_model_key(column)}.svg"
    elif args.kind == "lines":
        grid = _column_values(labels, values, column)
        if args.at_n:
            try:
                picks = [int(p) for p in args.at_n.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --at-n value {args.at_n!r}") from exc
            bad = [p for p in picks if not 0 <= p < n_rows]
            if bad:
                raise DataError(f"--at-n values {bad} outside 0..{n_rows - 1}")
        else:
            step = max(1, (n_rows - 1) // 5)
            picks = list(range(1, n_rows, step))[:6] or [0]
        series = {n: grid[:, n] for n in picks}
        svg = render.lines_svg(taus, series, title=f"{column} vs tau", ylabel=column)
        name = f"{stem}_lines_{_model_key(column)}.svg"
    elif args.kind == "rho_grid":
        if not args.model:
            raise ConfigError("rho_grid rendering requires --model")
        m = _build_model(args.model)
        _require_model_labels(labels, m, args.model)
        if args.n is None or args.tau is None:
            raise ConfigError("rho_grid rendering requires --n and --tau")
        matches = [i for i, t in enumerate(taus) if abs(t - args.tau) < 1e-9]
        if not matches:
            raise DataError(f"tau={args.tau} not present in the CSV grid")
        if not 0 <= args.n < n_rows:
            raise DataError(f"n={args.n} outside 0..{n_rows - 1}")
        probs = values[matches[0], args.n]
        rho_meas = np.diag(probs.astype(complex))
        rho_comp = linalg.rotate_matrix(rho_meas, linalg.adjoint(m.basis.v))
        svg = render.rho_grid_svg(
            rho_comp,
            rho_meas,
            model_mod.computational_basis(m.dim).labels,
            m.basis.labels,
            title=f"|rho| at n={args.n}, tau={args.tau:.4f}",
        )
        name = f"{stem}_rho_grid_n{args.n}.svg"
    else:
        raise ConfigError(f"unknown render kind {args.kind!r}")

    path = os.path.join(out_dir, name)
    with traces.replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        if args.kind == "heatmap":
            render.heatmap_svg(fh, list(range(n_rows)), taus, grid, f"{column} over (n, tau)")
        else:
            fh.write(svg)
    print(f"wrote {path}")
    return _summary("render", {"input": args.input, "kind": args.kind}, [path], {})


def cmd_timing(args: argparse.Namespace) -> dict:
    from . import noisefit

    if not args.layers:
        raise ConfigError("timing requires --layers 1q,cnot,meas")
    layers, dt = _cycle_timing(args)
    gamma = args.gamma if args.gamma is not None else 0.0
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("gamma must lie in [0, 1]")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "layers": [layers.n_1q_layers, layers.n_cnot_layers, layers.n_meas_layers],
        "cycle_duration_us": dt,
        "gamma": gamma,
        "decay_rate_mhz": noisefit.decay_rate(gamma, dt),
    }
    print(json.dumps(payload, sort_keys=True))
    return payload


# ---------------------------------------------------------------------------
# argument parsing


def _add_run_flags(p: argparse.ArgumentParser, command) -> None:
    """The sweep flags of simulate and analyze, whose command runs on their RunConfig."""
    p.set_defaults(run=lambda args: command(_build_run_config(args)))
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--model", help="built-in model name or path to a model JSON file")
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--tau-start", dest="tau_start", type=float)
    p.add_argument("--tau-stop", dest="tau_stop", type=float)
    p.add_argument("--tau-count", dest="tau_count", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmonitor",
        description="Simulate and analyze repeatedly measured small quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"qmonitor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_flags(sub.add_parser("simulate", help="sweep a tau grid and write trace CSV"),
                   cmd_simulate)
    _add_run_flags(sub.add_parser("analyze", help="spectrum and regime report as JSON"),
                   cmd_analyze)

    p_fit = sub.add_parser("fit-noise", help="fit the depolarizing strength to a trace CSV")
    p_fit.set_defaults(run=cmd_fit_noise)
    p_fit.add_argument("input", help="CSV produced by simulate")
    p_fit.add_argument("--model", required=False)
    p_fit.add_argument("--n-fit-range", dest="n_fit_range", help="LO:HI cycles used in the fit")
    p_fit.add_argument("--layers", help="1q,cnot,meas layer counts for timing output")
    p_fit.add_argument("--hw-profile", dest="hw_profile", help="hardware profile JSON")
    p_fit.add_argument("--out")

    p_ren = sub.add_parser("render", help="render a trace CSV to SVG")
    p_ren.set_defaults(run=cmd_render)
    p_ren.add_argument("input", help="CSV produced by simulate")
    p_ren.add_argument("--kind", choices=("heatmap", "lines", "rho_grid"), default="heatmap")
    p_ren.add_argument("--column", help="outcome label, column index, or 'magnetization'")
    p_ren.add_argument("--at-n", dest="at_n", help="comma-separated n values for lines")
    p_ren.add_argument("--model", help="model (rho_grid only)")
    p_ren.add_argument("--n", type=int, help="cycle count (rho_grid only)")
    p_ren.add_argument("--tau", type=float, help="tau grid point (rho_grid only)")
    p_ren.add_argument("--out")

    p_tim = sub.add_parser("timing", help="cycle duration and decay rate from layer counts")
    p_tim.set_defaults(run=cmd_timing)
    p_tim.add_argument("--layers", help="1q,cnot,meas layer counts")
    p_tim.add_argument("--gamma", type=float)
    p_tim.add_argument("--hw-profile", dest="hw_profile", help="hardware profile JSON")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # simulate names its trace's size in a ConfigError instead
        print(f"config error: not enough memory to run {args.command}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # inputs raise ConfigError or DataError, so this is an output
        return _cannot_write(exc)
    return 0


def _cannot_write(exc: OSError) -> int:
    """Report an output that cannot be written; return its exit code, 2."""
    if exc.filename is None:
        print(f"cannot write output: {exc}", file=sys.stderr)
    else:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


def process_main(argv=None) -> NoReturn:
    """Run main(argv), flush stdout and stderr, and end the process with os._exit.

    An unflushable stdout (a full disk) is an unwritable output: one stderr
    line and exit code 2. A SystemExit, a KeyboardInterrupt or an unexpected
    exception raised by main leaves the normal way.
    """
    status = main(argv)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        status = _cannot_write(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    finally:  # an unflushable stderr has nowhere to report to
        os._exit(status)


if __name__ == "__main__":
    process_main()
