import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import cli, render, traces


DATA = Path(__file__).parent / "data"
SINGLET_TRIPLET_LABELS = ["psi_0", "psi_1", "psi_2", "psi_3"]
BELL_LABELS = ["beta_0", "beta_1", "beta_2", "beta_3"]


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulate:
    def test_closed_form_shape(self, tmp_path, capsys):
        assert (
            run(
                [
                    "simulate",
                    "--model", "single_qubit",
                    "--engine", "closed_form",
                    "--tau-count", 33,
                    "--n-max", 32,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        header, rows = read_csv(tmp_path / "single_qubit_closed_form.csv")
        assert header == ["tau", "n", "0", "1"]
        assert len(rows) == 33 * 33

    def test_bell_exact_frozen_columns(self, tmp_path):
        assert (
            run(
                [
                    "simulate",
                    "--model", "two_qubit_bell",
                    "--engine", "exact",
                    "--tau-count", 9,
                    "--n-max", 12,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        header, rows = read_csv(tmp_path / "two_qubit_bell_exact.csv")
        k2 = header.index("beta_2")
        k3 = header.index("beta_3")
        for row in rows:
            assert abs(float(row[k2]) - 0.5) < 1e-12
            assert abs(float(row[k3])) < 1e-12

    def test_sample_engine_emits_stderr_and_summary(self, tmp_path):
        assert (
            run(
                [
                    "simulate",
                    "--model", "single_qubit",
                    "--engine", "sample",
                    "--tau-count", 5,
                    "--n-max", 8,
                    "--shots", 4096,
                    "--seed", 9,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        header, rows = read_csv(tmp_path / "single_qubit_sample.csv")
        assert header == ["tau", "n", "0", "1", "stderr_0", "stderr_1"]
        summary = json.loads((tmp_path / "single_qubit_sample_summary.json").read_text())
        dev = summary["results"]["max_abs_dev_from_exact"]
        assert dev < 5.0 / math.sqrt(4096)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--model", "two_qubit_singlet_triplet",
            "--engine", "sample",
            "--tau-count", 3,
            "--n-max", 6,
            "--shots", 512,
            "--seed", 4,
            "--out", tmp_path,
        ]
        assert run(args) == 0
        csv_path = tmp_path / "two_qubit_singlet_triplet_sample.csv"
        json_path = tmp_path / "two_qubit_singlet_triplet_sample_summary.json"
        first_csv = csv_path.read_bytes()
        first_json = json_path.read_bytes()
        assert run(args) == 0
        assert csv_path.read_bytes() == first_csv
        assert json_path.read_bytes() == first_json

    def test_a_failed_csv_write_leaves_the_earlier_outputs(self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--model", "two_qubit_bell", "--engine", "markov",
                "--tau-count", 5, "--n-max", 8, "--out", tmp_path]
        assert run(args) == 0
        earlier = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(earlier) == ["two_qubit_bell_markov.csv",
                                   "two_qubit_bell_markov_summary.json"]
        write_blocks = traces._write_blocks

        def disk_full(fh, *args):
            write_blocks(fh, *args)  # the whole body, then the device is full
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(traces, "_write_blocks", disk_full)
        capsys.readouterr()
        assert run([*args[:-2], "--gamma", 0.1, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == "cannot write output: [Errno 28] No space left on device\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier

    def test_unknown_model_is_config_error(self, tmp_path):
        assert run(["simulate", "--model", "three_qubit", "--out", tmp_path]) == 2

    def test_closed_form_needs_builtin_model(self, tmp_path):
        model_file = tmp_path / "m.json"
        model_file.write_text(
            json.dumps(
                {
                    "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                    "initial_state": {"re": [1.0, 0.0]},
                }
            )
        )
        code = run(
            ["simulate", "--model", model_file, "--engine", "closed_form", "--out", tmp_path]
        )
        assert code == 2

    def test_custom_model_file(self, tmp_path):
        model_file = tmp_path / "m.json"
        model_file.write_text(
            json.dumps(
                {
                    "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                    "initial_state": {"re": [1.0, 0.0]},
                    "labels": ["g", "e"],
                }
            )
        )
        assert (
            run(
                [
                    "simulate",
                    "--model", model_file,
                    "--engine", "exact",
                    "--tau-count", 3,
                    "--n-max", 4,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        header, rows = read_csv(tmp_path / "m_exact.csv")
        assert header == ["tau", "n", "g", "e"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"hamiltonian": {"re": 1.0}, "initial_state": {"re": [1.0]}},
            {
                "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "initial_state": {"re": [1.0, 0.0]},
                "labels": 5,
            },
            {
                "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "initial_state": {"re": [1.0, 0.0]},
                "labels": [0, 1],
            },
            {
                "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "initial_state": {"re": [1.0, 0.0]},
                "labels": ["g"],
            },
            *(
                {
                    "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                    "initial_state": {"re": [1.0, 0.0]},
                    "labels": labels,
                }
                for labels in (
                    ["g", "g"], ["n", "tau"], ["tau", "e"], ["g", "n"], ["stderr_0", "e"]
                )
            ),
        ],
        ids=[
            "hamiltonian_not_2d",
            "labels_not_a_list",
            "labels_not_strings",
            "labels_wrong_length",
            "labels_duplicate",
            "labels_n_tau",
            "label_tau",
            "label_n",
            "label_stderr_prefix",
        ],
    )
    def test_malformed_model_file_is_config_error(self, tmp_path, spec):
        model_file = tmp_path / "m.json"
        model_file.write_text(json.dumps(spec))
        assert run(["simulate", "--model", model_file, "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--engine", engine] for engine in cli.ENGINES] + [["analyze"]],
        ids=[*cli.ENGINES, "analyze"],
    )
    def test_overflowing_hamiltonian_is_config_error(self, tmp_path, argv):
        model_file = tmp_path / "m.json"
        model_file.write_text(
            json.dumps(
                {
                    "hamiltonian": {"re": [[0.0, 1e308], [1e308, 0.0]]},
                    "initial_state": {"re": [1.0, 0.0]},
                }
            )
        )
        assert run([*argv, "--model", model_file, "--out", tmp_path]) == 2

    def test_bad_tau_grid(self, tmp_path):
        assert run(["simulate", "--tau-stop", 9.0, "--out", tmp_path]) == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        assert run(["simulate", "--model", "single_qubit", "--tau-count", 2, "--n-max", 2]) == 0
        assert (tmp_path / "envout" / "single_qubit_exact.csv").exists()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmodel = two_qubit_bell\nengine = markov\ntau_count = 4\nn_max = 5\n"
            f"out = {tmp_path}\n"
        )
        assert run(["simulate", "--config", ini, "--n-max", 3]) == 0
        header, rows = read_csv(tmp_path / "two_qubit_bell_markov.csv")
        assert len(rows) == 4 * 4  # n_max overridden to 3 by the flag

    def test_unknown_key(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        for line in ("frobnicate = 3", "n_fit_range = 1:5"):
            ini.write_text(f"[run]\n{line}\n")
            assert run(["simulate", "--config", ini, "--out", tmp_path]) == 2
            assert "unknown key" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.ini", "--out", tmp_path]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[run]\nmodel = caf\xe9\n")
        assert run(["simulate", "--config", ini, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {ini}: 'utf-8' codec")


class TestAnalyze:
    def test_regimes(self, tmp_path):
        assert (
            run(
                [
                    "analyze",
                    "--model", "two_qubit_singlet_triplet",
                    "--tau-start", 0.7,
                    "--tau-stop", 0.7,
                    "--tau-count", 1,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "analyze_two_qubit_singlet_triplet.json").read_text())
        entry = report["results"]["per_tau"][0]
        assert entry["regime"] == "partial"
        assert entry["classes"] == [[0, 1, 3], [2]]
        assert entry["periods"] == [1, 1]
        assert entry["masses"] == [1.0, 0.0]
        assert report["results"]["hamiltonian_blocks"] == [[0, 1, 3], [2]]
        assert entry["stationary"] is not None

    def test_oscillatory_at_pi(self, tmp_path):
        assert (
            run(
                [
                    "analyze",
                    "--model", "single_qubit",
                    "--tau-start", math.pi,
                    "--tau-stop", math.pi,
                    "--tau-count", 1,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "analyze_single_qubit.json").read_text())
        entry = report["results"]["per_tau"][0]
        assert entry["regime"] == "oscillatory"
        assert entry["stationary"] is None

    def test_frozen_at_zero(self, tmp_path):
        assert (
            run(
                [
                    "analyze",
                    "--model", "two_qubit_bell",
                    "--tau-start", 0.0,
                    "--tau-stop", 0.0,
                    "--tau-count", 1,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "analyze_two_qubit_bell.json").read_text())
        assert report["results"]["per_tau"][0]["regime"] == "frozen"

    def test_a_failed_summary_write_leaves_the_earlier_summary(self, tmp_path, monkeypatch):
        args = ["analyze", "--model", "single_qubit", "--tau-count", 3, "--out", tmp_path]
        assert run(args) == 0
        path = tmp_path / "analyze_single_qubit.json"
        earlier = path.read_bytes()

        def interrupted(payload, fh, **kwargs):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(args)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == earlier

    def test_a_full_disk_during_the_summary_write_exits_2(self, tmp_path, monkeypatch, capsys):
        args = ["analyze", "--model", "single_qubit", "--tau-count", 3, "--out", tmp_path]
        assert run(args) == 0
        path = tmp_path / "analyze_single_qubit.json"
        earlier = path.read_bytes()

        def disk_full(payload, fh, **kwargs):
            fh.write("{")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", disk_full)
        capsys.readouterr()
        assert run(args) == 2
        assert capsys.readouterr() == ("", "cannot write output: [Errno 28] No space left on device\n")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == earlier


@pytest.mark.parametrize(
    "name",
    ["single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell",
     *(str(DATA / f"{stem}.json") for stem in ("chain_dim8_seed67", "chain_dim16_seed0",
                                               "ring3_complex"))],
    ids=lambda name: Path(name).stem,
)
def test_analyze_classes_are_the_hamiltonian_blocks_off_resonance(tmp_path, name):
    assert run(["analyze", "--model", name, "--tau-count", 33, "--out", tmp_path]) == 0
    results = json.loads((tmp_path / f"analyze_{Path(name).stem}.json").read_text())["results"]
    dim = len(results["initial_distribution"])
    for entry in results["per_tau"]:
        assert sorted(k for c in entry["classes"] for k in c) == list(range(dim))
        assert abs(sum(entry["masses"]) - 1.0) <= 1e-12
        if entry["regime"] in ("partial", "infinite_temperature"):
            assert entry["classes"] == results["hamiltonian_blocks"], entry["tau"]
            for c, mass in zip(entry["classes"], entry["masses"]):
                assert abs(sum(entry["stationary"][k] for k in c) - mass) <= 1e-12


class TestComplexRing:
    """A 3-site ring with hopping e^{0.6 i}, started on site 0. Its kernel is
    doubly stochastic but not symmetric, and read as the transposed law, it
    missed the exact engine by 0.95."""

    RING = DATA / "ring3_complex.json"

    def test_markov_matches_exact(self, tmp_path):
        values = {}
        for engine in ("exact", "markov"):
            args = ["simulate", "--model", self.RING, "--engine", engine,
                    "--tau-count", 33, "--n-max", 32, "--out", tmp_path]
            assert run(args) == 0
            _, rows = read_csv(tmp_path / f"ring3_complex_{engine}.csv")
            values[engine] = np.array(rows, dtype=float)
        assert values["exact"].shape == (33 * 33, 5)
        assert np.max(np.abs(values["exact"] - values["markov"])) <= 1e-12

    def test_analyze_runs_on_the_non_symmetric_kernel(self, tmp_path):
        args = ["analyze", "--model", self.RING, "--tau-start", 0.3, "--tau-stop", 2.9,
                "--tau-count", 9, "--out", tmp_path]
        path = tmp_path / "analyze_ring3_complex.json"
        assert run(args) == 0
        first = path.read_bytes()
        assert run(args) == 0
        assert path.read_bytes() == first
        report = json.loads(path.read_text())
        assert report["schema_version"] == 2
        for entry in report["results"]["per_tau"]:
            assert entry["regime"] == "infinite_temperature"
            assert max(abs(x) for x in entry["eigenvalues_imag"]) > 1e-3
            assert np.allclose(entry["stationary"], [1 / 3] * 3, atol=1e-15)


class TestChiralRing:
    """A 3-site ring with hopping i. At tau* = 4 pi / (3 sqrt 3) the kernel is a
    cyclic permutation, up to entries of order 1e-31: period 3 with no
    eigenvalue -1. Off tau* those entries grow as (tau - tau*)^2, so the
    support threshold 1e-9 keeps the period for |tau - tau*| up to about 3.2e-5."""

    RING = DATA / "ring3_chiral.json"
    TAU = 4 * math.pi / (3 * math.sqrt(3))

    def analyze_at(self, tmp_path, tau):
        args = ["analyze", "--model", self.RING, "--tau-start", repr(tau),
                "--tau-stop", repr(tau), "--tau-count", 1, "--out", tmp_path]
        assert run(args) == 0
        report = json.loads((tmp_path / "analyze_ring3_chiral.json").read_text())
        return report["results"]["per_tau"][0]

    def test_period_three_at_resonance(self, tmp_path):
        entry = self.analyze_at(tmp_path, self.TAU)
        assert entry["regime"] == "oscillatory"
        assert entry["classes"] == [[0, 1, 2]] and entry["periods"] == [3]
        assert entry["stationary"] is None
        assert min(entry["eigenvalues"]) > -0.51  # no eigenvalue -1

    @pytest.mark.parametrize("delta", [1e-5, -1e-5])
    def test_period_survives_inside_the_window(self, tmp_path, delta):
        entry = self.analyze_at(tmp_path, self.TAU + delta)
        assert entry["regime"] == "oscillatory" and entry["periods"] == [3]

    @pytest.mark.parametrize("delta", [1e-4, -1e-4])
    def test_mixes_outside_the_window(self, tmp_path, delta):
        entry = self.analyze_at(tmp_path, self.TAU + delta)
        assert entry["regime"] == "infinite_temperature" and entry["periods"] == [1]


class TestFitNoise:
    def _simulate(self, tmp_path, gamma, model="two_qubit_singlet_triplet"):
        assert (
            run(
                [
                    "simulate",
                    "--model", model,
                    "--engine", "closed_form",
                    "--tau-count", 17,
                    "--n-max", 20,
                    "--gamma", gamma,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        return tmp_path / f"{model}_closed_form.csv"

    def test_round_trip(self, tmp_path):
        path = self._simulate(tmp_path, 0.12)
        assert (
            run(
                [
                    "fit-noise", path,
                    "--model", "two_qubit_singlet_triplet",
                    "--n-fit-range", "1:20",
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "fit_two_qubit_singlet_triplet.json").read_text())
        assert abs(report["results"]["gamma"] - 0.12) < 1e-6
        assert 7.5 <= report["results"]["n_noise"] <= 8.2

    def test_zero_gamma(self, tmp_path):
        path = self._simulate(tmp_path, 0.0)
        assert (
            run(["fit-noise", path, "--model", "two_qubit_singlet_triplet", "--out", tmp_path])
            == 0
        )
        report = json.loads((tmp_path / "fit_two_qubit_singlet_triplet.json").read_text())
        assert report["results"]["gamma"] < 1e-3

    def test_layers_give_decay_rate(self, tmp_path):
        path = self._simulate(tmp_path, 0.033, model="two_qubit_bell")
        assert (
            run(
                [
                    "fit-noise", path,
                    "--model", "two_qubit_bell",
                    "--layers", "10,2,1",
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "fit_two_qubit_bell.json").read_text())
        assert report["results"]["cycle_duration_us"] == 1.708
        assert round(report["results"]["decay_rate_mhz"], 2) == 0.02

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("tau,n,a,b\n0.0,0,0.5\n")
        assert run(["fit-noise", bad, "--model", "single_qubit", "--out", tmp_path]) == 3

    def test_csv_of_another_model_is_a_data_error(self, tmp_path, capsys):
        # same dimension, other outcomes: fitted against the Bell reference it gave gamma = 1
        path = self._simulate(tmp_path, 0.05)
        assert run(["fit-noise", path, "--model", "two_qubit_bell", "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert str(SINGLET_TRIPLET_LABELS) in err and str(BELL_LABELS) in err
        assert not (tmp_path / "fit_two_qubit_bell.json").exists()

    def test_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert run(["fit-noise", bad, "--model", "single_qubit", "--out", tmp_path]) == 3

    def test_grid_not_covering(self, tmp_path):
        assert (
            run(
                [
                    "simulate",
                    "--model", "single_qubit",
                    "--engine", "closed_form",
                    "--tau-stop", 1.0,
                    "--tau-count", 5,
                    "--n-max", 6,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        code = run(
            [
                "fit-noise", tmp_path / "single_qubit_closed_form.csv",
                "--model", "single_qubit",
                "--out", tmp_path,
            ]
        )
        assert code == 3


class TestRender:
    def _csv(self, tmp_path, model="single_qubit", engine="closed_form", n_max=8, count=9):
        assert (
            run(
                [
                    "simulate",
                    "--model", model,
                    "--engine", engine,
                    "--tau-count", count,
                    "--n-max", n_max,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        return tmp_path / f"{model}_{engine}.csv"

    def test_heatmap(self, tmp_path):
        path = self._csv(tmp_path)
        assert run(["render", path, "--kind", "heatmap", "--out", tmp_path]) == 0
        svg = (tmp_path / "single_qubit_closed_form_heatmap_magnetization.svg").read_text()
        ET.fromstring(svg)

    def test_lines(self, tmp_path):
        path = self._csv(tmp_path)
        assert (
            run(["render", path, "--kind", "lines", "--at-n", "1,2,8", "--out", tmp_path]) == 0
        )
        svg = (tmp_path / "single_qubit_closed_form_lines_magnetization.svg").read_text()
        root = ET.fromstring(svg)
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 3

    def test_rho_grid_near_limit(self, tmp_path):
        path = self._csv(
            tmp_path, model="two_qubit_singlet_triplet", engine="exact", n_max=30, count=9
        )
        assert (
            run(
                [
                    "render", path,
                    "--kind", "rho_grid",
                    "--model", "two_qubit_singlet_triplet",
                    "--n", 30,
                    "--tau", math.pi / 4,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        ET.fromstring((tmp_path / "two_qubit_singlet_triplet_exact_rho_grid_n30.svg").read_text())

    def test_flat_data_renders(self, tmp_path):
        flat = tmp_path / "flat.csv"
        lines = ["tau,n,0,1"]
        for tau in (0.0, 1.0):
            for n in range(3):
                lines.append(f"{tau},{n},0.5,0.5")
        flat.write_text("\n".join(lines) + "\n")
        assert run(["render", flat, "--kind", "heatmap", "--column", "0", "--out", tmp_path]) == 0

    def test_nan_input_is_data_error(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("tau,n,0,1\n0.0,0,nan,1.0\n")
        assert run(["render", bad, "--kind", "heatmap", "--column", "0", "--out", tmp_path]) == 3

    def test_internal_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        path = self._csv(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("solver failed to converge")

        monkeypatch.setattr(render, "heatmap_svg", boom)
        assert run(["render", path, "--kind", "heatmap", "--out", tmp_path]) == 4

    def test_failed_heatmap_leaves_no_file_behind(self, tmp_path, monkeypatch):
        path = self._csv(tmp_path)
        out = tmp_path / "svg"
        ramp_codes = render.ramp_codes
        rows = []

        def second_row_fails(x):
            rows.append(x)
            if len(rows) == 2:
                raise RuntimeError("colour ramp failed")
            return ramp_codes(x)

        monkeypatch.setattr(render, "ramp_codes", second_row_fails)
        assert run(["render", path, "--kind", "heatmap", "--out", out]) == 4
        assert list(out.iterdir()) == []
        earlier = out / "single_qubit_closed_form_heatmap_magnetization.svg"
        earlier.write_text("earlier render")
        rows.clear()
        assert run(["render", path, "--kind", "heatmap", "--out", out]) == 4
        assert list(out.iterdir()) == [earlier]
        assert earlier.read_text() == "earlier render"

    def test_labels_are_escaped_in_every_kind(self, tmp_path):
        labels = ["p&q", "<b>"]
        model = tmp_path / "odd_labels.json"
        model.write_text(json.dumps({
            "hamiltonian": {"re": [[0.0, 1.0], [1.0, 0.0]]},
            "initial_state": {"re": [1.0, 0.0]},
            "labels": labels,
        }))
        sim = ["simulate", "--model", model, "--engine", "markov", "--tau-count", 3,
               "--n-max", 4, "--out", tmp_path]
        assert run(sim) == 0
        path = tmp_path / "odd_labels_markov.csv"
        assert path.read_text().startswith("tau,n,p&q,<b>\n")
        renders = {
            "odd_labels_markov_heatmap_p_q.svg": ["--kind", "heatmap", "--column", "p&q"],
            "odd_labels_markov_lines__b_.svg": ["--kind", "lines", "--column", "<b>"],
            "odd_labels_markov_rho_grid_n1.svg": [
                "--kind", "rho_grid", "--model", model, "--n", 1, "--tau", 0.0,
            ],
        }
        for name, flags in renders.items():
            assert run(["render", path, *flags, "--out", tmp_path]) == 0
            root = ET.parse(tmp_path / name).getroot()
            texts = "\n".join(e.text or "" for e in root.iter() if e.tag.endswith("text"))
            wanted = labels if "rho_grid" in name else [flags[-1]]
            assert all(label in texts for label in wanted), (name, texts)

    def test_unknown_column(self, tmp_path):
        path = self._csv(tmp_path)
        assert run(["render", path, "--column", "zeta", "--out", tmp_path]) == 3

    def test_rho_grid_requires_model(self, tmp_path):
        path = self._csv(tmp_path)
        assert run(["render", path, "--kind", "rho_grid", "--out", tmp_path]) == 2

    def test_rho_grid_of_another_model_is_a_data_error(self, tmp_path, capsys):
        path = self._csv(tmp_path, model="two_qubit_singlet_triplet", engine="exact")
        flags = ["--kind", "rho_grid", "--model", "two_qubit_bell", "--n", 1, "--tau", 0.0]
        assert run(["render", path, *flags, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert str(SINGLET_TRIPLET_LABELS) in err and str(BELL_LABELS) in err
        assert list(tmp_path.glob("*.svg")) == []


class TestTiming:
    def test_values(self, capsys):
        assert run(["timing", "--layers", "20,4,1", "--gamma", 0.12]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycle_duration_us"] == 2.712
        assert round(payload["decay_rate_mhz"], 2) == 0.04

    def test_bell_layers(self, capsys):
        assert run(["timing", "--layers", "10,2,1", "--gamma", 0.033]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycle_duration_us"] == 1.708
        assert round(payload["decay_rate_mhz"], 2) == 0.02

    def test_requires_layers(self):
        assert run(["timing", "--gamma", 0.1]) == 2

    def test_bad_layers(self):
        assert run(["timing", "--layers", "a,b,c"]) == 2

    def test_custom_profile(self, tmp_path, capsys):
        hw = tmp_path / "hw.json"
        hw.write_text(
            json.dumps({"dur_1q_ns": 10, "dur_cnot_ns": 100, "dur_readout_ns": 500})
        )
        assert run(["timing", "--layers", "2,1,1", "--hw-profile", hw]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cycle_duration_us"] == 0.62


class TestOutDir:
    """simulate, analyze, fit-noise and render write under --out, else $QMONITOR_OUT, else ./out."""

    MODEL = "two_qubit_singlet_triplet"
    COMMANDS = {
        "simulate": (["simulate", "--model", MODEL, "--tau-count", 2, "--n-max", 2],
                     [f"{MODEL}_exact.csv", f"{MODEL}_exact_summary.json"]),
        "analyze": (["analyze", "--model", MODEL, "--tau-start", 0.7, "--tau-stop", 0.7,
                     "--tau-count", 1],
                    [f"analyze_{MODEL}.json"]),
        "fit-noise": (["fit-noise", "{csv}", "--model", MODEL, "--n-fit-range", "1:20"],
                      [f"fit_{MODEL}.json"]),
        "render": (["render", "{csv}", "--kind", "heatmap"],
                   [f"{MODEL}_closed_form_heatmap_psi_0.svg"]),
    }

    def command(self, tmp_path, command):
        """The command's arguments, on a closed-form CSV written under tmp_path/data, and its files."""
        data = tmp_path / "data"
        argv = [
            "simulate", "--model", self.MODEL, "--engine", "closed_form",
            "--tau-count", 17, "--n-max", 20, "--gamma", 0.12, "--out", data,
        ]
        assert run(argv) == 0
        csv_path = data / f"{self.MODEL}_closed_form.csv"
        args, names = self.COMMANDS[command]
        return [csv_path if a == "{csv}" else a for a in args], names

    @pytest.mark.parametrize("where", ["flag", "env", "default"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_writing_command_follows_the_rule(self, tmp_path, monkeypatch, command, where):
        args, names = self.command(tmp_path, command)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if where == "default":
            monkeypatch.delenv(cli.ENV_OUT, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "env"))
        if where == "flag":
            args = [*args, "--out", tmp_path / "flag"]
        assert run(args) == 0
        expected = {"flag": tmp_path / "flag", "env": tmp_path / "env", "default": cwd / "out"}
        for name in names:
            assert (expected[where] / name).is_file()
        for other, directory in expected.items():
            if other != where:
                assert not directory.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_an_unwritable_directory_exits_2_with_one_line(self, tmp_path, capsys, command):
        args, _ = self.command(tmp_path, command)
        data = sorted((tmp_path / "data").iterdir())
        blocked = tmp_path / "data" / f"{self.MODEL}_closed_form.csv" / "out"  # under a file
        capsys.readouterr()
        assert run([*args, "--out", blocked]) == 2
        assert capsys.readouterr() == ("", f"cannot write {blocked}: Not a directory\n")
        assert sorted((tmp_path / "data").iterdir()) == data


@pytest.mark.parametrize(
    "header",
    ["tau,n,n,tau", "tau,n,a,a", "tau,n,a,b,stderr_1,stderr_0", "tau,n,a,stderr_0,b",
     "tau,n,a,b,stderr_0"],
)
def test_ambiguous_columns_rejected_by_parser(tmp_path, header):
    # the first outcome holds all the probability, so only the header is wrong
    n_values = len(header.split(",")) - 2
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n0.0,0,1.0{',0.0' * (n_values - 1)}\n")
    assert run(["render", bad, "--kind", "heatmap", "--column", 0, "--out", tmp_path]) == 3


@pytest.mark.parametrize("where", ["header", "body", "last_byte"])
@pytest.mark.parametrize("command", ["render", "fit-noise"])
def test_non_utf8_bytes_are_a_data_error(tmp_path, capsys, command, where):
    text = b"tau,n,0,1\n0.0,0,1.0,0.0\n0.5,0,1.0,0.0\n"
    data = {
        "header": b"\xff" + text,
        "body": text.replace(b"0.5,", b"0\xff5,"),
        "last_byte": text + b"\xff",
    }[where]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    extra = ["--kind", "heatmap", "--column", 0] if command == "render" else ["--model", "single_qubit"]
    assert run([command, bad, *extra, "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


class TestTraceCsvFormat:
    """The writer fills one row template for the blocks of a stack, with the
    grid point's tau joined in once; a csv.writer with one format(x, '.17g')
    per cell must produce the same bytes."""

    VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1 - 2**-53, 1.0]
    TAUS = [0.0, 0.1, 1 / 3, math.pi]

    @staticmethod
    def reference(path, labels, taus, blocks, stderrs):
        header = ["tau", "n", *labels]
        if stderrs is not None:
            header += [f"stderr_{k}" for k in range(len(labels))]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for i, tau in enumerate(taus):
                for n, values in enumerate(blocks[i]):
                    row = [format(tau, ".17g"), str(n)] + [format(x, ".17g") for x in values]
                    if stderrs is not None:
                        row += [format(x, ".17g") for x in stderrs[i][n]]
                    writer.writerow(row)

    @pytest.mark.parametrize("with_stderr", [False, True])
    def test_bytes_match_the_per_cell_writer(self, tmp_path, with_stderr):
        rows = np.array([[x, 1.0 - x] for x in self.VALUES])
        values = np.stack([rows, rows[::-1, ::-1]] * 2)
        stderrs = np.stack([rows[:, ::-1], rows] * 2) if with_stderr else None
        labels = ("g", "e,1")
        traces.write_trace_csv(tmp_path / "got.csv", labels, self.TAUS, values, stderrs)
        self.reference(tmp_path / "want.csv", labels, self.TAUS, values, stderrs)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"\n0,1,-0,1" in got and b",4.9406564584124654e-324," in got

    ROWS = np.array([[x, 1.0 - x] for x in VALUES])
    # three columns, so that one can repeat from the previous block while others change
    A = np.array([[0.25, x / 2, 0.75 - x / 2] for x in VALUES])
    B = A[:, [0, 2, 1]]
    D = np.array([[0.5, x / 2, 0.5 - x / 2] for x in VALUES])
    ZERO = ROWS.copy()
    ZERO[0, 0] = -0.0  # ROWS[0, 0] is 0.0
    LAYOUTS = {
        # taus whose '%.17g' has an exponent or a sign
        "signed_and_exponent_taus": ([5e-324, 1e-300, -0.0], [ROWS] * 3),
        "one_row_blocks": ([0.5, -0.0], [ROWS[:1], ROWS[-1:]]),
        "column_constant_over_all_blocks": ([0.1, 0.2, 0.3, 0.4], [A, B, A, B]),
        "column_repeats_for_two_blocks_then_changes": ([0.1, 0.2, 0.3, 0.4], [A, B, A, D]),
        "zero_then_negative_zero": ([0.1, 0.2, 0.3], [ROWS, ZERO, ROWS]),
    }

    @pytest.mark.parametrize("with_stderr", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_layouts_match_the_per_cell_writer(self, tmp_path, layout, with_stderr):
        taus, blocks = layout
        blocks = np.stack(blocks)
        stderrs = blocks[:, :, ::-1] if with_stderr else None
        labels = ("g", "e,1", "f")[: blocks[0].shape[1]]
        traces.write_trace_csv(tmp_path / "got.csv", labels, taus, blocks, stderrs)
        self.reference(tmp_path / "want.csv", labels, taus, blocks, stderrs)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\n") == 1 + blocks.shape[0] * blocks.shape[1]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_copied_columns_match_the_per_cell_writer(self, tmp_path_factory, data):
        """Random stacks, each column copied bit for bit from the previous block or drawn anew."""
        width = data.draw(st.integers(1, 3), label="outcome columns")
        with_stderr = data.draw(st.booleans(), label="with_stderr")
        cell = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        n_rows = data.draw(st.integers(1, 4), label="rows per block")
        blocks = np.empty((data.draw(st.integers(1, 6), label="blocks"), n_rows,
                           width * (1 + with_stderr)))
        for i, block in enumerate(blocks):
            for c in range(block.shape[1]):
                if i and data.draw(st.booleans()):
                    block[:, c] = blocks[i - 1, :, c]
                else:
                    block[:, c] = data.draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        taus = data.draw(st.lists(cell, min_size=len(blocks), max_size=len(blocks)))
        # the writer does not check its input, so the cells need not be probabilities
        values = blocks[:, :, :width]
        stderrs = blocks[:, :, width:] if with_stderr else None
        labels = ("g", "e,1", "f")[:width]
        out = tmp_path_factory.mktemp("csv")
        traces.write_trace_csv(out / "got.csv", labels, taus, values, stderrs)
        self.reference(out / "want.csv", labels, taus, values, stderrs)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "row, message",
    [("1.1,-0.1", "negative probability"), ("0.6,0.5", "rows do not sum to 1")],
    ids=["negative_cell", "row_sums_to_1.1"],
)
def test_block_checks_name_the_tau(tmp_path, capsys, row, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"tau,n,0,1\n0.5,0,1.0,0.0\n0.5,1,{row}\n")
    assert run(["fit-noise", bad, "--model", "single_qubit", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "tau=0.5: " in err and message in err


def test_nan_probabilities_rejected_by_parser(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("tau,n,0,1\n0.0,0,2.0,-1.0\n")
    # rows that are not probability vectors are a data error
    assert run(["fit-noise", bad, "--model", "single_qubit", "--out", tmp_path]) == 3


class TestMarkovRowSums:
    """Block-diagonal real H (blocks 5,2,1 and 13,2,1, last state dark) in a
    random orthogonal basis. Without normalized kernel rows, rounding in the
    row sums compounded over 256 steps to a total-probability drift above
    1e-12 on both models, and the markov engine exited with code 4.
    """

    @pytest.mark.parametrize("name", ["chain_dim8_seed67", "chain_dim16_seed0"])
    def test_long_chain_keeps_unit_row_sums(self, tmp_path, name):
        args = [
            "simulate",
            "--model", DATA / f"{name}.json",
            "--engine", "markov",
            "--tau-count", 129,
            "--n-max", 256,
            "--out", tmp_path,
        ]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / f"{name}_markov.csv")
        assert len(rows) == 129 * 257


class TestSampleOnFixtures:
    """The dimension-16 fixture's Born law peaks at 1.0000000000000009, which
    Generator.multinomial rejects unless the sampler clips and renormalises.
    The ring's kernel is not symmetric."""

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("name", ["chain_dim8_seed67", "chain_dim16_seed0", "ring3_complex"])
    def test_sample_engine_runs_within_five_sigma_and_reruns(self, tmp_path, name, gamma):
        args = [
            "simulate",
            "--model", DATA / f"{name}.json",
            "--engine", "sample",
            "--tau-count", 9,
            "--n-max", 16,
            "--shots", 4096,
            "--gamma", gamma,
            "--seed", 3,
            "--out", tmp_path,
        ]
        paths = [tmp_path / f"{name}_sample.csv", tmp_path / f"{name}_sample_summary.json"]
        assert run(args) == 0
        first = [p.read_bytes() for p in paths]
        results = json.loads(first[1])["results"]
        assert results["max_abs_dev_from_exact"] <= results["five_sigma_bound"]
        assert run(args) == 0
        assert [p.read_bytes() for p in paths] == first


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_validate_rejects(self, seed):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(seed=seed).validate()

    def test_validate_accepts_largest(self):
        cli.RunConfig(seed=2**64 - 1).validate()

    def test_cli_exit_code(self, tmp_path):
        args = ["simulate", "--engine", "sample", "--seed", -1, "--out", tmp_path]
        assert run(args) == 2


class TestSampleStreams:
    """A run with seed s draws from the one stream Philox(key=s)."""

    def test_one_stream_per_run_keyed_by_the_seed(self, tmp_path, monkeypatch):
        keys = []
        real = np.random.Philox

        def record(*args, **kwargs):
            keys.append(kwargs["key"])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", record)
        csvs = []
        for seed in (7, 8):
            args = [
                "simulate",
                "--engine", "sample",
                "--tau-count", 3,
                "--n-max", 4,
                "--shots", 64,
                "--seed", seed,
                "--out", tmp_path,
            ]
            assert run(args) == 0
            csvs.append((tmp_path / "single_qubit_sample.csv").read_bytes())
        assert keys == [7, 8]
        assert csvs[0] != csvs[1]


class TestMarkovStartsFromFirstCycle:
    """V = I and psi = (1, 1, 0)/sqrt 2 carries coherence inside the coupled
    block {0, 1}. A chain started from p0 drops it and missed the exact
    engine by 0.40; started from the coherent first cycle p1 it agrees.
    """

    def test_markov_matches_exact(self, tmp_path):
        model_file = tmp_path / "three_level.json"
        model_file.write_text(
            json.dumps(
                {
                    "hamiltonian": {"re": [[0.7, 1.0, 0.0], [1.0, -0.3, 0.0], [0.0, 0.0, 0.5]]},
                    "initial_state": {"re": [math.sqrt(0.5), math.sqrt(0.5), 0.0]},
                }
            )
        )
        values = {}
        for engine in ("exact", "markov"):
            args = [
                "simulate",
                "--model", model_file,
                "--engine", engine,
                "--tau-count", 33,
                "--n-max", 8,
                "--out", tmp_path,
            ]
            assert run(args) == 0
            _, rows = read_csv(tmp_path / f"three_level_{engine}.csv")
            values[engine] = np.array(rows, dtype=float)
        assert values["exact"].shape == (33 * 9, 5)
        assert np.max(np.abs(values["exact"] - values["markov"])) <= 1e-12

    def test_n_max_zero_is_the_born_row(self, tmp_path):
        args = ["simulate", "--engine", "markov", "--tau-count", 2, "--n-max", 0,
                "--out", tmp_path]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / "single_qubit_markov.csv")
        assert [[float(x) for x in row[1:]] for row in rows] == [[0, 1, 0], [0, 1, 0]]
