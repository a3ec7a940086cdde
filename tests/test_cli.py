"""Command-line harness tests: config grammar, run/scan/verify/classify
subcommands, exit codes, and artifact formats."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmhd2d
from gmhd2d import config
from gmhd2d.cli import (
    SCAN_CSV_HEADER,
    VERIFY_SUITES,
    _parse_range,
    classifier_grid_violations,
    cmd_verify,
    main,
)
from gmhd2d.config import (
    InitialSpec,
    RunConfig,
    load_run_config,
    make_initial_state,
    parse_run_config,
)
from gmhd2d.diagnostics import compute_record, read_csv
from gmhd2d.dynamics import Params, RunResult, load_snapshot
from gmhd2d.spectral import ParameterError

BASE_CFG = """\
# dissipative reference run
params.nu = 1.0
params.kappa = 1.0
params.alpha = 1.0
params.beta = 1.0
params.n = 32
params.t_end = 0.05
initial.kind = orszag_tang
sample_every = 0.01
output_dir = {out}
"""


def overflow_cfg(out, amplitude):
    # a random state of this L2 amplitude: finite, but at 1e308 its point
    # values overflow
    return (f"params.n = 32\nparams.t_end = 0.01\n"
            f"initial.kind = random_band_limited\ninitial.seed = 1\n"
            f"initial.k_max = 8\ninitial.amplitude = {amplitude}\n"
            f"sample_every = 0.01\noutput_dir = {out}\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigGrammar:
    def test_full_round_trip(self, tmp_path):
        text = """
        params.nu = 0.5      # viscosity
        params.kappa = 0.25
        params.alpha = 1.5
        params.beta = 0.75
        params.cfl = 0.3
        params.t_end = 2.0
        params.n = 64
        params.dt_max = 0.01
        initial.kind = random_band_limited
        initial.seed = 7
        initial.k_max = 5
        initial.amplitude = 2.5
        sample_every = 0.1
        snapshot_every = 0.5
        fixed_dt = 0.001
        output_dir = somewhere/deep
        p_list = 3, 5, 8
        eps_bhat = 0.01
        """
        cfg = parse_run_config(text)
        p = cfg.params
        assert (p.nu, p.kappa, p.alpha, p.beta) == (0.5, 0.25, 1.5, 0.75)
        assert (p.cfl, p.t_end, p.n, p.dt_max) == (0.3, 2.0, 64, 0.01)
        assert cfg.initial == InitialSpec(kind="random_band_limited", seed=7,
                                          k_max=5, amplitude=2.5)
        assert cfg.sample_every == 0.1
        assert cfg.snapshot_every == 0.5
        assert cfg.fixed_dt == 0.001
        assert str(cfg.output_dir) == "somewhere/deep"
        assert cfg.p_list == (3.0, 5.0, 8.0)
        assert cfg.eps_bhat == 0.01

    def test_key_table_matches_config_fields(self):
        # one key per field of Params, InitialSpec and the rest of RunConfig
        fields = {f"params.{f.name}" for f in dataclasses.fields(Params)}
        fields |= {f"initial.{f.name}" for f in dataclasses.fields(InitialSpec)}
        fields |= {f.name for f in dataclasses.fields(RunConfig)
                   if f.name not in ("params", "initial")}
        assert set(config._PARSERS) == fields

    def test_defaults(self):
        cfg = parse_run_config("params.n = 32\n")
        assert cfg.params.n == 32
        assert cfg.initial.kind == "orszag_tang"
        assert cfg.snapshot_every is None
        assert cfg.fixed_dt is None
        assert cfg.eps_bhat is None
        assert cfg.p_list == (4.0, 6.0)

    def test_eps_auto_spells_none(self):
        cfg = parse_run_config("params.n = 32\neps_bhat = auto\n")
        assert cfg.eps_bhat is None

    def test_mode_pair(self):
        cfg = parse_run_config(
            "params.n = 32\ninitial.kind = single_mode\ninitial.mode = 2,3\n")
        assert cfg.initial.mode == (2, 3)
        with pytest.raises(ParameterError, match="pair"):
            parse_run_config("initial.mode = 2\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown config key: nu"):
            parse_run_config("nu = 1.0\n")
        with pytest.raises(ParameterError, match="params.gamma"):
            parse_run_config("params.gamma = 1.0\n")
        with pytest.raises(ParameterError, match="initial.phase"):
            parse_run_config("initial.phase = 1.0\n")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ParameterError, match="config line 2"):
            parse_run_config("params.n = 32\njust words\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ParameterError, match="alpha"):
            parse_run_config("params.alpha = -1\n")
        with pytest.raises(ParameterError, match="sample_every"):
            parse_run_config("sample_every = 0\n")
        with pytest.raises(ParameterError, match="p_list"):
            parse_run_config("p_list = 0.5\n")
        with pytest.raises(ParameterError, match="kind"):
            parse_run_config("initial.kind = vortex\n")

    @pytest.mark.parametrize("key", ["sample_every", "snapshot_every",
                                     "fixed_dt", "eps_bhat"])
    def test_infinite_positive_values_rejected(self, key, tmp_path, capsys):
        # inf is positive but no cadence, step or floor: the config rejects
        # it before the run writes anything
        with pytest.raises(ParameterError,
                           match=f"{key} must be positive and finite"):
            parse_run_config(f"{key} = inf\n")
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out) + f"{key} = inf\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_power_of_two_warning(self):
        with pytest.warns(RuntimeWarning, match="power of two"):
            parse_run_config("params.n = 48\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read config file"):
            load_run_config(tmp_path / "absent.cfg")

    def test_make_initial_state(self):
        cfg = parse_run_config(
            "params.n = 32\ninitial.kind = random_band_limited\n"
            "initial.seed = 4\ninitial.k_max = 6\n")
        st = make_initial_state(cfg)
        assert st.grid.n == 32
        st2 = make_initial_state(cfg)
        assert np.array_equal(st.omega_hat, st2.omega_hat)


class TestRunCommand:
    def test_artifacts_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
        assert main(["run", "--config", str(cfg)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"snapshot_initial.bin", "snapshot_final.bin",
                         "diagnostics.csv", "summary.txt"}
        cols, rows = read_csv(out / "diagnostics.csv")
        assert len(rows) == 6  # t = 0.00 .. 0.05 step 0.01
        assert rows[-1]["energy"] < rows[0]["energy"]  # dissipative run
        state, meta = load_snapshot(out / "snapshot_final.bin")
        assert state.t == pytest.approx(0.05)
        assert meta["alpha"] == 1.0

    def test_summary_regime_line(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
        main(["run", "--config", str(cfg)])
        summary = (out / "summary.txt").read_text()
        assert ("regime = ProvenRegular [AlphaGeHalfBetaGeOne; "
                "AlphaGeOneSumGeTwo; SumGeTwoCombined]") in summary
        assert "blow_up = no" in summary

    def test_summary_notes_an_unsourced_verdict(self, tmp_path):
        out = tmp_path / "out"
        text = BASE_CFG.format(out=out).replace(
            "params.alpha = 1.0", "params.alpha = 1.5").replace(
            "params.beta = 1.0", "params.beta = 0.5")
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert ("regime = ProvenRegular [AlphaGeOneSumGeTwo; SumGeTwoCombined; "
                "AlphaGeOneSumGeTwo cites no source]") in summary

    def test_t_end_zero_single_record(self, tmp_path):
        out = tmp_path / "out"
        text = BASE_CFG.format(out=out).replace("params.t_end = 0.05",
                                                "params.t_end = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == 0
        _, rows = read_csv(out / "diagnostics.csv")
        assert len(rows) == 1 and rows[0]["t"] == 0.0

    def test_snapshot_every_writes_timed_states(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path,
                        BASE_CFG.format(out=out) + "snapshot_every = 0.02\n")
        assert main(["run", "--config", str(cfg)]) == 0
        timed = sorted(p.name for p in out.glob("snapshot_t*.bin"))
        assert timed[0] == "snapshot_t0.000000.bin"
        assert "snapshot_t0.020000.bin" in timed

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        out = tmp_path / "never"
        text = BASE_CFG.format(out=out).replace("params.alpha = 1.0",
                                                "params.alpha = -2.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()  # nothing written on a rejected config

    def test_bad_amplitude_exits_one_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "never"
        cfg = write_cfg(tmp_path, (
            f"params.n = 32\nparams.t_end = 0.1\n"
            f"initial.kind = random_band_limited\ninitial.k_max = 8\n"
            f"initial.amplitude = inf\nsample_every = 0.05\n"
            f"output_dir = {out}\n"))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "amplitude" in capsys.readouterr().err
        assert not (out / "snapshot_initial.bin").exists()
        assert not out.exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "never"
        cfg = write_cfg(tmp_path, (
            f"params.n = 32\nparams.t_end = 0.1\n"
            f"initial.kind = random_band_limited\ninitial.k_max = 8\n"
            f"initial.seed = -1\nsample_every = 0.05\noutput_dir = {out}\n"))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert not out.exists()

    def test_blow_up_exits_two_with_partial_artifacts(self, tmp_path):
        out = tmp_path / "out"
        text = (
            f"params.n = 32\nparams.t_end = 0.1\n"
            f"initial.kind = random_band_limited\ninitial.seed = 3\n"
            f"initial.k_max = 8\ninitial.amplitude = 1e200\n"
            f"sample_every = 0.05\noutput_dir = {out}\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == 2
        summary = (out / "summary.txt").read_text()
        assert "blow_up = yes" in summary
        assert "blow_up_time = " in summary
        _, rows = read_csv(out / "diagnostics.csv")
        assert len(rows) >= 1

    @pytest.mark.parametrize("amplitude", ["1e307", "1e308"])
    def test_overflowing_initial_state_is_a_blow_up(self, tmp_path, amplitude):
        # finite spectra whose planes overflow: a blow-up with every
        # artifact written, not an error about a key the config never set
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, overflow_cfg(out, amplitude))
        assert main(["run", "--config", str(cfg)]) == 2
        summary = set((out / "summary.txt").read_text().splitlines())
        assert {"blow_up = yes", "records = 1"} <= summary
        if amplitude == "1e308":  # its stage-1 planes already overflow
            assert "blow_up_time = 0" in summary
        for name in ("snapshot_initial.bin", "diagnostics.csv",
                     "snapshot_final.bin"):
            assert (out / name).exists()


class TestScanCommand:
    def scan_cfg(self, tmp_path, out):
        return write_cfg(tmp_path, (
            f"params.nu = 1.0\nparams.kappa = 1.0\nparams.n = 32\n"
            f"params.t_end = 0.02\ninitial.kind = orszag_tang\n"
            f"sample_every = 0.01\noutput_dir = {out}\n"), "scan.cfg")

    def test_grid_rows_and_formats(self, tmp_path):
        out = tmp_path / "scan_out"
        cfg = self.scan_cfg(tmp_path, out)
        assert main(["scan", "--config", str(cfg),
                     "--alpha", "0.5:1.5:0.5", "--beta", "1.0:1.0:1.0"]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5 and float(first[1]) == 1.0
        assert first[2] == "ProvenRegular"
        assert math.isfinite(float(first[3])) and math.isfinite(float(first[4]))
        assert first[5] == "0"
        alphas = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert alphas == [0.5, 1.0, 1.5]
        summary = (out / "summary.txt").read_text()
        assert "points = 3" in summary
        assert "verdict[ProvenRegular] = 3" in summary

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for tag, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / tag
            cfg = write_cfg(tmp_path, (
                f"params.nu = 1.0\nparams.kappa = 1.0\nparams.n = 32\n"
                f"params.t_end = 0.02\ninitial.kind = orszag_tang\n"
                f"sample_every = 0.01\noutput_dir = {out}\n"), f"{tag}.cfg")
            assert main(["scan", "--config", str(cfg), "--alpha",
                         "0.5:1.0:0.5", "--beta", "0.5:1.0:0.5",
                         "--workers", workers]) == 0
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_pool_is_capped_at_point_count(self, tmp_path, monkeypatch):
        # a process pool forks all its workers at once, so a 4-point scan
        # asked for 500 workers must start a pool of 4; this fake pool maps
        # serially and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # cmd_scan imports the pool class when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        outs, summaries = [], []
        for workers in ("1", "500"):
            out = tmp_path / f"w{workers}"
            cfg = self.scan_cfg(tmp_path, out)
            assert main(["scan", "--config", str(cfg), "--alpha", "0.5:1.0:0.5",
                         "--beta", "0.5:1.0:0.5", "--workers", workers]) == 0
            outs.append((out / "scan.csv").read_bytes())
            summaries.append((out / "summary.txt").read_text().splitlines())
        assert sizes == [4]
        assert outs[0] == outs[1]
        # the summary keeps the request and adds the pool actually used
        assert {"workers = 1", "pool_size = 1"} <= set(summaries[0])
        assert {"workers = 500", "pool_size = 4"} <= set(summaries[1])

    def test_only_a_pooled_scan_loads_the_pool(self):
        # run, verify and classify pay nothing for the process pool: a fresh
        # interpreter that imports the cli has not loaded multiprocessing
        package_root = str(Path(gmhd2d.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        code = ("import sys, gmhd2d.cli\n"
                "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
                " & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_failed_point_is_recorded_not_fatal(self, tmp_path, monkeypatch,
                                                capsys):
        out = tmp_path / "fail_out"
        cfg = self.scan_cfg(tmp_path, out)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("gmhd2d.cli.run", boom)
        assert main(["scan", "--config", str(cfg),
                     "--alpha", "1.0:1.0:1.0", "--beta", "1.0:1.0:1.0"]) == 0
        assert "synthetic failure" in capsys.readouterr().err
        row = (out / "scan.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "ProvenRegular"  # verdict needs no solve
        assert row[3] == "nan" and row[4] == "nan" and row[5] == "1"

    def test_blow_ups_and_errors_are_counted_apart(self, tmp_path,
                                                   monkeypatch, capsys):
        # a serial scan of two points: the one at alpha = 0.5 raises, the
        # other returns a blown-up run; both set the blowup column
        out = tmp_path / "mixed_out"
        cfg = self.scan_cfg(tmp_path, out)

        def half_broken(initial, params, *args, **kwargs):
            if params.alpha == 0.5:
                raise ZeroDivisionError("synthetic bug")
            return RunResult(records=[compute_record(initial, params)],
                             snapshots=[initial], final_state=initial,
                             blew_up=True, blow_up_time=initial.t)

        monkeypatch.setattr("gmhd2d.cli.run", half_broken)
        assert main(["scan", "--config", str(cfg),
                     "--alpha", "0.5:1.0:0.5", "--beta", "1.0:1.0:1.0"]) == 0
        err = capsys.readouterr().err
        assert "ZeroDivisionError: synthetic bug" in err
        rows = [ln.split(",") for ln in
                (out / "scan.csv").read_text().splitlines()[1:]]
        assert [row[5] for row in rows] == ["1", "1"]
        summary = (out / "summary.txt").read_text().splitlines()
        assert {"blow_ups = 1", "errors = 1"} <= set(summary)

    def test_overflowing_initial_state_is_a_blow_up_not_an_error(
            self, tmp_path, capsys):
        out = tmp_path / "overflow_out"
        cfg = write_cfg(tmp_path, overflow_cfg(out, "1e308"), "scan.cfg")
        assert main(["scan", "--config", str(cfg),
                     "--alpha", "1.0:1.0:1.0", "--beta", "1.0:1.0:1.0"]) == 0
        assert "failed" not in capsys.readouterr().err
        summary = (out / "summary.txt").read_text().splitlines()
        assert {"blow_ups = 1", "errors = 0"} <= set(summary)

    def test_bad_base_config_exits_one_without_artifacts(self, tmp_path,
                                                         capsys):
        # the initial state does not depend on (alpha, beta): a bad one is
        # bad input for the whole scan, not a blow-up at every point
        out = tmp_path / "never"
        cfg = write_cfg(tmp_path, (
            f"params.n = 32\nparams.t_end = 0.02\n"
            f"initial.kind = random_band_limited\ninitial.k_max = 20\n"
            f"sample_every = 0.01\noutput_dir = {out}\n"), "scan.cfg")
        assert main(["scan", "--config", str(cfg),
                     "--alpha", "1.0:1.0:1.0", "--beta", "0.5:1.0:0.5"]) == 1
        assert "error: k_max" in capsys.readouterr().err
        assert not out.exists()  # no scan.csv and no summary.txt

    def test_range_parsing(self):
        assert _parse_range("0:1:0.5", "x") == [0.0, 0.5, 1.0]
        assert _parse_range("0.5:1.5:0.5", "x") == [0.5, 1.0, 1.5]
        assert _parse_range("2:2:1", "x") == [2.0]
        # endpoint reached within rounding slack
        assert _parse_range("0:0.3:0.1", "x") == [0.0, 0.1, 0.2, 0.3]
        for bad in ("1:2", "a:b:c", "0:1:0", "0:1:-1", "1:0:0.5", "inf:1:1"):
            with pytest.raises(ParameterError):
                _parse_range(bad, "x")


class TestVerifyCommand:
    def test_identities_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "identities", "--count", "3",
                     "--output", "id.csv"]) == 0
        text = capsys.readouterr().out
        assert "suite identities: PASS (15 checks)" in text
        lines = (tmp_path / "id.csv").read_text().splitlines()
        assert lines[0] == "check,value,bound,kind,passed"
        assert len(lines) == 16
        for ln in lines[1:]:
            check, value, bound, kind, passed = ln.split(",")
            assert float(value) <= float(bound)
            assert kind == "max" and passed == "1"

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "classifier"]) == 0
        assert (tmp_path / "verify_classifier.csv").exists()
        assert "suite classifier: PASS" in capsys.readouterr().out

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown suite 'nope'" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_one(self, tmp_path, capsys, monkeypatch,
                                       count):
        # 0 must not fall back to the default corpus, nor -1 to an empty one
        monkeypatch.chdir(tmp_path)
        for suite in ("identities", "gronwall"):
            assert main(["verify", "--suite", suite, "--count", count]) == 1
            assert "error: count" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failing_suite_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(
            VERIFY_SUITES, "toy",
            lambda count: ([("always_bad", 2.0, 1.0, "max"),
                            ("fine", 0.0, 1.0, "max")], ["toy summary"]))
        assert main(["verify", "--suite", "toy"]) == 1
        out = capsys.readouterr().out
        assert "toy summary" in out
        assert "FAIL always_bad" in out
        assert "suite toy: FAIL (2 checks)" in out
        lines = (tmp_path / "verify_toy.csv").read_text().splitlines()
        assert lines[1] == "always_bad,2,1,max,0"
        assert lines[2] == "fine,0,1,max,1"

    def test_positivity_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "positivity", "--count", "5"]) == 0
        lines = (tmp_path / "verify_positivity.csv").read_text().splitlines()
        assert len(lines) == 10  # header + 3 alphas x 3 exponents
        for ln in lines[1:]:
            _, value, bound, kind, passed = ln.split(",")
            assert kind == "min" and passed == "1"
            assert float(value) >= float(bound) == -1e-10

    def test_gronwall_ignores_count(self, tmp_path, capsys):
        # the gronwall suite integrates one fixed trajectory: no corpus
        outs = [tmp_path / "with_count.csv", tmp_path / "default.csv"]
        assert cmd_verify("gronwall", 3, outs[0]) == 0
        assert cmd_verify("gronwall", output=outs[1]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_classifier_grid_helper(self):
        mono, coverage = classifier_grid_violations(max_exponent=4.0,
                                                    step=0.1)
        assert (mono, coverage) == (0, 0)


class TestClassifyCommand:
    def test_proven_with_witnesses(self, capsys):
        assert main(["classify", "--alpha", "1", "--beta", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == ("ProvenRegular [AlphaGeHalfBetaGeOne; "
                       "AlphaGeOneSumGeTwo; SumGeTwoCombined]")

    def test_unsourced_witness_note(self, capsys):
        assert main(["classify", "--alpha", "1.5", "--beta", "0.5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == ("ProvenRegular [AlphaGeOneSumGeTwo; SumGeTwoCombined; "
                       "AlphaGeOneSumGeTwo cites no source]")

    def test_open_point(self, capsys):
        assert main(["classify", "--alpha", "0.1", "--beta", "1"]) == 0
        assert capsys.readouterr().out.strip() == "Open"

    def test_conditional_exception_note(self, capsys):
        assert main(["classify", "--alpha", "0", "--beta", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == ("ConditionallyRegular [ZeroAlphaBetaGtOne; "
                       "combined-exponent exception at (0, 2)]")


class TestUsageErrors:
    def test_bad_float_exits_one(self, capsys):
        assert main(["classify", "--alpha", "x", "--beta", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_command_exits_one(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "ghost.cfg")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_zero_workers_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "o"))
        assert main(["scan", "--config", str(cfg), "--alpha", "1:1:1",
                     "--beta", "1:1:1", "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
