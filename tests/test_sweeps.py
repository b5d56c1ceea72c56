"""Sweep harness and CLI contracts."""

import dataclasses
import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from phaseinpaint import sweeps
from phaseinpaint.cli import main
from phaseinpaint.observe import Observations, observe, save_observations
from phaseinpaint.gabor import benchmark_system, stft
from phaseinpaint.masks import random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.phasecut import PciConfig
from phaseinpaint.phaselift import PliConfig, pli_solve
from phaseinpaint.signals import benchmark_signal
from phaseinpaint.sweeps import (
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    emit,
    reconstruct,
    run_hole_sweep,
    run_ratio_sweep,
    summarize,
)

FAST = dict(
    methods=("gli", "rpi"),
    n_trials=2,
    record_timing=False,
    gli={"n_iter": 50},
)


def fast_config(**overrides):
    base = dict(FAST)
    base.update(overrides)
    return config_from_dict(base)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(asdict(cfg)) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"ratio": [0.1]})

    def test_output_dir_key_rejected(self):
        # the field was never read; the output directory is the CLI's --out
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"output_dir": "results"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="gli"):
            config_from_dict({"gli": {"iterations": 10}})
        # the start seed is the trial seed, so a configured one is rejected,
        # not silently overwritten
        with pytest.raises(ValueError, match="init_seed"):
            config_from_dict({"gli": {"init_seed": 5}})

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            config_from_dict({"methods": ["gli", "magic"]})

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratios"):
            config_from_dict({"ratios": [0.2, 1.4]})

    def test_construction_checks(self):
        # a config built in code or by replace is checked like one from JSON
        with pytest.raises(ValueError, match="n_trials"):
            ExperimentConfig(n_trials=0)
        with pytest.raises(ValueError, match="workers"):
            dataclasses.replace(ExperimentConfig(), workers=0)
        # nested blocks must be the config classes, not their JSON objects
        with pytest.raises(ValueError, match="gli must be a GliConfig"):
            ExperimentConfig(gli={"n_iter": 5})

    @pytest.mark.parametrize(
        "case, field",
        [
            ({"ratios": 5}, "ratios"),
            ({"widths": 3}, "widths"),
            ({"methods": "gli"}, "methods"),
            ({"methods": [["gli"]]}, "methods"),
            ({"pci_points": 5}, "pci_points"),
        ],
        ids=["ratios_scalar", "widths_scalar", "methods_text", "methods_nested", "pci_points_scalar"],
    )
    def test_list_field_needs_list(self, case, field):
        with pytest.raises(ValueError, match=field):
            config_from_dict(case)

    def test_pli_constants_not_settable(self):
        # pli's warm-up schedule, step caps and tolerance and pci's iteration
        # budget are solver constants
        assert dataclasses.fields(PliConfig) == ()
        with pytest.raises(TypeError):
            PliConfig(feas_tol=1e-8)
        with pytest.raises(ValueError, match=r"unknown config keys: \['pli'\]"):
            config_from_dict({"pli": {"penalty_schedule": [1.0]}})
        assert dataclasses.fields(PciConfig) == ()
        with pytest.raises(TypeError):
            PciConfig(max_sweeps=10)
        with pytest.raises(ValueError, match=r"unknown config keys: \['pci'\]"):
            config_from_dict({"pci": {"max_sweeps": 10}})

    def test_pli_block_is_unknown_key(self, tmp_path, capsys):
        # PliConfig and PciConfig have no settable field, so a sweep config
        # has no pli or pci block
        for key, block in (("pli", {"constraint_mode": "anchored"}), ("pci", {"max_sweeps": 5000})):
            with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
                config_from_dict({key: block})
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({key: block}))
            code = main(["sweep", "--kind", "ratio", "--config", str(path), "--out", str(tmp_path)])
            assert code == 2
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"fixed_ratio": 0.3}, r"unknown config keys: \['fixed_ratio'\]"),
            ({"gli": {"residual_tol": 1e-12}}, r"unknown keys in 'gli' block: \['residual_tol'\]"),
        ],
        ids=["fixed_ratio", "gli_residual_tol"],
    )
    def test_removed_setting_is_unknown_key(self, tmp_path, capsys, data, message):
        # the hole sweep's ratio and gli's tolerance are constants now
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code = main(["sweep", "--kind", "ratio", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown" in capsys.readouterr().err


class TestRatioSweep:
    def test_zero_ratio_every_method_exact(self):
        cfg = config_from_dict(
            dict(
                methods=("gli", "pli", "pci", "rpi"),
                ratios=(0.0,),
                n_trials=2,
                record_timing=False,
            )
        )
        rows = run_ratio_sweep(cfg)
        assert len(rows) == 8
        assert all(r.e_db <= -200.0 for r in rows)

    def test_rows_sorted_and_seeded(self):
        cfg = fast_config(ratios=(0.3, 0.1))
        rows = run_ratio_sweep(cfg)
        keys = [(r.sweep_param, r.method, r.trial) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.seed == cfg.base_seed + r.trial

    def test_shared_mask_fairness(self):
        # same (point, trial) rows across methods carry the same seed
        cfg = fast_config(ratios=(0.2,))
        rows = run_ratio_sweep(cfg)
        by_trial = {}
        for r in rows:
            by_trial.setdefault(r.trial, set()).add(r.seed)
        for seeds in by_trial.values():
            assert len(seeds) == 1

    def test_sdp_point_subsampling(self):
        cfg = config_from_dict(
            dict(
                methods=("gli", "pci"),
                ratios=(0.0, 0.1),
                pci_points=(0.1,),
                n_trials=1,
                record_timing=False,
                gli={"n_iter": 20},
            )
        )
        rows = run_ratio_sweep(cfg)
        pci_params = {r.sweep_param for r in rows if r.method == "pci"}
        gli_params = {r.sweep_param for r in rows if r.method == "gli"}
        assert pci_params == {0.1}
        assert gli_params == {0.0, 0.1}

    @pytest.mark.parametrize("n_iter, converged", [(3, False), (2000, True)])
    def test_gli_converged_column(self, n_iter, converged):
        # gli reports the residual plateau, not a constant True
        cfg = config_from_dict(
            dict(methods=("gli",), ratios=(0.1,), n_trials=1, gli={"n_iter": n_iter})
        )
        assert [r.converged for r in run_ratio_sweep(cfg)] == [converged]

    def test_worker_pool_matches_serial(self):
        cfg = fast_config(ratios=(0.1, 0.2))
        serial = run_ratio_sweep(cfg)
        parallel = run_ratio_sweep(config_from_dict({**FAST, "ratios": (0.1, 0.2), "workers": 2}))
        assert [(r.sweep_param, r.method, r.trial, r.e_db) for r in serial] == [
            (r.sweep_param, r.method, r.trial, r.e_db) for r in parallel
        ]

    @pytest.mark.parametrize(
        "workers, ratios, pool_size",
        [(500, (0.1, 0.2), 2), (3, (0.1,), None), (3, (), None)],
        ids=["more_workers_than_tasks", "one_task", "no_task"],
    )
    def test_worker_pool_no_larger_than_tasks(self, monkeypatch, workers, ratios, pool_size):
        # the pool forks all of its workers at the first submit, so it gets
        # one per task at most, and none for fewer than two tasks
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

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", SerialPool)
        cfg = fast_config(ratios=ratios, n_trials=1, workers=workers)
        rows = run_ratio_sweep(cfg)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert rows == run_ratio_sweep(dataclasses.replace(cfg, workers=1))
        assert len(rows) == 2 * len(ratios)


def test_inconsistent_magnitudes_end_finite_with_honest_status():
    # 1% complex noise on the STFT coefficients: no signal matches the
    # magnitudes and known phases. gli and pci stop on their own rules, rpi
    # always reports True, and pli ends at a least-squares point short of
    # feas_tol, its LM stage stopped by its own rule before the budget
    system = benchmark_system()
    x = benchmark_signal(seed=1234)
    coeffs = stft(system, x)
    rng = np.random.default_rng(1234)
    noise = (rng.standard_normal(coeffs.shape) + 1j * rng.standard_normal(coeffs.shape)) / np.sqrt(2)
    coeffs = coeffs + 0.01 * np.sqrt(np.mean(np.abs(coeffs) ** 2)) * noise
    obs = Observations(system, coeffs, random_mask(32, 16, 0.5, seed=1234))
    expected = {"gli": True, "pci": True, "rpi": True, "pli": False}
    for method, converged in expected.items():
        x_hat, status = reconstruct(method, obs, 1234, ExperimentConfig())
        assert np.all(np.isfinite(x_hat)), method
        assert status is converged, method
        if method != "rpi":
            assert error_db(x, x_hat).e_db <= -30.0, method
    lifted = pli_solve(obs)
    assert lifted.feas_residual > PliConfig().feas_tol
    assert lifted.stage_log[-1]["iterations"] < PliConfig().max_inner


class TestHoleSweep:
    def test_rpi_never_reconstructs(self):
        cfg = config_from_dict(
            dict(methods=("rpi",), widths=(1, 3, 5, 7, 9), n_trials=5, record_timing=False)
        )
        rows = run_hole_sweep(cfg)
        for width in (1, 3, 5, 7, 9):
            med = np.median([r.e_db for r in rows if r.sweep_param == width])
            assert med >= -10.0

    def test_width_one_gli_recovers(self):
        cfg = config_from_dict(
            dict(methods=("gli",), widths=(1,), n_trials=5, record_timing=False)
        )
        rows = run_hole_sweep(cfg)
        assert np.median([r.e_db for r in rows]) <= -50.0


class TestEmit:
    def test_empty_rows_gives_header_only(self, tmp_path):
        cfg = fast_config()
        paths = emit([], tmp_path, cfg)
        assert paths["results"].read_text() == (
            "sweep_param,method,trial,e_db,seconds,converged,seed\n"
        )

    def test_determinism_byte_identical(self, tmp_path):
        cfg = fast_config(ratios=(0.1, 0.3))
        emit(run_ratio_sweep(cfg), tmp_path / "a", cfg)
        emit(run_ratio_sweep(cfg), tmp_path / "b", cfg)
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "config.json").read_bytes() == (
            tmp_path / "b" / "config.json"
        ).read_bytes()

    def test_summary_matches_recomputation(self, tmp_path):
        cfg = fast_config(ratios=(0.2, 0.4), n_trials=3)
        rows = run_ratio_sweep(cfg)
        emit(rows, tmp_path, cfg)
        table = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        parsed = {}
        for line in table:
            param, method, trial, e_db, *_ = line.split(",")
            parsed.setdefault((float(param), method), []).append(float(e_db))
        for line in (tmp_path / "summary.csv").read_text().strip().splitlines()[1:]:
            param, method, med, lo, hi, n = line.split(",")
            vals = parsed[(float(param), method)]
            assert float(med) == np.median(vals)
            assert float(lo) == min(vals)
            assert float(hi) == max(vals)
            assert int(n) == len(vals)

    def test_config_json_records_trials(self, tmp_path):
        cfg = fast_config(n_trials=2)
        emit([], tmp_path, cfg)
        stored = json.loads((tmp_path / "config.json").read_text())
        assert stored["n_trials"] == 2
        assert stored["gli"]["n_iter"] == 50
        assert "pli" not in stored

    def test_table_text(self, tmp_path):
        rows = [
            ResultRow(0.1, "gli", 0, -61.25, 0.0, True, 1234),
            ResultRow(0.1, "gli", 1, -70.5, 0.0, False, 1235),
            ResultRow(0.1, "rpi", 0, -3.0, 0.0, True, 1234),
            ResultRow(0.5, "rpi", 0, -1.0, 0.125, True, 1234),
        ]
        emit(rows, tmp_path, fast_config())
        assert (tmp_path / "results.csv").read_text() == (
            "sweep_param,method,trial,e_db,seconds,converged,seed\n"
            "0.1,gli,0,-61.25,0.0,True,1234\n"
            "0.1,gli,1,-70.5,0.0,False,1235\n"
            "0.1,rpi,0,-3.0,0.0,True,1234\n"
            "0.5,rpi,0,-1.0,0.125,True,1234\n"
        )
        assert (tmp_path / "summary.csv").read_text() == (
            "sweep_param,method,median_e_db,min_e_db,max_e_db,n_trials\n"
            "0.1,gli,-65.875,-70.5,-61.25,2\n"
            "0.1,rpi,-3.0,-3.0,-3.0,1\n"
            "0.5,rpi,-1.0,-1.0,-1.0,1\n"
        )
        assert (tmp_path / "curves.csv").read_text() == (
            "sweep_param,gli,rpi\n"
            "0.1,-65.875,-3.0\n"
            "0.5,,-1.0\n"
        )

    def test_curves_have_method_columns(self, tmp_path):
        cfg = fast_config(ratios=(0.1,))
        rows = run_ratio_sweep(cfg)
        emit(rows, tmp_path, cfg)
        header = (tmp_path / "curves.csv").read_text().splitlines()[0]
        assert header == "sweep_param,gli,rpi"


class TestSummarize:
    def test_median_min_max(self):
        cfg = fast_config(ratios=(0.3,), n_trials=3)
        rows = run_ratio_sweep(cfg)
        for param, method, med, lo, hi, n in summarize(rows):
            vals = [r.e_db for r in rows if r.method == method]
            assert med == np.median(vals)
            assert lo == min(vals)
            assert hi == max(vals)
            assert n == 3


class TestCli:
    def write_config(self, tmp_path, **overrides):
        data = {**FAST, "ratios": [0.0, 0.2], **overrides}
        data["methods"] = list(data["methods"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return path

    def test_sweep_command_writes_outputs(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        code = main(
            ["sweep", "--kind", "ratio", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        for name in ("results.csv", "summary.csv", "curves.csv", "config.json"):
            assert (tmp_path / "out" / name).exists()

    def test_methods_override(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--kind",
                "ratio",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "out"),
                "--methods",
                "rpi",
            ]
        )
        assert code == 0
        body = (tmp_path / "out" / "results.csv").read_text()
        assert ",gli," not in body
        assert ",rpi," in body

    def test_invalid_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"methods": ["nope"]}))
        code = main(["sweep", "--kind", "ratio", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "block",
        [
            {"gli": {"n_iter": 0}},
            {"gli": {"n_iter": "ten"}},
            {"pli": {"constraint_mode": "bogus"}},
            {"pli": {"max_inner": 0}},
            {"pli": {"max_outer": 0}},
            {"pli": {"penalty_schedule": []}},
            {"pli": {"feas_tol": "x"}},
            {"pli": {"penalty_schedule": ["a"]}},
            {"pli": {"feas_tol": -1}},
            {"pli": {"penalty_schedule": [-1.0]}},
            {"pli": {"penalty_schedule": [1.0, float("nan")]}},
            {"base_seed": "x"},
            {"base_seed": -5},
            {"base_seed": 1.5},
            {"n_trials": 1.5},
            {"workers": 1.5},
            {"gli": {"n_iter": 2.5}},
            {"widths": [20]},
            {"widths": [2.5]},
            {"record_timing": "no"},
            {"pli_points": ["x"]},
            {"pci_points": [True]},
            {"pci_points": 5},
            {"pli_points": [-0.5]},
            {"pci_points": [float("nan")]},
            {"methods": ["gli", "gli"]},
            {"ratios": [0.1, 0.1]},
            {"widths": [3, 3]},
        ],
        ids=[
            "n_iter_zero",
            "n_iter_text",
            "unknown_mode",
            "max_inner_zero",
            "max_outer_zero",
            "empty_schedule",
            "feas_tol_text",
            "schedule_text",
            "feas_tol_negative",
            "schedule_negative",
            "schedule_nan",
            "base_seed_text",
            "base_seed_negative",
            "base_seed_fraction",
            "n_trials_fraction",
            "workers_fraction",
            "n_iter_fraction",
            "width_too_large",
            "width_fraction",
            "record_timing_text",
            "pli_points_text",
            "pci_points_bool",
            "pci_points_scalar",
            "pli_points_negative",
            "pci_points_nan",
            "methods_repeat",
            "ratios_repeat",
            "widths_repeat",
        ],
    )
    def test_bad_solver_value_exits_two(self, tmp_path, capsys, block):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(block))
        kind = "hole" if "widths" in block else "ratio"
        code = main(["sweep", "--kind", kind, "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(
            ["sweep", "--kind", "ratio", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_bad_cli_usage_exits_two(self, capsys):
        assert main(["sweep", "--kind", "spiral", "--out", "x"]) == 2

    def test_solve_round_trip(self, tmp_path):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=3)
        obs = observe(sys_, x, random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        out = tmp_path / "recon.csv"
        code = main(["solve", "--obs", str(tmp_path / "obs"), "--method", "gli", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        x_hat = np.array([complex(float(a), float(b)) for a, b in (r.split(",") for r in rows)])
        from phaseinpaint.metrics import error_db

        assert error_db(x, x_hat).e_db <= -50.0

    def test_solve_missing_dir_exits_two(self, tmp_path):
        assert main(["solve", "--obs", str(tmp_path / "none"), "--method", "gli"]) == 2

    def test_solve_negative_seed_exits_two(self, tmp_path, capsys):
        obs = observe(benchmark_system(), benchmark_signal(seed=3), random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        out = tmp_path / "recon.csv"
        argv = ["solve", "--obs", str(tmp_path / "obs"), "--method", "rpi", "--out", str(out)]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["r.csv", "mask.csv"])
    def test_solve_empty_grid_file_exits_two_without_warning(self, tmp_path, capfd, recwarn, name):
        obs = observe(benchmark_system(), benchmark_signal(seed=3), random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        (tmp_path / "obs" / name).write_text("")
        assert main(["solve", "--obs", str(tmp_path / "obs"), "--method", "gli"]) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error") and name in err
        assert "Warning" not in err
        # pytest records warnings instead of printing them; numpy's loadtxt
        # warns on a file with no data
        assert not recwarn.list

    @pytest.mark.parametrize(
        "row, message",
        [
            ("9999,1,0", "outside"),
            ("-1,1,0", "outside"),
            ("1.5,1,0", "not an integer"),
            ("abc,1,0", "not an integer"),
            ("repeat", "repeats"),
            ("off-mask", "mask.csv is 0"),
        ],
    )
    def test_solve_bad_known_index_exits_two(self, tmp_path, capsys, row, message):
        sys_ = benchmark_system()
        obs = observe(sys_, benchmark_signal(seed=3), random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        b_csv = tmp_path / "obs" / "b.csv"
        lines = b_csv.read_text().splitlines()
        if row == "repeat":
            row = lines[1]
        elif row == "off-mask":
            row = f"{obs.missing_flat_indices()[0]},0,0"
        b_csv.write_text("\n".join(lines + [row]) + "\n")
        assert main(["solve", "--obs", str(tmp_path / "obs"), "--method", "gli"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert message in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda desc: [desc],
            lambda desc: {**desc, "hop": None},
            lambda desc: {**desc, "signal_len": desc["signal_len"] + 0.5},
            lambda desc: {**desc, "bins": float(desc["bins"])},
            lambda desc: {**desc, "bins": str(desc["bins"])},
            lambda desc: {**desc, "hop": True},
            lambda desc: {**desc, "window": {"a": 1}},
            lambda desc: {**desc, "window": [[1, 2], [3, 4]]},
        ],
        ids=[
            "list",
            "hop_null",
            "signal_len_fraction",
            "bins_float",
            "bins_text",
            "hop_bool",
            "window_object",
            "window_nested",
        ],
    )
    def test_solve_bad_sys_json_exits_two(self, tmp_path, capsys, edit):
        obs = observe(benchmark_system(), benchmark_signal(seed=3), random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        sys_json = tmp_path / "obs" / "sys.json"
        sys_json.write_text(json.dumps(edit(json.loads(sys_json.read_text()))))
        out = tmp_path / "recon.csv"
        code = main(["solve", "--obs", str(tmp_path / "obs"), "--method", "gli", "--out", str(out)])
        assert code == 2
        assert "sys.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["gli", "pli", "pci", "rpi"])
    def test_solve_all_zero_observations(self, tmp_path, method):
        obs = observe(benchmark_system(), np.zeros(128), random_mask(32, 16, 0.5, seed=0))
        save_observations(obs, tmp_path / "obs")
        out = tmp_path / "recon.csv"
        code = main(["solve", "--obs", str(tmp_path / "obs"), "--method", method, "--out", str(out)])
        assert code == 0
        values = np.loadtxt(out, delimiter=",", skiprows=1)
        assert values.shape == (128, 2)
        assert np.all(values == 0.0)

    @staticmethod
    def _fail_if_called(*args, **kwargs):
        raise AssertionError("the checks run before any solve")

    def test_sweep_out_is_a_file_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("phaseinpaint.cli.run_sweep", self._fail_if_called)
        cfg_path = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code = main(["sweep", "--kind", "ratio", "--config", str(cfg_path), "--out", str(taken)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize(
        "kind, sweep", [("ratio", "hole_width"), ("hole", "ratio")], ids=["ratio", "hole"]
    )
    def test_kind_contradicting_config_sweep_exits_two(
        self, tmp_path, capsys, monkeypatch, kind, sweep
    ):
        monkeypatch.setattr("phaseinpaint.cli.run_sweep", self._fail_if_called)
        cfg_path = self.write_config(tmp_path, sweep=sweep, widths=[3])
        out = tmp_path / "out"
        code = main(["sweep", "--kind", kind, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--kind" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, sweep", [("ratio", None), ("ratio", "ratio"), ("hole", "hole_width")]
    )
    def test_kind_matching_config_sweep_runs(self, tmp_path, monkeypatch, kind, sweep):
        # a config without sweep, with the same one, or emitted by the same kind of sweep
        expected = "ratio" if kind == "ratio" else "hole_width"
        ran = []
        monkeypatch.setattr("phaseinpaint.cli.run_sweep", lambda cfg: ran.append(cfg) or [])
        overrides = {} if sweep is None else {"sweep": sweep}
        cfg_path = self.write_config(tmp_path, widths=[3], **overrides)
        out = tmp_path / "out"
        assert main(["sweep", "--kind", kind, "--config", str(cfg_path), "--out", str(out)]) == 0
        emitted = out / "config.json"
        assert json.loads(emitted.read_text())["sweep"] == expected
        rerun = ["sweep", "--kind", kind, "--config", str(emitted), "--out", str(tmp_path / "again")]
        assert main(rerun) == 0
        assert ran[0] == ran[1] and ran[0].sweep == expected

    @pytest.mark.parametrize("out_name", ["missing/recon.csv", "obs"])
    def test_solve_unusable_out_exits_two(self, tmp_path, capsys, monkeypatch, out_name):
        # a file in a directory that does not exist, or an existing directory
        monkeypatch.setattr("phaseinpaint.cli.reconstruct", self._fail_if_called)
        obs = observe(benchmark_system(), benchmark_signal(seed=3), random_mask(32, 16, 0.2, seed=3))
        save_observations(obs, tmp_path / "obs")
        out = tmp_path / out_name
        code = main(["solve", "--obs", str(tmp_path / "obs"), "--method", "gli", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "missing").exists()

    def test_module_invocation(self, tmp_path):
        # exercised through a subprocess to mirror the shipped console script
        cfg_path = self.write_config(tmp_path, ratios=[0.1], n_trials=1)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "phaseinpaint.cli",
                "sweep",
                "--kind",
                "ratio",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "results.csv").exists()
