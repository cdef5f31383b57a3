"""Config validation, subcommand artifacts, exit codes, reproducibility."""

import concurrent.futures
import json

import numpy as np
import pytest

from tropnet.cli import main
from tropnet.harness import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    ConfigError,
    emit_report,
    parse_config,
    run_subcommand,
)


def network_dict(widths=(2, 3, 3), last_identity=False):
    out = {
        "widths": list(widths),
        "r": 2,
        "weight_dist": {"kind": "bounded-uniform-integer", "lo": -2, "hi": 2},
        "bias_dist": {"kind": "bounded-uniform-real", "lo": -1.0, "hi": 1.0},
        "coeff_dists": {"kind": "bounded-uniform-real", "lo": -1.0, "hi": 1.0},
        "exponent_dists": {"kind": "bounded-uniform-integer", "lo": 0, "hi": 2},
        "input_box": [[-1.0, 1.0]] * widths[0],
    }
    if last_identity:
        out["thresholds"] = ["relu"] * (len(widths) - 2) + ["identity"]
    return out


class TestConfigValidation:
    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config("volley", {})

    def test_missing_network_reports_path(self):
        with pytest.raises(ConfigError, match="config.network"):
            parse_config("bounds", {"bounds": {"n": 2000}})

    def test_bad_field_reports_path(self):
        with pytest.raises(ConfigError, match="config.bounds.n"):
            parse_config("bounds", {"network": network_dict(), "bounds": {"n": 10}})

    def test_bad_distribution_reports_path(self):
        bad = network_dict()
        bad["weight_dist"] = {"kind": "bounded-uniform-real", "lo": 0, "hi": 1}
        with pytest.raises(ConfigError, match="config.network"):
            parse_config("simulate", {"network": bad})

    def test_workers_validated(self):
        with pytest.raises(ConfigError, match="config.workers"):
            parse_config("simulate", {"network": network_dict(), "workers": 0})

    def test_zero_width_truncated_gaussian_is_a_config_error(self):
        bad = network_dict()
        bad["bias_dist"] = {"kind": "truncated-gaussian", "lo": 0.5, "hi": 0.5,
                            "mu": 0.0, "sigma": 1.0}
        with pytest.raises(ConfigError, match="config.network"):
            parse_config("bounds", {"network": bad})

    def test_underflowing_truncated_gaussian_is_a_config_error(self):
        bad = network_dict()
        bad["bias_dist"] = {"kind": "truncated-gaussian", "lo": 40.0, "hi": 41.0,
                            "mu": 0.0, "sigma": 1.0}
        with pytest.raises(ConfigError, match="config.network"):
            parse_config("bounds", {"network": bad})

    def test_classify_needs_inputs(self):
        with pytest.raises(ConfigError, match="config.classify.inputs"):
            parse_config("classify", {"network": network_dict(), "classify": {}})


class TestSubcommands:
    def test_simulate_writes_runs(self, tmp_path):
        cfg = parse_config("simulate", {"seed": 1, "network": network_dict(),
                                        "simulate": {"n": 3}})
        code, files = run_subcommand("simulate", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert "runs.csv" in files and "runs.json" in files
        assert (tmp_path / "manifest.json").exists()

    def test_runs_csv_dump(self, tmp_path):
        cfg = parse_config("simulate", {"seed": 1, "network": network_dict(),
                                        "simulate": {"n": 2}})
        run_subcommand("simulate", cfg, out_dir=tmp_path)
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert lines[0] == "run,layer,unit,f,g,h,nu"
        rows = [line.split(",") for line in lines[1:]]
        # layer 0 has no preactivation column value
        assert all((row[5] == "") == (row[1] == "0") for row in rows)
        # one row per unit of every layer of every run
        assert len(rows) == 2 * sum((2, 3, 3))

    def test_bounds_consistent_exit_zero(self, tmp_path):
        cfg = parse_config("bounds", {
            "seed": 2, "network": network_dict(),
            "bounds": {"n": 2000, "t_grid": [0.0, 5.0, 50.0]}})
        code, files = run_subcommand("bounds", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert "bound_reports.csv" in files

    def test_classify_audit(self, tmp_path):
        cfg = parse_config("classify", {
            "seed": 3, "network": network_dict(widths=(2, 3, 1), last_identity=True),
            "classify": {"n": 2000, "inputs": [[0.2, -0.4], [0.8, 0.8]]}})
        code, files = run_subcommand("classify", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert "audit.csv" in files

    def test_select_layers_deterministic(self, tmp_path):
        L = np.arange(1, 1001)
        table = tmp_path / "gamma.csv"
        np.savetxt(table, np.log(L) / np.sqrt(L), delimiter=",")
        cfg = parse_config("select-layers", {
            "select_layers": {"method": "deterministic",
                              "gamma_table": str(table)}})
        code, files = run_subcommand("select-layers", cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        sel = json.loads((tmp_path / "out" / "selection.json").read_text())
        assert sel["tau"] == 7

    def test_select_layers_perfect_fit_writes_valid_json(self, tmp_path):
        zero = {"kind": "finite-support", "values": [0.0]}
        cfg = parse_config("select-layers", {
            "network": {"widths": [1, 1, 1], "weight_dist": zero, "bias_dist": zero,
                        "init_mode": "identity", "input_box": [[-1.0, 1.0]]},
            "select_layers": {"method": "lsmc", "horizon": 2, "y_star": [0.0],
                              "n_trajectories": 100}})
        with pytest.warns(UserWarning, match="perfect fit"):
            code, _ = run_subcommand("select-layers", cfg, out_dir=tmp_path)
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        sel = json.loads((tmp_path / "selection.json").read_text(),
                         parse_constant=reject)
        assert sel["value"] == "inf" and sel["S"] == ["inf", "inf"]

    def test_regions_polynomial(self, tmp_path):
        cfg = parse_config("regions", {"regions": {"polynomial": {
            "d": 2, "monomials": [{"c": 0.0, "alpha": [1, 0]},
                                  {"c": 0.0, "alpha": [0, 1]},
                                  {"c": 0.0, "alpha": [0, 0]}]}}})
        code, _ = run_subcommand("regions", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        data = json.loads((tmp_path / "regions.json").read_text())
        assert data["exact_lp"] == 3 and data["grid_oracle"] == 3

    def test_mgale_walk(self, tmp_path):
        cfg = parse_config("mgale-check", {
            "seed": 4,
            "mgale_check": {"source": "random-walk", "steps": 5, "n": 5000,
                            "a_grid": [1.0, 3.0]}})
        code, files = run_subcommand("mgale-check", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert "walk_reports.csv" in files

    def test_bounds_starts_one_pool(self, tmp_path, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg = parse_config("bounds", {"seed": 2, "workers": 2, "network": network_dict(),
                                      "bounds": {"n": 20_000, "t_grid": [0.0, 5.0]}})
        code, _ = run_subcommand("bounds", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert starts == [2]

    def test_manifest_lists_only_this_run(self, tmp_path):
        sim = parse_config("simulate", {"network": network_dict(), "simulate": {"n": 2}})
        run_subcommand("simulate", sim, out_dir=tmp_path)
        sel = parse_config("select-layers", {"select_layers": {
            "method": "deterministic", "gamma": [1.0, 3.0, 2.0]}})
        _, files = run_subcommand("select-layers", sel, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(files) == set(manifest["files"]) == {"selection.json", "envelope.csv"}


class TestClassifySeeding:
    @staticmethod
    def _audit(tmp_path, seed, inputs, workers=1):
        cfg = parse_config("classify", {
            "seed": seed, "workers": workers,
            "network": network_dict(widths=(2, 3, 1), last_identity=True),
            "classify": {"n": 2000, "inputs": inputs}})
        out = tmp_path / f"s{seed}-{len(inputs)}-w{workers}"
        run_subcommand("classify", cfg, out_dir=out)
        return (out / "audit.csv").read_text().splitlines()[1:]

    def test_inputs_of_adjacent_seeds_draw_apart(self, tmp_path):
        x = [0.2, -0.4]
        seed0 = self._audit(tmp_path, 0, [x, x])
        seed1 = self._audit(tmp_path, 1, [x])
        estimate = lambda row: row.split(",")[1]
        assert estimate(seed0[1]) != estimate(seed1[0])
        assert estimate(seed0[0]) != estimate(seed0[1])

    def test_worker_count_does_not_change_audit(self, tmp_path):
        inputs = [[0.2, -0.4], [0.8, 0.8], [-0.5, 0.1]]
        assert self._audit(tmp_path, 3, inputs) == \
            self._audit(tmp_path, 3, inputs, workers=2)


class TestExitCodes:
    def test_violated_verdict_logic(self):
        from tropnet.bounds import BoundReport
        r = BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.01,
                        empirical=0.9, se=0.001, n=1000)
        assert r.verdict == "violated"

    def test_any_violation_gates_exit_two(self, tmp_path, monkeypatch):
        # Correct math never violates its own bounds, so stub the verifier
        # to return one violated report and check the exit-code contract.
        import tropnet.harness as harness
        from tropnet.bounds import BoundReport

        def fake_verify(*args, **kwargs):
            return [BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.01,
                                empirical=0.9, se=0.001, n=1000)]

        monkeypatch.setattr(harness, "verify_layer_concentration", fake_verify)
        cfg = parse_config("bounds", {"network": network_dict(),
                                      "bounds": {"n": 2000, "t_grid": [1.0]}})
        code, _ = run_subcommand("bounds", cfg, out_dir=tmp_path)
        assert code == EXIT_VIOLATION

    def test_cli_config_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bounds": {"n": 10}}')
        code = main(["bounds", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR

    def test_cli_json_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bounds": {"n": 10}}')
        code = main(["bounds", "--config", str(bad), "--json-errors",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().out)
        assert "config.network" in err["error"]


class TestReproducibility:
    def test_same_seed_same_checksums(self, tmp_path):
        raw = {"seed": 5, "network": network_dict(),
               "bounds": {"n": 2000, "t_grid": [0.0, 10.0]}}
        _, files1 = run_subcommand("bounds", parse_config("bounds", raw),
                                   out_dir=tmp_path / "a")
        _, files2 = run_subcommand("bounds", parse_config("bounds", raw),
                                   out_dir=tmp_path / "b")
        assert files1 == files2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        base = {"seed": 6, "network": network_dict(),
                "bounds": {"n": 20_000, "t_grid": [0.0, 5.0, 20.0]}}
        one = dict(base, workers=1)
        two = dict(base, workers=3)
        _, files1 = run_subcommand("bounds", parse_config("bounds", one),
                                   out_dir=tmp_path / "w1")
        _, files2 = run_subcommand("bounds", parse_config("bounds", two),
                                   out_dir=tmp_path / "w2")
        assert files1 == files2
        assert (tmp_path / "w1" / "bound_reports.csv").read_bytes() == \
            (tmp_path / "w2" / "bound_reports.csv").read_bytes()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("TROPNET_OUT", str(target))
        cfg = parse_config("simulate", {"network": network_dict(),
                                        "simulate": {"n": 1}})
        run_subcommand("simulate", cfg, out_dir=tmp_path / "ignored")
        assert (target / "runs.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestReport:
    def test_empty_directory_all_gaps(self, tmp_path):
        text = emit_report(tmp_path)
        assert "GAP: manifest.json missing" in text
        assert "No artifacts found." in text

    def test_report_regeneration_is_byte_identical(self, tmp_path):
        cfg = parse_config("bounds", {"seed": 7, "network": network_dict(),
                                      "bounds": {"n": 2000, "t_grid": [0.0, 10.0]}})
        run_subcommand("bounds", cfg, out_dir=tmp_path)
        a = emit_report(tmp_path)
        b = emit_report(tmp_path)
        assert a == b
        assert "bound_reports.csv" in a

    def test_missing_manifest_file_flagged(self, tmp_path):
        cfg = parse_config("bounds", {"seed": 8, "network": network_dict(),
                                      "bounds": {"n": 2000, "t_grid": [0.0]}})
        run_subcommand("bounds", cfg, out_dir=tmp_path)
        (tmp_path / "bound_reports.json").unlink()
        text = emit_report(tmp_path)
        assert "GAP: bound_reports.json missing" in text

    def test_cli_report(self, tmp_path, capsys):
        cfg = parse_config("simulate", {"network": network_dict(),
                                        "simulate": {"n": 1}})
        run_subcommand("simulate", cfg, out_dir=tmp_path)
        code = main(["report", str(tmp_path)])
        assert code == EXIT_OK
        assert "runs.csv" in capsys.readouterr().out


class TestCliSelectLayers:
    def test_flags_without_config(self, tmp_path):
        L = np.arange(1, 1001)
        table = tmp_path / "gamma.csv"
        np.savetxt(table, np.log(L) / np.sqrt(L), delimiter=",")
        out = tmp_path / "out"
        code = main(["select-layers", "--method", "deterministic",
                     "--gamma-table", str(table), "--out", str(out)])
        assert code == EXIT_OK
        sel = json.loads((out / "selection.json").read_text())
        assert sel["tau"] == 7 and len(sel["S"]) == 1000
        assert (out / "envelope.csv").exists()

    def test_horizon_flag_truncates(self, tmp_path):
        table = tmp_path / "gamma.csv"
        np.savetxt(table, np.array([1.0, 3.0, 2.0, 5.0]), delimiter=",")
        out = tmp_path / "out"
        code = main(["select-layers", "--method", "deterministic",
                     "--gamma-table", str(table), "--horizon", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        sel = json.loads((out / "selection.json").read_text())
        assert sel["tau"] == 2  # 3.0 is the suffix max once 5.0 is cut off
