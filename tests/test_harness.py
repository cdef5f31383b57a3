"""Config validation, subcommand artifacts, exit codes, reproducibility."""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropnet
import tropnet.cli
import tropnet.harness as harness
from tropnet.bounds import BoundReport
from tropnet.classifier import ScoreSpec
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
from tropnet.networks import (
    DistributionSpec,
    NetworkSpec,
    network_spec_from_dict,
    run_network,
    run_symbolic,
)
from tropnet.seeding import item_seed
from tropnet.stopping import FiniteSupportProcess


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


def with_network(**changes):
    net = network_dict()
    net.update(changes)
    return {"network": net}


#: Bias windows of +-8e307: valid laws whose layer outputs overflow.
OVERFLOWING_BIAS = {"widths": [2, 3, 3, 1], "r": 2, "thresholds": ["relu", "relu", "identity"],
                    "weight_dist": {"kind": "bounded-uniform-integer", "lo": -3, "hi": 3},
                    "bias_dist": {"kind": "bounded-uniform-real", "lo": -8e307, "hi": 8e307}}


#: A classify config on one point of a scalar-output network.
CLASSIFY_ON_ONE_POINT = {"network": network_dict(widths=(2, 3, 1), last_identity=True),
                         "classify": {"n": 1000, "inputs": [[0.0, 0.0]]}}


def regions_polynomial(d, *monomials):
    """A regions config on the polynomial of (c, alpha) monomials."""
    return {"regions": {"polynomial": {
        "d": d, "monomials": [{"c": c, "alpha": alpha} for c, alpha in monomials]}}}


INVALID_CONFIGS = {
    "fractional-exponent": ("regions", {"regions": {"polynomial": {
        "d": 1, "monomials": [{"c": 0.0, "alpha": [1.5]}, {"c": 0.0, "alpha": [0]}]}}},
        "nonnegative integers"),
    # A polynomial's numbers are JSON numbers, and d is an int >= 1.
    "polynomial-string-d": ("regions", regions_polynomial("2", (0.0, [1, 0])),
                            "config.regions.polynomial: d must be an int >= 1"),
    "polynomial-fractional-d": ("regions", regions_polynomial(2.7, (0.0, [1, 0])),
                                "config.regions.polynomial: d must be an int >= 1"),
    "polynomial-bool-d": ("regions", regions_polynomial(True, (0.0, [1])),
                          "config.regions.polynomial: d must be an int >= 1"),
    "polynomial-zero-d": ("regions", regions_polynomial(0, (0.0, []), (1.0, [])),
                          "config.regions.polynomial: d must be an int >= 1"),
    "polynomial-bool-c": ("regions", regions_polynomial(1, (True, [1]), (0.0, [0])),
                          "config.regions.polynomial: a coefficient must be a number"),
    "polynomial-string-c": ("regions", regions_polynomial(1, ("1.5", [1]), (0.0, [0])),
                            "config.regions.polynomial: a coefficient must be a number"),
    "polynomial-string-alpha": ("regions", regions_polynomial(1, (0.0, ["1"]), (0.0, [0])),
                                "config.regions.polynomial: an exponent must be a number"),
    "polynomial-bool-alpha": ("regions", regions_polynomial(1, (0.0, [True]), (0.0, [0])),
                              "config.regions.polynomial: an exponent must be a number"),
    "select-layers-few-trajectories": ("select-layers", {
        "network": network_dict(widths=(2, 3, 1), last_identity=True),
        "select_layers": {"method": "lsmc", "horizon": 2, "y_star": [1.0],
                          "n_trajectories": 10}},
        "config.select_layers.n_trajectories: expected int >= 1000"),
    "copula-rho": ("bounds", with_network(copula_rho=2.0), "copula_rho"),
    "copula-rho-nan": ("bounds", with_network(copula_rho=float("nan")), "copula_rho"),
    "fractional-integer-bounds": ("bounds", with_network(weight_dist={
        "kind": "bounded-uniform-integer", "lo": 0.5, "hi": 2.5}), "integral bounds"),
    "override-layer-out-of-range": ("bounds", with_network(weight_overrides=[
        [9, {"kind": "bounded-uniform-integer", "lo": -1, "hi": 1}]]), "weight_overrides"),
    "override-layer-repeated": ("bounds", with_network(bias_overrides=[
        [1, {"kind": "bounded-uniform-real", "lo": 0.0, "hi": 1.0}],
        [1, {"kind": "bounded-uniform-real", "lo": 0.0, "hi": 2.0}]]), "bias_overrides"),
    "bounds-layer-out-of-range": ("bounds", {"network": network_dict(),
                                             "bounds": {"layers": [9]}},
                                  "config.bounds.layers"),
    "nan-bound": ("bounds", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": float("nan"), "hi": 1.0}), "finite"),
    "nan-mu": ("bounds", with_network(bias_dist={
        "kind": "truncated-gaussian", "lo": 0.0, "hi": 1.0, "mu": float("nan")}),
        "mu and sigma must be finite"),
    "nan-sigma": ("bounds", with_network(bias_dist={
        "kind": "truncated-gaussian", "lo": 0.0, "hi": 1.0, "sigma": float("nan")}),
        "mu and sigma must be finite"),
    "nan-atom": ("bounds", with_network(bias_dist={
        "kind": "finite-support", "values": [1.0, float("nan")]}), "atoms must be finite"),
    "nan-prob": ("bounds", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0, 1.0], "probs": [float("nan"), 0.5]}),
        "probs must be positive"),
    "overflowing-window": ("bounds", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": -1e308, "hi": 1e308}),
        "wider than double precision"),
    # Accepted by the validator, but the layer outputs overflow: a typed
    # error, not a report with NaN in it.
    "nonfinite-layer-outputs": ("classify", {
        "network": OVERFLOWING_BIAS, "classify": {"n": 1000, "inputs": [[0.0, 0.0]]}},
        "SpecError: layer 2 outputs are not finite"),
    # bounds certifies before it draws, with or without a t_grid, and the
    # interval certificate overflows first.
    "nonfinite-intervals": ("bounds", {"network": OVERFLOWING_BIAS, "bounds": {"n": 1000}},
                            "SpecError: layer 1 intervals are not finite"),
    "nonfinite-intervals-with-grid": ("bounds", {
        "network": OVERFLOWING_BIAS, "bounds": {"n": 1000, "t_grid": [1.0]}},
        "SpecError: layer 1 intervals are not finite"),
    # Options of the right shape but the wrong type or range: each names its
    # field instead of ending in a traceback or an unnamed error.
    "mgale-dim-zero": ("mgale-check", {"mgale_check": {"dim": 0}},
                       "config.mgale_check.dim"),
    "mgale-a-grid-scalar": ("mgale-check", {"mgale_check": {"a_grid": 5}},
                            "config.mgale_check.a_grid"),
    "mgale-a-grid-empty": ("mgale-check", {"mgale_check": {"a_grid": []}},
                           "config.mgale_check.a_grid"),
    "mgale-steps-zero": ("mgale-check", {"mgale_check": {"steps": 0, "n_grade": 10}},
                         "config.mgale_check.steps"),
    "mgale-steps-string": ("mgale-check", {"mgale_check": {"steps": "x"}},
                           "config.mgale_check.steps"),
    "bounds-pilot-n-string": ("bounds", {"network": network_dict(),
                                         "bounds": {"pilot_n": "abc"}},
                              "config.bounds.pilot_n"),
    "bounds-pilot-n-zero": ("bounds", {"network": network_dict(), "bounds": {"pilot_n": 0}},
                            "config.bounds.pilot_n"),
    "classify-n-string": ("classify", {"network": network_dict(widths=(2, 3, 1),
                                                               last_identity=True),
                                       "classify": {"n": "x", "inputs": [[0.0, 0.0]]}},
                          "config.classify.n"),
    "regions-sample-list": ("regions", {"network": network_dict(widths=(2, 2, 1),
                                                                last_identity=True),
                                        "regions": {"sample": [1]}},
                            "config.regions.sample"),
    "regions-count-zero": ("regions", {"network": network_dict(widths=(2, 2, 1),
                                                               last_identity=True),
                                       "regions": {"sample": {"count": 0}}},
                           "config.regions.sample.count"),
    "select-layers-lsmc-without-network": ("select-layers", {"select_layers": {
        "method": "lsmc", "horizon": 3, "y_star": [1.0]}}, "config.network"),
    "process-without-initial": ("select-layers", {"select_layers": {
        "method": "exact", "process": {"values": [[1.0]]}}},
        "config.select_layers.process: FiniteSupportProcess.__init__() missing 1 "
        "required positional argument: 'initial'"),
    # Score and process objects are read into ScoreSpec and
    # FiniteSupportProcess, and every list of numbers holds JSON numbers only.
    "score-misspelled-key": ("classify", dict(
        CLASSIFY_ON_ONE_POINT, score={"kind": "sigmoid", "cc": 0.9}),
        "config.score: ScoreSpec.__init__() got an unexpected keyword argument 'cc'"),
    "score-string-threshold": ("classify", dict(CLASSIFY_ON_ONE_POINT, score={"c": "0.4"}),
                               "config.score: c must be a real number"),
    "score-table-string-and-bool": ("classify", dict(CLASSIFY_ON_ONE_POINT, score={
        "kind": "table", "table": [["0", 0.2], [1.0, True]]}),
        "config.score: table must be a list of [v, s] number pairs"),
    "process-misspelled-key": ("select-layers", {"select_layers": {
        "method": "exact", "process": {"values": [[1.0]], "initial": [1.0],
                                       "transitons": []}}},
        "config.select_layers.process: FiniteSupportProcess.__init__() got an "
        "unexpected keyword argument 'transitons'"),
    "process-string-and-bool-values": ("select-layers", {"select_layers": {
        "method": "exact", "process": {"values": [["1", True]], "initial": [0.5, 0.5]}}},
        "config.select_layers.process: values: expected a nonempty 1-d array"),
    "classify-string-and-bool-inputs": ("classify", dict(
        CLASSIFY_ON_ONE_POINT, classify={"n": 1000, "inputs": [["0.5", True]]}),
        "config.classify.inputs: expected"),
    "gamma-strings-and-bool": ("select-layers", {"select_layers": {
        "method": "deterministic", "gamma": ["1", True, "3.5"]}},
        "config.select_layers.gamma: expected"),
    "network-int-past-float-range": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": 0.0, "hi": 10 ** 400}),
        "config.network: int too large to convert to float"),
    # Network and law objects are read field by field into their dataclasses:
    # a wrong type, an undeclared key or a missing required one names its field.
    "network-r-fraction": ("simulate", with_network(r=2.5), "config.network: r must be"),
    "network-r-float": ("simulate", with_network(r=3.0), "config.network: r must be"),
    "network-r-string": ("simulate", with_network(r="3"), "config.network: r must be"),
    "network-widths-fraction": ("simulate", with_network(widths=[2.5, 4, 4, 4]),
                                "config.network: widths must be"),
    "network-widths-string": ("simulate", with_network(widths="24"),
                              "config.network: widths must be"),
    "network-misspelled-key": ("simulate", with_network(tresholds="identity"),
                               "config.network: NetworkSpec.__init__() got an "
                               "unexpected keyword argument 'tresholds'"),
    "network-misspelled-law-key": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": -1.0, "hi": 1.0, "hii": 5}),
        "config.network: bias_dist: DistributionSpec.__init__() got an "
        "unexpected keyword argument 'hii'"),
    # A law's numbers are JSON numbers, and a field its kind does not read
    # is an error rather than silently dropped.
    "law-string-and-bool-bounds": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": "-1", "hi": True}),
        "config.network: bias_dist: lo must be a real number"),
    "law-bool-bound": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": -1.0, "hi": True}),
        "config.network: bias_dist: hi must be a real number"),
    "law-string-sigma": ("simulate", with_network(bias_dist={
        "kind": "truncated-gaussian", "lo": -1.0, "hi": 1.0, "sigma": "2"}),
        "config.network: bias_dist: sigma must be a real number"),
    "law-string-atom": ("simulate", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0, "1"]}),
        "config.network: bias_dist: atom must be a real number"),
    "law-bool-prob": ("simulate", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0], "probs": [True]}),
        "config.network: bias_dist: probs must be a real number"),
    "law-window-with-values": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": -1.0, "hi": 1.0, "values": [5.0]}),
        "config.network: bias_dist: bounded-uniform-real reads no values or probs"),
    "law-window-with-probs": ("simulate", with_network(weight_dist={
        "kind": "bounded-uniform-integer", "lo": -1, "hi": 1, "probs": [1.0]}),
        "config.network: weight_dist: bounded-uniform-integer reads no values or probs"),
    "law-window-with-sigma": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "lo": -1.0, "hi": 1.0, "sigma": 3}),
        "config.network: bias_dist: bounded-uniform-real reads no mu or sigma"),
    "law-atoms-with-mu": ("simulate", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0], "mu": 1.0}),
        "config.network: bias_dist: finite-support reads no mu or sigma"),
    "law-atoms-with-string-lo": ("simulate", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0], "lo": "x"}),
        "config.network: bias_dist: lo must be a real number"),
    "law-atoms-with-other-hi": ("simulate", with_network(bias_dist={
        "kind": "finite-support", "values": [0.0, 1.0], "hi": 2.0}),
        "config.network: bias_dist: finite-support takes hi from its atoms"),
    "network-law-not-an-object": ("simulate", with_network(weight_dist=3),
                                  "config.network: weight_dist must be a law object"),
    "network-law-without-kind": ("simulate", with_network(bias_dist={"lo": 0.0, "hi": 1.0}),
                                 "config.network: bias_dist: DistributionSpec.__init__() "
                                 "missing 1 required positional argument: 'kind'"),
    "network-window-without-lo": ("simulate", with_network(bias_dist={
        "kind": "bounded-uniform-real", "hi": 1.0}),
        "config.network: bias_dist: bounded-uniform-real needs lo and hi"),
    "network-override-not-a-pair": ("simulate", with_network(weight_overrides=[[1]]),
                                    "config.network: weight_overrides must hold "
                                    "[layer, law] pairs"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_is_one_json_error(case, tmp_path, capsys):
    subcommand, raw, fragment = INVALID_CONFIGS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = main([subcommand, "--config", str(path), "--json-errors",
                 "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert len(out.splitlines()) == 1
    assert list(json.loads(out)) == ["error"]
    assert fragment in json.loads(out)["error"]


#: Accepted by the validator; the symbolic coefficients and the pair
#: recursion overflow.  Unguarded, regions counted polynomials with +inf and
#: NaN coefficients and simulate wrote a NaN runs.csv.
COEFFICIENT_OVERFLOW = {"widths": [2, 3, 3, 1], "r": 1,
                        "thresholds": ["relu", "relu", "identity"],
                        "weight_dist": {"kind": "bounded-uniform-integer", "lo": -3, "hi": 3},
                        "bias_dist": {"kind": "bounded-uniform-real", "lo": -8e307,
                                      "hi": 8e307}}
#: Ten width-1 layers with weights of about 110 take the exponents past
#: 2**63.  Unguarded, the int64 exponents wrapped to negative values.
EXPONENT_OVERFLOW = {"widths": [1] * 11, "r": 1, "thresholds": ["relu"] * 9 + ["identity"],
                     "weight_dist": {"kind": "bounded-uniform-integer", "lo": 100, "hi": 120}}


@pytest.mark.parametrize("subcommand, section, network", [
    ("regions", {"sample": {"count": 4}}, COEFFICIENT_OVERFLOW),
    ("simulate", {"n": 4}, COEFFICIENT_OVERFLOW),
    ("regions", {"sample": {"count": 4}}, EXPONENT_OVERFLOW),
], ids=["regions-section0", "simulate-section1", "regions-exponents"])
def test_overflowing_network_writes_no_data(subcommand, section, network, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"network": network, subcommand: section}))
    out = tmp_path / "o"
    code = main([subcommand, "--config", str(path), "--json-errors", "--out", str(out)])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["error"].startswith("SpecError: ")
    assert not list(out.glob("*"))


def fresh_scipy_modules(code: str) -> set[str]:
    """The scipy modules loaded by ``code`` run in a fresh interpreter."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(tropnet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          timeout=120, capture_output=True, text=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def fresh_run(tmp_path, subcommand: str, config: dict) -> tuple[Path, set[str]]:
    """Run ``tropnet <subcommand>`` in a fresh interpreter; return its
    output directory and the scipy modules it loaded."""
    path, out = tmp_path / "fresh.json", tmp_path / "fresh"
    path.write_text(json.dumps(config))
    argv = [subcommand, "--config", str(path), "--out", str(out)]
    loaded = fresh_scipy_modules(
        f"from tropnet.cli import main\nassert main({argv!r}) == 0")
    return out, loaded


def test_cli_import_leaves_scipy_stats_out():
    # Start-up pays for no scipy at all: each subcommand imports the scipy
    # it runs, inside the function that uses it.
    assert fresh_scipy_modules("import tropnet.cli") == set()


NUMERIC_RUNS = {
    "bounds": {"seed": 2, "network": network_dict(),
               "bounds": {"n": 2000, "t_grid": [0.0, 5.0]}},
    "classify": {"seed": 3, "network": network_dict(widths=(2, 3, 1), last_identity=True),
                 "classify": {"n": 2000, "inputs": [[0.2, -0.4]]}},
    "select-layers": {"seed": 1, "network": network_dict(widths=(2, 1, 1)),
                      "select_layers": {"method": "lsmc", "horizon": 2,
                                        "y_star": [0.0], "n_trajectories": 1000}},
    "simulate": {"seed": 1, "network": network_dict(), "simulate": {"n": 2}},
}


@pytest.mark.parametrize("subcommand", sorted(NUMERIC_RUNS))
def test_numeric_subcommands_leave_region_scipy_out(tmp_path, subcommand):
    _, loaded = fresh_run(tmp_path, subcommand, NUMERIC_RUNS[subcommand])
    assert not loaded & {"scipy.optimize", "scipy.spatial"}, sorted(loaded)


@pytest.mark.parametrize("mode", ["sampled", "polynomial"])
def test_fresh_regions_run_matches_in_process(tmp_path, mode):
    # The region code imports scipy on first use; a fresh interpreter must
    # get there and write the same artifacts as this (warm) process.
    regions = ({"sample": {"count": 3, "t_grid": [0.5, 1.0]}} if mode == "sampled" else
               {"polynomial": {"d": 2, "monomials": [{"c": 0.0, "alpha": [1, 0]},
                                                     {"c": 0.0, "alpha": [0, 1]},
                                                     {"c": 0.0, "alpha": [0, 0]}]}})
    config = {"seed": 4, "network": network_dict(widths=(2, 2, 1), last_identity=True),
              "regions": regions}
    fresh, loaded = fresh_run(tmp_path, "regions", config)
    _, files = run_subcommand("regions", parse_config("regions", config),
                              out_dir=tmp_path / "warm")
    assert json.loads((fresh / "manifest.json").read_text())["files"] == files
    assert ("scipy.spatial" if mode == "sampled" else "scipy.optimize") in loaded


def schema_keys(options, prefix=""):
    for key, opt in options.items():
        yield prefix + key
        if isinstance(opt.ok, dict):
            yield from schema_keys(opt.ok, f"{prefix}{key}.")


def test_config_must_be_an_object_before_flags_apply(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1]")
    code = main(["simulate", "--config", str(path), "--seed", "3", "--json-errors",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["error"].startswith(
        "config: expected an object")


def test_select_layers_must_be_an_object_before_flags_apply(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"select_layers": [1]}')
    code = main(["select-layers", "--config", str(path), "--horizon", "3",
                 "--json-errors", "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["error"].startswith(
        "config.select_layers: expected an object")


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = list(schema_keys(harness._CONFIG))
    for name, command in harness._COMMANDS.items():
        keys += schema_keys(command.options, name.replace("-", "_") + ".")
    # The score and process objects are declared by their dataclasses' fields.
    fields = [f.name for cls in (ScoreSpec, FiniteSupportProcess)
              for f in dataclasses.fields(cls)]
    assert len(keys) + len(fields) > 40
    missing = [key for key in keys if f"`{key}`" not in readme]
    assert not missing, f"options missing from the README's table: {missing}"


def test_readme_documents_every_network_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = [f.name for cls in (NetworkSpec, DistributionSpec, ScoreSpec,
                                FiniteSupportProcess) for f in dataclasses.fields(cls)]
    missing = [name for name in names if f"| `{name}` |" not in readme]
    assert not missing, f"fields missing from the README's field tables: {missing}"


#: JSON scalars: numbers up to the edge of double range and past it, strings,
#: booleans and null.
JSON_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1e308, -1e308]),
    st.integers(-3, 3), st.integers(), st.sampled_from([10 ** 400]),
    st.text(max_size=3), st.booleans(), st.none())
#: Any JSON value, nested lists and objects included.
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                           max_leaves=10)
#: Numbers in [0, 1], the atoms of values near the valid ones.
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, 0.5]))


def near_valid(valid):
    """``valid`` values, or any JSON value."""
    return st.one_of(valid, JSON_VALUES)


def config_object(valid: list, fields: dict):
    """One of the ``valid`` objects with some of ``fields``' keys redrawn, at
    times with an undeclared key."""
    changes = st.fixed_dictionaries({}, optional={
        **{key: near_valid(value) for key, value in fields.items()}, "extra": JSON_VALUES})
    return st.builds(lambda base, change: {**base, **change}, st.sampled_from(valid),
                     changes)


def drawn_configs():
    """(subcommand, config, section path) of drawn score and process objects
    and of every list-of-numbers option."""
    scores = config_object([{}, {"kind": "clamped-identity", "a": -1, "b": 1, "c": 0}, {
        "kind": "table", "table": [[-1, 0.0], [1, 1.0]]}], {
        "kind": st.sampled_from(["sigmoid", "clamped-identity", "table"]),
        "a": st.sampled_from([0, 0.0, -1.0]), "b": st.sampled_from([1, 1.0, 2.0]),
        "c": UNIT, "table": st.lists(st.lists(UNIT, min_size=2, max_size=2), max_size=3)})
    processes = config_object([{"values": [[1.0]], "initial": [1.0]}, {
        "values": [[0.2, 1.0], [0.5]], "initial": [0.5, 0.5],
        "transitions": [[[1.0], [1.0]]]}], {
        "values": st.lists(st.lists(UNIT, min_size=1, max_size=2), min_size=1, max_size=3),
        "initial": st.sampled_from([[1.0], [0.5, 0.5]]),
        "transitions": st.sampled_from([[], [[[1.0]]], [[[0.5, 0.5], [0.5, 0.5]]]])})
    numbers = near_valid(st.lists(near_valid(st.lists(UNIT, min_size=1, max_size=3)),
                                  min_size=1, max_size=3)
                         | st.lists(UNIT, min_size=1, max_size=3))
    scalar_net = CLASSIFY_ON_ONE_POINT["network"]
    return st.sampled_from([
        scores.map(lambda v: ("classify", dict(CLASSIFY_ON_ONE_POINT, score=v),
                              "config.score")),
        processes.map(lambda v: ("select-layers", {"select_layers": {
            "method": "exact", "process": v}}, "config.select_layers.process")),
        numbers.map(lambda v: ("classify", {"network": scalar_net,
                                            "classify": {"inputs": v}},
                               "config.classify.inputs")),
        numbers.map(lambda v: ("simulate", {"network": network_dict(),
                                            "simulate": {"input": v}},
                               "config.simulate.input")),
        numbers.map(lambda v: ("select-layers", {"select_layers": {
            "method": "deterministic", "gamma": v}}, "config.select_layers.gamma")),
        numbers.map(lambda v: ("select-layers", {"network": scalar_net, "select_layers": {
            "method": "lsmc", "horizon": 2, "y_star": v}}, "config.select_layers.y_star")),
    ]).flatmap(lambda section: section)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn_configs())
def test_drawn_config_parses_or_names_its_section(case):
    subcommand, config, path = case
    try:
        parse_config(subcommand, config)
    except ConfigError as exc:
        assert str(exc).startswith(path + ": "), exc


class TestArtifactWriter:
    @staticmethod
    def _bounds_with_reports(tmp_path, monkeypatch, reports):
        monkeypatch.setattr(harness, "verify_layer_concentration",
                            lambda *args, **kwargs: reports)
        cfg = parse_config("bounds", {"network": network_dict(),
                                      "bounds": {"n": 2000, "t_grid": [1.0]}})
        return run_subcommand("bounds", cfg, out_dir=tmp_path)

    def test_csv_round_trip(self, tmp_path, monkeypatch):
        reports = [BoundReport(kind="nSG", layer=1, t=0.5, analytic=1.5,
                               empirical=0.2, se=0.01, n=1000)]
        self._bounds_with_reports(tmp_path, monkeypatch, reports)
        rows = (tmp_path / "bound_reports.csv").read_text().strip().splitlines()
        assert rows[0] == "kind,l,t,analytic,empirical,se,n,verdict"
        assert rows[1].startswith("nSG,1,0.5,1.5,0.2,")

    def test_json_rejects_nan(self, tmp_path, monkeypatch):
        r = BoundReport(kind="nSG", layer=1, t=1.0, analytic=math.nan,
                        empirical=0.0, se=0.0, n=1000)
        with pytest.raises(ValueError):
            self._bounds_with_reports(tmp_path, monkeypatch, [r])


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

    @pytest.mark.parametrize("network", [
        # nu_1 = max(0 * x + 0, 0) = 0: xi_1 = 0.
        {"widths": [1, 1], "init_mode": "identity", "input_box": [[-1, 1]],
         "weight_dist": {"kind": "finite-support", "values": [0]},
         "bias_dist": {"kind": "finite-support", "values": [0]}},
        # Layer 1 is >= 0 and the weights are < 0, so nu_2 = 0: xi_2 = 0.
        {"widths": [1, 2, 2], "init_mode": "identity",
         "weight_dist": {"kind": "bounded-uniform-integer", "lo": -2, "hi": -1},
         "bias_dist": {"kind": "finite-support", "values": [0]}},
    ], ids=["zero-laws", "cancelling-layer"])
    def test_bounds_on_a_layer_certified_zero(self, tmp_path, network):
        cfg = parse_config("bounds", {"seed": 2, "network": network,
                                      "bounds": {"n": 2000}})
        code, _ = run_subcommand("bounds", cfg, out_dir=tmp_path)
        reports = json.loads((tmp_path / "bound_reports.json").read_text())
        assert code == EXIT_OK
        assert reports and all(r["verdict"] == "consistent" for r in reports)

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
                              "n_trajectories": 1000}})
        with pytest.warns(UserWarning, match="perfect fit"):
            code, _ = run_subcommand("select-layers", cfg, out_dir=tmp_path)
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        sel = json.loads((tmp_path / "selection.json").read_text(),
                         parse_constant=reject)
        assert sel["value"] == "inf" and sel["S"] == ["inf", "inf"]

    def test_regions_polynomial_past_d2_counts_without_the_grid(self, tmp_path):
        # The grid oracle is sound only for d <= 2; the exact count needs no grid.
        cfg = parse_config("regions", regions_polynomial(
            3, (0.0, [1, 0, 0]), (0.0, [0, 1, 0]), (0.0, [0, 0, 1])))
        code, _ = run_subcommand("regions", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert json.loads((tmp_path / "regions.json").read_text()) == \
            {"exact_lp": 3, "dim": 3}
        assert (tmp_path / "regions.csv").read_text().splitlines() == \
            ["method,count,dim", "exact-lp,3,3"]

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
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = parse_config("bounds", {"seed": 2, "workers": 2, "network": network_dict(),
                                      "bounds": {"n": 20_000, "t_grid": [0.0, 5.0]}})
        code, _ = run_subcommand("bounds", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert starts == [2]

    def test_pool_is_capped_at_the_cpu_count(self, tmp_path, monkeypatch):
        # A stand-in executor records the pool size and starts no process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cfg = parse_config("bounds", {"workers": 100_000, "network": network_dict(),
                                      "bounds": {"n": 2000, "t_grid": [0.0, 5.0]}})
        code, _ = run_subcommand("bounds", cfg, out_dir=tmp_path)
        assert code == EXIT_OK
        assert sizes == [3]

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


class TestItemSeeds:
    def test_simulate_writes_the_seed_of_each_draw(self, tmp_path):
        net = network_dict()
        cfg = parse_config("simulate", {"seed": 4, "network": net, "simulate": {"n": 3}})
        run_subcommand("simulate", cfg, out_dir=tmp_path)
        runs = json.loads((tmp_path / "runs.json").read_text())
        assert [r["seed"] for r in runs] == [item_seed(4, "simulate", i) for i in range(3)]
        spec = network_spec_from_dict(net)
        for r in runs:
            again = run_network(spec, r["x"], r["seed"])
            assert [list(v) for v in again.nu] == r["nu"]

    def test_sampled_regions_write_the_seed_of_each_draw(self, tmp_path):
        net = network_dict(widths=(2, 2, 1), last_identity=True)
        cfg = parse_config("regions", {"seed": 4, "network": net,
                                       "regions": {"sample": {"count": 3}}})
        run_subcommand("regions", cfg, out_dir=tmp_path)
        rows = [line.split(",") for line in
                (tmp_path / "regions.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [item_seed(4, "regions", i) for i in range(3)]
        spec = network_spec_from_dict(net)
        for seed, monomials, _ in rows:
            f = run_symbolic(spec, int(seed)).f_polys[-1][0]
            assert f.num_monomials == int(monomials)


class TestExitCodes:
    def test_violated_verdict_logic(self):
        r = BoundReport(kind="nSG", layer=1, t=1.0, analytic=0.01,
                        empirical=0.9, se=0.001, n=1000)
        assert r.verdict == "violated"

    def test_any_violation_gates_exit_two(self, tmp_path, monkeypatch):
        # Correct math never violates its own bounds, so stub the verifier
        # to return one violated report and check the exit-code contract.
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


    def test_cli_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        # A stand-in run raises at once; nothing large is allocated.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(tropnet.cli, "run_subcommand", out_of_memory)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"network": network_dict()}))
        code = main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error: MemoryError: Unable to allocate 8.00 GiB for an array\n"


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

    def test_report_renders_only_the_manifest_files(self, tmp_path):
        bounds = parse_config("bounds", {"network": network_dict(),
                                         "bounds": {"n": 2000, "t_grid": [0.0]}})
        run_subcommand("bounds", bounds, out_dir=tmp_path)
        sim = parse_config("simulate", {"network": network_dict(), "simulate": {"n": 1}})
        run_subcommand("simulate", sim, out_dir=tmp_path)
        text = emit_report(tmp_path)
        assert "## runs.csv" in text and "## runs.json" in text
        assert "bound_reports" not in text

    def test_report_without_manifest_renders_the_directory(self, tmp_path, capsys):
        cfg = parse_config("simulate", {"network": network_dict(), "simulate": {"n": 1}})
        run_subcommand("simulate", cfg, out_dir=tmp_path)
        (tmp_path / "manifest.json").unlink()
        (tmp_path / "runs.csv").unlink()
        code = main(["report", str(tmp_path)])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert "## runs.json" in text and "runs.csv" not in text
        assert text.count("GAP") == 1 and "No artifacts found." not in text

    def test_report_on_a_file_that_is_not_json_is_one_error(self, tmp_path, capsys):
        (tmp_path / "notes.json").write_text("{bad")
        code = main(["report", str(tmp_path), "--json-errors"])
        assert code == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"].startswith("JSONDecodeError: ")

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

    def test_table_of_rows_and_columns_is_an_error(self, tmp_path, capsys):
        # Flattened, the 2x3 table would select tau = 6 of a 3-depth problem.
        table = tmp_path / "gamma.csv"
        table.write_text("1,2,3\n4,5,6\n")
        out = tmp_path / "out"
        code = main(["select-layers", "--method", "deterministic",
                     "--gamma-table", str(table), "--json-errors", "--out", str(out)])
        assert code == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"].startswith("StoppingError: ")
        assert not (out / "selection.json").exists()
