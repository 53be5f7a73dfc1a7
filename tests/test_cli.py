"""Config validation, pipeline runs, determinism, and plot-data emission."""

import copy
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from sparseloc import certify as c
from sparseloc import cli
from sparseloc import models as m
from sparseloc import stochastic as st


def lattice_model_cfg(d=2, radius=10.0, tau=1.5):
    return {
        "dimension": d,
        "sites": {"generator": "lattice", "radius": radius},
        "law": {"kind": "radial_bernoulli", "tau": tau},
        "potential": {"kind": "indicator", "amplitude": -1.0, "radius": 1.0},
        "background": {"kind": "zero"},
    }


def certify_cfg(output_dir, seeds=(1, 2)):
    return {
        "pipeline": "certify-sparse",
        "model": lattice_model_cfg(),
        "seeds": list(seeds),
        "output_dir": str(output_dir),
        "parameters": {"eps": 0.1, "gammas": [0.5, 1.0], "n_range": [1, 5]},
    }


def quasi1d_cfg(output_dir, seeds=(1, 2), n_range=(2, 5)):
    """certify-quasi1d on a d=2 tube of radius 70 with three gammas."""
    cfg = certify_cfg(output_dir, seeds)
    cfg["pipeline"] = "certify-quasi1d"
    cfg["model"]["sites"] = {"generator": "tube", "radius": 70.0}
    cfg["model"]["law"] = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
    cfg["parameters"] = {"eps": 0.95, "gammas": [0.5, 1.0, 2.0], "n_range": list(n_range),
                         "a": 2.0}
    return cfg


def window_cfg(tmp_path, pipeline, params):
    """`pipeline` with `params` on a d=1 lattice of radius 40 (radial Bernoulli
    tau=2, indicator radius 0.5)."""
    cfg = certify_cfg(tmp_path / "out")
    cfg["pipeline"] = pipeline
    cfg["model"] = lattice_model_cfg(d=1, radius=40.0, tau=2.0)
    cfg["model"]["potential"]["radius"] = 0.5
    cfg["parameters"] = {"eps": 0.1, **params}
    return cfg


def full_report_cfg(output_dir, seeds=(1, 2), box=6.0, h=0.1, background=None):
    """full-report on a d=1 lattice of radius 20 with a periodic background."""
    model = lattice_model_cfg(d=1, radius=20.0, tau=1.0)
    model["potential"] = {"kind": "indicator", "amplitude": -4.0, "radius": 0.5}
    model["background"] = background or {"kind": "periodic_step", "values": [0.0, 3.0]}
    return {
        "pipeline": "full-report",
        "model": model,
        "seeds": list(seeds),
        "output_dir": str(output_dir),
        "parameters": {"eps": 0.5, "gammas": [0.5, 2.0], "n_range": [1, 3], "a": 2.0,
                       "trials": 200, "box": box, "h": h, "energies": [-1.0, 1.5]},
    }


def data_files(outdir):
    """{name: bytes} of every data file a run wrote (the manifest holds wall times)."""
    return {p.name: p.read_bytes() for p in Path(outdir).iterdir() if p.name != "manifest.jsonl"}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


class TestValidation:
    @pytest.mark.parametrize("name", ["missing.json", "directory"])
    def test_unreadable_config_refused(self, tmp_path, name):
        path = tmp_path / name
        if name == "directory":
            path.mkdir()
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert f"config error: cannot read {path}: " in result.output

    def test_valid_config_ok(self, tmp_path):
        path = write_config(tmp_path, certify_cfg(tmp_path / "out"))
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 0

    def test_eps_zero_rejected_with_field(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        cfg["parameters"]["eps"] = 0.0
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "eps" in result.output

    def test_unknown_key_rejected(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        cfg["parameters"]["trails"] = 100  # typo for trials
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "trails" in result.output

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"pipeline": "certify-sparse",\n  "seeds": [1,]\n}')
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert ":2:" in result.output

    def test_window_too_small_rejected(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        cfg["parameters"]["n_range"] = [1, 12]  # needs radius ~2^13
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "window" in result.output

    @pytest.mark.parametrize(
        "pipeline,params",
        [
            # the cells sample `window`, not the whole site radius 40
            ("certify-sparse", {"gammas": [1.0], "n_range": [1, 4], "window": 10}),
            ("certify-sparse", {"gammas": [1.0], "n_range": [1, 4], "window": 100}),
            ("spectral-probe", {"box": 12, "h": 0.1, "window": 8}),
        ],
    )
    def test_cell_window_too_small_rejected(self, tmp_path, pipeline, params):
        path = write_config(tmp_path, window_cfg(tmp_path, pipeline, params))
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "window radius" in result.output

    @pytest.mark.parametrize("box,nodes", [(0.12, 1), (0.16, 2)])
    def test_box_with_fewer_than_three_nodes_rejected(self, tmp_path, box, nodes):
        params = {"box": box, "h": 0.1}
        path = write_config(tmp_path, window_cfg(tmp_path, "spectral-probe", params))
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert (f"$.parameters.box: box {box:g} at spacing 0.1 has {nodes} grid nodes per side, "
                "fewer than 3") in result.output

    @pytest.mark.parametrize("gamma", [1e-17, 5e-324])
    def test_gamma_whose_growth_ratio_rounds_to_one_rejected(self, tmp_path, gamma):
        # d = 2: a = 1 + 1/ell with ell above 2/gamma, which is 1.0 in floats
        cfg = certify_cfg(tmp_path / "out")
        cfg["parameters"]["gammas"] = [1.0, gamma]
        path = write_config(tmp_path, cfg)
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"config error: $.parameters.gammas: gamma {gamma} is too small: "
            "the growth ratio 1 + 1/ell rounds to 1"]

    @pytest.mark.parametrize(
        "cfg,label",
        [
            (quasi1d_cfg("out", n_range=(2, 2000)), "a=2.0"),
            (window_cfg(Path("."), "lemma-mc", {"a": 1e300, "n_range": [1, 2], "trials": 10}), "a=1e+300"),
        ],
        ids=["certify-quasi1d", "lemma-mc"],
    )
    def test_scale_beyond_the_float_range_rejected(self, tmp_path, cfg, label):
        # a^(n+1) overflows a float: the reach of that scale is inf
        path = write_config(tmp_path, cfg)
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert f"$.parameters.n_range: at {label}: window radius" in result.output
        assert "does not cover radius inf needed at scale" in result.output

    def test_scale_beyond_the_float_range_rejected_on_an_unbounded_window(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"]["sites"] = {"generator": "explicit", "points": [[0.0, 0.0], [3.0, 0.0]]}
        # a^3001 overflows at gamma = 1 (a = 4/3), not at gamma = 0.5 (a = 6/5)
        cfg["parameters"]["n_range"] = [1, 3000]
        path = write_config(tmp_path, cfg)
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "config error: $.parameters.n_range: at gamma=1.0: no window covers the infinite "
            "reach of scale n=3000 at a=1.3333333333333333"]

    def test_box_beyond_the_float_range_rejected(self, tmp_path):
        params = {"box": 1e308, "h": 1e-300}
        path = write_config(tmp_path, window_cfg(tmp_path, "spectral-probe", params))
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "config error: $.parameters.box: box 1e+308 at spacing 1e-300 has more grid nodes "
            "per side than a float holds"]

    def test_window_covering_the_scan_ok(self, tmp_path):
        # gamma=1 in d=1 gives a=2; scale 4 reaches radius 2^5 = 32
        params = {"gammas": [1.0], "n_range": [1, 4], "window": 32}
        path = write_config(tmp_path, window_cfg(tmp_path, "certify-sparse", params))
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 0, result.output

    def test_model_file_indirection(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(lattice_model_cfg()))
        cfg = certify_cfg(tmp_path / "out")
        del cfg["model"]
        cfg["model_file"] = "model.json"
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        assert runner.invoke(cli.main, ["validate", str(path)]).exit_code == 0

    def test_missing_model_file(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        del cfg["model"]
        cfg["model_file"] = "nope.json"
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2

    def test_model_file_gets_the_model_checks(self, tmp_path):
        params = {"gammas": [1.0], "n_range": [1, 4], "window": 10}
        inline = window_cfg(tmp_path, "certify-sparse", params)
        (tmp_path / "model.json").write_text(json.dumps(inline["model"]))
        from_file = {key: value for key, value in inline.items() if key != "model"}
        from_file["model_file"] = "model.json"
        outputs = []
        for name, cfg in [("inline.json", inline), ("from_file.json", from_file)]:
            path = write_config(tmp_path, cfg, name)
            result = CliRunner().invoke(cli.main, ["validate", str(path)])
            assert result.exit_code == 2
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("config error: $.parameters.n_range: at gamma=1.0: window")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_model_file_reports_line(self, tmp_path, command):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"dimension": 1,\n "sites": }')
        cfg = certify_cfg(tmp_path / "out")
        del cfg["model"]
        cfg["model_file"] = "model.json"
        result = CliRunner().invoke(cli.main, [command, str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: model_file {model_path}:2:11: Expecting value\n"

    @pytest.mark.parametrize(
        "part,fields,missing",
        [
            ("sites", {"generator": "lattice"}, "radius"),
            ("law", {"kind": "bernoulli"}, "p"),
            ("law", {"kind": "radial_bernoulli"}, "tau"),
            ("background", {"kind": "constant"}, "value"),
        ],
    )
    def test_unbuildable_model_rejected(self, tmp_path, part, fields, missing):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"][part] = fields
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: $.model: KeyError: '{missing}'\n"

    def test_required_parameters_in_stage_order(self, tmp_path):
        cfg = window_cfg(tmp_path, "full-report", {})
        cfg["parameters"] = {}
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"config error: $.parameters.{key}: required for pipeline full-report"
            for key in ["eps", "gammas", "n_range", "a", "trials", "box", "h"]
        ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "part,key,value,line",
        [
            (None, "seeds", [1.0], "$.seeds[0]: 1.0 is not of type 'integer'"),
            ("parameters", "n_range", [1.0, 3],
             "$.parameters.n_range[0]: 1.0 is not of type 'integer'"),
            ("parameters", "trials", 50.0, "$.parameters.trials: 50.0 is not of type 'integer'"),
            ("model", "dimension", 1.0, "$.model.dimension: 1.0 is not of type 'integer'"),
        ],
    )
    def test_integral_float_is_no_integer(self, tmp_path, command, part, key, value, line):
        cfg = window_cfg(tmp_path, "lemma-mc", {"a": 2.0, "n_range": [1, 3], "trials": 50})
        (cfg if part is None else cfg[part])[key] = value
        result = CliRunner().invoke(cli.main, [command, str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: {line}\n"

    @pytest.mark.parametrize(
        "d,radius,box,h,unknowns",
        [(1, 40.0, 12.0, 0.007, 3428), (2, 18.0, 12.0, 0.3, 79 * 79)],
    )
    def test_grid_above_the_dense_limit_rejected(self, tmp_path, d, radius, box, h, unknowns):
        cfg = window_cfg(tmp_path, "spectral-probe", {"box": box, "h": h})
        cfg["model"] = lattice_model_cfg(d=d, radius=radius)
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == (f"config error: $.parameters.box: {unknowns} unknowns exceed "
                                 "the dense limit 3000; probe gaps on a smaller box\n")

    def test_grid_dimension_above_two_rejected(self, tmp_path):
        cfg = window_cfg(tmp_path, "spectral-probe", {"box": 1.0, "h": 0.5})
        cfg["parameters"]["eps"] = 0.5
        cfg["model"] = lattice_model_cfg(d=3, radius=4.0)
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == ("config error: $.model.dimension: "
                                 "grid operators support d in {1, 2}, not d=3\n")

    @pytest.mark.parametrize(
        "part,fields,message",
        [
            ("law", {"kind": "per_site", "laws": [{"kind": "uniform"}]},
             "per_site lists 1 laws for 81 sites"),
            ("background", {"kind": "periodic_step", "values": []},
             "periodic_step needs at least one value and a positive cell, "
             "got values=[] and cell=1.0"),
            ("sites", {"generator": "explicit", "points": [[0.0], [3.0], [0.0]]},
             "explicit site [0.0] is repeated"),
            ("distinguished_site", 100000,
             "distinguished_site 100000 is not a site index of the 81 sites"),
        ],
    )
    def test_model_refused_when_built(self, tmp_path, part, fields, message):
        cfg = window_cfg(tmp_path, "lemma-mc", {"a": 2.0, "n_range": [1, 3], "trials": 50})
        cfg["model"][part] = fields
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: $.model: ValueError: {message}\n"

    @pytest.mark.parametrize("amplitude", [0.0, -1.0])
    def test_distinguished_site_needs_a_bump(self, tmp_path, amplitude):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"]["potential"]["amplitude"] = amplitude
        cfg["model"]["distinguished_site"] = 316  # the last of the 317 sites
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        if amplitude:
            assert (result.exit_code, result.output) == (0, "ok\n")
        else:
            assert result.exit_code == 2
            assert result.output == ("config error: $.model: ValueError: distinguished_site 316 "
                                     "has a bump that is 0 at its centre\n")

    @pytest.mark.parametrize("key", ["p_exponent", "r_sigma"])
    def test_deleted_model_keys_refused(self, tmp_path, key):
        cfg = certify_cfg(tmp_path / "out")
        if key == "r_sigma":
            cfg["model"]["sites"]["r_sigma"] = 1.0
            line = "$.model.sites: Additional properties are not allowed ('r_sigma' was unexpected)"
        else:
            cfg["model"]["p_exponent"] = 2.0
            line = "$.model: Additional properties are not allowed ('p_exponent' was unexpected)"
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: {line}\n"

    @pytest.mark.parametrize(
        "part,fields,literal",
        [
            ("potential", {"kind": "indicator", "amplitude": -1.0, "radius": math.nan}, "NaN"),
            ("law", {"kind": "radial_bernoulli", "tau": math.nan}, "NaN"),
            ("background", {"kind": "constant", "value": math.inf}, "Infinity"),
            ("background", {"kind": "constant", "value": -math.inf}, "-Infinity"),
        ],
    )
    @pytest.mark.parametrize("from_file", [False, True])
    def test_non_finite_literal_refused(self, tmp_path, from_file, part, fields, literal):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"][part] = fields
        if from_file:
            model_path = tmp_path / "model.json"
            model_path.write_text(json.dumps(cfg.pop("model"), indent=1))
            cfg["model_file"] = "model.json"
        path = write_config(tmp_path, cfg)
        label = f"model_file {model_path}" if from_file else str(path)
        for command in ("validate", "run"):
            result = CliRunner().invoke(cli.main, [command, str(path)])
            assert result.exit_code == 2
            assert result.output == f"config error: {label}: {literal} is not a JSON number\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys", [("model", "model_file"), ()])
    def test_exactly_one_of_model_and_model_file(self, tmp_path, keys):
        (tmp_path / "model.json").write_text(json.dumps(lattice_model_cfg()))
        cfg = certify_cfg(tmp_path / "out")
        both = {"model": cfg.pop("model"), "model_file": "model.json"}
        cfg.update((key, both[key]) for key in keys)
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == "config error: $.model: exactly one of model / model_file is required\n"

    @pytest.mark.parametrize("points, dim", [([[3.0], [7.0]], 1), ([], 0)])
    def test_explicit_points_of_another_dimension_refused(self, tmp_path, points, dim):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"]["sites"] = {"generator": "explicit", "points": points, "window_radius": 10.0}
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == ("config error: $.model: ValueError: explicit points have "
                                 f"dimension {dim}, but the model has dimension 2\n")

    @pytest.mark.parametrize(
        "part,fields,line",
        [
            ("law", {"kind": "bernoulli", "p": 0.5, "tau": 3.0},
             "$.model: ValueError: law 'bernoulli' takes no key 'tau'"),
            ("law", {"kind": "uniform", "p": 0.5}, "$.model: ValueError: law 'uniform' takes no key 'p'"),
            ("law", {"kind": "radial_bernoulli", "tau": 1.5, "lo": 0.0},
             "$.model: ValueError: law 'radial_bernoulli' takes no key 'lo'"),
            ("background", {"kind": "zero", "value": 0.0},
             "$.model: ValueError: background 'zero' takes no key 'value'"),
            ("background", {"kind": "constant", "value": 1.0, "values": [1.0]},
             "$.model: ValueError: background 'constant' takes no key 'values'"),
            ("sites", {"generator": "lattice", "radius": 10.0, "offsets": [[0.0]]},
             "$.model: ValueError: sites 'lattice' takes no key 'offsets'"),
            ("sites", {"generator": "tube", "radius": 10.0, "points": [[0.0, 0.0]]},
             "$.model: ValueError: sites 'tube' takes no key 'points'"),
            ("sites", {"generator": "explicit", "points": [[0.0, 0.0]], "radius": 10.0},
             "$.model: ValueError: sites 'explicit' takes no key 'radius'"),
            ("law", {"kind": "shared", "law": {"kind": "bernoulli", "p": 0.5, "tau": 3.0}},
             "$.model.law.law: Additional properties are not allowed ('tau' was unexpected)"),
            ("law", {"kind": "shared", "law": {"kind": "bernoulli", "p": 1.5}},
             "$.model.law.law.p: 1.5 is greater than the maximum of 1"),
            ("law", {"kind": "per_site", "laws": [{"kind": "shared"}]},
             "$.model.law.laws[0].kind: 'shared' is not one of "
             "['bernoulli', 'uniform', 'bernoulli_times_uniform', 'point_masses']"),
        ],
    )
    def test_key_the_kind_does_not_take_refused(self, tmp_path, part, fields, line):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"][part] = fields
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert (result.exit_code, result.output) == (2, f"config error: {line}\n")

    @pytest.mark.parametrize(
        "pipeline,params,unread",
        [
            ("certify-sparse", {"gammas": [1.0], "n_range": [1, 3], "trials": 10, "box": 1.0,
                                "alpha": 2.0}, ["trials", "box", "alpha"]),
            ("lemma-mc", {"a": 2.0, "n_range": [1, 3], "trials": 50, "window": 20.0}, ["window"]),
            ("full-report", {"gammas": [1.0], "n_range": [1, 3], "a": 2.0, "trials": 50,
                             "box": 6.0, "h": 0.2, "alpha": 2.0}, ["alpha"]),
        ],
    )
    def test_parameter_no_stage_reads_refused(self, tmp_path, pipeline, params, unread):
        cfg = window_cfg(tmp_path, pipeline, params)
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"config error: $.parameters.{key}: not read by pipeline {pipeline}" for key in unread
        ]
        for key in unread:
            del cfg["parameters"][key]
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert (result.exit_code, result.output) == (0, "ok\n")

    def test_model_refused_before_the_window_checks(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        cfg["parameters"]["n_range"] = [1, 12]  # needs radius ~2^13
        cfg["model"]["background"] = {"kind": "zero", "value": 0.0}
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == ("config error: $.model: ValueError: background 'zero' takes "
                                 "no key 'value'\n")


# every keyword `cli._schema_errors` checks; `additionalProperties` only as false
WALKER_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties", "items",
                   "minItems", "maxItems", "minimum", "exclusiveMinimum", "maximum"}

# replacement values for the mutation corpus: every JSON type, bounds and their edges
JSON_VALUES = [None, True, False, 0, 1, -1, 2, 7, 0.0, 1.0, 0.5, -2.5, 1e300, math.inf,
               -math.inf, math.nan, "", "x", "lattice", "certify-sparse", [], [0], [1, 2],
               [1.5, 3], [[0.5]], {}, {"kind": "zero"}]


def schema_keywords(schema):
    """(keyword, value) of every keyword of `schema` and of its subschemas."""
    for key, value in schema.items():
        yield key, value
        if key == "properties":
            for sub in value.values():
                yield from schema_keywords(sub)
        elif key == "items":
            yield from schema_keywords(value)


def json_nodes(node, path=()):
    """(path, node) for `node` and for everything inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_nodes(child, path + (key,))


def mutated(doc, path, value=None, delete=False):
    """A copy of `doc` with the node at `path` replaced by `value` (or deleted)."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


class TestSchemaWalker:
    """`_check_schema` against jsonschema itself on a corpus of mutated configs."""

    @staticmethod
    def corpus():
        """(schema, root path, document) for each mutation of five base documents."""
        full = full_report_cfg("out")
        full["model"].update(distinguished_site=0)
        full["model"]["law"] = {"kind": "bernoulli", "p": 0.5}
        full["parameters"].update(window=20.0, alpha=2.0)
        from_file = {key: value for key, value in certify_cfg("out").items() if key != "model"}
        from_file["model_file"] = "model.json"
        shared, per_site = lattice_model_cfg(), lattice_model_cfg()
        shared["law"] = {"kind": "shared", "law": {"kind": "bernoulli_times_uniform", "p": 0.5,
                                                   "lo": 0.25, "hi": 1.0}}
        per_site["law"] = {"kind": "per_site", "laws": [{"kind": "point_masses",
                                                         "atoms": [[0.5, 1.0]]}]}
        bases = [(cli.CONFIG_SCHEMA, "$", full), (cli.CONFIG_SCHEMA, "$", from_file),
                 (cli.MODEL_SCHEMA, "model_file $", lattice_model_cfg()),
                 (cli.MODEL_SCHEMA, "model_file $", shared),
                 (cli.MODEL_SCHEMA, "model_file $", per_site)]
        for schema, root, base in bases:
            yield schema, root, base
            for path, node in json_nodes(base):
                if path:
                    yield schema, root, mutated(base, path, delete=True)
                for value in JSON_VALUES:
                    yield schema, root, mutated(base, path, value)
                if isinstance(node, dict):
                    yield schema, root, mutated(base, path, {**node, "zz": 1})
                    yield schema, root, mutated(base, path, {**node, "aa": [], "zz": {}})

    @staticmethod
    def walker_lines(schema, doc, root):
        try:
            cli._check_schema(schema, doc, root)
        except cli.ConfigError as exc:
            return exc.errors
        return []

    def test_same_lines_as_jsonschema(self):
        jsonschema = pytest.importorskip("jsonschema")
        stock = jsonschema.Draft202012Validator
        # jsonschema with one change: an integer is a JSON integer, never 1.0
        strict = jsonschema.validators.extend(stock, type_checker=stock.TYPE_CHECKER.redefine(
            "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)))

        def oracle(validator, schema, doc, root):
            return sorted(
                root + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                               for p in err.absolute_path) + f": {err.message}"
                for err in validator(schema).iter_errors(doc)
            )

        docs = differs = 0
        for schema, root, doc in self.corpus():
            lines = self.walker_lines(schema, doc, root)
            assert lines == oracle(strict, schema, doc, root), (root, doc)
            # stock jsonschema lacks only the type errors of integral floats in integer fields
            stock_lines = oracle(stock, schema, doc, root)
            extra = [line for line in lines if line not in stock_lines]
            floats = [re.search(r": (\S+) is not of type 'integer'$", line) for line in extra]
            assert all(f and float(f[1]).is_integer() and not f[1].lstrip("-").isdigit()
                       for f in floats), doc
            assert [line for line in lines if line not in extra] == stock_lines, doc
            docs, differs = docs + 1, differs + bool(extra)
        assert docs > 1000 and differs > 0

    def test_schemas_use_only_walker_keywords(self):
        source = inspect.getsource(cli._schema_errors)
        assert all(f'"{key}"' in source for key in WALKER_KEYWORDS)
        types = {t for kinds in cli._JSON_TYPES.values() for t in kinds}
        for schema in (cli.CONFIG_SCHEMA, cli.MODEL_SCHEMA):
            pairs = list(schema_keywords(schema))
            assert {key for key, _ in pairs} <= WALKER_KEYWORDS
            assert all(value is False for key, value in pairs if key == "additionalProperties")
            assert {value for key, value in pairs if key == "type"} <= types


class TestRunPipelines:
    def test_certify_sparse_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, certify_cfg(out, seeds=(1, 2, 3)))
        runner = CliRunner()
        result = runner.invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        for name in ["manifest.jsonl", "certificates.jsonl", "decompositions.jsonl", "certificate_terms.csv", "free_annuli.csv"]:
            assert (out / name).exists()
        certs = [json.loads(l) for l in (out / "certificates.jsonl").read_text().splitlines()]
        assert len(certs) == 3 * 2  # seeds x gammas
        assert all(c["verdict"] in ("certified", "not-certified", "inconclusive") for c in certs)

    def test_run_from_a_config_path_writes_beside_it(self, tmp_path, monkeypatch):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        path = write_config(config_dir, certify_cfg("out", seeds=(1,)))
        monkeypatch.chdir(tmp_path)
        manifest = cli.run(str(path))
        assert manifest["output_dir"] == str(config_dir / "out")
        assert (config_dir / "out" / "certificates.jsonl").exists()
        assert not (tmp_path / "out").exists()

    def test_decompositions_jsonl_parses(self, tmp_path):
        """The file holds each gamma's to_records(), its head stamped with seed and gamma."""
        from sparseloc.certify import build_decomposition_sparse
        from sparseloc.models import sample_couplings

        out = tmp_path / "out"
        path = write_config(tmp_path, certify_cfg(out, seeds=(1,)))
        cfg = cli.load_config(path)
        cli.run(cfg, config_path=path)
        records = [
            json.loads(line)
            for line in (out / "decompositions.jsonl").read_text().splitlines()
        ]
        head = records[0]
        assert head["record"] == "total_decomposition"
        assert head["kind"] == "sphere-shells"
        assert [rec["record"] for rec in records[1 : 1 + head["member_count"]]] == ["member"] * head["member_count"]
        couplings = sample_couplings(cli._model(cli._canonical(cfg["model"])), 1)
        written = []
        for gamma in cfg["parameters"]["gammas"]:
            td_records = build_decomposition_sparse(couplings, 0.1, gamma, n_range=(1, 5)).to_records()
            td_records[0].update({"seed": 1, "gamma": gamma})
            written.extend(td_records)
        assert records == json.loads(json.dumps(written))

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, certify_cfg(out))
        cli.run(cli.load_config(path), config_path=path)
        first = {
            name: (out / name).read_bytes()
            for name in ["certificates.jsonl", "decompositions.jsonl",
                         "certificate_terms.csv", "free_annuli.csv"]
        }
        cli.run(cli.load_config(path), config_path=path)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_lemma_mc_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "pipeline": "lemma-mc",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 40.0},
                "law": {"kind": "bernoulli", "p": 0.4},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 1.0},
            },
            "seeds": [7],
            "output_dir": str(out),
            "parameters": {"eps": 0.5, "a": 2.0, "n_range": [2, 4], "trials": 200},
        }
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        rows = (out / "an_rows.csv").read_text().splitlines()
        assert rows[0].startswith("seed,n,exact,estimate")
        assert len(rows) == 1 + 3

    def test_spectral_probe_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "pipeline": "spectral-probe",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 25.0},
                "law": {"kind": "radial_bernoulli", "tau": 0.4},
                "potential": {"kind": "indicator", "amplitude": -3.0, "radius": 1.0},
            },
            "seeds": [3],
            "output_dir": str(out),
            "parameters": {"eps": 0.5, "box": 15.0, "h": 0.5, "energies": [-0.5, -1.0]},
        }
        path = write_config(tmp_path, cfg)
        runner = CliRunner()
        result = runner.invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        assert (out / "states.csv").exists()
        assert (out / "resolvent_rates.csv").exists()
        assert (out / "localization.jsonl").exists()

    def test_energy_on_the_reference_spectrum_is_skipped(self, tmp_path):
        """An energy within 1e-6 of an eigenvalue of the reference operator gets
        no resolvent_rates.csv row; the run still exits 0."""
        cfg = window_cfg(tmp_path, "spectral-probe", {"box": 6.0, "h": 0.2})
        op, _ = cli._reference(cli._canonical(cfg["model"]), None, 6.0, 0.2, ())
        eigenvalue = float(op.all_eigenvalues()[3])
        cfg["parameters"]["energies"] = [eigenvalue, -1.0, eigenvalue + 5e-7]
        result = CliRunner().invoke(cli.main, ["run", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "resolvent_rates.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "-1.0"], ["2", "-1.0"]]

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        cfg1, cfg2 = certify_cfg(out1), certify_cfg(out2)
        p1 = write_config(tmp_path, cfg1, "c1.json")
        p2 = write_config(tmp_path, cfg2, "c2.json")
        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        cli.run(cli.load_config(p1), config_path=p1)
        monkeypatch.setenv("SPARSELOC_WORKERS", "3")
        cli.run(cli.load_config(p2), config_path=p2)
        for name in ["certificates.jsonl", "certificate_terms.csv", "free_annuli.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_does_not_change_quasi1d_bytes(self, tmp_path, monkeypatch):
        outputs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("SPARSELOC_WORKERS", workers)
            outputs.append(tmp_path / f"w{workers}")
            cli.run(quasi1d_cfg(outputs[-1], seeds=(1, 2, 3)))
        names = ["certificates.jsonl", "decompositions.jsonl", "certificate_terms.csv",
                 "free_annuli.csv", "member_counts.csv"]
        for name in names:
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        started = []

        class FakePool:  # runs the cells in this process, so no worker starts
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, jobs):
                return map(func, jobs)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setenv("SPARSELOC_WORKERS", "64")
        cli.run(certify_cfg(tmp_path / "out", seeds=(1, 2)))
        assert started == [2]


class TestSeedFreeMemo:
    """The model, the reference operator with its gaps and resolvent fits, and
    the exact a_n are computed once per process; no run may see another's."""

    VARIANTS = [
        {},
        {"box": 5.0, "h": 0.125},
        {"background": {"kind": "constant", "value": 1.5}},
    ]

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, SPARSELOC_WORKERS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for k, variant in enumerate(self.VARIANTS):
            config = write_config(tmp_path, full_report_cfg(tmp_path / f"alone{k}", **variant),
                                  f"alone{k}.json")
            subprocess.run([sys.executable, "-m", "sparseloc.cli", "run", str(config)],
                           env=env, check=True, capture_output=True)
        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        together = []
        for k, variant in enumerate(self.VARIANTS):
            cli.run(full_report_cfg(tmp_path / f"together{k}", **variant))
            together.append(data_files(tmp_path / f"together{k}"))
            assert together[-1] == data_files(tmp_path / f"alone{k}")
        # each variant changes the spectral files, so a stale memo entry would show
        for name in ("states.csv", "resolvent_rates.csv"):
            assert len({files[name] for files in together}) == len(self.VARIANTS)

    def test_worker_count_does_not_change_full_report_bytes(self, tmp_path, monkeypatch):
        outputs = []
        # pooled runs first, so that their workers start from an empty memo
        for workers in ("3", "2", "1"):
            monkeypatch.setenv("SPARSELOC_WORKERS", workers)
            cli.run(full_report_cfg(tmp_path / f"w{workers}", seeds=(1, 2, 3), box=4.0))
            outputs.append(data_files(tmp_path / f"w{workers}"))
        assert outputs[0] == outputs[1] == outputs[2]
        assert set(outputs[0]) == {
            "certificates.jsonl", "decompositions.jsonl", "certificate_terms.csv",
            "free_annuli.csv", "an_rows.csv", "an_verdicts.jsonl", "states.csv",
            "resolvent_rates.csv", "localization.jsonl",
        }


def per_gamma_cell(cfg: dict, stage: str, seed: int) -> dict:
    """A certify cell's files from a fresh decomposition and certificate per gamma."""
    params = cfg["parameters"]
    eps, n_range = params["eps"], tuple(params["n_range"])
    model = m.model_from_dict(cfg["model"])
    cm = m.sample_couplings(model, seed, params.get("window"))
    diff = c.difference_support(model, cm, eps)
    files = {}
    for gamma in params["gammas"]:
        if stage == "certify-quasi1d":
            td = c.build_decomposition_quasi1d(
                cm, eps, alpha=params.get("alpha", 2.0), a=params["a"], n_range=n_range
            )
            files.setdefault("member_counts.csv", []).extend(
                [seed, row["scale"], row["sites_near"], row["distinct_caps"],
                 row["raw_bound"], row["scaled_bound"]]
                for row in td.params["cap_counts"]
            )
        else:
            td = c.build_decomposition_sparse(cm, eps, gamma, n_range=n_range)
        cert = c.certify_ac(td, diff, gamma)
        head, td_records = cert.to_records()[0], td.to_records()
        stamp = {"seed": seed, "gamma": gamma}
        files.setdefault("certificates.jsonl", []).append({**head, **stamp})
        files.setdefault("decompositions.jsonl", []).extend(
            [{**td_records[0], **stamp}, *td_records[1:]]
        )
        files.setdefault("certificate_terms.csv", []).extend(
            [seed, gamma, t.scale, t.member, t.role, t.clearance, t.surface, t.value]
            for t in cert.terms
        )
        files.setdefault("free_annuli.csv", []).extend(
            [seed, gamma, rec["scale"], int(rec["free"]), rec["inner_radius"],
             int(rec["degenerate"])]
            for rec in td.params["free_records"]
        )
    return files


class TestGammaFreeWork:
    """A certify cell builds one decomposition per growth ratio and computes
    each member's clearance and sigma once, with the rows of the per-gamma path."""

    CASES = {
        # d=1: every gamma gives ell = 1, so one decomposition serves all
        "sparse-d1": lambda tmp_path: window_cfg(
            tmp_path, "certify-sparse", {"gammas": [0.5, 1.0, 2.0], "n_range": [1, 4]}
        ),
        # d=2: 0.9 and 0.95 share ell = 3, 2.0 has ell = 2
        "sparse-d2": lambda tmp_path: dict(
            certify_cfg(tmp_path / "out"),
            model=lattice_model_cfg(d=2, radius=20.0),
            parameters={"eps": 0.1, "gammas": [0.9, 0.95, 2.0], "n_range": [1, 5]},
        ),
        # up to scale 4, seed 1 has only gaps: each cap neighbourhood reaches the origin
        "quasi1d": lambda tmp_path: quasi1d_cfg(tmp_path / "out"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_rows_as_per_gamma_path(self, tmp_path, case):
        cfg = self.CASES[case](tmp_path)
        stage = cfg["pipeline"]
        for seed in cfg["seeds"]:
            got = cli._certify_cell(cfg, stage, seed)
            want = per_gamma_cell(cfg, stage, seed)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_clearance_and_sigma_once_per_member(self, tmp_path, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("distance_between", "closed_form_sigma"):
            monkeypatch.setattr(c, name, counted(getattr(c, name)))
        cfg = quasi1d_cfg(tmp_path / "out")
        for seed in cfg["seeds"]:
            calls.clear()
            files = cli._certify_cell(cfg, "certify-quasi1d", seed)
            heads = [rec for rec in files["decompositions.jsonl"]
                     if rec["record"] == "total_decomposition"]
            assert len(heads) == len(cfg["parameters"]["gammas"]) == 3
            members = heads[0]["member_count"]
            assert members > 0
            assert calls.count("distance_between") == calls.count("closed_form_sigma") == members


class TestImportBoundary:
    """scipy serves only the spectral stage: certify and lemma runs import none
    of it, whatever their sites, a spectral pipeline imports its linear algebra
    when its config is loaded, and no pipeline imports anything inside `run`,
    with or without a worker pool.  numpy.random serves only the lemma, click
    only the command line and multiprocessing only a pool, so a certify run
    loads none of them.  No pipeline imports jsonschema or scipy.spatial at all."""

    SMALL_PARAMS = {
        "lemma-mc": {"a": 2.0, "n_range": [1, 3], "trials": 50},
        "spectral-probe": {"box": 6.0, "h": 0.2, "energies": [-1.0]},
        "full-report": {"gammas": [1.0], "n_range": [1, 3], "a": 2.0, "trials": 50,
                        "box": 6.0, "h": 0.2, "energies": [-1.0]},
    }

    LOAD = (
        "import json, sys\n"
        "from sparseloc import cli\n"
        "cli.load_config(sys.argv[1])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    RUN = (
        "import json, sys\n"
        "from sparseloc import cli\n"
        "cfg = cli.load_config(sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "cli.run(cfg)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )

    def small_cfg(self, tmp_path, pipeline, seeds=(1,)):
        """A small config of `pipeline`; the certify pipelines run `seeds`, the others seeds 1-2."""
        if pipeline == "certify-sparse":
            return certify_cfg(tmp_path / "out", seeds=seeds)
        if pipeline == "certify-quasi1d":
            return quasi1d_cfg(tmp_path / "out", seeds=seeds)
        return window_cfg(tmp_path, pipeline, self.SMALL_PARAMS[pipeline])

    @staticmethod
    def fresh_python(code, *args, workers=1):
        """Run `code` in a new interpreter with `workers` workers and parse its JSON line."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, SPARSELOC_WORKERS=str(workers))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              check=True, capture_output=True, text=True)
        return json.loads(done.stdout)

    @pytest.mark.parametrize("pipeline", ["certify-sparse", "certify-quasi1d", "lemma-mc"])
    def test_load_config_imports_no_scipy(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        assert self.fresh_python(self.LOAD, path) == []

    @pytest.mark.parametrize("pipeline, workers", [
        *(pytest.param(p, 1, id=p) for p in sorted(cli.PIPELINES)),
        *(pytest.param(p, 2, id=f"{p}-pool") for p in sorted(cli.PIPELINES)),
    ])
    def test_run_imports_nothing(self, tmp_path, pipeline, workers):
        """Two seeds under two workers start a pool; its modules load with the config."""
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline, seeds=(1, 2)[:workers]))
        assert self.fresh_python(self.RUN, path, workers=workers) == []
        if pipeline == "certify-quasi1d":
            lines = (tmp_path / "out" / "decompositions.jsonl").read_text().splitlines()
            assert json.loads(lines[0])["member_count"] > 0

    @pytest.mark.parametrize("pipeline", sorted(cli.PIPELINES))
    def test_no_jsonschema_on_any_pipeline(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        code = (
            "import json, sys\n"
            "from sparseloc import cli\n"
            "cli.run(cli.load_config(sys.argv[1]))\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema')))\n"
        )
        assert self.fresh_python(code, path) == []

    @pytest.mark.parametrize("pipeline", sorted(cli.PIPELINES))
    def test_no_spatial_on_any_pipeline(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        code = (
            "import json, sys\n"
            "from sparseloc import cli\n"
            "cfg = cli.load_config(sys.argv[1])\n"
            "loaded = 'scipy.spatial' in sys.modules\n"
            "cli.run(cfg)\n"
            "print(json.dumps([loaded, 'scipy.spatial' in sys.modules]))\n"
        )
        assert self.fresh_python(code, path) == [False, False]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_run_imports_nothing_under_start_method(self, tmp_path, method):
        """The launcher that `load_config` imports is the one of the pool's start method."""
        path = write_config(tmp_path, self.small_cfg(tmp_path, "certify-sparse", seeds=(1, 2)))
        code = f"import multiprocessing\nmultiprocessing.set_start_method({method!r})\n{self.RUN}"
        assert self.fresh_python(code, path, workers=2) == []

    @pytest.mark.parametrize("pipeline", ["certify-sparse", "certify-quasi1d"])
    def test_certify_run_loads_no_click_rng_or_pool(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        code = (
            "import json, sys\n"
            "from sparseloc import cli\n"
            "cli.run(cli.load_config(sys.argv[1]))\n"
            "print(json.dumps(sorted(m for m in ('click', 'numpy.random', 'multiprocessing')\n"
            "                        if m in sys.modules)))\n"
        )
        assert self.fresh_python(code, path) == []

    @pytest.mark.parametrize("pipeline", ["lemma-mc", "full-report"])
    def test_lemma_config_loads_numpy_random(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        code = (
            "import json, sys\n"
            "from sparseloc import cli\n"
            "imported = 'numpy.random' in sys.modules\n"
            "cli.load_config(sys.argv[1])\n"
            "print(json.dumps([imported, 'numpy.random' in sys.modules]))\n"
        )
        assert self.fresh_python(code, path) == [False, True]

    def test_main_is_a_click_group(self):
        assert isinstance(cli.main, click.Group)
        assert sorted(cli.main.commands) == ["oracle", "plotdata", "run", "validate"]
        with pytest.raises(AttributeError, match="no attribute 'mian'"):
            cli.mian

    def test_module_runs_as_a_script(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "sparseloc.cli", "--version"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.rstrip().endswith(f"version {cli.__version__}")

    def test_explicit_sites_need_no_scipy(self, tmp_path):
        """An explicit-site certify config loads and runs in an interpreter in
        which every scipy import fails: building the sites measures nothing."""
        cfg = certify_cfg(tmp_path / "out", seeds=(1,))
        cfg["model"] = lattice_model_cfg(d=1)
        cfg["model"]["sites"] = {"generator": "explicit",
                                 "points": [[-4.0], [-2.0], [0.0], [2.0], [4.0]]}
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from sparseloc import cli\n"
            "cli.run(cli.load_config(sys.argv[1]))\n"
            "print(json.dumps(sorted(m for m, v in sys.modules.items()\n"
            "                        if m.split('.')[0] == 'scipy' and v is not None)))\n"
        )
        assert self.fresh_python(code, write_config(tmp_path, cfg)) == []
        lines = (tmp_path / "out" / "certificates.jsonl").read_text().splitlines()
        assert len(lines) == 2 and all('"verdict"' in line for line in lines)

    def test_star_import_binds_all(self):
        """The package and every submodule with an __all__: a stale export fails here."""
        code = (
            "import importlib, json\n"
            "missing = {}\n"
            "for name in ['sparseloc', 'sparseloc.geometry', 'sparseloc.models',\n"
            "             'sparseloc.certify', 'sparseloc.stochastic', 'sparseloc.spectral']:\n"
            "    names = {}\n"
            "    exec(f'from {name} import *', names)\n"
            "    missing[name] = [n for n in importlib.import_module(name).__all__ if n not in names]\n"
            "print(json.dumps(missing))\n"
        )
        missing = self.fresh_python(code)
        assert len(missing) == 6 and not any(missing.values()), missing


class TestFmt:
    """A numpy scalar in a row is written as its Python twin."""

    @pytest.mark.parametrize("value, twin, text", [
        (np.float64(0.5), 0.5, "0.5"),
        (np.float64(0.1), 0.1, "0.1"),
        (np.float32(0.1), float(np.float32(0.1)), "0.10000000149011612"),
        (np.int64(-7), -7, "-7"),
        (np.bool_(True), True, "1"),
        (np.bool_(False), False, "0"),
        (np.float64(np.nan), math.nan, "nan"),
        (np.float32(np.nan), math.nan, "nan"),
        (np.float64(np.inf), math.inf, "inf"),
        (np.float64(-np.inf), -math.inf, "-inf"),
        (np.float32(-np.inf), -math.inf, "-inf"),
    ], ids=["float64", "float64-0.1", "float32", "int64", "bool-true", "bool-false", "nan",
            "float32-nan", "inf", "-inf", "float32--inf"])
    def test_numpy_scalar_written_as_python_twin(self, value, twin, text):
        assert cli._fmt(value) == cli._fmt(twin) == text


class TestStageLayout:
    """The stages each pipeline runs and the data files each stage writes, as
    the manifest records them; benchmark stage metrics read these names."""

    CERTIFY_FILES = ["certificates.jsonl", "decompositions.jsonl", "certificate_terms.csv",
                     "free_annuli.csv"]

    @staticmethod
    def stage_records(cfg):
        cli.run(cfg)
        manifest = Path(cfg["output_dir"]) / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        return [(r["name"], r["outputs"]) for r in records if r["record"] == "stage"]

    def test_full_report_stages(self, tmp_path):
        params = {"gammas": [1.0], "n_range": [1, 3], "a": 2.0, "trials": 50, "box": 6.0,
                  "h": 0.2}
        assert self.stage_records(window_cfg(tmp_path, "full-report", params)) == [
            ("certify-sparse", self.CERTIFY_FILES),
            ("lemma-mc", ["an_rows.csv", "an_verdicts.jsonl"]),
            ("spectral-probe", ["states.csv", "resolvent_rates.csv", "localization.jsonl"]),
        ]

    def test_certify_quasi1d_stages(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out", seeds=(1,))
        cfg["pipeline"] = "certify-quasi1d"
        cfg["model"]["sites"] = {"generator": "tube", "radius": 70.0}
        cfg["model"]["law"] = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
        cfg["parameters"] = {"eps": 0.95, "gammas": [1.0], "n_range": [2, 4], "a": 2.0}
        assert self.stage_records(cfg) == [
            ("certify-quasi1d", self.CERTIFY_FILES + ["member_counts.csv"]),
        ]


class TestFailuresAndWarnings:
    def test_overflowing_tail_ends_in_a_verdict(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "pipeline": "certify-quasi1d",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 12.0},
                "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
            },
            "seeds": [1],
            "output_dir": str(out),
            "parameters": {"eps": 0.95, "gammas": [0.05], "n_range": [1, 3], "a": 1.5,
                           "alpha": 1.2},
        }
        path = write_config(tmp_path, cfg)
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        cert = json.loads((out / "certificates.jsonl").read_text())
        assert cert["verdict"] in ("certified", "not-certified", "inconclusive")
        assert cert["tail"]["sum_bound"] == math.inf

    @staticmethod
    def offset_tube_cfg(tmp_path, **params):
        """quasi1d_cfg at seed 1 on a tube whose cross-section avoids the origin:
        on the axis every cap neighbourhood reaches the origin site, whose
        direction is undefined, so no scale builds a member."""
        cfg = quasi1d_cfg(tmp_path / "out", seeds=(1,), n_range=(2, 4))
        cfg["model"]["sites"]["offsets"] = [[0.5]]
        cfg["parameters"].update(params)
        return cfg

    def test_a_near_one_ends_in_a_verdict(self, tmp_path):
        # no scale below 10000 has the n^alpha cheese clearance at a = 1.001
        cfg = self.offset_tube_cfg(tmp_path, a=1.001)
        path = write_config(tmp_path, cfg)
        assert CliRunner().invoke(cli.main, ["validate", str(path)]).exit_code == 0
        with pytest.warns(UserWarning, match="free-annulus threshold"):
            result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        certs = (tmp_path / "out" / "certificates.jsonl").read_text().splitlines()
        assert [json.loads(line)["verdict"] for line in certs] == ["certified"] * 3
        head = json.loads((tmp_path / "out" / "decompositions.jsonl").read_text().splitlines()[0])
        # scale 2's caps and cheese, then one sphere for each of scales 3 and 4, whose
        # cap balls n^2 reach across the sphere
        assert head["member_count"] == 12
        assert head["params"]["clearance_threshold_n"] == math.inf

    def test_large_alpha_ends_in_a_verdict(self, tmp_path):
        # the clearance threshold lies where 2^n overflows a float at alpha = 100
        cfg = self.offset_tube_cfg(tmp_path, alpha=100.0)
        path = write_config(tmp_path, cfg)
        assert CliRunner().invoke(cli.main, ["validate", str(path)]).exit_code == 0
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        certs = (tmp_path / "out" / "certificates.jsonl").read_text().splitlines()
        assert [json.loads(line)["verdict"] for line in certs] == ["inconclusive"] * 3
        head = json.loads((tmp_path / "out" / "decompositions.jsonl").read_text().splitlines()[0])
        # every cap ball n^100 swallows its sphere: one sphere member per scale
        assert head["member_count"] == 3
        assert head["params"]["clearance_threshold_n"] == math.inf

    def test_overflowing_alpha_ends_in_a_verdict(self, tmp_path):
        # n^alpha itself overflows at alpha = 1e300, so the reach is inf; a cap ball that
        # wide covers the sphere already at alpha = 100, so the terms are the same
        terms = {}
        for alpha in (100.0, 1e300):
            run_dir = tmp_path / str(alpha)
            run_dir.mkdir()
            path = write_config(run_dir, self.offset_tube_cfg(run_dir, alpha=alpha))
            assert CliRunner().invoke(cli.main, ["validate", str(path)]).exit_code == 0
            result = CliRunner().invoke(cli.main, ["run", str(path)])
            assert result.exit_code == 0, result.output
            certs = (run_dir / "out" / "certificates.jsonl").read_text().splitlines()
            assert [json.loads(line)["verdict"] for line in certs] == ["inconclusive"] * 3
            terms[alpha] = (run_dir / "out" / "certificate_terms.csv").read_text().splitlines()
        assert len(terms[100.0]) > 1 and terms[1e300] == terms[100.0]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_integer_worker_count_is_a_config_error(self, tmp_path, monkeypatch, command):
        monkeypatch.setenv("SPARSELOC_WORKERS", "two")
        path = write_config(tmp_path, certify_cfg(tmp_path / "out"))
        result = CliRunner().invoke(cli.main, [command, str(path)])
        assert result.exit_code == 2
        assert "config error: SPARSELOC_WORKERS: must be an integer, got 'two'" in result.output
        assert not (tmp_path / "out").exists()

    def test_failing_cell_named(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        monkeypatch.setattr(cli, "certify_ac", boom)
        path = write_config(tmp_path, certify_cfg(tmp_path / "out"))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 1
        assert "stage failure: certify-sparse seed=1 gamma=0.5: RuntimeError: boom" in result.output
        raise_line = boom.__code__.co_firstlineno + 1
        assert f"\n  at {__file__}:{raise_line} in boom\n" in result.output

    def test_failing_worker_cell_names_its_line(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setenv("SPARSELOC_WORKERS", "2")
        monkeypatch.setattr(cli, "certify_ac", boom)
        with pytest.raises(cli.CellFailure) as info:
            cli.run(certify_cfg(tmp_path / "out"))
        assert str(info.value) == "certify-sparse seed=1 gamma=0.5: RuntimeError: boom"
        assert info.value.at == f"{__file__}:{boom.__code__.co_firstlineno + 1} in boom"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failure_at_one_gamma_names_that_gamma(self, tmp_path, monkeypatch, workers):
        certify_ac = cli.certify_ac

        def boom_at_one(decomposition, diff_support, gamma):
            if gamma == 1.0:
                raise RuntimeError("boom")
            return certify_ac(decomposition, diff_support, gamma)

        monkeypatch.setenv("SPARSELOC_WORKERS", workers)
        monkeypatch.setattr(cli, "certify_ac", boom_at_one)
        path = write_config(tmp_path, quasi1d_cfg(tmp_path / "out"))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 1
        assert "stage failure: certify-quasi1d seed=1 gamma=1.0: RuntimeError: boom" in result.output
        raise_line = boom_at_one.__code__.co_firstlineno + 2
        assert f"\n  at {__file__}:{raise_line} in boom_at_one\n" in result.output

    def test_gamma_free_failure_names_first_gamma(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        monkeypatch.setattr(cli, "difference_support", boom)
        path = write_config(tmp_path, quasi1d_cfg(tmp_path / "out"))
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 1
        assert "stage failure: certify-quasi1d seed=1 gamma=0.5: RuntimeError: boom" in result.output

    def test_failing_lemma_cell_has_no_gamma(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("bad")

        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        monkeypatch.setattr(cli, "borel_cantelli_report", boom)
        cfg = {
            "pipeline": "lemma-mc",
            "model": lattice_model_cfg(d=1, radius=40.0),
            "seeds": [7],
            "output_dir": str(tmp_path / "out"),
            "parameters": {"eps": 0.5, "a": 2.0, "n_range": [2, 4], "trials": 10},
        }
        result = CliRunner().invoke(cli.main, ["run", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 1
        assert "stage failure: lemma-mc seed=7: ValueError: bad" in result.output

    def test_quasi1d_threshold_warning_reaches_caller(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARSELOC_WORKERS", "1")
        cfg = {
            "pipeline": "certify-quasi1d",
            "model": {
                "dimension": 2,
                "sites": {"generator": "tube", "radius": 20.0},
                "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
            },
            "seeds": [1],
            "output_dir": str(tmp_path / "out"),
            "parameters": {"eps": 0.5, "gammas": [1.0], "n_range": [1, 3], "a": 2.0},
        }
        with pytest.warns(UserWarning, match="free-annulus threshold"):
            cli.run(cfg)


class TestPlotData:
    def test_lemma_plotdata(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "pipeline": "lemma-mc",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 40.0},
                "law": {"kind": "bernoulli", "p": 0.3},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 1.0},
            },
            "seeds": [1],
            "output_dir": str(out),
            "parameters": {"eps": 0.5, "a": 2.0, "n_range": [2, 4], "trials": 100},
        }
        path = write_config(tmp_path, cfg)
        cli.run(cli.load_config(path), config_path=path)
        written = cli.emit_plotdata(out / "manifest.jsonl")
        assert "an_series.csv" in written
        lines = (out / "an_series.csv").read_text().splitlines()
        assert lines[0] == "n,exact,estimate,stderr,bound"

    def test_certify_plotdata(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, certify_cfg(out))
        cli.run(cli.load_config(path), config_path=path)
        written = cli.emit_plotdata(out / "manifest.jsonl")
        assert "terms_vs_n.csv" in written
        header = (out / "terms_vs_n.csv").read_text().splitlines()[0]
        assert header == "seed,gamma,n,delta,sigma,term"

    def test_missing_manifest_fails(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["plotdata", str(tmp_path / "none.jsonl")])
        assert result.exit_code == 1

    def test_empty_manifest_fails(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"record": "run_manifest"}) + "\n")
        with pytest.raises(ValueError):
            cli.emit_plotdata(path)


class TestOracleCommand:
    @staticmethod
    def check_matches_library(radius_args, radius):
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["oracle", "an", "--dimension", "1", "--p", "0.5", *radius_args,
             "--a", "2.0", "--n", "2", "--eps", "0.5"],
        )
        assert result.exit_code == 0, result.output
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, radius),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        want = st.brute_force_a_n(model, 0.5, 2.0, 2)
        assert float(result.output.strip()) == pytest.approx(want, abs=1e-12)

    def test_oracle_an_matches_library(self):
        self.check_matches_library(["--radius", "16"], 16.0)

    def test_oracle_an_default_radius_matches_library(self):
        # without --radius the lattice reaches one past the scale's reach, 8 + 1
        self.check_matches_library([], 9.0)

    def test_oracle_short_window_exit_code(self, tmp_path):
        # scale 3 at a=2 reaches radius 16; the model's lattice stops at 10
        model_cfg = lattice_model_cfg(d=1, radius=10.0)
        model_cfg["law"] = {"kind": "bernoulli", "p": 0.5}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_cfg))
        result = CliRunner().invoke(
            cli.main,
            ["oracle", "an", "--model", str(path), "--a", "2", "--n", "3", "--eps", "0.5"],
        )
        assert result.exit_code == 1
        assert "oracle error: window radius 10.000 does not cover radius 16.000" in result.output

    @staticmethod
    def oracle_on_model_file(tmp_path, model_cfg):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_cfg))
        args = ["oracle", "an", "--model", str(path), "--a", "2", "--n", "2", "--eps", "0.5"]
        return path, CliRunner().invoke(cli.main, args)

    @staticmethod
    def bernoulli_model_cfg():
        """The flag form's model: a d=1 lattice of radius 16 with shared Bernoulli(0.5)."""
        model_cfg = lattice_model_cfg(d=1, radius=16.0)
        model_cfg["law"] = {"kind": "bernoulli", "p": 0.5}
        return model_cfg

    def test_oracle_model_file_matches_flag_form(self, tmp_path):
        _, result = self.oracle_on_model_file(tmp_path, self.bernoulli_model_cfg())
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "0.890625"

    @pytest.mark.parametrize("change, message", [
        ({"law": {"kind": "radial_bernoulli", "tau": math.nan}}, "{path}: NaN is not a JSON number"),
        ({"p_exponent": 2.0, "bogus": 1},
         "model_file $: Additional properties are not allowed ('bogus', 'p_exponent' were unexpected)"),
        ({"distinguished_site": 100},
         "$.model: ValueError: distinguished_site 100 is not a site index of the 33 sites"),
    ], ids=["nan", "unknown-keys", "unbuildable"])
    def test_oracle_model_file_checked_as_validate_does(self, tmp_path, change, message):
        path, result = self.oracle_on_model_file(tmp_path, {**self.bernoulli_model_cfg(), **change})
        assert result.exit_code == 2
        assert f"config error: {message.replace('{path}', f'model_file {path}')}" in result.output

    def test_oracle_budget_error_exit_code(self, tmp_path):
        model_cfg = lattice_model_cfg(d=2, radius=40.0, tau=0.0)
        model_cfg["law"] = {"kind": "bernoulli", "p": 0.5}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_cfg))
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["oracle", "an", "--model", str(path), "--a", "2.0", "--n", "4", "--eps", "0.5"],
        )
        assert result.exit_code == 1
        assert "budget" in result.output.lower()


class TestConfigHash:
    def test_stable_hash(self, tmp_path):
        cfg = certify_cfg(tmp_path / "out")
        assert cli.config_hash(cfg) == cli.config_hash(json.loads(json.dumps(cfg)))
