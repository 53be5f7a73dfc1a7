"""Config validation, pipeline runs, determinism, and plot-data emission."""

import copy
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

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
            ("law", {"kind": "per_site", "laws": [{"kind": "uniform", "segments": [[0, 1, 1]]}]},
             "per_site lists 1 laws for 81 sites"),
            ("background", {"kind": "periodic_step", "values": []},
             "periodic_step needs at least one value and a positive cell, "
             "got values=[] and cell=1.0"),
        ],
    )
    def test_model_refused_when_built(self, tmp_path, part, fields, message):
        cfg = window_cfg(tmp_path, "lemma-mc", {"a": 2.0, "n_range": [1, 3], "trials": 50})
        cfg["model"][part] = fields
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == f"config error: $.model: ValueError: {message}\n"

    @pytest.mark.parametrize("points, dim", [([[3.0], [7.0]], 1), ([], 0)])
    def test_explicit_points_of_another_dimension_refused(self, tmp_path, points, dim):
        cfg = certify_cfg(tmp_path / "out")
        cfg["model"]["sites"] = {"generator": "explicit", "points": points, "window_radius": 10.0}
        result = CliRunner().invoke(cli.main, ["validate", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 2
        assert result.output == ("config error: $.model: ValueError: explicit points have "
                                 f"dimension {dim}, but the model has dimension 2\n")


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
        """(schema, root path, document) for each mutation of three base documents."""
        full = full_report_cfg("out")
        full["model"].update(p_exponent=2.0, distinguished_site=0)
        full["model"]["law"] = {"kind": "bernoulli", "p": 0.5}
        full["parameters"].update(window=20.0, alpha=2.0)
        from_file = {key: value for key, value in certify_cfg("out").items() if key != "model"}
        from_file["model_file"] = "model.json"
        bases = [(cli.CONFIG_SCHEMA, "$", full), (cli.CONFIG_SCHEMA, "$", from_file),
                 (cli.MODEL_SCHEMA, "model_file $", lattice_model_cfg())]
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

    def test_decompositions_jsonl_parses(self, tmp_path):
        from sparseloc.geometry import TotalDecomposition

        out = tmp_path / "out"
        path = write_config(tmp_path, certify_cfg(out, seeds=(1,)))
        cli.run(cli.load_config(path), config_path=path)
        records = [
            json.loads(line)
            for line in (out / "decompositions.jsonl").read_text().splitlines()
        ]
        head = records[0]
        assert head["record"] == "total_decomposition"
        td = TotalDecomposition.from_records(records[: 1 + head["member_count"]])
        assert td.kind == "sphere-shells"
        assert len(td.members) == head["member_count"]

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

        monkeypatch.setattr(cli, "multiprocessing", types.SimpleNamespace(Pool=FakePool))
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
    """scipy serves only the spectral stage and the closest-pair k-d tree: certify
    and lemma runs import none of it unless explicit sites come without r_sigma,
    a spectral pipeline imports its linear algebra when its config is loaded,
    and no pipeline imports anything inside `run`.  No pipeline imports
    jsonschema or scipy.spatial at all."""

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

    def small_cfg(self, tmp_path, pipeline):
        if pipeline == "certify-sparse":
            return certify_cfg(tmp_path / "out", seeds=(1,))
        if pipeline == "certify-quasi1d":
            return quasi1d_cfg(tmp_path / "out", seeds=(1,))
        return window_cfg(tmp_path, pipeline, self.SMALL_PARAMS[pipeline])

    @staticmethod
    def fresh_python(code, *args):
        """Run `code` in a new interpreter (one worker) and parse its JSON line."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, SPARSELOC_WORKERS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              check=True, capture_output=True, text=True)
        return json.loads(done.stdout)

    @pytest.mark.parametrize("pipeline", ["certify-sparse", "certify-quasi1d", "lemma-mc"])
    def test_load_config_imports_no_scipy(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        assert self.fresh_python(self.LOAD, path) == []

    @pytest.mark.parametrize("pipeline", sorted(cli.PIPELINES))
    def test_run_imports_nothing(self, tmp_path, pipeline):
        path = write_config(tmp_path, self.small_cfg(tmp_path, pipeline))
        assert self.fresh_python(self.RUN, path) == []
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

    @pytest.mark.parametrize("r_sigma", [0.5, None])
    def test_explicit_sites_take_a_tree_only_without_r_sigma(self, tmp_path, r_sigma):
        """Without r_sigma, building the model measures the closest pair with a k-d
        tree, so load_config imports scipy.spatial even for a certify run."""
        cfg = certify_cfg(tmp_path / "out", seeds=(1,))
        cfg["model"] = lattice_model_cfg(d=1)
        cfg["model"]["sites"] = {"generator": "explicit",
                                 "points": [[-4.0], [-2.0], [0.0], [2.0], [4.0]]}
        if r_sigma is not None:
            cfg["model"]["sites"]["r_sigma"] = r_sigma
        path = write_config(tmp_path, cfg)
        loaded = self.fresh_python(self.LOAD, path)
        if r_sigma is None:
            assert "scipy.spatial" in loaded
        else:
            assert loaded == []
        assert self.fresh_python(self.RUN, path) == []

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
        assert head["member_count"] == 64
        assert head["params"]["clearance_threshold_n"] == math.inf

    def test_large_alpha_ends_in_a_verdict(self, tmp_path):
        # the clearance threshold's n^(2 alpha) overflows a float at alpha = 100
        cfg = self.offset_tube_cfg(tmp_path, alpha=100.0)
        path = write_config(tmp_path, cfg)
        assert CliRunner().invoke(cli.main, ["validate", str(path)]).exit_code == 0
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 0, result.output
        certs = (tmp_path / "out" / "certificates.jsonl").read_text().splitlines()
        assert [json.loads(line)["verdict"] for line in certs] == ["inconclusive"] * 3
        head = json.loads((tmp_path / "out" / "decompositions.jsonl").read_text().splitlines()[0])
        assert head["member_count"] == 402
        assert head["params"]["clearance_threshold_n"] == math.inf

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
