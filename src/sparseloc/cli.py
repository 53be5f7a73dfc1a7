"""Config-driven experiment runner: sample, construct, certify, estimate, probe.

All science parameters live in a JSON config validated against a strict
schema (unknown keys are rejected so typos cannot silently change an
experiment).  Outputs are CSV and JSON-lines files with fixed column
orders; reruns of the same config and seeds are byte-identical, and the
only environment influence is SPARSELOC_WORKERS (parallel cell count),
which must not change any output byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import click

from . import __version__
from .certify import (
    build_decomposition_quasi1d,
    build_decomposition_sparse,
    certify_ac,
    difference_support,
    growth_ratio,
    require_scale_window,
    scale_window,
)
from .models import (
    CouplingMap,
    WindowTooSmallError,
    model_from_dict,
    require_window,
    sample_couplings,
)
from .spectral import (
    discretize,
    grid_side,
    localization_report,
    require_dense,
    require_grid_dimension,
    resolvent_decay,
)
from .stochastic import borel_cantelli_report, brute_force_a_n

import numpy as np

# pipeline -> the stages it runs, in order (STAGES names each stage's cell)
PIPELINES = {
    "certify-sparse": ("certify-sparse",),
    "certify-quasi1d": ("certify-quasi1d",),
    "lemma-mc": ("lemma-mc",),
    "spectral-probe": ("spectral-probe",),
    "full-report": ("certify-sparse", "lemma-mc", "spectral-probe"),
}

MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "sites", "law", "potential"],
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "sites": {
            "type": "object",
            "additionalProperties": False,
            "required": ["generator"],
            "properties": {
                "generator": {"enum": ["lattice", "tube", "explicit"]},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "offsets": {"type": "array"},
                "points": {"type": "array"},
                "r_sigma": {"type": "number", "exclusiveMinimum": 0},
                "window_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "law": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {
                    "enum": [
                        "bernoulli",
                        "uniform",
                        "bernoulli_times_uniform",
                        "point_masses",
                        "radial_bernoulli",
                        "shared",
                        "per_site",
                    ]
                },
                "p": {"type": "number", "minimum": 0, "maximum": 1},
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "tau": {"type": "number", "minimum": 0},
                "cap": {"type": "number", "minimum": 0, "maximum": 1},
                "atoms": {"type": "array"},
                "law": {"type": "object"},
                "laws": {"type": "array"},
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "amplitude", "radius"],
            "properties": {
                "kind": {"enum": ["indicator"]},
                "amplitude": {"type": "number"},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "background": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "constant", "periodic_step"]},
                "value": {"type": "number"},
                "values": {"type": "array", "items": {"type": "number"}},
                "cell": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "p_exponent": {"type": "number", "exclusiveMinimum": 0},
        "distinguished_site": {"type": "integer", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["pipeline", "seeds", "output_dir"],
    "properties": {
        "pipeline": {"enum": list(PIPELINES)},
        "model": MODEL_SCHEMA,
        "model_file": {"type": "string"},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "output_dir": {"type": "string"},
        "parameters": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "gammas": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "n_range": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "a": {"type": "number", "exclusiveMinimum": 1},
                "alpha": {"type": "number", "exclusiveMinimum": 1},
                "trials": {"type": "integer", "minimum": 1},
                "box": {"type": "number", "exclusiveMinimum": 0},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "window": {"type": "number", "exclusiveMinimum": 0},
                "energies": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
}

# the schema types a parsed JSON value meets, by its Python type: a bool meets none, 1.0 no integer
_JSON_TYPES = {dict: ("object",), list: ("array",), str: ("string",),
               int: ("integer", "number"), float: ("number",)}


class ConfigError(Exception):
    """Invalid configuration; `errors` lists field-level diagnostics."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _read_json(path: Path, label: str):
    """Parse the JSON file `path`; a syntax error is reported as `label:line:col: msg`."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{label}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc


def _schema_errors(schema: dict, value, path: str = "$"):
    """`path: message` per violation of `schema` by `value`, in jsonschema's words."""
    kinds = _JSON_TYPES.get(type(value), ())
    if "type" in schema and schema["type"] not in kinds:
        yield f"{path}: {value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield f"{path}: {value!r} is not one of {schema['enum']!r}"
    if "number" in kinds:  # a missing bound defaults to nan, which no comparison breaks
        if value < schema.get("minimum", math.nan):
            yield f"{path}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if value <= schema.get("exclusiveMinimum", math.nan):
            yield (f"{path}: {value!r} is less than or equal to the minimum of "
                   f"{schema['exclusiveMinimum']!r}")
        if value > schema.get("maximum", math.nan):
            yield f"{path}: {value!r} is greater than the maximum of {schema['maximum']!r}"
    if "array" in kinds and len(value) < schema.get("minItems", 0):
        short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
        yield f"{path}: {value!r} {short}"
    if "array" in kinds and len(value) > schema.get("maxItems", len(value)):
        yield f"{path}: {value!r} is too long"
    for i, item in enumerate(value if "array" in kinds and "items" in schema else ()):
        yield from _schema_errors(schema["items"], item, f"{path}[{i}]")
    if "object" in kinds:
        properties = schema.get("properties", {})
        yield from (f"{path}: {key!r} is a required property"
                    for key in schema.get("required", ()) if key not in value)
        for key in properties.keys() & value.keys():
            yield from _schema_errors(properties[key], value[key], f"{path}.{key}")
        extras = sorted(value.keys() - properties.keys())
        if extras and schema.get("additionalProperties") is False:
            listed = f"{', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
            yield f"{path}: Additional properties are not allowed ({listed} unexpected)"


def _check_schema(schema: dict, instance, path: str = "$") -> None:
    errors = sorted(_schema_errors(schema, instance, path))
    if errors:
        raise ConfigError(errors)


def load_config(path: str | Path) -> dict:
    """Parse and validate a config file; raises ConfigError with diagnostics.

    A `model_file` is read into `model`, so a config is checked the same
    way whichever of the two holds its model, up to building the model.
    """
    path = Path(path)
    cfg = _read_json(path, str(path))
    _check_schema(CONFIG_SCHEMA, cfg)
    if ("model" in cfg) == ("model_file" in cfg):
        raise ConfigError(["$.model: exactly one of model / model_file is required"])
    if "model_file" in cfg:
        model_path = path.parent / cfg["model_file"]
        if not model_path.exists():
            raise ConfigError([f"$.model_file: {cfg['model_file']} does not exist"])
        model = _read_json(model_path, f"model_file {model_path}")
        _check_schema(MODEL_SCHEMA, model, "model_file $")
        cfg = {**cfg, "model": model}
    errors = _semantic_errors(cfg)
    if errors:
        raise ConfigError(errors)
    try:
        _model(_canonical(cfg["model"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"$.model: {type(exc).__name__}: {exc}"]) from exc
    if "spectral-probe" in PIPELINES[cfg["pipeline"]]:
        # the spectral stage's scipy modules load here, before the run starts
        import scipy.linalg  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
    return cfg


def _semantic_errors(cfg: dict) -> list[str]:
    params = cfg.get("parameters", {})
    pipeline = cfg["pipeline"]
    stages = PIPELINES[pipeline]
    need = dict.fromkeys(key for stage in stages for key in STAGES[stage].params)
    errors = [
        f"$.parameters.{key}: required for pipeline {pipeline}"
        for key in need
        if key not in params
    ]
    if "n_range" in params and params["n_range"][0] > params["n_range"][1]:
        errors.append("$.parameters.n_range: lower bound exceeds upper bound")
    if errors:
        return errors

    model_cfg = cfg["model"]
    d = model_cfg.get("dimension", 1)
    # lemma-mc reads the whole site window; certify and spectral cells sample `window`
    sites = model_cfg["sites"]
    radius_key = "window_radius" if sites["generator"] == "explicit" else "radius"
    site_radius = sites.get(radius_key, math.inf)
    window = params.get("window", site_radius)
    try:
        require_window(site_radius, window, " requested by parameters.window")
    except WindowTooSmallError as exc:
        return [f"$.parameters.window: {exc}"]
    scale_checks = []  # (radius the cells read, growth ratio, what sets the ratio)
    if "certify-sparse" in stages:
        for gamma in params["gammas"]:
            scale_checks.append((window, growth_ratio(d - 1, gamma)[1], f"gamma={gamma}"))
    if "certify-quasi1d" in stages:
        scale_checks.append((window, params["a"], f"a={params['a']}"))
    if "lemma-mc" in stages:
        scale_checks.append((site_radius, params["a"], f"a={params['a']}"))
    for radius, a, label in scale_checks:
        try:
            require_scale_window(radius, a, params["n_range"][1])
        except WindowTooSmallError as exc:
            errors.append(f"$.parameters.n_range: at {label}: {exc}")
    if "spectral-probe" in stages:
        try:
            require_grid_dimension(d)
        except ValueError as exc:
            return errors + [f"$.model.dimension: {exc}"]
        needed = params["box"] * math.sqrt(d) + model_cfg["potential"]["radius"]
        try:
            require_dense(grid_side(params["box"], params["h"]) ** d)
            require_window(window, needed, " needed by the box corner plus support")
        except ValueError as exc:  # WindowTooSmallError included
            errors.append(f"$.parameters.box: {exc}")
    return errors


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Formatting helpers (byte-stable output)
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


# data file -> its header; every CSV the CLI writes, plotdata's projections included
CSV_COLUMNS = {
    "certificate_terms.csv": ("seed", "gamma", "scale", "member", "role", "clearance",
                              "surface", "term"),
    "free_annuli.csv": ("seed", "gamma", "scale", "found", "inner_radius", "degenerate"),
    "member_counts.csv": ("seed", "scale", "sites_near", "distinct_caps", "raw_bound",
                          "scaled_bound"),
    "an_rows.csv": ("seed", "n", "exact", "estimate", "std_error", "bound", "eta", "vacuous",
                    "degenerate", "partial_sum"),
    "states.csv": ("seed", "energy", "ipr", "decay_rate", "decay_quality", "center", "in_gap"),
    "resolvent_rates.csv": ("seed", "energy", "gap_distance", "rate", "quality"),
    "an_series.csv": ("n", "exact", "estimate", "stderr", "bound"),
    "terms_vs_n.csv": ("seed", "gamma", "n", "delta", "sigma", "term"),
    "ipr_vs_energy.csv": ("seed", "energy", "ipr", "in_gap"),
    "rate_vs_gap_distance.csv": ("energy", "gap_distance", "rate", "quality"),
}


def _write_outputs(outdir: Path, files: dict) -> list[str]:
    """Write each `{name: rows | records}` entry; returns the names.

    A `.csv` gets the header CSV_COLUMNS[name] and one line of cells per
    row; any other file gets one JSON line per record.
    """
    for name, data in files.items():
        with open(outdir / name, "w") as fp:
            if name.endswith(".csv"):
                fp.write(",".join(CSV_COLUMNS[name]) + "\n")
                fp.writelines(",".join(_fmt(x) for x in row) + "\n" for row in data)
            else:
                fp.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in data)
    return list(files)


def _workers() -> int:
    value = os.environ.get("SPARSELOC_WORKERS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise ConfigError([f"SPARSELOC_WORKERS: must be an integer, got {value!r}"]) from None


def _innermost_frame(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{frame.filename}:{frame.lineno} in {frame.name}"


class CellFailure(Exception):
    """A pipeline cell raised; the message names its stage, seed and gamma.

    `at` names the cell's failing frame as text: worker tracebacks are not pickled.
    """


def _cell_failure(exc: Exception, stage: str, seed: int, gamma: float | None) -> CellFailure:
    where = f"{stage} seed={seed}" if gamma is None else f"{stage} seed={seed} gamma={gamma}"
    failure = CellFailure(f"{where}: {type(exc).__name__}: {exc}")
    failure.at = _innermost_frame(exc)
    return failure


def _call_cell(job: tuple) -> dict:
    fn, cfg, stage, seed = job
    try:
        return fn(cfg, stage, seed)
    except CellFailure:
        raise
    except Exception as exc:
        raise _cell_failure(exc, stage, seed, None) from exc


# ---------------------------------------------------------------------------
# Pipeline cells (module-level for multiprocessing); each returns
# {data file: rows (CSV, in CSV_COLUMNS order) or records (JSONL)}
# ---------------------------------------------------------------------------


# Seed-free work, done once per process for every cell of a run (a pool worker
# fills its own memo); keyed by the model's canonical JSON and what shapes it.
@functools.lru_cache(maxsize=8)
def _model(model_key: str):
    return model_from_dict(json.loads(model_key))


@functools.lru_cache(maxsize=8)
def _reference(model_key: str, window, box: float, h: float, energies: tuple) -> tuple:
    """-Laplacian + V_0 (all couplings zero) and its resolvent fits at `energies`."""
    model = _model(model_key)
    indices = np.arange(len(model.sites))
    radius = window if window is not None else model.sites.window_radius
    zero = CouplingMap(model, indices, np.zeros(indices.size), None, radius, "zero")
    op = discretize(model, zero, box, h)
    fits = []
    for energy in energies:
        try:
            fits.append(resolvent_decay(op, float(energy)))
        except ValueError:
            pass
    return op, tuple((f.energy, f.spectrum_distance, f.rate, f.quality) for f in fits)


def _certify_cell(cfg: dict, stage: str, seed: int) -> dict:
    """One seed's rows, gamma by gamma, with one decomposition per growth ratio.
    A failure before the gamma loop is named with the seed's first gamma."""
    params = cfg["parameters"]
    eps, n_range = params["eps"], tuple(params["n_range"])
    gamma = params["gammas"][0]
    files = defaultdict(list)
    built = {}  # growth ratio -> decomposition
    try:
        model = _model(_canonical(cfg["model"]))
        cm = sample_couplings(model, seed, params.get("window"))
        diff = difference_support(model, cm, eps)
        quasi1d = stage == "certify-quasi1d"
        for gamma in params["gammas"]:
            a = params["a"] if quasi1d else growth_ratio(model.dimension - 1, gamma)[1]
            if a not in built and quasi1d:
                built[a] = build_decomposition_quasi1d(
                    cm, eps, alpha=params.get("alpha", 2.0), a=a, n_range=n_range
                )
            elif a not in built:
                built[a] = build_decomposition_sparse(cm, eps, gamma, n_range=n_range)
            td = built[a]
            cert = certify_ac(td, diff, gamma)
            head, td_records = cert.to_records()[0], td.to_records()
            for rec in (head, td_records[0]):
                rec.update({"seed": seed, "gamma": gamma})
            files["certificates.jsonl"].append(head)
            files["decompositions.jsonl"].extend(td_records)
            files["certificate_terms.csv"].extend(
                [seed, gamma, t.scale, t.member, t.role, t.clearance, t.surface, t.value]
                for t in cert.terms
            )
            files["free_annuli.csv"].extend(
                [seed, gamma, rec["scale"], int(rec["free"]), rec["inner_radius"],
                 int(rec["degenerate"])]
                for rec in td.params["free_records"]
            )
            if quasi1d:
                files["member_counts.csv"].extend(
                    [seed, row["scale"], row["sites_near"], row["distinct_caps"],
                     row["raw_bound"], row["scaled_bound"]]
                    for row in td.params["cap_counts"]
                )
    except Exception as exc:
        raise _cell_failure(exc, stage, seed, gamma) from exc
    return dict(files)


def _lemma_cell(cfg: dict, stage: str, seed: int) -> dict:
    params = cfg["parameters"]
    model = _model(_canonical(cfg["model"]))
    report = borel_cantelli_report(
        model, params["eps"], params["a"], tuple(params["n_range"]), params["trials"], seed
    )
    return {
        "an_rows.csv": [
            [seed, r.scale, r.exact, r.estimate, r.std_error, r.bound, r.bound_eta,
             r.bound_vacuous, r.degenerate, r.partial_sum]
            for r in report.rows
        ],
        "an_verdicts.jsonl": [{"record": "an_verdict", "seed": seed, "verdict": report.verdict}],
    }


def _spectral_cell(cfg: dict, stage: str, seed: int) -> dict:
    params = cfg["parameters"]
    key, box, h = _canonical(cfg["model"]), params["box"], params["h"]
    model = _model(key)
    cm = sample_couplings(model, seed, params.get("window"))
    reference, fits = _reference(
        key, params.get("window"), box, h, tuple(params.get("energies", []))
    )
    report = localization_report(model, cm, box, h, reference)
    rate_rows = [[seed, *fit] for fit in fits]
    return {
        "states.csv": [
            [seed, s.energy, s.ipr, s.decay_rate, s.decay_quality, s.center, s.in_gap]
            for s in report.states
        ],
        "resolvent_rates.csv": rate_rows,
        "localization.jsonl": [
            {
                "record": "localization",
                "seed": seed,
                "verdict": report.verdict,
                "gap_median_ipr": report.gap_median_ipr,
                "bulk_median_ipr": report.bulk_median_ipr,
                "boundary_max_amplitude": report.boundary_max_amplitude,
                "resolvent_checks": [list(c) for c in report.resolvent_checks],
            }
        ],
    }


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    cell: Callable[[dict, str, int], dict]
    params: tuple[str, ...]  # required parameters


# Every stage runs one cell per seed.
STAGES = {
    "certify-sparse": Stage(_certify_cell, ("eps", "gammas", "n_range")),
    "certify-quasi1d": Stage(_certify_cell, ("eps", "gammas", "n_range", "a")),
    "lemma-mc": Stage(_lemma_cell, ("eps", "a", "n_range", "trials")),
    "spectral-probe": Stage(_spectral_cell, ("eps", "box", "h")),
}


def _run_stage(cfg: dict, stage: str) -> dict:
    """Run the stage's cells; each data file gets the cells' rows in cell order."""
    jobs = [(STAGES[stage].cell, cfg, stage, seed) for seed in cfg["seeds"]]
    workers = min(_workers(), len(jobs))
    if workers <= 1:
        results = [_call_cell(job) for job in jobs]
    else:
        with multiprocessing.Pool(workers) as pool:
            # imap yields in cell order, so the first failing cell is reported
            results = list(pool.imap(_call_cell, jobs))
    files: dict[str, list] = {}
    for result in results:
        for name, rows in result.items():
            files.setdefault(name, []).extend(rows)
    return files


def run(config: dict | str | Path, config_path: Path | None = None) -> dict:
    """Execute the configured pipeline; returns (and writes) the manifest."""
    if not isinstance(config, dict):
        config_path = Path(config)
        config = load_config(config_path)
    outdir = Path(config["output_dir"])
    if config_path is not None and not outdir.is_absolute():
        outdir = config_path.parent / outdir
    outdir.mkdir(parents=True, exist_ok=True)
    pipeline = config["pipeline"]
    stages: list[dict] = []
    for stage in PIPELINES[pipeline]:
        t0 = time.monotonic()
        outputs = _write_outputs(outdir, _run_stage(config, stage))
        stages.append({"name": stage, "outputs": outputs, "wall_s": time.monotonic() - t0})
    manifest = {
        "record": "run_manifest",
        "tool_version": __version__,
        "pipeline": pipeline,
        "config_hash": config_hash(config),
        "output_dir": str(outdir),
    }
    records = [manifest] + [{"record": "stage", **s} for s in stages]
    _write_outputs(outdir, {"manifest.jsonl": records})
    manifest["stages"] = stages
    return manifest


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------


# target csv -> (source csv, the source columns under CSV_COLUMNS[target])
PLOT_SERIES = {
    "an_series.csv": ("an_rows.csv", ("n", "exact", "estimate", "std_error", "bound")),
    "terms_vs_n.csv": ("certificate_terms.csv",
                       ("seed", "gamma", "scale", "clearance", "surface", "term")),
    "ipr_vs_energy.csv": ("states.csv", ("seed", "energy", "ipr", "in_gap")),
    "rate_vs_gap_distance.csv": ("resolvent_rates.csv",
                                 ("energy", "gap_distance", "rate", "quality")),
}


def emit_plotdata(manifest_path: str | Path) -> list[str]:
    """Project the data files the manifest's stages wrote onto PLOT_SERIES."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest {manifest_path} does not exist")
    outdir = manifest_path.parent
    records = [json.loads(line) for line in manifest_path.read_text().splitlines()]
    stages = [rec for rec in records if rec.get("record") == "stage"]
    if not stages:
        raise ValueError("manifest lists no completed stages")
    outputs = {name for rec in stages for name in rec["outputs"]}
    files = {}
    for target, (source, columns) in PLOT_SERIES.items():
        if source not in outputs:
            continue
        lines = (outdir / source).read_text().splitlines()
        col = {name: i for i, name in enumerate(lines[0].split(","))}
        picks = [col[name] for name in columns]
        rows = (line.split(",") for line in lines[1:])
        files[target] = [[fields[i] for i in picks] for fields in rows]
    return _write_outputs(outdir, files)


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Sparse random Schrodinger operators: certify, estimate, probe."""


def _load_config_or_exit(config: str) -> dict:
    """The checked config; exits 2 on a config error or a SPARSELOC_WORKERS that is no integer."""
    try:
        _workers()
        return load_config(config)
    except ConfigError as exc:
        for line in exc.errors:
            click.echo(f"config error: {line}", err=True)
        sys.exit(2)


@main.command("run")
@click.argument("config", type=click.Path())
def cmd_run(config: str) -> None:
    """Run the pipeline described by CONFIG (JSON)."""
    cfg = _load_config_or_exit(config)
    try:
        manifest = run(cfg, config_path=Path(config))
    except Exception as exc:  # stage failure
        click.echo(f"stage failure: {exc}", err=True)
        at = exc.at if isinstance(exc, CellFailure) else _innermost_frame(exc)
        click.echo(f"  at {at}", err=True)
        sys.exit(1)
    click.echo(json.dumps({k: v for k, v in manifest.items() if k != "stages"}))
    sys.exit(0)


@main.command("validate")
@click.argument("config", type=click.Path())
def cmd_validate(config: str) -> None:
    """Validate CONFIG without running anything."""
    _load_config_or_exit(config)
    click.echo("ok")
    sys.exit(0)


@main.command("plotdata")
@click.argument("manifest", type=click.Path())
def cmd_plotdata(manifest: str) -> None:
    """Emit per-figure CSV series next to MANIFEST."""
    try:
        written = emit_plotdata(manifest)
    except (FileNotFoundError, ValueError, OSError) as exc:
        click.echo(f"plotdata error: {exc}", err=True)
        sys.exit(1)
    for name in written:
        click.echo(name)
    sys.exit(0)


@main.group("oracle")
def cmd_oracle() -> None:
    """Exact small-configuration oracles."""


@cmd_oracle.command("an")
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--dimension", type=int, default=1, show_default=True)
@click.option("--p", type=float, default=0.5, show_default=True, help="shared Bernoulli weight")
@click.option("--radius", type=float, default=None, help="lattice window radius")
@click.option("--a", "growth", type=float, required=True)
@click.option("--n", "scale", type=int, required=True)
@click.option("--eps", type=float, required=True)
def cmd_oracle_an(model_path, dimension, p, radius, growth, scale, eps) -> None:
    """Exact a_n by full enumeration of the relevant sites."""
    try:
        if model_path is not None:
            model = model_from_dict(json.loads(Path(model_path).read_text()))
        else:
            if radius is None:
                radius = scale_window(growth, scale)[2] + 1.0
            model = model_from_dict(
                {
                    "dimension": dimension,
                    "sites": {"generator": "lattice", "radius": radius},
                    "law": {"kind": "bernoulli", "p": p},
                    "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 1.0},
                }
            )
        value = brute_force_a_n(model, eps, growth, scale)
    except Exception as exc:
        click.echo(f"oracle error: {exc}", err=True)
        sys.exit(1)
    click.echo(repr(value))
    sys.exit(0)


if __name__ == "__main__":
    main()
