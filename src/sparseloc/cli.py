"""Config-driven experiment runner: sample, construct, certify, estimate, probe.

All science parameters live in a JSON config validated against a strict
schema (unknown keys are rejected so typos cannot silently change an
experiment).  Outputs are CSV and JSON-lines files with fixed column
orders; reruns of the same config and seeds are byte-identical, and the
only environment influence is SPARSELOC_WORKERS (parallel cell count),
which must not change any output byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
import traceback
from pathlib import Path

import click
import jsonschema

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
    sample_couplings,
)
from .spectral import (
    discretize,
    localization_report,
    resolvent_decay,
)
from .stochastic import borel_cantelli_report, brute_force_a_n

import numpy as np

PIPELINES = ("certify-sparse", "certify-quasi1d", "lemma-mc", "spectral-probe", "full-report")

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


class ConfigError(Exception):
    """Invalid configuration; `errors` lists field-level diagnostics."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _json_path(err: jsonschema.ValidationError) -> str:
    return "$" + "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
    )


def load_config(path: str | Path) -> dict:
    """Parse and validate a config file; raises ConfigError with diagnostics."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    errors = [
        f"{_json_path(e)}: {e.message}"
        for e in jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg)
    ]
    if errors:
        raise ConfigError(sorted(errors))
    errors = _semantic_errors(cfg, path.parent)
    if errors:
        raise ConfigError(errors)
    if "model_file" in cfg:
        model_path = (path.parent / cfg["model_file"]).resolve()
        cfg = dict(cfg)
        cfg["model"] = json.loads(model_path.read_text())
        model_errors = [
            f"model_file {_json_path(e)}: {e.message}"
            for e in jsonschema.Draft202012Validator(MODEL_SCHEMA).iter_errors(cfg["model"])
        ]
        if model_errors:
            raise ConfigError(sorted(model_errors))
    return cfg


def _semantic_errors(cfg: dict, base_dir: Path) -> list[str]:
    errors: list[str] = []
    if ("model" in cfg) == ("model_file" in cfg):
        errors.append("$.model: exactly one of model / model_file is required")
        return errors
    if "model_file" in cfg and not (base_dir / cfg["model_file"]).exists():
        errors.append(f"$.model_file: {cfg['model_file']} does not exist")
        return errors
    params = cfg.get("parameters", {})
    pipeline = cfg["pipeline"]
    need = {
        "certify-sparse": ["eps", "gammas", "n_range"],
        "certify-quasi1d": ["eps", "gammas", "n_range", "a"],
        "lemma-mc": ["eps", "a", "n_range", "trials"],
        "spectral-probe": ["eps", "box", "h"],
        "full-report": ["eps", "gammas", "n_range", "a", "trials", "box", "h"],
    }[pipeline]
    for key in need:
        if key not in params:
            errors.append(f"$.parameters.{key}: required for pipeline {pipeline}")
    if "n_range" in params and params["n_range"][0] > params["n_range"][1]:
        errors.append("$.parameters.n_range: lower bound exceeds upper bound")
    if errors or "model" not in cfg:
        return errors

    model_cfg = cfg["model"]
    d = model_cfg.get("dimension", 1)
    # lemma-mc reads the whole site window; certify and spectral cells sample `window`
    sites = model_cfg["sites"]
    radius_key = "window_radius" if sites["generator"] == "explicit" else "radius"
    site_radius = sites.get(radius_key, math.inf)
    window = params.get("window", site_radius)
    if window > site_radius:
        return [f"$.parameters.window: window radius {window:.2f} > site radius {site_radius:.2f}"]
    scale_checks = []  # (radius the cells read, growth ratio, what sets the ratio)
    if pipeline in ("certify-sparse", "full-report"):
        for gamma in params["gammas"]:
            scale_checks.append((window, growth_ratio(d - 1, gamma)[1], f"gamma={gamma}"))
    if pipeline == "certify-quasi1d":
        scale_checks.append((window, params["a"], f"a={params['a']}"))
    if pipeline in ("lemma-mc", "full-report"):
        scale_checks.append((site_radius, params["a"], f"a={params['a']}"))
    for radius, a, label in scale_checks:
        try:
            require_scale_window(radius, a, params["n_range"][1])
        except WindowTooSmallError as exc:
            errors.append(f"$.parameters.n_range: at {label}: {exc}")
    if pipeline in ("spectral-probe", "full-report"):
        needed = params["box"] * math.sqrt(d) + model_cfg["potential"]["radius"]
        if needed > window:
            errors.append(
                f"$.parameters.box: box corner plus support needs radius {needed:.2f} "
                f"> window radius {window:.2f}"
            )
    return errors


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(_fmt(x) for x in row) + "\n")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fp:
        for rec in records:
            fp.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_outputs(outdir: Path, files: dict) -> list[str]:
    """Write each `{name: (header, rows) | records}` entry; returns the names."""
    for name, data in files.items():
        if name.endswith(".csv"):
            _write_csv(outdir / name, *data)
        else:
            _write_jsonl(outdir / name, data)
    return list(files)


def _workers() -> int:
    return max(1, int(os.environ.get("SPARSELOC_WORKERS", "1")))


def _innermost_frame(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{frame.filename}:{frame.lineno} in {frame.name}"


class CellFailure(Exception):
    """A pipeline cell raised; the message names its stage, seed and gamma.

    `at` names the cell's failing frame as text: worker tracebacks are not pickled.
    """


def _call_cell(job: tuple) -> dict:
    fn, cfg, stage, seed, gamma = job
    try:
        return fn(cfg, stage, seed, gamma)
    except Exception as exc:
        where = f"{stage} seed={seed}" if gamma is None else f"{stage} seed={seed} gamma={gamma}"
        failure = CellFailure(f"{where}: {type(exc).__name__}: {exc}")
        failure.at = _innermost_frame(exc)
        raise failure from exc


def _run_cells(fn, cfg: dict, stage: str, cells: list[tuple]) -> list:
    """fn(cfg, stage, seed, gamma) for each (seed, gamma) cell, in cell order."""
    jobs = [(fn, cfg, stage, seed, gamma) for seed, gamma in cells]
    if _workers() <= 1 or len(jobs) <= 1:
        return [_call_cell(job) for job in jobs]
    with multiprocessing.Pool(_workers()) as pool:
        # imap yields in cell order, so the first failing cell is reported
        return list(pool.imap(_call_cell, jobs))


# ---------------------------------------------------------------------------
# Pipeline cells (module-level for multiprocessing)
# ---------------------------------------------------------------------------


def _zero_couplings(model, window):
    indices = np.arange(len(model.sites))
    radius = window if window is not None else model.sites.window_radius
    return CouplingMap(model, indices, np.zeros(len(indices)), None, radius, "zero")


def _certify_cell(cfg: dict, stage: str, seed: int, gamma: float) -> dict:
    params = cfg["parameters"]
    model = model_from_dict(cfg["model"])
    cm = sample_couplings(model, seed, params.get("window"))
    eps, n_range = params["eps"], tuple(params["n_range"])
    if stage == "certify-quasi1d":
        td = build_decomposition_quasi1d(
            cm, eps, gamma, alpha=params.get("alpha", 2.0), a=params["a"], n_range=n_range
        )
    else:
        td = build_decomposition_sparse(cm, eps, gamma, n_range=n_range)
    diff = difference_support(model, cm, eps)
    cert = certify_ac(td, diff, gamma)
    head = cert.to_records()[0]
    head.update({"seed": seed, "gamma": gamma})
    td_records = td.to_records()
    td_records[0].update({"seed": seed, "gamma": gamma})
    return {
        "seed": seed,
        "gamma": gamma,
        "summary": head,
        "decomposition": td_records,
        "terms": [
            [seed, gamma, t.scale, t.member, t.role, t.clearance, t.surface, t.value]
            for t in cert.terms
        ],
        "free": [
            [
                seed,
                gamma,
                rec["scale"],
                int(rec["free"]),
                rec["inner_radius"],
                int(rec["degenerate"]),
            ]
            for rec in td.params["free_records"]
        ],
        "cap_counts": [
            [seed, row["scale"], row["sites_near"], row["distinct_caps"],
             row["raw_bound"], row["scaled_bound"]]
            for row in td.params.get("cap_counts", [])
        ],
    }


def _lemma_cell(cfg: dict, stage: str, seed: int, gamma: None) -> dict:
    params = cfg["parameters"]
    model = model_from_dict(cfg["model"])
    report = borel_cantelli_report(
        model, params["eps"], params["a"], tuple(params["n_range"]), params["trials"], seed
    )
    return {
        "seed": seed,
        "verdict": report.verdict,
        "rows": [
            [
                seed,
                r.scale,
                r.exact,
                r.estimate,
                r.std_error,
                r.bound,
                r.bound_eta,
                r.bound_vacuous,
                r.degenerate,
                r.partial_sum,
            ]
            for r in report.rows
        ],
    }


def _spectral_cell(cfg: dict, stage: str, seed: int, gamma: None) -> dict:
    params = cfg["parameters"]
    model = model_from_dict(cfg["model"])
    cm = sample_couplings(model, seed, params.get("window"))
    box, h = params["box"], params["h"]
    reference = discretize(model, _zero_couplings(model, params.get("window")), box, h)
    report = localization_report(model, cm, box, h, reference)
    rate_rows = []
    for energy in params.get("energies", []):
        try:
            fit = resolvent_decay(reference, float(energy))
        except ValueError:
            continue
        rate_rows.append(
            [seed, fit.energy, fit.spectrum_distance, fit.rate, fit.quality]
        )
    return {
        "seed": seed,
        "verdict": report.verdict,
        "gap_median_ipr": report.gap_median_ipr,
        "bulk_median_ipr": report.bulk_median_ipr,
        "boundary_max_amplitude": report.boundary_max_amplitude,
        "states": [
            [seed, s.energy, s.ipr, s.decay_rate, s.decay_quality, s.center, s.in_gap]
            for s in report.states
        ],
        "rates": rate_rows,
        "checks": [list(c) for c in report.resolvent_checks],
    }


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _stage_certify(cfg: dict, pipeline: str) -> dict:
    cells = [(seed, gamma) for seed in cfg["seeds"] for gamma in cfg["parameters"]["gammas"]]
    results = _run_cells(_certify_cell, cfg, pipeline, cells)
    files = {
        "certificates.jsonl": [r["summary"] for r in results],
        "decompositions.jsonl": [rec for r in results for rec in r["decomposition"]],
        "certificate_terms.csv": (
            ["seed", "gamma", "scale", "member", "role", "clearance", "surface", "term"],
            [row for r in results for row in r["terms"]],
        ),
        "free_annuli.csv": (
            ["seed", "gamma", "scale", "found", "inner_radius", "degenerate"],
            [row for r in results for row in r["free"]],
        ),
    }
    if pipeline == "certify-quasi1d":
        files["member_counts.csv"] = (
            ["seed", "scale", "sites_near", "distinct_caps", "raw_bound", "scaled_bound"],
            [row for r in results for row in r["cap_counts"]],
        )
    return files


def _stage_lemma(cfg: dict) -> dict:
    results = _run_cells(_lemma_cell, cfg, "lemma-mc", [(seed, None) for seed in cfg["seeds"]])
    return {
        "an_rows.csv": (
            ["seed", "n", "exact", "estimate", "std_error", "bound", "eta",
             "vacuous", "degenerate", "partial_sum"],
            [row for r in results for row in r["rows"]],
        ),
        "an_verdicts.jsonl": [
            {"record": "an_verdict", "seed": r["seed"], "verdict": r["verdict"]} for r in results
        ],
    }


def _stage_spectral(cfg: dict) -> dict:
    cells = [(seed, None) for seed in cfg["seeds"]]
    results = _run_cells(_spectral_cell, cfg, "spectral-probe", cells)
    return {
        "states.csv": (
            ["seed", "energy", "ipr", "decay_rate", "decay_quality", "center", "in_gap"],
            [row for r in results for row in r["states"]],
        ),
        "resolvent_rates.csv": (
            ["seed", "energy", "gap_distance", "rate", "quality"],
            [row for r in results for row in r["rates"]],
        ),
        "localization.jsonl": [
            {
                "record": "localization",
                "seed": r["seed"],
                "verdict": r["verdict"],
                "gap_median_ipr": r["gap_median_ipr"],
                "bulk_median_ipr": r["bulk_median_ipr"],
                "boundary_max_amplitude": r["boundary_max_amplitude"],
                "resolvent_checks": r["checks"],
            }
            for r in results
        ],
    }


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

    def run_stage(name, fn, *args):
        t0 = time.monotonic()
        outputs = _write_outputs(outdir, fn(config, *args))
        stages.append({"name": name, "outputs": outputs, "wall_s": time.monotonic() - t0})

    if pipeline in ("certify-sparse", "certify-quasi1d"):
        run_stage(pipeline, _stage_certify, pipeline)
    elif pipeline == "lemma-mc":
        run_stage(pipeline, _stage_lemma)
    elif pipeline == "spectral-probe":
        run_stage(pipeline, _stage_spectral)
    elif pipeline == "full-report":
        run_stage("certify-sparse", _stage_certify, "certify-sparse")
        run_stage("lemma-mc", _stage_lemma)
        run_stage("spectral-probe", _stage_spectral)
    manifest = {
        "record": "run_manifest",
        "tool_version": __version__,
        "pipeline": pipeline,
        "config_hash": config_hash(config),
        "output_dir": str(outdir),
    }
    records = [manifest] + [{"record": "stage", **s} for s in stages]
    _write_jsonl(outdir / "manifest.jsonl", records)
    manifest["stages"] = stages
    return manifest


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------


# (stages that write the source, source csv, target csv, [(column, source column)])
PLOT_SERIES = (
    (("lemma-mc",), "an_rows.csv", "an_series.csv",
     [("n", "n"), ("exact", "exact"), ("estimate", "estimate"), ("stderr", "std_error"),
      ("bound", "bound")]),
    (("certify-sparse", "certify-quasi1d"), "certificate_terms.csv", "terms_vs_n.csv",
     [("seed", "seed"), ("gamma", "gamma"), ("n", "scale"), ("delta", "clearance"),
      ("sigma", "surface"), ("term", "term")]),
    (("spectral-probe",), "states.csv", "ipr_vs_energy.csv",
     [("seed", "seed"), ("energy", "energy"), ("ipr", "ipr"), ("in_gap", "in_gap")]),
    (("spectral-probe",), "resolvent_rates.csv", "rate_vs_gap_distance.csv",
     [("energy", "energy"), ("gap_distance", "gap_distance"), ("rate", "rate"),
      ("quality", "quality")]),
)


def emit_plotdata(manifest_path: str | Path) -> list[str]:
    """Project stage outputs onto the per-figure CSV series of PLOT_SERIES."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest {manifest_path} does not exist")
    outdir = manifest_path.parent
    records = [json.loads(line) for line in manifest_path.read_text().splitlines()]
    stage_names = {rec["name"] for rec in records if rec.get("record") == "stage"}
    if not stage_names:
        raise ValueError("manifest lists no completed stages")
    written: list[str] = []
    for stages, source, target, columns in PLOT_SERIES:
        if stage_names.isdisjoint(stages):
            continue
        lines = (outdir / source).read_text().splitlines()
        col = {name: i for i, name in enumerate(lines[0].split(","))}
        picks = [col[src] for _, src in columns]
        rows = [[fields[i] for i in picks] for fields in (line.split(",") for line in lines[1:])]
        _write_csv(outdir / target, [out for out, _ in columns], rows)
        written.append(target)
    return written


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Sparse random Schrodinger operators: certify, estimate, probe."""


@main.command("run")
@click.argument("config", type=click.Path())
def cmd_run(config: str) -> None:
    """Run the pipeline described by CONFIG (JSON)."""
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        for line in exc.errors:
            click.echo(f"config error: {line}", err=True)
        sys.exit(2)
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
    try:
        load_config(config)
    except ConfigError as exc:
        for line in exc.errors:
            click.echo(f"config error: {line}", err=True)
        sys.exit(2)
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
