"""Meaning of every metric the benchmark reports.

Names, units, directions and bounds are read from BENCHMARK.json at the
repo root; this module adds what that file has no key for: which
end-to-end metric each per-layer metric should move, and on which
workload, so that a later change can cite it by name.
The sparseloc module `_rng` reports under `rng.` because a metric name
must start with a letter or a digit.  `.s` is self time in seconds;
every other per-layer stat is an exact count or a ratio of counts.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"])

FR, CS, LM, QT = "full-report-d1", "certify-sparse-d2", "lemma-mc-d1", "certify-quasi1d-tube"

# per-layer metric -> what it should move
MOVES = {
    "cli.load_config.s": "setup_s on every workload",
    "cli.stage.certify.s": f"wall_s; the certify share on {FR}",
    "cli.stage.lemma.s": f"wall_s; the lemma share on {FR}",
    "cli.stage.spectral.s": f"wall_s; the spectral share on {FR}",
    "cli.self.s": "wall_s: cell dispatch, row building, CSV/JSONL writing",
    "cli.output_bytes": f"wall_s; states.csv dominates on {FR}",
    "cli.warnings": "none; baseline for surfacing swallowed warnings",
    "cli.digest_mismatches": "none; data files differing from the golden",
    "rng.site_uniforms.calls": f"wall_s, cpu_s on {CS}; about 0 on {LM}",
    "rng.site_uniforms.s": f"wall_s, cpu_s on {CS}; about 0 on {LM}",
    "rng.site_uniforms.draws": f"wall_s, cpu_s on {CS}; about 0 on {LM}",
    "rng.site_uniform_batches.s": f"wall_s on {LM}; peak_rss_mb is the guard",
    "rng.site_uniform_batches.draws": f"wall_s on {LM}",
    "models.model_from_dict.calls": f"wall_s on {CS}",
    "models.model_from_dict.s": f"wall_s on {CS}",
    "models.sample_couplings.calls": f"wall_s on {CS}",
    "models.sample_couplings.s": f"wall_s on {CS}",
    "models.sample_couplings.sites": f"wall_s on {CS}",
    "models.evaluate_potential.s": f"wall_s on {FR}",
    "models.evaluate_potential.points": f"wall_s on {FR}",
    "certify.build_decomposition_sparse.s": f"wall_s on {CS}",
    "certify.build_decomposition_quasi1d.s": f"wall_s on {QT}",
    "certify.find_free_subannulus.calls": f"wall_s on {QT}, {CS}",
    "certify.free_found_ratio": f"wall_s on {QT}, {CS}",
    "certify.difference_support.s": f"wall_s on {QT}, {CS}",
    "certify.certify_ac.s": f"wall_s on {QT}, {CS}",
    "certify.terms": f"wall_s on {QT}, {CS}",
    "geometry.closed_form_sigma.calls": f"wall_s on {FR}, {CS}; about 0 on {QT}, {LM}",
    "geometry.closed_form_sigma.s": f"wall_s on {FR}, {CS}; about 0 on {QT}, {LM}",
    "geometry.sanity_bound.calls": f"wall_s on {QT}",
    "geometry.sanity_bound.s": f"wall_s on {QT}",
    "geometry.distance_between.calls": f"wall_s on {QT}; negligible elsewhere",
    "geometry.distance_between.s": f"wall_s on {QT}; negligible elsewhere",
    "geometry.distance_between.pairs": f"wall_s on {QT}; negligible elsewhere",
    "stochastic.borel_cantelli_report.s": f"wall_s on {LM}; small share of {FR}",
    "stochastic.estimate_a_n.calls": f"wall_s on {LM}; small share of {FR}",
    "stochastic.estimate_a_n.s": f"wall_s on {LM}; small share of {FR}",
    "stochastic.trials": f"wall_s on {LM}; small share of {FR}",
    "stochastic.brute_force_a_n.calls": f"wall_s on {LM}; small share of {FR}",
    "stochastic.brute_force_a_n.s": f"wall_s on {LM}; small share of {FR}",
    "stochastic.brute_force_a_n.budget_exceeded": f"wall_s on {LM}",
    "stochastic.exact_ratio": f"wall_s on {LM}",
    "spectral.discretize.calls": f"wall_s on {FR}",
    "spectral.discretize.s": f"wall_s on {FR}",
    "spectral.unknowns": f"wall_s on {FR}",
    "spectral.eigenpairs.calls": f"wall_s on {FR}",
    "spectral.eigenpairs.s": f"wall_s on {FR}",
    "spectral.eigenpairs.dense": f"wall_s on {FR}",
    "spectral.all_eigenvalues.calls": f"wall_s on {FR}",
    "spectral.all_eigenvalues.s": f"wall_s on {FR}",
    "spectral.localization_report.s": f"wall_s on {FR}",
    "spectral.decay_rate_fit.calls": f"wall_s on {FR}",
    "spectral.decay_rate_fit.s": f"wall_s on {FR}",
    "spectral.ipr.calls": f"wall_s on {FR}",
    "spectral.resolvent_decay.calls": f"wall_s on {FR}",
    "spectral.resolvent_decay.s": f"wall_s on {FR}",
    "spectral.resolvent_decay.refused": f"wall_s on {FR}",
    "trace.overhead_s": "none; traced wall_s minus the untraced median",
}

# name, unit, better, what it should move
PER_LAYER = tuple((m["name"], m["unit"], m["better"], MOVES.get(m["name"])) for m in SPEC["per_layer"])
if set(MOVES) != {m[0] for m in PER_LAYER}:
    raise ValueError("metrics.MOVES and the per_layer list of BENCHMARK.json name different metrics")

# Per-layer metrics renamed from the span totals that tracing.analyse gives.
ALIASES = {
    "certify.terms": "certify.certify_ac.terms",
    "stochastic.trials": "stochastic.estimate_a_n.trials",
    "spectral.unknowns": "spectral.discretize.unknowns",
}

# Stage names in manifest.jsonl -> cli.stage.<short>.s
STAGES = {
    "certify-sparse": "certify",
    "certify-quasi1d": "certify",
    "lemma-mc": "lemma",
    "spectral-probe": "spectral",
}


def is_count(name: str) -> bool:
    """Counts must repeat exactly across runs of the same code and inputs."""
    return {m[0]: m[1] for m in PER_LAYER}[name] != "s"


def layer_values(totals: dict) -> dict[str, float]:
    """Per-layer metrics derivable from one run's span totals."""
    values = {}
    for name, _unit, _better, _moves in PER_LAYER:
        if name.startswith(("cli.stage.", "cli.output", "cli.warn", "cli.digest", "trace.")):
            continue
        if name == "cli.self.s":
            values[name] = totals.get("cli.run.s", 0.0)
        elif name == "certify.free_found_ratio":
            calls = totals.get("certify.find_free_subannulus.calls", 0)
            values[name] = totals.get("certify.find_free_subannulus.free", 0) / calls if calls else 0.0
        elif name == "stochastic.exact_ratio":
            rows = totals.get("stochastic.borel_cantelli_report.rows", 0)
            values[name] = totals.get("stochastic.borel_cantelli_report.exact_rows", 0) / rows if rows else 0.0
        else:
            values[name] = totals.get(ALIASES.get(name, name), 0.0 if name.endswith(".s") else 0)
    return values
