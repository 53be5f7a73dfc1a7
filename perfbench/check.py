"""Correctness of one pipeline run: verdicts and data-file digests.

The verdicts come from certificates.jsonl, an_verdicts.jsonl and
localization.jsonl.  Every data file is digested with sha256;
manifest.jsonl is left out because it carries wall-clock times.  Golden
verdicts and digests, recorded from the seed code by record_golden.py,
live in golden.json keyed by workload and base seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# file -> (key fields, allowed verdicts)
VERDICT_FILES = {
    "certificates.jsonl": (("seed", "gamma"), {"certified", "not-certified", "inconclusive"}),
    "an_verdicts.jsonl": (("seed",), {"summable", "not-summable", "inconclusive"}),
    "localization.jsonl": (("seed",), {"gap-states-localized", "no-gap-states", "not-localized"}),
}


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every data file in a run's output directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file() and p.name != "manifest.jsonl"
    }


def output_bytes(outdir: Path) -> int:
    return sum(
        p.stat().st_size for p in outdir.iterdir() if p.is_file() and p.name != "manifest.jsonl"
    )


def verdicts(outdir: Path) -> dict[str, list]:
    """Verdict records per verdict file present: [*key fields, verdict] rows."""
    found = {}
    for name, (keys, allowed) in VERDICT_FILES.items():
        path = outdir / name
        if not path.exists():
            continue
        rows = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["verdict"] not in allowed:
                raise ValueError(f"{name}: unknown verdict {rec['verdict']!r}")
            rows.append([rec[k] for k in keys] + [rec["verdict"]])
        found[name] = rows
    return found


def expected_verdict_counts(cfg: dict) -> dict[str, int]:
    """How many verdict records each verdict file of this config must hold."""
    seeds = len(cfg["seeds"])
    gammas = len(cfg["parameters"].get("gammas", []))
    stages = {
        "certify-sparse": ["certificates.jsonl"],
        "certify-quasi1d": ["certificates.jsonl"],
        "lemma-mc": ["an_verdicts.jsonl"],
        "spectral-probe": ["localization.jsonl"],
        "full-report": ["certificates.jsonl", "an_verdicts.jsonl", "localization.jsonl"],
    }[cfg["pipeline"]]
    return {
        name: seeds * gammas if name == "certificates.jsonl" else seeds for name in stages
    }


def verdict_problems(cfg: dict, found: dict, expected: dict | None) -> list[str]:
    """Why a run's verdicts are wrong; empty when they are right.

    `expected` is the golden (or reference) verdict map; without one only
    the record counts are checked.
    """
    problems = []
    counts = expected_verdict_counts(cfg)
    if set(found) != set(counts):
        problems.append(f"verdict files {sorted(found)} != expected {sorted(counts)}")
    for name, n in counts.items():
        if name in found and len(found[name]) != n:
            problems.append(f"{name}: {len(found[name])} verdicts, expected {n}")
    if expected is not None:
        for name in sorted(set(found) | set(expected)):
            if found.get(name) != expected.get(name):
                problems.append(f"{name}: verdicts differ from the reference")
    return problems


def digest_mismatches(found: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Data files whose bytes differ from the reference, are missing or extra."""
    return sorted(
        name for name in set(found) | set(expected) if found.get(name) != expected.get(name)
    )


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def golden_for(golden: dict, workload: str, base_seed: int, cfg: dict) -> dict | None:
    """The golden entry for this run, or None when that seed was not recorded.

    Raises when the recorded config differs from `cfg`: the workload was
    changed without recording its goldens again.
    """
    entry = golden.get("workloads", {}).get(workload, {}).get(str(base_seed))
    if entry is None:
        return None
    if entry["config_digest"] != config_digest(cfg):
        raise ValueError(
            f"golden for {workload} seed {base_seed} was recorded from another config; "
            "run record_golden.py on the seed code"
        )
    return entry
