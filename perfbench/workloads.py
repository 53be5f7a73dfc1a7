"""The benchmark's workloads: whole CLI pipeline configs built from a base seed.

Each workload is one sparseloc config.  The program receives only the
generated config; the seed list is the one thing the base seed changes.
Sizes are cut down from the full ROADMAP configs so that several fresh
pipeline runs fit in one measured window, while keeping the layer that
dominates each workload (see its `why` in BENCHMARK.json).
"""

from __future__ import annotations

import copy

import metrics

SEEDS_PER_RUN = 4
DEFAULT_BASE_SEED = 0


def _d1_model(tau: float, radius: float) -> dict:
    return {
        "dimension": 1,
        "sites": {"generator": "lattice", "radius": radius},
        "law": {"kind": "radial_bernoulli", "tau": tau},
        "potential": {"kind": "indicator", "amplitude": -4.0, "radius": 0.5},
        "background": {"kind": "periodic_step", "values": [0.0, 3.0]},
    }


# The certify workloads use sparse laws (large tau): free annuli then turn
# up at nearly every scale whatever the seed, so the sigma work, and with
# it the run time, hardly depends on the base seed.  At the ROADMAP's
# tau=0.5 (d=1) and tau=3 (d=2) whether the top scales are free is a coin
# toss per seed, which moved run time by 15-25 % between base seeds.
_CONFIGS = {
    "full-report-d1": {
        "pipeline": "full-report",
        "model": _d1_model(tau=2.0, radius=40.0),
        "parameters": {
            "eps": 0.5,
            "gammas": [0.5, 1.0, 2.0],
            "n_range": [1, 4],
            "a": 2.0,
            "trials": 1000,
            "box": 12.0,
            "h": 0.05,
        },
    },
    "certify-sparse-d2": {
        "pipeline": "certify-sparse",
        "model": {
            "dimension": 2,
            "sites": {"generator": "lattice", "radius": 50.0},
            "law": {"kind": "radial_bernoulli", "tau": 6.0},
            "potential": {"kind": "indicator", "amplitude": -1.0, "radius": 1.0},
        },
        # Scales stop below the window's limit (8) so that sampling the
        # 7.8k sites and sigma on the spheres take similar time.
        "parameters": {"eps": 0.1, "gammas": [0.5, 1.0, 2.0], "n_range": [1, 6]},
    },
    "lemma-mc-d1": {
        "pipeline": "lemma-mc",
        # Monte Carlo over many trials averages out the seed, so the denser
        # tau=0.5 law, with non-trivial a_n, stays steady here.  At a=2 a
        # site radius of 64 admits scales up to 5 (scale 7 needs 256).
        "model": _d1_model(tau=0.5, radius=64.0),
        "parameters": {"eps": 0.5, "a": 2.0, "n_range": [1, 5], "trials": 3000},
    },
    "certify-quasi1d-tube": {
        "pipeline": "certify-quasi1d",
        "model": {
            "dimension": 2,
            "sites": {"generator": "tube", "radius": 1100.0},
            "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
        },
        "parameters": {
            "eps": 0.95,
            "gammas": [0.5, 1.0, 2.0],
            "n_range": [2, 9],
            "a": 2.0,
            "alpha": 2.0,
        },
    },
}

WHY = {w["name"]: w["why"] for w in metrics.SPEC["workloads"]}
if set(WHY) != set(_CONFIGS):
    raise ValueError("the workloads of BENCHMARK.json and workloads._CONFIGS differ")

NAMES = tuple(_CONFIGS)


def seeds_for(base_seed: int) -> list[int]:
    """Seed list of one run: base seed b gives 4b+1 .. 4b+4 (b=0 gives 1-4)."""
    if base_seed < 0:
        raise ValueError("base seed must be >= 0")
    return [SEEDS_PER_RUN * base_seed + k for k in range(1, SEEDS_PER_RUN + 1)]


def config_for(name: str, base_seed: int) -> dict:
    """The sparseloc config of workload `name` for `base_seed`, writing to ./out."""
    cfg = copy.deepcopy(_CONFIGS[name])
    cfg["seeds"] = seeds_for(base_seed)
    cfg["output_dir"] = "out"
    return cfg
