"""Golden digests of the CLI's data files for four small pipeline runs.

The bytes of every data file the CLI and `plotdata` write are pinned by
sha256, so a refactor of the output path shows that it keeps them.  The
eigensolver-derived files can differ in the last digits between LAPACK
builds; for those only the CSV header and the localization verdicts are
pinned.  `manifest.jsonl` holds wall times and paths and is not pinned.
"""

import hashlib
import json
import os

import pytest

from sparseloc import cli

FULL_REPORT = {
    "pipeline": "full-report",
    "model": {
        "dimension": 1,
        "sites": {"generator": "lattice", "radius": 20.0},
        "law": {"kind": "radial_bernoulli", "tau": 1.0},
        "potential": {"kind": "indicator", "amplitude": -4.0, "radius": 0.5},
        "background": {"kind": "periodic_step", "values": [0.0, 3.0]},
    },
    "seeds": [1, 2],
    "parameters": {
        "eps": 0.5,
        "gammas": [0.5, 2.0],
        "n_range": [1, 3],
        "a": 2.0,
        "trials": 200,
        "box": 6.0,
        "h": 0.1,
        "energies": [-1.0, 1.5],
    },
}

CERTIFY_QUASI1D = {
    "pipeline": "certify-quasi1d",
    "model": {
        "dimension": 2,
        "sites": {"generator": "tube", "radius": 70.0},
        "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
    },
    "seeds": [1, 2],
    "parameters": {
        "eps": 0.95,
        "gammas": [1.0],
        "n_range": [2, 5],
        "a": 2.0,
        "alpha": 2.0,
    },
}

# the paper's random tube in d = 3: caps are measured against punctured
# spheres through their point lower bound, which no d=2 run reaches
CERTIFY_QUASI1D_D3 = {
    "pipeline": "certify-quasi1d",
    "model": {
        "dimension": 3,
        "sites": {"generator": "tube", "radius": 300.0, "offsets": [[0.0, 0.0], [0.5, 0.5]]},
        "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
    },
    "seeds": [1, 2],
    "parameters": {
        "eps": 0.95,
        "gammas": [0.5, 2.0],
        "n_range": [2, 6],
        "a": 2.0,
        "alpha": 2.0,
    },
}

# a d=2 sparse run whose every scale is degenerate (a^n (a - 1) < n): the scan
# tries r = a^n alone and finds it free at 19 of 20 scales; in 3 of the 4
# certificates the scale-1 sphere has clearance 0, so they read not-certified
CERTIFY_SPARSE_D2 = {
    "pipeline": "certify-sparse",
    "model": {
        "dimension": 2,
        "sites": {"generator": "lattice", "radius": 30.0},
        "law": {"kind": "radial_bernoulli", "tau": 6.0},
        "potential": {"kind": "indicator", "amplitude": -1.0, "radius": 1.0},
    },
    "seeds": [1, 2],
    "parameters": {"eps": 0.1, "gammas": [0.5, 2.0], "n_range": [1, 5]},
}

FULL_REPORT_SHA256 = {
    "an_rows.csv": "6dff3a84b6902a92d505dbdba7fcd4dfbf071c8bde62597f37475eaa8ed2affe",
    "an_series.csv": "0db4509ad2b148e8c553d66a889f91d181c2000d02740167ddffe4bd0e8c2b8f",
    "an_verdicts.jsonl": "12a8872c41f103cd1fecd68c4501f2551c13fab2a65f43e847a761df633b5bf2",
    "certificate_terms.csv": "c8c25e03294c1e5be80e4b39e02253c978edad68a2349d1a482322ae482b890e",
    "certificates.jsonl": "f1b3a2bbc3b23f43ad8b4a62829cb733afa90afb62d4c812fb408b8f0b9310ca",
    "decompositions.jsonl": "265df84b7b84368a31a26799706046f2e614ecc3c7cdeacbcf94c7b018a9b1f7",
    "free_annuli.csv": "6ef6efcdd8c0b464a0faeefd98ee2fa61bae9881cfce563baf2a92fd380dcf6b",
    "terms_vs_n.csv": "467b7d9afa926c53136460e3969613959978c7a25b3dd383f2db020d5e2c8c35",
}

CERTIFY_QUASI1D_SHA256 = {
    "certificate_terms.csv": "a9e94b9434bfc46c9f1117e1ea4d40cd9cbb31b11f7b55a3c637dc563eb8f9c2",
    "certificates.jsonl": "ef81d27a15db5d726c3a5a1059524fd1c9e6da7350e70791a045e47c1a357103",
    "decompositions.jsonl": "de78a7b78cb57c2202b4e29784fe646ec7c9852109082f5d4ca12afaa9f46190",
    "free_annuli.csv": "27c440a8bfd7545f5d346afb5e76fded184b7a308ba3a288e5a58b69d7ce4b12",
    "member_counts.csv": "68d78eddeab6cf1ba65c5db263debad2321d10399139246285cbe5e008a47356",
    "terms_vs_n.csv": "e94ac4b5c400a3b985c93622880d316eb7c54716393e1830d22bb2ee44702d46",
}

CERTIFY_QUASI1D_D3_SHA256 = {
    "certificate_terms.csv": "368834123a8d4505fba37b7090a06be76e80f764192094631f09706bd5d69f48",
    "certificates.jsonl": "fdae60bc07ef6e21baf6a996abda293b462c7ee940518e01c3610e46d7df19aa",
    "decompositions.jsonl": "785228f475316b9738d8d470e2cf2e06e3cc190bbacd0a5b3ac10830b045973d",
    "free_annuli.csv": "bbf7abb0c127049de775983136fa98b1d6eac122dd5d84d1f69db0d956327c8e",
    "member_counts.csv": "35a605c5de1f1ab4e8821694a1ca7189ca9de4063e89bb173978db8d21c864c1",
    "terms_vs_n.csv": "529a2651a8157df188fc14a55f75238e8f13636585ea47034131dbbbaea1b9d7",
}

CERTIFY_SPARSE_D2_SHA256 = {
    "certificate_terms.csv": "a1df76493da550ea8fba9715f119f6637d8ff7b8c38dddee7df4780de302033f",
    "certificates.jsonl": "6047b62f2e66a9887b265abbefd72b8b38442a6756feebdd01ab9ec3674414fa",
    "decompositions.jsonl": "56bcef8588f7e0fa371f8975b0a37df37658f0a1ce9e48a204b29e35c7db45ce",
    "free_annuli.csv": "4e01647f89e54167e8e6ab5687a0e1f2f8c8a7f37459e37747b08cbf88285c75",
    "terms_vs_n.csv": "9a764fe9c329afc188c749762131289aab003917592c10fee05fb6ebf988a404",
}

EIGEN_HEADERS = {
    "states.csv": "seed,energy,ipr,decay_rate,decay_quality,center,in_gap",
    "resolvent_rates.csv": "seed,energy,gap_distance,rate,quality",
    "ipr_vs_energy.csv": "seed,energy,ipr,in_gap",
    "rate_vs_gap_distance.csv": "energy,gap_distance,rate,quality",
}

FULL_REPORT_VERDICTS = ["not-localized", "not-localized"]


def _run(tmp_path, cfg):
    out = tmp_path / "out"
    cli.run(dict(cfg, output_dir=str(out)))
    cli.emit_plotdata(out / "manifest.jsonl")
    return out


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture
def workers(monkeypatch):
    """One worker unless SPARSELOC_WORKERS is set, so the digests can be
    checked under a pool too."""
    if "SPARSELOC_WORKERS" not in os.environ:
        monkeypatch.setenv("SPARSELOC_WORKERS", "1")


def test_full_report_bytes(tmp_path, workers):
    out = _run(tmp_path, FULL_REPORT)
    written = {p.name for p in out.iterdir()}
    assert written == {"manifest.jsonl", "localization.jsonl"} | set(FULL_REPORT_SHA256) | set(
        EIGEN_HEADERS
    )
    assert _digests(out, FULL_REPORT_SHA256) == FULL_REPORT_SHA256
    for name, header in EIGEN_HEADERS.items():
        assert (out / name).read_text().splitlines()[0] == header
    records = [json.loads(line) for line in (out / "localization.jsonl").read_text().splitlines()]
    assert [r["verdict"] for r in records] == FULL_REPORT_VERDICTS


def test_certify_quasi1d_bytes(tmp_path, workers):
    out = _run(tmp_path, CERTIFY_QUASI1D)
    assert {p.name for p in out.iterdir()} == {"manifest.jsonl"} | set(CERTIFY_QUASI1D_SHA256)
    assert _digests(out, CERTIFY_QUASI1D_SHA256) == CERTIFY_QUASI1D_SHA256


def test_certify_quasi1d_d3_bytes(tmp_path, workers):
    out = _run(tmp_path, CERTIFY_QUASI1D_D3)
    assert {p.name for p in out.iterdir()} == {"manifest.jsonl"} | set(CERTIFY_QUASI1D_D3_SHA256)
    assert _digests(out, CERTIFY_QUASI1D_D3_SHA256) == CERTIFY_QUASI1D_D3_SHA256
    records = [json.loads(line) for line in (out / "certificates.jsonl").read_text().splitlines()]
    assert [r["verdict"] for r in records] == ["certified"] * 4


def test_certify_sparse_d2_bytes(tmp_path, workers):
    out = _run(tmp_path, CERTIFY_SPARSE_D2)
    assert {p.name for p in out.iterdir()} == {"manifest.jsonl"} | set(CERTIFY_SPARSE_D2_SHA256)
    assert _digests(out, CERTIFY_SPARSE_D2_SHA256) == CERTIFY_SPARSE_D2_SHA256
    rows = (out / "free_annuli.csv").read_text().splitlines()[1:]
    assert len(rows) == 20 and all(row.endswith(",1") for row in rows)  # all degenerate
    records = [json.loads(line) for line in (out / "certificates.jsonl").read_text().splitlines()]
    assert [r["verdict"] for r in records] == ["certified"] + ["not-certified"] * 3
