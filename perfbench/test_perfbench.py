"""Self-tests of the benchmark harness on toy-size workloads.

    python3 -m pytest -q perfbench/test_perfbench.py

Each toy workload is its real workload with the scale cut down so a
fresh-process repeat takes about a second; repeats run in a temp dir.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "full-report-d1": {"sites": {"radius": 20.0}, "parameters": {"n_range": [1, 3], "trials": 100, "box": 4.0}},
    "certify-sparse-d2": {"sites": {"radius": 12.0}, "parameters": {"n_range": [1, 4]}},
    "lemma-mc-d1": {"sites": {"radius": 20.0}, "parameters": {"n_range": [1, 3], "trials": 200}},
    "certify-quasi1d-tube": {"sites": {"radius": 260.0}, "parameters": {"n_range": [2, 7]}},
}


def toy_config(name: str) -> dict:
    cfg = workloads.config_for(name, workloads.DEFAULT_BASE_SEED)
    cfg["model"]["sites"].update(TOY[name]["sites"])
    cfg["parameters"].update(TOY[name]["parameters"])
    return cfg


@pytest.fixture(scope="module")
def traced_repeats(tmp_path_factory):
    """One traced repeat of every toy workload."""
    out = {}
    for name in workloads.NAMES:
        harness = run.Harness(run.ROOT, tmp_path_factory.mktemp(name))
        out[name] = (toy_config(name), harness.repeat(toy_config(name), 0, traced=True), harness)
    return out


def test_workload_seeds_follow_base_seed():
    assert workloads.seeds_for(0) == [1, 2, 3, 4]
    assert workloads.seeds_for(3) == [13, 14, 15, 16]
    with pytest.raises(ValueError):
        workloads.seeds_for(-1)


def test_every_metric_printed_with_unit(tmp_path, capsys):
    name = "lemma-mc-d1"
    harness = run.Harness(run.ROOT, tmp_path)
    result = run.run_workload(name, toy_config(name), 0, 0.1, True, harness, None)
    assert result["correct"], result
    assert result["attempted"] == run.MIN_REPEATS + run.MIN_TRACED_REPEATS
    assert result["stamp"]["host_probe_s"]["n"] == result["attempted"]
    run.report(result, trace=True)
    printed = capsys.readouterr().out
    for name_, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert any(
            line.split()[:1] == [name_] and unit in line.split() for line in printed.splitlines()
        ), f"{name_} [{unit}] not printed"
    assert "failed_frac" in printed
    for trace, table in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        line = run.result_line(result, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m[0] for m in table]
        for (name_, unit, *_), value in zip(table, line["metrics"].values()):
            assert value["unit"] == unit and isinstance(value["value"], (int, float)), name_


def test_traced_span_trees_pass_self_checks(traced_repeats):
    for name, (_cfg, rec, _h) in traced_repeats.items():
        assert rec["problems"] == [], (name, rec["problems"])
        assert rec["trace_problems"] == [], (name, rec["trace_problems"])
        assert rec["missing_targets"] == []
        layer = rec["layer"]
        assert set(layer) >= {m[0] for m in metrics.PER_LAYER if not m[0].startswith(
            ("cli.stage.", "cli.digest", "trace."))}
        assert all(v >= 0 for v in layer.values())


def test_traced_layers_see_their_workloads(traced_repeats):
    layer = {name: rec["layer"] for name, (_c, rec, _h) in traced_repeats.items()}
    assert layer["certify-sparse-d2"]["rng.site_uniforms.draws"] > 0
    assert layer["lemma-mc-d1"]["rng.site_uniforms.calls"] == 0
    assert layer["lemma-mc-d1"]["stochastic.trials"] > 0
    assert layer["certify-quasi1d-tube"]["geometry.sanity_bound.calls"] > 0
    assert layer["full-report-d1"]["spectral.eigenpairs.dense"] > 0


def test_self_checks_flag_broken_span_trees():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "run": "r", "counters": {}}

    good = [span(0, "cli.run", 0.0, 10.0, None), span(1, "a", 1.0, 4.0, 0), span(2, "b", 2.0, 3.0, 1)]
    totals, problems = tracing.analyse(good)
    assert problems == []
    assert totals["cli.run.s"] == pytest.approx(7.0)
    assert totals["a.s"] == pytest.approx(2.0)
    outside = good[:2] + [span(2, "b", 3.0, 5.0, 1)]
    assert any("outside its parent" in p for p in tracing.analyse(outside)[1])
    unclosed = good[:2] + [span(2, "b", 2.0, None, 1)]
    assert any("never closed" in p for p in tracing.analyse(unclosed)[1])
    assert any("no recorded parent" in p for p in tracing.analyse(good[1:])[1])
    assert any("one cli.run" in p for p in tracing.analyse([span(0, "x", 0.0, 1.0, None)])[1])


def test_counts_must_repeat(tmp_path):
    name = "certify-sparse-d2"
    harness = run.Harness(run.ROOT, tmp_path)
    reps = [harness.repeat(toy_config(name), i, traced=i > 0) for i in range(3)]
    e2e = {"wall_s": {"median": reps[0]["wall_s"]}}
    assert run._layer_result(reps, e2e, 0)["trace_problems"] == []
    reps[1]["layer"]["rng.site_uniforms.draws"] += 1
    problems = run._layer_result(reps, e2e, 0)["trace_problems"]
    assert any("rng.site_uniforms.draws does not repeat" in p for p in problems)


def test_missing_layer_function_fails_the_trace():
    rec = {"index": 0, "traced": True, "problems": [], "trace_problems": [], "layer": {},
           "missing_targets": [], "wall_s": 1.0, "stages": {}}
    reps = [dict(rec, traced=False), dict(rec, index=1),
            dict(rec, index=2, missing_targets=["sparseloc.cli.certify_ac"])]
    problems = run._layer_result(reps, {"wall_s": {"median": 1.0}}, 0)["trace_problems"]
    assert any("sparseloc.cli.certify_ac" in p for p in problems)


def test_correctness_check_catches_tampering(traced_repeats):
    cfg, rec, harness = traced_repeats["full-report-d1"]
    golden = {"verdicts": rec["verdicts"], "digests": rec["digests"]}
    outdir = harness.workdir / "rep000" / "out"
    assert check.digests(outdir) == golden["digests"]
    assert check.verdict_problems(cfg, check.verdicts(outdir), golden["verdicts"]) == []

    with open(outdir / "states.csv", "a") as fp:
        fp.write("tampered\n")
    assert check.digest_mismatches(check.digests(outdir), golden["digests"]) == ["states.csv"]

    lines = (outdir / "an_verdicts.jsonl").read_text().splitlines()
    rec0 = json.loads(lines[0])
    rec0["verdict"] = "not-summable" if rec0["verdict"] != "not-summable" else "summable"
    (outdir / "an_verdicts.jsonl").write_text("\n".join([json.dumps(rec0)] + lines[1:]) + "\n")
    problems = check.verdict_problems(cfg, check.verdicts(outdir), golden["verdicts"])
    assert problems == ["an_verdicts.jsonl: verdicts differ from the reference"]

    (outdir / "localization.jsonl").unlink()
    assert check.verdict_problems(cfg, check.verdicts(outdir), None)


def test_golden_drift_is_counted_and_verdict_drift_fails(traced_repeats):
    cfg, rec, _h = traced_repeats["certify-quasi1d-tube"]
    drifted = {"verdicts": rec["verdicts"], "digests": dict(rec["digests"], **{"free_annuli.csv": "0" * 64})}
    reps = [dict(rec, problems=[])]
    count, notes = run._judge(cfg, drifted, reps)
    assert count == 1 and reps[0]["problems"] == [] and "free_annuli.csv" in notes[0]

    verdicts = json.loads(json.dumps(rec["verdicts"]))
    verdicts["certificates.jsonl"][0][-1] = "not-certified" if verdicts["certificates.jsonl"][0][-1] != "not-certified" else "certified"
    reps = [dict(rec, problems=[])]
    run._judge(cfg, {"verdicts": verdicts, "digests": rec["digests"]}, reps)
    assert reps[0]["problems"] == ["certificates.jsonl: verdicts differ from the reference"]


def test_golden_file_covers_default_seed_of_every_workload():
    golden = check.load_golden()
    for name in workloads.NAMES:
        cfg = workloads.config_for(name, workloads.DEFAULT_BASE_SEED)
        assert check.golden_for(golden, name, workloads.DEFAULT_BASE_SEED, cfg) is not None


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-mc-d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
