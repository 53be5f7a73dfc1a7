"""Benchmark of sparseloc's CLI pipelines, end to end and (traced) per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table each

Run from the root of a source checkout; the program is imported from
./src.  Each repeat runs the workload's pipeline in a fresh process with
SPARSELOC_WORKERS=1 and BLAS pinned to one thread, and repeats go on
until S seconds have passed (at least MIN_REPEATS).  End-to-end metrics
are medians over the repeats.  With --trace 1 half the window is spent on
untraced repeats and the rest on traced ones (at least two), whose spans
give the per-layer metrics; the trace self-checks and count-repeatability
check run on them.  Every repeat's verdicts are checked against the
golden verdicts of the seed code when golden.json holds the base seed,
otherwise against the first repeat; data-file bytes that drift from the
golden are counted in cli.digest_mismatches.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it are a human-readable report; the full result
(environment stamp, per-repeat figures, quartiles, verdicts, digests) and
the spans of the first traced repeat are written to perfbench/results/.
Repeat directories under perfbench/_work/ are kept only when a repeat
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import metrics
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
# A run must end within 180 s: no repeat starts after RUN_DEADLINE_S and
# every child is killed CHILD_TIMEOUT_S after the harness started.
RUN_DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0
CHILD_ENV = {
    "SPARSELOC_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Steps of the fixed pure-Python loop timed before every repeat.  Its
# median goes into the environment stamp, so that a parent/change
# comparison made while the shared host ran at another speed shows up as
# an environment difference rather than as a regression.
PROBE_STEPS = 2_000_000


def host_probe_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i
    return time.perf_counter() - t0


class Harness:
    """Runs repeats of one workload config in fresh processes under `workdir`."""

    def __init__(self, root: Path, workdir: Path, child_timeout_s: float | None = CHILD_TIMEOUT_S):
        self.root = root
        self.workdir = workdir
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(root / "src")}
        self.started = time.monotonic()
        self.child_timeout_s = child_timeout_s

    def _child(self, args: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
        timeout = None
        if self.child_timeout_s is not None:
            timeout = self.child_timeout_s - (time.monotonic() - self.started)
            if timeout <= 0:
                raise subprocess.TimeoutExpired(args, 0)
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=cwd, env=self.env, capture_output=True, text=True, timeout=timeout,
        )
        return spawned, proc

    def stamp(self) -> dict:
        """Environment stamp; the child also warms the bytecode caches."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        _, proc = self._child(["--stamp"], self.workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import sparseloc from {self.root / 'src'}:\n{proc.stderr}")
        stamp = json.loads(proc.stdout.splitlines()[-1])
        stamp.update(
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            cpu_model=_cpu_model(),
            blas_threads=CHILD_ENV["OPENBLAS_NUM_THREADS"],
            sparseloc_workers=CHILD_ENV["SPARSELOC_WORKERS"],
            **_git_state(self.root),
        )
        return stamp

    def repeat(self, cfg: dict, index: int, traced: bool) -> dict:
        """One fresh-process pipeline run; returns its raw figures and outputs."""
        repdir = self.workdir / f"rep{index:03d}"
        shutil.rmtree(repdir, ignore_errors=True)
        repdir.mkdir(parents=True)
        (repdir / "config.json").write_text(json.dumps(cfg, indent=1))
        args = ["config.json"] + (["--trace-out", "spans.json"] if traced else [])
        rec = {"index": index, "traced": traced, "problems": [], "host_probe_s": host_probe_s()}
        try:
            spawned, proc = self._child(args, repdir)
        except subprocess.TimeoutExpired:
            rec["problems"].append("timed out")
            return rec
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            rec["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            return rec
        child = json.loads(proc.stdout.splitlines()[-1])
        rec.update(
            setup_s=child["setup_end"] - spawned,
            wall_s=child["wall_s"],
            cpu_s=child["cpu_s"],
            peak_rss_mb=child["peak_rss_mb"],
            stages=child["stages"],
        )
        outdir = repdir / "out"
        try:
            rec["verdicts"] = check.verdicts(outdir)
        except (OSError, ValueError, KeyError) as exc:
            rec["problems"].append(f"unreadable verdicts: {exc}")
            return rec
        rec["digests"] = check.digests(outdir)
        rec["output_bytes"] = check.output_bytes(outdir)
        if traced:
            spans = json.loads((repdir / "spans.json").read_text())
            totals, rec["trace_problems"] = tracing.analyse(spans)
            rec["layer"] = metrics.layer_values(totals)
            rec["layer"]["cli.output_bytes"] = rec["output_bytes"]
            rec["layer"]["cli.warnings"] = child["warnings"]
            rec["missing_targets"] = child["missing_targets"]
        return rec


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_state(root: Path) -> dict:
    """Commit and dirty flag of `root`, if it is itself a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _judge(cfg: dict, golden: dict | None, reps: list[dict]) -> tuple[int, list[str]]:
    """Mark failed repeats; returns the golden digest mismatch count and notes."""
    reference = golden
    drifted: set[str] = set()
    notes = []
    for rec in reps:
        if "verdicts" not in rec:
            continue
        if reference is None:
            reference = {"verdicts": rec["verdicts"], "digests": rec["digests"]}
        rec["problems"] += check.verdict_problems(cfg, rec["verdicts"], reference["verdicts"])
        mismatched = check.digest_mismatches(rec["digests"], reference["digests"])
        if golden is not None:
            drifted.update(mismatched)
        elif mismatched:
            rec["problems"].append(f"data files differ between repeats: {mismatched}")
    if golden is None:
        notes.append("no golden for this base seed: verdicts and bytes checked repeat to repeat")
    elif drifted:
        notes.append(f"data files differ from the golden sha256: {sorted(drifted)}")
    return len(drifted), notes


def run_workload(
    name: str, cfg: dict, base_seed: int, seconds: float, trace: bool,
    harness: Harness, golden: dict | None,
) -> dict:
    stamp = harness.stamp()
    start = time.monotonic()
    reps: list[dict] = []

    def keep_going(traced: bool, budget: float, minimum: int) -> bool:
        done = [r for r in reps if r["traced"] == traced]
        if len(done) < minimum:
            return True
        typical = statistics.median(r.get("wall_s", 0.0) + r.get("setup_s", 0.0) for r in done)
        return time.monotonic() - start + typical <= budget

    def deadline_ok() -> bool:
        return time.monotonic() - harness.started < RUN_DEADLINE_S

    untraced_budget = seconds / 2 if trace else seconds
    while deadline_ok() and keep_going(False, untraced_budget, MIN_REPEATS):
        reps.append(harness.repeat(cfg, len(reps), traced=False))
    while trace and deadline_ok() and keep_going(True, seconds, MIN_TRACED_REPEATS):
        reps.append(harness.repeat(cfg, len(reps), traced=True))

    stamp["host_probe_s"] = _stats([r["host_probe_s"] for r in reps])
    digest_mismatches, notes = _judge(cfg, golden, reps)
    ok = [r for r in reps if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    e2e = {
        m: _stats([r[m] for r in untraced]) for m, *_ in metrics.END_TO_END
    } if untraced else {}
    result = {
        "workload": name,
        "why": workloads.WHY[name],
        "base_seed": base_seed,
        "seeds": cfg["seeds"],
        "config": cfg,
        "stamp": stamp,
        "seconds": seconds,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "end_to_end": e2e,
        "digest_mismatches": digest_mismatches,
        "golden": golden is not None,
        "notes": notes,
        "verdicts": ok[0]["verdicts"] if ok else None,
        "digests": ok[0]["digests"] if ok else None,
        "repeats": reps,
        "trace_problems": [],
    }
    if trace:
        result.update(_layer_result(reps, e2e, digest_mismatches))
    result["correct"] = result["failed"] == 0 and not result["trace_problems"] and bool(ok)
    return result


def _layer_result(reps: list[dict], e2e: dict, digest_mismatches: int) -> dict:
    traced = [r for r in reps if r["traced"] and not r["problems"]]
    problems = []
    for rec in traced:
        problems += [f"repeat {rec['index']}: {p}" for p in rec["trace_problems"]]
    if len(traced) < MIN_TRACED_REPEATS:
        problems.append(f"{len(traced)} traced repeats passed, need {MIN_TRACED_REPEATS}")
    if not traced or not e2e:
        return {"trace_problems": problems, "layer": {}}
    first = traced[0]["layer"]
    for rec in traced[1:]:
        for name, _unit, _better, _moves in metrics.PER_LAYER:
            if metrics.is_count(name) and name in first and rec["layer"][name] != first[name]:
                problems.append(
                    f"count {name} does not repeat: {first[name]} then {rec['layer'][name]}"
                )
    layer = {}
    for name, unit, _better, _moves in metrics.PER_LAYER:
        if name in first:
            samples = [r["layer"][name] for r in traced]
            layer[name] = statistics.median(samples) if unit == "s" else first[name]
    untraced = [r for r in reps if not r["traced"] and not r["problems"]]
    for stage, short in metrics.STAGES.items():
        key = f"cli.stage.{short}.s"
        times = [r["stages"].get(stage, 0.0) for r in untraced]
        layer[key] = layer.get(key, 0.0) + statistics.median(times)
    layer["cli.digest_mismatches"] = digest_mismatches
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]["median"]
    missing = sorted({t for r in traced for t in r["missing_targets"]})
    if missing:
        problems.append(f"layer functions not found, so their metrics would read 0: {missing}")
    return {"trace_problems": problems, "layer": layer}


def result_line(result: dict, trace: bool) -> dict:
    """The contract's last line for one workload."""
    if trace:
        table = [(n, u) for n, u, _b, _m in metrics.PER_LAYER]
        values = {n: result["layer"].get(n) for n, _u in table}
    else:
        table = [(n, u) for n, u, _b, _bound in metrics.END_TO_END]
        values = {n: result["end_to_end"].get(n, {}).get("median") for n, _u in table}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table},
    }


def report(result: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    s = result["stamp"]
    print(f"== {result['workload']}  seeds {result['seeds']}  "
          f"repeats {result['attempted']} ({result['failed']} failed)")
    print(f"   why: {result['why']}")
    print(f"   env: nproc={s['nproc']} affinity={s['affinity']} cpu={s['cpu_model']!r} "
          f"python={s['python']} numpy={s['numpy']} scipy={s['scipy']} blas={s['blas']!r} "
          f"blas_threads={s['blas_threads']} workers={s['sparseloc_workers']} "
          f"commit={s['commit']} dirty={s['dirty']}")
    probe = s["host_probe_s"]
    print(f"   host probe: {PROBE_STEPS} Python loop steps in {probe['median']:.4f} s "
          f"(median; q1 {probe['q1']:.4f}, q3 {probe['q3']:.4f}, n={probe['n']})")
    for name, unit, _better, bound in metrics.END_TO_END:
        st = result["end_to_end"].get(name)
        if st:
            print(f"   {name:<13} {st['median']:12.4f} {unit:<6} q1 {st['q1']:.4f}  "
                  f"q3 {st['q3']:.4f}  n={st['n']}  bound {bound}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'failed_frac':<13} {frac:12.4f} {'ratio':<6} ({result['failed']}/{result['attempted']})")
    print(f"   digest_mismatches {result['digest_mismatches']} "
          f"(golden {'recorded' if result['golden'] else 'not recorded'} for base seed "
          f"{result['base_seed']})")
    for note in result["notes"]:
        print(f"   note: {note}")
    for rec in result["repeats"]:
        for problem in rec["problems"]:
            print(f"   FAILED repeat {rec['index']}: {problem}")
    for problem in result["trace_problems"]:
        print(f"   TRACE CHECK: {problem}")
    if trace:
        for name, unit, _better, moves in metrics.PER_LAYER:
            value = result["layer"].get(name)
            if value is not None:
                print(f"   {name:<45} {value:14.6f} {unit:<6} moves: {moves}")
    if result["verdicts"]:
        for fname, rows in result["verdicts"].items():
            print(f"   verdicts {fname}: {rows}")
        for fname, digest in result["digests"].items():
            print(f"   sha256 {fname} {digest}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_BASE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "sparseloc" / "__init__.py").is_file():
        print(f"error: no sparseloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    golden = check.load_golden()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    lines = {}
    for name in names:
        cfg = workloads.config_for(name, args.seed)
        workdir = HERE / "_work" / name
        shutil.rmtree(workdir, ignore_errors=True)
        harness = Harness(ROOT, workdir)
        result = run_workload(
            name, cfg, args.seed, args.seconds, bool(args.trace), harness,
            check.golden_for(golden, name, args.seed, cfg),
        )
        stem = results_dir / f"{name}-seed{args.seed}-trace{args.trace}"
        stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
        traced_ok = [r for r in result["repeats"] if r["traced"] and not r["problems"]]
        if traced_ok:
            shutil.copy(workdir / f"rep{traced_ok[0]['index']:03d}" / "spans.json",
                        stem.with_name(stem.name + "-spans.json"))
        report(result, bool(args.trace))
        if result["failed"] == 0:
            shutil.rmtree(workdir, ignore_errors=True)
        if not any(r for r in result["repeats"] if not r["problems"]):
            print(f"error: every repeat of {name} failed", file=sys.stderr)
            return 1
        lines[name] = result_line(result, bool(args.trace))
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{n}.{m}": v for n, line in lines.items() for m, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
