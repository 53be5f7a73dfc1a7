"""Record golden verdicts and data-file digests into golden.json.

    python3 perfbench/record_golden.py

Runs each workload once per base seed 0 .. GOLDEN_BASE_SEEDS-1 on the
sources under ./src and stores its verdicts and the sha256 of every data
file.  Record only from the commit the benchmark treats as the
reference; the benchmark then fails a run whose verdicts differ and
counts drifted bytes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import run
import workloads

GOLDEN_BASE_SEEDS = 16


def main() -> int:
    workdir = run.HERE / "_work" / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    harness = run.Harness(run.ROOT, workdir, child_timeout_s=None)
    stamp = harness.stamp()
    src_changed = subprocess.run(
        ["git", "-C", str(run.ROOT), "status", "--porcelain", "--", "src"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if src_changed:
        print("error: src/ has uncommitted changes", file=sys.stderr)
        return 1
    golden = {"recorded_from": stamp, "workloads": {}}
    for name in workloads.NAMES:
        entries = golden["workloads"][name] = {}
        for base_seed in range(GOLDEN_BASE_SEEDS):
            cfg = workloads.config_for(name, base_seed)
            rec = harness.repeat(cfg, 0, traced=False)
            problems = rec["problems"] or check.verdict_problems(cfg, rec["verdicts"], None)
            if problems:
                print(f"error: {name} base seed {base_seed}: {problems}", file=sys.stderr)
                return 1
            entries[str(base_seed)] = {
                "config_digest": check.config_digest(cfg),
                "verdicts": rec["verdicts"],
                "digests": rec["digests"],
            }
            print(f"{name} base seed {base_seed}: {rec['wall_s']:.2f} s", flush=True)
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
