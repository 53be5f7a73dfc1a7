"""Statement reach of every function in src/sparseloc: pipelines, tests, nothing.

    python3 tools/reach.py

Run from the root of a source checkout.  Under one `sys.settrace` tracer,
in this process, it first runs the pipelines:

- `validate`, `run` and `plotdata` on the four benchmark workload configs
  of `perfbench/workloads.py` at base seed 0, on a `spectral-probe` and a
  d=1 `certify-sparse` variant of full-report-d1, and on a d=3 variant of
  certify-quasi1d-tube, whose cheese takes the d>=3 lower bound;
- `oracle an --dimension 1 --p 0.5 --radius 16 --a 2 --n 2 --eps 0.5`;

then the tier-1 suite (`tests/`) through `pytest.main`.  A statement is
a line that holds bytecode of a function body (nested generator
expressions count towards their function).  For each function it prints
how many statements a pipeline reached, how many only the tests reached
and how many nothing reached, with the line numbers of the last two, and
then the totals.

Runs use SPARSELOC_WORKERS=1 so that every cell runs in this process; a
test that starts a worker pool itself is traced only in its parent.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
from collections import defaultdict
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparseloc"
_NESTED = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def function_statements() -> dict[tuple[str, str], set[int]]:
    """(module file name, qualified name) -> body lines, from compiled source."""
    out: dict[tuple[str, str], set[int]] = {}

    def walk(code, module: str, owner: tuple[str, str] | None) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            if const.co_name in _NESTED:
                if owner is not None:
                    out[owner] |= _lines(const)
                walk(const, module, owner)
            elif const.co_flags & CO_OPTIMIZED:  # a function, not a class body
                key = (module, const.co_qualname)
                out[key] = _lines(const) - {const.co_firstlineno}
                walk(const, module, key)
            else:
                walk(const, module, None)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name, None)
    return out


class LineTracer:
    """Collects (file name, line) of every line event in src/sparseloc."""

    def __init__(self):
        self.phase = "pipeline"
        self.reached: dict[str, set[tuple[str, int]]] = defaultdict(set)
        self.prefix = str(SRC) + os.sep

    def start(self):
        sys.settrace(self.on_call)

    def on_call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.on_line
        return None

    def on_line(self, frame, event, arg):
        if event == "line":
            self.reached[self.phase].add((Path(frame.f_code.co_filename).name, frame.f_lineno))
        return self.on_line


def pipeline_configs() -> dict[str, dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    configs = {name: workloads.config_for(name, 0) for name in workloads.NAMES}
    full = configs["full-report-d1"]
    # each variant keeps the parameters its stage reads; validate refuses the others
    for name, pipeline, keys in [("spectral-probe-d1", "spectral-probe", ("eps", "box", "h")),
                                 ("certify-sparse-d1", "certify-sparse", ("eps", "gammas", "n_range"))]:
        variant = copy.deepcopy(full)
        variant.update(pipeline=pipeline, parameters={k: full["parameters"][k] for k in keys})
        configs[name] = variant
    configs["spectral-probe-d1"]["parameters"]["energies"] = [-1.0, 3.5]
    tube3 = copy.deepcopy(configs["certify-quasi1d-tube"])
    tube3["model"]["dimension"] = 3
    tube3["model"]["sites"]["offsets"] = [[0.0, 0.0], [0.5, 0.5]]
    tube3["parameters"]["n_range"] = [2, 5]
    configs["certify-quasi1d-tube-d3"] = tube3
    return configs


def cli_call(main, args: list[str]) -> None:
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"sparseloc {' '.join(args)} exited {exc.code}") from None


def run_pipelines(workdir: Path) -> None:
    from sparseloc.cli import main

    for name, cfg in pipeline_configs().items():
        path = workdir / name / "config.json"
        path.parent.mkdir()
        path.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            cli_call(main, [command, str(path)])
        cli_call(main, ["plotdata", str(path.parent / "out" / "manifest.jsonl")])
    cli_call(main, ["oracle", "an", "--dimension", "1", "--p", "0.5", "--radius", "16",
                    "--a", "2", "--n", "2", "--eps", "0.5"])


def ranges(lines: list[int]) -> str:
    """[1, 2, 3, 5, 7, 8] -> '1-3,5,7-8'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    import pytest

    os.environ["SPARSELOC_WORKERS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer()
    tracer.start()
    with tempfile.TemporaryDirectory() as tmp:
        run_pipelines(Path(tmp))
    tracer.phase = "tests"
    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    sys.settrace(None)

    pipeline, tests = tracer.reached["pipeline"], tracer.reached["tests"]
    totals = [0, 0, 0]
    print(f"\n{'function':<60} {'pipeline':>8} {'tests':>6} {'none':>5}  test-only | unreached lines")
    for (module, name), lines in sorted(function_statements().items()):
        keys = sorted(lines)
        by_pipeline = [n for n in keys if (module, n) in pipeline]
        only_tests = [n for n in keys if (module, n) in tests and (module, n) not in pipeline]
        unreached = [n for n in keys if (module, n) not in pipeline and (module, n) not in tests]
        counts = (len(by_pipeline), len(only_tests), len(unreached))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{module + ':' + name:<60} {counts[0]:>8} {counts[1]:>6} {counts[2]:>5}  "
              f"{ranges(only_tests)} | {ranges(unreached)}")
    print(f"\nstatements in functions: {sum(totals)}; reached by a pipeline: {totals[0]}; "
          f"only by tests: {totals[1]}; by nothing: {totals[2]} (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
