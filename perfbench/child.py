"""One sparseloc pipeline run in a fresh process, as `sparseloc run` does it.

    python3 child.py CONFIG [--trace-out SPANS.json]
    python3 child.py --stamp

Prints one JSON line: the monotonic time at which setup (imports and
load_config) ended, the pipeline's wall and CPU seconds, and the peak RSS
of this process and its children.  With --trace-out the layer functions
are wrapped (see tracing.py) and the spans are written to SPANS.json when
the run ends.  --stamp prints the library versions and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _stamp() -> dict:
    import numpy
    import scipy

    import sparseloc.cli  # noqa: F401  (warms the bytecode caches)

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "sparseloc": sparseloc.__version__,
    }


def _run(config: Path, trace_out: Path | None) -> dict:
    from sparseloc import cli

    tracer = None
    missing: list[str] = []
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer(run_id=str(config.parent.name))
        missing = tracing.install(tracer)
    with warnings.catch_warnings(record=trace_out is not None) as caught:
        if trace_out is not None:
            warnings.simplefilter("always")
        cfg = cli.load_config(config)
        setup_end = time.monotonic()
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        manifest = cli.run(cfg, config_path=config)
        wall_s = time.monotonic() - t0
        cpu_s = _cpu_s() - cpu0
    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "stages": {s["name"]: s["wall_s"] for s in manifest["stages"]},
    }
    if tracer is not None:
        trace_out.write_text(json.dumps(tracer.spans))
        result["warnings"] = len(caught)
        result["missing_targets"] = missing
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config", nargs="?", type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--stamp", action="store_true")
    args = parser.parse_args()
    if args.stamp:
        print(json.dumps(_stamp()))
    elif args.config is not None:
        print(json.dumps(_run(args.config, args.trace_out)))
    else:
        parser.error("give CONFIG or --stamp")


if __name__ == "__main__":
    main()
