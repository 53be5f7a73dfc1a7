"""Spans around sparseloc's layer functions, recorded from outside the program.

`install` replaces each traced function at the name its caller looks up
(for example `sparseloc.cli.certify_ac`, because cli imports it by name)
with a wrapper that records a span: name, start, end, parent span, run id
and counters taken from the call's arguments and result.  Spans stay in
memory; the child writes them out when its run ends.  `analyse` turns the
spans of one run into self times and counts and runs the self-checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Self-check tolerance for sums of float seconds.
_TOL_S = 1e-6


class Tracer:
    """In-memory span recorder for one pipeline run (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.monotonic(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, name: str, count=None):
        """Function wrapper; `count(call, result, exc)` returns the span's counters."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                if count is not None:
                    span["counters"] = count(_Call(signature, args, kwargs), None, exc)
                raise
            self.close(span)
            if count is not None:
                span["counters"] = count(_Call(signature, args, kwargs), result, None)
            return result

        return traced

    def wrap_generator(self, fn, name: str, count):
        """Generator wrapper: one span per next(), counters from each item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self.close(span)
                    return
                self.close(span)
                span["counters"] = count(item)
                yield item

        return traced


class _Call:
    """Lazy access to a call's arguments by parameter name."""

    def __init__(self, signature, args, kwargs):
        self._signature, self._args, self._kwargs = signature, args, kwargs
        self._bound = None

    def __getitem__(self, key: str):
        if self._bound is None:
            self._bound = self._signature.bind(*self._args, **self._kwargs)
        return self._bound.arguments[key]


def _site_uniform_draws(call, result, exc):
    return {"draws": int(result.size)} if result is not None else {}


def _batch_draws(item):
    return {"draws": int(item[1].size)}


def _sites(call, result, exc):
    return {"sites": len(result)} if result is not None else {}


def _points(call, result, exc):
    return {"points": len(call["x"])}


def _free(call, result, exc):
    return {"free": int(result.free)} if result is not None else {}


def _terms(call, result, exc):
    return {"terms": len(result.terms)} if result is not None else {}


def _pairs(call, result, exc):
    return {"pairs": len(call["a"].shapes) * len(call["b"].shapes)}


def _trials(call, result, exc):
    return {"trials": int(call["trials"])}


def _budget(call, result, exc):
    exceeded = exc is not None and type(exc).__name__ == "BudgetExceededError"
    return {"budget_exceeded": int(exceeded)}


def _exact_rows(call, result, exc):
    if result is None:
        return {}
    return {
        "rows": len(result.rows),
        "exact_rows": sum(r.exact is not None for r in result.rows),
    }


def _unknowns(call, result, exc):
    return {"unknowns": int(result.n_unknowns)} if result is not None else {}


def _dense(call, result, exc):
    return {"dense": int(result.method == "dense")} if result is not None else {}


def _refused(call, result, exc):
    return {"refused": int(isinstance(exc, ValueError))}


# (module, attribute, span name, counters).  An attribute "Class.method"
# wraps the method on the class.  A module appears once per caller that
# looks the function up by name.
TARGETS = (
    ("sparseloc.cli", "load_config", "cli.load_config", None),
    ("sparseloc.cli", "run", "cli.run", None),
    ("sparseloc._rng", "site_uniforms", "rng.site_uniforms", _site_uniform_draws),
    ("sparseloc.cli", "model_from_dict", "models.model_from_dict", None),
    ("sparseloc.cli", "sample_couplings", "models.sample_couplings", _sites),
    ("sparseloc.spectral", "evaluate_potential", "models.evaluate_potential", _points),
    ("sparseloc.cli", "build_decomposition_sparse", "certify.build_decomposition_sparse", None),
    ("sparseloc.cli", "build_decomposition_quasi1d", "certify.build_decomposition_quasi1d", None),
    ("sparseloc.certify", "find_free_subannulus", "certify.find_free_subannulus", _free),
    ("sparseloc.cli", "difference_support", "certify.difference_support", None),
    ("sparseloc.cli", "certify_ac", "certify.certify_ac", _terms),
    ("sparseloc.certify", "closed_form_sigma", "geometry.closed_form_sigma", None),
    ("sparseloc.certify", "sanity_bound", "geometry.sanity_bound", None),
    ("sparseloc.certify", "distance_between", "geometry.distance_between", _pairs),
    ("sparseloc.cli", "borel_cantelli_report", "stochastic.borel_cantelli_report", _exact_rows),
    ("sparseloc.stochastic", "estimate_a_n", "stochastic.estimate_a_n", _trials),
    ("sparseloc.stochastic", "brute_force_a_n", "stochastic.brute_force_a_n", _budget),
    ("sparseloc.cli", "discretize", "spectral.discretize", _unknowns),
    ("sparseloc.spectral", "discretize", "spectral.discretize", _unknowns),
    ("sparseloc.spectral", "eigenpairs", "spectral.eigenpairs", _dense),
    ("sparseloc.spectral", "GridOperator.all_eigenvalues", "spectral.all_eigenvalues", None),
    ("sparseloc.cli", "localization_report", "spectral.localization_report", None),
    ("sparseloc.spectral", "decay_rate_fit", "spectral.decay_rate_fit", None),
    ("sparseloc.spectral", "ipr", "spectral.ipr", None),
    ("sparseloc.cli", "resolvent_decay", "spectral.resolvent_decay", _refused),
    ("sparseloc.spectral", "resolvent_decay", "spectral.resolvent_decay", _refused),
)

# Generators get one span per next(); site_uniform_batches is the only one.
GENERATOR_TARGETS = (
    ("sparseloc._rng", "site_uniform_batches", "rng.site_uniform_batches", _batch_draws),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    missing = []
    for targets, wrap in ((TARGETS, tracer.wrap), (GENERATOR_TARGETS, tracer.wrap_generator)):
        for module_name, attr, name, count in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, wrap(fn, name, count))
    return missing


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def analyse(spans: list[dict]) -> tuple[dict, list[str]]:
    """Per-name totals and self-check problems for the spans of one run.

    Totals map "<span name>.s" to summed self time, "<span name>.calls" to
    the span count and "<span name>.<counter>" to summed counters.  Self
    time is a span's duration minus the part its children cover.
    """
    problems: list[str] = []
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["end"] is None:
            problems.append(f"span {s['id']} ({s['name']}) never closed")
            continue
        if s["parent"] is not None:
            parent = by_id.get(s["parent"])
            if parent is None:
                problems.append(f"span {s['id']} ({s['name']}) has no recorded parent")
                continue
            children.setdefault(s["parent"], []).append(s)
            if parent["end"] is not None and (
                s["start"] < parent["start"] or s["end"] > parent["end"]
            ):
                problems.append(
                    f"span {s['id']} ({s['name']}) lies outside its parent {parent['name']}"
                )
    if problems:
        return {}, problems

    self_s: dict[int, float] = {}
    totals: dict[str, float] = {}
    for s in spans:
        covered = _covered([(c["start"], c["end"]) for c in children.get(s["id"], [])])
        own = s["end"] - s["start"] - covered
        if own < 0.0:
            problems.append(f"span {s['id']} ({s['name']}) has negative self time {own}")
        self_s[s["id"]] = own
        totals[s["name"] + ".s"] = totals.get(s["name"] + ".s", 0.0) + own
        totals[s["name"] + ".calls"] = totals.get(s["name"] + ".calls", 0) + 1
        for key, value in s["counters"].items():
            totals[f"{s['name']}.{key}"] = totals.get(f"{s['name']}.{key}", 0) + value

    runs = [s for s in spans if s["name"] == "cli.run"]
    if len(runs) != 1:
        problems.append(f"expected one cli.run span, found {len(runs)}")
    else:
        root = runs[0]
        inside, frontier = 0.0, [root]
        while frontier:
            s = frontier.pop()
            inside += self_s[s["id"]]
            frontier.extend(children.get(s["id"], []))
        duration = root["end"] - root["start"]
        if abs(inside - duration) > _TOL_S:
            problems.append(
                f"layer self times plus cli.self.s ({inside:.9f} s) do not account "
                f"for the run span ({duration:.9f} s)"
            )
    return totals, problems
