"""Monte Carlo and exact-enumeration checks of the free-annulus lemmas.

The quantities here are desk-scale versions of the probabilistic inputs
to the localization arguments: the probability that an annulus is
eps-free, the per-scale failure probability a_n that no free sub-annulus
exists, its closed-form upper bound, and the summability diagnostics
feeding the Borel-Cantelli conclusion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .certify import quasi1d_threshold, require_scale_window, scale_window
from .geometry import RegionSet
from .models import RandomPotentialModel

__all__ = [
    "EstimateRecord",
    "ANSeriesRow",
    "ANSeriesReport",
    "BudgetExceededError",
    "ENUMERATION_SITE_BUDGET",
    "estimate_free_probability",
    "estimate_a_n",
    "brute_force_a_n",
    "a_n_bound",
    "quasi1d_threshold",
    "borel_cantelli_report",
]

ENUMERATION_SITE_BUDGET = 24
# Columns per block of a sites x columns matrix: at least 256, and more while
# the block holds under 2^16 entries.  This bounds the memory of both the
# blocks of coupling draws and the pattern blocks of the 2^m enumeration, and
# keeps the coverage sweep on large arrays.  A block of draws spans at least
# 64 Philox counter blocks per row, so `_rng` draws it with its compiled loop.
_TRIAL_BATCH, _BLOCK_DRAWS = 256, 1 << 16


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the 2^24-pattern budget."""


@dataclass(frozen=True)
class EstimateRecord:
    """Monte Carlo estimate with its binomial standard error."""

    value: float
    trials: int
    std_error: float
    seed: int
    exact: float | None = None

    def within(self, target: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - target) <= n_sigma * self.std_error


def _binomial_record(hits: int, trials: int, seed: int, exact: float | None) -> EstimateRecord:
    p = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EstimateRecord(p, trials, se, seed, exact)


def estimate_free_probability(
    model: RandomPotentialModel,
    annulus: RegionSet,
    eps: float,
    trials: int,
    seed: int,
) -> EstimateRecord:
    """Frequency of the eps-free event (every coupling below eps) over draws.

    Also returns the exact value prod_i (1 - p_i(eps)) over the sites in
    the annulus (couplings are independent).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    indices = model.sites.indices_in(annulus)
    p_eps = model.tail_masses(indices, eps)
    exact = float(np.prod(1.0 - p_eps))
    if indices.size == 0:
        return EstimateRecord(1.0, trials, 0.0, seed, 1.0)
    points = model.sites.points[indices]
    hits = 0
    batch = max(_TRIAL_BATCH, _BLOCK_DRAWS // indices.size)
    for _offset, block in _rng.site_uniform_batches(seed, indices, trials, batch):
        values = model.laws.transform(points, indices, block)
        hits += int(np.count_nonzero(np.all(values < eps, axis=0)))
    return _binomial_record(hits, trials, seed, exact)


def _relevant_site_indices(model: RandomPotentialModel, a: float, n: int) -> np.ndarray:
    """Sites whose badness can block some candidate annulus at scale n."""
    norms = model.sites.norms
    lo, _, reach = scale_window(a, n)
    return np.where((norms >= lo) & (norms <= reach))[0]


def estimate_a_n(
    model: RandomPotentialModel,
    eps: float,
    a: float,
    n: int,
    trials: int,
    seed: int,
) -> EstimateRecord:
    """Monte Carlo frequency of 'no eps-free annulus of width n at scale n'.

    A site is bad when its coupling is >= eps, an event of mass p_i(eps).
    Degenerate scales (candidate range empty) are defined as a_n = 0 and
    returned without sampling, with zero standard error.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    lo, hi, _ = require_scale_window(model.sites.window_radius, a, n)
    if hi < lo:
        return EstimateRecord(0.0, trials, 0.0, seed, 0.0)
    indices = _relevant_site_indices(model, a, n)
    if indices.size == 0:
        return EstimateRecord(0.0, trials, 0.0, seed, 0.0)
    # rows in norm order, as the coverage sweep needs; draws are keyed by site
    indices = indices[np.argsort(model.sites.norms[indices], kind="stable")]
    points = model.sites.points[indices]
    norms = model.sites.norms[indices]
    hits = 0
    batch = max(_TRIAL_BATCH, _BLOCK_DRAWS // indices.size)
    for _offset, block in _rng.site_uniform_batches(seed, indices, trials, batch):
        bad = model.laws.transform(points, indices, block) >= eps
        hits += int(np.count_nonzero(_coverage_sweep(norms, bad, lo, hi, float(n))))
    return _binomial_record(hits, trials, seed, None)


def brute_force_a_n(
    model: RandomPotentialModel, eps: float, a: float, n: int
) -> float:
    """Exact a_n by enumerating the bad/good pattern of every relevant site.

    The blocked event depends on couplings only through the indicators
    {omega_i >= eps}, so each site is a two-state variable with weights
    (1 - p_i(eps), p_i(eps)).  Sites with p on {0, 1} are resolved up
    front; the 2^m budget applies to the undecided remainder.  A site
    window short of the scale's reach raises WindowTooSmallError.
    """
    lo, hi, _ = require_scale_window(model.sites.window_radius, a, n)
    if hi < lo:
        return 0.0
    indices = _relevant_site_indices(model, a, n)
    norms = model.sites.norms[indices]
    p = model.tail_masses(indices, eps)
    always_bad = norms[p >= 1.0]
    undecided = (p < 1.0) & (p > 0.0)
    norms_u = norms[undecided]
    p_u = p[undecided]
    m = norms_u.size
    if m > ENUMERATION_SITE_BUDGET:
        raise BudgetExceededError(
            f"{m} undecided sites exceed the enumeration budget of "
            f"{ENUMERATION_SITE_BUDGET}"
        )
    # rows of the activity matrix in norm order; always-bad sites are all ones
    row_norms = np.concatenate([norms_u, always_bad])
    order = np.argsort(row_norms, kind="stable")
    row_norms, rank = row_norms[order], np.argsort(order)  # rank: row of each site
    # weight of pattern P: the product over bits j = 0..m-1, taken in that order
    weights = np.ones(1)
    for q in p_u:
        weights = np.concatenate([weights * (1.0 - q), weights * q])
    n_patterns = weights.size
    cols = max(_TRIAL_BATCH, _BLOCK_DRAWS // max(row_norms.size, 1))
    blocked = np.empty(n_patterns, dtype=bool)
    for first in range(0, n_patterns, cols):
        patterns = np.arange(first, min(first + cols, n_patterns), dtype=np.uint32)
        active = np.ones((row_norms.size, patterns.size), dtype=bool)
        active[rank[:m]] = (patterns >> np.arange(m, dtype=np.uint32)[:, None]) & 1 == 1
        blocked[first : first + cols] = _coverage_sweep(row_norms, active, lo, hi, float(n))
    return float(np.sum(weights[blocked]))


@functools.lru_cache(maxsize=256, typed=True)
def _exact_a_n(model: RandomPotentialModel, eps: float, a: float, n: int) -> float | None:
    """brute_force_a_n once per (model by identity, eps, a, n); None past the budget."""
    try:
        return brute_force_a_n(model, eps, a, n)
    except BudgetExceededError:
        return None


def _coverage_sweep(
    norms_sorted: np.ndarray, active: np.ndarray, lo: float, hi: float, width: float
) -> np.ndarray:
    """Per column of `active` (sites x columns, rows in norm order): is
    [lo, hi] fully covered by the blockers [v - width, v] of its active sites?

    The rule is that of ``not free_intervals(...)`` for hi >= lo.  Blockers
    are swept in norm order, so their left endpoints are nondecreasing and a
    gap left behind (touching blockers leave none) can never be filled later.
    """
    covered_to = np.full(active.shape[1], -np.inf)
    dead = np.zeros(active.shape[1], dtype=bool)
    for v, row in zip(norms_sorted, active):
        if v < lo:
            continue
        start = v - width
        if start > hi:
            break
        if start > lo:
            # a column not yet covering lo is -inf here, so it is free at lo
            dead |= row & (covered_to < start)
        covered_to = np.where(row, v, covered_to)
    return (covered_to >= hi) & ~dead


def a_n_bound(a: float, eta: float, n: int) -> tuple[float, bool]:
    """Closed-form bound exp(-(1-eta)^n (a^n (a-1)/n - 1)) on a_n.

    Requires a(1-eta) > 1 so the bound sequence is summable.  Returns
    (bound, vacuous) where vacuous marks values >= 1, which carry no
    information.  The bound presumes each width-n annulus at scale n is
    free with probability at least (1-eta)^n; at small n that premise can
    fail, so comparisons should treat small scales with care.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    if a * (1.0 - eta) <= 1.0:
        raise ValueError("need a(1-eta) > 1 for a summable bound")
    exponent = (1.0 - eta) ** n * (a**n * (a - 1.0) / n - 1.0)
    bound = math.exp(-exponent)
    return bound, bound >= 1.0


@dataclass(frozen=True)
class ANSeriesRow:
    scale: int
    exact: float | None
    estimate: float
    std_error: float
    bound: float
    bound_eta: float
    bound_vacuous: bool
    degenerate: bool
    partial_sum: float


@dataclass(frozen=True, eq=False)
class ANSeriesReport:
    """Per-scale failure probabilities with bounds and a summability verdict."""

    rows: tuple[ANSeriesRow, ...]
    verdict: str  # summable | not-summable | inconclusive
    params: dict = field(default_factory=dict)


def _best_eta(a: float, n: int) -> tuple[float, float, bool]:
    """Tightest admissible plug-in bound over the eta grid k (1 - 1/a) / 100, k = 1..99."""
    eta_max = 1.0 - 1.0 / a
    best = (math.inf, math.nan, True)
    for k in range(1, 100):
        eta = eta_max * k / 100
        bound, vacuous = a_n_bound(a, eta, n)
        if bound < best[0]:
            best = (bound, eta, vacuous)
    return best


def borel_cantelli_report(
    model: RandomPotentialModel,
    eps: float,
    a: float,
    n_range: tuple[int, int],
    trials: int,
    seed: int,
) -> ANSeriesReport:
    """Estimate a_n over a scale range, with exact values where affordable.

    Each scale draws from an independently derived seed.  The verdict is
    "summable" when the estimates trend downward over the top half of the
    range with last ratios below one; scales defined as zero (degenerate
    or empty) count in favor.
    """
    rows: list[ANSeriesRow] = []
    partial = 0.0
    for n in range(n_range[0], n_range[1] + 1):
        sub_seed = _rng.derive_seed(seed, 1, n)
        est = estimate_a_n(model, eps, a, n, trials, sub_seed)
        lo, hi, _ = scale_window(a, n)
        degenerate = hi < lo
        exact = est.exact if est.exact is not None else _exact_a_n(model, eps, a, n)
        bound, eta, vacuous = _best_eta(a, n)
        partial += est.value
        rows.append(
            ANSeriesRow(
                scale=n,
                exact=exact,
                estimate=est.value,
                std_error=est.std_error,
                bound=bound,
                bound_eta=eta,
                bound_vacuous=vacuous,
                degenerate=degenerate,
                partial_sum=partial,
            )
        )
    verdict = _summability_verdict(rows)
    return ANSeriesReport(
        tuple(rows),
        verdict,
        params={
            "eps": eps,
            "a": a,
            "n_range": list(n_range),
            "trials": trials,
            "seed": seed,
        },
    )


def _summability_verdict(rows: list[ANSeriesRow]) -> str:
    values = [r.estimate for r in rows]
    if len(values) < 3:
        return "inconclusive"
    top = values[len(values) // 2 :]
    if all(v == 0.0 for v in top):
        return "summable"
    if all(v >= 0.999 for v in top):
        return "not-summable"
    decreasing = all(b <= a_ + 1e-12 for a_, b in zip(top, top[1:]))
    ratios = [b / a_ for a_, b in zip(top, top[1:]) if a_ > 0]
    ratio_ok = all(r < 1.0 for r in ratios) if ratios else True
    if decreasing and ratio_ok:
        return "summable"
    if not decreasing and any(r >= 1.0 for r in ratios):
        return "not-summable"
    return "inconclusive"
