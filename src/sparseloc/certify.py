"""Free-region search, shell constructions, and summability certificates.

Given sampled couplings, this module finds annuli where every coupling is
below eps, places decomposition surfaces through them, and certifies
that the weighted surface series sum_n sigma(S_n) exp(-gamma delta_n)
converges.  A verdict of "certified" combines the computed partial sum
with a tail argument: either an empirical geometric-ratio test over the
last stored scales or a symbolic per-scale bound carried by the
construction (valid on the almost-sure event that free annuli keep
appearing at every larger scale).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .geometry import (
    Ball,
    MemberInfo,
    PuncturedSphere,
    RegionSet,
    Sphere,
    TotalDecomposition,
    ball_volume,
    closed_form_sigma,
    distance_between,
    sanity_bound,
    spherical_cap,
    surface_volume_bound,
)
from .models import (
    CouplingMap, RandomPotentialModel, quasi_dimension_bound, require_window,
)

__all__ = [
    "FreeAnnulusRecord",
    "CertificateTerm",
    "ScaleSummary",
    "TailBound",
    "DecompositionCertificate",
    "is_epsilon_free",
    "find_free_subannulus",
    "free_intervals",
    "truncate_couplings",
    "difference_support",
    "build_decomposition_sparse",
    "build_shell_sequence_pp",
    "build_decomposition_quasi1d",
    "certify_ac",
    "certify_pp",
    "certify_series",
    "smallest_integer_above",
    "growth_ratio",
    "scale_window",
    "require_scale_window",
    "sphere_sigma_bound",
    "quasi1d_clearance_threshold",
    "quasi1d_threshold",
]

TAIL_WINDOW = 5  # scales used by the empirical geometric-ratio test
_TINY = 1e-300


# ---------------------------------------------------------------------------
# eps-free events
# ---------------------------------------------------------------------------


def is_epsilon_free(couplings: CouplingMap, region: RegionSet, eps: float) -> bool:
    """True when every coupling in the region is below eps (eps itself is bad)."""
    couplings.require_window(region)
    inside = region.contains(couplings.points)
    return bool(np.all(couplings.values[inside] < eps))


@dataclass(frozen=True)
class FreePiece:
    """One maximal free interval of inner radii, with endpoint attainability."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @property
    def representative(self) -> float:
        return self.lo if self.lo_closed else (self.lo + self.hi) / 2.0


def free_intervals(bad_norms, lo: float, hi: float, width: float) -> list[FreePiece]:
    """Maximal r-intervals in [lo, hi] whose annulus [r, r+width] avoids all bad norms.

    A bad site at norm v blocks exactly r in [v - width, v] (the annulus
    is closed), so the free set is [lo, hi] minus a finite union of
    closed intervals; the scan is exact, no sampling.
    """
    if hi < lo:
        return []
    bad = np.asarray(bad_norms, dtype=float)
    # duplicates need no np.unique: a repeated norm's block merges into its twin's
    bad = np.sort(bad[(bad >= lo) & (bad - width <= hi)])
    if bad.size == 0:
        return [FreePiece(lo, hi, True, True)]
    blocks: list[list[float]] = []
    for v in bad:
        start = v - width
        if blocks and start <= blocks[-1][1]:
            blocks[-1][1] = max(blocks[-1][1], v)
        else:
            blocks.append([start, v])
    pieces: list[FreePiece] = []
    cursor = lo
    cursor_blocked = False
    for start, end in blocks:
        if cursor < start:
            pieces.append(FreePiece(cursor, min(start, hi), not cursor_blocked, False))
        cursor = max(cursor, end)
        cursor_blocked = True
        if cursor >= hi:
            break
    if cursor < hi:
        pieces.append(FreePiece(cursor, hi, not cursor_blocked, True))
    elif cursor == hi and not cursor_blocked:
        pieces.append(FreePiece(hi, hi, True, True))
    out = []
    for piece in pieces:
        if piece.hi < piece.lo:
            continue
        if piece.hi == piece.lo and not (piece.lo_closed and piece.hi_closed):
            continue
        out.append(piece)
    return out


@dataclass(frozen=True)
class FreeAnnulusRecord:
    """Outcome of scanning one dyadic-like scale for an eps-free annulus."""

    scale: int
    inner_radius: float  # nan when not found
    width: float
    host: tuple[float, float]
    free: bool
    interval: tuple[float, float] | None = None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "inner_radius": None if math.isnan(self.inner_radius) else self.inner_radius,
            "width": self.width,
            "host": list(self.host),
            "free": self.free,
            "interval": list(self.interval) if self.interval else None,
            "degenerate": self.degenerate,
        }


def scale_window(a: float, n: int) -> tuple[float, float, float]:
    """The scale-n rule: (lo, hi, reach) = (a^n, a^(n+1) - n, max(a^(n+1), a^n + n)).

    An eps-free annulus of width n at scale n has its inner radius in
    [lo, hi] (empty when hi < lo), so the sites out to `reach` decide it.
    """
    if a <= 1.0:
        raise ValueError("growth ratio a must be > 1")
    lo, top = a**n, a ** (n + 1)
    return lo, top - n, max(top, lo + n)


def require_scale_window(window_radius: float, a: float, n: int) -> tuple[float, float, float]:
    """scale_window(a, n), or WindowTooSmallError when the window falls short of its reach."""
    lo, hi, reach = scale_window(a, n)
    require_window(window_radius, reach, f" needed at scale n={n}")
    return lo, hi, reach


def find_free_subannulus(
    couplings: CouplingMap, eps: float, a: float, n: int
) -> FreeAnnulusRecord:
    """Scan [a^n, a^(n+1) - n] for the first r with A_{r,r+n} eps-free.

    Sites with coupling >= eps block (the rule of `is_epsilon_free`).  The
    event is piecewise constant in r with breakpoints at site norms minus
    the width, so the scan is exact.  The representative of a free piece
    is its left endpoint when attained, else its midpoint.

    When the width exceeds the host annulus (small scales for a near 1)
    the candidate range would be empty; the scan still tries r = a^n so
    constructions can use every scale, and marks the record degenerate
    for the probability-side semantics.
    """
    if n < 1:
        raise ValueError("width n must be >= 1")
    lo, hi, _ = require_scale_window(couplings.window_radius, a, n)
    host = (lo, a ** (n + 1))
    degenerate = hi < lo
    bad = couplings.norms[couplings.values >= eps]
    pieces = free_intervals(bad, lo, max(hi, lo), float(n))
    if not pieces:
        return FreeAnnulusRecord(n, math.nan, float(n), host, False, None, degenerate)
    first = pieces[0]
    return FreeAnnulusRecord(
        n, float(first.representative), float(n), host, True, (first.lo, first.hi), degenerate
    )


def truncate_couplings(couplings: CouplingMap, eps: float) -> CouplingMap:
    """Pointwise minimum with eps (the comparison configuration)."""
    return CouplingMap(
        couplings.model,
        couplings.site_indices,
        np.minimum(couplings.values, eps),
        couplings.seed,
        couplings.window_radius,
        transform=f"truncated(eps={eps})",
    )


def difference_support(
    model: RandomPotentialModel, couplings: CouplingMap, eps: float
) -> RegionSet:
    """Conservative superset of where V differs from its eps-truncation.

    Union of balls B(i, rho_i) over sites with coupling >= eps; distances
    measured against it underestimate true clearances, which keeps
    certificates sound.
    """
    mask = couplings.values >= eps
    shapes = [
        Ball(tuple(point), model.potential_for(int(idx)).support_radius)
        for idx, point in zip(couplings.site_indices[mask], couplings.points[mask])
    ]
    return RegionSet(model.dimension, tuple(shapes))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def smallest_integer_above(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def growth_ratio(power: int, gamma: float) -> tuple[int, float]:
    """(ell, a = 1 + 1/ell) with ell the smallest integer above 2 power / gamma.

    Then a^power loses to exp(-gamma/2) per scale: power d-1 for sphere
    surfaces, d for annular volumes.
    """
    ell = smallest_integer_above(2.0 * power / gamma)
    return ell, 1.0 + 1.0 / ell


def _free_scan(
    couplings: CouplingMap, eps: float, a: float, n_range: tuple[int, int]
) -> list[FreeAnnulusRecord]:
    """find_free_subannulus at every scale of `n_range` (both ends included), in scale order."""
    return [find_free_subannulus(couplings, eps, a, n) for n in range(n_range[0], n_range[1] + 1)]


def _sphere_shells(
    couplings: CouplingMap,
    eps: float,
    ratio: tuple[int, float],
    tail_kind: str,
    n_range: tuple[int, int],
) -> TotalDecomposition:
    """Spheres through the middles of the eps-free annuli at growth ratio (ell, a).

    Each member at scale n keeps the clearance n/2 - rho; scales with no
    free annulus are reported as gaps.
    """
    model = couplings.model
    d = model.dimension
    ell, a = ratio
    rho = model.max_support_radius()
    members: list[RegionSet] = []
    info: list[MemberInfo] = []
    gaps: list[int] = []
    origin = tuple(np.zeros(d))
    records = _free_scan(couplings, eps, a, n_range)
    for rec in records:
        n = rec.scale
        if not rec.free:
            gaps.append(n)
            continue
        radius = rec.inner_radius + n / 2.0
        members.append(RegionSet(d, (Sphere(origin, radius),)))
        info.append(MemberInfo(scale=n, role="shell", clearance_bound=n / 2.0 - rho))
    return TotalDecomposition(
        dimension=d,
        members=tuple(members),
        kind="sphere-shells",
        member_info=tuple(info),
        params={
            "a": a,
            "ell": ell,
            "eps": eps,
            "rho": rho,
            "gaps": gaps,
            "free_records": [r.to_dict() for r in records],
            "tail": {"kind": tail_kind, "a": a, "rho": rho},
        },
    )


def build_decomposition_sparse(
    couplings: CouplingMap,
    eps: float,
    gamma: float,
    *,
    n_range: tuple[int, int],
) -> TotalDecomposition:
    """Spheres through the middles of eps-free annuli at dyadic-like scales.

    The growth ratio adapts to gamma: the smallest integer ell with
    ell > 2(d-1)/gamma gives a = 1 + 1/ell, so the surface growth
    a^(n(d-1)) loses to exp(-gamma n/2) and the series certifies for
    every gamma > 0.  Scales with no free annulus are reported as gaps.
    """
    ratio = growth_ratio(couplings.model.dimension - 1, gamma)
    return _sphere_shells(couplings, eps, ratio, "sphere-power", n_range)


def build_shell_sequence_pp(
    couplings: CouplingMap,
    eps: float,
    gamma: float,
    excluded_site: int | None = None,
    *,
    n_range: tuple[int, int],
) -> TotalDecomposition:
    """The spheres S_n bounding nested balls A_n, ignoring one distinguished site.

    Uses ell > 2d/gamma so the annular volumes a^((n+2)d) lose to
    exp(-gamma n/2).  The distinguished site's coupling never influences
    the construction (it is the perturbation parameter downstream).
    """
    model = couplings.model
    if excluded_site is None:
        excluded_site = model.distinguished_site
    keep = couplings.site_indices != excluded_site  # all True when excluded_site is None
    scan = CouplingMap(model, couplings.site_indices[keep], couplings.values[keep], couplings.seed,
                       couplings.window_radius, transform="distinguished-site-excluded")
    shells = _sphere_shells(scan, eps, growth_ratio(model.dimension, gamma), "volume-power", n_range)
    shells.params["excluded_site"] = excluded_site
    return shells


def quasi1d_clearance_threshold(a: float, alpha: float) -> float:
    """Smallest scale from which cheese points provably clear n^alpha.

    A site outside the free annulus but inside its n^alpha-neighborhood
    sits at radius within n^alpha + n/2 of the sphere radius while the
    cheese point is at least n^alpha away from the cap center, giving
    dist^2 >= n^2/4 + (1 - (n^alpha + n/2)/a^n) n^(2 alpha).  The
    threshold is where that right side reaches n^(2 alpha); inf when no
    n below 10000 qualifies (a near 1) or the terms overflow first (large
    alpha), so every cheese keeps n/2 - rho.
    """
    for n in range(1, 10_000):
        try:
            shrink = 1.0 - (n**alpha + n / 2.0) / a**n
            lhs = n**2 / 4.0 + shrink * n ** (2.0 * alpha)
            if shrink > 0.0 and lhs >= n ** (2.0 * alpha):
                return n
        except OverflowError:
            break
    return math.inf


def quasi1d_threshold(delta: float, c_quasi: float) -> float:
    """Minimal growth ratio (1-delta)^(-C) for quasi-1D free-annulus summability."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if c_quasi < 1.0:
        raise ValueError("quasi-1D constant must be >= 1")
    return (1.0 - delta) ** (-c_quasi)


def build_decomposition_quasi1d(
    couplings: CouplingMap,
    eps: float,
    alpha: float = 2.0,
    a: float = 2.0,
    *,
    n_range: tuple[int, int],
) -> TotalDecomposition:
    """Cap/cheese refinement of the free-annulus spheres for quasi-1D sites.

    Each sphere S_n splits into spherical caps around the directions of
    nearby sites (clearance only n/2 - rho) and the remaining cheese,
    whose clearance grows like n^alpha.  Refuses site sets that are not
    quasi-1D; warns when `a` is at or below the summability threshold
    (1 - delta)^(-C).
    """
    model = couplings.model
    d = model.dimension
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    if a <= 1.0:
        raise ValueError("growth ratio a must be > 1")
    r_max = min(model.sites.window_radius, couplings.window_radius)
    if not math.isfinite(r_max):
        r_max = float(np.max(couplings.norms)) if len(couplings) else 10.0
    qreport = quasi_dimension_bound(model.sites, 1.0, max(r_max - 1.0, 2.0))
    if not qreport.passed:
        raise ValueError(
            "site set is not quasi-1D on the window; the cap/cheese construction is unsound"
        )
    c_quasi = max(qreport.constant, 1.0)
    delta_sup = float(np.max(model.tail_masses(couplings.site_indices, eps))) if len(couplings) else 0.0
    threshold = quasi1d_threshold(delta_sup, c_quasi) if delta_sup < 1.0 else math.inf
    if a <= threshold:
        warnings.warn(
            f"a={a} is not above the free-annulus threshold {threshold:.4g}; "
            "free annuli may fail to appear at large scales",
            stacklevel=2,
        )
    rho = model.max_support_radius()
    # below this scale only the free-annulus clearance n/2 - rho is
    # guaranteed for the cheese; the n^alpha - rho bound needs large n
    n_threshold = quasi1d_clearance_threshold(a, alpha)
    norms = couplings.norms
    members: list[RegionSet] = []
    info: list[MemberInfo] = []
    gaps: list[int] = []
    cap_counts: list[dict] = []
    records = _free_scan(couplings, eps, a, n_range)
    for rec in records:
        n = rec.scale
        if not rec.free:
            gaps.append(n)
            continue
        r_n = rec.inner_radius
        radius = r_n + n / 2.0
        reach = float(n) ** alpha
        near = (
            ((norms >= r_n - reach) & (norms <= r_n))
            | ((norms >= r_n + n) & (norms <= r_n + n + reach))
        )
        neighbors = couplings.points[near]
        neighbor_norms = norms[near]
        if np.any(neighbor_norms == 0.0):
            # a site at the origin has no direction; the scale is unusable
            gaps.append(n)
            continue
        # distinct directions, in order of first appearance
        directions = list(dict.fromkeys(tuple(p / nn) for p, nn in zip(neighbors, neighbor_norms)))
        for u in directions:
            cap = spherical_cap(radius, u, reach)
            members.append(cap)
            info.append(
                MemberInfo(
                    scale=n,
                    role="cap",
                    clearance_bound=n / 2.0 - rho,
                    site=u,
                )
            )
        exclusions = tuple((u, reach) for u in directions)
        if exclusions:
            cheese = RegionSet(d, (PuncturedSphere(d, radius, exclusions),))
        else:
            cheese = RegionSet(d, (Sphere(tuple(np.zeros(d)), radius),))
        members.append(cheese)
        cheese_bound = (reach - rho) if n >= n_threshold else (n / 2.0 - rho)
        info.append(MemberInfo(scale=n, role="cheese", clearance_bound=cheese_bound))
        cap_counts.append(
            {
                "scale": n,
                "sites_near": int(np.count_nonzero(near)),
                "distinct_caps": len(directions),
                "raw_bound": 2.0 * reach + 2.0,
                "scaled_bound": 2.0 * c_quasi * (reach + 1.0),
            }
        )
    return TotalDecomposition(
        dimension=d,
        members=tuple(members),
        kind="cap-cheese",
        member_info=tuple(info),
        params={
            "a": a,
            "alpha": alpha,
            "eps": eps,
            "rho": rho,
            "gaps": gaps,
            "quasi1d_constant": c_quasi,
            "sup_p_eps": delta_sup,
            "threshold_a": threshold,
            "clearance_threshold_n": n_threshold,
            "cap_counts": cap_counts,
            "free_records": [r.to_dict() for r in records],
            "tail": {
                "kind": "cap-cheese",
                "a": a,
                "alpha": alpha,
                "rho": rho,
                "quasi1d_constant": c_quasi,
            },
        },
    )


# ---------------------------------------------------------------------------
# Tail rules
# ---------------------------------------------------------------------------


def sphere_sigma_bound(radius: float, dimension: int) -> float:
    """Analytic upper bound on sigma of a sphere: 2 d w_d (R + 2)^(d-1)."""
    d = dimension
    return 2.0 * d * ball_volume(1.0, d) * (radius + 2.0) ** (d - 1)


@dataclass(frozen=True)
class _TailRule:
    kind: str
    dimension: int
    a: float
    rho: float
    alpha: float = 2.0
    quasi1d_constant: float = 1.0

    def term_bound(self, n: int, gamma: float) -> float:
        d = self.dimension
        a = self.a
        if self.kind == "sphere-power":
            radius = a ** (n + 1) + n / 2.0
            return sphere_sigma_bound(radius, d) * math.exp(-gamma * (n / 2.0 - self.rho))
        if self.kind == "volume-power":
            radius = a ** (n + 2) + (n + 1) / 2.0
            return ball_volume(radius, d) * math.exp(-gamma * (n / 2.0 - self.rho))
        if self.kind == "cap-cheese":
            reach = float(n) ** self.alpha
            caps = (
                2.0
                * self.quasi1d_constant
                * (reach + 1.0)
                * surface_volume_bound(2.0 * reach, d)
                * math.exp(-gamma * (n / 2.0 - self.rho))
            )
            cheese_radius = a ** (n + 1) + n / 2.0
            cheese = surface_volume_bound(2.0 * cheese_radius, d) * math.exp(
                -gamma * (reach - self.rho)
            )
            return caps + cheese
        raise ValueError(f"unknown tail rule kind {self.kind!r}")

    def ratio_limit(self, gamma: float) -> float:
        d = self.dimension
        if self.kind == "sphere-power":
            return self.a ** (d - 1) * math.exp(-gamma / 2.0)
        if self.kind == "volume-power":
            return self.a**d * math.exp(-gamma / 2.0)
        if self.kind == "cap-cheese":
            return math.exp(-gamma / 2.0)
        raise ValueError(self.kind)

    def _finite_term_bound(self, n: int, gamma: float) -> float | None:
        """term_bound, or None when it overflows or is not finite."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = self.term_bound(n, gamma)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None

    def tail_sum(self, n_from: int, gamma: float) -> tuple[float, int]:
        """Bound on the sum over scales > n_from, with the geometric crossover.

        A term that overflows makes the bound inf, so it certifies nothing.
        """
        limit = self.ratio_limit(gamma)
        if limit >= 1.0:
            return math.inf, n_from
        q_star = (1.0 + limit) / 2.0
        total = 0.0
        n = n_from + 1
        prev = self._finite_term_bound(n, gamma)
        if prev is None:
            return math.inf, n
        total += prev
        for _ in range(20_000):
            nxt = self._finite_term_bound(n + 1, gamma)
            if nxt is None:
                return math.inf, n + 1
            if prev > 0 and nxt / prev <= q_star:
                return total + nxt / (1.0 - q_star), n + 1
            total += nxt
            prev = nxt
            n += 1
            if nxt < _TINY:
                return total, n
        return math.inf, n


def _tail_rule_from_params(params: dict, dimension: int) -> _TailRule | None:
    rec = params.get("tail")
    if not rec:
        return None
    return _TailRule(
        kind=rec["kind"],
        dimension=dimension,
        a=rec["a"],
        rho=rec.get("rho", 0.0),
        alpha=rec.get("alpha", 2.0),
        quasi1d_constant=rec.get("quasi1d_constant", 1.0),
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateTerm:
    scale: int
    member: int
    role: str
    clearance: float  # distance to the difference support
    surface: float  # sigma(S_n), or annular volume for the pp variant
    value: float  # surface * exp(-gamma * clearance)
    clearance_floor: float | None = None  # construction guarantee, if any


@dataclass(frozen=True)
class ScaleSummary:
    scale: int
    term_sum: float
    min_clearance: float


@dataclass(frozen=True)
class TailBound:
    kind: str
    ratio_limit: float
    sum_bound: float
    crossover_scale: int


@dataclass(frozen=True, eq=False)
class DecompositionCertificate:
    """Summability evidence for one decomposition against one difference set."""

    kind: str  # ac | pp | series
    gamma: float
    terms: tuple[CertificateTerm, ...]
    scales: tuple[ScaleSummary, ...]
    partial_sum: float
    empirical_tail_ratio: float | None
    tail: TailBound | None
    verdict: str  # certified | not-certified | inconclusive
    witnesses: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    def recomputed_values(self) -> np.ndarray:
        return np.array(
            [t.surface * math.exp(-self.gamma * t.clearance) if math.isfinite(t.clearance)
             else 0.0 for t in self.terms]
        )

    def to_records(self) -> list[dict]:
        head = {
            "record": "certificate",
            "kind": self.kind,
            "gamma": self.gamma,
            "verdict": self.verdict,
            "partial_sum": self.partial_sum,
            "empirical_tail_ratio": self.empirical_tail_ratio,
            "tail": None
            if self.tail is None
            else {
                "kind": self.tail.kind,
                "ratio_limit": self.tail.ratio_limit,
                "sum_bound": self.tail.sum_bound,
                "crossover_scale": self.tail.crossover_scale,
            },
            "witnesses": list(self.witnesses),
            "term_count": len(self.terms),
        }
        rows = [
            {
                "record": "term",
                "scale": t.scale,
                "member": t.member,
                "role": t.role,
                "clearance": t.clearance if math.isfinite(t.clearance) else None,
                "surface": t.surface,
                "value": t.value,
            }
            for t in self.terms
        ]
        return [head] + rows


def _member_sigma(member: RegionSet) -> float:
    if member.is_empty():
        return 0.0
    exact = closed_form_sigma(member)
    if exact is not None:
        return exact
    # caps and cheese fall back to the diameter-based volume bound
    return sanity_bound(member)


def _scale_summaries(terms: list[CertificateTerm]) -> list[ScaleSummary]:
    by_scale: dict[int, list[CertificateTerm]] = {}
    for t in terms:
        by_scale.setdefault(t.scale, []).append(t)
    out = []
    for scale in sorted(by_scale):
        group = by_scale[scale]
        out.append(
            ScaleSummary(
                scale=scale,
                term_sum=float(sum(t.value for t in group)),
                min_clearance=float(min(t.clearance for t in group)),
            )
        )
    return out


def _empirical_tail_ratio(scales: list[ScaleSummary]) -> float | None:
    sums = [s.term_sum for s in scales[-(TAIL_WINDOW + 1):]]
    ratios = []
    for prev, nxt in zip(sums, sums[1:]):
        if prev > _TINY:
            ratios.append(nxt / prev)
        elif nxt > _TINY:
            ratios.append(math.inf)
    if not ratios:
        return 0.0 if sums and max(sums) <= _TINY else None
    return float(max(ratios))


def _clearance_trend_ok(scales: list[ScaleSummary], terms: list[CertificateTerm]) -> bool:
    """Do the clearances trend to infinity?

    When every term carries a construction floor that its clearance
    respects, the floors are the trend: they must grow across scales.
    Otherwise fall back to the running lower envelope of the observed
    per-scale minima, which must strictly increase over the range.
    """
    clearances = [s.min_clearance for s in scales]
    if all(math.isinf(c) for c in clearances):
        return True
    floors_ok = all(
        t.clearance_floor is not None and t.clearance >= t.clearance_floor - 1e-9
        for t in terms
    )
    if floors_ok:
        by_scale: dict[int, float] = {}
        for t in terms:
            by_scale[t.scale] = min(by_scale.get(t.scale, math.inf), t.clearance_floor)
        floors = [by_scale[s.scale] for s in scales]
        return all(b > a for a, b in zip(floors, floors[1:]))
    envelope = np.minimum.accumulate(np.array(clearances)[::-1])[::-1]
    return bool(envelope[-1] > envelope[0]) or len(clearances) == 1


def _build_certificate(
    kind: str,
    gamma: float,
    rows: Iterable[tuple],
    tail_rule: _TailRule | None,
    params: dict,
) -> DecompositionCertificate:
    """The certificate of the gamma-free `rows` (scale, member, role, clearance,
    surface, floor): each adds surface * exp(-gamma clearance), 0 at infinite clearance."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    terms = [
        CertificateTerm(scale, member, role, delta, sigma,
                        0.0 if math.isinf(delta) else sigma * math.exp(-gamma * delta), floor)
        for scale, member, role, delta, sigma, floor in rows
    ]
    scales = _scale_summaries(terms)
    partial = float(sum(t.value for t in terms))
    witnesses = [
        f"scale {t.scale} member {t.member} ({t.role}) has clearance {t.clearance:g} <= 0"
        for t in terms
        if t.clearance <= 0.0
    ]
    ratio = _empirical_tail_ratio(scales)
    tail: TailBound | None = None
    symbolic_ok = False
    symbolic_bad = False
    if tail_rule is not None:
        limit = tail_rule.ratio_limit(gamma)
        if limit < 1.0 and scales:
            sum_bound, crossover = tail_rule.tail_sum(scales[-1].scale, gamma)
            tail = TailBound(tail_rule.kind, limit, sum_bound, crossover)
            symbolic_ok = math.isfinite(sum_bound)
        else:
            tail = TailBound(tail_rule.kind, limit, math.inf, 0)
            symbolic_bad = True

    if witnesses:
        verdict = "not-certified"
    elif not scales or len(scales) < 2:
        verdict = "inconclusive"
    elif not _clearance_trend_ok(scales, terms):
        verdict = "inconclusive"
    else:
        empirical_ok = ratio is not None and ratio < 1.0
        empirical_bad = ratio is not None and ratio > 1.0 + 1e-9
        if symbolic_ok or empirical_ok:
            verdict = "certified"
        elif symbolic_bad or (tail_rule is None and empirical_bad):
            verdict = "not-certified"
        else:
            verdict = "inconclusive"
    return DecompositionCertificate(
        kind=kind,
        gamma=gamma,
        terms=tuple(terms),
        scales=tuple(scales),
        partial_sum=partial,
        empirical_tail_ratio=ratio,
        tail=tail,
        verdict=verdict,
        witnesses=tuple(witnesses),
        params=params,
    )


def _member_infos(td: TotalDecomposition) -> tuple[MemberInfo, ...]:
    """The members' info; scale = index when the decomposition carries none."""
    return td.member_info or tuple(MemberInfo(scale=i) for i in range(len(td.members)))


@functools.lru_cache(maxsize=8)
def _ac_rows(decomposition: TotalDecomposition, diff_support: RegionSet) -> tuple[tuple, ...]:
    """certify_ac's gamma-free rows, once per (decomposition by identity, support)."""
    return tuple(
        (info.scale, idx, info.role, distance_between(diff_support, member),
         _member_sigma(member), info.clearance_bound)
        for idx, (member, info) in enumerate(zip(decomposition.members, _member_infos(decomposition)))
    )


def certify_ac(
    decomposition: TotalDecomposition,
    diff_support: RegionSet,
    gamma: float,
) -> DecompositionCertificate:
    """Certificate for sum_n sigma(S_n) exp(-gamma dist(S_n, diff_support)).

    Clearances are exact (the difference support is a ball union); sigma
    uses closed forms for spheres and the diameter volume bound for caps
    and cheese, both upper bounds, so a certified verdict is sound.  Both
    are computed once per (decomposition, support), whatever the gammas.
    """

    def rows():  # lazy, so that gamma is checked before any clearance
        yield from _ac_rows(decomposition, diff_support)

    tail_rule = _tail_rule_from_params(decomposition.params, decomposition.dimension)
    return _build_certificate(
        "ac", gamma, rows(), tail_rule, {"decomposition_kind": decomposition.kind}
    )


def certify_pp(
    shells: TotalDecomposition,
    diff_support: RegionSet,
    gamma: float,
) -> DecompositionCertificate:
    """Certificate for sum_n |A_{n+1} \\ A_{n-1}| exp(-gamma delta'_n).

    A_n is the ball bounded by the n-th member sphere of `shells`.
    delta'_n also penalizes crowding of consecutive shells:
    min(dist(S_n, diff), half the gap to the neighboring spheres).
    Terms exist for interior shells only (both neighbors stored).
    """
    d = shells.dimension
    radii = [member.shapes[0].radius for member in shells.members]
    infos = _member_infos(shells)
    rows = []
    for i in range(1, len(radii) - 1):
        gap = 0.5 * min(radii[i] - radii[i - 1], radii[i + 1] - radii[i])
        clearance = min(distance_between(diff_support, shells.members[i]), gap)
        volume = ball_volume(radii[i + 1], d) - ball_volume(radii[i - 1], d)
        rows.append((infos[i].scale, i, "shell", clearance, volume, infos[i].clearance_bound))
    tail_rule = _tail_rule_from_params(shells.params, d)
    return _build_certificate("pp", gamma, rows, tail_rule, {"radii": radii})


def certify_series(clearances, surfaces, gamma: float) -> DecompositionCertificate:
    """Certificate from explicit per-scale clearance and surface values.

    Low-level entry used for plug-in checks of the convergence criterion
    without building geometry.
    """
    clearances = [float(c) for c in clearances]
    surfaces = [float(s) for s in surfaces]
    if len(clearances) != len(surfaces):
        raise ValueError("clearances and surfaces must have equal length")
    rows = (
        (i, i, "series", delta, sigma, None)
        for i, (delta, sigma) in enumerate(zip(clearances, surfaces))
    )
    return _build_certificate("series", gamma, rows, None, {})
