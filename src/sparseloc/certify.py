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
    SphericalCap,
    TotalDecomposition,
    ball_volume,
    closed_form_sigma,
    distance_between,
    sanity_bound,
    surface_volume_bound,
)
from .models import (
    CouplingMap, RandomPotentialModel, WindowTooSmallError, quasi_dimension_bound, require_window,
)

__all__ = [
    "FreeAnnulusRecord",
    "CertificateTerm",
    "ScaleSummary",
    "TailBound",
    "DecompositionCertificate",
    "find_free_subannulus",
    "free_intervals",
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


def _power(a: float, n: int) -> float:
    """a^n, inf where it leaves the float range."""
    try:
        return a**n
    except OverflowError:
        return math.inf


def scale_window(a: float, n: int) -> tuple[float, float, float]:
    """The scale-n rule: (lo, hi, reach) = (a^n, a^(n+1) - n, max(a^(n+1), a^n + n)).

    An eps-free annulus of width n at scale n has its inner radius in
    [lo, hi] (empty when hi < lo), so the sites out to `reach` decide it.
    A power beyond the float range is inf, and so is the reach.
    """
    if a <= 1.0:
        raise ValueError("growth ratio a must be > 1")
    lo, top = _power(a, n), _power(a, n + 1)
    return lo, top - n, max(top, lo + n)


def require_scale_window(window_radius: float, a: float, n: int) -> tuple[float, float, float]:
    """scale_window(a, n), or WindowTooSmallError when the window falls short of its
    reach; no window, not even an unbounded one, covers an infinite reach."""
    lo, hi, reach = scale_window(a, n)
    require_window(window_radius, reach, f" needed at scale n={n}")
    if reach == math.inf:
        raise WindowTooSmallError(f"no window covers the infinite reach of scale n={n} at a={a}")
    return lo, hi, reach


def find_free_subannulus(
    couplings: CouplingMap, eps: float, a: float, n: int
) -> FreeAnnulusRecord:
    """Scan [a^n, a^(n+1) - n] for the first r with A_{r,r+n} eps-free.

    Sites with coupling >= eps block: eps itself is bad.  The
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


def difference_support(
    model: RandomPotentialModel, couplings: CouplingMap, eps: float
) -> RegionSet:
    """Conservative superset of where V differs from its eps-truncation.

    Union of balls B(i, rho) over sites with coupling >= eps; distances
    measured against it underestimate true clearances, which keeps
    certificates sound.
    """
    rho = model.max_support_radius()
    bad = couplings.points[couplings.values >= eps]
    return RegionSet(model.dimension, tuple(Ball(tuple(point), rho) for point in bad))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def smallest_integer_above(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def growth_ratio(power: int, gamma: float) -> tuple[int, float]:
    """(ell, a = 1 + 1/ell) with ell the smallest integer above 2 power / gamma.

    Then a^power loses to exp(-gamma/2) per scale: power d-1 for sphere
    surfaces, d for annular volumes.  ValueError when gamma is so small
    that a rounds to 1.
    """
    x = 2.0 * power / gamma
    ell = smallest_integer_above(x) if x < math.inf else math.inf
    a = 1.0 + 1.0 / ell
    if a == 1.0:
        raise ValueError(f"gamma {gamma} is too small: the growth ratio 1 + 1/ell rounds to 1")
    return ell, a


def _shells(couplings, eps, rule, n_range, members_at, kind, **params) -> TotalDecomposition:
    """The decomposition of `rule`'s kind over the scales of `n_range` (both ends included).

    Each free scale's sphere runs through the middle of its eps-free annulus,
    and `members_at(rec, radius)` gives the scale's (shape, MemberInfo) pairs,
    or None when the scale is unusable.  Scales with no free annulus and
    unusable ones are reported as gaps.  `params` join the shared ones.
    """
    d = couplings.model.dimension
    members: list[RegionSet] = []
    info: list[MemberInfo] = []
    gaps: list[int] = []
    scales = range(n_range[0], n_range[1] + 1)
    records = [find_free_subannulus(couplings, eps, rule.a, n) for n in scales]
    for rec in records:
        built = members_at(rec, rec.inner_radius + rec.scale / 2.0) if rec.free else None
        if built is None:
            gaps.append(rec.scale)
            continue
        for shape, meta in built:
            members.append(RegionSet(d, (shape,)))
            info.append(meta)
    return TotalDecomposition(
        dimension=d,
        members=tuple(members),
        kind=kind,
        member_info=tuple(info),
        params=dict(a=rule.a, eps=eps, rho=rule.rho, gaps=gaps, tail=rule.record(),
                    free_records=[r.to_dict() for r in records], **params),
    )


def _sphere_shells(couplings, eps, rule, n_range, **params) -> TotalDecomposition:
    """One sphere per free scale, each keeping the floor of `rule`'s shells."""
    origin = tuple(np.zeros(couplings.model.dimension))

    def sphere(rec, radius):
        return [(Sphere(origin, radius), MemberInfo(rec.scale, "shell", rule.floor(rec.scale, "shell")))]

    return _shells(couplings, eps, rule, n_range, sphere, "sphere-shells", **params)


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
    model = couplings.model
    ell, a = growth_ratio(model.dimension - 1, gamma)
    rule = _TailRule("sphere-power", model.dimension, a, model.max_support_radius())
    return _sphere_shells(couplings, eps, rule, n_range, ell=ell)


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
                       couplings.window_radius)
    ell, a = growth_ratio(model.dimension, gamma)
    rule = _TailRule("volume-power", model.dimension, a, model.max_support_radius())
    return _sphere_shells(scan, eps, rule, n_range, ell=ell, excluded_site=excluded_site)


def quasi1d_clearance_threshold(a: float, alpha: float) -> float:
    """Smallest scale from which cheese points provably clear n^alpha, there
    and at every larger scale.

    A site outside the free annulus but inside its n^alpha-neighborhood
    sits at radius within n^alpha + n/2 of the sphere radius while the
    cheese point is at least n^alpha away from the cap center, giving
    dist^2 >= n^2/4 + (1 - (n^alpha + n/2)/a^n) n^(2 alpha).  That right
    side reaches n^(2 alpha) exactly when a^n n^2/4 >= (n^alpha + n/2) n^(2 alpha),
    that is, in logarithms, when

        f(n) = n ln a - (3 alpha - 2) ln n - ln 4 - ln(1 + n^(1-alpha)/2) >= 0.

    f is not monotone: at a = 6, alpha = 3 it holds at n = 1, fails at
    n = 2..9 and holds from n = 10.  But its last term decreases for
    alpha > 1, so f'(x) > ln a - (3 alpha - 2)/x >= 0 from
    x0 = (3 alpha - 2)/ln a on, and once f holds at a scale at or past x0
    it holds at every larger one.  The threshold is one past the last
    failure below the first such scale.  inf when no n below 10000
    qualifies (a near 1, large alpha) or a^n overflows there, past every
    scale a run reaches; every cheese then keeps n/2 - rho.
    """
    if not a > 1.0:
        return math.inf
    log_a = math.log(a)

    def holds(n: int) -> bool:
        gain = n * log_a + 2.0 * math.log(n) - math.log(4.0)
        return gain >= 3.0 * alpha * math.log(n) + math.log1p(n ** (1.0 - alpha) / 2.0)

    x0 = (3.0 * alpha - 2.0) / log_a
    if not x0 < 10_000:  # also NaN
        return math.inf
    n = max(1, math.ceil(x0))
    while n < 10_000 and not holds(n):
        n += 1
    if n >= 10_000 or _power(float(a), n) == math.inf:
        return math.inf
    while n > 1 and holds(n - 1):
        n -= 1
    return n


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
    whose clearance grows like n^alpha; a scale whose cap balls swallow
    the sphere is one cap member, the sphere.  Refuses site sets that are not
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
    rule = _TailRule("cap-cheese", d, a, model.max_support_radius(), alpha, c_quasi)
    norms = couplings.norms
    origin = tuple(np.zeros(d))
    cap_counts: list[dict] = []  # one row per usable scale, filled as _shells scans

    def caps_and_cheese(rec, radius):
        n, r_n = rec.scale, rec.inner_radius
        # a cap ball at least the sphere's diameter already covers the sphere, so an
        # infinite reach builds what a large finite one does
        reach = _power(float(n), alpha)
        near = (
            ((norms >= r_n - reach) & (norms <= r_n))
            | ((norms >= r_n + n) & (norms <= r_n + n + reach))
        )
        neighbors = couplings.points[near]
        neighbor_norms = norms[near]
        if np.any(neighbor_norms == 0.0):
            return None  # a site at the origin has no direction; the scale is unusable
        # distinct directions, in order of first appearance, and their unit vectors
        directions = list(dict.fromkeys(map(tuple, (neighbors / neighbor_norms[:, None]).tolist())))
        units = [tuple(np.divide(u, float(np.linalg.norm(u)))) for u in directions]
        cap_counts.append({"scale": n, "sites_near": int(np.count_nonzero(near)),
                           "distinct_caps": len(directions), "raw_bound": 2.0 * reach + 2.0,
                           "scaled_bound": 2.0 * c_quasi * (reach + 1.0)})
        sphere = Sphere(origin, radius)
        if not units:
            return [(sphere, MemberInfo(n, "cheese", rule.floor(n, "cheese")))]
        if reach >= 2.0 * radius:
            # every cap ball swallows the sphere: one cap is the whole sphere, no cheese is left
            return [(sphere, MemberInfo(n, "cap", rule.floor(n, "cap")))]
        members = [
            (SphericalCap(radius, unit, reach), MemberInfo(n, "cap", rule.floor(n, "cap"), site=u))
            for u, unit in zip(directions, units)
        ]
        cheese = PuncturedSphere(d, radius, tuple((unit, reach) for unit in units))
        return members + [(cheese, MemberInfo(n, "cheese", rule.floor(n, "cheese")))]

    return _shells(couplings, eps, rule, n_range, caps_and_cheese, "cap-cheese", alpha=alpha,
                   quasi1d_constant=c_quasi, sup_p_eps=delta_sup, threshold_a=threshold,
                   clearance_threshold_n=rule.clearance_threshold_n, cap_counts=cap_counts)


# ---------------------------------------------------------------------------
# Tail rules
# ---------------------------------------------------------------------------


def sphere_sigma_bound(radius: float, dimension: int) -> float:
    """Analytic upper bound on sigma of a sphere: 2 d w_d (R + 2)^(d-1)."""
    d = dimension
    return 2.0 * d * ball_volume(1.0, d) * (radius + 2.0) ** (d - 1)


@dataclass(frozen=True)
class _TailRule:
    """The rule of one decomposition kind (`sphere-power`, `volume-power` or
    `cap-cheese`): the clearance floor that a member keeps at scale n, and
    the bound on the terms past the stored scales."""

    kind: str
    dimension: int
    a: float
    rho: float
    alpha: float = 2.0
    quasi1d_constant: float = 1.0

    @functools.cached_property
    def clearance_threshold_n(self) -> float:
        """The scale from which a cheese keeps n^alpha - rho."""
        return quasi1d_clearance_threshold(self.a, self.alpha)

    def floor(self, n: int, role: str) -> float:
        """The clearance a member of `role` keeps at scale n: the free annulus's
        n/2 - rho, or n^alpha - rho for a cheese from clearance_threshold_n on."""
        if role == "cheese" and n >= self.clearance_threshold_n:
            return _power(float(n), self.alpha) - self.rho
        return n / 2.0 - self.rho

    def record(self) -> dict:
        """The `tail` entry of a builder's params, which _tail_rule_from_params reads."""
        rec = {"kind": self.kind, "a": self.a, "rho": self.rho}
        if self.kind == "cap-cheese":
            rec.update(alpha=self.alpha, quasi1d_constant=self.quasi1d_constant)
        return rec

    def term_bound(self, n: int, gamma: float) -> float:
        d = self.dimension
        a = self.a
        if self.kind == "sphere-power":
            radius = a ** (n + 1) + n / 2.0
            return sphere_sigma_bound(radius, d) * math.exp(-gamma * self.floor(n, "shell"))
        if self.kind == "volume-power":
            radius = a ** (n + 2) + (n + 1) / 2.0
            return ball_volume(radius, d) * math.exp(-gamma * self.floor(n, "shell"))
        if self.kind == "cap-cheese":
            reach = float(n) ** self.alpha
            caps = (
                2.0
                * self.quasi1d_constant
                * (reach + 1.0)
                * surface_volume_bound(2.0 * reach, d)
                * math.exp(-gamma * self.floor(n, "cap"))
            )
            # the cheese term takes n^alpha - rho at every n, though below
            # clearance_threshold_n its floor is only n/2 - rho; reading the
            # floor here would move every cap-cheese sum_bound
            cheese_radius = a ** (n + 1) + n / 2.0
            cheese = surface_volume_bound(2.0 * cheese_radius, d) * math.exp(
                -gamma * (reach - self.rho)
            )
            return caps + cheese
        raise ValueError(f"unknown tail rule kind {self.kind!r}")

    def ratio_limit(self, gamma: float) -> float:
        """a^k exp(-gamma/2), k the power of a at which the kind's surface grows."""
        k = {"sphere-power": self.dimension - 1, "volume-power": self.dimension, "cap-cheese": 0}
        return self.a ** k[self.kind] * math.exp(-gamma / 2.0)

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

        A term that overflows makes the bound inf, so it certifies nothing;
        so do terms that never reach the crossover within 20,000 scales.  A
        term below _TINY ends the sum without a geometric remainder: what it
        drops is below the rounding of the sum, a gap that terms evaluated as
        logarithms would close.
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
    return _TailRule(dimension=dimension, **rec) if rec else None


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


def _surface_weight(member: RegionSet) -> float:
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
         _surface_weight(member), info.clearance_bound)
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
