"""Random potential models: scatterer sites, coupling laws, sampling.

A model is a uniformly discrete site set, one compactly supported bump
shared by every site, a coupling distribution per site (supported in
[0,1]) and a deterministic background.  The constructors refuse repeated
sites, laws off [0,1] and a distinguished site whose bump is 0 at its
centre.  Sampling is counter-based per site, so coupling draws depend only
on (seed, site) and never on iteration order.  `KINDS` maps each kind of
a config's model components to its constructor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _rng
from .geometry import RegionSet

__all__ = [
    "CouplingLaw",
    "LawAssignment",
    "SiteSet",
    "SingleSitePotential",
    "BackgroundPotential",
    "RandomPotentialModel",
    "CouplingMap",
    "WindowTooSmallError",
    "require_window",
    "sample_couplings",
    "evaluate_potential",
    "quasi_dimension_bound",
    "model_from_dict",
    "KINDS",
]


class WindowTooSmallError(ValueError):
    """A query needs couplings or sites outside the sampled window."""


def require_window(window_radius: float, needed: float, what: str = "") -> None:
    """The one window rule: a window covers a radius up to 1e-9 beyond its own."""
    if window_radius + 1e-9 < needed:
        raise WindowTooSmallError(
            f"window radius {window_radius:.3f} does not cover radius {needed:.3f}{what}"
        )


# ---------------------------------------------------------------------------
# Coupling laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingLaw:
    """Probability law on [0,1] stored as atoms plus uniform-density pieces.

    Every supported kind reduces to this canonical form, which makes the
    tail mass, absolutely continuous mass and quantile function exact (no
    quadrature).
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()  # (lo, hi, mass)

    def __post_init__(self):
        total = sum(w for _, w in self.atoms) + sum(m for _, _, m in self.segments)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"law mass {total} != 1")
        for x, w in self.atoms:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"atom at {x} outside [0,1]")
            if w < 0:
                raise ValueError("negative atom mass")
        for lo, hi, m in self.segments:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"segment [{lo},{hi}] invalid or outside [0,1]")
            if m < 0:
                raise ValueError("negative segment mass")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point_masses(atoms: dict[float, float] | list[tuple[float, float]]) -> "CouplingLaw":
        items = sorted(atoms.items() if isinstance(atoms, dict) else atoms)
        return CouplingLaw("point_masses", atoms=tuple((float(x), float(w)) for x, w in items))

    @staticmethod
    def delta(value: float) -> "CouplingLaw":
        return CouplingLaw("point_masses", atoms=((float(value), 1.0),))

    @staticmethod
    def bernoulli(p: float) -> "CouplingLaw":
        if not (0.0 <= p <= 1.0):
            raise ValueError("bernoulli p must be in [0,1]")
        return CouplingLaw("bernoulli", atoms=((0.0, 1.0 - p), (1.0, p)))

    @staticmethod
    def uniform(lo: float = 0.0, hi: float = 1.0) -> "CouplingLaw":
        return CouplingLaw("uniform_interval", segments=((float(lo), float(hi), 1.0),))

    @staticmethod
    def bernoulli_times_uniform(p: float, lo: float = 0.0, hi: float = 1.0) -> "CouplingLaw":
        """Product q * xi with xi Bernoulli(p) and q uniform on [lo, hi]."""
        if not (0.0 <= p <= 1.0):
            raise ValueError("p must be in [0,1]")
        atoms = ((0.0, 1.0 - p),) if p < 1.0 else ()
        segments = ((float(lo), float(hi), p),) if p > 0.0 else ()
        return CouplingLaw("bernoulli_times_density", atoms=atoms, segments=segments)

    # -- exact functionals ---------------------------------------------------

    def tail_mass(self, eps: float) -> float:
        """mu([eps, 1])."""
        total = sum(w for x, w in self.atoms if x >= eps)
        for lo, hi, m in self.segments:
            if hi <= eps:
                continue
            lo_eff = max(lo, eps)
            total += m * (hi - lo_eff) / (hi - lo)
        return min(total, 1.0)

    def ac_mass(self) -> float:
        return sum(m for _, _, m in self.segments)

    # -- quantile (single uniform draw -> coupling; monotone in the draw) ----

    @cached_property
    def _quantile_tables(self):
        xs = sorted({x for x, _ in self.atoms} | {e for lo, hi, _ in self.segments for e in (lo, hi)})
        xs = np.array(xs)
        jump = np.zeros(xs.size)
        for x, w in self.atoms:
            jump[np.searchsorted(xs, x)] += w
        density = np.zeros(xs.size - 1) if xs.size > 1 else np.zeros(0)
        for lo, hi, m in self.segments:
            i0, i1 = np.searchsorted(xs, lo), np.searchsorted(xs, hi)
            for i in range(i0, i1):
                density[i] += m / (hi - lo)
        f_left = np.zeros(xs.size)
        f_right = np.zeros(xs.size)
        acc = 0.0
        for i in range(xs.size):
            f_left[i] = acc
            acc += jump[i]
            f_right[i] = acc
            if i < xs.size - 1:
                acc += density[i] * (xs[i + 1] - xs[i])
        return xs, f_left, f_right

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Generalized inverse CDF, vectorized and nondecreasing in u."""
        xs, f_left, f_right = self._quantile_tables
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(f_right, u, side="left")
        idx = np.clip(idx, 0, xs.size - 1)
        in_jump = u >= f_left[idx]
        out = np.where(in_jump, xs[idx], 0.0)
        seg = ~in_jump
        if np.any(seg):
            j = idx[seg]
            lo_f, hi_f = f_right[j - 1], f_left[j]
            frac = np.where(hi_f > lo_f, (u[seg] - lo_f) / (hi_f - lo_f), 0.0)
            out[seg] = xs[j - 1] + frac * (xs[j] - xs[j - 1])
        return out


# ---------------------------------------------------------------------------
# Law assignment: site -> law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LawAssignment:
    """Rule assigning a coupling law to each site.

    kinds: "shared" (one law), "radial_bernoulli" (Bernoulli with
    p = min(cap, |site|^-tau)), "per_site" (explicit list aligned with the
    canonical site order).
    """

    kind: str
    shared: CouplingLaw | None = None
    tau: float | None = None
    cap: float = 1.0
    per_site: tuple[CouplingLaw, ...] = ()

    @staticmethod
    def shared_law(law: CouplingLaw) -> "LawAssignment":
        return LawAssignment("shared", shared=law)

    @staticmethod
    def radial_bernoulli(tau: float, cap: float = 1.0) -> "LawAssignment":
        if not tau >= 0:
            raise ValueError(f"radial_bernoulli tau {tau} is not >= 0")
        if not (0.0 <= cap <= 1.0):
            raise ValueError(f"radial_bernoulli cap {cap} is outside [0,1]")
        return LawAssignment("radial_bernoulli", tau=tau, cap=cap)

    @staticmethod
    def per_site_laws(laws) -> "LawAssignment":
        return LawAssignment("per_site", per_site=tuple(laws))

    def _bernoulli_p(self, points: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(points, axis=1)
        with np.errstate(divide="ignore"):
            p = np.where(norms > 0.0, norms ** (-self.tau), np.inf)
        return np.minimum(p, self.cap)

    def tail_masses(self, points: np.ndarray, indices: np.ndarray, eps: float) -> np.ndarray:
        """p_i(eps) for many sites at once."""
        if eps <= 0.0 or eps > 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.kind == "shared":
            return np.full(len(points), self.shared.tail_mass(eps))
        if self.kind == "radial_bernoulli":
            return self._bernoulli_p(points)
        return np.array([self.per_site[i].tail_mass(eps) for i in indices])

    def bad_mask(self, points: np.ndarray, indices: np.ndarray, u: np.ndarray, eps: float) -> np.ndarray:
        """transform(points, indices, u) >= eps.  A radial Bernoulli coupling is 1 where
        u > 1 - p and 0 elsewhere, so for eps in (0, 1] that comparison alone decides."""
        if self.kind == "radial_bernoulli" and 0.0 < eps <= 1.0:
            return u > 1.0 - self._bernoulli_p(points)[:, None]
        return self.transform(points, indices, u) >= eps

    def transform(self, points: np.ndarray, indices: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Map uniform draws (n, trials) to couplings via per-site quantiles."""
        if self.kind == "shared":
            return self.shared.quantile(u)
        if self.kind == "radial_bernoulli":
            p = self._bernoulli_p(points)[:, None]
            return (u > 1.0 - p).astype(float)
        out = np.empty_like(u)
        for row, i in enumerate(indices):
            out[row] = self.per_site[i].quantile(u[row])
        return out


# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------


def _canonical_order(points: np.ndarray) -> np.ndarray:
    return np.lexsort(points.T[::-1])


def _require_radius(generator: str, radius: float) -> None:
    """ValueError naming `radius` unless 0 < radius < inf; NaN fails too."""
    if not radius > 0:
        raise ValueError(f"{generator} radius {radius} is not positive")
    if radius == math.inf:
        raise ValueError(f"{generator} radius {radius} is not finite")


@dataclass(frozen=True, eq=False)
class SiteSet:
    """Finite window of a uniformly discrete scatterer configuration.

    `points` are stored in canonical (lexicographic) order; the canonical
    index of a site keys its random stream.  `window_radius` is the radius
    up to which the window is complete: queries beyond it are refused.
    Every generator yields distinct points, so the finite set is uniformly
    discrete.
    """

    dimension: int
    points: np.ndarray
    window_radius: float

    @staticmethod
    def lattice(dimension: int, radius: float) -> "SiteSet":
        """Integer lattice sites with norm <= radius."""
        _require_radius("lattice", radius)
        rng = np.arange(-int(math.floor(radius)), int(math.floor(radius)) + 1)
        grids = np.meshgrid(*([rng] * dimension), indexing="ij")
        pts = np.column_stack([a.ravel() for a in grids]).astype(float)
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        pts = pts[_canonical_order(pts)]
        return SiteSet(dimension, pts, float(radius))

    @staticmethod
    def tube(dimension: int, radius: float, offsets=None) -> "SiteSet":
        """Z x S sites: integers along the first axis, cross-section `offsets`
        in the last d-1 coordinates (by default the origin alone)."""
        _require_radius("tube", radius)
        if offsets is None:
            offsets = np.zeros((1, dimension - 1))
        offs = np.atleast_2d(np.asarray(offsets, dtype=float))
        if offs.shape[1] != dimension - 1:
            raise ValueError("offsets must live in the last d-1 coordinates")
        axis = np.arange(-int(math.floor(radius)), int(math.floor(radius)) + 1, dtype=float)
        pts = np.column_stack([np.repeat(axis, len(offs)), np.tile(offs, (len(axis), 1))])
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        pts = pts[_canonical_order(pts)]
        if len(offs) > 1:
            d = np.linalg.norm(offs[:, None, :] - offs[None, :, :], axis=-1)
            repeats = np.argwhere(np.triu(d == 0.0, k=1))
            if len(repeats):
                raise ValueError(f"tube offset {offs[repeats[0, 0]].tolist()} is repeated")
        return SiteSet(dimension, pts, float(radius))

    @staticmethod
    def explicit(points, window_radius: float | None = None,
                 dimension: int | None = None) -> "SiteSet":
        """Explicit list of distinct sites, of `dimension` coordinates when it is
        given; by default the list is taken as the complete configuration, so the
        window is unbounded."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if dimension is not None and pts.shape[1] != dimension:
            raise ValueError(f"explicit points have dimension {pts.shape[1]}, "
                             f"but the model has dimension {dimension}")
        if pts.size == 0:
            raise ValueError("explicit site list is empty")
        pts = pts[_canonical_order(pts)]
        # canonical order puts equal points next to each other
        repeats = np.flatnonzero(np.all(pts[1:] == pts[:-1], axis=1))
        if repeats.size:
            raise ValueError(f"explicit site {pts[repeats[0]].tolist()} is repeated")
        window_radius = math.inf if window_radius is None else float(window_radius)
        if not window_radius > 0:
            raise ValueError(f"explicit window_radius {window_radius} is not positive")
        return SiteSet(pts.shape[1], pts, window_radius)

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def indices_in(self, region: RegionSet) -> np.ndarray:
        require_window(self.window_radius, region.circumradius(), " needed by the region")
        return np.where(region.contains(self.points))[0]

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Single-site potentials and background
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SingleSitePotential:
    """Radial bump supported in B(0, support_radius).

    `profile` maps radius to value and is only consulted inside the
    support: `evaluate` gives 0 beyond it, whatever the profile says.
    """

    support_radius: float
    profile: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def indicator(amplitude: float, radius: float) -> "SingleSitePotential":
        """amplitude * indicator of B(0, radius)."""
        amp = float(amplitude)
        rad = float(radius)
        if not rad > 0:
            raise ValueError(f"indicator radius {radius} is not positive")
        return SingleSitePotential(rad, lambda r: np.where(r <= rad, amp, 0.0))

    def evaluate(self, offsets: np.ndarray) -> np.ndarray:
        """f(x - site) for offset vectors, zero outside the support."""
        r = np.linalg.norm(np.atleast_2d(offsets), axis=1)
        vals = np.asarray(self.profile(r), dtype=float)
        return np.where(r <= self.support_radius, vals, 0.0)


@dataclass(frozen=True, eq=False)
class BackgroundPotential:
    """Deterministic background: `values` repeated on consecutive cells of width
    `cell` along the first axis.  Zero and constant are one-value patterns."""

    values: tuple[float, ...] = (0.0,)
    cell: float = 1.0

    def __post_init__(self):
        if not (self.values and self.cell > 0):
            raise ValueError("periodic_step needs at least one value and a positive cell, "
                             f"got values={list(self.values)} and cell={self.cell}")
        bad = [v for v in (*self.values, self.cell) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"background value {bad[0]} is not finite, "
                             f"got values={list(self.values)} and cell={self.cell}")

    @staticmethod
    def zero() -> "BackgroundPotential":
        return BackgroundPotential()

    @staticmethod
    def constant(value: float) -> "BackgroundPotential":
        return BackgroundPotential((float(value),))

    @staticmethod
    def periodic_step(values, cell: float = 1.0) -> "BackgroundPotential":
        """d=1 pattern repeating `values` on consecutive cells of width `cell`."""
        return BackgroundPotential(tuple(float(v) for v in values), float(cell))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor(pts[:, 0] / self.cell).astype(int) % len(self.values)
        return np.asarray(self.values)[idx]


# ---------------------------------------------------------------------------
# The model and coupling maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RandomPotentialModel:
    """Sites + one bump + coupling laws + background.  A `distinguished_site`
    is a site index whose bump is not 0 at its centre (an indicator's amplitude)."""

    sites: SiteSet
    potential: SingleSitePotential
    laws: LawAssignment
    background: BackgroundPotential = field(default_factory=BackgroundPotential.zero)
    distinguished_site: int | None = None

    def __post_init__(self):
        laws, sites = len(self.laws.per_site), len(self.sites)
        if self.laws.kind == "per_site" and laws != sites:
            raise ValueError(f"per_site lists {laws} laws for {sites} sites")
        k = self.distinguished_site
        if k is None:
            return
        if not 0 <= k < sites:
            raise ValueError(f"distinguished_site {k} is not a site index of the {sites} sites")
        if self.potential.evaluate(np.zeros(self.dimension))[0] == 0.0:
            raise ValueError(f"distinguished_site {k} has a bump that is 0 at its centre")

    @property
    def dimension(self) -> int:
        return self.sites.dimension

    def max_support_radius(self) -> float:
        return self.potential.support_radius

    def tail_masses(self, indices: np.ndarray, eps: float) -> np.ndarray:
        return self.laws.tail_masses(self.sites.points[indices], indices, eps)


@dataclass(frozen=True, eq=False)
class CouplingMap:
    """Sampled coupling values on a window of the model's sites.

    `sample_couplings` with the same (model, seed, window) reproduces the
    values bit for bit.
    """

    model: RandomPotentialModel
    site_indices: np.ndarray
    values: np.ndarray
    seed: int | None
    window_radius: float

    @property
    def points(self) -> np.ndarray:
        return self.model.sites.points[self.site_indices]

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def __len__(self) -> int:
        return len(self.values)


def sample_couplings(
    model: RandomPotentialModel,
    seed: int,
    window: float | None = None,
) -> CouplingMap:
    """Independent coupling draws for every site inside the window.

    The draw for site i is column 0 of the stream keyed by
    (seed, canonical index of i): results do not depend on iteration
    order or on the window.
    """
    sites = model.sites
    if window is None:
        indices = np.arange(len(sites))
        window_radius = sites.window_radius
    else:
        window_radius = float(window)
        require_window(sites.window_radius, window_radius, " requested as the sampling window")
        indices = np.where(sites.norms <= window_radius)[0]
    u = _rng.site_uniforms(seed, indices)
    values = model.laws.transform(sites.points[indices], indices, u)[:, 0]
    return CouplingMap(model, indices, values, seed, window_radius)


_PAIR_BLOCK = 1024  # nodes per block of _pairs_within: bounds its (nodes x sites) temporaries


def _pairs_within(pts: np.ndarray, points: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the pairs with |pts[row] - points[col]| <= rho, node-major with
    each node's sites ascending: the pairs of a sorted multi-point query_ball_point.

    The test is the k-d tree's own: squared differences added axis by axis, in
    axis order, against rho * rho.  Each block of nodes is tested only against the
    sites in its bounding box widened by rho, judged by the same squared
    differences, so that no pair the test keeps is dropped.
    """
    r2 = rho * rho
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for start in range(0, len(pts), _PAIR_BLOCK):
        block = pts[start:start + _PAIR_BLOCK]
        gap = np.maximum(np.maximum(block.min(axis=0) - points, points - block.max(axis=0)), 0.0)
        near = np.flatnonzero(np.all(gap * gap <= r2, axis=1))
        d2 = np.zeros((len(block), near.size))
        for k in range(points.shape[1]):
            diff = block[:, k, None] - points[near, k]
            d2 += diff * diff
        node, site = np.nonzero(d2 <= r2)
        rows.append(node + start)
        cols.append(near[site])
    return np.concatenate(rows), np.concatenate(cols)


def evaluate_potential(
    model: RandomPotentialModel,
    couplings: CouplingMap,
    x,
    include_background: bool = True,
) -> float | np.ndarray:
    """V(x) = sum_i omega_i f(x - i) (+ background when requested).

    Warns when x is within one support radius of the window edge, where
    sites outside the sampled window could contribute.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = model.dimension
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points in R^{d}, got shape {pts.shape}")
    scalar = np.asarray(x).ndim == 1
    rho = model.max_support_radius()
    safe = couplings.window_radius - rho
    if np.any(np.linalg.norm(pts, axis=1) > safe):
        warnings.warn(
            "evaluating within one support radius of the window edge; "
            "contributions from unsampled sites may be missing",
            stacklevel=2,
        )
    points = couplings.points
    rows, cols = _pairs_within(pts, points, rho)
    terms = model.potential.evaluate(pts[rows] - points[cols])
    out = np.zeros(pts.shape[0])
    # unbuffered and in pair order, so each node's sum is added up as a loop would
    np.add.at(out, rows, terms * couplings.values[cols])
    if include_background:
        out += model.background.evaluate(pts)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Quasi-dimension counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiDimensionReport:
    """Annulus-count bound #(Sigma cap A_{R,R+1}) <= C R^(m-1) on a window."""

    constant: float
    passed: bool


def quasi_dimension_bound(sites: SiteSet, m: float, r_max: float) -> QuasiDimensionReport:
    """Check quasi-m-dimensionality by counting sites in unit annuli.

    `constant` is the max of count / max(R, 1)^(m-1) over R in
    {0, 0.5, 1, ...}; `passed` requires no growth trend over the upper half
    of the range (least-squares slope small relative to the level).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    require_window(sites.window_radius, r_max, " needed by r_max")
    norms = np.sort(sites.norms)
    radii = np.arange(0.0, r_max - 1.0 + 0.25, 0.5)
    counts = np.searchsorted(norms, radii + 1.0, side="right") - np.searchsorted(
        norms, radii, side="left"
    )
    denom = np.maximum(radii, 1.0) ** (m - 1.0)
    normalized = counts / denom
    constant = float(np.max(normalized)) if normalized.size else 0.0
    return QuasiDimensionReport(constant, _no_growth_trend(radii, normalized))


def _no_growth_trend(x: np.ndarray, y: np.ndarray) -> bool:
    """True when y grows by at most a quarter of its level over the upper half of x."""
    half = len(x) // 2
    xs, ys = x[half:], y[half:]
    if len(xs) < 3:
        return True
    slope = float(np.polyfit(xs, ys, 1)[0])
    level = max(float(np.max(ys)), 1e-12)
    growth = slope * (xs[-1] - xs[0])
    return growth <= 0.25 * level


# ---------------------------------------------------------------------------
# Model descriptions (read from configs)
# ---------------------------------------------------------------------------


_COUPLING_KINDS = {
    "bernoulli": CouplingLaw.bernoulli,
    "uniform": CouplingLaw.uniform,
    "bernoulli_times_uniform": CouplingLaw.bernoulli_times_uniform,
    "point_masses": CouplingLaw.point_masses,
}

# component -> {kind: constructor}; a kind's config keys are its constructor's
# parameters, and its defaults are theirs.  A coupling-law kind given as the
# model's law is one law shared by every site; `coupling` reads nested laws.
KINDS = {
    "sites": {"lattice": SiteSet.lattice, "tube": SiteSet.tube, "explicit": SiteSet.explicit},
    "law": {
        **_COUPLING_KINDS,
        "radial_bernoulli": LawAssignment.radial_bernoulli,
        "shared": lambda law: LawAssignment.shared_law(_from_kind("coupling", law)),
        "per_site": lambda laws: LawAssignment.per_site_laws(
            _from_kind("coupling", law) for law in laws),
    },
    "coupling": _COUPLING_KINDS,
    "potential": {"indicator": SingleSitePotential.indicator},
    "background": {
        "zero": BackgroundPotential.zero,
        "constant": BackgroundPotential.constant,
        "periodic_step": BackgroundPotential.periodic_step,
    },
}


def _from_kind(component: str, rec: dict, kind_key: str = "kind", **given):
    """KINDS[component][rec[kind_key]] called with `given` and rec's other keys.

    A key the constructor does not take, or one that `given` sets, raises
    ValueError; a required parameter that neither sets raises KeyError(name).
    """
    kind = rec[kind_key]
    make = KINDS[component].get(kind)
    if make is None:
        raise ValueError(f"unknown {component} kind {kind!r}")
    # constructors take positional-or-keyword parameters, defaults last: read off the code object
    code = make.__code__
    params = code.co_varnames[:code.co_argcount]
    args = {key: value for key, value in rec.items() if key != kind_key}
    for key in args:
        if key not in params or key in given:
            raise ValueError(f"{component} {kind!r} takes no key {key!r}")
    for name in params[:len(params) - len(make.__defaults__ or ())]:
        if name not in args and name not in given:
            raise KeyError(name)
    return make(**given, **args)


def model_from_dict(rec: dict) -> RandomPotentialModel:
    """The model a config's `model` dict describes, one KINDS constructor per component."""
    sites = _from_kind("sites", rec["sites"], "generator", dimension=rec["dimension"])
    potential = _from_kind("potential", rec["potential"])
    laws = _from_kind("law", rec["law"])
    if isinstance(laws, CouplingLaw):
        laws = LawAssignment.shared_law(laws)
    background = _from_kind("background", rec.get("background", {"kind": "zero"}))
    return RandomPotentialModel(sites, potential, laws, background, rec.get("distinguished_site"))
