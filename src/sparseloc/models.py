"""Random potential models: scatterer sites, coupling laws, sampling.

A model is a uniformly discrete site set, a compactly supported bump per
site, a coupling distribution per site (supported in [0,1]) and a
deterministic background.  Sampling is counter-based per site, so coupling
draws depend only on (seed, site) and never on iteration order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _rng
from .geometry import RegionSet, ball_volume

__all__ = [
    "CouplingLaw",
    "LawAssignment",
    "SiteSet",
    "SingleSitePotential",
    "BackgroundPotential",
    "RandomPotentialModel",
    "CouplingMap",
    "AssumptionReport",
    "WindowTooSmallError",
    "require_window",
    "p_epsilon",
    "sample_couplings",
    "evaluate_potential",
    "second_moment_profile",
    "second_moment_decay_fit",
    "quasi_dimension_bound",
    "validate_assumptions",
    "model_from_dict",
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
    tail mass, absolutely continuous mass, moments and quantile function
    exact (no quadrature).
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()  # (lo, hi, mass)

    def __post_init__(self):
        total = sum(w for _, w in self.atoms) + sum(m for _, _, m in self.segments)
        if abs(total - 1.0) > 1e-9:
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

    @staticmethod
    def mixture(parts: list[tuple["CouplingLaw", float]]) -> "CouplingLaw":
        atoms: dict[float, float] = {}
        segments: list[tuple[float, float, float]] = []
        for law, weight in parts:
            for x, w in law.atoms:
                atoms[x] = atoms.get(x, 0.0) + w * weight
            for lo, hi, m in law.segments:
                segments.append((lo, hi, m * weight))
        return CouplingLaw(
            "mixture",
            atoms=tuple(sorted(atoms.items())),
            segments=tuple(sorted(segments)),
        )

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

    def mass_below(self, eps: float) -> float:
        """mu([0, eps))."""
        total = sum(w for x, w in self.atoms if x < eps)
        for lo, hi, m in self.segments:
            if lo >= eps:
                continue
            hi_eff = min(hi, eps)
            total += m * (hi_eff - lo) / (hi - lo)
        return min(total, 1.0)

    def ac_mass(self) -> float:
        return sum(m for _, _, m in self.segments)

    def mean(self) -> float:
        total = sum(x * w for x, w in self.atoms)
        total += sum(m * (lo + hi) / 2.0 for lo, hi, m in self.segments)
        return total

    def second_moment(self) -> float:
        total = sum(x * x * w for x, w in self.atoms)
        total += sum(m * (hi**3 - lo**3) / (3.0 * (hi - lo)) for lo, hi, m in self.segments)
        return total

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

    @staticmethod
    def from_dict(rec: dict) -> "CouplingLaw":
        return CouplingLaw(
            rec["kind"],
            atoms=tuple((x, w) for x, w in rec.get("atoms", [])),
            segments=tuple((lo, hi, m) for lo, hi, m in rec.get("segments", [])),
        )


def p_epsilon(law: CouplingLaw, eps: float) -> float:
    """Mass of [eps, 1]: the probability of a coupling at least eps."""
    if eps <= 0.0 or eps > 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return law.tail_mass(eps)


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
        if tau < 0:
            raise ValueError("tau must be >= 0")
        return LawAssignment("radial_bernoulli", tau=tau, cap=cap)

    @staticmethod
    def per_site_laws(laws) -> "LawAssignment":
        return LawAssignment("per_site", per_site=tuple(laws))

    def _bernoulli_p(self, points: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(points, axis=1)
        with np.errstate(divide="ignore"):
            p = np.where(norms > 0.0, norms ** (-self.tau), np.inf)
        return np.minimum(p, self.cap)

    def law_for(self, point: np.ndarray, index: int) -> CouplingLaw:
        if self.kind == "shared":
            return self.shared
        if self.kind == "radial_bernoulli":
            return CouplingLaw.bernoulli(float(self._bernoulli_p(np.atleast_2d(point))[0]))
        if self.kind == "per_site":
            return self.per_site[index]
        raise ValueError(f"unknown law assignment kind {self.kind!r}")

    def tail_masses(self, points: np.ndarray, indices: np.ndarray, eps: float) -> np.ndarray:
        """p_i(eps) for many sites at once."""
        if eps <= 0.0 or eps > 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.kind == "shared":
            return np.full(len(points), self.shared.tail_mass(eps))
        if self.kind == "radial_bernoulli":
            return self._bernoulli_p(points)
        return np.array([self.per_site[i].tail_mass(eps) for i in indices])

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

    @staticmethod
    def from_dict(rec: dict) -> "LawAssignment":
        kind = rec["kind"]
        if kind == "shared":
            return LawAssignment.shared_law(CouplingLaw.from_dict(rec["law"]))
        if kind == "radial_bernoulli":
            return LawAssignment.radial_bernoulli(rec["tau"], rec.get("cap", 1.0))
        if kind == "per_site":
            return LawAssignment.per_site_laws(CouplingLaw.from_dict(l) for l in rec["laws"])
        # friendly shorthand kinds used by model description files
        lo, hi = rec.get("lo", 0.0), rec.get("hi", 1.0)
        shorthand = {
            "bernoulli": lambda: CouplingLaw.bernoulli(rec["p"]),
            "uniform": lambda: CouplingLaw.uniform(lo, hi),
            "bernoulli_times_uniform": lambda: CouplingLaw.bernoulli_times_uniform(rec["p"], lo, hi),
            "point_masses": lambda: CouplingLaw.point_masses([(x, w) for x, w in rec["atoms"]]),
        }
        if kind not in shorthand:
            raise ValueError(f"unknown law assignment kind {kind!r}")
        return LawAssignment.shared_law(shorthand[kind]())


# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------


def _canonical_order(points: np.ndarray) -> np.ndarray:
    return np.lexsort(points.T[::-1])


def _closest_pair(points: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """(min separation, a closest pair); (inf, None) below two points."""
    if len(points) < 2:
        return math.inf, None
    from scipy.spatial import cKDTree
    dist, idx = cKDTree(points).query(points, k=2)
    j = int(np.argmin(dist[:, 1]))
    return float(dist[j, 1]), (j, int(idx[j, 1]))


@dataclass(frozen=True, eq=False)
class SiteSet:
    """Finite window of a uniformly discrete scatterer configuration.

    `points` are stored in canonical (lexicographic) order; the canonical
    index of a site keys its random stream.  `window_radius` is the radius
    up to which the window is complete: queries beyond it are refused.
    """

    dimension: int
    points: np.ndarray
    generator: str
    r_sigma: float
    window_radius: float

    @staticmethod
    def lattice(dimension: int, radius: float) -> "SiteSet":
        """Integer lattice sites with norm <= radius."""
        rng = np.arange(-int(math.floor(radius)), int(math.floor(radius)) + 1)
        grids = np.meshgrid(*([rng] * dimension), indexing="ij")
        pts = np.column_stack([a.ravel() for a in grids]).astype(float)
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        pts = pts[_canonical_order(pts)]
        return SiteSet(dimension, pts, "lattice", 1.0, float(radius))

    @staticmethod
    def tube(dimension: int, radius: float, offsets=((0.0,),)) -> "SiteSet":
        """Z x S sites: integers along the first axis, fixed cross-section."""
        offs = np.atleast_2d(np.asarray(offsets, dtype=float))
        if offs.shape[1] != dimension - 1:
            raise ValueError("offsets must live in the last d-1 coordinates")
        axis = np.arange(-int(math.floor(radius)), int(math.floor(radius)) + 1, dtype=float)
        pts = np.column_stack(
            [
                np.repeat(axis, len(offs)),
                np.tile(offs, (len(axis), 1)).reshape(-1, dimension - 1),
            ]
        )
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        pts = pts[_canonical_order(pts)]
        r_sigma = 1.0
        if len(offs) > 1:
            d = np.linalg.norm(offs[:, None, :] - offs[None, :, :], axis=-1)
            repeats = np.argwhere(np.triu(d == 0.0, k=1))
            if len(repeats):
                raise ValueError(f"tube offset {offs[repeats[0, 0]].tolist()} is repeated")
            r_sigma = min(1.0, float(np.min(d[d > 0])))
        return SiteSet(dimension, pts, "tube", r_sigma, float(radius))

    @staticmethod
    def explicit(points, r_sigma: float | None = None, window_radius: float | None = None) -> "SiteSet":
        """Explicit site list; by default it is taken as the complete
        configuration, so the window is unbounded."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        pts = pts[_canonical_order(pts)]
        if r_sigma is None:
            r_sigma = _closest_pair(pts)[0]
        if window_radius is None:
            window_radius = math.inf
        return SiteSet(pts.shape[1], pts, "explicit", float(r_sigma), float(window_radius))

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    @cached_property
    def closest_pair(self) -> tuple[float, tuple[int, int] | None]:
        """(min separation, indices of a closest pair), from one k-d tree query."""
        return _closest_pair(self.points)

    def min_separation(self) -> float:
        return self.closest_pair[0]

    def separation_witness(self) -> tuple[int, int] | None:
        """Indices of a closest pair violating r_sigma, if any."""
        sep, pair = self.closest_pair
        return pair if sep < self.r_sigma - 1e-12 else None

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
    support.  `lower_bump` certifies |f| >= c on B(0, s) for the
    distinguished-site hypothesis.
    """

    support_radius: float
    profile: Callable[[np.ndarray], np.ndarray]
    p_norm_bound: float
    sign: str = "indefinite"  # nonnegative | nonpositive | indefinite
    lower_bump: tuple[float, float] | None = None

    @staticmethod
    def indicator(amplitude: float, radius: float) -> "SingleSitePotential":
        """amplitude * indicator of B(0, radius)."""
        sign = "nonnegative" if amplitude >= 0 else "nonpositive"
        amp = float(amplitude)
        rad = float(radius)
        return SingleSitePotential(
            support_radius=rad,
            profile=lambda r: np.where(r <= rad, amp, 0.0),
            p_norm_bound=abs(amp) * 2.0 * rad + 1.0,
            sign=sign,
            lower_bump=(abs(amp), rad) if amp != 0.0 else None,
        )

    def evaluate(self, offsets: np.ndarray) -> np.ndarray:
        """f(x - site) for offset vectors, zero outside the support."""
        r = np.linalg.norm(np.atleast_2d(offsets), axis=1)
        vals = np.asarray(self.profile(r), dtype=float)
        return np.where(r <= self.support_radius, vals, 0.0)

    def p_norm(self, p: float, dimension: int) -> float:
        """L^p norm via radial quadrature such that the check is deterministic."""
        r = np.linspace(0.0, self.support_radius, 2001)
        vals = np.abs(np.where(r <= self.support_radius, self.profile(r), 0.0)) ** p
        if dimension == 1:
            integrand = 2.0 * vals
        else:
            surface = dimension * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)
            integrand = surface * vals * r ** (dimension - 1)
        return float(np.trapezoid(integrand, r) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class BackgroundPotential:
    """Deterministic background: zero, constant, or periodic step pattern."""

    kind: str = "zero"
    value: float = 0.0
    values: tuple[float, ...] = ()
    cell: float = 1.0

    def __post_init__(self):
        if self.kind == "periodic_step" and not (self.values and self.cell > 0):
            raise ValueError("periodic_step needs at least one value and a positive cell, "
                             f"got values={list(self.values)} and cell={self.cell}")

    @staticmethod
    def zero() -> "BackgroundPotential":
        return BackgroundPotential("zero")

    @staticmethod
    def constant(value: float) -> "BackgroundPotential":
        return BackgroundPotential("constant", value=float(value))

    @staticmethod
    def periodic_step(values, cell: float = 1.0) -> "BackgroundPotential":
        """d=1 pattern repeating `values` on consecutive cells of width `cell`."""
        return BackgroundPotential("periodic_step", values=tuple(float(v) for v in values), cell=float(cell))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "zero":
            return np.zeros(pts.shape[0])
        if self.kind == "constant":
            return np.full(pts.shape[0], self.value)
        if self.kind == "periodic_step":
            idx = np.floor(pts[:, 0] / self.cell).astype(int) % len(self.values)
            return np.asarray(self.values)[idx]
        raise ValueError(f"unknown background kind {self.kind!r}")

    @staticmethod
    def from_dict(rec: dict) -> "BackgroundPotential":
        kind = rec["kind"]
        if kind == "zero":
            return BackgroundPotential.zero()
        if kind == "constant":
            return BackgroundPotential.constant(rec["value"])
        if kind == "periodic_step":
            return BackgroundPotential.periodic_step(rec["values"], rec.get("cell", 1.0))
        raise ValueError(f"unknown background kind {kind!r}")


# ---------------------------------------------------------------------------
# The model and coupling maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RandomPotentialModel:
    """Sites + per-site bumps + coupling laws + background."""

    sites: SiteSet
    potential: SingleSitePotential
    laws: LawAssignment
    background: BackgroundPotential = field(default_factory=BackgroundPotential.zero)
    p_exponent: float | None = None
    distinguished_site: int | None = None
    site_potentials: dict[int, SingleSitePotential] = field(default_factory=dict)

    def __post_init__(self):
        laws, sites = len(self.laws.per_site), len(self.sites)
        if self.laws.kind == "per_site" and laws != sites:
            raise ValueError(f"per_site lists {laws} laws for {sites} sites")

    @property
    def dimension(self) -> int:
        return self.sites.dimension

    def default_p_exponent(self) -> float:
        if self.p_exponent is not None:
            return self.p_exponent
        d = self.dimension
        return 2.0 if d <= 3 else d / 2.0 + 0.5

    def potential_for(self, index: int) -> SingleSitePotential:
        return self.site_potentials.get(index, self.potential)

    def max_support_radius(self) -> float:
        radii = [self.potential.support_radius]
        radii += [p.support_radius for p in self.site_potentials.values()]
        return max(radii)

    def tail_masses(self, indices: np.ndarray, eps: float) -> np.ndarray:
        return self.laws.tail_masses(self.sites.points[indices], indices, eps)


@dataclass(frozen=True, eq=False)
class CouplingMap:
    """Sampled coupling values on a window of the model's sites.

    Regenerating with the same (model, seed, window) reproduces the values
    bit for bit; `transform` records derived maps (e.g. truncations) for
    which the regeneration contract does not apply.
    """

    model: RandomPotentialModel
    site_indices: np.ndarray
    values: np.ndarray
    seed: int | None
    window_radius: float
    transform: str | None = None

    @property
    def points(self) -> np.ndarray:
        return self.model.sites.points[self.site_indices]

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def value_at(self, site) -> float:
        site = np.asarray(site, dtype=float)
        match = np.where((self.points == site).all(axis=1))[0]
        if match.size == 0:
            raise KeyError(f"site {site} not in the sampled window")
        return float(self.values[match[0]])

    def require_window(self, region: RegionSet) -> None:
        require_window(self.window_radius, region.circumradius(), " needed by the query")

    def __len__(self) -> int:
        return len(self.values)


def sample_couplings(
    model: RandomPotentialModel,
    seed: int,
    window: float | None = None,
    trial: int = 0,
) -> CouplingMap:
    """Independent coupling draws for every site inside the window.

    The draw for site i is column `trial` of the stream keyed by
    (seed, canonical index of i): results do not depend on iteration
    order, on the window, or on how trials are distributed over workers.
    """
    sites = model.sites
    if window is None:
        indices = np.arange(len(sites))
        window_radius = sites.window_radius
    else:
        window_radius = float(window)
        require_window(sites.window_radius, window_radius, " requested as the sampling window")
        indices = np.where(sites.norms <= window_radius)[0]
    u = _rng.site_uniforms(seed, indices, start=trial)
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


def _bump_values(model: RandomPotentialModel, offsets: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """f_i(offset) for each (offset, site index i) pair, with each site's own bump."""
    values = model.potential.evaluate(offsets)
    for index, pot in model.site_potentials.items():
        own = sites == index
        values[own] = pot.evaluate(offsets[own])
    return values


def evaluate_potential(
    model: RandomPotentialModel,
    couplings: CouplingMap,
    x,
    include_background: bool = True,
) -> float | np.ndarray:
    """V(x) = sum_i omega_i f_i(x - i) (+ background when requested).

    Warns when x is within one support radius of the window edge, where
    sites outside the sampled window could contribute.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
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
    terms = _bump_values(model, pts[rows] - points[cols], couplings.site_indices[cols])
    out = np.zeros(pts.shape[0])
    # unbuffered and in pair order, so each node's sum is added up as a loop would
    np.add.at(out, rows, terms * couplings.values[cols])
    if include_background:
        out += model.background.evaluate(pts)
    return float(out[0]) if scalar else out


def second_moment_profile(model: RandomPotentialModel, x) -> float | np.ndarray:
    """W(x) = E[V(x)^2]^(1/2) from exact per-site first and second moments."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 1
    points = model.sites.points
    rows, cols = _pairs_within(pts, points, model.max_support_radius())
    f = _bump_values(model, pts[rows] - points[cols], cols)
    used, at = np.unique(cols, return_inverse=True)
    laws = [model.laws.law_for(points[j], j) for j in used]
    m1 = np.array([law.mean() for law in laws], dtype=float)[at]
    m2 = np.array([law.second_moment() for law in laws], dtype=float)[at]
    mean_sum, var_sum = np.zeros(pts.shape[0]), np.zeros(pts.shape[0])
    # in pair order, as evaluate_potential adds its terms
    np.add.at(mean_sum, rows, m1 * f)
    np.add.at(var_sum, rows, (m2 - m1 * m1) * f * f)
    out = np.sqrt(np.maximum(mean_sum * mean_sum + var_sum, 0.0))
    return float(out[0]) if scalar else out


def second_moment_decay_fit(model: RandomPotentialModel, radii) -> tuple[float, float, bool]:
    """Fit W(x) ~ (1+|x|)^(-q) along the coordinate rays; returns (q, r_squared, q > 1).

    The last flag marks the decay regime in which the wave operators
    exist (second-moment decay faster than 1/|x|).
    """
    radii = np.asarray(radii, dtype=float)
    logs_x: list[float] = []
    logs_w: list[float] = []
    for u in np.eye(model.dimension):
        pts = radii[:, None] * u[None, :]
        w = second_moment_profile(model, pts)
        mask = w > 1e-300
        logs_x.extend(np.log1p(radii[mask]))
        logs_w.extend(np.log(w[mask]))
    if len(logs_x) < 2:
        return math.inf, 1.0, True
    slope, intercept = np.polyfit(logs_x, logs_w, 1)
    pred = slope * np.asarray(logs_x) + intercept
    ss_res = float(np.sum((np.asarray(logs_w) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(logs_w) - np.mean(logs_w)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2, bool(-slope > 1.0)


# ---------------------------------------------------------------------------
# Quasi-dimension counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiDimensionReport:
    """Annulus-count bound #(Sigma cap A_{R,R+1}) <= C R^(m-1) on a window."""

    m: float
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
    return QuasiDimensionReport(m, constant, _no_growth_trend(radii, normalized))


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
# Assumption validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str
    witness: object = None


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_assumptions(model: RandomPotentialModel) -> AssumptionReport:
    """Check the standing hypotheses; failures carry witnesses, not errors.

    A1: background locally uniformly L^p with an admissible exponent.
    A2: uniform discreteness of the sites.
    A3: compact support and L^p bound (within 1 %) of every single-site potential.
    A4: coupling laws supported in [0,1] with total mass one.
    A5: distinguished-site bump of definite sign (only when one is set).
    """
    checks: list[AssumptionCheck] = []
    d = model.dimension
    p = model.default_p_exponent()

    p_ok = (p >= 2.0) if d <= 3 else (p > d / 2.0)
    norm_val = _background_local_norm(model, p)
    checks.append(
        AssumptionCheck(
            "A1",
            passed=bool(p_ok and math.isfinite(norm_val)),
            detail=f"p={p}, ||V0||_p,unif ~ {norm_val:.6g}"
            + ("" if p_ok else f" (p inadmissible for d={d})"),
        )
    )

    sep = model.sites.min_separation()
    witness = model.sites.separation_witness()
    a2_ok = model.sites.r_sigma > 0 and sep + 1e-12 >= model.sites.r_sigma
    checks.append(
        AssumptionCheck(
            "A2",
            passed=bool(a2_ok),
            detail=f"min separation {sep:.6g} vs declared r_sigma {model.sites.r_sigma:.6g}",
            witness=witness,
        )
    )

    a3_ok = True
    a3_detail = []
    for idx, pot in [(None, model.potential)] + sorted(model.site_potentials.items()):
        # probe the raw profile past the declared support
        probe_r = pot.support_radius * 1.0001 + 1e-9
        outside = float(np.max(np.abs(pot.profile(np.linspace(probe_r, probe_r + 1.0, 16)))))
        norm = pot.p_norm(p, d)
        ok = outside == 0.0 and norm <= pot.p_norm_bound * 1.01
        a3_ok &= ok
        a3_detail.append(f"site={idx}: ||f||_{p:g}={norm:.4g} bound={pot.p_norm_bound:.4g} ok={ok}")
    checks.append(AssumptionCheck("A3", passed=bool(a3_ok), detail="; ".join(a3_detail)))

    a4_ok = True
    a4_detail = "laws supported in [0,1] with unit mass"
    try:
        probe = model.laws.law_for(model.sites.points[0] if len(model.sites) else np.zeros(d), 0)
        del probe
    except Exception as exc:  # construction errors surface here
        a4_ok = False
        a4_detail = str(exc)
    checks.append(AssumptionCheck("A4", passed=a4_ok, detail=a4_detail))

    if model.distinguished_site is not None:
        pot = model.potential_for(model.distinguished_site)
        ok = pot.sign != "indefinite" and pot.lower_bump is not None
        detail = f"sign={pot.sign}, lower_bump={pot.lower_bump}"
        checks.append(AssumptionCheck("A5", passed=bool(ok), detail=detail))

    return AssumptionReport(tuple(checks))


def _background_local_norm(model: RandomPotentialModel, p: float) -> float:
    """sup over window centers of the L^p norm of V0 on unit balls (sampled)."""
    bg = model.background
    if bg.kind == "zero":
        return 0.0
    if bg.kind == "constant":
        return abs(bg.value) * ball_volume(1.0, model.dimension) ** (1.0 / p)
    # sampled sup over a coarse center grid
    d = model.dimension
    radius = min(model.sites.window_radius, 20.0)
    centers = np.linspace(-radius, radius, 41)
    grid = np.linspace(-1.0, 1.0, 21)
    best = 0.0
    for c in centers:
        center = np.zeros(d)
        center[0] = c
        offsets = np.zeros((len(grid), d))
        offsets[:, 0] = grid
        vals = np.abs(bg.evaluate(center + offsets)) ** p
        cell = (grid[1] - grid[0]) * (2.0 ** (d - 1))
        best = max(best, float(np.sum(vals) * cell) ** (1.0 / p))
    return best


# ---------------------------------------------------------------------------
# Model descriptions (read from configs)
# ---------------------------------------------------------------------------


def model_from_dict(rec: dict) -> RandomPotentialModel:
    d = rec["dimension"]
    site_rec = rec["sites"]
    gen = site_rec["generator"]
    if gen == "lattice":
        sites = SiteSet.lattice(d, site_rec["radius"])
    elif gen == "tube":
        offsets = site_rec.get("offsets", [[0.0] * (d - 1)])
        sites = SiteSet.tube(d, site_rec["radius"], offsets)
    elif gen == "explicit":
        points = np.atleast_2d(np.asarray(site_rec["points"], dtype=float))
        if points.shape[1] != d:
            raise ValueError(f"explicit points have dimension {points.shape[1]}, "
                             f"but the model has dimension {d}")
        sites = SiteSet.explicit(points, site_rec.get("r_sigma"), site_rec.get("window_radius"))
    else:
        raise ValueError(f"unknown site generator {gen!r}")
    pot_rec = rec["potential"]
    if pot_rec["kind"] == "indicator":
        potential = SingleSitePotential.indicator(pot_rec["amplitude"], pot_rec["radius"])
    else:
        raise ValueError(f"unknown potential kind {pot_rec['kind']!r}")
    return RandomPotentialModel(
        sites=sites,
        potential=potential,
        laws=LawAssignment.from_dict(rec["law"]),
        background=BackgroundPotential.from_dict(rec.get("background", {"kind": "zero"})),
        p_exponent=rec.get("p_exponent"),
        distinguished_site=rec.get("distinguished_site"),
    )
