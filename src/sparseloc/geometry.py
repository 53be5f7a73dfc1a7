"""Compact subsets of R^d: distances, generalized surface area, decompositions.

The primitives supported here (points, balls, spheres, origin-centered
annuli, spherical caps, punctured spheres) are exactly the shapes needed to
build shell decompositions around sparse scatterer configurations.
Surfaces are kept symbolic, so the measure-zero invariant of decomposition
members is exact rather than voxel-approximate, and a clearance is measured
from a union of balls, exactly or refused (see `distance_between`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Point",
    "Ball",
    "Sphere",
    "Annulus",
    "SphericalCap",
    "PuncturedSphere",
    "RegionSet",
    "TotalDecomposition",
    "ball_volume",
    "make_annulus",
    "sphere_shell_decomposition",
    "distance_between",
    "closed_form_sigma",
    "surface_volume_bound",
    "sanity_bound",
]

# Membership tolerance used by `RegionSet.contains`.
CONTAINS_TOL = 1e-9


_UNIT_BALL = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit ball in R^d."""
    if dimension in _UNIT_BALL:
        return _UNIT_BALL[dimension]
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


def ball_volume(radius: float, dimension: int) -> float:
    """Lebesgue volume of a closed ball of the given radius in R^d."""
    if radius <= 0.0:
        return 0.0
    return unit_ball_volume(dimension) * float(radius) ** dimension


def _as_points(x, dimension: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dimension:
        raise ValueError(f"expected points in R^{dimension}, got shape {pts.shape}")
    return pts


def _norm(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", points, points))


def _axis_dot(points: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """points @ axis, one dot product per row.

    A BLAS matrix-vector product rounds a row differently depending on how
    many rows come with it, so a batched distance would not match the
    single-point one bit for bit; vecdot runs the same kernel on every row.
    """
    return np.vecdot(points, axis)


def _angles(points: np.ndarray, r: np.ndarray, axes) -> np.ndarray:
    """Angle between each point, of norm r, and each of a stack of unit axes,
    as a (points, axes) array; every pair rounds as one `_axis_dot`."""
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = _axis_dot(points[:, None, :], np.asarray(axes)) / np.where(r > 0, r, 1.0)[:, None]
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _require_unit(direction) -> None:
    """Refuse a direction whose norm is off 1 by more than 1e-12, a zero vector too."""
    if not abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-12:
        raise ValueError(f"direction {direction!r} is not a unit vector")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class _Centered:
    """Methods shared by the shapes placed at a `center`: point, ball, sphere."""

    @property
    def dimension(self) -> int:
        return len(self.center)


class _Surface:
    """Methods shared by the measure-zero shapes: point, sphere, cap, punctured sphere."""

    def volume(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Point(_Centered, _Surface):
    """A single point."""

    center: tuple[float, ...]

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        return _norm(points - np.asarray(self.center))

    def circumradius(self) -> float:
        return float(np.linalg.norm(self.center))

    def diameter(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Ball(_Centered):
    """Closed solid ball B(center, radius)."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        return np.maximum(_norm(points - np.asarray(self.center)) - self.radius, 0.0)

    def circumradius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def volume(self) -> float:
        return ball_volume(self.radius, self.dimension)


@dataclass(frozen=True)
class Sphere(_Centered, _Surface):
    """Sphere = boundary of B(center, radius)."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("sphere radius must be >= 0")

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        return np.abs(_norm(points - np.asarray(self.center)) - self.radius)

    def circumradius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class Annulus:
    """Solid annulus around the origin: {x : inner <= |x| <= outer}."""

    dimension_: int
    inner: float
    outer: float

    def __post_init__(self):
        if not 0 <= self.inner <= self.outer:  # also refuses NaN
            raise ValueError("annulus requires 0 <= inner <= outer")

    @property
    def dimension(self) -> int:
        return self.dimension_

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        r = _norm(points)
        return np.maximum(np.maximum(self.inner - r, r - self.outer), 0.0)

    def circumradius(self) -> float:
        return self.outer

    def diameter(self) -> float:
        return 2.0 * self.outer

    def volume(self) -> float:
        d = self.dimension_
        return ball_volume(self.outer, d) - ball_volume(self.inner, d)


def _chord_distance(r, R: float, separation) -> np.ndarray:
    """Distance from a point at radius r to a point at radius R separated
    by the given angle, in the stable form (r-R)^2 + 4 R r sin^2(sep/2)."""
    return np.sqrt((r - R) ** 2 + 4.0 * R * r * np.sin(np.asarray(separation) / 2.0) ** 2)


def _cap_half_angle(sphere_radius: float, ball_radius: float) -> float:
    """Angular radius of a cap cut from a sphere by a ball centered on it.

    The cutting ball sits on the sphere itself, so a surface point at
    angle t from the ball center satisfies chord = 2 R sin(t/2).
    """
    if ball_radius >= 2.0 * sphere_radius:
        return math.pi
    return 2.0 * math.asin(ball_radius / (2.0 * sphere_radius))


@dataclass(frozen=True)
class SphericalCap(_Surface):
    """Cap on an origin-centered sphere, cut out by a ball centered on it.

    The cap is {|x| = R} intersected with the closed ball of radius
    `ball_radius` centered at R * direction, a unit vector.
    """

    sphere_radius: float
    direction: tuple[float, ...]
    ball_radius: float

    def __post_init__(self):
        if self.sphere_radius <= 0:
            raise ValueError("cap requires sphere_radius > 0")
        if self.ball_radius < 0:
            raise ValueError("cap requires ball_radius >= 0")
        _require_unit(self.direction)

    @property
    def dimension(self) -> int:
        return len(self.direction)

    @cached_property
    def half_angle(self) -> float:
        return _cap_half_angle(self.sphere_radius, self.ball_radius)

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        R = self.sphere_radius
        r = _norm(points)
        ang = _angles(points, r, [self.direction])[:, 0]
        inside = ang <= self.half_angle
        # chord to the cap rim within the plane span(x, axis); the
        # half-angle form avoids cancellation at small separations
        rim = _chord_distance(r, R, ang - self.half_angle)
        dist = np.where(inside, np.abs(r - R), rim)
        return np.where(r == 0.0, R, dist)

    def circumradius(self) -> float:
        return self.sphere_radius

    def diameter(self) -> float:
        t = self.half_angle
        if t >= math.pi / 2.0:
            return 2.0 * self.sphere_radius
        return 2.0 * self.sphere_radius * math.sin(t)


@dataclass(frozen=True)
class PuncturedSphere(_Surface):
    """Origin-centered sphere with open caps removed (closure kept).

    `exclusions` holds (unit direction, ball_radius) pairs in the same
    convention as :class:`SphericalCap`.  In d=2 point distances are exact
    (interval arithmetic on kept arcs); in d>=3 the returned value is a
    lower bound on the true distance (the bound is tight when the nearest
    kept point lies on the rim of the cap that shadows the query point),
    which keeps downstream clearance certificates sound.
    """

    dimension_: int
    radius: float
    exclusions: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("punctured sphere requires radius > 0")
        for direction, _b in self.exclusions:
            _require_unit(direction)

    @property
    def dimension(self) -> int:
        return self.dimension_

    @cached_property
    def _half_angles(self) -> np.ndarray:
        return np.array([_cap_half_angle(self.radius, b) for _, b in self.exclusions])

    @cached_property
    def _kept_arcs(self) -> list[tuple[float, float]]:
        """Maximal kept angular intervals in d=2, as [lo, hi] with hi > lo."""
        if self.dimension_ != 2:
            raise ValueError("kept arcs only defined in d=2")
        if not self.exclusions:
            return [(0.0, 2.0 * math.pi)]
        two_pi = 2.0 * math.pi
        blocked: list[tuple[float, float]] = []
        for (direction, _b), theta in zip(self.exclusions, self._half_angles):
            if theta >= math.pi:
                return []
            phi = math.atan2(direction[1], direction[0]) % two_pi
            lo, hi = phi - theta, phi + theta
            if lo < 0.0:
                blocked.append((lo + two_pi, two_pi))
                blocked.append((0.0, hi))
            elif hi > two_pi:
                blocked.append((lo, two_pi))
                blocked.append((0.0, hi - two_pi))
            else:
                blocked.append((lo, hi))
        blocked.sort()
        merged: list[list[float]] = []
        for lo, hi in blocked:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        kept: list[tuple[float, float]] = []
        prev_hi = 0.0
        for lo, hi in merged:
            if lo > prev_hi:
                kept.append((prev_hi, lo))
            prev_hi = max(prev_hi, hi)
        if prev_hi < two_pi:
            kept.append((prev_hi, two_pi))
        # wrap-around: join last and first intervals if both touch 0 == 2pi
        if len(kept) >= 2 and kept[0][0] == 0.0 and kept[-1][1] == two_pi:
            lo, _ = kept.pop()
            hi = kept[0][1]
            kept[0] = (lo - two_pi, hi)
        return kept

    def is_empty(self) -> bool:
        if self.dimension_ == 2:
            return not self._kept_arcs
        return False

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        if self.dimension_ == 2:
            return self._point_distance_2d(points)
        return self._point_distance_lower_bound(points)

    def _point_distance_2d(self, points: np.ndarray) -> np.ndarray:
        arcs = self._kept_arcs
        R = self.radius
        if not arcs:
            return np.full(points.shape[0], math.inf)
        r = _norm(points)
        psi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi)
        best = np.full(points.shape[0], math.inf)
        for lo, hi in arcs:
            # smallest angular separation from psi to [lo, hi] on the circle
            sep = np.minimum(
                _circular_separation(psi, lo), _circular_separation(psi, hi)
            )
            inside = _angle_in_interval(psi, lo, hi)
            sep = np.where(inside, 0.0, sep)
            best = np.minimum(best, _chord_distance(r, R, sep))
        return np.where(r == 0.0, R, best)

    def _point_distance_lower_bound(self, points: np.ndarray) -> np.ndarray:
        """|r - R|, or the farthest rim among the caps that shadow the point."""
        R = self.radius
        r = _norm(points)
        best = np.abs(r - R)
        if not self.exclusions:
            return best
        theta = self._half_angles
        ang = _angles(points, r, [u for u, _b in self.exclusions])
        rim = np.where(ang < theta, _chord_distance(r[:, None], R, theta - ang), -math.inf)
        return np.where(r == 0.0, R, np.maximum(best, rim.max(axis=1)))

    def circumradius(self) -> float:
        return self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius


def _circular_separation(psi: np.ndarray, angle: float) -> np.ndarray:
    d = np.abs(np.mod(psi - angle, 2.0 * math.pi))
    return np.minimum(d, 2.0 * math.pi - d)


def _angle_in_interval(psi: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # interval may have lo < 0 after wrap-around joining
    width = hi - lo
    rel = np.mod(psi - lo, 2.0 * math.pi)
    return rel <= width


Primitive = Point | Ball | Sphere | Annulus | SphericalCap | PuncturedSphere


# ---------------------------------------------------------------------------
# RegionSet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSet:
    """Finite union of primitive shapes in a common dimension."""

    dimension: int
    shapes: tuple[Primitive, ...] = ()

    def __post_init__(self):
        for s in self.shapes:
            if s.dimension != self.dimension:
                raise ValueError(
                    f"shape dimension {s.dimension} != region dimension {self.dimension}"
                )

    # -- constructors -----------------------------------------------------

    @staticmethod
    def point(coords) -> "RegionSet":
        coords = tuple(float(c) for c in np.atleast_1d(coords))
        return RegionSet(len(coords), (Point(coords),))

    @staticmethod
    def ball(center, radius: float) -> "RegionSet":
        center = tuple(float(c) for c in np.atleast_1d(center))
        return RegionSet(len(center), (Ball(center, float(radius)),))

    @staticmethod
    def sphere(center, radius: float) -> "RegionSet":
        center = tuple(float(c) for c in np.atleast_1d(center))
        return RegionSet(len(center), (Sphere(center, float(radius)),))

    @staticmethod
    def empty(dimension: int) -> "RegionSet":
        return RegionSet(dimension, ())

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        if not self.shapes:
            return True
        return all(isinstance(s, PuncturedSphere) and s.is_empty() for s in self.shapes)

    def distance(self, points) -> np.ndarray:
        """Distance from each query point to the set (inf when empty)."""
        pts = _as_points(points, self.dimension)
        best = np.full(pts.shape[0], math.inf)
        for s in self.shapes:
            best = np.minimum(best, s.point_distance(pts))
        return best

    def contains(self, points) -> np.ndarray:
        return self.distance(points) <= CONTAINS_TOL

    def circumradius(self) -> float:
        if self.is_empty():
            return 0.0
        return max(s.circumradius() for s in self.shapes)

    def diameter_bound(self) -> float:
        """Upper bound on the diameter (exact for single centered shapes)."""
        if self.is_empty():
            return 0.0
        if len(self.shapes) == 1:
            return self.shapes[0].diameter()
        return 2.0 * self.circumradius()

    def volume(self) -> float:
        """Sum of primitive volumes (exact when solids do not overlap)."""
        return sum(s.volume() for s in self.shapes)

    @cached_property
    def _ball_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only centres (k, d) and radii (k,) of a union of balls, built
        once per union; TypeError, on every access, when it holds another shape."""
        for p in self.shapes:
            if not isinstance(p, Ball):
                raise TypeError(f"distance_between measures from a union of balls, not one that holds a {_KIND_OF[type(p)]}")
        centres = np.array([p.center for p in self.shapes])
        radii = np.array([p.radius for p in self.shapes])
        centres.flags.writeable = radii.flags.writeable = False
        return centres, radii

    # -- serialization ----------------------------------------------------

    def to_records(self) -> list[dict]:
        head = {
            "record": "region_set",
            "dimension": self.dimension,
            "primitive_count": len(self.shapes),
        }
        return [head] + [primitive_to_dict(s) for s in self.shapes]


_KIND_OF = {Point: "point", Ball: "ball", Sphere: "sphere", Annulus: "annulus",
            SphericalCap: "cap", PuncturedSphere: "punctured_sphere"}


def primitive_to_dict(shape: Primitive) -> dict:
    """JSON record of a primitive: its kind and its fields, tuples as lists.

    Keys are the dataclass field names without a trailing underscore.
    """
    kind = _KIND_OF.get(type(shape))
    if kind is None:
        raise TypeError(f"unknown primitive {shape!r}")
    rec = {"record": "primitive", "kind": kind}
    for f in fields(shape):
        value = getattr(shape, f.name)
        if f.name == "exclusions":
            value = [{"direction": list(d), "ball_radius": b} for d, b in value]
        elif isinstance(value, tuple):
            value = list(value)
        rec[f.name.rstrip("_")] = value
    return rec


# ---------------------------------------------------------------------------
# Constructors from the decomposition playbook
# ---------------------------------------------------------------------------


def make_annulus(inner: float, outer: float, dimension: int) -> RegionSet:
    """Solid origin-centered annulus with exact volume accessor."""
    return RegionSet(dimension, (Annulus(dimension, float(inner), float(outer)),))


# ---------------------------------------------------------------------------
# Generalized surface area: closed forms and volume bounds
# ---------------------------------------------------------------------------


def _shell_radii(shape: Primitive) -> tuple[float, float, float] | None:
    """Outer radius, inner radius (0 when solid) and the volume added at r = 0
    of a point, sphere, ball or annulus; None for any other shape."""
    if isinstance(shape, Point):
        return 0.0, 0.0, 0.0
    if isinstance(shape, Sphere):
        return shape.radius, shape.radius, 0.0
    if isinstance(shape, Ball):
        return shape.radius, 0.0, shape.volume()
    if isinstance(shape, Annulus):
        return shape.outer, shape.inner, shape.volume()
    return None


def _shell_volume(outer: float, inner: float, body: float, d: int, r: np.ndarray) -> np.ndarray:
    """|{x : r <= dist(x, S) <= r + 1}| at each r, for S of these `_shell_radii`."""

    def vol(radius):  # ball_volume, elementwise
        return unit_ball_volume(d) * np.maximum(radius, 0.0) ** d

    out = (vol(outer + r + 1.0) - vol(outer + r)) + (vol(inner - r) - vol(inner - r - 1.0))
    return out + np.where(r == 0.0, body, 0.0)


# r-values per leaf of the pruned sigma search.
_SIGMA_LEAF = 256


def _ratio_bound(outer: float, inner: float, d: int, grid: float, lo: int, hi: int) -> float:
    """Upper bound on the computed ratio at r = k * grid, lo <= k < hi.

    The outer part of the shell volume grows with r and the inner part
    shrinks, so on [r_a, r_b] the ratio is at most (outer(r_b) + inner(r_a))
    / (r_a^d + 1), plus a slack of a few hundred ulps of the largest volume
    term for rounding.  The body is added at r = 0, so that has no bound.
    """
    if lo == 0:
        return math.inf
    w = unit_ball_volume(d)
    ra, rb = lo * grid, (hi - 1) * grid
    radii = (outer + rb + 1.0, outer + rb, inner - ra, inner - ra - 1.0)
    a, b, c, e = (w * max(x, 0.0) ** d for x in radii)
    return (a - b + c - e + 64 * (d + 2) * 2.0**-52 * max(a, c)) / (ra**d + 1.0)


@lru_cache(maxsize=1024)
def _grid_sigma(outer: float, inner: float, body: float, d: int, diameter: float, grid: float) -> float:
    """Best-first branch and bound over intervals of grid indices, split into
    leaves of at most _SIGMA_LEAF points; a leaf is evaluated only while its
    bound exceeds the best value found."""
    span = (diameter + d + 2.0 + grid / 2.0) / grid
    # Past 2^53 the outer radius has no unit digit, so the volume differences
    # have none either; past 2^63 the grid has no int64 index.  Also NaN.
    if not (outer < 2.0**53 and span < 2.0**63):
        return math.inf
    count = math.ceil(span)  # the length of np.arange(0.0, r_max + grid / 2.0, grid)
    # headroom for the sums of volume terms in the leaves and the bounds
    if not math.isfinite(16.0 * unit_ball_volume(d) * (outer + (count - 1) * grid + 1.0) ** d):
        return math.inf
    best = -math.inf
    heap = [(-math.inf, 0, count)]
    while heap and -heap[0][0] > best:
        _, lo, hi = heapq.heappop(heap)
        if hi - lo > _SIGMA_LEAF:
            mid = (lo + hi) // 2
            for a, b in ((lo, mid), (mid, hi)):
                heapq.heappush(heap, (-_ratio_bound(outer, inner, d, grid, a, b), a, b))
        else:
            r = np.arange(lo, hi) * grid
            ratio = _shell_volume(outer, inner, body, d, r) / (r**d + 1.0)
            best = max(best, float(np.max(ratio)))
    return best


def closed_form_sigma(region: RegionSet, grid: float = 1e-3) -> float | None:
    """Generalized surface area of a single basic primitive, maximized on an r-grid.

    The maximum over r = 0, grid, 2 grid, ... up to diam + d + 2 is the same
    float as a scan of every grid point, found by a branch and bound that
    skips the grid points provably below it, and cached per shape.  It can
    fall short of the supremum by the variation of the ratio within one grid
    step.  It is inf when a volume term overflows, the outer radius reaches
    2^53 or the grid has 2^63 points.  Returns None when the region is not a
    single point/sphere/ball/annulus; callers fall back to a volume bound
    (`sanity_bound`).
    """
    if not (math.isfinite(grid) and grid > 0):
        raise ValueError(f"sigma grid must be finite and > 0, got {grid!r}")
    if len(region.shapes) != 1:
        return None
    shape = region.shapes[0]
    try:
        radii = _shell_radii(shape)
        if radii is None:
            return None
        # Python floats raise OverflowError where numpy scalars warn
        outer, inner, body = map(float, radii)
        return _grid_sigma(outer, inner, body, shape.dimension, float(shape.diameter()), float(grid))
    except OverflowError:  # a volume term beyond the float range
        return math.inf


@lru_cache(maxsize=1024)
def surface_volume_bound(diameter: float, dimension: int) -> float:
    """Volume-type upper bound on sigma for any compact set of given diameter.

    The shell at distance r fits inside B(x0, diam + r + 1) minus B(x0, r)
    for any x0 in the set, so sigma <= sup_r w_d((D+r+1)^d - r^d)/(r^d+1).
    The bound is inf when that volume term overflows.  It depends on the
    two arguments alone, so it is cached per (diameter, dimension).
    """
    d = dimension
    D = max(float(diameter), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.linspace(0.0, D + d + 2.0, 4001)
        num = ball_volume(1.0, d) * ((D + r + 1.0) ** d - r**d)
        ratio = num / (r**d + 1.0)
    if not np.all(np.isfinite(num)):
        return math.inf
    return float(np.max(ratio))


def sanity_bound(region: RegionSet) -> float:
    """Volume bound on sigma for this region (uses the diameter bound)."""
    return surface_volume_bound(region.diameter_bound(), region.dimension)


# ---------------------------------------------------------------------------
# Distances between regions
# ---------------------------------------------------------------------------


def distance_between(a: RegionSet, b: RegionSet) -> float:
    """inf over pairs of points of the union of balls `a` and the set `b`;
    +inf if either is empty.

    Exact against every member shape, except a punctured sphere in d >= 3,
    which gives a lower bound (see `PuncturedSphere`).  A union that holds
    any other shape than a ball raises TypeError, so a clearance never
    overshoots.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    centres, radii = a._ball_arrays
    if a.is_empty() or b.is_empty():
        return math.inf
    # every ball of `a` against one member shape per call
    return min(float(np.min(np.maximum(q.point_distance(centres) - radii, 0.0))) for q in b.shapes)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemberInfo:
    """Construction metadata attached to one decomposition member."""

    scale: int
    role: str = "shell"  # shell | cap | cheese
    clearance_bound: float | None = None  # guaranteed lower bound, if built
    site: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class TotalDecomposition:
    """Finite truncation of a sequence of measure-zero compact sets.

    The stored members are the first scales of a conceptually infinite
    decomposition; the `tail` entry of `params` (set by the builders in
    :mod:`sparseloc.certify`) lets certificates bound the dropped tail
    symbolically.  It carries no gamma: each certificate takes its own.
    """

    dimension: int
    members: tuple[RegionSet, ...]
    kind: str  # sphere-shells | cap-cheese | custom
    member_info: tuple[MemberInfo, ...] = ()
    params: dict = field(default_factory=dict)

    def to_records(self) -> list[dict]:
        head = {
            "record": "total_decomposition",
            "dimension": self.dimension,
            "kind": self.kind,
            "member_count": len(self.members),
            "params": self.params,
            "truncated": True,
        }
        out = [head]
        for i, (m, info) in enumerate(
            zip(self.members, self.member_info or [None] * len(self.members))
        ):
            rec = {
                "record": "member",
                "index": i,
                "primitives": [primitive_to_dict(s) for s in m.shapes],
            }
            if info is not None:
                rec["meta"] = {
                    "scale": info.scale,
                    "role": info.role,
                    "clearance_bound": info.clearance_bound,
                    "site": list(info.site) if info.site is not None else None,
                }
            out.append(rec)
        return out


def sphere_shell_decomposition(radii, dimension: int = 2) -> TotalDecomposition:
    """Total decomposition from origin-centered spheres at increasing radii.

    The complement splits into the inner ball, the open shells between
    consecutive spheres, and the unbounded exterior; the result is marked
    truncated because only finitely many scales are stored.
    """
    radii = [float(r) for r in np.atleast_1d(radii)]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    origin = tuple(np.zeros(dimension))
    members = tuple(RegionSet(dimension, (Sphere(origin, r),)) for r in radii)
    info = tuple(MemberInfo(scale=i, role="shell") for i in range(len(radii)))
    return TotalDecomposition(
        dimension=dimension,
        members=members,
        kind="sphere-shells",
        member_info=info,
        params={"radii": list(radii)},
    )
