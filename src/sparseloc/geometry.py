"""Compact subsets of R^d: distances, shell measures, surface area, decompositions.

The primitives supported here (points, balls, spheres, origin-centered
annuli, spherical caps, punctured spheres, axis-aligned boxes) are exactly
the shapes needed to build shell decompositions around sparse scatterer
configurations.  Surfaces are kept symbolic, so the measure-zero invariant
of decomposition members is exact rather than voxel-approximate, and a
distance between two shapes is exact or refused (see `distance_between`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

__all__ = [
    "Point",
    "Ball",
    "Sphere",
    "Annulus",
    "SphericalCap",
    "PuncturedSphere",
    "Box",
    "RegionSet",
    "TotalDecomposition",
    "ShellMeasure",
    "SurfaceAreaEstimate",
    "ball_volume",
    "make_annulus",
    "spherical_cap",
    "sphere_shell_decomposition",
    "distance_between",
    "shell_measure",
    "generalized_surface_area",
    "closed_form_shell_measure",
    "closed_form_sigma",
    "surface_volume_bound",
    "sanity_bound",
]

DEFAULT_RESOLUTION = 0.01

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
    return unit_ball_volume(dimension) * radius**dimension


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

    def min_norm(self) -> float:
        return abs(float(np.linalg.norm(self.center)) - self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class Annulus:
    """Solid annulus around the origin: {x : inner <= |x| <= outer}."""

    dimension_: int
    inner: float
    outer: float

    def __post_init__(self):
        if self.inner < 0 or self.outer < self.inner:
            raise ValueError("annulus requires 0 <= inner <= outer")

    @property
    def dimension(self) -> int:
        return self.dimension_

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        r = _norm(points)
        return np.maximum(np.maximum(self.inner - r, r - self.outer), 0.0)

    def circumradius(self) -> float:
        return self.outer

    def min_norm(self) -> float:
        return self.inner

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
    `ball_radius` centered at R * direction.
    """

    sphere_radius: float
    direction: tuple[float, ...]
    ball_radius: float

    def __post_init__(self):
        if self.sphere_radius <= 0:
            raise ValueError("cap requires sphere_radius > 0")
        if self.ball_radius < 0:
            raise ValueError("cap requires ball_radius >= 0")
        norm = float(np.linalg.norm(self.direction))
        if norm == 0.0:
            raise ValueError("cap direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(
                self, "direction", tuple(float(c) / norm for c in self.direction)
            )

    @property
    def dimension(self) -> int:
        return len(self.direction)

    @cached_property
    def half_angle(self) -> float:
        return _cap_half_angle(self.sphere_radius, self.ball_radius)

    def _angles_to_axis(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = _norm(points)
        u = np.asarray(self.direction)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.clip(_axis_dot(points, u) / np.where(r > 0, r, 1.0), -1.0, 1.0)
        ang = np.arccos(cosang)
        return r, ang

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        R = self.sphere_radius
        r, ang = self._angles_to_axis(points)
        inside = ang <= self.half_angle
        # chord to the cap rim within the plane span(x, axis); the
        # half-angle form avoids cancellation at small separations
        rim = _chord_distance(r, R, ang - self.half_angle)
        dist = np.where(inside, np.abs(r - R), rim)
        return np.where(r == 0.0, R, dist)

    def circumradius(self) -> float:
        return self.sphere_radius

    def min_norm(self) -> float:
        return self.sphere_radius

    def diameter(self) -> float:
        t = self.half_angle
        if t >= math.pi / 2.0:
            return 2.0 * self.sphere_radius
        return 2.0 * self.sphere_radius * math.sin(t)


@dataclass(frozen=True)
class PuncturedSphere(_Surface):
    """Origin-centered sphere with open caps removed (closure kept).

    `exclusions` holds (direction, ball_radius) pairs in the same
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
        cleaned = []
        for direction, ball_radius in self.exclusions:
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                raise ValueError("exclusion direction must be nonzero")
            cleaned.append((tuple(float(c) / norm for c in direction), float(ball_radius)))
        object.__setattr__(self, "exclusions", tuple(cleaned))

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
        R = self.radius
        r = _norm(points)
        base = np.abs(r - R)
        if not self.exclusions:
            return base
        best = base.copy()
        for (direction, _b), theta in zip(self.exclusions, self._half_angles):
            u = np.asarray(direction)
            with np.errstate(invalid="ignore", divide="ignore"):
                cosang = np.clip(_axis_dot(points, u) / np.where(r > 0, r, 1.0), -1.0, 1.0)
            ang = np.arccos(cosang)
            shadowed = ang < theta
            rim = _chord_distance(r, R, theta - ang)
            best = np.where(shadowed, np.maximum(best, rim), best)
        return np.where(r == 0.0, R, best)

    def circumradius(self) -> float:
        return self.radius

    def min_norm(self) -> float:
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


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corner dimensions differ")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box requires lo <= hi componentwise")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        gap = np.maximum(np.maximum(lo - points, points - hi), 0.0)
        return np.sqrt(np.einsum("ij,ij->i", gap, gap))

    def circumradius(self) -> float:
        corners = np.array(np.meshgrid(*zip(self.lo, self.hi))).reshape(len(self.lo), -1).T
        return float(np.max(_norm(corners)))

    def min_norm(self) -> float:
        return float(self.point_distance(np.zeros((1, self.dimension)))[0])

    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))

    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))


Primitive = Point | Ball | Sphere | Annulus | SphericalCap | PuncturedSphere | Box


def _is_radial(shape: Primitive) -> bool:
    """True when the shape contains every direction at each norm it meets
    (points and balls never get here: _primitive_distance handles them first)."""
    if isinstance(shape, Sphere):
        return float(np.linalg.norm(shape.center)) == 0.0
    return isinstance(shape, Annulus)


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
    def box(lo, hi) -> "RegionSet":
        lo = tuple(float(c) for c in np.atleast_1d(lo))
        hi = tuple(float(c) for c in np.atleast_1d(hi))
        return RegionSet(len(lo), (Box(lo, hi),))

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

    def contains(self, points, tol: float = CONTAINS_TOL) -> np.ndarray:
        return self.distance(points) <= tol

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

    # -- serialization ----------------------------------------------------

    def to_records(self) -> list[dict]:
        head = {
            "record": "region_set",
            "dimension": self.dimension,
            "primitive_count": len(self.shapes),
        }
        return [head] + [primitive_to_dict(s) for s in self.shapes]

    @staticmethod
    def from_records(records: list[dict]) -> "RegionSet":
        head = records[0]
        if head.get("record") != "region_set":
            raise ValueError("not a region_set record stream")
        shapes = tuple(primitive_from_dict(r) for r in records[1 : 1 + head["primitive_count"]])
        return RegionSet(head["dimension"], shapes)


_PRIMITIVE_KINDS = {
    "point": Point,
    "ball": Ball,
    "sphere": Sphere,
    "annulus": Annulus,
    "cap": SphericalCap,
    "punctured_sphere": PuncturedSphere,
    "box": Box,
}
_KIND_OF = {cls: kind for kind, cls in _PRIMITIVE_KINDS.items()}


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


def primitive_from_dict(rec: dict) -> Primitive:
    cls = _PRIMITIVE_KINDS.get(rec["kind"])
    if cls is None:
        raise ValueError(f"unknown primitive kind {rec['kind']!r}")
    args = []
    for f in fields(cls):
        value = rec[f.name.rstrip("_")]
        if f.name == "exclusions":
            value = tuple((tuple(e["direction"]), e["ball_radius"]) for e in value)
        elif isinstance(value, list):
            value = tuple(value)
        args.append(value)
    return cls(*args)


# ---------------------------------------------------------------------------
# Constructors from the decomposition playbook
# ---------------------------------------------------------------------------


def make_annulus(inner: float, outer: float, dimension: int) -> RegionSet:
    """Solid origin-centered annulus with exact volume accessor."""
    return RegionSet(dimension, (Annulus(dimension, float(inner), float(outer)),))


def spherical_cap(sphere_radius: float, direction, cap_ball_radius: float) -> RegionSet:
    """Cap of the origin-centered sphere cut by a ball sitting on it.

    Degenerates to the full sphere when the ball swallows it and to a
    single point when the ball radius is zero.
    """
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    if sphere_radius <= 0:
        raise ValueError("sphere_radius must be > 0")
    if cap_ball_radius < 0:
        raise ValueError("cap_ball_radius must be >= 0")
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    d = direction.size
    unit = direction / nrm
    if cap_ball_radius >= 2.0 * sphere_radius:
        return RegionSet(d, (Sphere(tuple(np.zeros(d)), float(sphere_radius)),))
    if cap_ball_radius == 0.0:
        return RegionSet(d, (Point(tuple(sphere_radius * unit)),))
    return RegionSet(
        d, (SphericalCap(float(sphere_radius), tuple(unit), float(cap_ball_radius)),)
    )


# ---------------------------------------------------------------------------
# Shell measures by deterministic grid quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellMeasure:
    """Grid estimate of |{x : r <= dist(x, S) <= r + 1}| with error bar."""

    value: float
    error: float
    r: float
    resolution: float


@dataclass(frozen=True)
class SurfaceAreaEstimate:
    """Grid estimate of the shell-measure supremum sup_r |shell(r)|/(r^d+1)."""

    value: float
    argmax_r: float
    error: float
    resolution: float
    r_max: float


_BLOCK_CELLS = 2_000_000


def _axis_centers(extent: float, resolution: float) -> np.ndarray:
    n = int(math.ceil(2.0 * extent / resolution))
    n = max(n, 1)
    return (np.arange(n) - (n - 1) / 2.0) * resolution


def _iter_grid_blocks(region: RegionSet, extent: float, resolution: float):
    """Yield sorted distance arrays over blocks of a symmetric grid."""
    d = region.dimension
    axis = _axis_centers(extent, resolution)
    n = axis.size
    if d == 1:
        pts = axis[:, None]
        yield np.sort(region.distance(pts))
        return
    if d > 3:
        raise ValueError("grid quadrature supports d in {1, 2, 3}")
    rows_per_block = max(1, _BLOCK_CELLS // (n ** (d - 1)))
    for start in range(0, n, rows_per_block):
        grids = np.meshgrid(axis[start : start + rows_per_block], *[axis] * (d - 1), indexing="ij")
        yield np.sort(region.distance(np.column_stack([g.ravel() for g in grids])))


def _shell_counts(
    region: RegionSet, extent: float, resolution: float, r_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive cell counts in [r, r+1] plus boundary-uncertain cell counts."""
    d = region.dimension
    delta = resolution * math.sqrt(d)
    lo = r_values
    hi = r_values + 1.0
    counts = np.zeros(r_values.size, dtype=np.int64)
    fuzz = np.zeros(r_values.size, dtype=np.int64)

    def between(block, a, b):  # sorted values in [a, b]
        return np.searchsorted(block, b, side="right") - np.searchsorted(block, a, side="left")

    for block in _iter_grid_blocks(region, extent, resolution):
        counts += between(block, lo, hi)
        fuzz += between(block, lo - delta, lo + delta)
        fuzz += between(block, hi - delta, hi + delta)
    return counts, fuzz


def shell_measure(
    region: RegionSet, r: float, resolution: float = DEFAULT_RESOLUTION
) -> ShellMeasure:
    """Measure of the unit-thickness shell at distance r from the set.

    Deterministic midpoint quadrature on a symmetric grid; the reported
    error counts the cells within one cell diagonal of either shell
    boundary, which bounds the discretization uncertainty.
    """
    if r < 0:
        raise ValueError("shell distance r must be >= 0")
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    if region.is_empty():
        return ShellMeasure(0.0, 0.0, r, resolution)
    extent = region.circumradius() + r + 1.0 + resolution
    counts, fuzz = _shell_counts(region, extent, resolution, np.array([float(r)]))
    cell = resolution**region.dimension
    return ShellMeasure(float(counts[0]) * cell, float(fuzz[0]) * cell, r, resolution)


def generalized_surface_area(
    region: RegionSet, resolution: float = DEFAULT_RESOLUTION
) -> SurfaceAreaEstimate:
    """sup over r >= 0 of |shell(r)| / (r^d + 1), on an r-grid of the given spacing.

    The grid ends at r_max = diam(S) + d + 2, past the point where the ratio
    is provably decreasing, so truncating the supremum is safe.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    d = region.dimension
    if region.is_empty():
        return SurfaceAreaEstimate(0.0, 0.0, 0.0, resolution, 0.0)
    r_max = region.diameter_bound() + d + 2.0
    r_values = np.arange(0.0, r_max + resolution / 2.0, resolution)
    extent = region.circumradius() + r_max + 1.0 + resolution
    counts, fuzz = _shell_counts(region, extent, resolution, r_values)
    cell = resolution**d
    denom = r_values**d + 1.0
    ratios = counts * cell / denom
    k = int(np.argmax(ratios))
    return SurfaceAreaEstimate(
        float(ratios[k]), float(r_values[k]), float(fuzz[k] * cell / denom[k]),
        resolution, float(r_max),
    )


# ---------------------------------------------------------------------------
# Closed-form shell measures (exact oracles for the basic primitives)
# ---------------------------------------------------------------------------


def closed_form_shell_measure(shape: Primitive, r):
    """Exact |{x : r <= dist(x, shape) <= r+1}| for point/sphere/ball/annulus.

    `r` may be an array of distances; a scalar `r` gives a float.  Each
    shape is an outer radius, an inner radius (0 when solid) and the
    volume it adds at r = 0.
    """
    if isinstance(shape, Point):
        outer, inner, body = 0.0, 0.0, 0.0
    elif isinstance(shape, Sphere):
        outer, inner, body = shape.radius, shape.radius, 0.0
    elif isinstance(shape, Ball):
        outer, inner, body = shape.radius, 0.0, shape.volume()
    elif isinstance(shape, Annulus):
        outer, inner, body = shape.outer, shape.inner, shape.volume()
    else:
        raise TypeError(f"no closed-form shell measure for {type(shape).__name__}")
    d, r = shape.dimension, np.asarray(r, dtype=float)

    def vol(radius):  # ball_volume, elementwise
        return unit_ball_volume(d) * np.maximum(radius, 0.0) ** d

    out = (vol(outer + r + 1.0) - vol(outer + r)) + (vol(inner - r) - vol(inner - r - 1.0))
    out = out + np.where(r == 0.0, body, 0.0)
    return float(out) if out.ndim == 0 else out


# r-values per block of the closed-form sigma scan (bounds its memory).
_SIGMA_BLOCK = 1 << 16


def closed_form_sigma(region: RegionSet, grid: float = 1e-3) -> float | None:
    """Generalized surface area of a single basic primitive, maximized on an r-grid.

    The maximum over r = 0, grid, 2 grid, ... can fall short of the
    supremum by the variation of the ratio within one grid step.
    Returns None when the region is not a single point/sphere/ball/annulus;
    callers fall back to a volume bound (`sanity_bound`).
    """
    if len(region.shapes) != 1:
        return None
    shape = region.shapes[0]
    if not isinstance(shape, (Point, Sphere, Ball, Annulus)):
        return None
    d = region.dimension
    r_max = shape.diameter() + d + 2.0
    # the length of np.arange(0.0, r_max + grid / 2.0, grid), whose i-th value is i * grid
    count = math.ceil((r_max + grid / 2.0) / grid)
    peaks = []
    for lo in range(0, count, _SIGMA_BLOCK):
        r_values = np.arange(lo, min(lo + _SIGMA_BLOCK, count)) * grid
        vals = closed_form_shell_measure(shape, r_values)
        peaks.append(np.max(vals / (r_values**d + 1.0)))
    return float(np.max(peaks))


def surface_volume_bound(diameter: float, dimension: int) -> float:
    """Volume-type upper bound on sigma for any compact set of given diameter.

    The shell at distance r fits inside B(x0, diam + r + 1) minus B(x0, r)
    for any x0 in the set, so sigma <= sup_r w_d((D+r+1)^d - r^d)/(r^d+1).
    The bound is inf when that volume term overflows.
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
    """inf over pairs of points of the two sets; +inf if either is empty.

    Exact for every pair in which one side is a point, a ball, a d=1
    sphere (two points) or an origin-radial set (annulus or centered
    sphere), and for sphere-sphere pairs.  A punctured sphere in d >= 3
    gives a lower bound instead (see `PuncturedSphere`).  Any other pair
    raises TypeError, so a clearance never overshoots.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    if a.is_empty() or b.is_empty():
        return math.inf
    balls = [p for p in a.shapes if isinstance(p, Ball)]
    centres = np.array([p.center for p in balls])
    radii = np.array([p.radius for p in balls])
    best = math.inf
    for q in b.shapes:
        rest = a.shapes
        if balls and not isinstance(q, (Point, Ball)):
            # _primitive_distance's ball branch for every ball of `a` in one call
            best = min(best, float(np.min(np.maximum(q.point_distance(centres) - radii, 0.0))))
            rest = [p for p in a.shapes if not isinstance(p, Ball)]
        for p in rest:
            best = min(best, _primitive_distance(p, q))
    return max(best, 0.0)


def _primitive_distance(p: Primitive, q: Primitive) -> float:
    if isinstance(q, (Point, Ball)):
        p, q = q, p
    if isinstance(p, Point):
        pts = np.asarray(p.center)[None, :]
        return float(q.point_distance(pts)[0])
    if isinstance(p, Ball):
        pts = np.asarray(p.center)[None, :]
        return max(0.0, float(q.point_distance(pts)[0]) - p.radius)
    if isinstance(q, Sphere) and q.dimension == 1:
        p, q = q, p
    if isinstance(p, Sphere) and p.dimension == 1:
        # a 1-D sphere is the two points center -+ radius
        return min(_primitive_distance(Point((p.center[0] + s,)), q) for s in (-p.radius, p.radius))
    if _is_radial(q):
        p, q = q, p
    if _is_radial(p):
        return max(0.0, p.min_norm() - q.circumradius(), q.min_norm() - p.circumradius())
    if isinstance(p, Sphere) and isinstance(q, Sphere):
        dist = float(np.linalg.norm(np.asarray(p.center) - np.asarray(q.center)))
        r1, r2 = p.radius, q.radius
        return max(0.0, dist - r1 - r2, r1 - dist - r2, r2 - dist - r1)
    raise TypeError(f"no exact distance between a {_KIND_OF[type(p)]} and a {_KIND_OF[type(q)]}")


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
    truncated: bool = True

    def scales(self) -> list[int]:
        if self.member_info:
            return list(dict.fromkeys(info.scale for info in self.member_info))
        return list(range(len(self.members)))

    def validate(self) -> list[str]:
        """Structural invariant check; returns a list of violation messages.

        `sphere-shells` members must be single origin-centered spheres with
        strictly increasing radii; every other kind's members must have
        volume 0, an exact test since each primitive's volume is closed-form.
        """
        problems: list[str] = []
        for i, m in enumerate(self.members):
            if m.dimension != self.dimension:
                problems.append(f"member {i}: dimension mismatch")
        if self.kind == "sphere-shells":
            radii = []
            for i, m in enumerate(self.members):
                if len(m.shapes) != 1 or not isinstance(m.shapes[0], Sphere):
                    problems.append(f"member {i}: not a single sphere")
                    continue
                if any(c != 0.0 for c in m.shapes[0].center):
                    problems.append(f"member {i}: sphere not origin-centered")
                radii.append(m.shapes[0].radius)
            if any(b <= a for a, b in zip(radii, radii[1:])):
                problems.append("sphere radii not strictly increasing")
        else:
            for i, m in enumerate(self.members):
                if m.volume() > 0.0:
                    problems.append(f"member {i}: has positive volume")
        return problems

    def to_records(self) -> list[dict]:
        head = {
            "record": "total_decomposition",
            "dimension": self.dimension,
            "kind": self.kind,
            "member_count": len(self.members),
            "params": self.params,
            "truncated": self.truncated,
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

    @staticmethod
    def from_records(records: list[dict]) -> "TotalDecomposition":
        head = records[0]
        if head.get("record") != "total_decomposition":
            raise ValueError("not a total_decomposition record stream")
        members = []
        infos = []
        for rec in records[1 : 1 + head["member_count"]]:
            shapes = tuple(primitive_from_dict(p) for p in rec["primitives"])
            members.append(RegionSet(head["dimension"], shapes))
            meta = rec.get("meta")
            if meta is not None:
                infos.append(
                    MemberInfo(
                        scale=meta["scale"],
                        role=meta["role"],
                        clearance_bound=meta["clearance_bound"],
                        site=tuple(meta["site"]) if meta.get("site") else None,
                    )
                )
        return TotalDecomposition(
            dimension=head["dimension"],
            members=tuple(members),
            kind=head["kind"],
            member_info=tuple(infos) if infos else (),
            params=head.get("params", {}),
            truncated=head.get("truncated", True),
        )


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
        truncated=True,
    )
