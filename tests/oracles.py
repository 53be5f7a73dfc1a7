"""Judges that only tests call: slow or pairwise rules that the library's
kernels must agree with.

`pair_distance` measures two primitive shapes one pair at a time, by the
exact rules for a point, a ball, a d=1 sphere (two points), an
origin-radial set (annulus or centred sphere) and a pair of spheres.  It
is the judge of the batched clearance kernel in `geometry.distance_between`.

`coverage_sweep`, a float covered-interval sweep over a sites x columns
boolean matrix, is the judge of the packed-bit kernel
`stochastic._coverage_sweep`, which must agree with it column by column.
"""

import math

import numpy as np

from sparseloc import geometry as g


def _centre_norm(sphere: g.Sphere) -> float:
    return float(np.linalg.norm(sphere.center))


def _is_radial(shape) -> bool:
    """True when the shape holds every direction at each norm it meets."""
    return isinstance(shape, g.Annulus) or (isinstance(shape, g.Sphere) and _centre_norm(shape) == 0.0)


def _min_norm(shape) -> float:
    """Least norm of a point of a sphere, an annulus, a cap or a punctured sphere."""
    if isinstance(shape, g.Sphere):
        return abs(_centre_norm(shape) - shape.radius)
    if isinstance(shape, g.Annulus):
        return shape.inner
    if isinstance(shape, g.SphericalCap):
        return shape.sphere_radius
    return shape.radius


def pair_distance(p, q) -> float:
    """Distance between two primitives, or TypeError when no exact rule applies."""
    if isinstance(q, (g.Point, g.Ball)):
        p, q = q, p
    if isinstance(p, g.Point):
        return float(q.point_distance(np.asarray(p.center)[None, :])[0])
    if isinstance(p, g.Ball):
        return max(0.0, float(q.point_distance(np.asarray(p.center)[None, :])[0]) - p.radius)
    if isinstance(q, g.Sphere) and q.dimension == 1:
        p, q = q, p
    if isinstance(p, g.Sphere) and p.dimension == 1:
        # a 1-D sphere is the two points center -+ radius
        return min(pair_distance(g.Point((p.center[0] + s,)), q) for s in (-p.radius, p.radius))
    if _is_radial(q):
        p, q = q, p
    if _is_radial(p):
        return max(0.0, _min_norm(p) - q.circumradius(), _min_norm(q) - p.circumradius())
    if isinstance(p, g.Sphere) and isinstance(q, g.Sphere):
        dist = float(np.linalg.norm(np.asarray(p.center) - np.asarray(q.center)))
        r1, r2 = p.radius, q.radius
        return max(0.0, dist - r1 - r2, r1 - dist - r2, r2 - dist - r1)
    raise TypeError(f"no exact distance between a {type(p).__name__} and a {type(q).__name__}")


def region_distance(a: g.RegionSet, b: g.RegionSet) -> float:
    """Least pair_distance over the primitives of two regions, clamped at 0."""
    return max(min((pair_distance(p, q) for p in a.shapes for q in b.shapes), default=math.inf), 0.0)


def coverage_sweep(norms_sorted, active, lo, hi, width):
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
