"""Judges that only tests call: slow or pairwise rules that the library's
kernels must agree with.

`pair_distance` measures two primitive shapes one pair at a time, by the
exact rules for a point, a ball, a d=1 sphere (two points), an
origin-radial set (annulus or centred sphere) and a pair of spheres.  It
is the judge of the batched clearance kernel in `geometry.distance_between`.

`punctured_lower_bound` takes the d >= 3 lower bound of a punctured
sphere one excluded cap at a time, the judge of the one-pass
`geometry.PuncturedSphere._point_distance_lower_bound`.

`free_intervals` lists every maximal free piece of inner radii, with its
endpoints' closure, where a bad site at norm v blocks the inner radii
[v - width, v].  Its first piece judges `certify._first_free`, and its
emptiness judges both coverage sweeps.

`coverage_sweep`, a float covered-interval sweep over a sites x columns
boolean matrix, is the judge of the packed-bit kernel
`stochastic._coverage_sweep`, which must agree with it column by column.

`shell_measure` and `generalized_surface_area` estimate a shell measure
|{x : r <= dist(x, S) <= r + 1}| and the generalized surface area
sigma(S) = sup_r |shell(r)| / (r^d + 1) by deterministic grid quadrature,
with an error bar.  With `closed_form_shell_measure`, the exact shell
measure of a point, sphere, ball or annulus, they judge
`geometry.closed_form_sigma` and `geometry.sanity_bound`.

`validate_decomposition` lists the violations of a decomposition's
structural invariant: single origin-centred spheres with increasing radii
for `sphere-shells`, volume 0 for every other kind.

`free_operator` is the zero-potential grid operator on a centred box, the
reference operator of the spectral tests.

`is_epsilon_free` decides one region's eps-free event site by site, the
judge of the exact scan `certify.find_free_subannulus`.
"""

import math
from dataclasses import dataclass

import numpy as np

from sparseloc import geometry as g
from sparseloc.models import CouplingMap, require_window
from sparseloc.spectral import GridOperator


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


def punctured_lower_bound(shape: g.PuncturedSphere, points: np.ndarray) -> np.ndarray:
    """|r - R| at each point, raised to the rim distance of every excluded cap
    that shadows it, one cap at a time."""
    R = shape.radius
    r = np.sqrt(np.einsum("ij,ij->i", points, points))
    best = np.abs(r - R)
    for (direction, _b), theta in zip(shape.exclusions, shape._half_angles):
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.clip(np.vecdot(points, np.asarray(direction)) / np.where(r > 0, r, 1.0), -1.0, 1.0)
        ang = np.arccos(cosang)
        rim = np.sqrt((r - R) ** 2 + 4.0 * R * r * np.sin((theta - ang) / 2.0) ** 2)
        best = np.where(ang < theta, np.maximum(best, rim), best)
    return np.where(r == 0.0, R, best)


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


def free_intervals(bad_norms, lo, hi, width) -> list[FreePiece]:
    """Maximal r-intervals in [lo, hi] whose annulus [r, r + width] avoids every
    bad norm: a norm v blocks the closed r-interval [v - width, v].  It makes
    the norms unique before it filters them and merges the blocks before it
    cuts the pieces, two steps that the library's one-pass scan skips."""
    if hi < lo:
        return []
    bad = np.unique(np.asarray(bad_norms, dtype=float))
    bad = bad[(bad >= lo) & (bad - width <= hi)]
    if bad.size == 0:
        return [FreePiece(lo, hi, True, True)]
    blocks = []
    for v in bad:
        start = v - width
        if blocks and start <= blocks[-1][1]:
            blocks[-1][1] = max(blocks[-1][1], v)
        else:
            blocks.append([start, v])
    pieces = []
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
    return [
        p for p in pieces
        if p.lo < p.hi or (p.lo == p.hi and p.lo_closed and p.hi_closed)
    ]


def coverage_sweep(norms_sorted, active, lo, hi, width):
    """Per column of `active` (sites x columns, rows in norm order): is
    [lo, hi] fully covered by the blockers [v - width, v] of its active sites?

    The rule is that of ``not free_intervals(...)`` above, for hi >= lo.  Blockers
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


# ---------------------------------------------------------------------------
# Shell measures by deterministic grid quadrature
# ---------------------------------------------------------------------------

DEFAULT_RESOLUTION = 0.01
_BLOCK_CELLS = 2_000_000


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


def _axis_centers(extent: float, resolution: float) -> np.ndarray:
    n = int(math.ceil(2.0 * extent / resolution))
    n = max(n, 1)
    return (np.arange(n) - (n - 1) / 2.0) * resolution


def _iter_grid_blocks(region: g.RegionSet, extent: float, resolution: float):
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
        yield np.sort(region.distance(np.column_stack([m.ravel() for m in grids])))


def _shell_counts(
    region: g.RegionSet, extent: float, resolution: float, r_values: np.ndarray
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
    region: g.RegionSet, r: float, resolution: float = DEFAULT_RESOLUTION
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
    region: g.RegionSet, resolution: float = DEFAULT_RESOLUTION
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


def closed_form_shell_measure(shape, r):
    """Exact |{x : r <= dist(x, shape) <= r+1}| for point/sphere/ball/annulus.

    `r` may be an array of distances; a scalar `r` gives a float.
    """
    radii = g._shell_radii(shape)
    if radii is None:
        raise TypeError(f"no closed-form shell measure for {type(shape).__name__}")
    out = g._shell_volume(*radii, shape.dimension, np.asarray(r, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Decompositions, operators, eps-free events
# ---------------------------------------------------------------------------


def validate_decomposition(td: g.TotalDecomposition) -> list[str]:
    """Structural invariant check; returns a list of violation messages.

    `sphere-shells` members must be single origin-centered spheres with
    strictly increasing radii; every other kind's members must have
    volume 0, an exact test since each primitive's volume is closed-form.
    """
    problems: list[str] = []
    for i, m in enumerate(td.members):
        if m.dimension != td.dimension:
            problems.append(f"member {i}: dimension mismatch")
    if td.kind == "sphere-shells":
        radii = []
        for i, m in enumerate(td.members):
            if len(m.shapes) != 1 or not isinstance(m.shapes[0], g.Sphere):
                problems.append(f"member {i}: not a single sphere")
                continue
            if any(c != 0.0 for c in m.shapes[0].center):
                problems.append(f"member {i}: sphere not origin-centered")
            radii.append(m.shapes[0].radius)
        if any(b <= a for a, b in zip(radii, radii[1:])):
            problems.append("sphere radii not strictly increasing")
    else:
        for i, m in enumerate(td.members):
            if m.volume() > 0.0:
                problems.append(f"member {i}: has positive volume")
    return problems


def free_operator(dimension: int, shape, spacing: float = 1.0) -> GridOperator:
    """Zero-potential operator on a centered box."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    origin = -spacing * (np.asarray(shape, dtype=float) - 1.0) / 2.0
    return GridOperator(dimension, shape, spacing, origin, np.zeros(int(np.prod(shape))))


def is_epsilon_free(couplings: CouplingMap, region: g.RegionSet, eps: float) -> bool:
    """True when every coupling in the region is below eps (eps itself is bad)."""
    require_window(couplings.window_radius, region.circumradius(), " needed by the query")
    inside = region.contains(couplings.points)
    return bool(np.all(couplings.values[inside] < eps))
