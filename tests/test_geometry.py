"""Geometry oracles: closed forms derived independently, then checked."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_form_shell_measure,
    generalized_surface_area,
    punctured_lower_bound,
    region_distance,
    shell_measure,
    validate_decomposition,
)
from sparseloc import geometry as g

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def brute_shell_measure_1d(dist_fn, extent, r, h=0.002):
    """Riemann-sum oracle for shell volumes on a 1-D grid."""
    x = np.arange(-extent, extent, h) + h / 2.0
    d = dist_fn(x)
    return np.count_nonzero((d >= r) & (d <= r + 1.0)) * h


class TestAnnulus:
    def test_volume_closed_form_d2(self):
        region = g.make_annulus(1.0, 2.0, 2)
        assert region.volume() == pytest.approx(3.0 * math.pi, rel=1e-12)

    def test_disk_volume(self):
        assert g.make_annulus(0.0, 1.0, 2).volume() == pytest.approx(math.pi)

    def test_degenerate_annulus(self):
        assert g.make_annulus(2.0, 2.0, 3).volume() == 0.0

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            g.make_annulus(2.0, 1.0, 2)
        with pytest.raises(ValueError):
            g.make_annulus(-1.0, 1.0, 2)
        with pytest.raises(ValueError):
            g.Annulus(2, math.nan, 1.0)


class TestDistance:
    """distance_between measures from a union of balls; the cases that start
    from another shape check the pair judge of the oracles module instead."""

    def test_two_points_1d(self):
        assert region_distance(g.RegionSet.point([0.0]), g.RegionSet.point([3.0])) == 3.0

    def test_concentric_spheres(self):
        a = g.RegionSet.sphere([0, 0], 1.0)
        b = g.RegionSet.sphere([0, 0], 4.0)
        assert region_distance(a, b) == pytest.approx(3.0)

    def test_overlapping_balls(self):
        a = g.RegionSet.ball([0, 0], 2.0)
        b = g.RegionSet.ball([1, 0], 2.0)
        assert g.distance_between(a, b) == 0.0

    def test_empty_set_sentinel(self):
        assert g.distance_between(g.RegionSet.empty(2), g.RegionSet.ball([0, 0], 1.0)) == math.inf

    def test_separated_balls_exact(self):
        a = g.RegionSet.ball([0, 0], 1.0)
        b = g.RegionSet.ball([5, 0], 1.5)
        assert g.distance_between(a, b) == pytest.approx(2.5)

    def test_ball_inside_sphere(self):
        ball = g.RegionSet.ball([1, 0], 0.5)
        sphere = g.RegionSet.sphere([0, 0], 5.0)
        # nearest sphere point along +x from the ball edge at x=1.5
        assert g.distance_between(ball, sphere) == pytest.approx(3.5)

    def test_annulus_to_sphere_radial(self):
        ann = g.make_annulus(1.0, 2.0, 2)
        sph = g.RegionSet.sphere([0, 0], 6.0)
        assert region_distance(ann, sph) == pytest.approx(4.0)

    def test_cap_to_ball_exact(self):
        cap = g.RegionSet(2, (g.SphericalCap(10.0, (1.0, 0.0), 2.0),))
        ball = g.RegionSet.ball([12.0, 0.0], 1.0)
        assert g.distance_between(ball, cap) == region_distance(cap, ball) == pytest.approx(1.0)

    def test_offcenter_sphere_pair(self):
        a = g.RegionSet.sphere([0, 0], 1.0)
        b = g.RegionSet.sphere([0, 5], 1.0)
        assert region_distance(a, b) == pytest.approx(3.0)

    def test_nested_sphere_pair(self):
        a = g.RegionSet.sphere([0.5, 0], 1.0)
        b = g.RegionSet.sphere([0, 0], 10.0)
        assert region_distance(a, b) == pytest.approx(8.5)

    @pytest.mark.parametrize("c1,r1,c2,r2,want", [
        ((3.0, 1.0), 1.0, (3.0, 6.0), 1.5, 2.5),  # apart
        ((1.0, 1.0), 5.0, (2.0, 1.0), 1.0, 3.0),  # nested
        ((1.0, 1.0), 2.0, (3.0, 1.0), 1.0, 0.0),  # crossing
    ])
    def test_offcentre_sphere_pairs(self, c1, r1, c2, r2, want):
        # neither sphere is origin-radial, so the sphere-sphere rule decides
        a, b = g.RegionSet.sphere(c1, r1), g.RegionSet.sphere(c2, r2)
        assert region_distance(a, b) == region_distance(b, a) == want

    @pytest.mark.parametrize("other, want", [
        (g.make_annulus(4.5, 5.5, 1), 0.5),     # {4, 6} against [-5.5, -4.5] and [4.5, 5.5]
        (g.RegionSet.sphere([0.0], 4.5), 0.5),  # {4, 6} against {-4.5, 4.5}
        (g.RegionSet.sphere([9.0], 2.0), 1.0),  # {4, 6} against {7, 11}
    ])
    def test_d1_sphere_is_two_points(self, other, want):
        sphere = g.RegionSet.sphere([5.0], 1.0)
        assert region_distance(other, sphere) == region_distance(sphere, other) == want

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3), st.floats(0.1, 3)
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, x, y, r1, r2):
        a = g.RegionSet.sphere([x, y], r1)
        b = g.RegionSet.ball([0.0, 0.0], r2)
        d_ba = g.distance_between(b, a)
        assert d_ba == region_distance(a, b) == region_distance(b, a)
        assert d_ba >= 0.0

    def test_zero_iff_intersecting(self):
        a = g.RegionSet.sphere([0, 0], 2.0)
        b = g.RegionSet.ball([2.0, 0.0], 0.5)  # touches the sphere
        assert g.distance_between(b, a) == 0.0
        c = g.RegionSet.ball([3.0, 0.0], 0.5)
        assert g.distance_between(c, a) > 0.0


def vectors(d, bound=20.0):
    return st.tuples(*[st.floats(-bound, bound) for _ in range(d)])


def unit(v):
    """v scaled to norm 1, as the quasi-1D builder scales a site direction."""
    return tuple(np.divide(v, float(np.linalg.norm(v))))


def directions(d):
    return vectors(d, 1.0).filter(lambda v: math.hypot(*v) > 0.1).map(unit)


@st.composite
def member_shapes(draw, d):
    """One member primitive of every kind the clearance kernel handles."""
    kinds = ["point", "ball", "sphere", "centred sphere", "annulus", "cap", "punctured"]
    kind = draw(st.sampled_from(kinds + (["empty punctured"] if d == 2 else [])))
    radius = draw(st.floats(0.5, 30.0))
    if kind == "point":
        return g.Point(draw(vectors(d)))
    if kind in ("ball", "sphere"):
        return (g.Ball if kind == "ball" else g.Sphere)(draw(vectors(d)), radius)
    if kind == "centred sphere":
        return g.Sphere((0.0,) * d, radius)
    if kind == "annulus":
        return g.Annulus(d, radius, radius + draw(st.floats(0.0, 5.0)))
    if kind == "cap":
        return g.SphericalCap(radius, draw(directions(d)), draw(st.floats(0.0, 2.0 * radius)))
    if kind == "empty punctured":  # its one exclusion swallows the sphere
        return g.PuncturedSphere(d, radius, ((draw(directions(d)), 2.0 * radius),))
    cuts = st.tuples(directions(d), st.floats(0.0, radius))
    return g.PuncturedSphere(d, radius, tuple(draw(st.lists(cuts, max_size=4))))


@st.composite
def balls_and_member(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    balls = draw(st.lists(st.tuples(vectors(d), st.floats(0.0, 3.0)), max_size=20))
    union = g.RegionSet(d, tuple(g.Ball(c, r) for c, r in balls))
    return union, g.RegionSet(d, (draw(member_shapes(d)),))


# The kernel subtracts a Ball member's radius before the union ball's, the
# judge after it, so the two may differ in the last bit: two roundings, each
# within half an ulp of the centre distance plus both radii.
BALL_MEMBER_ULPS = 2


class TestClearanceKernel:
    """distance_between takes all balls of a union against one member primitive
    in one call; it must give the pair judge's result, bit for bit for every
    member kind but a ball."""

    @given(balls_and_member())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_loop(self, case):
        union, member = case
        got, want = g.distance_between(union, member), region_distance(union, member)
        shape = member.shapes[0]
        if isinstance(shape, g.Ball) and union.shapes:
            largest = max(np.linalg.norm(np.subtract(b.center, shape.center)) + b.radius for b in union.shapes)
            assert abs(got - want) <= BALL_MEMBER_ULPS * np.spacing(largest + shape.radius)
        else:
            assert got == want

    def test_empty_punctured_member_is_inf(self):
        union = g.RegionSet(2, (g.Ball((1.0, 2.0), 0.5),))
        member = g.RegionSet(2, (g.PuncturedSphere(2, 3.0, (((1.0, 0.0), 6.0),)),))
        assert g.distance_between(union, member) == region_distance(union, member) == math.inf

    def test_cap_axis_dot_does_not_depend_on_the_batch(self):
        # a BLAS matrix-vector product rounds the second centre's dot with
        # the axis one ulp away from the same product taken alone
        union = g.RegionSet(3, (g.Ball((0.0, 0.0, 0.0), 0.0), g.Ball((12.0, 16.0, 1.0), 0.0)))
        axis = (0.9607804503622109, -0.24019511259055273, 0.13859016591879295)
        member = g.RegionSet(3, (g.SphericalCap(11.0, axis, 8.0),))
        assert g.distance_between(union, member) == region_distance(union, member)

    def test_quasi1d_members_bit_equal(self):
        from sparseloc.certify import build_decomposition_quasi1d, difference_support
        from sparseloc.models import model_from_dict, sample_couplings

        model = model_from_dict({
            "dimension": 2,
            "sites": {"generator": "tube", "radius": 300.0},
            "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
        })
        checked = 0
        for seed in (1, 2):
            couplings = sample_couplings(model, seed, None)
            td = build_decomposition_quasi1d(couplings, 0.95, a=2.0, n_range=(2, 7))
            diff = difference_support(model, couplings, 0.95)
            assert len(diff.shapes) > 0
            for member in td.members:
                assert g.distance_between(diff, member) == region_distance(diff, member)
                checked += 1
        assert checked > 20


class TestNoExactRule:
    """distance_between measures from a union of balls only; a union that holds
    any other shape is refused, not estimated: a sampled estimate can
    overshoot, and a clearance must be a lower bound."""

    R = 10.0
    CAP = g.SphericalCap(R, unit((1.0, 0.2)), 4.0)
    CHEESE = g.PuncturedSphere(2, R, (((1.0, 0.0), 4.0), ((0.0, 1.0), 4.0)))

    def refused(self, a, b, kinds):
        """Both orders raise TypeError naming the first argument's non-ball kind."""
        for (x, y), k in zip(((a, b), (b, a)), kinds):
            with pytest.raises(TypeError, match=f"not one that holds a {k}$"):
                g.distance_between(x, y)

    @pytest.mark.parametrize("other", [
        g.Point((0.0, 4.0)),
        g.Sphere((0.0, 4.0), 1.0),
        g.Sphere((0.0, 0.0), 4.0),
    ], ids=["point", "sphere", "centred-sphere"])
    def test_a_union_of_other_shapes_is_refused(self, other):
        member = g.RegionSet(2, (g.SphericalCap(5.0, (0.0, 1.0), 1.0),))
        for shapes in ((other,), (g.Ball((9.0, 0.0), 0.5), other)):
            with pytest.raises(TypeError, match="distance_between measures from a union of balls"):
                g.distance_between(g.RegionSet(2, shapes), member)

    @pytest.mark.parametrize("center,radius", [((3.0, 1.0), 2.0), ((0.0, 4.0), 1.5)])
    def test_offcentre_sphere_against_cap(self, center, radius):
        self.refused(g.RegionSet.sphere(center, radius), g.RegionSet(2, (self.CAP,)), ("sphere", "cap"))

    def test_sphere_crossing_the_cap(self):
        # the two circles cross inside the cap, so the sets meet; a surface
        # sample every 1e-2 once put them 1.68e-3 apart
        center = np.array([8.5, 4.0])
        dist = float(np.linalg.norm(center))
        t = math.atan2(4.0, 8.5) + math.acos((self.R**2 + dist**2 - 1.0) / (2.0 * self.R * dist))
        crossing = self.R * np.array([[math.cos(t), math.sin(t)]])
        sphere = g.RegionSet.sphere(center, 1.0)
        assert sphere.distance(crossing)[0] < 1e-12
        assert g.RegionSet(2, (self.CAP,)).contains(crossing)[0]
        self.refused(sphere, g.RegionSet(2, (self.CAP,)), ("sphere", "cap"))

    def test_offcentre_sphere_against_punctured_sphere(self):
        cheese = g.RegionSet(2, (self.CHEESE,))
        self.refused(g.RegionSet.sphere((3.0, 1.0), 2.0), cheese, ("sphere", "punctured_sphere"))


class TestBallArrays:
    """A union's centres and radii are built once, on the first clearance,
    and kept read-only; the checks of distance_between run on every call."""

    def test_a_union_that_holds_a_point_is_refused_on_every_call(self):
        union = g.RegionSet(2, (g.Ball((9.0, 0.0), 0.5), g.Point((0.0, 4.0))))
        member = g.RegionSet(2, (g.SphericalCap(5.0, (0.0, 1.0), 1.0),))
        for _ in range(2):
            with pytest.raises(TypeError, match="not one that holds a point$"):
                g.distance_between(union, member)

    def test_checks_keep_their_order_once_cached(self):
        union = g.RegionSet(2, (g.Ball((9.0, 0.0), 0.5),))
        g.distance_between(union, g.RegionSet.sphere([0.0, 0.0], 3.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            g.distance_between(union, g.RegionSet.sphere([0.0, 0.0, 0.0], 3.0))
        assert g.distance_between(union, g.RegionSet.empty(2)) == math.inf
        empty = g.RegionSet.empty(2)
        for _ in range(2):
            assert g.distance_between(empty, g.RegionSet.sphere([0.0, 0.0], 3.0)) == math.inf

    def test_cached_arrays_are_read_only(self):
        union = g.RegionSet(3, (g.Ball((1.0, 2.0, 3.0), 0.5), g.Ball((0.0, 0.0, 7.0), 1.0)))
        centres, radii = union._ball_arrays
        assert centres.shape == (2, 3) and radii.shape == (2,)
        with pytest.raises(ValueError, match="read-only"):
            centres[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            radii[1] = 0.0
        assert union._ball_arrays[0] is centres

    @pytest.mark.parametrize("member", [
        g.RegionSet(2, (g.SphericalCap(11.0, (0.6, 0.8), 4.0),)),
        g.RegionSet(2, (g.PuncturedSphere(2, 11.0, (((1.0, 0.0), 4.0),)),)),
        g.RegionSet.sphere([0.0, 0.0], 11.0),
        g.make_annulus(2.0, 3.0, 2),
    ], ids=["cap", "cheese", "sphere", "annulus"])
    def test_same_clearance_before_and_after_caching(self, member):
        balls = (g.Ball((12.0, 16.0), 0.5), g.Ball((-3.0, 1.0), 0.0), g.Ball((0.0, 11.5), 2.0))
        union = g.RegionSet(2, balls)
        assert "_ball_arrays" not in vars(union)
        first = g.distance_between(union, member)
        assert "_ball_arrays" in vars(union)
        assert g.distance_between(union, member) == first
        assert g.distance_between(g.RegionSet(2, balls), member) == first == region_distance(union, member)


class TestShellMeasure:
    def test_point_d1_r0(self):
        # shell of a point at r=0 is [-1, 1]
        est = shell_measure(g.RegionSet.point([0.0]), 0.0)
        assert est.value == pytest.approx(2.0, abs=3 * est.error + 0.05)

    def test_point_d1_r3(self):
        # two intervals of unit length
        est = shell_measure(g.RegionSet.point([0.0]), 3.0)
        assert est.value == pytest.approx(2.0, abs=3 * est.error + 0.05)

    def test_sphere5_d2_r0(self):
        # ring areas pi(2R+2r+1) + pi(2R-2r-1) = 4 pi R
        est = shell_measure(g.RegionSet.sphere([0, 0], 5.0), 0.0, resolution=0.02)
        assert est.value == pytest.approx(20.0 * math.pi, rel=0.02)

    @pytest.mark.parametrize("r", [0.0, 0.7, 2.0])
    def test_matches_closed_form_point_d2(self, r):
        est = shell_measure(g.RegionSet.point([0.2, -0.3]), r, resolution=0.02)
        exact = closed_form_shell_measure(g.Point((0.2, -0.3)), r)
        assert abs(est.value - exact) <= est.error + 1e-9

    @pytest.mark.parametrize("r", [0.0, 1.5])
    def test_matches_closed_form_ball_d3(self, r):
        est = shell_measure(g.RegionSet.ball([0, 0, 0], 1.0), r, resolution=0.05)
        exact = closed_form_shell_measure(g.Ball((0.0, 0.0, 0.0), 1.0), r)
        assert abs(est.value - exact) <= est.error + 1e-9

    def test_matches_closed_form_annulus_d2(self):
        shape = g.Annulus(2, 1.0, 2.0)
        est = shell_measure(g.make_annulus(1.0, 2.0, 2), 0.5, resolution=0.02)
        exact = closed_form_shell_measure(shape, 0.5)
        assert abs(est.value - exact) <= est.error + 1e-9

    def test_oracle_cross_check_1d(self):
        # independent Riemann oracle against the quadrature engine
        region = g.RegionSet.ball([0.5], 1.0)
        want = brute_shell_measure_1d(
            lambda x: np.maximum(np.abs(x - 0.5) - 1.0, 0.0), 6.0, 1.2
        )
        est = shell_measure(region, 1.2, resolution=0.01)
        assert est.value == pytest.approx(want, abs=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shell_measure(g.RegionSet.point([0.0]), -1.0)
        with pytest.raises(ValueError):
            shell_measure(g.RegionSet.point([0.0]), 1.0, resolution=0.0)


class TestGeneralizedSurfaceArea:
    def test_point_d1(self):
        est = generalized_surface_area(g.RegionSet.point([0.0]))
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.argmax_r == pytest.approx(0.0, abs=1e-12)

    def test_point_d2_golden_ratio(self):
        # maximize pi(2r+1)/(r^2+1): r* = (sqrt(5)-1)/2, value = phi * pi
        est = generalized_surface_area(g.RegionSet.point([0.0, 0.0]), resolution=0.02)
        assert est.value == pytest.approx(PHI * math.pi, rel=0.05)
        assert est.argmax_r == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=0.05)

    def test_sphere5_d2(self):
        est = generalized_surface_area(g.RegionSet.sphere([0, 0], 5.0), resolution=0.02)
        assert est.value == pytest.approx(20.0 * math.pi, rel=0.10)
        assert est.argmax_r == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_sphere_family_band(self, R):
        res = 0.05 if R <= 5 else 0.1
        est = generalized_surface_area(g.RegionSet.sphere([0, 0], R), resolution=res)
        assert est.value <= 4.0 * math.pi * R * 1.15

    def test_sanity_bound_never_exceeded(self):
        for region in [
            g.RegionSet.point([0.0, 0.0]),
            g.RegionSet.sphere([0, 0], 2.0),
            g.RegionSet.ball([1.0, 0.0], 1.5),
        ]:
            est = generalized_surface_area(region, resolution=0.05)
            assert est.value <= g.sanity_bound(region) + est.error

    def test_monotone_refinement(self):
        region = g.RegionSet.sphere([0, 0], 2.0)
        coarse = generalized_surface_area(region, resolution=0.04)
        fine = generalized_surface_area(region, resolution=0.02)
        assert abs(coarse.value - fine.value) <= coarse.error + fine.error

    def test_closed_form_sigma_matches_grid(self):
        region = g.RegionSet.sphere([0, 0], 3.0)
        exact = g.closed_form_sigma(region)
        est = generalized_surface_area(region, resolution=0.02)
        assert est.value == pytest.approx(exact, rel=0.02)
        assert g.closed_form_sigma(g.RegionSet.point([0.0, 0.0])) == pytest.approx(
            PHI * math.pi, rel=1e-4
        )


def scalar_shell_measure(shape, r):
    """closed_form_shell_measure as it was before it took arrays: one float r."""
    d = shape.dimension
    if isinstance(shape, g.Point):
        return g.ball_volume(r + 1.0, d) - g.ball_volume(r, d)
    if isinstance(shape, g.Sphere):
        R = shape.radius
        outer = g.ball_volume(R + r + 1.0, d) - g.ball_volume(R + r, d)
        inner = g.ball_volume(max(R - r, 0.0), d) - g.ball_volume(max(R - r - 1.0, 0.0), d)
        return outer + inner
    if isinstance(shape, g.Ball):
        R = shape.radius
        outer = g.ball_volume(R + r + 1.0, d) - g.ball_volume(R + r, d)
        return outer + (g.ball_volume(R, d) if r == 0.0 else 0.0)
    r0, R0 = shape.inner, shape.outer
    outer = g.ball_volume(R0 + r + 1.0, d) - g.ball_volume(R0 + r, d)
    inner = g.ball_volume(max(r0 - r, 0.0), d) - g.ball_volume(max(r0 - r - 1.0, 0.0), d)
    return outer + inner + (shape.volume() if r == 0.0 else 0.0)


def scalar_sigma(shape, grid=1e-3):
    """The per-r loop that the array scan of closed_form_sigma replaced."""
    d = shape.dimension
    r_values = np.arange(0.0, shape.diameter() + d + 2.0 + grid / 2.0, grid)
    vals = np.array([scalar_shell_measure(shape, float(r)) for r in r_values])
    return float(np.max(vals / (r_values**d + 1.0)))


# Radii of the sphere members that the benchmark workloads certify, plus
# small and odd ones.
MEMBER_RADII = [0.3, 1.0, 1.7, 1.8333333333333333, 2.5, 3.2279999999999998,
                5.985983999999999, 9.5, 14.390625, 18.0]


def basic_shapes(d, radii):
    center = tuple([0.0] * d)
    shapes = [g.Point(center), g.Point(tuple([0.3] * d))]
    for R in radii:
        shapes += [g.Sphere(center, R), g.Ball(tuple([1.5] * d), R)]
    return shapes


class TestClosedFormSigmaScan:
    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_equal_to_scalar_loop(self, d):
        for shape in basic_shapes(d, MEMBER_RADII):
            region = g.RegionSet(d, (shape,))
            assert g.closed_form_sigma(region) == scalar_sigma(shape), shape

    def test_d3_and_annulus_within_1e_14(self):
        # numpy's SIMD power can differ from the scalar pow by about 1 ulp
        shapes = basic_shapes(3, [0.5, 2.0, 4.75])
        shapes += [g.Annulus(d, r0, r0 + w) for d in (1, 2, 3) for r0, w in ((0.5, 1.0), (3.0, 2.5))]
        for shape in shapes:
            exact = scalar_sigma(shape)
            got = g.closed_form_sigma(g.RegionSet(shape.dimension, (shape,)))
            assert abs(got - exact) <= 1e-14 * exact, shape

    @pytest.mark.parametrize("d", [1, 2])
    def test_scalar_r_gives_the_scalar_float(self, d):
        for shape in basic_shapes(d, [0.5, 3.0]) + [g.Annulus(d, 1.0, 2.0)]:
            for r in (0.0, 0.25, 0.5, 1.0, 3.7):
                got = closed_form_shell_measure(shape, r)
                assert type(got) is float
                assert got == scalar_shell_measure(shape, r)

    def test_array_r_matches_scalar_calls(self):
        shape = g.Sphere((0.0, 0.0), 2.5)
        r = np.linspace(0.0, 6.0, 61)
        got = closed_form_shell_measure(shape, r)
        assert np.array_equal(got, [scalar_shell_measure(shape, float(x)) for x in r])

    @pytest.mark.parametrize("leaf", [7, 1000, 1 << 16])
    def test_blocks_cover_the_arange_grid(self, monkeypatch, leaf):
        seen = []
        volume = g._shell_volume

        def record(outer, inner, body, d, r):
            seen.append(np.array(r))
            return volume(outer, inner, body, d, r)

        monkeypatch.setattr(g, "_SIGMA_LEAF", leaf)
        monkeypatch.setattr(g, "_shell_volume", record)
        g._grid_sigma.cache_clear()
        for R, grid in ((2.5, 1e-3), (9.5, 1e-3), (1.0, 0.07), (0.3, 0.01)):
            seen.clear()
            region = g.RegionSet.sphere([0.0], R)
            sigma = g.closed_form_sigma(region, grid=grid)
            full = np.arange(0.0, region.shapes[0].diameter() + 3.0 + grid / 2.0, grid)
            # each leaf is a run of the full grid, no grid point is evaluated twice
            starts = [int(np.searchsorted(full, r[0])) for r in seen]
            for lo, r in zip(starts, seen):
                assert 0 < len(r) <= leaf
                assert np.array_equal(r, full[lo : lo + len(r)])
            assert sum(map(len, seen)) == len(np.unique(np.concatenate(seen)))
            assert seen[0][0] == 0.0
            assert sigma == scalar_sigma(region.shapes[0], grid)
        g._grid_sigma.cache_clear()


def full_scan_sigma(shape, grid=1e-3):
    """The scan that the pruned search replaced: the ratio at every grid point."""
    d = shape.dimension
    r_max = shape.diameter() + d + 2.0
    count = math.ceil((r_max + grid / 2.0) / grid)
    peaks = []
    for lo in range(0, count, 1 << 16):
        r_values = np.arange(lo, min(lo + (1 << 16), count)) * grid
        vals = closed_form_shell_measure(shape, r_values)
        peaks.append(np.max(vals / (r_values**d + 1.0)))
    return float(np.max(peaks))


RADII = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 30.0),
    st.floats(30.0, 1e3),
)
GRIDS = st.sampled_from([1e-3, 1.7e-3, 0.01, 0.0625, 0.3, 1.0, 2.5])


@st.composite
def sigma_shapes(draw):
    d = draw(st.integers(1, 3))
    center = tuple([0.0] * d)
    R = draw(RADII)
    kind = draw(st.sampled_from(["point", "sphere", "ball", "annulus"]))
    if kind == "point":
        return g.Point(center)
    if kind == "sphere":
        return g.Sphere(center, R)
    if kind == "ball":
        return g.Ball(center, R)
    # inner anywhere in [0, R], and often within a few ulps to 1e-3 of R
    gap = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-15, 1e-9, 1e-3])))
    return g.Annulus(d, max(R - gap * max(R, 1.0), 0.0), R)


class TestPrunedSigma:
    @settings(max_examples=150, deadline=None)
    @given(sigma_shapes(), GRIDS)
    def test_bit_equal_to_the_full_scan(self, shape, grid):
        region = g.RegionSet(shape.dimension, (shape,))
        assert g.closed_form_sigma(region, grid=grid) == full_scan_sigma(shape, grid)

    @pytest.mark.parametrize("R", [0.0, 1e-300, 0.999, 1.0, 1e3])
    def test_bit_equal_at_edge_radii(self, R):
        for d in (1, 2, 3):
            center = tuple([0.0] * d)
            for shape in (g.Sphere(center, R), g.Ball(center, R), g.Annulus(d, R * 0.999, R)):
                region = g.RegionSet(d, (shape,))
                for grid in (1e-3, 0.37):
                    assert g.closed_form_sigma(region, grid=grid) == full_scan_sigma(shape, grid)

    @settings(max_examples=300, deadline=None)
    @given(
        sigma_shapes(),
        st.sampled_from([1e-3, 0.0137, 0.5]),
        st.floats(1e3, 1e15),
        st.integers(1, 4000),
        st.integers(1, 4000),
    )
    def test_interval_bound_covers_its_leaves(self, shape, grid, scale, start, length):
        # radii up to 1e15 as well, where rounding of the volume terms is largest
        if isinstance(shape, (g.Sphere, g.Ball)) and scale > 1e6:
            shape = type(shape)(shape.center, shape.radius * scale)
        outer, inner, body = g._shell_radii(shape)
        d = shape.dimension
        # intervals at the start of the grid and around the inner radius
        for lo in (start, start + int(inner / grid)):
            hi = lo + length
            r = np.arange(lo, hi) * grid
            leaf = g._shell_volume(outer, inner, body, d, r) / (r**d + 1.0)
            assert g._ratio_bound(outer, inner, d, grid, lo, hi) >= np.max(leaf)

    def test_interval_at_zero_is_unbounded(self):
        assert g._ratio_bound(5.0, 5.0, 2, 1e-3, 0, 10) == math.inf

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("R", [10.0, 1e3, 1e5])
    def test_large_spheres_evaluate_few_grid_points(self, monkeypatch, R, d):
        # the full scan evaluates (2R + d + 2) / grid points: 2.5e4 to 2e8 here
        evaluated = []
        volume = g._shell_volume

        def record(outer, inner, body, d, r):
            evaluated.append(np.size(r))
            return volume(outer, inner, body, d, r)

        monkeypatch.setattr(g, "_shell_volume", record)
        g._grid_sigma.cache_clear()
        sigma = g.closed_form_sigma(g.RegionSet.sphere([0.0] * d, R))
        assert 0 < sum(evaluated) <= 512
        at_zero = closed_form_shell_measure(g.Sphere((0.0,) * d, R), 0.0)  # the ratio at r = 0
        assert at_zero <= sigma <= at_zero * (1.0 + 1e-3)

    def test_repeated_shapes_are_cached(self):
        g._grid_sigma.cache_clear()
        for center in ([0.0, 0.0], [3.0, -1.0], [0.0, 0.0]):
            g.closed_form_sigma(g.RegionSet.sphere(center, 7.5))
        info = g._grid_sigma.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    @pytest.mark.parametrize("grid", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_bad_grid_refused(self, grid):
        with pytest.raises(ValueError, match="sigma grid must be finite and > 0"):
            g.closed_form_sigma(g.RegionSet.sphere([0.0, 0.0], 2.0), grid=grid)

    @pytest.mark.parametrize(
        "region,grid",
        [
            (g.RegionSet.sphere([0.0, 0.0], 1e160), 1e-3),  # a volume term overflows
            (g.RegionSet.ball([0.0, 0.0], 1e160), 1e-3),  # so does the body
            (g.RegionSet.sphere([0.0, 0.0, 0.0], 1e110), 1e95),
            (g.RegionSet.sphere([0.0] * 40, 1e9), 1e-3),  # (R + r + 1)^40 overflows
            (g.RegionSet.sphere([0.0] * 40, 1e9), np.float64(1e-3)),  # as a numpy scalar
            (g.RegionSet.ball([0.0] * 40, 1e9), 1e-3),  # so does the body
            (g.RegionSet.sphere([0.0], 1e15), 1e-5),  # 2e20 grid points: no int64 index
            (g.RegionSet.sphere([0.0, 0.0], 1e150), 1e140),  # no unit digit in the radius
            (g.RegionSet.sphere([0.0, 0.0], math.inf), 1e-3),
            (g.RegionSet.sphere([0.0, 0.0], math.nan), 1e-3),
            (g.RegionSet(40, (g.Ball((0.0,) * 40, np.float64(1e9)),)), 1e-3),  # numpy radius
        ],
    )
    def test_huge_members_are_inf_without_warnings(self, region, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.closed_form_sigma(region, grid=grid) == math.inf

    @pytest.mark.parametrize("radius", [1e9, np.float64(1e9), np.float32(1e9)])
    def test_ball_volume_overflows_alike_for_every_float_type(self, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                g.ball_volume(radius, 40)
            assert g.ball_volume(radius, 2) == math.pi * 1e18


class TestSurfaceVolumeBound:
    def test_overflow_gives_inf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.surface_volume_bound(1e200, 2) == math.inf
            assert g.surface_volume_bound(1e300, 3) == math.inf
            assert g.surface_volume_bound(math.inf, 1) == math.inf
            assert g.sanity_bound(g.RegionSet.sphere([0.0, 0.0], 1e200)) == math.inf

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cached_value_is_the_computed_one(self, d):
        # 7, 7.0 and np.float64(7.0) share one cache entry, so each must give
        # the float the uncached function gives for every spelling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for D in (0, 0.0, np.float64(0.0), 7, 7.0, np.float64(7.0), 1e6, np.float64(1e200), 1e308):
                for _ in range(2):
                    got = g.surface_volume_bound(D, d)
                    assert type(got) is float
                    assert got == g.surface_volume_bound.__wrapped__(D, d)
        assert g.surface_volume_bound(1e308, d) == math.inf

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_finite_values_unchanged(self, d):
        for D in (0.0, 1.0, 7.25, 300.0, 1e6):
            r = np.linspace(0.0, D + d + 2.0, 4001)
            num = g.ball_volume(1.0, d) * ((D + r + 1.0) ** d - r**d)
            assert g.surface_volume_bound(D, d) == float(np.max(num / (r**d + 1.0)))


class TestSphericalCap:
    @pytest.mark.parametrize("direction", [(0.0, 0.0), (1.0, 0.2), (0.6, 0.8 + 2e-12), (math.nan, 0.0)],
                             ids=["zero", "long", "off-by-2e-12", "nan"])
    def test_a_direction_that_is_not_unit_is_refused(self, direction):
        # caps and cheese take unit directions as they are; neither scales one
        with pytest.raises(ValueError, match="is not a unit vector"):
            g.SphericalCap(10.0, direction, 1.0)
        with pytest.raises(ValueError, match="is not a unit vector"):
            g.PuncturedSphere(2, 10.0, (((1.0, 0.0), 1.0), (direction, 1.0)))

    def test_a_direction_within_1e12_of_unit_is_kept_as_it_is(self):
        direction = (0.6, 0.8 + 5e-13)
        assert g.SphericalCap(10.0, direction, 1.0).direction == direction
        assert g.PuncturedSphere(2, 10.0, ((direction, 1.0),)).exclusions == ((direction, 1.0),)

    def test_cap_membership_boundary(self):
        cap = g.SphericalCap(5.0, (0.0, 1.0), 3.0)
        region = g.RegionSet(2, (cap,))
        theta = cap.half_angle
        on_rim = 5.0 * np.array([[math.sin(theta), math.cos(theta)]])
        assert region.contains(on_rim)[0]
        beyond = 5.0 * np.array([[math.sin(theta + 0.01), math.cos(theta + 0.01)]])
        assert not region.contains(beyond)[0]


class TestPuncturedSphere:
    def test_cover_with_caps(self):
        # cheese + caps = sphere, sampled membership
        caps = [([1.0, 0.0], 2.0), ([0.0, 1.0], 3.0)]
        cheese = g.RegionSet(
            2, (g.PuncturedSphere(2, 5.0, tuple((tuple(d), b) for d, b in caps)),)
        )
        cap_regions = [g.RegionSet(2, (g.SphericalCap(5.0, tuple(d), b),)) for d, b in caps]
        t = np.linspace(0.0, 2.0 * math.pi, 5000, endpoint=False)
        pts = 5.0 * np.column_stack([np.cos(t), np.sin(t)])
        member = cheese.contains(pts)
        for c in cap_regions:
            member |= c.contains(pts)
        assert member.all()

    def test_distance_on_kept_arc(self):
        cheese = g.RegionSet(2, (g.PuncturedSphere(2, 5.0, ((((1.0, 0.0)), 2.0),)),))
        # point radially outside a kept arc: plain radial distance
        assert cheese.distance([[0.0, 7.0]])[0] == pytest.approx(2.0)

    def test_distance_inside_removed_cap(self):
        removed = g.PuncturedSphere(2, 5.0, (((1.0, 0.0), 2.0),))
        cheese = g.RegionSet(2, (removed,))
        theta = removed._half_angles[0]
        # query point radially aligned with the cap axis, on the sphere
        d = cheese.distance([[5.0, 0.0]])[0]
        chord = math.sqrt(50.0 - 50.0 * math.cos(theta))
        assert d == pytest.approx(chord, rel=1e-9)

    def test_full_exclusion_empty(self):
        gone = g.PuncturedSphere(2, 1.0, (((1.0, 0.0), 5.0),))
        assert gone.is_empty()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_lower_bound_matches_a_loop_over_exclusions(self, data):
        # d >= 3: one (points x exclusions) pass gives the per-cap loop's bits
        d = data.draw(st.integers(3, 5))
        R = data.draw(st.floats(0.5, 30.0))
        cuts = data.draw(st.lists(st.tuples(directions(d), st.floats(0.0, 2.5 * R)), max_size=6))
        shape = g.PuncturedSphere(d, R, tuple(cuts))
        on_sphere = directions(d).map(lambda u: tuple(R * np.asarray(u)))
        points = np.array(data.draw(st.lists(st.one_of(vectors(d, 40.0), on_sphere, st.just((0.0,) * d)),
                                             min_size=1, max_size=30)))
        got = shape.point_distance(points)
        assert np.array_equal(got, punctured_lower_bound(shape, points))


def _sphere_points(radius, d, count, seed):
    """Points spread over the origin-centred sphere of the given radius."""
    v = np.random.default_rng(seed).standard_normal((count, d))
    return radius * v / np.linalg.norm(v, axis=1)[:, None]


# The sampled points lie on the sphere to within a few ulps of its radius.
SAMPLE_SLACK = 1e-12


class TestCircumradiusAndDiameterBound:
    """circumradius bounds |x| over a shape, and diameter_bound bounds the
    distance between any two points of a union, for caps and cheese."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_cap_and_cheese_circumradius(self, d):
        R = 7.5
        axis = tuple(np.eye(d)[0] * 0.6 + np.eye(d)[1] * 0.8)
        cap = g.SphericalCap(R, axis, 4.0)
        cheese = g.PuncturedSphere(d, R, ((axis, 4.0), (tuple(-np.eye(d)[1]), 6.0)))
        pts = _sphere_points(R, d, 4000, seed=d)
        for shape in (cap, cheese):
            on = pts[g.RegionSet(d, (shape,)).contains(pts)]
            assert len(on) > 100
            assert np.max(np.linalg.norm(on, axis=1)) <= shape.circumradius() * (1.0 + SAMPLE_SLACK)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cap_plus_cheese_diameter_bound(self, d):
        R = 7.5
        axis = tuple(np.eye(d)[0])
        union = g.RegionSet(d, (g.SphericalCap(R, axis, 3.0), g.PuncturedSphere(d, R, ((axis, 3.0),))))
        pts = _sphere_points(R, d, 600, seed=10 + d)
        on = pts[union.contains(pts)]
        assert len(on) == len(pts)  # cap and cheese cover the sphere
        widest = np.max(np.linalg.norm(on[:, None, :] - on[None, :, :], axis=2))
        assert widest > 1.9 * R
        assert union.diameter_bound() == 2.0 * R >= widest * (1.0 - SAMPLE_SLACK)

    @pytest.mark.parametrize("region", [
        g.RegionSet.empty(2),
        g.RegionSet.empty(3),
        g.RegionSet(2, (g.PuncturedSphere(2, 1.0, (((1.0, 0.0), 5.0),)),)),
    ], ids=["empty-d2", "empty-d3", "all-punctured"])
    def test_empty_set_has_diameter_bound_zero(self, region):
        assert region.diameter_bound() == 0.0
        assert region.circumradius() == 0.0


class TestSphereShellDecomposition:
    def test_basic_construction(self):
        td = g.sphere_shell_decomposition([1.0, 2.0, 3.0], dimension=2)
        assert len(td.members) == 3
        assert td.kind == "sphere-shells"
        assert validate_decomposition(td) == []

    def test_inner_ball_volume(self):
        td = g.sphere_shell_decomposition([5.0], dimension=2)
        inner = g.ball_volume(td.params["radii"][0], 2)
        assert inner == pytest.approx(25.0 * math.pi)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            g.sphere_shell_decomposition([1.0, 1.0, 2.0], dimension=2)

    def test_custom_validate_flags_a_solid_member(self):
        members = (g.RegionSet.sphere([0.0, 0.0], 2.0), g.RegionSet.ball([5.0, 0.0], 1.0))
        td = g.TotalDecomposition(2, members, kind="custom")
        assert validate_decomposition(td) == ["member 1: has positive volume"]

    @pytest.mark.parametrize("kind", ["cap-cheese", "custom"])
    def test_validate_judges_members_by_volume_under_every_kind(self, kind):
        point_ball = g.RegionSet.ball([5.0, 0.0], 0.0)
        solid = g.RegionSet.ball([5.0, 0.0], 1.0)
        cap = g.RegionSet(2, (g.SphericalCap(5.0, (0.0, 1.0), 1.0),))
        assert validate_decomposition(g.TotalDecomposition(2, (cap, point_ball), kind=kind)) == []
        td = g.TotalDecomposition(2, (cap, point_ball, solid), kind=kind)
        assert validate_decomposition(td) == ["member 2: has positive volume"]


class TestSerialization:
    """The records survive a JSON round trip unchanged and spell every field."""

    def test_region_roundtrip(self):
        region = g.RegionSet(
            2,
            (
                g.Point((1.0, 2.0)),
                g.Ball((0.0, 0.0), 1.5),
                g.Sphere((0.0, 1.0), 2.0),
                g.Annulus(2, 1.0, 4.0),
                g.SphericalCap(3.0, (0.0, 1.0), 1.0),
                g.PuncturedSphere(2, 2.0, (((1.0, 0.0), 0.5),)),
            ),
        )
        records = region.to_records()
        assert json.loads(json.dumps(records)) == records
        assert records == [
            {"record": "region_set", "dimension": 2, "primitive_count": 6},
            {"record": "primitive", "kind": "point", "center": [1.0, 2.0]},
            {"record": "primitive", "kind": "ball", "center": [0.0, 0.0], "radius": 1.5},
            {"record": "primitive", "kind": "sphere", "center": [0.0, 1.0], "radius": 2.0},
            {"record": "primitive", "kind": "annulus", "dimension": 2, "inner": 1.0, "outer": 4.0},
            {"record": "primitive", "kind": "cap", "sphere_radius": 3.0, "direction": [0.0, 1.0],
             "ball_radius": 1.0},
            {"record": "primitive", "kind": "punctured_sphere", "dimension": 2, "radius": 2.0,
             "exclusions": [{"direction": [1.0, 0.0], "ball_radius": 0.5}]},
        ]

    def test_decomposition_roundtrip(self):
        td = g.sphere_shell_decomposition([1.0, 2.5], dimension=3)
        records = td.to_records()
        assert json.loads(json.dumps(records)) == records
        head, *members = records
        assert head == {"record": "total_decomposition", "dimension": 3, "kind": "sphere-shells",
                        "member_count": 2, "params": {"radii": [1.0, 2.5]}, "truncated": True}
        assert [rec["primitives"] for rec in members] == [
            [{"record": "primitive", "kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": r}]
            for r in (1.0, 2.5)
        ]
        assert [rec["meta"]["scale"] for rec in members] == [0, 1]


class TestDeterminism:
    def test_shell_measure_reproducible(self):
        region = g.RegionSet.sphere([0.1, -0.2], 1.0)
        a = shell_measure(region, 0.3, resolution=0.02)
        b = shell_measure(region, 0.3, resolution=0.02)
        assert a == b
