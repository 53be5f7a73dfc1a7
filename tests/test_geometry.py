"""Geometry oracles: closed forms derived independently, then checked."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestDistance:
    def test_two_points_1d(self):
        assert g.distance_between(g.RegionSet.point([0.0]), g.RegionSet.point([3.0])) == 3.0

    def test_concentric_spheres(self):
        a = g.RegionSet.sphere([0, 0], 1.0)
        b = g.RegionSet.sphere([0, 0], 4.0)
        assert g.distance_between(a, b) == pytest.approx(3.0)

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
        assert g.distance_between(ann, sph) == pytest.approx(4.0)

    def test_cap_to_ball_exact(self):
        cap = g.spherical_cap(10.0, [1, 0], 2.0)
        ball = g.RegionSet.ball([12.0, 0.0], 1.0)
        assert g.distance_between(cap, ball) == pytest.approx(1.0)

    def test_offcenter_sphere_pair(self):
        a = g.RegionSet.sphere([0, 0], 1.0)
        b = g.RegionSet.sphere([0, 5], 1.0)
        assert g.distance_between(a, b) == pytest.approx(3.0)

    def test_nested_sphere_pair(self):
        a = g.RegionSet.sphere([0.5, 0], 1.0)
        b = g.RegionSet.sphere([0, 0], 10.0)
        assert g.distance_between(a, b) == pytest.approx(8.5)

    @pytest.mark.parametrize("c1,r1,c2,r2,want", [
        ((3.0, 1.0), 1.0, (3.0, 6.0), 1.5, 2.5),  # apart
        ((1.0, 1.0), 5.0, (2.0, 1.0), 1.0, 3.0),  # nested
        ((1.0, 1.0), 2.0, (3.0, 1.0), 1.0, 0.0),  # crossing
    ])
    def test_offcentre_sphere_pairs(self, c1, r1, c2, r2, want):
        # neither sphere is origin-radial, so the sphere-sphere rule decides
        a, b = g.RegionSet.sphere(c1, r1), g.RegionSet.sphere(c2, r2)
        assert g.distance_between(a, b) == g.distance_between(b, a) == want

    @pytest.mark.parametrize("other, want", [
        (g.make_annulus(4.5, 5.5, 1), 0.5),     # {4, 6} against [-5.5, -4.5] and [4.5, 5.5]
        (g.RegionSet.sphere([0.0], 4.5), 0.5),  # {4, 6} against {-4.5, 4.5}
        (g.RegionSet.sphere([9.0], 2.0), 1.0),  # {4, 6} against {7, 11}
    ])
    def test_d1_sphere_is_two_points(self, other, want):
        sphere = g.RegionSet.sphere([5.0], 1.0)
        assert g.distance_between(other, sphere) == g.distance_between(sphere, other) == want

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3), st.floats(0.1, 3)
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, x, y, r1, r2):
        a = g.RegionSet.sphere([x, y], r1)
        b = g.RegionSet.ball([0.0, 0.0], r2)
        d_ab = g.distance_between(a, b)
        d_ba = g.distance_between(b, a)
        assert d_ab == d_ba
        assert d_ab >= 0.0

    def test_zero_iff_intersecting(self):
        a = g.RegionSet.sphere([0, 0], 2.0)
        b = g.RegionSet.ball([2.0, 0.0], 0.5)  # touches the sphere
        assert g.distance_between(a, b) == 0.0
        c = g.RegionSet.ball([3.0, 0.0], 0.5)
        assert g.distance_between(a, c) > 0.0


def pair_loop_distance(a, b):
    """distance_between as one _primitive_distance per pair, clamped at 0."""
    pairs = [g._primitive_distance(p, q) for p in a.shapes for q in b.shapes]
    return max(min(pairs, default=math.inf), 0.0)


def vectors(d, bound=20.0):
    return st.tuples(*[st.floats(-bound, bound) for _ in range(d)])


def directions(d):
    return vectors(d, 1.0).filter(lambda v: math.hypot(*v) > 0.1)


@st.composite
def member_shapes(draw, d):
    """One member primitive of every kind the clearance kernel handles."""
    kinds = ["point", "ball", "sphere", "centred sphere", "annulus", "cap", "punctured", "box"]
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
    if kind == "punctured":
        cuts = st.tuples(directions(d), st.floats(0.0, radius))
        return g.PuncturedSphere(d, radius, tuple(draw(st.lists(cuts, max_size=4))))
    lo = draw(vectors(d))
    return g.Box(lo, tuple(x + draw(st.floats(0.0, 5.0)) for x in lo))


@st.composite
def balls_and_member(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    balls = draw(st.lists(st.tuples(vectors(d), st.floats(0.0, 3.0)), max_size=20))
    union = g.RegionSet(d, tuple(g.Ball(c, r) for c, r in balls))
    return union, g.RegionSet(d, (draw(member_shapes(d)),))


class TestClearanceKernel:
    """distance_between takes all balls of a union against one member primitive
    in one call; it must give the pair loop's result bit for bit."""

    @given(balls_and_member())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_loop(self, case):
        union, member = case
        assert g.distance_between(union, member) == pair_loop_distance(union, member)

    def test_empty_punctured_member_is_inf(self):
        union = g.RegionSet(2, (g.Ball((1.0, 2.0), 0.5),))
        member = g.RegionSet(2, (g.PuncturedSphere(2, 3.0, (((1.0, 0.0), 6.0),)),))
        assert g.distance_between(union, member) == pair_loop_distance(union, member) == math.inf

    def test_non_ball_shapes_of_the_union_keep_the_pair_loop(self):
        union = g.RegionSet(2, (g.Ball((9.0, 0.0), 0.5), g.Point((0.0, 4.0))))
        member = g.spherical_cap(5.0, [0.0, 1.0], 1.0)
        assert g.distance_between(union, member) == pair_loop_distance(union, member) == 1.0

    def test_cap_axis_dot_does_not_depend_on_the_batch(self):
        # a BLAS matrix-vector product rounds the second centre's dot with
        # the axis one ulp away from the same product taken alone
        union = g.RegionSet(3, (g.Ball((0.0, 0.0, 0.0), 0.0), g.Ball((12.0, 16.0, 1.0), 0.0)))
        axis = (0.9607804503622109, -0.24019511259055273, 0.13859016591879295)
        member = g.RegionSet(3, (g.SphericalCap(11.0, axis, 8.0),))
        assert g.distance_between(union, member) == pair_loop_distance(union, member)

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
                assert g.distance_between(diff, member) == pair_loop_distance(diff, member)
                checked += 1
        assert checked > 20


class TestNoExactRule:
    """Pairs with no exact distance rule are refused, not estimated: a sampled
    estimate can overshoot, and a clearance must be a lower bound."""

    R = 10.0
    CAP = g.SphericalCap(R, (1.0, 0.2), 4.0)
    CHEESE = g.PuncturedSphere(2, R, (((1.0, 0.0), 4.0), ((0.0, 1.0), 4.0)))

    def refused(self, a, b, kinds):
        """Both orders raise TypeError naming the two kinds in call order."""
        for (x, y), (k, m) in zip(((a, b), (b, a)), (kinds, kinds[::-1])):
            with pytest.raises(TypeError, match=f"no exact distance between a {k} and a {m}"):
                g.distance_between(x, y)

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

    def test_box_against_cap(self):
        box = g.RegionSet.box([11.0, -1.0], [12.0, 1.0])
        self.refused(box, g.spherical_cap(10.0, [1, 0], 1.0), ("box", "cap"))


class TestShellMeasure:
    def test_point_d1_r0(self):
        # shell of a point at r=0 is [-1, 1]
        est = g.shell_measure(g.RegionSet.point([0.0]), 0.0)
        assert est.value == pytest.approx(2.0, abs=3 * est.error + 0.05)

    def test_point_d1_r3(self):
        # two intervals of unit length
        est = g.shell_measure(g.RegionSet.point([0.0]), 3.0)
        assert est.value == pytest.approx(2.0, abs=3 * est.error + 0.05)

    def test_sphere5_d2_r0(self):
        # ring areas pi(2R+2r+1) + pi(2R-2r-1) = 4 pi R
        est = g.shell_measure(g.RegionSet.sphere([0, 0], 5.0), 0.0, resolution=0.02)
        assert est.value == pytest.approx(20.0 * math.pi, rel=0.02)

    @pytest.mark.parametrize("r", [0.0, 0.7, 2.0])
    def test_matches_closed_form_point_d2(self, r):
        est = g.shell_measure(g.RegionSet.point([0.2, -0.3]), r, resolution=0.02)
        exact = g.closed_form_shell_measure(g.Point((0.2, -0.3)), r)
        assert abs(est.value - exact) <= est.error + 1e-9

    @pytest.mark.parametrize("r", [0.0, 1.5])
    def test_matches_closed_form_ball_d3(self, r):
        est = g.shell_measure(g.RegionSet.ball([0, 0, 0], 1.0), r, resolution=0.05)
        exact = g.closed_form_shell_measure(g.Ball((0.0, 0.0, 0.0), 1.0), r)
        assert abs(est.value - exact) <= est.error + 1e-9

    def test_matches_closed_form_annulus_d2(self):
        shape = g.Annulus(2, 1.0, 2.0)
        est = g.shell_measure(g.make_annulus(1.0, 2.0, 2), 0.5, resolution=0.02)
        exact = g.closed_form_shell_measure(shape, 0.5)
        assert abs(est.value - exact) <= est.error + 1e-9

    def test_oracle_cross_check_1d(self):
        # independent Riemann oracle against the quadrature engine
        region = g.RegionSet.ball([0.5], 1.0)
        want = brute_shell_measure_1d(
            lambda x: np.maximum(np.abs(x - 0.5) - 1.0, 0.0), 6.0, 1.2
        )
        est = g.shell_measure(region, 1.2, resolution=0.01)
        assert est.value == pytest.approx(want, abs=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            g.shell_measure(g.RegionSet.point([0.0]), -1.0)
        with pytest.raises(ValueError):
            g.shell_measure(g.RegionSet.point([0.0]), 1.0, resolution=0.0)


class TestGeneralizedSurfaceArea:
    def test_point_d1(self):
        est = g.generalized_surface_area(g.RegionSet.point([0.0]))
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.argmax_r == pytest.approx(0.0, abs=1e-12)

    def test_point_d2_golden_ratio(self):
        # maximize pi(2r+1)/(r^2+1): r* = (sqrt(5)-1)/2, value = phi * pi
        est = g.generalized_surface_area(g.RegionSet.point([0.0, 0.0]), resolution=0.02)
        assert est.value == pytest.approx(PHI * math.pi, rel=0.05)
        assert est.argmax_r == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=0.05)

    def test_sphere5_d2(self):
        est = g.generalized_surface_area(g.RegionSet.sphere([0, 0], 5.0), resolution=0.02)
        assert est.value == pytest.approx(20.0 * math.pi, rel=0.10)
        assert est.argmax_r == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_sphere_family_band(self, R):
        res = 0.05 if R <= 5 else 0.1
        est = g.generalized_surface_area(g.RegionSet.sphere([0, 0], R), resolution=res)
        assert est.value <= 4.0 * math.pi * R * 1.15

    def test_sanity_bound_never_exceeded(self):
        for region in [
            g.RegionSet.point([0.0, 0.0]),
            g.RegionSet.sphere([0, 0], 2.0),
            g.RegionSet.ball([1.0, 0.0], 1.5),
        ]:
            est = g.generalized_surface_area(region, resolution=0.05)
            assert est.value <= g.sanity_bound(region) + est.error

    def test_monotone_refinement(self):
        region = g.RegionSet.sphere([0, 0], 2.0)
        coarse = g.generalized_surface_area(region, resolution=0.04)
        fine = g.generalized_surface_area(region, resolution=0.02)
        assert abs(coarse.value - fine.value) <= coarse.error + fine.error

    def test_closed_form_sigma_matches_grid(self):
        region = g.RegionSet.sphere([0, 0], 3.0)
        exact = g.closed_form_sigma(region)
        est = g.generalized_surface_area(region, resolution=0.02)
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
                got = g.closed_form_shell_measure(shape, r)
                assert type(got) is float
                assert got == scalar_shell_measure(shape, r)

    def test_array_r_matches_scalar_calls(self):
        shape = g.Sphere((0.0, 0.0), 2.5)
        r = np.linspace(0.0, 6.0, 61)
        got = g.closed_form_shell_measure(shape, r)
        assert np.array_equal(got, [scalar_shell_measure(shape, float(x)) for x in r])

    @pytest.mark.parametrize("block", [7, 1000, 1 << 16])
    def test_blocks_cover_the_arange_grid(self, monkeypatch, block):
        seen = []
        measure = g.closed_form_shell_measure

        def record(shape, r):
            seen.append(np.array(r))
            return measure(shape, r)

        monkeypatch.setattr(g, "_SIGMA_BLOCK", block)
        monkeypatch.setattr(g, "closed_form_shell_measure", record)
        for R, grid in ((2.5, 1e-3), (9.5, 1e-3), (1.0, 0.07), (0.3, 0.01)):
            seen.clear()
            region = g.RegionSet.sphere([0.0], R)
            sigma = g.closed_form_sigma(region, grid=grid)
            r_max = region.shapes[0].diameter() + 3.0
            assert np.array_equal(np.concatenate(seen), np.arange(0.0, r_max + grid / 2.0, grid))
            assert all(len(r) <= block for r in seen)
            assert sigma == scalar_sigma(region.shapes[0], grid)


class TestSurfaceVolumeBound:
    def test_overflow_gives_inf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.surface_volume_bound(1e200, 2) == math.inf
            assert g.surface_volume_bound(1e300, 3) == math.inf
            assert g.surface_volume_bound(math.inf, 1) == math.inf
            assert g.sanity_bound(g.RegionSet.sphere([0.0, 0.0], 1e200)) == math.inf

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_finite_values_unchanged(self, d):
        for D in (0.0, 1.0, 7.25, 300.0, 1e6):
            r = np.linspace(0.0, D + d + 2.0, 4001)
            num = g.ball_volume(1.0, d) * ((D + r + 1.0) ** d - r**d)
            assert g.surface_volume_bound(D, d) == float(np.max(num / (r**d + 1.0)))


class TestSphericalCap:
    def test_ball_swallows_sphere(self):
        region = g.spherical_cap(10.0, [1, 0], 25.0)
        assert isinstance(region.shapes[0], g.Sphere)
        assert region.shapes[0].radius == 10.0

    def test_zero_cap_is_point(self):
        region = g.spherical_cap(10.0, [1.0, 0.0], 0.0)
        assert isinstance(region.shapes[0], g.Point)
        assert region.shapes[0].center == (10.0, 0.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            g.spherical_cap(10.0, [0.0, 0.0], 1.0)

    def test_cap_membership_boundary(self):
        region = g.spherical_cap(5.0, [0, 1], 3.0)
        cap = region.shapes[0]
        theta = cap.half_angle
        on_rim = 5.0 * np.array([[math.sin(theta), math.cos(theta)]])
        assert region.contains(on_rim, tol=1e-9)[0]
        beyond = 5.0 * np.array([[math.sin(theta + 0.01), math.cos(theta + 0.01)]])
        assert not region.contains(beyond, tol=1e-9)[0]


class TestPuncturedSphere:
    def test_cover_with_caps(self):
        # cheese + caps = sphere, sampled membership
        caps = [([1.0, 0.0], 2.0), ([0.0, 1.0], 3.0)]
        cheese = g.RegionSet(
            2, (g.PuncturedSphere(2, 5.0, tuple((tuple(d), b) for d, b in caps)),)
        )
        cap_regions = [g.spherical_cap(5.0, d, b) for d, b in caps]
        t = np.linspace(0.0, 2.0 * math.pi, 5000, endpoint=False)
        pts = 5.0 * np.column_stack([np.cos(t), np.sin(t)])
        member = cheese.contains(pts, tol=1e-9)
        for c in cap_regions:
            member |= c.contains(pts, tol=1e-9)
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


class TestSphereShellDecomposition:
    def test_basic_construction(self):
        td = g.sphere_shell_decomposition([1.0, 2.0, 3.0], dimension=2)
        assert len(td.members) == 3
        assert td.kind == "sphere-shells"
        assert td.validate() == []

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
        assert td.validate() == ["member 1: has positive volume"]

    @pytest.mark.parametrize("kind", ["cap-cheese", "custom"])
    def test_validate_judges_members_by_volume_under_every_kind(self, kind):
        point_ball = g.RegionSet.ball([5.0, 0.0], 0.0)
        solid = g.RegionSet.ball([5.0, 0.0], 1.0)
        cap = g.spherical_cap(5.0, [0.0, 1.0], 1.0)
        assert g.TotalDecomposition(2, (cap, point_ball), kind=kind).validate() == []
        td = g.TotalDecomposition(2, (cap, point_ball, solid), kind=kind)
        assert td.validate() == ["member 2: has positive volume"]


class TestSerialization:
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
                g.Box((0.0, 0.0), (1.0, 2.0)),
            ),
        )
        records = [json.loads(json.dumps(r)) for r in region.to_records()]
        back = g.RegionSet.from_records(records)
        assert back == region

    def test_decomposition_roundtrip(self):
        td = g.sphere_shell_decomposition([1.0, 2.5], dimension=3)
        records = [json.loads(json.dumps(r)) for r in td.to_records()]
        back = g.TotalDecomposition.from_records(records)
        assert back.kind == td.kind
        assert back.members == td.members


class TestDeterminism:
    def test_shell_measure_reproducible(self):
        region = g.RegionSet.sphere([0.1, -0.2], 1.0)
        a = g.shell_measure(region, 0.3, resolution=0.02)
        b = g.shell_measure(region, 0.3, resolution=0.02)
        assert a == b
