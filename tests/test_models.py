"""Coupling-law exactness, sampling contracts, and the standing hypotheses."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import models as m
from sparseloc._rng import site_uniforms
from sparseloc.geometry import RegionSet, make_annulus


def lattice_model(d=2, radius=10.0, law=None, amplitude=1.0, rho=1.0):
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(d, radius),
        potential=m.SingleSitePotential.indicator(amplitude, rho),
        laws=m.LawAssignment.shared_law(law or m.CouplingLaw.bernoulli(0.5)),
    )


def mass_below(law, eps):
    """mu([0, eps)), summed from the law's atoms and uniform pieces."""
    atoms = sum(w for x, w in law.atoms if x < eps)
    return atoms + sum(m * (min(hi, eps) - lo) / (hi - lo) for lo, hi, m in law.segments if lo < eps)


class TestCouplingLaw:
    def test_p_epsilon_bernoulli(self):
        assert m.CouplingLaw.bernoulli(0.3).tail_mass(0.5) == pytest.approx(0.3)

    def test_p_epsilon_uniform(self):
        assert m.CouplingLaw.uniform().tail_mass(0.25) == pytest.approx(0.75)

    def test_p_epsilon_delta0(self):
        assert m.CouplingLaw.delta(0.0).tail_mass(0.5) == 0.0

    def test_p_epsilon_rejects_nonpositive(self):
        laws = m.LawAssignment.shared_law(m.CouplingLaw.uniform())
        with pytest.raises(ValueError, match="eps must lie in"):
            laws.tail_masses(np.zeros((1, 1)), np.arange(1), 0.0)

    def test_ac_mass(self):
        assert m.CouplingLaw.bernoulli(0.7).ac_mass() == 0.0
        assert m.CouplingLaw.uniform().ac_mass() == 1.0
        mix = m.CouplingLaw("mixture", atoms=((0.0, 0.5),), segments=((0.0, 1.0, 0.5),))
        assert mix.ac_mass() == pytest.approx(0.5)

    def test_mass_identity(self):
        laws = [
            m.CouplingLaw.bernoulli(0.4),
            m.CouplingLaw.uniform(0.2, 0.9),
            m.CouplingLaw.bernoulli_times_uniform(0.3),
            m.CouplingLaw.point_masses([(0.1, 0.5), (0.8, 0.5)]),
        ]
        for law in laws:
            for eps in [0.05, 0.1, 0.5, 0.8, 1.0]:
                assert law.tail_mass(eps) + mass_below(law, eps) == pytest.approx(1.0)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_p_epsilon_nonincreasing(self, e1, e2):
        # half Bernoulli(0.4), half uniform on [0.1, 0.7]
        law = m.CouplingLaw("mixture", atoms=((0.0, 0.3), (1.0, 0.2)), segments=((0.1, 0.7, 0.5),))
        lo, hi = min(e1, e2), max(e1, e2)
        assert law.tail_mass(lo) >= law.tail_mass(hi)

    def test_jump_at_atom_is_atom_mass(self):
        law = m.CouplingLaw.point_masses([(0.5, 0.6), (1.0, 0.4)])
        jump = law.tail_mass(0.5) - law.tail_mass(0.5 + 1e-12)
        assert jump == pytest.approx(0.6)

    def test_support_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            m.CouplingLaw.point_masses([(1.5, 1.0)])
        with pytest.raises(ValueError):
            m.CouplingLaw("uniform_interval", segments=((0.0, 2.0, 1.0),))

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            m.CouplingLaw("point_masses", atoms=((0.0, 0.5),))

    @pytest.mark.parametrize(
        "law",
        [
            m.CouplingLaw.bernoulli(0.35),
            m.CouplingLaw.uniform(0.0, 1.0),
            m.CouplingLaw.bernoulli_times_uniform(0.6, 0.0, 1.0),
            m.CouplingLaw.point_masses([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)]),
            m.CouplingLaw("mixture", atoms=((0.0, 0.3),), segments=((0.4, 0.8, 0.7),)),
        ],
    )
    def test_sampling_frequency_matches_tail_mass(self, law):
        # 4-standard-error agreement between empirical tail and p_eps = mu([eps, 1])
        n = 10_000
        u = np.random.default_rng(7).random(n)
        draws = law.quantile(u)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        for eps in [0.1, 0.5, 0.85]:
            p = law.tail_mass(eps)
            freq = np.mean(draws >= eps)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se + 1e-12

    def test_quantile_monotone_in_u(self):
        # 0.4 Bernoulli(0.4), 0.6 uniform on [0.3, 0.6]
        law = m.CouplingLaw("mixture", atoms=((0.0, 0.24), (1.0, 0.16)), segments=((0.3, 0.6, 0.6),))
        u = np.linspace(0.0, 0.999999, 1000)
        q = law.quantile(u)
        assert np.all(np.diff(q) >= -1e-12)

    def test_law_dict_roundtrip(self):
        law = m.CouplingLaw.bernoulli_times_uniform(0.4, 0.2, 0.9)
        rec = {"kind": "bernoulli_times_uniform", "p": 0.4, "lo": 0.2, "hi": 0.9}
        assert m._from_kind("coupling", rec) == law

    def test_point_masses_refuse_a_nan_weight(self):
        with pytest.raises(ValueError, match="law mass nan != 1"):
            m.CouplingLaw.point_masses([(0.0, math.nan), (1.0, 1.0)])


class TestSiteSets:
    def test_lattice_separation(self):
        sites = m.SiteSet.lattice(2, 5.0)
        gaps = np.linalg.norm(sites.points[:, None] - sites.points[None, :], axis=-1)
        assert np.min(gaps[~np.eye(len(sites), dtype=bool)]) == 1.0

    @pytest.mark.parametrize("offsets", [[[0.5], [0.5]], [[0.5], [-0.5], [0.5]]])
    def test_tube_refuses_a_repeated_offset(self, offsets):
        with pytest.raises(ValueError, match=re.escape("tube offset [0.5] is repeated")):
            m.SiteSet.tube(2, 5.0, offsets)

    def test_tube_counts(self):
        sites = m.SiteSet.tube(2, 10.0)
        # integers k with |k| <= 10, cross-section {0}
        assert len(sites) == 21

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tube_default_offset_is_the_origin(self, d):
        sites = m.SiteSet.tube(d, 10.0)
        rec = {"dimension": d, "sites": {"generator": "tube", "radius": 10.0},
               "law": {"kind": "uniform"},
               "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5}}
        assert np.array_equal(sites.points, m.model_from_dict(rec).sites.points)
        assert sites.points.tolist() == [[k] + [0.0] * (d - 1) for k in range(-10, 11)]

    @pytest.mark.parametrize("make", [m.SiteSet.lattice, m.SiteSet.tube])
    @pytest.mark.parametrize("radius", [-3.0, 0.0, math.nan])
    def test_non_positive_site_radius_refused(self, make, radius):
        with pytest.raises(ValueError, match=f"{make.__name__} radius {radius} is not positive"):
            make(2, radius)

    @pytest.mark.parametrize("make", [m.SiteSet.lattice, m.SiteSet.tube])
    def test_infinite_site_radius_refused(self, make):
        # refused before math.floor, which would raise OverflowError
        with pytest.raises(ValueError, match=f"{make.__name__} radius inf is not finite"):
            make(2, math.inf)

    def test_duplicate_site_witness(self):
        for points, repeated in [
            ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [0.0, 0.0]),
            ([[3.0, 1.0], [0.0, 2.0], [-0.0, 2.0], [3.0, 1.0]], [0.0, 2.0]),  # -0.0 is 0.0
        ]:
            with pytest.raises(ValueError, match=re.escape(f"explicit site {repeated} is repeated")):
                m.SiteSet.explicit(points)

    def test_explicit_keeps_distinct_points(self):
        sites = m.SiteSet.explicit([[2.0, 0.0], [0.0, 1e-300], [0.0, 0.0]])
        assert sites.points.tolist() == [[0.0, 0.0], [0.0, 1e-300], [2.0, 0.0]]
        assert sites.window_radius == math.inf

    @pytest.mark.parametrize("window", [-1.0, 0.0, math.nan])
    def test_explicit_refuses_a_non_positive_window(self, window):
        with pytest.raises(ValueError, match=f"explicit window_radius {window} is not positive"):
            m.SiteSet.explicit([[0.0]], window)

    @pytest.mark.parametrize("points", [[], [[]], np.zeros((0, 2))])
    def test_explicit_refuses_an_empty_list(self, points):
        with pytest.raises(ValueError, match="explicit site list is empty"):
            m.SiteSet.explicit(points)

    def test_indices_in_annulus(self):
        sites = m.SiteSet.lattice(1, 10.0)
        idx = sites.indices_in(make_annulus(2.0, 4.0, 1))
        norms = np.abs(sites.points[idx, 0])
        assert set(norms) == {2.0, 3.0, 4.0}

    def test_window_guard(self):
        sites = m.SiteSet.lattice(1, 5.0)
        with pytest.raises(m.WindowTooSmallError):
            sites.indices_in(make_annulus(0.0, 10.0, 1))


class TestSampling:
    def test_bernoulli_one_gives_all_ones(self):
        model = lattice_model(d=1, radius=5.0, law=m.CouplingLaw.bernoulli(1.0))
        cm = m.sample_couplings(model, seed=3)
        assert np.all(cm.values == 1.0)

    def test_bernoulli_zero_gives_all_zeros(self):
        model = lattice_model(d=1, radius=5.0, law=m.CouplingLaw.bernoulli(0.0))
        cm = m.sample_couplings(model, seed=3)
        assert np.all(cm.values == 0.0)

    def test_determinism(self):
        model = lattice_model(d=2, radius=6.0, law=m.CouplingLaw.uniform())
        a = m.sample_couplings(model, seed=11)
        b = m.sample_couplings(model, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        model = lattice_model(d=2, radius=6.0, law=m.CouplingLaw.uniform())
        a = m.sample_couplings(model, seed=11)
        b = m.sample_couplings(model, seed=12)
        assert not np.array_equal(a.values, b.values)

    def test_window_restriction_preserves_values(self):
        # per-site streams: shrinking the window must not change shared draws
        model = lattice_model(d=1, radius=8.0, law=m.CouplingLaw.uniform())
        full = m.sample_couplings(model, seed=5)
        small = m.sample_couplings(model, seed=5, window=3.0)
        for j, idx in enumerate(small.site_indices):
            pos = np.where(full.site_indices == idx)[0][0]
            assert small.values[j] == full.values[pos]

    @pytest.mark.parametrize("laws", [
        m.LawAssignment.radial_bernoulli(0.7),
        m.LawAssignment.radial_bernoulli(2.0, cap=0.4),
        m.LawAssignment.shared_law(m.CouplingLaw.bernoulli_times_uniform(0.6, 0.2, 0.9)),
        m.LawAssignment.per_site_laws([m.CouplingLaw.bernoulli(k / 8) for k in range(9)]),
    ])
    @pytest.mark.parametrize("eps", [1e-300, 0.3, 0.5, 1.0, 0.0, 1.5])
    def test_bad_mask_is_the_coupling_comparison(self, laws, eps):
        points = np.arange(-4.0, 5.0)[:, None]
        indices = np.arange(9)
        u = site_uniforms(2, indices, 500)
        u[:, :3] = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        want = laws.transform(points, indices, u) >= eps
        assert np.array_equal(laws.bad_mask(points, indices, u, eps), want)

    def test_stream_independent_of_order(self):
        u1 = site_uniforms(9, np.array([4, 7, 2]))
        u2 = site_uniforms(9, np.array([2, 4, 7]))
        assert u1[2, 0] == u2[0, 0]
        assert u1[0, 0] == u2[1, 0]


class TestEvaluatePotential:
    def test_warns_within_one_support_radius_of_the_window_edge(self):
        model = lattice_model(d=1, radius=6.0, rho=1.0)
        cm = m.sample_couplings(model, seed=0, window=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = m.evaluate_potential(model, cm, [5.0])  # window radius - rho: still safe
        assert isinstance(inside, float)
        with pytest.warns(UserWarning, match="within one support radius of the window edge"):
            edge = m.evaluate_potential(model, cm, np.array([[0.0], [5.5]]))
        assert edge.shape == (2,)

    def test_single_bump(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(0.7)),
        )
        cm = m.sample_couplings(model, seed=0)
        assert m.evaluate_potential(model, cm, [0.5]) == pytest.approx(0.7)
        assert m.evaluate_potential(model, cm, [2.0]) == 0.0

    def test_overlapping_bumps_sum(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0], [1.0]]),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(0.5)),
        )
        cm = m.sample_couplings(model, seed=0)
        assert m.evaluate_potential(model, cm, [0.5]) == pytest.approx(1.0)

    def test_linearity_in_couplings(self):
        model = lattice_model(d=1, radius=6.0, law=m.CouplingLaw.uniform(0.0, 0.5))
        cm = m.sample_couplings(model, seed=21)
        doubled = m.CouplingMap(
            model, cm.site_indices, 2.0 * cm.values, None, cm.window_radius
        )
        xs = np.array([[0.3], [1.7], [-2.4]])
        v1 = m.evaluate_potential(model, cm, xs, include_background=False)
        v2 = m.evaluate_potential(model, doubled, xs, include_background=False)
        assert np.allclose(v2, 2.0 * v1)

    def test_profile_beyond_the_support_is_ignored(self):
        """A profile that reads 1 out to radius 2 but declares support 1 gives the
        potential of the indicator of radius 1."""
        wide = m.SingleSitePotential(1.0, lambda r: np.where(r <= 2.0, 1.0, 0.0))
        models = [m.RandomPotentialModel(m.SiteSet.lattice(1, 8.0), bump,
                                         m.LawAssignment.shared_law(m.CouplingLaw.uniform()))
                  for bump in (wide, m.SingleSitePotential.indicator(1.0, 1.0))]
        xs = np.arange(-5.0, 5.0, 0.05)[:, None]
        got, want = (m.evaluate_potential(model, m.sample_couplings(model, seed=4), xs)
                     for model in models)
        assert np.array_equal(got, want)
        assert wide.evaluate(np.array([[0.5], [1.5], [-1.9]])).tolist() == [1.0, 0.0, 0.0]

    def test_background_flag(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(0.0)),
            background=m.BackgroundPotential.constant(5.0),
        )
        cm = m.sample_couplings(model, seed=0)
        assert m.evaluate_potential(model, cm, [0.2]) == pytest.approx(5.0)
        assert m.evaluate_potential(model, cm, [0.2], include_background=False) == 0.0

    def test_points_of_the_wrong_dimension_are_refused(self):
        one = lattice_model(d=1, radius=20.0, law=m.CouplingLaw.bernoulli(1.0), rho=0.5)
        cm = m.sample_couplings(one, seed=0)
        assert m.evaluate_potential(one, cm, [0.2]) == 1.0
        assert m.evaluate_potential(one, cm, [[0.2], [7.7]]).tolist() == [1.0, 1.0]
        # one point in R^2, not two in R^1
        with pytest.raises(ValueError, match=r"R\^1, got shape \(1, 2\)"):
            m.evaluate_potential(one, cm, [0.2, 7.7])
        two = lattice_model(d=2, radius=10.0)
        cm = m.sample_couplings(two, seed=0)
        for x in ([0.2], [0.2, 0.3, 0.4], [[[0.2, 0.3]]]):
            with pytest.raises(ValueError, match=r"R\^2"):
                m.evaluate_potential(two, cm, x)


def pair_loop_potential(model, couplings, pts, include_background=True):
    """evaluate_potential as a loop over (node, site) pairs: the bit-level oracle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    neighbor_lists = cKDTree(couplings.points).query_ball_point(pts, model.max_support_radius())
    for row, neighbors in enumerate(neighbor_lists):
        for j in neighbors:
            out[row] += couplings.values[j] * model.potential.evaluate(pts[row] - couplings.points[j])[0]
    if include_background:
        out += model.background.evaluate(pts)
    return out


class TestEvaluatePotentialPairOracle:
    """The vectorized sum equals the pair loop bit for bit: many overlapping
    bumps per node, so the order of the additions shows in the last bits."""

    @staticmethod
    def wavy(radius, scale):
        return m.SingleSitePotential(
            support_radius=radius,
            profile=lambda r: scale * np.cos(1.3 * r) + 0.1 * r,
        )

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_pair_loop(self, d):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(d, 9.0),
            potential=self.wavy(2.6, 0.45),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform(0.0, 1.0)),
            background=m.BackgroundPotential.periodic_step([0.0, 0.3, -0.2], cell=0.7),
        )
        cm = m.sample_couplings(model, seed=5, window=9.0)
        axis = np.arange(-3.9, 3.9, 0.137 if d == 1 else 0.31)
        pts = axis[:, None] if d == 1 else np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
        for background in (True, False):
            got = m.evaluate_potential(model, cm, pts, include_background=background)
            assert np.array_equal(got, pair_loop_potential(model, cm, pts, background))

    def test_node_without_neighbours_and_scalar(self):
        model = lattice_model(d=1, radius=6.0, law=m.CouplingLaw.uniform(0.0, 0.5), rho=0.3)
        cm = m.sample_couplings(model, seed=3)
        pts = np.array([[0.5], [0.1], [-1.05]])
        got = m.evaluate_potential(model, cm, pts)
        assert np.array_equal(got, pair_loop_potential(model, cm, pts))
        assert got[0] == 0.0
        assert m.evaluate_potential(model, cm, [0.1]) == got[1]


def tree_pairs(pts, points, rho):
    """(rows, cols) of a sorted multi-point cKDTree.query_ball_point: the pair oracle."""
    lists = cKDTree(points).query_ball_point(pts, rho, return_sorted=True)
    rows = np.repeat(np.arange(len(pts)), [len(nb) for nb in lists])
    cols = np.array([j for nb in lists for j in nb], dtype=np.intp)
    return rows, cols


def assert_pairs_equal(pts, points, rho):
    got, want = m._pairs_within(pts, points, rho), tree_pairs(pts, points, rho)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return got[0].size


class TestPairsWithin:
    """The numpy pair kernel returns the k-d tree's pairs, in the tree's order."""

    @given(
        d=st.integers(1, 3),
        n_nodes=st.integers(1, 60),
        n_sites=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(0.0, 3.0),
        snap=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_tree(self, d, n_nodes, n_sites, seed, rho, snap):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4.0, 4.0, (n_nodes, d))
        points = rng.uniform(-5.0, 5.0, (n_sites, d))
        if snap:  # quarter-integer points and radius: many pairs exactly at rho
            pts, points, rho = np.round(4 * pts) / 4, np.round(2 * points) / 2, round(4 * rho) / 4
        assert_pairs_equal(pts, points, rho)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("h", [0.05, 0.1, 0.25])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_lattice_against_grid_nodes(self, d, h, rho):
        box = 4.0 if d == 1 else 2.0
        axis = -box + h + h * np.arange(round(2 * box / h) - 1)
        nodes = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
        assert assert_pairs_equal(nodes, m.SiteSet.lattice(d, box + 2.0).points, rho) > 0

    def test_several_blocks(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-6.0, 6.0, (3 * m._PAIR_BLOCK + 17, 2))
        sites = m.SiteSet.lattice(2, 8.0).points
        assert_pairs_equal(pts, sites, 1.0)
        assert m._pairs_within(pts, sites, 1.0)[0][-1] >= 3 * m._PAIR_BLOCK  # the fourth block has pairs

    def test_no_sites_no_nodes(self):
        assert assert_pairs_equal(np.zeros((4, 2)), np.empty((0, 2)), 1.0) == 0
        rows, cols = m._pairs_within(np.empty((0, 2)), np.zeros((3, 2)), 1.0)
        assert rows.size == cols.size == 0


class TestQuasiDimension:
    def test_tube_is_quasi_1d(self):
        report = m.quasi_dimension_bound(m.SiteSet.tube(2, 60.0), m=1.0, r_max=55.0)
        assert report.passed
        assert report.constant <= 4.0 + 1e-9

    def test_full_lattice_fails_quasi_1d(self):
        report = m.quasi_dimension_bound(m.SiteSet.lattice(2, 40.0), m=1.0, r_max=38.0)
        assert not report.passed

    def test_full_lattice_is_quasi_2d(self):
        report = m.quasi_dimension_bound(m.SiteSet.lattice(2, 40.0), m=2.0, r_max=38.0)
        assert report.passed
        assert report.constant <= 8.0 * math.pi


class TestModel1Remark:
    def test_bernoulli_tail_is_p_for_every_eps(self):
        model = lattice_model(d=2, radius=12.0, law=None)
        model = m.RandomPotentialModel(
            sites=model.sites,
            potential=model.potential,
            laws=m.LawAssignment.radial_bernoulli(1.5),
        )
        idx = np.arange(len(model.sites))
        for eps in [1e-6, 0.3, 1.0]:
            got = model.tail_masses(idx, eps)
            norms = model.sites.norms
            with np.errstate(divide="ignore"):
                want = np.minimum(np.where(norms > 0, norms**-1.5, np.inf), 1.0)
            assert np.allclose(got, want)


class TestValidateAssumptions:
    """The standing hypotheses hold by construction: the model's constructors,
    which `validate` runs on every config, refuse a model that breaks one."""

    def test_lattice_bernoulli_all_pass(self):
        model = lattice_model(d=2, radius=8.0)
        m.RandomPotentialModel(model.sites, model.potential, model.laws, distinguished_site=0)

    def test_duplicate_site_fails_a2(self):
        with pytest.raises(ValueError, match=re.escape("explicit site [0.0, 0.0] is repeated")):
            m.model_from_dict({
                "dimension": 2,
                "sites": {"generator": "explicit", "points": [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]]},
                "law": {"kind": "bernoulli", "p": 0.5},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 1.0},
            })

    @pytest.mark.parametrize("cap", [2.0, -0.5, math.nan])
    def test_radial_bernoulli_cap_outside_unit_interval_fails_a4(self, cap):
        with pytest.raises(ValueError, match=f"radial_bernoulli cap {cap} is outside"):
            m.LawAssignment.radial_bernoulli(1.5, cap)

    def test_a5_checked_when_distinguished_site_set(self):
        sites, laws = m.SiteSet.lattice(1, 5.0), m.LawAssignment.shared_law(m.CouplingLaw.uniform())
        negative = m.SingleSitePotential.indicator(-2.0, 1.0)
        model = m.RandomPotentialModel(sites, negative, laws, distinguished_site=10)
        assert model.distinguished_site == 10
        for index in (11, 100000, -1):
            with pytest.raises(ValueError, match=f"distinguished_site {index} is not a site index "
                                                 "of the 11 sites"):
                m.RandomPotentialModel(sites, negative, laws, distinguished_site=index)

    def test_a5_fails_on_a_bump_that_is_zero_at_its_centre(self):
        sites, laws = m.SiteSet.lattice(1, 5.0), m.LawAssignment.shared_law(m.CouplingLaw.uniform())
        zero = m.SingleSitePotential.indicator(0.0, 1.0)
        with pytest.raises(ValueError, match="distinguished_site 3 has a bump that is 0 at its centre"):
            m.RandomPotentialModel(sites, zero, laws, distinguished_site=3)
        # the value at the centre decides, not the bump's size elsewhere
        ring = m.SingleSitePotential(1.0, lambda r: np.where(r > 0.5, 1.0, 0.0))
        with pytest.raises(ValueError, match="distinguished_site 3 has a bump that is 0"):
            m.RandomPotentialModel(sites, ring, laws, distinguished_site=3)


class TestConstructorChecks:
    def test_per_site_laws_match_the_sites(self):
        sites = m.SiteSet.lattice(1, 40.0)
        potential = m.SingleSitePotential.indicator(1.0, 0.5)
        laws = [m.CouplingLaw.uniform()] * len(sites)
        m.RandomPotentialModel(sites, potential, m.LawAssignment.per_site_laws(laws))
        with pytest.raises(ValueError, match="per_site lists 1 laws for 81 sites"):
            m.RandomPotentialModel(sites, potential, m.LawAssignment.per_site_laws(laws[:1]))

    @pytest.mark.parametrize("tau", [-1.0, math.nan])
    def test_radial_bernoulli_refuses_a_negative_or_nan_tau(self, tau):
        with pytest.raises(ValueError, match=f"radial_bernoulli tau {tau} is not >= 0"):
            m.LawAssignment.radial_bernoulli(tau)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan])
    def test_indicator_refuses_a_non_positive_radius(self, radius):
        with pytest.raises(ValueError, match=f"indicator radius {radius} is not positive"):
            m.SingleSitePotential.indicator(1.0, radius)

    @pytest.mark.parametrize("values,cell", [([], 1.0), ([0.0, 3.0], 0.0), ([0.0, 3.0], -1.0),
                                             ([0.0, 3.0], math.nan)])
    def test_periodic_step_refuses_an_empty_pattern_or_cell(self, values, cell):
        message = re.escape(f"got values={values} and cell={cell}")
        with pytest.raises(ValueError, match="periodic_step needs at least one value and a "
                                             f"positive cell, {message}"):
            m.BackgroundPotential.periodic_step(values, cell)

    @pytest.mark.parametrize(
        "make, bad",
        [
            (lambda: m.BackgroundPotential.constant(math.nan), math.nan),
            (lambda: m.BackgroundPotential.constant(-math.inf), -math.inf),
            (lambda: m.BackgroundPotential.periodic_step([math.nan]), math.nan),
            (lambda: m.BackgroundPotential.periodic_step([0.0, math.inf], 0.5), math.inf),
            (lambda: m.BackgroundPotential.periodic_step([0.0, 3.0], math.inf), math.inf),
        ],
    )
    def test_background_refuses_a_non_finite_value(self, make, bad):
        with pytest.raises(ValueError, match=f"background value {bad} is not finite"):
            make()


class TestModelSerialization:
    def test_roundtrip_lattice(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(2, 6.0),
            potential=m.SingleSitePotential.indicator(-3.0, 1.0),
            laws=m.LawAssignment.radial_bernoulli(1.5),
            background=m.BackgroundPotential.constant(2.0),
        )
        back = m.model_from_dict({
            "dimension": 2,
            "sites": {"generator": "lattice", "radius": 6.0},
            "law": {"kind": "radial_bernoulli", "tau": 1.5},
            "potential": {"kind": "indicator", "amplitude": -3.0, "radius": 1.0},
            "background": {"kind": "constant", "value": 2.0},
        })
        assert back.dimension == model.dimension == 2
        assert np.array_equal(back.sites.points, model.sites.points)
        assert (back.laws.kind, back.laws.tau, back.laws.cap) == ("radial_bernoulli", 1.5, 1.0)
        nodes = np.linspace(-7.0, 7.0, 29)[:, None] * [1.0, 0.5]
        assert np.array_equal(back.background.evaluate(nodes), model.background.evaluate(nodes))
        assert back.potential.support_radius == model.potential.support_radius == 1.0
        offsets = np.array([[0.0, 0.0], [0.0, -1.0], [0.0, -1.01], [2.0, 0.0]])
        want = [-3.0, -3.0, 0.0, 0.0]
        assert back.potential.evaluate(offsets).tolist() == want
        assert model.potential.evaluate(offsets).tolist() == want

    def test_roundtrip_tube(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.tube(2, 7.0),
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        back = m.model_from_dict({
            "dimension": 2,
            "sites": {"generator": "tube", "radius": 7.0},
            "law": {"kind": "uniform"},
            "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
        })
        assert np.array_equal(back.sites.points, model.sites.points)
        assert back.laws.shared == model.laws.shared
        nodes = np.linspace(-7.0, 7.0, 29)[:, None] * [1.0, 0.5]
        assert np.array_equal(back.background.evaluate(nodes), model.background.evaluate(nodes))
        assert np.array_equal(back.background.evaluate(nodes), np.zeros(len(nodes)))


class TestKinds:
    """Model components built through `KINDS`: a kind's keys are its constructor's
    parameters, nested laws included, and the background is one pattern."""

    def model_rec(self, **parts):
        return {"dimension": 1, "sites": {"generator": "lattice", "radius": 5.0},
                "law": {"kind": "uniform"},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5}, **parts}

    @pytest.mark.parametrize(
        "part,fields,message",
        [
            ("law", {"kind": "shared", "law": {"kind": "bernoulli", "p": 0.5, "lo": 0.1}},
             "coupling 'bernoulli' takes no key 'lo'"),
            ("sites", {"generator": "lattice", "radius": 5.0, "dimension": 1},
             "sites 'lattice' takes no key 'dimension'"),
            ("law", {"kind": "shared", "law": {"kind": "radial_bernoulli", "tau": 1.0}},
             "unknown coupling kind 'radial_bernoulli'"),
        ],
    )
    def test_a_key_the_kind_does_not_take_is_refused(self, part, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            m.model_from_dict(self.model_rec(**{part: fields}))

    def test_nested_laws_read_by_the_coupling_kinds(self):
        laws = [{"kind": "bernoulli", "p": 0.25}, {"kind": "point_masses", "atoms": [[0.5, 1.0]]}]
        want = [m.CouplingLaw.bernoulli(0.25), m.CouplingLaw.point_masses([(0.5, 1.0)])]
        rec = self.model_rec(sites={"generator": "explicit", "points": [[0.0], [2.0]]},
                             law={"kind": "per_site", "laws": laws})
        assert list(m.model_from_dict(rec).laws.per_site) == want
        shared = m.model_from_dict(self.model_rec(law={"kind": "shared", "law": laws[0]}))
        assert shared.laws.shared == want[0]

    @pytest.mark.parametrize("c", [2.0, -3.5, 0.1])
    def test_constant_background_is_its_value_everywhere(self, c):
        nodes = np.concatenate([np.linspace(-40.0, 40.0, 1601), [-1e9, -0.5, -0.0, 1e9]])
        n = len(nodes)
        for pts in (nodes[:, None], np.column_stack([nodes, nodes[::-1]])):
            got = m.BackgroundPotential.constant(c).evaluate(pts)
            assert got.tobytes() == np.full(n, c).tobytes()
            zero = m.BackgroundPotential.zero().evaluate(pts)
            assert zero.tobytes() == np.full(n, 0.0).tobytes()  # +0.0, never -0.0
