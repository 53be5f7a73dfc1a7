"""Coupling-law exactness, sampling contracts, and assumption validation."""

import math
import re

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


class TestCouplingLaw:
    def test_p_epsilon_bernoulli(self):
        assert m.p_epsilon(m.CouplingLaw.bernoulli(0.3), 0.5) == pytest.approx(0.3)

    def test_p_epsilon_uniform(self):
        assert m.p_epsilon(m.CouplingLaw.uniform(), 0.25) == pytest.approx(0.75)

    def test_p_epsilon_delta0(self):
        assert m.p_epsilon(m.CouplingLaw.delta(0.0), 0.5) == 0.0

    def test_p_epsilon_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m.p_epsilon(m.CouplingLaw.uniform(), 0.0)

    def test_ac_mass(self):
        assert m.CouplingLaw.bernoulli(0.7).ac_mass() == 0.0
        assert m.CouplingLaw.uniform().ac_mass() == 1.0
        mix = m.CouplingLaw.mixture([(m.CouplingLaw.delta(0.0), 0.5), (m.CouplingLaw.uniform(), 0.5)])
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
                assert m.p_epsilon(law, eps) + law.mass_below(eps) == pytest.approx(1.0)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_p_epsilon_nonincreasing(self, e1, e2):
        law = m.CouplingLaw.mixture(
            [(m.CouplingLaw.bernoulli(0.4), 0.5), (m.CouplingLaw.uniform(0.1, 0.7), 0.5)]
        )
        lo, hi = min(e1, e2), max(e1, e2)
        assert m.p_epsilon(law, lo) >= m.p_epsilon(law, hi)

    def test_jump_at_atom_is_atom_mass(self):
        law = m.CouplingLaw.point_masses([(0.5, 0.6), (1.0, 0.4)])
        jump = m.p_epsilon(law, 0.5) - m.p_epsilon(law, 0.5 + 1e-12)
        assert jump == pytest.approx(0.6)

    def test_support_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            m.CouplingLaw.point_masses([(1.5, 1.0)])
        with pytest.raises(ValueError):
            m.CouplingLaw("uniform_interval", segments=((0.0, 2.0, 1.0),))

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            m.CouplingLaw("point_masses", atoms=((0.0, 0.5),))

    def test_moments(self):
        assert m.CouplingLaw.uniform().second_moment() == pytest.approx(1.0 / 3.0)
        assert m.CouplingLaw.bernoulli(0.3).second_moment() == pytest.approx(0.3)
        assert m.CouplingLaw.uniform().mean() == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "law",
        [
            m.CouplingLaw.bernoulli(0.35),
            m.CouplingLaw.uniform(0.0, 1.0),
            m.CouplingLaw.bernoulli_times_uniform(0.6, 0.0, 1.0),
            m.CouplingLaw.point_masses([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)]),
            m.CouplingLaw.mixture(
                [(m.CouplingLaw.delta(0.0), 0.3), (m.CouplingLaw.uniform(0.4, 0.8), 0.7)]
            ),
        ],
    )
    def test_sampling_frequency_matches_tail_mass(self, law):
        # 4-standard-error agreement between empirical tail and p_epsilon
        n = 10_000
        u = np.random.default_rng(7).random(n)
        draws = law.quantile(u)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        for eps in [0.1, 0.5, 0.85]:
            p = m.p_epsilon(law, eps)
            freq = np.mean(draws >= eps)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se + 1e-12

    def test_quantile_monotone_in_u(self):
        law = m.CouplingLaw.mixture(
            [(m.CouplingLaw.bernoulli(0.4), 0.4), (m.CouplingLaw.uniform(0.3, 0.6), 0.6)]
        )
        u = np.linspace(0.0, 0.999999, 1000)
        q = law.quantile(u)
        assert np.all(np.diff(q) >= -1e-12)

    def test_law_dict_roundtrip(self):
        law = m.CouplingLaw.bernoulli_times_uniform(0.4, 0.2, 0.9)
        rec = {"kind": "bernoulli_times_density", "atoms": [[0.0, 0.6]], "segments": [[0.2, 0.9, 0.4]]}
        assert m.CouplingLaw.from_dict(rec) == law


class TestSiteSets:
    def test_lattice_separation(self):
        sites = m.SiteSet.lattice(2, 5.0)
        assert sites.r_sigma == 1.0
        assert sites.min_separation() == pytest.approx(1.0)

    @pytest.mark.parametrize("offsets", [[[0.5], [0.5]], [[0.5], [-0.5], [0.5]]])
    def test_tube_refuses_a_repeated_offset(self, offsets):
        with pytest.raises(ValueError, match=re.escape("tube offset [0.5] is repeated")):
            m.SiteSet.tube(2, 5.0, offsets)

    def test_tube_counts(self):
        sites = m.SiteSet.tube(2, 10.0)
        # integers k with |k| <= 10, cross-section {0}
        assert len(sites) == 21

    def test_duplicate_site_witness(self):
        sites = m.SiteSet.explicit([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], r_sigma=1.0)
        assert sites.separation_witness() is not None

    def test_one_tree_serves_separation_and_witness(self, monkeypatch):
        import scipy.spatial

        built = []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        sites = m.SiteSet.explicit([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        assert (sites.r_sigma, len(built)) == (0.5, 1)
        crowded = m.SiteSet.explicit(sites.points, r_sigma=1.0)
        model = m.RandomPotentialModel(
            sites=crowded,
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        a2 = m.validate_assumptions(model)["A2"]
        assert len(built) == 2
        assert not a2.passed
        assert a2.witness == (0, 1)
        assert "min separation 0.5 vs declared r_sigma 1" in a2.detail

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

    def test_stream_independent_of_order(self):
        u1 = site_uniforms(9, np.array([4, 7, 2]))
        u2 = site_uniforms(9, np.array([2, 4, 7]))
        assert u1[2, 0] == u2[0, 0]
        assert u1[0, 0] == u2[1, 0]


class TestEvaluatePotential:
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
            model, cm.site_indices, 2.0 * cm.values, None, cm.window_radius, transform="x2"
        )
        xs = np.array([[0.3], [1.7], [-2.4]])
        v1 = m.evaluate_potential(model, cm, xs, include_background=False)
        v2 = m.evaluate_potential(model, doubled, xs, include_background=False)
        assert np.allclose(v2, 2.0 * v1)

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


def pair_loop_potential(model, couplings, pts, include_background=True):
    """evaluate_potential as a loop over (node, site) pairs: the bit-level oracle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    neighbor_lists = cKDTree(couplings.points).query_ball_point(pts, model.max_support_radius())
    for row, neighbors in enumerate(neighbor_lists):
        for j in neighbors:
            pot = model.potential_for(int(couplings.site_indices[j]))
            out[row] += couplings.values[j] * pot.evaluate(pts[row] - couplings.points[j])[0]
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
            p_norm_bound=1.0,
        )

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_pair_loop(self, d):
        sites = m.SiteSet.lattice(d, 9.0)
        norms = np.linalg.norm(sites.points, axis=1)
        # every fifth site near the origin carries its own, wider bump
        own = {int(i): self.wavy(3.1, -0.7) for i in np.where(norms < 4.0)[0][::5]}
        model = m.RandomPotentialModel(
            sites=sites,
            potential=self.wavy(2.6, 0.45),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform(0.0, 1.0)),
            background=m.BackgroundPotential.periodic_step([0.0, 0.3, -0.2], cell=0.7),
            site_potentials=own,
        )
        cm = m.sample_couplings(model, seed=5, window=9.0)
        axis = np.arange(-3.9, 3.9, 0.137 if d == 1 else 0.31)
        pts = axis[:, None] if d == 1 else np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
        for background in (True, False):
            got = m.evaluate_potential(model, cm, pts, include_background=background)
            assert np.array_equal(got, pair_loop_potential(model, cm, pts, background))
        assert len(own) > 1

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


def tree_loop_second_moment(model, pts):
    """second_moment_profile as a loop over each node's k-d tree neighbours: the
    bit-level oracle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    lists = cKDTree(model.sites.points).query_ball_point(pts, model.max_support_radius())
    for row, neighbors in enumerate(lists):
        mean_sum = var_sum = 0.0
        for j in neighbors:
            law = model.laws.law_for(model.sites.points[j], j)
            f = model.potential_for(j).evaluate(pts[row] - model.sites.points[j])[0]
            m1, m2 = law.mean(), law.second_moment()
            mean_sum += m1 * f
            var_sum += (m2 - m1 * m1) * f * f
        out[row] = math.sqrt(max(mean_sum * mean_sum + var_sum, 0.0))
    return out


class TestSecondMoment:
    def test_uniform_law_single_site(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        assert m.second_moment_profile(model, [0.0]) == pytest.approx(math.sqrt(1.0 / 3.0))

    def test_bernoulli_single_site(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.4)),
        )
        assert m.second_moment_profile(model, [0.0]) == pytest.approx(math.sqrt(0.4))

    def test_all_delta0_zero(self):
        model = lattice_model(d=1, radius=5.0, law=m.CouplingLaw.delta(0.0))
        assert m.second_moment_profile(model, [0.0]) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_tree_loop(self, d):
        sites = m.SiteSet.lattice(d, 7.0)
        near = np.where(np.linalg.norm(sites.points, axis=1) < 3.0)[0][::4]
        model = m.RandomPotentialModel(
            sites=sites,
            potential=TestEvaluatePotentialPairOracle.wavy(2.2, 0.6),
            laws=m.LawAssignment.radial_bernoulli(1.5),
            site_potentials={int(i): TestEvaluatePotentialPairOracle.wavy(2.9, -0.4) for i in near},
        )
        axis = np.arange(-4.0, 4.0, 0.173 if d == 1 else 0.41)
        pts = axis[:, None] if d == 1 else np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
        assert np.array_equal(m.second_moment_profile(model, pts), tree_loop_second_moment(model, pts))
        assert m.second_moment_profile(model, pts[3]) == tree_loop_second_moment(model, pts[3])[0]

    def test_decay_fit_detects_fast_decay(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 60.0),
            potential=m.SingleSitePotential.indicator(1.0, 0.4),
            laws=m.LawAssignment.radial_bernoulli(3.0),
        )
        # Bernoulli(p_i) second moment = p_i ~ |i|^-3, so W ~ |i|^-1.5
        exponent, quality, fast = m.second_moment_decay_fit(model, np.arange(4.0, 55.0, 1.0))
        assert fast
        assert exponent == pytest.approx(1.5, abs=0.3)
        assert quality > 0.9


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


class TestBackgroundLocalNorm:
    """A1's sup over unit balls of the L^2 norm of the background."""

    @staticmethod
    def with_background(d, background):
        return m.RandomPotentialModel(
            sites=m.SiteSet.lattice(d, 40.0),
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
            background=background,
        )

    @pytest.mark.parametrize("d,want", [(1, 2.0 * math.sqrt(2.0)), (2, 2.0 * math.sqrt(math.pi))])
    def test_constant_is_exact(self, d, want):
        # |c| w_d^(1/p): the unit ball has volume 2 in d=1 and pi in d=2
        model = self.with_background(d, m.BackgroundPotential.constant(2.0))
        assert m._background_local_norm(model, 2.0) == pytest.approx(want, rel=1e-15)

    def test_periodic_step_near_its_supremum(self):
        # every unit ball of the d=1 pattern [0, 3] covers exactly one cell of 3: norm 3
        model = self.with_background(1, m.BackgroundPotential.periodic_step([0.0, 3.0]))
        assert 3.0 <= m._background_local_norm(model, 2.0) <= 3.3


class TestValidateAssumptions:
    def test_lattice_bernoulli_all_pass(self):
        model = lattice_model(d=2, radius=8.0)
        report = m.validate_assumptions(model)
        assert report.passed
        assert report["A2"].detail.startswith("min separation 1")

    def test_duplicate_site_fails_a2(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], r_sigma=1.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        report = m.validate_assumptions(model)
        assert not report["A2"].passed
        assert report["A2"].witness is not None

    def test_support_violation_fails_a3(self):
        bad = m.SingleSitePotential(
            support_radius=1.0,
            profile=lambda r: np.where(r <= 2.0, 1.0, 0.0),
            p_norm_bound=10.0,
        )
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 5.0),
            potential=bad,
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        report = m.validate_assumptions(model)
        assert not report["A3"].passed

    def test_a5_checked_when_distinguished_site_set(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 5.0),
            potential=m.SingleSitePotential.indicator(-2.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
            distinguished_site=0,
        )
        report = m.validate_assumptions(model)
        assert report["A5"].passed


class TestConstructorChecks:
    def test_per_site_laws_match_the_sites(self):
        sites = m.SiteSet.lattice(1, 40.0)
        potential = m.SingleSitePotential.indicator(1.0, 0.5)
        laws = [m.CouplingLaw.uniform()] * len(sites)
        m.RandomPotentialModel(sites, potential, m.LawAssignment.per_site_laws(laws))
        with pytest.raises(ValueError, match="per_site lists 1 laws for 81 sites"):
            m.RandomPotentialModel(sites, potential, m.LawAssignment.per_site_laws(laws[:1]))

    @pytest.mark.parametrize("values,cell", [([], 1.0), ([0.0, 3.0], 0.0), ([0.0, 3.0], -1.0)])
    def test_periodic_step_refuses_an_empty_pattern_or_cell(self, values, cell):
        message = re.escape(f"got values={values} and cell={cell}")
        with pytest.raises(ValueError, match="periodic_step needs at least one value and a "
                                             f"positive cell, {message}"):
            m.BackgroundPotential.periodic_step(values, cell)


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
        assert (back.background.kind, back.background.value) == ("constant", 2.0)
        assert back.potential.lower_bump == model.potential.lower_bump == (3.0, 1.0)

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
        assert back.background.kind == "zero"
