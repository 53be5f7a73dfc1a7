"""Spectral oracles: closed-form chains, Bloch bands, lattice Green decay."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import cli
from sparseloc import models as m
from sparseloc import spectral as sp


def free_chain_eigenvalues(n, h=1.0):
    k = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2


class TestGridOperator:
    def test_three_node_chain(self):
        op = sp.GridOperator.free(1, 3, 1.0)
        vals = np.sort(op.all_eigenvalues())
        want = np.sort([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
        assert np.allclose(vals, want, atol=1e-12)

    def test_symmetry_exact(self):
        op = sp.GridOperator.free(2, (7, 5), 0.5)
        op.potential = np.sin(np.arange(op.n_unknowns) * 0.7)
        a = op.matrix().toarray()
        assert np.max(np.abs(a - a.T)) == 0.0

    def test_free_spectrum_range(self):
        for d, shape in [(1, 30), (2, (9, 9))]:
            op = sp.GridOperator.free(d, shape, 1.0)
            vals = op.all_eigenvalues()
            assert vals.min() >= 0.0
            assert vals.max() <= 4.0 * d

    def test_constant_shift_exact(self):
        op = sp.GridOperator.free(1, 50, 1.0)
        shifted = sp.GridOperator(1, op.shape, 1.0, op.origin, op.potential + 3.5)
        a, b = np.sort(op.all_eigenvalues()), np.sort(shifted.all_eigenvalues())
        assert np.allclose(b - a, 3.5, atol=1e-10)

    def test_2d_separable_sum(self):
        op = sp.GridOperator.free(2, (4, 6), 1.0)
        vals = np.sort(op.all_eigenvalues())
        ex = free_chain_eigenvalues(4)
        ey = free_chain_eigenvalues(6)
        want = np.sort((ex[:, None] + ey[None, :]).ravel())
        assert np.allclose(vals, want, atol=1e-10)


class TestDiscretize:
    def single_well_model(self, amplitude=-3.0, rho=1.0):
        return m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(amplitude, rho),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(1.0)),
        )

    def test_potential_sampled_at_nodes(self):
        model = self.single_well_model()
        cm = m.sample_couplings(model, seed=0)
        op = sp.discretize(model, cm, box=10.0, h=0.5)
        nodes = op.node_coordinates()[:, 0]
        inside = np.abs(nodes) <= 1.0
        assert np.all(op.potential[inside] == -3.0)
        assert np.all(op.potential[~inside] == 0.0)

    def test_window_guard(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 5.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        cm = m.sample_couplings(model, seed=1)
        with pytest.raises(ValueError):
            sp.discretize(model, cm, box=20.0, h=0.5)

    @pytest.mark.parametrize("box,nodes", [(0.12, 1), (0.16, 2)])
    def test_fewer_than_three_nodes_refused(self, box, nodes):
        model = self.single_well_model()
        cm = m.sample_couplings(model, seed=0)
        with pytest.raises(ValueError, match=f"has {nodes} grid nodes per side, fewer than 3"):
            sp.discretize(model, cm, box=box, h=0.1)
        assert sp.discretize(model, cm, box=0.2, h=0.1).shape == (3,)

    def test_deep_well_single_bound_state(self):
        op = sp.GridOperator.free(1, 100, 1.0)
        op.potential[50] = -10.0
        op._matrix_cache = None
        vals = op.all_eigenvalues()
        assert np.count_nonzero(vals < 0.0) == 1


class TestDenseLimit:
    def test_require_dense_at_the_limit(self):
        sp.require_dense(sp.DENSE_LIMIT)
        with pytest.raises(ValueError, match="3001 unknowns exceed the dense limit 3000"):
            sp.require_dense(sp.DENSE_LIMIT + 1)

    def test_all_eigenvalues_refuses_above_the_limit(self):
        with pytest.raises(ValueError, match="3001 unknowns exceed the dense limit 3000"):
            sp.GridOperator.free(1, 3001).all_eigenvalues()

    def test_discretize_accepts_a_grid_above_the_limit(self):
        # discretize builds such a grid; every spectral query on it refuses with one message
        model = TestDiscretize().single_well_model()
        op = sp.discretize(model, m.sample_couplings(model, seed=0), box=12.0, h=0.007)
        assert op.n_unknowns == 3428 > sp.DENSE_LIMIT
        message = "3428 unknowns exceed the dense limit 3000"
        with pytest.raises(ValueError, match=message):
            sp.eigenpairs(op)
        with pytest.raises(ValueError, match=message):
            sp.resolvent_decay(op, -5.0)


class TestGridDimension:
    @pytest.mark.parametrize("d", [0, 3])
    def test_operator_refuses(self, d):
        message = f"grid operators support d in {{1, 2}}, not d={d}"
        with pytest.raises(ValueError, match=message):
            sp.require_grid_dimension(d)
        with pytest.raises(ValueError, match=message):
            sp.GridOperator.free(d, 5)

    def test_discretize_refuses_d3(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(3, 4.0),
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        with pytest.raises(ValueError, match="grid operators support d in {1, 2}, not d=3"):
            sp.discretize(model, m.sample_couplings(model, seed=0), box=1.0, h=0.5)


class TestEigenpairs:
    def test_free_chain_closed_form(self):
        op = sp.GridOperator.free(1, 100, 1.0)
        result = sp.eigenpairs(op)
        want = np.sort(free_chain_eigenvalues(100))
        assert np.max(np.abs(np.sort(result.eigenvalues) - want)) < 1e-10
        assert result.residual_ok
        assert result.orthonormality_defect < 1e-8
        assert result.method == "dense"


class TestSpectrumGaps:
    def test_free_chain_principal_gap(self):
        op = sp.GridOperator.free(1, 200, 1.0)
        gaps = sp.spectrum_gaps(op, resolution=0.5)
        lo, hi = gaps[0]
        assert lo == -math.inf
        assert hi == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 201.0), abs=1e-12)

    def test_dimer_band_gap(self):
        # alternating 0/3 potential: Bloch bands [1,2] and [5,6], gap (2,5)
        n = 400
        op = sp.GridOperator.free(1, n, 1.0)
        op.potential = np.where(np.arange(n) % 2 == 0, 0.0, 3.0)
        op._matrix_cache = None
        gaps = sp.spectrum_gaps(op, resolution=0.5)
        interior = [g for g in gaps if math.isfinite(g[0])]
        assert len(interior) == 1
        lo, hi = interior[0]
        assert 1.9 < lo < 2.1
        assert 4.9 < hi < 5.1

    def test_constant_shift_moves_principal_gap(self):
        free = sp.GridOperator.free(1, 100, 1.0)
        op = sp.GridOperator(1, free.shape, 1.0, free.origin, np.full(100, 5.0))
        gaps = sp.spectrum_gaps(op, resolution=0.5)
        assert gaps[0][1] == pytest.approx(5.0, abs=0.01)


class TestIPR:
    def test_uniform_vector(self):
        v = np.full(4, 0.5)
        assert sp.ipr(v) == pytest.approx(0.25)

    def test_delta_vector(self):
        v = np.zeros(10)
        v[3] = 1.0
        assert sp.ipr(v) == 1.0

    def test_two_weights(self):
        v = np.array([math.sqrt(0.8), math.sqrt(0.2)])
        assert sp.ipr(v) == pytest.approx(0.68)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            sp.ipr(np.array([1.0, 1.0]))

    def test_matrix_rows_equal_vector_ipr(self):
        rows = np.ascontiguousarray(sp.eigenpairs(sp.GridOperator.free(2, (5, 7), 0.5)).eigenvectors.T)
        got = sp.ipr(rows)
        assert isinstance(got, np.ndarray) and got.shape == (35,)
        assert got.tolist() == [sp.ipr(row) for row in rows]

    def test_matrix_rejects_one_unnormalized_row(self):
        rows = np.eye(4)
        rows[2] *= 1.5
        with pytest.raises(ValueError, match="vector norm 1.5 is not 1 within 1e-10"):
            sp.ipr(rows)


class TestDecayRateFit:
    def test_exact_exponential(self):
        j = np.arange(201)
        v = np.exp(-np.abs(j - 100.0))
        fit = sp.decay_rate_fit(v, 100)
        assert fit.rate == pytest.approx(1.0, abs=1e-9)
        assert fit.quality > 0.999999

    def test_rate_two(self):
        j = np.arange(101)
        v = np.exp(-2.0 * np.abs(j - 50.0))
        fit = sp.decay_rate_fit(v, 50)
        assert fit.rate == pytest.approx(2.0, abs=1e-9)

    def test_uniform_vector_rate_zero(self):
        fit = sp.decay_rate_fit(np.full(50, 0.1), 25)
        assert abs(fit.rate) < 1e-12

    def test_all_below_floor_rejected(self):
        with pytest.raises(ValueError):
            sp.decay_rate_fit(np.full(50, 1e-15), 25)

    @pytest.mark.parametrize("center", [-1, 50])
    def test_centre_off_the_grid_rejected(self, center):
        with pytest.raises(ValueError):
            sp.decay_rate_fit(np.full(50, 0.1), center)

    def test_spacing_scales_rate(self):
        j = np.arange(201)
        v = np.exp(-np.abs(j - 100.0))
        fit = sp.decay_rate_fit(v, 100, spacing=0.5)
        assert fit.rate == pytest.approx(2.0, abs=1e-9)


def polyfit_loglinear(x, y):
    """The log-linear fit as np.polyfit computes it: the bit-level oracle."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), quality


def masked_decay_fit(v, center, spacing=1.0, shape=None, side="both"):
    """decay_rate_fit as masks over the whole vector and np.polyfit."""
    if shape is None:
        signed = (np.arange(v.size) - center) * spacing
        dist = np.abs(signed)
        keep = {"left": signed <= 0, "right": signed >= 0, "both": np.ones(v.size, bool)}[side]
    else:
        idx = np.array(np.unravel_index(np.arange(v.size), shape)).T
        dist = np.linalg.norm(idx - np.array(np.unravel_index(center, shape)), axis=1) * spacing
        keep = np.ones(v.size, dtype=bool)
    mask = keep & (np.abs(v) > sp.AMPLITUDE_FLOOR)
    rate, quality = polyfit_loglinear(dist[mask], np.log(np.abs(v[mask])))
    return rate, quality, int(np.count_nonzero(mask))


def one_fit(x, y):
    """_loglinear_fits on one segment."""
    rate, quality = sp._loglinear_fits(x, y, [x.size])
    return float(rate[0]), float(quality[0])


class TestLoglinearFitBits:
    """_loglinear_fits takes np.polyfit's own steps per segment, so it is bit-equal to it."""

    @given(
        n=st.integers(3, 3000),
        seed=st.integers(0, 2**32 - 1),
        spacing=st.floats(1e-3, 10.0),
        start=st.floats(-50.0, 50.0),
        kind=st.sampled_from(["noisy line", "random", "constant"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_polyfit(self, n, seed, spacing, start, kind):
        rng = np.random.default_rng(seed)
        x = start + spacing * np.sort(rng.uniform(0.0, n, n))
        if kind == "noisy line":
            y = rng.normal(0.0, 5.0) * x + rng.normal(0.0, 1.0, n)
        elif kind == "random":
            y = rng.normal(0.0, 10.0, n)
        else:  # a dyadic value: its mean is exact, so ss_tot = 0
            y = np.full(n, rng.integers(-8, 8) / 4.0)
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = one_fit(x, y)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            want = polyfit_loglinear(x, y)
        assert got == want
        assert [w.category for w in ours] == [w.category for w in theirs]
        if kind == "constant":
            assert got[1] == 0.0

    @given(
        sizes=st.lists(st.integers(3, 300), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_segments_equal_polyfit_each(self, sizes, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.sort(rng.uniform(0.0, 3.0 * n, n)) for n in sizes])
        y = rng.normal(0.0, 2.0) * x + rng.normal(0.0, 1.0, x.size)
        rates, qualities = sp._loglinear_fits(x, y, sizes)
        ends = np.cumsum(sizes)
        for k, (a, b) in enumerate(zip(ends - sizes, ends)):
            assert (rates[k], qualities[k]) == polyfit_loglinear(x[a:b], y[a:b])

    def test_constant_y_quality_zero(self):
        x = np.arange(40) * 0.05
        y = np.full(40, -1.25)
        got = one_fit(x, y)
        assert got == polyfit_loglinear(x, y)
        assert got[1] == 0.0

    def test_rank_deficient_warns_like_polyfit(self):
        x = np.full(5, 2.5)
        y = np.array([0.1, -0.3, 0.2, 0.0, 0.4])
        with pytest.warns(np.exceptions.RankWarning):
            got = one_fit(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            assert got == polyfit_loglinear(x, y)

    def test_full_rank_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_fit(np.arange(3.0), np.array([1.0, 0.5, 0.1]))


class TestResolventDecay:
    def test_lattice_green_function_rate(self):
        # 1-D lattice Green function decays at arccosh(1 + |E|/2)
        op = sp.GridOperator.free(1, 100, 1.0)
        fit = sp.resolvent_decay(op, -2.0)
        assert fit.rate == pytest.approx(math.acosh(2.0), rel=0.10)

    def test_rate_at_half(self):
        op = sp.GridOperator.free(1, 100, 1.0)
        fit = sp.resolvent_decay(op, -0.5)
        assert fit.rate == pytest.approx(math.acosh(1.25), rel=0.10)
        assert fit.rate == pytest.approx(math.log(2.0), rel=0.10)

    def test_monotone_in_gap_depth(self):
        op = sp.GridOperator.free(1, 100, 1.0)
        fits = [sp.resolvent_decay(op, e) for e in (-1.0, -2.0, -0.5)]
        by_distance = sorted(fits, key=lambda f: f.spectrum_distance)
        assert [f.energy for f in by_distance] == [-0.5, -1.0, -2.0]
        assert by_distance[0].rate < by_distance[1].rate < by_distance[2].rate

    def test_refuses_energy_in_spectrum(self):
        op = sp.GridOperator.free(1, 100, 1.0)
        e0 = float(np.sort(op.all_eigenvalues())[0])
        with pytest.raises(ValueError):
            sp.resolvent_decay(op, e0)


class TestLocalizationReportBits:
    """Every report state equals the per-state path bit for bit: decay_rate_fit
    on the better side (d=1) or all nodes (d=2), and ipr."""

    @staticmethod
    def model(d, radius, background):
        return m.RandomPotentialModel(
            sites=m.SiteSet.lattice(d, radius),
            potential=m.SingleSitePotential.indicator(-4.0, 0.5 if d == 1 else 0.7),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform(0.0, 1.0)),
            background=background,
        )

    @staticmethod
    def oracle_state(v, op, shape):
        center = int(np.argmax(np.abs(v)))
        sides = ("left", "right") if op.dimension == 1 else ("both",)
        best = None
        for side in sides:
            try:
                fit = sp.decay_rate_fit(v, center, spacing=op.spacing, shape=shape, side=side)
            except ValueError:
                continue
            assert (fit.rate, fit.quality, fit.n_points) == masked_decay_fit(
                v, center, op.spacing, shape, side
            )
            if best is None or fit.quality > best[1]:
                best = (fit.rate, fit.quality)
        rate, quality = best if best is not None else (math.nan, 0.0)
        return sp.ipr(v), rate, quality, center

    @pytest.mark.parametrize(
        "d, radius, box, h, background",
        [
            (1, 30.0, 12.0, 0.1, m.BackgroundPotential.periodic_step([0.0, 3.0])),
            (2, 12.0, 3.0, 0.25, m.BackgroundPotential.constant(1.0)),
        ],
    )
    def test_states_equal_per_state_oracle(self, d, radius, box, h, background):
        model = self.model(d, radius, background)
        cm = m.sample_couplings(model, seed=4, window=radius)
        zero = m.CouplingMap(
            model, cm.site_indices, np.zeros(cm.values.size), None, radius, "zero"
        )
        reference = sp.discretize(model, zero, box, h)
        report = sp.localization_report(model, cm, box, h, reference)
        op = sp.discretize(model, cm, box, h)
        result = sp.eigenpairs(op)
        assert len(report.states) == op.n_unknowns
        shape = op.shape if d == 2 else None
        for state, energy, v in zip(report.states, result.eigenvalues, result.eigenvectors.T):
            assert state.energy == float(energy)
            got = (state.ipr, state.decay_rate, state.decay_quality, state.center)
            want = self.oracle_state(v, op, shape)
            assert got == want or (math.isnan(got[1]) and math.isnan(want[1]))
        assert any(s.in_gap for s in report.states)

    @pytest.mark.parametrize("site, amplitude", [(-9.0, -5.0), (9.0, -5.0), (0.0, -1e8)])
    def test_edge_states_equal_per_state_oracle(self, site, amplitude):
        """A well at the first or last node centres the ground state there; a
        very deep one leaves fewer than three nodes above the floor on each side."""
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[site]]),
            potential=m.SingleSitePotential.indicator(amplitude, 0.3),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(1.0)),
        )
        cm = m.sample_couplings(model, seed=0)
        h, box = 1.0, 10.0
        free = sp.GridOperator.free(1, sp.grid_side(box, h), h)
        report = sp.localization_report(model, cm, box, h, free)
        op = sp.discretize(model, cm, box, h)
        result = sp.eigenpairs(op)
        for state, v in zip(report.states, result.eigenvectors.T):
            got = (state.ipr, state.decay_rate, state.decay_quality, state.center)
            want = self.oracle_state(v, op, None)
            assert got == want or (math.isnan(got[1]) and math.isnan(want[1]) and got[2:] == want[2:])
        ground = min(report.states, key=lambda s: s.energy)
        assert ground.in_gap
        if amplitude == -1e8:
            assert math.isnan(ground.decay_rate) and ground.decay_quality == 0.0
        else:
            assert ground.center == (0 if site < 0 else op.n_unknowns - 1)
            assert not math.isnan(ground.decay_rate)


def side_oracle(amp, center, spacing, shape, side):
    """(rate, quality, points) of one state and side: masked_decay_fit, or (NaN, 0, points)
    below three points above the floor."""
    keep = amp > sp.AMPLITUDE_FLOOR
    if side != "both":
        j = np.arange(amp.size)
        keep &= (j <= center) if side == "left" else (j >= center)
    points = int(np.count_nonzero(keep))
    if points < 3:
        return math.nan, 0.0, points
    return masked_decay_fit(amp, center, spacing, shape if len(shape) > 1 else None, side)


def assert_fits_equal_oracle(amp, centers, shape, spacing, sides):
    got = sp._decay_fits(amp, centers, shape, spacing, sides)
    for s, (a, c) in enumerate(zip(amp, centers)):
        for k, side in enumerate(sides):
            want = side_oracle(a, c, spacing, shape, side)
            fit = (got[0][s, k], got[1][s, k], got[2][s, k])
            assert fit == want or (math.isnan(fit[0]) and math.isnan(want[0]) and fit[1:] == want[1:])
    return got


class TestDecayFitsEdges:
    """The batched decay fits at the edges: short sides, states under the floor,
    rank-deficient fits, d=2 grids and several blocks, each against np.polyfit."""

    @staticmethod
    def states(shape, centers, rates, floor_share, seed):
        rng = np.random.default_rng(seed)
        idx = np.array(np.unravel_index(np.arange(int(np.prod(shape))), shape)).T
        rows = []
        for c, rate in zip(centers, rates):
            dist = np.linalg.norm(idx - idx[c], axis=1)
            amp = np.exp(-rate * dist) * rng.uniform(0.5, 1.5, dist.size)
            amp[rng.random(dist.size) < floor_share] = 1e-13
            amp[c] = 2.0
            rows.append(amp)
        return np.array(rows)

    def test_centre_at_either_end(self):
        n = 40
        amp = self.states((n,), [0, n - 1, 1, n - 2, 17], [0.3, 0.4, 0.2, 0.5, 0.3], 0.0, 1)
        rate, quality, points = assert_fits_equal_oracle(
            amp, np.array([0, n - 1, 1, n - 2, 17]), (n,), 0.1, ("left", "right"))
        assert points[0, 0] == points[1, 1] == 1 and points[2, 0] == points[3, 1] == 2
        assert np.isnan(rate[:4]).sum() == 4 and np.all(quality[[0, 1, 2, 3], [0, 1, 0, 1]] == 0.0)
        with pytest.raises(ValueError):
            sp.decay_rate_fit(amp[0], 0, spacing=0.1, side="left")
        fit = sp.decay_rate_fit(amp[0], 0, spacing=0.1, side="right")
        assert (fit.rate, fit.quality, fit.n_points) == masked_decay_fit(amp[0], 0, 0.1, None, "right")

    def test_state_nearly_all_below_floor(self):
        amp = np.full((3, 30), 1e-13)
        amp[0, [4, 5]] = [1.0, 0.5]  # two points: no fit on any side
        amp[1, [4, 5, 6]] = [1.0, 0.5, 0.2]  # three on the right, two on the left
        amp[2, 4] = 1.0
        rate, quality, points = assert_fits_equal_oracle(
            amp, np.array([4, 4, 4]), (30,), 0.5, ("left", "right", "both"))
        assert np.isnan(rate[0]).all() and (quality[0] == 0.0).all()
        assert points.tolist() == [[1, 2, 2], [1, 3, 3], [1, 1, 1]]
        assert not np.isnan(rate[1, 1]) and np.isnan(rate[1, 0])

    def test_rank_deficient_warns_as_polyfit(self):
        shape = (7, 7)
        amp = self.states(shape, [24, 24, 10, 24], [0.5, 0.5, 0.5, 0.5], 0.0, 2)
        # rows 0 and 3: only the four nodes at distance 1 from the centre stay above the floor
        for s in (0, 3):
            amp[s] = 1e-13
            amp[s, [17, 23, 25, 31]] = [0.5, 0.4, 0.3, 0.2]
        centers = np.array([24, 24, 10, 24])
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            sp._decay_fits(amp, centers, shape, 0.25, ("both",))
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            for a, c in zip(amp, centers):
                masked_decay_fit(a, c, 0.25, shape, "both")
        assert [w.category for w in ours] == [w.category for w in theirs]
        assert [w.category for w in ours] == [np.exceptions.RankWarning] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            assert_fits_equal_oracle(amp, centers, shape, 0.25, ("both",))
            fit = sp.decay_rate_fit(amp[0], 24, spacing=0.25, shape=shape)
            assert (fit.rate, fit.quality, fit.n_points) == masked_decay_fit(amp[0], 24, 0.25, shape)
        with pytest.warns(np.exceptions.RankWarning):
            sp.decay_rate_fit(amp[0], 24, spacing=0.25, shape=shape)

    @pytest.mark.parametrize("shape", [(9, 13), (25,)])
    def test_grid_states_in_several_blocks(self, shape, monkeypatch):
        n = int(np.prod(shape))
        rng = np.random.default_rng(3)
        centers = rng.integers(0, n, 23)
        amp = self.states(shape, centers, rng.uniform(0.05, 2.0, 23), 0.2, 4)
        sides = ("both",) if len(shape) > 1 else ("left", "right", "both")
        whole = assert_fits_equal_oracle(amp, centers, shape, 0.3, sides)
        monkeypatch.setattr(sp, "_FIT_BLOCK", 4 * n)  # four states per block
        blocked = sp._decay_fits(amp, centers, shape, 0.3, sides)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want, equal_nan=True)


class TestLocalizationReport:
    def single_well(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.explicit([[0.0]]),
            potential=m.SingleSitePotential.indicator(-3.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.delta(1.0)),
        )
        return model, m.sample_couplings(model, seed=0)

    def test_single_well_cross_check(self):
        model, cm = self.single_well()
        h, box = 0.25, 25.0
        n_side = sp.grid_side(box, h)
        free = sp.GridOperator.free(1, n_side, h)
        report = sp.localization_report(model, cm, box, h, free)
        gap_states = [s for s in report.states if s.in_gap]
        assert len(gap_states) >= 1
        assert all(s.energy < 0 for s in gap_states)
        # the two decay estimators agree within 15 percent
        assert report.resolvent_checks
        for energy, state_rate, resolvent_rate in report.resolvent_checks:
            assert state_rate == pytest.approx(resolvent_rate, rel=0.15)
            assert state_rate >= 0.5 * resolvent_rate

    def test_residual_beyond_the_bound_raises(self, monkeypatch):
        import scipy.linalg
        eigh = scipy.linalg.eigh

        def perturbed_eigh(a):
            vals, vecs = eigh(a)
            t = 1e-3  # turn the ground state towards the next one: still unit, no longer an eigenvector
            vecs[:, 0] = math.cos(t) * vecs[:, 0] + math.sin(t) * vecs[:, 1]
            return vals, vecs

        model, cm = self.single_well()
        h, box = 0.5, 15.0
        free = sp.GridOperator.free(1, sp.grid_side(box, h), h)
        monkeypatch.setattr(scipy.linalg, "eigh", perturbed_eigh)
        with pytest.raises(ValueError, match=r"eigenpair residual \S+ exceeds 1e-8 times the norm bound"):
            sp.localization_report(model, cm, box, h, free)

    def test_zero_couplings_no_gap_states(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 30.0),
            potential=m.SingleSitePotential.indicator(-3.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.0)),
        )
        cm = m.sample_couplings(model, seed=0)
        h, box = 0.5, 20.0
        n_side = sp.grid_side(box, h)
        free = sp.GridOperator.free(1, n_side, h)
        report = sp.localization_report(model, cm, box, h, free)
        assert report.verdict == "no-gap-states"

    def test_csv_export(self, tmp_path):
        model, cm = self.single_well()
        h, box = 0.5, 15.0
        n_side = sp.grid_side(box, h)
        free = sp.GridOperator.free(1, n_side, h)
        report = sp.localization_report(model, cm, box, h, free)
        cli.run({
            "pipeline": "spectral-probe",
            "model": {
                "dimension": 1,
                "sites": {"generator": "explicit", "points": [[0.0]]},
                "law": {"kind": "point_masses", "atoms": [[1.0, 1.0]]},
                "potential": {"kind": "indicator", "amplitude": -3.0, "radius": 1.0},
            },
            "seeds": [0],
            "output_dir": str(tmp_path),
            "parameters": {"eps": 0.5, "box": box, "h": h},
        })
        lines = (tmp_path / "states.csv").read_text().splitlines()
        assert lines[0] == "seed,energy,ipr,decay_rate,decay_quality,center,in_gap"
        assert len(lines) == 1 + len(report.states)
