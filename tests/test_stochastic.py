"""MC estimators against exact enumeration oracles and closed-form bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from sparseloc import _rng, cli
from sparseloc import models as m
from sparseloc import stochastic as st
from sparseloc.geometry import make_annulus

from oracles import coverage_sweep, free_intervals


def within(rec, target, n_sigma=3.0):
    """The estimate lies within n_sigma standard errors of the target."""
    return abs(rec.value - target) <= n_sigma * rec.std_error


def bernoulli_lattice(d=1, radius=16.0, p=0.5):
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(d, radius),
        potential=m.SingleSitePotential.indicator(1.0, 1.0),
        laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(p)),
    )


def lemma_mc_d1_model():
    """The lemma-mc benchmark model: d=1 lattice, radial Bernoulli tau=0.5."""
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(1, 64.0),
        potential=m.SingleSitePotential.indicator(1.0, 1.0),
        laws=m.LawAssignment.radial_bernoulli(0.5),
    )


def atom_at_eps_lattice():
    """d=1 lattice whose couplings are 0 or 0.5 with equal weight: at eps = 0.5
    every bad coupling sits exactly on eps."""
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(1, 16.0),
        potential=m.SingleSitePotential.indicator(1.0, 1.0),
        laws=m.LawAssignment.shared_law(m.CouplingLaw.point_masses({0.0: 0.5, 0.5: 0.5})),
    )


def enumerate_a_n_oracle(norms, probs, lo, hi, width, grid=2001):
    """Independent exact a_n: every pattern, dense-grid free scan."""
    total = 0.0
    rs = np.linspace(lo, hi, grid)
    for pattern in itertools.product([0, 1], repeat=len(norms)):
        weight = 1.0
        for bit, p in zip(pattern, probs):
            weight *= p if bit else (1.0 - p)
        bad = [v for bit, v in zip(pattern, norms) if bit]
        free = np.ones(grid, dtype=bool)
        for v in bad:
            free &= ~((rs >= v - width) & (rs <= v))
        if not free.any():
            total += weight
    return total


class TestFreeProbability:
    def test_exact_product_ten_sites(self):
        model = bernoulli_lattice(d=1, radius=16.0, p=0.1)
        annulus = make_annulus(4.0, 8.0, 1)  # sites +-4..+-8: ten of them
        rec = st.estimate_free_probability(model, annulus, 0.5, trials=10_000, seed=42)
        assert rec.exact == pytest.approx(0.9**10, rel=1e-12)
        assert within(rec, rec.exact)

    def test_coupling_at_eps_is_bad(self):
        # p_eps = mu([eps, 1]) = 1/2 counts the atom at eps, for ten sites
        annulus = make_annulus(4.0, 8.0, 1)
        rec = st.estimate_free_probability(atom_at_eps_lattice(), annulus, 0.5, 20_000, seed=42)
        assert rec.exact == 0.5**10
        assert within(rec, rec.exact)

    def test_p_zero_gives_one(self):
        model = bernoulli_lattice(p=0.0)
        rec = st.estimate_free_probability(model, make_annulus(2.0, 9.0, 1), 0.5, 200, 1)
        assert rec.value == 1.0
        assert rec.exact == 1.0

    def test_p_one_gives_zero(self):
        model = bernoulli_lattice(p=1.0)
        rec = st.estimate_free_probability(model, make_annulus(2.0, 9.0, 1), 0.5, 200, 1)
        assert rec.value == 0.0
        assert rec.exact == 0.0

    def test_zero_trials_rejected(self):
        model = bernoulli_lattice()
        with pytest.raises(ValueError):
            st.estimate_free_probability(model, make_annulus(2.0, 4.0, 1), 0.5, 0, 1)

    def test_uniform_law_matches_product(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 12.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        annulus = make_annulus(3.0, 8.0, 1)
        rec = st.estimate_free_probability(model, annulus, 0.7, trials=20_000, seed=5)
        n_sites = len(model.sites.indices_in(annulus))
        assert rec.exact == pytest.approx(0.7**n_sites)
        assert within(rec, rec.exact)

    def test_calibration_over_100_seeds(self):
        # |estimate - exact| <= 3 SE in at least 99 of 100 seeded repetitions
        model = bernoulli_lattice(d=1, radius=16.0, p=0.1)
        annulus = make_annulus(4.0, 8.0, 1)
        exact = 0.9**10
        hits = 0
        for seed in range(100):
            rec = st.estimate_free_probability(model, annulus, 0.5, trials=10_000, seed=seed)
            se = math.sqrt(exact * (1.0 - exact) / rec.trials)
            if abs(rec.value - exact) <= 3.0 * se:
                hits += 1
        assert hits >= 99


def blocked_by_free_intervals(norms, active, lo, hi, width):
    return [not free_intervals(norms[active[:, t]], lo, hi, width) for t in range(active.shape[1])]


def packed_sweep(norms, active, lo, hi, width):
    """The packed kernel on a sites x columns boolean matrix, unpacked per column."""
    bits = np.packbits(active, axis=1, bitorder="little")
    got = st._coverage_sweep(norms, bits, lo, hi, width)
    assert got.dtype == np.uint8 and got.shape == (bits.shape[1],)
    columns = np.unpackbits(got, count=active.shape[1], bitorder="little")
    # the zero pad bits of the last byte are never blocked
    assert np.bitwise_count(got).sum() == np.count_nonzero(columns)
    return columns.astype(bool)


def check_sweep(norms, active, lo, hi, width):
    """The packed kernel agrees with the float sweep and with free_intervals."""
    got = packed_sweep(norms, active, lo, hi, width)
    assert got.tolist() == coverage_sweep(norms, active, lo, hi, width).tolist()
    assert got.tolist() == blocked_by_free_intervals(norms, active, lo, hi, width)
    return got


# multiples of 1/2: blockers touch, and norms land on lo and hi + width
halves = hs.integers(0, 24).map(lambda k: k / 2.0)


class TestCoverageSweep:
    @settings(max_examples=400, deadline=None)
    @given(
        norms=hs.lists(halves, max_size=12),
        lo=halves,
        span=hs.integers(0, 8).map(lambda k: k / 2.0),
        width=hs.integers(0, 8).map(lambda k: k / 2.0),
        n_cols=hs.integers(0, 70),
        data=hs.data(),
    )
    def test_matches_free_intervals(self, norms, lo, span, width, n_cols, data):
        norms = np.sort(np.array(norms, dtype=float))
        active = data.draw(hnp.arrays(bool, (norms.size, n_cols)))
        check_sweep(norms, active, lo, lo + span, width)

    @pytest.mark.parametrize("width", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("n_cols", [0, 1, 7, 8, 9, 63, 64, 65, 70])
    def test_column_counts(self, n_cols, width):
        # duplicate norms, as for the +-x sites in d=1, around a window [4, 7]
        norms = np.repeat([3.0, 4.0, 5.0, 5.5, 6.0, 7.0, 9.0], 2)
        active = np.random.default_rng(n_cols).random((norms.size, n_cols)) < 0.6
        check_sweep(norms, active, 4.0, 7.0, width)

    @pytest.mark.parametrize(
        "norms, lo, hi, columns, want",
        [
            # blockers [3, 5] and [5, 7] touch and cover [4, 7]; [3, 5] and [7, 9] leave a gap
            ([5.0, 7.0, 9.0], 4.0, 7.0, [[1, 1, 0], [1, 0, 1], [0, 1, 1]], [True, False, False]),
            # norms at lo (3) and at hi + width (6): [1, 3] and [4, 6] leave a gap
            ([3.0, 4.0, 6.0], 3.0, 4.0, [[1, 0, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]],
             [False, True, False, False]),
            # duplicate norms, as for the +-x sites in d=1
            ([4.0, 4.0, 6.0, 6.0], 4.0, 6.0, [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]],
             [True, True, False]),
            # hi == lo, covered by a norm at lo or at hi + width; an all-inactive column
            ([3.0, 5.0], 3.0, 3.0, [[1, 0], [0, 1], [0, 0]], [True, True, False]),
            # zero columns
            ([4.0, 5.0], 4.0, 5.0, [], []),
        ],
    )
    def test_edge_cases(self, norms, lo, hi, columns, want):
        norms = np.array(norms)
        active = np.array(columns, dtype=bool).reshape(-1, norms.size).T
        assert check_sweep(norms, active, lo, hi, 2.0).tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lemma_mc_trials_match_free_intervals(self, n):
        model = lemma_mc_d1_model()
        eps, a, trials, seed = 0.5, 2.0, 400, 11
        lo, hi = a**n, a ** (n + 1) - n
        indices = st._relevant_site_indices(model, a, n)
        indices = indices[np.argsort(model.sites.norms[indices], kind="stable")]
        norms = model.sites.norms[indices]
        u = _rng.site_uniforms(seed, indices, trials)
        bad = model.laws.transform(model.sites.points[indices], indices, u) >= eps
        got = check_sweep(norms, bad, lo, hi, float(n))
        rec = st.estimate_a_n(model, eps, a, n, trials, seed)
        assert rec.value == np.count_nonzero(got) / trials


class TestBruteForceAN:
    def test_all_p_zero(self):
        model = bernoulli_lattice(p=0.0)
        assert st.brute_force_a_n(model, 0.5, a=2.0, n=2) == 0.0

    def test_all_p_one_dense(self):
        # integer sites block every width-2 annulus in [4, 6]
        model = bernoulli_lattice(p=1.0)
        assert st.brute_force_a_n(model, 0.5, a=2.0, n=2) == 1.0

    def test_matches_independent_enumeration(self):
        model = bernoulli_lattice(d=1, radius=16.0, p=0.5)
        got = st.brute_force_a_n(model, 0.5, a=2.0, n=2)
        norms = [4.0, 4.0, 5.0, 5.0, 6.0, 6.0, 7.0, 7.0, 8.0, 8.0]
        want = enumerate_a_n_oracle(norms, [0.5] * 10, 4.0, 6.0, 2.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 < got < 1.0

    @staticmethod
    def check_explicit_sites(probs):
        sites = [[4.0], [-5.0], [5.5], [6.0], [-7.0], [8.0]]
        laws = [m.CouplingLaw.bernoulli(p) for p in probs]
        site_set = m.SiteSet.explicit(sites)
        law_by_site = {tuple(s): l for s, l in zip(sites, laws)}
        per_site = [law_by_site[tuple(p)] for p in site_set.points.tolist()]
        model = m.RandomPotentialModel(
            sites=site_set,
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.per_site_laws(per_site),
        )
        got = st.brute_force_a_n(model, 0.5, a=2.0, n=2)
        norms = [abs(s[0]) for s in site_set.points.tolist()]
        probs = [l.tail_mass(0.5) for l in per_site]
        want = enumerate_a_n_oracle(norms, probs, 4.0, 6.0, 2.0)
        assert got == pytest.approx(want, abs=1e-12)
        return got

    def test_matches_enumeration_uneven_probs(self):
        self.check_explicit_sites([0.2, 0.5, 0.9, 0.3, 0.6, 0.05])

    def test_matches_enumeration_with_always_bad_sites(self):
        # p = 1 sites become all-ones rows between the undecided ones; p = 0 drop out
        got = self.check_explicit_sites([1.0, 0.5, 0.9, 0.0, 0.6, 1.0])
        assert 0.0 < got < 1.0

    def test_pattern_blocks(self, monkeypatch):
        # m = 18 undecided sites: 2^18 patterns in one packed sweep.  Blocks of
        # 13 draws pack into 2 bytes each, 52 blocks fill a packed block, and
        # 2000 trials take three full packed blocks and a partial one.
        model = lemma_mc_d1_model()
        assert st.brute_force_a_n(model, 0.5, a=2.0, n=3) == 0.6247075422930087
        rec = st.estimate_a_n(model, 0.5, 2.0, 3, 2000, 5)
        monkeypatch.setattr(st, "_TRIAL_BATCH", 13)
        monkeypatch.setattr(st, "_BLOCK_DRAWS", 1)
        assert st.brute_force_a_n(model, 0.5, a=2.0, n=3) == 0.6247075422930087
        assert st.estimate_a_n(model, 0.5, 2.0, 3, 2000, 5) == rec

    @pytest.mark.parametrize("probs", [
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],  # m = 0: one pattern, the always-bad rows alone
        [1.0, 0.0, 0.3, 0.0, 1.0, 0.0],  # m = 1
        [1.0, 0.4, 0.3, 0.0, 1.0, 1.0],  # m = 2
        [0.2, 0.4, 0.3, 1.0, 0.0, 1.0],  # m = 3: the first full byte of patterns
    ])
    def test_few_undecided_sites(self, probs):
        # 2^m < 8 patterns leave pad bits in the last byte, set in always-bad rows
        self.check_explicit_sites(probs)

    def test_window_guard(self):
        # scale 3 at a=2 needs sites out to radius 16
        assert st.brute_force_a_n(bernoulli_lattice(radius=20.0), 0.5, a=2.0, n=3) == (
            0.93768310546875
        )
        with pytest.raises(m.WindowTooSmallError, match="window radius 10.000"):
            st.brute_force_a_n(bernoulli_lattice(radius=10.0), 0.5, a=2.0, n=3)

    def test_budget(self):
        model = bernoulli_lattice(d=2, radius=40.0, p=0.5)
        with pytest.raises(st.BudgetExceededError):
            st.brute_force_a_n(model, 0.5, a=2.0, n=4)

    def test_p_one_pruning_keeps_budget(self):
        # p = 1 sites are resolved without enumeration
        model = bernoulli_lattice(d=2, radius=40.0, p=1.0)
        assert st.brute_force_a_n(model, 0.5, a=2.0, n=4) == 1.0


class TestEstimateAN:
    def test_mc_matches_brute_force(self):
        model = bernoulli_lattice(d=1, radius=16.0, p=0.5)
        exact = st.brute_force_a_n(model, 0.5, a=2.0, n=2)
        rec = st.estimate_a_n(model, 0.5, a=2.0, n=2, trials=10_000, seed=17)
        assert abs(rec.value - exact) <= 3.0 * rec.std_error

    @pytest.mark.parametrize("model,eps", [
        (atom_at_eps_lattice, 0.5),
        (bernoulli_lattice, 1.0),  # couplings 0 or 1, half of them on eps = 1
    ])
    def test_coupling_at_eps_is_bad(self, model, eps):
        model = model()
        exact = st.brute_force_a_n(model, eps, a=2.0, n=2)
        assert exact == 0.890625
        rec = st.estimate_a_n(model, eps, a=2.0, n=2, trials=20_000, seed=17)
        assert within(rec, exact)

    def test_all_zero_probability(self):
        model = bernoulli_lattice(p=0.0)
        rec = st.estimate_a_n(model, 0.5, a=2.0, n=2, trials=500, seed=3)
        assert rec.value == 0.0

    def test_dense_always_blocked(self):
        model = bernoulli_lattice(p=1.0)
        rec = st.estimate_a_n(model, 0.5, a=2.0, n=2, trials=300, seed=3)
        assert rec.value == 1.0

    def test_degenerate_scale_defined_zero(self):
        model = bernoulli_lattice(d=1, radius=16.0, p=1.0)
        rec = st.estimate_a_n(model, 0.5, a=1.3, n=5, trials=100, seed=0)
        assert rec.value == 0.0
        assert rec.exact == 0.0
        assert rec.std_error == 0.0

    def test_window_guard(self):
        model = bernoulli_lattice(d=1, radius=6.0)
        with pytest.raises(ValueError):
            st.estimate_a_n(model, 0.5, a=2.0, n=3, trials=10, seed=0)

    def test_wide_draws_match_numpy_philox(self):
        # 66 relevant sites at n=5: blocks of 992 trials draw wide, the last 24 narrow
        model = lemma_mc_d1_model()
        eps, a, n, trials, seed = 0.5, 2.0, 5, 3000, 2**63 + 11
        lo, hi = a**n, a ** (n + 1) - n
        indices = st._relevant_site_indices(model, a, n)
        indices = indices[np.argsort(model.sites.norms[indices], kind="stable")]
        u = np.array([
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).random(trials)
            for i in indices
        ])
        bad = model.laws.transform(model.sites.points[indices], indices, u) >= eps
        blocked = blocked_by_free_intervals(model.sites.norms[indices], bad, lo, hi, float(n))
        rec = st.estimate_a_n(model, eps, a, n, trials, seed)
        assert rec.value == sum(blocked) / trials

    def test_monotone_in_p_by_coupling(self):
        # same uniforms drive both models: a_n nonincreasing when p drops
        seeds = [2, 9, 31]
        for seed in seeds:
            lo = st.estimate_a_n(bernoulli_lattice(p=0.3), 0.5, 2.0, 2, 2000, seed)
            hi = st.estimate_a_n(bernoulli_lattice(p=0.7), 0.5, 2.0, 2, 2000, seed)
            assert lo.value <= hi.value + 1e-12


class TestANBound:
    @pytest.mark.parametrize("a, n", [(2.0, 1), (2, 1), (2.0, 5), (3.0, 40), (3, 40), (1.3, 7)])
    def test_best_eta_cached_value_is_the_computed_one(self, a, n):
        for _ in range(2):
            got = st._best_eta(a, n)
            assert type(got[0]) is type(got[1]) is float
            assert got == st._best_eta.__wrapped__(a, n)

    def test_plug_in_n4(self):
        bound, vacuous = st.a_n_bound(2.0, 0.25, 4)
        assert bound == pytest.approx(math.exp(-(0.75**4) * (16.0 / 4.0 - 1.0)), rel=1e-12)
        assert bound == pytest.approx(0.38705, abs=1e-4)
        assert not vacuous

    def test_plug_in_n10(self):
        bound, _ = st.a_n_bound(2.0, 0.25, 10)
        want = math.exp(-(0.75**10) * (2.0**10 / 10.0 - 1.0))
        assert bound == pytest.approx(want, rel=1e-12)
        assert bound == pytest.approx(0.00332, abs=1e-5)

    def test_vacuous_flag(self):
        # n=1, a=1.2: a(a-1)/1 - 1 < 0, bound > 1
        bound, vacuous = st.a_n_bound(1.2, 0.1, 1)
        assert bound >= 1.0
        assert vacuous

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            st.a_n_bound(2.0, 0.6, 4)  # a(1-eta) = 0.8 <= 1
        with pytest.raises(ValueError):
            st.a_n_bound(2.0, 0.0, 4)


class TestQuasi1DThreshold:
    def test_values(self):
        assert st.quasi1d_threshold(0.0, 4.0) == 1.0
        assert st.quasi1d_threshold(0.5, 4.0) == pytest.approx(16.0)
        assert st.quasi1d_threshold(0.5, 1.0) == pytest.approx(2.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            st.quasi1d_threshold(1.0, 2.0)


class TestBorelCantelliReport:
    def test_all_zero_summable(self):
        model = bernoulli_lattice(d=1, radius=70.0, p=0.0)
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 5), trials=200, seed=1)
        assert report.verdict == "summable"
        assert all(r.estimate == 0.0 for r in report.rows)

    def test_dense_lattice_not_summable(self):
        model = bernoulli_lattice(d=1, radius=70.0, p=1.0)
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 5), trials=100, seed=1)
        assert report.verdict == "not-summable"
        assert all(r.estimate == 1.0 for r in report.rows)

    def test_partial_sums_monotone(self):
        model = bernoulli_lattice(d=1, radius=70.0, p=0.4)
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 5), trials=400, seed=7)
        sums = [r.partial_sum for r in report.rows]
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_exact_attached_when_affordable(self):
        model = bernoulli_lattice(d=1, radius=70.0, p=0.5)
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 4), trials=2000, seed=11)
        for row in report.rows:
            if row.exact is not None:
                assert abs(row.estimate - row.exact) <= 4.0 * max(row.std_error, 1e-4)

    def test_exact_enumerated_once_per_model_and_scale(self, monkeypatch):
        enumerate_a_n = st.brute_force_a_n
        calls = []

        def counted(model, eps, a, n):
            calls.append((id(model), n))
            return enumerate_a_n(model, eps, a, n)

        monkeypatch.setattr(st, "brute_force_a_n", counted)
        models = [bernoulli_lattice(d=1, radius=70.0, p=p) for p in (0.3, 0.6)]
        want = {id(mod): [enumerate_a_n(mod, 0.5, 2.0, n) for n in (2, 3)] for mod in models}
        for seed in (1, 2, 3):
            for model in models:
                report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 3), trials=50, seed=seed)
                assert [r.exact for r in report.rows] == want[id(model)]
        assert sorted(calls) == sorted((id(mod), n) for mod in models for n in (2, 3))
        # a fresh model with the same law is enumerated again, to the same value
        again = bernoulli_lattice(d=1, radius=70.0, p=0.3)
        rows = st.borel_cantelli_report(again, 0.5, 2.0, (2, 3), trials=50, seed=1).rows
        assert [r.exact for r in rows] == want[id(models[0])]
        assert len(calls) == 6

    def test_budget_overrun_remembered_as_no_exact(self, monkeypatch):
        enumerate_a_n = st.brute_force_a_n
        calls = []
        monkeypatch.setattr(
            st, "brute_force_a_n", lambda *args: calls.append(args) or enumerate_a_n(*args)
        )
        model = bernoulli_lattice(d=2, radius=40.0, p=0.5)
        for seed in (1, 2):
            report = st.borel_cantelli_report(model, 0.5, 2.0, (4, 4), trials=10, seed=seed)
            assert report.rows[0].exact is None
        assert len(calls) == 1

    def test_csv_shape(self, tmp_path):
        model = bernoulli_lattice(d=1, radius=70.0, p=0.2)
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 4), trials=100, seed=2)
        cli.run({
            "pipeline": "lemma-mc",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 70.0},
                "law": {"kind": "bernoulli", "p": 0.2},
                "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 1.0},
            },
            "seeds": [2],
            "output_dir": str(tmp_path),
            "parameters": {"eps": 0.5, "a": 2.0, "n_range": [2, 4], "trials": 100},
        })
        lines = (tmp_path / "an_rows.csv").read_text().splitlines()
        assert lines[0] == (
            "seed,n,exact,estimate,std_error,bound,eta,vacuous,degenerate,partial_sum"
        )
        assert len(lines) == 1 + len(report.rows)
        degenerate = [line.split(",")[8] for line in lines[1:]]
        assert degenerate == [str(int(r.degenerate)) for r in report.rows]

    def test_free_annulus_success_tends_to_one(self):
        # p_i -> 0: the per-scale success frequency 1 - a_n climbs to 1
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 70.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.radial_bernoulli(1.0),
        )
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 5), trials=400, seed=5)
        success = [1.0 - r.estimate for r in report.rows]
        assert success[-1] >= 0.95
        assert all(b >= a - 0.05 for a, b in zip(success, success[1:]))

    def test_decaying_p_estimates_below_bounds_d2(self):
        # radial Bernoulli p = min(1, |i|^-3): a_n well under the plug-in bound
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(2, 33.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.radial_bernoulli(3.0),
        )
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 4), trials=600, seed=3)
        for row in report.rows:
            assert row.estimate <= row.bound + 3.0 * row.std_error
