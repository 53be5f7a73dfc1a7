"""Free-annulus scans against brute enumeration; certificate verdict logic."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import free_intervals, is_epsilon_free, validate_decomposition
from sparseloc import certify as c
from sparseloc import cli
from sparseloc import geometry as g
from sparseloc import models as m
from sparseloc.geometry import (
    RegionSet,
    TotalDecomposition,
    Sphere,
    make_annulus,
)


def chain_model(radius=20.0, law=None, amplitude=1.0, rho=1.0, d=1):
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(d, radius),
        potential=m.SingleSitePotential.indicator(amplitude, rho),
        laws=m.LawAssignment.shared_law(law or m.CouplingLaw.bernoulli(0.5)),
    )


def explicit_couplings(model, values_by_site):
    """CouplingMap with prescribed values (sites in canonical order)."""
    pts = model.sites.points
    values = np.zeros(len(pts))
    for site, v in values_by_site.items():
        idx = np.where((pts == np.atleast_1d(site)).all(axis=1))[0][0]
        values[idx] = v
    return m.CouplingMap(
        model, np.arange(len(pts)), values, None, model.sites.window_radius
    )


def scan_free_by_brute_force(bad_norms, lo, hi, width, grid=4001):
    """Dense-grid oracle for the free set (up to grid resolution)."""
    rs = np.linspace(lo, hi, grid)
    free = np.ones(grid, dtype=bool)
    for v in bad_norms:
        free &= ~((rs >= v - width) & (rs <= v))
    return rs, free


class TestEpsilonFree:
    def test_all_zero_is_free(self):
        model = chain_model()
        cm = explicit_couplings(model, {})
        assert is_epsilon_free(cm, make_annulus(2.0, 8.0, 1), 0.1)

    def test_inclusive_at_eps(self):
        # the bad set is [eps, 1], the set whose mass is p_eps, so a coupling
        # equal to eps blocks the free event, the scan and the truncation support
        model = chain_model()
        cm = explicit_couplings(model, {(3.0,): 0.1})
        assert not is_epsilon_free(cm, make_annulus(2.0, 8.0, 1), 0.1)
        assert not c.find_free_subannulus(cm, 0.1, a=2.0, n=1).free
        assert c.difference_support(model, cm, 0.1).shapes == (g.Ball((3.0,), 1.0),)

    def test_exceeding_value_blocks(self):
        model = chain_model()
        cm = explicit_couplings(model, {(3.0,): 0.2})
        assert not is_epsilon_free(cm, make_annulus(2.0, 8.0, 1), 0.1)

    def test_window_guard(self):
        model = chain_model(radius=5.0)
        cm = m.sample_couplings(model, seed=0)
        with pytest.raises(m.WindowTooSmallError):
            is_epsilon_free(cm, make_annulus(0.0, 50.0, 1), 0.1)


class TestScaleRule:
    def test_finite_values(self):
        assert c.scale_window(2.0, 3) == (8.0, 13.0, 16.0)
        assert c.scale_window(1.3, 5) == (1.3**5, 1.3**6 - 5, 1.3**5 + 5)
        assert c.growth_ratio(1, 1.0) == (3, 4.0 / 3.0)
        assert c.growth_ratio(0, 5e-324) == (1, 2.0)

    def test_power_beyond_the_float_range_has_infinite_reach(self):
        assert c.scale_window(2.0, 1023) == (2.0**1023, math.inf, math.inf)
        assert c.scale_window(2.0, 1024) == (math.inf, math.inf, math.inf)
        for window in (1e300, math.inf):
            with pytest.raises(m.WindowTooSmallError):
                c.require_scale_window(window, 2.0, 1023)

    def test_growth_ratio_that_rounds_to_one_refused(self):
        # ell = 2^53 - 1 still gives a > 1; ell = 2^53 + 1 gives a = 1
        assert c.growth_ratio(1, 2.0 / (2.0**53 - 2.0)) == (2**53 - 1, 1.0 + 2.0**-52)
        for gamma in (2.0**-52, 1e-17, 5e-324):
            with pytest.raises(ValueError, match="rounds to 1"):
                c.growth_ratio(1, gamma)


def first_free(bad, lo, hi, width):
    return c._first_free(np.asarray(bad, dtype=float), lo, hi, width)


class TestFreeIntervals:
    def test_no_blockers(self):
        assert first_free([], 4.0, 6.0, 2.0) == (4.0, 6.0, 4.0)

    def test_spec_configuration(self):
        # bad norms {4, 5}, width 2: blocked [2,4] u [3,5]; free in [4,6] is (5, 6]
        assert first_free([4.0, 4.0, 5.0], 4.0, 6.0, 2.0) == (5.0, 6.0, 5.5)

    def test_fully_blocked(self):
        assert first_free([5.0, 6.5, 8.0], 4.0, 6.0, 2.5) is None

    def test_open_gap_between_blocks(self):
        # blocked [2,4] u [4.5,6.5]; free (4,4.5) and (6.5,7], the scan stops at the first
        assert first_free([4.0, 6.5], 2.0, 7.0, 2.0) == (4.0, 4.5, 4.25)

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_dense_grid_oracle(self, trial):
        rng = np.random.default_rng(trial)
        bad = np.sort(rng.uniform(3.0, 12.0, rng.integers(0, 8)))
        lo, hi, width = 4.0, 10.0, 1.5
        first = first_free(bad, lo, hi, width)
        rs, free = scan_free_by_brute_force(bad, lo, hi, width)
        # grid points before the piece are blocked and those inside it are free,
        # except possibly at exact block endpoints hit by the grid
        if first is None:
            wrong = np.flatnonzero(free)
        else:
            piece_lo, piece_hi, rep = first
            assert piece_lo <= rep <= piece_hi and not any(v - width <= rep <= v for v in bad)
            before, inside = rs < piece_lo, (rs > piece_lo) & (rs < piece_hi)
            wrong = np.flatnonzero((before & free) | (inside & ~free))
        boundary = set(np.concatenate([bad, bad - width]))
        for idx in wrong:
            assert any(abs(rs[idx] - b) < 1e-9 for b in boundary)


# quarter steps, so that norms repeat and land exactly on lo, hi and hi + width
_QUARTERS = st.integers(0, 48).map(lambda k: k / 4)


@st.composite
def scan_cases(draw):
    lo, hi, width = draw(_QUARTERS), draw(_QUARTERS), draw(_QUARTERS)
    edges = st.sampled_from([lo, hi, hi + width, lo - width])
    norm = st.one_of(edges, _QUARTERS, st.floats(-1.0, 30.0))
    norms = draw(st.lists(norm, max_size=12))
    if norms:  # repeat some norms exactly
        norms += draw(st.lists(st.sampled_from(norms), max_size=4))
    return draw(st.permutations(norms)), lo, hi, width


class TestFreeIntervalsUniqueFirstOracle:
    @given(scan_cases())
    @example(([4.0, 4.0, 5.0, 5.0], 4.0, 6.0, 2.0))  # duplicates
    @example(([4.0, 6.0, 8.0], 4.0, 6.0, 2.0))  # at lo, hi and hi + width
    @example(([8.0, 8.0, 4.0], 4.0, 6.0, 2.0))
    @example(([5.0], 6.0, 4.0, 1.0))  # hi < lo
    @example(([], 4.0, 6.0, 2.0))  # empty
    @example(([], 4.0, 4.0, 0.0))
    @example(([], 4.0, 4.0, 2.0))  # lo == hi, unblocked
    @example(([5.0], 4.0, 4.0, 2.0))  # lo == hi, blocked
    @settings(max_examples=400, deadline=None)
    def test_pieces_equal(self, case):
        """`_first_free` gives the oracle's first piece, bit for bit, and None iff it has none."""
        norms, lo, hi, width = case
        pieces = free_intervals(norms, lo, hi, width)
        first = first_free(norms, lo, hi, width)
        if not pieces:
            assert first is None
        else:
            want = pieces[0]
            assert first is not None
            assert [repr(float(x)) for x in first] == [
                repr(float(x)) for x in (want.lo, want.hi, want.representative)
            ]


class TestFindFreeSubannulus:
    def test_all_zero_returns_first_candidate(self):
        model = chain_model(radius=20.0)
        cm = explicit_couplings(model, {})
        rec = c.find_free_subannulus(cm, 0.1, a=2.0, n=2)
        assert rec.free
        assert rec.inner_radius == 4.0

    def test_dense_blockers_not_found(self):
        model = chain_model(radius=20.0)
        cm = explicit_couplings(model, {(float(k),): 1.0 for k in range(-16, 17)})
        rec = c.find_free_subannulus(cm, 0.1, a=2.0, n=2)
        assert not rec.free

    def test_spec_d1_configuration(self):
        # sites +-4..+-8 bad exactly at +-4, +-5: free interval (5, 6]
        model = chain_model(radius=16.0)
        bad = {(float(s * k),): 1.0 for k in (4, 5) for s in (1, -1)}
        cm = explicit_couplings(model, bad)
        rec = c.find_free_subannulus(cm, 0.5, a=2.0, n=2)
        assert rec.free
        assert rec.interval == (5.0, 6.0)
        assert 5.0 < rec.inner_radius <= 6.0
        # verify against exhaustive annulus checks on a fine r-grid
        for r in np.linspace(4.0, 6.0, 801):
            annulus_free = all(
                not (r <= abs(v) <= r + 2.0)
                for v in [4.0, -4.0, 5.0, -5.0]
            )
            if r > 5.0:
                assert annulus_free
        assert is_epsilon_free(
            cm, make_annulus(rec.inner_radius, rec.inner_radius + 2.0, 1), 0.5
        )

    def test_window_too_small(self):
        model = chain_model(radius=6.0)
        cm = explicit_couplings(model, {})
        with pytest.raises(ValueError):
            c.find_free_subannulus(cm, 0.1, a=2.0, n=3)

    def test_degenerate_range_still_scans_first_candidate(self):
        # a=1.3, n=5: a^6 - 5 < a^5, so the host is narrower than the width;
        # the scan falls back to the single candidate r = a^5
        model = chain_model(radius=16.0, d=1)
        cm = explicit_couplings(model, {})
        rec = c.find_free_subannulus(cm, 0.1, a=1.3, n=5)
        assert rec.degenerate
        assert rec.free
        assert rec.inner_radius == pytest.approx(1.3**5)

    def test_degenerate_range_blocked(self):
        model = chain_model(radius=16.0, d=1)
        cm = explicit_couplings(model, {(4.0,): 1.0, (5.0,): 1.0, (6.0,): 1.0, (7.0,): 1.0, (8.0,): 1.0, (9.0,): 1.0})
        rec = c.find_free_subannulus(cm, 0.1, a=1.3, n=5)
        assert rec.degenerate
        assert not rec.free


class TestTruncateAndSupport:
    def test_difference_support_empty(self):
        model = chain_model(radius=5.0)
        cm = explicit_couplings(model, {(0.0,): 0.2})
        assert c.difference_support(model, cm, 0.5).is_empty()

    def test_difference_support_balls(self):
        model = chain_model(radius=5.0)
        cm = explicit_couplings(model, {(0.0,): 0.9, (3.0,): 0.8})
        region = c.difference_support(model, cm, 0.5)
        assert len(region.shapes) == 2
        assert all(s.radius == 1.0 for s in region.shapes)


@pytest.mark.parametrize("builder", [
    c.build_decomposition_sparse, c.build_shell_sequence_pp, c.build_decomposition_quasi1d,
])
def test_builders_require_a_scale_range(builder):
    cm = explicit_couplings(chain_model(radius=40.0, d=2), {})
    with pytest.raises(TypeError, match="n_range"):
        builder(cm, 0.5, 2.0)


class TestSparseConstruction:
    def test_ell_and_a_adapt_to_gamma(self):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        td = c.build_decomposition_sparse(cm, 0.1, gamma=1.0, n_range=(1, 5))
        assert td.params["ell"] == 3
        assert td.params["a"] == pytest.approx(4.0 / 3.0)
        td2 = c.build_decomposition_sparse(cm, 0.1, gamma=4.0, n_range=(1, 4))
        assert td2.params["ell"] == 1
        assert td2.params["a"] == 2.0

    def test_all_zero_couplings_radii(self):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        td = c.build_decomposition_sparse(cm, 0.1, gamma=1.0, n_range=(1, 5))
        a = 4.0 / 3.0
        for member, info in zip(td.members, td.member_info):
            n = info.scale
            assert member.shapes[0].radius == pytest.approx(a**n + n / 2.0)
        assert validate_decomposition(td) == []

    def test_gap_reporting(self):
        model = chain_model(radius=40.0, d=1)
        # block every candidate at scale 2 for a = 2: bad sites throughout [4, 8]
        bad = {(float(k),): 1.0 for k in range(4, 9)}
        bad.update({(float(-k),): 1.0 for k in range(4, 9)})
        cm = explicit_couplings(model, bad)
        td = c.build_decomposition_sparse(cm, 0.5, gamma=4.0, n_range=(1, 4))
        assert 2 in td.params["gaps"]

    def test_clearance_bound_holds(self):
        # actual clearance >= n/2 - rho whenever a free annulus was used
        model = chain_model(radius=100.0, d=1, rho=0.5)
        cm = m.sample_couplings(model, seed=8)
        td = c.build_decomposition_sparse(cm, 0.4, gamma=2.0, n_range=(1, 5))
        diff = c.difference_support(model, cm, 0.4)
        cert = c.certify_ac(td, diff, gamma=2.0)
        for term, info in zip(cert.terms, td.member_info):
            assert term.clearance >= info.clearance_bound - 1e-9


class TestShellSequencePP:
    def test_ell_rule(self):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        seq = c.build_shell_sequence_pp(cm, 0.1, gamma=1.0, n_range=(1, 5))
        assert seq.params["ell"] == 5
        assert seq.params["a"] == pytest.approx(1.2)

    def test_annular_volume_1d(self):
        # radii 2^n + n/2: |A_{n+1} \ A_{n-1}| = 2 (2^{n+1} - 2^{n-1} + 1)
        radii = [2.0**n + n / 2.0 for n in range(1, 6)]
        cert = c.certify_pp(g.sphere_shell_decomposition(radii, dimension=1),
                            RegionSet.empty(1), gamma=1.0)
        assert [t.member for t in cert.terms] == [1, 2, 3]
        for t in cert.terms:
            n = t.member + 1
            expected = 2.0 * (2.0 ** (n + 1) - 2.0 ** (n - 1) + 1.0)
            assert t.surface == pytest.approx(expected)

    def test_distinguished_site_excluded(self):
        model = chain_model(radius=40.0, d=1)
        pts = model.sites.points
        k_idx = int(np.where((pts == np.array([5.0])).all(axis=1))[0][0])
        # only the distinguished site is bad: construction must ignore it
        cm = explicit_couplings(model, {(5.0,): 1.0})
        with_k = c.build_shell_sequence_pp(cm, 0.1, gamma=2.0, excluded_site=k_idx, n_range=(1, 4))
        clean = c.build_shell_sequence_pp(
            explicit_couplings(model, {}), 0.1, gamma=2.0, excluded_site=k_idx, n_range=(1, 4)
        )
        assert with_k.params["excluded_site"] == k_idx
        assert with_k.to_records() == clean.to_records()

    @staticmethod
    def sampled_shells():
        model = chain_model(radius=100.0, rho=0.5, law=m.CouplingLaw.bernoulli(0.05))
        cm = m.sample_couplings(model, seed=2)
        return c.build_shell_sequence_pp(cm, 0.5, gamma=2.0, n_range=(1, 8)), model, cm

    def test_is_a_sphere_shell_decomposition(self):
        shells, _, _ = self.sampled_shells()
        assert shells.kind == "sphere-shells"
        assert len(shells.members) == 5
        assert validate_decomposition(shells) == []
        assert shells.params["tail"] == {"kind": "volume-power", "a": 1.5, "rho": 0.5}
        for info in shells.member_info:
            assert info.clearance_bound == info.scale / 2.0 - 0.5

    def test_records_round_trip(self):
        shells, model, cm = self.sampled_shells()
        records = shells.to_records()
        assert json.loads(json.dumps(records)) == records
        assert records[0]["params"]["excluded_site"] == shells.params["excluded_site"]
        assert [rec["meta"]["clearance_bound"] for rec in records[1:]] == [
            info.clearance_bound for info in shells.member_info
        ]
        diff = c.difference_support(model, cm, 0.5)
        cert = c.certify_pp(shells, diff, 2.0)
        assert cert.verdict == "certified"
        floors = [t.clearance_floor for t in cert.terms]
        assert floors == [info.clearance_bound for info in shells.member_info[1:-1]]


class TestQuasi1D:
    def tube_couplings(self, radius=260.0, bad_sites=()):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.tube(2, radius),
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        vals = {tuple(s): 1.0 for s in bad_sites}
        pts = model.sites.points
        values = np.zeros(len(pts))
        for site, v in vals.items():
            idx = np.where((pts == np.array(site)).all(axis=1))[0][0]
            values[idx] = v
        cm = m.CouplingMap(model, np.arange(len(pts)), values, None, radius)
        return model, cm

    def test_refuses_non_quasi1d(self):
        model = chain_model(radius=30.0, d=2)  # full lattice
        cm = explicit_couplings(model, {})
        with pytest.raises(ValueError):
            c.build_decomposition_quasi1d(cm, 0.5, a=2.0, n_range=(2, 4))

    def test_empty_neighborhood_gives_plain_sphere(self):
        # no sites near the free annulus at scale 2 once the tube is removed there
        model, cm = self.tube_couplings()
        td = c.build_decomposition_quasi1d(cm, 0.95, a=2.0, n_range=(2, 6))
        roles = {info.role for info in td.member_info}
        assert "cheese" in roles

    def test_caps_cover_sphere(self):
        model, cm = self.tube_couplings()
        td = c.build_decomposition_quasi1d(cm, 0.95, a=2.0, n_range=(2, 6))
        # group members by scale, check cap+cheese covers the sphere
        for scale in dict.fromkeys(info.scale for info in td.member_info):
            group = [
                member
                for member, info in zip(td.members, td.member_info)
                if info.scale == scale
            ]
            radius = None
            for member, info in zip(td.members, td.member_info):
                if info.scale == scale and info.role == "cheese":
                    shape = member.shapes[0]
                    radius = shape.radius if hasattr(shape, "radius") else None
            if radius is None:
                continue
            t = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
            pts = radius * np.column_stack([np.cos(t), np.sin(t)])
            member_of_any = np.zeros(len(pts), dtype=bool)
            for member in group:
                member_of_any |= member.contains(pts)
            assert member_of_any.all()

    def test_cap_count_bound(self):
        model, cm = self.tube_couplings()
        td = c.build_decomposition_quasi1d(cm, 0.95, a=2.0, n_range=(2, 6))
        c_quasi = td.params["quasi1d_constant"]
        for row in td.params["cap_counts"]:
            assert row["sites_near"] <= 2.0 * c_quasi * (row["scale"] ** 2.0 + 1.0)

    def test_built_decomposition_validates(self):
        _model, cm = self.tube_couplings()
        td = c.build_decomposition_quasi1d(cm, 0.95, a=2.0, n_range=(2, 6))
        assert {info.role for info in td.member_info} == {"cap", "cheese"}
        assert validate_decomposition(td) == []

    def test_a_cap_ball_that_swallows_the_sphere_builds_the_sphere(self):
        # at alpha = 10 every cap ball n^10 reaches across its sphere, so each scale
        # is one cap member, the whole sphere, with no site and no cheese left over
        cm = m.sample_couplings(tube_model(2, 0.5, 70.0), seed=1)
        td = c.build_decomposition_quasi1d(cm, 0.95, alpha=10.0, a=2.0, n_range=(2, 4))
        rows = td.params["cap_counts"]
        assert [info.scale for info in td.member_info] == [row["scale"] for row in rows] == [2, 3, 4]
        for (member,), info, row in zip((mb.shapes for mb in td.members), td.member_info, rows):
            assert row["distinct_caps"] > 1
            assert isinstance(member, Sphere) and member.center == (0.0, 0.0)
            assert info.scale**10 >= 2.0 * member.radius
            assert (info.role, info.clearance_bound, info.site) == ("cap", info.scale / 2.0 - 0.5, None)

    def test_no_clearance_threshold_near_one(self):
        # 1.001^n outgrows n^2 only past n = 10000: every cheese keeps n/2 - rho
        assert c.quasi1d_clearance_threshold(1.001, 2.0) == math.inf

    @pytest.mark.parametrize("a,alpha", [(2.0, 100.0), (3.0, 200.0)])
    def test_no_clearance_threshold_when_terms_overflow(self, a, alpha):
        # a^n outgrows n^(3 alpha) only once a^n has left the float range (near
        # n = 3512 and 4591), past every scale whose a^(n+1) validate accepts
        assert c.quasi1d_clearance_threshold(a, alpha) == math.inf

    def test_cheese_clearance_beyond_threshold(self):
        # alpha=1.5 brings the provable-clearance threshold inside the
        # probed scale range (alpha=2 needs scales ~20)
        alpha = 1.5
        n0 = c.quasi1d_clearance_threshold(2.0, alpha)
        assert n0 <= 11
        model, cm = self.tube_couplings(radius=4200.0)
        td = c.build_decomposition_quasi1d(
            cm, 0.95, alpha=alpha, a=2.0, n_range=(2, 11)
        )
        assert td.params["clearance_threshold_n"] == n0
        diff = c.difference_support(model, cm, 0.95)
        rho = td.params["rho"]
        cert = c.certify_ac(td, diff, gamma=1.0)
        checked = 0
        for term, info in zip(cert.terms, td.member_info):
            if info.role == "cheese" and info.scale >= n0:
                assert term.clearance >= info.scale**alpha - rho - 1e-9
                checked += 1
        assert checked >= 1

    def test_threshold_warning(self):
        model, cm = self.tube_couplings(bad_sites=[])
        # Bernoulli(0.9) laws: delta = 0.9, threshold huge
        model2 = m.RandomPotentialModel(
            sites=model.sites,
            potential=model.potential,
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.9)),
        )
        cm2 = m.CouplingMap(
            model2, cm.site_indices, cm.values, None, cm.window_radius
        )
        with pytest.warns(UserWarning):
            c.build_decomposition_quasi1d(cm2, 0.5, a=2.0, n_range=(2, 4))


def clears_exactly(a, alpha, n) -> bool:
    """n^2/4 + (1 - (n^alpha + n/2)/a^n) n^(2 alpha) >= n^(2 alpha), in 80 digits."""
    with mpmath.workdps(80):
        a, alpha, n = mpmath.mpf(a), mpmath.mpf(alpha), mpmath.mpf(n)
        full = n ** (2 * alpha)
        return n**2 / 4 + (1 - (n**alpha + n / 2) / a**n) * full >= full


def tube_model(d, offset, radius):
    """A d-dimensional tube with one cross-section offset and uniform couplings."""
    return m.model_from_dict({
        "dimension": d,
        "sites": {"generator": "tube", "radius": radius, "offsets": [[offset] * (d - 1)]},
        "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
    })


def assert_members_clear_their_floors(model, cm, eps, td):
    diff = c.difference_support(model, cm, eps)
    for i, (member, info) in enumerate(zip(td.members, td.member_info)):
        clearance = g.distance_between(diff, member)
        assert clearance >= info.clearance_bound, (i, info, clearance)


class TestClearanceFloors:
    """Every member that a builder writes clears the difference support by at
    least its clearance_bound, the floor that the certificate's trend reads."""

    @given(st.sampled_from([2, 3]), st.sampled_from([0.0, 0.5]), st.sampled_from([2.0, 3.0, 6.0]),
           st.sampled_from([1.5, 2.0, 3.0]), st.integers(2, 4), st.integers(1, 8))
    # a = 6, alpha = 3: the inequality holds at n = 1 and fails at n = 2..9; seed 4's
    # scale-4 cheese clears 63.487, below the n^alpha - rho = 63.5 of the first-n rule
    @example(2, 0.0, 6.0, 3.0, 4, 4)
    @settings(max_examples=25, deadline=None)
    def test_quasi1d(self, d, offset, a, alpha, n_hi, seed):
        model = tube_model(d, offset, a ** (n_hi + 1) + 14.0)
        cm = m.sample_couplings(model, seed)
        td = c.build_decomposition_quasi1d(cm, 0.95, alpha=alpha, a=a, n_range=(2, n_hi))
        assert_members_clear_their_floors(model, cm, 0.95, td)

    @given(st.sampled_from([1, 2]), st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.5, 3.0), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_sparse(self, d, gamma, tau, seed):
        model = lattice_model(d, tau)
        cm = m.sample_couplings(model, seed)
        n_hi = 6 if d == 1 else 4  # a = 2 at gamma = 4 needs a window of 2^(n_hi + 1)
        td = c.build_decomposition_sparse(cm, 0.1, gamma, n_range=(1, n_hi))
        assert_members_clear_their_floors(model, cm, 0.1, td)

    @given(st.sampled_from([1, 2]), st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.5, 3.0), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_pp(self, d, gamma, tau, seed):
        # no distinguished site, so the spheres avoid every bad site, as the sparse ones do
        model = lattice_model(d, tau)
        cm = m.sample_couplings(model, seed)
        n_hi = 6 if d == 1 else 4  # at gamma = 4, a = 2 in d = 1 and 1.5 in d = 2
        td = c.build_shell_sequence_pp(cm, 0.1, gamma, n_range=(1, n_hi))
        assert_members_clear_their_floors(model, cm, 0.1, td)


def lattice_model(d, tau):
    """A d-dimensional lattice with radial Bernoulli couplings and no distinguished site."""
    return m.model_from_dict({
        "dimension": d,
        "sites": {"generator": "lattice", "radius": 140.0 if d == 1 else 40.0},
        "law": {"kind": "radial_bernoulli", "tau": tau},
        "potential": {"kind": "indicator", "amplitude": 1.0, "radius": 0.5},
    })


class TestTailRule:
    """Each decomposition kind has one rule: the floors its members keep and its tail."""

    @pytest.mark.parametrize("kind,role,n,floor", [
        ("sphere-power", "shell", 9, 4.0),
        ("volume-power", "shell", 10, 4.5),
        ("cap-cheese", "cap", 9, 4.0),
        ("cap-cheese", "cap", 10, 4.5),
        ("cap-cheese", "cheese", 9, 4.0),  # one below clearance_threshold_n: n/2 - rho
        ("cap-cheese", "cheese", 10, 999.5),  # from it on: n^alpha - rho
    ])
    def test_floor(self, kind, role, n, floor):
        rule = c._TailRule(kind, 2, 6.0, 0.5, alpha=3.0)
        assert rule.clearance_threshold_n == 10
        assert rule.floor(n, role) == floor

    @pytest.mark.parametrize("kind", ["sparse", "pp", "quasi1d"])
    def test_params_give_back_the_rule_that_built_the_members(self, kind):
        if kind == "quasi1d":
            model = tube_model(2, 0.5, 2.0**5 + 14.0)
            td = c.build_decomposition_quasi1d(m.sample_couplings(model, 3), 0.95, alpha=1.5, n_range=(2, 4))
            want = c._TailRule("cap-cheese", 2, 2.0, 0.5, 1.5, td.params["quasi1d_constant"])
        else:
            model = lattice_model(2, 3.0)
            build = c.build_decomposition_sparse if kind == "sparse" else c.build_shell_sequence_pp
            td = build(m.sample_couplings(model, 3), 0.1, 4.0, n_range=(1, 4))
            want = c._TailRule("sphere-power" if kind == "sparse" else "volume-power", 2, td.params["a"], 0.5)
        rule = c._tail_rule_from_params(td.params, 2)
        assert rule == want
        assert td.params["tail"] == rule.record()
        assert td.member_info and all(
            info.clearance_bound == rule.floor(info.scale, info.role) for info in td.member_info
        )

    def test_ratio_limit(self):
        # a^k exp(-gamma/2), k = d - 1, d and 0 for the three kinds
        for kind, k in [("sphere-power", 2), ("volume-power", 3), ("cap-cheese", 0)]:
            assert c._TailRule(kind, 3, 1.25, 0.5).ratio_limit(1.0) == 1.25**k * math.exp(-0.5)


class TestClearanceThreshold:
    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 6.0, 10.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0, 10.0])
    def test_matches_an_80_digit_oracle(self, a, alpha):
        # the inequality fails just below the threshold and holds at every scale
        # from it, checked 300 scales on; at a = 6 it also holds at n = 1, so a
        # first-n rule reads 1 there
        n0 = c.quasi1d_clearance_threshold(a, alpha)
        assert n0 == 1 or not clears_exactly(a, alpha, n0 - 1)
        assert all(clears_exactly(a, alpha, n) for n in range(n0, n0 + 301))

    def test_golden_tubes_keep_20(self):
        # every golden and CI tube has a = 2 and alpha = 2
        assert c.quasi1d_clearance_threshold(2.0, 2.0) == 20


class TestCertifyAC:
    def test_empty_support_certified(self):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        td = c.build_decomposition_sparse(cm, 0.1, gamma=1.0, n_range=(1, 6))
        cert = c.certify_ac(td, RegionSet.empty(2), gamma=1.0)
        assert cert.verdict == "certified"
        assert cert.partial_sum == 0.0

    def test_series_ratio_below_one_certified(self):
        # sigma = C a^{n(d-1)}, delta = n/2 - rho, a=1.1, d=2, gamma=1
        a, d, gamma, rho = 1.1, 2, 1.0, 0.3
        n = np.arange(1, 12)
        sigmas = a ** (n * (d - 1))
        deltas = n / 2.0 - rho
        cert = c.certify_series(deltas, sigmas, gamma)
        assert cert.empirical_tail_ratio == pytest.approx(
            a ** (d - 1) * math.exp(-gamma / 2.0)
        )
        assert cert.verdict == "certified"

    def test_series_ratio_above_one_not_certified(self):
        # a=2, d=3, gamma=0.1: ratio exp(2 ln 2 - 0.05) > 1
        a, d, gamma = 2.0, 3, 0.1
        n = np.arange(1, 12)
        sigmas = a ** (n * (d - 1))
        deltas = n / 2.0
        cert = c.certify_series(deltas, sigmas, gamma)
        assert cert.empirical_tail_ratio > 1.0
        assert cert.verdict == "not-certified"

    def test_member_in_support_not_certified(self):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        td = c.build_decomposition_sparse(cm, 0.1, gamma=1.0, n_range=(1, 5))
        # a ball crossing the first sphere
        r0 = td.members[0].shapes[0].radius
        diff = RegionSet.ball([r0, 0.0], 0.5)
        cert = c.certify_ac(td, diff, gamma=1.0)
        assert cert.verdict == "not-certified"
        assert cert.witnesses

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_bad_gamma_raises_before_any_clearance(self, monkeypatch, gamma):
        def no_clearance(*args):
            raise AssertionError("a clearance was computed")

        monkeypatch.setattr(c, "distance_between", no_clearance)
        td = g.sphere_shell_decomposition([1.0, 2.0], dimension=2)
        with pytest.raises(ValueError, match="gamma must be > 0"):
            c.certify_ac(td, RegionSet.ball([5.0, 0.0], 0.5), gamma)

    def test_terms_recomputable(self):
        model = chain_model(radius=100.0, d=1)
        cm = m.sample_couplings(model, seed=4)
        td = c.build_decomposition_sparse(cm, 0.5, gamma=2.0, n_range=(1, 5))
        diff = c.difference_support(model, cm, 0.5)
        cert = c.certify_ac(td, diff, gamma=2.0)
        stored = np.array([t.value for t in cert.terms])
        recomputed = [t.surface * math.exp(-cert.gamma * t.clearance) if math.isfinite(t.clearance)
                      else 0.0 for t in cert.terms]
        assert np.array_equal(recomputed, stored)

    def test_symbolic_tail_certifies_every_gamma(self):
        model = chain_model(radius=45.0, d=2)
        cm = explicit_couplings(model, {})
        for gamma in [0.1, 0.5, 1.0, 2.0]:
            td = c.build_decomposition_sparse(cm, 0.1, gamma=gamma, n_range=(1, 6))
            cert = c.certify_ac(td, c.difference_support(model, cm, 0.1), gamma=gamma)
            assert cert.verdict == "certified", f"gamma={gamma}"
            assert cert.tail is not None
            assert cert.tail.ratio_limit < 1.0

    def test_overflowing_tail_is_infinite_not_an_error(self):
        # cap-cheese with small gamma: a ** (n + 1) overflows before the
        # term ratios settle below q*
        rule = c._TailRule("cap-cheese", dimension=1, a=1.5, rho=0.0, alpha=1.2)
        sum_bound, crossover = rule.tail_sum(3, 0.05)
        assert sum_bound == math.inf
        assert crossover > 3

    def test_tail_sum_is_inf_when_a_term_overflows_or_the_ratio_limit_reaches_one(self):
        huge = c._TailRule("cap-cheese", dimension=2, a=2.0, rho=0.5, alpha=1000.0)
        assert huge.tail_sum(5, 1.0) == (math.inf, 6)  # 6.0 ** 1000 raises OverflowError
        flat = c._TailRule("sphere-power", dimension=3, a=2.0, rho=0.5)
        assert flat.ratio_limit(0.1) >= 1.0
        assert flat.tail_sum(5, 0.1) == (math.inf, 5)

    def test_tail_sum_ends_when_the_terms_underflow(self):
        # exp(-3000 (n/2 - rho)) is 0.0 from the first term on
        rule = c._TailRule("sphere-power", 2, 2.0, 0.5)
        assert rule.term_bound(10, 3000.0) == 0.0
        assert rule.tail_sum(9, 3000.0) == (0.0, 11)

    def test_tail_sum_is_inf_when_the_terms_never_reach_the_crossover(self):
        class Flat(c._TailRule):
            def term_bound(self, n, gamma):
                return 1.0

        rule = Flat("sphere-power", 2, 2.0, 0.5)
        assert rule.ratio_limit(2.0) < 1.0  # so the loop runs; its terms never shrink
        sum_bound, n = rule.tail_sum(3, 2.0)
        assert sum_bound == math.inf
        assert n > 20_000

    def test_overflowing_tail_certifies_nothing(self):
        # the term sums grow by 4/e per scale, so only a symbolic tail could certify
        rows = [(n, n, "cheese", float(n), 10.0 * 4.0**n, None) for n in range(1, 7)]
        finite = c._TailRule("cap-cheese", dimension=2, a=2.0, rho=0.5)
        assert c._build_certificate("ac", 1.0, rows, finite).verdict == "certified"
        huge = c._TailRule("cap-cheese", dimension=2, a=2.0, rho=0.5, alpha=1000.0)
        cert = c._build_certificate("ac", 1.0, rows, huge)
        assert cert.tail.sum_bound == math.inf
        assert cert.empirical_tail_ratio > 1.0
        assert cert.verdict == "inconclusive"


class TestCertifyPP:
    def test_empty_support_superexponential(self):
        radii = tuple(2.0**n + n / 2.0 for n in range(1, 8))
        seq = g.sphere_shell_decomposition(radii, dimension=1)
        seq.params["tail"] = {"kind": "volume-power", "a": 2.0, "rho": 0.0}
        cert = c.certify_pp(seq, RegionSet.empty(1), gamma=1.0)
        assert cert.verdict == "certified"
        sums = [s.term_sum for s in cert.scales]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_equal_radii_not_certified(self):
        members = tuple(RegionSet.sphere([0.0], r) for r in (2.0, 4.0, 4.0, 8.0))
        seq = TotalDecomposition(dimension=1, members=members, kind="sphere-shells")
        cert = c.certify_pp(seq, RegionSet.empty(1), gamma=1.0)
        assert cert.verdict == "not-certified"

    def test_built_sequence_certifies(self):
        model = chain_model(radius=45.0, d=2)
        cm = explicit_couplings(model, {})
        seq = c.build_shell_sequence_pp(cm, 0.1, gamma=1.0, n_range=(1, 8))
        a = seq.params["a"]
        assert a == pytest.approx(1.2)
        diff = c.difference_support(model, cm, 0.1)
        cert = c.certify_pp(seq, diff, gamma=1.0)
        assert cert.verdict == "certified"
        # volume-ratio formula: limit exp(d ln a - gamma/2) < 1
        assert cert.tail.ratio_limit == pytest.approx(
            a**2 * math.exp(-0.5)
        )


class TestCertificateIO:
    def test_jsonl_and_csv(self, tmp_path):
        model = chain_model(radius=40.0, d=2)
        cm = explicit_couplings(model, {})
        td = c.build_decomposition_sparse(cm, 0.1, gamma=1.0, n_range=(1, 4))
        cert = c.certify_ac(td, RegionSet.empty(2), gamma=1.0)
        recs = cert.to_records()
        assert recs[0]["record"] == "certificate"
        assert len(recs) == 1 + len(cert.terms)
        # the CLI's JSONL writer is the one path to a file; the infinite
        # clearances against the empty set must come out as null
        cli._write_outputs(tmp_path, {"cert.jsonl": recs})
        lines = (tmp_path / "cert.jsonl").read_text().splitlines()
        assert [json.loads(line)["record"] for line in lines] == [r["record"] for r in recs]
        assert "Infinity" not in "".join(lines[1:])


class TestSmallestIntegerAbove:
    @pytest.mark.parametrize(
        "x,want", [(2.0, 3), (0.5, 1), (0.0, 1), (4.0, 5), (3.7, 4)]
    )
    def test_values(self, x, want):
        assert c.smallest_integer_above(x) == want


class TestSphereSigmaBound:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 12.0])
    def test_dominates_closed_form(self, R, d):
        exact = c.closed_form_sigma(RegionSet(d, (Sphere(tuple([0.0] * d), R),)))
        assert c.sphere_sigma_bound(R, d) >= exact
