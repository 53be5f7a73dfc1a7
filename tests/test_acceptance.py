"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oracles import free_operator, generalized_surface_area
from sparseloc import certify as c
from sparseloc import cli
from sparseloc import geometry as g
from sparseloc import models as m
from sparseloc import spectral as sp
from sparseloc import stochastic as st

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def announce(num, text):
    print(f"\n[criterion {num}] PASS — {text}")


class TestCriterion1GeometryOracles:
    def test_sigma_oracles_at_default_resolution(self):
        t0 = time.monotonic()
        est1 = generalized_surface_area(g.RegionSet.point([0.0]))
        t1 = time.monotonic()
        assert abs(est1.value - 2.0) <= 0.05 * 2.0
        assert t1 - t0 < 30.0

        t0 = time.monotonic()
        est2 = generalized_surface_area(g.RegionSet.point([0.0, 0.0]))
        t1 = time.monotonic()
        assert abs(est2.value - PHI * math.pi) <= 0.05 * PHI * math.pi
        assert t1 - t0 < 30.0

        t0 = time.monotonic()
        est3 = generalized_surface_area(g.RegionSet.sphere([0.0, 0.0], 5.0))
        t1 = time.monotonic()
        assert abs(est3.value - 20.0 * math.pi) <= 0.10 * 20.0 * math.pi
        assert t1 - t0 < 30.0
        announce(
            1,
            f"sigma(point,d=1)={est1.value:.4f} (2), "
            f"sigma(point,d=2)={est2.value:.4f} ({PHI * math.pi:.4f}), "
            f"sigma(sphere5,d=2)={est3.value:.4f} ({20 * math.pi:.4f})",
        )


def ten_site_model():
    return m.RandomPotentialModel(
        sites=m.SiteSet.lattice(1, 16.0),
        potential=m.SingleSitePotential.indicator(1.0, 1.0),
        laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.1)),
    )


class TestCriterion2FreeProbabilityOracle:
    def test_product_formula_and_calibration(self):
        model = ten_site_model()
        annulus = g.make_annulus(4.0, 8.0, 1)
        exact = 0.9**10
        rec = st.estimate_free_probability(model, annulus, 0.5, trials=10_000, seed=0)
        assert rec.exact == pytest.approx(exact, rel=1e-12)
        hits = 0
        for seed in range(100):
            r = st.estimate_free_probability(model, annulus, 0.5, trials=10_000, seed=seed)
            se = math.sqrt(exact * (1.0 - exact) / r.trials)
            if abs(r.value - exact) <= 3.0 * se:
                hits += 1
        assert hits >= 99
        announce(2, f"exact 0.9^10={exact:.5f}; within 3 SE in {hits}/100 seeded runs")


class TestCriterion3AnOracleEquivalence:
    def test_enumeration_vs_monte_carlo(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(1, 16.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        t0 = time.monotonic()
        exact = st.brute_force_a_n(model, 0.5, a=2.0, n=2)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        rec = st.estimate_a_n(model, 0.5, a=2.0, n=2, trials=10_000, seed=12)
        assert abs(rec.value - exact) <= 3.0 * rec.std_error
        announce(
            3,
            f"2^10 enumeration a_2={exact:.5f} in {elapsed * 1e3:.0f} ms; "
            f"MC {rec.value:.5f} +- {rec.std_error:.5f}",
        )


class TestCriterion4BoundPlugIn:
    def test_closed_form_value(self):
        bound, vacuous = st.a_n_bound(2.0, 0.25, 10)
        assert abs(bound - 0.00332) <= 1e-5
        assert not vacuous

    def test_decaying_model_under_bound(self):
        # radial Bernoulli p_i = min(1, |i|^-3) in d=2 (decay strong enough
        # that the plug-in premise holds at every probed scale)
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(2, 129.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.radial_bernoulli(3.0),
        )
        report = st.borel_cantelli_report(model, 0.5, 2.0, (2, 6), trials=800, seed=20250810)
        for row in report.rows:
            assert row.estimate <= row.bound + 3.0 * row.std_error, f"n={row.scale}"
        announce(
            4,
            "bound(2,0.25,10)=0.00332 +- 1e-5; "
            + "; ".join(
                f"a_{r.scale}: {r.estimate:.4f} <= {r.bound:.4f}" for r in report.rows
            ),
        )


class TestCriterion5CertificationQuantifier:
    def test_gamma_sweep_certifies(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.lattice(2, 45.0),
            potential=m.SingleSitePotential.indicator(1.0, 1.0),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.bernoulli(0.5)),
        )
        pts = model.sites.points
        zero = m.CouplingMap(
            model, np.arange(len(pts)), np.zeros(len(pts)), None, model.sites.window_radius
        )
        ells = {}
        for gamma in [0.1, 0.5, 1.0, 2.0]:
            td = c.build_decomposition_sparse(zero, 0.1, gamma, n_range=(1, 6))
            cert = c.certify_ac(td, c.difference_support(model, zero, 0.1), gamma)
            assert cert.verdict == "certified", f"gamma={gamma}: {cert.verdict}"
            assert cert.tail is not None and cert.tail.ratio_limit < 1.0
            ells[gamma] = td.params["ell"]
        # negative control: forced surface growth a^{n(d-1)} with a=2, d=3
        n = np.arange(1, 11)
        control = c.certify_series(n / 2.0, 2.0 ** (n * 2), gamma=0.1)
        assert control.verdict == "not-certified"
        assert control.empirical_tail_ratio == pytest.approx(
            4.0 * math.exp(-0.05), rel=1e-9
        )
        announce(
            5,
            f"certified for gammas 0.1/0.5/1/2 with ell={ells}; "
            f"negative control ratio {control.empirical_tail_ratio:.3f} > 1 -> not-certified",
        )


class TestCriterion6Quasi1D:
    def test_tube_certifies_with_counts(self):
        model = m.RandomPotentialModel(
            sites=m.SiteSet.tube(2, 520.0),
            potential=m.SingleSitePotential.indicator(1.0, 0.5),
            laws=m.LawAssignment.shared_law(m.CouplingLaw.uniform()),
        )
        eps = 0.95
        qrep = m.quasi_dimension_bound(model.sites, 1.0, 500.0)
        assert qrep.passed
        delta = 1.0 - eps  # sup p_i(eps) for uniform laws
        threshold = st.quasi1d_threshold(delta, qrep.constant)
        a = 2.0
        assert a > threshold
        cm = m.sample_couplings(model, seed=1)
        verdicts = {}
        for gamma in [0.5, 1.0]:
            td = c.build_decomposition_quasi1d(cm, eps, alpha=2.0, a=a, n_range=(2, 8))
            cert = c.certify_ac(td, c.difference_support(model, cm, eps), gamma)
            verdicts[gamma] = cert.verdict
            assert cert.verdict == "certified", f"gamma={gamma}"
            # member counts against the quasi-1D bound 2C(n^alpha + 1)
            for row in td.params["cap_counts"]:
                assert row["sites_near"] <= row["scaled_bound"], row
        announce(
            6,
            f"a={a} > threshold {threshold:.3f}; verdicts {verdicts}; "
            "cap counts within 2C(n^alpha+1) at every scale",
        )


class TestCriterion7SpectralOracles:
    def test_chain_resolvent_monotone(self):
        op = free_operator(1, 100, 1.0)
        vals = np.sort(op.all_eigenvalues())
        k = np.arange(1, 101)
        closed = np.sort(2.0 - 2.0 * np.cos(k * np.pi / 101.0))
        max_err = float(np.max(np.abs(vals - closed)))
        assert max_err < 1e-10
        fit2 = sp.resolvent_decay(op, -2.0)
        assert abs(fit2.rate - math.acosh(2.0)) <= 0.10 * math.acosh(2.0)
        # Combes-Thomas: the rate strictly grows with the distance to the spectrum
        fits = sorted((sp.resolvent_decay(op, e) for e in (-0.5, -1.0, -2.0)),
                      key=lambda f: f.spectrum_distance)
        assert all(a.rate < b.rate for a, b in zip(fits, fits[1:]))
        announce(
            7,
            f"eigenvalue error {max_err:.2e} < 1e-10; rate(-2)={fit2.rate:.4f} "
            f"(arccosh 2 = {math.acosh(2.0):.4f}); rates monotone in gap depth",
        )


class TestCriterion8LocalizationProxy:
    def test_sparse_wells_gap_states_localized(self):
        t0 = time.monotonic()
        sites = m.SiteSet.lattice(1, 252.0)
        norms = np.linalg.norm(sites.points, axis=1)
        laws = [
            m.CouplingLaw.bernoulli_times_uniform(
                min(0.25, float(nn) ** -0.4) if nn > 0 else 0.25, 0.6, 1.0
            )
            for nn in norms
        ]
        model = m.RandomPotentialModel(
            sites=sites,
            potential=m.SingleSitePotential.indicator(-3.0, 1.0),
            laws=m.LawAssignment.per_site_laws(laws),
        )
        cm = m.sample_couplings(model, seed=7)
        box, h = 250.0, 0.25
        n_side = sp.grid_side(box, h)
        assert n_side == 1999
        reference = free_operator(1, n_side, h)
        report = sp.localization_report(model, cm, box, h, reference)
        elapsed = time.monotonic() - t0
        gap_states = [s for s in report.states if s.in_gap]
        assert gap_states
        assert all(s.energy < 0 for s in gap_states)
        ratio = report.gap_median_ipr / report.bulk_median_ipr
        assert ratio >= 10.0
        quality_frac = float(np.mean([s.decay_quality >= 0.9 for s in gap_states]))
        assert quality_frac >= 0.90
        assert report.verdict == "gap-states-localized"
        # consistency of the two exponential-decay estimators
        assert report.resolvent_checks
        for _energy, state_rate, resolvent_rate in report.resolvent_checks:
            assert state_rate >= 0.5 * resolvent_rate
        assert elapsed < 120.0
        announce(
            8,
            f"{len(gap_states)} gap states; IPR ratio {ratio:.1f} >= 10; "
            f"quality>=0.9 for {100 * quality_frac:.0f}% >= 90%; {elapsed:.0f}s < 120s",
        )


class TestCriterion9Determinism:
    def full_report_config(self, outdir):
        return {
            "pipeline": "full-report",
            "model": {
                "dimension": 1,
                "sites": {"generator": "lattice", "radius": 70.0},
                "law": {"kind": "radial_bernoulli", "tau": 0.6},
                "potential": {"kind": "indicator", "amplitude": -2.0, "radius": 1.0},
                "background": {"kind": "zero"},
            },
            "seeds": [1, 2],
            "output_dir": str(outdir),
            "parameters": {
                "eps": 0.5,
                "gammas": [0.5, 1.0],
                "n_range": [2, 4],
                "a": 2.0,
                "trials": 300,
                "box": 15.0,
                "h": 0.5,
                "energies": [-0.5, -1.0],
            },
        }

    DATA_FILES = [
        "certificates.jsonl",
        "decompositions.jsonl",
        "certificate_terms.csv",
        "free_annuli.csv",
        "an_rows.csv",
        "an_verdicts.jsonl",
        "states.csv",
        "resolvent_rates.csv",
        "localization.jsonl",
    ]

    def test_workers_1_4_8_byte_identical(self, tmp_path, monkeypatch):
        blobs = {}
        for workers in (1, 4, 8):
            outdir = tmp_path / f"w{workers}"
            cfg = self.full_report_config(outdir)
            path = tmp_path / f"cfg{workers}.json"
            path.write_text(json.dumps(cfg))
            monkeypatch.setenv("SPARSELOC_WORKERS", str(workers))
            cli.run(cli.load_config(path), config_path=path)
            blobs[workers] = {
                name: (outdir / name).read_bytes() for name in self.DATA_FILES
            }
        for name in self.DATA_FILES:
            assert blobs[1][name] == blobs[4][name] == blobs[8][name], name
        announce(9, f"{len(self.DATA_FILES)} data files byte-identical across 1/4/8 workers")
