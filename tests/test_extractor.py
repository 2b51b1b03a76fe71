import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (disk_check, rayleigh_exact, rayleigh_quotient, residual_sizes,
                      scaled_scene, weighted_inner_exact)

from ringlab import extractor as ex
from ringlab import signal_model as sm
from ringlab.errors import BranchSelectionError, ConfigError, DegenerateSignalError


def std_setup(**kw):
    base = dict(t0=1.0, t_len=10.0, delta=1.0, dt=0.05)
    base.update(kw)
    return sm.ObservationSetup(**base)


def sampled(modes, setup):
    """The reference content alone, as residual_sizes receives it."""
    return sm.sample_scene(modes, sm.ZERO_TAIL, sm.ZERO_NOISE, setup)


class TestRayleighQuotient:
    def test_pure_mode_closed_form_exact(self):
        setup = std_setup()
        omega = 1 - 0.1j
        z = np.exp(-1j * omega * setup.delta)
        assert abs(rayleigh_exact(sm.Mode(freq=omega, amp=1.0), [], setup) - z) < 1e-14

    def test_constant_signal(self):
        setup = std_setup()
        y = sm.sample_scene([sm.Mode(freq=0.0, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        assert abs(rayleigh_quotient(y, setup) - 1.0) < 1e-14

    def test_trapezoid_pure_mode_exact_on_grid(self):
        # the shift eigenrelation is exact on the grid, so even the
        # trapezoid-weighted quotient reproduces z to rounding
        setup = std_setup()
        omega = 1.7 - 0.25j
        y = sm.sample_scene([sm.Mode(freq=omega, amp=0.7)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        z = np.exp(-1j * omega * setup.delta)
        got = rayleigh_quotient(y, setup)
        assert abs(got - z) < 1e-13

    def test_tail_scene_within_crude_bound(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
        r = sm.sample_scene([], tail, sm.ZERO_NOISE, setup)
        sizes = residual_sizes(sampled([mode], setup), r, setup)
        z = np.exp(-1j * mode.freq * setup.delta)
        z_hat = rayleigh_quotient(y, setup)
        assert abs(z_hat - z) <= 3.0 * sizes["eps"]

    def test_zero_signal_rejected(self):
        setup = std_setup()
        y = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        with pytest.raises(DegenerateSignalError):
            rayleigh_quotient(y, setup)


class TestResidualSizes:
    def test_zero_residual(self):
        setup = std_setup()
        r = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        y0 = sampled([sm.Mode(freq=1 - 0.1j, amp=1.0)], setup)
        sizes = residual_sizes(y0, r, setup)
        assert sizes == {"eps0": 0.0, "eps1": 0.0, "eps": 0.0}

    def test_residual_equal_to_reference(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        r = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        sizes = residual_sizes(sampled([mode], setup), r, setup)
        assert abs(sizes["eps0"] - 1.0) < 1e-12

    def test_eps1_below_l2_over_energy(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        r = sm.sample_scene([], tail, sm.ZERO_NOISE, setup)
        y0 = sampled([mode], setup)
        sizes = residual_sizes(y0, r, setup)
        bound = sm.residual_l2(r, setup) / sm.wnorm(y0, setup)
        assert sizes["eps1"] <= bound * (1 + 1e-12)

    def test_zero_reference_rejected(self):
        setup = std_setup()
        r = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        with pytest.raises(DegenerateSignalError):
            residual_sizes(sampled([sm.Mode(freq=1.0, amp=0.0)], setup), r, setup)


class TestStabilityBound:
    def test_zero(self):
        assert ex.stability_bound(0.0, 0.0) == 0.0

    def test_explicit_value(self):
        assert abs(ex.stability_bound(0.1, 0.1) - 0.275) < 1e-15

    def test_crude_dominates_here(self):
        assert ex.stability_bound_crude(0.1) == pytest.approx(0.3)
        assert ex.stability_bound(0.1, 0.1) <= ex.stability_bound_crude(0.1)

    def test_hypothesis_errors(self):
        # eps0 > 1/4 fails the sharp bound's hypothesis: it bounds nothing
        assert ex.stability_bound(0.3, 0.0) == np.inf
        assert ex.stability_bound(np.array([0.1, 0.3, np.nan]), 0.1).tolist() == [
            ex.stability_bound(0.1, 0.1), np.inf, np.inf]
        # the crude bound's eps <= 1/8 is the hypothesis of the record that
        # reads it (eps_small implies it): it is 3 eps on any input, columns too
        assert ex.stability_bound_crude(0.2) == 3.0 * 0.2
        assert ex.stability_bound_crude(np.array([0.1, 0.2])).tolist() == [3.0 * 0.1, 3.0 * 0.2]


class TestOmegaBound:
    def test_zero(self):
        assert ex.omega_bound(0.0, 0.0, 0.9, 1.0) == 0.0

    def test_closed_form(self):
        # eps0 = eps1 = 0.01: bound_z = 0.02 * 1.01 / 0.98 = 0.0206122..., and
        # with |z| = 0.9, Delta = 0.5 the bound is -2 log(1 - bound_z/0.9)
        bound_z = 0.02 * 1.01 / 0.98
        want = -2.0 * np.log(1.0 - bound_z / 0.9)
        assert ex.omega_bound(0.01, 0.01, 0.9, 0.5) == pytest.approx(want, rel=1e-14)
        assert abs(want - 0.04633766) < 1e-8

    def test_bounds_every_ratio_on_its_circle(self):
        # |Log w|/Delta <= omega_bound for every w with |w - 1| = bound_z/|z|,
        # with equality at the real point below 1
        eps0, eps1, z_abs, delta = 0.02, 0.03, 0.8, 0.5
        rho = ex.stability_bound(eps0, eps1) / z_abs
        bound = ex.omega_bound(eps0, eps1, z_abs, delta)
        for w in 1.0 + rho * np.exp(2j * np.pi * np.arange(64) / 64):
            assert abs(np.log(w)) / delta <= bound * (1 + 1e-14)
        assert abs(np.log(1.0 - rho)) / delta == pytest.approx(bound, rel=1e-14)

    def test_infinite_outside_the_disk(self):
        # bound_z >= |z|, or eps0 > 1/4 (no stability bound), is no bound
        assert ex.omega_bound(0.3, 0.0, 0.9, 1.0) == np.inf
        assert ex.omega_bound(0.2, 0.2, 0.5, 1.0) == np.inf
        assert ex.omega_bound(float("nan"), 0.0, 0.9, 1.0) == np.inf

    def test_below_the_crude_bound_under_eps_small(self):
        @settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @given(st.floats(1e-3, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
               st.floats(0.01, 10.0))
        def check(z_abs, s0, s1, delta):
            cap = min(0.125, z_abs / 20.0)
            eps0, eps1 = s0 * cap, s1 * cap
            eps = max(eps0, eps1)
            assert ex.eps_small(eps, z_abs)
            assert ex.omega_bound(eps0, eps1, z_abs, delta) <= 10.0 * eps / (delta * z_abs)

        check()


class TestBranchLog:
    def test_exact_prior(self):
        prior = 1.3 - 0.2j
        z = np.exp(-1j * prior * 0.7)
        omega = ex.branch_log(z, prior, 0.7)
        assert abs(omega - prior) < 1e-13

    def test_definitional_identity(self, rng):
        for _ in range(100):
            prior = complex(rng.uniform(-3, 3), -rng.uniform(0, 0.5))
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            z_sharp = np.exp(-1j * prior * delta)
            z_hat = z_sharp * (1 + 0.5 * (rng.random() - 0.5)
                               + 0.3j * (rng.random() - 0.5))
            omega = ex.branch_log(z_hat, prior, delta)
            assert abs(np.exp(-1j * omega * delta) - z_hat) < 1e-12

    def test_branch_corrected_by_prior(self):
        # 2pi/Delta ambiguity resolved: prior near truth picks the right sheet
        omega_true = 1 - 0.1j
        delta = 1.0
        z = np.exp(-1j * omega_true * delta)
        omega = ex.branch_log(z, omega_true + 0.1, delta)
        assert abs(omega - omega_true) < 1e-12
        # a prior on the wrong sheet lands 2pi/Delta away
        omega_wrong = ex.branch_log(z, omega_true + 2 * np.pi / delta, delta)
        assert abs(omega_wrong - (omega_true + 2 * np.pi / delta)) < 1e-12

    def test_too_far_rejected(self):
        with pytest.raises(BranchSelectionError):
            ex.branch_log(-1.0 + 0j, 0.0, 1.0)


class TestExtract:
    def test_clean_scene(self):
        setup = std_setup()
        omega = 1 - 0.1j
        mode = sm.Mode(freq=omega, amp=1.0)
        y = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        cfg = ex.ExtractionConfig(setup=setup, prior=omega + 0.05)
        res = ex.extract(y, cfg, y0_reference=[mode])
        assert abs(res.omega_hat[0] - omega) < 1e-12
        assert res.eps[0] == 0.0 and res.bound_omega[0] == 0.0
        assert res.eps_small[0] and res.branch_hyp[0]

    def test_no_reference_leaves_flags_unknown(self):
        # the hypotheses concern the true z, which only a reference supplies
        setup = std_setup()
        omega = 1 - 0.1j
        y = sm.sample_scene([sm.Mode(freq=omega, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        res = ex.extract(y, ex.ExtractionConfig(setup=setup, prior=omega + 0.05))
        assert abs(res.omega_hat[0] - omega) < 1e-12
        assert res.branch_hyp is None
        assert res.eps_small is None

    def test_bound_omega_formula(self):
        # extract reports omega_bound of its residual sizes and the true |z|
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
        res = ex.extract(y, ex.ExtractionConfig(setup=setup, prior=1 - 0.1j),
                         y0_reference=[mode])
        z_abs = abs(np.exp(-1j * mode.freq * setup.delta))
        assert 0.0 < res.eps0 and res.bound_omega == ex.omega_bound(
            res.eps0, res.eps1, z_abs, setup.delta)

    def test_certified_scenario(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
        cfg = ex.ExtractionConfig(setup=setup, prior=1 - 0.1j)
        res = ex.extract(y, cfg, y0_reference=[mode])
        assert res.eps_small[0]
        assert abs(res.omega_hat[0] - mode.freq) <= res.bound_omega[0]
        assert abs(np.exp(-1j * res.omega_hat[0] * setup.delta) - res.z_hat[0]) < 1e-12

    def test_amp_floor(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1e-6)
        y = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        cfg = ex.ExtractionConfig(setup=setup, prior=1 - 0.1j, amp_floor=1e-3)
        with pytest.raises(DegenerateSignalError):
            ex.extract(y, cfg, y0_reference=[mode])


    def test_rows_are_independent_extractions(self):
        # one clean row, one without energy, one too far from its prior and
        # one below the amplitude floor: each row gives what it gives alone
        setup = std_setup()
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        modes = [sm.Mode(freq=1 - 0.1j, amp=1.0), sm.Mode(freq=2 - 0.1j, amp=0.0),
                 sm.Mode(freq=1.5 - 0.2j, amp=1.0), sm.Mode(freq=1 - 0.1j, amp=1e-6)]
        priors = [1 - 0.1j, 2 - 0.1j, 1.5 - 0.2j + 2.5, 1 - 0.1j]
        tails = [tail, sm.ZERO_TAIL, tail, sm.ZERO_TAIL]
        scenes = [sm.sample_scene([m], t, sm.ZERO_NOISE, setup) for m, t in zip(modes, tails)]
        y = sm.SampledSignal(t_start=setup.t0, dt=setup.dt,
                             values=np.stack([sc.values for sc in scenes]))
        cfg = ex.ExtractionConfig(setup=setup, prior=priors, amp_floor=1e-3)
        rows = ex.extract(y, cfg, y0_reference=modes)
        assert len(rows.errors) == 4 and rows.errors[0] is None
        alone = ex.extract(scenes[0], ex.ExtractionConfig(setup=setup, prior=priors[0],
                                                          amp_floor=1e-3),
                           y0_reference=[modes[0]])
        for key in ("z_hat", "omega_hat", "eps0", "eps1", "z", "z_prior", "eps", "bound_z",
                    "bound_omega", "eps_small", "branch_hyp"):
            assert getattr(rows, key)[0] == getattr(alone, key)[0], key
        # an ended row has no residual sizes
        assert np.isnan(rows.eps0[1:]).all() and np.isnan(rows.eps1[1:]).all()
        for exc, scene, mode, prior, err in zip(
                rows.errors[1:], scenes[1:], modes[1:], priors[1:],
                (DegenerateSignalError, BranchSelectionError, DegenerateSignalError)):
            assert isinstance(exc, err)
            with pytest.raises(err, match=str(exc).replace("|", r"\|")):
                ex.extract(scene, ex.ExtractionConfig(setup=setup, prior=prior,
                                                      amp_floor=1e-3),
                           y0_reference=[mode])
        with pytest.raises(ConfigError, match="reference mode per row"):
            ex.extract(y, cfg, y0_reference=modes[:1])


class TestTransientMemory:
    def test_long_grid_extract_holds_no_grid_temporary(self):
        # a (1, 20 001) batch with its reference samples: one of its rows is
        # 320 kB, and a full-grid product of its (re, im) pairs 313 kB.  The
        # largest transient is one run buffer of 8 192 complex (128 KiB);
        # the residual y - y0 is never formed whole
        setup = sm.ObservationSetup(t0=4.0, t_len=10.0, delta=1.0, dt=10.0 / 20000)
        t = setup.grid()
        mode = sm.Mode(freq=1.6 - 0.2j, amp=1.0)
        y0 = sm.SampledSignal(setup.t0, setup.dt, sm.mode_rows([mode], t))
        noise = sm.NoiseSpec(lcg_seed=5, lcg_amplitude=1e-3, lcg_dt=setup.dt).eval(t)
        y = sm.SampledSignal(setup.t0, setup.dt, y0.values + noise)
        cfg = ex.ExtractionConfig(setup=setup, prior=mode.freq)
        ex.extract(y, cfg, [mode], y0)  # the setup's quadrature, computed once
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ex.extract(y, cfg, [mode], y0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = ex.extract(y, cfg, [mode], y0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the fault count depends on the allocator and the OS: reported only
        print(f"extract of (1, 20001): peak {peak} B above its inputs, {faults} minor faults")
        assert res.errors == [None] and 0.0 < res.eps0[0] < 1e-2
        assert peak < 160 * 1024


class TestEpsilonBudget:
    def test_zero_tail_and_noise(self):
        b = ex.epsilon_budget(1.0, 1 - 0.1j, sm.ZERO_TAIL, 0.0, std_setup())
        assert b["eps_bound"] == 0.0

    def test_explicit_value(self):
        # envelope(4) * sqrt(10) / sqrt(plateau energy at T0=4)
        setup = std_setup(t0=4.0, dt=0.5)
        tail = sm.TailSpec(c_tail=1.0, nu=0.5, m=2)
        b = ex.epsilon_budget(1.0, 1 - 0.1j, tail, 0.0, setup)
        envelope = np.exp(-2.0) / 25.0
        denom = np.sqrt(sm.mode_energy_lower_bound(1.0, 1 - 0.1j, setup))
        want = envelope * np.sqrt(10.0) / denom
        assert abs(b["eps_tail_bound"] - want) < 1e-14
        assert abs(want - 0.014542) < 1e-6

    def test_start_time_scaling(self):
        # doubling T0 from 4 to 8 with nu+Im(omega)=0.4 shrinks the tail
        # budget by e^{-1.6} (5/9)^2 exactly (m=2 polynomial factor included)
        tail = sm.TailSpec(c_tail=1.0, nu=0.5, m=2)
        freq = 1 - 0.1j
        b4 = ex.epsilon_budget(1.0, freq, tail, 0.0, std_setup(t0=4.0, dt=0.5))
        b8 = ex.epsilon_budget(1.0, freq, tail, 0.0, std_setup(t0=8.0, dt=0.5))
        ratio = b8["eps_tail_bound"] / b4["eps_tail_bound"]
        want = np.exp(-4 * 0.4) * (5.0 / 9.0) ** 2
        assert abs(ratio - want) < 1e-12

    def test_budget_dominates_measured_eps(self, rng):
        for _ in range(30):
            mode = sm.Mode(freq=complex(rng.uniform(0.5, 2), -rng.uniform(0.05, 0.2)),
                           amp=rng.uniform(0.5, 2.0))
            tail = sm.TailSpec(c_tail=rng.uniform(0.01, 0.2),
                               nu=rng.uniform(0.3, 1.0), m=int(rng.integers(0, 3)))
            setup = std_setup(t0=float(rng.uniform(1, 4)))
            r = sm.sample_scene([], tail, sm.ZERO_NOISE, setup)
            sizes = residual_sizes(sampled([mode], setup), r, setup)
            b = ex.epsilon_budget(mode.amp, mode.freq, tail, 0.0, setup)
            assert sizes["eps"] <= b["eps_bound"]

    def test_undamped_rejected(self):
        with pytest.raises(DegenerateSignalError):
            ex.epsilon_budget(1.0, 1.0 + 0.0j, sm.ZERO_TAIL, 0.0, std_setup())


class TestDiskCheck:
    def test_prior_itself(self):
        assert disk_check(1.0 - 0.1j, 1.0 - 0.1j, 0.2)["in_disk"]

    def test_boundary_exceeded(self):
        assert not disk_check(1.2, 1.0, 0.2)["in_disk"]

    def test_sufficient_condition_scenario(self):
        # eps exactly at the sufficient level, true pole within c_sep/4 of
        # the prior: membership guaranteed by the chain and observed
        setup = std_setup()
        omega = 1 - 0.1j
        c_sep = 0.4
        prior = omega + c_sep / 4.0
        mode = sm.Mode(freq=omega, amp=1.0)
        z_abs = abs(np.exp(-1j * omega * setup.delta))
        eps_level = (c_sep / 40.0) * setup.delta * z_abs
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        r = sm.sample_scene([], tail, sm.ZERO_NOISE, setup)
        sizes = residual_sizes(sampled([mode], setup), r, setup)
        scale = eps_level / sizes["eps"]
        tail = sm.TailSpec(c_tail=0.05 * scale, nu=0.5)
        y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
        cfg = ex.ExtractionConfig(setup=setup, prior=prior)
        res = ex.extract(y, cfg, y0_reference=[mode])
        out = disk_check(res.omega_hat, prior, c_sep, eps=res.eps,
                            delta=setup.delta, z_abs=z_abs)
        assert out["eps_sufficient"]
        assert out["in_disk"]


class TestCertifiedInequalities:
    """Randomized continuum-level checks via closed-form inner products."""

    def test_denominator_lower_bound(self, rng):
        for _ in range(200):
            mode, residual, setup, eps0, _, _ = scaled_scene(
                rng, float(rng.uniform(0.0, 0.24)))
            y = [mode] + residual
            den = weighted_inner_exact(y, y, setup).real
            n0_sq = weighted_inner_exact([mode], [mode], setup).real
            assert den >= (1 - 2 * eps0) * n0_sq * (1 - 1e-12)

    def test_rayleigh_stability_bounds(self, rng):
        for _ in range(300):
            mode, residual, setup, eps0, eps1, eps = scaled_scene(
                rng, float(rng.uniform(0.0, 0.125)))
            z = np.exp(-1j * mode.freq * setup.delta)
            z_hat = rayleigh_exact(mode, residual, setup)
            err = abs(z_hat - z)
            assert err <= 3.0 * eps * (1 + 1e-12)
            assert err <= ex.stability_bound(eps0, eps1) * (1 + 1e-12)

    def test_frequency_error_bound(self, rng):
        count = 0
        while count < 300:
            z_target = float(rng.uniform(0.0, 0.125))
            mode, residual, setup, eps0, eps1, eps = scaled_scene(rng, z_target)
            z = np.exp(-1j * mode.freq * setup.delta)
            if eps > min(0.125, abs(z) / 20.0):
                continue
            count += 1
            z_hat = rayleigh_exact(mode, residual, setup)
            omega_hat = ex.branch_log(z_hat, mode.freq, setup.delta)
            bound = ex.omega_bound(eps0, eps1, abs(z), setup.delta)
            assert abs(omega_hat - mode.freq) <= bound * (1 + 1e-12)
