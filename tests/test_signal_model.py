import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from ringlab import signal_model as sm
from ringlab.errors import ConfigError, DegenerateSignalError


def lcg_reference(seed, amplitude, n):
    """The LCG stream by its sequential Python-int recurrence, one sample a step."""
    mask = (1 << 64) - 1
    x = seed & mask
    out = np.empty(n, dtype=float)
    for k in range(n):
        x = (6364136223846793005 * x + 1442695040888963407) & mask
        out[k] = amplitude * (2.0 * (x / 2.0**64) - 1.0)
    return out


def std_setup(**kw):
    base = dict(t0=1.0, t_len=10.0, delta=1.0, dt=0.5)
    base.update(kw)
    return sm.ObservationSetup(**base)


class TestEvalScene:
    def test_empty_scene_is_zero(self):
        assert sm.eval_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, 5.0) == 0

    def test_t0_gives_amplitude(self):
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        assert sm.eval_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, 0.0) == 1.0

    def test_mode_plus_tail_closed_form(self):
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        got = sm.eval_scene([mode], tail, sm.ZERO_NOISE, 2.0)
        want = np.exp(-2j - 0.2) + 0.05 * np.exp(-1.0)
        assert abs(got - want) < 1e-15

    def test_poly_degree_prefactor(self):
        mode = sm.Mode(freq=-0.5j, amp=2.0, poly_degree=1)
        got = sm.eval_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, 3.0)
        assert abs(got - 2.0 * 3.0 * np.exp(-1.5)) < 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            sm.eval_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, -1.0)


class TestSampling:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            sm.ObservationSetup(t0=0.0, t_len=1.0, delta=0.5, dt=1.0)

    def test_constant_signal(self):
        setup = std_setup()
        sig = sm.sample_scene([sm.Mode(freq=0.0, amp=1.0)], sm.ZERO_TAIL,
                              sm.ZERO_NOISE, setup)
        assert np.allclose(sig.values, 1.0)

    def test_grid_matches_pointwise_eval(self):
        setup = std_setup()
        mode = sm.Mode(freq=1 - 0.1j, amp=1.0)
        tail = sm.TailSpec(c_tail=0.05, nu=0.5)
        sig = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
        t = setup.grid()
        want = sm.eval_scene([mode], tail, sm.ZERO_NOISE, t)
        assert np.max(np.abs(sig.values - want)) == 0.0

    def test_delta_not_multiple_of_dt(self):
        with pytest.raises(ConfigError):
            sm.ObservationSetup(t0=0.0, t_len=10.0, delta=1.0, dt=0.3)


class TestNoise:
    def test_lcg_bit_identical(self):
        setup = std_setup(t0=0.0)
        spec = sm.NoiseSpec(lcg_seed=42, lcg_amplitude=0.1, lcg_dt=setup.dt)
        a = sm.sample_scene([], sm.ZERO_TAIL, spec, setup)
        b = sm.sample_scene([], sm.ZERO_TAIL, spec, setup)
        assert np.array_equal(a.values, b.values)
        assert np.max(np.abs(a.values)) <= 0.1

    @pytest.mark.parametrize("seed", [0, 1, 12345, -7, 2**63 + 5, 2**64 - 1,
                                      8_444_111_222_333])
    def test_lcg_jump_ahead_matches_recurrence(self, seed):
        spec = sm.NoiseSpec(lcg_seed=seed, lcg_amplitude=0.37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0, 1, 2, 3, 7, 1000, 20_001, 100_000):
                got = spec._lcg_samples(n)
                want = lcg_reference(seed, 0.37, n)
                assert got.dtype == np.float64 and got.shape == (n,)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_lcg_pinned_samples(self):
        want = [0.13646065328781543, -0.5490731421044972, -0.17432336234097634]
        assert lcg_reference(42, 1.0, 3).tolist() == want
        assert sm.NoiseSpec(lcg_seed=42, lcg_amplitude=1.0)._lcg_samples(3).tolist() == want

    def test_harmonic_noise(self):
        spec = sm.NoiseSpec(harmonics=((0.2, 1.5, 0.3),))
        t = np.array([0.0, 1.0, 2.0])
        assert np.allclose(spec.eval(t), 0.2 * np.cos(1.5 * t + 0.3))

    def test_exclusive_forms(self):
        with pytest.raises(ConfigError):
            sm.NoiseSpec(harmonics=((1.0, 1.0, 0.0),), lcg_seed=3)


class TestWeight:
    def test_outside_support(self):
        assert sm.weight_eval(std_setup(), 11.0) == 0.0
        assert sm.weight_eval(std_setup(), 0.5) == 0.0

    def test_plateau_midpoint(self):
        setup = std_setup()
        mid = setup.t0 + setup.delta + (setup.t_len - 3 * setup.delta) / 2
        assert sm.weight_eval(setup, mid) == 1.0

    def test_raised_cosine_ramp_midpoint(self):
        setup = std_setup()
        assert abs(sm.weight_eval(setup, setup.t0 + setup.delta / 2) - 0.5) < 1e-12

    def test_sandwich(self):
        setup = std_setup()
        t = np.linspace(0.0, 12.0, 1001)
        w = sm.weight_eval(setup, t)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        plateau = (t >= setup.t0 + setup.delta + 1e-9) & \
                  (t <= setup.t0 + setup.t_len - 2 * setup.delta - 1e-9)
        assert np.all(w[plateau] == 1.0)

    def test_rectangular_is_plateau_indicator(self):
        setup = std_setup(taper="rectangular")
        assert sm.weight_eval(setup, 2.0) == 1.0
        assert sm.weight_eval(setup, 1.5) == 0.0


class TestWeightedInner:
    def test_zero(self):
        setup = std_setup()
        z = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        assert sm.weighted_inner(z, z, setup) == 0.0

    def test_rectangular_analytic_integral(self):
        setup = std_setup(taper="rectangular")
        f = sm.sample_scene([sm.Mode(freq=-0.1j, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        want = (np.exp(-0.4) - np.exp(-1.8)) / 0.2
        assert abs(sm.weighted_inner(f, f, setup) - want) < 1e-14

    def test_cross_frequency_oracle_vs_trapezoid(self):
        setup = std_setup(taper="rectangular", dt=0.05)
        f = sm.sample_scene([sm.Mode(freq=-1.0, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        g = sm.sample_scene([sm.Mode(freq=-2.0, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        exact = sm.weighted_inner(f, g, setup)
        # f conj(g) = e^{it} e^{-2it} = e^{-it}: integral over the plateau [2, 9]
        want = (np.exp(-9j) - np.exp(-2j)) / (-1j)
        assert abs(exact - want) < 1e-13
        trap = sm.weighted_inner(f, g, setup, method="trapezoid")
        assert abs(trap - exact) < 5e-3  # O(dt^2)

    def test_raised_cosine_closed_form_vs_quadrature(self):
        setup = std_setup()
        mode = sm.Mode(freq=1.3 - 0.2j, amp=0.7 + 0.2j)
        f = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        exact = sm.weighted_inner(f, f, setup)
        val, _ = quad(lambda t: sm.weight_eval(setup, t)
                      * abs(mode.eval(t)) ** 2, 1.0, 10.0, limit=400)
        assert abs(exact.real - val) < 1e-9
        assert abs(exact.imag) < 1e-12

    def test_grid_mismatch_rejected(self):
        setup = std_setup()
        f = sm.sample_scene([sm.Mode(freq=0.0, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        g = sm.SampledSignal(t_start=setup.t0, dt=setup.dt / 2,
                             values=np.ones(41))
        with pytest.raises(ConfigError):
            sm.weighted_inner(f, g, setup, method="trapezoid")


class TestShift:
    def test_constant(self):
        setup = std_setup()
        f = sm.sample_scene([sm.Mode(freq=0.0, amp=3.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        s = sm.shift(f, setup.delta)
        assert np.allclose(s.values, 3.0)
        assert len(s) == len(f) - setup.shift_steps

    def test_exponential_eigenrelation(self):
        setup = std_setup(dt=0.25)
        omega = 1.7 - 0.2j
        f = sm.sample_scene([sm.Mode(freq=omega, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        s = sm.shift(f, setup.delta)
        z = np.exp(-1j * omega * setup.delta)
        assert np.max(np.abs(s.values - z * f.values[:len(s)])) < 1e-14

    def test_non_multiple_rejected(self):
        setup = std_setup()
        f = sm.sample_scene([sm.Mode(freq=0.0, amp=1.0)], sm.ZERO_TAIL,
                            sm.ZERO_NOISE, setup)
        with pytest.raises(ConfigError):
            sm.shift(f, 0.3)


class TestEnergyBounds:
    def test_energy_lower_bound_value(self):
        got = sm.mode_energy_lower_bound(1.0, 1 - 0.1j, std_setup())
        want = (np.exp(-0.4) - np.exp(-1.8)) / 0.2
        assert abs(got - want) < 1e-14

    def test_zero_amplitude(self):
        assert sm.mode_energy_lower_bound(0.0, -0.1j, std_setup()) == 0.0

    def test_crude_bound_value(self):
        got = sm.mode_energy_lower_bound_crude(1.0, 1 - 0.1j, std_setup())
        assert abs(got - np.exp(-0.9) * np.sqrt(7.0)) < 1e-14

    def test_crude_needs_room(self):
        with pytest.raises(ConfigError):
            sm.mode_energy_lower_bound_crude(
                1.0, -0.1j, sm.ObservationSetup(t0=0, t_len=3.0, delta=1.0, dt=0.25))

    def test_bound_below_actual_energy(self, rng):
        for _ in range(50):
            from conftest import make_setup, random_mode
            setup = make_setup(rng)
            mode = random_mode(rng)
            actual = sm.weighted_inner_exact([mode], [mode], setup).real
            bound = sm.mode_energy_lower_bound(mode.amp, mode.freq, setup)
            assert bound <= actual * (1 + 1e-12)


class TestResidualL2:
    def test_zero(self):
        setup = std_setup()
        r = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        assert sm.residual_l2(r, setup) == 0.0

    def test_constant_on_04(self):
        setup = sm.ObservationSetup(t0=0.0, t_len=4.0, delta=1.0, dt=0.5)
        r = sm.SampledSignal(t_start=0.0, dt=0.5, values=np.ones(9))
        assert abs(sm.residual_l2(r, setup) - 2.0) < 1e-14

    def test_dominates_weighted_norms(self, rng):
        # residual domination property over random scenes
        from conftest import make_setup, random_residual_modes
        for _ in range(200):
            setup = make_setup(rng)
            modes = random_residual_modes(rng)
            r = sm.sample_scene(modes, sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
            l2 = sm.residual_l2(r, setup)
            w0 = sm.wnorm(r, setup, method="trapezoid")
            w1 = sm.wnorm(sm.shift(r, setup.delta), setup, method="trapezoid")
            assert max(w0, w1) <= l2 * (1 + 1e-12)


class TestTailMonotonicity:
    def test_envelope_nonincreasing(self):
        tail = sm.TailSpec(c_tail=1.3, nu=0.4, m=2, leak=0.0)
        t = np.linspace(0.0, 20.0, 400)
        env = tail.eval(t)
        assert np.all(np.diff(env) <= 1e-15)
