import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import mode_energy_lower_bound_crude, weighted_inner_exact
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
                got = spec.eval(np.arange(n, dtype=float))  # node k at t = k
                want = lcg_reference(seed, 0.37, n)
                assert got.dtype == np.float64 and got.shape == (n,)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_lcg_pinned_samples(self):
        want = [0.13646065328781543, -0.5490731421044972, -0.17432336234097634]
        assert lcg_reference(42, 1.0, 3).tolist() == want
        assert sm.NoiseSpec(lcg_seed=42, lcg_amplitude=1.0).eval(np.arange(3.0)).tolist() == want

    def test_harmonic_noise(self):
        spec = sm.NoiseSpec(harmonics=((0.2, 1.5, 0.3),))
        t = np.array([0.0, 1.0, 2.0])
        assert np.allclose(spec.eval(t), 0.2 * np.cos(1.5 * t + 0.3))

    def test_exclusive_forms(self):
        with pytest.raises(ConfigError):
            sm.NoiseSpec(harmonics=((1.0, 1.0, 0.0),), lcg_seed=3)


def full_grid_weight(setup, t):
    """weight_eval's raised-cosine formula with both ramps on every node: the
    oracle of the library's cosines on the ramp nodes alone."""
    t = np.asarray(t, dtype=float)
    lo, hi = setup.t0, setup.t0 + setup.t_len - setup.delta
    p_hi = setup.t0 + setup.t_len - 2 * setup.delta
    inside = (t >= lo) & (t <= hi)
    s_l = np.clip((t - lo) / setup.delta, 0.0, 1.0)
    s_r = np.clip((t - p_hi) / setup.delta, 0.0, 1.0)
    ramp_l = 0.5 * (1.0 - np.cos(np.pi * s_l))
    ramp_r = 0.5 * (1.0 + np.cos(np.pi * s_r))
    return np.where(inside, np.minimum(ramp_l, ramp_r), 0.0)


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

    @pytest.mark.parametrize("taper", ["raised-cosine", "rectangular"])
    @pytest.mark.parametrize("n", [201, 20001])
    def test_setup_holds_grid_and_weights(self, taper, n):
        setup = std_setup(dt=10.0 / (n - 1), taper=taper)
        grid, weights = setup.grid(), setup.weights
        assert np.array_equal(grid, setup.t0 + setup.dt * np.arange(n))
        # the weights sit on the grid nodes of [t0, t0+T-delta]
        nodes = setup.t0 + setup.dt * np.arange(n - setup.shift_steps)
        assert np.array_equal(weights, sm.weight_eval(setup, nodes))
        assert setup.grid() is grid and setup.weights is weights
        for arr in (grid, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        twin = std_setup(dt=10.0 / (n - 1), taper=taper)
        twin.grid(), twin.weights  # fill the twin's caches too
        assert twin == setup and hash(twin) == hash(setup)

    @pytest.mark.parametrize("seed", range(6))
    def test_ramp_only_cosines_match_full_grid(self, seed):
        # seeded setups, some with overlapping ramps (t_len < 3 delta), on
        # their grids widened past both ends, plus random off-grid times
        rng = np.random.default_rng(seed)
        dt = float(rng.choice([0.5, 0.05, 0.001]))
        steps = int(rng.integers(2, 400))
        setup = sm.ObservationSetup(t0=float(rng.integers(0, 6)),
                                    t_len=dt * steps * int(rng.integers(2, 6)),
                                    delta=dt * steps, dt=dt, taper="raised-cosine")
        pad = 3 * setup.shift_steps
        t = setup.t0 + setup.dt * np.arange(-pad, setup.n_samples + 1 + pad)
        t = np.concatenate([t, rng.uniform(t[0], t[-1], 500)])
        got, want = sm.weight_eval(setup, t), full_grid_weight(setup, t)
        assert np.any(got == 0.0) and np.any((got > 0.0) & (got < 1.0))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for ti in t[::97]:  # scalars take the same path
            assert sm.weight_eval(setup, float(ti)) == want[np.flatnonzero(t == ti)[0]]
        rect = sm.ObservationSetup(setup.t0, setup.t_len, setup.delta, dt, "rectangular")
        plateau = (t >= rect.t0 + rect.delta) & (t <= rect.t0 + rect.t_len - 2 * rect.delta)
        assert np.array_equal(sm.weight_eval(rect, t), plateau.astype(float))


class TestWeightedInner:
    def test_zero(self):
        setup = std_setup()
        z = sm.sample_scene([], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        assert sm.weighted_inner(z, z, setup) == 0.0

    def test_rectangular_analytic_integral(self):
        setup = std_setup(taper="rectangular")
        mode = sm.Mode(freq=-0.1j, amp=1.0)
        want = (np.exp(-0.4) - np.exp(-1.8)) / 0.2
        assert abs(weighted_inner_exact([mode], [mode], setup) - want) < 1e-14

    def test_cross_frequency_oracle_vs_trapezoid(self):
        setup = std_setup(taper="rectangular", dt=0.05)
        mode_f, mode_g = sm.Mode(freq=-1.0, amp=1.0), sm.Mode(freq=-2.0, amp=1.0)
        f = sm.sample_scene([mode_f], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        g = sm.sample_scene([mode_g], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
        exact = weighted_inner_exact([mode_f], [mode_g], setup)
        # f conj(g) = e^{it} e^{-2it} = e^{-it}: integral over the plateau [2, 9]
        want = (np.exp(-9j) - np.exp(-2j)) / (-1j)
        assert abs(exact - want) < 1e-13
        trap = sm.weighted_inner(f, g, setup)
        assert abs(trap - exact) < 5e-3  # O(dt^2)

    def test_raised_cosine_closed_form_vs_quadrature(self):
        setup = std_setup()
        mode = sm.Mode(freq=1.3 - 0.2j, amp=0.7 + 0.2j)
        exact = weighted_inner_exact([mode], [mode], setup)
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
            sm.weighted_inner(f, g, setup)


class TestRows:
    """(B, N) values are B signals on one grid: every reduction gives one value
    per row, each equal bit for bit to that row's own 1-d result."""

    @pytest.mark.parametrize("taper, dt, n_rows", [
        ("raised-cosine", 0.05, 7), ("rectangular", 0.05, 3),
        # 12 rows of 10 001 samples: well past the size at which numpy runs a
        # binary operator on a temporary in place
        ("raised-cosine", 0.001, 12)])
    def test_rows_reduce_like_single_signals(self, taper, dt, n_rows):
        setup = std_setup(taper=taper, dt=dt)
        rng = np.random.default_rng(3)
        modes = [sm.Mode(freq=complex(rng.uniform(-30, 30), -rng.uniform(0, 1)),
                         amp=complex(*rng.standard_normal(2))) for _ in range(n_rows)]
        rows = sm.mode_rows(modes, setup.grid())
        singles = [sm.sample_scene([m], sm.ZERO_TAIL, sm.ZERO_NOISE, setup) for m in modes]
        assert all(np.array_equal(row, one.values) for row, one in zip(rows, singles))
        noise = 1e-3 * rng.standard_normal(rows.shape)
        f = sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=rows + noise)
        g = sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=rows)
        f1 = [sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=v) for v in f.values]
        shifted = sm.shift(f, setup.delta)
        assert len(shifted) == len(f) - setup.shift_steps
        batched = {
            "inner": sm.weighted_inner(f, g, setup),
            "shifted inner": sm.weighted_inner(shifted, f, setup),
            "wnorm": sm.wnorm(f, setup), "l2": sm.residual_l2(f, setup)}
        for b, (one, single) in enumerate(zip(f1, singles)):
            alone = {
                "inner": sm.weighted_inner(one, single, setup),
                "shifted inner": sm.weighted_inner(sm.shift(one, setup.delta), one, setup),
                "wnorm": sm.wnorm(one, setup), "l2": sm.residual_l2(one, setup)}
            for name, value in alone.items():
                assert np.isscalar(value), name
                assert batched[name].shape == (n_rows,), name
                assert batched[name][b] == value, (name, b)


def trapezoid_inner(f, g, setup):
    """The weighted product as np.trapezoid of w f conj(g), the formula whose
    weights the setup's quadrature vector folds into one per node: the
    oracle of the library's one dot per row."""
    w, lo = setup.weights, setup.t0
    if setup.taper == "rectangular":
        k = setup.shift_steps
        w, lo = w[k:len(w) - k], lo + setup.delta
    return np.trapezoid(w * on_nodes(f, lo, len(w)) * np.conj(on_nodes(g, lo, len(w))),
                        dx=setup.dt, axis=-1)


def trapezoid_l2(r, setup):
    """residual_l2's oracle: sqrt of np.trapezoid of |r|^2 over [t0, t0+T]."""
    vals = on_nodes(r, setup.t0, setup.n_samples + 1)
    return np.sqrt(np.trapezoid(np.abs(vals) ** 2, dx=setup.dt, axis=-1))


def on_nodes(f, t_lo, n):
    k0 = int(round((t_lo - f.t_start) / f.dt))
    return f.values[..., k0:k0 + n]


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): |prod (1 + d_i)^(+-1) - 1| <= gamma_k
    for k roundings of relative size at most u = 2^-53."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


class TestQuadrature:
    """The setup's one quadrature vector q = dt x trapezoid end-halves x taper
    weights, and the reductions that sum against it.

    Each sum of m real terms, in any order and with up to four roundings in
    a term (the weight, the product, the trapezoid's pair sum and its dx),
    is within gamma_{m+4} sum |terms| of its exact value.  A real or
    imaginary part of <f, g>_w sums n = 2N real terms (the dot runs over
    (re, im) pairs) with sum |terms| <= sum q |f| |g|, so the dot and the
    trapezoid formula differ by at most 2 gamma_{n+4} sum q |f| |g| in
    each part."""

    @pytest.mark.parametrize("taper", ["raised-cosine", "rectangular"])
    @pytest.mark.parametrize("n", [201, 20001])
    def test_quadrature_vector(self, taper, n):
        setup = std_setup(dt=10.0 / (n - 1), taper=taper)
        k = setup.shift_steps if taper == "rectangular" else 0
        want = setup.dt * setup.weights[k:len(setup.weights) - k]
        want[0], want[-1] = want[0] / 2, want[-1] / 2
        q = setup.quadrature
        assert np.array_equal(q, want)
        assert np.shares_memory(q, setup.quadrature)  # computed once
        with pytest.raises(ValueError):
            q[1] = 0.5

    def test_empty_plateau_sums_to_zero(self):
        # t_len = 3 delta: the rectangular plateau is one node, its trapezoid 0
        setup = sm.ObservationSetup(t0=1.0, t_len=3.0, delta=1.0, dt=0.5,
                                    taper="rectangular")
        f = sm.SampledSignal(t_start=1.0, dt=0.5, values=np.ones((2, 7)))
        assert len(setup.quadrature) == 0
        assert sm.weighted_inner(f, f, setup).tolist() == [0.0, 0.0]
        assert trapezoid_inner(f, f, setup).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("taper", ["raised-cosine", "rectangular"])
    @pytest.mark.parametrize("n", [201, 20001])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dot_matches_trapezoid_oracle(self, taper, n, seed):
        setup = std_setup(dt=10.0 / (n - 1), taper=taper)
        rng = np.random.default_rng(seed)
        # 3 rows of seeded noise, each of its own magnitude, plus a damped mode
        vals = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) \
            * np.exp(rng.uniform(-3, 3, (3, 1))) + np.exp((0.7j - 0.3) * setup.grid())
        f = sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=vals)
        g = sm.SampledSignal(t_start=setup.t0, dt=setup.dt, values=vals[::-1].copy())
        q = setup.quadrature
        lo = setup.t0 + (setup.delta if taper == "rectangular" else 0.0)
        for rows in (slice(None), 0):  # (B, N) and one 1-d row
            f1, g1 = (sm.SampledSignal(s.t_start, s.dt, s.values[rows]) for s in (f, g))
            for a, b in [(f1, g1), (sm.shift(f1, setup.delta), f1), (f1, f1)]:
                got, want = sm.weighted_inner(a, b, setup), trapezoid_inner(a, b, setup)
                size = np.sum(q * np.abs(on_nodes(a, lo, len(q)))
                              * np.abs(on_nodes(b, lo, len(q))), axis=-1)
                bound = 2 * gamma(2 * len(q) + 4) * size
                assert np.all(np.abs((got - want).real) <= bound)
                assert np.all(np.abs((got - want).imag) <= bound)
            # a norm is real and nonnegative, and wnorm its root
            energy = sm.weighted_inner(f1, f1, setup)
            assert np.all(np.imag(energy) == 0.0) and np.all(np.real(energy) >= 0.0)
            norm_sq = np.asarray(sm.wnorm(f1, setup)) ** 2
            assert np.all(np.abs(norm_sq - np.real(energy)) <= gamma(3) * np.real(energy))
            # residual_l2 against sqrt(trapezoid(|r|^2)), compared as squares:
            # the roots and the squares add four roundings to each side
            size = np.sum(setup.dt * np.abs(f1.values) ** 2, axis=-1)
            got, want = sm.residual_l2(f1, setup), trapezoid_l2(f1, setup)
            assert np.all(np.abs(got ** 2 - want ** 2) <= 2 * gamma(2 * n + 8) * size)

    def test_sums_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot of over 10 000 terms across its threads; the
        # rows of a 20 001-sample grid are summed in shorter runs, so one and
        # two BLAS threads give the same bits
        script = (
            "import numpy as np\n"
            "from ringlab import signal_model as sm\n"
            "setup = sm.ObservationSetup(t0=1.0, t_len=10.0, delta=1.0, dt=0.0005)\n"
            "rng = np.random.default_rng(7)\n"
            "v = rng.standard_normal((2, 20001)) + 1j * rng.standard_normal((2, 20001))\n"
            "f = sm.SampledSignal(1.0, 0.0005, v)\n"
            "vals = [sm.weighted_inner(sm.shift(f, 1.0), f, setup), sm.wnorm(f, setup),\n"
            "        sm.residual_l2(f, setup)]\n"
            "print([x.tobytes().hex() for x in vals])\n")
        src = str(Path(sm.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def traced_peak(fn):
    """fn()'s result and the peak of the memory it held under tracemalloc,
    above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSynthesisInPlace:
    """mode_rows, the tail and the noise work in their output array.  Their
    bits are those of the out-of-place formulas they replaced, which this
    class keeps as the oracle.  Beside the output a call may hold numpy's own
    iteration buffer, at most 8 192 elements of 16 bytes (it casts t to
    complex there), never an array of the grid's length."""

    t = np.linspace(0.0, 12.0, 20_001)

    def test_mode_rows(self):
        modes = [sm.Mode(1.3 - 0.2j, 0.7 + 0.2j), sm.Mode(-0.4 - 0.05j, -1.0),
                 sm.Mode(0.0, 0.0), sm.Mode(2.0 - 0.0j, 1e-300j)]
        phase = np.array([-1j * m.freq for m in modes]).reshape(-1, 1)
        amps = np.array([m.amp for m in modes], dtype=complex).reshape(-1, 1)
        want = 0.0j + np.multiply(amps, np.exp(np.multiply(phase, self.t)))
        got, peak = traced_peak(lambda: sm.mode_rows(modes, self.t))
        assert got.tobytes() == want.tobytes()
        assert peak < got.nbytes + 8192 * 16 + 4096
        assert sm.mode_rows(modes, 0.5).tobytes() == (0.0j + amps[:, 0] * np.exp(phase[:, 0] * 0.5)).tobytes()

    def test_tail(self):
        for tail in (sm.TailSpec(c_tail=1.0, nu=0.5, m=2, leak=1e-3), sm.TailSpec(c_tail=0.3, nu=2.0),
                     sm.TailSpec(c_tail=2.0, nu=0.1, m=1)):
            env = tail.c_tail * np.exp(-tail.nu * self.t)
            if tail.m:
                env = env * (1.0 + self.t) ** (-tail.m)
            got, peak = traced_peak(lambda: tail.eval(self.t))
            assert got.tobytes() == (env + tail.leak).tobytes()
            assert peak < 2 * got.nbytes + 4096  # the output and (1 + t)^-m
            assert type(tail.eval(4.0)) is np.float64  # a scalar for a scalar t, as before
            assert tail.eval(4.0) == tail.eval(np.array([4.0]))[0]

    @pytest.mark.parametrize("spec", [
        sm.NoiseSpec(lcg_seed=9, lcg_amplitude=1e-3, lcg_dt=12.0 / 20_000),
        sm.NoiseSpec(lcg_seed=9, lcg_amplitude=-0.5, lcg_dt=12.0 / 20_000),
        sm.NoiseSpec(harmonics=((0.2, 1.5, 0.3), (-0.01, 40.0, 2.0)))])
    def test_noise(self, spec):
        want = np.zeros(self.t.shape)
        for c, mu, phi in spec.harmonics:
            want = want + c * np.cos(mu * self.t + phi)
        unit = None
        if spec.lcg_seed is not None:
            unit = spec.lcg_unit(self.t)
            want = want + spec.lcg_amplitude * unit
        got, peak = traced_peak(lambda: spec.eval(self.t, unit))
        assert got.tobytes() == want.tobytes()
        assert peak < 2 * got.nbytes + 4096  # harmonics: the output and one term
        if unit is not None:
            assert spec.eval(self.t).tobytes() == want.tobytes()
            _, peak = traced_peak(lambda: spec.eval(self.t, unit))
            assert peak < got.nbytes + 4096  # a stream is scaled into the output


def full_grid_inner(f, g, setup):
    """weighted_inner as it was before its run blocking, kept as the oracle
    of the blocked kernel: q conj(g), or for a norm the squares, formed over
    the whole grid at once and summed in runs of 8 192 terms added in order."""
    def row_dots(a, b):
        a, b = a[..., None, :], b[..., :, None]
        total = a[..., :8192] @ b[..., :8192, :]
        for k in range(8192, a.shape[-1], 8192):
            total = total + a[..., k:k + 8192] @ b[..., k:k + 8192, :]
        return total[..., 0, 0]

    pairs = setup._quadrature_pairs
    nodes = slice(int(round((setup._quadrature_t0 - f.t_start) / f.dt)), None)
    f_vals = f.values[..., nodes][..., :len(pairs) // 2]
    if f is g:
        x = np.ascontiguousarray(f_vals).view(float)
        out = row_dots(np.multiply(x, x), pairs) + 0j
    else:
        g_vals = g.values[..., nodes][..., :len(pairs) // 2]
        q_conj_g = np.multiply(np.ascontiguousarray(g_vals).view(float), pairs)
        np.negative(q_conj_g[..., 1::2], out=q_conj_g[..., 1::2])
        out = row_dots(f_vals, q_conj_g.view(complex))
    return complex(out) if out.ndim == 0 else out


def same_bits(got, want):
    """Equal values of the same kind (a scalar or an array), bit for bit."""
    assert np.ndim(got) == np.ndim(want) and type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRunBlocking:
    """weighted_inner forms its factors one _DOT_RUN run at a time; every sum
    keeps the bits of the full-grid products it replaced.  A norm sums
    2 x nodes floats in runs of 8 192 floats (4 096 nodes) and a cross
    product nodes complex terms in runs of 8 192, so the node counts put a
    run boundary just before, at and just after each kind of run."""

    @staticmethod
    def setup_with(nodes, taper):
        # dt = 2**-7 and delta = 64 steps are exact in binary
        dt, steps = 2.0**-7, 64
        length = nodes - 1 + (3 * steps if taper == "rectangular" else steps)
        setup = sm.ObservationSetup(t0=1.0, t_len=length * dt, delta=steps * dt,
                                    dt=dt, taper=taper)
        assert len(setup.quadrature) == nodes
        return setup

    @staticmethod
    def signals(setup, n_rows, seed):
        rng = np.random.default_rng(seed)
        n = setup.n_samples + 1
        shape = (n_rows, n) if n_rows else (n,)
        vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * np.exp(rng.uniform(-4, 4, shape)) + np.exp((0.7j - 0.05) * setup.grid())
        ref = 0.9 * vals + 1e-3 * rng.standard_normal(shape)
        return (sm.SampledSignal(setup.t0, setup.dt, v) for v in (vals, ref))

    @pytest.mark.parametrize("taper", ["raised-cosine", "rectangular"])
    @pytest.mark.parametrize("nodes", [4095, 4096, 4097, 8191, 8192, 8193, 16385])
    @pytest.mark.parametrize("n_rows", [0, 1, 3])  # 0: one 1-d signal
    def test_blocked_sums_equal_full_grid_ones(self, taper, nodes, n_rows):
        setup = self.setup_with(nodes, taper)
        f, g = self.signals(setup, n_rows, nodes + n_rows)
        shifted = sm.shift(f, setup.delta)
        for a, b in [(f, g), (shifted, f), (f, f), (shifted, shifted)]:
            same_bits(sm.weighted_inner(a, b, setup), full_grid_inner(a, b, setup))

    @pytest.mark.parametrize("taper", ["raised-cosine", "rectangular"])
    @pytest.mark.parametrize("nodes", [4097, 8193, 16385])
    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_difference_norm_equals_norm_of_formed_difference(self, taper, nodes, n_rows):
        # at offset 0 and at shift_steps: the norms extract takes of y - y0
        setup = self.setup_with(nodes, taper)
        y, y0 = self.signals(setup, n_rows, nodes)
        r = sm.SampledSignal(y.t_start, y.dt, y.values - y0.values)
        for k in (0, setup.shift_steps):
            a, a0, ar = (sm.shift(s, k * setup.dt) for s in (y, y0, r))
            same_bits(sm.weighted_inner(a, a, setup, minus=a0), full_grid_inner(ar, ar, setup))
            same_bits(sm.wnorm(a, setup, minus=a0), sm.wnorm(ar, setup))

    def test_empty_plateau(self):
        setup = sm.ObservationSetup(t0=1.0, t_len=3.0, delta=1.0, dt=0.5, taper="rectangular")
        f, g = (sm.SampledSignal(1.0, 0.5, v * np.ones((3, 7))) for v in (1.0 + 1.0j, 2.0))
        assert len(setup.quadrature) == 0
        for a, b, minus in [(f, g, None), (f, f, None), (f, f, g)]:
            got = sm.weighted_inner(a, b, setup, minus=minus)
            assert got.tolist() == [0.0, 0.0, 0.0]
            same_bits(got, full_grid_inner(a, b, setup))

    def test_subtrahend_needs_a_norm(self):
        setup = std_setup()
        f, g = self.signals(setup, 2, 0)
        with pytest.raises(ConfigError):
            sm.weighted_inner(f, g, setup, minus=g)


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
        got = mode_energy_lower_bound_crude(1.0, 1 - 0.1j, std_setup())
        assert abs(got - np.exp(-0.9) * np.sqrt(7.0)) < 1e-14

    def test_crude_needs_room(self):
        with pytest.raises(ConfigError):
            mode_energy_lower_bound_crude(
                1.0, -0.1j, sm.ObservationSetup(t0=0, t_len=3.0, delta=1.0, dt=0.25))

    def test_bound_below_actual_energy(self, rng):
        for _ in range(50):
            from conftest import make_setup, random_mode
            setup = make_setup(rng)
            mode = random_mode(rng)
            actual = weighted_inner_exact([mode], [mode], setup).real
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
            w0 = sm.wnorm(r, setup)
            w1 = sm.wnorm(sm.shift(r, setup.delta), setup)
            assert max(w0, w1) <= l2 * (1 + 1e-12)


class TestTailMonotonicity:
    def test_envelope_nonincreasing(self):
        tail = sm.TailSpec(c_tail=1.3, nu=0.4, m=2, leak=0.0)
        t = np.linspace(0.0, 20.0, 400)
        env = tail.eval(t)
        assert np.all(np.diff(env) <= 1e-15)
