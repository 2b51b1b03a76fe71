import numpy as np
import pytest

from ringlab import analytic_window as aw
from ringlab import signal_model as sm
from ringlab.errors import ConfigError


def random_nodes(rng, n, min_sep=1e-3):
    while True:
        vals = rng.uniform(-3, 3, n + 1) + 1j * rng.uniform(-3, 0, n + 1)
        nodes = aw.PseudopoleSet(tuple(vals))
        if nodes.min_sep >= min_sep:
            return nodes


class TestLagrangeWeight:
    def test_two_nodes_explicit(self):
        nodes = aw.PseudopoleSet((0.0, -1.0j))
        g = aw.lagrange_weight(nodes, 1)
        # G(omega) = i*omega
        assert abs(g(-1.0j) - 1.0) < 1e-15
        assert abs(g(0.0)) < 1e-15
        assert abs(g(2.0) - 2.0j) < 1e-15

    def test_single_node_constant_one(self):
        g = aw.lagrange_weight(aw.PseudopoleSet((1.0,)), 0)
        assert g(17.3 - 2j) == 1.0

    def test_direct_ratio(self):
        nodes = aw.PseudopoleSet((10 - 0.5j, 10 - 1.5j))
        g = aw.lagrange_weight(nodes, 1)
        assert abs(g(10 - 1.0j) - 0.5) < 1e-15

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ConfigError):
            aw.PseudopoleSet((1.0, 1.0))

    def test_identities_random_sets(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            nodes = random_nodes(rng, n)
            m = int(rng.integers(0, n + 1))
            g = aw.lagrange_weight(nodes, m)
            for j, node in enumerate(nodes.nodes):
                want = 1.0 if j == m else 0.0
                assert abs(g(node) - want) <= 1e-12 * max(
                    1.0, np.abs(nodes.nodes).max())


class TestModifiedWindow:
    def test_zero_at_origin_and_one_at_target(self):
        nodes = aw.PseudopoleSet((10 - 0.5j, 10 - 1.5j))
        w = aw.modified_window(nodes, target=1, m0=3)
        assert abs(w(0.0)) == 0.0
        assert abs(w(10 - 1.5j) - 1.0) < 1e-14
        assert abs(w(10 - 0.5j)) < 1e-14

    def test_default_m0(self):
        nodes = aw.PseudopoleSet((2.0 - 0.1j, 2.0 - 0.3j, 2.0 - 0.5j))
        w = aw.modified_window(nodes)
        assert w.m0 == 4 and w.degree == 6

    def test_origin_target_rejected(self):
        nodes = aw.PseudopoleSet((0.0, -1.0j))
        with pytest.raises(ConfigError):
            aw.modified_window(nodes, target=0, m0=2)

    @pytest.mark.parametrize("target", [-1, 2, 5])
    def test_target_out_of_range_rejected(self, target):
        nodes = aw.PseudopoleSet((2.0 - 0.1j, 2.0 - 0.3j))
        with pytest.raises(ConfigError, match="target index out of range"):
            aw.modified_window(nodes, target=target)

    def test_m0_zero_of_correct_order(self):
        nodes = aw.PseudopoleSet((3 - 0.2j, 3 - 0.6j))
        m0 = 3
        w = aw.modified_window(nodes, target=0, m0=m0)
        coeffs = w.coefficients()
        assert np.allclose(coeffs[:m0], 0.0)
        assert abs(coeffs[m0]) > 0

    def test_coefficients_match_product_form(self, rng):
        for _ in range(20):
            nodes = random_nodes(rng, int(rng.integers(1, 4)))
            w = aw.modified_window(nodes, m0=int(rng.integers(0, 4)) + 1)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            coeffs = w.coefficients()
            horner = 0.0
            for c in coeffs[::-1]:
                horner = horner * z + c
            assert abs(horner - w(z)) < 1e-10 * max(1.0, abs(horner))


class TestGrowthProfile:
    def test_constant_window(self):
        g = aw.lagrange_weight(aw.PseudopoleSet((1.0,)), 0)
        prof = aw.growth_profile(g, 0.5, [0.0, 10.0, 1e3])
        assert np.allclose(prof, 1.0)

    def test_leading_coefficient_limit(self):
        nodes = aw.PseudopoleSet((2 - 0.2j, 2 - 0.5j, 2 - 0.8j))
        w = aw.modified_window(nodes, m0=2)
        lead = abs(w.coefficients()[-1])
        sigma = np.array([1e3, 1e4, 1e5])
        prof = aw.growth_profile(w, 0.5, sigma)
        ratio = prof / np.abs(sigma) ** w.degree
        assert abs(ratio[-1] - lead) < 1e-3 * lead

    def test_uniform_boundedness_under_node_scaling(self):
        # nodes at scale ell, m0 >= n: sup over |sigma| <= R stays bounded in ell
        base = np.array([1 - 0.1j, 1 - 0.3j])
        sigma = np.linspace(-10, 10, 201)
        sups = []
        for ell in (10.0, 100.0, 1000.0):
            nodes = aw.PseudopoleSet(tuple(ell * base))
            w = aw.modified_window(nodes, target=1, m0=3)
            sups.append(aw.growth_profile(w, 0.5, sigma).max())
        assert max(sups) < 10.0
        assert sups[2] <= sups[0] * 1.5 + 1.0

    def test_derivative_profile(self):
        nodes = aw.PseudopoleSet((0.0, 2.0))
        g = aw.lagrange_weight(nodes, 1)  # omega/2
        prof = aw.growth_profile(g, 0.3, [0.0, 5.0], r=1)
        assert np.allclose(prof, 0.5)


class TestInterpRobustness:
    def test_zero_perturbation(self):
        nodes = aw.PseudopoleSet((-0.5j, -1.5j))
        rob = aw.interp_robustness(nodes, nodes.nodes)
        assert rob["dev_target"] == 0.0
        assert all(d == 0.0 for d in rob["dev_off"])

    def test_explicit_bound_value(self):
        nodes = aw.PseudopoleSet((-0.5j, -1.5j))
        pert = (-0.5j + 0.05, -1.5j + 0.05j)
        rob = aw.interp_robustness(nodes, pert)
        assert abs(rob["bound"] - 4.0 * (5.0 / 3.0) * 0.05) < 1e-12
        assert rob["hypothesis_ok"]
        assert rob["dev_target"] <= rob["bound"]
        assert max(rob["dev_off"]) <= rob["bound"]

    def test_bound_over_random_draws(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            nodes = random_nodes(rng, n, min_sep=0.3)
            delta = rng.uniform(0.0, nodes.min_sep / 8.0)
            pert = [z + delta * np.exp(2j * np.pi * rng.random())
                    for z in nodes.nodes]
            rob = aw.interp_robustness(nodes, pert)
            assert rob["hypothesis_ok"]
            assert rob["dev_target"] <= rob["bound"] + 1e-15
            assert all(d <= rob["bound"] + 1e-15 for d in rob["dev_off"])

    def test_hypothesis_flag_only(self):
        nodes = aw.PseudopoleSet((0.0, 1.0))
        rob = aw.interp_robustness(nodes, (0.5, 1.5))
        assert not rob["hypothesis_ok"]  # computed, not asserted


class TestPriorMismatch:
    def test_identical(self):
        nodes = aw.PseudopoleSet((1.0, 2.0))
        out = aw.prior_mismatch(nodes, nodes)
        assert out["delta"] == 0.0

    def test_single_shift(self):
        a = aw.PseudopoleSet((0.0, 1.0))
        b = aw.PseudopoleSet((0.02, 1.0))
        out = aw.prior_mismatch(a, b)
        assert abs(out["ratio"] - 0.02 / 0.98) < 1e-12

    def test_linear_scaling_in_ell(self):
        # lattice nodes ell*u(p) vs ell*u(p~): delta grows linearly in ell
        base_p = np.array([1.0 - 0.1j, 1.0 - 0.3j])
        base_pt = base_p + 0.004
        deltas = []
        for ell in (10.0, 20.0, 40.0):
            a = aw.PseudopoleSet(tuple(ell * base_p))
            b = aw.PseudopoleSet(tuple(ell * base_pt))
            deltas.append(aw.prior_mismatch(a, b)["delta"])
        slope = np.polyfit(np.log([10, 20, 40]), np.log(deltas), 1)[0]
        assert abs(slope - 1.0) < 1e-6


class TestApplyWindowModal:
    def test_identity_window(self):
        g = aw.lagrange_weight(aw.PseudopoleSet((1.0,)), 0)
        modes = [sm.Mode(freq=2 - 0.1j, amp=1.5)]
        out = aw.apply_window_modal(modes, g)
        assert out[0].amp == modes[0].amp

    def test_node_cancellation(self):
        nodes = aw.PseudopoleSet((2 - 0.1j, 2 - 0.4j))
        w = aw.modified_window(nodes, target=1, m0=3)
        modes = [sm.Mode(freq=2 - 0.1j, amp=1.0), sm.Mode(freq=2 - 0.4j, amp=1.0)]
        out = aw.apply_window_modal(modes, w)
        assert abs(out[0].amp) < 1e-13
        assert abs(out[1].amp - 1.0) < 1e-13

    def test_near_target_taylor(self):
        nodes = aw.PseudopoleSet((2 - 0.1j, 2 - 0.4j))
        w = aw.modified_window(nodes, target=1, m0=3)
        eps = 1e-6
        target = nodes.nodes[1]
        mode = sm.Mode(freq=target + eps, amp=1.0)
        out = aw.apply_window_modal([mode], w)
        deriv = w.derivative(target, 1)
        assert abs(out[0].amp - (1.0 + eps * deriv)) < 1e-10


class TestApplyWindowFd:
    def _mode_signal(self, omega, dt, t0=0.0, n=400):
        t = t0 + dt * np.arange(n)
        vals = np.exp(-1j * omega * t)
        return sm.SampledSignal(t_start=t0, dt=dt, values=vals)

    def test_identity_window(self):
        g = aw.lagrange_weight(aw.PseudopoleSet((1.0,)), 0)
        sig = self._mode_signal(1.2 - 0.1j, 0.05)
        out = aw.apply_window_fd(sig, g, stencil_order=4)
        assert np.array_equal(out.values, sig.values)

    def test_symbol_on_pure_mode(self):
        # g(omega) = omega/2 applied to exp(-i omega t) multiplies by omega/2
        nodes = aw.PseudopoleSet((0.0, 2.0))
        g = aw.lagrange_weight(nodes, 1)
        omega = 1.3 - 0.15j
        errs = []
        for dt in (0.08, 0.04):
            sig = self._mode_signal(omega, dt)
            out = aw.apply_window_fd(sig, g, stencil_order=4)
            t = out.grid()
            want = (omega / 2.0) * np.exp(-1j * omega * t)
            errs.append(np.max(np.abs(out.values - want)))
        order = np.log2(errs[0] / errs[1])
        assert abs(order - 4.0) < 0.5

    def test_two_mode_suppression_matches_modal(self):
        # degree-3 window keeps the dt^-q roundoff amplification mild
        nodes = aw.PseudopoleSet((1.0 - 0.1j, 1.0 - 0.4j))
        w = aw.modified_window(nodes, target=1, m0=2)
        dt = 0.05
        t = dt * np.arange(500)
        m1 = sm.Mode(freq=nodes.nodes[0], amp=0.8)
        m2 = sm.Mode(freq=nodes.nodes[1], amp=1.2)
        vals = m1.eval(t) + m2.eval(t)
        sig = sm.SampledSignal(t_start=0.0, dt=dt, values=vals)
        out = aw.apply_window_fd(sig, w, stencil_order=8)
        tm = out.grid()
        modal = aw.apply_window_modal([m1, m2], w)
        want = modal[0].eval(tm) + modal[1].eval(tm)
        assert np.max(np.abs(out.values - want)) < 1e-7
        # the lower mode is gone: remaining signal is the target mode alone
        target_only = m2.eval(tm)
        assert np.max(np.abs(out.values - target_only)) < 1e-6

    def test_insufficient_samples(self):
        g = aw.lagrange_weight(aw.PseudopoleSet((0.0, 2.0)), 1)
        sig = sm.SampledSignal(t_start=0.0, dt=0.1, values=np.ones(8))
        with pytest.raises(ConfigError):
            aw.apply_window_fd(sig, g, stencil_order=8)


class TestStencil:
    def test_second_derivative_exact_on_quadratic(self):
        wts = aw.centered_stencil(2, 2, 1.0)
        assert np.allclose(wts, [1.0, -2.0, 1.0])

    def test_polynomial_exactness(self):
        # stencil for d^q must be exact on polynomials through degree q+acc-1
        import math

        dt = 0.3
        for q, acc in ((1, 4), (2, 4), (3, 8)):
            wts = aw.centered_stencil(q, acc, dt)
            k = (q + acc - 1) // 2
            x = dt * np.arange(-k, k + 1)
            for deg in range(q + acc):
                got = np.dot(wts, x**deg)
                want = float(math.factorial(q)) if deg == q else 0.0
                assert abs(got - want) < 1e-8 * max(1.0, abs(want))
