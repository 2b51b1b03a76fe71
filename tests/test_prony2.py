import numpy as np
import pytest
from conftest import calibrate_c_hat

from ringlab import prony2 as p2
from ringlab.errors import ConfigError, StructureError


def two_mode_samples(a1, a2, z1, z2):
    return [a1 * z1**j + a2 * z2**j for j in range(4)]


class TestHankelDet:
    def test_reference_samples(self):
        assert abs(p2.hankel_det(2, 1.4, 1.06) - 0.16) < 1e-15

    def test_factorization_value(self):
        ys = two_mode_samples(1.0, 2.0, 0.9, 0.8 + 0.1j)
        want = 2.0 * (0.1 - 0.1j) ** 2
        assert abs(p2.hankel_det(*ys[:3]) - want) < 1e-14
        assert abs(want - (-0.04j)) < 1e-15

    def test_coalesced_nodes(self):
        ys = two_mode_samples(1.0, 2.0, 0.7, 0.7)
        assert abs(p2.hankel_det(*ys[:3])) < 1e-15

    def test_factorization_random(self, rng):
        for _ in range(500):
            a1 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            a2 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            while True:
                z1 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
                z2 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
                if abs(z1 - z2) >= 0.1:
                    break
            ys = two_mode_samples(a1, a2, z1, z2)
            got = p2.hankel_det(*ys[:3])
            want = a1 * a2 * (z1 - z2) ** 2
            assert abs(got - want) <= 1e-12 * abs(want)


class TestProny4:
    def test_reference_recovery(self):
        res = p2.prony4(2, 1.4, 1.06, 0.854)
        assert not res.confluent
        assert abs(res.s1 - 1.4) < 1e-12
        assert abs(res.s2 - 0.45) < 1e-12
        assert abs(res.delta0 - 0.16) < 1e-12
        roots = sorted([res.z1, res.z2], key=lambda z: -z.real)
        assert abs(roots[0] - 0.9) < 1e-10
        assert abs(roots[1] - 0.5) < 1e-10

    def test_rank_one_routes_to_confluent(self):
        ys = [0.9**j for j in range(4)]
        res = p2.prony4(*ys)
        assert res.confluent
        assert abs(res.z1 - 0.9) < 1e-12
        assert abs(res.b1) < 1e-12

    def test_perturbed_within_conditioning_bound(self, rng):
        a1 = a2 = 1.0
        z1, z2 = 0.9, 0.5
        eta = 1e-6
        ys = two_mode_samples(a1, a2, z1, z2)
        bound = p2.CALIBRATED_C_HAT * eta / (abs(a1 * a2) * abs(z1 - z2) ** 3)
        for _ in range(50):
            pert = [y + eta * np.exp(2j * np.pi * rng.random()) for y in ys]
            res = p2.prony4(*pert, z_priors=(z1, z2))
            assert abs(res.z1 - z1) <= bound
            assert abs(res.z2 - z2) <= bound

    def test_exactness_random(self, rng):
        for _ in range(300):
            a1 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            a2 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            while True:
                z1 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
                z2 = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
                if abs(z1 - z2) >= 1e-3:
                    break
            res = p2.prony4(*two_mode_samples(a1, a2, z1, z2),
                            z_priors=(z1, z2), force_two_node=True)
            scale = max(abs(z1), abs(z2))
            assert abs(res.z1 - z1) <= 1e-10 * scale
            assert abs(res.z2 - z2) <= 1e-10 * scale
            assert abs(res.s1 - (z1 + z2)) <= 1e-10 * max(1, abs(z1 + z2))
            assert abs(res.s2 - z1 * z2) <= 1e-10 * max(1, abs(z1 * z2))


class TestLabelRoots:
    def test_identity(self):
        perm, amb = p2.label_roots((0.9, 0.5), (0.9, 0.5))
        assert perm == (0, 1) and not amb

    def test_transposition(self):
        perm, amb = p2.label_roots((0.5, 0.9), (0.9, 0.5))
        assert perm == (1, 0) and not amb

    def test_midpoint_ambiguous(self):
        _, amb = p2.label_roots((0.7, 0.7), (0.9, 0.5))
        assert amb

    def test_distinct_priors_required(self):
        with pytest.raises(ConfigError):
            p2.label_roots((0.9, 0.5), (0.7, 0.7))


class TestConditioningReport:
    def test_zero_noise(self):
        rep = p2.conditioning_report(1.0, 1.0, 0.9, 0.5, 0.0, probe=False)
        assert rep["bound"] == 0.0

    def test_cubic_law_in_separation(self):
        r1 = p2.conditioning_report(1.0, 1.0, 0.9, 0.5, 1e-8, probe=False)
        r2 = p2.conditioning_report(1.0, 1.0, 0.8, 0.6, 1e-8, probe=False)
        assert abs(r2["bound"] / r1["bound"] - 8.0) < 1e-12

    def test_probe_slope_in_window(self):
        probe = p2.separation_scaling_probe(eta=1e-8)
        assert -3.5 <= probe["slope"] <= -2.5

    def test_end_to_end_slope_reflects_cancellation(self):
        probe = p2.separation_scaling_probe(eta=1e-8, protocol="end-to-end")
        assert -2.5 <= probe["slope"] <= -1.5

    def test_smallness_gate(self):
        rep = p2.conditioning_report(1.0, 1.0, 0.9, 0.5, 1e-8, probe=False)
        assert rep["smallness_ok"]
        rep2 = p2.conditioning_report(1.0, 1.0, 0.71, 0.7, 1e-3, probe=False)
        assert not rep2["smallness_ok"]

    def test_coalesced_rejected(self):
        with pytest.raises(StructureError):
            p2.conditioning_report(1.0, 1.0, 0.7, 0.7, 1e-8)


class TestDeterminantStability:
    def test_det_lower_bound_under_smallness(self, rng):
        # |delta0_perturbed| >= |delta0|/2 whenever eta <= c0 |a1 a2| sep^4
        for _ in range(200):
            a1 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            a2 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            sep = rng.uniform(0.1, 0.5)
            z1 = 0.7 + sep / 2
            z2 = 0.7 - sep / 2
            eta = p2.SMALLNESS_C0 * abs(a1 * a2) * sep**4
            ys = two_mode_samples(a1, a2, z1, z2)
            delta0 = p2.hankel_det(*ys[:3])
            pert = [y + eta * np.exp(2j * np.pi * rng.random()) for y in ys]
            delta0_pert = p2.hankel_det(*pert[:3])
            assert abs(delta0_pert) >= abs(delta0) / 2.0


class TestConfluentFit:
    def test_exact_confluent_recovery(self):
        ys = [(1.0 + 1.0 * j) * 0.9**j for j in range(4)]
        res = p2.confluent_fit(*ys)
        assert abs(res.z1 - 0.9) < 1e-12
        assert abs(res.b0 - 1.0) < 1e-12
        assert abs(res.b1 - 1.0) < 1e-12
        assert abs(res.s1 - 1.8) < 1e-12
        assert abs(res.s2 - 0.81) < 1e-12
        assert res.residual < 1e-12

    def test_degenerate_confluent(self):
        ys = [0.9**j for j in range(4)]
        res = p2.confluent_fit(*ys)
        assert abs(res.z1 - 0.9) < 1e-12 and abs(res.b1) < 1e-14

    def test_two_mode_data_prefers_two_node(self):
        ys = two_mode_samples(1.0, 1.0, 0.85, 0.55)  # separation 0.3
        two = p2.two_node_fit(*ys)
        conf = p2.confluent_fit(*ys)
        assert two.residual < conf.residual

    def test_random_confluent_exact(self, rng):
        for _ in range(200):
            b0 = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
            b1 = rng.uniform(0.0, 2) * np.exp(2j * np.pi * rng.random())
            z = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.random())
            ys = [(b0 + b1 * j) * z**j for j in range(4)]
            res = p2.confluent_fit(*ys)
            assert abs(res.z1 - z) < 1e-8 * abs(z)
            assert abs(res.b0 - b0) < 1e-8 * abs(b0)
            assert abs(res.b1 - b1) < 1e-8 * max(abs(b1), 1.0)


class TestCalibration:
    def test_frozen_constant_matches_recalibration(self):
        assert abs(calibrate_c_hat() - p2.CALIBRATED_C_HAT) < 0.01

    def test_validation_grid_no_exceedance(self, rng):
        # disjoint finer grid than the calibration grid
        eta = 1e-8
        for sep in (0.08, 0.15, 0.25, 0.35, 0.45):
            for m1 in (0.6, 1.1, 1.7):
                for m2 in (0.7, 1.3):
                    a1 = m1 * np.exp(2j * np.pi * rng.random())
                    a2 = m2 * np.exp(2j * np.pi * rng.random())
                    z1, z2 = 0.7 + sep / 2, 0.7 - sep / 2
                    err = p2.worst_case_root_error(a1, a2, z1, z2, eta,
                                                   n_directions=32,
                                                   seed=int(1000 * sep))
                    bound = p2.CALIBRATED_C_HAT * eta / (abs(a1 * a2) * sep**3)
                    assert err <= bound
