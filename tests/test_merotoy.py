import mpmath
import numpy as np
import pytest
from conftest import fit_decay_order
from scipy.integrate import quad

from ringlab import merotoy as mt
from ringlab.errors import ConfigError, ContourError, ResolutionError, StructureError


def bump(f: mt.ForcingSpec, t):
    """The forcing's profile (t(1-t))^k e^{alpha t} on (0,1), zero outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, (t * (1.0 - t)) ** f.k * np.exp(f.alpha * t), 0.0)


def forcing_transform(f: mt.ForcingSpec, omega: complex, tol: float = 1e-10) -> np.ndarray:
    """F_hat(omega) = payload * integral of e^{i omega t} bump(t) dt, by adaptive
    quadrature: the oracle for the closed-form transform."""
    def integrand(t):
        return np.exp(1j * omega * t) * bump(f, t)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=tol,
                  limit=200, complex_func=True)
    return f.payload * val


def constant(v):
    """Batched callable with the same d-vector v at every frequency."""
    return lambda w: np.broadcast_to(v, (len(w), len(v)))


class TestForcingTransform:
    def test_zero_payload(self):
        f = mt.ForcingSpec(k=2, payload=np.zeros(2))
        assert np.allclose(forcing_transform(f, 1.0 - 0.5j), 0.0)

    def test_mean_value_positive(self):
        f = mt.ForcingSpec(k=3, payload=np.array([1.0]))
        val = forcing_transform(f, 0.0)
        assert val[0].real > 0 and abs(val[0].imag) < 1e-14

    def test_closed_form_matches_quadrature(self, rng):
        f = mt.ForcingSpec(k=4, payload=np.array([1.0, -0.3 + 0.2j]))
        for _ in range(20):
            w = complex(rng.uniform(-50, 50), rng.uniform(-2, 2))
            a = forcing_transform(f, w)
            b = f.transform(np.array([w]))[0]
            assert np.linalg.norm(a - b) < 1e-8 * max(1e-6, np.linalg.norm(b))

    def test_schwartz_decay_bounded(self):
        # |F(sigma - i nu)| (1+|sigma|)^N bounded for N <= k on [1, 100]:
        # the fitted asymptotic decay order is at least k, so each product
        # (1+sigma)^N |F| peaks and then falls off
        k = 4
        f = mt.ForcingSpec(k=k, payload=np.array([1.0]))
        sigma = np.geomspace(10.0, 1000.0, 600)
        vals = np.abs(f.transform(sigma - 0.5j)[:, 0])
        fitted = fit_decay_order(sigma, vals)
        assert fitted >= k - 0.2
        for n_exp in range(1, k + 1):
            prod = vals * (1.0 + sigma) ** n_exp
            assert prod[-1] < prod.max()  # past its peak: bounded on the ray


class TestScalarTransform:
    @staticmethod
    def reference(k: int, omega: complex) -> complex:
        """integral of (t(1-t))^k e^{s t} over (0,1) = B(k+1, k+1) 1F1(k+1; 2k+2; s),
        s = 1 + i omega (the default alpha), at 40 digits."""
        with mpmath.workdps(40):
            s = mpmath.mpc(1.0 - omega.imag, omega.real)
            return complex(mpmath.beta(k + 1, k + 1) * mpmath.hyp1f1(k + 1, 2 * k + 2, s))

    def test_matches_mpmath_up_to_k12(self):
        # both lines of the band demo, |omega| <= 200, dense across the switch
        # between the Beta series and the integration-by-parts sum
        sigma = np.unique(np.concatenate([np.linspace(-200.0, 200.0, 81),
                                          np.linspace(-25.0, 25.0, 101)]))
        worst = 0.0
        for k in range(1, 13):
            f = mt.ForcingSpec(k=k, payload=np.array([1.0]))
            for nu in (0.3, 2.3):
                omega = sigma - 1j * nu
                got = f.scalar(omega)
                want = np.array([self.reference(k, w) for w in omega])
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        assert worst < 1e-11


class TestFactoredResolvent:
    def test_vector_form_equals_matrix_times_vector(self):
        rng = np.random.default_rng(13)
        for dim in (1, 2, 3):
            for _ in range(5):
                R = mt.random_rational_resolvent(rng, dim=dim, n_poles=4, max_order=2)
                # a quadratic polynomial part, so its Horner has two steps
                hol = R.hol + tuple(rng.standard_normal((2, dim, dim))
                                    + 1j * rng.standard_normal((2, dim, dim)))
                R = mt.RationalResolvent(poles=R.poles, hol=hol, dim=dim)
                vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                omega = rng.uniform(-30.0, 30.0, 200) - 1j * rng.uniform(0.0, 3.0, 200)
                got = R.eval_many(omega, vec)
                want = R.eval_many(omega, np.eye(dim)) @ vec
                assert got.shape == (200, dim)
                err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
                assert err.max() < 1e-13

    def test_matrix_form_matches_laurent_sum(self):
        pi1 = np.array([[0.3, 0.1], [0.0, 0.5]], dtype=complex)
        a2 = np.array([[0.2, -0.1j], [0.4, 0.1]], dtype=complex)
        h0, h1 = 0.5 * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        R = mt.RationalResolvent(poles=(
            mt.Pole(omega=1 - 1j, order=1, laurent=(pi1,)),
            mt.Pole(omega=-0.5 - 1.5j, order=2, laurent=(pi1.T, a2))),
            hol=(h0, h1), dim=2)
        omega = np.array([0.3 - 0.2j, 4.0 + 0.0j, -2.5 - 3.0j])
        got = R.eval_many(omega, np.eye(2))
        for w, val in zip(omega, got):
            want = (h0 + w * h1 + pi1 / (w - (1 - 1j))
                    + pi1.T / (w - (-0.5 - 1.5j)) + a2 / (w - (-0.5 - 1.5j)) ** 2)
            assert np.linalg.norm(val - want) < 1e-14 * np.linalg.norm(want)


class TestResidueTimeTerm:
    def test_simple_pole(self):
        pole = mt.Pole(omega=1 - 1j, order=1, laurent=(np.eye(2),))
        v = np.array([1.0, 2.0])
        out = mt.residue_time_term(pole, constant(v), [1.0])[0]
        want = 1j * np.exp(-1j * (1 - 1j)) * v
        assert np.linalg.norm(out - want) < 1e-12

    def test_zero_forcing(self):
        pole = mt.Pole(omega=1 - 1j, order=2,
                       laurent=(np.eye(1), 0.5 * np.eye(1)))
        out = mt.residue_time_term(pole, constant(np.zeros(1)), [2.0])
        assert np.linalg.norm(out) == 0.0

    def test_order_two_linear_in_t(self):
        # order-2 pole with constant forcing: i e^{-i w0 t}(A1 + A2 (-i t)) v
        a1, a2 = 1.5 * np.eye(1), 0.7 * np.eye(1)
        pole = mt.Pole(omega=0.4 - 0.8j, order=2, laurent=(a1, a2))
        v = np.array([2.0])
        outs = {}
        for t in (1.0, 2.0):
            out = mt.residue_time_term(pole, constant(v), [t])[0]
            want = 1j * np.exp(-1j * pole.omega * t) * (a1 + a2 * (-1j * t)) @ v
            assert np.linalg.norm(out - want) < 1e-12
            outs[t] = out / (1j * np.exp(-1j * pole.omega * t))
        # the (alpha + beta t) structure: difference is linear in t
        beta = outs[2.0] - outs[1.0]
        alpha = outs[1.0] - beta
        assert np.linalg.norm(alpha + 2 * beta - outs[2.0]) < 1e-12

    def test_times_batch_equals_per_time(self):
        a1 = np.array([[1.5, 0.2j], [0.0, -0.4]])
        a2 = np.array([[0.7, 0.0], [0.3, 0.1 - 0.2j]])
        pole = mt.Pole(omega=0.4 - 0.8j, order=2, laurent=(a1, a2))
        fn = lambda w: np.stack([np.exp(1j * w), w**2], axis=1)
        times = [0.5, 1.0, 2.0, 5.0]
        batched = mt.residue_time_term(pole, fn, times)
        assert batched.shape == (4, 2)
        for row, t in zip(batched, times):
            single = mt.residue_time_term(pole, fn, [t])[0]
            assert np.linalg.norm(row - single) <= 1e-14 * np.linalg.norm(single)

    def test_order_two_with_derivative(self):
        pole = mt.Pole(omega=0.5 - 1j, order=2, laurent=(np.eye(1), 2 * np.eye(1)))
        fn = lambda w: np.exp(1j * w)[:, None]
        out = mt.residue_time_term(pole, fn, [1.0])[0]
        w0 = pole.omega
        want = 1j * np.exp(-1j * w0) * (
            np.exp(1j * w0) + 2 * (-1j * np.exp(1j * w0) + 1j * np.exp(1j * w0)))
        assert abs(out[0] - want) < 1e-12


class TestLineIntegral:
    def test_zero_forcing(self):
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=1 - 1j, order=1, laurent=(np.eye(1),)),), dim=1)
        f = mt.ForcingSpec(k=6, payload=np.zeros(1))
        val, _ = mt.line_integral(R, f, None, 0.5, [1.0])
        assert np.linalg.norm(val) == 0.0

    def test_envelope_bound_and_pole_rate(self):
        # contour above the pole: |I_nu(t)| <= C e^{-nu t}, and for a
        # rational family the actual rate is the topmost pole below the line
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=1 - 2j, order=1, laurent=(np.eye(1),)),), dim=1)
        f = mt.ForcingSpec(k=6, payload=np.array([1.0]))
        nu = 0.5
        ts = np.array([2.0, 4.0, 6.0, 8.0])
        v, _ = mt.line_integral(R, f, None, nu, ts, sigma_max=100.0)
        vals = np.linalg.norm(v, axis=1)
        weighted = np.exp(nu * ts) * vals
        assert np.all(np.diff(weighted) < 0)  # e^{nu t} envelope bounded
        slope = np.polyfit(ts, np.log(vals), 1)[0]
        assert abs(slope + 2.0) < 0.05  # pole at Im = -2 sets the rate

    def test_pole_on_line_rejected(self):
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=1 - 1j, order=1, laurent=(np.eye(1),)),), dim=1)
        with pytest.raises(ContourError):
            mt.line_integral(R, mt.ForcingSpec(k=6, payload=np.ones(1)), None, 1.0, [1.0])


class TestGaussKronrod:
    """The hand-copied qk21 constants and the stop rule they serve."""

    @staticmethod
    def moment_errors(weights, degree):
        # |sum_i w_i x_i^j - integral of x^j over [-1, 1]|, j = 0..degree
        j = np.arange(degree + 1)
        exact = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
        return np.abs(mt._GK_NODES[None, :] ** j[:, None] @ weights - exact)

    def test_k21_exact_to_degree_31(self):
        assert self.moment_errors(mt._GK_WEIGHTS[0], 31).max() < 1e-14

    def test_embedded_g10_exact_to_degree_19(self):
        assert self.moment_errors(mt._GK_WEIGHTS[1], 19).max() < 1e-14

    def test_embedded_g10_is_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(10)
        gauss = mt._GK_WEIGHTS[1] != 0.0
        assert np.count_nonzero(gauss) == 10
        assert np.abs(mt._GK_NODES[gauss] - x).max() < 1e-15
        assert np.abs(mt._GK_WEIGHTS[1][gauss] - w).max() < 1e-15

    def test_pass_matches_phase_at_every_node(self):
        # a pass factors each node's phase e^{-i t omega} into its panel's and
        # one its panels share; against the phase formed at every node, over
        # three blocks of panels, its accepted K21 sum agrees to the rounding
        # of t omega, and it refines exactly the panels whose K21 - G10
        # distance, at the worst time, exceeds the allowance
        rng = np.random.default_rng(5)
        R = mt.random_rational_resolvent(rng, dim=2, n_poles=3, max_order=2)
        forcing = mt.ForcingSpec(k=6, payload=np.array([1.0, 0.5j]))
        # panels wide enough for every estimate to stand far above rounding
        times, nu, half = np.array([1.0, 2.0, 5.0]), 0.3, 2.0
        mids = np.arange(-1598.0, 1600.0, 2.0 * half)
        assert mids.size * mt._GK_NODES.size > 2 * mt._GL_BLOCK

        def values(w, scalar):
            return mt._integrand(R, forcing, None, w, scalar)

        omega = (mids[:, None] + half * mt._GK_NODES).ravel() - 1j * nu
        terms = (np.exp(-1j * np.multiply.outer(times, omega))[:, :, None]
                 * values(omega, forcing.scalar(omega))
                 ).reshape(times.size, mids.size, mt._GK_NODES.size, -1)
        kronrod, gauss = half * np.einsum("tpkd,wk->wtpd", terms, mt._GK_WEIGHTS)
        error = np.linalg.norm(kronrod - gauss, axis=2).max(axis=0)
        # the allowance sits in the widest gap between the middle estimates
        middle = np.sort(error)[mids.size // 4:3 * mids.size // 4]
        gap = np.argmax(middle[1:] / middle[:-1])
        allowance = float(np.sqrt(middle[gap] * middle[gap + 1]))
        rounding = 64 * np.finfo(float).eps * np.abs(np.multiply.outer(times, omega)).max()
        for cut in (allowance, np.inf):
            total, refine = mt._gl_line_sum(values, *mt._pass(forcing, nu, times, mids, half),
                                            cut)
            assert refine.tolist() == (error > cut).tolist()
            kept = ~refine
            bound = rounding * half * np.abs(terms[:, kept]).sum(axis=(1, 2, 3))
            assert np.all(np.linalg.norm(total - kronrod[:, kept].sum(axis=1), axis=1) <= bound)

    TOL = 1e-8

    @pytest.fixture(scope="class")
    def criterion_08_lines(self):
        """Criterion 08's 50 models at tol 1e-8: for each of their 100 lines,
        its forcing, nu, times and sigma_max, its first pass's panel half
        width, the values and panel count of each of its passes, and the
        value it returns."""
        lines = []
        line_integral, first_pass, line_sum = mt.line_integral, mt._first_pass, mt._gl_line_sum

        def tracked_line(resolvent, forcing, g, nu, times, sigma_max, tol):
            lines.append({"forcing": forcing, "nu": nu, "times": times,
                          "sigma_max": sigma_max, "passes": []})
            value, tail = line_integral(resolvent, forcing, g, nu, times, sigma_max, tol)
            lines[-1]["value"] = value
            return value, tail

        def tracked_first(*args):
            mids, half, table = first_pass(*args)
            lines[-1]["half"] = half
            return mids, half, table

        def tracked_sum(values, rule, blocks, allowance):
            blocks = tuple(blocks)
            lines[-1]["passes"].append((values, sum(phase.shape[1] for *_, phase in blocks)))
            return line_sum(values, rule, blocks, allowance)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mt, "line_integral", tracked_line)
            patch.setattr(mt, "_first_pass", tracked_first)
            patch.setattr(mt, "_gl_line_sum", tracked_sum)
            for idx in range(50):
                rng = np.random.default_rng(800 + idx)
                dim = int(rng.integers(1, 4))
                resolvent = mt.random_rational_resolvent(
                    rng, dim=dim, n_poles=int(rng.integers(1, 6)), max_order=2)
                forcing = mt.ForcingSpec(k=6, payload=rng.standard_normal(dim)
                                         + 1j * rng.standard_normal(dim))
                mt.band_subtract(resolvent, forcing, None, 0.3, 2.3, (1.0, 2.0, 5.0),
                                 tol=self.TOL)
        assert len(lines) == 100
        return lines

    def test_accepted_pass_within_tol_of_finer_one(self, criterion_08_lines):
        # on every line the sum of the accepted K21 values is within tol, at
        # every time, of the uniform K21 value on panels four times finer than
        # its finest accepted panel (those of its last pass)
        worst = 0.0
        for line in criterion_08_lines:
            sigma_max, passes = line["sigma_max"], line["passes"]
            half = line["half"] / 2 ** (len(passes) - 1)
            edges = np.linspace(-sigma_max, sigma_max,
                                int(round(4.0 * sigma_max / half)) + 1)
            finer = mt._pass(line["forcing"], line["nu"], line["times"],
                             0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0]))
            reference, _ = mt._gl_line_sum(passes[-1][0], *finer, np.inf)
            worst = max(worst, float(np.linalg.norm(line["value"] - reference, axis=1).max()))
        assert worst <= self.TOL

    def test_evaluated_nodes_mostly_accepted(self, criterion_08_lines):
        # a pass evaluates only the halves of the panels the one before it
        # bisected, so of its P panels P - P_next / 2 are accepted, and at
        # least 0.9 of every evaluated node lies in an accepted panel
        evaluated = accepted = 0
        for line in criterion_08_lines:
            counts = [panels for _, panels in line["passes"]] + [0]
            evaluated += sum(counts)
            accepted += sum(p - nxt // 2 for p, nxt in zip(counts, counts[1:]))
        assert accepted >= 0.9 * evaluated


class TestFirstPassMemo:
    """The first pass's model-independent table, shared through a bounded memo.

    Every model on one line, radius, times and forcing shape reads one table;
    the results equal, bit for bit, those of a cold memo and of a first pass
    built with no table at all.
    """

    TIMES = (1.0, 2.0, 5.0)
    KEYS = ("difference", "mismatch", "truncation_estimate")

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(mt, "_FIRST_PASSES", type(mt._FIRST_PASSES)())

    @staticmethod
    def model(seed, k=6, alpha=1.0):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        resolvent = mt.random_rational_resolvent(rng, dim=dim, n_poles=4, max_order=2)
        return resolvent, mt.ForcingSpec(k=k, alpha=alpha, payload=rng.standard_normal(dim)
                                         + 1j * rng.standard_normal(dim))

    def run(self, seed, k=6, alpha=1.0, nu1=0.3, times=TIMES, sigma_max=None):
        resolvent, forcing = self.model(seed, k, alpha)
        return mt.band_subtract(resolvent, forcing, None, nu1, 2.3, times,
                                sigma_max=sigma_max, tol=1e-8)

    def assert_equal(self, a, b):
        assert a["sigma_max"] == b["sigma_max"]
        for key in self.KEYS:
            assert np.array_equal(a[key], b[key]), key

    def test_warm_table_equals_cold_and_untabulated(self, monkeypatch):
        forcing_nodes = []
        scalar = mt.ForcingSpec.scalar

        def counting(self, omega):
            forcing_nodes.append(len(omega))
            return scalar(self, omega)

        monkeypatch.setattr(mt.ForcingSpec, "scalar", counting)
        cold = self.run(3)
        cold_nodes = sum(forcing_nodes)
        assert len(mt._FIRST_PASSES) == 2  # one table per line
        forcing_nodes.clear()
        warm = self.run(3)
        # the warm run evaluates F everywhere but on its two first passes
        tabulated = sum(omega.size for _, _, (_, blocks), _ in mt._FIRST_PASSES.values()
                        for omega, _, _ in blocks)
        assert tabulated == 2 * 21 * 125
        assert sum(forcing_nodes) == cold_nodes - tabulated
        self.assert_equal(warm, cold)
        monkeypatch.setattr(mt, "_FIRST_PASS_BYTES", 0)
        mt._FIRST_PASSES.clear()
        untabulated = self.run(3)
        assert not mt._FIRST_PASSES
        self.assert_equal(untabulated, cold)

    @pytest.mark.parametrize("change", [
        {"times": (1.0, 2.0, 4.0)}, {"times": (0.5, 5.0)}, {"k": 5}, {"alpha": 0.5},
        {"nu1": 0.35}, {"sigma_max": 200.0}])
    def test_other_key_builds_its_own_table(self, change):
        # a warm memo of another line, radius, times or forcing shape is not
        # read: the changed line builds its own table, which equals a cold one
        for seed in (3, 4):
            self.run(seed, sigma_max=100.0)
        before = set(mt._FIRST_PASSES)
        warm = self.run(5, **{"sigma_max": 100.0, **change})
        assert len(set(mt._FIRST_PASSES) - before) == (1 if "nu1" in change else 2)
        mt._FIRST_PASSES.clear()
        self.assert_equal(warm, self.run(5, **{"sigma_max": 100.0, **change}))

    def test_models_share_one_table_per_line(self):
        for seed in range(6):
            self.run(seed, sigma_max=100.0)
        assert len(mt._FIRST_PASSES) == 2

    def test_memo_bounded_and_read_only(self, monkeypatch):
        for nu in (0.3, 0.4, 0.5, 0.6):
            mids, _, (rule, blocks) = mt._first_pass(self.model(1)[1], nu,
                                                     np.array(self.TIMES), 100.0)
        size = mt._table_bytes(mids.size, len(self.TIMES))
        arrays = [mids, rule, *(a for block in blocks for a in block)]
        assert size == sum(a.nbytes for a in arrays)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # a memo of two and a half tables keeps the two used last: the nu2
        # line, which every run uses, keeps its one table
        monkeypatch.setattr(mt, "_FIRST_PASS_BYTES", 5 * size // 2)
        mt._FIRST_PASSES.clear()
        nu2_tables = set()
        for seed, nu in enumerate((0.3, 0.4, 0.3, 0.5, 0.6, 0.4)):
            self.run(seed, nu1=nu, sigma_max=100.0)
            assert sum(kept[-1] for kept in mt._FIRST_PASSES.values()) <= mt._FIRST_PASS_BYTES
            assert len(mt._FIRST_PASSES) == 2
            nu2_tables.add(id(mt._first_pass(self.model(seed)[1], 2.3,
                                              np.array(self.TIMES), 100.0)[2]))
        assert len(nu2_tables) == 1
        # a table larger than the memo is not kept: its pass comes back with
        # lazy blocks, equal to the table's bit for bit
        monkeypatch.setattr(mt, "_FIRST_PASS_BYTES", size - 1)
        mt._FIRST_PASSES.clear()
        lazy_mids, _, (lazy_rule, lazy) = mt._first_pass(self.model(1)[1], 0.6,
                                                         np.array(self.TIMES), 100.0)
        assert not mt._FIRST_PASSES and not isinstance(lazy, tuple)
        assert np.array_equal(lazy_mids, mids) and np.array_equal(lazy_rule, rule)
        for got, want in zip(lazy, blocks, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


class TestChooseSigmaMax:
    @staticmethod
    def by_level(resolvent, forcing, nu, times, tol):
        """The radius search one level at a time, each envelope its own call:
        the oracle the one-call search must equal bit for bit."""
        sigma, envelopes = 50.0, []
        while sigma < mt.SIGMA_MAX_CAP:
            w = np.array([0.5, -0.5, 1.0, -1.0]) * sigma - 1j * nu
            env = np.linalg.norm(mt._integrand(resolvent, forcing, None, w, forcing.scalar(w)),
                                 axis=1)
            envelopes.append(env)
            e_half, e_full = float(env[0] + env[1]), float(env[2] + env[3])
            tail = np.zeros(len(times))
            if e_full > 0 and e_half > 0:
                p = np.log(e_half / e_full) / np.log(2.0)
                tail = (np.exp(-nu * np.asarray(times)) * e_full * sigma
                        / max(p - 1.0, 0.1) / (2.0 * np.pi))
            if tail.max() < tol / 10.0:
                return sigma, envelopes
            sigma *= 2.0
        return mt.SIGMA_MAX_CAP, envelopes

    def test_one_call_equals_level_by_level(self):
        times, chosen = (1.0, 2.0, 5.0), set()
        for k in range(1, 13):
            for seed in range(3):
                rng = np.random.default_rng(40 + seed)
                dim = int(rng.integers(1, 4))
                resolvent = mt.random_rational_resolvent(rng, dim=dim, n_poles=3)
                forcing = mt.ForcingSpec(k=k, payload=rng.standard_normal(dim)
                                         + 1j * rng.standard_normal(dim))
                for nu in (0.3, 2.3):
                    for tol in (1e-6, 1e-8):
                        want, envelopes = self.by_level(resolvent, forcing, nu, times, tol)
                        got = mt.choose_sigma_max(resolvent, forcing, None, nu, times, tol)
                        assert type(got) is float and got == want
                        sigmas = 50.0 * 2.0 ** np.arange(len(envelopes))
                        batch = mt._envelope(resolvent, forcing, None, nu, sigmas)
                        assert np.array_equal(batch, np.array(envelopes))
                        chosen.add(got)
        # the cap, the start and the levels between are all reached
        assert {50.0, 100.0, mt.SIGMA_MAX_CAP} <= chosen

    def test_truncation_estimate_is_the_searched_envelope_row(self, monkeypatch):
        # with sigma_max unset, each line's truncation estimate is, bit for
        # bit, the tail formula of the envelope row the one-call search
        # judged at the chosen radius
        line_tails, line_integral = [], mt.line_integral

        def tracked(*args):
            value, tail = line_integral(*args)
            line_tails.append(tail)
            return value, tail

        monkeypatch.setattr(mt, "line_integral", tracked)
        times = np.array([1.0, 2.0, 5.0])
        sigmas = 50.0 * 2.0 ** np.arange(7)  # every radius the search tries below the cap
        assert sigmas[-1] < mt.SIGMA_MAX_CAP <= 2.0 * sigmas[-1]
        chosen = set()
        for seed in range(6):
            rng = np.random.default_rng(60 + seed)
            dim = int(rng.integers(1, 4))
            resolvent = mt.random_rational_resolvent(rng, dim=dim, n_poles=3)
            forcing = mt.ForcingSpec(k=3 + seed, payload=rng.standard_normal(dim)
                                     + 1j * rng.standard_normal(dim))
            line_tails.clear()
            out = mt.band_subtract(resolvent, forcing, None, 0.3, 2.3, times, tol=1e-8)
            sigma = out["sigma_max"]
            assert sigma < mt.SIGMA_MAX_CAP
            row = sigmas.tolist().index(sigma)
            for nu, tail in zip((0.3, 2.3), line_tails, strict=True):
                envelope = mt._envelope(resolvent, forcing, None, nu, sigmas)[row]
                assert np.array_equal(tail, mt._tail_from_envelope(envelope, nu, times, sigma))
            assert np.array_equal(out["truncation_estimate"], line_tails[0] + line_tails[1])
            chosen.add(sigma)
        assert len(chosen) == 4  # 50 to 1 600


class TestBandSubtract:
    def _forcing(self, dim, rng):
        return mt.ForcingSpec(k=6, payload=rng.standard_normal(dim)
                              + 1j * rng.standard_normal(dim))

    def test_empty_strip(self, rng):
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=1 - 3j, order=1, laurent=(np.eye(1),)),), dim=1)
        out = mt.band_subtract(R, self._forcing(1, rng), None, 0.5, 2.0, [1.0])
        assert np.linalg.norm(out["difference"]) < 1e-8
        assert np.linalg.norm(out["residue_sum"]) == 0.0

    def test_single_simple_pole(self, rng):
        w0 = 1 - 1j
        pi1 = np.array([[0.3, 0.1], [0.0, 0.5]], dtype=complex)
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=w0, order=1, laurent=(pi1,)),), dim=2)
        forcing = self._forcing(2, rng)
        out = mt.band_subtract(R, forcing, None, 0.5, 2.0, [1.0])
        want = -1j * np.exp(-1j * w0) * pi1 @ forcing.transform(np.array([w0]))[0]
        assert np.linalg.norm(out["difference"][0] - want) < 1e-7
        assert out["mismatch"][0] < 1e-7

    def test_five_poles_mixed_orders(self, rng):
        R = mt.random_rational_resolvent(rng, dim=2, n_poles=5, max_order=2)
        out = mt.band_subtract(R, self._forcing(2, rng), None, 0.3, 2.3, [2.0])
        assert out["mismatch"][0] < 1e-6

    def test_windowed_band(self, rng):
        from ringlab import analytic_window as aw
        R = mt.random_rational_resolvent(rng, dim=2, n_poles=4, max_order=2)
        nodes = aw.PseudopoleSet((1.0 - 0.5j, 1.0 - 1.5j))
        g = aw.modified_window(nodes, target=1, m0=1)
        out = mt.band_subtract(R, self._forcing(2, rng), g, 0.3, 2.3, [1.0])
        assert out["mismatch"][0] < 1e-6

    def test_window_killing_only_pole(self, rng):
        # g vanishing at the only strip pole: band content ~ 0
        from ringlab import analytic_window as aw
        w0 = 1.0 - 1.0j
        R = mt.RationalResolvent(
            poles=(mt.Pole(omega=w0, order=1, laurent=(np.eye(1),)),), dim=1)
        nodes = aw.PseudopoleSet((w0, 2.0 - 0.2j))
        g = aw.lagrange_weight(nodes, 1)  # zero at w0
        out = mt.band_subtract(R, self._forcing(1, rng), g, 0.5, 1.5, [1.0])
        assert np.linalg.norm(out["difference"]) < 1e-7


class TestTimesBatch:
    """One band_subtract call serves every time from the same node sets.

    The poles sit at least 0.5 below or above each line, so the integrand has
    no sharp peak on either line and the refinement stops once the
    e^{-i sigma t} oscillation of the largest time is resolved.
    """

    TIMES = [1.0, 2.0, 5.0]

    def _model(self):
        pi1 = np.array([[0.3, 0.1], [0.0, 0.5]], dtype=complex)
        a2 = np.array([[0.2, -0.1j], [0.4, 0.1]], dtype=complex)
        R = mt.RationalResolvent(poles=(
            mt.Pole(omega=1 - 1j, order=1, laurent=(pi1,)),
            mt.Pole(omega=-0.5 - 1.5j, order=2, laurent=(pi1.T, a2)),
            mt.Pole(omega=0.3 - 3j, order=1, laurent=(a2,))), dim=2)
        return R, mt.ForcingSpec(k=6, payload=np.array([1.0, -0.5 + 0.3j]))

    def test_nodes_shared_across_times(self, monkeypatch):
        R, forcing = self._model()
        nodes = []
        eval_many = mt.RationalResolvent.eval_many

        def counting(self, omega, *args):
            nodes.append(len(omega))
            return eval_many(self, omega, *args)

        monkeypatch.setattr(mt.RationalResolvent, "eval_many", counting)
        counts = []
        for times in (self.TIMES, *([t] for t in self.TIMES)):
            nodes.clear()
            mt.band_subtract(R, forcing, None, 0.5, 2.0, times, sigma_max=100.0)
            counts.append(sum(nodes))
        # a panel's error estimate is its worst over the times, so the batch
        # refines the union of the panels each time refines alone
        batch, single = counts[0], counts[1:]
        assert 0 < max(single) <= batch <= sum(single)

    def test_rows_match_single_time_calls_and_oracle(self):
        R, forcing = self._model()
        out = mt.band_subtract(R, forcing, None, 0.5, 2.0, self.TIMES)
        assert out["difference"].shape == out["residue_sum"].shape == (3, 2)
        assert out["mismatch"].shape == out["truncation_estimate"].shape == (3,)
        assert isinstance(out["sigma_max"], float)
        for j, t in enumerate(self.TIMES):
            single = mt.band_subtract(R, forcing, None, 0.5, 2.0, [t])
            assert np.linalg.norm(out["difference"][j] - single["difference"][0]) < 1e-9
            assert np.linalg.norm(out["difference"][j] - out["residue_sum"][j]) < 1e-9
            assert out["mismatch"][j] < 1e-9

    def test_one_radius_for_every_time(self):
        # the smallest time carries the largest e^{-nu t} tail, so its radius
        # serves every time
        R, forcing = self._model()
        batched = mt.band_subtract(R, forcing, None, 0.5, 2.0, self.TIMES)
        per_time = [mt.band_subtract(R, forcing, None, 0.5, 2.0, [t])["sigma_max"]
                    for t in self.TIMES]
        assert batched["sigma_max"] == max(per_time)

    def test_refinement_stops_on_convergence_not_noise(self, monkeypatch):
        # poles close to the line nu = 0.3: an F_hat with a rounding error of
        # about 1e-8 made the t = 1 refinement stop at a random level.  Now
        # [1, 2, 5] evaluates [5]'s panels and the 2 more halves (42 nodes)
        # that the smaller times need
        rng = np.random.default_rng(1)
        R = mt.random_rational_resolvent(rng, dim=2, n_poles=4, max_order=2)
        forcing = mt.ForcingSpec(k=6, payload=rng.standard_normal(2)
                                 + 1j * rng.standard_normal(2))
        nodes = []
        eval_many = mt.RationalResolvent.eval_many

        def counting(self, omega, *args):
            nodes.append(len(omega))
            return eval_many(self, omega, *args)

        monkeypatch.setattr(mt.RationalResolvent, "eval_many", counting)
        counts = []
        for times in (self.TIMES, [5.0]):
            nodes.clear()
            mt.band_subtract(R, forcing, None, 0.3, 2.3, times, sigma_max=100.0)
            counts.append(sum(nodes))
        assert counts == [5552, 5510]

    @pytest.mark.parametrize("times", [1.0, [], [[1.0]], [1.0, 0.0], [-2.0]])
    def test_bad_times_rejected(self, times):
        R, forcing = self._model()
        with pytest.raises(ConfigError):
            mt.band_subtract(R, forcing, None, 0.5, 2.0, times)


class TestRankOneResidue:
    def test_diagonal_case(self):
        p = mt.MatrixPencil(p0=np.diag([0.0, 1.0]), p1=np.eye(2), center=2.0 - 1j)
        out = mt.rank_one_residue(p, 2.0 - 1j)
        want = np.diag([1.0, 0.0])
        assert np.linalg.norm(out["projector"] - want) < 1e-12

    def test_random_pencils_vs_contour(self, rng):
        for _ in range(20):
            d = 4
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            w0 = complex(rng.standard_normal(), rng.standard_normal())
            p = mt.MatrixPencil(p0=a @ np.diag([0, 1, 1, 1.0]) @ b,
                                p1=rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)),
                                center=w0)
            out = mt.rank_one_residue(p, w0)
            oracle = mt.cauchy_residue(lambda w: np.linalg.inv(p(w)), w0,
                                       radius=1e-3)
            assert np.linalg.norm(out["projector"] - oracle) < 1e-8

    def test_denominator_scaling(self):
        p1 = np.eye(2)
        base = mt.MatrixPencil(p0=np.diag([0.0, 1.0]), p1=p1)
        scaled = mt.MatrixPencil(p0=np.diag([0.0, 1.0]), p1=3.0 * p1)
        a = mt.rank_one_residue(base, 0.0)
        b = mt.rank_one_residue(scaled, 0.0)
        assert np.linalg.norm(b["projector"] - a["projector"] / 3.0) < 1e-12

    def test_full_rank_rejected(self):
        p = mt.MatrixPencil(p0=np.eye(2), p1=np.eye(2))
        with pytest.raises(StructureError):
            mt.rank_one_residue(p, 0.0)

    def test_two_dim_kernel_rejected(self):
        p = mt.MatrixPencil(p0=np.diag([0.0, 0.0, 1.0]), p1=np.eye(3))
        with pytest.raises(StructureError):
            mt.rank_one_residue(p, 0.0)


class TestAmplitudePairing:
    def test_blind_detector(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = mt.amplitude_pairing(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                   np.array([1.0, 0.0]), swap,
                                   np.array([1.0, 0.0]))
        assert out == 0.0

    def test_dual_orthogonal_data(self):
        out = mt.amplitude_pairing(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                   np.array([1.0, 0.0]), np.eye(2),
                                   np.array([1.0, 0.0]))
        assert out == 0.0

    def test_diagonal_example(self):
        p = mt.MatrixPencil(p0=np.diag([0.0, 1.0]), p1=np.eye(2))
        ro = mt.rank_one_residue(p, 0.0)
        a = mt.amplitude_pairing(np.array([1.0, 0.0]), ro["u0"], ro["v0"],
                                 p.p1, np.array([1.0, 0.0]))
        # pairing * detector reproduce the projector's (1,1) entry
        assert abs(a - ro["projector"][0, 0]) < 1e-12

    def test_matches_residue_contribution(self, rng):
        # amplitude from dual states equals detector applied to Pi F
        d = 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p = mt.MatrixPencil(p0=a @ np.diag([0, 1, 1.0]) @ b,
                            p1=rng.standard_normal((d, d)))
        ro = mt.rank_one_residue(p, 0.0)
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        det = rng.standard_normal(d)
        amp = mt.amplitude_pairing(f, ro["u0"], ro["v0"], p.p1, det)
        want = np.dot(det, ro["projector"] @ f)
        assert abs(amp - want) < 1e-10


class TestPseudospectrum:
    def test_scalar_model_exact_disk(self):
        m = mt.PseudospectrumModel(poles=(0.5 - 1j,), e_plus=2.0, e_minus=2.0)
        re = np.linspace(-0.5, 1.5, 301)
        im = np.linspace(-2.0, 0.0, 301)
        eps = 0.02
        scan = mt.pseudospectrum_scan(m, re, im, eps)
        w = re[None, :] + 1j * im[:, None]
        exact = np.abs(w - (0.5 - 1j)) < 4.0 * eps
        assert np.array_equal(scan["mask"], exact)
        assert scan["violations"] == 0

    def test_shrinks_to_poles(self):
        m = mt.PseudospectrumModel(poles=(0.0 - 1j, 1.0 - 1j))
        re = np.linspace(-1, 2, 200)
        im = np.linspace(-2.5, 0.5, 200)
        flagged = [mt.pseudospectrum_scan(m, re, im, e)["n_flagged"]
                   for e in (1e-1, 1e-2, 1e-3)]
        assert flagged[0] > flagged[1] >= flagged[2]

    def test_two_pole_disjoint_disks(self):
        m = mt.PseudospectrumModel(poles=(0.0 - 1j, 1.0 - 1j))
        eps = 0.01
        # zoomed grids around each pole resolve the disks
        for pole in m.poles:
            re = np.linspace(pole.real - 0.1, pole.real + 0.1, 400)
            im = np.linspace(pole.imag - 0.1, pole.imag + 0.1, 400)
            scan = mt.pseudospectrum_scan(m, re, im, eps, require_resolved=True)
            assert scan["n_flagged"] > 0
            assert scan["violations"] == 0
            assert scan["radius"] <= 2.5 * eps * 2.0  # C*eps with C = 2 E+E-/c_q

    def test_radius_holds_on_random_models(self):
        # the radius is proven for any number of poles, not only near each
        # pole: no flagged point of a random 1-4 pole model lies outside it
        rng = np.random.default_rng(0)
        n_flagged = 0
        for _ in range(200):
            poles = tuple(complex(*rng.uniform(-1.5, 1.5, 2))
                          for _ in range(int(rng.integers(1, 5))))
            m = mt.PseudospectrumModel(poles=poles, e_plus=rng.uniform(0.5, 2.0),
                                       e_minus=rng.uniform(0.5, 2.0),
                                       hol_bound=rng.uniform(0.0, 0.3))
            eps = 10.0 ** rng.uniform(-3.0, np.log10(3.0))
            parts = [p.real for p in poles] + [p.imag for p in poles]
            grid = np.linspace(min(parts) - 3.0, max(parts) + 3.0, 151)
            scan = mt.pseudospectrum_scan(m, grid, grid, eps)
            assert scan["violations"] == 0, (poles, eps)
            n_flagged += scan["n_flagged"] > 0
        assert n_flagged > 100  # the check is not vacuous

    def test_resolution_error(self):
        m = mt.PseudospectrumModel(poles=(0.0 - 1j,))
        re = np.linspace(-2, 2, 10)
        im = np.linspace(-3, 1, 10)
        with pytest.raises(ResolutionError):
            mt.pseudospectrum_scan(m, re, im, 1e-4, require_resolved=True)


class TestHolomorphicDerivatives:
    def test_exponential(self):
        ders = mt.holomorphic_derivatives(lambda z: np.exp(2.0 * z), 0.3 + 0.1j, 3)
        base = np.exp(2.0 * (0.3 + 0.1j))
        for r, d in enumerate(ders):
            assert abs(d - 2.0**r * base) < 1e-10 * abs(base)
