"""The rational-resolvent laboratory: residues, contours, pseudospectra.

Everything PDE-flavored is replaced by a small matrix-valued rational
family with explicit Laurent data, so each contour identity has an
independent residue oracle: band isolation by subtracting two line
integrals, rank-one residue projectors with dual states, forcing-transform
decay, and the localized pseudospectrum confined to disks.
"""
import numpy as np

from ringlab import merotoy as mt

rng = np.random.default_rng(42)

# --- a random 2x2 rational family with 4 poles, orders up to 2 ---------------
resolvent = mt.random_rational_resolvent(rng, dim=2, n_poles=4, max_order=2)
print("poles (omega, order):")
for p in resolvent.poles:
    print(f"  {p.omega:.3f}  order {p.order}")

forcing = mt.ForcingSpec(k=6, payload=np.array([1.0, -0.5 + 0.3j]))
fhat = forcing.transform  # batched: (n,) frequencies -> (n, 2) values

# the transform decays like |omega|^-(k+1) on horizontal lines
sigma = np.geomspace(10, 1000, 200)
vals = np.abs(fhat(sigma - 0.5j)[:, 0])
slope = np.polyfit(np.log(sigma), np.log(vals), 1)[0]
print(f"\nforcing transform decay on Im omega = -0.5: sigma^{slope:.2f}")

# --- band isolation: two contour heights bracket a pole band -----------------
# one call serves every time: only e^{-i omega t} depends on t, so each line
# evaluates F times R(omega) payload once and every time shares the nodes and
# sigma_max
times = np.array([1.0, 2.0, 5.0])
out = mt.band_subtract(resolvent, forcing, None, nu1=0.3, nu2=2.3, times=times)
strip = resolvent.poles_in_strip(-2.3, -0.3)
print(f"\nband (-2.3, -0.3) holds {len(strip)} poles "
      f"(sigma_max = {out['sigma_max']:g} for every t)")
for j, t in enumerate(times):
    print(f"  t = {t:.0f}: |I_nu1 - I_nu2| = {np.linalg.norm(out['difference'][j]):.6e}, "
          f"|sum of pole terms| = {np.linalg.norm(out['residue_sum'][j]):.6e}")
    print(f"         mismatch = {out['mismatch'][j]:.2e}  "
          f"(truncation estimate {out['truncation_estimate'][j]:.1e})")

# --- rank-one residue at a simple pencil eigenvalue --------------------------
d = 4
a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
w0 = 0.7 - 0.4j
pencil = mt.MatrixPencil(p0=a @ np.diag([0.0, 1, 1, 1]) @ b,
                         p1=rng.standard_normal((d, d)), center=w0)
ro = mt.rank_one_residue(pencil, w0)
oracle = mt.cauchy_residue(lambda w: np.linalg.inv(pencil(w)), w0, radius=1e-3)
print(f"\nrank-one projector vs contour oracle: "
      f"{np.linalg.norm(ro['projector'] - oracle):.2e}")
print(f"excitation denominator |<P' u0, v0>| = {abs(ro['denom']):.3f} "
      "(small values flag nonnormal amplification)")

detector = rng.standard_normal(d)
f_at_pole = rng.standard_normal(d) + 1j * rng.standard_normal(d)
amp = mt.amplitude_pairing(f_at_pole, ro["u0"], ro["v0"], pencil.p1, detector)
print(f"detector amplitude a = {amp:.4f} "
      f"(vs detector(Pi f) = {np.dot(detector, ro['projector'] @ f_at_pole):.4f})")

# --- localized pseudospectrum: blow-up confined to disks ---------------------
model = mt.PseudospectrumModel(poles=(0.0 - 1.0j, 1.0 - 1.0j),
                               e_plus=1.0, e_minus=1.0, hol_bound=0.1)
re = np.linspace(-1, 2, 400)
im = np.linspace(-2.5, 0.5, 400)
print("\npseudospectrum scan (two poles separated by 1):")
for eps in (1e-1, 1e-2, 1e-3):
    scan = mt.pseudospectrum_scan(model, re, im, eps)
    print(f"  eps = {eps:6.0e}: {scan['n_flagged']:5d} grid points flagged, "
          f"certified radius {scan['radius']:.4f}, "
          f"outside disks: {scan['violations']}")
