"""Pseudopole interpolation windows: identities, robustness, growth, action.

The window is an entire polynomial equal to 1 at a target pseudopole and 0
at lower ones, with a planted high-order zero at the origin.  It can be
applied exactly to modal content or as a finite-difference operator
g(i d/dt) on sampled data.
"""
import numpy as np

from ringlab import analytic_window as aw
from ringlab import signal_model as sm

# --- two overtone pseudopoles: suppress the lower, keep the target ----------
nodes = aw.PseudopoleSet((2.0 - 0.1j, 2.0 - 0.4j))
window = aw.modified_window(nodes, target=1, m0=3)
print("window degree:", window.degree)
print("value at target node :", window(nodes.nodes[1]))
print("value at lower node  :", window(nodes.nodes[0]))
print("value at omega = 0   :", window(0.0))

# --- robustness: perturbed nodes stay within the explicit bound -------------
rng = np.random.default_rng(1)
delta = nodes.min_sep / 10.0
perturbed = [z + delta * np.exp(2j * np.pi * rng.random()) for z in nodes.nodes]
rob = aw.interp_robustness(nodes, perturbed)
print(f"\nperturbation delta/d_sharp = {rob['delta']/rob['d_sharp']:.3f}")
print(f"deviation at target {rob['dev_target']:.3e} <= bound {rob['bound']:.3e}")

# --- prior mismatch scales linearly with the node scale ----------------------
base = np.array([1.0 - 0.1j, 1.0 - 0.3j])
for ell in (10, 20, 40):
    a = aw.PseudopoleSet(tuple(ell * base))
    b = aw.PseudopoleSet(tuple(ell * (base + 0.002)))
    print(f"  ell = {ell:3d}: node mismatch delta = "
          f"{max(abs(p - q) for p, q in zip(a.nodes, b.nodes)):.4f}")

# --- growth on a shifted line stays uniform when nodes scale up -------------
sigma = np.linspace(-10, 10, 201)
for ell in (10, 100, 1000):
    big = aw.PseudopoleSet(tuple(ell * base))
    w_ell = aw.modified_window(big, target=1, m0=3)
    prof = aw.growth_profile(w_ell, nu=0.5, sigma_grid=sigma)
    print(f"  ell = {ell:4d}: sup |g(sigma - 0.5i)| on [-10,10] = {prof.max():.4f}")

# --- modal vs finite-difference application ----------------------------------
m_low = sm.Mode(freq=nodes.nodes[0], amp=0.8)
m_tgt = sm.Mode(freq=nodes.nodes[1], amp=1.2)
modal = aw.apply_window_modal([m_low, m_tgt], window)
print("\nmodal action: lower amp ->", abs(modal[0].amp),
      " target amp ->", abs(modal[1].amp))

dt = 0.02
t = dt * np.arange(1500)
sig = sm.SampledSignal(t_start=0.0, dt=dt, values=m_low.eval(t) + m_tgt.eval(t))
out = aw.apply_window_fd(sig, window, stencil_order=8)
tm = out.grid()
target_only = modal[1].eval(tm)
print("fd action: residual vs pure target mode =",
      np.max(np.abs(out.values - target_only)))
