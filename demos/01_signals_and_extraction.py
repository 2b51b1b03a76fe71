"""Damped-exponential scenes and certified one-mode frequency extraction.

Walks the basic chain: build a one-mode scene with a deterministic tail,
look at the taper weight and the exact shift eigenrelation, then extract
the complex frequency with the shift Rayleigh quotient and compare the
actual errors against the certified bounds.
"""
import numpy as np

from ringlab import extractor as ex
from ringlab import signal_model as sm

# --- a scene: one damped mode plus an exponential tail ---------------------
omega = 1.0 - 0.1j          # angular frequency 1, decay rate 0.1
mode = sm.Mode(freq=omega, amp=1.0)
tail = sm.TailSpec(c_tail=0.05, nu=0.5)   # decays faster than the mode
setup = sm.ObservationSetup(t0=1.0, t_len=10.0, delta=1.0, dt=0.05)

print("scene value at t=2:", sm.eval_scene([mode], tail, sm.ZERO_NOISE, 2.0))
print("tail envelope at window start:", tail.eval(setup.t0))

# --- the taper weight: 0 outside, ramps, 1 on the plateau -------------------
for t in (setup.t0, setup.t0 + 0.5, setup.t0 + 1.0, 5.0, 10.0, 11.0):
    print(f"  w({t:4.1f}) = {sm.weight_eval(setup, t):.3f}")

# --- shift eigenrelation: exact on the grid ---------------------------------
y0 = sm.sample_scene([mode], sm.ZERO_TAIL, sm.ZERO_NOISE, setup)
shifted = sm.shift(y0, setup.delta)
z = np.exp(-1j * omega * setup.delta)
print("max |S_delta y - z y| on grid:",
      np.max(np.abs(shifted.values - z * y0.values[:len(shifted)])))

# --- extraction with certified bounds ---------------------------------------
y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
cfg = ex.ExtractionConfig(setup=setup, prior=omega + 0.05)  # imperfect prior
res = ex.extract(y, cfg, y0_reference=[mode])  # a one-row Extraction: its columns' row 0
z_hat, omega_hat = res.z_hat[0], res.omega_hat[0]

print("\nextraction ledger:")
print(f"  z_hat          = {z_hat:.12f}")
print(f"  |z_hat - z|    = {abs(z_hat - z):.3e}  (<= 3 eps = {3*res.eps[0]:.3e})")
print(f"  omega_hat      = {omega_hat:.12f}")
print(f"  |omega error|  = {abs(omega_hat - omega):.3e}  "
      f"(<= bound {res.bound_omega[0]:.3e})")
print(f"  eps0, eps1     = {res.eps0[0]:.4e}, {res.eps1[0]:.4e}")
print(f"  hypotheses     = eps_small {res.eps_small[0]}, branch {res.branch_hyp[0]}")

# --- a-priori budget: bound eps before seeing any data ----------------------
budget = ex.epsilon_budget(mode.amp, omega, tail, 0.0, setup)
print(f"\nbudget: eps <= {budget['eps_bound']:.4e} "
      f"(measured {res.eps[0]:.4e})")

# pushing the start time later improves the tail-to-signal ratio exponentially
for t0 in (1.0, 4.0, 8.0):
    s = sm.ObservationSetup(t0=t0, t_len=10.0, delta=1.0, dt=0.05)
    b = ex.epsilon_budget(mode.amp, omega, tail, 0.0, s)
    print(f"  T0 = {t0:3.0f}: eps budget {b['eps_bound']:.4e}")
