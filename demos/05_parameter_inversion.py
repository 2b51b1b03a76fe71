"""From frequency pairs to parameters: the explicit bias budget.

A synthetic pseudopole lattice over (M, a[, Lambda]) generates the labeled
frequency pair; the normalized observables invert it exactly, so the whole
error chain  eps -> |delta omega| -> data-map error -> parameter bias
can be checked against its explicit constants end to end: each link's bound
feeds the next, the bias bound being C* times the data-map bound of the two
frequency-error bounds.
"""
import numpy as np

from ringlab import extractor as ex
from ringlab import paramap as pm
from ringlab import signal_model as sm

# --- the lattice and the true point ------------------------------------------
model = pm.default_lattice(kappa=0.3, lam_kind="constant", lam_value=0.2,
                           ell=100)
p_true = pm.ParameterPoint(m=1.0, a=0.08, lam=0.02)
print("photon-sphere frequency:",
      model.uvl(p_true.m, p_true.a, 1.0 - 9.0 * p_true.lam * p_true.m**2)[0])
w_plus = pm.pseudopole(model, 0, +1, p_true)
w_minus = pm.pseudopole(model, 0, -1, p_true)
print(f"labeled pair: {w_plus:.4f}, {w_minus:.4f} "
      f"(splitting {(w_plus - w_minus).real:.4f} ~ 2 ell kappa a)")

obs = pm.observables(w_plus, w_minus, model.ell, model.n)
print("observables (U, V, W):", obs, " = (u, v, lam) exactly")

# --- observe both sectors with a tail, extract, invert ------------------------
setup = sm.ObservationSetup(t0=4.0, t_len=10.0, delta=1.0, dt=0.05)
tail = sm.TailSpec(c_tail=1.0, nu=0.5, m=2)
omega_hat = {}
bound_omega = {}
eps_small = {}
for sign, w in ((+1, w_plus), (-1, w_minus)):
    mode = sm.Mode(freq=w, amp=1.0)
    y = sm.sample_scene([mode], tail, sm.ZERO_NOISE, setup)
    res = ex.extract(y, ex.ExtractionConfig(setup=setup, prior=w), y0_reference=[mode])
    omega_hat[sign] = res.omega_hat[0]
    bound_omega[sign] = res.bound_omega[0]
    eps_small[sign] = res.eps_small[0]
    print(f"  sector {sign:+d}: eps = {res.eps[0]:.4e}, "
          f"|domega| = {abs(omega_hat[sign] - w):.3e} <= {bound_omega[sign]:.3e}")

est = pm.observables(omega_hat[+1], omega_hat[-1], model.ell, model.n)
guess = pm.ParameterPoint(m=1.01, a=0.082, lam=0.02)
box = [(0.9, 1.1), (0.0, 0.15)]
inv = pm.invert_data(model, {"U": est["U"], "V": est["V"]}, guess, box=box)
p_hat = inv["point"]
param_err = float(np.hypot(p_hat.m - p_true.m, p_hat.a - p_true.a))
print(f"\ninverted point: M = {p_hat.m:.8f}, a = {p_hat.a:.8f} "
      f"({inv['iterations']} Newton steps)")

# --- the certified bias bound with closed-form inverse constants -------------
consts = pm.inverse_constants(model, box)  # extrema at proven box vertices
bound = pm.bias_bound_2p(consts["C_star"], bound_omega[+1], bound_omega[-1], model.ell)
print(f"c* = {consts['c_star']:.4f}, C* = {consts['C_star']:.4f}")
print(f"parameter bias {param_err:.3e} <= certified bound {bound:.3e} "
      f"(hypotheses hold: {eps_small[+1] and eps_small[-1]})")

# --- the 1/ell conditioning gain ----------------------------------------------
print("\nbias bound vs ell (frequency-error bounds held fixed):")
for ell in (50, 100, 200):
    b = pm.bias_bound_2p(consts["C_star"], bound_omega[+1], bound_omega[-1], ell)
    print(f"  ell = {ell:3d}: bound {b:.4e}")
