"""ringlab: a verifiable numerics toolkit for deterministic ringdown inference.

Library layout:

* ``signal_model``    damped-exponential scenes, taper weights, weighted calculus
* ``analytic_window`` pseudopole interpolation windows and their application
* ``extractor``       shift Rayleigh-quotient frequency extraction with certified bounds
* ``prony2``          four-sample two-exponential recovery and its conditioning
* ``merotoy``         rational resolvent laboratory: residues, contours, pseudospectra
* ``paramap``         synthetic pseudopole lattice, data-map inversion, bias bounds
* ``pipeline``        configuration-driven end-to-end runs and sweeps (CLI: ``ringlab``)

Importing the package loads none of them: each is imported where it is used,
so a run loads only the modules its subcommand needs.
"""

__version__ = "0.1.0"

#: calibrated conditioning constant of ``prony2``: 2x the max observed ratio of
#: worst-case root error to eta/(|a1 a2| |z1-z2|^3) on the coarse reference grid
#: (separations 0.1..0.5, amplitude moduli 0.5..2, |z| <= 1, eta = 1e-8);
#: recomputed by ``calibrate_c_hat`` in tests/conftest.py and validated on a
#: disjoint grid by tests/test_prony2.py.
#: Stated here because every report's metadata records it, and a run that
#: fits no Prony model does not load prony2.
CALIBRATED_C_HAT = 10.82
