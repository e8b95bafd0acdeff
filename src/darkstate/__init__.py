"""Dark-state decoherence suppression: simulator and analysis toolkit.

The package models a single-qubit environment coupled to probe and signal
qubits by controlled-phase interactions, the heralded preparation of the
environment's dark state, a linear-optical realization of the tunable
three-qubit gate, and the full measure-and-reconstruct chain (Poissonian
coincidence counting, maximum-likelihood tomography, bootstrap errors).
Import the modules directly (``darkstate.experiments``, ``darkstate.qmath``,
...); the package itself exposes only ``__version__``.
"""

__version__ = "0.1.0"
