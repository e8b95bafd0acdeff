"""Dark-state decoherence suppression: simulator and analysis toolkit.

The package models a single-qubit environment coupled to probe and signal
qubits by controlled-phase interactions, the heralded preparation of the
environment's dark state, a linear-optical realization of the tunable
three-qubit gate, and the full measure-and-reconstruct chain (Poissonian
coincidence counting, maximum-likelihood tomography, bootstrap errors).
"""

__version__ = "0.1.0"

from .qmath import (  # noqa: F401
    BASIS_LABELS,
    DensityMatrix,
    OperatorMatrix,
    PureState,
    concurrence,
    entanglement_of_formation,
    partial_trace,
    purity,
    state_fidelity,
    tensor,
)
from .protocol import (  # noqa: F401
    DegenerateCouplingError,
    HeraldOutcome,
    apply_dephasing,
    coherence_factor,
    herald_dark_state,
    herald_outcomes,
    population_ratio_update,
    repeat_success_probability,
    simulate_repeat_protocol,
    u_ccp,
    u_cp,
)
from .optical_gate import (  # noqa: F401
    GateRealization,
    WaveplateAngles,
    c3z_filter,
    ccp_success_probability,
    realize_ccp,
    solve_angles,
)
from .tomography import (  # noqa: F401
    MeasurementSetting,
    ProcessMatrix,
    build_process_settings,
    build_state_settings,
    channel_to_choi,
    mle_process,
    mle_state,
    process_fidelity,
    process_purity,
    simulate_counts,
)
from .experiments import (  # noqa: F401
    NoiseParams,
    ScenarioConfig,
    ScenarioResult,
    run_gate_tomography,
    run_protocol_sweep,
    run_reference_sweep,
)
