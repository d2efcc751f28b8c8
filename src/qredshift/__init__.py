"""Gravitational redshift as a dephasing channel on qubit registers.

The toolkit models how changes of the local gravitational potential
detune qubits, expresses the effect as a diagonal dephasing channel,
simulates the ancilla-based phase-measurement protocol on a dense
statevector or an exact two-branch backend, and computes the sensing
figures of merit (gravimetry, strain response, required-qubit scaling).
"""

from .branch import ancilla_probabilities, estimate, standard_pea_probabilities
from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import (
    ChipGeometry,
    GravScenario,
    ProximalMass,
    ResourceCapError,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
    dephasing_angles,
    grid_chip,
    line_chip,
    potential_change,
    uniform_delta_phi,
    universal_rate,
)
from .protocol import (
    ProtocolOutcome,
    build_circuit,
    expected_delta_phi,
    run_protocol,
)
from .sensing import (
    closed_form_phase,
    gravimeter_phase,
    gravimeter_sensitivity,
    min_detectable_strain,
    required_qubits,
    strain_phase,
)
from .statevector import (
    Gate,
    apply_channel,
    apply_gate,
    init_zero,
    probability_of,
)

__version__ = "0.1.0"
