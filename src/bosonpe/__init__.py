"""Particle entanglement of identical bosons as a quantum resource.

Number-diagonal Fock-space states, passive linear optics, free
(particle-separable) states, the metrological monotone built on the quantum
Fisher information, activation of particle entanglement into
superselection-compatible mode entanglement, classical-state approximations,
and witness-based lower bounds from collective-spin measurements.
"""

__version__ = "0.1.0"

from .fock import (
    BlockDiagonalState,
    DeskCaps,
    DESK,
    FockBasis,
    ModePartition,
    PureSectorState,
    SectorDecomposition,
    SectorState,
    ValidationError,
    dephase_local,
    enumerate_basis,
    fock_state,
    mix_states,
    project_local_number,
    single_particle_rdm,
    state_from_json,
    state_to_json,
    tensor_compose,
    trace_out,
    vacuum_state,
)
from .optics import (
    BeamSplitterArray,
    ModeUnitary,
    append_vacuum,
    apply_mode_unitary,
    balanced_array,
    beam_splitter_unitary,
    identity_unitary,
    lift_unitary,
    measure_destructive,
    measure_total_number,
    mode_unitary_from_json,
    mode_unitary_to_json,
    random_ssr_povm,
)
from .states import (
    CoherentSpinSpec,
    SeparableMixtureSpec,
    classical_nd_state,
    coherent_spin_state,
    is_coherent_spin_pure,
    is_particle_separable_two_qubit,
    noon_state,
    particle_separable_mixture,
    random_particle_separable,
)
from .measures import (
    SingleParticleObservable,
    block_trace_distance,
    collective_generator,
    distance_to_candidate_set,
    e_ssr,
    m_pe_f,
    negativity,
    qfi,
    single_particle_variance,
)
from .activation import (
    ActivationReport,
    ActivationSpec,
    activate,
    fock_activation_amplitudes,
    local_filter_relation_check,
    m_pe_from_activation,
    activation_inequality_check,
)
from .nonclassical import (
    ExchangeableSeparableSpec,
    binomial_poisson_distance,
    definetti_classical_approx,
    many_copy_nc_bound_check,
    two_copy_pe_check,
)
from .witness import (
    BoundResult,
    SpinShotDataset,
    WitnessParams,
    estimate_moments,
    optimize_witness_params,
    pe_lower_bound,
    separability_ratio,
    synthesize_dataset,
)
