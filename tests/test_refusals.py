"""Refusals that no other test reaches: each bad argument below ends in
ValidationError at the check written for it, each bad CLI argument in exit
status 2, and each state or dataset refuses a new attribute."""

import json

import numpy as np
import pytest

from bosonpe.activation import (
    ActivationSpec,
    activate,
    fock_activation_amplitudes,
    local_filter_relation_check,
    splitter_alphas,
)
from bosonpe.cli import main
from bosonpe.fock import (
    BlockDiagonalState,
    ModePartition,
    PureSectorState,
    ValidationError,
    enumerate_basis,
    fock_state,
    mix_states,
    project_local_number,
    trace_out,
    vacuum_state,
)
from bosonpe.measures import (
    SingleParticleObservable,
    block_trace_distance,
    distance_to_candidate_set,
    e_ssr,
    m_pe_f,
    qfi,
    single_particle_variance,
)
from bosonpe.nonclassical import ExchangeableSeparableSpec
from bosonpe.optics import (
    BeamSplitterArray,
    ModeUnitary,
    apply_mode_unitary,
    balanced_array,
    beam_splitter_unitary,
    measure_destructive,
    mode_unitary_from_json,
    validate_ssr_povm,
)
from bosonpe.states import (
    CoherentSpinSpec,
    SeparableMixtureSpec,
    is_coherent_spin_pure,
    noon_state,
)
from bosonpe.witness import (
    SpinShotDataset,
    dataset_from_csv,
    dataset_to_csv,
    synthesize_dataset,
)


def fock11():
    return fock_state((1, 1)).to_block_state()


def eye(m):
    return ModeUnitary(np.eye(m))


HALF = 2**-0.5
PARTITION = ModePartition((0,), (1,))

# case: a call that must raise ValidationError at the check its name gives
REFUSALS = {
    # activation
    "splitters per mode": lambda: ActivationSpec(fock11(), array=BeamSplitterArray((0.5,))),
    "pre-rotation modes": lambda: ActivationSpec(fock11(), pre_rotation=eye(3)),
    "post-selected sector without weight": lambda: activate(ActivationSpec(fock11()),
                                                            postselect=(3, 0)),
    "post-selected sector not a pair": lambda: activate(ActivationSpec(fock11()), postselect=5),
    "post-selected numbers not counts": lambda: activate(ActivationSpec(fock11()),
                                                         postselect=[[1], [1]]),
    "post-selected float numbers": lambda: activate(ActivationSpec(fock11()),
                                                    postselect=(1.0, 1.0)),
    "post-selected bool numbers": lambda: activate(ActivationSpec(fock11()),
                                                   postselect=(True, True)),
    "alpha columns": lambda: fock_activation_amplitudes((1, 1), np.full((2, 3), HALF), (1, 1)),
    "numbers per party": lambda: fock_activation_amplitudes(
        (1, 1), splitter_alphas(balanced_array(2)), (1, 1, 0)),
    "closed form with a pre-rotation": lambda: splitter_alphas(balanced_array(2), eye(2)),
    "reflectivities per mode": lambda: local_filter_relation_check((1, 1), (0.5,)),
    # fock
    "amplitude count": lambda: PureSectorState(enumerate_basis(2, 1), np.ones(3)),
    "empty mixture": lambda: mix_states([]),
    "mixture not iterable": lambda: mix_states(5),
    "mixture mode counts": lambda: mix_states([(0.5, vacuum_state(1)),
                                               (0.5, vacuum_state(2))]),
    "mixture weight sum": lambda: mix_states([(0.5, vacuum_state(1)),
                                              (0.4, vacuum_state(1))]),
    "repeated partition index": lambda: ModePartition((0, 0), (1,)),
    "partition side not iterable": lambda: ModePartition(5, (1,)),
    "trace out every mode": lambda: trace_out(fock11(), ModePartition((), (0, 1))),
    # measures
    "observable not square": lambda: SingleParticleObservable(np.ones(3)),
    "observable norm": lambda: SingleParticleObservable(2.0 * np.eye(2)),
    "qfi modes": lambda: qfi(fock11(), SingleParticleObservable(np.eye(3))),
    "variance modes": lambda: single_particle_variance(fock11(),
                                                       SingleParticleObservable(np.eye(3))),
    "variance of a pure sector state": lambda: single_particle_variance(
        noon_state(2), SingleParticleObservable(np.eye(2))),
    "h_support above the modes": lambda: m_pe_f(noon_state(2).to_block_state(), h_support=3),
    "two_mode_exact on three modes": lambda: m_pe_f(fock_state((1, 1, 1)).to_block_state(),
                                                    search="two_mode_exact"),
    "unknown search": lambda: m_pe_f(noon_state(2).to_block_state(), search="nope"),
    "unknown base measure": lambda: e_ssr(fock11(), PARTITION, "nope"),
    "trace distance modes": lambda: block_trace_distance(vacuum_state(1), vacuum_state(2)),
    "no candidate": lambda: distance_to_candidate_set(vacuum_state(1), []),
    # nonclassical
    "amplitude length": lambda: ExchangeableSeparableSpec(2, 3, ((1.0, [1.0, 0.0]),)),
    # optics
    "unitary not square": lambda: ModeUnitary(np.ones(3)),
    "json matrix shape": lambda: mode_unitary_from_json(
        json.dumps({"modes": 2, "matrix": [[[1.0, 0.0]]]})),
    "splitter pre-rotation modes": lambda: beam_splitter_unitary(balanced_array(2), eye(3)),
    "unitary modes": lambda: apply_mode_unitary(fock11(), eye(3)),
    "povm element shape": lambda: validate_ssr_povm(1, 1, [np.eye(3)]),
    "povm element not psd": lambda: validate_ssr_povm(1, 1, [np.diag([1.0, -1.0]),
                                                             np.diag([0.0, 2.0])]),
    "povm incomplete": lambda: validate_ssr_povm(1, 1, [0.5 * np.eye(2)]),
    "no measured mode": lambda: measure_destructive(fock11(), ModePartition((0, 1), ()),
                                                    [np.eye(3)]),
    # states
    "empty psi": lambda: CoherentSpinSpec(np.array([]), 1),
    "terms share N": lambda: SeparableMixtureSpec(((0.5, CoherentSpinSpec([1.0, 0.0], 1)),
                                                   (0.5, CoherentSpinSpec([1.0, 0.0], 2)))),
    "coherent-spin test without particles": lambda: is_coherent_spin_pure(fock_state((0, 0))),
    # witness
    "axis code": lambda: SpinShotDataset._from_columns(np.array([5]), np.ones((1, 4)),
                                                       1.0, 1.0, 1.0, 1.0),
    "unknown model": lambda: synthesize_dataset("nope"),
    "metadata keys": lambda: dataset_from_csv(dataset_to_csv(synthesize_dataset("constant")),
                                              "{}"),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_argument_is_refused(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("argv", [
    ("activate", "--state", "vacuum:1,2"),
    ("activate", "--state", "css:1"),
    ("activate", "--state", "fock:1,1", "--r", "0.5"),
    ("qfi", "--state", "noon:2", "--observable", "w"),
    ("activate", "--state", "fock:1,1", "--va", "haar"),
], ids=["vacuum_two_counts", "css_without_n", "r_count", "observable", "va_kind"])
def test_bad_cli_argument_exits_2(argv, capsys):
    assert main(list(argv)) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    fock11,
    lambda: project_local_number(activate(ActivationSpec(fock11())).output,
                                 ModePartition((0, 1), (2, 3))).state((1, 1)),
    lambda: synthesize_dataset("constant", n_shots=30),
], ids=["BlockDiagonalState", "SectorState", "SpinShotDataset"])
def test_states_and_datasets_are_immutable(make):
    obj = make()
    with pytest.raises(AttributeError):
        obj.modes = 5
    with pytest.raises(AttributeError):
        obj.anything = 1
