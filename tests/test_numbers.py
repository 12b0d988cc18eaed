"""Every number that enters the package goes through one of two checkers:
counts through ``fock._check_count`` and reals through ``fock._check_real``.
Each site refuses, with ValidationError, a bool, a string, None, a complex, a
NaN, an infinity, a value outside its range and, for a count, a fraction.
A site reached through JSON takes every such value that JSON can carry.
"""

import json
import math

import numpy as np
import pytest

from bosonpe.activation import m_pe_from_activation
from bosonpe.fock import (
    BlockDiagonalState,
    ModePartition,
    ValidationError,
    mix_states,
    state_from_json,
    vacuum_state,
)
from bosonpe.nonclassical import binomial_poisson_distance
from bosonpe.optics import BeamSplitterArray, mode_unitary_from_json
from bosonpe.states import classical_nd_state, default_poisson_truncation, noon_state
from bosonpe.witness import (
    SpinShotDataset,
    WitnessParams,
    dataset_from_csv,
    dataset_to_csv,
    pe_lower_bound,
    synthesize_dataset,
)

HOSTILE = {"true": True, "string": "1", "none": None, "complex": 1j, "nan": math.nan,
           "inf": math.inf}
CONSTANT = synthesize_dataset("constant")
META = {"eta_a": 1.0, "eta_b": 1.0, "n1_a_mean": 10.0, "n1_b_mean": 10.0}


def state_json(modes=1, N=0, p=1.0):
    return json.dumps({"modes": modes, "blocks": [{"N": N, "p": p, "matrix": [[[1.0, 0.0]]]}]})


def from_meta(key, value):
    return dataset_from_csv(dataset_to_csv(CONSTANT), json.dumps(dict(META, **{key: value})))


def shots_with(position, value):
    args = [1.0, 1.0, 10.0, 10.0]
    args[position] = value
    return SpinShotDataset(CONSTANT.shots, *args)


# site: (a call on one value, a value outside the site's range or None when
# every finite real is in it, a count site, reached through JSON)
SITES = {
    "block key N": (lambda v: BlockDiagonalState(1, {v: (1.0, [[1.0]])}), -1, True, False),
    "partition index": (lambda v: ModePartition((v,), (1,)), -1, True, False),
    "json modes": (lambda v: state_from_json(state_json(modes=v)), 0, True, True),
    "json N": (lambda v: state_from_json(state_json(N=v)), -1, True, True),
    "unitary json modes": (
        lambda v: mode_unitary_from_json(json.dumps({"modes": v, "matrix": [[[1.0, 0.0]]]})),
        0, True, True),
    "n_atoms": (lambda v: synthesize_dataset("css", n_atoms=v, n_shots=30), 2**53 + 1, True,
                False),
    "block weight": (lambda v: BlockDiagonalState(1, {0: (v, [[1.0]])}), -0.5, False, False),
    "json p": (lambda v: state_from_json(state_json(p=v)), -0.5, False, True),
    "mixture weight": (lambda v: mix_states([(v, vacuum_state())]), -0.5, False, False),
    "reflectivity": (lambda v: BeamSplitterArray((0.5, v)), 1.5, False, False),
    "poisson mean": (default_poisson_truncation, -3.0, False, False),
    "classical weight": (lambda v: classical_nd_state([(v, np.array([0.5]))]), -0.5, False,
                         False),
    "binomial p": (lambda v: binomial_poisson_distance(10, v), 1.5, False, False),
    "grid_step": (lambda v: m_pe_from_activation(noon_state(2).to_block_state(),
                                                 n_va_restarts=0, grid_step=v), 1.0, False, False),
    "eta_a": (lambda v: shots_with(0, v), 0.0, False, False),
    "n1_a_mean": (lambda v: shots_with(2, v), -5.0, False, False),
    "g_z": (lambda v: WitnessParams(v, 1.0), None, False, False),
    "g_y": (lambda v: WitnessParams(1.0, v), None, False, False),
    "counts N1_B": (lambda v: pe_lower_bound(CONSTANT, WitnessParams(1.0, 1.0),
                                             counts={"N1_A": 10.0, "N1_B": v}, n_bootstrap=0),
                    -5.0, False, False),
    "split_fraction": (lambda v: synthesize_dataset("css", split_fraction=v, n_shots=30), 1.0,
                       False, False),
    "eta": (lambda v: synthesize_dataset("css", eta=v, n_shots=30), 0.0, False, False),
    "xi2": (lambda v: synthesize_dataset("squeezed", xi2=v, n_shots=30), 2.0, False, False),
    "metadata eta_b": (lambda v: from_meta("eta_b", v), 1.5, False, True),
    "metadata n1_b_mean": (lambda v: from_meta("n1_b_mean", v), -1.0, False, True),
}


def cases():
    for site, (call, outside, count, through_json) in SITES.items():
        values = dict(HOSTILE, outside=outside, fraction=2.5 if count else None)
        for name, value in values.items():
            if value is None and name != "none" or through_json and name == "complex":
                continue
            yield pytest.param(call, value, id=f"{site}-{name}")


@pytest.mark.parametrize("call, value", list(cases()))
def test_number_sites_refuse_hostile_values(call, value):
    with pytest.raises(ValidationError):
        call(value)

