#!/usr/bin/env python3
"""Free states carry no metrological advantage; particle entanglement does.

Coherent spin states (all particles in the same single-particle mode) and
their mixtures are the free states.  For them the quantum Fisher information
never beats four times the single-particle variance; the excess, maximized
over unit-norm observables, quantifies particle entanglement and is exactly
computable on two modes.
"""

import math

import numpy as np

from bosonpe import (
    CoherentSpinSpec,
    SingleParticleObservable,
    coherent_spin_state,
    m_pe_f,
    noon_state,
    qfi,
    random_particle_separable,
    single_particle_variance,
)
from bosonpe.measures import PAULI

sz = SingleParticleObservable(PAULI["z"])

css = coherent_spin_state(
    CoherentSpinSpec(np.array([1.0, 1.0]) / math.sqrt(2), 4)).to_block_state()
print("Coherent spin state along +x, N = 4:")
print("   QFI  =", round(qfi(css, sz), 6))
print("   4 V  =", round(4 * single_particle_variance(css, sz), 6))
print("   monotone value:", m_pe_f(css).value)

noon = noon_state(2).to_block_state()
res = m_pe_f(noon)
print("\nNOON state, N = 2:")
print("   QFI  =", round(qfi(noon, sz), 6))
print("   4 V  =", round(4 * single_particle_variance(noon, sz), 6))
print("   monotone value:", round(res.value, 10), "at Bloch direction", res.bloch)

print("\nRandom free mixtures stay at zero:")
for seed in range(3):
    state = random_particle_separable(2, 3, 4, seed)
    print("   seed %d -> %.2e" % (seed, m_pe_f(state).value))
