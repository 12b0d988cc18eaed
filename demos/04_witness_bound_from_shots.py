#!/usr/bin/env python3
"""From collective-spin shots to a quantitative entanglement statement.

Synthetic datasets mimic split-cloud spin measurements: a coherent spin
state sits exactly at the separability boundary, while a squeezed state
violates the variance criterion and certifies a positive lower bound on the
trace-distance measure of particle entanglement.
"""

from bosonpe import (
    WitnessParams,
    optimize_witness_params,
    pe_lower_bound,
    separability_ratio,
    synthesize_dataset,
)

for model in ("css", "squeezed"):
    data = synthesize_dataset(model, n_atoms=100, n_shots=10000, seed=7, xi2=0.25)
    params = optimize_witness_params(data)
    ratio = separability_ratio(data, params)
    result = pe_lower_bound(data, params, n_bootstrap=500, seed=1)
    sig = result.bound / result.bootstrap_se
    print(f"{model} model ({len(data)} shots):")
    print(f"   optimized g_z = {params.g_z:+.3f}, g_y = {params.g_y:+.3f}")
    print(f"   separability ratio = {ratio:.4f}  (< 1 witnesses entanglement)")
    print(f"   bound = {result.bound:.6f} +- {result.bootstrap_se:.6f}"
          f"  ({sig:+.1f} sigma)")
    print()

print("Zero-variance arithmetic check (exact dataset):")
data = synthesize_dataset("constant")
result = pe_lower_bound(data, WitnessParams(1.0, 1.0), n_bootstrap=0)
print(f"   normalization = {result.normalization}  bound = {result.bound}"
      f"  (= 10/220 = {10 / 220})")
