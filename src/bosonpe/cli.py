"""Command-line front end.

Subcommands emit JSON to stdout (CSV where ``--table``/``--csv`` applies) and
exit with status 0 on success, 2 on validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .fock import (
    DESK,
    BlockDiagonalState,
    ValidationError,
    _check_seed,
    fock_state,
    vacuum_state,
)
from .optics import BeamSplitterArray, ModeUnitary, _haar_matrix, balanced_array
from .states import (
    CoherentSpinSpec,
    classical_nd_state,
    coherent_spin_state,
    noon_state,
)
from .measures import (
    PAULI,
    SingleParticleObservable,
    bloch_observable,
    m_pe_f,
    qfi,
    single_particle_variance,
)
from .activation import ActivationSpec, activate
from .nonclassical import (
    ExchangeableSeparableSpec,
    binomial_poisson_distance,
    definetti_classical_approx,
    two_copy_pe_check,
)
from .witness import (
    WitnessParams,
    dataset_from_csv,
    dataset_metadata_json,
    dataset_to_csv,
    optimize_witness_params,
    pe_lower_bound,
    separability_ratio,
    synthesize_dataset,
)


def _parse_numbers(text: str, kind, what: str) -> list:
    """Comma-separated values of one type; a malformed entry is a ValidationError."""
    try:
        return [kind(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what} {text!r}: {exc}") from exc


def _parse_number(text: str, kind, what: str):
    values = _parse_numbers(text, kind, what)
    if len(values) != 1:
        raise ValidationError(f"expected one {what}, got {text!r}")
    return values[0]


def parse_state(text: str) -> BlockDiagonalState:
    """State presets: vacuum[:m], fock:n0,n1,..., css:psi...,N, noon:N,
    classical:alpha..."""
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name == "vacuum":
        return vacuum_state(_parse_number(args, int, "mode count") if args else 1)
    if name == "fock":
        return fock_state(_parse_numbers(args, int, "occupations")).to_block_state()
    if name == "css":
        parts = args.split(",")
        if len(parts) < 2:
            raise ValidationError("css preset needs amplitudes and N: css:a0,a1,...,N")
        n = _parse_number(parts[-1], int, "particle number")
        psi = np.array(_parse_numbers(",".join(parts[:-1]), complex, "amplitudes"))
        with np.errstate(invalid="ignore"):  # a zero vector turns NaN; the spec rejects it
            psi = psi / np.linalg.norm(psi)
        return coherent_spin_state(CoherentSpinSpec(psi, n)).to_block_state()
    if name == "noon":
        return noon_state(_parse_number(args, int, "particle number")).to_block_state()
    if name == "classical":
        return classical_nd_state(np.array(_parse_numbers(args, complex, "amplitudes")))
    raise ValidationError(f"unknown state preset {text!r}")


def parse_r_vector(text: str, m: int) -> BeamSplitterArray:
    text = text.strip().lower()
    if text == "balanced":
        return balanced_array(m)
    if text == "identity":
        return BeamSplitterArray((1.0,) * m)
    if text == "swap":
        return BeamSplitterArray((0.0,) * m)
    values = tuple(_parse_numbers(text, float, "reflectivities"))
    if len(values) != m:
        raise ValidationError(f"need {m} reflectivities, got {len(values)}")
    return BeamSplitterArray(values)


def parse_observable(text: str) -> SingleParticleObservable:
    text = text.strip().lower()
    if text in PAULI:
        return SingleParticleObservable(PAULI[text])
    if text.startswith("bloch:"):
        n = _parse_numbers(text[len("bloch:"):], float, "Bloch components")
        return bloch_observable(n)
    raise ValidationError(f"unknown observable {text!r}; use x, y, z or bloch:nx,ny,nz")


def _jsonable(value):
    if isinstance(value, (np.bool_, np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[x.real, x.imag] for x in value.ravel()] if value.ndim == 1 else \
                [[[x.real, x.imag] for x in row] for row in value]
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit(doc: dict):
    print(json.dumps(_jsonable(doc), indent=2))


def _postselected_support(sector) -> list:
    """[A occupation, B occupation] of each product-basis state whose
    diagonal weight, the squared row norm of the sector factor, exceeds 1e-12."""
    weights = np.sum(np.abs(sector.factor()) ** 2, axis=1)
    k = np.flatnonzero(weights > 1e-12)
    db = sector.basis_b.dim
    return [list(pair) for pair in zip(sector.basis_a.occupations[k // db].tolist(),
                                       sector.basis_b.occupations[k % db].tolist())]


def cmd_activate(args) -> int:
    state = parse_state(args.state)
    m = state.modes
    array = parse_r_vector(args.r, m)
    va = None
    if args.va:
        if not args.va.startswith("random:"):
            raise ValidationError("--va takes random:<seed>")
        seed = _parse_number(args.va.split(":", 1)[1], int, "seed")
        _check_seed(seed)
        va = ModeUnitary(_haar_matrix(m, np.random.default_rng(seed)))
    postselect = None
    if args.postselect:
        postselect = tuple(_parse_numbers(args.postselect, int, "post-selected sector"))
    # presets with a Poisson tail may exceed the particle cap; the mode cap stays
    caps = dataclasses.replace(DESK, max_particles=max(state.max_particles, DESK.max_particles))
    report = activate(ActivationSpec(state, pre_rotation=va, array=array),
                      postselect=postselect, caps=caps)

    if args.table:
        print("sector_na,sector_nb,probability,schmidt_spectrum")
        for key in report.sectors.keys():
            p = report.sectors.probability(key)
            spec = report.schmidt.get(key) if report.schmidt else None
            spectxt = ";".join(f"{s:.12g}" for s in spec) if spec is not None else ""
            print(f"{key[0]},{key[1]},{p:.12g},{spectxt}")
        return 0
    doc = {
        "modes_out": report.output.modes,
        "e_ssr_negativity": report.e_ssr_negativity,
        "e_ssr_entropy": report.e_ssr_entropy,
        "ssr_entangled": report.ssr_entangled,
        "sectors": {
            f"{k[0]},{k[1]}": report.sectors.probability(k) for k in report.sectors.keys()
        },
    }
    if report.schmidt is not None:
        doc["schmidt"] = {f"{k[0]},{k[1]}": v for k, v in report.schmidt.items()}
    if report.postselected is not None:
        key, p, sector = report.postselected
        doc["postselected"] = {
            "sector": list(key),
            "probability": p,
            "support": _postselected_support(sector),
        }
    emit(doc)
    return 0


def cmd_qfi(args) -> int:
    state = parse_state(args.state)
    h = parse_observable(args.observable)
    emit({
        "value": qfi(state, h),
        "variance_single_particle": single_particle_variance(state, h),
        "observable": args.observable,
    })
    return 0


def cmd_mpef(args) -> int:
    state = parse_state(args.state)
    res = m_pe_f(state, search=args.search, seed=args.seed, n_restarts=args.restarts)
    doc = {"value": res.value, "lower": res.lower, "upper": res.upper,
           "gap": res.upper - res.lower,
           "search_metadata": dict(res.metadata, search=res.search)}
    if res.bloch is not None:
        doc["argmax_h"] = {"bloch": list(res.bloch), "theta": res.metadata["theta"],
                           "phi": res.metadata["phi"]}
    else:
        doc["argmax_h"] = {"matrix": res.h}
    emit(doc)
    return 0


def cmd_witness_bound(args) -> int:
    with open(args.data) as fh:
        csv_text = fh.read()
    with open(args.meta) as fh:
        meta_text = fh.read()
    data = dataset_from_csv(csv_text, meta_text)
    if args.optimize:
        params = optimize_witness_params(data)
    else:
        if args.gz is None or args.gy is None:
            raise ValidationError("pass --gz and --gy, or --optimize")
        params = WitnessParams(args.gz, args.gy)
    result = pe_lower_bound(data, params, n_bootstrap=args.bootstrap, seed=args.seed)
    emit({
        "bound": result.bound,
        "witness_expectation": result.witness_expectation,
        "normalization": result.normalization,
        "g_z": result.params.g_z,
        "g_y": result.params.g_y,
        "separability_ratio": separability_ratio(data, params),
        "bootstrap_se": result.bootstrap_se,
        "shots_used": result.shots_used,
    })
    return 0


def cmd_witness_synth(args) -> int:
    data = synthesize_dataset(args.model, n_atoms=args.atoms,
                              split_fraction=args.split, eta=args.eta,
                              n_shots=args.shots, seed=args.seed, xi2=args.xi2)
    with open(args.out, "w") as fh:
        fh.write(dataset_to_csv(data))
    meta_path = args.meta or (args.out.rsplit(".", 1)[0] + "_meta.json")
    with open(meta_path, "w") as fh:
        fh.write(dataset_metadata_json(data))
    emit({"shots": len(data), "csv": args.out, "meta": meta_path,
          "description": data.description})
    return 0


def cmd_demo(args) -> int:
    name = args.name
    if name == "hom":
        from .optics import lift_unitary
        u = ModeUnitary(np.array([[1, 1], [-1, 1]]) / math.sqrt(2))
        out = lift_unitary(u, 2) @ np.array([0.0, 1.0, 0.0])
        emit({
            "demo": "hom",
            "input": "one photon in each port of a balanced splitter",
            "output_amplitudes": {"|2,0>": out[0], "|1,1>": out[1], "|0,2>": out[2]},
            "note": "the coincidence amplitude vanishes; photons bunch",
        })
        return 0
    if name == "yurke-stoler":
        state = fock_state((1,)).to_block_state()
        report = activate(ActivationSpec(state))
        from .measures import negativity
        neg = negativity(report.output, report.partition)
        emit({
            "demo": "yurke-stoler",
            "input": "a single particle split at a balanced splitter",
            "negativity_without_ssr": neg,
            "e_ssr_negativity": report.e_ssr_negativity,
            "note": "the mode entanglement of one particle is invisible under "
                    "local number superselection",
        })
        return 0
    if name == "fig1":
        state = fock_state((2, 2)).to_block_state()
        report = activate(ActivationSpec(state), postselect=(2, 2))
        key, p, sector = report.postselected
        emit({
            "demo": "fig1",
            "input": "|2,2> through balanced splitters, post-selected on N_A=N_B=2",
            "probability": p,
            "support": _postselected_support(sector),
            "e_ssr_negativity": report.e_ssr_negativity,
        })
        return 0
    if name == "two-copy":
        state = fock_state((1,)).to_block_state()
        report = two_copy_pe_check(state)
        emit({
            "demo": "two-copy",
            "input": "two independent single particles",
            "copies_separable_verdict": report.verdict,
            "e_ssr_joint": report.e_ssr,
            "note": "one copy activates no accessible entanglement, two copies do",
        })
        return 0
    raise ValidationError(f"unknown demo {name!r}")


def cmd_definetti(args) -> int:
    if args.mixture:
        with open(args.mixture) as fh:
            text = fh.read()
        try:
            terms = []
            for entry in json.loads(text)["terms"]:
                vec = np.array([complex(re, im) for re, im in entry["c"]], dtype=complex)
                terms.append((entry["q"], vec))  # checked by the mixture parser
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed mixture JSON: {exc}") from exc
    else:
        terms = [(1.0, np.ones(args.m) / math.sqrt(args.m))]
    spec = ExchangeableSeparableSpec(args.N, args.m, tuple(terms))
    res = definetti_classical_approx(spec, args.l)
    emit({
        "distance": res.distance,
        "bound": res.bound,
        "satisfied": res.satisfied,
        "truncation_mass": res.truncation_mass,
        "N": args.N, "m": args.m, "l": args.l,
    })
    return 0


def cmd_binpoisson(args) -> int:
    res = binomial_poisson_distance(args.N, args.p)
    emit({"distance": res.distance, "bound": res.bound,
          "satisfied": res.satisfied, "mean": res.mean})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonpe",
        description="Particle entanglement of identical bosons: activation, "
                    "metrological monotones, and witness bounds",
    )
    parser.add_argument("--version", action="version", version=f"bosonpe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("activate", help="run the activation protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--r", default="balanced",
                   help="reflectivities: balanced, identity, swap, or r1,r2,...")
    p.add_argument("--va", default=None, help="pre-rotation, random:<seed>")
    p.add_argument("--postselect", default=None, help="NA,NB")
    p.add_argument("--table", "--csv", action="store_true", dest="table",
                   help="CSV of sector probabilities and Schmidt spectra")
    p.set_defaults(func=cmd_activate)

    p = sub.add_parser("qfi", help="quantum Fisher information of a preset state")
    p.add_argument("--state", required=True)
    p.add_argument("--observable", default="z", help="x, y, z, or bloch:nx,ny,nz")
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("mpef", help="metrological particle-entanglement monotone")
    p.add_argument("--state", required=True)
    p.add_argument("--search", default="auto",
                   choices=["auto", "two_mode_exact", "general_restarts"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=cmd_mpef)

    p = sub.add_parser("witness", help="spin-shot witness pipeline")
    wsub = p.add_subparsers(dest="witness_command", required=True)
    b = wsub.add_parser("bound", help="compute the PE lower bound from shots")
    b.add_argument("--data", required=True, help="shots CSV")
    b.add_argument("--meta", required=True, help="sidecar metadata JSON")
    b.add_argument("--gz", type=float, default=None)
    b.add_argument("--gy", type=float, default=None)
    b.add_argument("--optimize", action="store_true")
    b.add_argument("--bootstrap", type=int, default=1000)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_witness_bound)
    s = wsub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--model", required=True, choices=["css", "squeezed", "constant"])
    s.add_argument("--xi2", type=float, default=0.25)
    s.add_argument("--shots", type=int, default=10000)
    s.add_argument("--atoms", type=int, default=100)
    s.add_argument("--split", type=float, default=0.5)
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--meta", default=None)
    s.set_defaults(func=cmd_witness_synth)

    p = sub.add_parser("demo", help="small narrative demonstrations")
    p.add_argument("name", choices=["yurke-stoler", "hom", "fig1", "two-copy"])
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("definetti", help="classical approximation bound l/m")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mixture", default=None,
                   help='JSON file {"terms": [{"q": w, "c": [[re, im], ...]}]}')
    p.set_defaults(func=cmd_definetti)

    p = sub.add_parser("binpoisson", help="binomial-Poisson distance and bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_binpoisson)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
