import json
import math
import tracemalloc

import numpy as np
import pytest

from bosonpe.cli import main, parse_r_vector, parse_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_state_presets():
    assert parse_state("vacuum").sectors() == [0]
    assert parse_state("vacuum:3").modes == 3
    assert parse_state("fock:1,1").sectors() == [2]
    noon = parse_state("noon:2")
    assert noon.modes == 2
    css = parse_state("css:0.707,0.707,2")
    assert css.sectors() == [2]
    classical = parse_state("classical:0.5")
    assert classical.modes == 1


def test_parse_r_presets():
    assert parse_r_vector("balanced", 2).reflectivities == (1 / math.sqrt(2),) * 2
    assert parse_r_vector("identity", 1).reflectivities == (1.0,)
    assert parse_r_vector("swap", 1).reflectivities == (0.0,)
    assert parse_r_vector("0.6,0.8", 2).reflectivities == (0.6, 0.8)


def test_activate_json(capsys):
    code, out, _ = run_cli(capsys, "activate", "--state", "fock:1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ssr_entangled"] is True
    assert doc["modes_out"] == 4
    assert sum(doc["sectors"].values()) == pytest.approx(1.0)


def test_activate_table(capsys):
    code, out, _ = run_cli(capsys, "activate", "--state", "noon:2", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sector_na,sector_nb,probability,schmidt_spectrum"
    assert len(lines) == 4  # sectors (0,2), (1,1), (2,0)


def test_activate_postselect(capsys):
    code, out, _ = run_cli(capsys, "activate", "--state", "fock:2,2",
                           "--postselect", "2,2")
    doc = json.loads(out)
    assert code == 0
    support = {tuple(map(tuple, pair)) for pair in doc["postselected"]["support"]}
    assert support == {((1, 1), (1, 1)), ((2, 0), (0, 2)), ((0, 2), (2, 0))}


def test_activate_classical_above_twenty_particles(capsys):
    # the Poisson cutoff 25 puts more than 20 particles in one mode, where
    # prod n_i! would pass 2**63
    code, out, _ = run_cli(capsys, "activate", "--state", "classical:2,2")
    assert code == 0
    assert json.loads(out)["ssr_entangled"] is False


def test_activate_classical_above_170_particles(capsys):
    # the Poisson blocks of |alpha|^2 = 121 reach 187 particles in one mode,
    # past the 170 where N! overflows a float
    code, out, _ = run_cli(capsys, "activate", "--state", "classical:11")
    assert code == 0
    assert json.loads(out)["e_ssr_negativity"] == 0.0


def test_qfi_subcommand(capsys):
    code, out, _ = run_cli(capsys, "qfi", "--state", "noon:2", "--observable", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(8.0)


def test_mpef_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mpef", "--state", "noon:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(4.0, abs=1e-9)
    assert abs(doc["argmax_h"]["bloch"][2]) == pytest.approx(1.0)
    assert doc["lower"] == doc["value"]
    assert doc["upper"] - doc["lower"] == doc["gap"]
    assert 0.0 <= doc["gap"] <= 1e-12


MPEF_NOON2_STDOUT = """{
  "value": 4.0,
  "lower": 4.0,
  "upper": 4.0,
  "gap": 0.0,
  "search_metadata": {
    "objective": 4.0,
    "theta": 0.0,
    "phi": 0.0,
    "search": "two_mode_exact"
  },
  "argmax_h": {
    "bloch": [
      0.0,
      0.0,
      1.0
    ],
    "theta": 0.0,
    "phi": 0.0
  }
}
"""


def test_mpef_stdout_is_pinned(capsys):
    """The whole document, byte for byte; the argmax angles are the two-mode
    solver's own (theta, phi) of its Bloch vector."""
    assert run_cli(capsys, "mpef", "--state", "noon:2") == (0, MPEF_NOON2_STDOUT, "")
    code, out, _ = run_cli(capsys, "mpef", "--state", "fock:2,1")
    arg = json.loads(out)["argmax_h"]
    nx, ny, nz = arg["bloch"]
    assert (arg["theta"], arg["phi"]) == (math.acos(nz), math.atan2(ny, nx)) != (0.0, 0.0)


def test_witness_pipeline_files(tmp_path, capsys):
    csv_path = tmp_path / "shots.csv"
    code, out, _ = run_cli(capsys, "witness", "synth", "--model", "squeezed",
                           "--xi2", "0.25", "--shots", "3000", "--seed", "7",
                           "--out", str(csv_path))
    assert code == 0
    meta_path = json.loads(out)["meta"]

    code, out, _ = run_cli(capsys, "witness", "bound", "--data", str(csv_path),
                           "--meta", meta_path, "--optimize",
                           "--bootstrap", "100", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["separability_ratio"] < 1.0
    assert doc["bound"] > 0.0
    assert doc["bootstrap_se"] > 0.0


def test_witness_bound_rejects_bad_metadata_mean(tmp_path, capsys):
    # a negative mean count shrinks the normalization: the bound would overclaim;
    # a JSON true or string is no number, not 1.0 or 20.0
    csv_path = tmp_path / "shots.csv"
    code, out, _ = run_cli(capsys, "witness", "synth", "--model", "squeezed", "--shots", "300",
                           "--seed", "1", "--out", str(csv_path))
    assert code == 0
    meta_path = json.loads(out)["meta"]
    args = ("witness", "bound", "--data", str(csv_path), "--meta", meta_path, "--optimize")
    assert run_cli(capsys, *args)[0] == 0
    with open(meta_path) as fh:
        meta = json.load(fh)
    for key, value in (("n1_a_mean", -5), ("n1_a_mean", math.nan), ("n1_a_mean", "20"),
                       ("eta_a", True)):
        with open(meta_path, "w") as fh:
            json.dump(dict(meta, **{key: value}), fh)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert key in err


def test_witness_bound_gates_bootstrap_count(tmp_path, capsys):
    # refused before an array of 1e10 resample values (74.5 GiB) is allocated
    csv_path = tmp_path / "shots.csv"
    code, out, _ = run_cli(capsys, "witness", "synth", "--model", "squeezed", "--shots", "300",
                           "--seed", "1", "--out", str(csv_path))
    assert code == 0
    meta_path = json.loads(out)["meta"]
    code, out, err = run_cli(capsys, "witness", "bound", "--data", str(csv_path), "--meta",
                             meta_path, "--optimize", "--bootstrap", "10000000000")
    assert (code, out) == (2, "")
    assert "n_bootstrap" in err and "dense support cap" in err


def test_witness_bound_requires_params(tmp_path, capsys):
    csv_path = tmp_path / "shots.csv"
    run_cli(capsys, "witness", "synth", "--model", "constant", "--out", str(csv_path))
    code, _, err = run_cli(capsys, "witness", "bound", "--data", str(csv_path),
                           "--meta", str(tmp_path / "shots_meta.json"))
    assert code == 2
    assert "gz" in err or "optimize" in err


def test_demo_subcommands(capsys):
    for name in ("yurke-stoler", "hom", "fig1", "two-copy"):
        code, out, _ = run_cli(capsys, "demo", name)
        assert code == 0
        json.loads(out)


def test_demo_yurke_stoler_values(capsys):
    _, out, _ = run_cli(capsys, "demo", "yurke-stoler")
    doc = json.loads(out)
    assert doc["negativity_without_ssr"] == pytest.approx(0.5, abs=1e-10)
    assert doc["e_ssr_negativity"] == pytest.approx(0.0, abs=1e-12)


def test_definetti_subcommand(capsys):
    code, out, _ = run_cli(capsys, "definetti", "--N", "4", "--m", "4", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["bound"] == pytest.approx(0.25)
    # the uniform default has one distinct mode permutation at any m
    code, out, _ = run_cli(capsys, "definetti", "--N", "2", "--m", "12", "--l", "12")
    assert code == 0
    assert json.loads(out)["satisfied"] is True


def test_binpoisson_subcommand(capsys):
    code, out, _ = run_cli(capsys, "binpoisson", "--N", "20", "--p", "0.1")
    assert code == 0
    assert json.loads(out)["satisfied"] is True


def test_binpoisson_huge_n_exits_2(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "binpoisson", "--N", "1000000000000", "--p", "0.5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "exceeds" in err
    assert peak < 2**20


BAD_INPUTS = (
    ("activate", "--state", "nonsense:3"),
    ("activate", "--state", "fock:x,1"),
    ("activate", "--state", "fock:1.5,1"),
    ("activate", "--state", "fock:-1,1"),
    ("activate", "--state", "fock:1,1", "--postselect", "a"),
    ("activate", "--state", "fock:1,1", "--r", "0.5,x"),
    ("activate", "--state", "fock:1,1", "--va", "random:x"),
    # negative seeds, which numpy's generator refuses with a bare ValueError
    ("activate", "--state", "noon:2", "--va", "random:-1"),
    ("mpef", "--state", "noon:2", "--search", "general_restarts", "--restarts", "1",
     "--seed", "-5"),
    ("witness", "synth", "--model", "css", "--shots", "30", "--seed", "-1", "--out", "{unwritten}"),
    ("witness", "bound", "--data", "{shots}", "--meta", "{meta}", "--optimize", "--bootstrap", "10",
     "--seed", "-3"),
    # 10 output modes exceed the desk mode cap
    ("activate", "--state", "fock:1,1,1,1,1"),
    ("activate", "--state", "classical:nan"),
    # a Poisson cutoff above 1e6, refused before its support is allocated
    ("activate", "--state", "classical:1000000"),
    # a non-finite coherent-spin direction, and a zero one (0/0 on normalising)
    ("activate", "--state", "css:nan,1,2"),
    ("activate", "--state", "css:0,0,2"),
    ("qfi", "--state", "noon:2", "--observable", "bloch:1,x,0"),
    # a zero, a non-finite and a two-component Bloch vector, and a NaN reflectivity
    ("qfi", "--state", "fock:1,1", "--observable", "bloch:0,0,0"),
    ("qfi", "--state", "fock:1,1", "--observable", "bloch:nan,0,1"),
    ("qfi", "--state", "fock:1,1", "--observable", "bloch:1,0"),
    ("activate", "--state", "fock:1,1", "--r", "nan,0.5"),
    ("mpef", "--state", "noon:2", "--restarts", "-1"),
    ("definetti", "--N", "2", "--m", "2", "--l", "1", "--mixture", "{no_terms}"),
    # 9! distinct mode permutations exceed the 8! at the desk mode cap
    ("definetti", "--N", "2", "--m", "9", "--l", "1", "--mixture", "{generic}"),
    ("definetti", "--N", "2", "--m", "2", "--l", "1", "--mixture", "{nan_entry}"),
    # a weight that is a JSON true or a string, not 1.0
    ("definetti", "--N", "2", "--m", "2", "--l", "1", "--mixture", "{true_weight}"),
    ("definetti", "--N", "2", "--m", "2", "--l", "1", "--mixture", "{string_weight}"),
    # and a de Finetti one
    ("definetti", "--N", "1000000000000", "--m", "2", "--l", "1"),
    # gains whose separability ratio, then whose normalization, overflow
    ("witness", "bound", "--data", "{shots}", "--meta", "{meta}", "--gz", "1e100", "--gy", "1e100"),
    ("witness", "bound", "--data", "{shots}", "--meta", "{meta}", "--gz", "1e200", "--gy", "1e200"),
    # one resample has no standard deviation; a negative count is no count
    ("witness", "bound", "--data", "{shots}", "--meta", "{meta}", "--optimize", "--bootstrap", "1"),
    ("witness", "bound", "--data", "{shots}", "--meta", "{meta}", "--optimize", "--bootstrap", "-5"),
    ("witness", "synth", "--model", "css", "--shots", "-1", "--out", "{unwritten}"),
    ("witness", "synth", "--model", "css", "--atoms", "-5", "--out", "{unwritten}"),
    ("witness", "synth", "--model", "css", "--eta", "nan", "--out", "{unwritten}"),
    # four shots leave one on each of z and y, too few for a bound
    ("witness", "synth", "--model", "css", "--shots", "4", "--out", "{unwritten}"),
    # 1e20 atoms, above 2**53, where counts stop being exact floats
    ("witness", "synth", "--model", "css", "--shots", "6", "--atoms", "100000000000000000000",
     "--out", "{unwritten}"),
    # a billion shots, above the 1e6 shot cap, refused before drawing
    ("witness", "synth", "--model", "squeezed", "--shots", "1000000000", "--out", "{unwritten}"),
    # the constant model ignores the sizes, but still checks them
    ("witness", "synth", "--model", "constant", "--shots", "1000000000", "--out", "{unwritten}"),
    ("witness", "synth", "--model", "constant", "--atoms", "-5", "--out", "{unwritten}"),
    # a count that is no number
    ("witness", "bound", "--data", "{bad_counts}", "--meta", "{meta}", "--optimize"),
)


def test_validation_error_exit_code(capsys, tmp_path):
    c = np.arange(1.0, 10.0) / np.linalg.norm(np.arange(1.0, 10.0))
    mixtures = {
        "no_terms": {},
        "generic": {"terms": [{"q": 1.0, "c": [[x, 0.0] for x in c]}]},
        "nan_entry": {"terms": [{"q": 1.0, "c": [[math.nan, 0.0], [0.0, 0.0]]}]},
        "true_weight": {"terms": [{"q": True, "c": [[1.0, 0.0], [0.0, 0.0]]}]},
        "string_weight": {"terms": [{"q": "1", "c": [[1.0, 0.0], [0.0, 0.0]]}]},
    }
    paths = {}
    for name, doc in mixtures.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["shots"] = tmp_path / "shots.csv"
    paths["meta"] = tmp_path / "shots_meta.json"
    paths["unwritten"] = tmp_path / "unwritten.csv"
    paths["bad_counts"] = tmp_path / "bad_counts.csv"
    paths["bad_counts"].write_text("setting,n1a,n2a,n1b,n2b\nz,1,abc,1,1\n")
    code, _, _ = run_cli(capsys, "witness", "synth", "--model", "squeezed", "--shots", "300",
                         "--seed", "3", "--out", str(paths["shots"]))
    assert code == 0
    for argv in BAD_INPUTS:
        code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2, argv
        assert "error" in err, argv
    assert not paths["unwritten"].exists()


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "witness", "bound", "--data", "/no/such.csv",
                           "--meta", "/no/such.json", "--optimize")
    assert code == 2
