"""End-to-end tests for the covquant command line."""

import json
import shutil
import subprocess
import sys

import pytest

from covquant.catalog import CATALOG
from covquant.cli import HEIGHT_CAP, main


def run_cli(capsys, args):
    code = main(args)
    return code, json.loads(capsys.readouterr().out)


# --- validate -------------------------------------------------------------


def test_validate_builtin_ok(capsys):
    code, payload = run_cli(capsys, ["validate", "--datum", "osp14"])
    assert code == 0
    assert payload["valid"] is True
    assert payload["findings"] == []
    assert len(payload["datum_sha256"]) == 16
    assert payload["datum"]["datum"]["indices"] == ["1", "2"]


def test_validate_parity_flip_reports_condition_d(capsys, tmp_path):
    data = json.loads(json.dumps(CATALOG["osp14"]))
    data["parity"] = [1 - p for p in data["parity"]]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(data))
    code, payload = run_cli(capsys, ["validate", "--datum", str(path)])
    assert code == 1
    assert payload["valid"] is False
    assert "d" in {f["condition"] for f in payload["findings"]}


def test_validate_asymmetric_dot(capsys, tmp_path):
    data = json.loads(json.dumps(CATALOG["osp14"]))
    data["dot"][0][1] += 1
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(data))
    code, payload = run_cli(capsys, ["validate", "--datum", str(path)])
    assert code == 1
    assert "symmetry" in {f["condition"] for f in payload["findings"]}


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, payload = run_cli(capsys, ["validate", "--datum", str(path)])
    assert code == 2
    assert "error" in payload


def test_validate_missing_field(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"indices": ["1"], "dot": [[2]]}))
    code, payload = run_cli(capsys, ["validate", "--datum", str(path)])
    assert code == 2
    assert "parity" in payload["error"]


def test_unknown_datum_name(capsys):
    code, payload = run_cli(capsys, ["canonical", "--datum", "nonsense"])
    assert code == 2
    assert "error" in payload


# --- canonical ------------------------------------------------------------


def test_canonical_osp14_contains_121(capsys):
    code, payload = run_cli(
        capsys, ["canonical", "--datum", "osp14", "--height", "3"])
    assert code == 0
    rows = {r["label"]: r for r in payload["table"]}
    assert rows["121"]["element"] == "θ[1]θ[2]θ[1]"
    assert rows["121"]["ell_mod4"] == 3
    assert rows["121"]["weight"] == [2, 1]
    # empty word renders as "1"
    assert rows[""]["element"] == "1"


def test_canonical_embeds_datum_hash(capsys):
    code, payload = run_cli(
        capsys, ["canonical", "--datum", "osp12", "--height", "2"])
    assert code == 0
    assert len(payload["datum_sha256"]) == 16
    assert payload["command"] == "canonical"
    assert payload["config"]["height"] == 2


def test_canonical_deterministic_and_cache_invariant(tmp_path):
    cache = tmp_path / "cache"
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["canonical", "--datum", "osp14", "--height", "4",
                     "--out", str(out), "--cache", str(cache)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert cache.is_dir() and any(cache.iterdir())
    shutil.rmtree(cache)
    out = tmp_path / "c.json"
    assert main(["canonical", "--datum", "osp14", "--height", "4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == outs[0]


def test_cache_path_is_a_file_exits_2(capsys, tmp_path):
    notadir = tmp_path / "notadir"
    notadir.write_text("", encoding="utf-8")
    code, payload = run_cli(capsys, ["canonical", "--datum", "osp14",
                                     "--height", "2", "--cache", str(notadir)])
    assert code == 2
    assert str(notadir) in payload["error"]


def test_cache_write_failure_exits_2(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["canonical", "--datum", "osp14", "--height", "2",
            "--cache", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    target, = cache.glob("*_1-1.json")
    target.unlink()
    # a directory where the temporary file would go blocks the write
    (cache / (target.name + ".tmp")).mkdir()
    code, payload = run_cli(capsys, argv)
    assert code == 2
    assert str(target) in payload["error"]


def test_height_cap(capsys):
    code, payload = run_cli(
        capsys, ["canonical", "--datum", "osp12",
                 "--height", str(HEIGHT_CAP + 1)])
    assert code == 2
    assert "force-height" in payload["error"]
    code, payload = run_cli(
        capsys, ["canonical", "--datum", "osp12",
                 "--height", str(HEIGHT_CAP + 1), "--force-height"])
    assert code == 0


# --- character ------------------------------------------------------------


def test_character_needs_lambda(capsys):
    code, payload = run_cli(
        capsys, ["character", "--datum", "osp14", "--height", "3"])
    assert code == 2
    assert "lambda" in payload["error"]


def test_character_lambda_length(capsys):
    code, payload = run_cli(
        capsys, ["character", "--datum", "osp14", "--lambda", "1",
                 "--height", "3"])
    assert code == 2
    code, payload = run_cli(
        capsys, ["character", "--datum", "osp14", "--lambda", "1,x",
                 "--height", "3"])
    assert code == 2


def test_character_vector_rep(capsys):
    code, payload = run_cli(
        capsys, ["character", "--datum", "osp14", "--lambda", "0,1",
                 "--height", "4"])
    assert code == 0
    assert [r["pi"] for r in payload["results"]] == ["+1", "-1"]
    for rep in payload["results"]:
        assert rep["lambda"] == [0, 1]
        assert sum(e["dim"] for e in rep["character"]) == 5


def test_character_single_sign(capsys):
    code, payload = run_cli(
        capsys, ["character", "--datum", "osp12", "--lambda", "2",
                 "--height", "4", "--pi", "-1"])
    assert code == 0
    assert [r["pi"] for r in payload["results"]] == ["-1"]
    assert [e["dim"] for e in payload["results"][0]["character"]] == [1, 1, 1]


# --- verify ---------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--height", "3"])
    assert code == 0
    assert payload["pass"] is True
    suites = [r["suite"] for r in payload["reports"]]
    assert suites == ["half-twistor", "rho-psi", "lattice-psi",
                      "lattice-rho", "modified-twistor", "hat-twistor",
                      "chi-diagram", "clubsuit"]
    assert all(r["pass"] for r in payload["reports"])


def test_verify_half_twistor_height_six(capsys):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite", "half-twistor",
                 "--height", "6"])
    assert code == 0
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite", "half-twistor",
                 "--height", "6", "--mutate"])
    assert code == 1
    assert payload["pass"] is False


def test_verify_mutate_fails_with_records(capsys):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite",
                 "modified-twistor", "--height", "3", "--mutate"])
    assert code == 1
    bad = [e for r in payload["reports"] for e in r["entries"]
           if e["status"] == "fail"]
    assert bad
    for e in bad:
        assert e["relation"] == "commutator"
        assert e["i"] == e["j"]


def test_verify_custom_datum_file(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(CATALOG["osp12_a1"]))
    code, payload = run_cli(
        capsys, ["verify", "--datum", str(path), "--suite", "rho-psi",
                 "--height", "3"])
    assert code == 0
    assert payload["pass"] is True


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--datum", "osp14", "--suite", "bogus"])
    assert err.value.code == 2


def test_verify_lambda_flows_to_module(capsys):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite",
                 "modified-twistor", "--height", "3", "--lambda", "0,1"])
    assert code == 0
    report = payload["reports"][0]
    assert report["lambda"] == [0, 1]


# --- console script -------------------------------------------------------


def test_console_script_bytes_stable():
    cmd = [sys.executable, "-m", "covquant.cli", "canonical",
           "--datum", "osp14", "--height", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    table = json.loads(first.stdout)["table"]
    assert {"label": "121", "weight": [2, 1],
            "element": "θ[1]θ[2]θ[1]", "ell_mod4": 3} in table
