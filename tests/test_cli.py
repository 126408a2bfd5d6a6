"""End-to-end tests for the covquant command line."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from covquant.catalog import CATALOG
from covquant import scalars
from covquant.cli import BRACKET_TERM_CAP, HEIGHT_CAP, _build_parser, main


# a child interpreter finds the package through this, whatever the cwd
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


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
    for args in (["validate"], ["canonical"], ["character", "--lambda", "1"],
                 ["verify"]):
        code, payload = run_cli(capsys, args + ["--datum", str(path)])
        assert code == 2, args
        assert payload == {
            "error": "datum file is missing the 'parity' field"}, args


def _osp14_explicit():
    """osp14 with its simply connected root datum and a transversal of
    X/Z[I] (order 2) written out."""
    data = json.loads(json.dumps(CATALOG["osp14"]))
    data["X"] = {"rank": 2, "pairing": [[1, 0], [0, 1]],
                 "emb": [[2, -1], [-2, 2]]}
    data["Y"] = {"rank": 2, "emb": [[1, 0], [0, 1]]}
    data["transversal"] = [[0, 0], [1, 0]]
    return data


def _run_edited_osp14(capsys, tmp_path, args, where, value):
    """Run args on _osp14_explicit() with the entry at path where set to
    value."""
    data = _osp14_explicit()
    *keys, last = where
    holder = data
    for key in keys:
        holder = holder[key]
    holder[last] = value
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    return run_cli(capsys, [args[0], "--datum", str(path)] + args[1:])


COMMANDS = [["validate"], ["canonical", "--height", "2"]]


@pytest.mark.parametrize("args", COMMANDS, ids=["validate", "canonical"])
def test_explicit_root_datum_accepted(capsys, tmp_path, args):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_osp14_explicit()))
    code, payload = run_cli(capsys, [args[0], "--datum", str(path)] + args[1:])
    assert code == 0
    assert payload["datum"]["transversal"]["representatives"] == [[0, 0],
                                                                   [1, 0]]


@pytest.mark.parametrize("args", COMMANDS, ids=["validate", "canonical"])
@pytest.mark.parametrize("where, value", [
    (("dot", 0, 1), -2.0),
    (("dot", 1, 1), 4.5),
    (("parity", 0), True),
    (("parity", 1), "0"),
    (("X", "emb", 0, 0), 2.0),
    (("X", "pairing", 1, 1), True),
    (("Y", "rank"), "2"),
    (("transversal", 1, 0), 1.0),
], ids=["dot-float", "dot-fraction", "parity-bool", "parity-str",
        "emb-float", "pairing-bool", "rank-str", "transversal-float"])
def test_non_integer_datum_entry_exits_2(capsys, tmp_path, args, where, value):
    code, payload = _run_edited_osp14(capsys, tmp_path, args, where, value)
    assert code == 2
    assert payload["error"].startswith("datum file is malformed")


ALL_COMMANDS = COMMANDS + [["character", "--lambda", "1,0", "--height", "2"],
                           ["verify", "--lambda", "1,0", "--height", "2"]]


@pytest.mark.parametrize("args", ALL_COMMANDS,
                         ids=["validate", "canonical", "character", "verify"])
@pytest.mark.parametrize("where, value", [
    (("X", "emb", 0), [2]),
    (("Y", "emb", 1), [0, 1, 0]),
    (("X", "emb"), [[2, -1]]),
    (("X", "pairing"), [[1, 0]]),
    (("transversal",), [[0]]),
    (("transversal",), [[0, 0]]),
    (("transversal",), [[0, 0], [2, -1]]),
    (("X",), []),
    (("Y",), "s"),
    (("X", "pairing"), []),
], ids=["emb-row-short", "emb-row-long", "emb-row-missing", "pairing-shape",
        "transversal-short", "transversal-misses-class",
        "transversal-congruent", "X-list", "Y-string", "pairing-empty"])
def test_bad_root_datum_shape_exits_2(capsys, tmp_path, args, where, value):
    code, payload = _run_edited_osp14(capsys, tmp_path, args, where, value)
    assert code == 2
    assert payload["error"].startswith("datum file is malformed")


@pytest.mark.parametrize("args", ALL_COMMANDS,
                         ids=["validate", "canonical", "character", "verify"])
@pytest.mark.parametrize("value", [
    "ab",
    {"1": 0, "2": 1},
    ["1", "1"],
    ["1", 1],
    ["", "2"],
    ["a", "aa"],
], ids=["string", "object", "duplicate", "duplicate-as-text", "empty-name",
        "prefix"])
def test_bad_indices_exit_2(capsys, tmp_path, args, value):
    code, payload = _run_edited_osp14(capsys, tmp_path, args, ("indices",),
                                      value)
    assert code == 2
    assert payload["error"].startswith("datum file is malformed")


@pytest.mark.parametrize("args", ALL_COMMANDS,
                         ids=["validate", "canonical", "character", "verify"])
def test_rank_zero_datum_exits_2(capsys, tmp_path, args):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"indices": [], "dot": [], "parity": []}))
    code, payload = run_cli(capsys, [args[0], "--datum", str(path)] + args[1:])
    assert code == 2
    assert payload["error"] == ("datum file is malformed: a datum needs at "
                                "least one index")


def test_weight_outside_user_transversal_exits_2(capsys, tmp_path):
    # X/Z[I]' is infinite for the affine datum, so a one-vector transversal
    # passes the file checks but misses the class of lambda = (1, 0, 0),
    # which the verify suites need phi_dot on
    data = json.loads(json.dumps(CATALOG["affine_b01"]))
    data["X"] = {"rank": 3, "emb": [[2, -4, 1], [-1, 2, 0]]}
    data["Y"] = {"rank": 3, "emb": [[1, 0, 0], [0, 1, 0]]}
    data["transversal"] = [[0, 0, 0]]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    code, payload = run_cli(capsys, ["verify", "--datum", str(path),
                                     "--lambda", "1,0,0", "--height", "2"])
    assert code == 2
    assert payload["error"].startswith("datum file is malformed")


def test_non_integral_cartan_matrix_exits_2(capsys, tmp_path):
    # 2(1.2)/(1.1) = -1/2; the default root datum cannot be built
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"indices": ["1", "2"],
                                "dot": [[2, -1], [-1, 4]], "parity": [1, 0]}))
    code, payload = run_cli(
        capsys, ["canonical", "--datum", str(path), "--height", "2"])
    assert code == 2
    assert "Cartan integers" in payload["error"]


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


def test_canonical_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["canonical", "--datum", "osp14", "--height", "4",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args", [["validate"], ["canonical"], ["verify"]],
                         ids=["validate", "canonical", "verify"])
def test_validate_rejects_cache(tmp_path, args):
    # there is no Gram disk cache, so --cache is not one of their options
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as err:
        main(args + ["--datum", "osp14", "--cache", str(cache)])
    assert err.value.code == 2
    assert not cache.exists()


def test_character_ignores_cache(tmp_path):
    argv = ["character", "--datum", "osp14", "--lambda", "2,0",
            "--height", "6"]
    cache = tmp_path / "cache"
    outs = []
    for extra in ([], ["--cache", str(cache)]):
        out = tmp_path / "out.json"
        assert main(argv + extra + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert not cache.exists()


def test_unwritable_out_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, payload = run_cli(capsys, ["character", "--datum", "osp14",
                                     "--lambda", "1,0", "--height", "2",
                                     "--out", str(out)])
    assert code == 2
    assert payload["error"].startswith("cannot write --out file")
    assert str(out) in payload["error"]
    assert not out.exists()


def test_unwritable_stdout_exits_2_without_traceback():
    # /dev/full accepts the open and fails every write with ENOSPC
    cmd = [sys.executable, "-m", "covquant.cli", "validate",
           "--datum", "osp14"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE,
                              text=True, env=CHILD_ENV)
    assert proc.returncode == 2
    assert proc.stderr.startswith("covquant: cannot write to stdout")
    assert "--out" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


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


@pytest.mark.parametrize("command", ["character", "verify"])
def test_huge_lambda_exits_2_quickly(capsys, command):
    start = time.perf_counter()
    code, payload = run_cli(
        capsys, [command, "--datum", "osp14",
                 "--lambda", "99999999999999999999,0", "--height", "2"])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "index '1'" in payload["error"]
    assert str(BRACKET_TERM_CAP) in payload["error"]


def test_lambda_bracket_budget_boundary(capsys):
    # osp14 has d = (1, 2): the second coordinate counts twice, and a
    # negative pairing counts by its size
    cap = BRACKET_TERM_CAP
    for lam, code, index in [(f"{cap},0", 0, None), (f"{cap + 1},0", 2, "1"),
                             (f"0,{cap // 2}", 0, None),
                             (f"0,{cap // 2 + 1}", 2, "2"),
                             (f"-{cap + 1},0", 2, "1")]:
        got, payload = run_cli(
            capsys, ["character", "--datum", "osp14", f"--lambda={lam}",
                     "--height", "1"])
        assert got == code, (lam, payload)
        if index is not None:
            assert f"index '{index}'" in payload["error"]


def test_negative_lambda_as_separate_argument(tmp_path):
    outputs = []
    for spelling in (["--lambda", "-1,0"], ["--lambda=-1,0"],
                     ["--lam", "-1,0"]):
        out = tmp_path / "out.json"
        argv = ["character", "--datum", "osp14", *spelling, "--height", "2"]
        outputs.append((main(argv + ["--out", str(out)]), out.read_bytes()))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


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


@pytest.mark.parametrize("suite", ["rho-psi", "lattice", "chi-diagram",
                                   "clubsuit"])
def test_verify_mutate_without_planted_error_exits_2(capsys, suite):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite", suite,
                 "--height", "2", "--mutate"])
    assert code == 2
    assert set(payload) == {"error"}
    assert suite in payload["error"]


@pytest.mark.parametrize("suite", ["half-twistor", "modified-twistor",
                                   "hat-twistor"])
def test_verify_mutate_fails_planted_suites(capsys, suite):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite", suite,
                 "--height", "2", "--mutate"])
    assert code == 1
    assert payload["pass"] is False


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


@pytest.mark.parametrize("suite,lam,message", [
    ("clubsuit", "1,2,3,4", "--lambda needs 2 coordinates, got 4"),
    ("rho-psi", "9999,0", "bracket term budget"),
], ids=["clubsuit-coordinates", "rho-psi-budget"])
def test_verify_checks_lambda_without_a_module_suite(capsys, suite, lam,
                                                     message):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite", suite,
                 "--lambda", lam, "--height", "2"])
    assert code == 2
    assert set(payload) == {"error"}
    assert message in payload["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "--datum", "osp14", "--suite", "lattice", "--height", "2"],
    ["canonical", "--datum", "osp14", "--height", "2"],
], ids=["verify-lattice", "canonical"])
def test_failing_lattice_certificate_exits_1(capsys, monkeypatch, argv):
    # plant v times the first f_tilde image at weight (1, 1): it lies in
    # vL, its self-pairing is 0 mod v, and the run must end in a JSON error
    from covquant import crystal
    process = crystal.Crystal._process_weight

    def planted(self, nu, candidates):
        if nu == (1, 1):
            (label, x), *rest = candidates
            candidates = [(label, x.scale(scalars.PiScalar.v_power(1)))]
            candidates += rest
        return process(self, nu, candidates)

    monkeypatch.setattr(crystal.Crystal, "_process_weight", planted)
    code, payload = run_cli(capsys, argv)
    assert code == 1
    assert payload == {"error": "computation failed: a crystal rep's "
                                "self-pairing at weight (1, 1), pi = 1, is "
                                "not +-1 mod v over A"}


def test_verify_lambda_flows_to_module(capsys):
    code, payload = run_cli(
        capsys, ["verify", "--datum", "osp14", "--suite",
                 "modified-twistor", "--height", "3", "--lambda", "0,1"])
    assert code == 0
    report = payload["reports"][0]
    assert report["lambda"] == [0, 1]


def test_readme_options_match_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers, = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    registered = {opt for sp in subparsers.choices.values()
                  for action in sp._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
    assert documented == registered


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


# stdout and --out are separate streaming targets; each command must
# write the same bytes to both
SAME_BYTES = [
    (["validate", "--datum", "osp14"], 0),
    (["canonical", "--datum", "osp14", "--height", "3"], 0),
    (["character", "--datum", "osp14", "--lambda", "2,0", "--height", "6"], 0),
    (["verify", "--datum", "osp14", "--suite", "all", "--height", "3"], 0),
    (["verify", "--datum", "osp14", "--suite", "all", "--height", "3",
      "--mutate"], 1),
]


@pytest.mark.parametrize("argv, code", SAME_BYTES,
                         ids=["validate", "canonical", "character", "verify",
                              "verify-mutate"])
def test_stdout_bytes_equal_out_file(tmp_path, argv, code):
    cmd = [sys.executable, "-m", "covquant.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
    assert proc.returncode == code
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert proc.stdout == out.read_bytes()


# --- golden bytes ---------------------------------------------------------

# (exit code, sha256 of the output).  The first six are the benchmark
# invocations, recorded before the scalar tower stored integral components
# as int; the rest reach the a_ij = 0 Serre element (osp12_a1) and the
# singular Cartan matrix (affine_b01), recorded before the duplicate Serre
# coefficient, determinant and reduction routines were merged.  Any change
# to the arithmetic must leave these bytes alone.
GOLDEN = [
    (["canonical", "--datum", "osp14", "--height", "4"], 0,
     "b5f3af078882e4cc9609fdad505c4a26dd43a92f7fc439990d1f83ccd1795aa5"),
    (["canonical", "--datum", "osp16", "--height", "3"], 0,
     "3c8a4bfa80510470855d25737ba0fc148f2294b1c796d0e9c3b7fdc7dc02bc7b"),
    (["character", "--datum", "osp14", "--lambda", "2,0", "--height", "6"], 0,
     "5e9c707c72aa8664c0f6b1e6d459e3980f869b95ed1dccfc9e7deffb362d86e3"),
    (["verify", "--datum", "osp14", "--suite", "all", "--height", "4"], 0,
     "1d1b60daaf67f711290c7e4ab55e936153c036f1e5f2790b5e03c0fb1d058825"),
    (["verify", "--datum", "osp16", "--suite", "all", "--height", "3"], 0,
     "c00994a0d8a4366f6d245423395cccbd223c6ee84b9b69da5f58242113f0aef5"),
    (["verify", "--datum", "osp14", "--suite", "all", "--height", "3",
      "--mutate"], 1,
     "a5b62316415dc98673c0cfcceb2d8aafb6985c7d79ffbaf243785d887fa79c76"),
    (["canonical", "--datum", "osp12", "--height", "4"], 0,
     "33dfc1884b52b6981eba376664a9c02ffcd5ebc9968586947d5930c7934d4908"),
    (["canonical", "--datum", "osp12_a1", "--height", "4"], 0,
     "29a049c9d47f83416b05d367d7741538499831507f8b38478ee32c8836f36039"),
    (["canonical", "--datum", "affine_b01", "--height", "3"], 0,
     "7dcf9e4936d3f362f6695f133f2e8e22a6608ee6437ce32da887a627a89b342e"),
    (["canonical", "--datum", "osp14", "--height", "5"], 0,
     "2952a492838eee4650c415778e9e51e3566c02f957d0f9864e2bfcf9c94d6b87"),
    # each crystal rep is its class's first f_tilde image, unscaled; the
    # former orientation rule negated row 112221 here (67e6b1ef...)
    (["canonical", "--datum", "osp14", "--height", "6"], 0,
     "ef52b663182b33e27f0c46015d1ebdd8fc91abe923f35e60b7e1a6b0f0f07fda"),
    # recorded while canonical_basis still solved for coordinates over the
    # crystal reps, before it read them through the form
    (["canonical", "--datum", "osp16", "--height", "5"], 0,
     "a81d8383a3287c244c515db2c9c8eace815716eadfb8e49795dff07dfe1075c9"),
    (["canonical", "--datum", "affine_b01", "--height", "5"], 0,
     "be1bad733eb733b8db0e7f651950a2ab6632e4bb15c68dae0141624ead974f00"),
    (["character", "--datum", "osp12_a1", "--lambda", "2,1", "--height", "4"],
     0, "1f0c2366fe31e9e35dca142f7db8f66b16486518df5744ab878d4a8e24ef5065"),
    (["character", "--datum", "affine_b01", "--lambda", "1,1,0",
      "--height", "4"], 0,
     "81d03961b0899c1a998a4d032a3c29cfb8b9370a25fd7ceee9261e474e5f2b0a"),
    (["character", "--datum", "osp16", "--lambda", "1,1,1", "--height", "4"],
     0, "f09ba039a5e2f923c29389590cdbf364d5aabb17d3ee83a643c4f5a96ec3fba1"),
    (["verify", "--datum", "osp12", "--suite", "all", "--height", "4"], 0,
     "46b90c17a140344b7b30ab9d90a8214c4098625ea8178127a5a58288fdef6a49"),
    (["verify", "--datum", "osp12_a1", "--suite", "all", "--height", "4"], 0,
     "004c3e1d7e26563ac36c3d5c594da57dde39e723143a43c1d624eb43471aebcb"),
    (["verify", "--datum", "affine_b01", "--suite", "all", "--height", "3"], 0,
     "5259c74aaddebcaa4cbf391c83c057e80875dcbc68bbcef52882107c21d847c5"),
    (["verify", "--datum", "osp12_a1", "--suite", "all", "--height", "3",
      "--mutate"], 1,
     "42e60fbad1970dd513ce334e9f5ec29ef871ec71c26160a67863c5be9ed7d6a9"),
    (["verify", "--datum", "affine_b01", "--suite", "all", "--height", "2",
      "--mutate"], 1,
     "c40973cd0cb66b730e000e3b0ed4d8f3137c06882863731b4ab9fd7c3042fefa"),
    (["validate", "--datum", "affine_b01"], 0,
     "b704d47594c80da2e45b95dae7f8201366db700088e806924ec9e83dad39ff93"),
    (["character", "--datum", "osp14", "--lambda", "1,1", "--height", "7"], 0,
     "38d8ea34c31b032d8dc039ba24f7d6e2ffd88563d05f90f1860b1aa8737d8191"),
    (["verify", "--datum", "osp14", "--lambda", "2,0", "--suite", "all",
      "--height", "4"], 0,
     "977045132506c268fb8ca5718574af7dc01d7e6d67413b9a6996e68ff021b517"),
    (["verify", "--datum", "osp16", "--lambda", "1,0,1", "--suite", "all",
      "--height", "3", "--mutate"], 1,
     "062b079b2fc9bafeb1f9e916f3466c74b325d6b2f31c3cafde97746f2bbf0692"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=["-".join(a for a in g[0] if not a.startswith("--"))
                              for g in GOLDEN])
def test_golden_output_digest(tmp_path, argv, code, digest):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# RationalFn constructions of one in-process run each: verify since the
# crystal is generated through the form (3758 before, with the v-adic
# echelon), canonical since the canonical basis is also read through the
# form (3936 with the echelon, 3485 with a field solve for coordinates
# over the crystal reps), character since the module is built on free
# words (5330 before); verify and canonical since the crystal reads the
# Gram entries as they are (3640 and 2677 when each was converted)
VERIFY_OSP14_H3_RATFN_COUNT = 3592
CANONICAL_OSP14_H4_RATFN_COUNT = 2567
CHARACTER_OSP14_H6_RATFN_COUNT = 835


def _rationalfn_count(tmp_path, monkeypatch, argv):
    count = [0]
    init = scalars.RationalFn.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(scalars.RationalFn, "__init__", counting)
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    return count[0]


def test_verify_rationalfn_count_guard(tmp_path, monkeypatch):
    argv = ["verify", "--datum", "osp14", "--suite", "all", "--height", "3"]
    assert _rationalfn_count(tmp_path, monkeypatch, argv) <= \
        VERIFY_OSP14_H3_RATFN_COUNT


def test_canonical_rationalfn_count_guard(tmp_path, monkeypatch):
    argv = ["canonical", "--datum", "osp14", "--height", "4"]
    assert _rationalfn_count(tmp_path, monkeypatch, argv) <= \
        CANONICAL_OSP14_H4_RATFN_COUNT


def test_character_rationalfn_count_guard(tmp_path, monkeypatch):
    argv = ["character", "--datum", "osp14", "--lambda", "2,0",
            "--height", "6"]
    assert _rationalfn_count(tmp_path, monkeypatch, argv) <= \
        CHARACTER_OSP14_H6_RATFN_COUNT


def _osp14_root_datum(pairing, emb_x):
    data = json.loads(json.dumps(CATALOG["osp14"]))
    data["X"] = {"rank": 2, "pairing": pairing, "emb": emb_x}
    data["Y"] = {"rank": 2, "emb": [[1, 0], [0, 1]]}
    return data


# validate on datum files, run as "datum.json" from the file's directory so
# that the echoed path is fixed
GOLDEN_FILES = [
    # "pairing determinant 2 is not a unit"
    (_osp14_root_datum([[2, 0], [0, 1]], [[1, -1], [-1, 2]]), 1,
     "3dc8b1e50cc2292a1bb2f8192742bd6ba6aab26868624dc0019f2fbd83f5b049"),
    # "<2, 2'> = 3 != Cartan integer 2"
    (_osp14_root_datum([[1, 0], [0, 1]], [[2, -1], [-2, 3]]), 1,
     "85965cea155da5f286a89f39b25a46212605babc68a7edfd3980243c5cb697d1"),
]


def _datum_file_digest(tmp_path, monkeypatch, data, argv, code):
    """Run argv on data written as "datum.json" in tmp_path, from there;
    assert the exit code and return the output's sha256."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "datum.json").write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(argv + ["--datum", "datum.json", "--out", str(out)]) == code
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("data, code, digest", GOLDEN_FILES,
                         ids=["pairing-det-2", "embedding-mismatch"])
def test_golden_validate_digest(tmp_path, monkeypatch, data, code, digest):
    assert _datum_file_digest(tmp_path, monkeypatch, data, ["validate"],
                              code) == digest


def test_golden_large_d_canonical_digest(tmp_path, monkeypatch):
    # d_i = 100000: Gram entries are a few terms spread over exponent
    # spans in the hundreds of thousands.  Recorded while the elimination
    # kernels still stored a dense coefficient tuple per entry
    data = {"indices": ["1", "2"],
            "dot": [[200000, -100000], [-100000, 200000]],
            "parity": [0, 0]}
    assert _datum_file_digest(
        tmp_path, monkeypatch, data, ["canonical", "--height", "3"], 0) == \
        "23d61dae58dc8145b4e70acdfbc4a559a1e6a619d8b3b61583cbdac2b8cc4914"
