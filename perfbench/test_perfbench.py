"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest perfbench

The check tests run the CLI at small heights, confirm that the real
output passes, and then doctor it so that each check must fail.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_canonical, check_character, check_verify
from oracles import FORMS, kostant_table, positive_roots, weyl_dimension

ROOT = Path(__file__).resolve().parent.parent


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "covquant.cli", *argv],
                          capture_output=True, env=env, check=False)
    return proc.returncode, json.loads(proc.stdout)


@pytest.mark.parametrize("lam, dim", [((1, 0), 4), ((0, 1), 5), ((2, 0), 10),
                                      ((1, 1), 16)])
def test_b2_weyl_dimensions(lam, dim):
    assert weyl_dimension(FORMS["osp14"], lam) == dim


@pytest.mark.parametrize("lam, dim", [((0, 0, 1), 7), ((1, 0, 0), 8),
                                      ((0, 1, 0), 21)])
def test_b3_weyl_dimensions(lam, dim):
    assert weyl_dimension(FORMS["osp16"], lam) == dim


def test_root_systems():
    assert positive_roots(FORMS["osp14"]) == [(0, 1), (1, 0), (1, 1), (2, 1)]
    b3 = positive_roots(FORMS["osp16"])
    assert len(b3) == 9 and max(b3, key=sum) == (2, 2, 1)


def test_kostant_counts():
    b2 = kostant_table(FORMS["osp14"], 4)
    # (2,1) = a1 + a1 + a2 = a1 + (a1+a2) = (2a1+a2): three ways
    assert b2[(2, 1)] == 3 and b2[(1, 1)] == 2 and b2[(2, 2)] == 4
    assert sum(b2.values()) == 25
    assert kostant_table(FORMS["osp16"], 2)[(1, 1, 0)] == 2


@pytest.fixture(scope="module")
def canonical():
    code, payload = cli("canonical", "--datum", "osp14", "--height", "3")
    assert code == 0
    return payload


def test_canonical_check(canonical):
    assert check_canonical(canonical, "osp14", 3) == []
    dropped = copy.deepcopy(canonical)
    del dropped["table"][-1]
    assert check_canonical(dropped, "osp14", 3)
    relabelled = copy.deepcopy(canonical)
    relabelled["table"][5]["label"] = relabelled["table"][4]["label"]
    assert check_canonical(relabelled, "osp14", 3)


def test_character_check():
    code, payload = cli("character", "--datum", "osp14", "--lambda", "0,1",
                        "--height", "4")
    assert code == 0
    assert check_character(payload, "osp14", 4, (0, 1)) == []
    for sign in (0, 1):
        doctored = copy.deepcopy(payload)
        doctored["results"][sign]["character"][0]["dim"] += 1
        assert check_character(doctored, "osp14", 4, (0, 1))


def test_verify_check():
    code, plain = cli("verify", "--datum", "osp14", "--suite", "all",
                      "--height", "2")
    assert code == 0
    assert check_verify(plain, "osp14", 2, mutate=False) == []
    assert check_verify(plain, "osp14", 2, mutate=True)

    code, mutated = cli("verify", "--datum", "osp14", "--suite", "all",
                        "--height", "2", "--mutate")
    assert code == 1
    assert check_verify(mutated, "osp14", 2, mutate=True) == []
    passing = copy.deepcopy(mutated)
    passing["pass"] = True
    for report in passing["reports"]:
        report["pass"] = True
    assert check_verify(passing, "osp14", 2, mutate=True)
    short = copy.deepcopy(plain)
    lattice = next(r for r in short["reports"] if r["suite"] == "lattice-psi")
    lattice["entries"].pop()
    assert check_verify(short, "osp14", 2, mutate=False)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
