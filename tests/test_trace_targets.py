"""The benchmark's tracer (perfbench/tracing.py) still finds every function
it wraps, so `perfbench/run.py --trace 1` keeps reporting its layers."""

import importlib.util
import json
from pathlib import Path

import covquant.kernels
from covquant.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_and_record(capsys):
    tracing = _load_tracing()
    targets = {(m, p) for _, m, p in tracing.SPANS + tracing.COUNTS}
    assert {("covquant.kernels", "echelon"),
            ("covquant.kernels", "det_bareiss"),
            ("covquant.linalg", "solve"),
            ("covquant.linalg", "kernel"),
            ("covquant.linalg", "rref")} <= targets
    original = covquant.kernels.echelon
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert covquant.kernels.echelon is not original
        code = main(["canonical", "--datum", "osp14", "--height", "2"])
    finally:
        tracer.uninstall()
    assert covquant.kernels.echelon is original
    assert code == 0
    assert json.loads(capsys.readouterr().out)["command"] == "canonical"
    totals = tracer.take()
    assert totals["kernels.echelon.calls"] > 0
    assert totals["crystal.generate.calls"] == 1
    assert totals["cli.emit.calls"] == 1
    assert covquant.kernels.IMPLEMENTATION == "py"
