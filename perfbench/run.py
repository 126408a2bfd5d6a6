"""covquant benchmark: CLI workloads timed end to end, or traced by layer.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each workload is a fixed list of
`python -m covquant.cli` invocations on catalog data.  One round runs
them one after another; rounds repeat until --seconds have passed, and
the metrics are medians over rounds.  Every output is checked against
the oracles in oracles.py.

Set-up copies `src` to a fresh directory, so that the first interpreter
start compiles the package, and for character-cached fills a fresh Gram
cache with one cold run.  It is repeated (Workload.setup_reps times) and
setup_s is the median; the timed rounds use the last copy and cache.

--trace 0 runs each invocation as a child process and reports wall time,
child CPU time and peak RSS (from that child's own rusage).  --trace 1
calls covquant.cli.main in this process, each invocation once untraced
and once under tracing.Tracer, and reports per-layer self times and
counts per round.  The seed only rotates the order of the invocations.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A full report, with the recorded
environment and every round, goes to .perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from checks import check_canonical, check_character, check_verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


@dataclass
class Invocation:
    argv: list
    check: object            # payload -> list of problems
    expect_exit: int = 0


@dataclass
class Workload:
    invocations: list
    setup_argv: list         # first interpreter start of a set-up
    cached: bool = False     # pass --cache; warm output must match set-up
    setup_reps: int = 9


def _canonical(datum, height):
    return Invocation(["canonical", "--datum", datum, "--height", str(height)],
                      partial(check_canonical, datum=datum, height=height))


def _character(datum, lam, height):
    return Invocation(["character", "--datum", datum, "--lambda",
                       ",".join(map(str, lam)), "--height", str(height)],
                      partial(check_character, datum=datum, height=height,
                              lam=lam))


def _verify(datum, height, mutate=False):
    return Invocation(["verify", "--datum", datum, "--suite", "all",
                       "--height", str(height)] + ["--mutate"] * mutate,
                      partial(check_verify, datum=datum, height=height,
                              mutate=mutate),
                      expect_exit=1 if mutate else 0)


# lambda = (2,0) on osp14 is the 10-dimensional B2 module; lambda - w0
# lambda has height 6, so height 6 covers the whole module.
_CHARACTER = _character("osp14", (2, 0), 6)
_VALIDATE = ["validate", "--datum", "osp14"]

WORKLOADS = {
    "canonical": Workload([_canonical("osp14", 4), _canonical("osp16", 3)],
                          _VALIDATE),
    "character": Workload([_CHARACTER], _VALIDATE),
    "character-cached": Workload([_CHARACTER], _CHARACTER.argv, cached=True,
                                 setup_reps=3),
    "verify": Workload([_verify("osp14", 4), _verify("osp16", 3),
                        _verify("osp14", 3, mutate=True)], _VALIDATE),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "freealg.pair_words.calls": "count",
    "halfqg.gram.s": "s",
    "scalars.parse_scalar.calls": "count",
    "scalars.parse_scalar.s": "s",
    "scalars.render_scalar.calls": "count",
    "scalars.render_scalar.s": "s",
    "setup.scalars.render_scalar.calls": "count",
    "setup.scalars.render_scalar.s": "s",
    "halfqg.radical.s": "s",
    "halfqg.radical.fallback": "count",
    "kernels.echelon.calls": "count",
    "kernels.echelon.s": "s",
    "kernels.det_bareiss.s": "s",
    "halfqg.reduce_at.calls": "count",
    "halfqg.reduce_at.s": "s",
    "scalars.RationalFn.count": "count",
    "crystal.generate.s": "s",
    "crystal.canonical_basis.s": "s",
    "crystal.lattice_suites.s": "s",
    "linalg.s": "s",
    "umod.build_module.s": "s",
    "umod.relation_suites.s": "s",
    "cli.emit.s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark run: its scratch directory, counts and problems."""

    def __init__(self, workload, rundir):
        self.workload = workload
        self.rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.problems = []       # wrong outputs: the run is not correct
        self.failures = []       # operations that failed outright
        self.reference = None    # set-up output bytes (character-cached)
        self.log = rundir / "stderr.txt"

    def cli_child(self, argv, src, out):
        """Run the CLI in a child process: (exit code, wall, cpu, rss MB)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "covquant.cli", *argv, "--out", str(out)]
        out.unlink(missing_ok=True)
        with open(self.log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=env, cwd=self.rundir)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (code, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)

    def judge(self, inv, code, out, log=None):
        """Count a failed operation, or check its output; returns bytes.

        log is the operation's stderr file, quoted when it failed."""
        self.attempted += 1
        try:
            data = out.read_bytes()
            payload = json.loads(data)
        except (OSError, ValueError) as e:
            data, payload = None, None
            reason = f"unreadable output: {e}"
        if code != inv.expect_exit or payload is None:
            self.failed += 1
            if payload is not None:
                reason = f"exit {code}, expected {inv.expect_exit}"
            tail = log.read_text(errors="replace")[-400:] if log else ""
            self.failures.append(f"{' '.join(inv.argv)}: {reason} "
                                 f"{tail}".rstrip())
            return None
        self.problems += [f"{' '.join(inv.argv)}: {p}"
                          for p in inv.check(payload)]
        if self.reference is not None and data != self.reference:
            self.problems.append(f"{' '.join(inv.argv)}: output differs "
                                 "from the cold run that filled the cache")
        return data

    def judge_setup(self, inv, code, out, log=None):
        """judge() for a set-up run: not an operation; a failure there makes
        the run incorrect."""
        counts, n = (self.attempted, self.failed), len(self.failures)
        data = self.judge(inv, code, out, log)
        self.problems += self.failures[n:]
        del self.failures[n:]
        self.attempted, self.failed = counts
        return data

    def set_up(self):
        """Repeated cold starts; returns (median seconds, the last source
        copy, the --cache arguments for the timed rounds)."""
        wl = self.workload
        times = []
        for k in range(wl.setup_reps):
            src = self.rundir / f"src{k}"
            shutil.copytree(SRC, src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            cache = ["--cache", str(self.rundir / f"cache{k}")] * wl.cached
            out = self.rundir / "setup.json"
            code, wall, _, _ = self.cli_child(wl.setup_argv + cache, src, out)
            times.append(wall)
            if wl.cached:
                data = self.judge_setup(wl.invocations[0], code, out,
                                        self.log)
                if self.reference is None:
                    self.reference = data
            elif code != 0:
                self.problems.append(f"set-up run exited {code}")
        return statistics.median(times), src, cache


def rounds_for(seconds, one_round):
    """Whole rounds until `seconds` have passed; list of round results."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(one_round())
    return results


def timed(run, order, src, cache):
    """Round of child processes: summed wall and CPU, largest peak RSS."""
    out = run.rundir / "out.json"

    def one_round():
        wall = cpu = rss = 0.0
        for inv in order:
            code, w, c, r = run.cli_child(inv.argv + cache, src, out)
            run.judge(inv, code, out, run.log)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
    return one_round


def traced(run, order, cache):
    """Round in this process: each invocation untraced, then traced."""
    import covquant.cli
    from tracing import Tracer

    tracer = Tracer()
    out = run.rundir / "out.json"

    def call(argv, traced):
        out.unlink(missing_ok=True)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            code = covquant.cli.main(argv + ["--out", str(out)])
        except SystemExit as e:
            code = e.code
        except Exception as e:   # a crash is a failed operation, not the end
            code = f"{type(e).__name__}: {e}"
        finally:
            took = time.perf_counter() - start
            tracer.uninstall()
        return code, took

    if run.workload.cached:
        # the cold run of set-up, traced once, shows what the cache write costs
        inv = run.workload.invocations[0]
        fresh = ["--cache", str(run.rundir / "cache-traced")]
        run.judge_setup(inv, call(inv.argv + fresh, True)[0], out)
    setup = {f"setup.{k}": v for k, v in tracer.take().items()}

    def one_round():
        plain = with_trace = 0.0
        for inv in order:
            code, took = call(inv.argv + cache, False)
            plain += took
            untraced = run.judge(inv, code, out)
            code, took = call(inv.argv + cache, True)
            with_trace += took
            if run.judge(inv, code, out) != untraced:
                run.problems.append(f"{' '.join(inv.argv)}: output changes "
                                    "under tracing")
        got = tracer.take()
        # per round, not from round medians: the two calls of a pair run
        # back to back, so a slow spell of the host mostly hits both
        got["trace.overhead_s"] = with_trace - plain
        return got
    one_round.tracer = tracer
    one_round.setup = setup
    return one_round


def git_sha():
    """HEAD of the repository at ROOT, read from .git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    from covquant import kernels
    return {"python": platform.python_version(),
            "kernel": kernels.IMPLEMENTATION,
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def summarize(rounds, setup_s, trace, traced_setup):
    def med(key):
        return statistics.median(r.get(key, 0) for r in rounds)
    if not trace:
        values = {name: med(name) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = setup_s
        return {n: {"value": values[n], "unit": u}
                for n, u in END_TO_END.items()}
    values = {name: med(name) if unit == "s" else
              statistics.median_low(r.get(name, 0) for r in rounds)
              for name, unit in PER_LAYER.items()}
    values.update((k, v) for k, v in traced_setup.items() if k in PER_LAYER)
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "covquant" / "cli.py").is_file():
        print(f"no covquant sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    shift = args.seed % len(wl.invocations)
    order = wl.invocations[shift:] + wl.invocations[:shift]
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run = Run(wl, rundir)
    try:
        setup_s, src, cache = run.set_up()
        sys.path.insert(0, str(src))
        env = environment()
        if args.trace:
            one_round = traced(run, order, cache)
        else:
            one_round = timed(run, order, src, cache)
        rounds = rounds_for(args.seconds, one_round)
        spans = one_round.tracer.spans if args.trace else []
        traced_setup = one_round.setup if args.trace else {}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    metrics = summarize(rounds, setup_s, args.trace, traced_setup)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "invocations": [" ".join(i.argv) for i in order],
              "setup_reps": wl.setup_reps, "rounds": rounds,
              "metrics": metrics, "failures": run.failures,
              "problems": run.problems}
    (results / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans:
        with open(results / f"{name}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {len(rounds)} rounds of "
          f"{len(order)} invocations")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for problem in run.problems:
        print(f"WRONG {problem}")
    for n, m in metrics.items():
        print(f"{n} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
