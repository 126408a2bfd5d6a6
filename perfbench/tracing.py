"""Spans and counters around covquant's layers, from outside the package.

The tracer replaces public functions and methods with wrappers while it
is installed.  A module-level function is replaced in every covquant
module that holds it, so callers that imported it by name are traced
too.  Spans stay in memory; self time is a span's duration minus the
time of the wrapped calls nested inside it.
"""

import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute path); a span records calls and time
SPANS = [
    ("halfqg.gram", "covquant.halfqg", "QuotientContext.gram"),
    ("halfqg.radical", "covquant.halfqg", "QuotientContext.radical"),
    ("halfqg.reduce_at", "covquant.halfqg", "QuotientContext.reduce_at"),
    ("scalars.parse_scalar", "covquant.scalars", "parse_scalar"),
    ("scalars.render_scalar", "covquant.scalars", "render_scalar"),
    ("kernels.echelon", "covquant.kernels", "echelon"),
    ("kernels.det_bareiss", "covquant.kernels", "det_bareiss"),
    ("crystal.generate", "covquant.crystal", "Crystal._generate"),
    ("crystal.canonical_basis", "covquant.crystal", "Crystal.canonical_basis"),
    ("crystal.lattice_suites", "covquant.crystal", "Crystal.verify_psi_lattice"),
    ("crystal.lattice_suites", "covquant.crystal", "Crystal.verify_rho_lattice"),
    ("linalg", "covquant.linalg", "solve"),
    ("linalg", "covquant.linalg", "kernel"),
    ("linalg", "covquant.linalg", "rref"),
    ("umod.build_module", "covquant.umod", "build_module"),
    ("umod.relation_suites", "covquant.umod", "verify_modified_twistor"),
    ("umod.relation_suites", "covquant.umod", "verify_hat_twistor"),
    ("umod.relation_suites", "covquant.umod", "chi_suite"),
    ("umod.relation_suites", "covquant.umod", "clubsuit_report"),
    ("cli.emit", "covquant.cli", "_emit"),
]

# counter name -> (module, attribute path); counts calls only, so the
# time stays in the enclosing span (pair_words in halfqg.gram)
COUNTS = [
    ("freealg.pair_words.calls", "covquant.freealg", "FreeAlgebra.pair_words"),
    ("scalars.RationalFn.count", "covquant.scalars", "RationalFn.__init__"),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Install with install(), read and reset totals with take()."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []         # [span index, nested time]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.contexts = []       # QuotientContext objects made while traced
        self._undo = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                took = end - start
                self_s[name] += took - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += took
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _keep_context(self, fn):
        contexts = self.contexts

        def wrapper(ctx, *args, **kwargs):
            contexts.append(ctx)
            return fn(ctx, *args, **kwargs)
        return wrapper

    def _replace(self, module, path, make):
        owner, name = _resolve(module, path)
        original = owner.__dict__[name]
        wrapped = make(original)
        holders = [owner]
        if isinstance(owner, type(sys)):
            holders = [m for key, m in sorted(sys.modules.items())
                       if key.split(".")[0] == "covquant"
                       and m.__dict__.get(name) is original]
        for holder in holders:
            setattr(holder, name, wrapped)
            self._undo.append((holder, name, original))

    def install(self):
        for name, module, path in SPANS:
            self._replace(module, path, lambda f, n=name: self._span(n, f))
        for name, module, path in COUNTS:
            self._replace(module, path, lambda f, n=name: self._count(n, f))
        self._replace("covquant.halfqg", "QuotientContext.__init__",
                      self._keep_context)

    def uninstall(self):
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def take(self):
        """Totals since the last take: {metric: value}, then reset."""
        out = {f"{name}.s": t for name, t in self.self_s.items()}
        for name, n in self.calls.items():
            out[name if name.endswith((".calls", ".count"))
                else f"{name}.calls"] = n
        out["halfqg.radical.fallback"] = sum(
            ctx.radical_route(nu) == "fallback"
            for ctx in self.contexts for nu in list(ctx._radical_route))
        self.self_s.clear()
        self.calls.clear()
        self.contexts.clear()
        return out
