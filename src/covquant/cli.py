"""Command-line front end with reproducible JSON output.

Four subcommands: validate a Cartan datum file, emit canonical-basis
tables, emit characters of truncated highest-weight modules, and run the
verification suites.  Output is deterministic byte for byte: fixed
orderings, sorted keys, no timestamps, and every payload embeds the hash
of the normalized datum.  Exit codes: 0 all good, 1 a verification (or
datum-condition) failure, 2 malformed input, or output that cannot be
written: an unwritable --out file reports a JSON error on stdout, and
an unwritable stdout one line on stderr.

Every module past cartan and catalog is imported inside the commands
that run it, so a run loads, and on a cold start compiles, only what it
executes:

  validate   cli, cartan, catalog
  character  those, scalars, freealg, umod, linalg (the module is built
             on free words and reads no Gram data)
  canonical  those of validate, scalars, freealg, halfqg, kernels, crystal
  verify     all of them

The JSON is streamed to --out or stdout as it is encoded, never held
whole, and the datum hash uses CPython's built-in sha256, which maps no
OpenSSL.
"""

import argparse
import json
import os
import sys
from itertools import product

from .cartan import SuperCartanDatum, TransversalError, datum_from_dict, \
    datum_hash, height, normalized_datum_dict
from .catalog import CATALOG

HEIGHT_CAP = 8

# Largest |<i, lambda>| * d_i accepted from --lambda.  The module's
# commutator scalars are the quantum integers <n> at v^(d_i), with n near
# <i, lambda>; each has |n| terms spread over 2 d_i (|n| - 1) + 1
# exponents, and the module's field kernel slows sharply as they grow.
# On 2 vCPU, character osp14 at height 2 runs in about 0.15 s with one
# index at the cap (--lambda 4096,0) and about 9.5 s with both at it
# (--lambda 4096,2048).
BRACKET_TERM_CAP = 4096

SUITES = ("half-twistor", "rho-psi", "lattice", "modified-twistor",
          "hat-twistor", "chi-diagram", "clubsuit")
# the suites that --mutate plants an error in
MUTABLE_SUITES = ("half-twistor", "modified-twistor", "hat-twistor")


class InputError(Exception):
    """Bad invocation or unusable datum file (exit code 2)."""


def _read_datum_dict(name_or_path):
    if not os.path.exists(name_or_path) and name_or_path in CATALOG:
        return CATALOG[name_or_path]
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read datum file: {e}")
    except ValueError as e:
        # JSONDecodeError, UnicodeDecodeError, and the int digit limit
        raise InputError(f"datum file is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise InputError("datum file must hold a JSON object")
    for key in ("indices", "dot", "parity"):
        if key not in data:
            raise InputError(f"datum file is missing the '{key}' field")
    return data


def _load_twist_form(cfg):
    """The validated datum's twist form; its datum and root datum ride on
    it as tf.datum and tf.root."""
    data = _read_datum_dict(cfg.datum)
    try:
        datum, root, tf = datum_from_dict(data)
    except (ValueError, TypeError, KeyError) as e:
        raise InputError(f"datum file is malformed: {e}")
    findings = datum.validate() + root.validate(datum)
    if findings:
        raise InputError(
            "datum fails validation: "
            + "; ".join(f["message"] for f in findings))
    return tf


def _load_context(cfg):
    from .halfqg import QuotientContext
    tf = _load_twist_form(cfg)
    return QuotientContext(tf.datum, tf.root, tf)


def _resolve_lambda(cfg, tf, required=False):
    root = tf.root
    if cfg.lam is None:
        if required:
            raise InputError("this command needs --lambda")
        return (1,) * root.rankX
    if len(cfg.lam) != root.rankX:
        raise InputError(
            f"--lambda needs {root.rankX} coordinates, got {len(cfg.lam)}")
    datum = tf.datum
    for i in range(datum.rank):
        terms = abs(root.pair_index(i, cfg.lam)) * datum.d(i)
        if terms > BRACKET_TERM_CAP:
            raise InputError(
                f"--lambda gives |<i, lambda>| * d_i = {terms} at index "
                f"'{datum.indices[i]}', over the bracket term budget "
                f"{BRACKET_TERM_CAP}")
    return cfg.lam


def _check_height(cfg):
    if cfg.height < 0:
        raise InputError("--height must be nonnegative")
    if cfg.height > HEIGHT_CAP and not cfg.force_height:
        raise InputError(
            f"height {cfg.height} exceeds the cap {HEIGHT_CAP} "
            "(weight spaces grow factorially); pass --force-height "
            "to override")


def _signs(cfg):
    from .scalars import SIGNS
    return {"+1": (1,), "-1": (-1,), "both": SIGNS}[cfg.pi]


def _wrap(cfg, command, payload):
    out = {"command": command,
           "config": {"datum": cfg.datum, "height": cfg.height}}
    if cfg.lam is not None:
        out["config"]["lambda"] = list(cfg.lam)
    out.update(payload)
    return out


def _stamp(payload, tf):
    payload["datum_sha256"] = datum_hash(tf.datum, tf.root, tf)
    payload["datum"] = normalized_datum_dict(tf.datum, tf.root, tf)
    return payload


def _dump(payload, fh):
    # streamed chunk by chunk: the indented text is never held whole
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit(payload, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _dump(payload, fh)
    else:
        _dump(payload, sys.stdout)
        sys.stdout.flush()


# --- subcommands ---------------------------------------------------------


def cmd_validate(cfg):
    data = _read_datum_dict(cfg.datum)
    try:
        datum = SuperCartanDatum(data["indices"], data["dot"], data["parity"])
    except (ValueError, TypeError) as e:
        raise InputError(f"datum file is malformed: {e}")
    findings = datum.validate()
    payload = {"command": "validate",
               "config": {"datum": cfg.datum},
               "valid": not findings,
               "findings": findings}
    if not findings:
        try:
            datum, root, tf = datum_from_dict(data)
        except (ValueError, TypeError, KeyError) as e:
            raise InputError(f"datum file is malformed: {e}")
        more = root.validate(datum)
        if more:
            payload["valid"] = False
            payload["findings"] = more
        else:
            payload["datum_sha256"] = datum_hash(datum, root, tf)
            payload["datum"] = normalized_datum_dict(datum, root, tf)
    return payload, 0 if payload["valid"] else 1


def _element_text(datum, x):
    from .freealg import render_word
    from .scalars import PS_ONE, render_scalar
    bits = []
    for w in sorted(x.terms):
        c = x.terms[w]
        word = render_word(datum, w) or "1"
        if c == PS_ONE:
            bits.append(word)
        else:
            r = render_scalar(c)
            bits.append(f"({r['plus']} | {r['minus']})*{word}")
    return " + ".join(bits) if bits else "0"


def cmd_canonical(cfg):
    from .crystal import Crystal
    _check_height(cfg)
    ctx = _load_context(cfg)
    crystal = Crystal(ctx, cfg.height)
    table = []
    for nu in sorted(crystal.weights(), key=lambda w: (height(w), w)):
        for el in crystal.canonical_basis(nu):
            table.append({
                "label": el.b.label_text(ctx.datum),
                "weight": list(nu),
                "element": _element_text(ctx.datum, el.G),
                "ell_mod4": el.ell % 4,
            })
    payload = _stamp(_wrap(cfg, "canonical", {"table": table}), ctx.tf)
    return payload, 0


def cmd_character(cfg):
    from . import umod
    from .freealg import FreeAlgebra
    _check_height(cfg)
    tf = _load_twist_form(cfg)
    lam = _resolve_lambda(cfg, tf, required=True)
    module = umod.build_module(FreeAlgebra(tf.datum, tf), lam, cfg.height)
    results = [umod.character_report(module, s) for s in _signs(cfg)]
    payload = _stamp(_wrap(cfg, "character", {"results": results}), tf)
    return payload, 0


def _suite_half_twistor(ctx, cfg):
    rank = ctx.datum.rank
    entries = []
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            ok = ctx.verify_twistor_serre(i, j, mutate=cfg.mutate)
            entries.append({"i": ctx.datum.indices[i],
                            "j": ctx.datum.indices[j],
                            "status": "pass" if ok else "fail"})
    return {"suite": "half-twistor", "mutated": cfg.mutate,
            "pass": all(e["status"] == "pass" for e in entries),
            "entries": entries}


def _suite_rho_psi(ctx, cfg):
    rank = ctx.datum.rank
    entries = []
    for h in range(1, cfg.height + 1):
        for word in product(range(rank), repeat=h):
            x = ctx.free.monomial(word)
            ok = ctx.verify_rho_psi(x)
            entries.append({
                "element": "".join(ctx.datum.indices[k] for k in word),
                "status": "pass" if ok else "fail"})
    return {"suite": "rho-psi",
            "pass": all(e["status"] == "pass" for e in entries),
            "entries": entries}


def _suite_lattice(ctx, cfg):
    from .crystal import Crystal
    crystal = Crystal(ctx, cfg.height)
    psi = crystal.verify_psi_lattice()
    rho = crystal.verify_rho_lattice()
    return [{"suite": "lattice-psi", **psi}, {"suite": "lattice-rho", **rho}]


def _suite_clubsuit(ctx, cfg):
    from . import umod
    rep = umod.clubsuit_report(ctx.free)
    return {"suite": "clubsuit", **rep}


def cmd_verify(cfg):
    from . import umod
    _check_height(cfg)
    wanted = SUITES if cfg.suite == "all" else (cfg.suite,)
    if cfg.mutate and not set(MUTABLE_SUITES) & set(wanted):
        raise InputError(
            f"--mutate plants no error in suite '{cfg.suite}'; it acts on "
            + ", ".join(MUTABLE_SUITES))
    ctx = _load_context(cfg)
    lam = _resolve_lambda(cfg, ctx.tf)
    module = None
    if {"modified-twistor", "hat-twistor", "chi-diagram"} & set(wanted):
        module = umod.build_module(ctx.free, lam, cfg.height)
    reports = []
    for name in wanted:
        if name == "half-twistor":
            reports.append(_suite_half_twistor(ctx, cfg))
        elif name == "rho-psi":
            reports.append(_suite_rho_psi(ctx, cfg))
        elif name == "lattice":
            reports.extend(_suite_lattice(ctx, cfg))
        elif name == "modified-twistor":
            rep = umod.verify_modified_twistor(module, mutate=cfg.mutate)
            reports.append({"suite": "modified-twistor", **rep})
        elif name == "hat-twistor":
            rep = umod.verify_hat_twistor(module, mutate=cfg.mutate)
            reports.append({"suite": "hat-twistor", **rep})
        elif name == "chi-diagram":
            rep = umod.chi_suite(module, min(cfg.height, 4))
            reports.append({"suite": "chi-diagram", **rep})
        elif name == "clubsuit":
            reports.append(_suite_clubsuit(ctx, cfg))
    all_pass = all(r["pass"] for r in reports)
    payload = _stamp(_wrap(cfg, "verify", {
        "suite": cfg.suite, "mutated": cfg.mutate,
        "pass": all_pass, "reports": reports}), ctx.tf)
    return payload, 0 if all_pass else 1


# --- argument plumbing ----------------------------------------------------


def _parse_lambda(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InputError(f'--lambda must look like "c1,c2,...", got {text!r}')


def _build_parser():
    p = argparse.ArgumentParser(
        prog="covquant",
        description="Exact tables and verification suites for covering "
                    "quantum (super)groups.")
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "validate": (cmd_validate, "check a Cartan datum file against the "
                                   "defining conditions"),
        "canonical": (cmd_canonical, "canonical-basis table up to a height "
                                     "bound"),
        "character": (cmd_character, "character of a truncated "
                                     "highest-weight module"),
        "verify": (cmd_verify, "run verification suites"),
    }
    for name, (handler, blurb) in specs.items():
        sp = sub.add_parser(name, help=blurb)
        sp.set_defaults(handler=handler, lam=None)
        sp.add_argument("--datum", required=True,
                        help="datum JSON file (or a built-in name: "
                             + ", ".join(sorted(CATALOG)) + ")")
        sp.add_argument("--out", help="write JSON here instead of stdout")
        if name != "validate":
            sp.add_argument("--height", type=int, default=3,
                            help="height bound (default 3, cap "
                                 f"{HEIGHT_CAP})")
            sp.add_argument("--force-height", action="store_true",
                            help="override the height cap")
        if name in ("character", "verify"):
            sp.add_argument("--lambda", dest="lam", metavar="c1,c2,...",
                            help="highest weight coordinates")
        if name == "character":
            sp.add_argument("--pi", choices=["+1", "-1", "both"],
                            default="both")
            # kept only for the benchmark's character-cached workload
            sp.add_argument("--cache", metavar="DIR",
                            help="accepted and ignored; nothing is read, "
                                 "written or created (kept for the "
                                 "benchmark's character-cached workload)")
        if name == "verify":
            sp.add_argument("--suite", default="all",
                            choices=list(SUITES) + ["all"])
            sp.add_argument("--mutate", action="store_true",
                            help="negative control: plant an off-by-one "
                                 "and expect failures")
    return p


def _attach_negative_lambda(argv):
    """Glue a value that starts with a minus sign to the --lambda before
    it: argparse would read "-1,0" as an unknown option, while
    "--lambda=-1,0" already parses.  Abbreviations of --lambda count."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--lambda".startswith(out[-1])
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cfg = _build_parser().parse_args(_attach_negative_lambda(argv))
    try:
        if cfg.lam is not None:
            cfg.lam = _parse_lambda(cfg.lam)
        payload, code = cfg.handler(cfg)
    except InputError as e:
        payload, code = {"error": str(e)}, 2
    except TransversalError as e:
        payload, code = {"error": f"datum file is malformed: {e}"}, 2
    except ArithmeticError as e:
        payload, code = {"error": f"computation failed: {e}"}, 1
    if cfg.out:
        try:
            _emit(payload, cfg.out)
        except OSError as e:
            payload, code = {"error": f"cannot write --out file: {e}"}, 2
        else:
            return code
    try:
        _emit(payload, None)
    except OSError as e:
        # what is still buffered goes to the null device, so the flush at
        # exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"covquant: cannot write to stdout: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
