"""Checks of covquant CLI outputs against the oracles in oracles.py.

Each check takes the parsed JSON payload and returns a list of problems,
empty when the output is right.  None of them compares against a stored
copy of earlier output.
"""

from collections import Counter

from oracles import FORMS, kostant_table, weyl_dimension

SUITES = ("half-twistor", "rho-psi", "lattice-psi", "lattice-rho",
          "modified-twistor", "hat-twistor", "chi-diagram", "clubsuit")
MUTATION_FAILS = {"half-twistor", "modified-twistor", "hat-twistor"}


def _config(payload, command, datum, height):
    got = (payload.get("command"), payload.get("config", {}).get("datum"),
           payload.get("config", {}).get("height"))
    if got != (command, datum, height):
        return [f"payload is for {got}, expected {(command, datum, height)}"]
    return []


def check_canonical(payload, datum, height):
    """Rows per weight equal the Kostant count; every weight is present."""
    problems = _config(payload, "canonical", datum, height)
    rows = payload.get("table", [])
    kostant = kostant_table(FORMS[datum], height)
    per_weight = Counter(tuple(r["weight"]) for r in rows)
    for nu in sorted(set(kostant) | set(per_weight)):
        if per_weight[nu] != kostant.get(nu, 0):
            problems.append(f"weight {nu}: {per_weight[nu]} rows, "
                            f"Kostant count {kostant.get(nu, 0)}")
    labels = Counter((tuple(r["weight"]), r["label"]) for r in rows)
    problems += [f"label {lab!r} repeats at weight {nu}"
                 for (nu, lab), n in labels.items() if n > 1]
    problems += [f"ell_mod4 {r['ell_mod4']} out of range at {r['label']!r}"
                 for r in rows if r["ell_mod4"] not in (0, 1, 2, 3)]
    return problems


def check_character(payload, datum, height, lam):
    """Equal characters at both signs, total dimension = Weyl dimension.

    The height window must cover the whole module for the second check.
    """
    problems = _config(payload, "character", datum, height)
    chars = {}
    for res in payload.get("results", []):
        chars[res["pi"]] = {tuple(c["weight"]): c["dim"]
                            for c in res["character"]}
    if set(chars) != {"+1", "-1"}:
        return problems + [f"characters for signs {sorted(chars)}"]
    if chars["+1"] != chars["-1"]:
        problems.append("characters differ between pi = +1 and pi = -1")
    want = weyl_dimension(FORMS[datum], lam)
    for sign, char in sorted(chars.items()):
        if sum(char.values()) != want:
            problems.append(f"pi = {sign}: total dimension "
                            f"{sum(char.values())}, Weyl dimension {want}")
    return problems


def check_verify(payload, datum, height, mutate):
    """Plain runs pass everything; a mutated run fails exactly the three
    twistor relation suites.  Entry counts follow the oracles."""
    problems = _config(payload, "verify", datum, height)
    reports = {r["suite"]: r for r in payload.get("reports", [])}
    if sorted(reports) != sorted(SUITES):
        return problems + [f"suites {sorted(reports)}"]
    failing = {name for name, r in reports.items() if not r["pass"]}
    want = MUTATION_FAILS if mutate else set()
    if failing != want:
        problems.append(f"failing suites {sorted(failing)}, "
                        f"expected {sorted(want)}")
    if payload.get("pass") != (not want):
        problems.append(f"overall pass is {payload.get('pass')}")
    n_lattice = sum(kostant_table(FORMS[datum], height).values())
    if len(reports["lattice-psi"]["entries"]) != n_lattice:
        problems.append(f"lattice-psi has "
                        f"{len(reports['lattice-psi']['entries'])} entries, "
                        f"Kostant sum {n_lattice}")
    rank = len(FORMS[datum])
    n_words = sum(rank ** h for h in range(1, height + 1))
    if len(reports["rho-psi"]["entries"]) != n_words:
        problems.append(f"rho-psi has {len(reports['rho-psi']['entries'])} "
                        f"entries, expected {n_words} words")
    return problems
