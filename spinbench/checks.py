"""Checks of one network's outputs against facts computed apart from the
program (see workloads.Case.facts) and against properties the method must
have. Each check returns a list of problems; an empty list means it holds.
A check applies only when the outputs carry the fields it reads.
"""

from __future__ import annotations

import time

import numpy as np

BLOCK_TOL = 1e-8


def check_verdict(facts, out):
    want = facts.get("predicted_controllable")
    if want is None or "float_controllable" not in out:
        return []
    if out["float_controllable"] != want:
        return [f"float verdict controllable={out['float_controllable']}, "
                f"predicted {want}"]
    return []


def check_float_exact(facts, out):
    if "exact_dim" in out and out["float_dim"] != out["exact_dim"]:
        return [f"float dimension {out['float_dim']} != exact {out['exact_dim']}"]
    return []


def check_block_bound(facts, out):
    """The closure lies in the direct sum of u(b) over the invariant blocks."""
    if "float_dim" not in out:
        return []
    if "block_sizes" in out:
        bound = sum(b * b for b in out["block_sizes"])
    elif "dark_exact" in facts:
        dark = facts["dark_exact"]
        bound = (out["d"] - dark) ** 2 + dark
    else:
        return []
    dims = [out["float_dim"]] + ([out["exact_dim"]] if "exact_dim" in out else [])
    if max(dims) > bound:
        return [f"closure dimension {max(dims)} exceeds block bound {bound}"]
    return []


def check_commutant_dark(facts, out):
    if "commutant_dim" not in out:
        return []
    if (out["commutant_dim"] > 1) != (out["dark_count"] > 0):
        return [f"commutant dimension {out['commutant_dim']} with "
                f"{out['dark_count']} dark states"]
    return []


def check_internal(facts, out):
    if out.get("internal_dim", 0) != 0:
        return [f"internal symmetry dimension {out['internal_dim']} under "
                f"single-node control"]
    return []


def check_dark_count(facts, out):
    if "dark_count" not in out:
        return []
    problems = []
    if "dark_exact" in facts and out["dark_count"] != facts["dark_exact"]:
        problems.append(f"{out['dark_count']} dark states, closed form gives "
                        f"{facts['dark_exact']}")
    if "dark_at_least" in facts and out["dark_count"] < facts["dark_at_least"]:
        problems.append(f"{out['dark_count']} dark states, at least "
                        f"{facts['dark_at_least']} required")
    return problems


def check_blocks(facts, out):
    """h0 and h1 are block-diagonal in the returned orthonormal projectors."""
    if "projectors" not in out:
        return []
    q = np.hstack(out["projectors"])
    d = out["d"]
    if q.shape != (d, d):
        return [f"projectors span {q.shape[1]} columns, want {d}"]
    problems = []
    if np.abs(q.conj().T @ q - np.eye(d)).max() > BLOCK_TOL:
        problems.append("projector columns are not orthonormal")
    mask = np.ones((d, d), dtype=bool)
    lo = 0
    for p in out["projectors"]:
        hi = lo + p.shape[1]
        mask[lo:hi, lo:hi] = False
        lo = hi
    for name in ("h0", "h1"):
        h = out[name]
        off = np.abs((q.conj().T @ h @ q)[mask]).max(initial=0.0)
        if off > BLOCK_TOL * max(1.0, np.abs(h).max()):
            problems.append(f"{name} has off-block entries up to {off:.3e}")
    return problems


def check_automorphisms(facts, out):
    """Each permutation preserves the weighted edges and the control set, and
    the orbits the permutations generate are the expected node classes."""
    if "automorphisms" not in out or "orbits" not in facts:
        return []
    edges = facts["edges"]
    controls = set(facts["controls"])
    n = sum(len(o) for o in facts["orbits"])
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for perm in out["automorphisms"]:
        image = dict(zip(range(1, n + 1), perm))
        if sorted(perm) != list(range(1, n + 1)):
            return [f"{perm} is not a permutation of 1..{n}"]
        mapped = {(min(image[a], image[b]), max(image[a], image[b])): g
                  for (a, b), g in edges.items()}
        if mapped != edges:
            return [f"{perm} does not preserve the weighted edges"]
        if {image[c] for c in controls} != controls:
            return [f"{perm} does not preserve the control set"]
        for v, w in image.items():
            parent[find(v)] = find(w)
    got = {}
    for v in range(1, n + 1):
        got.setdefault(find(v), set()).add(v)
    want = {frozenset(o) for o in facts["orbits"]}
    if {frozenset(o) for o in got.values()} != want:
        return ["generated node orbits differ from the classes of equal "
                "branches"]
    return []


CHECKS = (check_verdict, check_float_exact, check_block_bound,
          check_commutant_dark, check_internal, check_dark_count,
          check_blocks, check_automorphisms)


def problems(facts: dict, out: dict) -> list[str]:
    found = []
    for check in CHECKS:
        found.extend(check(facts, out))
    return found


def attempt(L, case, run_one, corrupt=None):
    """Run one network and check its outputs.

    Returns (seconds spent in the program, the exception it raised or None,
    the problems the checks found). Checking happens after the clock stops.
    `corrupt`, when given, alters the outputs before they are checked.
    """
    t0 = time.perf_counter()
    try:
        out = run_one(L, case)
    except Exception as exc:  # a network that raises counts as failed
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", []
    seconds = time.perf_counter() - t0
    if corrupt is not None:
        corrupt(out)
    return seconds, None, problems(case.facts, out)
