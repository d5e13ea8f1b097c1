"""Shows that the benchmark's checks can fail.

Each workload's checks see real outputs of one small network, first as
they are (they must pass) and then with one answer made wrong: a flipped
predicate, a dropped permutation, a block projector with a column moved,
and so on. Every wrong answer must make the network count as failed.

    python3 spinbench/selfcheck.py

Prints one line per case and exits 1 if any clean network fails or any
wrong answer passes.
"""

import os
import random
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Layers  # noqa: E402


def flip(key):
    def corrupt(out):
        out[key] = not out[key]
    return corrupt


def add(key, amount):
    def corrupt(out):
        out[key] += amount
    return corrupt


def set_to(key, value):
    def corrupt(out):
        out[key] = value
    return corrupt


def drop_perms_moving(node):
    def corrupt(out):
        out["automorphisms"] = [p for p in out["automorphisms"] if p[node - 1] == node]
    return corrupt


def swap_images_in_first_perm(out):
    p = list(out["automorphisms"][0])
    p[0], p[1] = p[1], p[0]
    out["automorphisms"][0] = tuple(p)


def add_bogus_perm(out):
    n = out["d"]
    out["automorphisms"] = list(out["automorphisms"]) + [tuple(range(n, 0, -1))]


def move_projector_column(out):
    blocks = list(out["projectors"])
    big = max(range(len(blocks)), key=lambda i: blocks[i].shape[1])
    other = (big + 1) % len(blocks)
    blocks[other] = np.hstack([blocks[other], blocks[big][:, -1:]])
    blocks[big] = blocks[big][:, :-1]
    out["projectors"] = blocks


def main():
    L = Layers(None)
    rng = random.Random(0)
    plan = [
        ("sweep", W.run_sweep, W.uniform_chain(L, 6, 2, 0.0), [
            ("flipped float verdict", flip("float_controllable")),
            ("exact dimension off by one", add("exact_dim", -1)),
            ("closure above the block bound", lambda o: o.update(
                float_dim=o["d"] ** 2 + 1, exact_dim=o["d"] ** 2 + 1)),
        ]),
        ("sweep", W.run_sweep, W.uniform_chain(L, 5, 2, 0.0), [
            ("closure above the block bound", lambda o: o.update(
                float_dim=o["float_dim"] + 2, exact_dim=o["exact_dim"] + 2)),
        ]),
        ("analyze", W.run_analyze, W.uniform_chain(L, 8, 3, 0.0), [
            ("flipped float verdict", flip("float_controllable")),
            ("one dark state more", add("dark_count", 1)),
            ("trivial commutant", set_to("commutant_dim", 1)),
            ("internal symmetry reported", set_to("internal_dim", 1)),
            ("blocks all of size 1", lambda o: o.update(block_sizes=[1] * o["d"])),
            ("reversal added to automorphisms", add_bogus_perm),
        ]),
        ("detect", W.run_detect, W.mirror_chain(L, rng, 6), [
            ("reflection dropped", set_to("automorphisms", [])),
            ("edge-breaking permutation", swap_images_in_first_perm),
            ("no dark states", set_to("dark_count", 0)),
            ("internal symmetry reported", set_to("internal_dim", 2)),
            ("projector column moved to another block", move_projector_column),
        ]),
        ("detect", W.run_detect, W.center_star(L, (4, 4, 4, 3, 3, 3, 2), 0.0), [
            ("permutations moving node 2 dropped", drop_perms_moving(2)),
            ("one dark state fewer than the bound", lambda o: o.update(
                dark_count=W.star_dark_lower_bound([4, 4, 4, 3, 3, 3, 2]) - 1)),
        ]),
    ]
    ok = True
    for workload, run_one, case, mutations in plan:
        _, error, found = checks.attempt(L, case, run_one)
        clean = error is None and not found
        ok &= clean
        print(f"{workload:8s} {case.label}: clean outputs "
              f"{'pass' if clean else 'FAIL ' + str(error or found)}")
        for what, corrupt in mutations:
            _, error, found = checks.attempt(L, case, run_one, corrupt)
            caught = bool(found)
            ok &= caught
            print(f"{workload:8s}   {what}: "
                  f"{'counted as failed (' + found[0] + ')' if caught else 'NOT CAUGHT'}")
    print("all checks can fail" if ok else "SELFCHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
