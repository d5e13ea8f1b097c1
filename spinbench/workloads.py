"""The networks of each workload, generated from the workload seed, and the
calls each workload makes into spinctrl for one network.

A `Case` carries the network the program receives and the facts the
checks compare against. The facts come from the generating parameters and
from closed forms computed here in integer arithmetic, never from spinctrl.
The seed fixes the couplings and anisotropy of the seeded chains and the
order of the sweep's chains. `analyze` and `detect` keep one fixed order:
their peak RSS depends on which large allocation follows which. Every round
of a run repeats the same networks in the same order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from spinctrl import StarDescriptor, verdict
from spinctrl.report import DARK_TOL, SYMMETRY_TOL

# Largest chain of the sweep: N <= 10 is 162 of the 231 gcd-sweep fixtures
# and about a quarter of the full sweep's time (a 12 s round on 2 vCPUs).
SWEEP_MAX_N = 10


@dataclass(frozen=True)
class Case:
    label: str
    spec: object                      # spinctrl.NetworkSpec
    facts: dict = field(default_factory=dict)


# ---- facts computed apart from the program --------------------------------

def gcd_predicate(N: int, k: int, kappa: float) -> bool | None:
    """Controllability of the uniform chain from the gcd criteria."""
    if kappa == 0:
        return math.gcd(N + 1, k) == 1
    if abs(kappa) == 1:
        return math.gcd(N, 2 * k - 1) == 1
    return None


def closed_form_dark_count(N: int, k: int, kappa: float) -> int:
    """Closed-form eigenvectors of the uniform chain that vanish at site k.

    XX: v_m = sin(m j pi / (N+1)), j = 1..N, vanishes at k iff (N+1) | k j.
    Heisenberg (kappa = +-1): v_m = cos((2m-1) j pi / (2N)), j = 0..N-1,
    vanishes at k iff (2k-1) j = N mod 2N. The spectra are simple, so each
    such eigenvector is one dark state.
    """
    if kappa == 0:
        return sum(1 for j in range(1, N + 1) if (k * j) % (N + 1) == 0)
    return sum(1 for j in range(N) if ((2 * k - 1) * j) % (2 * N) == N)


def chain_orbits(couplings, controls) -> list[list[int]]:
    """Node orbits of a weighted path: the reflection i -> N+1-i is the only
    candidate symmetry, present iff couplings and controls are mirrored."""
    N = len(couplings) + 1
    mirrored = list(couplings) == list(reversed(couplings)) and \
        sorted(N + 1 - c for c in controls) == sorted(controls)
    if not mirrored:
        return [[v] for v in range(1, N + 1)]
    return [sorted({v, N + 1 - v}) for v in range(1, (N + 1) // 2 + 1)]


def star_orbits(lengths) -> list[list[int]]:
    """Node orbits of a center-controlled uniform star: the center alone, and
    for each depth the nodes at that depth on branches of equal length.
    Nodes are numbered as in spinctrl.make_star: center 1, then each branch
    outward from the center, in input order."""
    classes: dict[tuple[int, int], list[int]] = {}
    node = 2
    for length in lengths:
        for depth in range(1, length):
            classes.setdefault((length, depth), []).append(node)
            node += 1
    return [[1]] + list(classes.values())


def star_dark_lower_bound(lengths) -> int:
    """Sum over branch lengths L of (m_L - 1)(L - 1), m_L branches of length L:
    differences of equal branches give dark states of the center control."""
    return sum((lengths.count(L) - 1) * (L - 1) for L in set(lengths))


def pairwise_coprime(lengths) -> bool:
    return all(math.gcd(a, b) == 1
               for i, a in enumerate(lengths) for b in lengths[i + 1:])


def _edges_of_chain(couplings):
    return {(i, i + 1): float(g) for i, g in enumerate(couplings, start=1)}


# ---- case builders ---------------------------------------------------------

def uniform_chain(L, N: int, k: int, kappa: float) -> Case:
    couplings = [1.0] * (N - 1)
    facts = {"predicted_controllable": gcd_predicate(N, k, kappa),
             "dark_exact": closed_form_dark_count(N, k, kappa),
             "orbits": chain_orbits(couplings, [k]),
             "edges": _edges_of_chain(couplings), "controls": [k]}
    return Case(f"chain N={N} k={k} kappa={kappa:g}",
                L.make_chain(N, "uniform", kappa, (k,)), facts)


def end_control_chain(L, rng: random.Random, N: int) -> Case:
    """Random couplings, kappa = 0, control at node 1: controllable.

    The float closure's time and pending-pool memory depend on the drawn
    couplings: at N = 14 with a random kappa they range over 3x between
    seeds. At N = 12 and kappa = 0 the spread is about +-25 % of 0.4 s, a
    few per cent of a round.
    """
    couplings = [round(rng.uniform(0.5, 1.5), 6) for _ in range(N - 1)]
    kappa = 0.0
    facts = {"predicted_controllable": True,
             "orbits": chain_orbits(couplings, [1]),
             "edges": _edges_of_chain(couplings), "controls": [1]}
    return Case(f"random chain N={N} k=1 kappa={kappa:g}",
                L.make_chain(N, couplings, kappa, (1,)), facts)


def mirror_chain(L, rng: random.Random, k: int) -> Case:
    """Mirror-symmetric random couplings, N = 2k - 1, control at the center k:
    the k - 1 antisymmetric eigenvectors vanish there."""
    half = [round(rng.uniform(0.5, 1.5), 6) for _ in range(k - 1)]
    couplings = half + half[::-1]
    kappa = round(rng.uniform(-1.0, 1.0), 6)
    N = 2 * k - 1
    facts = {"dark_at_least": k - 1,
             "orbits": chain_orbits(couplings, [k]),
             "edges": _edges_of_chain(couplings), "controls": [k]}
    return Case(f"mirror chain N={N} k={k} kappa={kappa:g}",
                L.make_chain(N, couplings, kappa, (k,)), facts)


def center_star(L, lengths, kappa: float) -> Case:
    edges = {}
    node = 2
    for length in lengths:
        prev = 1
        for _ in range(length - 1):
            edges[(min(prev, node), max(prev, node))] = 1.0
            prev = node
            node += 1
    facts = {"dark_at_least": star_dark_lower_bound(list(lengths)),
             "orbits": star_orbits(lengths), "edges": edges, "controls": [1]}
    if pairwise_coprime(lengths):
        facts["predicted_controllable"] = True
    name = ",".join(map(str, lengths))
    return Case(f"star ({name}) center kappa={kappa:g}",
                L.make_star(StarDescriptor(tuple(lengths)), kappa), facts)


def sweep_cases(L, seed: int) -> list[Case]:
    """Uniform chains 2 <= N <= SWEEP_MAX_N, k = 1..N, kappa in {0, 1, -1}."""
    cases = [uniform_chain(L, N, k, kappa)
             for N in range(2, SWEEP_MAX_N + 1)
             for k in range(1, N + 1)
             for kappa in (0.0, 1.0, -1.0)]
    random.Random(seed).shuffle(cases)
    return cases


def analyze_cases(L, seed: int) -> list[Case]:
    """d = 12..17: uniform chains on both sides of the gcd criteria, a random
    end-controlled chain, a mirror chain with center control, two stars."""
    rng = random.Random(seed)
    return [uniform_chain(L, 16, 3, 0.0),     # gcd(17, 3) = 1: controllable
            uniform_chain(L, 17, 3, 0.0),     # gcd(18, 3) = 3: not
            uniform_chain(L, 15, 2, 1.0),     # gcd(15, 3) = 3: not; sets peak RSS
            end_control_chain(L, rng, 12),
            mirror_chain(L, rng, 8),          # N = 15
            center_star(L, (7, 5, 4), 0.0),   # pairwise coprime: controllable
            center_star(L, (5, 5, 5, 2), 1.0)]


def detect_cases(L, seed: int) -> list[Case]:
    """d = 9..33 for the detectors alone: 25 to 33 on the chains.

    The (2,)*11 star makes graph_automorphisms enumerate 11! - 1 elements
    and raise at its node cap; it fails every round. It comes first: the
    search state it leaves behind (about 40 MB, held until a full garbage
    collection) is then alive while the d = 33 Kronecker SVDs run.
    """
    rng = random.Random(seed)
    return [center_star(L, (2,) * 11, 0.0),
            uniform_chain(L, 33, 6, -1.0),    # gcd(33, 11) = 11: 5 dark states
            mirror_chain(L, rng, 13),         # N = 25
            center_star(L, (6,) * 5, 0.0),
            center_star(L, (4, 4, 4, 3, 3, 3, 2), 0.0),
            center_star(L, (2,) * 8, 0.0)]


# ---- one network through the program --------------------------------------

def run_sweep(L, case: Case) -> dict:
    sub = L.single_excitation(case.spec)
    fl = L.lie_closure([sub.h0, sub.h1], mode="float")
    ex = L.lie_closure([sub.h0, sub.h1], mode="exact")
    return {"d": sub.dimension, "float_dim": fl.dimension,
            "float_controllable": verdict(fl, sub.dimension).controllable,
            "exact_dim": ex.dimension}


def run_analyze(L, case: Case) -> dict:
    rep = L.analyze(case.spec)
    return {"d": rep.subspace_dimension,
            "float_dim": rep.closure["dimension"],
            "float_controllable": rep.closure["controllable"],
            "block_sizes": list(rep.block_sizes),
            "commutant_dim": rep.commutant_dimension,
            "dark_count": rep.dark_states["count"],
            "internal_dim": rep.internal_symmetry["dimension"],
            "automorphisms": [tuple(p) for p in rep.automorphisms["generators"]]}


def run_detect(L, case: Case) -> dict:
    spec = case.spec
    sub = L.single_excitation(spec)
    comm = L.commutant(sub.h0, sub.h1, SYMMETRY_TOL)
    dark = L.dark_states(sub.h0, spec.controls, DARK_TOL)
    anti = L.internal_symmetry(sub.h0, sub.h1, SYMMETRY_TOL)
    autos = L.graph_automorphisms(spec)
    blocks = L.decompose(sub.h0, sub.h1, comm, SYMMETRY_TOL, seed=0)
    return {"d": sub.dimension, "h0": sub.h0, "h1": sub.h1,
            "commutant_dim": comm.dimension, "dark_count": dark.count,
            "internal_dim": anti.dimension, "automorphisms": autos,
            "block_sizes": list(blocks.block_sizes),
            "projectors": blocks.block_projectors}


WORKLOADS = {
    "sweep": (sweep_cases, run_sweep),
    "analyze": (analyze_cases, run_analyze),
    "detect": (detect_cases, run_detect),
}
