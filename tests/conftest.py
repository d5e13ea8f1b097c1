"""Shared oracles: brute-force 2^N Hamiltonians and sector projections, and
the brute-force symmetry detectors.

The full-space construction is kept independent of the package builders so
it can serve as an oracle for them: Pauli strings are assembled by explicit
Kronecker products and projected onto fixed-excitation sectors by selecting
computational-basis states.

The detector oracles solve the same problems as spinctrl.symmetry without
its shortcuts: the commutant and the anticommutant as the nullspace of the
full 2d^2 x d^2 Kronecker system, and the automorphism group by listing
every element.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from spinctrl.symmetry import AnticommutantResult, CommutantBasis, _weight_classes

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def pauli_string(n_sites: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for site in range(n_sites):
        out = np.kron(out, factors.get(site, np.eye(2)))
    return out


def full_space_hamiltonians(spec):
    """(drift, control) on the full 2^N space, built straight from the
    coupling sum (XX + YY + kappa ZZ)/2 and the collective Z-control."""
    n = spec.node_count
    dim = 1 << n
    drift = np.zeros((dim, dim), complex)
    for m, q, g in spec.edges:
        i, j = m - 1, q - 1
        drift += 0.5 * g * (pauli_string(n, {i: PAULI_X, j: PAULI_X})
                            + pauli_string(n, {i: PAULI_Y, j: PAULI_Y})
                            + spec.kappa * pauli_string(n, {i: PAULI_Z, j: PAULI_Z}))
    control = np.zeros((dim, dim), complex)
    for k in spec.controls:
        control += pauli_string(n, {k - 1: PAULI_Z})
    return drift, control


def sector_states(n_sites: int, excitations: int) -> list[int]:
    """Computational-basis indices of the n-excitation sector, ordered to
    match the subspace builders (site 1 is the leftmost tensor factor)."""
    if excitations == 1:
        labels = [(i,) for i in range(1, n_sites + 1)]
    elif excitations == 2:
        labels = list(combinations(range(1, n_sites + 1), 2))
    else:
        raise ValueError("oracle supports 1 or 2 excitations")
    states = []
    for label in labels:
        idx = 0
        for site in label:
            idx |= 1 << (n_sites - site)
        states.append(idx)
    return states


def project_to_sector(mat: np.ndarray, states: list[int]) -> np.ndarray:
    return mat[np.ix_(states, states)]


def kron_nullspace(a: np.ndarray, tolerance: float) -> np.ndarray:
    """Columns spanning {x : a x = 0}, threshold relative to s_max."""
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    cols = a.shape[1]
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > tolerance * max(smax, 1.0)))
    return vt[rank:].T.conj() if rank < cols else np.zeros((cols, 0))


def kron_commutant(h0, h1, tolerance: float = 1e-9) -> CommutantBasis:
    """Real nullspace of M -> ([h0, M], [h1, M]) as a (2d^2) x (d^2) system,
    mapped to Hermitian matrices by sym(M) + i antisym(M)."""
    d = h0.shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(h, eye) - np.kron(eye, h) for h in (h0, h1)])
    herm = []
    for col in kron_nullspace(stacked, tolerance).T:
        m = col.reshape(d, d)
        herm.append(0.5 * (m + m.T) + 0.5j * (m - m.T))
    return CommutantBasis(dimension=len(herm), basis=herm,
                          has_external_symmetry=len(herm) > 1)


def kron_internal_symmetry(h0, h1, tolerance: float = 1e-9) -> AnticommutantResult:
    """Real nullspace of S -> (Hb S + S Hb) for both traceless shifts as a
    (2d^2) x (d^2) system, with the parity test and invertibility draws of
    spinctrl.internal_symmetry."""
    d = h0.shape[0]
    eye = np.eye(d)
    blocks = []
    for h in (h0, h1):
        hb = h - (np.trace(h) / d) * eye
        blocks.append(np.kron(hb, eye) + np.kron(eye, hb))
    null = kron_nullspace(np.vstack(blocks), tolerance)
    dim = null.shape[1]
    if dim == 0:
        return AnticommutantResult(dimension=0, has_internal_symmetry=False,
                                   symmetry_type=None)
    sols = [col.reshape(d, d) for col in null.T]
    has_sym = _span_rank([0.5 * (s + s.T) for s in sols], tolerance) > 0
    has_anti = _span_rank([0.5 * (s - s.T) for s in sols], tolerance) > 0
    invertible = False
    rng = np.random.default_rng(0)
    for _ in range(8):
        cand = sum(c * s for c, s in zip(rng.standard_normal(dim), sols))
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin > tolerance * max(1.0, np.abs(cand).max()):
            invertible = True
            break
    stype = ("mixed" if has_sym and has_anti
             else "orthogonal" if has_sym else "symplectic")
    return AnticommutantResult(dimension=dim, has_internal_symmetry=invertible,
                               symmetry_type=stype, basis=sols)


def _span_rank(mats, tolerance: float) -> int:
    s = np.linalg.svd(np.array([m.ravel() for m in mats]), compute_uv=False)
    return int(np.sum(s > tolerance * max(s.max(), 1.0)))


def enumerate_automorphisms(spec) -> set[tuple[int, ...]]:
    """Every node permutation (identity included) preserving the weighted
    edges and the control set, by backtracking over color-refined classes."""
    n = spec.node_count
    weights = {}
    for m, q, g in spec.edges:
        weights[(m, q)] = weights[(q, m)] = g
    adj = spec.adjacency()
    controls = set(spec.controls)
    wclasses = _weight_classes(sorted({g for _, _, g in spec.edges}))
    color = {v: (v in controls, len(adj[v]),
                 tuple(sorted(wclasses[g] for _, g in adj[v]))) for v in range(1, n + 1)}
    for _ in range(n):
        newcolor = {v: (color[v], tuple(sorted((color[w], wclasses[g]) for w, g in adj[v])))
                    for v in range(1, n + 1)}
        ranks = {c: i for i, c in enumerate(sorted(set(newcolor.values()), key=repr))}
        relabeled = {v: ranks[newcolor[v]] for v in range(1, n + 1)}
        done = len(set(relabeled.values())) == len(set(color.values()))
        color = relabeled
        if done:
            break
    order = sorted(range(1, n + 1), key=lambda v: (color[v], v))
    found = set()
    mapping: dict[int, int] = {}

    def extend(pos: int) -> None:
        if pos == n:
            found.add(tuple(mapping[v] for v in range(1, n + 1)))
            return
        v = order[pos]
        used = set(mapping.values())
        for img in range(1, n + 1):
            if img in used or color[img] != color[v]:
                continue
            ok = all(w not in mapping or (
                (img, mapping[w]) in weights
                and wclasses[weights[(img, mapping[w])]] == wclasses[g])
                for w, g in adj[v])
            if not ok or (sum(1 for w, _ in adj[v] if w in mapping)
                          != sum(1 for w, _ in adj[img] if w in used)):
                continue
            mapping[v] = img
            extend(pos + 1)
            del mapping[v]

    extend(0)
    return found


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the given permutations of 1..n, identity included."""
    group = {tuple(range(1, n + 1))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[i] - 1] for i in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240801)
