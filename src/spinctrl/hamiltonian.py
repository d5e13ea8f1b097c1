"""Drift and control Hamiltonians restricted to excitation subspaces.

The one-excitation drift of an XXZ network is the weighted adjacency matrix
plus the diagonal mu_v = mu_0 - kappa * sum(gamma over edges at v), with
mu_0 = (kappa / 2) * sum(gamma over all edges). This is exactly the
projection of the full 2^N Hamiltonian onto the one-excitation sector, with
no identity shift. The control matrix is the 0/1 indicator of basis states
whose excitation set meets the control set; the projected collective control
equals |K| * I - 2 * h1, an affine shift that leaves all commutators scaled
by a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .network import InvalidNetworkError, NetworkSpec


@dataclass
class SubspaceHamiltonian:
    """Dense symmetric drift/control pair on an excitation subspace.

    basis_labels[i] is the tuple of excited sites (1-based) of basis state i:
    singletons for n=1, ordered pairs (i, j) with i < j, lexicographic, for
    n=2. Arrays are write-protected after construction.
    """

    dimension: int
    basis_labels: tuple[tuple[int, ...], ...]
    h0: np.ndarray
    h1: np.ndarray
    excitation_number: int

    def __post_init__(self):
        self.h0.setflags(write=False)
        self.h1.setflags(write=False)


def single_excitation(spec: NetworkSpec) -> SubspaceHamiltonian:
    """One-excitation restriction of the network Hamiltonian and control."""
    n = spec.node_count
    h0 = np.zeros((n, n))
    strength = np.zeros(n)  # sum of couplings at each node
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m, q, g in spec.edges:
            h0[m - 1, q - 1] = g
            h0[q - 1, m - 1] = g
            strength[m - 1] += g
            strength[q - 1] += g
            total += g
        mu0 = 0.5 * spec.kappa * total
        for v in range(n):
            h0[v, v] = mu0 - spec.kappa * strength[v]
    _check_finite(h0, spec)
    labels = tuple((i,) for i in range(1, n + 1))
    h1 = control_matrix(spec, labels)
    return SubspaceHamiltonian(dimension=n, basis_labels=labels, h0=h0, h1=h1,
                               excitation_number=1)


def second_excitation_chain(spec: NetworkSpec) -> SubspaceHamiltonian:
    """Two-excitation restriction for chains.

    Basis states are site pairs (i, j), i < j, in lexicographic order. A
    hop moves one excitation across one edge; the diagonal comes from the
    ZZ part, (kappa/2) * sum(gamma_mn * s_m * s_n) with s_v = -1 on excited
    sites, shifted so its minimum is zero (kappa = 0 then gives an exactly
    zero diagonal).
    """
    if not spec.is_chain():
        raise InvalidNetworkError("second_excitation_chain: spec is not a chain")
    n = spec.node_count
    if n < 3:
        raise InvalidNetworkError("second_excitation_chain: need N >= 3")
    labels = tuple((i, j) for i, j in combinations(range(1, n + 1), 2))
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    h0 = np.zeros((d, d))
    for lab in labels:
        occupied = set(lab)
        for m, q, g in spec.edges:
            if m in occupied and q not in occupied:
                other = tuple(sorted((occupied - {m}) | {q}))
                h0[index[lab], index[other]] = g
            if q in occupied and m not in occupied:
                other = tuple(sorted((occupied - {q}) | {m}))
                h0[index[lab], index[other]] = g
    diag = np.zeros(d)
    for i, lab in enumerate(labels):
        occupied = set(lab)
        acc = 0.0
        for m, q, g in spec.edges:
            sm = -1.0 if m in occupied else 1.0
            sq = -1.0 if q in occupied else 1.0
            acc += 0.5 * spec.kappa * g * sm * sq
        diag[i] = acc
    with np.errstate(over="ignore", invalid="ignore"):
        diag -= diag.min()
        h0 += np.diag(diag)
    _check_finite(h0, spec)
    h1 = control_matrix(spec, labels)
    return SubspaceHamiltonian(dimension=d, basis_labels=labels, h0=h0, h1=h1,
                               excitation_number=2)


def _check_finite(h0: np.ndarray, spec: NetworkSpec) -> None:
    """ValueError when the couplings and kappa overflow an entry of h0."""
    if not np.isfinite(h0).all():
        largest = max((abs(g) for _, _, g in spec.edges), default=0.0)
        raise ValueError(
            "the couplings and kappa overflow the drift: an entry of h0 is not "
            f"finite (largest |coupling| {largest:g}, kappa {spec.kappa:g})")


def control_matrix(spec: NetworkSpec, basis_labels) -> np.ndarray:
    """Diagonal 0/1 indicator: 1 iff the label meets the control set."""
    controls = set(spec.controls)
    diag = [1.0 if controls & set(lab) else 0.0 for lab in basis_labels]
    return np.diag(diag)
