"""The eigenbasis detectors and the stabiliser-chain automorphism search
against the brute-force oracles of conftest: the Kronecker-system commutant
and anticommutant, and the full listing of the automorphism group."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import (enumerate_automorphisms, generated_group, kron_commutant,
                      kron_internal_symmetry)
from spinctrl import reference, symmetry
from spinctrl.acceptance import _gcd_sweep_fixtures, _random_chains
from spinctrl.hamiltonian import single_excitation
from spinctrl.network import NetworkSpec, StarDescriptor, make_chain, make_star
from spinctrl.report import SYMMETRY_TOL
from spinctrl.symmetry import commutant, graph_automorphisms, internal_symmetry


def _pair(spec):
    sub = single_excitation(spec)
    return sub.h0, sub.h1


def _detector_fixtures():
    for N, k, kappa, _ in _gcd_sweep_fixtures():
        yield f"gcd N={N} k={k} kappa={kappa}", _pair(make_chain(N, "uniform", kappa, (k,)))
    for N, couplings, kappa, k in _random_chains(0):
        yield f"random N={N} k={k}", _pair(make_chain(N, couplings, kappa, (k,)))
    for table, kappa in ((reference.XX_BRANCH_TABLE, 0.0),
                         (reference.HEISENBERG_BRANCH_TABLE, 1.0)):
        for row in table:
            yield (f"star {row['lengths']} kappa={kappa}",
                   _pair(make_star(StarDescriptor(tuple(row["lengths"])), kappa)))
    for k in (2, 3, 4, 5):
        yield (f"half chain k={k}",
               _pair(make_chain(2 * k, "uniform", 0.0, tuple(range(1, k + 1)))))
    yield "disconnected pair", (np.zeros((2, 2)), np.diag([1.0, 0.0]))
    # the stars of the detect benchmark: large dark eigenspaces
    for lengths in ((2,) * 11, (2,) * 8, (6,) * 5, (4, 4, 4, 3, 3, 3, 2)):
        yield f"star {lengths}", _pair(make_star(StarDescriptor(lengths), 0.0))
    # one eigenspace holding every direction, bright and dark ones mixed
    yield "12 nodes without edges, control 1", _pair(NetworkSpec(12, (), 0.0, (1,)))
    yield "12 nodes without edges, controls 1, 2", _pair(NetworkSpec(12, (), 0.0, (1, 2)))
    # several controls: a mirror-symmetric control set, and stars whose
    # degenerate eigenspaces are partly bright
    yield "chain 6, controls 1, 6", _pair(make_chain(6, "uniform", 0.0, (1, 6)))
    for lengths, controls in (((3, 3, 3, 2), (3, 8)), ((3,) * 5, (3, 5))):
        star = make_star(StarDescriptor(lengths), 0.0)
        yield f"star {lengths} controls {controls}", _pair(replace(star, controls=controls))
    # a traceless control: the dark x dark anticommutant entries are free
    yield "traceless control", (np.zeros((4, 4)), np.diag([1.0, -1.0, 0.0, 0.0]))


def test_detectors_match_kronecker_oracle():
    checked = 0
    nonzero_anticommutants = 0
    for label, (h0, h1) in _detector_fixtures():
        comm = commutant(h0, h1, SYMMETRY_TOL)
        want = kron_commutant(h0, h1, SYMMETRY_TOL)
        assert (comm.dimension, comm.has_external_symmetry) == \
            (want.dimension, want.has_external_symmetry), label
        anti = internal_symmetry(h0, h1, SYMMETRY_TOL)
        want = kron_internal_symmetry(h0, h1, SYMMETRY_TOL)
        assert (anti.dimension, anti.has_internal_symmetry, anti.symmetry_type) == \
            (want.dimension, want.has_internal_symmetry, want.symmetry_type), label
        nonzero_anticommutants += anti.dimension > 0
        checked += 1
    assert checked == 231 + 25 + 6 + 13 + 4 + 1 + 4 + 2 + 3 + 1
    # the half-chain family and the two-node pairs exercise the solver
    assert nonzero_anticommutants >= 5


def test_commutant_basis_orthonormal_hermitian():
    h0, h1 = _pair(make_star(StarDescriptor((3, 3, 3, 2)), 0.0))
    comm = commutant(h0, h1, SYMMETRY_TOL)
    assert comm.dimension == kron_commutant(h0, h1, SYMMETRY_TOL).dimension > 2
    gram = np.array([[np.real(np.sum(a.conj() * b)) for b in comm.basis]
                     for a in comm.basis])
    assert np.abs(gram - np.eye(comm.dimension)).max() < 1e-12
    for b in comm.basis:
        assert np.abs(b - b.conj().T).max() < 1e-12
        for h in (h0, h1):
            assert np.abs(h @ b - b @ h).max() < 1e-9


def test_parity_systems_keep_the_singular_values():
    """The symmetric and antisymmetric systems together have the singular
    values of the d^2-row system over the same unknowns, one column per
    entry of the support."""
    rng = np.random.default_rng(2)
    d = 6
    for sign in (-1.0, 1.0):
        for _ in range(5):
            c = rng.standard_normal((d, d))
            c += c.T
            mask = rng.random((d, d)) < 0.4
            mask |= mask.T
            rows, cols = np.nonzero(mask)
            dense = np.zeros((d, d, rows.size))
            dense[:, cols, np.arange(rows.size)] = c[:, rows]
            dense[rows, :, np.arange(rows.size)] += sign * c[cols, :]
            want = np.linalg.svd(dense.reshape(d * d, -1), compute_uv=False)
            got = []
            for parity in (1.0, -1.0):
                upper = rows <= cols if parity > 0 else rows < cols
                r, s = rows[upper], cols[upper]
                if not r.size:
                    continue
                system = symmetry._parity_system(c, r, s, parity, sign)
                got.extend(np.linalg.svd(system, compute_uv=False))
                got.extend([0.0] * (r.size - min(system.shape)))
            assert np.allclose(np.sort(got), np.sort(want), atol=1e-12)


def test_diagonal_commutant_matches_the_general_solver():
    """On a simple spectrum the commutant takes the diagonal path; the
    general solver over the same diagonal unknowns spans the same space."""
    checked = 0
    for label, (h0, h1) in _detector_fixtures():
        w, v = np.linalg.eigh(h0)
        labels = symmetry._group_labels(w, symmetry._DEGENERACY_TOL * symmetry._scale(w))
        if labels[-1] + 1 < len(w):
            continue
        v, b, bright = symmetry._bright_first(v, labels, h1, SYMMETRY_TOL)
        diagonal = symmetry._diagonal_commutant(v, b.copy(), bright, SYMMETRY_TOL)
        idx = np.arange(len(w))
        sym, anti = symmetry._eigenbasis_solutions(v, b.copy(), bright, 0.0, idx, idx, -1.0,
                                                   SYMMETRY_TOL)
        assert len(anti) == 0 and len(diagonal) == len(sym), label
        got, want = diagonal.reshape(len(sym), -1), sym.reshape(len(sym), -1)
        assert np.abs(want - (want @ got.T) @ got).max() < 1e-10, label
        checked += 1
    assert checked > 250


def test_dark_block_stays_out_of_the_solver(monkeypatch):
    """On the (2,)*11 star the 10-dimensional dark eigenspace is solved in
    closed form: the solver sees only the two bright directions."""
    columns = []
    svd = symmetry._svd

    def spy(a):
        columns.append(a.shape[1])
        return svd(a)

    monkeypatch.setattr(symmetry, "_svd", spy)
    h0, h1 = _pair(make_star(StarDescriptor((2,) * 11), 0.0))
    assert commutant(h0, h1, SYMMETRY_TOL).dimension == 10 ** 2 + 1
    assert internal_symmetry(h0, h1, SYMMETRY_TOL).dimension == 0
    assert columns and max(columns) <= 2


def _star_lengths(max_nodes):
    """Branch-length multisets (at least two branches, each >= 2) of stars
    with at most max_nodes nodes."""
    out = []

    def grow(prefix, budget, largest):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        for extra in range(min(budget, largest), 0, -1):
            grow(prefix + [extra + 1], budget - extra, extra)

    grow([], max_nodes - 1, max_nodes - 1)
    return out


def _automorphism_fixtures():
    rng = np.random.default_rng(5)
    for n in range(2, 10):
        for k in range(1, n + 1):
            yield make_chain(n, "uniform", 0.0, (k,))
        half = list(np.round(rng.uniform(0.5, 1.5, (n - 1) // 2), 3))
        middle = [1.25] if (n - 1) % 2 else []
        mirrored = half + middle + half[::-1]
        yield make_chain(n, mirrored, 0.0, ((n + 1) // 2,))
        yield make_chain(n, mirrored, 0.0, (1, n))
        yield make_chain(n, list(np.round(rng.uniform(0.5, 1.5, n - 1), 3)), 0.0, (1,))
    for lengths in _star_lengths(9):
        spec = make_star(StarDescriptor(lengths), 0.0)
        yield spec
        yield make_star(StarDescriptor(lengths, (len(lengths), 2)), 0.0)
        # the first spoke weighted 1.0, every other spoke 1.5
        weights = {2 + sum(x - 1 for x in lengths[:i]): 1.0 + 0.5 * min(i, 1)
                   for i in range(len(lengths))}
        edges = tuple((m, q, weights.get(q, 1.0) if m == 1 else g)
                      for m, q, g in spec.edges)
        yield NetworkSpec(spec.node_count, edges, 0.0, (1,), "star", lengths)
    # graphs with cycles, where a forced image can fail deep in the search
    ring = tuple((i, i % 6 + 1, 1.0) for i in range(1, 7))
    yield NetworkSpec(6, tuple((min(m, q), max(m, q), g) for m, q, g in ring), 0.0, (1,))
    yield NetworkSpec(4, tuple((m, q, 1.0) for m, q in itertools.combinations(range(1, 5), 2)),
                      0.0, (1,))
    prism = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    yield NetworkSpec(6, tuple((m, q, 1.0) for m, q in prism), 0.0, (2, 5))


def test_automorphism_generators_match_enumeration():
    checked = 0
    largest = 0
    for spec in _automorphism_fixtures():
        n = spec.node_count
        gens = graph_automorphisms(spec)
        group = enumerate_automorphisms(spec)
        assert generated_group(gens, n) == group, spec
        assert gens.order == len(group), spec
        assert len(gens) <= n - 1
        assert list(gens) == sorted(gens)
        assert tuple(range(1, n + 1)) not in gens
        largest = max(largest, gens.order)
        checked += 1
    assert checked > 200
    assert largest == 40320  # the (2,)*8 star: S_8 on its leaves


@pytest.mark.parametrize("branches, order", [(11, 39916800), (12, 479001600)])
def test_equal_branch_star_order(branches, order):
    gens = graph_automorphisms(make_star(StarDescriptor((2,) * branches), 0.0))
    assert gens.order == order
    assert len(gens) == branches - 1
