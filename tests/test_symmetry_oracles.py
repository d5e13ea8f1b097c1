"""The eigenbasis detectors and the stabiliser-chain automorphism search
against the brute-force oracles of conftest: the Kronecker-system commutant
and anticommutant, and the full listing of the automorphism group."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import (eager_commutant, eager_internal_symmetry, enumerate_automorphisms,
                      frozen_graph_automorphisms, full_stack_decompose, generated_group,
                      kron_commutant, kron_internal_symmetry)
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
    # two copies of chain 4, each controlled at its node 2: every eigenspace
    # holds two bright directions with one control overlap, so the rotation
    # leaves them mixed and the commutant (2 x 2 matrices across the copies)
    # couples them in every eigenspace, not only the first
    copies = tuple((m + o, m + o + 1, 1.0) for o in (0, 4) for m in (1, 2, 3))
    yield "two copies of chain 4, controls 2, 6", _pair(NetworkSpec(8, copies, 0.0, (2, 6)))


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
    assert checked == 231 + 25 + 6 + 13 + 4 + 1 + 4 + 2 + 3 + 1 + 1
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
                # the rows of a symmetric image: its upper triangle; of an
                # antisymmetric one: the strict upper triangle
                assert system.shape == (d * (d + 1) // 2 if sign * parity > 0
                                        else d * (d - 1) // 2, r.size)
                got.extend(np.linalg.svd(system, compute_uv=False))
                got.extend([0.0] * (r.size - min(system.shape)))
            assert np.allclose(np.sort(got), np.sort(want), atol=1e-12)


def test_lazy_basis_is_the_eager_basis():
    """Both results keep eigenbasis unknowns; the basis they build on first
    read is the one the eager detectors wrote out, bit for bit."""
    for label, (h0, h1) in _detector_fixtures():
        comm = commutant(h0, h1, SYMMETRY_TOL)
        want = eager_commutant(h0, h1, SYMMETRY_TOL)
        assert (comm.dimension, comm.has_external_symmetry) == \
            (want.dimension, want.has_external_symmetry), label
        assert comm.basis.dtype == want.basis.dtype, label
        assert np.array_equal(comm.basis, want.basis), label
        anti = internal_symmetry(h0, h1, SYMMETRY_TOL)
        want = eager_internal_symmetry(h0, h1, SYMMETRY_TOL)
        assert (anti.dimension, anti.has_internal_symmetry, anti.symmetry_type) == \
            (want.dimension, want.has_internal_symmetry, want.symmetry_type), label
        assert anti.basis.dtype == want.basis.dtype, label
        assert np.array_equal(anti.basis, want.basis), label


def test_decompose_finds_the_full_stack_blocks():
    """decompose draws from the unknowns and splits the draw per eigenspace
    of h0; it finds the blocks of the draws from the whole stack."""
    split = 0
    for label, (h0, h1) in _detector_fixtures():
        comm = commutant(h0, h1, SYMMETRY_TOL)
        want = full_stack_decompose(h0, h1, eager_commutant(h0, h1, SYMMETRY_TOL).basis,
                                    SYMMETRY_TOL)
        assert symmetry.decompose(h0, h1, comm, SYMMETRY_TOL).block_sizes == want, label
        split += len(want) > 1
    assert split > 50  # fixtures that split into more than one block


def test_decompose_rejects_blocks_that_are_not_invariant():
    """Elements diagonal in the eigenbasis of h0 commute with h0 but not with
    h1: their eigenvectors are no invariant blocks, and decompose says so."""
    h0, h1 = _pair(make_chain(7, "uniform", 0.0, (2,)))
    comm = commutant(h0, h1, SYMMETRY_TOL)
    every = np.arange(7)
    comm.symmetric = symmetry._Unknowns(every, every, 7, np.zeros((0, 0)), 1.0)
    with pytest.raises(symmetry.DecompositionError, match="not invariant"):
        symmetry.decompose(h0, h1, comm, SYMMETRY_TOL)


def test_internal_symmetry_keeps_its_own_grouping(monkeypatch):
    """Shifting by tr h0 / d changes the spectral scale and so the gap: here
    four eigenvalues 4e-9 apart near 100 are one eigenspace of h0 and four of
    the shift. internal_symmetry then rotates by its own grouping and gives
    the eager result, not the shared rotation's."""
    rotations = []
    rotate = symmetry._bright_first

    def spy(v, labels, h):
        rotations.append(labels.max() + 1)
        return rotate(v, labels, h)

    monkeypatch.setattr(symmetry, "_bright_first", spy)
    h0 = np.diag(100.0 + 4e-9 * np.arange(4))
    h1 = np.diag([1.0, 1.0, -1.0, -1.0])
    shared = symmetry.Spectrum.of(h0, h1)
    anti = internal_symmetry(h0, h1, SYMMETRY_TOL, spectrum=shared)
    assert rotations == [1, 4]
    want = eager_internal_symmetry(h0, h1, SYMMETRY_TOL)
    assert (anti.dimension, anti.symmetry_type) == (want.dimension, want.symmetry_type)
    assert anti.dimension > 0 and np.array_equal(anti.basis, want.basis)


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


def _frozen_search_fixtures():
    for n in range(2, 21):
        for k in range(1, n + 1):
            yield make_chain(n, "uniform", 0.0, (k,))
    workload_stars = [(7, 5, 4), (5, 5, 5, 2), (2,) * 11, (6,) * 5, (4, 4, 4, 3, 3, 3, 2),
                      (2,) * 8]
    for lengths in workload_stars + _star_lengths(9):
        star = make_star(StarDescriptor(lengths), 0.0)
        yield star
        # leaf controls: next to the centre, the tip of the first branch, the last node
        for leaf in sorted({2, lengths[0], star.node_count}):
            yield replace(star, controls=(leaf,))
        yield replace(star, controls=(1, star.node_count))


def test_automorphisms_match_the_frozen_search():
    """The list-indexed search returns the generators and the order of the
    dict-indexed one it replaced: same colour ranks, same base order."""
    checked = 0
    for spec in _frozen_search_fixtures():
        gens = graph_automorphisms(spec)
        want_gens, want_order = frozen_graph_automorphisms(spec)
        assert (list(gens), gens.order) == (want_gens, want_order), spec
        checked += 1
    assert checked > 400
