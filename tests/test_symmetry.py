import gc
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinctrl.symmetry

from conftest import generated_group, permutation_matrix
from spinctrl.analytic import half_chain_witness
from spinctrl.hamiltonian import single_excitation
from spinctrl.lie import lie_closure
from spinctrl.network import NetworkSpec, StarDescriptor, make_chain, make_star
from spinctrl.reference import (COMMUTING_MATRIX_7, HEISENBERG_BRANCH_TABLE,
                                INHOMOGENEOUS_10x10, XX_BRANCH_TABLE)
from spinctrl.report import analyze
from spinctrl.symmetry import (bright_structure, certify_internal_symmetry, commutant,
                               dark_states, decompose, graph_automorphisms,
                               internal_symmetry)


def chain_pair(length, couplings, kappa, controls):
    sub = single_excitation(make_chain(length, couplings, kappa, controls))
    return sub.h0, sub.h1


class TestCommutant:
    def test_seven_chain(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        comm = commutant(h0, h1)
        assert comm.dimension == 2
        assert comm.has_external_symmetry
        m = COMMUTING_MATRIX_7
        assert np.abs(h0 @ m - m @ h0).max() < 1e-10
        assert np.abs(h1 @ m - m @ h1).max() < 1e-10
        proj = sum(np.real(np.sum(b.conj() * m)) * b for b in comm.basis)
        assert np.abs(m - proj).max() < 1e-10

    def test_no_symmetry_chain(self):
        h0, h1 = chain_pair(5, "uniform", 0.0, (1,))
        comm = commutant(h0, h1)
        assert comm.dimension == 1
        assert not comm.has_external_symmetry

    def test_ten_by_ten_trivial_commutant(self):
        h1 = np.diag([1.0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        comm = commutant(INHOMOGENEOUS_10x10.copy(), h1)
        assert comm.dimension == 1

    def test_identity_in_span(self):
        h0, h1 = chain_pair(6, "uniform", 1.0, (2,))
        comm = commutant(h0, h1)
        eye = np.eye(6, dtype=complex)
        proj = sum(np.real(np.sum(b.conj() * eye)) * b for b in comm.basis)
        assert np.abs(eye - proj).max() < 1e-10

    def test_elements_commute(self):
        h0, h1 = chain_pair(9, "uniform", 0.0, (3,))
        comm = commutant(h0, h1)
        for b in comm.basis:
            assert np.abs(b - b.conj().T).max() < 1e-12
            assert np.abs(h0 @ b - b @ h0).max() < 1e-9
            assert np.abs(h1 @ b - b @ h1).max() < 1e-9


class TestDarkStates:
    def test_five_chain_site_two(self):
        h0, _ = chain_pair(5, "uniform", 0.0, (2,))
        dark = dark_states(h0, (2,))
        assert dark.count == 1
        assert abs(dark.eigenvalues[0]) < 1e-12
        assert dark.residuals.max() < 1e-10

    def test_random_odd_even_site(self, rng):
        for _ in range(10):
            couplings = rng.uniform(0.2, 2.0, 4)
            h0, _ = chain_pair(5, couplings, 0.0, (2,))
            assert dark_states(h0, (2,)).count >= 1

    def test_end_control_never_dark(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            couplings = rng.uniform(0.2, 2.0, n - 1)
            kappa = float(rng.uniform(-2, 2))
            h0, _ = chain_pair(n, couplings, kappa, (1,))
            assert dark_states(h0, (1,)).count == 0

    def test_vectors_orthonormal_eigen(self):
        h0, _ = chain_pair(11, "uniform", 0.0, (3,))
        dark = dark_states(h0, (3,))
        assert dark.count == 2
        v = dark.vectors
        assert np.allclose(v.T @ v, np.eye(dark.count), atol=1e-10)
        for i in range(dark.count):
            resid = h0 @ v[:, i] - dark.eigenvalues[i] * v[:, i]
            assert np.abs(resid).max() < 1e-9

    def test_equivalence_with_commutant_uniform(self):
        for n in range(2, 13):
            for k in range(1, n + 1):
                for kappa in (0.0, 1.0, -1.0):
                    h0, h1 = chain_pair(n, "uniform", kappa, (k,))
                    has_comm = commutant(h0, h1).has_external_symmetry
                    has_dark = dark_states(h0, (k,)).count > 0
                    assert has_comm == has_dark, (n, k, kappa)

    def test_equivalence_with_commutant_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            couplings = rng.uniform(0.2, 2.0, n - 1)
            kappa = float(rng.uniform(-1.5, 1.5))
            k = int(rng.integers(1, n + 1))
            h0, h1 = chain_pair(n, couplings, kappa, (k,))
            has_comm = commutant(h0, h1).has_external_symmetry
            has_dark = dark_states(h0, (k,)).count > 0
            assert has_comm == has_dark, (n, k, kappa)

    def test_dark_state_generates_commutant_members(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        dark = dark_states(h0, (2,))
        v = dark.vectors[:, 0]
        for candidate in (np.eye(7) - 2 * np.outer(v, v), np.outer(v, v)):
            assert np.abs(h0 @ candidate - candidate @ h0).max() < 1e-10
            assert np.abs(h1 @ candidate - candidate @ h1).max() < 1e-10

    @pytest.mark.parametrize("kappa", [1.0, 0.37, np.sqrt(2) / 2])
    def test_kappa_sign_duality_counts(self, kappa):
        for n in range(2, 13):
            for k in range(1, n + 1):
                hp, _ = chain_pair(n, "uniform", kappa, (k,))
                hm, _ = chain_pair(n, "uniform", -kappa, (k,))
                assert dark_states(hp, (k,)).count == dark_states(hm, (k,)).count


def _structure_matches(h0, h1, control, mode):
    """bright_structure gives the closure's dimension and the dark-state count."""
    dark = dark_states(h0, (control,))
    st_ = bright_structure(dark)
    assert h0.shape[0] - st_.bright_dimension == dark.count
    return st_.dimension == lie_closure([h0, h1], mode=mode).dimension


@st.composite
def rational_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(m, q) for m in range(1, n + 1) for q in range(m + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.sampled_from([1.0, 2.0, -1.0, 0.5, 3.0, -1.5])
    edges = tuple((m, q, draw(weights)) for m, q in chosen)
    kappa = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]))
    return NetworkSpec(node_count=n, edges=edges, kappa=kappa,
                       controls=(draw(st.integers(1, n)),))


def _mirror_spectrum_pair(d, spectrum, pattern, rng):
    """h0 with eigenvalues equally spaced or +-symmetric, whose eigenvectors
    meet the control node k with mirror-symmetric overlaps c_j = c_{d-1-j};
    pattern 1 and 2 zero some overlaps (dark states), pattern 3 makes the two
    lowest eigenvalues equal."""
    if spectrum == "equal":
        lam = np.arange(d) - (d - 1) / 2
    else:
        r = rng.uniform(0.3, 2.0, d // 2)
        lam = np.sort(np.concatenate([r, -r, [0.0] * (d % 2)]))
    half = rng.uniform(0.2, 1.0, (d + 1) // 2)
    c = np.concatenate([half, half[:d // 2][::-1]])
    if pattern == 1:
        c[0] = c[-1] = 0.0
    elif pattern == 2:
        c[d // 2] = 0.0
    elif pattern == 3:
        lam[1] = lam[0]
    c /= np.linalg.norm(c)
    k = int(rng.integers(d))
    u = np.eye(d)[k] - c
    norm = np.linalg.norm(u)
    # a Householder reflection, orthogonal with row k equal to c
    q = np.eye(d) - 2 * np.outer(u, u) / norm ** 2 if norm else np.eye(d)
    h0 = q @ np.diag(lam) @ q.T
    h1 = np.zeros((d, d))
    h1[k, k] = 1.0
    return 0.5 * (h0 + h0.T), h1, k + 1


class TestBrightStructure:
    """dim L = n_B^2 - 1 + r for a single-node Z-control, checked against the
    exact closure on rational networks and the float closure on the rest."""

    def test_uniform_chains_exact(self):
        count = 0
        for n in range(2, 13):
            for k in range(1, n + 1):
                for kappa in (0.0, 1.0):
                    h0, h1 = chain_pair(n, "uniform", kappa, (k,))
                    assert _structure_matches(h0, h1, k, "exact"), (n, k, kappa)
                    count += 1
        assert count == 154

    def test_branch_tables_every_control_exact(self):
        count = 0
        for table, kappa in ((XX_BRANCH_TABLE, 0.0), (HEISENBERG_BRANCH_TABLE, 1.0)):
            for ref in table:
                star = make_star(StarDescriptor(tuple(ref["lengths"])), kappa)
                for node in range(1, star.node_count + 1):
                    spec = NetworkSpec(star.node_count, star.edges, kappa, (node,))
                    sub = single_excitation(spec)
                    assert _structure_matches(sub.h0, sub.h1, node, "exact"), \
                        (ref["lengths"], kappa, node)
                    count += 1
        assert count == 219

    @settings(max_examples=60, deadline=None)
    @given(rational_graphs())
    def test_random_rational_graphs_exact(self, spec):
        sub = single_excitation(spec)
        assert _structure_matches(sub.h0, sub.h1, spec.controls[0], "exact")

    def test_irrational_chains_float(self, rng):
        for n in range(2, 11):
            for k in range(1, (n + 1) // 2 + 1):
                for kappa in (math.sqrt(3), -math.sqrt(3), math.sqrt(2) / 2):
                    h0, h1 = chain_pair(n, "uniform", kappa, (k,))
                    assert _structure_matches(h0, h1, k, "float"), (n, k, kappa)
            couplings = rng.uniform(0.5, 1.5, n - 1)
            kappa = float(rng.uniform(-1.0, 1.0))
            k = int(rng.integers(1, n + 1))
            h0, h1 = chain_pair(n, couplings, kappa, (k,))
            assert _structure_matches(h0, h1, k, "float"), (n, couplings, kappa, k)

    @pytest.mark.parametrize("spectrum", ["equal", "pm"])
    @pytest.mark.parametrize("pattern", range(4))
    def test_adversarial_spectra_float(self, spectrum, pattern):
        rng = np.random.default_rng(17 + pattern)
        for d in range(3, 9):
            h0, h1, k = _mirror_spectrum_pair(d, spectrum, pattern, rng)
            assert _structure_matches(h0, h1, k, "float"), (d, spectrum, pattern)

    def test_trace_rank(self):
        # chain 7/2 at kappa 0: the dark eigenvalue is 0, so h0|_D = 0
        h0, _ = chain_pair(7, "uniform", 0.0, (2,))
        s = bright_structure(dark_states(h0, (2,)))
        assert (s.bright_dimension, s.trace_rank, s.dimension) == (6, 1, 36)
        # chain 11/3 at kappa 0: dark eigenvalues +-1
        h0, _ = chain_pair(11, "uniform", 0.0, (3,))
        s = bright_structure(dark_states(h0, (3,)))
        assert (s.bright_dimension, s.trace_rank, s.dimension) == (9, 2, 82)

    def test_margin(self):
        h0, _ = chain_pair(7, "uniform", 0.0, (2,))
        s = bright_structure(dark_states(h0, (2,)))
        assert s.min_bright_overlap > 1e-2 and s.max_dark_overlap < 1e-14
        assert s.min_split_gap > 1e-2 and s.max_merged_gap is None
        assert s.resolved
        # two eigenvalues 3e-12 apart, both bright: merged by the degeneracy
        # rule into one bright eigenspace, shown in the margin and unresolved
        h0, _ = chain_pair(50, "uniform", math.sqrt(3), (7,))
        s = bright_structure(dark_states(h0, (7,)))
        assert 0.0 < s.max_merged_gap < 1e-10 < s.min_split_gap
        assert not s.resolved
        one = bright_structure(dark_states(np.zeros((1, 1)), (1,)))
        assert one.dimension == 1 and one.min_split_gap is None is one.max_merged_gap
        assert one.resolved

    def test_exact_degeneracy_is_unresolved(self):
        # two equal dimers, one controlled: each doubly degenerate eigenspace
        # holds one bright and one dark direction
        spec = NetworkSpec(4, ((1, 2, 1.0), (3, 4, 1.0)), 0.0, (1,))
        sub = single_excitation(spec)
        s = bright_structure(dark_states(sub.h0, (1,)))
        assert not s.resolved
        assert s.dimension == lie_closure([sub.h0, sub.h1], mode="exact").dimension

    def test_needs_one_control_at_dark_tol(self):
        h0, _ = chain_pair(7, "uniform", 0.0, (2,))
        with pytest.raises(ValueError, match="one controlled node"):
            bright_structure(dark_states(h0, (2,), 0.5))


def _external_symmetry_holds(h0, h1, control):
    """The paper's single-node result, by number: every external symmetry
    lives on the dark states. The commutant is the identity plus any operator
    inside the m dark directions of each eigenspace, 1 + sum m^2 in all, and
    decompose splits off the bright subspace and one block per dark state."""
    dark = dark_states(h0, (control,))
    dark_per_eigenspace = Counter(dark.eigenvalues.tolist()).values()
    comm = commutant(h0, h1)
    blocks = decompose(h0, h1, comm).block_sizes
    bright = h0.shape[0] - dark.count
    return (comm.dimension == 1 + sum(m * m for m in dark_per_eigenspace)
            and blocks == tuple(sorted([bright] + [1] * dark.count)))


class TestExternalSymmetry:
    def test_single_node_networks(self, rng):
        cases = []
        for n in range(2, 16):
            for k in range(1, n + 1):
                for kappa in (0.0, 1.0, -1.0, 0.5):
                    cases.append((chain_pair(n, "uniform", kappa, (k,)), k))
        for n in range(2, 13):
            for k in range(1, n + 1):
                cases.append((chain_pair(n, "uniform", math.sqrt(3), (k,)), k))
        for table, kappa in ((XX_BRANCH_TABLE, 0.0), (HEISENBERG_BRANCH_TABLE, 1.0)):
            for ref in table:
                sub = single_excitation(make_star(StarDescriptor(tuple(ref["lengths"])), kappa))
                cases.append(((sub.h0, sub.h1), 1))
        # equal branches: degenerate eigenspaces with several dark directions
        for lengths in ((2, 2), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)):
            for kappa in (0.0, 1.0):
                sub = single_excitation(make_star(StarDescriptor(lengths), kappa))
                cases.append(((sub.h0, sub.h1), 1))
        for _ in range(60):
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, n + 1))
            couplings = rng.uniform(0.2, 2.0, n - 1)
            cases.append((chain_pair(n, couplings, float(rng.uniform(-2.0, 2.0)), (k,)), k))
        for _ in range(60):
            k = int(rng.integers(2, 7))
            half = rng.uniform(0.2, 2.0, k - 1)
            couplings = np.concatenate([half, half[::-1]])
            cases.append((chain_pair(2 * k - 1, couplings, float(rng.uniform(-1.0, 1.0)),
                                     (k,)), k))
        assert len(cases) == 704
        bad = [(h0.shape[0], k) for (h0, h1), k in cases
               if not _external_symmetry_holds(h0, h1, k)]
        assert not bad, bad


class TestInternalSymmetry:
    def test_connected_chains_have_none(self, rng):
        for n in range(3, 11):
            h0, h1 = chain_pair(n, "uniform", 1.0, (min(2, n),))
            assert internal_symmetry(h0, h1).dimension == 0
        for _ in range(10):
            n = int(rng.integers(3, 11))
            couplings = rng.uniform(0.2, 2.0, n - 1)
            k = int(rng.integers(1, n + 1))
            h0, h1 = chain_pair(n, couplings, float(rng.uniform(-2, 2)), (k,))
            assert internal_symmetry(h0, h1).dimension == 0

    def test_disconnected_pair(self):
        h0 = np.zeros((2, 2))
        h1 = np.diag([1.0, 0.0])
        anti = internal_symmetry(h0, h1)
        assert anti.dimension >= 1
        assert anti.has_internal_symmetry
        for s in anti.basis:
            hb1 = h1 - 0.5 * np.eye(2)
            assert np.abs(hb1 @ s + s @ hb1).max() < 1e-9

    def test_connected_pair_is_the_half_control_exception(self):
        # one controlled node out of two is half of all nodes; the traceless
        # control is diag(1/2, -1/2) and a symplectic solution exists
        h0, h1 = chain_pair(2, "uniform", 0.0, (1,))
        anti = internal_symmetry(h0, h1)
        assert anti.dimension == 1
        assert anti.symmetry_type == "symplectic"
        assert anti.has_internal_symmetry

    def test_odd_collective_control_has_none(self):
        h0, h1 = chain_pair(3, "uniform", 0.0, (1, 2))
        assert internal_symmetry(h0, h1).dimension == 0

    def test_half_control_xx_chain(self):
        for k in (2, 3, 4, 5):
            n = 2 * k
            controls = tuple(range(1, k + 1))
            h0, h1 = chain_pair(n, "uniform", 0.0, controls)
            # traceless generators as integer matrices: Hb0 is the adjacency
            # matrix, 2*Hb1 is +1 on the controlled half and -1 on the rest
            hb0 = h0.astype(np.int64)
            hb1 = (2 * h1 - np.eye(n)).astype(np.int64)
            assert np.trace(h0) == 0 and np.array_equal(hb0, h0)
            assert np.array_equal(hb1, 2 * (h1 - np.trace(h1) / n * np.eye(n)))
            s = half_chain_witness(k)
            assert s.dtype.kind == "i"
            for hb in (hb0, hb1):
                assert not np.any(s @ hb + hb.T @ s), k
            assert np.array_equal(s.T, -s)
            assert abs(round(np.linalg.det(s.astype(float)))) == 1
            assert certify_internal_symmetry(s, h0, h1).holds
            anti = internal_symmetry(h0, h1)
            assert anti.dimension >= 1
            assert anti.has_internal_symmetry
            assert anti.symmetry_type == "symplectic"
            # the Heisenberg diagonal breaks the witness
            g0, g1 = chain_pair(n, "uniform", 1.0, controls)
            assert not certify_internal_symmetry(s, g0, g1).anticommutes
            if k == 2:
                dim = lie_closure([h0, h1], mode="exact").dimension
                assert dim == 11  # sp(2) + identity, strictly below u(4)

    def test_certificate_rejects_broken_witnesses(self):
        h0, h1 = chain_pair(6, "uniform", 0.0, (1, 2, 3))
        s = half_chain_witness(3)
        flipped = s.copy()
        flipped[0, 5] = -flipped[0, 5]
        singular = s.copy()
        singular[0, 5] = singular[5, 0] = 0
        symmetric = np.abs(s)
        assert not certify_internal_symmetry(flipped, h0, h1).anticommutes
        assert not certify_internal_symmetry(flipped, h0, h1).antisymmetric
        assert not certify_internal_symmetry(singular, h0, h1).invertible
        assert not certify_internal_symmetry(symmetric, h0, h1).antisymmetric
        for bad in (flipped, singular, symmetric):
            assert not certify_internal_symmetry(bad, h0, h1).holds


class TestGraphAutomorphisms:
    def test_balanced_star_reflection(self):
        spec = make_star(StarDescriptor((4, 4)), 0.0)
        autos = graph_automorphisms(spec)
        assert len(autos) == 1
        sub = single_excitation(spec)
        p = permutation_matrix(autos[0])
        assert np.abs(p @ sub.h0 - sub.h0 @ p).max() < 1e-12
        assert np.abs(p @ sub.h1 - sub.h1 @ p).max() < 1e-12

    def test_end_controlled_chain_has_none(self):
        assert graph_automorphisms(make_chain(5, "uniform", 0.0, controls=(1,))) == []

    def test_center_controlled_chain_has_reflection(self):
        autos = graph_automorphisms(make_chain(5, "uniform", 0.0, controls=(3,)))
        assert autos == [(5, 4, 3, 2, 1)]

    def test_unbalanced_star_has_none(self):
        spec = make_star(StarDescriptor((5, 4, 3)), 0.0)
        assert graph_automorphisms(spec) == []

    def test_weights_break_symmetry(self):
        sym = NetworkSpec(3, ((1, 2, 1.0), (2, 3, 1.0)), 0.0, (2,))
        asym = NetworkSpec(3, ((1, 2, 1.0), (2, 3, 1.5)), 0.0, (2,))
        assert len(graph_automorphisms(sym)) == 1
        assert graph_automorphisms(asym) == []

    def test_three_balanced_branches(self):
        spec = make_star(StarDescriptor((3, 3, 3)), 0.0)
        autos = graph_automorphisms(spec)
        assert autos.order == 6  # S3 on branches
        group = generated_group(autos, spec.node_count)
        assert len(group - {tuple(range(1, spec.node_count + 1))}) == 5

    def test_search_state_freed_without_gc(self, monkeypatch):
        # the search state must be freed by reference counting alone, both
        # after a complete search and after one that exceeds the cap
        spec = make_star(StarDescriptor((2,) * 6), 0.0)
        gc.collect()
        gc.disable()
        try:
            assert graph_automorphisms(spec).order == 720
            assert gc.collect() == 0
            # the complete search visits 25 partial assignments
            monkeypatch.setattr(spinctrl.symmetry, "_AUTOMORPHISM_NODE_CAP", 10)
            with pytest.raises(RuntimeError, match="cap exceeded"):
                graph_automorphisms(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDecompose:
    def test_seven_chain_blocks(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        rep = decompose(h0, h1, commutant(h0, h1), seed=0)
        assert rep.block_sizes == (1, 6)

    def test_trivial_block(self):
        h0, h1 = chain_pair(5, "uniform", 0.0, (1,))
        rep = decompose(h0, h1, commutant(h0, h1), seed=0)
        assert rep.block_sizes == (5,)

    def test_center_controlled_five_chain(self):
        # two dark states split off individually: {1, 1, 3}, finer than the
        # bare reflection parity split
        h0, h1 = chain_pair(5, "uniform", 0.0, (3,))
        rep = decompose(h0, h1, commutant(h0, h1), seed=0)
        assert rep.block_sizes == (1, 1, 3)

    def test_blocks_are_invariant(self):
        h0, h1 = chain_pair(9, "uniform", 0.0, (3,))
        rep = decompose(h0, h1, commutant(h0, h1), seed=0)
        assert sum(rep.block_sizes) == 9
        for p in rep.block_projectors:
            assert np.allclose(p.conj().T @ p, np.eye(p.shape[1]), atol=1e-10)
            for h in (h0, h1):
                image = h @ p
                resid = image - p @ (p.conj().T @ image)
                assert np.abs(resid).max() < 1e-8

    def test_closure_within_block_bound(self):
        for n, k in [(7, 2), (9, 3), (5, 3)]:
            h0, h1 = chain_pair(n, "uniform", 0.0, (k,))
            rep = decompose(h0, h1, commutant(h0, h1), seed=0)
            bound = sum(b * b for b in rep.block_sizes)
            assert lie_closure([h0, h1]).dimension <= bound

    def test_seed_determinism(self):
        h0, h1 = chain_pair(9, "uniform", 0.0, (3,))
        a = decompose(h0, h1, commutant(h0, h1), seed=7)
        b = decompose(h0, h1, commutant(h0, h1), seed=7)
        assert a.block_sizes == b.block_sizes
        for pa, pb in zip(a.block_projectors, b.block_projectors):
            assert np.array_equal(pa, pb)


class TestSymmetryReport:
    def test_aggregates_and_serializes(self):
        # analyze() is the one place where the detectors are aggregated
        import json
        rep = analyze(make_chain(7, "uniform", 0.0, controls=(2,)))
        assert rep.commutant_dimension == 2
        assert rep.dark_states["count"] == 1
        assert rep.internal_symmetry["dimension"] == 0
        assert rep.block_sizes == [1, 6]
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["dark_states"]["count"] == 1
