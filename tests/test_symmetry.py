import gc

import numpy as np
import pytest

import spinctrl.symmetry

from conftest import generated_group, permutation_matrix
from spinctrl.analytic import half_chain_witness
from spinctrl.hamiltonian import single_excitation
from spinctrl.lie import lie_closure
from spinctrl.network import NetworkSpec, StarDescriptor, make_chain, make_star
from spinctrl.reference import COMMUTING_MATRIX_7, INHOMOGENEOUS_10x10
from spinctrl.report import analyze
from spinctrl.symmetry import (certify_internal_symmetry, commutant, dark_states,
                               decompose, graph_automorphisms, internal_symmetry)


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
