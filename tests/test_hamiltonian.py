import warnings

import numpy as np
import pytest

from spinctrl.hamiltonian import (control_matrix, second_excitation_chain,
                                  single_excitation)
from spinctrl.network import (InvalidNetworkError, NetworkSpec, StarDescriptor,
                              make_chain, make_star)
from spinctrl.reference import INHOMOGENEOUS_10x10

from conftest import (full_space_hamiltonians, matrices_as_json, matrices_as_text,
                      project_to_sector, sector_states)


class TestSingleExcitation:
    def test_uniform_three_heisenberg(self):
        sub = single_excitation(make_chain(3, "uniform", 1.0, controls=(1,)))
        # equals the corner-kappa matrix minus one unit of identity
        corner = np.array([[1.0, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert np.allclose(sub.h0, corner - np.eye(3))
        assert np.array_equal(sub.h1, np.diag([1.0, 0, 0]))

    def test_uniform_three_xx(self):
        sub = single_excitation(make_chain(3, "uniform", 0.0, controls=(1,)))
        assert np.array_equal(sub.h0, np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]]))

    def test_inhomogeneous_three(self):
        sub = single_excitation(make_chain(3, [1, 2], 1.0, controls=(1,)))
        want = np.array([[0.5, 1.0, 0.0], [1.0, -1.5, 2.0], [0.0, 2.0, -0.5]])
        assert np.allclose(sub.h0, want)

    def test_labels_and_symmetry(self):
        spec = make_star(StarDescriptor((3, 2, 2)), 0.7)
        sub = single_excitation(spec)
        assert sub.basis_labels == tuple((i,) for i in range(1, 6))
        assert np.array_equal(sub.h0, sub.h0.T)
        assert sub.h0.flags.writeable is False

    @pytest.mark.parametrize("case", [
        ("chain", 3, [1.0, 2.0], 1.0, (1,)),
        ("chain", 5, [0.5, 1.5, 2.0, 1.0], -0.8, (3,)),
        ("chain", 7, "uniform", 0.37, (2, 5)),
        ("star", (3, 2, 2), None, 1.0, None),
    ])
    def test_full_space_oracle(self, case):
        kind, size, couplings, kappa, controls = case
        if kind == "chain":
            spec = make_chain(size, couplings, kappa, controls)
        else:
            spec = make_star(StarDescriptor(size), kappa)
        sub = single_excitation(spec)
        drift, control = full_space_hamiltonians(spec)
        states = sector_states(spec.node_count, 1)
        p0 = project_to_sector(drift, states)
        pc = project_to_sector(control, states)
        assert np.abs(p0.imag).max() < 1e-14
        # drift projects exactly; control is |K| I - 2 h1
        assert np.allclose(p0.real, sub.h0, atol=1e-13)
        shift = len(spec.controls) * np.eye(spec.node_count)
        assert np.allclose(pc.real, shift - 2 * sub.h1, atol=1e-13)
        renorm = (shift - pc.real) / 2
        comm_proj = p0.real @ renorm - renorm @ p0.real
        comm_sub = sub.h0 @ sub.h1 - sub.h1 @ sub.h0
        assert np.allclose(comm_proj, comm_sub, atol=1e-12)


class TestSecondExcitation:
    def test_printed_ten_by_ten(self):
        sub = second_excitation_chain(make_chain(5, [1, 2, 3, 4], 0.0, controls=(1,)))
        assert np.array_equal(sub.h0, INHOMOGENEOUS_10x10)
        assert sub.basis_labels[:4] == ((1, 2), (1, 3), (1, 4), (1, 5))

    def test_three_chain_pairs(self):
        sub = second_excitation_chain(make_chain(3, "uniform", 0.0, controls=(1,)))
        assert sub.basis_labels == ((1, 2), (1, 3), (2, 3))
        assert np.array_equal(sub.h0, np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]]))

    @pytest.mark.parametrize("length", [3, 4, 6])
    def test_xx_zero_diagonal(self, length):
        sub = second_excitation_chain(make_chain(length, "uniform", 0.0, controls=(1,)))
        assert np.abs(np.diag(sub.h0)).max() == 0.0

    def test_full_space_oracle_with_zz(self):
        spec = make_chain(5, [1, 2, 3, 4], 0.7, controls=(1,))
        sub = second_excitation_chain(spec)
        drift, control = full_space_hamiltonians(spec)
        states = sector_states(5, 2)
        p0 = project_to_sector(drift, states).real
        # projection equals h0 plus the documented diagonal shift
        shift = p0[0, 0] - sub.h0[0, 0]
        diffs = p0 - sub.h0
        assert np.allclose(diffs, shift * np.eye(10), atol=1e-13)
        pc = project_to_sector(control, states).real
        assert np.allclose(pc, np.eye(10) - 2 * sub.h1, atol=1e-13)

    def test_rejects_non_chain(self):
        spec = make_star(StarDescriptor((3, 3)), 0.0)
        star_general = NetworkSpec(spec.node_count, spec.edges, 0.0, (1,))
        with pytest.raises(InvalidNetworkError, match="not a chain"):
            second_excitation_chain(star_general)

    @pytest.mark.parametrize("build,couplings,kappa", [
        (single_excitation, "uniform", 1e308),
        (single_excitation, [1e308, 1e308, 1.0], 0.0),  # 0 * inf in mu_0
        (single_excitation, [1e200, 1.0, 1.0], 1e200),
        (second_excitation_chain, "uniform", 1e308),
        (second_excitation_chain, [1e200, 1.0, 1.0], 1e200),
    ])
    def test_overflowing_drift_raises(self, build, couplings, kappa):
        spec = make_chain(4, couplings, kappa, controls=(1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="couplings and kappa overflow"):
                build(spec)

    def test_rejects_tiny_chain(self):
        with pytest.raises(InvalidNetworkError, match="N >= 3"):
            second_excitation_chain(make_chain(2, "uniform", 0.0, controls=(1,)))


class TestControlMatrix:
    def test_single_site(self):
        spec = make_chain(7, "uniform", 0.0, controls=(2,))
        labels = tuple((i,) for i in range(1, 8))
        assert np.array_equal(control_matrix(spec, labels),
                              np.diag([0.0, 1, 0, 0, 0, 0, 0]))

    def test_pairs_first_site(self):
        spec = make_chain(5, "uniform", 0.0, controls=(1,))
        sub = second_excitation_chain(spec)
        want = np.diag([1.0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        assert np.array_equal(sub.h1, want)

    def test_all_controls_identity(self):
        spec = make_chain(4, "uniform", 0.0, controls=(1, 2, 3, 4))
        labels = tuple((i,) for i in range(1, 5))
        assert np.array_equal(control_matrix(spec, labels), np.eye(4))


class TestSpectralProperties:
    @pytest.mark.parametrize("length", range(2, 13))
    def test_simple_spectrum_uniform(self, length):
        sub = single_excitation(make_chain(length, "uniform", 0.0, controls=(1,)))
        w = np.linalg.eigvalsh(sub.h0)
        assert np.diff(w).min() > 1e-6

    def test_simple_spectrum_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            couplings = rng.uniform(0.2, 2.0, n - 1)
            kappa = float(rng.uniform(-2, 2))
            sub = single_excitation(make_chain(n, couplings, kappa, controls=(1,)))
            w = np.linalg.eigvalsh(sub.h0)
            assert np.diff(w).min() > 1e-9

    @pytest.mark.parametrize("kappa", [1.0, 0.37, np.sqrt(2) / 2])
    @pytest.mark.parametrize("length", [2, 5, 8, 12])
    def test_kappa_sign_duality(self, length, kappa):
        plus = single_excitation(make_chain(length, "uniform", kappa, controls=(1,)))
        minus = single_excitation(make_chain(length, "uniform", -kappa, controls=(1,)))
        wp = np.linalg.eigvalsh(plus.h0)
        wm = np.linalg.eigvalsh(minus.h0)
        assert np.allclose(np.sort(wp), np.sort(-wm), atol=1e-12)
        vp = np.linalg.eigh(plus.h0)[1]
        vm = np.linalg.eigh(minus.h0)[1]
        for k in range(length):
            amp_p = np.sort(np.abs(vp[k]))
            amp_m = np.sort(np.abs(vm[k]))
            assert np.allclose(amp_p, amp_m, atol=1e-10)

    def test_matrix_exports(self):
        sub = single_excitation(make_chain(3, "uniform", 0.0, controls=(1,)))
        text = matrices_as_text(sub)
        assert "1.0" in text and text.count("\n\n") == 1
        import json
        doc = json.loads(matrices_as_json(sub))
        assert doc["h0"][0][1] == 1.0
