import math

import numpy as np
import pytest

from conftest import (closed_form_eigensystem, scan_symmetric_kappas,
                      star_end_control_predicate)
from spinctrl import analytic
from spinctrl.analytic import (bethe_symmetric_kappas, heisenberg_controllable,
                               star_controllable_conjecture, xx_controllable,
                               xx_symmetry_predicate)
from spinctrl.hamiltonian import single_excitation
from spinctrl.lie import lie_closure, verdict
from spinctrl.network import make_chain
from spinctrl.report import analyze
from spinctrl.symmetry import dark_states


class TestBetheEnumeration:
    def test_five_two(self):
        enum = bethe_symmetric_kappas(5, 2)
        assert len(enum.solutions) == 1
        sol = enum.solutions[0]
        assert abs(sol.theta - math.pi / 2) < 1e-12
        assert abs(sol.kappa) < 1e-12
        assert sol.verified

    def test_nine_two(self):
        kappas = sorted(bethe_symmetric_kappas(9, 2).kappas())
        want = sorted([math.sqrt(3), 1.0, 0.0, -1.0, -math.sqrt(3)])
        assert np.allclose(kappas, want, atol=1e-12)

    def test_six_three_empty(self):
        enum = bethe_symmetric_kappas(6, 3)
        assert enum.solutions == [] and not enum.all_kappa

    def test_eight_two(self):
        kappas = sorted(bethe_symmetric_kappas(8, 2).kappas())
        want = sorted([2 * math.cos(j * math.pi / 5) for j in range(1, 5)])
        assert np.allclose(kappas, want, atol=1e-12)
        assert all(s.verified for s in bethe_symmetric_kappas(8, 2).solutions)

    def test_seven_two_includes_surds(self):
        # the reference table prints only kappa = 0 for this row; the
        # enumeration also finds +-sqrt(2), and the oracle confirms both
        kappas = sorted(bethe_symmetric_kappas(7, 2).kappas())
        assert np.allclose(kappas, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)
        assert all(s.verified for s in bethe_symmetric_kappas(7, 2).solutions)

    def test_center_control_sentinel(self):
        enum = bethe_symmetric_kappas(5, 3)
        assert enum.all_kappa and enum.solutions == []
        # any kappa indeed has a dark state for the center-controlled odd chain
        for kappa in (0.0, 0.37, -1.2):
            sub = single_excitation(make_chain(5, "uniform", kappa, controls=(3,)))
            assert dark_states(sub.h0, (3,)).count >= 1

    def test_pole_rows_are_empty(self):
        assert bethe_symmetric_kappas(7, 3).solutions == []
        assert bethe_symmetric_kappas(10, 4).solutions == []

    def test_dedup(self):
        kappas = bethe_symmetric_kappas(10, 3).kappas()
        assert np.allclose(sorted(kappas), [-1.0, 1.0], atol=1e-12)
        assert len(kappas) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bethe_symmetric_kappas(8, 5)
        with pytest.raises(ValueError):
            bethe_symmetric_kappas(1, 1)

    def test_soundness_desk_scale(self):
        for n in range(2, 11):
            for k in range(1, (n + 1) // 2 + 1):
                enum = bethe_symmetric_kappas(n, k)
                for sol in enum.solutions:
                    assert sol.verified, (n, k, sol.kappa)
                    assert sol.residual < 1e-8
                    assert 0 < sol.theta < math.pi
                    assert abs(sol.phi - (2 * k - 1) * sol.theta) < 1e-12

    def test_completeness_against_grid_scan(self):
        # independent oracle: scan kappa in [-3, 3] for eigenvector zeros
        for n, k in [(5, 2), (7, 2), (8, 2), (9, 3), (10, 3)]:
            enum = bethe_symmetric_kappas(n, k)
            found = scan_symmetric_kappas(n, k)
            for kap in found:
                assert any(abs(kap - s.kappa) < 1e-6 for s in enum.solutions), \
                    (n, k, kap)

    def test_countability_random_kappas(self, rng):
        # generic anisotropies admit no symmetry unless the chain is odd
        # with its center controlled
        for _ in range(20):
            kappa = float(rng.uniform(-3, 3)) + math.pi * 1e-3  # keep it generic
            for n in range(2, 11):
                for k in range(1, n + 1):
                    if n == 2 * k - 1:
                        continue
                    sub = single_excitation(make_chain(n, "uniform", kappa,
                                                       controls=(k,)))
                    assert dark_states(sub.h0, (k,)).count == 0, (n, k, kappa)

    def test_analyze_reports_the_oracle_kappas(self):
        # analyze enumerates in closed form; bethe_symmetric_kappas also runs
        # the oracle: both give the same kappas, in the same order
        for n in range(2, 21):
            for k in range(1, n + 1):
                k_fold = min(k, n + 1 - k)
                enum = bethe_symmetric_kappas(n, k_fold)
                for kappa in (0.0, 1.0, -1.0, 0.5):
                    rep = analyze(make_chain(n, "uniform", kappa, controls=(k,)))
                    assert rep.analytic["symmetric_kappas"] == enum.kappas(), (n, k, kappa)
                    assert rep.analytic["every_kappa_symmetric"] == enum.all_kappa

    def test_analyze_runs_no_oracle(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("control_site_residual called")

        want = bethe_symmetric_kappas(16, 3).kappas()
        monkeypatch.setattr(analytic, "control_site_residual", no_oracle)
        rep = analyze(make_chain(16, "uniform", 0.0, controls=(3,)))
        assert rep.closure["dimension"] == 256
        assert rep.analytic["symmetric_kappas"] == want


class TestGcdPredicates:
    def test_xx_examples(self):
        assert xx_symmetry_predicate(7, 2)
        assert not xx_symmetry_predicate(11, 5)
        assert xx_symmetry_predicate(14, 5)
        assert xx_controllable(5, 1)
        assert not xx_controllable(7, 2)
        assert xx_controllable(2, 1)

    def test_heisenberg_examples(self):
        assert not heisenberg_controllable(9, 2)
        assert not heisenberg_controllable(6, 2)
        assert heisenberg_controllable(10, 2)

    def test_mirror_symmetry(self):
        for n in range(2, 13):
            for k in range(1, n + 1):
                assert xx_controllable(n, k) == xx_controllable(n, n + 1 - k)
                assert heisenberg_controllable(n, k) == \
                    heisenberg_controllable(n, n + 1 - k)

    def test_agreement_with_closure_sample(self):
        for n, k, kappa in [(6, 2, 0.0), (7, 2, 0.0), (9, 2, 1.0), (10, 2, 1.0),
                            (8, 3, -1.0), (5, 2, -1.0)]:
            sub = single_excitation(make_chain(n, "uniform", kappa, controls=(k,)))
            vd = verdict(lie_closure([sub.h0, sub.h1]), n)
            pred = xx_controllable(n, k) if kappa == 0 else \
                heisenberg_controllable(n, k)
            assert vd.controllable == pred


class TestClosedFormEigensystems:
    def test_three_chain_xx(self):
        evals, vecs = closed_form_eigensystem(3, 0.0)
        assert np.allclose(sorted(evals), [-math.sqrt(2), 0.0, math.sqrt(2)])
        mid = vecs[:, np.argmin(np.abs(evals))]
        assert np.allclose(np.abs(mid), [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
                           atol=1e-12)

    def test_two_chain_xx(self):
        evals, vecs = closed_form_eigensystem(2, 0.0)
        assert np.allclose(sorted(evals), [-1.0, 1.0])
        assert np.allclose(np.abs(vecs), 1 / math.sqrt(2), atol=1e-12)

    def test_five_chain_middle_mode(self):
        evals, vecs = closed_form_eigensystem(5, 0.0)
        j3 = np.argmin(np.abs(evals))  # theta = pi/2 mode
        v = vecs[:, j3]
        v = v / v[0]
        assert np.allclose(v, [1.0, 0.0, -1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("length", range(2, 13))
    def test_diagonalizes_drift(self, length, kappa):
        sub = single_excitation(make_chain(length, "uniform", kappa, controls=(1,)))
        evals, vecs = closed_form_eigensystem(length, kappa)
        assert np.abs(vecs.T @ vecs - np.eye(length)).max() < 1e-10
        assert np.abs(sub.h0 @ vecs - vecs * evals).max() < 1e-10
        assert np.allclose(np.sort(evals), np.linalg.eigvalsh(sub.h0), atol=1e-10)

    def test_rejects_other_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            closed_form_eigensystem(5, 0.5)


class TestStarPredicates:
    def test_conjecture_examples(self):
        assert star_controllable_conjecture((5, 4, 3))
        assert not star_controllable_conjecture((6, 4, 3))
        assert star_controllable_conjecture((7, 5, 3, 2))

    def test_end_control_examples(self):
        assert star_end_control_predicate((5, 4, 3), 1)
        assert not star_end_control_predicate((5, 4, 2), 1)
        assert not star_end_control_predicate((3, 5, 5), 1)  # equal other branches

    def test_validation(self):
        with pytest.raises(ValueError):
            star_controllable_conjecture((5,))
        with pytest.raises(ValueError):
            star_end_control_predicate((5, 4, 3, 2), 1)
        with pytest.raises(ValueError):
            star_end_control_predicate((5, 4, 3), 4)


class TestStarEndControlClosureOracle:
    def test_coprime_other_branches_controllable(self):
        from spinctrl.hamiltonian import single_excitation as _se
        from spinctrl.network import StarDescriptor, make_star
        spec = make_star(StarDescriptor((5, 4, 3), control_site=(1, 5)), 0.0)
        sub = _se(spec)
        vd = verdict(lie_closure([sub.h0, sub.h1], mode="exact"), sub.dimension)
        assert star_end_control_predicate((5, 4, 3), 1)
        assert vd.controllable

    def test_non_coprime_other_branches_not_controllable(self):
        from spinctrl.hamiltonian import single_excitation as _se
        from spinctrl.network import StarDescriptor, make_star
        spec = make_star(StarDescriptor((5, 4, 2), control_site=(1, 5)), 0.0)
        sub = _se(spec)
        vd = verdict(lie_closure([sub.h0, sub.h1], mode="exact"), sub.dimension)
        assert not star_end_control_predicate((5, 4, 2), 1)
        assert not vd.controllable


class TestCentroSymmetricChains:
    def test_dark_state_count_bound(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 6))
            n = 2 * k - 1
            half = rng.uniform(0.2, 2.0, (n - 1) // 2)
            couplings = np.concatenate([half, half[::-1]])
            kappa = float(rng.uniform(-1, 1))
            sub = single_excitation(make_chain(n, couplings, kappa, controls=(k,)))
            assert dark_states(sub.h0, (k,)).count >= k - 1
