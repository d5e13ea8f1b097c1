import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sequential_float_closure
from spinctrl import _exact
from spinctrl.hamiltonian import second_excitation_chain, single_excitation
from spinctrl.lie import lie_closure, verdict
from spinctrl.network import StarDescriptor, make_chain, make_star
from spinctrl.reference import INHOMOGENEOUS_10x10


def chain_pair(length, couplings, kappa, controls):
    sub = single_excitation(make_chain(length, couplings, kappa, controls))
    return sub.h0, sub.h1


class TestClosureFixtures:
    def test_seven_chain(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        res = lie_closure([h0, h1])
        assert res.dimension == 36
        assert not res.saturated

    def test_two_chain_saturates(self):
        h0, h1 = chain_pair(2, "uniform", 0.0, (1,))
        res = lie_closure([h0, h1])
        assert res.dimension == 4
        assert res.saturated

    def test_printed_matrix_closure(self):
        h1 = np.diag([1.0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        res = lie_closure([INHOMOGENEOUS_10x10.copy(), h1])
        assert res.dimension == 25

    @pytest.mark.parametrize("ell,want", [(1, 81), (2, 81), (3, 100), (4, 25)])
    def test_graded_control_family(self, ell, want):
        sub = second_excitation_chain(make_chain(5, "uniform", 0.0, controls=(1,)))
        h1 = np.diag([1.0] * ell + [0.0] * (10 - ell))
        assert lie_closure([sub.h0, h1]).dimension == want

    @pytest.mark.parametrize("length,k", [(5, 1), (6, 1), (8, 2), (12, 5)])
    def test_saturation_for_coprime_chains(self, length, k):
        h0, h1 = chain_pair(length, "uniform", 0.0, (k,))
        res = lie_closure([h0, h1])
        assert res.dimension == length * length
        assert res.saturated


class TestExactMode:
    def test_agrees_on_fixtures(self):
        for length, k, kappa in [(7, 2, 0.0), (5, 2, 1.0), (6, 2, -1.0), (9, 3, 0.0)]:
            h0, h1 = chain_pair(length, "uniform", kappa, (k,))
            assert lie_closure([h0, h1]).dimension == \
                lie_closure([h0, h1], mode="exact").dimension

    def test_basis_is_integer(self):
        h0, h1 = chain_pair(4, "uniform", 1.0, (2,))
        res = lie_closure([h0, h1], mode="exact")
        for kind, mat in res.exact_elements:
            assert mat.dtype == object
            assert all(isinstance(x, int) for x in mat.flat)

    def test_rejects_irrational_floats(self):
        h0 = np.array([[0.0, np.sqrt(2)], [np.sqrt(2), 0.0]])
        with pytest.raises(ValueError, match="rational"):
            lie_closure([h0, np.diag([1.0, 0.0])], mode="exact")

    def test_half_integers_accepted(self):
        h0, h1 = chain_pair(6, "uniform", 1.0, (2,))
        assert 0.5 in set(np.abs(h0).ravel()) or 0.5 in set(np.abs(np.diag(h0)))
        res = lie_closure([h0, h1], mode="exact")
        assert res.dimension == lie_closure([h0, h1]).dimension

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_float_exact_agree_random_integer(self, data):
        d = data.draw(st.integers(2, 5))
        ints = st.integers(-3, 3)

        def sym(draw):
            m = np.array([[draw(ints) for _ in range(d)] for _ in range(d)], float)
            return m + m.T

        g1 = sym(data.draw)
        g2 = sym(data.draw)
        got_f = lie_closure([g1, g2]).dimension
        got_e = lie_closure([g1, g2], mode="exact").dimension
        assert got_f == got_e


class TestInvariances:
    def test_identity_shift(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        base = lie_closure([h0, h1]).dimension
        shifted = lie_closure([h0 + 3.0 * np.eye(7), h1 - 0.5 * np.eye(7)]).dimension
        assert abs(shifted - base) <= 1

    def test_orthogonal_conjugation(self, rng):
        h0, h1 = chain_pair(6, "uniform", 1.0, (2,))
        base = lie_closure([h0, h1]).dimension
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rot = lie_closure([q.T @ h0 @ q, q.T @ h1 @ q]).dimension
        assert rot == base

    def test_rescaling(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        assert lie_closure([2.5 * h0, -0.3 * h1]).dimension == 36

    def test_monotone_in_generators(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        extra = np.zeros((7, 7))
        extra[0, 3] = extra[3, 0] = 1.0
        base = lie_closure([h0, h1]).dimension
        more = lie_closure([h0, h1, extra]).dimension
        assert more >= base


class TestClosureContract:
    def test_basis_orthonormal_and_skew(self):
        h0, h1 = chain_pair(5, "uniform", 1.0, (2,))
        res = lie_closure([h0, h1])
        gram = res.basis @ res.basis.T
        assert np.allclose(gram, np.eye(res.dimension), atol=1e-10)
        for m in res.basis_matrices():
            assert np.allclose(m, -m.conj().T, atol=1e-12)

    def test_closure_property(self):
        h0, h1 = chain_pair(6, "uniform", 0.0, (2,))
        res = lie_closure([h0, h1])
        mats = res.basis_matrices()
        basis = res.basis
        for i in range(res.dimension):
            for j in range(i + 1, res.dimension):
                c = mats[i] @ mats[j] - mats[j] @ mats[i]
                vec = np.concatenate([c.real.ravel(), c.imag.ravel()])
                resid = vec - basis.T @ (basis @ vec)
                assert np.linalg.norm(resid) <= \
                    res.rank_tolerance * max(np.linalg.norm(vec), 1.0)

    def test_determinism(self):
        h0, h1 = chain_pair(8, "uniform", 1.0, (3,))
        a = lie_closure([h0, h1])
        b = lie_closure([h0, h1])
        assert a.dimension == b.dimension
        assert a.commutators_evaluated == b.commutators_evaluated
        assert np.array_equal(a.basis, b.basis)

    def test_dimension_bounds(self):
        h0, h1 = chain_pair(4, "uniform", 0.0, (1,))
        res = lie_closure([h0, h1])
        assert 2 <= res.dimension <= 16

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            lie_closure([])
        with pytest.raises(ValueError, match="square"):
            lie_closure([np.zeros((2, 3))])
        with pytest.raises(ValueError, match="equal size"):
            lie_closure([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="mode"):
            lie_closure([np.eye(2)], mode="symbolic")
        for tol in (float("nan"), float("inf"), 0.0, -1.0):
            for mode in ("float", "exact"):
                with pytest.raises(ValueError, match="finite and positive"):
                    lie_closure([np.eye(2)], mode=mode, tolerance=tol)


class TestVerdict:
    def test_examples(self):
        h0, h1 = chain_pair(7, "uniform", 0.0, (2,))
        assert not verdict(lie_closure([h0, h1]), 7).controllable
        h0, h1 = chain_pair(2, "uniform", 0.0, (1,))
        vd = verdict(lie_closure([h0, h1]), 2)
        assert vd.controllable and vd.dimension == 4

    def test_boundary_values(self):
        from spinctrl.lie import LieClosureResult
        stub = LieClosureResult(dimension=100, basis=np.zeros((0, 200)),
                                matrix_dimension=10, mode="float",
                                rank_tolerance=1e-6, commutators_evaluated=0,
                                saturated=True)
        assert verdict(stub, 10).controllable
        stub.dimension = 99
        assert verdict(stub, 10).controllable
        stub.dimension = 98
        assert not verdict(stub, 10).controllable


def _gcd_sweep_pairs(max_n=12):
    from spinctrl.acceptance import _gcd_sweep_fixtures
    for N, k, kappa, _ in _gcd_sweep_fixtures():
        if N <= max_n:
            yield (N, k, kappa), chain_pair(N, "uniform", kappa, (k,))


def _branch_table_pairs():
    from spinctrl.reference import HEISENBERG_BRANCH_TABLE, XX_BRANCH_TABLE
    for table, kappa in ((XX_BRANCH_TABLE, 0.0), (HEISENBERG_BRANCH_TABLE, 1.0)):
        for ref in table:
            sub = single_excitation(make_star(StarDescriptor(tuple(ref["lengths"])), kappa))
            yield (tuple(ref["lengths"]), kappa), (sub.h0, sub.h1)


def _closure_summary(result):
    elements, evaluated, saturated = result
    return len(elements), evaluated, saturated


def _integer_loop(mats):
    return _closure_summary(_exact.integer_closure(_exact.integer_seeds(mats)))


def _modular_dimension(mats):
    d = mats[0].shape[0]
    oracle = _exact._ModularOracle(d)
    reduced = [(kind, oracle.reduce(m)) for kind, m in _exact.integer_seeds(mats)]
    return len(_exact._close(reduced, d * d, oracle)[0])


def _dark_bound(mats):
    span, dark = _exact._dark_split(_exact.integer_seeds(mats))
    return len(span) ** 2 + len(dark)


def _half_chain_pairs():
    for k in range(2, 6):
        yield k, chain_pair(2 * k, "uniform", 0.0, tuple(range(1, k + 1)))


class _FellBack(Exception):
    pass


def _no_fallback(seeds):
    raise _FellBack


def _as_vectors(elements):
    out = []
    for kind, mat in elements:
        m = mat.astype(float)
        out.append(np.concatenate([np.zeros(m.size), m.ravel()]) if kind == _exact.IMAG
                   else np.concatenate([m.ravel(), np.zeros(m.size)]))
    return np.array(out)


class TestModularCertificate:
    """exact_closure certifies a rank mod p that reaches d^2 - 1 or the
    dark-subspace bound, and falls back to the big-integer loop for every
    other rank; all must give the big-integer loop's dimension, bracket
    count and saturation flag."""

    def test_agrees_with_integer_loop(self):
        fixtures = list(_gcd_sweep_pairs()) + list(_branch_table_pairs())
        assert len(fixtures) == 231 + 19
        for tag, mats in fixtures:
            assert _closure_summary(_exact.exact_closure(mats)) == _integer_loop(mats), tag

    def test_small_prime_falls_back(self, monkeypatch):
        integer_closure = _exact.integer_closure
        fallbacks = []

        def counted(seeds):
            fallbacks.append(seeds)
            return integer_closure(seeds)

        fixtures = [mats for _, mats in _gcd_sweep_pairs(max_n=7)]
        # a coupling of 3 vanishes mod 3 and cuts the chain in two there
        fixtures += [chain_pair(N, [1.0] * (N - 3) + [3.0, 1.0], 0.0, (1,))
                     for N in range(3, 8)]
        want = [_integer_loop(mats)[0] for mats in fixtures]
        monkeypatch.setattr(_exact, "_PRIME", 3)
        monkeypatch.setattr(_exact, "integer_closure", counted)
        # fall back exactly where dim_3 reaches neither d^2 - 1 nor the bound
        misses = []
        for i, mats in enumerate(fixtures):
            d, dim = mats[0].shape[0], _modular_dimension(mats)
            if dim < d * d - 1 and dim != _dark_bound(mats):
                misses.append(i)
        fell = []
        got = []
        # only the dimension is pinned: a certified run mod 3 may accept its
        # elements in another order, and so count other brackets
        for i, mats in enumerate(fixtures):
            before = len(fallbacks)
            got.append(len(_exact.exact_closure(mats)[0]))
            if len(fallbacks) > before:
                fell.append(i)
        assert got == want
        assert fell == misses
        n = len(fixtures)
        assert set(range(n - 5, n)) <= set(fell)
        assert all(want[i] == fixtures[i][0].shape[0] ** 2 for i in range(n - 5, n))

    def test_deficient_fixtures_need_no_big_integers(self, monkeypatch):
        fixtures = list(_gcd_sweep_pairs()) + list(_branch_table_pairs())
        # dim_p <= dim_Q: a rank mod p of d^2 - 1 or more is never deficient
        deficient = [(tag, mats, _integer_loop(mats)) for tag, mats in fixtures
                     if _modular_dimension(mats) < mats[0].shape[0] ** 2 - 1]
        assert all(want[0] < mats[0].shape[0] ** 2 - 1 for _, mats, want in deficient)
        assert len(deficient) == 58
        monkeypatch.setattr(_exact, "integer_closure", _no_fallback)
        for tag, mats, want in deficient:
            assert _closure_summary(_exact.exact_closure(mats)) == want, tag
        # the bound misses the internal symmetry of the half-chain family
        for k, mats in _half_chain_pairs():
            assert _dark_bound(mats) > k * (2 * k + 1) + 1
            with pytest.raises(_FellBack):
                _exact.exact_closure(mats)

    @pytest.mark.parametrize("length,k,kappa", [(7, 2, 0.0), (6, 2, 1.0), (7, 4, -1.0),
                                                (9, 5, 0.0)])
    def test_certified_elements_span_the_closure(self, monkeypatch, length, k, kappa):
        h0, h1 = chain_pair(length, "uniform", kappa, (k,))
        want = _integer_loop([h0, h1])[0]
        monkeypatch.setattr(_exact, "integer_closure", _no_fallback)
        res = lie_closure([h0, h1], mode="exact")
        assert res.dimension == want < length ** 2 - 1
        elements = res.exact_elements
        for kind, mat in elements:
            assert (mat == (mat.T if kind == _exact.IMAG else -mat.T)).all()
        seeds = _exact.integer_seeds([h0, h1])
        brackets = [(_exact.REAL if kg == ke else _exact.IMAG, g.dot(e) - e.dot(g))
                    for kg, g in seeds for ke, e in elements]
        assert np.linalg.matrix_rank(_as_vectors(elements)) == want
        assert np.linalg.matrix_rank(_as_vectors(elements + seeds + brackets)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_certificate_matches_integer_loop_random(self, data):
        d = data.draw(st.integers(2, 5))
        entries = st.sampled_from([0, 0, 0, 1, -1, 2])

        def sym():
            m = np.array([[data.draw(entries) for _ in range(d)] for _ in range(d)], float)
            return m + m.T

        mats = [sym() for _ in range(data.draw(st.integers(1, 3)))]
        want = _integer_loop(mats)
        assert _closure_summary(_exact.exact_closure(mats)) == want
        assert _dark_bound(mats) >= want[0]

    def test_trace_divisible_by_prime(self, monkeypatch):
        # h0 has trace p, zero mod p, and h1 is traceless: only the exact
        # trace test sees u(d)
        h0, _ = chain_pair(4, "uniform", 0.0, (1,))
        h0 = h0.copy()
        h0[0, 0] = float(_exact._PRIME)
        h1 = np.diag([1.0, -1.0, 0.0, 0.0])
        assert _modular_dimension([h0, h1]) == 15
        assert _integer_loop([h0, h1])[0] == 16

        def no_fallback(seeds):
            raise AssertionError("the certificate should decide this closure")

        monkeypatch.setattr(_exact, "integer_closure", no_fallback)
        res = lie_closure([h0, h1], mode="exact")
        assert res.dimension == 16 and res.saturated
        assert verdict(res).note == "dim = d^2 = 16, u(4)"

    @pytest.mark.parametrize("h1,want", [(np.diag([1.0, 0, 0, 0, 0]), 25),
                                         (np.diag([1.0, -1, 0, 0, 0]), 24)])
    def test_certified_basis_spans_unitary_algebra(self, h1, want):
        h0, _ = chain_pair(5, "uniform", 0.0, (1,))
        res = lie_closure([h0, h1], mode="exact")
        assert res.dimension == want and res.saturated == (want == 25)
        assert np.linalg.matrix_rank(res.basis) == want
        traced = 0
        for kind, mat in res.exact_elements:
            traced += sum(mat[i, i] for i in range(5)) != 0
            assert (mat == (mat.T if kind == _exact.IMAG else -mat.T)).all()
        assert traced == want - 24

    def test_codimension_two_is_not_certified(self):
        # commuting diagonal generators span u(1) + u(1), of dimension d^2 - 2
        res = lie_closure([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], mode="exact")
        assert res.dimension == 2

    def test_big_integer_path_for_d1_and_beyond_guard(self, monkeypatch):
        def no_modular(d):
            raise AssertionError("the modular pass must not run")

        monkeypatch.setattr(_exact, "_ModularOracle", no_modular)
        assert lie_closure([np.array([[2.0]])], mode="exact").dimension == 1
        assert lie_closure([np.array([[0.0]])], mode="exact").dimension == 0
        # d = 3 needs max(3, 6) * (p - 1)**2 below the limit
        monkeypatch.setattr(_exact, "_INT64_LIMIT", 6 * (_exact._PRIME - 1) ** 2)
        h0, h1 = chain_pair(3, "uniform", 0.0, (1,))
        assert lie_closure([h0, h1], mode="exact").dimension == 9


def _float_oracle_fixtures():
    from spinctrl.acceptance import _random_chains
    for tag, mats in _gcd_sweep_pairs(max_n=10):
        yield tag, mats
    for N, couplings, kappa, k in _random_chains(0):
        yield ("random", N, k, kappa), chain_pair(N, couplings, kappa, (k,))
    yield from _branch_table_pairs()
    for N in range(2, 9):
        for k in range(1, N + 1):
            for kappa in (np.sqrt(3), -np.sqrt(3)):
                yield (N, k, kappa), chain_pair(N, "uniform", kappa, (k,))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_float_closure_matches_sequential_oracle(tol):
    """Screening brackets in batches changes no decision: the basis is equal
    bit for bit, and so is the bracket count."""
    count = 0
    for tag, (h0, h1) in _float_oracle_fixtures():
        got = lie_closure([h0, h1], tolerance=tol)
        want = sequential_float_closure([h0, h1], h0.shape[0], tol)
        assert np.array_equal(got.basis, want.basis), tag
        assert got.commutators_evaluated == want.commutators_evaluated, tag
        count += 1
    assert count == 162 + 25 + 19 + 70
