"""Acceptance suite: one callable per criterion, plus a deterministic runner.

Every criterion recomputes its fixtures from scratch at the stated
tolerances and reports pass/fail with detail lines; only criterion 13 reuses
work, the gcd-sweep float closures of the same pass's criterion 4.
Randomized fixtures are drawn from a seeded generator so two runs with the
same seed are bit-identical. Criterion 8 states the collective end-control
result with its one exception: the half-chain cases N = 2k at kappa = 0,
whose closure is sp(k) + u(1) of dimension k(2k+1) + 1 (below N^2 once
k >= 2). Each is certified by an exact closure and, for k >= 2, by an
integer anticommuting witness; the detail lines carry both certificates.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import reference
from .analytic import half_chain_witness, heisenberg_controllable, xx_controllable
from .hamiltonian import second_excitation_chain, single_excitation
from .lie import lie_closure, verdict
from .network import make_chain
from .report import DARK_TOL, SYMMETRY_TOL, fig2_pair, reproduce_table
from .symmetry import (certify_internal_symmetry, commutant, dark_states, decompose,
                       internal_symmetry)


DEFAULT_TOL = 1e-6


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    lines: list[str] = field(default_factory=list)


def _chain_pair(N, couplings, kappa, controls):
    sub = single_excitation(make_chain(N, couplings, kappa, controls))
    return sub.h0, sub.h1


def criterion_01(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Uniform XX 7-chain, control 2: dim 36, reference commuting matrix,
    commutant 2, blocks {1, 6}."""
    h0, h1 = _chain_pair(7, "uniform", 0.0, (2,))
    res = lie_closure([h0, h1], tolerance=tolerance)
    lines = [f"closure dimension: {res.dimension} (want 36)"]
    ok = res.dimension == 36
    m = reference.COMMUTING_MATRIX_7
    r0 = np.abs(h0 @ m - m @ h0).max()
    r1 = np.abs(h1 @ m - m @ h1).max()
    lines.append(f"commuting-matrix residuals: {r0:.3e}, {r1:.3e} (want < 1e-10)")
    ok &= r0 < 1e-10 and r1 < 1e-10
    comm = commutant(h0, h1, SYMMETRY_TOL)
    lines.append(f"commutant dimension: {comm.dimension} (want 2)")
    ok &= comm.dimension == 2
    proj = sum(np.real(np.sum(b.conj() * m)) * b for b in comm.basis)
    span_residual = np.abs(m - proj).max()
    lines.append(f"reference matrix span residual: {span_residual:.3e} (want < 1e-10)")
    ok &= span_residual < 1e-10
    blocks = decompose(h0, h1, comm, SYMMETRY_TOL, seed=0)
    lines.append(f"block sizes: {blocks.block_sizes} (want (1, 6))")
    ok &= blocks.block_sizes == (1, 6)
    return CriterionResult(1, "uniform XX 7-chain, control at node 2", ok, lines)


def criterion_02(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Multi-node control family on the 10-state n=2 sector: dims
    (81, 81, 100, 25); trivial commutant for the four-state control."""
    want = (81, 81, 100, 25)
    ok = True
    lines = []
    for ell, w in zip((1, 2, 3, 4), want):
        h0, h1 = fig2_pair(ell)
        dim = lie_closure([h0, h1], tolerance=tolerance).dimension
        lines.append(f"ell={ell}: dim {dim} (want {w})")
        ok &= dim == w
    h0, h1 = fig2_pair(4)
    comm = commutant(h0, h1, SYMMETRY_TOL)
    lines.append(f"ell=4 commutant dimension: {comm.dimension} (want 1)")
    ok &= comm.dimension == 1
    return CriterionResult(2, "graded controls on the 10-node network", ok, lines)


def criterion_03(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Printed inhomogeneous 10x10 equals the n=2 builder; closure 25."""
    spec = make_chain(5, [1, 2, 3, 4], 0.0, controls=(1,))
    sub = second_excitation_chain(spec)
    same = np.array_equal(sub.h0, reference.INHOMOGENEOUS_10x10)
    lines = [f"matrix equals printed reference entrywise: {same}"]
    dim = lie_closure([sub.h0, sub.h1], tolerance=tolerance).dimension
    lines.append(f"closure dimension: {dim} (want 25)")
    ok = same and dim == 25
    return CriterionResult(3, "inhomogeneous 1:2:3:4 chain, n=2 sector", ok, lines)


def _gcd_sweep_fixtures():
    for N in range(2, 13):
        for k in range(1, N + 1):
            for kappa, pred in ((0.0, xx_controllable(N, k)),
                                (1.0, heisenberg_controllable(N, k)),
                                (-1.0, heisenberg_controllable(N, k))):
                yield N, k, kappa, pred


@functools.lru_cache(maxsize=1)
def _gcd_sweep_verdicts(tolerance: float) -> tuple:
    """Float-closure verdicts of the gcd sweep, in fixture order.

    Criteria 4 and 13 share them within one pass; _timed_criteria clears
    the cache first, so every pass computes its own.
    """
    return tuple(
        verdict(lie_closure(list(_chain_pair(N, "uniform", kappa, (k,))),
                            tolerance=tolerance), N)
        for N, k, kappa, _ in _gcd_sweep_fixtures())


def criterion_04(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """gcd iff theorems over all uniform chains, 2 <= N <= 12, 1 <= k <= N."""
    bad = []
    count = 0
    for (N, k, kappa, pred), vd in zip(_gcd_sweep_fixtures(),
                                       _gcd_sweep_verdicts(tolerance)):
        count += 1
        if vd.controllable != pred:
            bad.append((N, k, kappa, vd.dimension))
    lines = [f"{count} closures checked; mismatches: {bad if bad else 'none'}"]
    return CriterionResult(4, "gcd controllability criteria (iff), N <= 12",
                           not bad, lines)


# Rows whose printed kappa set contradicts the closed-form relation applied
# to their own printed angles; they must be flagged, never silently matched.
_SYM_FORMULA_DEFECTS = {(8, 2), (10, 2)}


def criterion_05() -> CriterionResult:
    """Symmetric-kappa table regeneration with the eigenvector-zero oracle."""
    rep = reproduce_table("sym")
    ok = True
    lines = []
    for row in rep.rows:
        key = (row["N"], row["k"])
        unverified = [c for c in row["computed"] if not c["verified"]]
        if unverified:
            ok = False
            lines.append(f"row {key}: {len(unverified)} candidates failed the oracle")
        if key in _SYM_FORMULA_DEFECTS:
            if row["match"]:
                ok = False
                lines.append(f"row {key}: known formula defect was not flagged")
            else:
                lines.append(f"row {key}: flagged (printed kappas vs formula "
                             f"{[round(v, 6) for v in row['kappas_from_reference_thetas']]})")
        elif not row["match"]:
            ok = False
            lines.append(f"row {key}: unexpected mismatch")
        if row["extra_kappas"]:
            lines.append(f"row {key}: enumeration also finds "
                         f"{[round(v, 6) for v in row['extra_kappas']]} "
                         "(verified, absent from the reference row)")
    if ok:
        lines.insert(0, f"{len(rep.rows)} rows checked; defective rows flagged: "
                        f"{sorted(_SYM_FORMULA_DEFECTS)}")
    return CriterionResult(5, "symmetric-kappa table regeneration", ok, lines)


# Reference rows whose printed values are contradicted by certified
# (exact-rational) recomputation; the harness must report them with the
# alternative-control scan mandated for mismatching rows.
_BRANCH_REFERENCE_DEFECTS = {
    ("heisen-branch", (3, 4, 5)): {"dim": 100, "symmetry": False, "controllable": True},
    ("heisen-branch", (2, 4, 8)): {"dim": 122, "symmetry": True, "controllable": False},
}


def criterion_06() -> CriterionResult:
    """Branch tables under center control; certified values vs reference."""
    ok = True
    lines = []
    for table_id in ("xx-branch", "heisen-branch"):
        rep = reproduce_table(table_id)
        for row in rep.rows:
            key = (table_id, tuple(row["lengths"]))
            if not row["float_exact_agree"]:
                lines.append(f"{key}: float ({row['float_dim']}) and exact "
                             f"({row['dim']}) closures disagree")
            if key in _BRANCH_REFERENCE_DEFECTS:
                expect = _BRANCH_REFERENCE_DEFECTS[key]
                if row["match"]:
                    ok = False
                    lines.append(f"{key}: expected reference defect not detected")
                elif (row["dim"], row["symmetry"], row["controllable"]) != \
                        (expect["dim"], expect["symmetry"], expect["controllable"]):
                    ok = False
                    lines.append(f"{key}: computed {row['dim']} differs from the "
                                 f"certified value {expect['dim']}")
                else:
                    lines.append(
                        f"{key}: reference row is defective; certified values "
                        f"dim={row['dim']} symmetry={row['symmetry']} "
                        f"controllable={row['controllable']} vs printed "
                        f"dim={row['reference_dim']} symmetry={row['reference_symmetry']}; "
                        f"alternative control positions matching the printed row: "
                        f"{row['alternative_controls'] or 'none'}")
            elif not row["match"]:
                ok = False
                lines.append(f"{key}: mismatch, computed dim={row['dim']} "
                             f"reference dim={row['reference_dim']}, alternatives "
                             f"{row['alternative_controls']}")
    matched = ok
    return CriterionResult(
        6, "branch tables under center control (mismatches reported with "
           "alternative-control scan)", matched, lines)


def criterion_07(seed: int, tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """End control is always subspace controllable: 50 random chains."""
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(50):
        N = int(rng.integers(3, 11))
        couplings = rng.uniform(0.2, 2.0, N - 1)
        kappa = float(rng.uniform(-2.0, 2.0))
        h0, h1 = _chain_pair(N, couplings, kappa, (1,))
        vd = verdict(lie_closure([h0, h1], tolerance=tolerance), N)
        if not vd.controllable:
            bad.append((N, round(kappa, 4), vd.dimension))
    lines = [f"50 random chains (N in 3..10): failures {bad if bad else 'none'}"]
    return CriterionResult(7, "end control on random chains", not bad, lines)


def criterion_08(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Collective control of the first k < N spins, kappa in {0, 1}:
    controllable except on the half-chain XX family N = 2k, kappa = 0.

    In that family the traceless control is +1/2 on the controlled half and
    -1/2 on the rest, the pair admits an invertible antisymmetric
    anticommuting S, and the closure is sp(k) + u(1) of dimension
    k(2k+1) + 1: N^2 at k = 1 (controllable), below N^2 for k >= 2. Each
    member must have that exact closure dimension, a float dimension that
    agrees with it, and for k >= 2 the closed-form integer witness S
    (analytic.half_chain_witness) verified in exact arithmetic. Every other
    fixture must be controllable by the float verdict.
    """
    bad = []
    family = []
    count = 0
    for N in range(2, 11):
        for k in range(1, N):
            for kappa in (0.0, 1.0):
                count += 1
                h0, h1 = _chain_pair(N, "uniform", kappa, tuple(range(1, k + 1)))
                vd = verdict(lie_closure([h0, h1], tolerance=tolerance), N)
                if N == 2 * k and kappa == 0.0:
                    family.append((k, h0, h1, vd))
                elif not vd.controllable:
                    bad.append((N, k, kappa, vd.dimension))
    lines = [f"{count} collective-control chains checked"]
    ok = not bad
    for N, k, kappa, dim in bad:
        lines.append(f"NOT controllable: N={N}, controls 1..{k}, kappa={kappa}: "
                     f"float closure dimension {dim} < {N * N}")
    for k, h0, h1, vd in family:
        N = 2 * k
        exact = verdict(lie_closure([h0, h1], mode="exact"), N)
        dim = exact.dimension
        want = k * (2 * k + 1) + 1
        controllable = exact.controllable
        line = (f"half-chain N={N}, controls 1..{k}, kappa=0.0: exact closure "
                f"dimension {dim} {'==' if dim == want else '!='} "
                f"k(2k+1)+1 = {want}, float {vd.dimension}, "
                f"{'controllable' if controllable else 'not controllable'}")
        ok &= dim == want and vd.dimension == dim
        if k >= 2:
            cert = certify_internal_symmetry(half_chain_witness(k), h0, h1)
            line += (f"; integer witness S: antisymmetric {cert.antisymmetric}, "
                     f"invertible {cert.invertible}, anticommutes with both "
                     f"traceless generators {cert.anticommutes}")
            ok &= cert.holds
        lines.append(line)
    return CriterionResult(
        8, "collective end control controllable for all k < N except the "
           "half-chain XX family N = 2k, kappa = 0 (certified sp(k) + u(1))",
        ok, lines)


def criterion_09(seed: int, tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Odd XX chains controlled at an even site keep a dark state under
    random couplings and are never controllable."""
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(50):
        N = int(rng.choice([5, 7, 9]))
        couplings = rng.uniform(0.2, 2.0, N - 1)
        k = int(rng.choice(range(2, N, 2)))
        h0, h1 = _chain_pair(N, couplings, 0.0, (k,))
        dark = dark_states(h0, (k,), DARK_TOL)
        vd = verdict(lie_closure([h0, h1], tolerance=tolerance), N)
        if dark.count < 1 or vd.controllable:
            bad.append((N, k, dark.count, vd.dimension))
    lines = [f"50 random odd XX chains, even control site: failures "
             f"{bad if bad else 'none'}"]
    return CriterionResult(9, "odd-chain even-site robust symmetry", not bad, lines)


def criterion_10(seed: int) -> CriterionResult:
    """Mirror-symmetric chains of length 2k-1 controlled at the center have
    at least k-1 dark states."""
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(20):
        k = int(rng.integers(2, 7))
        N = 2 * k - 1
        half = rng.uniform(0.2, 2.0, (N - 1) // 2)
        couplings = np.concatenate([half, half[::-1]])
        kappa = float(rng.uniform(-1.0, 1.0))
        h0, _ = _chain_pair(N, couplings, kappa, (k,))
        dark = dark_states(h0, (k,), DARK_TOL)
        if dark.count < k - 1:
            bad.append((N, k, dark.count))
    lines = [f"20 mirror-symmetric chains: failures {bad if bad else 'none'}"]
    return CriterionResult(10, "mirror-symmetric center-control dark states",
                           not bad, lines)


def _random_chains(seed: int, count: int = 25):
    """Connected chains (N, couplings, kappa, k) with random couplings,
    anisotropy and control site: criterion 11 takes the first 25, criterion
    12 the first 30."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        N = int(rng.integers(3, 11))
        couplings = rng.uniform(0.2, 2.0, N - 1)
        kappa = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(1, N + 1))
        yield N, couplings, kappa, k


def criterion_11(seed: int) -> CriterionResult:
    """No internal symmetries for single-node controls on connected chains
    with N >= 3; the disconnected two-node fixture has an invertible one.

    N = 2 is excluded: a single controlled node is then half of all nodes,
    the documented exceptional case (the traceless control is diag(1/2,-1/2)
    whose diagonal sums vanish), and indeed carries a symplectic solution.
    """
    bad = []
    count = 0
    for N, k, kappa, _ in _gcd_sweep_fixtures():
        if N < 3:
            continue
        count += 1
        h0, h1 = _chain_pair(N, "uniform", kappa, (k,))
        anti = internal_symmetry(h0, h1, SYMMETRY_TOL)
        if anti.dimension != 0:
            bad.append(("uniform", N, k, kappa, anti.dimension))
    for N, couplings, kappa, k in _random_chains(seed):
        count += 1
        h0, h1 = _chain_pair(N, couplings, kappa, (k,))
        anti = internal_symmetry(h0, h1, SYMMETRY_TOL)
        if anti.dimension != 0:
            bad.append(("random", N, k, round(kappa, 4), anti.dimension))
    lines = [f"{count} connected single-control fixtures (N >= 3): "
             f"nonzero anticommutants {bad if bad else 'none'}"]
    ok = not bad
    # disconnected pair, control on one node: dimension >= 1 with invertible S
    h0 = np.zeros((2, 2))
    h1 = np.diag([1.0, 0.0])
    anti = internal_symmetry(h0, h1, SYMMETRY_TOL)
    lines.append(f"disconnected pair: dimension {anti.dimension} (want >= 1), "
                 f"invertible {anti.has_internal_symmetry}, type {anti.symmetry_type}")
    ok &= anti.dimension >= 1 and anti.has_internal_symmetry
    return CriterionResult(11, "internal symmetries: absent when connected, "
                               "present for the disconnected half-control pair",
                           ok, lines)


def criterion_12(seed: int) -> CriterionResult:
    """Commutant dimension > 1 iff a dark state exists, across the chain
    fixture families (single and collective controls)."""
    bad = []
    count = 0

    def check(h0, h1, controls, tag):
        nonlocal count
        count += 1
        comm = commutant(h0, h1, SYMMETRY_TOL)
        dark = dark_states(h0, controls, DARK_TOL)
        if comm.has_external_symmetry != (dark.count > 0):
            bad.append((tag, comm.dimension, dark.count))

    for N, k, kappa, _ in _gcd_sweep_fixtures():
        h0, h1 = _chain_pair(N, "uniform", kappa, (k,))
        check(h0, h1, (k,), ("uniform", N, k, kappa))
    for N in range(2, 11):
        for k in range(1, N):
            controls = tuple(range(1, k + 1))
            h0, h1 = _chain_pair(N, "uniform", 0.0, controls)
            check(h0, h1, controls, ("collective", N, k))
    for N, couplings, kappa, k in _random_chains(seed, 30):
        h0, h1 = _chain_pair(N, couplings, kappa, (k,))
        check(h0, h1, (k,), ("random", N, k))
    lines = [f"{count} chain fixtures: equivalence failures {bad if bad else 'none'}"]
    return CriterionResult(12, "commutant nontrivial iff dark state exists",
                           not bad, lines)


def criterion_13(tolerance: float = DEFAULT_TOL) -> CriterionResult:
    """Exact-rational closure dimensions equal float dimensions on every
    rational-data fixture of criteria 1-4; the gcd-sweep float dimensions
    are criterion 4's own."""
    fixtures = [(list(_chain_pair(7, "uniform", 0.0, (2,))), "chain-7-2")]
    fixtures += [(list(fig2_pair(ell)), f"fig2-{ell}") for ell in (1, 2, 3, 4)]
    sub = second_excitation_chain(make_chain(5, [1, 2, 3, 4], 0.0, controls=(1,)))
    fixtures.append(([sub.h0, sub.h1], "inhomogeneous-10"))
    float_dims = [lie_closure(mats, tolerance=tolerance).dimension for mats, _ in fixtures]
    for (N, k, kappa, _), vd in zip(_gcd_sweep_fixtures(),
                                    _gcd_sweep_verdicts(tolerance)):
        fixtures.append((list(_chain_pair(N, "uniform", kappa, (k,))), (N, k, kappa)))
        float_dims.append(vd.dimension)
    bad = []
    for (mats, tag), df in zip(fixtures, float_dims):
        de = lie_closure(mats, mode="exact").dimension
        if df != de:
            bad.append((tag, df, de))
    lines = [f"{len(fixtures)} fixtures compared; float/exact disagreements "
             f"{bad if bad else 'none'}"]
    return CriterionResult(13, "float and exact closure dimensions agree", not bad,
                           lines)


def _timed_criteria(seed: int, tolerance: float):
    """Criteria 1-13 in order, and the seconds each took."""
    _gcd_sweep_verdicts.cache_clear()
    calls = [
        functools.partial(criterion_01, tolerance),
        functools.partial(criterion_02, tolerance),
        functools.partial(criterion_03, tolerance),
        functools.partial(criterion_04, tolerance),
        criterion_05,
        criterion_06,
        functools.partial(criterion_07, seed, tolerance),
        functools.partial(criterion_08, tolerance),
        functools.partial(criterion_09, seed, tolerance),
        functools.partial(criterion_10, seed),
        functools.partial(criterion_11, seed),
        functools.partial(criterion_12, seed),
        functools.partial(criterion_13, tolerance),
    ]
    results, seconds = [], []
    for call in calls:
        t0 = time.perf_counter()
        results.append(call())
        seconds.append(time.perf_counter() - t0)
    return results, seconds


def _digest(results: list[CriterionResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.number}|{r.passed}|{'|'.join(r.lines)}\n".encode())
    return h.hexdigest()


@dataclass
class SuiteOutcome:
    results: list[CriterionResult]       # criteria 1-13 from the first pass
    determinism: CriterionResult         # criterion 14
    elapsed_seconds: float
    # criterion number -> seconds over both passes; never part of _digest
    criterion_seconds: dict[int, float]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results) and self.determinism.passed


def run_suite(seed: int = 0, time_budget: float = 300.0,
              tolerance: float = DEFAULT_TOL) -> SuiteOutcome:
    """Run criteria 1-13 twice; criterion 14 checks runtime and determinism."""
    t0 = time.perf_counter()
    first, first_s = _timed_criteria(seed, tolerance)
    second, second_s = _timed_criteria(seed, tolerance)
    elapsed = time.perf_counter() - t0
    identical = _digest(first) == _digest(second)
    within = elapsed < time_budget
    lines = [f"two passes bit-identical for seed {seed}: {identical}",
             f"runtime within budget ({time_budget:.0f} s): {within}"]
    det = CriterionResult(14, "determinism and runtime", identical and within, lines)
    seconds = {r.number: a + b for r, a, b in zip(first, first_s, second_s)}
    return SuiteOutcome(results=first, determinism=det, elapsed_seconds=elapsed,
                        criterion_seconds=seconds)


def format_outcome(outcome: SuiteOutcome, verbose: bool = True) -> str:
    out = []
    for r in outcome.results + [outcome.determinism]:
        out.append(f"criterion {r.number:2d} {'PASS' if r.passed else 'FAIL'}: {r.title}")
        if verbose:
            for line in r.lines:
                out.append(f"    {line}")
    out.append(f"elapsed: {outcome.elapsed_seconds:.1f} s")
    out.append("seconds per criterion, both passes: " + ", ".join(
        f"{n}: {s:.1f}" for n, s in outcome.criterion_seconds.items()))
    out.append("result: " + ("ALL PASS" if outcome.all_passed else "FAILURES PRESENT"))
    return "\n".join(out)
