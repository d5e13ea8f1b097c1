"""Closed-form symmetry and controllability predicates for uniform chains
and star networks.

For a uniform XXZ chain, eigenvectors have the plane-wave form
v_m = A z^m + B z^{-m}, z = exp(i*theta). Requiring a zero at the controlled
site k quantizes theta to j*pi/(N - (2k - 1)) and fixes the anisotropy to
kappa = sin(k*theta)/sin((k-1)*theta). Every admissible (theta, kappa) pair
is checked against an eigenvector-zero oracle before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import single_excitation
from .network import make_chain
from .symmetry import _eigen_groups, dark_states

_POLE_TOL = 1e-12
_DEDUP_TOL = 1e-10
VERIFY_TOL = 1e-8


@dataclass
class BetheSolution:
    chain_length: int
    control_index: int
    mode_index: int        # j in theta = j*pi/(N - (2k-1))
    theta: float
    kappa: float
    phi: float             # (2k - 1) * theta
    z: complex             # exp(i*theta)
    verified: bool
    residual: float        # smallest control-site amplitude over eigenspaces


@dataclass
class BetheEnumeration:
    """Anisotropies giving the chain a zero at the controlled site.

    all_kappa is the N = 2k - 1 sentinel (center control: every kappa is
    symmetric); solutions is empty both then and for N = 2k (no kappa works).
    """

    chain_length: int
    control_index: int
    all_kappa: bool
    solutions: list[BetheSolution]

    def kappas(self) -> list[float]:
        return [s.kappa for s in self.solutions]


def control_site_residual(N: int, kappa: float, k: int) -> float:
    """Smallest achievable |v_k| over the eigenspaces of the uniform chain."""
    spec = make_chain(N, "uniform", kappa, controls=(k,))
    sub = single_excitation(spec)
    w, v = np.linalg.eigh(sub.h0)
    scale = max(1.0, float(np.abs(w).max()))
    best = np.inf
    for lo, hi in _eigen_groups(w, 1e-10 * scale):
        # a degenerate eigenspace always contains a zero of one coordinate
        if hi - lo >= 2:
            return 0.0
        best = min(best, float(abs(v[k - 1, lo])))
    return best


def bethe_symmetric_kappas(N: int, k: int) -> BetheEnumeration:
    """All kappa for which the uniform chain (N, control k) has a symmetry.

    Candidates with sin((k-1)*theta) = 0 are kappa poles and are skipped;
    inside theta in (0, pi) the pole never coincides with sin(k*theta) = 0,
    so no 0/0 case arises. Duplicate kappas (within 1e-10) keep their first
    mode index. Each retained solution carries the oracle verdict.
    """
    if N < 2:
        raise ValueError("chain length must be >= 2")
    if not (1 <= k <= (N + 1) // 2):
        raise ValueError(f"control index k={k} out of range 1..ceil(N/2)")
    if N == 2 * k - 1:
        return BetheEnumeration(N, k, all_kappa=True, solutions=[])
    if N == 2 * k:
        return BetheEnumeration(N, k, all_kappa=False, solutions=[])
    denom = N - (2 * k - 1)
    solutions: list[BetheSolution] = []
    seen: list[float] = []
    for j in range(1, N - 2 * k + 1):
        theta = j * math.pi / denom
        s_pole = math.sin((k - 1) * theta)
        if abs(s_pole) < _POLE_TOL:
            continue
        kappa = math.sin(k * theta) / s_pole
        if any(abs(kappa - prev) < _DEDUP_TOL for prev in seen):
            continue
        seen.append(kappa)
        residual = control_site_residual(N, kappa, k)
        solutions.append(BetheSolution(
            chain_length=N, control_index=k, mode_index=j, theta=theta,
            kappa=kappa, phi=(2 * k - 1) * theta,
            z=complex(math.cos(theta), math.sin(theta)),
            verified=residual < VERIFY_TOL, residual=residual))
    return BetheEnumeration(N, k, all_kappa=False, solutions=solutions)


def xx_symmetry_predicate(N: int, k: int) -> bool:
    """Uniform XX chain has an external symmetry iff gcd(N+1, k) > 1."""
    _check_nk(N, k)
    return math.gcd(N + 1, k) > 1


def xx_controllable(N: int, k: int) -> bool:
    """Uniform XX chain is subspace controllable iff gcd(N+1, k) = 1."""
    _check_nk(N, k)
    return math.gcd(N + 1, k) == 1


def heisenberg_controllable(N: int, k: int) -> bool:
    """Uniform Heisenberg (and dipole) chain controllable iff gcd(N, 2k-1) = 1."""
    _check_nk(N, k)
    return math.gcd(N, 2 * k - 1) == 1


def half_chain_witness(k: int) -> np.ndarray:
    """Integer internal symmetry of the uniform XX chain N = 2k controlled
    collectively on nodes 1..k.

    The traceless control is +1/2 on the controlled half and -1/2 on the
    rest. S = [[0, A], [(-1)^k A, 0]] with A[i, k+1-i] = (-1)^i (1-based) is
    an antisymmetric signed permutation that anticommutes with both
    traceless generators at kappa = 0, so the closure lies in sp(k) + u(1),
    of dimension k(2k+1) + 1: the symplectic internal symmetry of
    Zimboras et al., PRA 92, 042309 (2015). Check it with
    symmetry.certify_internal_symmetry.
    """
    if k < 1:
        raise ValueError("half_chain_witness: need k >= 1")
    a = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k + 1):
        a[i - 1, k - i] = (-1) ** i
    zero = np.zeros((k, k), dtype=np.int64)
    return np.block([[zero, a], [(-1) ** k * a, zero]])


def closed_form_eigensystem(N: int, kappa: float):
    """Exact eigenpairs of the uniform chain drift for kappa in {0, +1, -1}.

    Returns (eigenvalues, vectors) with orthonormal columns, eigenvalues
    ascending. kappa = 0: v_m = sqrt(2/(N+1)) sin(m j pi/(N+1)) with
    eigenvalue 2 cos(j pi/(N+1)). kappa = 1: v_m proportional to
    cos((2m-1) j pi / (2N)), j = 0..N-1, eigenvalue 2 cos(2 theta_j) plus
    the uniform diagonal offset (N-5)/2. kappa = -1 follows by the sign
    duality: negated spectrum, alternating-sign vectors.
    """
    if kappa == 0:
        theta = np.arange(1, N + 1) * math.pi / (N + 1)
        evals = 2.0 * np.cos(theta)
        m = np.arange(1, N + 1)[:, None]
        vecs = math.sqrt(2.0 / (N + 1)) * np.sin(m * theta[None, :])
    elif kappa in (1, -1):
        theta = np.arange(0, N) * math.pi / (2 * N)
        evals = 2.0 * np.cos(2 * theta) + (N - 5) / 2.0
        m = np.arange(1, N + 1)[:, None]
        vecs = np.cos((2 * m - 1) * theta[None, :])
        vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
        if kappa == -1:
            evals = -evals
            vecs = vecs * np.where(m % 2 == 1, 1.0, -1.0)
    else:
        raise ValueError("closed forms exist for kappa in {0, +1, -1} only")
    order = np.argsort(evals, kind="stable")
    return evals[order], vecs[:, order]


def star_controllable_conjecture(lengths) -> bool:
    """Center-controlled uniform XX star: controllable iff branch lengths
    are pairwise coprime."""
    ls = [int(x) for x in lengths]
    if len(ls) < 2 or any(l < 2 for l in ls):
        raise ValueError("need >= 2 branch lengths, each >= 2")
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            if math.gcd(ls[i], ls[j]) != 1:
                return False
    return True


def star_end_control_predicate(lengths, controlled_branch: int) -> bool:
    """Three-branch star controlled at the far end of one branch:
    controllable iff the other two branch lengths are coprime."""
    ls = [int(x) for x in lengths]
    if len(ls) != 3:
        raise ValueError("end-control predicate is stated for 3 branches")
    if not (1 <= controlled_branch <= 3):
        raise ValueError("controlled_branch out of range 1..3")
    others = [ls[i] for i in range(3) if i != controlled_branch - 1]
    return math.gcd(others[0], others[1]) == 1


def scan_symmetric_kappas(N: int, k: int, lo: float = -3.0, hi: float = 3.0,
                          step: float = 0.01, dip: float = 0.05) -> list[float]:
    """Grid scan for anisotropies with an eigenvector zero at site k.

    Independent of the plane-wave enumeration: sample the smallest
    control-site amplitude on a kappa grid, then refine every dip by ternary
    search. Returns the kappas whose refined residual passes the oracle.
    """
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([control_site_residual(N, kap, k) for kap in grid])
    found: list[float] = []
    for i in range(len(grid)):
        if vals[i] >= dip:
            continue
        if i > 0 and vals[i - 1] < vals[i]:
            continue
        if i + 1 < len(grid) and vals[i + 1] <= vals[i]:
            continue
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]
        for _ in range(120):
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if control_site_residual(N, m1, k) < control_site_residual(N, m2, k):
                b = m2
            else:
                a = m1
        kap = 0.5 * (a + b)
        if control_site_residual(N, kap, k) < VERIFY_TOL:
            if not any(abs(kap - f) < 1e-6 for f in found):
                found.append(kap)
    return sorted(found)


def _check_nk(N: int, k: int) -> None:
    if N < 2:
        raise ValueError("chain length must be >= 2")
    if not (1 <= k <= N):
        raise ValueError(f"control index k={k} out of range 1..{N}")
