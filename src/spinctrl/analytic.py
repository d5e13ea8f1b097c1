"""Closed-form symmetry and controllability predicates for uniform chains
and star networks.

For a uniform XXZ chain, eigenvectors have the plane-wave form
v_m = A z^m + B z^{-m}, z = exp(i*theta). Requiring a zero at the controlled
site k quantizes theta to j*pi/(N - (2k - 1)) and fixes the anisotropy to
kappa = sin(k*theta)/sin((k-1)*theta). bethe_modes enumerates these pairs
in closed form; bethe_symmetric_kappas also checks each against an
eigenvector-zero oracle and reports the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import single_excitation
from .network import make_chain
from .symmetry import dark_states

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
    """Smallest achievable |v_k| over the eigenspaces of the uniform chain,
    from the eigenspaces and control overlaps that dark_states keeps."""
    spec = make_chain(N, "uniform", kappa, controls=(k,))
    dark = dark_states(single_excitation(spec).h0, (k,))
    # a degenerate eigenspace always contains a zero of one coordinate
    if any(hi - lo >= 2 for lo, hi in dark.groups):
        return 0.0
    return float(dark.overlaps.min())


def bethe_modes(N: int, k: int) -> tuple[bool, list[tuple[int, float, float]]]:
    """The closed form alone: (all_kappa, modes), all_kappa as in
    BetheEnumeration and each mode (j, theta, kappa), with no eigenvector.

    Candidates with sin((k-1)*theta) = 0 are kappa poles and are skipped;
    inside theta in (0, pi) the pole never coincides with sin(k*theta) = 0,
    so no 0/0 case arises. Duplicate kappas (within 1e-10) keep their first
    mode index. N = 2k - 1 and N = 2k have no j.
    """
    if N < 2:
        raise ValueError("chain length must be >= 2")
    if not (1 <= k <= (N + 1) // 2):
        raise ValueError(f"control index k={k} out of range 1..ceil(N/2)")
    modes: list[tuple[int, float, float]] = []
    for j in range(1, N - 2 * k + 1):
        theta = j * math.pi / (N - (2 * k - 1))
        s_pole = math.sin((k - 1) * theta)
        if abs(s_pole) < _POLE_TOL:
            continue
        kappa = math.sin(k * theta) / s_pole
        if all(abs(kappa - prev) >= _DEDUP_TOL for _, _, prev in modes):
            modes.append((j, theta, kappa))
    return N == 2 * k - 1, modes


def bethe_symmetric_kappas(N: int, k: int) -> BetheEnumeration:
    """All kappa for which the uniform chain (N, control k) has a symmetry:
    the modes of bethe_modes, each checked against the eigenvector-zero
    oracle control_site_residual (one eigendecomposition per mode)."""
    all_kappa, modes = bethe_modes(N, k)
    solutions = []
    for j, theta, kappa in modes:
        residual = control_site_residual(N, kappa, k)
        solutions.append(BetheSolution(
            chain_length=N, control_index=k, mode_index=j, theta=theta,
            kappa=kappa, phi=(2 * k - 1) * theta,
            verified=residual < VERIFY_TOL, residual=residual))
    return BetheEnumeration(N, k, all_kappa=all_kappa, solutions=solutions)


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


def _check_nk(N: int, k: int) -> None:
    if N < 2:
        raise ValueError("chain length must be >= 2")
    if not (1 <= k <= N):
        raise ValueError(f"control index k={k} out of range 1..{N}")
