"""Dynamical Lie algebra closure and the controllability verdict.

Real symmetric generators H are seeded as skew-Hermitian i*H and closed
under commutation inside u(d). Elements are flattened to real vectors of
length 2*d*d (real part, then imaginary part); the Frobenius inner product
on matrices is the dot product there.

Float mode builds an orthonormal basis by modified Gram-Schmidt with a
greedy twist: candidates whose residual is large are accepted on the spot,
while small-but-significant residuals are parked and only admitted, largest
first, once no large candidate is left anywhere. Parked candidates are kept
projected against the growing basis, so directions that were merely "not yet
spanned" decay below tolerance and get dropped. Accepting near-threshold
directions eagerly is what makes the naive FIFO scheme blow ranks up: one
direction resolved from a tiny residual carries a relatively large error,
and bracketing it against the rest manufactures genuinely new garbage
directions, after which the closure saturates. Deferral keeps those
candidates out until the true span is complete, at which point they either
vanish or are real.

Every pair of basis elements is bracketed (the all-pairs test). Queued
pairs are bracketed 32 at a time in one batched product and projected
against the current basis as one block; a bracket whose norm or block
residual lies below the drop threshold by a relative margin of 1e-3 is
counted but skipped, because handle() would drop it too: the basis only
grows before handle() would see it, which only shrinks the residual, and the
margin dwarfs the rounding gap between the two residuals. Every other
bracket is recomputed one at a time and handled exactly as without the
screen, so the basis is the same to the last bit.

Exact mode delegates to _exact (a modular pass certified by the full rank
or by the dark-subspace bound, fraction-free integer elimination otherwise)
and is the arbiter whenever the two modes disagree on rational input.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import _exact

# Float mode: a residual above this fraction of max(1, candidate norm) is
# accepted at once; a smaller but significant one is deferred.
_DEFER_THRESHOLD = 1e-1
# Float mode: queued pairs are bracketed and screened this many at a time;
# a screened bracket skips handle() only below this fraction of the drop
# threshold (1e-9 of the scale at tol = 1e-6, far above rounding).
_SCREEN_BATCH = 32
_SCREEN_MARGIN = 1.0 - 1e-3


@dataclass
class LieClosureResult:
    dimension: int
    basis: np.ndarray  # (dimension, 2*d*d) real; rows orthonormal in float mode
    matrix_dimension: int
    mode: str
    rank_tolerance: float | None
    commutators_evaluated: int
    saturated: bool
    exact_elements: list | None = None  # exact mode: list of (kind, integer matrix)

    def basis_matrices(self) -> list[np.ndarray]:
        d = self.matrix_dimension
        return [(row[: d * d] + 1j * row[d * d:]).reshape(d, d) for row in self.basis]


@dataclass
class ControllabilityVerdict:
    controllable: bool
    dimension: int
    full_dimension: int
    note: str


def lie_closure(generators, mode: str = "float",
                tolerance: float = 1e-6) -> LieClosureResult:
    """Close [i*G1, i*G2, ...] under commutation; report the real dimension.

    generators: square real symmetric matrices of equal size.
    mode: "float" (orthonormal basis, tolerance-based rank) or "exact"
    (rational entries, certified rank).
    tolerance: the float rank tolerance; in either mode it must be finite
    and positive, else ValueError.
    """
    tolerance = check_tolerance(tolerance)
    mats = [np.asarray(g) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    for g in mats:
        if g.ndim != 2 or g.shape != (d, d):
            raise ValueError("generators must be square matrices of equal size")
    if mode == "exact":
        return _exact_closure_result(mats, d)
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    return _float_closure(mats, d, tolerance)


def check_tolerance(tolerance) -> float:
    """tolerance as a float; ValueError unless it is finite and positive."""
    tolerance = float(tolerance)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    return tolerance


def verdict(result: LieClosureResult, d: int | None = None) -> ControllabilityVerdict:
    """Subspace controllability: the closure is u(d) or su(d)."""
    if d is None:
        d = result.matrix_dimension
    full = d * d
    dim = result.dimension
    ok = dim in (full, full - 1)
    if dim == full:
        note = f"dim = d^2 = {full}, u({d})"
    elif dim == full - 1:
        note = f"dim = d^2 - 1 = {full - 1}, su({d})"
    else:
        note = f"dim = {dim} < d^2 = {full}"
    return ControllabilityVerdict(controllable=ok, dimension=dim,
                                  full_dimension=full, note=note)


def _flatten(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


class _PendingPool:
    """Deferred candidates, kept projected against the growing basis.

    Rows live in a capacity-doubling array so the per-accept re-projection
    and the norm scan are single vectorized operations.
    """

    def __init__(self, width: int):
        self._rows = np.zeros((16, width))
        self._scale = np.zeros(16)
        self._seq = np.zeros(16, dtype=np.int64)
        self.count = 0

    def push(self, vec: np.ndarray, scale: float, seq: int) -> None:
        if self.count == self._rows.shape[0]:
            grow = self._rows.shape[0] * 2
            self._rows = np.vstack([self._rows, np.zeros_like(self._rows)])[:grow]
            self._scale = np.concatenate([self._scale, np.zeros_like(self._scale)])[:grow]
            self._seq = np.concatenate([self._seq, np.zeros_like(self._seq)])[:grow]
        self._rows[self.count] = vec
        self._scale[self.count] = scale
        self._seq[self.count] = seq
        self.count += 1

    def project_against(self, unit: np.ndarray) -> None:
        if self.count:
            rows = self._rows[: self.count]
            rows -= np.outer(rows @ unit, unit)

    def pop_largest(self, tol: float):
        """Drop dead rows, then remove and return the largest-residual row
        (earliest insertion wins ties). None when nothing survives."""
        if not self.count:
            return None
        rows = self._rows[: self.count]
        norms = np.linalg.norm(rows, axis=1)
        alive = norms > tol * np.maximum(self._scale[: self.count], 1.0)
        if not alive.any():
            self.count = 0
            return None
        if not alive.all():
            keep = int(alive.sum())
            self._rows[:keep] = rows[alive]
            self._scale[:keep] = self._scale[: self.count][alive]
            self._seq[:keep] = self._seq[: self.count][alive]
            self.count = keep
            norms = norms[alive]
        order = np.lexsort((self._seq[: self.count], -norms))
        best = int(order[0])
        vec = self._rows[best].copy()
        last = self.count - 1
        if best != last:
            self._rows[best] = self._rows[last]
            self._scale[best] = self._scale[last]
            self._seq[best] = self._seq[last]
        self.count = last
        return vec


def _float_closure(mats, d: int, tol: float) -> LieClosureResult:
    full = d * d
    width = 2 * d * d
    basis = np.zeros((full, width))
    elements = np.zeros((full, d, d), dtype=complex)  # basis rows as matrices
    nb = 0
    pending = _PendingPool(width)
    queue: deque[tuple[int, int]] = deque()
    evaluated = 0
    seq = 0

    def project_out(vec: np.ndarray) -> np.ndarray:
        if nb:
            sub = basis[:nb]
            vec = vec - sub.T @ (sub @ vec)
            vec = vec - sub.T @ (sub @ vec)
        return vec

    def accept(vec: np.ndarray) -> None:
        nonlocal nb
        vec = project_out(vec)
        vec /= math.sqrt(vec.dot(vec))
        basis[nb] = vec
        elements[nb] = (vec[: d * d] + 1j * vec[d * d:]).reshape(d, d)
        nb += 1
        pending.project_against(vec)
        for i in range(nb - 1):
            queue.append((i, nb - 1))

    def handle(mat: np.ndarray) -> None:
        nonlocal seq
        vec = _flatten(mat)
        norm = math.sqrt(vec.dot(vec))
        if norm <= tol:
            return
        scale = max(norm, 1.0)
        res = vec
        if nb:
            sub = basis[:nb]
            res = res - sub.T @ (sub @ res)
            # re-orthogonalize only when cancellation actually occurred
            if math.sqrt(res.dot(res)) < 0.5 * norm:
                res = res - sub.T @ (sub @ res)
        rn = math.sqrt(res.dot(res))
        if rn <= tol * scale:
            return
        if rn > _DEFER_THRESHOLD * scale:
            accept(res)
        else:
            pending.push(res, scale, seq)
            seq += 1

    def may_survive(pairs) -> np.ndarray:
        """False for each bracket that handle() would surely drop: its norm,
        or its residual against the current basis, is below the drop
        threshold by the margin _SCREEN_MARGIN. The basis only grows before
        handle() sees the bracket, which only shrinks the residual."""
        left = elements[[i for i, _ in pairs]]
        right = elements[[j for _, j in pairs]]
        prod = left @ right - right @ left
        flat = np.concatenate([prod.real.reshape(len(pairs), -1),
                               prod.imag.reshape(len(pairs), -1)], axis=1)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        res = flat
        if nb:
            sub = basis[:nb]
            res = res - (res @ sub.T) @ sub
            res = res - (res @ sub.T) @ sub
        rn = np.sqrt(np.einsum("ij,ij->i", res, res))
        cut = _SCREEN_MARGIN * tol
        return (norms > cut) & (rn > cut * np.maximum(norms, 1.0))

    for g in mats:
        handle(1j * g.astype(complex))
    while True:
        while queue and nb < full:
            pairs = list(islice(queue, _SCREEN_BATCH))
            for (i, j), alive in zip(pairs, may_survive(pairs)):
                if nb >= full:
                    break
                queue.popleft()
                evaluated += 1
                if alive:
                    handle(elements[i] @ elements[j] - elements[j] @ elements[i])
        if nb >= full:
            break
        vec = pending.pop_largest(tol)
        if vec is None:
            break
        accept(vec)

    return LieClosureResult(dimension=nb, basis=basis[:nb].copy(), matrix_dimension=d,
                            mode="float", rank_tolerance=tol,
                            commutators_evaluated=evaluated, saturated=nb >= full)


def _exact_closure_result(mats, d: int) -> LieClosureResult:
    elements, evaluated, saturated = _exact.exact_closure(mats)
    rows = []
    for kind, mat in elements:
        m = mat.astype(float)
        if kind == _exact.IMAG:
            rows.append(np.concatenate([np.zeros(d * d), m.ravel()]))
        else:
            rows.append(np.concatenate([m.ravel(), np.zeros(d * d)]))
    basis = np.array(rows) if rows else np.zeros((0, 2 * d * d))
    return LieClosureResult(dimension=len(elements), basis=basis, matrix_dimension=d,
                            mode="exact", rank_tolerance=None,
                            commutators_evaluated=evaluated, saturated=saturated,
                            exact_elements=elements)
