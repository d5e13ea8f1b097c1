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
pairs are screened 32 at a time. The generators are real, so every element
is exactly real or exactly imaginary: the seeds are imaginary, a bracket
flips parity, and projecting onto the other parity gives an exact zero. The
screen therefore keeps each element's nonzero half as a real d x d matrix,
brackets the halves in one batched real product, and projects each bracket
against the rows of its own parity only, about a quarter of the work of the
complex, 2*d*d-wide product. A bracket whose norm or residual lies below
the drop threshold by a relative margin of 1e-3 is counted but skipped,
because handle() would drop it too: the basis only grows before handle()
would see it, which only shrinks the residual, and the margin dwarfs the
rounding gap between the two residuals. By the same argument a bracket
whose residual lies below the accept threshold by that margin can only be
deferred or dropped, never accepted; it is logged, not handled. Every other
bracket is recomputed one at a time and handled exactly as without the
screen.

The deferral pool is touched only when it is read. Every operation on it
goes into one ordered log instead: each accepted basis row, each candidate
handle() defers (its residual and scale), and each logged bracket with the
basis size at the moment handle() would have run. Just before the pool is
consulted, once the queue has drained, the log is replayed in order with the
same operations: a logged bracket is recomputed and its residual taken
against the basis rows present then (rows never change once written), and
each accepted row projects the rows pushed before it. The pool sees the
same operands in the same order and shapes, so it holds the same bits, and
the basis is the same to the last bit as without screen and log. A closure
that saturates at d^2 before its queue drains throws the log away and never
builds the pool.

Exact mode delegates to _exact (a modular pass certified by the full rank
or by the dark-subspace bound, fraction-free integer elimination otherwise)
and is the arbiter whenever the two modes disagree on rational input.
"""

from __future__ import annotations

import functools
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
# threshold (1e-9 of the scale at tol = 1e-6, far above rounding), and is
# logged instead of handled only below this fraction of the accept threshold.
_SCREEN_BATCH = 32
_SCREEN_MARGIN = 1.0 - 1e-3
# Float mode: kinds of entry in the log of deferral-pool operations.
_ACCEPT, _PUSH, _BRACKET = range(3)


@dataclass
class LieClosureResult:
    dimension: int
    basis: np.ndarray  # (dimension, 2*d*d) real; rows orthonormal in float mode
    matrix_dimension: int
    mode: str
    rank_tolerance: float | None
    commutators_evaluated: int
    saturated: bool
    # exact mode: list of (kind, integer matrix); exact-mode results build
    # it and basis on first read
    exact_elements: list | None = None

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

    generators: square matrices of equal size, each with finite real
    entries and exactly equal to its transpose, else ValueError.
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
        _check_real_symmetric(g)
    if mode == "exact":
        return _ExactClosureResult(d, *_exact.exact_closure(mats))
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    return _float_closure(mats, d, tolerance)


def _check_real_symmetric(g: np.ndarray) -> None:
    """ValueError unless every entry of g is finite and real and g equals
    its transpose exactly. The float closure's parity screen rests on it."""
    if np.iscomplexobj(g):
        raise ValueError("generators must be real, got a complex matrix")
    try:
        finite = bool(np.isfinite(g.astype(float)).all())
    except (TypeError, ValueError, OverflowError):
        raise ValueError("generators must have real numeric entries") from None
    if not finite:
        raise ValueError("generators must have finite entries")
    if not np.array_equal(g, g.T):
        raise ValueError("generators must be exactly symmetric")


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
    # The nonzero half of each basis row, for the screen: real rows fill
    # halves from the top, imaginary rows from the bottom, so each parity's
    # rows are one contiguous block.
    halves = np.zeros((full, full))
    half_row = np.zeros(full, dtype=np.intp)
    imaginary = np.zeros(full, dtype=bool)
    n_real = n_imag = 0
    nb = 0
    pending = _PendingPool(width)
    log: list[tuple] = []  # pool operations not yet applied, in order
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
        nonlocal nb, n_real, n_imag
        vec = project_out(vec)
        vec /= math.sqrt(vec.dot(vec))
        basis[nb] = vec
        elements[nb] = (vec[:full] + 1j * vec[full:]).reshape(d, d)
        if vec[:full].any():
            half_row[nb] = n_real
            halves[n_real] = vec[:full]
            n_real += 1
        else:
            imaginary[nb] = True
            n_imag += 1
            half_row[nb] = full - n_imag
            halves[full - n_imag] = vec[full:]
        log.append((_ACCEPT, nb))
        nb += 1
        for i in range(nb - 1):
            queue.append((i, nb - 1))

    def bracket(i: int, j: int) -> np.ndarray:
        return elements[i] @ elements[j] - elements[j] @ elements[i]

    def candidate(mat: np.ndarray, k: int):
        """handle()'s rule for mat against basis[:k]: None when it is
        dropped, else (residual, scale, whether it is accepted at once)."""
        vec = _flatten(mat)
        norm = math.sqrt(vec.dot(vec))
        if norm <= tol:
            return None
        scale = max(norm, 1.0)
        res = vec
        if k:
            sub = basis[:k]
            res = res - sub.T @ (sub @ res)
            # re-orthogonalize only when cancellation actually occurred
            if math.sqrt(res.dot(res)) < 0.5 * norm:
                res = res - sub.T @ (sub @ res)
        rn = math.sqrt(res.dot(res))
        if rn <= tol * scale:
            return None
        return res, scale, rn > _DEFER_THRESHOLD * scale

    def handle(mat: np.ndarray) -> None:
        kept = candidate(mat, nb)
        if kept is None:
            return
        res, scale, at_once = kept
        if at_once:
            accept(res)
        else:
            log.append((_PUSH, res, scale))

    def replay() -> None:
        """Apply the log to the pool, in order, with the operands and shapes
        the pool would have seen had every operation run on the spot."""
        nonlocal seq
        for entry in log:
            if entry[0] == _ACCEPT:
                pending.project_against(basis[entry[1]])
                continue
            if entry[0] == _BRACKET:
                _, i, j, k = entry
                kept = candidate(bracket(i, j), k)
                if kept is None:
                    continue
                res, scale, at_once = kept
                if at_once:
                    raise RuntimeError(
                        f"float closure: logged bracket [{i}, {j}] reaches the accept "
                        "threshold; the screen must have handled it")
            else:
                _, res, scale = entry
            pending.push(res, scale, seq)
            seq += 1
        log.clear()

    def screen(pairs):
        """(survives, accepts) per bracket. survives is False when handle()
        would surely drop the bracket: its norm, or its residual against the
        current basis, is below the drop threshold by the margin
        _SCREEN_MARGIN. accepts is False when handle() surely cannot accept
        it: the residual is below the accept threshold by the same margin.
        The basis only grows before handle() sees the bracket, which only
        shrinks the residual. Each element is exactly real or exactly
        imaginary, so a bracket is ±[M_i, M_j] of the elements' nonzero
        halves, imaginary iff their parities differ, and orthogonal to every
        basis row of the other parity."""
        left, right = np.array(pairs, dtype=np.intp).T
        a = halves[half_row[left]].reshape(-1, d, d)
        b = halves[half_row[right]].reshape(-1, d, d)
        flat = (a @ b - b @ a).reshape(len(pairs), full)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        rn = norms.copy()
        odd = imaginary[left] != imaginary[right]
        for mask, sub in ((~odd, halves[:n_real]), (odd, halves[full - n_imag:])):
            if len(sub) and mask.any():
                res = flat[mask]
                res = res - (res @ sub.T) @ sub
                res = res - (res @ sub.T) @ sub
                rn[mask] = np.sqrt(np.einsum("ij,ij->i", res, res))
        scale = _SCREEN_MARGIN * np.maximum(norms, 1.0)
        survives = (norms > _SCREEN_MARGIN * tol) & (rn > tol * scale)
        return survives, survives & (rn > _DEFER_THRESHOLD * scale)

    for g in mats:
        handle(1j * g.astype(complex))
    while True:
        while queue and nb < full:
            pairs = list(islice(queue, _SCREEN_BATCH))
            survives, accepts = screen(pairs)
            for (i, j), alive, eager in zip(pairs, survives.tolist(), accepts.tolist()):
                if nb >= full:
                    break
                queue.popleft()
                evaluated += 1
                if eager:
                    handle(bracket(i, j))
                elif alive:
                    log.append((_BRACKET, i, j, nb))
        if nb >= full:
            break
        replay()
        vec = pending.pop_largest(tol)
        if vec is None:
            break
        accept(vec)

    return LieClosureResult(dimension=nb, basis=basis[:nb].copy(), matrix_dimension=d,
                            mode="float", rank_tolerance=tol,
                            commutators_evaluated=evaluated, saturated=nb >= full)


class _ExactClosureResult(LieClosureResult):
    """An exact-mode result whose exact_elements and float basis are built
    when they are first read; the verdict needs only the dimension."""

    def __init__(self, d: int, dimension: int, build, evaluated: int, saturated: bool):
        self.dimension = dimension
        self.matrix_dimension = d
        self.mode = "exact"
        self.rank_tolerance = None
        self.commutators_evaluated = evaluated
        self.saturated = saturated
        self._build = build

    @functools.cached_property
    def exact_elements(self) -> list:
        return self._build()

    @functools.cached_property
    def basis(self) -> np.ndarray:
        d = self.matrix_dimension
        basis = np.zeros((self.dimension, 2 * d * d))
        for row, (kind, mat) in zip(basis, self.exact_elements):
            half = row[d * d:] if kind == _exact.IMAG else row[:d * d]
            half[:] = mat.astype(float).ravel()
        return basis
