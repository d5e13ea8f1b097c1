"""Shared oracles: brute-force 2^N Hamiltonians and sector projections, the
brute-force symmetry detectors, the sequential float closure, and the
closed forms and scans that only tests consult.

The full-space construction is kept independent of the package builders so
it can serve as an oracle for them: Pauli strings are assembled by explicit
Kronecker products and projected onto fixed-excitation sectors by selecting
computational-basis states.

The detector oracles solve the same problems as spinctrl.symmetry without
its shortcuts: the commutant and the anticommutant as the nullspace of the
full 2d^2 x d^2 Kronecker system, and the automorphism group by listing
every element.

sequential_float_closure is the float closure as it ran before its
brackets were screened in batches and its deferral pool was filled lazily:
every bracket goes through handle(), one at a time, and every deferred
candidate enters the pool on the spot. It keeps its own copies of _flatten
and _PendingPool, so a change to the package's pool cannot change the
oracle. The closure under test must return the same basis, bit for bit, and
the same bracket count.

sequential_exact_closure is the exact closure loop as it ran before it took
the queue a generation at a time: one bracket at a time, each inserted into
the modular echelon by its own rank-one update, or added to the big-integer
echelons one by one. The loop under test must accept the same (kind,
matrix) sequence and count the same brackets.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from spinctrl import _exact
from spinctrl.analytic import VERIFY_TOL, control_site_residual
from spinctrl.lie import _DEFER_THRESHOLD, LieClosureResult
from spinctrl.symmetry import (_AUTOMORPHISM_NODE_CAP, _DEGENERACY_TOL,
                               _group_labels, _off_block_residual, _orbit,
                               _parity_system, _scale, _svd, _upper_pairs, _weight_classes)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def pauli_string(n_sites: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for site in range(n_sites):
        out = np.kron(out, factors.get(site, np.eye(2)))
    return out


def full_space_hamiltonians(spec):
    """(drift, control) on the full 2^N space, built straight from the
    coupling sum (XX + YY + kappa ZZ)/2 and the collective Z-control."""
    n = spec.node_count
    dim = 1 << n
    drift = np.zeros((dim, dim), complex)
    for m, q, g in spec.edges:
        i, j = m - 1, q - 1
        drift += 0.5 * g * (pauli_string(n, {i: PAULI_X, j: PAULI_X})
                            + pauli_string(n, {i: PAULI_Y, j: PAULI_Y})
                            + spec.kappa * pauli_string(n, {i: PAULI_Z, j: PAULI_Z}))
    control = np.zeros((dim, dim), complex)
    for k in spec.controls:
        control += pauli_string(n, {k - 1: PAULI_Z})
    return drift, control


def sector_states(n_sites: int, excitations: int) -> list[int]:
    """Computational-basis indices of the n-excitation sector, ordered to
    match the subspace builders (site 1 is the leftmost tensor factor)."""
    if excitations == 1:
        labels = [(i,) for i in range(1, n_sites + 1)]
    elif excitations == 2:
        labels = list(combinations(range(1, n_sites + 1), 2))
    else:
        raise ValueError("oracle supports 1 or 2 excitations")
    states = []
    for label in labels:
        idx = 0
        for site in label:
            idx |= 1 << (n_sites - site)
        states.append(idx)
    return states


def project_to_sector(mat: np.ndarray, states: list[int]) -> np.ndarray:
    return mat[np.ix_(states, states)]


def kron_nullspace(a: np.ndarray, tolerance: float) -> np.ndarray:
    """Columns spanning {x : a x = 0}, threshold relative to s_max."""
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    cols = a.shape[1]
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > tolerance * max(smax, 1.0)))
    return vt[rank:].T.conj() if rank < cols else np.zeros((cols, 0))


@dataclass
class EagerCommutant:
    """A commutant with its basis written out, as spinctrl.CommutantBasis
    held it before it kept eigenbasis unknowns."""

    dimension: int
    basis: np.ndarray  # (dimension, d, d) Hermitian
    has_external_symmetry: bool


@dataclass
class EagerAnticommutant:
    dimension: int
    has_internal_symmetry: bool
    symmetry_type: str | None
    basis: np.ndarray  # (dimension, d, d) real


def kron_commutant(h0, h1, tolerance: float = 1e-9) -> EagerCommutant:
    """Real nullspace of M -> ([h0, M], [h1, M]) as a (2d^2) x (d^2) system,
    mapped to Hermitian matrices by sym(M) + i antisym(M)."""
    d = h0.shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(h, eye) - np.kron(eye, h) for h in (h0, h1)])
    herm = []
    for col in kron_nullspace(stacked, tolerance).T:
        m = col.reshape(d, d)
        herm.append(0.5 * (m + m.T) + 0.5j * (m - m.T))
    return EagerCommutant(dimension=len(herm), basis=np.array(herm),
                          has_external_symmetry=len(herm) > 1)


def kron_internal_symmetry(h0, h1, tolerance: float = 1e-9) -> EagerAnticommutant:
    """Real nullspace of S -> (Hb S + S Hb) for both traceless shifts as a
    (2d^2) x (d^2) system, with the parity test and invertibility draws of
    spinctrl.internal_symmetry."""
    d = h0.shape[0]
    eye = np.eye(d)
    blocks = []
    for h in (h0, h1):
        hb = h - (np.trace(h) / d) * eye
        blocks.append(np.kron(hb, eye) + np.kron(eye, hb))
    null = kron_nullspace(np.vstack(blocks), tolerance)
    dim = null.shape[1]
    if dim == 0:
        return EagerAnticommutant(dimension=0, has_internal_symmetry=False,
                                  symmetry_type=None, basis=np.zeros((0, d, d)))
    sols = [col.reshape(d, d) for col in null.T]
    has_sym = _span_rank([0.5 * (s + s.T) for s in sols], tolerance) > 0
    has_anti = _span_rank([0.5 * (s - s.T) for s in sols], tolerance) > 0
    invertible = False
    rng = np.random.default_rng(0)
    for _ in range(8):
        cand = sum(c * s for c, s in zip(rng.standard_normal(dim), sols))
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin > tolerance * max(1.0, np.abs(cand).max()):
            invertible = True
            break
    stype = ("mixed" if has_sym and has_anti
             else "orthogonal" if has_sym else "symplectic")
    return EagerAnticommutant(dimension=dim, has_internal_symmetry=invertible,
                              symmetry_type=stype, basis=np.array(sols))


def _span_rank(mats, tolerance: float) -> int:
    s = np.linalg.svd(np.array([m.ravel() for m in mats]), compute_uv=False)
    return int(np.sum(s > tolerance * max(s.max(), 1.0)))


# ---- the eigenbasis detectors as they ran with an eager basis --------------
# eager_commutant, eager_internal_symmetry and full_stack_decompose are frozen
# copies of the detectors from before they kept eigenbasis unknowns: each
# solution written out as v X' v^T, and decompose drawing from the whole
# stack. The lazy basis must equal theirs bit for bit, and decompose must
# find the same blocks.

def _eager_bright_first(v, labels, h, tolerance):
    hv = h @ v
    sigma = np.sqrt(np.einsum("ij,ij->j", hv, hv))
    if labels[-1] + 1 < len(labels):
        for g in np.flatnonzero(np.bincount(labels) > 1):
            cols = np.flatnonzero(labels == g)
            _, sigma[cols], vt = np.linalg.svd(hv[:, cols], full_matrices=False)
            v[:, cols] = v[:, cols] @ vt.T
            hv[:, cols] = hv[:, cols] @ vt.T
    bright = sigma > tolerance * max(1.0, sigma.max())
    b = v.T @ hv
    if not bright.all():
        b[~bright] = 0.0
        b[:, ~bright] = 0.0
    return v, b, bright


def _eager_diagonal_commutant(v, b, bright, tolerance):
    lit = np.flatnonzero(bright)
    dark = np.flatnonzero(~bright)
    p, q = np.nonzero(lit[:, None] < lit)
    row = np.arange(p.size)
    system = np.zeros((p.size, lit.size))
    system[row, q] = np.sqrt(2.0) * b[lit[p], lit[q]]
    system[row, p] = -system[row, q]
    s_vals, vt = _svd(system)
    null = vt[np.sum(s_vals > tolerance * max(1.0, s_vals.max(initial=0.0))):]
    x = np.zeros((dark.size + len(null), len(b)))
    x[np.arange(dark.size), dark] = 1.0
    x[dark.size:, lit] = null
    return (v * x[:, None, :]) @ v.T


def _eager_parity_matrices(n, free_r, free_s, r, s, coeff, parity):
    m = free_r.size
    out = np.zeros((m + coeff.shape[1], n, n))
    if m:
        k = np.arange(m)
        a = np.where(free_r == free_s, 0.5, np.sqrt(0.5))
        out[k, free_r, free_s] = a
        out[k, free_s, free_r] += parity * a
    if coeff.size:
        scaled = (np.where(r == s, 0.5, np.sqrt(0.5))[:, None] * coeff).T
        out[m:, r, s] = scaled
        out[m:, s, r] += parity * scaled
    return out


def _eager_eigenbasis_solutions(v, b, bright, shift, rows, cols, sign, tolerance):
    d = len(b)
    s_mixed = 0.0
    if bright.all():
        free = rows[:0], cols[:0]
        c, at = b, np.arange(d)
    else:
        lit = bright[rows] | bright[cols]
        free = rows[~lit], cols[~lit]
        rows, cols = rows[lit], cols[lit]
        if sign < 0:
            mixed = bright[rows] != bright[cols]
            q = np.where(bright[rows], rows, cols)[mixed]
            s_mixed = float(np.sqrt(np.einsum("ij,ij->j", b[:, q], b[:, q])).max(initial=0.0))
            rows, cols = rows[~mixed], cols[~mixed]
        touched = bright.copy()
        touched[rows] = touched[cols] = True
        c, at = b[touched][:, touched], np.cumsum(touched) - 1
    if shift:
        c.flat[::len(c) + 1] -= shift
    off = rows < cols
    systems = [(r, s, *_svd(_parity_system(c, at[r], at[s], parity, sign)))
               for parity, r, s in ((1.0, rows, cols), (-1.0, rows[off], cols[off]))]
    s_dark = abs(shift) * (1.0 + sign) if free[0].size else 0.0
    threshold = tolerance * max([s_mixed, s_dark, 1.0] + [x[2].max(initial=0.0)
                                                        for x in systems])
    if s_dark > threshold:
        free = rows[:0], cols[:0]
    out = []
    for parity, (r, s, s_vals, vt) in zip((1.0, -1.0), systems):
        if parity < 0 and free[0].size:
            off = free[0] < free[1]
            free = free[0][off], free[1][off]
        null = vt[np.sum(s_vals > threshold):].T
        if free[0].size or null.size:
            out.append(v @ _eager_parity_matrices(d, *free, r, s, null, parity) @ v.T)
        else:
            out.append(np.zeros((0, d, d)))
    return out[0], out[1]


def eager_commutant(h0, h1, tolerance: float = 1e-9) -> EagerCommutant:
    w, v = np.linalg.eigh(h0)
    labels = _group_labels(w, _DEGENERACY_TOL * _scale(w))
    v, b, bright = _eager_bright_first(v, labels, h1, tolerance)
    if labels[-1] + 1 == len(labels):
        sym = _eager_diagonal_commutant(v, b, bright, tolerance)
        anti = np.zeros((0,) + h0.shape)
    else:
        rows, cols = _upper_pairs(labels[:, None] == labels)
        sym, anti = _eager_eigenbasis_solutions(v, b, bright, 0.0, rows, cols, -1.0,
                                                tolerance)
    herm = np.zeros((len(sym) + len(anti),) + h0.shape, dtype=complex)
    herm.real[:len(sym)] = sym
    herm.imag[len(sym):] = anti
    return EagerCommutant(dimension=len(herm), basis=herm,
                          has_external_symmetry=len(herm) > 1)


def eager_internal_symmetry(h0, h1, tolerance: float = 1e-9) -> EagerAnticommutant:
    d = h0.shape[0]
    w, v = np.linalg.eigh(h0)
    w -= np.trace(h0) / d
    gap = _DEGENERACY_TOL * _scale(w)
    labels = _group_labels(w, gap)
    w = (np.bincount(labels, w) / np.bincount(labels))[labels]
    rows, cols = _upper_pairs(np.abs(w[:, None] + w) <= gap)
    dim = 0
    if rows.size:
        v, b, bright = _eager_bright_first(v, labels, h1, tolerance)
        sym, anti = _eager_eigenbasis_solutions(v, b, bright, np.trace(h1) / d, rows, cols,
                                                1.0, tolerance)
        dim = len(sym) + len(anti)
    if dim == 0:
        return EagerAnticommutant(dimension=0, has_internal_symmetry=False,
                                  symmetry_type=None, basis=np.zeros((0, d, d)))
    sols = np.concatenate([sym, anti])
    invertible = False
    rng = np.random.default_rng(0)
    for _ in range(8):
        cand = np.tensordot(rng.standard_normal(dim), sols, 1)
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin > tolerance * max(1.0, np.abs(cand).max()):
            invertible = True
            break
    stype = ("mixed" if len(sym) and len(anti)
             else "orthogonal" if len(sym) else "symplectic")
    return EagerAnticommutant(dimension=dim, has_internal_symmetry=invertible,
                              symmetry_type=stype, basis=sols)


def full_stack_decompose(h0, h1, basis, tolerance: float = 1e-9,
                         seed: int = 0) -> tuple[int, ...]:
    """Block sizes of decompose, drawing each generic element from the whole
    commutant basis and splitting it with one d x d eigh, with up to five
    draws of refinement."""
    d = h0.shape[0]
    if len(basis) <= 1:
        return (d,)
    rng = np.random.default_rng(seed)
    projectors = [np.eye(d)]
    scale = max(1.0, np.abs(h0).max(), np.abs(h1).max())
    for _ in range(5):
        coeff = rng.standard_normal(len(basis))
        coeff /= np.linalg.norm(coeff)
        generic = np.tensordot(coeff, basis, 1)
        refined = []
        for basis_cols in projectors:
            w, v = np.linalg.eigh(basis_cols.conj().T @ generic @ basis_cols)
            labels = _group_labels(w, 1e-6 * _scale(w))
            for g in range(labels[-1] + 1):
                refined.append(basis_cols @ v[:, labels == g])
        projectors = refined
        if _off_block_residual((h0, h1), projectors) <= tolerance * scale:
            return tuple(sorted(p.shape[1] for p in projectors))
    raise RuntimeError("block refinement stalled")


def frozen_graph_automorphisms(spec):
    """spinctrl.graph_automorphisms as it ran with dict-indexed colours and
    mappings: (sorted generators, group order)."""
    n = spec.node_count
    weights = {}
    for m, q, g in spec.edges:
        weights[(m, q)] = g
        weights[(q, m)] = g
    adj = spec.adjacency()
    controls = set(spec.controls)

    wclasses = _weight_classes(sorted({g for _, _, g in spec.edges}))
    color = {v: (v in controls, len(adj[v]),
                 tuple(sorted(wclasses[g] for _, g in adj[v]))) for v in range(1, n + 1)}
    for _ in range(n):
        newcolor = {}
        for v in range(1, n + 1):
            profile = tuple(sorted((color[w], wclasses[g]) for w, g in adj[v]))
            newcolor[v] = (color[v], profile)
        ranks = {c: i for i, c in enumerate(sorted(set(newcolor.values()), key=repr))}
        relabeled = {v: ranks[newcolor[v]] for v in range(1, n + 1)}
        if len(set(relabeled.values())) == len(set(color.values())):
            color = relabeled
            break
        color = relabeled

    base = sorted(range(1, n + 1), key=lambda v: (color[v], v))
    same_color: dict = {}
    for v in range(1, n + 1):
        same_color.setdefault(color[v], []).append(v)
    generators: list[tuple[int, ...]] = []
    group_order = 1
    mapping: dict[int, int] = {}
    used: set[int] = set()
    visited = 0

    def fits(v, img):
        if img in used or color[img] != color[v]:
            return False
        for w, g in adj[v]:
            if w in mapping:
                gw = weights.get((img, mapping[w]))
                if gw is None or wclasses[gw] != wclasses[g]:
                    return False
        deg_mapped = sum(1 for w, _ in adj[v] if w in mapping)
        deg_img_mapped = sum(1 for w, _ in adj[img] if w in used)
        return deg_mapped == deg_img_mapped

    def assign(v, img):
        mapping[v] = img
        used.add(img)

    def extend(pos):
        nonlocal visited
        visited += 1
        if visited > _AUTOMORPHISM_NODE_CAP:
            raise RuntimeError("automorphism search cap exceeded")
        if pos == n:
            return True
        v = base[pos]
        for img in same_color[color[v]]:
            if fits(v, img):
                assign(v, img)
                if extend(pos + 1):
                    return True
                used.discard(img)
                del mapping[v]
        return False

    for i in range(n - 1, -1, -1):
        b = base[i]
        orbit = _orbit(b, generators)
        for c in base[i + 1:]:
            if c in orbit or color[c] != color[b]:
                continue
            mapping.clear()
            used.clear()
            for v in base[:i]:
                assign(v, v)
            if fits(b, c):
                assign(b, c)
                if extend(i + 1):
                    generators.append(tuple(mapping[v] for v in range(1, n + 1)))
                    orbit = _orbit(b, generators)
        group_order *= len(orbit)
    return sorted(generators), group_order


def enumerate_automorphisms(spec) -> set[tuple[int, ...]]:
    """Every node permutation (identity included) preserving the weighted
    edges and the control set, by backtracking over color-refined classes."""
    n = spec.node_count
    weights = {}
    for m, q, g in spec.edges:
        weights[(m, q)] = weights[(q, m)] = g
    adj = spec.adjacency()
    controls = set(spec.controls)
    wclasses = _weight_classes(sorted({g for _, _, g in spec.edges}))
    color = {v: (v in controls, len(adj[v]),
                 tuple(sorted(wclasses[g] for _, g in adj[v]))) for v in range(1, n + 1)}
    for _ in range(n):
        newcolor = {v: (color[v], tuple(sorted((color[w], wclasses[g]) for w, g in adj[v])))
                    for v in range(1, n + 1)}
        ranks = {c: i for i, c in enumerate(sorted(set(newcolor.values()), key=repr))}
        relabeled = {v: ranks[newcolor[v]] for v in range(1, n + 1)}
        done = len(set(relabeled.values())) == len(set(color.values()))
        color = relabeled
        if done:
            break
    order = sorted(range(1, n + 1), key=lambda v: (color[v], v))
    found = set()
    mapping: dict[int, int] = {}

    def extend(pos: int) -> None:
        if pos == n:
            found.add(tuple(mapping[v] for v in range(1, n + 1)))
            return
        v = order[pos]
        used = set(mapping.values())
        for img in range(1, n + 1):
            if img in used or color[img] != color[v]:
                continue
            ok = all(w not in mapping or (
                (img, mapping[w]) in weights
                and wclasses[weights[(img, mapping[w])]] == wclasses[g])
                for w, g in adj[v])
            if not ok or (sum(1 for w, _ in adj[v] if w in mapping)
                          != sum(1 for w, _ in adj[img] if w in used)):
                continue
            mapping[v] = img
            extend(pos + 1)
            del mapping[v]

    extend(0)
    return found


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the given permutations of 1..n, identity included."""
    group = {tuple(range(1, n + 1))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[i] - 1] for i in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


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


def sequential_float_closure(mats, d: int, tol: float) -> LieClosureResult:
    full = d * d
    width = 2 * d * d
    basis = np.zeros((full, width))
    nb = 0
    elements: list[np.ndarray] = []
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
        vec /= np.linalg.norm(vec)
        basis[nb] = vec
        elements.append((vec[: d * d] + 1j * vec[d * d:]).reshape(d, d))
        nb += 1
        pending.project_against(vec)
        for i in range(nb - 1):
            queue.append((i, nb - 1))

    def handle(mat: np.ndarray) -> None:
        nonlocal seq
        vec = _flatten(mat)
        norm = np.linalg.norm(vec)
        if norm <= tol:
            return
        scale = max(norm, 1.0)
        res = vec
        if nb:
            sub = basis[:nb]
            res = res - sub.T @ (sub @ res)
            # re-orthogonalize only when cancellation actually occurred
            if np.linalg.norm(res) < 0.5 * norm:
                res = res - sub.T @ (sub @ res)
        rn = np.linalg.norm(res)
        if rn <= tol * scale:
            return
        if rn > _DEFER_THRESHOLD * scale:
            accept(res)
        else:
            pending.push(res, scale, seq)
            seq += 1

    for g in mats:
        handle(1j * g.astype(complex))
    while True:
        while queue and nb < full:
            i, j = queue.popleft()
            evaluated += 1
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


class _SequentialModularEchelon:
    """Reduced row echelon form over F_p, preallocated as an int64 array.

    A candidate's residual is one vector-matrix product; an inserted row is
    scaled to a unit pivot, and its pivot column is eliminated from the
    other rows. Columns before the first non-pivot column are unit columns
    of the echelon, and a new row is zero before its pivot, so both steps
    skip those columns.
    """

    def __init__(self, index: tuple[np.ndarray, np.ndarray]):
        self.index = index  # matrix entries that are the coordinates
        width = len(index[0])
        self.rows = np.zeros((width, width), dtype=np.int64)
        self.pivots = np.zeros(width, dtype=np.intp)
        self.is_pivot = np.zeros(width + 1, dtype=bool)
        self.free = 0  # first non-pivot column
        self.count = 0

    def insert(self, mat: np.ndarray) -> bool:
        """Add mat's coordinates when they are independent mod p."""
        prime = _exact._PRIME
        vec = mat[self.index]
        n, lo = self.count, self.free
        rows = self.rows[:n]
        if n:
            vec[lo:] -= vec[self.pivots[:n]] @ rows[:, lo:]
            vec[lo:] %= prime
        vec[:lo] = 0
        lead = np.flatnonzero(vec)
        if not lead.size:
            return False
        piv = int(lead[0])
        tail = vec[piv:] * pow(int(vec[piv]), -1, prime) % prime
        if n:
            block = rows[:, piv:]
            block -= np.outer(rows[:, piv], tail)
            block %= prime
        self.rows[n, piv:] = tail
        self.pivots[n] = piv
        self.is_pivot[piv] = True
        while self.is_pivot[self.free]:
            self.free += 1
        self.count = n + 1
        return True


class _SequentialModularOracle:
    def __init__(self, d: int):
        self.echelons = {_exact.IMAG: _SequentialModularEchelon(np.triu_indices(d)),
                         _exact.REAL: _SequentialModularEchelon(np.triu_indices(d, 1))}

    @staticmethod
    def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b - b @ a) % _exact._PRIME

    def add(self, kind: str, mat: np.ndarray) -> np.ndarray | None:
        return mat if self.echelons[kind].insert(mat) else None


class _SequentialIntegerOracle:
    def __init__(self, d: int):
        self.d = d
        self.echelons = {_exact.IMAG: _exact._IntegerEchelon(),
                         _exact.REAL: _exact._IntegerEchelon()}

    @staticmethod
    def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b - b @ a

    def add(self, kind: str, mat: np.ndarray) -> np.ndarray | None:
        coords = (_exact._sym_coords(mat, self.d) if kind == _exact.IMAG
                  else _exact._antisym_coords(mat, self.d))
        echelon = self.echelons[kind]
        res = echelon.residual(coords)
        if not any(res):
            return None
        echelon.insert(res)
        return _exact._content_reduce(mat)


def sequential_exact_closure(seeds, modular: bool):
    """(elements, brackets_evaluated) of the one-bracket-at-a-time loop on
    integer seeds, reduced mod p first when modular is set."""
    d = seeds[0][1].shape[0]
    if modular:
        oracle = _SequentialModularOracle(d)
        seeds = [(kind, _exact._ModularOracle.reduce(mat)) for kind, mat in seeds]
    else:
        oracle = _SequentialIntegerOracle(d)
    max_dimension = d * d
    elements: list[tuple[str, np.ndarray]] = []

    def try_add(kind: str, mat: np.ndarray) -> bool:
        kept = oracle.add(kind, mat)
        if kept is None:
            return False
        elements.append((kind, kept))
        return True

    for kind, mat in seeds:
        try_add(kind, mat)
    evaluated = 0
    head = 0
    while head < len(elements) and len(elements) < max_dimension:
        kind_b, mat_b = elements[head]
        head += 1
        for kind_g, mat_g in seeds:
            evaluated += 1
            kind_new = _exact.REAL if kind_g == kind_b else _exact.IMAG
            if try_add(kind_new, oracle.commutator(mat_g, mat_b)) and \
                    len(elements) >= max_dimension:
                break
    return elements, evaluated


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


def permutation_matrix(perm: tuple[int, ...]) -> np.ndarray:
    n = len(perm)
    p = np.zeros((n, n))
    for i, img in enumerate(perm):
        p[img - 1, i] = 1.0
    return p


def matrices_as_json(sub) -> str:
    return json.dumps({"h0": sub.h0.tolist(), "h1": sub.h1.tolist(),
                       "labels": [list(l) for l in sub.basis_labels]})


def matrices_as_text(sub) -> str:
    """Row-major whitespace-separated dump, full precision, h0 then h1."""
    def block(m):
        return "\n".join(" ".join(repr(float(x)) for x in row) for row in m)
    return block(sub.h0) + "\n\n" + block(sub.h1) + "\n"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240801)
