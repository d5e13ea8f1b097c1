"""Symmetry detectors: commutant, dark states, anticommutant, automorphisms,
and the invariant-block decomposition.

A Hermitian S commuting with both Hamiltonians splits the space into
invariant blocks; for real symmetric h the real matrix solutions of
[h, M] = 0 decompose into a symmetric and an antisymmetric part that each
commute, and M -> sym(M) + i*antisym(M) is a bijection onto the Hermitian
commutant, so the dimension of the real solution space already is the
Hermitian commutant dimension. The commutant and the anticommutant are
solved in the eigenbasis of the drift, where it leaves only the entries
inside eigenspaces (or pairing opposite eigenvalues) free. The entries
between directions the control does not see are solved in closed form;
the rest are two dense systems, one per transpose parity, by one solver
(_eigenbasis_solutions) for every spectrum. One Spectrum (the
eigendecomposition of the drift and its rotation by the control) serves
all three eigenbasis detectors, and their solutions stay eigenbasis
unknowns until a basis is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _exact
from .network import NetworkSpec

_DEGENERACY_TOL = 1e-10         # eigenvalue gap, relative, that splits eigenspaces
DARK_TOL = 1e-8                 # control overlap at or below which a direction is dark
_AUTOMORPHISM_NODE_CAP = 1_000_000  # partial assignments before the search gives up
_WEIGHT_RTOL = 1e-12            # relative gap below which two edge weights are one class


class DecompositionError(RuntimeError):
    """The blocks of decompose leave h0 or h1 short of block-diagonal form."""


@dataclass
class Spectrum:
    """eigh(h0) and its eigenspaces (`labels`, split at gaps above
    _DEGENERACY_TOL relative to _scale), with a control h1 also the
    _bright_first rotation of the eigenspaces: made once per network by
    analyze and shared by the detectors. dark_states reads the unrotated
    vectors."""

    values: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray
    rotation: tuple | None = None

    @classmethod
    def of(cls, h0: np.ndarray, h1: np.ndarray | None = None) -> Spectrum:
        w, v = np.linalg.eigh(h0)
        labels = _group_labels(w, _DEGENERACY_TOL * _scale(w))
        return cls(w, v, labels, None if h1 is None else _bright_first(v.copy(), labels, h1))


@dataclass
class _Unknowns:
    """Real matrices X'_k of one transpose parity: unknown entries (r, s),
    r <= s, and coefficients over them (see _parity_matrices). Each of the
    first `free` unknowns is a solution of its own, then each column of
    null gives one over the others."""

    r: np.ndarray
    s: np.ndarray
    free: int
    null: np.ndarray
    parity: float

    def __len__(self) -> int:
        return self.free + self.null.shape[1]

    def coefficients(self) -> np.ndarray:
        """(unknowns, len): the coefficients of every solution."""
        c = np.zeros((self.r.size, len(self)))
        c[np.arange(self.free), np.arange(self.free)] = 1.0
        c[self.free:, self.free:] = self.null
        return c

    def stack(self, v: np.ndarray) -> np.ndarray:
        """The solutions v X'_k v^T, (len, d, d)."""
        return v @ _parity_matrices(len(v), self.r, self.s, self.coefficients(),
                                    self.parity) @ v.T

    def combination(self, d: int, coeff: np.ndarray) -> np.ndarray:
        """sum_k coeff[k] X'_k as one d x d matrix."""
        weights = np.concatenate([coeff[:self.free], self.null @ coeff[self.free:]])
        return _parity_matrices(d, self.r, self.s, weights[:, None], self.parity)[0]


def _no_unknowns(parity: float) -> _Unknowns:
    empty = np.zeros(0, dtype=np.intp)
    return _Unknowns(empty, empty, 0, np.zeros((0, 0)), parity)


@dataclass
class _EigenbasisSolutions:
    """Solutions v X' v^T kept as eigenbasis unknowns, v the rotated
    eigenvectors of h0: the symmetric ones, then the antisymmetric ones
    times `_unit`. `basis` writes them out, (dimension, d, d), on first
    read."""

    vectors: np.ndarray
    symmetric: _Unknowns
    antisymmetric: _Unknowns

    @property
    def dimension(self) -> int:
        return len(self.symmetric) + len(self.antisymmetric)

    def element(self, coeff: np.ndarray) -> np.ndarray:
        """X' with sum_k coeff[k] basis[k] = v X' v^T, without the basis;
        real when there are no antisymmetric solutions."""
        d, n = len(self.vectors), len(self.symmetric)
        x = self.symmetric.combination(d, coeff[:n])
        if len(self.antisymmetric):
            x = x + self._unit * self.antisymmetric.combination(d, coeff[n:])
        return x

    @functools.cached_property
    def basis(self) -> np.ndarray:
        sym = self.symmetric.stack(self.vectors)
        out = np.zeros((self.dimension,) + self.vectors.shape, dtype=type(self._unit))
        out[:len(sym)] = sym
        (out.imag if self._unit == 1j else out)[len(sym):] = \
            self.antisymmetric.stack(self.vectors)
        return out


@dataclass
class CommutantBasis(_EigenbasisSolutions):
    """Hermitian matrices commuting with h0 and h1: S and iA for the real
    symmetric and antisymmetric solutions, each X' block diagonal over the
    eigenspaces `labels` of h0. The basis is orthonormal under
    Re tr(A^H B)."""

    labels: np.ndarray
    _unit = 1j

    @property
    def has_external_symmetry(self) -> bool:
        return self.dimension > 1


@dataclass
class DarkStateSet:
    """Eigenvectors of h0 with zero amplitude on every controlled node."""

    vectors: np.ndarray      # (d, count), orthonormal columns
    eigenvalues: np.ndarray  # (count,)
    residuals: np.ndarray    # max |v_k| over controls, per vector
    spectrum: np.ndarray     # (d,) every eigenvalue of h0, ascending
    groups: list[tuple[int, int]]  # eigenspaces, as [lo, hi) ranges of spectrum
    overlaps: np.ndarray     # per eigenspace, largest singular value of its control rows

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


@dataclass
class BrightStructure:
    """Closure dimension of a single-node Z-control, read off the spectrum.

    `dimension` is named as on a closure result, so lie.verdict reads it.
    `resolved` is False when some bright eigenspace holds more than one
    computed eigenvalue: n_B then counts it once, which is right only if
    the merged eigenvalues are exactly equal. The four margins say how far
    the two decisions behind it sit from their thresholds: the control
    overlap of each eigenspace against DARK_TOL, and each relative
    eigenvalue gap against _DEGENERACY_TOL. A gap field is None when no gap
    was split (merged).
    """

    bright_dimension: int        # n_B = dim B
    trace_rank: int              # r
    resolved: bool               # every bright eigenspace holds one eigenvalue
    min_bright_overlap: float    # smallest |v_k| of a bright eigenspace
    max_dark_overlap: float      # largest |v_k| of a dark eigenspace, 0 if none
    min_split_gap: float | None  # smallest relative gap between eigenspaces
    max_merged_gap: float | None  # largest relative gap inside an eigenspace

    @property
    def dimension(self) -> int:
        return self.bright_dimension ** 2 - 1 + self.trace_rank


@dataclass
class AnticommutantResult(_EigenbasisSolutions):
    """Real solutions of the anticommutation condition of internal_symmetry."""

    has_internal_symmetry: bool = False
    _unit = 1.0

    @property
    def symmetry_type(self) -> str | None:
        """"orthogonal", "symplectic", "mixed", or None."""
        if not self.dimension:
            return None
        if len(self.symmetric) and len(self.antisymmetric):
            return "mixed"
        return "orthogonal" if len(self.symmetric) else "symplectic"


@dataclass
class InternalSymmetryCertificate:
    """Exact-arithmetic check of one candidate internal symmetry S."""

    antisymmetric: bool
    invertible: bool
    anticommutes: bool  # S Hb + Hb^T S = 0 for both traceless generators

    @property
    def holds(self) -> bool:
        return self.antisymmetric and self.invertible and self.anticommutes


@dataclass
class DecompositionReport:
    block_sizes: tuple[int, ...]           # sorted ascending
    block_projectors: list[np.ndarray]     # orthonormal column bases, same order


def commutant(h0: np.ndarray, h1: np.ndarray, tolerance: float = 1e-9,
              spectrum: Spectrum | None = None) -> CommutantBasis:
    """Hermitian matrices commuting with both h0 and h1.

    In the eigenbasis V of h0 a real M commutes with h0 iff M' = V^T M V
    is block diagonal over the eigenspaces (eigenvalues grouped as in
    dark_states); the control condition is [V^T h1 V, M'] = 0. Each
    eigenspace is rotated so that its dark directions (h1 v = 0) come last.
    Its dark x dark block is then free, (m - r)^2 elements, and its mixed
    dark x bright entries vanish: the dark row of M' meets only the bright
    columns of V^T h1 V, whose singular values are those of h1 V_g. Only the
    bright x bright entries reach the solver. A symmetric solution S and an
    antisymmetric one A are the Hermitian S and iA; both maps are
    isometries, so the basis stays orthonormal. A given `spectrum`
    (Spectrum.of(h0, h1)) is reused, not recomputed.
    """
    spec = spectrum or Spectrum.of(h0, h1)
    v, b, bright = _bright_mask(spec.rotation, tolerance)
    rows, cols = _upper_pairs(spec.labels[:, None] == spec.labels)
    sym, anti = _eigenbasis_solutions(b, bright, 0.0, rows, cols, -1.0, tolerance)
    return CommutantBasis(v, sym, anti, spec.labels)


def dark_states(h0: np.ndarray, controls, tolerance: float = DARK_TOL,
                spectrum: Spectrum | None = None) -> DarkStateSet:
    """Intersect each eigenspace of h0 with {v : v_k = 0 for k in controls}.

    Eigenvalues are grouped into eigenspaces when gaps fall below
    _DEGENERACY_TOL relative to the spectral scale; within each group the
    dark directions are the null vectors of the control-row block. The
    spectrum, the grouping and each group's control overlap are kept, so
    bright_structure needs no second eigendecomposition. A given `spectrum`
    (Spectrum.of(h0, ...)) is reused; its unrotated vectors are read.
    """
    d = h0.shape[0]
    ctrl = sorted(int(k) - 1 for k in controls)
    spec = spectrum or Spectrum.of(h0)
    w, v = spec.values, spec.vectors
    groups = _ranges(spec.labels)
    overlaps = np.zeros(len(groups))
    vecs = []
    vals = []
    control_rows = v[ctrl]
    for g, (lo, hi) in enumerate(groups):
        rows = control_rows[:, lo:hi]
        if rows.shape == (1, 1) and abs(rows[0, 0]) > tolerance:
            overlaps[g] = abs(rows[0, 0])  # one bright direction, the 1 x 1 SVD's value
            continue
        _, s, vt = np.linalg.svd(rows, full_matrices=True)
        overlaps[g] = s[0] if s.size else 0.0
        rank = int(np.sum(s > tolerance)) if s.size else 0
        for j in range(rank, hi - lo):
            dark = v[:, lo:hi] @ vt[j]
            vecs.append(dark)
            vals.append(w[lo:hi].mean())
    if vecs:
        vmat = np.column_stack(vecs)
        residuals = np.abs(vmat[ctrl, :]).max(axis=0)
    else:
        vmat = np.zeros((d, 0))
        residuals = np.zeros(0)
    return DarkStateSet(vectors=vmat, eigenvalues=np.array(vals), residuals=residuals,
                        spectrum=w, groups=groups, overlaps=overlaps)


def bright_structure(dark: DarkStateSet) -> BrightStructure:
    """Dimension of the Lie closure of {i h0, i h1}, h1 = e_k e_k^T for the
    one controlled node k, from `dark` = dark_states(h0, (k,)): the
    spectrum and grouping of its one eigendecomposition of h0 (the one
    analyze shares among the detectors) are reused, not recomputed.

    An eigenspace with projector P_j is bright when its control overlap
    |P_j e_k| exceeds DARK_TOL (the rule dark_states applies to its one-row
    SVD, so d - n_B is the dark-state count; a set built with another
    tolerance or more controls that breaks this raises ValueError).
    B = span{h0^m e_k} = span{P_j e_k : j bright} has one dimension per
    bright eigenspace; D = B-perp is spanned by the dark states. Then, for
    any real symmetric h0,

        dim L = n_B^2 - 1 + r,  r = 1 + [h0 restricted to D is nonzero],

    and h0|_D is nonzero iff some dark eigenvalue lies beyond the degeneracy
    gap from 0.

    The count is exact when each eigenspace of the grouping is an eigenspace
    of h0. Two distinct eigenvalues closer than the degeneracy gap that both
    meet k are two bright directions, not one bright and one dark; floating
    point cannot tell such a pair from an exact degeneracy. `resolved` says
    that no bright eigenspace holds more than one computed eigenvalue, so
    that n_B does not rest on the grouping.

    Upper bound. h0 and h1 leave B and D invariant (B is a Krylov space and
    both are symmetric) and h1 vanishes on D. So on D every element of L is
    a multiple of h0|_D, and every commutator vanishes on D and is traceless
    on B: [L, L] lies in su(B) + 0, and L in su(B) + span(h0, h1). This is
    the argument of _exact._dark_split, and why _exact.exact_structure
    needs only the Krylov space B over Q.

    Lower bound: su(B) + 0 lies in L. Put A = h0|_B, P = h1|_B = e e^T with
    e = e_k, x_m = A^m e and g_m = e^T A^m e; x_0..x_{n_B-1} is a basis of
    B since e is cyclic for A. With s(m, q) = i(x_m x_q^T + x_q x_m^T) and
    a(m, q) = x_m x_q^T - x_q x_m^T, direct expansion gives
        [iP, a(0, q)] = g_0 s(0, q) - g_q s(0, 0),
        [iP, s(0, q)] = -g_0 a(0, q),
        [iP, [iA, s(0, q)]] = g_0 s(0, q+1) - g_1 s(0, q)
                              + g_q s(0, 1) - g_{q+1} s(0, 0),
        [a(0, m), a(0, q)] = -g_0 a(m, q) + g_m a(0, q) - g_q a(0, m),
        [iA, a(m, q)] = s(m+1, q) - s(m, q+1).
    From s(0, 0) = 2iP and g_0 = 1 > 0, induction on q puts every s(0, q)
    and a(0, q) in the algebra generated by iA and iP, then every a(m, q),
    then every s(m, q) along m + q = const. These span i Sym(B) + Asym(B)
    = u(B). Restriction to B is a homomorphism from L onto u(B), so [L, L]
    restricts onto su(B); it vanishes on D, hence equals su(B) + 0. (This
    is Godsil & Severini, PRA 81, 052316 (2010), with the all-ones vector
    replaced by any cyclic vector; that no so or sp case remains matches the
    symmetry criterion of Zimboras et al., PRA 92, 042309 (2015).)

    So L = su(B) + span(h0, h1), and r is the rank of the two rows
    (tr h|_B, h|_D) for h = h0, h1: (tr A, h0|_D) and (1, 0).
    """
    w, groups, overlaps = dark.spectrum, dark.groups, dark.overlaps
    scale = _scale(w)
    gap = _DEGENERACY_TOL * scale
    bright = overlaps > DARK_TOL
    if len(w) - int(bright.sum()) != dark.count:
        raise ValueError("bright_structure needs the dark states of one "
                         "controlled node at DARK_TOL")
    sizes = np.array([hi - lo for lo, hi in groups])
    # dark directions: the whole of a dark eigenspace, all but one of a bright one
    traced = any(abs(w[lo:hi].mean()) > gap
                 for (lo, hi), lit in zip(groups, bright) if hi - lo > lit)
    steps = np.diff(w)
    split = steps > gap
    return BrightStructure(
        bright_dimension=int(bright.sum()),
        trace_rank=1 + traced,
        resolved=bool((sizes[bright] == 1).all()),
        min_bright_overlap=float(overlaps[bright].min()),
        max_dark_overlap=float(overlaps[~bright].max(initial=0.0)),
        min_split_gap=float(steps[split].min()) / scale if split.any() else None,
        max_merged_gap=float(steps[~split].max()) / scale if (~split).any() else None)


def internal_symmetry(h0: np.ndarray, h1: np.ndarray, tolerance: float = 1e-9,
                      spectrum: Spectrum | None = None) -> AnticommutantResult:
    """Solutions of Hb^T S + S Hb = 0 for the traceless shifts of h0 and h1.

    Solved over real S (the Hamiltonians are real symmetric, so the real and
    imaginary parts of any complex solution solve separately). In the
    eigenbasis V of Hb0 (that of h0) S' = V^T S V may be nonzero only at the
    entries (i, j) with lambda_i + lambda_j = 0, with the eigenvalues of
    Hb0 grouped at their own gap; those unknowns are constrained by the Hb1
    anticommutator and each solution maps back as V S' V^T. With V rotated
    as in commutant (the rotation of `spectrum` when the two groupings
    agree), V^T Hb1 V is -tau on the diagonal of a dark direction and zero
    elsewhere in its row (tau = tr h1 / d), so a dark x dark unknown meets
    only its own equation, with coefficient -2 tau: it vanishes unless tau
    does. The symmetric solutions signal orthogonal type, the antisymmetric
    ones symplectic; an internal symmetry needs an invertible solution.
    """
    d = h0.shape[0]
    spec = spectrum or Spectrum.of(h0)
    w = spec.values - np.trace(h0) / d  # the spectrum of Hb0
    gap = _DEGENERACY_TOL * _scale(w)
    labels = _group_labels(w, gap)
    w = (np.bincount(labels, w) / np.bincount(labels))[labels]  # pair whole eigenspaces
    rows, cols = _upper_pairs(np.abs(w[:, None] + w) <= gap)
    v, sym, anti = spec.vectors, _no_unknowns(1.0), _no_unknowns(-1.0)
    if rows.size:
        shared = spec.rotation is not None and np.array_equal(labels, spec.labels)
        rotation = spec.rotation if shared else _bright_first(spec.vectors.copy(), labels, h1)
        v, b, bright = _bright_mask(rotation, tolerance)
        sym, anti = _eigenbasis_solutions(b, bright, np.trace(h1) / d, rows, cols, 1.0,
                                          tolerance)
    out = AnticommutantResult(v, sym, anti)
    if out.dimension:
        rng = np.random.default_rng(0)
        for _ in range(8):
            cand = v @ out.element(rng.standard_normal(out.dimension)) @ v.T
            smin = np.linalg.svd(cand, compute_uv=False)[-1]
            if smin > tolerance * max(1.0, np.abs(cand).max()):
                out.has_internal_symmetry = True
                break
    return out


def certify_internal_symmetry(s, h0: np.ndarray,
                              h1: np.ndarray) -> InternalSymmetryCertificate:
    """Check a rational candidate S against the traceless shifts of h0, h1.

    All entries are read as exact rationals and every generator is replaced
    by the integer multiple of its traceless shift (see
    _exact.traceless_integer); the anticommutation condition is homogeneous,
    so the rescaling changes nothing and the check needs no tolerance.
    Invertibility is a certified full integer rank. A certificate that holds
    places the closure inside sp(d/2) + u(1).
    """
    s_int = _exact.integerize(s)
    d = s_int.shape[0]
    anticommutes = True
    for h in (h0, h1):
        hb = _exact.traceless_integer(h)
        anticommutes &= not np.any(s_int @ hb + hb.T @ s_int)
    return InternalSymmetryCertificate(
        antisymmetric=not np.any(s_int.T + s_int),
        invertible=_exact.integer_rank(s_int) == d,
        anticommutes=anticommutes)


class AutomorphismGenerators(list):
    """Sorted generating set of a graph's automorphism group.

    A list of permutation tuples p with p[i-1] = image of node i, none of
    them the identity and at most n - 1 of them; `order` is the order of
    the group they generate, identity included.
    """

    def __init__(self, generators, order: int):
        super().__init__(sorted(generators))
        self.order = order


def graph_automorphisms(spec: NetworkSpec) -> AutomorphismGenerators:
    """Generators of the node permutations preserving weighted edges and
    controls, with the group order.

    Iterated color refinement (control flag, degree, incident-weight
    profile) fixes a base: the nodes sorted by color. The stabiliser chain
    is built from the last base point to the first. At base point b_i the
    generators found so far all fix b_1..b_{i-1}; for each node c of b_i's
    color outside the orbit of b_i under them, one backtracking search with
    b_1..b_{i-1} fixed and b_i -> c either finds an automorphism, which
    becomes a generator, or proves c lies outside the orbit. Each generator
    joins two orbits of the group found so far, so there are at most n - 1,
    and the group order is the product of the basic orbit sizes
    (orbit-stabiliser). The searches visit at most _AUTOMORPHISM_NODE_CAP
    partial assignments in all and raise beyond that.
    """
    n = spec.node_count
    nodes = range(1, n + 1)
    adj = spec.adjacency()
    wclasses = _weight_classes(sorted({g for _, _, g in spec.edges}))
    # per node (index 0 unused), its neighbours and the weight class of each edge
    links = [{}] + [{w: wclasses[g] for w, g in adj[v]} for v in nodes]
    controls = set(spec.controls)

    pairs = [list(at.items()) for at in links]
    color = [None] + [(v in controls, len(links[v]), tuple(sorted(links[v].values())))
                      for v in nodes]
    count = len(set(color[1:]))
    for _ in range(n):
        newcolor = []
        for v in nodes:
            profile = [(color[w], c) for w, c in pairs[v]]
            profile.sort()
            newcolor.append((color[v], tuple(profile)))
        ranks = {c: i for i, c in enumerate(sorted(set(newcolor), key=repr))}
        color = [None] + [ranks[c] for c in newcolor]
        if len(ranks) == count:
            break
        count = len(ranks)

    base = sorted(nodes, key=lambda v: (color[v], v))
    # the images fits can accept for v: the nodes of its color, ascending
    same_color: dict = {}
    for v in nodes:
        same_color.setdefault(color[v], []).append(v)
    generators: list[tuple[int, ...]] = []
    group_order = 1
    mapping = [0] * (n + 1)  # image of each node, 0 while unassigned
    used = [False] * (n + 1)
    visited = 0

    def fits(v: int, img: int) -> bool:  # img has v's color
        """img is free, every assigned neighbour of v maps to a neighbour of
        img by an edge of its weight class, and img has no others."""
        if used[img]:
            return False
        at_img = links[img]
        mapped = 0
        for w, c in pairs[v]:
            if mapping[w]:
                if at_img.get(mapping[w]) != c:
                    return False
                mapped += 1
        return mapped == sum(used[w] for w in at_img)

    def extend(pos: int) -> bool:
        """Complete the mapping from base[pos] on; True once it is full."""
        nonlocal visited
        visited += 1
        if visited > _AUTOMORPHISM_NODE_CAP:
            raise RuntimeError("automorphism search cap exceeded "
                               f"({_AUTOMORPHISM_NODE_CAP} nodes)")
        if pos == n:
            return True
        v = base[pos]
        for img in same_color[color[v]]:
            if fits(v, img):
                mapping[v], used[img] = img, True
                if extend(pos + 1):
                    return True
                mapping[v], used[img] = 0, False
        return False

    try:
        for i in range(n - 1, -1, -1):
            b = base[i]
            orbit = _orbit(b, generators)
            for c in base[i + 1:]:
                if c in orbit or color[c] != color[b]:
                    continue
                mapping[:] = [0] * (n + 1)
                used[:] = [False] * (n + 1)
                for v in base[:i]:
                    mapping[v], used[v] = v, True
                if fits(b, c):
                    mapping[b], used[c] = c, True
                    if extend(i + 1):
                        generators.append(tuple(mapping[1:]))
                        orbit = _orbit(b, generators)
            group_order *= len(orbit)
    finally:
        del extend  # self-reference: a cycle that would keep the search state alive
    return AutomorphismGenerators(generators, group_order)


def _orbit(point: int, generators: list[tuple[int, ...]]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for g in generators:
            if g[x - 1] not in orbit:
                orbit.add(g[x - 1])
                frontier.append(g[x - 1])
    return orbit


def decompose(h0: np.ndarray, h1: np.ndarray, comm: CommutantBasis,
              tolerance: float = 1e-9, seed: int = 0) -> DecompositionReport:
    """Invariant blocks from the eigenspaces of a generic commutant element.

    Eigenspaces of any commutant element, and unions of them, are invariant
    under h0 and h1, so one random-coefficient element splits the space;
    eigenvalues within 1e-6 of its scale are one block. The element is built
    from comm's eigenbasis unknowns as v X' v^T with X' block diagonal over
    the eigenspaces of h0, so its eigenvectors come from one eigh per
    eigenspace. A block with an entry of h0 or h1 outside it beyond
    tolerance raises DecompositionError: a second element could only split
    the blocks further, which removes no such entry.
    """
    d = h0.shape[0]
    if comm.dimension <= 1:
        return DecompositionReport(block_sizes=(d,), block_projectors=[np.eye(d)])
    coeff = np.random.default_rng(seed).standard_normal(comm.dimension)
    x = comm.element(coeff / np.linalg.norm(coeff))
    v, labels = comm.vectors, comm.labels
    w = x.diagonal().real.copy()
    vecs = v.astype(x.dtype)
    for g in np.flatnonzero(np.bincount(labels) > 1):
        cols = np.flatnonzero(labels == g)
        w[cols], u = np.linalg.eigh(x[np.ix_(cols, cols)])
        vecs[:, cols] = v[:, cols] @ u
    order = np.argsort(w, kind="stable")
    w, vecs = w[order], vecs[:, order]
    projectors = [vecs[:, lo:hi] for lo, hi in _ranges(_group_labels(w, 1e-6 * _scale(w)))]
    worst = _off_block_residual((h0, h1), projectors)
    if worst > tolerance * max(1.0, np.abs(h0).max(), np.abs(h1).max()):
        raise DecompositionError(f"eigenspaces of a generic commutant element are not "
                                 f"invariant: off-block residual {worst}")
    ordered = sorted(projectors, key=lambda p: p.shape[1])
    return DecompositionReport(block_sizes=tuple(p.shape[1] for p in ordered),
                               block_projectors=ordered)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of a, descending, and a full set of right singular
    vectors: the rows of vt past the last value above a threshold span the
    nullspace."""
    cols = a.shape[1]
    if not a.size:
        return np.zeros(0), np.eye(cols)
    # a tall system needs only the thin factors: vt is then cols x cols already
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < cols)
    return s, vt


def _bright_first(v: np.ndarray, labels: np.ndarray, h: np.ndarray):
    """Rotate each eigenspace (the columns of v with one label) by the right
    singular vectors of h V_g, so that its directions come in descending
    |h v|; a singleton keeps its column and reads |h v| as a column norm.

    Returns the rotated v, b = v^T h v and sigma = |h v| per column. The
    columns of b in one eigenspace are then orthogonal, with norms sigma.
    """
    hv = h @ v
    sigma = np.sqrt(np.einsum("ij,ij->j", hv, hv))
    if labels[-1] + 1 < len(labels):  # some eigenspace holds several directions
        for g in np.flatnonzero(np.bincount(labels) > 1):
            cols = np.flatnonzero(labels == g)
            _, sigma[cols], vt = np.linalg.svd(hv[:, cols], full_matrices=False)
            v[:, cols] = v[:, cols] @ vt.T
            hv[:, cols] = hv[:, cols] @ vt.T
    return v, v.T @ hv, sigma


def _bright_mask(rotation, tolerance: float):
    """(v, b, bright) from a _bright_first rotation: a direction is bright
    when |h v| exceeds tolerance relative to the largest (at least 1), and
    the rows and columns of b at the dark ones are set to zero, in a copy
    of b that the caller owns."""
    v, b, sigma = rotation
    bright = sigma > tolerance * max(1.0, sigma.max())
    b = b.copy()
    if not bright.all():
        b[~bright] = 0.0
        b[:, ~bright] = 0.0
    return v, b, bright


def _upper_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, where the symmetric mask holds."""
    rows, cols = np.nonzero(mask)
    upper = rows <= cols
    return rows[upper], cols[upper]


def _eigenbasis_solutions(b: np.ndarray, bright: np.ndarray, shift: float,
                          rows: np.ndarray, cols: np.ndarray, sign: float,
                          tolerance: float) -> tuple[_Unknowns, _Unknowns]:
    """Real X' with c X' + sign X' c = 0, c = b - shift I for b from
    _bright_mask, where X' is zero outside the unknown entries (rows[k],
    cols[k]) and their transposes (rows <= cols). Returned as the unknowns
    of the symmetric solutions and of the antisymmetric ones, each
    orthonormal in Frobenius norm.

    c is symmetric, so [c, .] and {c, .} map each transpose parity of X' to
    a fixed parity: the two parities are two systems (see _parity_system)
    whose singular values together are those of the full d^2-row system. A
    simple spectrum leaves the commutator only diagonal unknowns, all
    symmetric: one system, with the rows sqrt(2) c[p, q] (x_q - x_p), p < q.
    In the row and column of a dark direction c is -shift on the diagonal
    and zero elsewhere, so a dark x dark unknown meets only its own
    equation, with coefficient -shift (1 + sign): it is free when that is
    at the threshold and zero otherwise. For the commutator (sign = -1,
    shift = 0, unknowns inside eigenspaces) the image of a dark x bright
    unknown (p, q) is the row c[q] placed in row p, where no other unknown
    reaches; the bright columns of b in one eigenspace are orthogonal, so
    these unknowns vanish, with the singular values |c[q]|. The solver sees
    the other unknowns, on the directions they touch: the bright ones and
    the dark ones that share an unknown with a bright one. The threshold is
    tolerance times the largest singular value of all parts, at least 1, as
    for the full system.
    """
    d = len(b)
    s_mixed = 0.0
    if bright.all():
        free = rows[:0], cols[:0]
        c, at = b, np.arange(d)  # b is the caller's own copy
    else:
        lit_r, lit_c = bright[rows], bright[cols]
        dark = ~(lit_r | lit_c)
        free = rows[dark], cols[dark]
        mixed = lit_r != lit_c
        if sign < 0 and mixed.any():
            q = b[:, np.where(lit_r, rows, cols)[mixed]]
            s_mixed = float(np.sqrt(np.einsum("ij,ij->j", q, q)).max())
        solve = lit_r & lit_c if sign < 0 else ~dark
        rows, cols = rows[solve], cols[solve]
        touched = bright.copy()
        touched[rows] = touched[cols] = True
        c, at = b[touched][:, touched], np.cumsum(touched) - 1  # position in c
    if shift:
        c.flat[::len(c) + 1] -= shift
    off = rows < cols
    systems = [(r, s, *(_svd(_parity_system(c, at[r], at[s], parity, sign)) if r.size
                        else (np.zeros(0), np.zeros((0, 0)))))
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
        out.append(_Unknowns(np.concatenate([free[0], r]), np.concatenate([free[1], s]),
                             free[0].size, vt[np.count_nonzero(s_vals > threshold):].T,
                             parity))
    return out[0], out[1]


def _parity_system(c: np.ndarray, r: np.ndarray, s: np.ndarray, parity: float,
                   sign: float) -> np.ndarray:
    """Matrix of X' -> c X' + sign X' c on the unknowns E_k of
    _parity_matrices, all of transpose parity `parity`. For symmetric c,
    E_k c = parity (c E_k)^T, so the image of E_k is P + sign parity P^T,
    P = c E_k, of parity sign * parity. The rows are the upper triangle of
    the image, weighted by sqrt(2) off the diagonal, so that the singular
    values are those of the map in Frobenius norm; the strict upper
    triangle for an antisymmetric image, whose diagonal is zero.

    P has two nonzero columns, a_k c[:, r] at s and parity a_k c[:, s] at
    r, so E_k reaches only the lines r and s of the triangle: its column is
    written from those two columns of c (read from its upper triangle, so
    that c[x, y] and c[y, x] are one number), and no image is formed."""
    if not r.size:
        return np.zeros((0, 0))
    line, weight, upper, count = _triangle(len(c), sign * parity < 0)
    a = np.where(r == s, 0.5, np.sqrt(0.5))[:, None]
    sym = c.ravel()[upper]
    offset = (count + 1) * np.arange(r.size)[:, None]
    out = np.zeros((r.size, count + 1))  # the system transposed, and a spare row
    flat = out.ravel()
    flat[line[s] + offset] = a * sym[r] * weight[s]
    flat[line[r] + offset] += parity * a * sym[s] * weight[r]
    return out[:, :count].T


@functools.lru_cache(maxsize=None)
def _triangle(n: int, strict: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The rows of _parity_system for an n x n image, symmetric or (strict)
    antisymmetric, as tables indexed [y, x] by the column y of P and the
    row x: the row P[x, y] lands in, (x, y) or (y, x) of the upper triangle
    (row-major), or one past the last for the diagonal of a strict one; its
    weight, sqrt(2) off the diagonal, negated below it when strict, and 2
    on it, where P[x, x] enters twice; the flat index of
    c[min(x, y), max(x, y)]. Then the number of rows."""
    idx = np.arange(n)
    above = idx[:, None] < idx if strict else idx[:, None] <= idx
    count = int(above.sum())
    line = np.full((n, n), count)
    line[above] = np.arange(count)
    line = np.minimum(line, line.T)
    weight = np.where(strict & (idx[:, None] < idx), -np.sqrt(2.0), np.sqrt(2.0))
    weight[idx, idx] = 2.0
    upper = np.minimum(idx[:, None], idx) * n + np.maximum(idx[:, None], idx)
    line.flags.writeable = weight.flags.writeable = upper.flags.writeable = False
    return line, weight, upper, count


def _parity_matrices(n: int, r: np.ndarray, s: np.ndarray, coeff: np.ndarray,
                     parity: float) -> np.ndarray:
    """Stack of n x n matrices, sum_k coeff[k, i] E_k over the unknowns
    (r, s) for each column i of coeff. E_k = a_k (e_r e_s^T + parity e_s
    e_r^T), a_k = 1/sqrt(2) off the diagonal and 1/2 on it."""
    out = np.zeros((coeff.shape[1], n, n))
    if coeff.size:
        scaled = (np.where(r == s, 0.5, np.sqrt(0.5))[:, None] * coeff).T
        out[:, r, s] = scaled
        out[:, s, r] += parity * scaled
    return out


def _scale(w: np.ndarray) -> float:
    """Spectral scale of eigenvalues w, at least 1: eigenvalue gaps are
    measured relative to it."""
    return max(1.0, float(np.abs(w).max()) if w.size else 1.0)


def _group_labels(w: np.ndarray, gap: float) -> np.ndarray:
    """Per eigenvalue (ascending), the index of its cluster: clusters are
    separated by gaps > gap."""
    labels = np.zeros(len(w), dtype=np.intp)
    np.cumsum(np.diff(w) > gap, out=labels[1:])
    return labels


def _ranges(labels: np.ndarray):
    """The clusters of _group_labels as index ranges [lo, hi)."""
    edges = np.searchsorted(labels, np.arange(labels[-1] + 2)).tolist()
    return list(zip(edges[:-1], edges[1:]))


def _off_block_residual(hs, projectors: list[np.ndarray]) -> float:
    """Largest entry of each h outside the blocks, h - sum_p p p^H h p p^H,
    computed once in the stacked basis q of the projectors: q^H h q with its
    diagonal blocks zeroed, mapped back through q."""
    q = np.hstack(projectors)
    labels = np.repeat(np.arange(len(projectors)), [p.shape[1] for p in projectors])
    inside = labels[:, None] == labels[None, :]
    worst = 0.0
    for h in hs:
        m = q.conj().T @ h @ q
        m[inside] = 0.0
        worst = max(worst, float(np.abs(q @ m @ q.conj().T).max()))
    return worst


def _weight_classes(sorted_weights: list[float]) -> dict[float, int]:
    classes: dict[float, int] = {}
    cls = -1
    prev = None
    for g in sorted_weights:
        if prev is None or abs(g - prev) > _WEIGHT_RTOL * max(abs(g), abs(prev), 1.0):
            cls += 1
        classes[g] = cls
        prev = g
    return classes
