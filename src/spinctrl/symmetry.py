"""Symmetry detectors: commutant, dark states, anticommutant, automorphisms,
and the invariant-block decomposition.

A Hermitian S commuting with both Hamiltonians splits the space into
invariant blocks; for real symmetric h the real matrix solutions of
[h, M] = 0 decompose into a symmetric and an antisymmetric part that each
commute, and M -> sym(M) + i*antisym(M) is a bijection onto the Hermitian
commutant, so the dimension of the real solution space already is the
Hermitian commutant dimension. The commutant and the anticommutant are
solved in the eigenbasis of the drift, where it leaves only the entries
inside eigenspaces (or pairing opposite eigenvalues) free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _exact
from .network import NetworkSpec

_DEGENERACY_TOL = 1e-10         # eigenvalue gap, relative, that splits eigenspaces
DARK_TOL = 1e-8                 # control overlap at or below which a direction is dark
_MAX_DRAWS = 5                  # generic commutant elements tried by decompose
_AUTOMORPHISM_NODE_CAP = 1_000_000  # partial assignments before the search gives up
_WEIGHT_RTOL = 1e-12            # relative gap below which two edge weights are one class


class DecompositionError(RuntimeError):
    """Block refinement failed to reach block-diagonal form."""


@dataclass
class CommutantBasis:
    dimension: int
    basis: list[np.ndarray]  # Hermitian, orthonormal under Re tr(A^H B)
    has_external_symmetry: bool


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
class AnticommutantResult:
    dimension: int
    has_internal_symmetry: bool
    symmetry_type: str | None  # "orthogonal", "symplectic", "mixed", or None
    basis: list[np.ndarray] = field(default_factory=list)


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


def commutant(h0: np.ndarray, h1: np.ndarray, tolerance: float = 1e-9) -> CommutantBasis:
    """Hermitian matrices commuting with both h0 and h1.

    In the eigenbasis V of h0 a real M commutes with h0 iff M' = V^T M V
    is block diagonal over the eigenspaces (eigenvalues grouped as in
    dark_states), so only those sum(m_i^2) entries are unknowns. They are
    the nullspace of M' -> [V^T h1 V, M']; each solution maps back as
    V M' V^T. Both maps are isometries, so the basis stays orthonormal.
    """
    w, v = np.linalg.eigh(h0)
    groups = np.zeros(len(w), dtype=int)
    for label, (lo, hi) in enumerate(_eigen_groups(w, _DEGENERACY_TOL * _scale(w))):
        groups[lo:hi] = label
    sols = _eigenbasis_solutions(v, groups[:, None] == groups[None, :], h1, -1.0,
                                 tolerance)
    herm = [0.5 * (m + m.T) + 0.5j * (m - m.T) for m in sols]
    return CommutantBasis(dimension=len(herm), basis=herm,
                          has_external_symmetry=len(herm) > 1)


def dark_states(h0: np.ndarray, controls, tolerance: float = DARK_TOL) -> DarkStateSet:
    """Intersect each eigenspace of h0 with {v : v_k = 0 for k in controls}.

    Eigenvalues are grouped into eigenspaces when gaps fall below
    _DEGENERACY_TOL relative to the spectral scale; within each group the
    dark directions are the null vectors of the control-row block. The
    spectrum, the grouping and each group's control overlap are kept, so
    bright_structure needs no second eigendecomposition.
    """
    d = h0.shape[0]
    ctrl = sorted(int(k) - 1 for k in controls)
    w, v = np.linalg.eigh(h0)
    groups = _eigen_groups(w, _DEGENERACY_TOL * _scale(w))
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
    one controlled node k, from `dark` = dark_states(h0, (k,)): its
    eigendecomposition and grouping are reused, not recomputed.

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
    the argument of _exact._dark_split.

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


def internal_symmetry(h0: np.ndarray, h1: np.ndarray,
                      tolerance: float = 1e-9) -> AnticommutantResult:
    """Solutions of Hb^T S + S Hb = 0 for the traceless shifts of h0 and h1.

    Solved over real S (the Hamiltonians are real symmetric, so the real and
    imaginary parts of any complex solution solve separately). In the
    eigenbasis V of Hb0, S' = V^T S V may be nonzero only at the entries
    (i, j) with lambda_i + lambda_j = 0 (within the eigenvalue gap of
    dark_states); those unknowns are constrained by the Hb1 anticommutator
    and each solution maps back as V S' V^T. Solutions split by transpose
    parity: symmetric solutions signal orthogonal type, antisymmetric ones
    symplectic; an internal symmetry needs an invertible solution.
    """
    d = h0.shape[0]
    eye = np.eye(d)
    hb0, hb1 = (h - (np.trace(h) / d) * eye for h in (h0, h1))
    w, v = np.linalg.eigh(hb0)
    paired = np.abs(w[:, None] + w[None, :]) <= _DEGENERACY_TOL * _scale(w)
    sols = _eigenbasis_solutions(v, paired, hb1, 1.0, tolerance)
    dim = len(sols)
    if dim == 0:
        return AnticommutantResult(dimension=0, has_internal_symmetry=False,
                                   symmetry_type=None)
    sym_part = [0.5 * (s + s.T) for s in sols]
    anti_part = [0.5 * (s - s.T) for s in sols]
    has_sym = _matrix_rank_of_span(sym_part, tolerance) > 0
    has_anti = _matrix_rank_of_span(anti_part, tolerance) > 0
    invertible = False
    rng = np.random.default_rng(0)
    for _ in range(8):
        coeff = rng.standard_normal(dim)
        cand = sum(c * s for c, s in zip(coeff, sols))
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin > tolerance * max(1.0, np.abs(cand).max()):
            invertible = True
            break
    if has_sym and has_anti:
        stype = "mixed"
    elif has_sym:
        stype = "orthogonal"
    else:
        stype = "symplectic"
    return AnticommutantResult(dimension=dim, has_internal_symmetry=invertible,
                               symmetry_type=stype, basis=sols)


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
    generators: list[tuple[int, ...]] = []
    group_order = 1
    mapping: dict[int, int] = {}
    used: set[int] = set()
    visited = 0

    def fits(v: int, img: int) -> bool:
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

    def assign(v: int, img: int) -> None:
        mapping[v] = img
        used.add(img)

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
        for img in range(1, n + 1):
            if fits(v, img):
                assign(v, img)
                if extend(pos + 1):
                    return True
                used.discard(img)
                del mapping[v]
        return False

    try:
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
    """Invariant blocks from eigenspaces of generic commutant elements.

    Eigenspaces of any commutant element are invariant under h0 and h1, so a
    random-coefficient element splits the space; further generic draws refine
    the partition until both Hamiltonians are block-diagonal to tolerance.
    """
    d = h0.shape[0]
    if comm.dimension <= 1:
        return DecompositionReport(block_sizes=(d,), block_projectors=[np.eye(d)])
    rng = np.random.default_rng(seed)
    projectors = [np.eye(d)]
    scale = max(1.0, np.abs(h0).max(), np.abs(h1).max())
    history = []
    for _ in range(_MAX_DRAWS):
        coeff = rng.standard_normal(comm.dimension)
        coeff /= np.linalg.norm(coeff)
        generic = sum(c * b for c, b in zip(coeff, comm.basis))
        refined = []
        for basis_cols in projectors:
            sub = basis_cols.conj().T @ generic @ basis_cols
            w, v = np.linalg.eigh(sub)
            for lo, hi in _eigen_groups(w, 1e-6 * _scale(w)):
                refined.append(basis_cols @ v[:, lo:hi])
        projectors = refined
        worst = max(_off_block_residual(h, projectors) for h in (h0, h1))
        history.append(worst)
        if worst <= tolerance * scale:
            ordered = sorted(projectors, key=lambda p: p.shape[1])
            return DecompositionReport(
                block_sizes=tuple(p.shape[1] for p in ordered),
                block_projectors=ordered)
    raise DecompositionError(
        f"block refinement stalled after {_MAX_DRAWS} draws; "
        f"off-block residuals {history}")


def _nullspace(a: np.ndarray, tolerance: float) -> np.ndarray:
    """Columns spanning {x : a x = 0}, SVD-based, threshold relative to s_max."""
    cols = a.shape[1]
    if not a.size:
        return np.eye(cols)
    # a tall system needs only the thin factors: vt is then cols x cols already
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < cols)
    rank = int(np.sum(s > tolerance * max(s.max(), 1.0)))
    return vt[rank:].T.conj()


def _eigenbasis_solutions(v: np.ndarray, support: np.ndarray, h: np.ndarray,
                          sign: float, tolerance: float) -> list[np.ndarray]:
    """Real X with X' = v^T X v zero off `support` and b X' + sign X' b = 0,
    where b = v^T h v; returned as v X' v^T, orthonormal in Frobenius norm.

    The unknowns are the entries X'[r, s] on the support. Unknown (r, s)
    enters (b X')[p, s] with coefficient b[p, r] and (X' b)[r, q] with
    b[s, q], so the system has d^2 rows and one column per unknown.
    """
    d = v.shape[0]
    rows, cols = np.nonzero(support)
    b = v.T @ h @ v
    system = np.zeros((d, d, rows.size))
    unknown = np.arange(rows.size)
    system[:, cols, unknown] = b[:, rows]
    system[rows, :, unknown] += sign * b[cols, :]
    null = _nullspace(system.reshape(d * d, rows.size), tolerance)
    out = []
    for x in null.T:
        xp = np.zeros((d, d))
        xp[rows, cols] = x
        out.append(v @ xp @ v.T)
    return out


def _scale(w: np.ndarray) -> float:
    """Spectral scale of eigenvalues w, at least 1: eigenvalue gaps are
    measured relative to it."""
    return max(1.0, float(np.abs(w).max()) if w.size else 1.0)


def _eigen_groups(w: np.ndarray, gap: float):
    """Index ranges [lo, hi) of eigenvalue clusters separated by > gap."""
    groups = []
    lo = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            groups.append((lo, i))
            lo = i
    if len(w):
        groups.append((lo, len(w)))
    return groups


def _matrix_rank_of_span(mats: list[np.ndarray], tolerance: float) -> int:
    stack = np.array([m.ravel() for m in mats])
    if not stack.size:
        return 0
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > tolerance * max(s.max(), 1.0)))


def _off_block_residual(h: np.ndarray, projectors: list[np.ndarray]) -> float:
    total = np.zeros_like(h, dtype=complex)
    for p in projectors:
        total += p @ (p.conj().T @ h @ p) @ p.conj().T
    return float(np.abs(h - total).max())


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
