"""Exact-rational commutator closure over integer matrices.

Inputs are rescaled to integer matrices (rescaling a generator never changes
the generated algebra). Every element produced from real-symmetric seeds is
pure: either i*S with S symmetric, or a real antisymmetric A, and brackets
map pure elements to pure elements, so each parity keeps its own echelon.

The closure itself uses the ad-invariance characterization: the algebra
generated by a set G equals the smallest subspace containing G that is
invariant under ad_g for every g in G (every bracket is a combination of
left-nested brackets). Each accepted element is therefore bracketed against
the generators only, which bounds the work by 2 * dim instead of dim^2 pairs.
One loop (_close) runs with either of two echelon oracles.

The modular oracle runs first: int64 matrices reduced mod the prime
_PRIME < 2**25, one preallocated reduced row echelon form per parity.
Reduction mod p commutes with the bracket, so its rank dim_p is the rank of
the reduced images of integer nested brackets, and dim_p <= dim_Q. When
dim_p >= d^2 - 1 the rational closure contains su(d), which has no
subalgebra of codimension 1; the dimension is then d^2 if some integer seed
has a nonzero trace (brackets are traceless) and d^2 - 1 otherwise, and the
elements returned are the integer basis of su(d) or u(d).

A smaller dim_p is checked against an upper bound over Q (_dark_split). B is
the smallest subspace that contains the ranges of the seed commutators and
is invariant under every seed, computed over the integers on vectors of
length d; D = B-perp is the dark part, where every seed acts and every
commutator vanishes. u(B) + span(seeds restricted to D) is then a Lie
algebra containing the seeds, so dim_p <= dim_Q <= n_B^2 + s_D, and
equality certifies the dimension. For a single-node Z-control, D is spanned
by the eigenstates of the drift with no weight on the control node, the
dark states of the paper. The bound misses internal symmetries, such as the
anticommuting one of the half-chain XX family: then, and whenever dim_p
falls short of the bound, the big-integer oracle (fraction-free row
elimination over the integers) reruns the loop and certifies the rank.
The modular pass runs only when no int64 sum can overflow,
max(d, d(d+1)/2) * (p-1)^2 < 2**63, and only for d >= 2; otherwise the
big-integer oracle runs alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# 'imag': element is i*S, S integer symmetric; 'real': element is integer antisymmetric
IMAG = "imag"
REAL = "real"

_MAX_DENOMINATOR = 1 << 30

# Prime of the modular pass, below 2**25: a product of two residues is below
# 2**50, so int64 holds any sum of up to 8191 of them.
_PRIME = 33554393
_INT64_LIMIT = 1 << 63


def is_rational(mat) -> bool:
    """True iff integerize accepts every entry of mat."""
    return all(_fraction(x) is not None for x in np.asarray(mat, dtype=object).flat)


def _fraction(x) -> Fraction | None:
    """x as an exact Fraction, or None when exact mode cannot represent it.

    Float entries are read as the exact dyadic rationals they are. An entry
    that is not finite, or whose exact denominator exceeds 2**30, gives None:
    the latter almost certainly approximates an irrational number.
    """
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, (int, np.integer)):
        f = Fraction(int(x))
    else:
        xf = float(x)
        if not math.isfinite(xf):
            return None
        f = Fraction(xf)
    return f if f.denominator <= _MAX_DENOMINATOR else None


def integerize(mat) -> np.ndarray:
    """Rescale a rational matrix to a content-reduced integer matrix.

    Raises ValueError on an entry that is_rational rejects.
    """
    rows = []
    for row in np.asarray(mat, dtype=object):
        frow = []
        for x in row:
            f = _fraction(x)
            if f is None:
                raise ValueError(
                    "exact mode: entry %r is not a finite small-denominator rational" % (x,))
            frow.append(f)
        rows.append(frow)
    den = 1
    for row in rows:
        for f in row:
            den = den * f.denominator // math.gcd(den, f.denominator)
    out = np.array([[int(f * den) for f in row] for row in rows], dtype=object)
    return _content_reduce(out)


def _content_reduce(mat: np.ndarray) -> np.ndarray:
    g = 0
    for x in mat.flat:
        g = math.gcd(g, abs(int(x)))
        if g == 1:
            return mat
    if g > 1:
        return mat // g
    return mat


def traceless_integer(mat) -> np.ndarray:
    """Content-reduced integer multiple of mat - (tr(mat) / d) * I.

    For a diagonal 0/1 control that covers half of the d states this is
    exactly 2 * Hb, the +-1 diagonal.
    """
    m = integerize(mat)
    d = m.shape[0]
    out = d * m
    tr = sum(m[i, i] for i in range(d))
    for i in range(d):
        out[i, i] -= tr
    return _content_reduce(out)


def integer_rank(mat) -> int:
    """Certified rank of an integer matrix."""
    echelon = _IntegerEchelon()
    for row in mat:
        res = echelon.residual([int(x) for x in row])
        if any(res):
            echelon.insert(res)
    return len(echelon.rows)


def _sym_coords(mat: np.ndarray, d: int) -> list[int]:
    return [int(mat[i, j]) for i in range(d) for j in range(i, d)]


def _antisym_coords(mat: np.ndarray, d: int) -> list[int]:
    return [int(mat[i, j]) for i in range(d) for j in range(i + 1, d)]


class _IntegerEchelon:
    """Row echelon over the integers, fraction-free, content-reduced rows."""

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []  # (pivot index, row)

    def residual(self, vec: list[int]) -> list[int]:
        vec = list(vec)
        for piv, row in self.rows:
            b = vec[piv]
            if b:
                a = row[piv]
                g = math.gcd(abs(a), abs(b))
                fa, fb = a // g, b // g
                vec = [fa * x - fb * y for x, y in zip(vec, row)]
        return vec

    def insert(self, vec: list[int]) -> None:
        g = 0
        for x in vec:
            g = math.gcd(g, abs(x))
            if g == 1:
                break
        if g > 1:
            vec = [x // g for x in vec]
        piv = next(i for i, x in enumerate(vec) if x)
        self.rows.append((piv, vec))
        self.rows.sort(key=lambda r: r[0])


class _IntegerOracle:
    """Big-integer arithmetic: elements are content-reduced object matrices,
    independence is decided by the fraction-free echelons."""

    def __init__(self, d: int):
        self.d = d
        self.echelons = {IMAG: _IntegerEchelon(), REAL: _IntegerEchelon()}

    @staticmethod
    def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b - b @ a

    def add(self, kind: str, mat: np.ndarray) -> np.ndarray | None:
        """The matrix to keep when mat is independent of every element added
        so far (it is then added), else None."""
        coords = _sym_coords(mat, self.d) if kind == IMAG else _antisym_coords(mat, self.d)
        echelon = self.echelons[kind]
        res = echelon.residual(coords)
        if not any(res):
            return None
        echelon.insert(res)
        return _content_reduce(mat)


class _ModularEchelon:
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
        vec = mat[self.index]
        n, lo = self.count, self.free
        rows = self.rows[:n]
        if n:
            vec[lo:] -= vec[self.pivots[:n]] @ rows[:, lo:]
            vec[lo:] %= _PRIME
        vec[:lo] = 0
        lead = np.flatnonzero(vec)
        if not lead.size:
            return False
        piv = int(lead[0])
        tail = vec[piv:] * pow(int(vec[piv]), -1, _PRIME) % _PRIME
        if n:
            block = rows[:, piv:]
            block -= np.outer(rows[:, piv], tail)
            block %= _PRIME
        self.rows[n, piv:] = tail
        self.pivots[n] = piv
        self.is_pivot[piv] = True
        while self.is_pivot[self.free]:
            self.free += 1
        self.count = n + 1
        return True


class _ModularOracle:
    """Arithmetic mod _PRIME on int64 matrices with entries in [0, p)."""

    def __init__(self, d: int):
        self.echelons = {IMAG: _ModularEchelon(np.triu_indices(d)),
                         REAL: _ModularEchelon(np.triu_indices(d, 1))}

    @staticmethod
    def reduce(mat: np.ndarray) -> np.ndarray:
        return (mat % _PRIME).astype(np.int64)

    @staticmethod
    def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b - b @ a) % _PRIME

    def add(self, kind: str, mat: np.ndarray) -> np.ndarray | None:
        return mat if self.echelons[kind].insert(mat) else None


def _modular_fits(d: int) -> bool:
    """True when no int64 sum of the modular pass can overflow: a matrix
    product sums d products of residues, an echelon residual at most
    m = d(d+1)/2 of them, each below (p-1)**2."""
    return max(d, d * (d + 1) // 2) * (_PRIME - 1) ** 2 < _INT64_LIMIT


def _close(seeds, max_dimension: int, oracle):
    """The ad-invariance loop: each kept element is bracketed with the seeds.

    Returns (elements, brackets_evaluated), elements as (kind, matrix) in
    the oracle's arithmetic. The bracket of pure elements is pure:
    [iS1, iS2] = -[S1, S2] and [A1, A2] are antisymmetric, [iS, A] = i[S, A]
    is i times a symmetric matrix; the plain commutator is kept, since the
    real scale is irrelevant to the span.
    """
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
            kind_new = REAL if kind_g == kind_b else IMAG
            if try_add(kind_new, oracle.commutator(mat_g, mat_b)) and \
                    len(elements) >= max_dimension:
                break
    return elements, evaluated


def integer_seeds(generators) -> list[tuple[str, np.ndarray]]:
    """The generators as integer seeds i*G, kind IMAG."""
    if not generators:
        raise ValueError("need at least one generator")
    return [(IMAG, integerize(g)) for g in generators]


def integer_closure(seeds):
    """The big-integer loop alone: (elements, brackets_evaluated, saturated)
    with elements as (kind, content-reduced integer matrix)."""
    d = seeds[0][1].shape[0]
    elements, evaluated = _close(seeds, d * d, _IntegerOracle(d))
    return elements, evaluated, len(elements) >= d * d


def exact_closure(generators):
    """Certified closure dimension over the rationals, up to d^2.

    generators: real symmetric matrices (rational entries), seeded as i*G.
    Returns (elements, brackets_evaluated, saturated), elements a list of
    (kind, integer matrix) spanning the closure. The modular pass decides
    the dimension when it reaches d^2 - 1 (the elements are then the integer
    basis of su(d), and the identity for u(d), from _unitary_basis) or the
    dark-subspace bound of _dark_split (the elements are then the integer
    basis of u(B) and the seeds with independent dark parts);
    brackets_evaluated is then the modular pass's count. Any other closure
    is the big-integer loop's.
    """
    seeds = integer_seeds(generators)
    d = seeds[0][1].shape[0]
    if d >= 2 and _modular_fits(d):
        oracle = _ModularOracle(d)
        reduced = [(kind, oracle.reduce(mat)) for kind, mat in seeds]
        elements, evaluated = _close(reduced, d * d, oracle)
        if len(elements) >= d * d - 1:
            # brackets are traceless: only a seed can leave su(d)
            traced = any(sum(mat[i, i] for i in range(d)) != 0 for _, mat in seeds)
            basis = _unitary_basis(d, traced)
            return basis, evaluated, len(basis) == d * d
        span, dark = _dark_split(seeds)
        if len(span) ** 2 + len(dark) == len(elements):
            return _subspace_basis(span) + dark, evaluated, False
    return integer_closure(seeds)


def _dark_split(seeds):
    """The dark-subspace bound on the closure dimension, over Q.

    Returns (span, dark): span an integer basis of B, the smallest subspace
    that contains the range of every pairwise seed commutator and is
    invariant under every seed; dark the seeds whose restrictions to
    D = B-perp are linearly independent, as (kind, matrix) seeds.

    The seeds are symmetric, so D is invariant too, and each commutator
    vanishes on D. Hence u(B) + span(seeds restricted to D) is a Lie algebra
    containing the seeds, and the closure dimension is at most
    len(span)**2 + len(dark). An equal rank mod p certifies it.
    """
    d = seeds[0][1].shape[0]
    mats = [mat for _, mat in seeds]
    echelon = _IntegerEchelon()
    queue = []

    def extend(vec) -> None:
        res = echelon.residual([int(x) for x in vec])
        if any(res):
            echelon.insert(res)
            queue.append(np.array(res, dtype=object))

    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            for row in a.dot(b) - b.dot(a):  # antisymmetric: rows span the range
                extend(row)
    while queue:
        vec = queue.pop()
        for mat in mats:
            extend(mat.dot(vec))
    span = [row for _, row in echelon.rows]
    null = np.array(_integer_nullspace(echelon.rows, d), dtype=object).reshape(-1, d).T
    parts = _IntegerEchelon()
    dark = []
    for kind, mat in seeds:
        res = parts.residual(_sym_coords(null.T.dot(mat).dot(null), null.shape[1]))
        if any(res):
            parts.insert(res)
            dark.append((kind, mat))
    return span, dark


def _integer_nullspace(rows: list[tuple[int, list[int]]], d: int) -> list[list[int]]:
    """Integer basis of the vectors orthogonal to every row of an
    _IntegerEchelon's rows: (pivot, row) sorted by pivot, each row zero
    before its pivot."""
    reduced: list[tuple[int, list[Fraction]]] = []
    for piv, row in rows:
        unit = [Fraction(x, row[piv]) for x in row]
        for i, (p, other) in enumerate(reduced):
            f = other[piv]
            if f:
                reduced[i] = (p, [x - f * y for x, y in zip(other, unit)])
        reduced.append((piv, unit))
    pivots = {p for p, _ in reduced}
    out = []
    for free in range(d):
        if free in pivots:
            continue
        vec = [Fraction(0)] * d
        vec[free] = Fraction(1)
        for p, row in reduced:
            vec[p] = -row[free]
        den = math.lcm(*(x.denominator for x in vec))
        out.append([int(x * den) for x in vec])
    return out


def _subspace_basis(span: list[list[int]]) -> list[tuple[str, np.ndarray]]:
    """Integer basis of u(B) for B spanned by the integer vectors span:
    i(b_j b_k^T + b_k b_j^T) and b_j b_k^T - b_k b_j^T for j < k, i b_j b_j^T."""
    vecs = [np.array(b, dtype=object) for b in span]
    out = []
    for j, bj in enumerate(vecs):
        for bk in vecs[j + 1:]:
            outer = np.outer(bj, bk)
            out += [(IMAG, _content_reduce(outer + outer.T)),
                    (REAL, _content_reduce(outer - outer.T))]
    out += [(IMAG, np.outer(b, b)) for b in vecs]
    return out


def _unitary_basis(d: int, with_identity: bool) -> list[tuple[str, np.ndarray]]:
    """Integer basis of su(d), and of u(d) when with_identity is set:
    i(E_jk + E_kj) and E_jk - E_kj for j < k, i(E_jj - E_j+1,j+1), i*I."""
    def zeros():
        return np.zeros((d, d), dtype=object)

    out = []
    for j in range(d):
        for k in range(j + 1, d):
            sym, anti = zeros(), zeros()
            sym[j, k] = sym[k, j] = 1
            anti[j, k], anti[k, j] = 1, -1
            out += [(IMAG, sym), (REAL, anti)]
    for j in range(d - 1):
        diag = zeros()
        diag[j, j], diag[j + 1, j + 1] = 1, -1
        out.append((IMAG, diag))
    if with_identity:
        eye = zeros()
        for j in range(d):
            eye[j, j] = 1
        out.append((IMAG, eye))
    return out
