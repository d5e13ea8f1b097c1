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
One loop (_close) runs with either of two echelon oracles, a generation at a
time: the elements accepted since the last generation are bracketed with
every seed in one batch, in (element, seed) order, and the oracle admits the
batch's independent brackets in that order. This is the order of a queue
that brackets one element at a time, so the accepted sequence and the
bracket count, up to the stop at d^2, are those of that queue. _close
counts the accepted elements and holds only the current generation: the
big-integer oracle keeps every element it admits, the modular oracle only
its echelons.

The modular oracle runs first: int64 matrices reduced mod the prime
_PRIME < 2**25, one preallocated reduced row echelon form per parity.
Reduction mod p commutes with the bracket, so its rank dim_p is the rank of
the reduced images of integer nested brackets, and dim_p <= dim_Q. A batch
is reduced against the echelon in one product over its non-pivot columns,
with no reduction mod p inside the product (delayed reduction: every sum
fits in int64). Gauss-Jordan elimination inside the batch then spends numpy
calls only on the rows it accepts, and folds them into the echelon with one
more product. The reduced echelon form of a subspace over F_p is unique, so
the echelon equals the one that inserting one row at a time would build.
When dim_p >= d^2 - 1 the rational closure contains su(d), which has no
subalgebra of codimension 1; the dimension is then d^2 if some integer seed
has a nonzero trace (brackets are traceless) and d^2 - 1 otherwise.
exact_closure returns the dimension with a function that builds the
elements, here the integer basis of su(d) or u(d); a caller that reads only
the dimension never builds them.

A smaller dim_p is checked against an upper bound over Q (_dark_split). B is
the smallest subspace that contains the ranges of the seed commutators and
is invariant under every seed, computed over the integers on vectors of
length d (_bright_echelon); D = B-perp is the dark part, where every seed
acts and every commutator vanishes. u(B) + span(seeds restricted to D) is
then a Lie algebra containing the seeds, so dim_p <= dim_Q <= n_B^2 + s_D,
and equality certifies the dimension (the elements are then the integer
basis of u(B) and the seeds with independent dark parts). s_D needs no
basis of D: a symmetric h that leaves B invariant vanishes on D exactly
when every column of h lies in B, so the seeds' columns reduced modulo B
decide it (the column test). The bound misses internal symmetries, such
as the anticommuting one of the half-chain XX family: then, and whenever
dim_p falls short of the bound, the big-integer oracle (fraction-free row
elimination over the integers, one candidate at a time) reruns the loop,
certifies the rank and supplies the elements. For
one controlled node k the bound is the dimension (symmetry.bright_structure
proves it), and exact_structure reads it off the Krylov space B of e_k
with one column test and no closure. The modular pass runs only when no
int64 sum can overflow, max(d, d(d+1)/2) * (p-1)^2 < 2**63, and only for
d >= 2; otherwise the big-integer oracle runs alone.

Float64 inputs are read as the exact dyadic rationals they are, by one
vectorized pass (_dyadic_integers); other inputs go entry by entry through
_fraction, which states the same rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# 'imag': element is i*S, S integer symmetric; 'real': element is integer antisymmetric
IMAG = "imag"
REAL = "real"

_MAX_DENOMINATOR_EXPONENT = 30
_MAX_DENOMINATOR = 1 << _MAX_DENOMINATOR_EXPONENT

# Prime of the modular pass, below 2**25: a product of two residues is below
# 2**50, so int64 holds any sum of up to 8191 of them.
_PRIME = 33554393
_INT64_LIMIT = 1 << 63


def is_rational(mat) -> bool:
    """True iff integerize accepts every entry of mat."""
    return rational_integers(mat) is not None


def rational_integers(mat) -> np.ndarray | None:
    """integerize(mat), or None when an entry is not a finite
    small-denominator rational (_fraction): one parse answers both. A
    float64 matrix takes the vectorized path unless its scaled entries
    leave int64."""
    arr = np.asarray(mat)
    if arr.dtype == np.float64 and arr.size:
        exponents = _denominator_exponents(arr)
        if exponents is None or int(exponents.max()) > _MAX_DENOMINATOR_EXPONENT:
            return None
        out = _dyadic_integers(arr, exponents)
        if out is not None:
            return out
    fracs = [_fraction(x) for x in arr.astype(object).flat]
    if any(f is None for f in fracs):
        return None
    den = math.lcm(*(f.denominator for f in fracs))
    return _content_reduce(np.array([int(f * den) for f in fracs],
                                    dtype=object).reshape(arr.shape))


def _denominator_exponents(arr: np.ndarray) -> np.ndarray | None:
    """Per entry of a float64 array, the k of its exact denominator 2**k;
    None when an entry is not finite.

    frexp splits x exactly into num * 2**(e - 53) with |num| < 2**53; the
    lowest set bit of num, 2**z, leaves the denominator 2**(53 - e - z)."""
    if not np.isfinite(arr).all():
        return None
    mantissa, exponent = np.frexp(arr)
    num = np.ldexp(mantissa, 53).astype(np.int64)
    lowest_bit = np.frexp((num & -num).astype(np.float64))[1] - 1
    return np.where(num == 0, 0, np.maximum(53 - exponent - lowest_bit, 0))


def _dyadic_integers(arr: np.ndarray, exponents: np.ndarray | None = None) -> np.ndarray | None:
    """integerize of a float64 array in one vectorized pass: the entries
    times 2**k, k the largest denominator exponent (from `exponents` when
    the caller has them), divided by their gcd. None when an entry is
    rejected or the scaled entries leave int64; the per-entry path then
    decides."""
    if exponents is None:
        exponents = _denominator_exponents(arr) if arr.size else None
        if exponents is None:
            return None
    shift = int(exponents.max())
    if shift > _MAX_DENOMINATOR_EXPONENT:
        return None
    with np.errstate(over="ignore"):
        scaled = np.ldexp(arr, shift)
    if not (np.abs(scaled) < 2.0 ** 63).all():
        return None
    ints = scaled.astype(np.int64)
    g = int(np.gcd.reduce(ints.ravel()))
    if g > 1:
        ints //= g
    return ints.astype(object)


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
    out = rational_integers(mat)
    if out is None:
        bad = next(x for x in np.asarray(mat, dtype=object).flat if _fraction(x) is None)
        raise ValueError(
            "exact mode: entry %r is not a finite small-denominator rational" % (bad,))
    return out


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
        return self.reduce(vec)[0]

    def reduce(self, vec: list[int]) -> tuple[list[int], int]:
        """(residual, factor): the residual is factor * vec minus a
        combination of the rows, zero at every pivot. residual / factor is
        then the one vector of vec + span(rows) that is zero at the pivots,
        so it is linear in vec."""
        vec = list(vec)
        factor = 1
        for piv, row in self.rows:
            b = vec[piv]
            if b:
                a = row[piv]
                g = math.gcd(abs(a), abs(b))
                fa, fb = a // g, b // g
                vec = [fa * x - fb * y for x, y in zip(vec, row)]
                factor *= fa
        return vec, factor

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
    independence is decided by the fraction-free echelons, one candidate at
    a time."""

    def __init__(self, d: int):
        self.d = d
        self.echelons = {IMAG: _IntegerEchelon(), REAL: _IntegerEchelon()}
        self.elements: list[tuple[str, np.ndarray]] = []  # every admitted element

    @staticmethod
    def brackets(seeds, generation, kinds):
        """[g, b] for each b of generation and each seed g, in that order,
        computed as they are read."""
        return (g @ b - b @ g for b in generation for g in seeds)

    def admit(self, kinds, candidates, room: int):
        """(taken, kept): the positions of the candidates independent of
        every element added so far (they are then added, and appended to
        elements), at most room of them, and their content-reduced
        matrices."""
        taken, kept = [], []
        for i, (kind, mat) in enumerate(zip(kinds, candidates)):
            if len(taken) >= room:
                break
            coords = _sym_coords(mat, self.d) if kind == IMAG else _antisym_coords(mat, self.d)
            echelon = self.echelons[kind]
            res = echelon.residual(coords)
            if any(res):
                echelon.insert(res)
                taken.append(i)
                kept.append(_content_reduce(mat))
                self.elements.append((kind, kept[-1]))
        return taken, kept


class _ModularEchelon:
    """Reduced row echelon form over F_p, preallocated as an int64 array.

    Row i has a unit at column pivots[i] and zeros at every other pivot
    column, so a candidate v reduces to v - v[pivots] @ rows, which is zero
    at the pivot columns: only the free (non-pivot) columns are computed.
    """

    def __init__(self, index: tuple[np.ndarray, np.ndarray]):
        self.index = index  # matrix entries that are the coordinates
        width = len(index[0])
        self.rows = np.zeros((width, width), dtype=np.int64)
        self.pivots = np.zeros(width, dtype=np.intp)
        self.is_pivot = np.zeros(width, dtype=bool)
        self.count = 0

    def extend(self, mats: np.ndarray) -> list[int]:
        """Add the coordinates of the matrices mats, in order, that are
        independent mod p of the echelon and of the ones added before them;
        return their positions in mats."""
        vecs = mats[:, self.index[0], self.index[1]]
        n = self.count
        free = np.flatnonzero(~self.is_pivot)
        res = vecs[:, free]
        if n:
            # delayed reduction: n products below p**2 fit in int64
            res -= vecs[:, self.pivots[:n]] @ self.rows[:n, free]
            res %= _PRIME
        taken, new, lead = _eliminate(res)
        if taken:
            cols = free[lead]
            if n:
                self.rows[:n, free] = (self.rows[:n, free]
                                       - self.rows[:n, cols] @ new) % _PRIME
            r = len(taken)
            self.rows[n:n + r, free] = new
            self.pivots[n:n + r] = cols
            self.is_pivot[cols] = True
            self.count = n + r
        return taken


def _eliminate(res: np.ndarray):
    """Gauss-Jordan elimination mod p of the rows of res, in order, in place.

    Returns (taken, new, lead): the positions of the rows independent of the
    rows before them, the reduced rows they span (row t has a unit at column
    lead[t] and zeros at every other lead column), and those columns. Only
    an accepted row costs numpy calls: it is scaled to a unit pivot, and its
    pivot column is eliminated from every other row (rows rejected before it
    are zero and stay zero). The first nonzero entry in row-major order of
    the rows not yet visited is the next accepted row and its pivot.
    """
    taken: list[int] = []
    lead: list[int] = []
    width = res.shape[1]
    start = 0
    while start < len(res) and width:
        first = int((res[start:] != 0).argmax())  # row-major: the next live row
        i, c = start + first // width, first % width
        if not res[i, c]:
            break
        unit = res[i, c:] * pow(int(res[i, c]), -1, _PRIME) % _PRIME
        block = res[:, c:]
        block -= block[:, :1] * unit  # row i becomes zero, then the unit row
        block %= _PRIME
        res[i, c:] = unit
        taken.append(i)
        lead.append(c)
        start = i + 1
    return taken, res[taken], lead


class _ModularOracle:
    """Arithmetic mod _PRIME on int64 matrices with entries in [0, p)."""

    def __init__(self, d: int):
        self.echelons = {IMAG: _ModularEchelon(np.triu_indices(d)),
                         REAL: _ModularEchelon(np.triu_indices(d, 1))}

    @staticmethod
    def reduce(mat: np.ndarray) -> np.ndarray:
        return (mat % _PRIME).astype(np.int64)

    @staticmethod
    def brackets(seeds, generation, kinds) -> np.ndarray:
        """[g, b] mod p for each b of generation and each seed g, in that
        order, as one stack of matrices; kinds are the brackets' kinds.

        Pure elements are symmetric or antisymmetric, so b g = +-(g b)^T,
        with + when g and b have the same kind (the bracket is then REAL):
        one product per bracket."""
        prods = np.asarray(seeds)[None] @ np.asarray(generation)[:, None]
        prods = prods.reshape(-1, *prods.shape[2:])
        sign = np.where(np.array(kinds) == REAL, -1, 1)[:, None, None]
        return (prods + sign * prods.transpose(0, 2, 1)) % _PRIME

    def admit(self, kinds, candidates, room: int):
        """(taken, kept): the positions of the candidates independent mod p
        of every element added so far (they are then added), and their
        matrices as one stack. room is not read: the two echelons hold at
        most d^2 rows together, so a block never accepts more than the room
        left below d^2."""
        mats = np.asarray(candidates)
        imag = np.array([kind == IMAG for kind in kinds])
        taken: list[int] = []
        for kind, mask in ((IMAG, imag), (REAL, ~imag)):
            rows = np.flatnonzero(mask)
            if rows.size:
                taken += rows[self.echelons[kind].extend(mats[rows])].tolist()
        taken.sort()
        return taken, mats[taken]


def _modular_fits(d: int) -> bool:
    """True when no int64 sum of the modular pass can overflow: a matrix
    product sums d products of residues, an echelon residual or fold at
    most m = d(d+1)/2 of them, each below (p-1)**2."""
    return max(d, d * (d + 1) // 2) * (_PRIME - 1) ** 2 < _INT64_LIMIT


def _close(seeds, max_dimension: int, oracle):
    """The ad-invariance loop: each accepted element is bracketed with the
    seeds, one generation at a time.

    Returns (dimension, brackets_evaluated): the number of elements the
    oracle accepted, and the brackets counted. Only the current generation
    is held here; an oracle keeps whatever else it needs. The bracket of
    pure elements is pure: [iS1, iS2] = -[S1, S2] and [A1, A2] are
    antisymmetric, [iS, A] = i[S, A] is i times a symmetric matrix; the
    plain commutator is kept, since the real scale is irrelevant to the
    span. A generation is the elements accepted since the previous one; its
    brackets are admitted in (element, seed) order, and the count stops at
    the bracket that fills max_dimension.
    """
    seed_kinds = [kind for kind, _ in seeds]
    seed_mats = [mat for _, mat in seeds]
    taken, generation = oracle.admit(seed_kinds, seed_mats, max_dimension)
    kinds = [seed_kinds[i] for i in taken]
    dimension = len(taken)
    evaluated = 0
    while kinds and dimension < max_dimension:
        block_kinds = [REAL if kind_g == kind_b else IMAG
                       for kind_b in kinds for kind_g in seed_kinds]
        candidates = oracle.brackets(seed_mats, generation, block_kinds)
        taken, generation = oracle.admit(block_kinds, candidates,
                                         max_dimension - dimension)
        kinds = [block_kinds[i] for i in taken]
        dimension += len(taken)
        evaluated += taken[-1] + 1 if dimension >= max_dimension else len(block_kinds)
    return dimension, evaluated


def integer_seeds(generators) -> list[tuple[str, np.ndarray]]:
    """The generators as integer seeds i*G, kind IMAG."""
    if not generators:
        raise ValueError("need at least one generator")
    return [(IMAG, integerize(g)) for g in generators]


def integer_closure(seeds):
    """The big-integer loop alone: (elements, brackets_evaluated, saturated)
    with elements as (kind, content-reduced integer matrix)."""
    d = seeds[0][1].shape[0]
    oracle = _IntegerOracle(d)
    dimension, evaluated = _close(seeds, d * d, oracle)
    return oracle.elements, evaluated, dimension >= d * d


def exact_closure(generators):
    """Certified closure dimension over the rationals, up to d^2.

    generators: real symmetric matrices (rational entries), seeded as i*G.
    Returns (dimension, build, brackets_evaluated, saturated); build() takes
    no argument and returns the (kind, integer matrix) elements that span
    the closure. The modular pass decides the dimension when it reaches
    d^2 - 1 (build gives the integer basis of su(d), and the identity for
    u(d), from _unitary_basis) or the dark-subspace bound of _dark_split
    (build gives the integer basis of u(B) and the seeds with independent
    dark parts); brackets_evaluated is then the modular pass's count. Any
    other closure is the big-integer loop's, and build returns its elements.
    """
    seeds = integer_seeds(generators)
    d = seeds[0][1].shape[0]
    if d >= 2 and _modular_fits(d):
        oracle = _ModularOracle(d)
        reduced = [(kind, oracle.reduce(mat)) for kind, mat in seeds]
        dimension, evaluated = _close(reduced, d * d, oracle)
        if dimension >= d * d - 1:
            # brackets are traceless: only a seed can leave su(d)
            traced = any(sum(mat[i, i] for i in range(d)) != 0 for _, mat in seeds)
            full = d * d if traced else d * d - 1
            return full, lambda: _unitary_basis(d, traced), evaluated, traced
        span, dark = _dark_split(seeds)
        if len(span) ** 2 + len(dark) == dimension:
            return dimension, lambda: _subspace_basis(span) + dark, evaluated, False
    elements, evaluated, saturated = integer_closure(seeds)
    return len(elements), lambda: elements, evaluated, saturated


def exact_structure(h0, h1) -> tuple[int, int]:
    """(n_B, dimension) of the closure of {i h0, i h1} over Q, for one
    controlled node k (h1 = e_k e_k^T, h0 real symmetric and rational).

    B is the Krylov space of e_k under h0, and the closure is
    su(B) + span(h0, h1) (symmetry.bright_structure proves it), of dimension
    n_B^2 + [h0 restricted to D = B-perp is nonzero]. h0 is symmetric and
    leaves B, hence D, invariant, so it vanishes on D exactly when every
    column of h0 lies in B: one integer residual per column, and no basis
    of D. Raises ValueError unless h1 is a multiple of e_k e_k^T.
    """
    return integer_structure(integerize(h0), integerize(h1))


def integer_structure(h0: np.ndarray, h1: np.ndarray) -> tuple[int, int]:
    """exact_structure of h0 and h1 already integerized (rational_integers),
    with the same ValueError."""
    nonzero = np.argwhere(h1 != 0)
    if len(nonzero) != 1 or nonzero[0, 0] != nonzero[0, 1]:
        raise ValueError("exact_structure needs h1 = e_k e_k^T for one node k")
    echelon = _bright_echelon([h0], [h1[nonzero[0, 0]]])
    outside = any(any(echelon.residual(col)) for col in h0.T.tolist())
    return len(echelon.rows), len(echelon.rows) ** 2 + outside


def _bright_echelon(mats, vectors) -> _IntegerEchelon:
    """Integer echelon of the smallest subspace that contains vectors and is
    invariant under every matrix of mats (integer object arrays)."""
    echelon = _IntegerEchelon()
    queue = []

    def extend(vec) -> None:
        res = echelon.residual([int(x) for x in vec])
        if any(res):
            echelon.insert(res)
            queue.append(np.array(res, dtype=object))

    for vec in vectors:
        extend(vec)
    while queue:
        vec = queue.pop()
        for mat in mats:
            extend(mat.dot(vec))
    return echelon


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

    No basis of D is built. A symmetric h leaving B and D invariant vanishes
    on D exactly when every column of h lies in B (the column test of
    exact_structure), so a combination of seeds vanishes on D exactly when
    the same combination of their columns reduced modulo B vanishes. Each
    column is reduced fraction-free (_IntegerEchelon.reduce) and divided by
    its factor, so that the reduction is linear; a seed is kept when its
    reduced columns are independent of those of the seeds kept before it.
    """
    mats = [mat for _, mat in seeds]
    # commutators are antisymmetric: their rows span their ranges
    echelon = _bright_echelon(mats, [row for i, a in enumerate(mats) for b in mats[i + 1:]
                                     for row in a.dot(b) - b.dot(a)])
    span = [row for _, row in echelon.rows]
    parts = _IntegerEchelon()
    dark = []
    for kind, mat in seeds:
        columns = [echelon.reduce(col) for col in mat.T.tolist()]
        scale = math.lcm(*(factor for _, factor in columns))
        res = parts.residual([x * (scale // factor) for col, factor in columns for x in col])
        if any(res):
            parts.insert(res)
            dark.append((kind, mat))
    return span, dark


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
