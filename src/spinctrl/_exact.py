"""Exact-rational commutator closure over integer matrices.

Inputs are rescaled to integer matrices (rescaling a generator never changes
the generated algebra). Every element produced from real-symmetric seeds is
pure: either i*S with S symmetric, or a real antisymmetric A, and brackets
map pure elements to pure elements. Independence is decided by fraction-free
row elimination over the integers, one echelon per parity, so ranks are
certified rather than thresholded.

The closure itself uses the ad-invariance characterization: the algebra
generated by a set G equals the smallest subspace containing G that is
invariant under ad_g for every g in G (every bracket is a combination of
left-nested brackets). Each accepted element is therefore bracketed against
the generators only, which bounds the work by 2 * dim instead of dim^2 pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# 'imag': element is i*S, S integer symmetric; 'real': element is integer antisymmetric
IMAG = "imag"
REAL = "real"

_MAX_DENOMINATOR = 1 << 30


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


def _bracket(kind_a: str, a: np.ndarray, kind_b: str, b: np.ndarray):
    """Bracket of pure elements, up to an irrelevant real scale.

    [iS1, iS2] = -[S1, S2] (antisymmetric), [iS, A] = i[S, A] (symmetric part),
    [A1, A2] antisymmetric. The stored matrix is the plain matrix commutator.
    """
    prod = a @ b - b @ a
    if kind_a == kind_b:
        return REAL, prod
    return IMAG, prod


def exact_closure(generators, max_dimension: int):
    """Closure dimension and basis over the rationals.

    generators: real symmetric matrices (rational entries), seeded as i*G.
    Returns (elements, brackets_evaluated, saturated) where elements is a
    list of (kind, integer matrix).
    """
    if not generators:
        raise ValueError("need at least one generator")
    d = generators[0].shape[0]
    seeds = [(IMAG, integerize(g)) for g in generators]
    echelons = {IMAG: _IntegerEchelon(), REAL: _IntegerEchelon()}
    elements: list[tuple[str, np.ndarray]] = []
    queue: list[int] = []
    evaluated = 0

    def try_add(kind: str, mat: np.ndarray) -> bool:
        coords = _sym_coords(mat, d) if kind == IMAG else _antisym_coords(mat, d)
        res = echelons[kind].residual(coords)
        if not any(res):
            return False
        echelons[kind].insert(res)
        elements.append((kind, _content_reduce(mat)))
        queue.append(len(elements) - 1)
        return True

    for kind, mat in seeds:
        try_add(kind, mat)
    head = 0
    while head < len(queue) and len(elements) < max_dimension:
        kind_b, mat_b = elements[queue[head]]
        head += 1
        for kind_g, mat_g in seeds:
            evaluated += 1
            kind_new, mat_new = _bracket(kind_g, mat_g, kind_b, mat_b)
            if try_add(kind_new, mat_new) and len(elements) >= max_dimension:
                break
    return elements, evaluated, len(elements) >= max_dimension
