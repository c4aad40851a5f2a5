"""Affine stress spaces of realized simplicial complexes.

An affine k-stress is a homogeneous degree-k polynomial supported on
the faces of a complex that is annihilated by the d+1 derivative
operators coming from the coordinate rows of the embedding plus the
all-ones row.  Squarefree parts sit in the kernel of the k-rigidity
matrix, whose row blocks are indexed by (k-2)-faces (d rows each) and
whose columns are indexed by (k-1)-faces, with the altitude vector of
the containing pair as the block entry.

Polynomials are dicts keyed by monomials: sorted tuples of
(vertex, exponent) pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd, lcm

from . import exactla
from .errors import (
    DegenerateEmbedding,
    DegenerateFace,
    ExpansionFailure,
    InvalidArgument,
    NotNeighborlyEnough,
)
from .exactla import RatMatrix
from .geometry import Embedding, _altitudes, _integer_points, affine_rank
from .rat import R0, R1, Rat, rat, sign
from .simplicial import SimplicialComplex, face_key


# ---------------------------------------------------------------------------
# monomials and polynomials

Monomial = tuple  # ((vertex, exponent), ...) sorted by vertex


def mono_from_face(face) -> Monomial:
    return tuple((v, 1) for v in face_key(face))


def mono_support(mono: Monomial) -> tuple[int, ...]:
    return tuple(v for v, _ in mono)


def mono_div_var(mono: Monomial, v: int) -> Monomial:
    out = []
    for u, e in mono:
        if u == v:
            if e > 1:
                out.append((u, e - 1))
        else:
            out.append((u, e))
    return tuple(out)


def poly_directional(poly: dict, weights: dict) -> dict:
    """Sum over v of weights[v] * d/dx_v, applied to poly."""
    out: dict = {}
    for mono, c in poly.items():
        for v, e in mono:
            w = weights.get(v, R0)
            if not w:
                continue
            key = mono_div_var(mono, v)
            val = out.get(key, R0) + c * e * w
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


def _compositions(total: int, parts: int):
    """Positive integer vectors of the given length summing to total."""
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in list(cuts) + [total]:
            out.append(c - prev)
            prev = c
        yield tuple(out)


# ---------------------------------------------------------------------------
# stress vectors


@dataclass(frozen=True)
class StressVector:
    """A k-stress: squarefree part always, full polynomial optionally.

    `coeffs` maps sorted vertex tuples of (k-1)-faces to rationals,
    zeros omitted.  `full` maps monomials to rationals once the
    unique full-polynomial completion has been computed.
    """

    degree: int
    coeffs: dict
    full: dict | None = None

    def coeff(self, face):
        return self.coeffs.get(face_key(face), R0)

    def sign(self, face) -> int:
        return sign(self.coeff(face))

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_vector(self, face_order) -> list:
        return [self.coeffs.get(face_key(F), R0) for F in face_order]

    def scaled(self, s) -> "StressVector":
        s = rat(s)
        coeffs = {F: s * c for F, c in self.coeffs.items() if s * c != 0}
        full = None
        if self.full is not None:
            full = {m: s * c for m, c in self.full.items() if s * c != 0}
        return StressVector(degree=self.degree, coeffs=coeffs, full=full)

    @staticmethod
    def from_vector(degree: int, face_order, vec) -> "StressVector":
        coeffs = {}
        for F, x in zip(face_order, vec):
            if x is not R0 and x:  # kernel vectors share R0 for their zeros
                coeffs[face_key(F)] = rat(x)
        return StressVector(degree=degree, coeffs=coeffs)

    @staticmethod
    def from_full(degree: int, full: dict) -> "StressVector":
        clean = {m: rat(c) for m, c in full.items() if c != 0}
        coeffs = {}
        for m, c in clean.items():
            if all(e == 1 for _, e in m):
                coeffs[mono_support(m)] = c
        return StressVector(degree=degree, coeffs=coeffs, full=clean)


# ---------------------------------------------------------------------------
# matrices


def theta(p: Embedding, order=None) -> RatMatrix:
    """The (d+1) x n matrix of coordinate rows plus the all-ones row."""
    verts = tuple(order) if order is not None else p.vertices
    rows = []
    for i in range(p.dim):
        rows.append([p.point(v)[i] for v in verts])
    rows.append([R1] * len(verts))
    return RatMatrix.from_rows(rows, row_labels=tuple(range(p.dim + 1)), col_labels=verts)


def rigidity_matrix(K: SimplicialComplex, p: Embedding, k: int) -> RatMatrix:
    """The k-rigidity matrix of (K, p), with int entries.

    Rows: d per (k-2)-face, in sorted face order; columns: (k-1)-faces
    in sorted order.  The (F, G) block is the altitude of the added
    vertex of G over Aff(p(F)) times one positive factor per row
    block: s*g(F) from F's integer projector (see `geometry`), divided
    by the block's content.  Each block is a positive multiple of the
    altitude block, so the kernel is the rigidity matrix's.
    """
    if k < 2:
        raise InvalidArgument("rigidity matrices need k >= 2")
    d = p.dim
    Fs = K.faces_of_size(k - 1)
    Gs = K.faces_of_size(k)
    frow = {F: i for i, F in enumerate(Fs)}
    alt = _altitudes(p)
    blocks: dict = {}  # F -> [(column, integer altitude)]
    for j, G in enumerate(Gs):
        for v in G:
            F = tuple(u for u in G if u != v)
            a, _ = alt(F, v)
            if not any(a):
                raise DegenerateFace(f"face {G} has affinely dependent points")
            blocks.setdefault(F, []).append((j, a))
    entries = [[0] * len(Gs) for _ in range(d * len(Fs))]
    for F, cols in blocks.items():
        content = gcd(*(x for _, a in cols for x in a))
        base = frow[F] * d
        for j, a in cols:
            for ax in range(d):
                entries[base + ax][j] = a[ax] // content
    row_labels = tuple((F, ax) for F in Fs for ax in range(d))
    return RatMatrix(entries=tuple(map(tuple, entries)), row_labels=row_labels, col_labels=tuple(Gs))


def stress_basis(K: SimplicialComplex, p: Embedding, k: int) -> list[StressVector]:
    """Deterministic basis of the space of affine k-stresses.

    For k = 1 these are the affine dependences (kernel of the theta
    matrix); for k >= 2, squarefree parts from the kernel of the
    k-rigidity matrix, which reads only K's faces of sizes k-1 and k.
    """
    if k < 1:
        raise InvalidArgument("stress degree must be >= 1")
    if k == 1:
        verts = K.vertices
        _, kern = exactla.kernel_basis(theta(p, verts))
        return [StressVector.from_vector(1, [(v,) for v in verts], vec) for vec in kern]
    R = rigidity_matrix(K, p, k)
    _, kern = exactla.kernel_basis(R)
    return [StressVector.from_vector(k, R.col_labels, vec) for vec in kern]


def balancing_residual(sv: StressVector, K: SimplicialComplex, p: Embedding) -> dict:
    """Residual of the balancing condition at every (k-2)-face.

    Sums coeff(G) * altitude(F, G) over the k-faces G of K containing
    each F; a genuine stress returns all-zero vectors.  Computed by
    direct summation over ints (the coefficients cleared of their
    denominators, the altitudes s*g(F) times their value), divided once
    per face, independent of the matrix assembly.
    """
    k = sv.degree
    if k < 2:
        raise InvalidArgument("balancing residuals need degree >= 2")
    for F in sv.support():
        if not K.has_face(F):
            raise InvalidArgument(f"support face {F} is not in the complex")
    d = p.dim
    alt = _altitudes(p)
    den = lcm(*(c.denominator for c in sv.coeffs.values()))
    sums: dict = {}  # F -> (sum of den*coeff(G) * s*g(F)*altitude, s*g(F))
    for G in K.faces_of_size(k):
        c = sv.coeffs.get(G)
        if not c:
            continue
        c = c.numerator * (den // c.denominator)
        for v in G:
            F = tuple(u for u in G if u != v)
            a, n = alt(F, v)
            acc, _ = sums.setdefault(F, ([0] * d, n))
            for ax in range(d):
                acc[ax] += c * a[ax]
    zero = (R0,) * d
    return {F: tuple(Rat(x, den * sums[F][1]) for x in sums[F][0]) if F in sums else zero for F in K.faces_of_size(k - 1)}


@dataclass(frozen=True)
class RigidityReport:
    rigid: bool
    rank: int
    expected_rank: int
    stress_dim: int
    d: int
    f0: int
    f1: int


def is_infinitesimally_rigid(K: SimplicialComplex, p: Embedding) -> RigidityReport:
    """Rank test on the 2-rigidity matrix of the graph of K.

    Reads only K's vertices and edges, the rows and columns of that
    matrix, so K may be given by its facets or by any skeleton of
    dimension at least 1.  Rigid iff rank equals d*f_0 - C(d+1, 2);
    the kernel dimension is the number of independent 2-stresses
    either way.  The points span R^d, so the trivial motions bound the
    rank: rank_p <= rank <= d*f_0 - C(d+1, 2) for the rank mod p.  A
    rank mod p at that bound certifies a rigid framework without a
    kernel; otherwise the rank is `kernel_basis`'s, exact on either of
    its routes.
    """
    d = p.dim
    pts = [p.point(v) for v in K.vertices]
    if affine_rank(pts) != d:
        raise DegenerateEmbedding("embedding does not span the ambient space")
    R = rigidity_matrix(K, p, 2)
    f0 = len(K.vertices)
    f1 = len(R.col_labels)
    expected = d * f0 - comb(d + 1, 2)
    rnk = exactla.modular_rank(R)
    if rnk != expected:
        rnk, _ = exactla.kernel_basis(R)
    return RigidityReport(
        rigid=rnk == expected,
        rank=rnk,
        expected_rank=expected,
        stress_dim=f1 - rnk,
        d=d,
        f0=f0,
        f1=f1,
    )


# ---------------------------------------------------------------------------
# full polynomials


def expand_squarefree(sv: StressVector, K: SimplicialComplex, p: Embedding) -> StressVector:
    """The unique full polynomial with the given squarefree part.

    Unknowns are the non-squarefree face-supported monomials of degree
    k.  Each theta row w gives the identity: the derivative along w of
    the unknown part plus the known squarefree part vanishes
    coefficientwise.  `poly_directional` takes every one of those
    derivatives, one column per unknown and the known part in the last
    column, so the rows of [A | -b] are keyed by (theta row, monomial).
    A kernel or an inconsistent system raises ExpansionFailure; both are
    read off one elimination of that augmented system.
    """
    k = sv.degree
    if k == 1:
        full = {((v, 1),): c for (v,), c in sv.coeffs.items()}
        return StressVector(degree=1, coeffs=dict(sv.coeffs), full=full)
    for F in sv.support():
        if not K.has_face(F):
            raise ExpansionFailure(f"support face {F} is not in the complex")

    unknowns: list[Monomial] = []
    for size in range(1, k):
        for S in K.faces_of_size(size):
            for exps in _compositions(k, size):
                if any(e > 1 for e in exps):
                    unknowns.append(tuple(zip(S, exps)))
    unknowns.sort()
    known = {mono_from_face(F): c for F, c in sv.coeffs.items()}
    columns = [*({m: R1} for m in unknowns), known]

    th = theta(p, K.vertices)
    ncols = len(columns)
    rows: dict = {}
    for i, trow in enumerate(th.entries):
        w = dict(zip(th.col_labels, trow))
        for j, poly in enumerate(columns):
            for nu, c in poly_directional(poly, w).items():
                rows.setdefault((i, nu), [R0] * ncols)[j] += c

    # kernel vectors come by free column: a first one with last coordinate 0
    # solves A x = 0, else the only one has last coordinate 1 and solves A x = b;
    # a zero row keeps the width when there are no rows (no vertices)
    _, kern = exactla.kernel_basis(list(rows.values()) or [[R0] * ncols])
    if kern and kern[0][-1] == 0:
        raise ExpansionFailure("full polynomial is not unique for this support")
    if not kern:
        raise ExpansionFailure("squarefree part admits no stress completion")

    full = dict(known)
    for m, x in zip(unknowns, kern[0]):
        if x != 0:
            full[m] = x
    return StressVector(degree=k, coeffs=dict(sv.coeffs), full=full)


def cone_lift(sv: StressVector, a: dict, apex: int) -> StressVector:
    """Lift a full stress of the base to the cone over it.

    The base embedding is the normal form p(i) = [a_i p'(i); a_i]
    with the apex at the origin.  Starting from the substituted
    polynomial w_0(x) = w'(x_i / a_i), each next slice is
    w_{j+1} = -(1/(j+1)) * sum_i d/dx_i w_j, and the lift is
    sum_j x_apex^j w_j.  Squarefree parts then satisfy
    w'_F = (prod_{i in F} a_i) w_F on base faces.
    """
    if sv.full is None:
        raise InvalidArgument("cone_lift needs the full polynomial; expand first")
    heights = {v: rat(x) for v, x in a.items()}
    for v, x in heights.items():
        if x == 0:
            raise InvalidArgument(f"zero height for vertex {v}")
    w = {}
    for mono, c in sv.full.items():
        scale = R1
        for v, e in mono:
            if v not in heights:
                raise InvalidArgument(f"no height for vertex {v}")
            scale *= heights[v] ** e
        w[mono] = c / scale
    if apex in heights:
        raise InvalidArgument("apex label collides with a base vertex")

    ones = {v: R1 for v in heights}
    k = sv.degree
    full_out: dict = {}
    wj = w
    j = 0
    while True:
        for mono, c in wj.items():
            if c == 0:
                continue
            key = tuple(sorted(mono + ((apex, j),))) if j else mono
            full_out[key] = full_out.get(key, R0) + c
        if j == k or not wj:
            break
        j += 1
        nxt = poly_directional(wj, ones)
        wj = {m: -c / rat(j) for m, c in nxt.items()}
    return StressVector.from_full(k, full_out)


def power_stress(phi: dict, k: int, K: SimplicialComplex, p: Embedding) -> StressVector:
    """The k-th power of an affine 1-stress, as a full k-stress.

    phi maps vertices to coefficients of a linear form annihilated by
    the theta rows: its derivative along every row is zero.  Every
    min(k, |supp|)-subset of the support must be a face, otherwise the
    power leaves the face ring.  The power's derivatives along the same
    rows are checked to vanish, which certifies the expansion.

    One integer pass: phi is scaled by the lcm c of its denominators
    and theta's rows by the lcm of the points' (a positive scaling per
    row keeps every zero test), the multinomial terms of (c phi)^k are
    ints keyed by sorted tuples of support indices, and each
    coefficient is divided by c^k once at the end.
    """
    if k < 1:
        raise InvalidArgument("power must be >= 1")
    weights = {v: rat(c) for v, c in phi.items() if c != 0}
    if not weights:
        raise InvalidArgument("zero linear form")
    supp = sorted(weights)
    c = lcm(*(x.denominator for x in weights.values()))
    w = [weights[v].numerator * (c // weights[v].denominator) for v in supp]
    rows = [*zip(*_integer_points(p.points(supp))), [1] * len(supp)]
    if any(sum(a * b for a, b in zip(row, w)) for row in rows):
        raise InvalidArgument("coefficients are not an affine dependence")
    m = min(k, len(supp))
    for S in combinations(supp, m):
        if not K.has_face(S):
            raise NotNeighborlyEnough(f"{S} is not a face, cannot raise to power {k}")
    # (c^k times the coefficient, [(index, exponent, pick less that index)])
    terms = []
    for pick in combinations_with_replacement(range(len(supp)), k):
        coeff = factorial(k)
        parts = []
        for i, e in Counter(pick).items():
            coeff = coeff // factorial(e) * w[i] ** e  # k!/(e_1! ... e_j!) is an int at every j
            pos = pick.index(i)
            parts.append((i, e, pick[:pos] + pick[pos + 1:]))
        terms.append((coeff, parts))
    for row in rows:
        deriv: dict = {}
        for coeff, parts in terms:
            for i, e, key in parts:
                if row[i]:
                    deriv[key] = deriv.get(key, 0) + coeff * e * row[i]
        if any(deriv.values()):
            raise ExpansionFailure("power is not a stress; embedding inconsistent")
    ck = c**k
    full = {tuple((supp[i], e) for i, e, _ in parts): Rat(coeff, ck) for coeff, parts in terms}
    return StressVector.from_full(k, full)
