"""Exact affine geometry for realized complexes.

Embeddings assign rational coordinate tuples to vertex labels.  A
PolytopeInstance couples a complex with an embedding claimed to
realize it as a simplicial polytope boundary; `validate` replays the
supporting-hyperplane and hull checks and flips the instance's
`validated` flag.  Everything here is exact, nothing ever rounds.

Side tests run on integer-scaled points (a positive scaling keeps every
side and every normal's direction): `_hyperplane` gives the primitive
normal n and offset c of the hyperplane n.x = c through d of them, and
a point q's side is the sign of n.q - c.  That serves each facet of a
complex and each normal the module hands out.  The exhaustive hull
test, `brute_force_facets`, builds no hyperplane: a side is the sign of
a determinant of difference vectors, and the d-subsets sharing a prefix
share one fraction-free elimination of those vectors.

Altitudes are integer too.  Let P = s*p, s the lcm of the coordinate
denominators; for a face F let D hold the rows P(f) - P(F0), f in F[1:],
G = D D^T and g = det G.  The projection of u onto the row space of D
is D^T adj(G) D u / g, so with u = P(v) - P(F0)

    g u - D^T adj(G) D u = s g alt(F, v),

an integer vector.  g > 0 exactly when F is affinely independent;
g = 0 raises `DegenerateFace`.  One projector (p(F0), D, adj(G) D, g)
per face serves every vertex over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from . import exactla
from .errors import (
    DegenerateEmbedding,
    DegenerateFace,
    DegenerateQuotient,
    InvalidArgument,
    NotAVertex,
    NotSimplicial,
)
from .rat import R0, Rat, rat, sign
from .simplicial import SimplicialComplex, face_key, link


@dataclass(frozen=True)
class Embedding:
    """Rational point per vertex label, all in the same dimension.

    Every coordinate becomes a `Rat`: ints are converted, and bools,
    floats and anything else raise InvalidArgument.  Lengths are left
    to `build` and to `validate`'s vertices_covered check.
    """

    dim: int
    coords: dict

    def __post_init__(self):
        if any(type(x) is not Rat for pt in self.coords.values() for x in pt):
            object.__setattr__(self, "coords", {v: tuple(map(rat, pt)) for v, pt in self.coords.items()})

    @staticmethod
    def build(dim: int, mapping) -> "Embedding":
        coords = {}
        for v, pt in mapping.items():
            tup = tuple(rat(x) for x in pt)
            if len(tup) != dim:
                raise InvalidArgument(f"point for vertex {v} has length {len(tup)}, expected {dim}")
            coords[v] = tup
        return Embedding(dim=dim, coords=coords)

    def point(self, v):
        try:
            return self.coords[v]
        except KeyError:
            raise NotAVertex(f"no coordinates for vertex {v}") from None

    def points(self, face) -> list:
        return [self.point(v) for v in face]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.coords))

    def transformed(self, matrix, shift=None) -> "Embedding":
        """Apply x -> Ax + b; used by the affine-invariance tests."""
        out = {}
        for v, pt in self.coords.items():
            img = [exactla.dot(row, pt) for row in matrix]
            if shift is not None:
                img = exactla.vec_add(img, shift)
            out[v] = tuple(img)
        return Embedding(dim=len(matrix), coords=out)


@dataclass(eq=True)
class PolytopeInstance:
    """A complex plus the embedding claimed to realize it.

    `validated` is runtime status: it is excluded from equality and
    from the serialized form.
    """

    complex: SimplicialComplex
    embedding: Embedding
    d: int
    meta: dict
    validated: bool = field(default=False, compare=False)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.complex.vertices


def affine_rank(points) -> int:
    """Dimension of the affine hull: -1 for no points, 0 for one."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [exactla.vec_sub(p, base) for p in pts[1:]]
    if not diffs:
        return 0
    return exactla.rank(diffs)


def altitude_vector(F, v: int, p: Embedding):
    """p(v) minus its orthogonal projection onto Aff(p(F)).

    Zero iff p(v) lies in that affine hull.  F must be nonempty with
    affinely independent points, else DegenerateFace; the integer
    projector of F (module docstring) gives s*g times the altitude.
    """
    Fs = face_key(F)
    if not Fs:
        raise InvalidArgument("altitude needs a nonempty base face")
    if v in Fs:
        raise InvalidArgument(f"vertex {v} lies in the base face")
    a, n = _altitudes(p)(Fs, v)
    return [rat(x, n) for x in a]


def _integer_points(pts) -> list:
    """The points scaled by the lcm of every denominator, so each
    coordinate is an int; `exactla._integerize` rejects bools and floats."""
    flat = iter(exactla._integerize([x for pt in pts for x in pt]))
    return [tuple(islice(flat, len(pt))) for pt in pts]


def _projector(F, pts) -> tuple:
    """(base, D, adj(G) D, g) for the face F with integer points pts:
    base = pts[0], D the rows pts[i] - base, G = D D^T and g = det G.

    Fraction-free Gauss-Jordan on [G | D] ends at [g I | adj(G) D].
    Pivot i is G's leading (i+1)-minor, the Gram determinant of D's
    first i+1 rows, so no row swap is needed, and a zero pivot means F
    is affinely dependent.
    """
    base, *rest = pts
    D = [[a - b for a, b in zip(x, base)] for x in rest]
    rows = [[sum(a * b for a, b in zip(x, y)) for y in D] + x for x in D]
    g = 1
    for i, prow in enumerate(rows):
        if not prow[i]:
            raise DegenerateFace(f"face {F} is affinely dependent")
        exactla._pivot_step([row for row in rows if row is not prow], prow, i, g)
        g = prow[i]
    return base, D, [row[len(D):] for row in rows], g


def _altitudes(p: Embedding):
    """alt(F, v) -> (a, n) with a / n the altitude of p(v) over Aff(p(F)),
    a an integer vector and n = s*g > 0, F a sorted tuple.

    s is the lcm of the denominators of p's coordinates, and F's
    projector is built on its first use.
    """
    s = math.lcm(*(x.denominator for pt in p.coords.values() for x in pt))
    pts = {u: [x.numerator * (s // x.denominator) for x in pt] for u, pt in p.coords.items()}
    faces = {}

    def point(u):
        return pts[u] if u in pts else p.point(u)  # p.point raises NotAVertex

    def alt(F, v):
        q = point(v)
        proj = faces.get(F)
        if proj is None:
            proj = faces[F] = _projector(F, [point(u) for u in F])
        base, D, M, g = proj
        u = [a - b for a, b in zip(q, base)]
        a = [g * x for x in u]
        for drow, mrow in zip(D, M):
            c = sum(x * y for x, y in zip(mrow, u))
            if c:
                a = [x - c * y for x, y in zip(a, drow)]
        return a, s * g

    return alt


def _hyperplane(pts):
    """(n, c), n primitive, with n.x = c through d integer points in R^d, or
    None if they are affinely dependent.  n spans the kernel of the
    differences; a lone point gets one zero row, so d = 1 gives n = [1].
    The kernel vector has a coordinate 1, so clearing its denominators
    by their lcm already leaves coprime integers."""
    base = pts[0]
    diffs = [[a - b for a, b in zip(q, base)] for q in pts[1:]] or [[0] * len(base)]
    _, kern = exactla.kernel_basis(diffs)
    if len(kern) != 1:
        return None
    n = exactla._integerize(kern[0])
    return n, sum(a * b for a, b in zip(n, base))


def _side(h, q) -> int:
    """-1, 0 or +1: the side of the integer point q against h = (n, c)."""
    n, c = h
    return sign(sum(a * b for a, b in zip(n, q)) - c)


def facet_normal(S, p: Embedding, inward_witness):
    """Primitive normal of the hyperplane through p(S), oriented so the
    witness point sits on the positive side."""
    Sk = face_key(S)
    *face, witness = _integer_points(p.points(Sk) + [inward_witness])
    h = _hyperplane(face)
    if h is None:
        raise DegenerateFace(f"facet {Sk} does not span a hyperplane")
    side = _side(h, witness)
    if side == 0:
        raise DegenerateFace(f"witness point lies on the hyperplane of {Sk}")
    return [rat(side * x) for x in h[0]]


def separating_functional(P: PolytopeInstance, u: int):
    """A linear functional b and threshold alpha with
    b.p(u) < alpha < b.p(v) for every other vertex v.

    b is the sum of the inward primitive normals of the facets at u;
    alpha is the midpoint between b.p(u) and the nearest other value.
    """
    K = P.complex
    p = P.embedding
    if u not in K.vertex_index:
        raise NotAVertex(f"{u} is not a vertex")
    pu = p.point(u)
    b = [R0] * P.d
    incident = sorted(face_key(S) for S in K.facets if u in S)
    for S in incident:
        outside = next(v for v in K.vertices if v not in S)
        n = facet_normal(S, p, p.point(outside))
        b = exactla.vec_add(b, n)
    lo = exactla.dot(b, pu)
    hi = min(exactla.dot(b, p.point(v)) for v in K.vertices if v != u)
    if not lo < hi:
        raise DegenerateFace(f"facet normals at {u} fail to separate it")
    alpha = (lo + hi) / rat(2)
    return b, alpha


def vertex_figure(P: PolytopeInstance, u: int):
    """The vertex figure at u as a validated instance one dimension down.

    Coordinates follow the cone normal form: after translating u to
    the origin and a rational change of coordinates taking the
    separating functional to the last axis, each neighbor i sits at
    [a_i * p'(i); a_i] with a_i > 0, and the figure's embedding is
    p'.  Returns (instance, a) with a the per-vertex last coordinate;
    iterating over the vertices of a face yields its quotient.
    """
    if P.d < 2:
        raise InvalidArgument("vertex figures need d >= 2")
    K = P.complex
    p = P.embedding
    b, _ = separating_functional(P, u)
    pivot = next(j for j in range(P.d) if b[j] != 0)
    keep = [j for j in range(P.d) if j != pivot]
    pu = p.point(u)
    lk = link(K, {u})
    a = {}
    coords = {}
    for i in lk.vertices:
        shifted = exactla.vec_sub(p.point(i), pu)
        ai = exactla.dot(b, shifted)
        if ai == 0:
            raise DegenerateQuotient(f"neighbor {i} has zero height over {u}")
        a[i] = ai
        coords[i] = tuple(shifted[j] / ai for j in keep)
    Q = PolytopeInstance(
        complex=lk,
        embedding=Embedding(dim=P.d - 1, coords=coords),
        d=P.d - 1,
        meta={"family": "vertex_figure", "params": {"of": P.meta.get("family", "?"), "at": u}},
    )
    report = validate(Q)
    if not report.ok:
        raise DegenerateQuotient(f"vertex figure at {u} failed validation")
    return Q, a


def quotient(P: PolytopeInstance, tau):
    """Iterated vertex figure over the vertices of a face, sorted order.

    Returns (instance, heights) where heights maps each contraction
    step's vertex to its a-map.
    """
    inst = P
    heights = {}
    for v in face_key(tau):
        inst, a = vertex_figure(inst, v)
        heights[v] = a
    return inst, heights


def segment_hull_meet(a_pt, b_pt, C_points: dict):
    """Does conv(C) meet the segment [a, b]?

    C_points maps labels to coordinate tuples.  Returns (s, mu) with
    the smallest segment parameter s in [0, 1] such that
    a + s(b - a) = sum mu_c p(c), mu a convex combination, or None
    when hull and segment are disjoint.  Exact LP.  mu is the
    simplex's basic solution: its columns (p(c), 1, 0) are linearly
    independent, so the support of mu is affinely independent.
    """
    labels = sorted(C_points)
    if not labels:
        return None
    seg = exactla.vec_sub(b_pt, a_pt)
    # vars: mu_c (len labels), s
    A_eq = []
    b_eq = []
    for i in range(len(a_pt)):
        row = [C_points[c][i] for c in labels] + [-seg[i]]
        A_eq.append(row)
        b_eq.append(a_pt[i])
    A_eq.append([1] * len(labels) + [0])
    b_eq.append(1)
    A_ub = [[0] * len(labels) + [1]]
    b_ub = [1]
    obj = [0] * len(labels) + [-1]  # minimize s
    status, x, _ = exactla.simplex(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if status != "optimal":
        return None
    mu = {c: x[i] for i, c in enumerate(labels) if x[i] != 0}
    return x[-1], mu


def brute_force_facets(points: dict) -> frozenset:
    """Facets of conv(points) by exhaustive supporting-hyperplane tests.

    Every d-subset S spanning a hyperplane with all remaining points
    strictly on one side is a facet.  A supporting hyperplane that
    picks up an extra point means the hull is not simplicial (or the
    input is degenerate) and raises NotSimplicial, naming the first
    such S in lexicographic order.

    No hyperplane is built.  The side of a point x against
    S = (s0, ..., s_{d-1}) is the sign of
    det[p(s) - p(s0) for s in S[1:]; p(x) - p(s0)], up to one flip for
    all x: the hyperplane's normal is the row of cofactors of that
    determinant's last row.  Subsets run depth-first, in lexicographic
    order, over the integer difference vectors from each base point s0.
    Choosing a point u pivots every vector outside the prefix on u's
    first nonzero column with `exactla._pivot_step` and drops that
    column, now zero in all of them, so the subsets through a prefix
    share its elimination.  A zero u means the prefix is affinely
    dependent, and so is every subset through it.  The last point u
    meets vectors of two entries, and sigma(x) = u[0]*x[1] - x[0]*u[1].
    By Sylvester's identity (Bareiss 1968) that 2x2 minor of the
    eliminated vectors is the previous pivot, nonzero, times the
    determinant above with its columns in one fixed order, for every x
    alike, so the signs of sigma are the sides, exactly.
    For d = 1, sigma(x) is x's single coordinate.  Points in one
    hyperplane give sigma = 0 everywhere at the first subset classified,
    or classify none; both raise DegenerateEmbedding.
    """
    labels = sorted(points)
    if not labels:
        raise InvalidArgument("no points")
    d = len(points[labels[0]])
    for v in labels:
        if len(points[v]) != d:
            raise InvalidArgument(f"point for vertex {v} has length {len(points[v])}, expected {d}")
    if d == 0:
        raise InvalidArgument("points have no coordinates")
    pts = _integer_points([points[v] for v in labels])
    facets = set()

    def classify(S, sigmas):
        pos = neg = on = False
        for s in sigmas:
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            else:
                on = True
            if pos and neg:
                return
        if not (pos or neg):
            raise DegenerateEmbedding("points do not span the ambient space")
        if on:
            raise NotSimplicial(f"supporting hyperplane of {tuple(labels[i] for i in S)} contains an extra point")
        facets.add(frozenset(labels[i] for i in S))

    def walk(S, rows, prev):
        # rows: (index, vector) for every point outside S, eliminated on the
        # pivots of S[1:], each pivot's column dropped once it is all zeros
        for i, u in rows:
            if i < S[-1]:
                continue
            c = next((j for j, x in enumerate(u) if x), None)
            if c is None:
                continue  # p(u) lies in the affine hull of the prefix
            if len(u) == 2:
                p, q = u
                classify(S + (i,), (p * v[1] - v[0] * q for j, v in rows if j != i))
                continue
            nxt = [(j, list(v)) for j, v in rows if j != i]
            exactla._pivot_step([v for _, v in nxt], u, c, prev)
            for _, v in nxt:
                del v[c]
            walk(S + (i,), nxt, u[c])

    for b, base in enumerate(pts):
        rows = [(i, [a - o for a, o in zip(q, base)]) for i, q in enumerate(pts) if i != b]
        if d == 1:
            classify((b,), (v[0] for _, v in rows))
        else:
            walk((b,), rows, 1)
    if not facets:
        raise DegenerateEmbedding("points do not span the ambient space")
    return frozenset(facets)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple


def validate(P: PolytopeInstance) -> ValidationReport:
    """Replay the geometric checks that make P a simplicial polytope
    boundary realized by its embedding; sets P.validated."""
    K = P.complex
    p = P.embedding
    checks = []

    cover = set(K.vertices) == set(p.coords) and all(len(pt) == P.d for pt in p.coords.values())
    checks.append(("vertices_covered", cover, "complex vertices match embedded points"))

    pts = dict(zip(K.vertices, _integer_points(p.points(K.vertices)))) if cover else {}
    span_ok = cover and affine_rank(pts.values()) == P.d
    checks.append(("ambient_span", span_ok, f"affine hull has dimension {P.d}"))

    pure = K.is_pure() and K.dim == P.d - 1
    checks.append(("pure_dimension", pure, f"all facets have {P.d} vertices"))

    # one hyperplane per facet; support needs every facet independent
    indep = supported = span_ok and pure
    if indep:
        for S in K.facet_keys:
            h = _hyperplane([pts[s] for s in S])
            if h is None:
                indep = supported = False
                break
            if supported:
                sides = {_side(h, pts[w]) for w in K.vertices if w not in S}
                supported = sides <= {1} or sides <= {-1}
    checks.append(("facet_independence", indep, "facet points affinely independent"))
    checks.append(("supporting_hyperplanes", supported, "each facet hyperplane strictly supports"))

    hull_ok = False
    if supported:
        try:
            hull_ok = brute_force_facets(pts) == K.facets
        except NotSimplicial:
            hull_ok = False
    checks.append(("hull_facets_match", hull_ok, "hull facets equal the complex facets"))

    euler_ok = False
    if pure:
        f = K.f_counts()  # f_-1 .. f_{d-1}
        euler_ok = sum((-1) ** i * f[i + 1] for i in range(P.d)) == 1 + (-1) ** (P.d - 1)
    checks.append(("euler", euler_ok, "boundary-sphere Euler relation"))

    ok = all(c[1] for c in checks)
    P.validated = ok
    return ValidationReport(ok=ok, checks=tuple(checks))
