"""Abstract simplicial complexes with integer vertex labels.

A complex is stored by its facets (inclusionwise maximal faces).  The
constructor keeps the maximal members of any generating set.  It walks
the sizes down by shadows: S_s is {G - {v}} over the members and shadow
sets G of size s + 1, i.e. the s-subsets of every larger member, and a
member of size s is dominated exactly when it lies in S_s.  A shadow
can hold exponentially many sets (one large member and one small), so
the walk stops once S_s outnumbers the members still untested; those
are then tested by intersecting, over their vertices, the sets of kept
members that hold each vertex.  So the work stays polynomial in the
members' number and sizes.  The faces of each size are cached as a set
of sorted tuples on first use, so membership is a set lookup.  Subset-closed families of vertex sets are
grown one vertex at a time by `extensions`, never by enumeration.

Vertex labels are arbitrary nonnegative ints supplied by the caller.
`vertex_index` maps them to dense positions 0..n-1 (sorted label
order); matrix-building code uses those positions for stable row and
column indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import InvalidArgument, InvalidComplex, NotAFace

Face = frozenset  # of int vertex labels


def face_key(F) -> tuple[int, ...]:
    """Sorted-tuple form of a face, used wherever a total order is needed."""
    return tuple(sorted(F))


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex given by a generating set of faces.

    The constructor checks the labels, rejects an empty collection and
    keeps the maximal members (module docstring), so `facets`
    is an antichain of frozensets whatever the caller passed.
    """

    facets: frozenset
    _face_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        by_size: dict[int, set] = {}
        for F in map(frozenset, self.facets):
            for v in F:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InvalidComplex(f"vertex labels must be nonnegative ints, got {v!r}")
            by_size.setdefault(len(F), set()).add(F)
        if not by_size:
            raise InvalidComplex("a complex needs at least one face")
        kept, shadow, s = [], set(), max(by_size)
        left = sum(map(len, by_size.values()))  # members not yet tested
        while left and len(shadow) <= left:  # one size builds no shadow; see module docstring
            members = by_size.pop(s, set())
            kept.extend(members - shadow)
            left -= len(members)
            shadow = {G - {v} for G in members | shadow for v in G} if left else shadow
            s -= 1
        holders: dict[int, set] = {}  # vertex -> positions in kept of the members holding it
        for i, G in enumerate(kept if left else ()):
            for v in G:
                holders.setdefault(v, set()).add(i)
        for F in sorted((F for level in by_size.values() for F in level), key=len, reverse=True):
            if F and not set.intersection(*sorted((holders.get(v, set()) for v in F), key=len)):
                for v in F:
                    holders.setdefault(v, set()).add(len(kept))
                kept.append(F)
        object.__setattr__(self, "facets", frozenset(kept))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        vs = set()
        for F in self.facets:
            vs.update(F)
        return tuple(sorted(vs))

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def dim(self) -> int:
        return max(len(F) for F in self.facets) - 1

    @cached_property
    def facet_keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(face_key(F) for F in self.facets))

    def _faces(self, s: int) -> frozenset:
        return frozenset(T for G in self.facet_keys for T in combinations(G, s)) if s >= 0 else frozenset()

    def face_set(self, s: int) -> frozenset:
        """The faces with s vertices as sorted tuples, cached per size."""
        faces = self._face_sets.get(s)
        if faces is None:
            faces = self._face_sets[s] = self._faces(s)
        return faces

    def has_face(self, F) -> bool:
        try:
            F = face_key(set(F))
        except TypeError:  # labels that do not sort together are not all int vertices
            return False
        return F in self.face_set(len(F))

    __contains__ = has_face

    def faces_of_size(self, s: int) -> list[tuple[int, ...]]:
        """All faces with s vertices, as sorted tuples in sorted order."""
        return sorted(self.face_set(s))

    def f_counts(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) as a plain tuple.  Not cached: validation
        counts every size of every instance, most never looked up again."""
        return tuple(len(self._faces(s)) for s in range(self.dim + 2))

    def is_pure(self) -> bool:
        return all(len(F) == self.dim + 1 for F in self.facets)


def build_complex(facets) -> SimplicialComplex:
    """Normalize a collection of faces into a complex.

    Dominated members are dropped, so any generating set of faces is
    accepted.  Vertex labels must be nonnegative ints and the
    collection must be nonempty (the complex {()} is allowed and is
    the result of an empty facet).  The constructor does the work.
    """
    return SimplicialComplex(facets=facets)


def skeleton(K: SimplicialComplex, i: int) -> SimplicialComplex:
    """The subcomplex of faces of dimension at most i, for -1 <= i <= dim."""
    if not -1 <= i <= K.dim:
        raise InvalidArgument(f"skeleton index {i} outside [-1, {K.dim}]")
    if i == K.dim:
        return K
    gens = {frozenset(F) for F in K.face_set(i + 1)}
    gens.update(F for F in K.facets if len(F) <= i)  # short facets survive
    return SimplicialComplex(facets=gens)


def _carrying(K: SimplicialComplex, F) -> tuple[frozenset, list]:
    """F as a frozenset and the facets of K that contain it."""
    F = frozenset(F)
    if not K.has_face(F):
        raise NotAFace(f"{sorted(F)} is not a face")
    return F, [G for G in K.facets if F <= G]


def star(K: SimplicialComplex, F) -> SimplicialComplex:
    """The closed star of a face: the facets containing it, closed
    downwards.  star(K, {}) is K itself.  Builds one complex."""
    return SimplicialComplex(facets=_carrying(K, F)[1])


def link(K: SimplicialComplex, F) -> SimplicialComplex:
    """The link of a face: G - F over the facets G containing it,
    closed downwards.  link(K, {}) is K itself.  Builds one complex."""
    F, carrying = _carrying(K, F)
    return SimplicialComplex(facets=[G - F for G in carrying])


def extensions(level, vertices):
    """The (s+1)-sets whose s-subsets all lie in `level` (s-sets as
    sorted tuples), in lex order: each set S gains a vertex of
    `vertices` above its largest one."""
    vertices = sorted(vertices)
    for S in sorted(level):
        for v in vertices:
            if S and v <= S[-1]:
                continue
            T = S + (v,)
            if all(T[:j] + T[j + 1 :] in level for j in range(len(S))):
                yield T


def missing_faces(K: SimplicialComplex, max_card: int) -> list[tuple[int, ...]]:
    """Minimal non-faces with at most max_card vertices, sorted.

    M is a missing face when M itself is not in K but every proper
    subset is, so the candidates of size s are the extensions of the
    (s-1)-faces, and s stops at dim + 2.
    """
    if max_card < 1:
        raise InvalidArgument("max_card must be at least 1")
    sizes = range(1, min(max_card, K.dim + 2) + 1)
    return [M for s in sizes for M in extensions(K.face_set(s - 1), K.vertices) if not K.has_face(M)]


def join(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex sets must be disjoint."""
    if set(A.vertices) & set(B.vertices):
        raise InvalidArgument("join requires disjoint vertex sets")
    return build_complex([F | G for F in A.facets for G in B.facets])


def cone(apex: int, K: SimplicialComplex) -> SimplicialComplex:
    """The cone apex * K.  cone(v, {()}) is the single vertex v."""
    return join(build_complex([{apex}]), K)


@dataclass(frozen=True)
class FGVector:
    """f- and g-numbers of a (d-1)-dimensional complex.

    f runs f_-1..f_{d-1}; g runs g_0..g_{ceil(d/2)} and is zero
    outside that range, which `g_at` encodes.
    """

    d: int
    f: tuple[int, ...]
    g: tuple[int, ...]

    def f_at(self, i: int) -> int:
        # i is a face dimension, -1-based
        if not -1 <= i <= self.d - 1:
            raise InvalidArgument(f"f_{i} undefined for d={self.d}")
        return self.f[i + 1]

    def g_at(self, i: int) -> int:
        if i < 0:
            raise InvalidArgument("g index must be nonnegative")
        if i >= len(self.g):
            return 0
        return self.g[i]


def fg_vector(K: SimplicialComplex, d: int) -> FGVector:
    """f- and g-vector of K viewed as a (d-1)-dimensional complex.

    g_0 = 1 and, for 1 <= i <= ceil(d/2),

        g_i = sum_{k=0}^{i} (-1)^(i-k) C(d-k+1, i-k) f_{k-1}.
    """
    if K.dim != d - 1:
        raise InvalidArgument(f"complex has dim {K.dim}, expected {d - 1}")
    f = K.f_counts()
    top = (d + 1) // 2
    g = [1]
    for i in range(1, top + 1):
        g.append(sum((-1) ** (i - k) * comb(d - k + 1, i - k) * f[k] for k in range(i + 1)))
    return FGVector(d=d, f=f, g=tuple(g))
