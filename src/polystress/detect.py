"""Missing-face detection through stress sign certificates.

A certificate is a triple (M, F, lambda): a vertex set M, a face F
inside it with |F| = k-1, and a k-stress whose squarefree
coefficients are nonpositive on every face F+u leaving M, with at
least one strictly negative.  Such a triple proves M is not a face.
The searches here find certificates by exact LP over a stress basis;
the constructive builders produce explicit stresses for missing
edges (d = 3 and d >= 4 routes) and for missing faces of
k-neighborly polytopes (powers of a linear form).  Every stress
comes from `stress_basis` or `power_stress`; no rigidity matrix or
polynomial expansion is built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import exactla
from .errors import (
    InvalidArgument,
    InvalidCertificate,
    InvalidInput,
    NotAFace,
    NotAVertex,
    NotMissing,
    NotNeighborlyEnough,
    RigidityFailure,
)
from .geometry import (
    Embedding,
    PolytopeInstance,
    affine_rank,
    segment_hull_meet,
    validate,
)
from .rat import R1, sign
from .simplicial import (
    SimplicialComplex,
    build_complex,
    extensions,
    face_key,
    link,
    missing_faces,
)
from .stress import (
    StressVector,
    balancing_residual,
    power_stress,
    stress_basis,
)


def sign_vector(sv: StressVector, faces=None) -> dict:
    """Map face -> sign of the squarefree coefficient.

    With `faces` given, the domain is exactly those faces (zeros
    included); otherwise it is the support of the stress.
    """
    if faces is None:
        return {F: sign(c) for F, c in sorted(sv.coeffs.items())}
    return {face_key(F): sv.sign(F) for F in faces}


@dataclass(frozen=True)
class Certificate:
    """(M, F, stress) with the sign pattern over the faces F+u."""

    missing: tuple
    base: tuple
    stress: StressVector
    pattern: dict


def _star(F, vertices, faces) -> dict:
    """{u: F+u} over the vertices u outside F whose F+u is in `faces`
    (sorted tuples), in the order of `vertices`."""
    Fset = set(F)
    star = {}
    for u in vertices:
        if u not in Fset:
            S = face_key(Fset | {u})
            if S in faces:
                star[u] = S
    return star


def certificate_check(cert: Certificate, K: SimplicialComplex, p: Embedding) -> bool:
    """Verify a certificate against the complex it claims to certify.

    Structural defects (wrong sizes, support escaping the allowed
    carrier, balancing failure) raise InvalidCertificate.  Returns
    True iff the sign condition holds: every face F+u with u outside
    M carries a nonpositive coefficient and at least one is strictly
    negative.
    """
    sv = cert.stress
    k = sv.degree
    if k < 2:
        raise InvalidCertificate("certificates need stress degree >= 2")
    F = face_key(cert.base)
    M = face_key(cert.missing)
    Fset, Mset = set(F), set(M)
    if len(F) != k - 1:
        raise InvalidCertificate(f"base face has {len(F)} vertices, expected {k - 1}")
    if not Fset < Mset:
        raise InvalidCertificate("base face must be a proper subset of M")
    if not Mset <= set(K.vertices):
        raise InvalidCertificate("M contains unknown vertices")
    if not K.has_face(F):
        raise InvalidCertificate(f"base face {F} is not a face")

    extra = None
    for S in sv.support():
        if len(S) != k:
            raise InvalidCertificate(f"support face {S} has size {len(S)}, expected {k}")
        if K.has_face(S):
            continue
        if not (Fset <= set(S) <= Mset):
            raise InvalidCertificate(f"support face {S} is outside the complex and not between F and M")
        if extra is not None and extra != S:
            raise InvalidCertificate("support leaves the complex on more than one face")
        extra = S

    carrier = K if extra is None else build_complex(list(K.facets) + [frozenset(extra)])
    residual = balancing_residual(sv, carrier, p)
    if any(not exactla.is_zero_vec(vec) for vec in residual.values()):
        raise InvalidCertificate("balancing condition fails; not a stress")

    signs = [sv.sign(S) for u, S in _star(F, K.vertices, K.face_set(k)).items() if u not in Mset]
    return 1 not in signs and -1 in signs


def _stress_space(carrier: SimplicialComplex, basis, k: int):
    """The k-faces of the carrier in order, their index, and the basis
    as coordinate vectors over them, scaled to integers once per space.

    The global LPs over such a space keep no Farkas rays.
    `find_certificate` and `quotient_certificate` run one LP per
    space.  In `probe_missing_faces` every query for one G has the
    strict set {G}, and the weak sets {F+u : u not in G} of distinct
    F in G are disjoint, since F+u meets G in F.  So a ray could
    answer a later F only if its negative part were empty, when every
    stress vanishes on G."""
    degrees = {b.degree for b in basis}
    if degrees - {k}:
        raise InvalidArgument(f"basis degrees {sorted(degrees)} do not match |F|+1 = {k}")
    face_order = carrier.faces_of_size(k)
    index = {S: i for i, S in enumerate(face_order)}
    return face_order, index, [exactla._integerize(b.as_vector(face_order)) for b in basis]


def _feasible_certificate(k, space, skel, M, F):
    """Shared LP step over a `_stress_space`: strict positivity on F+v
    inside M, nonpositive on F+u leaving M.  Returns a Certificate or
    None, without an LP when the basis is empty."""
    face_order, index, vectors = space
    if not vectors:
        return None
    star = _star(F, skel.vertices, index)
    strict = []
    for v in sorted(set(M) - set(F)):
        if v not in star:
            raise InvalidArgument(f"{face_key(set(F) | {v})} is not a face of the carrier")
        strict.append(index[star[v]])
    weak = [index[S] for u, S in star.items() if u not in M]
    witness = exactla.strict_feasible(vectors, strict, weak)
    if witness is None:
        return None
    sv = StressVector.from_vector(k, face_order, witness)
    pattern = {S: sv.sign(S) for S in star.values()}
    return Certificate(missing=face_key(M), base=face_key(F), stress=sv, pattern=pattern)


def find_certificate(skel: SimplicialComplex, basis, M, F):
    """Search span(basis) for a stress certifying that M is not a face.

    F must be a (k-1)-subset of M and a face; every F+v for v in M
    must be a face of skel as well.  Returns None when the sign
    pattern is infeasible over the given stress space.
    """
    F = face_key(F)
    M = face_key(M)
    if not set(F) < set(M):
        raise InvalidArgument("F must be a proper subset of M")
    if not basis:
        return None
    k = len(F) + 1
    space = _stress_space(skel, basis, k)
    if not skel.has_face(F):
        raise NotAFace(f"{F} is not a face")
    return _feasible_certificate(k, space, skel, M, F)


def _local_span(space, skel, F):
    """The stress space projected onto star(F)'s coordinates.

    Returns ({u: local column of F+u}, rows, rays): the columns are the
    faces F+u of the carrier, `rows` is the integerized `exactla.rref`
    of the basis restricted to them, which spans pi_F(L) for
    L = span(basis), and `rays` is this span's own Farkas-ray list.
    """
    _, index, vectors = space
    star = _star(F, skel.vertices, index)
    _, rows = exactla.rref([[B[index[S]] for S in star.values()] for B in vectors])
    return {u: j for j, u in enumerate(star)}, [exactla._integerize(r) for r in rows], []


def _locally_feasible(local, M, F) -> bool:
    """`_feasible_certificate(...) is not None`, asked over `_local_span(space, skel, F)`.

    Every column F+u is strict (u in M - F) or weak (u outside M), so
    `exactla.pattern_feasible` fixes the sign of each pivot coordinate
    and its LP has r_F + 1 structural columns, where the witness LP of
    `strict_feasible` splits each coefficient in two and has 2 r_F + 1."""
    cols, rows, rays = local
    return exactla.pattern_feasible(rows, [cols[v] for v in M if v not in F], rays)


def certificate_sweep(skel: SimplicialComplex, basis, d: int, k: int):
    """Candidate sets of size k+1 .. d-k+1 whose k-subsets are all
    faces, split into (certified minimal, admissible but uncertified).
    Needs k >= 2 and d >= 2k.

    Candidates of each size are the extensions of the previous size's
    uncertified candidates (starting from the k-faces), so supersets of
    certified sets are never tried and the first list holds the minimal
    certified elements in (size, lex) order.

    Each query (M, F) reads only the coordinates F+u, so it runs over
    the projection pi_F(L) of L = span(basis) onto them, built once per
    base face by `_local_span`: x in L meets the sign conditions iff
    pi_F(x) does, so the verdict is the global LP's, over r_F + 1
    structural columns (`_locally_feasible`) instead of 2 dim L + 1.
    A Farkas ray w orthogonal to pi_F(L), padded with zeros, is
    orthogonal to L, so `pattern_feasible`'s exact check of w against
    the local rows keeps every skip certified; rays are kept per base
    face, in its local columns.  The rref of a span is unique, so the
    LPs depend on L and not on the basis chosen for it.  An empty basis
    certifies nothing and builds no span.
    """
    if k < 2:
        raise InvalidArgument("certificate sweeps need k >= 2")
    if d < 2 * k:
        raise InvalidArgument(f"need d >= 2k, got d={d}, k={k}")
    space = _stress_space(skel, basis, k)
    local = {}

    def certifies(M, F):
        if F not in local:
            local[F] = _local_span(space, skel, F)
        return _locally_feasible(local[F], M, F)

    level = skel.face_set(k)
    certified: list[tuple] = []
    open_candidates: list[tuple] = []
    for _ in range(k + 1, d - k + 2):
        grown = set()
        for M in extensions(level, skel.vertices):
            if not skel.has_face(M):  # a visible face has nothing to certify
                if space[2] and any(certifies(M, F) for F in combinations(M, k - 1)):
                    certified.append(M)
                    continue  # no superset of M is a candidate
                open_candidates.append(M)
            grown.add(M)
        level = grown
    return certified, open_candidates


def enumerate_missing_faces(skel: SimplicialComplex, basis, d: int, k: int) -> list[tuple]:
    """Minimal certified non-faces with k+1 <= |M| <= d-k+1.

    For k = 2 these are exactly the missing faces of the hidden
    polytope in that size range; for k >= 3 the uncertified
    candidates are undecided and not returned.
    """
    certified, _ = certificate_sweep(skel, basis, d, k)
    return certified


def quotient_certificate(P: PolytopeInstance, M, F, x0=None):
    """Certificate for M found inside the star of M minus (F + x0).

    Chooses G = F + {x0} (default: smallest vertex of M outside F),
    restricts to the subcomplex st(M - G) with G adjoined, computes
    its stress space, and searches it for the certificate pattern.
    The witness is also a stress of the ambient boundary union {G},
    supported near the contracted face.
    """
    K = P.complex
    p = P.embedding
    F = face_key(F)
    M = face_key(M)
    k = len(F) + 1
    if not set(F) < set(M):
        raise InvalidArgument("F must be a proper subset of M")
    rest = sorted(set(M) - set(F))
    if x0 is None:
        x0 = rest[0]
    if x0 not in rest:
        raise InvalidArgument(f"{x0} is not in M minus F")
    G = face_key(set(F) | {x0})
    tau = tuple(v for v in M if v not in G)
    if not tau:
        raise InvalidArgument("M minus G is empty; use find_certificate directly")
    if not K.has_face(tau):
        raise NotAFace(f"{tau} is not a face, cannot contract it")
    carrier = build_complex([T for T in K.facets if T.issuperset(tau)] + [frozenset(G)])
    for v in rest:
        if v != x0 and not carrier.has_face(set(F) | {v}):
            return None  # the star is too small to see the strict faces
    return _feasible_certificate(k, _stress_space(carrier, stress_basis(carrier, p, k), k), carrier, M, F)


# ---------------------------------------------------------------------------
# constructive stress builders for missing edges


def _component_of_b(graph_adj, avoid: set, b: int):
    """Vertices reachable from b avoiding `avoid` (the link of a and a
    itself), with BFS parents for path reconstruction.  Deterministic:
    neighbors are scanned in sorted order."""
    dist = {b: 0}
    parent = {}
    queue = [b]
    while queue:
        nxt = []
        for w in queue:
            for u in graph_adj[w]:
                if u in avoid or u in dist:
                    continue
                dist[u] = dist[w] + 1
                parent[u] = w
                nxt.append(u)
        queue = nxt
    return dist, parent


def _extend_independent(points: dict, core: list, pool: list, d: int, avoid_pt):
    """Grow `core` to d labels from `pool` with avoid_pt outside their
    affine hull, or return None.

    The label sets S with S + {avoid_pt} affinely independent are the
    independent sets of a matroid (the affine matroid contracted by
    avoid_pt), so one greedy pass in pool order reaches d labels
    whenever any extension of the core does.  A core that fails the
    test itself has no extension."""

    def keeps_avoid_out(labels):
        return affine_rank([points[c] for c in labels] + [avoid_pt]) == len(labels)

    chosen = list(core)
    if not keeps_avoid_out(chosen):
        return None
    for c in pool:
        if len(chosen) == d:
            break
        if c not in chosen and keeps_avoid_out(chosen + [c]):
            chosen.append(c)
    return chosen if len(chosen) == d else None


def missing_edge_stress(P: PolytopeInstance, a: int, b: int) -> StressVector:
    """A 2-stress on G(P) + ab with coefficient 1 on the missing edge ab.

    d = 3: the kernel of the extended rigidity matrix is a line; its
    normalization is returned and is nonpositive on every edge at a
    or b.  d >= 4: built from a separator of link-of-a vertices whose
    hull meets [a, b]; the returned stress is nonpositive on every
    edge at a (the first argument).
    """
    if not P.validated:
        report = validate(P)
        if not report.ok:
            raise InvalidArgument("instance failed validation")
    K = P.complex
    p = P.embedding
    d = P.d
    if d < 3:
        raise InvalidArgument("missing-edge stresses need d >= 3")
    for v in (a, b):
        if v not in K.vertex_index:
            raise NotAVertex(f"{v} is not a vertex")
    if a == b:
        raise InvalidArgument("endpoints coincide")
    ab = face_key((a, b))
    if K.has_face(ab):
        raise NotMissing(f"{ab} is an edge of the complex")

    if d == 3:
        aug = build_complex(list(K.facets) + [frozenset(ab)])
        basis = stress_basis(aug, p, 2)
        if len(basis) != 1:
            raise RigidityFailure(f"extended kernel has dimension {len(basis)}, expected 1")
        sv = basis[0]
        val = sv.coeff(ab)
        if val == 0:
            raise RigidityFailure("kernel element vanishes on the added edge")
        return sv.scaled(R1 / val)
    return _edge_stress_high_dim(P, a, b)


def _edge_stress_high_dim(P: PolytopeInstance, a: int, b: int) -> StressVector:
    """The d >= 4 route of `missing_edge_stress`.  The stress reads only
    vertices and edges, so its carrier is built once, straight from the
    facets that meet the BFS paths, plus the edges a-c and ab."""
    K = P.complex
    p = P.embedding
    d = P.d
    ab = face_key((a, b))

    adj: dict[int, list[int]] = {v: [] for v in K.vertices}
    for e in K.faces_of_size(2):
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    for v in adj:
        adj[v].sort()

    link_a = set(link(K, (a,)).vertices)
    dist, parent = _component_of_b(adj, link_a | {a}, b)
    C = sorted(c for c in link_a if any(w in dist for w in adj[c]))
    if not C:
        raise RigidityFailure("no connector vertices; graph is disconnected around a")

    C_points = {c: p.point(c) for c in C}
    meet = segment_hull_meet(p.point(a), p.point(b), C_points)
    if meet is None:
        raise RigidityFailure("connector hull misses the segment; input is not a polytope boundary")
    # mu is a basic solution, so its support is affinely independent
    core = sorted(meet[1])
    Cp = _extend_independent(C_points, core, C, d, p.point(a))
    if Cp is None:
        raise RigidityFailure("no affinely independent connector extension avoids the apex hull")

    # union of stars over internal path vertices, paths chosen from the BFS tree
    path_vertices: set[int] = set()
    for c in Cp:
        cur = min((u for u in adj[c] if u in dist), key=lambda u: (dist[u], u))
        path_vertices.add(cur)
        while cur != b:
            cur = parent[cur]
            path_vertices.add(cur)
    extra = [frozenset((a, c)) for c in Cp] + [frozenset(ab)]
    carrier = build_complex([T for T in K.facets if T & path_vertices] + extra)

    for sv in stress_basis(carrier, p, 2):
        val = sv.coeff(ab)
        if val != 0:
            return sv.scaled(R1 / val)
    raise RigidityFailure("no kernel element uses the added edge")


def _link_cycle(K: SimplicialComplex, v: int) -> list[int]:
    """Vertices of lk(v) in cyclic order; requires the link to be a
    single cycle, as in a 3-polytope boundary."""
    lk = link(K, (v,))
    edges = lk.faces_of_size(2)
    nbr: dict[int, list[int]] = {}
    for e in edges:
        nbr.setdefault(e[0], []).append(e[1])
        nbr.setdefault(e[1], []).append(e[0])
    if not nbr or any(len(us) != 2 for us in nbr.values()):
        raise InvalidInput(f"link of {v} is not a cycle")
    start = min(nbr)
    cycle = [start, min(nbr[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(nbr):
        raise InvalidInput(f"link of {v} is not a single cycle")
    return cycle


def sign_changes(sv: StressVector, P: PolytopeInstance, v: int) -> int:
    """Sign changes of the edge labels around v, in link order, zeros
    skipped.  Only meaningful for d = 3."""
    if P.d != 3:
        raise InvalidArgument("sign-change counting is a d = 3 diagnostic")
    if v not in P.complex.vertex_index:
        raise NotAVertex(f"{v} is not a vertex")
    cycle = _link_cycle(P.complex, v)
    signs = [s for s in (sv.sign((v, u)) for u in cycle) if s != 0]
    if not signs:
        return 0
    return sum(1 for s, t in zip(signs, signs[1:] + signs[:1]) if s != t)


# ---------------------------------------------------------------------------
# neighborly polytopes


def _check_neighborly(K: SimplicialComplex, k: int) -> None:
    n = len(K.vertices)
    if len(K.face_set(k)) != comb(n, k):
        raise NotNeighborlyEnough(f"not {k}-neighborly: some {k}-subset is not a face")


def neighborly_certificate(P: PolytopeInstance, M, k: int) -> Certificate:
    """Certificate for a missing face of a k-neighborly polytope.

    Finds an affine dependence splitting M against the rest by exact
    LP (positive on M) and returns its k-th power.  The sign pattern
    is positive on k-subsets of M and alternates with |G - M| parity
    elsewhere.
    """
    if k < 2:
        raise InvalidArgument("certificates need k >= 2")
    K = P.complex
    p = P.embedding
    _check_neighborly(K, k)
    M = face_key(M)
    Mset = set(M)
    if not Mset <= set(K.vertices):
        raise InvalidArgument("M contains unknown vertices")
    if K.has_face(M):
        raise NotMissing(f"{M} is a face")
    for W in combinations(M, len(M) - 1):
        if not K.has_face(W):
            raise NotMissing(f"{M} is not minimal: {W} is already a non-face")

    V = K.vertices
    n = len(V)
    d = P.d
    # vars: a_v for v in V, then t; maximize t subject to a_v >= t on M,
    # equal weighted barycenters, both sides summing to 1
    A_eq = []
    b_eq = []
    for i in range(d):
        row = []
        for v in V:
            x = p.point(v)[i]
            row.append(x if v in Mset else -x)
        row.append(0)
        A_eq.append(row)
        b_eq.append(0)
    A_eq.append([1 if v in Mset else 0 for v in V] + [0])
    b_eq.append(1)
    A_eq.append([0 if v in Mset else 1 for v in V] + [0])
    b_eq.append(1)
    A_ub = []
    b_ub = []
    for j, v in enumerate(V):
        if v in Mset:
            row = [0] * (n + 1)
            row[j] = -1
            row[n] = 1
            A_ub.append(row)
            b_ub.append(0)
    A_ub.append([0] * n + [1])
    b_ub.append(1)
    obj = [0] * n + [1]
    status, x, value = exactla.simplex(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if status != "optimal" or value <= 0:
        raise NotMissing(f"relative interior of {M} misses the opposite hull; not a missing face")

    phi = {}
    for j, v in enumerate(V):
        if x[j] != 0:
            phi[v] = x[j] if v in Mset else -x[j]
    sv = power_stress(phi, k, K, p)
    F = M[: k - 1]
    pattern = {S: sv.sign(S) for S in _star(F, V, K.face_set(k)).values()}
    return Certificate(missing=M, base=F, stress=sv, pattern=pattern)


def recover_stress1_from_stress2(P: PolytopeInstance) -> list[StressVector]:
    """Span of the partial derivatives of all 2-stresses, as 1-stresses.

    For a 2-neighborly polytope this equals the affine-dependence
    space of the vertices, so the degree-1 stress data is recoverable
    from degree 2.  Theta's all-ones row forces the x_v^2 coefficient
    to -(sum_u c_uv)/2, so d/dx_v is sum_u c_uv (x_u - x_v).
    """
    K = P.complex
    p = P.embedding
    _check_neighborly(K, 2)
    V = K.vertices
    rows = []
    for sv in stress_basis(K, p, 2):
        for i, v in enumerate(V):
            row = [sv.coeff((u, v)) for u in V]  # (v, v) is no edge: 0
            row[i] = -sum(row)
            if any(row):
                rows.append(row)
    _, reduced = exactla.rref(rows)
    out = []
    for row in reduced:
        coeffs = {(v,): c for v, c in zip(V, row) if c != 0}
        out.append(StressVector(degree=1, coeffs=coeffs))
    return out


# ---------------------------------------------------------------------------
# conjecture probing


def probe_missing_faces(P: PolytopeInstance, k: int) -> list[dict]:
    """Per-(G, F) search for the missing-face stress pattern.

    For every missing (k-1)-face G of the boundary and every
    (k-1)-subset F of G, searches Stress_k(boundary + G) for a stress
    with positive coefficient on G and nonpositive ones on every face
    F+u.  Found certificates are re-verified independently.  Verdicts
    are deterministic and ordered by (G, F).
    """
    if k < 2:
        raise InvalidArgument("probing needs k >= 2")
    K = P.complex
    p = P.embedding
    results = []
    targets = [M for M in missing_faces(K, k) if len(M) == k]
    for G in targets:
        aug = build_complex(list(K.facets) + [frozenset(G)])
        space = _stress_space(aug, stress_basis(aug, p, k), k)
        for F in combinations(G, k - 1):
            cert = _feasible_certificate(k, space, aug, G, F)
            entry = {"G": G, "F": F, "found": cert is not None, "verified": False}
            if cert is not None:
                entry["verified"] = certificate_check(cert, K, p)
                entry["certificate"] = cert
            results.append(entry)
    return results
