from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import instance
from oracles import (
    diff_var,
    f_vector,
    fraction_expand_squarefree,
    fraction_power_stress,
    g_vector,
    gauss_rank,
    gram_altitude,
    gram_balancing_residual,
    gram_rigidity_matrix,
    gram_rigidity_report,
    is_affine_stress,
    pairwise_expand_squarefree,
    poly_from_full,
    schmidt_altitude,
    supported_on,
)
from polystress import exactla
from polystress.errors import (
    DegenerateEmbedding,
    DegenerateFace,
    ExpansionFailure,
    InvalidArgument,
    NotAVertex,
    NotNeighborlyEnough,
    PolystressError,
)
from polystress.exactla import RatMatrix, kernel_basis, rref
from polystress.geometry import Embedding, altitude_vector, vertex_figure
from polystress.rat import R0, R1, rat
from polystress.simplicial import build_complex, cone, skeleton
from polystress.stress import (
    RigidityReport,
    StressVector,
    balancing_residual,
    cone_lift,
    expand_squarefree,
    is_infinitesimally_rigid,
    poly_directional,
    power_stress,
    rigidity_matrix,
    stress_basis,
    theta,
)


def emb(pts, dim=None):
    dim = dim if dim is not None else len(pts[0])
    return Embedding.build(dim, {i: p for i, p in enumerate(pts)})


def linear_form(sv):
    """Vertex -> coefficient map of a degree-1 stress vector."""
    return {v: c for (v,), c in sv.coeffs.items()}


def octahedron_plus_diagonal(octahedron):
    return build_complex(list(skeleton(octahedron.complex, 1).facets) + [(0, 1)])


# ---------------------------------------------------------------------------
# directional derivatives

_monomials = st.dictionaries(st.integers(0, 4), st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda m: sum(m.values()) <= 4
)


@given(
    poly=st.dictionaries(_monomials.map(lambda m: tuple(sorted(m.items()))), st.integers(-3, 3).map(rat), max_size=6),
    weights=st.dictionaries(st.integers(0, 5), st.integers(-2, 2).map(rat), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_poly_directional_matches_diff_var(poly, weights):
    # weights may be zero or leave a vertex out (vertex 5 appears in no monomial)
    flat = poly_from_full(poly)
    want: dict = {}
    for v, w in weights.items():
        for m, c in diff_var(flat, v).items():
            want[m] = want.get(m, 0) + w * c
    assert poly_from_full(poly_directional(poly, weights)) == {m: c for m, c in want.items() if c}


def test_poly_directional_drops_cancelled_terms():
    # (d/dx0 + d/dx1)(x0^2 - 2 x0 x1 + x1 x2) = 2 x0 - 2 x1 - 2 x0 + x2: no x0 key
    poly = {((0, 2),): R1, ((0, 1), (1, 1)): rat(-2), ((1, 1), (2, 1)): R1}
    want = {((1, 1),): rat(-2), ((2, 1),): R1}
    assert poly_directional(poly, {0: R1, 1: R1}) == want
    assert poly_directional(poly, {0: R1, 1: R1, 2: R0}) == want
    assert poly_directional(poly, {3: R1}) == {}


# ---------------------------------------------------------------------------
# theta


def test_theta_octahedron(octahedron):
    th = theta(octahedron.embedding)
    assert (th.nrows, th.ncols) == (4, 6)
    assert th.col_labels == (0, 1, 2, 3, 4, 5)
    assert th.entries[0] == (R1, -R1, R0, R0, R0, R0)
    assert th.entries[1] == (R0, R0, R1, -R1, R0, R0)
    assert th.entries[2] == (R0, R0, R0, R0, R1, -R1)
    assert th.entries[3] == (R1,) * 6


def test_theta_single_point():
    th = theta(Embedding.build(1, {7: (0,)}))
    assert th.entries == ((R0,), (R1,))


def test_theta_column_order():
    p = emb([(0, 0), (1, 0), (0, 1)])
    th = theta(p, order=(2, 0, 1))
    assert th.col_labels == (2, 0, 1)
    assert th.entries[0] == (R0, R0, R1)


def test_theta_translation_keeps_row_span(octahedron):
    p = octahedron.embedding
    ident = [[R1 if i == j else R0 for j in range(3)] for i in range(3)]
    q = p.transformed(ident, (rat(1), rat(-2), rat(1, 3)))
    assert rref([list(r) for r in theta(p).entries]) == rref([list(r) for r in theta(q).entries])


# ---------------------------------------------------------------------------
# rigidity matrices


def test_rigidity_matrix_triangle():
    K = build_complex([(0, 1, 2)])
    p = emb([(0, 0), (1, 0), (0, 1)])
    R = rigidity_matrix(K, p, 2)
    assert (R.nrows, R.ncols) == (6, 3)
    rows = {lab: R.entries[i] for i, lab in enumerate(R.row_labels)}
    j = R.col_labels.index((0, 1))
    # altitude over a single point is just the difference vector
    assert [rows[((0,), ax)][j] for ax in range(2)] == [R1, R0]
    assert [rows[((1,), ax)][j] for ax in range(2)] == [-R1, R0]
    j = R.col_labels.index((1, 2))
    assert [rows[((0,), ax)][j] for ax in range(2)] == [R0, R0]
    rank, kern = kernel_basis(R)
    assert (rank, kern) == (3, [])
    assert gauss_rank(R.entries) == 3


def test_rigidity_matrix_octahedron(octahedron):
    G = skeleton(octahedron.complex, 1)
    R = rigidity_matrix(G, octahedron.embedding, 2)
    assert (R.nrows, R.ncols) == (18, 12)
    rank, kern = kernel_basis(R)
    assert (rank, kern) == (12, [])
    assert gauss_rank(R.entries) == 12


def test_rigidity_matrix_octahedron_plus_diagonal(octahedron):
    aug = octahedron_plus_diagonal(octahedron)
    R = rigidity_matrix(aug, octahedron.embedding, 2)
    assert (R.nrows, R.ncols) == (18, 13)
    rank, kern = kernel_basis(R)
    assert rank == 12 and len(kern) == 1
    assert gauss_rank(R.entries) == 12


def test_rigidity_matrix_rejects():
    with pytest.raises(InvalidArgument):
        rigidity_matrix(build_complex([(0, 1)]), emb([(0,), (1,)], dim=1), 1)
    with pytest.raises(DegenerateFace):
        rigidity_matrix(build_complex([(0, 1)]), emb([(0,), (0,)], dim=1), 2)


# ---------------------------------------------------------------------------
# integer assembly against the Gram oracles


def outcome(f, *args):
    """f's value, or the type and message of the package error it raised."""
    try:
        return f(*args)
    except PolystressError as e:
        return type(e), str(e)


def assert_block_multiples(R, O, d):
    """R has int entries and each d-row block of R is a positive multiple
    of O's."""
    assert (R.row_labels, R.col_labels) == (O.row_labels, O.col_labels)
    assert all(type(x) is int for row in R.entries for x in row)
    for i in range(0, R.nrows, d):
        pairs = [(x, y) for rr, oo in zip(R.entries[i : i + d], O.entries[i : i + d]) for x, y in zip(rr, oo)]
        ratio = next((x / y for x, y in pairs if y), R1)
        assert ratio > 0 and all(x == ratio * y for x, y in pairs), R.row_labels[i]


def test_integer_assembly_matches_gram_oracle_on_corpus(full_corpus):
    for P in full_corpus:
        K, p = P.complex, P.embedding
        for k in (2, 3, 4):
            O = gram_rigidity_matrix(K, p, k)
            assert_block_multiples(rigidity_matrix(K, p, k), O, p.dim)
            want = [StressVector.from_vector(k, O.col_labels, vec) for vec in kernel_basis(O)[1]]
            assert stress_basis(K, p, k) == want, (P.meta, k)
        assert is_infinitesimally_rigid(K, p) == gram_rigidity_report(K, p), P.meta


@st.composite
def rational_frameworks(draw):
    """Three to six points in R^2..R^4 with coordinates in halves, thirds
    and quarters, the last possibly an affine combination of two others
    (a copy when the weight is 0 or 1), a complex of one to five
    k-subsets, k = 2..4, and a rational k-stress candidate on it."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(3, 6))
    coord = st.fractions(-2, 2, max_denominator=4)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=2, unique=True))
        t = draw(st.sampled_from([rat(0), R1, rat(1, 2), rat(-2, 3), rat(3)]))
        pts[-1] = tuple((1 - t) * a + t * b for a, b in zip(pts[i], pts[j]))
    k = draw(st.integers(2, min(4, n)))
    faces = draw(st.lists(st.sampled_from(list(combinations(range(n), k))), min_size=1, max_size=5))
    K = build_complex(faces)
    coeffs = {G: draw(st.fractions(-3, 3, max_denominator=5)) for G in K.faces_of_size(k)}
    sv = StressVector(degree=k, coeffs={G: c for G, c in coeffs.items() if c})
    return K, Embedding.build(d, dict(enumerate(pts))), k, sv


@settings(max_examples=200, deadline=None)
@given(rational_frameworks())
def test_integer_assembly_matches_gram_oracles(case):
    K, p, k, sv = case
    assume(any(x.denominator > 1 for pt in p.coords.values() for x in pt))
    for G in K.faces_of_size(k):
        for v in G:
            F = tuple(u for u in G if u != v)
            got = outcome(altitude_vector, F, v, p)
            assert got == outcome(gram_altitude, F, v, p) == outcome(schmidt_altitude, F, v, p)
    R, O = outcome(rigidity_matrix, K, p, k), outcome(gram_rigidity_matrix, K, p, k)
    if isinstance(O, RatMatrix):
        assert_block_multiples(R, O, p.dim)
    else:
        assert R == O
    assert outcome(balancing_residual, sv, K, p) == outcome(gram_balancing_residual, sv, K, p)


# ---------------------------------------------------------------------------
# stress bases


def test_stress_basis_k1_affine_dependences(octahedron):
    basis = stress_basis(octahedron.complex, octahedron.embedding, 1)
    assert len(basis) == 2
    for sv in basis:
        assert sv.degree == 1
        total = R0
        drift = [R0, R0, R0]
        for (v,), c in sv.coeffs.items():
            total += c
            drift = [x + c * y for x, y in zip(drift, octahedron.embedding.point(v))]
        assert total == R0
        assert drift == [R0, R0, R0]


def test_stress_basis_simplex_empty():
    P = instance("simplex", d=4)
    for k in (1, 2):
        assert stress_basis(P.complex, P.embedding, k) == []


@pytest.mark.parametrize(
    "family,params,k,dim",
    [
        ("cross", {"d": 3}, 2, 0),
        ("cross", {"d": 4}, 2, 2),
        ("cyclic", {"n": 6, "d": 4}, 2, 1),
        ("cyclic", {"n": 7, "d": 4}, 2, 3),
        ("free_sum", {"i": 2, "d": 4}, 2, 1),
        ("cyclic", {"n": 9, "d": 6}, 3, 4),
    ],
)
def test_stress_basis_dims(family, params, k, dim):
    P = instance(family, **params)
    basis = stress_basis(P.complex, P.embedding, k)
    assert len(basis) == dim
    f = f_vector(P.complex.facets)
    assert len(basis) == g_vector(f, P.d)[k]
    for sv in basis:
        res = balancing_residual(sv, P.complex, P.embedding)
        assert all(all(x == R0 for x in vec) for vec in res.values())


def test_stress_basis_rejects_degree_zero(octahedron):
    with pytest.raises(InvalidArgument):
        stress_basis(octahedron.complex, octahedron.embedding, 0)


def test_stress_basis_routes_agree_on_corpus(full_corpus, monkeypatch):
    # every k = 2, 3 rigidity matrix at or above the cutoff: the modular
    # route must succeed on it, and Bareiss alone must give the same basis
    big = []
    for P in full_corpus:
        for k in (2, 3):
            R = rigidity_matrix(P.complex, P.embedding, k)
            if R.nrows * R.ncols >= exactla._MODULAR_CELLS:
                big.append((P, k))
    assert len(big) >= 20
    real = exactla._modular_kernel
    won = []

    def spy(rows, n):
        won.append(real(rows, n))
        return won[-1]

    monkeypatch.setattr(exactla, "_modular_kernel", spy)
    modular = [stress_basis(P.complex, P.embedding, k) for P, k in big]
    assert len(won) == len(big) and None not in won
    monkeypatch.setattr(exactla, "_MODULAR_CELLS", float("inf"))
    assert [stress_basis(P.complex, P.embedding, k) for P, k in big] == modular
    assert len(won) == len(big)


def test_stress_reads_only_the_faces_of_sizes_k_minus_1_and_k(full_corpus):
    # the (k-1)-skeleton has the facets' rows and columns, so the same stresses
    checked = set()
    for P in full_corpus:
        for k in (2, 3) if P.d >= 6 else (2,):
            skel = skeleton(P.complex, k - 1)
            assert rigidity_matrix(P.complex, P.embedding, k) == rigidity_matrix(skel, P.embedding, k), (P.meta, k)
            assert stress_basis(P.complex, P.embedding, k) == stress_basis(skel, P.embedding, k), (P.meta, k)
            checked.add(k)
    assert checked == {2, 3}


# ---------------------------------------------------------------------------
# balancing residuals


def test_balancing_residual_single_edge(octahedron):
    sv = StressVector(degree=2, coeffs={(0, 2): R1})
    res = balancing_residual(sv, octahedron.complex, octahedron.embedding)
    assert any(x != R0 for x in res[(0,)])
    assert any(x != R0 for x in res[(2,)])
    assert all(x == R0 for x in res[(4,)])


def test_balancing_residual_rejects(octahedron):
    with pytest.raises(InvalidArgument):
        balancing_residual(
            StressVector(degree=1, coeffs={(0,): R1}), octahedron.complex, octahedron.embedding
        )
    with pytest.raises(InvalidArgument):
        balancing_residual(
            StressVector(degree=2, coeffs={(0, 1): R1}), octahedron.complex, octahedron.embedding
        )


def test_octahedron_diagonal_kernel_values(octahedron):
    aug = octahedron_plus_diagonal(octahedron)
    p = octahedron.embedding
    (sv,) = stress_basis(aug, p, 2)
    lam = sv.scaled(1 / sv.coeff((0, 1)))
    assert lam.coeff((0, 1)) == R1
    for e in [(2, 4), (2, 5), (3, 4), (3, 5)]:
        assert lam.coeff(e) == rat(1, 2)
    for a in (0, 1):
        for v in (2, 3, 4, 5):
            assert lam.coeff((a, v)) == rat(-1, 2)
    # the other two diagonals are not faces of the carrier, so no coefficient
    assert lam.coeff((2, 3)) == R0 and lam.coeff((4, 5)) == R0
    full = expand_squarefree(lam, aug, p)
    assert is_affine_stress(poly_from_full(full.full), p.coords, aug.vertices, 3)


# ---------------------------------------------------------------------------
# rigidity reports


def test_rigid_octahedron(octahedron):
    rep = is_infinitesimally_rigid(octahedron.complex, octahedron.embedding)
    assert rep == RigidityReport(
        rigid=True, rank=12, expected_rank=12, stress_dim=0, d=3, f0=6, f1=12
    )


def test_rigidity_builds_no_complex(constructions):
    for P in (instance("cross", d=3), instance("cyclic", n=8, d=4), instance("cyclic", n=9, d=6)):
        assert constructions(is_infinitesimally_rigid, P.complex, P.embedding) == 0, P.meta


def test_flexible_four_cycle():
    K = build_complex([(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = is_infinitesimally_rigid(K, emb([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert not rep.rigid
    assert (rep.rank, rep.expected_rank, rep.stress_dim) == (4, 5, 0)


def test_rigid_simplex_graph():
    P = instance("simplex", d=5)
    rep = is_infinitesimally_rigid(P.complex, P.embedding)
    assert rep.rigid and rep.stress_dim == 0


def test_flexible_graph_rank_above_the_cutoff(no_large_bareiss):
    # a stacked polytope's graph is rigid with no 2-stress; without one edge
    # its rank falls one short, and the kernel route alone must certify that
    P = instance("stacked", d=5, steps=12, seed=3)
    graph = build_complex(sorted(P.complex.faces_of_size(2))[1:])
    R = rigidity_matrix(graph, P.embedding, 2)
    assert R.nrows * R.ncols >= exactla._MODULAR_CELLS
    rep = is_infinitesimally_rigid(graph, P.embedding)
    assert not rep.rigid
    assert (rep.rank, rep.expected_rank, rep.stress_dim) == (74, 75, 0)
    assert rep.rank == gauss_rank(R.entries)


def test_rigidity_rejects_flat_embedding():
    K = build_complex([(0, 1), (1, 2)])
    with pytest.raises(DegenerateEmbedding):
        is_infinitesimally_rigid(K, emb([(0, 0), (1, 0), (2, 0)]))


# ---------------------------------------------------------------------------
# squarefree-to-full expansion


def test_expand_zero_and_degree_one(octahedron):
    z = expand_squarefree(StressVector(degree=2, coeffs={}), octahedron.complex, octahedron.embedding)
    assert z.is_zero() and z.full == {}
    phi = stress_basis(octahedron.complex, octahedron.embedding, 1)[0]
    e = expand_squarefree(phi, octahedron.complex, octahedron.embedding)
    assert e.full == {((v, 1),): c for (v,), c in phi.coeffs.items()}


def test_expand_reproduces_squared_form():
    P = instance("free_sum", i=2, d=4)
    (phi_sv,) = stress_basis(P.complex, P.embedding, 1)
    sq = power_stress(linear_form(phi_sv), 2, P.complex, P.embedding)
    e = expand_squarefree(StressVector(degree=2, coeffs=dict(sq.coeffs)), P.complex, P.embedding)
    assert e.full == sq.full
    assert any(any(x == 2 for _, x in m) for m in e.full)  # squares really appear


def test_expand_passes_direct_differentiation():
    P = instance("cyclic", n=6, d=4)
    (sv,) = stress_basis(P.complex, P.embedding, 2)
    e = expand_squarefree(sv, P.complex, P.embedding)
    poly = poly_from_full(e.full)
    assert is_affine_stress(poly, P.embedding.coords, P.complex.vertices, 4)
    faces = {F for s in (1, 2) for F in P.complex.faces_of_size(s)}
    assert supported_on(poly, faces)


def test_expand_rejects_non_stress(octahedron):
    K, p = octahedron.complex, octahedron.embedding
    sv = StressVector(degree=2, coeffs={(0, 2): R1, (0, 3): R1})
    for expand in (expand_squarefree, pairwise_expand_squarefree):
        with pytest.raises(ExpansionFailure, match="^squarefree part admits no stress completion$"):
            expand(sv, K, p)
    assert fraction_expand_squarefree(sv, K, p) == "squarefree part admits no stress completion"
    with pytest.raises(ExpansionFailure, match=r"^support face \(0, 1\) is not in the complex$"):
        expand_squarefree(StressVector(degree=2, coeffs={(0, 1): R1}), K, p)


def test_expand_reports_a_kernel_before_inconsistency():
    # the unknowns have a kernel; the first right-hand side is out of reach as well
    K = build_complex([(0, 1, 3), (2, 3)])
    p = emb([(-1,), (-1,), (0,), (1,)])
    for coeffs in ({(0, 1, 3): rat(2)}, {}):
        sv = StressVector(degree=3, coeffs=coeffs)
        for expand in (expand_squarefree, pairwise_expand_squarefree):
            with pytest.raises(ExpansionFailure, match="^full polynomial is not unique for this support$"):
                expand(sv, K, p)
        assert fraction_expand_squarefree(sv, K, p) == "full polynomial is not unique for this support"


def test_expand_rejects_a_vertex_without_coordinates():
    P = instance("cyclic", n=6, d=4)
    (sv,) = stress_basis(P.complex, P.embedding, 2)
    q = Embedding(dim=4, coords={v: pt for v, pt in P.embedding.coords.items() if v != 6})
    with pytest.raises(NotAVertex, match="^no coordinates for vertex 6$"):
        expand_squarefree(sv, P.complex, q)


def test_expand_on_complex_without_vertices():
    K = build_complex([()])
    for k in (2, 3):
        e = expand_squarefree(StressVector(degree=k, coeffs={}), K, Embedding(dim=2, coords={}))
        assert e == StressVector(degree=k, coeffs={}, full={})


def test_expand_eliminates_once(monkeypatch):
    P = instance("cyclic", n=6, d=4)
    (sv,) = stress_basis(P.complex, P.embedding, 2)
    calls = []
    real = exactla.kernel_basis
    monkeypatch.setattr(exactla, "kernel_basis", lambda A: calls.append(A) or real(A))
    monkeypatch.setattr(exactla, "solve_linear", None)
    expand_squarefree(sv, P.complex, P.embedding)
    assert len(calls) == 1


def test_expand_matches_fraction_solve_on_corpus(full_corpus):
    cases = [(P, 2) for P in full_corpus]
    cases += [(instance("cyclic", n=8, d=6), 3), (instance("free_sum", i=3, d=6), 3)]
    for P, k in cases:
        K, p = P.complex, P.embedding
        for sv in stress_basis(K, p, k):
            e = expand_squarefree(sv, K, p)
            assert e == pairwise_expand_squarefree(sv, K, p), (P.meta, k)
            assert poly_from_full(e.full) == fraction_expand_squarefree(sv, K, p), (P.meta, k)


# ---------------------------------------------------------------------------
# cone lifts


def test_cone_lift_input_checks():
    sf_only = StressVector(degree=2, coeffs={(1, 2): R1})
    with pytest.raises(InvalidArgument):
        cone_lift(sf_only, {1: R1, 2: R1}, 0)
    full = StressVector(degree=2, coeffs={(1, 2): R1}, full={((1, 1), (2, 1)): R1})
    with pytest.raises(InvalidArgument):
        cone_lift(full, {1: R1, 2: R0}, 0)
    with pytest.raises(InvalidArgument):
        cone_lift(full, {1: R1}, 0)
    with pytest.raises(InvalidArgument):
        cone_lift(full, {1: R1, 2: R1}, 2)
    assert cone_lift(StressVector(degree=2, coeffs={}, full={}), {1: R1}, 0).is_zero()


def test_cone_lift_octahedron_vertex_figure(octahedron):
    Q, a = vertex_figure(octahedron, 0)
    # both diagonals added, so the quadrilateral carries exactly one 2-stress
    K4 = build_complex(list(Q.complex.facets) + [(2, 3), (4, 5)])
    (w,) = stress_basis(K4, Q.embedding, 2)
    w = expand_squarefree(w, K4, Q.embedding)
    lift = cone_lift(w, a, 0)
    assert lift.degree == 2

    apex_cone = cone(0, K4)
    pts = {0: (R0, R0, R0)}
    for v in K4.vertices:
        q = Q.embedding.point(v)
        pts[v] = (a[v] * q[0], a[v] * q[1], a[v])
    pc = Embedding.build(3, pts)

    assert is_affine_stress(poly_from_full(lift.full), pc.coords, apex_cone.vertices, 3)
    for F in K4.faces_of_size(2):
        assert w.coeff(F) == a[F[0]] * a[F[1]] * lift.coeff(F)
    for F in Q.complex.faces_of_size(2):
        assert lift.sign(F) == w.sign(F) != 0
    assert len(stress_basis(apex_cone, pc, 2)) == 1
    assert len(stress_basis(apex_cone, pc, 1)) == len(stress_basis(K4, Q.embedding, 1)) == 1


def test_cone_lift_cyclic_heights():
    P = instance("cyclic", n=6, d=4)
    (sv,) = stress_basis(P.complex, P.embedding, 2)
    w = expand_squarefree(sv, P.complex, P.embedding)
    a = {v: rat(v + 1) for v in P.complex.vertices}
    lift = cone_lift(w, a, 0)
    for F in P.complex.faces_of_size(2):
        assert w.coeff(F) == a[F[0]] * a[F[1]] * lift.coeff(F)
    assert any(any(v == 0 for v, _ in m) for m in lift.full)  # apex really enters
    C = cone(0, P.complex)
    pts = {0: (R0,) * 5}
    for v in P.complex.vertices:
        pts[v] = tuple([a[v] * x for x in P.embedding.point(v)] + [a[v]])
    pc = Embedding.build(5, pts)
    res = balancing_residual(StressVector(degree=2, coeffs=dict(lift.coeffs)), C, pc)
    assert all(all(x == R0 for x in vec) for vec in res.values())


# ---------------------------------------------------------------------------
# powers of linear forms


def test_power_stress_degree_one(octahedron):
    phi_sv = stress_basis(octahedron.complex, octahedron.embedding, 1)[0]
    phi = linear_form(phi_sv)
    out = power_stress(phi, 1, octahedron.complex, octahedron.embedding)
    assert out.coeffs == phi_sv.coeffs
    assert out.full == {((v, 1),): c for v, c in phi.items()}


def test_power_stress_free_sum_signs():
    P = instance("free_sum", i=2, d=4)
    (phi_sv,) = stress_basis(P.complex, P.embedding, 1)
    phi = linear_form(phi_sv)
    if phi[1] < 0:
        phi = {v: -c for v, c in phi.items()}
    assert all(phi[v] > 0 for v in (1, 2, 3))
    assert all(phi[v] < 0 for v in (4, 5, 6))
    sq = power_stress(phi, 2, P.complex, P.embedding)
    tau = {4, 5, 6}
    for u, v in combinations(sorted(phi), 2):
        assert sq.coeff((u, v)) == 2 * phi[u] * phi[v]
        assert sq.sign((u, v)) == (-1) ** len({u, v} & tau)


def test_power_stress_cyclic_pattern():
    P = instance("cyclic", n=6, d=4)
    (phi_sv,) = stress_basis(P.complex, P.embedding, 1)
    phi = linear_form(phi_sv)
    if phi[1] < 0:
        phi = {v: -c for v, c in phi.items()}
    M = {1, 3, 5}
    assert all(phi[v] > 0 for v in M)
    assert all(phi[v] < 0 for v in (2, 4, 6))
    sq = power_stress(phi, 2, P.complex, P.embedding)
    for G in sq.support():
        assert (-1) ** len(set(G) - M) * sq.coeff(G) > 0
    assert is_affine_stress(poly_from_full(sq.full), P.embedding.coords, P.complex.vertices, 4)
    with pytest.raises(NotNeighborlyEnough):
        power_stress(phi, 3, P.complex, P.embedding)


def test_power_stress_rejects(octahedron):
    with pytest.raises(InvalidArgument):
        power_stress({0: R1, 1: R1}, 0, octahedron.complex, octahedron.embedding)
    with pytest.raises(InvalidArgument):
        power_stress({}, 2, octahedron.complex, octahedron.embedding)
    with pytest.raises(InvalidArgument, match="^coefficients are not an affine dependence$"):
        power_stress({0: R1}, 2, octahedron.complex, octahedron.embedding)
    # a vertex without coordinates is reported before the dependence test
    with pytest.raises(NotAVertex, match="^no coordinates for vertex 9$"):
        power_stress({0: R1, 9: R1}, 2, octahedron.complex, octahedron.embedding)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_power_stress_matches_fraction_oracle(data):
    # powers of rational affine dependences on a rational embedding, and of
    # forms that are not one, against the Fraction expansion
    family, params = data.draw(st.sampled_from([("cyclic", dict(n=8, d=4)), ("cyclic", dict(n=9, d=6)), ("free_sum", dict(i=2, d=4))]))
    P = instance(family, **params)
    den = data.draw(st.integers(1, 3))
    q = P.embedding.transformed([[rat(int(i == j), den) for j in range(P.d)] for i in range(P.d)], (rat(1, 2),) * P.d)
    basis = stress_basis(P.complex, q, 1)
    ws = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=len(basis), max_size=len(basis)))
    phi = {}
    for w, sv in zip(ws, basis):
        for (v,), c in sv.coeffs.items():
            phi[v] = phi.get(v, R0) + w * c
    if data.draw(st.booleans()):
        v = data.draw(st.sampled_from(P.complex.vertices))
        phi[v] = phi.get(v, R0) + rat(1, 3)
    k = data.draw(st.integers(1, 3))
    got = outcome(power_stress, phi, k, P.complex, q)
    assert got == outcome(fraction_power_stress, phi, k, P.complex, q)


# ---------------------------------------------------------------------------
# affine invariance


def test_rigidity_affine_invariant(octahedron):
    mat = [[rat(1), rat(1), rat(0)], [rat(0), rat(1), rat(1)], [rat(0), rat(0), rat(1)]]
    q = octahedron.embedding.transformed(mat, (rat(2), rat(-1, 3), rat(5)))
    rep = is_infinitesimally_rigid(octahedron.complex, q)
    assert rep.rigid and rep.rank == 12 and rep.stress_dim == 0


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stress_dim_affine_invariant(data):
    P = instance("cyclic", n=6, d=4)
    d = 4
    mat = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d)
    )
    assume(gauss_rank(mat) == d)
    den = data.draw(st.integers(1, 3))
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    q = P.embedding.transformed(
        [[rat(x, den) for x in row] for row in mat], tuple(rat(x) for x in shift)
    )
    assert len(stress_basis(P.complex, q, 1)) == 1
    assert len(stress_basis(P.complex, q, 2)) == 1


# ---------------------------------------------------------------------------
# StressVector plumbing


def test_stress_vector_helpers():
    sv = StressVector(degree=2, coeffs={(1, 2): rat(3), (2, 3): rat(-1, 2)})
    assert sv.coeff((2, 1)) == rat(3)
    assert sv.sign((2, 3)) == -1 and sv.sign((1, 3)) == 0
    assert sv.support() == [(1, 2), (2, 3)]
    order = [(1, 2), (1, 3), (2, 3)]
    vec = sv.as_vector(order)
    assert vec == [rat(3), R0, rat(-1, 2)]
    assert StressVector.from_vector(2, order, vec).coeffs == sv.coeffs
    assert sv.scaled(-2).coeff((1, 2)) == rat(-6)
    assert sv.scaled(0).is_zero()
    full = {((1, 1), (2, 1)): rat(5), ((1, 2),): rat(7)}
    fv = StressVector.from_full(2, full)
    assert fv.coeffs == {(1, 2): rat(5)}
    assert fv.full == full
