import random
from decimal import Decimal
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import instance
from oracles import (
    caratheodory_reduce,
    fraction_brute_force_facets,
    fraction_facet_normal,
    fraction_validate_checks,
    gale_even,
    gram_altitude,
    kernel_brute_force_facets,
)
from polystress.errors import (
    DegenerateEmbedding,
    DegenerateFace,
    InvalidArgument,
    NotAVertex,
    NotSimplicial,
    PolystressError,
)
from polystress.exactla import dot, vec_sub
from polystress.geometry import (
    Embedding,
    PolytopeInstance,
    affine_rank,
    altitude_vector,
    brute_force_facets,
    facet_normal,
    quotient,
    segment_hull_meet,
    separating_functional,
    validate,
    vertex_figure,
)
from polystress.rat import R1, Rat, sign
from polystress.simplicial import build_complex


def emb(pts, dim=None):
    dim = dim if dim is not None else len(pts[0])
    return Embedding.build(dim, {i: p for i, p in enumerate(pts)})


def test_affine_rank():
    assert affine_rank([(0, 0, 0)]) == 0
    assert affine_rank([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 1
    oct_pts = instance("cross", d=3).embedding.coords.values()
    assert affine_rank(list(oct_pts)) == 3


def test_altitude_single_base():
    p = emb([(0, 0), (3, 4)])
    assert altitude_vector({0}, 1, p) == [Rat(3), Rat(4)]


def test_altitude_orthogonal_drop():
    p = emb([(0, 0), (1, 0), (5, 7)])
    assert altitude_vector({0, 1}, 2, p) == [Rat(0), Rat(7)]


def test_altitude_oblique():
    p = emb([(0, 0, 0), (1, 1, 0), (1, 0, 0)])
    assert altitude_vector({0, 1}, 2, p) == [Rat(1, 2), Rat(-1, 2), Rat(0)]


def test_altitude_orthogonality_property():
    P = instance("cyclic", n=7, d=4)
    p = P.embedding
    for G in P.complex.faces_of_size(3)[:10]:
        for v in G:
            F = tuple(x for x in G if x != v)
            alt = altitude_vector(F, v, p)
            base = p.point(F[0])
            for f in F[1:]:
                assert dot(alt, vec_sub(p.point(f), base)) == 0


def test_altitude_errors():
    p = emb([(0, 0), (1, 1), (2, 2), (5, 5)])
    with pytest.raises(DegenerateFace):
        altitude_vector({0, 1, 2}, 3, p)
    with pytest.raises(InvalidArgument):
        altitude_vector({0, 1}, 1, p)
    with pytest.raises(InvalidArgument):
        altitude_vector(set(), 1, p)


def altitude_outcome(f, F, v, p):
    """f's altitude, or the type and message of the package error it raised."""
    try:
        return f(F, v, p)
    except PolystressError as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "family, params",
    [("cyclic", dict(n=8, d=6)), ("cross", dict(d=5)), ("free_sum", dict(i=2, d=5)), ("stacked", dict(d=4, steps=3, seed=3))],
)
def test_altitude_matches_gram_oracle_on_corpus(family, params):
    P = instance(family, **params)
    for k in (2, 3, 4):
        for G in P.complex.faces_of_size(k):
            for v in G:
                F = tuple(u for u in G if u != v)
                assert altitude_vector(F, v, P.embedding) == gram_altitude(F, v, P.embedding), (G, v)


@st.composite
def altitude_cases(draw):
    """A base face of 1 to 4 small-integer points in R^2..R^5 and one more
    point, labelled in a drawn order.  The last base point may be an
    integer affine combination of the others (a dependent face), and the
    extra point a rational one (it lies in the affine hull)."""
    d = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-3, 3)] * d)
    base = draw(st.lists(point, min_size=m, max_size=m))

    def combination(coeff):
        ws = draw(st.lists(coeff, min_size=len(base) - 1, max_size=len(base) - 1))
        ws.append(1 - sum(ws))
        return tuple(sum(w * x for w, x in zip(ws, col)) for col in zip(*base))

    if draw(st.booleans()):
        base[-1] = combination(st.integers(-2, 2))
    q = combination(st.fractions(-2, 2, max_denominator=3)) if draw(st.booleans()) else draw(point)
    labels = draw(st.permutations(range(m + 1)))
    p = Embedding.build(d, dict(zip(labels, base + [q])))
    return labels[:m], labels[m], p


@settings(max_examples=300, deadline=None)
@given(altitude_cases())
def test_altitude_matches_gram_oracle(case):
    F, v, p = case
    got = altitude_outcome(altitude_vector, F, v, p)
    assert got == altitude_outcome(gram_altitude, F, v, p)
    if isinstance(got, list):
        base = p.point(F[0])
        assert all(dot(got, vec_sub(p.point(f), base)) == 0 for f in F)


def test_separating_functional_octahedron(octahedron):
    b, alpha = separating_functional(octahedron, 0)
    p = octahedron.embedding
    assert dot(b, p.point(0)) < alpha
    for v in octahedron.vertices:
        if v != 0:
            assert dot(b, p.point(v)) > alpha
    # by symmetry the four incident facet normals sum to a multiple of
    # the axis through vertex 0
    nonzero = [i for i, x in enumerate(b) if x != 0]
    assert len(nonzero) == 1


def test_separating_functional_every_vertex():
    for fam, kw in (("simplex", dict(d=4)), ("cyclic", dict(n=7, d=4))):
        P = instance(fam, **kw)
        for u in P.vertices:
            b, alpha = separating_functional(P, u)
            assert dot(b, P.embedding.point(u)) < alpha
            assert all(dot(b, P.embedding.point(v)) > alpha for v in P.vertices if v != u)
    with pytest.raises(NotAVertex):
        separating_functional(instance("simplex", d=4), 99)


def test_separating_functional_segment():
    # d = 1: a facet is one point, whose normal is [1] up to orientation
    P = PolytopeInstance(
        complex=build_complex([{0}, {1}]),
        embedding=Embedding.build(1, {0: (0,), 1: (3,)}),
        d=1,
        meta={},
    )
    assert validate(P).ok
    assert separating_functional(P, 0) == ([1], Rat(3, 2))
    assert separating_functional(P, 1) == ([-1], Rat(-3, 2))


def test_vertex_figure_octahedron(octahedron):
    Q, a = vertex_figure(octahedron, 0)
    assert Q.d == 2
    assert Q.complex.f_counts() == (1, 4, 4)
    assert set(Q.vertices) == {2, 3, 4, 5}
    assert Q.validated
    assert all(h != 0 for h in a.values())
    signs = {h > 0 for h in a.values()}
    assert len(signs) == 1


def test_vertex_figure_cross4_is_octahedron():
    X = instance("cross", d=4)
    Q, _ = vertex_figure(X, X.vertices[0])
    assert Q.complex.f_counts() == (1, 6, 12, 8)
    assert len(Q.complex.facets) == 8


def test_vertex_figure_simplex():
    S = instance("simplex", d=4)
    Q, _ = vertex_figure(S, 0)
    assert Q.complex.f_counts() == (1, 4, 6, 4)


def test_quotient_by_edge(octahedron):
    e = octahedron.complex.faces_of_size(2)[0]
    Q, heights = quotient(octahedron, e)
    assert Q.d == 1
    assert len(Q.vertices) == 2
    assert set(heights) == set(e)


def test_segment_hull_meet_triangle():
    C = {10: (1, 0), 11: (-1, 1), 12: (-1, -1)}
    hit = segment_hull_meet((-2, 0), (2, 0), C)
    assert hit is not None
    s, mu = hit
    assert 0 <= s <= 1
    assert sum(mu.values()) == 1
    assert all(w > 0 for w in mu.values())
    # the represented point sits on the segment
    x = [Rat(-2) + s * 4, Rat(0)]
    rep = [sum(w * Rat(C[c][i]) for c, w in mu.items()) for i in range(2)]
    assert rep == x
    # minimality: the hull's left edge is at x = -1
    assert s == Rat(1, 4)


def test_segment_hull_meet_disjoint():
    C = {0: (0, 2), 1: (1, 3), 2: (-1, 2)}
    assert segment_hull_meet((-2, 0), (2, 0), C) is None


def test_segment_hull_meet_midpoint():
    C = {7: (0, 0)}
    s, mu = segment_hull_meet((-1, 0), (1, 0), C)
    assert s == Rat(1, 2)
    assert mu == {7: R1}


segment_cases = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=7),
        st.tuples(*[st.integers(-3, 3)] * d),
        st.tuples(*[st.integers(-3, 3)] * d),
    )
)


@settings(deadline=None, max_examples=200)
@given(segment_cases)
def test_segment_hull_meet_support_is_affinely_independent(case):
    # the simplex returns a basic solution: every nonzero mu_c is basic, and
    # mu_c's column is (p(c), 1, 0), so the support is affinely independent
    # and the Caratheodory reduction has nothing left to remove
    pts, a, b = case
    C = dict(enumerate(pts))
    hit = segment_hull_meet(a, b, C)
    if hit is None:
        return
    _, mu = hit
    assert affine_rank([C[c] for c in mu]) == len(mu) - 1
    assert caratheodory_reduce(C, mu) == mu


def test_caratheodory_reduce():
    pts = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (2, 2)}
    mu = {c: Rat(1, 4) for c in pts}
    red = caratheodory_reduce(pts, mu)
    assert len(red) <= 3
    assert sum(red.values()) == 1
    assert all(w > 0 for w in red.values())
    rep = [sum(w * Rat(pts[c][i]) for c, w in red.items()) for i in range(2)]
    assert rep == [Rat(1), Rat(1)]
    assert affine_rank([pts[c] for c in red]) == len(red) - 1


def test_caratheodory_reduce_keeps_independent_supports(monkeypatch):
    monkeypatch.setattr(oracles, "affine_rank", None)  # one kernel per round decides
    pts = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (2, 2)}
    assert caratheodory_reduce(pts, {}) == {}
    assert caratheodory_reduce(pts, {0: 0, 1: Rat(0)}) == {}
    assert caratheodory_reduce(pts, {3: 1}) == {3: R1}
    tri = {0: Rat(1, 2), 1: Rat(1, 4), 2: Rat(1, 4)}
    assert caratheodory_reduce(pts, tri) == tri
    assert caratheodory_reduce(pts, {0: Rat(1, 2), 3: Rat(1, 2)}) == {0: Rat(1, 2), 3: Rat(1, 2)}


def test_brute_force_facets_rejects_short_point():
    with pytest.raises(InvalidArgument, match="^point for vertex 3 has length 1, expected 2$"):
        brute_force_facets({0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (5,)})


@pytest.mark.parametrize("zero, one", [(0.0, 1.0), (False, True)], ids=["float", "bool"])
def test_brute_force_facets_rejects_floats_and_bools(zero, one):
    with pytest.raises(InvalidArgument, match=f"^{zero!r} is a {type(zero).__name__}; use ints or rationals$"):
        brute_force_facets({0: (zero, zero), 1: (one, zero), 2: (zero, one)})


def test_brute_force_facets_octahedron(octahedron):
    facets = brute_force_facets(octahedron.embedding.coords)
    assert len(facets) == 8
    assert facets == octahedron.complex.facets


def test_brute_force_facets_simplex():
    pts = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    assert len(brute_force_facets(pts)) == 4


def test_brute_force_facets_cyclic_matches_gale_evenness():
    P = instance("cyclic", n=6, d=4)
    facets = brute_force_facets(P.embedding.coords)
    expected = {
        frozenset(S) for S in combinations(range(1, 7), 4) if gale_even(S, 6)
    }
    assert facets == expected


def test_brute_force_facets_non_simplicial():
    # square pyramid: the four base points are coplanar
    pts = {
        0: (1, 1, 0),
        1: (1, -1, 0),
        2: (-1, 1, 0),
        3: (-1, -1, 0),
        4: (0, 0, 1),
    }
    with pytest.raises(NotSimplicial):
        brute_force_facets(pts)


def test_brute_force_facets_degenerate():
    with pytest.raises(DegenerateEmbedding):
        brute_force_facets({0: (0, 0), 1: (1, 1), 2: (2, 2)})


@pytest.mark.parametrize(
    "points",
    [
        {0: (0, 0)},
        {0: (0, 0), 1: (1, 0)},
        {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0)},
        {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0), 4: (2, 1, 0)},
        {0: (5,)},
        {0: (1,), 1: (1,), 2: (1,)},
        {0: (1,), 1: (3,), 2: (2,)},
    ],
    ids=["one", "n=d", "n=d=3", "plane", "d=1-one", "d=1-same", "d=1"],
)
def test_brute_force_facets_few_or_flat_points_match_oracles(points):
    # fewer than d + 1 points, or all of them in one hyperplane, raise
    # DegenerateEmbedding from the walk itself, before any NotSimplicial
    got = outcome(brute_force_facets, points)
    assert got == outcome(kernel_brute_force_facets, points)
    assert got == outcome(fraction_brute_force_facets, points)


def test_brute_force_facets_rejects_zero_dimensional_points():
    with pytest.raises(InvalidArgument, match="^points have no coordinates$"):
        brute_force_facets({0: ()})
    with pytest.raises(InvalidArgument, match="^points have no coordinates$"):
        brute_force_facets({0: (), 1: ()})


def test_validate_corpus_instance():
    P = instance("cyclic", n=7, d=4)
    report = validate(P)
    assert report.ok
    assert all(ok for _, ok, _ in report.checks)
    assert len(report.checks) == 7


def test_validate_catches_moved_vertex(octahedron):
    coords = dict(octahedron.embedding.coords)
    # strictly inside the hull of the remaining five points
    coords[0] = (Rat(-1, 2), Rat(0), Rat(0))
    broken = PolytopeInstance(
        complex=octahedron.complex,
        embedding=Embedding.build(3, coords),
        d=3,
        meta={},
    )
    report = validate(broken)
    assert not report.ok
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "hull_facets_match" in failed or "supporting_hyperplanes" in failed


def test_validate_catches_missing_coordinates(octahedron):
    coords = dict(octahedron.embedding.coords)
    del coords[5]
    broken = PolytopeInstance(
        complex=octahedron.complex,
        embedding=Embedding(dim=3, coords=coords),
        d=3,
        meta={},
    )
    report = validate(broken)
    assert not report.ok
    assert report.checks[0][0] == "vertices_covered" and not report.checks[0][1]


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
def test_embedding_build_rejects_float_and_bool(bad):
    with pytest.raises(InvalidArgument):
        Embedding.build(2, {0: (0, 1), 1: (bad, 0)})
    assert Embedding.build(2, {0: (0, Rat(1, 2))}).point(0) == (0, Rat(1, 2))


@pytest.mark.parametrize("convert", [float, bool])
def test_embedding_built_directly_rejects_float_and_bool(convert):
    coords = instance("cyclic", n=6, d=4).embedding.coords
    with pytest.raises(InvalidArgument, match=f"is a {convert.__name__}; use ints or rationals"):
        Embedding(dim=4, coords={v: tuple(convert(x) for x in pt) for v, pt in coords.items()})


def test_embedding_built_directly_keeps_rationals_and_lengths():
    p = instance("cyclic", n=6, d=4).embedding
    q = Embedding(dim=4, coords={v: tuple(int(x) for x in pt) for v, pt in p.coords.items()})
    assert q == p and all(type(x) is Rat for pt in q.coords.values() for x in pt)
    assert altitude_vector((1, 2), 3, q) == altitude_vector((1, 2), 3, p)
    # a short point is left to validate's vertices_covered check
    assert Embedding(dim=3, coords={0: (1, 2)}).point(0) == (1, 2)


@pytest.mark.parametrize("bad", ["1/2", Decimal("0.1"), " 3 "])
def test_embedding_build_rejects_strings_and_decimals(bad):
    # documents are parsed by parse_rat; library callers pass numbers only
    with pytest.raises(InvalidArgument, match="use ints or rationals"):
        Embedding.build(1, {0: (0,), 1: (bad,)})


def outcome(f, *args):
    """f's result, or the type and message of the package error it raised."""
    try:
        return f(*args)
    except PolystressError as e:
        return type(e), str(e)


@st.composite
def point_sets(draw):
    """d + 1 to d + 5 small rational points in R^1..R^4, labels 0..n-1,
    with some pushed onto the hyperplane x_d = x_1 (all of them: the
    set does not span) and one maybe repeated."""
    d = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    flat = draw(st.one_of(st.just(0), st.integers(0, len(pts))))
    pts = [p[:-1] + p[:1] if i < flat else p for i, p in enumerate(pts)]
    pts += draw(st.lists(st.sampled_from(pts), max_size=1))
    return dict(enumerate(pts))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_brute_force_facets_matches_fraction_oracle(points):
    got = outcome(brute_force_facets, points)
    assert got == outcome(fraction_brute_force_facets, points)
    assert got == outcome(kernel_brute_force_facets, points)


def integer_point_sets(rng, count):
    """Seeded integer point sets in R^1..R^5 with d + 1 to d + 5 points:
    some pushed onto the hyperplane x_d = x_1 (all of them: the set does
    not span), maybe one repeated point and maybe one interior point (a
    midpoint; coordinates are doubled first so it stays integral)."""
    for _ in range(count):
        d = rng.randint(1, 5)
        pts = [[2 * rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d + 1, d + 5))]
        for p in pts[: rng.choice([0, 0, rng.randint(0, len(pts))])]:
            p[-1] = p[0]
        extra = []
        if rng.random() < 0.3:
            extra.append(list(rng.choice(pts)))
        if rng.random() < 0.3:
            a, b = rng.sample(pts, 2)
            extra.append([(x + y) // 2 for x, y in zip(a, b)])
        labels = rng.sample(range(3 * len(pts) + 3), len(pts) + len(extra))
        yield dict(zip(labels, map(tuple, pts + extra)))


def test_brute_force_facets_matches_oracles_on_integer_points():
    seen = set()
    for points in integer_point_sets(random.Random(13), 300):
        got = outcome(brute_force_facets, points)
        assert got == outcome(kernel_brute_force_facets, points), points
        assert got == outcome(fraction_brute_force_facets, points), points
        seen.add(got[0] if isinstance(got, tuple) else frozenset)
    # every outcome occurs: hulls, non-simplicial hulls and non-spanning sets
    assert seen == {frozenset, NotSimplicial, DegenerateEmbedding}


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.data())
def test_facet_normal_matches_fraction_oracle(points, data):
    d = len(points[0])
    order = data.draw(st.permutations(sorted(points)))
    S, witness = order[:d], points[order[d]]
    p = Embedding.build(d, points)
    got = outcome(facet_normal, S, p, witness)
    want = outcome(fraction_facet_normal, S, p, witness)
    if d == 1:
        # the oracle finds no normal through a single point; it is [1] oriented
        assert want[0] is DegenerateFace
        side = sign(Rat(witness[0]) - p.point(S[0])[0])
        want = [side] if side else (DegenerateFace, f"witness point lies on the hyperplane of {tuple(S)}")
    assert got == want


def broken_variants(P):
    """A moved vertex (onto the centroid of the others), the last facet
    made affinely dependent (earlier facets at its moved vertex may lose
    support first), and a vertex without coordinates."""
    K, coords, d = P.complex, P.embedding.coords, P.d
    u, *rest = P.vertices
    moved = dict(coords)
    moved[u] = tuple(sum((coords[v][i] for v in rest), Rat(0)) / len(rest) for i in range(d))
    F = K.facet_keys[-1]
    dependent = dict(coords)
    dependent[F[0]] = tuple((a + b) / 2 for a, b in zip(coords[F[1]], coords[F[2]]))
    missing = {v: pt for v, pt in coords.items() if v != u}
    for broken in (moved, dependent, missing):
        yield PolytopeInstance(complex=K, embedding=Embedding(dim=d, coords=broken), d=d, meta={})


def test_validate_checks_match_fraction_oracle(full_corpus):
    for P in full_corpus:
        assert validate(P).checks == fraction_validate_checks(P)
        for Q in broken_variants(P):
            report = validate(Q)
            assert not report.ok
            assert report.checks == fraction_validate_checks(Q)


def test_validate_refuses_a_vertex_on_a_facet_hyperplane():
    # square pyramid, base split along 0-3: vertex 2 lies on the plane of
    # facet {0, 1, 3} with the apex strictly on one side
    square = {0: (1, 1, 0), 1: (1, -1, 0), 2: (-1, 1, 0), 3: (-1, -1, 0), 4: (0, 0, 1)}
    facets = [{0, 1, 4}, {1, 3, 4}, {3, 2, 4}, {2, 0, 4}, {0, 1, 3}, {0, 2, 3}]
    P = PolytopeInstance(complex=build_complex(facets), embedding=Embedding.build(3, square), d=3, meta={})
    checks = validate(P).checks
    assert checks == fraction_validate_checks(P)
    assert [name for name, ok, _ in checks if not ok] == ["supporting_hyperplanes", "hull_facets_match"]
