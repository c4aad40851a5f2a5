import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import instance
from oracles import f_vector, g_vector, pairwise_maximal, scan_has_face, subset_missing_faces
from polystress.corpus import _gale_facets
from polystress.errors import InvalidArgument, InvalidComplex, NotAFace
from polystress.simplicial import (
    SimplicialComplex,
    build_complex,
    cone,
    extensions,
    face_key,
    fg_vector,
    join,
    link,
    missing_faces,
    skeleton,
    star,
)


def test_build_complex_normalizes():
    K = build_complex([{1, 2, 3}, {2, 3}, {4}])
    assert K.facet_keys == ((1, 2, 3), (4,))
    assert K.vertices == (1, 2, 3, 4)
    assert K.dim == 2
    assert K.has_face({2, 3}) and K.has_face({4}) and not K.has_face({1, 4})
    assert (1, 2) in K
    assert not K.has_face({1, "a"}) and not K.has_face(("a",))


def test_build_complex_rejects_bad_labels():
    with pytest.raises(InvalidComplex):
        build_complex([{-1, 2}])
    with pytest.raises(InvalidComplex):
        build_complex([{"a"}])
    with pytest.raises(InvalidComplex):
        build_complex([])


def test_constructor_normalizes_and_rejects_bad_labels():
    K = SimplicialComplex(facets=[(1, 2, 3), [2, 3], {4}, (3, 2, 1), ()])
    assert K.facets == frozenset({frozenset({1, 2, 3}), frozenset({4})})
    assert K == build_complex([{4}, {1, 2, 3}])
    for bad in ([{-1, 2}], [{1}, {True, 2}], [{"a"}], [(0.5,)]):
        with pytest.raises(InvalidComplex, match="^vertex labels must be nonnegative ints, got "):
            SimplicialComplex(facets=bad)


def test_empty_complex_is_rejected():
    with pytest.raises(InvalidComplex, match="^a complex needs at least one face$"):
        SimplicialComplex(facets=frozenset())
    K = build_complex([()])  # {()} has a face, but no vertices
    assert K.vertices == () and K.dim == -1 and K.f_counts() == (1,)


def test_faces_of_size_and_counts():
    K = build_complex([{1, 2, 3}])
    assert K.faces_of_size(2) == [(1, 2), (1, 3), (2, 3)]
    assert K.faces_of_size(0) == [()]
    assert K.faces_of_size(4) == []
    assert K.f_counts() == (1, 3, 3, 1)
    assert K.is_pure()


def test_skeleton():
    K = build_complex([{1, 2, 3, 4}])
    S = skeleton(K, 1)
    assert S.dim == 1
    assert len(S.facet_keys) == 6
    assert skeleton(K, 3) is K
    with pytest.raises(InvalidArgument):
        skeleton(K, 5)


def test_skeleton_matches_build_complex_route(full_corpus):
    # the (i+1)-faces plus the short facets, normalized by build_complex
    complexes = [P.complex for P in full_corpus] + [build_complex([{1, 2, 3}, {3, 4}, {5}])]
    for K in complexes:
        for i in range(-1, K.dim + 1):
            gens = [*K.faces_of_size(i + 1), *(F for F in K.facets if len(F) <= i)]
            assert skeleton(K, i) == build_complex(gens)


def test_star_link_octahedron(octahedron):
    K = octahedron.complex
    lk = link(K, {0})
    # link of a vertex is the equatorial 4-cycle
    assert lk.dim == 1
    assert len(lk.facet_keys) == 4
    assert set(lk.vertices) == {2, 3, 4, 5}
    stt = star(K, {0})
    assert len(stt.facets) == 4
    assert all(0 in F for F in stt.facets)
    assert link(K, {2, 4}).facet_keys == ((0,), (1,))
    with pytest.raises(NotAFace):
        link(K, {0, 1})
    # the empty face is in every facet
    assert star(K, ()) == K
    assert link(K, ()) == K


def test_star_and_link_build_one_complex_each(octahedron, constructions):
    K = octahedron.complex
    assert constructions(star, K, {0}) == 1
    assert constructions(link, K, {0}) == 1


def test_missing_faces_octahedron(octahedron):
    assert missing_faces(octahedron.complex, 6) == [(0, 1), (2, 3), (4, 5)]
    assert missing_faces(octahedron.complex, 1) == []


def test_missing_faces_cyclic64():
    K = instance("cyclic", n=6, d=4).complex
    assert missing_faces(K, 6) == [(1, 3, 5), (2, 4, 6)]


def test_join_and_cone():
    tri = build_complex([{1, 2}, {2, 3}, {1, 3}])
    C = cone(0, tri)
    f = C.f_counts()
    # each face of the base gains a coned copy
    assert f == (1, 4, 6, 3)
    with pytest.raises(InvalidArgument):
        join(tri, build_complex([{3, 4}]))


def test_fg_vector_spot_values(octahedron):
    fg = fg_vector(octahedron.complex, 3)
    assert fg.f == (1, 6, 12, 8)
    assert fg.g == (1, 2, 0)
    assert fg.f_at(-1) == 1 and fg.f_at(2) == 8
    assert fg.g_at(5) == 0
    with pytest.raises(InvalidArgument):
        fg.f_at(3)

    C = instance("cyclic", n=7, d=4)
    assert fg_vector(C.complex, 4).g == (1, 2, 3)
    X5 = instance("cross", d=5)
    assert fg_vector(X5.complex, 5).g == (1, 4, 5, 0)


def test_fg_matches_oracle_across_corpus(full_corpus):
    for P in full_corpus:
        f = f_vector(P.complex.facet_keys)
        assert P.complex.f_counts() == f
        assert fg_vector(P.complex, P.d).g == g_vector(f, P.d)


@st.composite
def facet_family(draw):
    n = draw(st.integers(3, 7))
    nf = draw(st.integers(1, 6))
    return [
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)) for _ in range(nf)
    ]


@st.composite
def generating_family(draw):
    """Mixed sizes, the empty face, repeats in other containers, nested
    chains, or a family of one size."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        size = draw(st.integers(0, min(n, 4)))
        members = st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
    else:
        members = st.sets(st.integers(0, n - 1), max_size=5)
    family = draw(st.lists(members, min_size=1, max_size=8))
    if draw(st.booleans()):  # every prefix of one member, the empty face included
        top = sorted(draw(st.sampled_from(family)))
        family += [set(top[:j]) for j in range(len(top))]
    if draw(st.booleans()):  # down-closed, so the shadows run to the smallest size
        family = [set(S) for F in family for j in range(len(F) + 1) for S in combinations(sorted(F), j)]
    family += [tuple(F) for F in draw(st.lists(st.sampled_from(family), max_size=3))]
    return draw(st.permutations(family))


@settings(deadline=None, max_examples=300)
@given(generating_family())
@example([set(range(5)), {5, 6, 7}, {5, 6}])  # {5, 6} lies in a member kept after the shadows stop
def test_normalization_matches_pairwise_oracle(family):
    want = pairwise_maximal(family)
    assert build_complex(family).facets == want
    assert SimplicialComplex(facets=family).facets == want
    assert SimplicialComplex(facets=iter(family)).facets == want


def test_normalization_matches_pairwise_oracle_on_cyclic_30_6():
    # 3,250 Gale facets of one size, plus a dominated edge and a new one
    family = [*map(set, _gale_facets(30, 6)), {1, 2}, {3, 31}]
    K = build_complex(family)
    assert K.facets == pairwise_maximal(family)
    assert len(K.facets) == 3251


@pytest.mark.parametrize("small", [{0}, {39}, {40}, set()])
def test_normalization_of_a_large_member_and_a_small_one_is_fast(small):
    # the shadow of range(40) has 2^40 sets; the small member is tested directly
    t0 = time.monotonic()
    K = build_complex([range(40), small])
    elapsed = time.monotonic() - t0
    assert K.facets == pairwise_maximal([range(40), small])
    assert elapsed < 1, f"took {elapsed:.2f}s"


def test_normalization_scales_to_cyclic_40_6():
    # 8,400 Gale facets: comparing every pair of them takes seconds
    facets = [set(S) for S in _gale_facets(40, 6)]
    t0 = time.monotonic()
    K = build_complex(facets)
    elapsed = time.monotonic() - t0
    assert len(K.facets) == 8400
    assert elapsed < 1, f"took {elapsed:.2f}s"


@settings(deadline=None, max_examples=80)
@given(facet_family())
def test_complex_properties(facets):
    K = build_complex(facets)
    # downward closure
    for F in K.faces_of_size(3):
        for G in [F[:2], F[1:], (F[0], F[2])]:
            assert K.has_face(G)
    # every input face is a face
    for F in facets:
        assert K.has_face(F)
    # a missing face is not a face but its boundary is
    for M in missing_faces(K, len(K.vertices)):
        assert not K.has_face(M)
        for v in M:
            assert K.has_face(set(M) - {v})
    # f-vector agrees with brute closure
    assert K.f_counts() == f_vector(K.facet_keys)


@settings(deadline=None, max_examples=150)
@given(facet_family())
def test_missing_faces_match_subset_oracle(facets):
    K = build_complex(facets)
    for max_card in range(1, len(K.vertices) + 2):
        assert missing_faces(K, max_card) == subset_missing_faces(K, max_card)


@settings(deadline=None, max_examples=150)
@given(facet_family(), st.lists(st.lists(st.integers(0, 7), max_size=6), min_size=1, max_size=8))
def test_has_face_matches_facet_scan(facets, queries):
    K = build_complex(facets)
    for q in queries:  # labels may repeat and may be unknown
        want = scan_has_face(K, q)
        assert K.has_face(q) == K.has_face(tuple(q)) == K.has_face(set(q)) == want
        assert K.has_face(frozenset(q)) == (frozenset(q) in K) == want


def test_extensions():
    level = {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
    assert list(extensions(level, range(1, 6))) == [(1, 2, 3), (2, 3, 4)]
    assert list(extensions({()}, (3, 1, 2))) == [(1,), (2,), (3,)]
    assert list(extensions(set(), (1, 2))) == []


def test_face_key():
    assert face_key({3, 1, 2}) == (1, 2, 3)
    assert face_key(frozenset()) == ()
