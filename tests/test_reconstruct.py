import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import instance
from oracles import subset_avoiding_complex, subset_complete_prime
from polystress import detect, exactla
from polystress.errors import CompletionFailure, InvalidArgument, InvalidComplex, ReconstructionFailure
from polystress.reconstruct import (
    DiffReport,
    _avoiding_complex,
    compare,
    complete_prime,
    reconstruct_skeleton,
    run_pipeline,
)
from polystress.simplicial import build_complex, missing_faces, skeleton
from polystress.stress import stress_basis


def pipeline_inputs(P, k=2):
    skel = skeleton(P.complex, k - 1)
    return skel, stress_basis(skel, P.embedding, k)


# ---------------------------------------------------------------------------
# diffing


def test_compare_equal(octahedron):
    diff = compare(octahedron.complex, octahedron.complex)
    assert diff.equal
    assert diff == DiffReport((), (), (), (), (), ())


def test_compare_octahedron_vs_simplex_boundary(octahedron):
    tetra = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    diff = compare(octahedron.complex, tetra)
    assert not diff.equal
    assert diff.vertices_only_first == (4, 5)
    assert diff.vertices_only_second == ()
    assert diff.missing_only_first == ((0, 1), (2, 3), (4, 5))
    assert diff.missing_only_second == ((0, 1, 2, 3),)
    assert (0, 1, 2) in diff.facets_only_second


# ---------------------------------------------------------------------------
# skeleton recovery


@pytest.mark.parametrize(
    "family,params",
    [
        ("cyclic", {"n": 6, "d": 4}),
        ("cyclic", {"n": 7, "d": 4}),
        ("cross", {"d": 4}),
        ("free_sum", {"i": 2, "d": 4}),
        ("simplex", {"d": 5}),
    ],
)
def test_reconstruct_skeleton_matches_truth(family, params):
    P = instance(family, **params)
    skel, basis = pipeline_inputs(P)
    assert reconstruct_skeleton(skel, basis, P.d, 2) == skeleton(P.complex, P.d - 2)


def test_reconstruct_rejects_bad_inputs(octahedron):
    P = instance("cyclic", n=6, d=4)
    skel, basis = pipeline_inputs(P)
    with pytest.raises(ReconstructionFailure):
        reconstruct_skeleton(*pipeline_inputs(octahedron), octahedron.d, 2)  # d < 2k
    with pytest.raises(ReconstructionFailure):
        reconstruct_skeleton(P.complex, basis, 4, 2)  # not a 1-skeleton
    k1 = stress_basis(skel, P.embedding, 1)
    with pytest.raises(ReconstructionFailure):
        reconstruct_skeleton(skel, k1, 4, 2)  # degree mismatch


# ---------------------------------------------------------------------------
# prime completion


@pytest.mark.parametrize(
    "family,params,missing",
    [
        ("cyclic", {"n": 6, "d": 4}, [(1, 3, 5), (2, 4, 6)]),
        ("cross", {"d": 4}, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        ("free_sum", {"i": 2, "d": 4}, [(1, 2, 3), (4, 5, 6)]),
    ],
)
def test_complete_prime_recovers_boundary(family, params, missing):
    P = instance(family, **params)
    assert missing_faces(P.complex, len(P.complex.vertices)) == sorted(
        missing, key=lambda t: (len(t), t)
    )
    skel_dk = skeleton(P.complex, P.d - 2)
    assert complete_prime(skel_dk, missing, P.d) == P.complex


def test_complete_prime_rejects():
    P = instance("cyclic", n=6, d=4)
    skel_dk = skeleton(P.complex, 2)
    with pytest.raises(InvalidArgument):
        complete_prime(skel_dk, [(9, 10)], 4)
    # a stacked polytope has missing facets; pretending it is prime fails
    S = instance("stacked", d=4, steps=2, seed=2)
    skel, basis = pipeline_inputs(S)
    found = [(3, 6), (4, 5), (4, 6)]
    with pytest.raises(CompletionFailure):
        complete_prime(reconstruct_skeleton(skel, basis, 4, 2), found, 4)


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_cyclic_64_round_trip():
    P = instance("cyclic", n=6, d=4)
    skel, basis = pipeline_inputs(P)
    rep = run_pipeline(skel, basis, 4, 2, truth=P.complex)
    assert rep.status == "full"
    assert rep.missing_by_dim == {2: ((1, 3, 5), (2, 4, 6))}
    assert rep.completion == P.complex
    assert rep.skeleton == skeleton(P.complex, 2)
    assert rep.diff is not None and rep.diff.equal
    # uncertified candidates in the window are all genuine faces
    assert set(rep.undetermined) == set(P.complex.faces_of_size(3))


def test_pipeline_prime_flag_without_truth():
    P = instance("cyclic", n=6, d=4)
    skel, basis = pipeline_inputs(P)
    rep = run_pipeline(skel, basis, 4, 2, prime=True)
    assert rep.status == "full"
    assert rep.completion == P.complex
    assert rep.diff is None


@pytest.mark.parametrize(
    "family,params,missing_by_dim",
    [
        ("cross", {"d": 4}, {1: ((0, 1), (2, 3), (4, 5), (6, 7))}),
        ("cross", {"d": 5}, {1: ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))}),
        ("cyclic", {"n": 7, "d": 4}, {2: ((1, 3, 5), (1, 3, 6), (1, 4, 6), (2, 4, 6), (2, 4, 7), (2, 5, 7), (3, 5, 7))}),
        ("free_sum", {"i": 2, "d": 5}, {2: ((1, 2, 3),), 3: ((4, 5, 6, 7),)}),
    ],
)
def test_pipeline_round_trips(family, params, missing_by_dim):
    P = instance(family, **params)
    skel, basis = pipeline_inputs(P)
    rep = run_pipeline(skel, basis, P.d, 2, truth=P.complex)
    assert rep.status == "full"
    assert rep.missing_by_dim == missing_by_dim
    assert rep.completion == P.complex
    assert rep.diff.equal


def test_pipeline_stacked_stops_at_skeleton():
    S = instance("stacked", d=4, steps=2, seed=2)
    assert missing_faces(S.complex, 7) == [
        (3, 6),
        (4, 5),
        (4, 6),
        (0, 1, 2, 3),
        (0, 1, 2, 5),
    ]
    skel, basis = pipeline_inputs(S)
    rep = run_pipeline(skel, basis, 4, 2, truth=S.complex)
    assert rep.status == "skeleton-only"
    assert rep.completion is None
    assert rep.missing_by_dim == {1: ((3, 6), (4, 5), (4, 6))}
    assert rep.diff is not None and rep.diff.equal  # skeletons still agree


def test_pipeline_k3_cyclic_12_6_within_time():
    # every sweep LP runs over a local span of at most |star(F)| columns
    P = instance("cyclic", n=12, d=6)
    skel, basis = pipeline_inputs(P, k=3)
    t0 = time.monotonic()
    rep = run_pipeline(skel, basis, 6, 3, prime=True)
    elapsed = time.monotonic() - t0
    assert rep.completion == P.complex
    assert elapsed < 3, f"took {elapsed:.2f}s"


def test_pipeline_k2_cyclic_18_4_within_time():
    # deg F is the north star's scale axis: each local LP has one row per
    # non-pivot or strict pivot coordinate of star(F), one column per pivot
    P = instance("cyclic", n=18, d=4)
    skel, basis = pipeline_inputs(P)
    t0 = time.monotonic()
    rep = run_pipeline(skel, basis, 4, 2, prime=True)
    elapsed = time.monotonic() - t0
    assert rep.completion == P.complex
    assert elapsed < 1.5, f"took {elapsed:.2f}s"


def test_pipeline_with_no_stresses_builds_no_local_span_and_runs_no_lp(monkeypatch):
    S = instance("stacked", d=4, steps=2, seed=2)
    skel, basis = pipeline_inputs(S)
    assert basis == []  # g_2 = 0
    calls = []
    monkeypatch.setattr(detect, "_local_span", lambda *a: calls.append("span"))
    monkeypatch.setattr(exactla, "_solve", lambda *a: calls.append("lp"))
    rep = run_pipeline(skel, basis, 4, 2, truth=S.complex)
    assert rep.diff.equal
    assert calls == []


def _vertices(*labels):
    return build_complex([{v} for v in labels])


def test_complete_prime_rejects_no_candidate_facet():
    # every 4-subset of 1..6 holds one of the three pairs
    with pytest.raises(CompletionFailure, match="no candidate facets"):
        complete_prime(_vertices(1, 2, 3, 4, 5, 6), [(1, 2), (3, 4), (5, 6)], 4)


def test_complete_prime_rejects_short_maximal_face():
    # a 4-cycle plus a vertex 5 that lies on no edge
    missing = [(1, 3), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)]
    with pytest.raises(CompletionFailure, match=r"maximal face \(5,\) has size 1 < d"):
        complete_prime(_vertices(1, 2, 3, 4, 5), missing, 2)


def test_complete_prime_rejects_bad_ridge():
    # the path 1-2-3: vertex 1 ends one edge only
    with pytest.raises(CompletionFailure, match=r"ridge \(1,\) lies in 1 facets, expected 2"):
        complete_prime(_vertices(1, 2, 3), [(1, 3)], 2)


def test_complete_prime_rejects_disconnected_dual_graph():
    # two disjoint triangles at d = 2
    missing = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    with pytest.raises(CompletionFailure, match="dual graph is disconnected"):
        complete_prime(_vertices(1, 2, 3, 4, 5, 6), missing, 2)


@st.composite
def vertices_and_missing(draw):
    n = draw(st.integers(1, 7))
    sets = st.sets(st.integers(1, n), min_size=1, max_size=4)
    return tuple(range(1, n + 1)), [tuple(sorted(M)) for M in draw(st.lists(sets, max_size=8))]


@settings(deadline=None, max_examples=200)
@given(vertices_and_missing(), st.integers(1, 5))
def test_avoiding_complex_matches_subset_oracle(vm, max_size):
    vertices, missing = vm
    try:
        want = subset_avoiding_complex(vertices, missing, max_size)
    except InvalidComplex:
        assume(False)  # every vertex is missing; the oracle has no complex to compare
    assert _avoiding_complex(vertices, missing, max_size) == want


@settings(deadline=None, max_examples=200)
@given(vertices_and_missing(), st.integers(2, 4))
def test_complete_prime_matches_subset_oracle(vm, d):
    vertices, missing = vm
    skel = _vertices(*vertices)
    outcomes = []
    for fn in (complete_prime, subset_complete_prime):
        try:
            outcomes.append(fn(skel, missing, d))
        except CompletionFailure as exc:
            # the purity branch names a short facet, the oracle any uncovered set
            msg = str(exc)
            outcomes.append("maximal" if msg.startswith("maximal") else msg)
    assert outcomes[0] == outcomes[1]


def test_complete_prime_matches_subset_oracle_on_corpus(full_corpus):
    for P in full_corpus:
        missing = missing_faces(P.complex, len(P.complex.vertices))
        if any(len(M) > P.d - 1 for M in missing):
            continue  # not prime
        skel = skeleton(P.complex, P.d - 2)
        assert complete_prime(skel, missing, P.d) == subset_complete_prime(skel, missing, P.d) == P.complex
