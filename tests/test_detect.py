import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instance
from oracles import (
    expand_recover_stress1,
    fraction_power_stress,
    graph_edge_carrier,
    kernel_edge_stress,
    sign_system_feasible,
    star_quotient_carrier,
    subset_sweep,
    swap_extend,
)
from polystress import detect, exactla
from polystress.detect import (
    Certificate,
    certificate_check,
    certificate_sweep,
    enumerate_missing_faces,
    find_certificate,
    missing_edge_stress,
    neighborly_certificate,
    probe_missing_faces,
    quotient_certificate,
    recover_stress1_from_stress2,
    sign_changes,
    sign_vector,
)
from polystress.errors import (
    InvalidArgument,
    InvalidCertificate,
    InvalidInput,
    NotAFace,
    NotAVertex,
    NotMissing,
    NotNeighborlyEnough,
    PolystressError,
)
from polystress.exactla import rref
from polystress.geometry import Embedding, PolytopeInstance, affine_rank
from polystress.rat import R0, R1, rat
from polystress.simplicial import build_complex, missing_faces, skeleton
from polystress.stress import StressVector, balancing_residual, power_stress, stress_basis


EQUATOR = [(2, 4), (2, 5), (3, 4), (3, 5)]


def outcome(f, *args):
    """f's result, or the type and message of the package error it raised."""
    try:
        return f(*args)
    except PolystressError as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# sign vectors


def test_sign_vector():
    sv = StressVector(degree=2, coeffs={(1, 2): rat(3), (2, 3): rat(-1, 2)})
    assert sign_vector(sv) == {(1, 2): 1, (2, 3): -1}
    assert sign_vector(sv, faces=[(2, 1), (1, 3), (2, 3)]) == {(1, 2): 1, (1, 3): 0, (2, 3): -1}
    zero = StressVector(degree=2, coeffs={})
    assert sign_vector(zero) == {}
    assert sign_vector(zero, faces=[(1, 2)]) == {(1, 2): 0}


# ---------------------------------------------------------------------------
# missing-edge stresses


def test_missing_edge_stress_octahedron(octahedron):
    lam = missing_edge_stress(octahedron, 0, 1)
    assert lam.coeff((0, 1)) == R1
    sv = sign_vector(lam)
    for a in (0, 1):
        for v in (2, 3, 4, 5):
            assert sv[(a, v)] == -1
    for e in EQUATOR:
        assert sv[e] == 1
    assert lam.coeff((0, 2)) == rat(-1, 2)
    assert lam.coeff((2, 4)) == rat(1, 2)


def test_missing_edge_stress_rejects(octahedron):
    with pytest.raises(NotMissing):
        missing_edge_stress(octahedron, 0, 2)
    with pytest.raises(InvalidArgument):
        missing_edge_stress(octahedron, 0, 0)
    with pytest.raises(NotAVertex):
        missing_edge_stress(octahedron, 0, 9)
    square = instance("cyclic", n=4, d=2)
    with pytest.raises(InvalidArgument):
        missing_edge_stress(square, 1, 3)


@pytest.mark.parametrize("d", [4, 5])
def test_missing_edge_stress_high_dim(d):
    P = instance("cross", d=d)
    aug = build_complex(list(skeleton(P.complex, 1).facets) + [(0, 1)])
    for a, b in [(0, 1), (1, 0)]:
        lam = missing_edge_stress(P, a, b)
        assert lam.coeff((0, 1)) == R1
        for u in range(2, 2 * d):
            e = tuple(sorted((a, u)))
            assert lam.sign(e) <= 0
        res = balancing_residual(lam, aug, P.embedding)
        assert all(all(x == R0 for x in vec) for vec in res.values())


def test_missing_edge_stress_matches_kernel_oracle_on_corpus(full_corpus, monkeypatch):
    # both orientations of every missing edge; a spy hands the oracle the
    # carrier each route built, and the oracle reads its rigidity kernel
    carriers = []

    def spy(K, p, k):
        carriers.append(K)
        return stress_basis(K, p, k)

    monkeypatch.setattr(detect, "stress_basis", spy)
    seen = set()
    for P in full_corpus:
        for a, b in (M for M in missing_faces(P.complex, 2) if len(M) == 2):
            for x, y in ((a, b), (b, a)):
                carriers.clear()
                got = missing_edge_stress(P, x, y)
                (carrier,) = carriers
                dim, want = kernel_edge_stress(carrier, P.embedding, (a, b))
                assert got == want, (P.meta, x, y)
                assert P.d > 3 or dim == 1
                seen.add(P.d)
    assert seen == {3, 4, 5}


def _spy_build_complex(monkeypatch):
    """Route detect's build_complex through a spy; returns the list of
    generator lists it was called with."""
    real, calls = detect.build_complex, []

    def spy(gens):
        calls.append(list(gens))
        return real(calls[-1])

    monkeypatch.setattr(detect, "build_complex", spy)
    return calls


def test_edge_carrier_matches_the_graph_route(full_corpus, monkeypatch):
    # one construction from the facets met by the paths, plus the edges
    # a-c and ab, has the vertices and edges of their graph plus those edges
    calls = _spy_build_complex(monkeypatch)
    cases = [P for P in full_corpus if P.d >= 4]
    cases += [instance("stacked", d=4, steps=6, seed=0), instance("stacked", d=5, steps=7, seed=0)]
    seen = set()
    for P in cases:
        for a, b in (M for M in missing_faces(P.complex, 2) if len(M) == 2):
            for x, y in ((a, b), (b, a)):
                calls.clear()
                missing_edge_stress(P, x, y)
                (gens,) = calls
                facets, extra = [T for T in gens if len(T) > 2], [T for T in gens if len(T) == 2]
                assert set(facets) <= P.complex.facets and frozenset((x, y)) in extra
                new = build_complex(gens)
                old = graph_edge_carrier(facets, extra)
                assert new.vertices == old.vertices, (P.meta, x, y)
                assert new.face_set(2) == old.face_set(2), (P.meta, x, y)
                seen.add((P.d, P.meta["family"]))
    assert {(4, "stacked"), (5, "stacked"), (4, "cross"), (5, "cross")} <= seen


def test_quotient_carrier_equals_the_star_route(full_corpus, monkeypatch):
    # every (M, F, x0) over the corpus's missing faces; the carrier is all
    # this test reads, so the stress space is left empty
    calls = _spy_build_complex(monkeypatch)
    monkeypatch.setattr(detect, "stress_basis", lambda *a: [])
    seen = 0
    for P in full_corpus:
        K = P.complex
        for M in missing_faces(K, len(K.vertices)):
            for j in range(1, len(M) - 1):
                for F in combinations(M, j):
                    for x0 in (v for v in M if v not in F):
                        calls.clear()
                        assert quotient_certificate(P, M, F, x0) is None
                        G = tuple(sorted(F + (x0,)))
                        tau = tuple(v for v in M if v not in G)
                        assert [build_complex(gens) for gens in calls] == [star_quotient_carrier(K, tau, G)], (P.meta, M, F, x0)
                        seen += 1
    assert seen > 1000


def test_missing_edge_and_quotient_build_one_complex_per_carrier(octahedron, constructions):
    # d = 3 builds the carrier; d >= 4 builds lk(a) and the carrier
    assert constructions(missing_edge_stress, octahedron, 0, 1) == 1
    for d in (4, 5):
        assert constructions(missing_edge_stress, instance("cross", d=d), 0, 1) == 2
    assert constructions(quotient_certificate, instance("free_sum", i=2, d=4), (1, 2, 3), (1,)) == 1


def _greedy_first_pass(points, core, pool, d):
    """swap_extend's first pass: labels kept by affine independence alone."""
    chosen = list(core)
    for c in pool:
        if len(chosen) < d and c not in chosen and affine_rank([points[x] for x in chosen + [c]]) == len(chosen):
            chosen.append(c)
    return chosen


def _avoids(points, labels, avoid_pt):
    return affine_rank([points[c] for c in labels] + [avoid_pt]) == len(labels)


def _extension_exists(points, core, pool, d, avoid_pt):
    rest = [c for c in pool if c not in core]
    return any(_avoids(points, core + list(T), avoid_pt) for T in combinations(rest, d - len(core)))


def _extension_cases(d):
    """(d, points, core, avoid_pt): a core of at most d of the points' labels."""
    point = st.tuples(*[st.integers(-2, 2)] * d)
    return st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(d),
            st.lists(point, min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), max_size=d, unique=True),
            point,
        )
    )


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 4).flatmap(_extension_cases))
def test_extend_independent_is_a_complete_greedy(case):
    d, pts, core, avoid_pt = case
    points = dict(enumerate(pts))
    pool = sorted(points)
    got = detect._extend_independent(points, core, pool, d, avoid_pt)
    exists = _extension_exists(points, core, pool, d, avoid_pt)
    assert (got is not None) == exists
    if got is not None:
        assert got[: len(core)] == core and len(got) == d == len(set(got))
        assert set(got) <= set(pool) and _avoids(points, got, avoid_pt)
    old = swap_extend(points, core, pool, d, avoid_pt)
    if old is not None:
        assert exists
        first = _greedy_first_pass(points, core, pool, d)
        if _avoids(points, first, avoid_pt):  # no swap was needed
            assert old == first == got


def test_extend_independent_needs_no_swap_where_the_first_pass_traps_the_apex():
    # the first pass keeps 1, on the line through 0 and p(a); only the
    # oracle's swap of 1 for 2 rescues it, and the greedy skips 1 outright
    points = {0: (0, 0), 1: (2, 0), 2: (0, 2)}
    avoid_pt = (1, 0)
    assert _greedy_first_pass(points, [0], [0, 1, 2], 2) == [0, 1]
    assert not _avoids(points, [0, 1], avoid_pt)
    assert swap_extend(points, [0], [0, 1, 2], 2, avoid_pt) == [0, 2]
    assert detect._extend_independent(points, [0], [0, 1, 2], 2, avoid_pt) == [0, 2]


def test_missing_edge_sign_system_agrees_with_fm_oracle():
    # the constructive route and a Fourier-Motzkin check on the full
    # stress space of graph+ab must agree that the pattern is feasible
    P = instance("cross", d=4)
    aug = build_complex(list(skeleton(P.complex, 1).facets) + [(0, 1)])
    basis = stress_basis(aug, P.embedding, 2)
    order = aug.faces_of_size(2)
    index = {e: i for i, e in enumerate(order)}
    vectors = [b.as_vector(order) for b in basis]
    strict = [index[(0, 1)]]
    weak = [index[e] for e in order if 0 in e and e != (0, 1)]
    assert sign_system_feasible(vectors, strict, weak)


# ---------------------------------------------------------------------------
# sign changes around a vertex


def test_sign_changes_octahedron(octahedron):
    lam = missing_edge_stress(octahedron, 0, 1)
    assert sign_changes(lam, octahedron, 0) == 0
    assert sign_changes(lam, octahedron, 1) == 0
    for v in (2, 3, 4, 5):
        assert sign_changes(lam, octahedron, v) == 4
    assert sign_changes(StressVector(degree=2, coeffs={}), octahedron, 2) == 0


def test_sign_changes_rejects(octahedron):
    lam = StressVector(degree=2, coeffs={})
    with pytest.raises(InvalidArgument):
        sign_changes(lam, instance("cross", d=4), 0)
    with pytest.raises(NotAVertex):
        sign_changes(lam, octahedron, 9)
    broken = PolytopeInstance(
        complex=build_complex([(0, 1, 2), (0, 1, 3)]),
        embedding=Embedding.build(3, {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}),
        d=3,
        meta={},
    )
    with pytest.raises(InvalidInput):
        sign_changes(lam, broken, 2)


# ---------------------------------------------------------------------------
# certificate checking


def test_certificate_check_octahedron(octahedron):
    lam = missing_edge_stress(octahedron, 0, 1)
    cert = Certificate(missing=(0, 1), base=(0,), stress=lam, pattern=sign_vector(lam))
    assert certificate_check(cert, octahedron.complex, octahedron.embedding)
    flipped = Certificate(missing=(0, 1), base=(0,), stress=lam.scaled(-1), pattern={})
    assert not certificate_check(flipped, octahedron.complex, octahedron.embedding)
    zero = Certificate(missing=(0, 1), base=(0,), stress=StressVector(degree=2, coeffs={}), pattern={})
    assert not certificate_check(zero, octahedron.complex, octahedron.embedding)


def test_certificate_check_rejects_malformed(octahedron):
    K = octahedron.complex
    p = octahedron.embedding
    lam = missing_edge_stress(octahedron, 0, 1)

    def cert(**kw):
        base = dict(missing=(0, 1), base=(0,), stress=lam, pattern={})
        base.update(kw)
        return Certificate(**base)

    with pytest.raises(InvalidCertificate):
        certificate_check(cert(stress=StressVector(degree=1, coeffs={(0,): R1})), K, p)
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(base=(0, 2), missing=(0, 1, 2)), K, p)
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(base=(2,)), K, p)
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(missing=(0, 9), base=(0,)), K, p)
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(missing=(0, 1, 2), base=(0, 1)), K, p)
    # support outside the complex and not between F and M
    stray = StressVector(degree=2, coeffs={(2, 3): R1})
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(stress=stray), K, p)
    # support escapes on two distinct faces
    double = StressVector(degree=2, coeffs={(0, 1): R1, (2, 3): R1})
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(stress=double), K, p)
    # right shape, wrong numbers: balancing fails
    fake = StressVector(degree=2, coeffs={(0, 2): R1})
    with pytest.raises(InvalidCertificate):
        certificate_check(cert(stress=fake), K, p)


# ---------------------------------------------------------------------------
# certificate search


def test_find_certificate_cyclic():
    P = instance("cyclic", n=6, d=4)
    basis = stress_basis(P.complex, P.embedding, 2)
    (phi_sv,) = stress_basis(P.complex, P.embedding, 1)
    sq = power_stress({v: c for (v,), c in phi_sv.coeffs.items()}, 2, P.complex, P.embedding)
    for F in [(1,), (3,), (5,)]:
        cert = find_certificate(P.complex, basis, (1, 3, 5), F)
        assert cert is not None
        assert cert.missing == (1, 3, 5) and cert.base == F
        assert certificate_check(cert, P.complex, P.embedding)
        # the stress space is a line, so the witness is a positive
        # multiple of the squared dependence
        for e in sq.support():
            assert cert.stress.coeff(e) * sq.coeff((1, 3)) == sq.coeff(e) * cert.stress.coeff((1, 3))
        assert cert.stress.sign((1, 3)) == 1
    u = [v for v in (2, 4, 6)]
    cert = find_certificate(P.complex, basis, (1, 3, 5), (1,))
    assert cert.pattern[(1, 3)] == 1 and cert.pattern[(1, 5)] == 1
    assert all(cert.pattern[(1, v)] == -1 for v in u)


def test_find_certificate_none_for_true_faces():
    P = instance("cyclic", n=6, d=4)
    basis = stress_basis(P.complex, P.embedding, 2)
    for F in [(1,), (2,), (3,)]:
        assert find_certificate(P.complex, basis, (1, 2, 3), F) is None


def test_find_certificate_edge_cases():
    P = instance("cyclic", n=6, d=4)
    basis = stress_basis(P.complex, P.embedding, 2)
    S = instance("simplex", d=4)
    assert find_certificate(S.complex, [], (1, 2, 3), (1,)) is None
    with pytest.raises(InvalidArgument):
        find_certificate(P.complex, basis, (1, 3, 5), (1, 3, 5))
    with pytest.raises(InvalidArgument):
        find_certificate(P.complex, basis, (1, 3, 5), (1, 3))  # degree mismatch
    with pytest.raises(NotAFace):
        find_certificate(P.complex, basis, (7, 8), (7,))
    # the basis degree is checked before the base face
    line = stress_basis(P.complex, P.embedding, 1)
    with pytest.raises(InvalidArgument, match="basis degrees"):
        find_certificate(P.complex, line, (7, 8), (7,))


def test_sweeps_reject_a_basis_of_the_wrong_degree():
    P = instance("cyclic", n=9, d=6)
    skel = skeleton(P.complex, 1)
    basis = stress_basis(P.complex, P.embedding, 3)
    assert len(basis) == 4
    with pytest.raises(InvalidArgument, match=r"basis degrees \[3\] do not match"):
        enumerate_missing_faces(skel, basis, 6, 2)
    with pytest.raises(InvalidArgument, match=r"basis degrees \[3\] do not match"):
        certificate_sweep(skel, basis, 6, 2)


# ---------------------------------------------------------------------------
# sweeps


def test_certificate_sweep_cyclic():
    P = instance("cyclic", n=6, d=4)
    skel = skeleton(P.complex, 1)
    basis = stress_basis(skel, P.embedding, 2)
    certified, open_ = certificate_sweep(skel, basis, 4, 2)
    assert certified == [(1, 3, 5), (2, 4, 6)]
    # everything else in the size window is a genuine 2-face, left open
    genuine = set(P.complex.faces_of_size(3))
    assert set(open_) == genuine and len(open_) == 18
    assert enumerate_missing_faces(skel, basis, 4, 2) == [(1, 3, 5), (2, 4, 6)]


def test_certificate_sweep_free_sum():
    P = instance("free_sum", i=2, d=4)
    skel = skeleton(P.complex, 1)
    basis = stress_basis(skel, P.embedding, 2)
    certified, open_ = certificate_sweep(skel, basis, 4, 2)
    assert certified == [(1, 2, 3), (4, 5, 6)]
    assert set(open_) == set(P.complex.faces_of_size(3))


def test_certificate_sweep_soundness_cross():
    # no missing faces in the size window, so nothing may be certified
    P = instance("cross", d=4)
    skel = skeleton(P.complex, 1)
    basis = stress_basis(skel, P.embedding, 2)
    certified, open_ = certificate_sweep(skel, basis, 4, 2)
    assert certified == []
    assert set(open_) == set(P.complex.faces_of_size(3)) and len(open_) == 32
    with pytest.raises(InvalidArgument):
        certificate_sweep(skel, basis, 4, 1)


def test_sweeps_reject_d_below_2k():
    # the size window k+1 .. d-k+1 is empty, which must not read as "no missing faces"
    P = instance("cyclic", n=7, d=4)
    skel = skeleton(P.complex, 2)
    basis = stress_basis(skel, P.embedding, 3)
    for sweep in (certificate_sweep, enumerate_missing_faces):
        with pytest.raises(InvalidArgument, match=r"^need d >= 2k, got d=4, k=3$"):
            sweep(skel, basis, 4, 3)


def test_certificate_sweep_matches_subset_oracle_on_corpus(full_corpus):
    for P in full_corpus:
        if P.d < 4:
            continue
        skel = skeleton(P.complex, 1)
        basis = stress_basis(skel, P.embedding, 2)
        assert certificate_sweep(skel, basis, P.d, 2) == subset_sweep(skel, basis, P.d, 2), P.meta


def corpus_sweeps(corpus):
    """(P, k, skel, basis) for every sweep at k = 2 and 3 over the corpus."""
    for P in corpus:
        for k in (2, 3):
            if P.d < 2 * k:  # no candidate size between k + 1 and d - k + 1
                continue
            skel = skeleton(P.complex, k - 1)
            yield P, k, skel, stress_basis(skel, P.embedding, k)


def spy_sweep(monkeypatch):
    """certificate_sweep that also returns each (M, F, verdict) its local
    LPs gave and the number of LPs run, with the given `_local_span`."""
    real_span, real_local, real_solve = detect._local_span, detect._locally_feasible, exactla._solve
    found, lps = [], [0]

    def local_spy(local, M, F):
        found.append((M, F, real_local(local, M, F)))
        return found[-1][2]

    def solve_spy(*args):
        lps[0] += 1
        return real_solve(*args)

    monkeypatch.setattr(detect, "_locally_feasible", local_spy)
    monkeypatch.setattr(exactla, "_solve", solve_spy)

    def sweep(skel, basis, d, k, span=real_span):
        monkeypatch.setattr(detect, "_local_span", span)
        found.clear()
        lps[0] = 0
        return certificate_sweep(skel, basis, d, k), found[:], lps[0]

    return sweep


def test_certificate_sweep_farkas_rays_match_one_lp_per_pattern_on_corpus(full_corpus, monkeypatch):
    # every sweep at k = 2 and 3 with each base face's Farkas rays, then
    # with an LP for every sign pattern: the lists and every local verdict
    # on the way agree, and LPs were skipped
    sweep = spy_sweep(monkeypatch)
    real_span = detect._local_span
    with_rays = without = 0
    for P, k, skel, basis in corpus_sweeps(full_corpus):
        lists, verdicts, ran = sweep(skel, basis, P.d, k)
        plain = sweep(skel, basis, P.d, k, lambda *a: (*real_span(*a)[:2], None))
        assert (lists, verdicts) == plain[:2], (P.meta, k)
        with_rays += ran
        without += plain[2]
    assert 0 < with_rays < without


def test_certificate_sweep_local_verdicts_match_the_global_lp_on_corpus(full_corpus, monkeypatch):
    # each query the sweep asks over pi_F(L) gets the answer of the LP
    # over the whole basis
    sweep = spy_sweep(monkeypatch)
    asked = 0
    for P, k, skel, basis in corpus_sweeps(full_corpus):
        _, verdicts, _ = sweep(skel, basis, P.d, k)
        space = detect._stress_space(skel, basis, k)
        for M, F, verdict in verdicts:
            assert verdict == (detect._feasible_certificate(k, space, skel, M, F) is not None), (P.meta, M, F)
        asked += len(verdicts)
    assert asked > 1000


def _unimodular(g, rng):
    """A random g x g integer matrix of determinant +-1."""
    U = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(3 * g):
        i, j = rng.sample(range(g), 2) if g > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        if rng.random() < 0.3:
            U[i] = [-a for a in U[i]]
    return U


def test_certificate_sweep_depends_only_on_the_span(full_corpus, monkeypatch):
    # a unimodular change of basis keeps both lists, their order and the
    # LP count: the rref of a span is unique, so every local LP is the same
    sweep = spy_sweep(monkeypatch)
    rng = random.Random(26)
    changed = 0
    for P, k, skel, basis in corpus_sweeps(full_corpus):
        if not basis:
            continue
        order = skel.faces_of_size(k)
        vecs = [b.as_vector(order) for b in basis]
        mixed = []
        for row in _unimodular(len(basis), rng):
            vec = [sum(c * v[i] for c, v in zip(row, vecs)) for i in range(len(order))]
            mixed.append(StressVector.from_vector(k, order, vec))
        changed += mixed != basis
        lists, _, ran = sweep(skel, basis, P.d, k)
        assert sweep(skel, mixed, P.d, k)[::2] == (lists, ran), (P.meta, k)
    assert changed > 10


# ---------------------------------------------------------------------------
# quotient route


def test_quotient_certificate_free_sum():
    P = instance("free_sum", i=2, d=4)
    cert = quotient_certificate(P, (1, 2, 3), (1,))
    assert cert is not None
    assert cert.missing == (1, 2, 3) and cert.base == (1,)
    assert cert.pattern == {(1, 2): 1, (1, 3): 1, (1, 4): -1, (1, 5): -1, (1, 6): -1}
    assert certificate_check(cert, P.complex, P.embedding)


def test_quotient_certificate_rejects():
    P = instance("free_sum", i=2, d=4)
    with pytest.raises(InvalidArgument):
        quotient_certificate(P, (1, 2, 3), (1,), x0=5)
    with pytest.raises(InvalidArgument):
        quotient_certificate(P, (1, 2), (1,))
    with pytest.raises(NotAFace):
        quotient_certificate(P, (1, 2, 4, 5, 6), (1,), x0=2)


# ---------------------------------------------------------------------------
# neighborly certificates


def test_neighborly_certificate_cyclic_64():
    P = instance("cyclic", n=6, d=4)
    cert = neighborly_certificate(P, (1, 3, 5), 2)
    assert cert.missing == (1, 3, 5)
    assert certificate_check(cert, P.complex, P.embedding)
    M = {1, 3, 5}
    for G in cert.stress.support():
        assert (-1) ** len(set(G) - M) * cert.stress.coeff(G) > 0


def test_neighborly_certificate_cyclic_86():
    P = instance("cyclic", n=8, d=6)
    targets = [M for M in missing_faces(P.complex, 4) if len(M) == 4]
    assert targets, "3-neighborly instance should have size-4 missing faces"
    M = targets[0]
    cert = neighborly_certificate(P, M, 3)
    assert cert.missing == M
    assert certificate_check(cert, P.complex, P.embedding)
    Mset = set(M)
    for G in cert.stress.support():
        assert (-1) ** len(set(G) - Mset) * cert.stress.coeff(G) > 0


def test_power_stress_matches_fraction_oracle_on_neighborly_certificates(full_corpus, monkeypatch):
    # every power that a neighborly certificate of the corpus raises, at
    # k = 2 and 3, equals the Fraction expansion's
    calls = []

    def spy(phi, k, K, p):
        calls.append((phi, k, K, p))
        return power_stress(phi, k, K, p)

    monkeypatch.setattr(detect, "power_stress", spy)
    certs = 0
    for P in full_corpus:
        for k in (2, 3):
            for M in missing_faces(P.complex, len(P.complex.vertices)):
                try:
                    neighborly_certificate(P, M, k)
                except PolystressError:
                    continue
                certs += 1
    assert certs == len(calls) >= 100
    for phi, k, K, p in calls:
        assert power_stress(phi, k, K, p) == fraction_power_stress(phi, k, K, p), (phi, k)


def test_neighborly_certificate_rejects(octahedron):
    with pytest.raises(NotNeighborlyEnough):
        neighborly_certificate(instance("cross", d=4), (0, 1), 2)
    P = instance("cyclic", n=6, d=4)
    with pytest.raises(NotMissing):
        neighborly_certificate(P, (1, 2, 3), 2)
    with pytest.raises(NotMissing):
        neighborly_certificate(P, (1, 3, 5, 6), 2)
    with pytest.raises(InvalidArgument):
        neighborly_certificate(P, (1, 3, 5), 1)


# ---------------------------------------------------------------------------
# degree-1 recovery


@pytest.mark.parametrize("n", [6, 7])
def test_recover_stress1_cyclic(n):
    P = instance("cyclic", n=n, d=4)
    rec = recover_stress1_from_stress2(P)
    direct = stress_basis(P.complex, P.embedding, 1)
    assert len(rec) == len(direct) == n - 5
    V = P.complex.vertices
    rows = lambda svs: [[sv.coeffs.get((v,), R0) for v in V] for sv in svs]
    assert rref(rows(rec)) == rref(rows(direct))


def test_recover_stress1_simplex():
    P = instance("simplex", d=4)
    assert recover_stress1_from_stress2(P) == []


def test_recover_stress1_needs_neighborly(octahedron):
    with pytest.raises(NotNeighborlyEnough):
        recover_stress1_from_stress2(octahedron)


def test_recover_stress1_matches_expansion_oracle_on_corpus(full_corpus):
    raised = 0
    for P in full_corpus:
        got = outcome(recover_stress1_from_stress2, P)
        assert got == outcome(expand_recover_stress1, P), P.meta
        raised += isinstance(got, tuple)
    assert 0 < raised < len(full_corpus)


# ---------------------------------------------------------------------------
# probing for missing-face stresses


def test_probe_octahedron(octahedron):
    res = probe_missing_faces(octahedron, 2)
    assert [(r["G"], r["F"]) for r in res] == [
        ((0, 1), (0,)),
        ((0, 1), (1,)),
        ((2, 3), (2,)),
        ((2, 3), (3,)),
        ((4, 5), (4,)),
        ((4, 5), (5,)),
    ]
    for r in res:
        assert r["found"] and r["verified"]
        assert certificate_check(r["certificate"], octahedron.complex, octahedron.embedding)


def test_probe_free_sum_25():
    P = instance("free_sum", i=2, d=5)
    res = probe_missing_faces(P, 3)
    assert [(r["G"], r["F"]) for r in res] == [
        ((1, 2, 3), (1, 2)),
        ((1, 2, 3), (1, 3)),
        ((1, 2, 3), (2, 3)),
    ]
    assert all(r["found"] and r["verified"] for r in res)
    assert res == probe_missing_faces(P, 3)  # deterministic end to end


def test_probe_vacuous_and_rejects():
    P = instance("cyclic", n=9, d=6)
    assert probe_missing_faces(P, 3) == []
    with pytest.raises(InvalidArgument):
        probe_missing_faces(P, 1)
