import json
import time
from itertools import combinations

import pytest

from conftest import instance
from oracles import gale_even
from polystress import corpus
from polystress.errors import InvalidArgument, ParseError
from polystress.simplicial import missing_faces


def test_simplex():
    P = instance("simplex", d=4)
    assert P.validated
    assert len(P.complex.facets) == 5
    assert missing_faces(P.complex, 5) == [(0, 1, 2, 3, 4)]


def test_cross():
    P = instance("cross", d=4)
    assert P.validated
    assert len(P.complex.facets) == 16
    # the only missing faces are the d antipodal diagonals
    assert missing_faces(P.complex, 8) == [(0, 1), (2, 3), (4, 5), (6, 7)]


@pytest.mark.parametrize("n,d", [(6, 4), (7, 4), (8, 5), (9, 6)])
def test_cyclic_matches_gale_evenness(n, d):
    P = instance("cyclic", n=n, d=d)
    assert P.validated
    expected = {
        frozenset(S) for S in combinations(range(1, n + 1), d) if gale_even(S, n)
    }
    assert P.complex.facets == expected


def test_gale_facets_match_the_evenness_oracle():
    # the facets, in lexicographic order, for every 2 <= d < n <= 16
    for n in range(3, 17):
        for d in range(2, n):
            expected = [S for S in combinations(range(1, n + 1), d) if gale_even(S, n)]
            assert list(corpus._gale_facets(n, d)) == expected, (n, d)


def test_cyclic_neighborliness():
    # floor(d/2)-neighborly: every such subset is a face
    P = instance("cyclic", n=9, d=6)
    assert len(P.complex.faces_of_size(3)) == len(list(combinations(range(9), 3)))


def test_stacked():
    P = instance("stacked", d=4, steps=3, seed=3)
    assert P.validated
    f = P.complex.f_counts()
    assert f[1] == 5 + 3  # one new vertex per step
    assert len(P.complex.facets) == 5 + 3 * 3  # each step nets d - 1 facets


def test_stacked_deterministic_per_seed():
    A = corpus.generate("stacked", d=3, steps=3, seed=1)
    B = corpus.generate("stacked", d=3, steps=3, seed=1)
    assert A == B


def test_free_sum():
    P = instance("free_sum", i=2, d=5)
    assert P.validated
    # missing faces are exactly the two summand vertex sets
    assert missing_faces(P.complex, 7) == [(1, 2, 3), (4, 5, 6, 7)]


def test_octahedron_helper():
    assert corpus.octahedron() == instance("cross", d=3)


@pytest.mark.parametrize(
    "family,params",
    [
        ("simplex", dict(d=1)),
        ("cross", dict(d=0)),
        ("cyclic", dict(n=4, d=4)),
        ("cyclic", dict(n=3, d=1)),
        ("stacked", dict(d=3, steps=-1, seed=0)),
        ("free_sum", dict(i=0, d=4)),
        ("free_sum", dict(i=4, d=4)),
        ("nosuch", dict()),
        ("cyclic", dict(n=6)),
        ("simplex", dict(d=3, extra=1)),
    ],
)
def test_generate_rejects(family, params):
    with pytest.raises(InvalidArgument):
        corpus.generate(family, **params)


def test_default_corpus(full_corpus):
    assert len(full_corpus) == 33
    assert all(P.validated for P in full_corpus)
    families = {P.meta["family"] for P in full_corpus}
    assert families == {"simplex", "cross", "cyclic", "stacked", "free_sum"}


def test_encode_decode_round_trip(full_corpus):
    for P in full_corpus[:8]:
        text = corpus.encode(P)
        Q = corpus.decode(text)
        assert Q == P
        assert not Q.validated  # decode never asserts geometry
        assert corpus.encode(Q) == text


def test_encode_deterministic():
    P = instance("cyclic", n=7, d=4)
    assert corpus.encode(P) == corpus.encode(instance("cyclic", n=7, d=4))


def good_doc():
    return corpus.encode(instance("simplex", d=3))


LONG_INT = "9" * 5000  # past int()'s digit limit, where json.loads raises a ValueError that is no JSONDecodeError
LONG_KEY = "7" * 5000
TET_COORDS = {"0": ["0", "0", "0"], "1": ["1", "0", "0"], "2": ["0", "1", "0"], "3": ["0", "0", "1"]}


def _set(text, **fields):
    doc = json.loads(text)
    doc.update(fields)
    return json.dumps(doc)


def _plus_facets(text, *extra):
    doc = json.loads(text)
    doc["facets"] += extra
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda t: t[:-3], "line"),
        # the tetrahedron's facets are [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]
        (lambda t: _plus_facets(t, [3, 1, 0], [0]), "facets[4]: repeats facets[1]"),
        (lambda t: _plus_facets(t, [0], [3, 1, 0]), "facets[4]: lies inside facets[0]"),
        (lambda t: t.replace('"dimension"', '"dim"'), "missing fields"),
        (lambda t: t.replace('"1"', '"9"', 1), "label not among vertices"),
        (lambda t: t.replace('"0"', '"x"', 1), "not an integer"),
        (lambda t: t.replace('"0",', '"1/0",', 1), "zero denominator"),
        (lambda t: t.replace('"0",', '"0.5",', 1), "malformed rational"),
        (lambda t: t.replace("[\n   1,\n   2,\n   3\n  ]", "[\n   1,\n   2,\n   9\n  ]"), "outside the vertex list"),
        # coordinate keys are the plain decimal text of a label, nothing int() also reads
        *[(lambda t, k=k: t.replace('"3": [', f'"{k}": [', 1), f"coordinates[{k!r}]") for k in ("1_0", " 3", "\u0663", "03", "+3")],
        (lambda t: _set(t, extra=1), "top level: unknown fields ['extra']"),
        (lambda t: _set(t, vertices=[0, 1, 2, 2]), "vertices: duplicate labels"),
        (lambda t: _set(t, coordinates=[]), "coordinates: expected an object"),
        (lambda t: _set(t, coordinates={**TET_COORDS, "3": ["0", "0"]}), "coordinates['3']: expected 3 entries"),
        (lambda t: _set(t, coordinates={**TET_COORDS, "3": "0"}), "coordinates['3']: expected 3 entries"),
        (
            lambda t: _set(t, coordinates={v: TET_COORDS[v] for v in "012"}),
            "coordinates: labels do not cover the vertex list",
        ),
        (lambda t: _set(t, facets=[]), "facets: expected a nonempty list"),
        (lambda t: _set(t, facets={"0": [0, 1, 2]}), "facets: expected a nonempty list"),
        (lambda t: _set(t, facets=[[0, 1, 1], [0, 2, 3]]), "facets[0]: repeated vertex"),
        (lambda t: _set(t, meta=[]), "meta: expected an object"),
        (
            lambda t: _set(t, vertices=[0, 1, 2, 3, 4], coordinates={**TET_COORDS, "4": ["1", "1", "1"]}),
            "facets: some vertex appears in no facet",
        ),
        (lambda t: t.replace('"dimension": 3', '"dimension": ' + LONG_INT), "top level: an integer has"),
        (lambda t: t.replace('"vertices": [\n  0', '"vertices": [\n  ' + LONG_INT), "top level: an integer has"),
        # well-formed numbers too long for int(): named as such, with the digits elided
        (lambda t: t.replace('"3": [', f'"{LONG_KEY}": [', 1), "coordinates['77777777...77777777' (5000 characters)]: label has too many digits"),
        (lambda t: t.replace('"0",', f'"{LONG_KEY}",', 1), "too many digits in rational '77777777...77777777' (5000 characters)"),
        (lambda t: t.replace('"0",', f'"1/{LONG_KEY}",', 1), "too many digits in rational '1/777777...77777777' (5002 characters)"),
    ],
)
def test_decode_rejects(mangle, fragment):
    text = good_doc().replace('"0"', '"0"', 1)
    bad = mangle(text)
    with pytest.raises(ParseError) as err:
        corpus.decode(bad)
    assert fragment in str(err.value)
    assert len(str(err.value)) < 100, str(err.value)[:200]


def test_decode_rejects_a_small_facet_inside_a_large_one_fast():
    doc = {
        "dimension": 3,
        "vertices": list(range(30)),
        "coordinates": {str(v): ["0", "0", "0"] for v in range(30)},
        "facets": [list(range(30)), [0]],
        "meta": {},
    }
    t0 = time.monotonic()
    with pytest.raises(ParseError, match=r"^facets\[1\]: lies inside facets\[0\]$"):
        corpus.decode(json.dumps(doc))
    elapsed = time.monotonic() - t0
    assert elapsed < 1, f"took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "fields,where",
    [
        ({"dimension": True}, "dimension:"),
        ({"vertices": [False, True, 2, 3]}, "vertices:"),
        ({"facets": [[True, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]}, "facets[0]:"),
    ],
)
def test_decode_rejects_bools(fields, where):
    with pytest.raises(ParseError) as err:
        corpus.decode(_set(good_doc(), **fields))
    assert str(err.value).startswith(where)


def test_decode_rejects_deep_nesting():
    with pytest.raises(ParseError) as err:
        corpus.decode("[" * 100000)
    assert str(err.value).startswith("top level:")


def test_decode_rejects_non_object():
    with pytest.raises(ParseError):
        corpus.decode("[1, 2]")


def test_decoded_instance_revalidates():
    from polystress.geometry import validate

    P = corpus.decode(corpus.encode(instance("cross", d=4)))
    assert validate(P).ok
    assert P.validated
