"""Generators for the standard test polytopes plus (de)serialization.

Families:
  simplex(d)          conv{0, e_1..e_d}, labels 0..d
  cross(d)            conv{+-e_i}, labels 2i <-> +e_{i+1}, 2i+1 <-> -e_{i+1}
  cyclic(n, d)        integer moment curve t -> (t, t^2, .., t^d), t = 1..n,
                      labels 1..n, facets by the Gale evenness condition
  stacked(d, steps, seed)  repeated stacking over a seeded facet choice
  free_sum(i, d)      two simplex boundaries joined, realized in
                      complementary coordinate subspaces with barycenters
                      at the origin, labels 1..d+2

Every generator returns a validated PolytopeInstance.  The document
format is JSON with a fixed field order {dimension, vertices,
coordinates, facets, meta}; coordinates are "p/q" strings, never
floats.
"""

from __future__ import annotations

import json
import random

from . import exactla
from .errors import InvalidArgument, ParseError
from .geometry import Embedding, PolytopeInstance, facet_normal, validate
from .rat import R0, R1, elided, parse_rat, rat, rat_str
from .simplicial import build_complex, face_key

__all__ = [
    "generate",
    "validate",
    "encode",
    "decode",
    "default_corpus",
    "octahedron",
]


def _instance(facets, dim, coords, family, params) -> PolytopeInstance:
    inst = PolytopeInstance(
        complex=build_complex(facets),
        embedding=Embedding.build(dim, coords),
        d=dim,
        meta={"family": family, "params": dict(params)},
    )
    report = validate(inst)
    if not report.ok:
        bad = [name for name, ok, _ in report.checks if not ok]
        raise InvalidArgument(f"{family}{params} failed validation: {bad}")
    return inst


def _simplex(d: int) -> PolytopeInstance:
    if d < 2:
        raise InvalidArgument("simplex needs d >= 2")
    labels = list(range(d + 1))
    coords = {0: tuple([R0] * d)}
    for i in range(1, d + 1):
        coords[i] = tuple(R1 if j == i - 1 else R0 for j in range(d))
    facets = [set(labels) - {v} for v in labels]
    return _instance(facets, d, coords, "simplex", {"d": d})


def _cross(d: int) -> PolytopeInstance:
    if d < 2:
        raise InvalidArgument("cross needs d >= 2")
    coords = {}
    for i in range(d):
        plus = tuple(R1 if j == i else R0 for j in range(d))
        minus = tuple(-R1 if j == i else R0 for j in range(d))
        coords[2 * i] = plus
        coords[2 * i + 1] = minus
    facets = []
    for signs in range(2**d):
        facets.append({2 * i + ((signs >> i) & 1) for i in range(d)})
    return _instance(facets, d, coords, "cross", {"d": d})


def _gale_facets(n: int, d: int, S=(), closable=True):
    """Gale-even d-subsets of 1..n (Gale 1963) in lexicographic order,
    grown left to right from S: a non-member may follow the run of members
    ending at S[-1] only if `closable` (even, or starting at 1)."""
    if len(S) == d:
        if closable or S[-1] == n:  # a run ending at n is never closed
            yield S
        return
    last = S[-1] if S else 0
    for t in range(last + 1, n - d + len(S) + 2):
        if t == last + 1:
            yield from _gale_facets(n, d, S + (t,), not closable or t == len(S) + 1)
        elif closable:
            yield from _gale_facets(n, d, S + (t,), False)


def _cyclic(n: int, d: int) -> PolytopeInstance:
    if d < 2:
        raise InvalidArgument("cyclic needs d >= 2")
    if n <= d:
        raise InvalidArgument("cyclic needs n >= d + 1")
    coords = {t: tuple(rat(t**e) for e in range(1, d + 1)) for t in range(1, n + 1)}
    facets = [set(S) for S in _gale_facets(n, d)]
    return _instance(facets, d, coords, "cyclic", {"n": n, "d": d})


def _stacked(d: int, steps: int, seed: int) -> PolytopeInstance:
    if d < 2:
        raise InvalidArgument("stacked needs d >= 2")
    if steps < 0:
        raise InvalidArgument("steps must be nonnegative")
    base = _simplex(d)
    coords = dict(base.embedding.coords)
    facets = {frozenset(F) for F in base.complex.facets}
    rng = random.Random(seed)
    next_label = d + 1
    for _ in range(steps):
        S = face_key(rng.choice(sorted(facets, key=face_key)))
        centroid = [R0] * d
        for s in S:
            centroid = exactla.vec_add(centroid, coords[s])
        centroid = [x / rat(d) for x in centroid]
        inside = next(v for v in sorted(coords) if v not in S)
        n_out = [-x for x in facet_normal(S, Embedding(d, coords), coords[inside])]
        # largest step outward that stays beneath every other facet, halved
        h_best = None
        for T in facets:
            if T == frozenset(S):
                continue
            Tk = face_key(T)
            w = next(v for v in sorted(coords) if v not in T)
            n_in = facet_normal(Tk, Embedding(d, coords), coords[w])
            denom = exactla.dot(n_in, n_out)
            if denom < 0:
                gap = exactla.dot(n_in, exactla.vec_sub(centroid, coords[Tk[0]]))
                cand = -gap / denom
                if h_best is None or cand < h_best:
                    h_best = cand
        # no other hyperplane limits the ray: any positive step works
        h = R1 if h_best is None else h_best / rat(2)
        apex = tuple(exactla.vec_add(centroid, exactla.vec_scale(h, n_out)))
        coords[next_label] = apex
        facets.remove(frozenset(S))
        for s in S:
            facets.add(frozenset(set(S) - {s}) | {next_label})
        next_label += 1
    return _instance(facets, d, coords, "stacked", {"d": d, "steps": steps, "seed": seed})


def _free_sum(i: int, d: int) -> PolytopeInstance:
    if not 1 <= i <= d - 1:
        raise InvalidArgument("free_sum needs 1 <= i <= d - 1")
    sigma = list(range(1, i + 2))
    tau = list(range(i + 2, d + 3))
    coords = {}
    for j, v in enumerate(sigma):
        if j < i:
            coords[v] = tuple(R1 if c == j else R0 for c in range(d))
        else:
            coords[v] = tuple(-R1 if c < i else R0 for c in range(d))
    for j, v in enumerate(tau):
        if j < d - i:
            coords[v] = tuple(R1 if c == i + j else R0 for c in range(d))
        else:
            coords[v] = tuple(-R1 if c >= i else R0 for c in range(d))
    facets = [set(sigma) - {s} | (set(tau) - {t}) for s in sigma for t in tau]
    return _instance(facets, d, coords, "free_sum", {"i": i, "d": d})


_FAMILIES = {
    "simplex": _simplex,
    "cross": _cross,
    "cyclic": _cyclic,
    "stacked": _stacked,
    "free_sum": _free_sum,
}


def generate(family: str, **params) -> PolytopeInstance:
    """Build and validate one instance of a named family."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise InvalidArgument(f"unknown family {family!r}, have {sorted(_FAMILIES)}") from None
    try:
        return builder(**params)
    except TypeError as e:
        raise InvalidArgument(f"bad parameters for {family}: {e}") from None


def octahedron() -> PolytopeInstance:
    return _cross(3)


def default_corpus() -> list[PolytopeInstance]:
    """The standard sweep used by the broad acceptance checks."""
    out = []
    for d in range(3, 7):
        out.append(_simplex(d))
    for d in range(3, 6):
        out.append(_cross(d))
    for d in range(3, 7):
        for n in range(d + 2, 11):
            out.append(_cyclic(n, d))
    for d, steps, seed in ((3, 3, 1), (4, 2, 2), (4, 3, 3), (5, 3, 5)):
        out.append(_stacked(d, steps, seed))
    for i, d in ((2, 4), (2, 5), (2, 6), (3, 6)):
        out.append(_free_sum(i, d))
    return out


# ---------------------------------------------------------------------------
# document format


def encode(P: PolytopeInstance) -> str:
    """Serialize an instance; deterministic, exact, round-trips."""
    doc = {
        "dimension": P.d,
        "vertices": list(P.complex.vertices),
        "coordinates": {str(v): [rat_str(x) for x in P.embedding.point(v)] for v in P.complex.vertices},
        "facets": [list(F) for F in P.complex.facet_keys],
        "meta": P.meta,
    }
    return json.dumps(doc, indent=1) + "\n"


def decode(text: str) -> PolytopeInstance:
    """Parse a document produced by `encode`; errors carry locations.

    The result is unvalidated; call `validate` to replay the
    geometric checks.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal longer than int() converts
        raise ParseError("top level: an integer has more digits than Python converts") from None
    except RecursionError:
        raise ParseError("top level: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    expected = ["dimension", "vertices", "coordinates", "facets", "meta"]
    extra = sorted(set(doc) - set(expected))
    missing = [k for k in expected if k not in doc]
    if missing:
        raise ParseError(f"top level: missing fields {missing}")
    if extra:
        raise ParseError(f"top level: unknown fields {extra}")
    d = doc["dimension"]
    if type(d) is not int or d < 1:
        raise ParseError("dimension: expected a positive integer")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not all(type(v) is int and v >= 0 for v in verts):
        raise ParseError("vertices: expected a list of nonnegative integers")
    if len(set(verts)) != len(verts):
        raise ParseError("vertices: duplicate labels")
    vert_set = set(verts)
    coords_doc = doc["coordinates"]
    if not isinstance(coords_doc, dict):
        raise ParseError("coordinates: expected an object")
    coords = {}
    for key, pt in coords_doc.items():
        try:
            v = int(key)
        except ValueError:
            what = "has too many digits" if key.isascii() and key.isdigit() else "is not an integer"
            raise ParseError(f"coordinates[{elided(key)}]: label {what}") from None
        if key != str(v):
            raise ParseError(f"coordinates[{key!r}]: label is not plain decimal text")
        if v not in vert_set:
            raise ParseError(f"coordinates[{key!r}]: label not among vertices")
        if not isinstance(pt, list) or len(pt) != d:
            raise ParseError(f"coordinates[{key!r}]: expected {d} entries")
        coords[v] = tuple(parse_rat(x, where=f"coordinates[{key!r}][{i}]") for i, x in enumerate(pt))
    if set(coords) != vert_set:
        raise ParseError("coordinates: labels do not cover the vertex list")
    facets_doc = doc["facets"]
    if not isinstance(facets_doc, list) or not facets_doc:
        raise ParseError("facets: expected a nonempty list")
    facets = []
    for idx, F in enumerate(facets_doc):
        if not isinstance(F, list) or not all(type(v) is int for v in F):
            raise ParseError(f"facets[{idx}]: expected a list of integers")
        if not set(F) <= vert_set:
            raise ParseError(f"facets[{idx}]: label outside the vertex list")
        if len(set(F)) != len(F):
            raise ParseError(f"facets[{idx}]: repeated vertex")
        facets.append(frozenset(F))
    meta = doc["meta"]
    if not isinstance(meta, dict):
        raise ParseError("meta: expected an object")
    K = build_complex(facets)
    if len(K.facets) < len(facets):  # some entry repeats or lies inside another
        first = {}
        for idx, F in enumerate(facets):
            if F in first:
                raise ParseError(f"facets[{idx}]: repeats facets[{first[F]}]")
            if F not in K.facets:
                host = next(j for j, G in enumerate(facets) if F < G)
                raise ParseError(f"facets[{idx}]: lies inside facets[{host}]")
            first[F] = idx
    if set(K.vertices) != vert_set:
        raise ParseError("facets: some vertex appears in no facet")
    return PolytopeInstance(
        complex=K,
        embedding=Embedding(dim=d, coords=coords),
        d=d,
        meta=meta,
    )
