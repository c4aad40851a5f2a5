"""Seeded inputs, op lists and output checks for the three workloads.

Set-up builds every instance from the seed, writes it as a document,
reads it back and validates it again; the ops only ever see those
finished instances.  Each op returns its output; `canonical` turns an
output into the text whose sha256 is compared against the committed
digests (default seed only) and across passes, and each op's `check`
asserts the invariants that must hold for every seed.  Neither runs
inside the timed interval.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb

from polystress import cli, corpus
from polystress.detect import (
    Certificate,
    certificate_check,
    missing_edge_stress,
    neighborly_certificate,
    probe_missing_faces,
)
from polystress.geometry import Embedding, PolytopeInstance, validate
from polystress.rat import R0, rat, rat_str
from polystress.reconstruct import run_pipeline
from polystress.simplicial import build_complex, cone, fg_vector, missing_faces, skeleton
from polystress.stress import is_infinitesimally_rigid, stress_basis

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# seeded instances


def _unimodular(rng: random.Random, d: int):
    """A signed permutation times a unit upper-triangular matrix.

    Entries stay in {-1, 0, 1} and the determinant is +-1, so the map
    is an integer change of coordinates with an integer inverse.
    """
    upper = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(d)] for i in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * x for x in upper[perm[i]]] for i in range(d)]


def seeded(P: PolytopeInstance, rng: random.Random) -> PolytopeInstance:
    """Relabel the vertices and apply x -> Ax + b with A unimodular.

    New labels are drawn at random but keep the old labels' order: a
    random order changes which candidates the certificate sweep tries
    first, and with it the sweep's cost by up to 1.8x between seeds,
    more than any bound on run-to-run spread could absorb.
    """
    old = P.complex.vertices
    new = sorted(rng.sample(range(4 * len(old)), len(old)))
    relabel = dict(zip(old, new))
    A = _unimodular(rng, P.d)
    shift = [rat(rng.randint(-2, 2)) for _ in range(P.d)]
    moved = P.embedding.transformed(A, shift)
    return PolytopeInstance(
        complex=build_complex([relabel[v] for v in F] for F in P.complex.facets),
        embedding=Embedding(dim=P.d, coords={relabel[v]: pt for v, pt in moved.coords.items()}),
        d=P.d,
        meta=P.meta,
    )


@dataclass
class Instances:
    """The finished instances of one workload, keyed by name."""

    seed: int
    workdir: str
    items: dict = field(default_factory=dict)

    def build(self, name: str, family: str, **params) -> PolytopeInstance:
        rng = random.Random(f"{self.seed}:{name}")
        if family == "stacked":
            params = dict(params, seed=rng.randrange(10**6))
        P = seeded(corpus.generate(family, **params), rng)
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corpus.encode(P))
        with open(path, "r", encoding="utf-8") as fh:
            Q = corpus.decode(fh.read())
        report = validate(Q)
        if not report.ok:
            bad = [n for n, ok, _ in report.checks if not ok]
            raise ValueError(f"seeded instance {name} fails validation: {bad}")
        self.items[name] = Q
        return Q


def cone_over(P: PolytopeInstance):
    """Criterion 8's cone: apex at the origin, vertex v lifted to height v+1."""
    apex = max(P.complex.vertices) + 1
    heights = {v: rat(v + 1) for v in P.complex.vertices}
    coords = {v: tuple(heights[v] * x for x in P.embedding.point(v)) + (heights[v],) for v in P.complex.vertices}
    coords[apex] = tuple(R0 for _ in range(P.d + 1))
    return cone(apex, P.complex), Embedding(dim=P.d + 1, coords=coords)


def g_number(P: PolytopeInstance, k: int) -> int:
    return fg_vector(P.complex, P.d).g_at(k)


# ---------------------------------------------------------------------------
# canonical text of op outputs


def _faces(faces) -> list:
    return [list(F) for F in faces]


def _stress(sv) -> dict:
    out = {"degree": sv.degree, "coeffs": {",".join(map(str, F)): rat_str(c) for F, c in sorted(sv.coeffs.items())}}
    if sv.full is not None:
        out["full"] = [[list(map(list, m)), rat_str(c)] for m, c in sorted(sv.full.items())]
    return out


def _certificate(cert: Certificate) -> dict:
    return {
        "missing": list(cert.missing),
        "base": list(cert.base),
        "stress": _stress(cert.stress),
        "pattern": [[list(F), s] for F, s in sorted(cert.pattern.items())],
    }


def _pipeline(rep) -> dict:
    return {
        "missing_by_dim": {str(k): _faces(v) for k, v in rep.missing_by_dim.items()},
        "skeleton": _faces(rep.skeleton.facet_keys),
        "status": rep.status,
        "completion": None if rep.completion is None else _faces(rep.completion.facet_keys),
        "undetermined": _faces(rep.undetermined),
        "diff_equal": rep.diff.equal,
    }


def _probe(entries) -> list:
    out = []
    for e in entries:
        row = {"G": list(e["G"]), "F": list(e["F"]), "found": e["found"], "verified": e["verified"]}
        if "certificate" in e:
            row["certificate"] = _certificate(e["certificate"])
        out.append(row)
    return out


def _rigidity(rep) -> dict:
    return {"rigid": rep.rigid, "rank": rep.rank, "expected_rank": rep.expected_rank, "stress_dim": rep.stress_dim}


def canonical(kind: str, out) -> str:
    """Deterministic text of an op's output: rat_str for every rational."""
    if kind == "cli":
        return out[1]
    doc = {
        "pipeline": _pipeline,
        "neighborly": _certificate,
        "edge": _stress,
        "probe": _probe,
        "basis": lambda b: [_stress(sv) for sv in b],
        "rigid": _rigidity,
    }[kind](out)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    """One timed call.  `check` raises AssertionError on a wrong output.

    `kind` selects the canonical serialization; `group` is the finer
    label the trace aggregates by (for example `neighborly:k3`).
    """

    id: str
    kind: str
    group: str
    call: object
    check: object


def _pipeline_op(name, P, prime_expected):
    graph = skeleton(P.complex, 1)
    basis = stress_basis(graph, P.embedding, 2)
    if len(basis) != g_number(P, 2):
        raise ValueError(f"{name}: dim Stress_2 = {len(basis)}, g_2 = {g_number(P, 2)}")

    def call():
        return run_pipeline(graph, basis, P.d, 2, truth=P.complex)

    def check(rep):
        assert rep.diff is not None and rep.diff.equal, f"{name}: reconstruction differs from truth"
        want = "full" if prime_expected else "skeleton-only"
        assert rep.status == want, f"{name}: status {rep.status}, expected {want}"

    return Op(f"pipeline:{name}", "pipeline", "pipeline", call, check)


def _neighborly_op(P, M, k):
    def check(cert):
        assert cert.missing == M, f"certificate for {cert.missing}, asked for {M}"
        assert certificate_check(cert, P.complex, P.embedding), f"neighborly certificate for {M} at k={k} fails"

    op_id = f"neighborly:k{k}:{'-'.join(map(str, M))}"
    return Op(op_id, "neighborly", f"neighborly:k{k}", lambda: neighborly_certificate(P, M, k), check)


def _edge_op(P, a, b):
    ab = tuple(sorted((a, b)))
    edges_at_a = [e for e in P.complex.faces_of_size(2) if a in e]

    def check(sv):
        assert sv.coeff(ab) == 1, f"edge stress {a},{b}: coefficient {sv.coeff(ab)} on ab"
        bad = [e for e in edges_at_a if sv.coeff(e) > 0]
        assert not bad, f"edge stress {a},{b}: positive on edges {bad} at {a}"

    return Op(f"edge:{a}-{b}", "edge", "edge", lambda: missing_edge_stress(P, a, b), check)


def _probe_op(name, P, k):
    def check(entries):
        assert entries, f"{name}: nothing probed"
        for e in entries:
            if e["found"]:
                assert e["verified"], f"{name}: probe certificate {e['G']} {e['F']} not verified"
                assert certificate_check(e["certificate"], P.complex, P.embedding), f"{name}: probe certificate fails"

    return Op(f"probe:{name}:k{k}", "probe", "probe", lambda: probe_missing_faces(P, k), check)


def _basis_op(name, K, p, k, want):
    def check(basis):
        assert len(basis) == want, f"{name}: dim Stress_{k} = {len(basis)}, g_{k} = {want}"

    return Op(f"basis:k{k}:{name}", "basis", f"basis:k{k}", lambda: stress_basis(K, p, k), check)


def _rigid_op(name, P):
    def check(rep):
        want = P.d * len(P.complex.vertices) - comb(P.d + 1, 2)
        assert rep.rigid and rep.rank == want, f"{name}: rank {rep.rank}, expected {want}"

    return Op(f"rigid:{name}", "rigid", "rigid", lambda: is_infinitesimally_rigid(P.complex, P.embedding), check)


def _cli_op(label, argv, want_exit, check_doc):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        assert code == want_exit, f"{label}: exit {code}, expected {want_exit}"
        check_doc(json.loads(text))

    return Op(f"cli:{label}", "cli", f"cli:{argv[0]}", call, check)


def _validate_ok(doc):
    assert doc["results"]["ok"], f"validate failed: {doc['results']['checks']}"


def _diff_is(equal):
    def check(doc):
        assert doc["results"]["diff"]["equal"] is equal, f"diff equal={doc['results']['diff']['equal']}"

    return check


def setup_certify(inst: Instances) -> list:
    ops = []
    for name, fam, params, prime in (
        ("cyclic-10-4", "cyclic", {"n": 10, "d": 4}, True),
        ("cyclic-9-5", "cyclic", {"n": 9, "d": 5}, True),
        ("cross-5", "cross", {"d": 5}, True),
        ("free_sum-2-6", "free_sum", {"i": 2, "d": 6}, True),
        ("stacked-4-6", "stacked", {"d": 4, "steps": 6}, False),
    ):
        ops.append(_pipeline_op(name, inst.build(name, fam, **params), prime))
    P = inst.build("cyclic-10-6", "cyclic", n=10, d=6)
    for k in (2, 3):
        for M in missing_faces(P.complex, len(P.complex.vertices)):
            ops.append(_neighborly_op(P, M, k))
    S = inst.items["stacked-4-6"]
    for a, b in missing_faces(S.complex, 2):
        ops.append(_edge_op(S, a, b))
        ops.append(_edge_op(S, b, a))
    ops.append(_probe_op("cyclic-8-5", inst.build("cyclic-8-5", "cyclic", n=8, d=5), 3))
    return ops


def setup_stress(inst: Instances) -> list:
    ops = []
    for name, fam, params in (
        ("cyclic-9-6", "cyclic", {"n": 9, "d": 6}),
        ("cyclic-10-6", "cyclic", {"n": 10, "d": 6}),
        ("cross-6", "cross", {"d": 6}),
        ("free_sum-3-7", "free_sum", {"i": 3, "d": 7}),
    ):
        P = inst.build(name, fam, **params)
        ops.append(_basis_op(name, P.complex, P.embedding, 3, g_number(P, 3)))
    base = inst.build("cyclic-8-6", "cyclic", n=8, d=6)
    K, p = cone_over(base)
    ops.append(_basis_op("cone-cyclic-8-6", K, p, 3, g_number(base, 3)))
    for name, params in (("cyclic-14-6", {"n": 14, "d": 6}), ("cyclic-16-4", {"n": 16, "d": 4})):
        P = inst.build(name, "cyclic", **params)
        ops.append(_basis_op(name, P.complex, P.embedding, 2, g_number(P, 2)))
    for name in ("cyclic-14-6", "cyclic-16-4", "cross-6"):
        ops.append(_rigid_op(name, inst.items[name]))
    return ops


def setup_load(inst: Instances) -> list:
    for name, fam, params in (
        ("cyclic-14-6", "cyclic", {"n": 14, "d": 6}),
        ("cyclic-16-4", "cyclic", {"n": 16, "d": 4}),
        ("cross-7", "cross", {"d": 7}),
        ("cyclic-13-5", "cyclic", {"n": 13, "d": 5}),
        ("stacked-5-7", "stacked", {"d": 5, "steps": 7}),
    ):
        inst.build(name, fam, **params)
    path = {name: f"{name}.json" for name in inst.items}
    ops = []
    for name in ("cyclic-14-6", "cyclic-16-4", "cross-7", "stacked-5-7"):
        ops.append(_cli_op(f"validate:{name}", ["validate", path[name], "--json"], 0, _validate_ok))
    for name in ("cyclic-14-6", "cyclic-16-4"):
        ops.append(_cli_op(f"diff:{name}:{name}", ["diff", path[name], path[name], "--json"], 0, _diff_is(True)))
    ops.append(
        _cli_op(
            "diff:cyclic-13-5:stacked-5-7",
            ["diff", path["cyclic-13-5"], path["stacked-5-7"], "--json"],
            1,
            _diff_is(False),
        )
    )
    return ops


SETUPS = {"certify": setup_certify, "stress": setup_stress, "load": setup_load}
