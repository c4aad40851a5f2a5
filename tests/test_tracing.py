"""The benchmark's traced names stay resolvable in the library.

`bench/run.py --trace 1` wraps every function named in
`bench/tracing.py`'s `TRACED` table and fails when one is missing, so a
deleted or renamed library function would otherwise show up only in a
traced benchmark run.  Likewise each `EXTRAS` hook reads its function's
arguments and output, so it is run here on one small real call: a
changed argument order or return shape fails here too.  Last, the
reach gates are replayed: with `tracing.Tracer` installed, small copies
of each workload's op kinds must reach every function that workload's
`MUST_HIT` entry names and, on the LP-free workloads, no LP, as a
traced benchmark run requires.  Those ops call through module
attributes, which the tracer wraps, not through names imported here.
"""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import instance
from polystress import cli, corpus, detect, reconstruct, stress
from polystress.simplicial import missing_faces, skeleton
from polystress.stress import stress_basis

_spec = importlib.util.spec_from_file_location("bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("mod_name, fn_name", [(m, f) for m, fns in tracing.TRACED.items() for f in fns], ids=lambda x: x)
def test_traced_name_resolves(mod_name, fn_name):
    mod = importlib.import_module(f"polystress.{mod_name}")
    if "." in fn_name:
        cls_name, meth = fn_name.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, fn_name, None))


def test_reach_gates_name_traced_functions():
    traced = set(tracing.traced_names())
    gated = {name for names in tracing.MUST_HIT.values() for name in names} | set(tracing.LP) | set(tracing.EXTRAS)
    assert sorted(gated - traced) == []


def _octahedron():
    P = instance("cross", d=3)
    return P.complex, P.embedding


def _sweep_args():
    P = instance("cyclic", n=6, d=4)
    skel = skeleton(P.complex, 1)
    return (skel, stress_basis(skel, P.embedding, 2), 4, 2), {}


# traced name -> the (args, kwargs) of one small call of it
SAMPLE_CALLS = {
    "exactla.kernel_basis": lambda: (([[1, 2, 3], [2, 4, 7]],), {}),
    "exactla.rank": lambda: (([[1, 2], [2, 4], [0, 1]],), {}),
    "exactla.simplex": lambda: (([1, 1], [[1, 0], [0, 1]], [1, 1]), {"A_eq": [[1, -1]], "b_eq": [0]}),
    "exactla.strict_feasible": lambda: (([[1, -1, 0], [0, 1, 1]], [0, 2], [1]), {}),
    "stress.rigidity_matrix": lambda: ((*_octahedron(), 2), {}),
    "stress.stress_basis": lambda: ((*_octahedron(), 1), {}),
    "geometry.brute_force_facets": lambda: ((dict(instance("cross", d=3).embedding.coords),), {}),
    "detect.certificate_sweep": _sweep_args,
}


def test_every_extras_hook_has_a_sample_call():
    assert sorted(SAMPLE_CALLS) == sorted(tracing.EXTRAS)


@pytest.mark.parametrize("name", sorted(tracing.EXTRAS))
def test_extras_hook_reads_a_real_call(name):
    hook, keys = tracing.EXTRAS[name]
    mod_name, fn_name = name.split(".")
    fn = getattr(importlib.import_module(f"polystress.{mod_name}"), fn_name)
    args, kwargs = SAMPLE_CALLS[name]()
    st = tracing.Stat()
    hook(st, args, kwargs, fn(*args, **kwargs))
    assert sorted(st.extra) == sorted(keys)
    assert all(type(x) in (int, float) and x >= 0 for x in st.extra.values())


def _load_ops(tmp_path):
    paths = {}
    for name, P in (("cyclic-8-4", instance("cyclic", n=8, d=4)), ("cross-4", instance("cross", d=4))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(corpus.encode(P))
    for argv, code in (
        (["validate", str(paths["cyclic-8-4"]), "--json"], 0),
        (["diff", str(paths["cyclic-8-4"]), str(paths["cyclic-8-4"]), "--json"], 0),
        (["diff", str(paths["cyclic-8-4"]), str(paths["cross-4"]), "--json"], 1),
    ):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == code


def _stress_ops(tmp_path):
    P = instance("cyclic", n=7, d=4)
    assert stress.stress_basis(skeleton(P.complex, 1), P.embedding, 2)
    assert stress.is_infinitesimally_rigid(P.complex, P.embedding).rigid


def _certify_ops(tmp_path):
    P = instance("cyclic", n=7, d=4)
    graph = skeleton(P.complex, 1)
    rep = reconstruct.run_pipeline(graph, stress.stress_basis(graph, P.embedding, 2), 4, 2, truth=P.complex)
    assert rep.status == "full" and rep.diff.equal
    detect.neighborly_certificate(P, missing_faces(P.complex, 7)[0], 2)
    S = instance("stacked", d=4, steps=2, seed=0)
    a, b = missing_faces(S.complex, 2)[0]
    detect.missing_edge_stress(S, a, b)
    assert detect.probe_missing_faces(instance("cyclic", n=7, d=5), 3)


@pytest.mark.parametrize("workload, ops", [("load", _load_ops), ("stress", _stress_ops), ("certify", _certify_ops)])
def test_workload_ops_pass_the_reach_gates(workload, ops, tmp_path):
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        ops(tmp_path)
    finally:
        tracer.uninstall()
    assert tracing.reach_errors(workload, tracing.totals(tracer.tables)) == []
