"""The benchmark's traced names stay resolvable in the library.

`bench/run.py --trace 1` wraps every function named in
`bench/tracing.py`'s `TRACED` table and fails when one is missing, so a
deleted or renamed library function would otherwise show up only in a
traced benchmark run.  The table is read from the file; no wrapper is
installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
