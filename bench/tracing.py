"""Per-layer tracing by wrapping the library's public functions from outside.

Wrappers go on every name that binds a traced function (modules use
`from ... import`, so one function has several bindings), and only in
the traced run.  Each call is aggregated as it happens: a stack of
child-time accumulators gives exact self time (duration minus the time
covered by wrapped callees) with memory that stays flat however many
calls a pass makes.  Stats are kept per op group so that, for example,
simplex time under `neighborly` ops is separable from simplex time
under `edge` ops; each timed op also leaves one top-level span with
its id.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

# module -> public functions wrapped in that module; "Class.method" for methods
TRACED = {
    "exactla": ["kernel_basis", "rank", "solve_linear", "rref", "simplex", "strict_feasible"],
    "stress": ["rigidity_matrix", "stress_basis", "is_infinitesimally_rigid", "balancing_residual", "power_stress"],
    "geometry": ["validate", "brute_force_facets", "affine_rank", "altitude_vector", "segment_hull_meet"],
    "simplicial": ["SimplicialComplex.has_face", "SimplicialComplex.faces_of_size", "missing_faces", "build_complex", "skeleton"],
    "detect": [
        "certificate_sweep",
        "neighborly_certificate",
        "missing_edge_stress",
        "probe_missing_faces",
        "certificate_check",
    ],
    "reconstruct": ["run_pipeline", "complete_prime", "compare"],
    "corpus": ["generate", "encode", "decode"],
    "cli": ["main"],
}

# Boundaries each workload must reach (the layers it is meant to load), and
# the LP entry points that the LP-free workloads must never reach.
MUST_HIT = {
    "certify": [
        "exactla.simplex",
        "exactla.strict_feasible",
        "exactla.kernel_basis",
        "geometry.segment_hull_meet",
        "simplicial.has_face",
        "reconstruct.run_pipeline",
        "reconstruct.complete_prime",
        "detect.certificate_sweep",
        "detect.neighborly_certificate",
        "detect.missing_edge_stress",
        "detect.probe_missing_faces",
    ],
    "stress": [
        "exactla.kernel_basis",
        "exactla.rank",
        "stress.rigidity_matrix",
        "stress.stress_basis",
        "stress.is_infinitesimally_rigid",
        "geometry.affine_rank",
    ],
    "load": [
        "exactla.kernel_basis",
        "geometry.affine_rank",
        "geometry.validate",
        "geometry.brute_force_facets",
        "simplicial.has_face",
        "simplicial.missing_faces",
        "reconstruct.compare",
        "corpus.decode",
        "cli.main",
    ],
}
LP = ["exactla.simplex", "exactla.strict_feasible"]
LP_FREE = {"stress", "load"}


def _shape(A):
    rows = A.entries if hasattr(A, "entries") else A
    return len(rows), (len(rows[0]) if rows else 0)


def _cells(st, args, kwargs, out):
    r, c = _shape(args[0])
    st.add("cells", r * c)


def _kernel_extra(st, args, kwargs, out):
    _cells(st, args, kwargs, out)
    bits = 0
    for vec in out[1]:
        for x in vec:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    st.peak("max_bits", bits)


def _simplex_extra(st, args, kwargs, out):
    rows = 0
    for pos, key in ((1, "A_ub"), (3, "A_eq")):
        A = args[pos] if len(args) > pos else kwargs.get(key)
        rows += len(A) if A else 0
    st.add("rows", rows)


def _feasible_extra(st, args, kwargs, out):
    st.add("feasible", out is not None)


def _rigidity_extra(st, args, kwargs, out):
    st.add("cells", out.nrows * out.ncols)
    st.add("nonzero", sum(1 for row in out.entries for x in row if x))


def _subsets_extra(st, args, kwargs, out):
    points = args[0]
    n = len(points)
    d = len(next(iter(points.values())))
    st.add("subsets", comb(n, d))


def _sweep_extra(st, args, kwargs, out):
    st.add("certified", len(out[0]))
    st.add("open", len(out[1]))


# name -> (function adding the extra stats of one call, the stats it adds)
EXTRAS = {
    "exactla.kernel_basis": (_kernel_extra, ["cells", "max_bits"]),
    "exactla.rank": (_cells, ["cells"]),
    "exactla.simplex": (_simplex_extra, ["rows"]),
    "exactla.strict_feasible": (_feasible_extra, ["feasible"]),
    "stress.rigidity_matrix": (_rigidity_extra, ["cells", "nonzero"]),
    "stress.stress_basis": (lambda st, args, kwargs, out: st.add("dim", len(out)), ["dim"]),
    "geometry.brute_force_facets": (_subsets_extra, ["subsets"]),
    "detect.certificate_sweep": (_sweep_extra, ["certified", "open"]),
}

# extra stats reported as a share of calls rather than a total
SHARES = {"exactla.strict_feasible.feasible"}
UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits", "feasible": "ratio"}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # inclusive of wrapped callees; in the trace file only
        self.extra = {}

    def add(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def peak(self, key, n):
        self.extra[key] = max(self.extra.get(key, 0), n)


def traced_names() -> list:
    return [f"{mod}.{fn.split('.')[-1]}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Installs the wrappers and aggregates calls per (op group, function)."""

    def __init__(self):
        self.stack = []  # time covered by wrapped children, one slot per open call
        self.group = None
        self.tables = {}  # op group -> name -> Stat, for the current pass
        self.spans = []  # (op id, start, end) for the current pass
        self.passes = []  # (tables, spans) of every finished pass
        self.installed = []  # (owner, attribute, original)

    def _stat(self, name):
        table = self.tables.setdefault(self.group, {})
        st = table.get(name)
        if st is None:
            st = table[name] = Stat()
        return st

    def _wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter
        extra = EXTRAS.get(name, (None,))[0]
        stat = self._stat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                child = stack.pop()
                st = stat(name)
                st.calls += 1
                st.self_s += t1 - t0 - child
                st.total_s += t1 - t0
                if done and extra is not None:
                    extra(st, args, kwargs, out)
                if stack:
                    # the parent's self time excludes this call and its bookkeeping
                    stack[-1] += clock() - t0

        return wrapper

    def install(self, extra_modules=()) -> list:
        """Wrap every binding of every traced function.

        Returns the traced names that no longer exist in the library, so
        the caller can report them instead of crashing.
        """
        import polystress

        mods = [m for n, m in sorted(sys.modules.items()) if n == "polystress" or n.startswith("polystress.")]
        mods += list(extra_modules)
        absent = []
        for mod_name, fns in TRACED.items():
            mod = getattr(polystress, mod_name)
            for fn_name in fns:
                name = f"{mod_name}.{fn_name.split('.')[-1]}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__.get(meth)
                    owners = [cls]
                else:
                    orig = getattr(mod, fn_name, None)
                    owners = mods
                if orig is None:
                    absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for owner in owners:
                    for attr, val in list(vars(owner).items()):
                        if val is orig:
                            setattr(owner, attr, wrapper)
                            self.installed.append((owner, attr, orig))
        return absent

    def uninstall(self):
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed.clear()

    def begin_op(self, op):
        self.group = op.group

    def end_op(self, op, t0, t1):
        self.spans.append((op.id, t0, t1))

    def end_pass(self):
        self.passes.append((self.tables, self.spans))
        self.tables, self.spans = {}, []


def totals(tables) -> dict:
    """Sum per-group tables into name -> {stat: value}, shares resolved."""
    out = {name: {"calls": 0, "self_s": 0.0} for name in traced_names()}
    for table in tables.values():
        for name, st in table.items():
            row = out[name]
            row["calls"] += st.calls
            row["self_s"] += st.self_s
            for key, val in st.extra.items():
                if key == "max_bits":
                    row[key] = max(row.get(key, 0), val)
                else:
                    row[key] = row.get(key, 0) + val
    for name, row in out.items():
        for key in list(row):
            if f"{name}.{key}" in SHARES:
                row[key] = row[key] / row["calls"] if row["calls"] else 0.0
    return out


def metric_names() -> list:
    """Every per-layer metric name, in report order, with its unit."""
    out = []
    for name in traced_names():
        for key in ["calls", "self_s"] + EXTRAS.get(name, (None, []))[1]:
            out.append((f"{name}.{key}", UNITS.get(key, "count")))
    return out


def reach_errors(workload: str, first: dict) -> list:
    """Violations of the reach table for one pass's totals."""
    errors = []
    for name in MUST_HIT.get(workload, []):
        if first[name]["calls"] == 0:
            errors.append(f"{name} recorded no calls on {workload}")
    for name in LP if workload in LP_FREE else []:
        if first[name]["calls"] != 0:
            errors.append(f"{name} recorded {first[name]['calls']} calls on {workload}, expected none")
    return errors


def write(passes, out_dir, workload, seed):
    """Write every pass's per-group stats and op spans as one JSON file."""
    doc = {"workload": workload, "seed": seed, "passes": []}
    for tables, spans in passes:
        by_group = {
            group: {name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s, **st.extra} for name, st in sorted(table.items())}
            for group, table in sorted(tables.items())
        }
        doc["passes"].append({"spans": [{"op": op, "start": t0, "end": t1} for op, t0, t1 in spans], "by_group": by_group})
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    return path
