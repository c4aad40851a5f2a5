"""Command-line front end.

Subcommands: gen, validate, stress, rigidity, missing, reconstruct,
probe, diff.  Exit codes: 0 success, 1 property violated or
certificate missing, 2 invalid input.  Stdout is byte-deterministic
for fixed inputs; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import corpus
from .detect import enumerate_missing_faces, probe_missing_faces
from .errors import ParseError, PolystressError
from .geometry import PolytopeInstance, validate
from .rat import rat_str
from .reconstruct import DiffReport, compare, run_pipeline
from .simplicial import skeleton
from .stress import is_infinitesimally_rigid, stress_basis


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict
    exit_status: int
    lines: list


def _load(path: str) -> PolytopeInstance:
    P = _load_raw(path)
    report = validate(P)
    if not report.ok:
        failed = [name for name, ok, _ in report.checks if not ok]
        raise PolystressError(f"{path}: instance fails validation ({', '.join(failed)})")
    return P


def _load_raw(path: str) -> PolytopeInstance:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text at byte {e.start}") from None
    return corpus.decode(text.replace("\r\n", "\n").replace("\r", "\n"))  # as text mode reads it


def _face_str(F) -> str:
    return "{" + ",".join(str(v) for v in F) + "}"


def _stress_json(sv) -> dict:
    return {
        "degree": sv.degree,
        "coeffs": {_face_str(F): rat_str(c) for F, c in sorted(sv.coeffs.items())},
    }


def _diff_json(diff: DiffReport) -> dict:
    return {
        "equal": diff.equal,
        "vertices_only_first": list(diff.vertices_only_first),
        "vertices_only_second": list(diff.vertices_only_second),
        "facets_only_first": [list(F) for F in diff.facets_only_first],
        "facets_only_second": [list(F) for F in diff.facets_only_second],
        "missing_only_first": [list(F) for F in diff.missing_only_first],
        "missing_only_second": [list(F) for F in diff.missing_only_second],
    }


def _diff_lines(diff: DiffReport, first: str, second: str) -> list:
    if diff.equal:
        return ["diff: empty"]
    lines = ["diff: NOT equal"]
    if diff.vertices_only_first:
        lines.append(f"  vertices only in {first}: {list(diff.vertices_only_first)}")
    if diff.vertices_only_second:
        lines.append(f"  vertices only in {second}: {list(diff.vertices_only_second)}")
    for F in diff.facets_only_first:
        lines.append(f"  facet only in {first}: {_face_str(F)}")
    for F in diff.facets_only_second:
        lines.append(f"  facet only in {second}: {_face_str(F)}")
    for F in diff.missing_only_first:
        lines.append(f"  missing face only in {first}: {_face_str(F)}")
    for F in diff.missing_only_second:
        lines.append(f"  missing face only in {second}: {_face_str(F)}")
    return lines


def _gen_params(args) -> dict:
    params = {}
    for name in ("n", "d", "i", "steps", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    return params


def _cmd_gen(args) -> RunReport:
    P = corpus.generate(args.family, **_gen_params(args))
    text = corpus.encode(P)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    f = P.complex.f_counts()
    line = f"wrote {args.output}: {args.family} d={P.d} f0={f[1]} facets={len(P.complex.facets)}"
    return RunReport(
        command="gen",
        inputs={"family": args.family, "params": _gen_params(args), "output": args.output},
        results={"d": P.d, "f0": f[1], "facets": len(P.complex.facets)},
        exit_status=0,
        lines=[line],
    )


def _cmd_validate(args) -> RunReport:
    P = _load_raw(args.instance)
    report = validate(P)
    lines = []
    for name, ok, desc in report.checks:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {desc}")
    lines.append(f"valid: {str(report.ok).lower()}")
    return RunReport(
        command="validate",
        inputs={"instance": args.instance},
        results={"ok": report.ok, "checks": [{"name": n, "ok": o} for n, o, _ in report.checks]},
        exit_status=0 if report.ok else 1,
        lines=lines,
    )


def _cmd_stress(args) -> RunReport:
    P = _load(args.instance)
    basis = stress_basis(P.complex, P.embedding, args.k)
    lines = [f"dim Stress_{args.k} = {len(basis)}"]
    results = {"k": args.k, "dim": len(basis)}
    if args.basis:
        results["basis"] = [_stress_json(sv) for sv in basis]
        for i, sv in enumerate(basis):
            parts = [f"{_face_str(F)}={rat_str(c)}" for F, c in sorted(sv.coeffs.items())]
            lines.append(f"basis[{i}]: " + " ".join(parts))
    return RunReport(
        command="stress",
        inputs={"instance": args.instance, "k": args.k},
        results=results,
        exit_status=0,
        lines=lines,
    )


def _cmd_rigidity(args) -> RunReport:
    P = _load(args.instance)
    rep = is_infinitesimally_rigid(P.complex, P.embedding)
    lines = [
        f"rigid: {str(rep.rigid).lower()}",
        f"rank R_2 = {rep.rank} (expected {rep.expected_rank})",
        f"dim Stress_2 = {rep.stress_dim}",
    ]
    return RunReport(
        command="rigidity",
        inputs={"instance": args.instance},
        results={
            "rigid": rep.rigid,
            "rank": rep.rank,
            "expected_rank": rep.expected_rank,
            "stress_dim": rep.stress_dim,
        },
        exit_status=0 if rep.rigid else 1,
        lines=lines,
    )


def _cmd_missing(args) -> RunReport:
    P = _load(args.instance)
    skel = skeleton(P.complex, args.k - 1)
    basis = stress_basis(skel, P.embedding, args.k)
    found = enumerate_missing_faces(skel, basis, P.d, args.k)
    lines = [f"certified missing faces (sizes {args.k + 1}..{P.d - args.k + 1}): {len(found)}"]
    for M in found:
        lines.append(f"  {_face_str(M)}")
    return RunReport(
        command="missing",
        inputs={"instance": args.instance, "k": args.k},
        results={"k": args.k, "missing": [list(M) for M in found]},
        exit_status=0,
        lines=lines,
    )


def _cmd_reconstruct(args) -> RunReport:
    P = _load(args.instance)
    skel = skeleton(P.complex, args.k - 1)
    basis = stress_basis(skel, P.embedding, args.k)
    truth = _load(args.truth).complex if args.truth else None
    report = run_pipeline(skel, basis, P.d, args.k, prime=args.prime, truth=truth)
    lines = []
    for dim, ms in report.missing_by_dim.items():
        lines.append(f"missing faces of dim {dim}: " + " ".join(_face_str(M) for M in ms))
    lines.append(f"recovered skeleton: dim {report.skeleton.dim}, facets {len(report.skeleton.facets)}")
    lines.append(f"status: {report.status}")
    if report.undetermined:
        lines.append(f"undetermined candidates: {len(report.undetermined)}")
    results = {
        "k": args.k,
        "missing_by_dim": {str(dim): [list(M) for M in ms] for dim, ms in report.missing_by_dim.items()},
        "status": report.status,
        "undetermined": [list(M) for M in report.undetermined],
    }
    code = 0
    if report.diff is not None:
        lines.extend(_diff_lines(report.diff, "reconstruction", "truth"))
        results["diff"] = _diff_json(report.diff)
        if not report.diff.equal:
            code = 1
    return RunReport(
        command="reconstruct",
        inputs={"instance": args.instance, "k": args.k, "truth": args.truth, "prime": args.prime},
        results=results,
        exit_status=code,
        lines=lines,
    )


def _cmd_probe(args) -> RunReport:
    if args.family == "corpus":
        instances = corpus.default_corpus()
    else:
        instances = [corpus.generate(args.family, **_gen_params(args))]
    lines = []
    verdicts = []
    worst = 0
    for P in instances:
        name = _instance_name(P)
        if P.d < 2 * args.k - 1:
            lines.append(f"{name}: skipped (needs d >= {2 * args.k - 1})")
            verdicts.append({"instance": name, "skipped": True})
            continue
        results = probe_missing_faces(P, args.k)
        for entry in results:
            ok = entry["found"] and entry["verified"]
            if not ok:
                worst = 1
            lines.append(
                f"{name}: G={_face_str(entry['G'])} F={_face_str(entry['F'])} "
                f"found={str(entry['found']).lower()} verified={str(entry['verified']).lower()}"
            )
            verdicts.append(
                {
                    "instance": name,
                    "G": list(entry["G"]),
                    "F": list(entry["F"]),
                    "found": entry["found"],
                    "verified": entry["verified"],
                }
            )
        if not results:
            lines.append(f"{name}: no missing {args.k - 1}-faces to probe")
    return RunReport(
        command="probe",
        inputs={"family": args.family, "k": args.k, "params": _gen_params(args)},
        results={"k": args.k, "verdicts": verdicts},
        exit_status=worst,
        lines=lines,
    )


def _instance_name(P: PolytopeInstance) -> str:
    fam = P.meta.get("family", "?")
    params = P.meta.get("params", {})
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{fam}({inner})"


def _cmd_diff(args) -> RunReport:
    K1 = _load_raw(args.first).complex
    K2 = _load_raw(args.second).complex
    diff = compare(K1, K2)
    lines = _diff_lines(diff, args.first, args.second)
    return RunReport(
        command="diff",
        inputs={"first": args.first, "second": args.second},
        results={"diff": _diff_json(diff)},
        exit_status=0 if diff.equal else 1,
        lines=lines,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polystress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(sp):
        sp.add_argument("family", help="simplex | cross | cyclic | stacked | free_sum")
        sp.add_argument("--n", type=int)
        sp.add_argument("--d", type=int)
        sp.add_argument("--i", type=int)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--seed", type=int)

    p = sub.add_parser("gen", help="generate an instance file")
    add_family_args(p)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("validate", help="re-run geometric validation on an instance")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("stress", help="dimension (and basis) of the degree-k stress space")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--basis", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rigidity", help="infinitesimal rigidity rank test")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("missing", help="certified missing faces from skeleton + stress data")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reconstruct", help="skeleton/boundary reconstruction pipeline")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--truth")
    p.add_argument("--prime", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("probe", help="search missing-face stress patterns per (G, F)")
    add_family_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("diff", help="compare two instance files combinatorially")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "stress": _cmd_stress,
    "rigidity": _cmd_rigidity,
    "missing": _cmd_missing,
    "reconstruct": _cmd_reconstruct,
    "probe": _cmd_probe,
    "diff": _cmd_diff,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
    except PolystressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    if getattr(args, "json", False):
        doc = {
            "command": report.command,
            "inputs": report.inputs,
            "results": report.results,
            "exit": report.exit_status,
        }
        print(json.dumps(doc, indent=1))
    else:
        for line in report.lines:
            print(line)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
