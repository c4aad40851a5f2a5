import json

import pytest

from polystress import cli, corpus, exactla
from polystress.errors import InternalArithmeticError
from polystress.geometry import Embedding, PolytopeInstance
from polystress.rat import rat


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, family, **params):
    P = corpus.generate(family, **params)
    path = tmp_path / name
    path.write_text(corpus.encode(P), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# gen / validate


def test_gen_then_stress_dim(tmp_path, capsys):
    out = str(tmp_path / "c74.json")
    code, text, err = run(capsys, "gen", "cyclic", "--n", "7", "--d", "4", "-o", out)
    assert code == 0
    assert text == f"wrote {out}: cyclic d=4 f0=7 facets=14\n"
    assert err.startswith("elapsed:")
    code, text, _ = run(capsys, "stress", out, "--k", "2")
    assert code == 0
    assert text == "dim Stress_2 = 3\n"


def test_validate_ok(tmp_path, capsys):
    path = write_instance(tmp_path, "oct.json", "cross", d=3)
    code, text, _ = run(capsys, "validate", path)
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "valid: true"
    names = [ln.split()[1].rstrip(":") for ln in lines[:-1]]
    assert names == [
        "vertices_covered",
        "ambient_span",
        "pure_dimension",
        "facet_independence",
        "supporting_hyperplanes",
        "hull_facets_match",
        "euler",
    ]
    assert all(ln.startswith("ok  ") for ln in lines[:-1])


def _collapsed_octahedron():
    P = corpus.generate("cross", d=3)
    coords = dict(P.embedding.coords)
    coords[0] = (rat(0), rat(0), rat(0))  # collapses onto the centroid
    return PolytopeInstance(complex=P.complex, embedding=Embedding(dim=3, coords=coords), d=3, meta=P.meta)


def test_validate_catches_bad_geometry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(corpus.encode(_collapsed_octahedron()), encoding="utf-8")
    code, text, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in text
    assert text.splitlines()[-1] == "valid: false"


# ---------------------------------------------------------------------------
# stress / rigidity


def test_stress_basis_output(tmp_path, capsys):
    path = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)
    code, text, _ = run(capsys, "stress", path, "--k", "2", "--basis")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "dim Stress_2 = 1"
    assert lines[1] == (
        "basis[0]: {1,2}=1 {1,3}=-2 {1,4}=2 {1,5}=-1 {1,6}=1/5 {2,3}=10 {2,4}=-10 "
        "{2,5}=5 {2,6}=-1 {3,4}=20 {3,5}=-10 {3,6}=2 {4,5}=10 {4,6}=-2 {5,6}=1"
    )


def test_rigidity_rigid(tmp_path, capsys):
    path = write_instance(tmp_path, "oct.json", "cross", d=3)
    code, text, _ = run(capsys, "rigidity", path)
    assert code == 0
    assert text == "rigid: true\nrank R_2 = 12 (expected 12)\ndim Stress_2 = 0\n"


def test_rigidity_flexible_polygon(tmp_path, capsys):
    path = write_instance(tmp_path, "pent.json", "cyclic", n=5, d=2)
    code, text, _ = run(capsys, "rigidity", path)
    assert code == 1
    assert text.splitlines()[0] == "rigid: false"


# ---------------------------------------------------------------------------
# missing / reconstruct / diff


def test_missing_cyclic(tmp_path, capsys):
    path = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)
    code, text, _ = run(capsys, "missing", path, "--k", "2")
    assert code == 0
    assert text == "certified missing faces (sizes 3..3): 2\n  {1,3,5}\n  {2,4,6}\n"


def test_reconstruct_round_trip(tmp_path, capsys):
    path = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)
    code, text, _ = run(capsys, "reconstruct", path, "--k", "2", "--truth", path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "missing faces of dim 2: {1,3,5} {2,4,6}"
    assert lines[1] == "recovered skeleton: dim 2, facets 18"
    assert lines[2] == "status: full"
    assert lines[3] == "undetermined candidates: 18"
    assert lines[4] == "diff: empty"


def test_reconstruct_against_wrong_truth(tmp_path, capsys):
    first = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)
    second = write_instance(tmp_path, "cross4.json", "cross", d=4)
    code, text, _ = run(capsys, "reconstruct", first, "--k", "2", "--truth", second)
    assert code == 1
    assert "diff: NOT equal" in text


def test_diff(tmp_path, capsys):
    a = write_instance(tmp_path, "a.json", "cross", d=3)
    b = write_instance(tmp_path, "b.json", "simplex", d=3)
    code, text, _ = run(capsys, "diff", a, a)
    assert code == 0 and text == "diff: empty\n"
    code, text, _ = run(capsys, "diff", a, b)
    assert code == 1
    assert text.splitlines()[0] == "diff: NOT equal"
    assert any("missing face only in" in ln for ln in text.splitlines())


# ---------------------------------------------------------------------------
# probe


def test_probe_free_sum(capsys):
    code, text, _ = run(capsys, "probe", "free_sum", "--i", "2", "--d", "5", "--k", "3")
    assert code == 0
    assert text.splitlines() == [
        "free_sum(d=5,i=2): G={1,2,3} F={1,2} found=true verified=true",
        "free_sum(d=5,i=2): G={1,2,3} F={1,3} found=true verified=true",
        "free_sum(d=5,i=2): G={1,2,3} F={2,3} found=true verified=true",
    ]


def test_probe_vacuous_and_skipped(capsys):
    code, text, _ = run(capsys, "probe", "cyclic", "--n", "9", "--d", "6", "--k", "3")
    assert code == 0
    assert text == "cyclic(d=6,n=9): no missing 2-faces to probe\n"
    code, text, _ = run(capsys, "probe", "simplex", "--d", "2", "--k", "2")
    assert code == 0
    assert text == "simplex(d=2): skipped (needs d >= 3)\n"


# ---------------------------------------------------------------------------
# json mode and determinism


def test_json_output(tmp_path, capsys):
    path = write_instance(tmp_path, "c74.json", "cyclic", n=7, d=4)
    code, text, err = run(capsys, "stress", path, "--k", "2", "--json")
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"command", "inputs", "results", "exit"}
    assert doc["command"] == "stress"
    assert doc["results"] == {"k": 2, "dim": 3}
    assert doc["exit"] == 0
    assert "elapsed" not in text and "elapsed:" in err


def test_json_diff(tmp_path, capsys):
    a = write_instance(tmp_path, "a.json", "cross", d=3)
    b = write_instance(tmp_path, "b.json", "simplex", d=3)
    code, text, _ = run(capsys, "diff", a, b, "--json")
    assert code == 1
    doc = json.loads(text)
    assert doc["results"]["diff"]["equal"] is False
    assert doc["exit"] == 1


def test_stdout_byte_deterministic(tmp_path, capsys):
    path = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)
    runs = []
    for _ in range(2):
        code, text, _ = run(capsys, "reconstruct", path, "--k", "2", "--truth", path, "--json")
        assert code == 0
        runs.append(text)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# failure modes


def test_exit_2_on_bad_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "stress", str(tmp_path / "nosuch.json"), "--k", "2")
    assert code == 2 and err.startswith("error:")
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2 and err.startswith("error:")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"a": "\xc3\xa9\xff')
    code, text, err = run(capsys, "validate", str(binary))
    assert code == 2 and text == "" and err == f"error: {binary}: not UTF-8 text at byte 9\n"
    old_mac = tmp_path / "old_mac.json"  # lone CR line ends count as lines, as in text mode
    old_mac.write_bytes(b'{\r"a":\r\r}')
    code, _, err = run(capsys, "validate", str(old_mac))
    assert code == 2 and err.startswith("error: line 4 column 1:")
    code, _, err = run(capsys, "gen", "cyclic", "--n", "4", "--d", "7", "-o", str(tmp_path / "x.json"))
    assert code == 2 and err.startswith("error:")
    long_int = tmp_path / "long_int.json"  # past int()'s digit limit
    doc = corpus.encode(corpus.generate("simplex", d=3)).replace('"dimension": 3', '"dimension": ' + "3" * 5000)
    long_int.write_text(doc, encoding="utf-8")
    code, text, err = run(capsys, "validate", str(long_int))
    assert (code, text, err) == (2, "", "error: top level: an integer has more digits than Python converts\n")
    bad = tmp_path / "bad.json"
    bad.write_text(corpus.encode(_collapsed_octahedron()), encoding="utf-8")
    code, text, err = run(capsys, "stress", str(bad), "--k", "2")
    assert (code, text) == (2, "")
    assert err == f"error: {bad}: instance fails validation (supporting_hyperplanes, hull_facets_match)\n"
    code, text, err = run(capsys, "missing", write_instance(tmp_path, "c74.json", "cyclic", n=7, d=4), "--k", "3")
    assert (code, text, err) == (2, "", "error: need d >= 2k, got d=4, k=3\n")


@pytest.mark.parametrize("field,value", [("dimension", True), ("vertices", [False, True, 2, 3])])
def test_exit_2_on_bool_fields(tmp_path, capsys, field, value):
    doc = json.loads(corpus.encode(corpus.generate("simplex", d=3)))
    doc[field] = value
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err.startswith(f"error: {field}:")


def test_exit_2_on_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err.startswith("error: top level:")


def test_exit_2_on_internal_arithmetic_error(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "c64.json", "cyclic", n=6, d=4)

    def inexact(*args):
        raise InternalArithmeticError("inexact division in fraction-free elimination")

    monkeypatch.setattr(exactla, "_pivot_step", inexact)
    code, text, err = run(capsys, "stress", path, "--k", "2")
    assert (code, text, err) == (2, "", "error: inexact division in fraction-free elimination\n")


def test_argparse_failures_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stress", "x.json", "--k", "2", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
