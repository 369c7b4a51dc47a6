import json
from pathlib import Path

import pytest

from concordia import serialization as ser
from concordia.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "z3.json"
    code, _, _ = run(["gen", "--preset", "cyclic:3", "--out", str(out)], capsys)
    assert code == 0
    s = ser.semigroup_from_json(json.loads(out.read_text()))
    assert s.order == 3


def test_analyze_preset(tmp_path, capsys):
    code, stdout, _ = run(["analyze", "--preset", "upper-triangular-f2",
                           "--out", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads((tmp_path / "analysis.json").read_text())
    assert data["abundant"] is True and data["idempotents_generate_regular"] is False
    assert "concordant: False" in stdout


def test_analyze_input_file(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"order": 2, "table": [[0, 0], [0, 1]]}))
    code, stdout, _ = run(["analyze", "--input", str(f)], capsys)
    assert code == 0 and '"concordant": true' in stdout


def test_analyze_requires_source(capsys):
    code, _, err = run(["analyze"], capsys)
    assert code == 1 and "parse error" in err


def test_analyze_rejects_bad_table(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"table": [[0, 1], [1, 2]]}))
    code, _, err = run(["analyze", "--input", str(f)], capsys)
    assert code == 1 and "validation error" in err


def test_roundtrip_t2(tmp_path, capsys):
    code, stdout, _ = run(["roundtrip", "--preset", "full-transformation:2",
                           "--out", str(tmp_path)], capsys)
    assert code == 0
    for name in ("analysis.json", "lcat.json", "rcat.json", "omega.json",
                 "somega.json", "phi.json", "icc.json", "report.txt"):
        assert (tmp_path / name).exists(), name
    somega = json.loads((tmp_path / "somega.json").read_text())
    assert somega["semigroup"]["order"] == 4
    assert "all certificates pass" in (tmp_path / "report.txt").read_text()


def test_roundtrip_cyclic3(tmp_path, capsys):
    code, stdout, _ = run(["roundtrip", "--preset", "cyclic:3",
                           "--out", str(tmp_path)], capsys)
    assert code == 0
    somega = json.loads((tmp_path / "somega.json").read_text())
    assert somega["semigroup"]["order"] == 3


def test_roundtrip_not_concordant(tmp_path, capsys):
    code, stdout, _ = run(["roundtrip", "--preset", "monogenic:2,2",
                           "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "NOT CONCORDANT" in (tmp_path / "report.txt").read_text()
    assert (tmp_path / "analysis.json").exists()  # artifacts retained


def test_roundtrip_epsilon_mode(tmp_path, capsys):
    code, _, _ = run(["roundtrip", "--preset", "brandt-b2", "--cones", "epsilon",
                      "--out", str(tmp_path)], capsys)
    assert code == 0


def test_roundtrip_nonregular_concordant_from_file(tmp_path, capsys):
    from conftest import NONREGULAR_CONCORDANT
    f = tmp_path / "w.json"
    f.write_text(json.dumps({"table": [list(r) for r in NONREGULAR_CONCORDANT]}))
    code, stdout, _ = run(["roundtrip", "--input", str(f),
                           "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and "all certificates pass" in stdout


def test_search_deterministic_output(capsys):
    code, out1, _ = run(["search", "--max-order", "2",
                         "--predicate", "concordant"], capsys)
    code2, out2, _ = run(["search", "--max-order", "2",
                          "--predicate", "concordant"], capsys)
    assert code == code2 == 0
    assert out1 == out2
    census = json.loads(out1)
    assert census["orders"]["2"]["matching"] == 4  # canonical forms


def test_search_budget_exit_code(capsys):
    code, out, _ = run(["search", "--max-order", "4", "--budget", "0"], capsys)
    assert code == 4
    assert json.loads(out)["complete"] is False


def test_search_rejects_bad_spec(capsys):
    code, _, err = run(["search", "--max-order", "99"], capsys)
    assert code == 1 and "max_order" in err
    code, _, err = run(["search", "--max-order", "2", "--predicate", "nope"],
                       capsys)
    assert code == 1 and "unknown predicate" in err


def test_export_eggbox(capsys):
    code, out, _ = run(["export", "--preset", "brandt-b2", "--what", "eggbox",
                        "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)["d_classes"]) == 2


def test_export_category_dot(capsys):
    code, out, _ = run(["export", "--preset", "semilattice-chain:2",
                        "--what", "category", "--format", "dot"], capsys)
    assert code == 0 and out.count("->") == 5


def test_export_icc_not_concordant(capsys):
    code, _, err = run(["export", "--preset", "monogenic:2,2", "--what", "icc"],
                       capsys)
    assert code == 2


def test_export_category_right_side(capsys):
    code, out, _ = run(["export", "--preset", "full-transformation:2",
                        "--what", "category", "--side", "R"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["objects"]) == 3  # R-classes of the idempotents of T2


def test_roundtrip_artifacts_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(["roundtrip", "--preset", "brandt-b2", "--out", str(d1)], capsys)
    run(["roundtrip", "--preset", "brandt-b2", "--out", str(d2)], capsys)
    for name in ("analysis.json", "lcat.json", "rcat.json", "omega.json",
                 "somega.json", "phi.json", "icc.json", "report.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_export_icc_json(capsys):
    code, out, _ = run(["export", "--preset", "cyclic:3", "--what", "icc"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["objects"]) == 1 and len(data["morphisms"]) == 3


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_roundtrip_category_error_is_certificate_failure(tmp_path, capsys, monkeypatch):
    from concordia.categories import AxiomFailure
    monkeypatch.setattr("concordia.cli.check_consistent_axioms",
                        _raise(AxiomFailure("injected closure failure")))
    code, stdout, _ = run(["roundtrip", "--preset", "cyclic:2",
                           "--out", str(tmp_path)], capsys)
    assert code == 3
    report = (tmp_path / "report.txt").read_text()
    assert "CERTIFICATE FAILURE: injected closure failure" in report
    assert report == stdout
    assert (tmp_path / "omega.json").exists()  # artifacts retained


@pytest.mark.parametrize("exc", ["MorphismNotInCategory", "NotBimorphism"])
def test_roundtrip_other_category_errors_exit_3(exc, tmp_path, capsys, monkeypatch):
    from concordia import categories
    monkeypatch.setattr("concordia.cli.check_consistent_axioms",
                        _raise(getattr(categories, exc)("injected")))
    code, _, _ = run(["roundtrip", "--preset", "cyclic:2",
                      "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "CERTIFICATE FAILURE: injected" in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("exc", ["categories.AxiomFailure",
                                 "crossconn.NaturalityFailure"])
def test_export_icc_certificate_failure_exit_3(exc, capsys, monkeypatch):
    import importlib
    module, name = exc.split(".")
    cls = getattr(importlib.import_module(f"concordia.{module}"), name)
    monkeypatch.setattr("concordia.cli.build_icc", _raise(cls("injected")))
    code, out, err = run(["export", "--preset", "cyclic:3", "--what", "icc"],
                         capsys)
    assert code == 3 and out == ""
    assert err == "certificate failure: injected\n"
