import hashlib
import json
from pathlib import Path

import pytest

from concordia import serialization as ser
from concordia.cli import main
from conftest import NONREGULAR_CONCORDANT, SMALL_PRESETS


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


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["roundtrip"],
    ["export", "--what", "eggbox", "--format", "dot"],
])
@pytest.mark.parametrize("data", [
    {"table": 5},
    {"order": 2, "table": 5},
    {"table": [5, 6]},
    {"table": [[0, 0], "01"]},
    {"table": [[0, 0], [0, 1]], "names": ["a"]},
    {"table": [[0, 0], [0, 1]], "names": "ab"},
    {"table": [[0, 0], [0, 1]], "names": ["a", 1]},
    {"table": [[0, 0], [0, 1]], "one": "1"},
    {"table": [[0, 0], [0, 1]], "one": True},
    {"table": [[0, 0], [0, 1]], "one": 1.0},
])
def test_malformed_input_exits_1(command, data, tmp_path, capsys):
    # one error line, never a traceback (TypeError or IndexError before)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, out, err = run(command + ["--input", str(f)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(("validation error: ", "parse error: "))
    assert err.count("\n") == 1


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
    # omega.json refers to the category files by the sha256 of their bytes
    omega = json.loads((tmp_path / "omega.json").read_text())
    for key, name in (("left_category", "lcat.json"), ("right_category", "rcat.json")):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert omega[key] == {"file": name, "sha256": digest}
        ser.category_from_json(json.loads((tmp_path / name).read_text()))


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


@pytest.mark.parametrize("argv, why", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["roundtrip", "--preset", "cyclic:2", "--cones", "bogus"], "invalid choice: 'bogus'"),
    (["search", "--max-order", "x"], "invalid int value: 'x'"),
    (["search"], "the following arguments are required: --max-order"),
    (["export", "--preset", "cyclic:2"], "the following arguments are required: --what"),
])
def test_usage_errors_exit_1(argv, why, capsys):
    # argparse's own exit 2 would read as "not concordant"
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("parse error: concordia") and why in err


@pytest.mark.parametrize("command", [
    ["gen"], ["analyze"], ["roundtrip"], ["export", "--what", "eggbox"]])
@pytest.mark.parametrize("spec", [
    "bogus", "cyclic:x", "cyclic:0", "direct-product:cyclic:2"])
def test_bad_preset_is_a_parse_error(command, spec, capsys):
    # unknown name, non-integer parameter, parameter out of range, one factor
    code, out, err = run(command + ["--preset", spec], capsys)
    assert code == 1 and out == ""
    assert err.startswith("parse error: ") and spec in err


@pytest.mark.parametrize("command", [
    ["analyze"], ["roundtrip"], ["export", "--what", "eggbox"]])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-json", "not-utf8"])
def test_unreadable_input_is_a_parse_error(command, kind, tmp_path, capsys):
    path = tmp_path / "in.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-json":
        path.write_text("{not json", encoding="utf-8")
    elif kind == "not-utf8":
        path.write_bytes(b'{"table": "\xff"}')
    code, out, err = run(command + ["--input", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"parse error: --input {path}: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "--max-order" in capsys.readouterr().out


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


@pytest.mark.parametrize("preset", SMALL_PRESETS + (None,))
def test_export_icc_equals_roundtrip_icc(preset, tmp_path, capsys):
    # export builds the cross-connection in roundtrip's default cone mode;
    # None stands for NONREGULAR_CONCORDANT, read from a file
    source = ["--preset", preset]
    if preset is None:
        f = tmp_path / "w.json"
        f.write_text(json.dumps({"table": [list(r) for r in NONREGULAR_CONCORDANT]}))
        source = ["--input", str(f)]
    code, _, _ = run(["roundtrip", *source, "--out", str(tmp_path / "rt")], capsys)
    assert code == 0
    code, _, _ = run(["export", *source, "--what", "icc",
                      "--out", str(tmp_path / "icc.json")], capsys)
    assert code == 0
    assert (tmp_path / "icc.json").read_bytes() == (tmp_path / "rt" / "icc.json").read_bytes()


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


def test_roundtrip_not_abundant_mid_pipeline_is_certificate_failure(
        tmp_path, capsys, monkeypatch):
    from concordia.semigroups import NotAbundant
    monkeypatch.setattr("concordia.cli.build_s_omega",
                        _raise(NotAbundant("injected: no starred witness")))
    code, stdout, err = run(["roundtrip", "--preset", "cyclic:2",
                             "--out", str(tmp_path)], capsys)
    assert code == 3 and err == ""
    report = (tmp_path / "report.txt").read_text()
    assert "CERTIFICATE FAILURE: injected: no starred witness" in report
    assert report == stdout
    assert (tmp_path / "omega.json").exists()  # artifacts retained


@pytest.mark.parametrize("exc", ["categories.AxiomFailure",
                                 "crossconn.NaturalityFailure",
                                 "semigroups.NotAbundant"])
def test_export_icc_certificate_failure_exit_3(exc, capsys, monkeypatch):
    import importlib
    module, name = exc.split(".")
    cls = getattr(importlib.import_module(f"concordia.{module}"), name)
    monkeypatch.setattr("concordia.cli.build_icc", _raise(cls("injected")))
    code, out, err = run(["export", "--preset", "cyclic:3", "--what", "icc"],
                         capsys)
    assert code == 3 and out == ""
    assert err == "certificate failure: injected\n"
