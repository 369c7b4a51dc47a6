import hashlib
import json

import pytest

from concordia import presets, serialization as ser
from concordia.categories import build_ideal_category, validate_category
from concordia.crossconn import build_omega_s, build_s_omega
from concordia.icc import build_icc
from concordia.semigroups import LEFT, RIGHT, identity_of, validate_table
from conftest import SMALL_PRESETS, omega_bundle, semigroup


@pytest.mark.parametrize("name", SMALL_PRESETS + ("monogenic:2,2",))
def test_semigroup_roundtrip(name):
    s = presets.preset(name)
    data = json.loads(ser.dumps(ser.semigroup_to_json(s)))
    back = ser.semigroup_from_json(data)
    assert back.table == s.table and back.names == s.names


def test_semigroup_json_one_field():
    z3 = semigroup("cyclic:3")
    assert ser.semigroup_to_json(z3)["one"] == 0
    lz = semigroup("left-zero:2")
    assert "one" not in ser.semigroup_to_json(lz)


def test_semigroup_parse_errors():
    with pytest.raises(ser.ParseError):
        ser.semigroup_from_json({"order": 2})
    with pytest.raises(ser.ParseError):
        ser.semigroup_from_json({"order": 3, "table": [[0]]})


@pytest.mark.parametrize("name", ["semilattice-chain:2", "brandt-b2", "cyclic:3"])
def test_category_roundtrip(name):
    c = build_ideal_category(presets.preset(name), LEFT)
    data = json.loads(ser.dumps(ser.category_to_json(c)))
    back = ser.category_from_json(data)
    validate_category(back)
    assert back.n_objects == c.n_objects
    assert back.leq == c.leq
    assert back.dom == c.dom and back.cod == c.cod
    assert back.compose_table == c.compose_table
    assert back.inclusions == c.inclusions
    assert back.identities == c.identities


def test_category_parse_error():
    with pytest.raises(ser.ParseError):
        ser.category_from_json({"objects": [{"id": 0}]})


def test_category_json_v2_rows():
    # compose[m1] lists m1's composites with outgoing(cod m1), in that order
    c = build_ideal_category(presets.preset("brandt-b2"), LEFT)
    data = ser.category_to_json(c)
    assert data["schema"] == "concordia.category/2"
    assert len(data["compose"]) == c.n_morphisms
    assert sum(map(len, data["compose"])) == len(c.compose_table)
    # rho(e,u,f) rho(f,v,h) = rho(e,uv,h), read off the semigroup
    mul = c.semigroup.mul
    for m1, row in enumerate(data["compose"]):
        u = c.triples[m1][1]
        assert row == [c.triple_index[(c.dom[m1], c.cod[m2], mul(u, c.triples[m2][1]))]
                       for m2 in c.outgoing(c.cod[m1])]


def test_category_reader_rejects_v1():
    c = build_ideal_category(presets.preset("semilattice-chain:2"), LEFT)
    data = ser.category_to_json(c)
    data["compose"] = sorted([m1, m2, m3] for (m1, m2), m3 in c.compose_table.items())
    with pytest.raises(ser.ParseError, match="rows"):
        ser.category_from_json(data)
    del data["schema"]
    with pytest.raises(ser.ParseError, match="schema"):
        ser.category_from_json(data)


@pytest.mark.parametrize("name", SMALL_PRESETS)
def test_category_text_is_a_fixed_point_without_semigroup(name):
    # a category read back has no semigroup; its text then reads and writes
    # back to the same bytes
    for side in (LEFT, RIGHT):
        c = build_ideal_category(presets.preset(name), side)
        text = ser.dumps(ser.category_to_json(
            ser.category_from_json(json.loads(ser.dumps(ser.category_to_json(c))))))
        back = ser.category_from_json(json.loads(text))
        assert back.semigroup is None
        assert ser.dumps(ser.category_to_json(back)) == text


def test_dumps_indents_the_top_two_levels():
    doc = {"b": [[1, 2], {"y": 1, "x": [3]}], "a": {"k": {"z": 0}, "j": []},
           "c": 5, "d": [], "e": {}}
    assert ser.dumps(doc) == (
        '{\n'
        '  "a": {\n'
        '    "j": [],\n'
        '    "k": {"z": 0}\n'
        '  },\n'
        '  "b": [\n'
        '    [1, 2],\n'
        '    {"x": [3], "y": 1}\n'
        '  ],\n'
        '  "c": 5,\n'
        '  "d": [],\n'
        '  "e": {}\n'
        '}\n')
    assert ser.dumps([]) == "[]\n" and ser.dumps(3) == "3\n"


@pytest.mark.parametrize("name", ["brandt-b2", "full-transformation:2"])
def test_dumps_reads_back_as_json_dumps(name):
    s, omega, somega = omega_bundle(name)
    for doc in (ser.analysis_to_json(s), ser.eggbox_to_json(s),
                ser.category_to_json(omega.C), ser.omega_to_json(omega),
                ser.somega_to_json(somega), ser.icc_to_json(build_icc(omega, somega)),
                {1: [True, None], 0: {2.5: "\u00e9"}}):
        text = ser.dumps(doc)
        assert text.isascii()
        assert json.loads(text) == json.loads(json.dumps(doc, sort_keys=True))


def test_analysis_json_fields():
    data = ser.analysis_to_json(presets.upper_triangular_f2())
    assert data["abundant"] is True
    assert data["concordant"] is False
    assert data["idempotents_generate_regular"] is False
    assert data["non_regular_witness"] is not None
    text = ser.analysis_to_text(presets.upper_triangular_f2())
    assert "concordant: False" in text


def test_eggbox_b2():
    data = ser.eggbox_to_json(semigroup("brandt-b2"))
    assert len(data["d_classes"]) == 2
    big = max(data["d_classes"], key=lambda b: len(b["elements"]))
    assert len(big["r_classes"]) == 2 and len(big["l_classes"]) == 2
    dot = ser.eggbox_to_dot(semigroup("brandt-b2"))
    assert dot.count("TABLE") >= 2


def test_category_dot_sl2():
    c = build_ideal_category(semigroup("semilattice-chain:2"), LEFT)
    dot = ser.category_to_dot(c)
    assert dot.count("[label=\"S.") == 2  # 2 nodes
    assert dot.count("->") == 5  # one edge per morphism


def test_icc_dot_z3():
    s, omega, somega = omega_bundle("cyclic:3")
    icc = build_icc(omega, somega)
    dot = ser.icc_to_dot(icc)
    assert dot.count("->") == 3 and dot.count("[label=\"(") == 1


def test_omega_and_somega_json():
    s, omega, somega = omega_bundle("semilattice-chain:2")
    data = json.loads(ser.dumps(ser.omega_to_json(omega)))
    assert data["e_omega"] == [[0, 0], [1, 1]]
    # the categories by file and the sha256 of the text written there
    for key, file, c in (("left_category", "lcat.json", omega.C),
                         ("right_category", "rcat.json", omega.D)):
        text = ser.dumps(ser.category_to_json(c))
        assert data[key] == {"file": file,
                             "sha256": hashlib.sha256(text.encode()).hexdigest()}
    sdata = json.loads(ser.dumps(ser.somega_to_json(somega)))
    assert len(sdata["linked_pairs"]) == 2
    assert sdata["semigroup"]["table"] == [[0, 0], [0, 1]]


def test_dumps_deterministic():
    s = semigroup("brandt-b2")
    assert ser.dumps(ser.analysis_to_json(s)) == ser.dumps(ser.analysis_to_json(s))
