"""Fuzz the readers: every malformed semigroup is a SemigroupError, and
every malformed category a ParseError with a message."""
import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from concordia import presets, serialization as ser  # noqa: E402
from concordia.categories import build_ideal_category  # noqa: E402
from concordia.semigroups import LEFT, RIGHT, SemigroupError  # noqa: E402

# valid tables to corrupt: Z2, the 2-chain, and the left-zero band of order 3
VALID = ([[0, 1], [1, 0]], [[0, 0], [0, 1]], [[0, 0, 0], [1, 1, 1], [2, 2, 2]])


def associative(table) -> bool:
    n = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n))


@st.composite
def bool_cell(draw):
    table = [list(row) for row in draw(st.sampled_from(VALID))]
    i = draw(st.integers(0, len(table) - 1))
    j = draw(st.integers(0, len(table) - 1))
    table[i][j] = draw(st.booleans())
    return {"table": table}


@st.composite
def ragged(draw):
    n = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)
                   .filter(lambda ls: any(k != n for k in ls)))
    return {"table": [draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
                      for k in lengths]}


NOT_A_ROW = st.one_of(st.none(), st.integers(), st.text(max_size=3),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def non_list_rows(draw):
    table = [list(row) for row in draw(st.sampled_from(VALID))]
    table[draw(st.integers(0, len(table) - 1))] = draw(NOT_A_ROW)
    return {"table": draw(st.one_of(st.just(table), NOT_A_ROW))}


@st.composite
def non_associative(draw):
    n = draw(st.integers(3, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    table = draw(st.lists(row, min_size=n, max_size=n).filter(
        lambda t: not associative(t)))
    return {"table": table}


@st.composite
def bad_one(draw):
    table = draw(st.sampled_from(VALID))
    identity = {0: 0, 1: 1}.get(VALID.index(table))  # the left-zero band has none
    one = draw(st.one_of(st.booleans(), st.floats(), st.text(max_size=2),
                         st.lists(st.integers(), max_size=2),
                         st.integers().filter(lambda x: x != identity)))
    return {"table": table, "one": one}


@st.composite
def bad_names(draw):
    table = draw(st.sampled_from(VALID))
    n = len(table)
    names = draw(st.one_of(
        st.lists(st.text(max_size=2), max_size=5).filter(lambda ls: len(ls) != n),
        st.lists(st.one_of(st.integers(), st.none()), min_size=n, max_size=n),
        st.text(min_size=n, max_size=n),
        st.integers()))
    return {"table": table, "names": names}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(bool_cell(), ragged(), non_list_rows(), non_associative(),
                 bad_one(), bad_names()))
def test_semigroup_reader_raises_semigroup_error(data):
    with pytest.raises(SemigroupError):
        ser.semigroup_from_json(data)


def test_valid_tables_still_read():
    for table in VALID:
        assert ser.semigroup_from_json({"table": table}).order == len(table)


# valid category documents to corrupt: L(T2), R(T2) and L(B2)
CATEGORIES = tuple(
    json.loads(ser.dumps(ser.category_to_json(build_ideal_category(presets.preset(name), side))))
    for name, side in (("full-transformation:2", LEFT), ("full-transformation:2", RIGHT),
                       ("brandt-b2", LEFT)))
NOT_AN_ID = st.one_of(st.booleans(), st.floats(), st.text(max_size=2), st.none(),
                      st.lists(st.integers(), max_size=2))


@st.composite
def category(draw):
    return copy.deepcopy(draw(st.sampled_from(CATEGORIES)))


@st.composite
def bad_schema(draw):
    doc = draw(category())
    schema = draw(st.one_of(st.none(), st.integers(), st.just("concordia.category/1"),
                            st.text(max_size=20).filter(lambda t: t != ser.CATEGORY_SCHEMA)))
    if schema is None:
        del doc["schema"]
    else:
        doc["schema"] = schema
    return doc


@st.composite
def v1_triples(draw):
    # the v1 layout, one [m1, m2, m3] per composable pair, with or without
    # the v2 schema
    doc = draw(category())
    out = {}
    for m in doc["morphisms"]:
        out.setdefault(m["dom"], []).append(m["id"])
    doc["compose"] = sorted([m1, m2, m3] for m1, row in enumerate(doc["compose"])
                            for m2, m3 in zip(out[doc["morphisms"][m1]["cod"]], row))
    if draw(st.booleans()):
        del doc["schema"]
    return doc


@st.composite
def bad_row_length(draw):
    doc = draw(category())
    row = doc["compose"][draw(st.integers(0, len(doc["compose"]) - 1))]
    if draw(st.booleans()):
        row.pop(draw(st.integers(0, len(row) - 1)))
    else:
        row += draw(st.lists(st.integers(0, len(doc["morphisms"]) - 1), min_size=1, max_size=3))
    return doc


@st.composite
def bad_id(draw):
    # an object or morphism id out of range, not an int, or a bool, in a
    # compose row, a dom or cod, a leq list or an "id" field
    doc = draw(category())
    n, n_mor = len(doc["objects"]), len(doc["morphisms"])
    where = draw(st.sampled_from(("row", "dom", "cod", "leq", "object id", "morphism id")))
    limit = n_mor if where in ("row", "morphism id") else n
    value = draw(st.one_of(NOT_AN_ID, st.integers(max_value=-1), st.integers(min_value=limit)))
    if where == "row":
        row = doc["compose"][draw(st.integers(0, n_mor - 1))]
        row[draw(st.integers(0, len(row) - 1))] = value
    elif where in ("dom", "cod"):
        doc["morphisms"][draw(st.integers(0, n_mor - 1))][where] = value
    elif where == "leq":
        doc["objects"][draw(st.integers(0, n - 1))]["leq"].append(value)
    else:
        entries = doc["objects" if where == "object id" else "morphisms"]
        entries[draw(st.integers(0, len(entries) - 1))]["id"] = value
    return doc


@st.composite
def non_list_row(draw):
    doc = draw(category())
    if draw(st.booleans()):
        doc["compose"][draw(st.integers(0, len(doc["compose"]) - 1))] = draw(NOT_A_ROW)
    else:
        doc["compose"] = draw(NOT_A_ROW)
    return doc


@st.composite
def bad_shape(draw):
    # objects or morphisms not a list, an entry not an object, or a field of
    # an entry missing or of the wrong type
    doc = draw(category())
    key = draw(st.sampled_from(("objects", "morphisms")))
    entries = doc[key]
    i = draw(st.integers(0, len(entries) - 1))
    how = draw(st.sampled_from(("whole", "entry", "missing", "field")))
    if how == "whole":
        doc[key] = draw(NOT_A_ROW)
    elif how == "entry":
        entries[i] = draw(st.one_of(NOT_AN_ID, st.integers()))
    elif how == "missing":
        del entries[i][draw(st.sampled_from(("id",) if key == "objects" else ("id", "dom", "cod")))]
    elif key == "objects":
        entries[i]["leq"] = draw(st.one_of(st.integers(), st.text(max_size=2),
                                           st.dictionaries(st.text(max_size=2), st.integers(),
                                                           max_size=2)))
    else:
        entries[i]["inclusion"] = draw(st.one_of(st.integers(), st.text(max_size=2),
                                                 st.lists(st.booleans(), max_size=2)))
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(bad_schema(), v1_triples(), bad_row_length(), bad_id(),
                 non_list_row(), bad_shape()))
def test_category_reader_raises_parse_error(data):
    with pytest.raises(ser.ParseError, match="."):
        ser.category_from_json(data)


def test_valid_categories_still_read():
    for doc in CATEGORIES:
        c = ser.category_from_json(doc)
        assert ser.category_to_json(c)["compose"] == doc["compose"]
