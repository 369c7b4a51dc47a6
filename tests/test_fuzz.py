"""Fuzz the semigroup reader: every malformed input is a SemigroupError."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from concordia import serialization as ser  # noqa: E402
from concordia.semigroups import SemigroupError  # noqa: E402

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
