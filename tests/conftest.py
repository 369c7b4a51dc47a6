import functools

import pytest

from concordia import presets
from concordia.crossconn import build_omega_s, build_s_omega
from concordia.search import SearchSpec, run_search

# the preset battery used throughout; all concordant
SMALL_PRESETS = ("cyclic:2", "cyclic:3", "semilattice-chain:2",
                 "semilattice-chain:3", "left-zero:2", "full-transformation:2",
                 "brandt-b2")

# the unique canonical concordant non-regular semigroup of order 4
# (found by the exhaustive search; cone semigroups behave differently on it)
NONREGULAR_CONCORDANT = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 0), (0, 0, 0, 3))


@functools.cache
def semigroup(name):
    return presets.preset(name)


@functools.cache
def omega_bundle(name):
    s = semigroup(name)
    omega = build_omega_s(s)
    somega = build_s_omega(omega)
    return s, omega, somega


@functools.cache
def concordant_census(max_order):
    """The census of concordant semigroups with every witness kept."""
    return run_search(SearchSpec(max_order=max_order, predicate=("concordant",)),
                      witness_cap=10**6)


@functools.cache
def concordant_classes(max_order):
    """Every concordant semigroup of order <= max_order up to isomorphism, as
    canonical tables (1, 4, 13, 68, 369 of orders 1..5)."""
    census = concordant_census(max_order)
    return tuple(tuple(map(tuple, t)) for n in range(1, max_order + 1)
                 for t in census["orders"][str(n)]["witnesses"])


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
