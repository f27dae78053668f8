"""Shared fixtures: the test cones and the two worked-example semigroups."""

import os

import pytest

from conesemi import Cone, make_csemigroup

S_A_GAPS = ((1, 1), (2, 2))
S_B_GAPS = ((1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 1), (4, 0))


def pytest_configure(config):
    """Fresh interpreters that the CLI tests start import conesemi from the
    src/ that the `pythonpath` setting puts on this process's path."""
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


@pytest.fixture(scope="session")
def full1():
    return Cone.full_cone(1)


@pytest.fixture(scope="session")
def full2():
    return Cone.full_cone(2)


@pytest.fixture(scope="session")
def full3():
    return Cone.full_cone(3)


@pytest.fixture(scope="session")
def cone_a():
    """The sector between (1,0) and (1,1): x >= y >= 0."""
    return Cone.from_rays((1, 0), (1, 1))


@pytest.fixture(scope="session")
def cone_skew():
    """A sector with det 5, so ray coordinates have denominators."""
    return Cone.from_rays((2, 1), (1, 3))


@pytest.fixture(scope="session")
def s_a(cone_a):
    return make_csemigroup(cone_a, S_A_GAPS)


@pytest.fixture(scope="session")
def s_b(cone_a):
    return make_csemigroup(cone_a, S_B_GAPS)
