"""Shared fixtures: groups and irrep tables are expensive, build them once."""

from __future__ import annotations

import pytest
from hypothesis import settings

from quasirep import groups, irreps

# reproducible runs that leave no example database behind
settings.register_profile("quasirep", derandomize=True, database=None)
settings.load_profile("quasirep")


@pytest.fixture(scope="session")
def s3():
    return groups.named("symmetric", 3)


@pytest.fixture(scope="session")
def s3_table(s3):
    return irreps.decompose(s3)


@pytest.fixture(scope="session")
def a5():
    return groups.named("alternating", 5)


@pytest.fixture(scope="session")
def a5_table(a5):
    return irreps.decompose(a5)


@pytest.fixture(scope="session")
def a6():
    return groups.named("alternating", 6)


@pytest.fixture(scope="session")
def a6_table(a6):
    return irreps.decompose(a6)


@pytest.fixture(scope="session")
def q8():
    return groups.named("quaternion8")


@pytest.fixture(scope="session")
def q8_table(q8):
    return irreps.decompose(q8)


@pytest.fixture(scope="session")
def z6():
    return groups.named("cyclic", 6)


@pytest.fixture(scope="session")
def z6_table(z6):
    return irreps.decompose(z6)
