"""Shared fixtures: groups and irrep tables are expensive, build them once."""

from __future__ import annotations

import numpy as np
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
def s3_reducible(s3_table):
    """The direct sum of the sign and the 2-dim irrep of S3: reducible, dim 3."""
    sign, two = s3_table.irreps[1], s3_table.irreps[2]
    assert (sign.dim, two.dim) == (1, 2)
    mats = np.zeros((s3_table.group.order, 3, 3), dtype=np.complex128)
    mats[:, :1, :1] = sign.matrices
    mats[:, 1:, 1:] = two.matrices
    return irreps.UnitaryRep(s3_table.group, mats)


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
