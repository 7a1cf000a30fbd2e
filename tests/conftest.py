import numpy as np
import pytest

from opuc.canonical import default_truncation_order
from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.szego import szego_data_for
from opuc.weights import (bernstein_szego, essential, inverse_essential,
                          lebesgue, zero_modified)


def bs2_alpha_closed(n: int) -> float:
    """Exact Verblunsky coefficients of |1 - z/2|^2."""
    return -(3.0 / 4.0) * 0.5 ** (n + 1) / (1.0 - 0.25 ** (n + 2))


@pytest.fixture(scope="session")
def bs2():
    return bernstein_szego(2.0)


@pytest.fixture(scope="session")
def bs2_szego(bs2):
    return szego_data_for(bs2, default_truncation_order(16))


@pytest.fixture(scope="session")
def bs2_oracle(bs2):
    return szego_recurrence(moments(bs2, 44), phi_store(42))


@pytest.fixture(scope="session")
def leb():
    return lebesgue()


@pytest.fixture(scope="session")
def leb_szego(leb):
    return szego_data_for(leb, 72)


@pytest.fixture(scope="session")
def ess05():
    return essential(0.5)


@pytest.fixture(scope="session")
def inv_ess05():
    return inverse_essential(0.5)


@pytest.fixture(scope="session")
def ess_oracle(ess05):
    return szego_recurrence(moments(ess05, 62), phi_store(61))


@pytest.fixture(scope="session")
def inv_ess_oracle(inv_ess05):
    return szego_recurrence(moments(inv_ess05, 32), phi_store(31))


@pytest.fixture(scope="session")
def zmod1(leb):
    """|z - 1| (single circle zero of exponent 1/2)."""
    return zero_modified(leb, [(0.0, 0.5)])


@pytest.fixture(scope="session")
def zmod2(leb):
    """|z - 1| |z + 1| (two symmetric circle zeros)."""
    return zero_modified(leb, [(0.0, 0.5), (np.pi, 0.5)])


@pytest.fixture(scope="session")
def zmod1_oracle(zmod1):
    return szego_recurrence(moments(zmod1, 130), phi_store(129))


@pytest.fixture(scope="session")
def zmod2_oracle(zmod2):
    return szego_recurrence(moments(zmod2, 130), phi_store(129))
