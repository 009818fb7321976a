import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopfsl2.algebra import AlgebraParams

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # property tests built on this profile draw the same examples on every
    # run, and exact arithmetic gets no per-example deadline; it is not
    # loaded globally, so older property tests keep their own settings
    settings.register_profile("hopfsl2", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def p311():
    """(n, n1) = (3, 1) with beta = (1, 1, 1)."""
    return AlgebraParams(3, 1, beta=(1, 1, 1))


@pytest.fixture(scope="session")
def p_beta3():
    """(3, 1) with beta = (0, 0, 1): the V_r world of the z-relations."""
    return AlgebraParams(3, 1, beta=(0, 0, 1))
