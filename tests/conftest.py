import pytest

from cmqsearch.analytic import iteration_band
from cmqsearch.optimizer import MAX_NK, _solve_phase, march_level
from cmqsearch.planner import build_table


@pytest.fixture(scope="session")
def march_at():
    """March band k from the phase that puts level q on its lower edge."""
    def march(k, q, max_nk=MAX_NK):
        return march_level(k, _solve_phase(k, iteration_band(k).lo, q), max_nk)
    return march


@pytest.fixture(scope="session")
def table90():
    """Plan table for the paper's headline setting: P_cri = 0.90, lambda0 = 1e-2."""
    return build_table(0.90, 1e-2)
