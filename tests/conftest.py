import numpy as np
import pytest

from petzlab.verify import _random_dpi_instance


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


def random_dpi_instance(seed, dim_lo=2, dim_hi=5, env_max=4, max_condition=1e8):
    """Seeded (rho, sigma, channel) triple with a well-conditioned sigma."""
    rho, sigma, channel, _ = _random_dpi_instance(
        seed, (dim_lo, dim_hi), env_max, max_condition
    )
    return rho, sigma, channel
