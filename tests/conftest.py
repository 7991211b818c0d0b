import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from petzlab.verify import _random_dpi_instance


def pytest_configure(config):
    # hypothesis caches constants it mines from the local sources while
    # collecting; keep that cache out of the working tree
    home = tempfile.TemporaryDirectory()
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


def random_dpi_instance(seed, dim_lo=2, dim_hi=5, env_max=4):
    """Seeded (rho, sigma, channel) triple with a well-conditioned sigma."""
    rho, sigma, channel, _ = _random_dpi_instance(seed, (dim_lo, dim_hi), env_max)
    return rho, sigma, channel
