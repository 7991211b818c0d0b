import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from petzlab import recovery
from petzlab.linalg import _checked
from petzlab.recovery import convex_mixture, rotated_petz_family
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


def quadrature_map(sigma, channel, rule):
    """A rule's universal map: the mixture of the rotated Petz maps at half
    its nodes, with its weights."""
    return convex_mixture(rotated_petz_family(sigma, channel, rule.nodes / 2.0), rule.weights)


def quadrature_stack_map(sigma, channel, rule):
    """``quadrature_map`` from the pair's one Kraus stack, each node's
    operators scaled by ``sqrt(w)``, without a map object per node; its Kraus
    stack is the composition's, bit for bit."""
    pair = recovery._PetzFactory(_checked(sigma), channel)
    nodes = rule.nodes / 2.0
    ops = pair.kraus_stack(nodes) * np.sqrt(rule.weights)[:, None, None, None]
    ops = ops.reshape(-1, channel.dim_in, channel.dim_out)
    return pair.recovery_map("mixture", ops, nodes=nodes, weights=rule.weights)
