import numpy as np
import pytest
from hypothesis import settings

from nbrattack.graphs import Graph

# Property tests draw the same examples on every run, so two runs of the
# suite (say, before and after a change) test the same inputs.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def make_graph(n, edges, feature_dim=2, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, feature_dim))
    return Graph(n, edges, features, labels)


@pytest.fixture
def path4():
    # 0 - 1 - 2 - 3
    return make_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def triangle_plus():
    # triangle 0-1-2 with pendant 3 on node 2, isolated 4
    return make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def small_sbm():
    from nbrattack.sbm import generate_sbm
    return generate_sbm([6, 6], 0.7, 0.1, seed=42)
