"""Shared fixtures and helpers."""

import pytest
from hypothesis import settings

import spinmix as sm
from spinmix.chain import draw_local_batch

# the same examples on every run and no example database, so tier-1 is
# deterministic; each test keeps its own example count
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def wishart_chain(n_sites, rank=4, d=2, beta=1):
    return sm.ChainSpec(n_sites=n_sites, site_dim=d,
                        ensemble=sm.LocalEnsemble.wishart(rank), beta=beta)


def local_term(ensemble, rng, d=2, beta=1):
    """One d²×d² bond term: the one-bond chain's draw from rng's generator."""
    spec = sm.ChainSpec(n_sites=2, site_dim=d, ensemble=ensemble, beta=beta)
    gen = rng.generator()
    return draw_local_batch(spec, 1, gen, vec_gen=gen)[1][0, 0]


@pytest.fixture(scope="session")
def spec_n3():
    return wishart_chain(3)


@pytest.fixture(scope="session")
def spec_n5():
    return wishart_chain(5)
