"""Each pool's μ, σ², γ₁, γ₂ and the empirical Slider weight, pinned for small runs.

The numbers in ``pinned_numbers.json`` are what these runs gave when the
file was written; a change that keeps the program's numbers keeps them
within 1e-10 of each number's scale (σ for μ, σ² for σ², 1 for γ₁, γ₂ and
p).  A change that means to move them regenerates the file with

    PYTHONPATH=src python tests/test_pinned_numbers.py

and says why they moved.  The runs add about 0.2 s to tier-1.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import spinmix as sm
from spinmix.cli import _p_empirical

PINNED = Path(__file__).resolve().parent / "pinned_numbers.json"
STATS = ("mu", "sigma2", "gamma1", "gamma2")
KINDS = ("classical", "iso", "quantum")
_ENSEMBLES = {
    "wishart": sm.LocalEnsemble.wishart(4),
    "wishart2": sm.LocalEnsemble.wishart(2),
    "goe": sm.LocalEnsemble.goe(),
    "pm1": sm.LocalEnsemble.pm1(),
    "fixed": sm.LocalEnsemble.fixed_spectrum([-1.5, -0.25, 0.5, 2.0]),
    "fixed8": sm.LocalEnsemble.fixed_spectrum([-3, -1, -1, 0, 0.5, 1, 1, 2.5]),
}

# (ensemble, n_sites, beta, coupling_range, trials, keep_samples, seed)
CASES = [
    ("wishart", 3, 1, 2, 400, False, 1),
    ("wishart", 5, 1, 2, 300, False, 2),
    ("wishart", 5, 2, 2, 200, False, 3),
    ("wishart", 4, 1, 3, 200, False, 4),
    ("wishart", 4, 1, 2, 60, True, 5),
    ("wishart", 4, 2, 2, 40, True, 6),
    ("wishart2", 5, 1, 3, 30, True, 7),
    ("goe", 4, 1, 2, 300, False, 8),
    ("goe", 5, 2, 2, 200, False, 9),
    ("goe", 5, 1, 3, 100, False, 10),
    ("goe", 4, 1, 2, 50, True, 11),
    ("goe", 5, 2, 3, 20, True, 12),
    ("pm1", 5, 1, 2, 300, False, 13),
    ("pm1", 4, 2, 2, 200, False, 14),
    ("pm1", 5, 1, 2, 50, True, 15),
    ("pm1", 4, 2, 3, 40, True, 16),
    ("fixed", 5, 1, 2, 200, False, 17),
    ("fixed", 4, 2, 2, 40, True, 18),
    ("fixed8", 4, 1, 3, 100, False, 19),
    ("fixed8", 5, 2, 3, 20, True, 20),
    # several work items on either route
    ("wishart", 5, 1, 2, 1300, False, 21),
    ("pm1", 7, 1, 2, 20, True, 22),
]


def _case_id(case):
    ensemble, n_sites, beta, coupling_range, trials, keep, seed = case
    route = "kept" if keep else "moments"
    return f"{ensemble}-N{n_sites}-b{beta}-L{coupling_range}-{trials}-{route}-s{seed}"


def _numbers(case):
    """{kind: {stat: value}} of the case's pools, and "p": the empirical Slider weight."""
    ensemble, n_sites, beta, coupling_range, trials, keep, seed = case
    spec = sm.ChainSpec(n_sites=n_sites, site_dim=2, ensemble=_ENSEMBLES[ensemble],
                        beta=beta, coupling_range=coupling_range)
    pools = sm.ensemble_pools(spec, trials, sm.Rng(seed), keep_samples=keep)
    summaries = {k: pools[k].summary() for k in KINDS}
    numbers = {k: {s: summaries[k].stat(s) for s in STATS} for k in KINDS}
    numbers["p"] = _p_empirical([summaries[k] for k in ("quantum", "classical", "iso")])
    return numbers


def _close(got, want, scale):
    if want is None or got is None:
        return got is want
    return abs(got - want) <= 1e-10 * scale


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_numbers_stay_pinned(pinned, case):
    want, got = pinned[_case_id(case)], _numbers(case)
    for kind in KINDS:
        sigma2 = want[kind]["sigma2"]
        scales = {"mu": math.sqrt(sigma2), "sigma2": sigma2, "gamma1": 1.0, "gamma2": 1.0}
        for stat in STATS:
            assert _close(got[kind][stat], want[kind][stat], scales[stat]), \
                (kind, stat, got[kind][stat], want[kind][stat])
    assert _close(got["p"], want["p"], 1.0), (got["p"], want["p"])


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(map(_case_id, CASES))


if __name__ == "__main__":
    table = {_case_id(case): _numbers(case) for case in CASES}
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {PINNED}", file=sys.stderr)
