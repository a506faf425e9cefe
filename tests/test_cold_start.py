"""The package loads no scipy: the cold import graph, and a kept pool's BLAS state.

Each test runs a fresh interpreter, since the test session itself may have
long imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# loaded by scipy.linalg, or through its array-API shim
HEAVY = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.testing"]

_IMPORT_GRAPH = """
import json, sys, tempfile
import spinmix
from spinmix import ChainSpec, LocalEnsemble, Rng, cli, spectra
for ensemble in (LocalEnsemble.wishart(4), LocalEnsemble.goe()):
    spectra.ensemble_pools(ChainSpec(5, 2, ensemble), 64, Rng(0))
codes = [cli.main(["slider", "--n-sites", "5", "--d", "2"]),
         cli.main(["reproduce", "N3", "--trials", "200"])]
cold = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
spectra.ensemble_pools(ChainSpec(5, 2, LocalEnsemble.pm1()), 16, Rng(0), keep_samples=True)
kept = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
with tempfile.TemporaryDirectory() as out:
    codes.append(cli.main(["run", "--ensemble", "pm1", "--n-sites", "4", "--d", "2",
                           "--trials", "20", "--out", out]))
ran = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
print(json.dumps({"codes": codes, "cold": cold, "kept": kept, "ran": ran}))
"""

# argv[1] "first" imports scipy.linalg before the package, "never" leaves it
# out; the kept pool streams its four items through the workers
_KEPT_POOL = """
import collections, hashlib, json, os, sys
if sys.argv[1] == "first":
    import scipy.linalg
from spinmix import ChainSpec, LocalEnsemble, Rng, _workers, spectra
spectra.ensemble_pools(ChainSpec(3, 2, LocalEnsemble.wishart(4)), 2, Rng(0))
before = _workers.describe()["openblas_threads"]
spec = ChainSpec(7, 2, LocalEnsemble.wishart(4))
pools = spectra.ensemble_pools(spec, 64, Rng(5), keep_samples=True)
h = hashlib.sha256()
for kind in ("classical", "iso", "quantum"):
    for a in (pools[kind].samples, pools[kind].moment_sums, pools[kind].block_sums):
        h.update(a.tobytes())
loads = collections.Counter()
if os.path.exists("/proc/self/maps"):
    for line in open("/proc/self/maps"):
        fields = line.split()
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            loads[fields[5]] += int(fields[2], 16) == 0
print(json.dumps({"scipy": "scipy" in sys.modules, "before": before,
                  "after": _workers.describe()["openblas_threads"],
                  "items": -(-64 // spectra._item_trials(spec, True, 64)),
                  "loads": loads, "sha256": h.hexdigest()}))
"""


def _fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_closed_forms_and_moments_only_pools_load_no_scipy():
    out = _fresh(_IMPORT_GRAPH, json.dumps(HEAVY))
    assert out["codes"] == [0, 0, 0]
    assert out["cold"] == []
    assert out["kept"] == [], "a kept pm1 pool builds its Haar matrices with numpy alone"
    assert out["ran"] == [], "run's provenance reads numpy alone"


@pytest.fixture(scope="module")
def never():
    return _fresh(_KEPT_POOL, "never")


def test_kept_pool_keeps_the_thread_count_and_the_bits(never):
    assert not never["scipy"]
    assert never["items"] > 1
    assert never["after"] == never["before"]
    # each OpenBLAS file is loaded once (read from /proc/self/maps where there
    # is one), and the pool loads no other
    assert set(never["loads"].values()) <= {1}


def test_kept_pool_keeps_the_bits_with_scipy_loaded_first(never):
    pytest.importorskip("scipy.linalg", reason="the 'first' case needs scipy, a test extra")
    first = _fresh(_KEPT_POOL, "first")
    assert first["scipy"]
    assert set(never["loads"]) <= set(first["loads"])
    assert never["sha256"] == first["sha256"]
