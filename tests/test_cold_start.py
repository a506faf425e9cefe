"""scipy is loaded by the first Haar matrix: the cold import graph, and a late LAPACK.

Each test runs a fresh interpreter, since the test session itself has long
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# loaded by scipy.linalg, or through its array-API shim
HEAVY = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.testing"]

_IMPORT_GRAPH = """
import json, sys
import spinmix
from spinmix import ChainSpec, LocalEnsemble, Rng, cli, spectra
for ensemble in (LocalEnsemble.wishart(4), LocalEnsemble.goe()):
    spectra.ensemble_pools(ChainSpec(5, 2, ensemble), 64, Rng(0))
codes = [cli.main(["slider", "--n-sites", "5", "--d", "2"]),
         cli.main(["reproduce", "N3", "--trials", "200"])]
cold = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
spectra.ensemble_pools(ChainSpec(5, 2, LocalEnsemble.pm1()), 16, Rng(0), keep_samples=True)
print(json.dumps({"codes": codes, "cold": cold, "haar": "scipy.linalg" in sys.modules}))
"""

# argv[1] "first" imports scipy.linalg before the package, "late" leaves it to
# the kept pool, whose chunk of two slices loads it inside a worker slice
_LATE_LAPACK = """
import collections, hashlib, json, os, sys
if sys.argv[1] == "first":
    import scipy.linalg
from spinmix import ChainSpec, LocalEnsemble, Rng, _workers, spectra
spectra.ensemble_pools(ChainSpec(3, 2, LocalEnsemble.wishart(4)), 2, Rng(0))
before = _workers.describe()["openblas_threads"]
loaded_before = "scipy.linalg" in sys.modules
pools = spectra.ensemble_pools(ChainSpec(7, 2, LocalEnsemble.wishart(4)), 32, Rng(5),
                               keep_samples=True)
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
print(json.dumps({"loaded_before": loaded_before, "before": before,
                  "after": _workers.describe()["openblas_threads"],
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
    assert out["codes"] == [0, 0]
    assert out["cold"] == []
    assert out["haar"], "a kept pm1 pool builds Haar matrices, so it loads scipy.linalg"


def test_late_lapack_keeps_the_thread_control_and_the_bits():
    late, first = _fresh(_LATE_LAPACK, "late"), _fresh(_LATE_LAPACK, "first")
    assert not late["loaded_before"] and first["loaded_before"]
    assert late["after"] == late["before"]
    # each OpenBLAS file is loaded once, scipy's by the pool and its LAPACK alike
    # (read from /proc/self/maps where there is one)
    assert set(late["loads"].values()) <= {1}
    assert late["loads"] == first["loads"]
    assert late["sha256"] == first["sha256"]
