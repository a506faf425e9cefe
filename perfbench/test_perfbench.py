"""Tests of the benchmark's own code: span arithmetic, attribution, the gate.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from spinmix import ChainSpec, LocalEnsemble, Rng, chain, cli, matgen, spectra  # noqa: E402
from spinmix.rng import Rng as RngClass  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def small_pools(seed=3, trials=6):
    spec = ChainSpec(n_sites=3, site_dim=2, ensemble=LocalEnsemble.wishart(4))
    return spectra.ensemble_pools(spec, trials, Rng(seed))


def test_self_times_of_nested_spans():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("a.inner", 2.0, 3.0, 1),
             Span("b", 5.0, 9.0, 0),
             Span("root", 20.0, 21.0, -1)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    root = tracer.layer_totals(spans)["root"]
    assert root.self_s == pytest.approx(4.0)
    assert root.total_s == pytest.approx(11.0)
    assert root.calls == 2
    # self times add up to the roots' wall time
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_eigvalsh_attribution():
    tr = Tracer()
    tr.new_operation()
    with tr.installed():
        small_pools()
        np.linalg.eigvalsh(np.eye(3))
    names = [s.name for s in tr.spans]
    for stage in (tracer.EIG_LOCAL, tracer.EIG_ISO, tracer.EIG_QUANTUM, tracer.EIG_OTHER):
        assert names.count(stage) == 1, stage
    local = next(s for s in tr.spans if s.name == tracer.EIG_LOCAL)
    assert tr.spans[local.parent].name == "chain.draw_local_batch"
    for stage in (tracer.EIG_ISO, tracer.EIG_QUANTUM):
        span = next(s for s in tr.spans if s.name == stage)
        assert tr.spans[span.parent].name == "spectra.ensemble_pools"
        assert span.work == 6
    assert tr.checks == 3 and not tr.failures
    metrics = tracer.layer_metrics(tr.spans, trials=6)
    assert metrics["spectra.chunk_trials"] == 6
    assert metrics["spectra.chunks"] == 1
    assert metrics["matgen.haar_batch.matrices_per_trial"] == 1


def _wrapped_attributes():
    return {
        "draw": vars(chain)["draw_local_batch"],
        "diag": vars(chain)["diagonals_from_eigs"],
        "embed": vars(chain)["embed_sum_batch"],
        "haar": vars(matgen)["haar_batch"],
        "rotate": vars(spectra)["_rotate_diag"],
        "accumulate": vars(spectra)["_accumulate"],
        "pools": vars(spectra)["ensemble_pools"],
        "histogram": vars(spectra)["histogram"],
        "ks": vars(spectra)["ks_distance"],
        "gc": vars(spectra)["gram_charlier_density"],
        "substream": vars(RngClass)["substream"],
        "eigvalsh": np.linalg.eigvalsh,
    }


def test_wrappers_are_restored():
    before = _wrapped_attributes()
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            assert vars(matgen)["haar_batch"] is not before["haar"]
            assert np.linalg.eigvalsh is not before["eigvalsh"]
            raise RuntimeError("stop")
    with tr.installed():
        small_pools()
    after = _wrapped_attributes()
    assert all(after[k] is before[k] for k in before)
    assert tr.missing == []
    recorded = len(tr.spans)
    small_pools()
    assert len(tr.spans) == recorded


def test_layer_check_catches_a_broken_kernel(monkeypatch):
    def sloppy_haar(dim, beta, gen, count):
        q = haar(dim, beta, gen, count)
        q[:, 0, 0] += 1e-6
        return q

    haar = matgen.haar_batch
    monkeypatch.setattr(matgen, "haar_batch", sloppy_haar)
    tr = Tracer()
    tr.new_operation()
    with tr.installed():
        small_pools()
    assert any("not orthonormal" in f for f in tr.failures)


def test_identity_checks():
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    b = np.arange(6.0)
    assert tracer.haar_defect(q) is None
    assert tracer.haar_defect(q * 1.001) is not None
    x = q.T @ np.diag(b) @ q
    assert tracer.rotate_defect(x, b) is None
    assert tracer.rotate_defect(x + np.diag([1e-6] + [0] * 5), b) is not None
    y = x.copy()
    y[0, 1] += 1e-6
    assert tracer.rotate_defect(y, b) is not None
    spec = ChainSpec(n_sites=3, site_dim=2, ensemble=LocalEnsemble.wishart(4))
    _, dense = chain.draw_local_batch(spec, 2, Rng(1).substream(0))
    out = chain.embed_sum_batch(dense, spec)
    assert tracer.embed_defect(out, dense) is None
    out[1, 0, 0] += 1e-6
    assert tracer.embed_defect(out, dense) is not None


def test_gate_rejects_corrupted_pools():
    pools = small_pools()
    assert gate.check_pools(pools) == []
    pools["iso"].moment_sums[0] *= 1 + 1e-7
    assert any("iso" in p for p in gate.check_pools(pools))
    pools = small_pools()
    pools["quantum"].moment_sums[3] = np.nan
    assert any("quantum" in p for p in gate.check_pools(pools))


def test_gate_on_a_cli_run(tmp_path):
    out = tmp_path / "run"
    argv = ["run", "--ensemble", "pm1", "--n-sites", "4", "--d", "2",
            "--trials", "40", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert gate.check_run_dir(out, n_bonds=3) == []
    assert any("exceeds n_bonds" in p for p in gate.check_run_dir(out, n_bonds=1))

    dens = out / "densities.csv"
    lines = dens.read_text().splitlines()
    source, left, right, mass = lines[1].split(",")
    lines[1] = ",".join([source, left, right, repr(float(mass) + 1e-6)])
    dens.write_text("\n".join(lines) + "\n")
    assert any("masses sum" in p for p in gate.check_run_dir(out, n_bonds=3))

    moments = out / "moments.csv"
    text = moments.read_text().splitlines()
    cells = text[2].split(",")                  # the iso row
    cells[1] = repr(float(cells[1]) + 1e-3)
    text[2] = ",".join(cells)
    moments.write_text("\n".join(text) + "\n")
    assert any("λ¹" in p for p in gate.check_run_dir(out, n_bonds=3))


def test_closed_form_count_is_reported():
    spec = ChainSpec(n_sites=3, site_dim=2, ensemble=LocalEnsemble.wishart(4))
    pools = spectra.ensemble_pools(spec, 400, Rng(0))
    outside, rows = gate.closed_form_misses(pools, n_sites=3)
    assert rows == 12 and 0 <= outside <= rows
