"""Front-end behavior: JSON output, artifact files, determinism, exit codes."""

import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spinmix as sm
from spinmix import _workers, spectra
from spinmix.cli import main


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_summary(out_dir):
    """summary.json parsed strictly: NaN and Infinity are not JSON."""
    return json.loads((out_dir / "summary.json").read_text(),
                      parse_constant=_reject_constant)


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "spinmix.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_slider_published_values():
    code, out, _ = run_cli("slider", "--n-sites", "5", "--d", "2", "--beta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["one_minus_p"] == pytest.approx(0.571832, abs=1e-6)
    assert (payload["k"], payload["n"], payload["m"]) == (2, 4, 32)
    # at least 12 significant digits survive the round trip
    assert abs(payload["one_minus_p"] - 2635 / 4608) < 1e-12

    code, out, _ = run_cli("slider", "--n-sites", "5", "--d", "2", "--beta", "2")
    assert json.loads(out)["one_minus_p"] == pytest.approx(0.639375, abs=1e-6)

    code, out, _ = run_cli("slider", "--n-sites", "3", "--d", "2", "--beta", "1")
    assert json.loads(out)["one_minus_p"] == pytest.approx(175 / 216, abs=1e-12)


def test_slider_usage_errors():
    assert run_cli("slider", "--n-sites", "2", "--d", "2")[0] == 2
    assert run_cli("slider", "--d", "2")[0] == 2
    assert run_cli("nonsense")[0] == 2


@pytest.mark.parametrize("n_sites", ["4", "5"])
@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_slider_rejects_non_finite_beta(n_sites, beta, capsys):
    assert main(["slider", "--n-sites", n_sites, "--d", "2", "--beta", beta]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("n_sites,d,beta,flag", [
    ("3", "2", "1e154", "--beta"), ("4", "2", "1e154", "--beta"),
    ("3", "9" * 300, "1", "--d"), ("1100", "2", "1", "--d")])
def test_slider_rejects_arguments_that_overflow(n_sites, d, beta, flag, capsys):
    assert main(["slider", "--n-sites", n_sites, "--d", d, "--beta", beta]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flag} ") and err.count("\n") == 1, err
    assert "overflows a float" in err


def _run_args(out_dir, seed=9, trials=2500):
    return ["run", "--ensemble", "pm1", "--n-sites", "3", "--d", "2",
            "--trials", str(trials), "--seed", str(seed),
            "--edges", "-2.5,-1.5,-0.5,0.5,1.5,2.5", "--out", str(out_dir)]


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "runA"
    assert main(_run_args(out)) == 0
    for name in ("densities.csv", "moments.csv", "summary.json"):
        assert (out / name).exists()

    lines = (out / "densities.csv").read_text().strip().splitlines()
    assert lines[0] == "source,bin_left,bin_right,mass"
    body = [ln.split(",") for ln in lines[1:]]
    sources = {row[0] for row in body}
    assert sources == {"classical", "iso", "quantum", "ie", "gram_charlier"}
    for source in sources:
        mass = sum(float(row[3]) for row in body if row[0] == source)
        assert abs(mass - 1.0) < 1e-9

    # the classical end of a ±1 chain occupies exactly three bins
    cls = [float(row[3]) for row in body if row[0] == "classical"]
    assert sum(m > 0 for m in cls) == 3

    summary = read_summary(out)
    assert summary["p_analytic"] == pytest.approx(41 / 216, rel=1e-12)
    assert set(summary["ks"]) == {"classical_vs_quantum", "iso_vs_quantum",
                                  "ie_vs_quantum", "gram_charlier_vs_quantum"}
    assert summary["p_empirical_se"] > 0

    prov = summary["provenance"]
    assert prov["numpy"] == np.__version__
    assert "scipy" not in prov
    assert prov["workers"] >= 1
    assert isinstance(prov["openblas_one_thread_per_worker"], bool)
    # numpy's BLAS, the library whose threads the workers control
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert prov["blas"] == f"{blas['name']} {blas['version']}"
    # the counts outside a fan-out, read back unchanged by the run
    assert prov["openblas_threads"] == [get() for get, _ in _workers._openblas_controls()]
    assert all(k >= 1 for k in prov["openblas_threads"])
    spec = sm.ChainSpec(n_sites=3, site_dim=2, ensemble=sm.LocalEnsemble.pm1())
    assert prov["chunk_trials"] == spectra._item_trials(spec, True, 2500)
    # |λ| <= 2 on a two-bond ±1 chain, inside the edges ±2.5
    assert prov["mass_outside_edges"] == {"classical": 0.0, "iso": 0.0, "quantum": 0.0}


def test_run_reports_mass_outside_edges(tmp_path):
    out = tmp_path / "narrow"
    args = _run_args(out, trials=300)
    args[args.index("--edges") + 1] = "-1,0,1"
    assert main(args) == 0
    pools = sm.ensemble_pools(sm.ChainSpec(n_sites=3, site_dim=2,
                                           ensemble=sm.LocalEnsemble.pm1()),
                              300, sm.Rng(9), keep_samples=True)
    clipped = read_summary(out)["provenance"]["mass_outside_edges"]
    for kind, pool in pools.items():
        assert clipped[kind] == np.mean(np.abs(pool.samples) > 1), kind
    assert clipped["quantum"] > 0


def test_run_warns_when_the_edges_clip(tmp_path, capsys):
    # edges right of every sample clip the whole of two pools and most of
    # the third: the run still exits 0 and writes its files, and says so
    out = tmp_path / "clipped"
    assert main(["run", "--ensemble", "goe", "--n-sites", "3", "--d", "2", "--trials", "5",
                 "--edges", "5,6", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    clipped = read_summary(out)["provenance"]["mass_outside_edges"]
    assert all(v > 0 for v in clipped.values())
    assert err.startswith("warning: ") and err.count("\n") == 1, err
    assert "ks block compares the clipped densities" in err
    for kind, mass in clipped.items():
        assert f"{kind} {mass:.4g}" in err
    assert (out / "densities.csv").exists()


def test_run_without_edges_prints_no_warning(tmp_path, capsys):
    # the default edges span every sample, so nothing is clipped
    args = _run_args(tmp_path / "default", trials=50)
    i = args.index("--edges")
    del args[i:i + 2]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    clipped = read_summary(tmp_path / "default")["provenance"]["mass_outside_edges"]
    assert clipped == {"classical": 0.0, "iso": 0.0, "quantum": 0.0}


def test_run_single_trial_writes_strict_json(tmp_path):
    out = tmp_path / "one"
    assert main(_run_args(out, trials=1)) == 0
    summary = read_summary(out)  # p_empirical_se was written as NaN
    assert summary["p_empirical_se"] is None
    rows = (out / "moments.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        assert "nan" not in row
        assert all(cells[f"{stat}_se"] == "" for stat in ("mu", "sigma2", "gamma1", "gamma2"))


def test_run_matches_slider_exactly(tmp_path):
    out = tmp_path / "runB"
    assert main(_run_args(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p_analytic"] == sm.slider_p(3, 2, 1).p


def test_run_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_run_args(out1)) == 0
    assert main(_run_args(out2)) == 0
    for name in ("densities.csv", "moments.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    out3 = tmp_path / "r3"
    assert main(_run_args(out3, seed=10)) == 0
    assert (out1 / "densities.csv").read_bytes() != (out3 / "densities.csv").read_bytes()


def test_run_usage_errors(tmp_path, capsys):
    args = _run_args(tmp_path / "x")
    args[2] = "wishart"  # wishart without --rank
    assert main(args) == 2
    assert main(["run", "--ensemble", "pm1", "--n-sites", "13", "--d", "2",
                 "--trials", "10", "--out", str(tmp_path / "y")]) == 2  # cap
    capsys.readouterr()
    assert main(["run", "--ensemble", "fixed", "--spectrum-file", str(tmp_path / "none.txt"),
                 "--n-sites", "3", "--d", "2", "--trials", "10",
                 "--out", str(tmp_path / "z")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read --spectrum-file") and err.count("\n") == 1
    for text, message in (("nan 0 1 2", "fixed spectrum values must be finite"),
                          ("1 inf 0 2", "fixed spectrum values must be finite"),
                          ("1 1 1 1", "--spectrum-file holds a constant spectrum"),
                          ("1 2\n3 4", "--spectrum-file must hold one row or one column"),
                          ("", "--spectrum-file holds no values")):
        spectrum = tmp_path / "spectrum.txt"
        spectrum.write_text(text + "\n")
        out = tmp_path / "fixed"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--ensemble", "fixed", "--spectrum-file", str(spectrum),
                         "--n-sites", "3", "--d", "2", "--trials", "10",
                         "--out", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not out.exists(), text

    # rejected before the output directory is made
    for flag, value, message in (("--trials", "0", "--trials must be >= 1"),
                                 ("--trials", "-3", "--trials must be >= 1"),
                                 ("--bins", "0", "--bins must be >= 1"),
                                 # more bins than the 2,500 × 8 values a spectrum pools
                                 ("--bins", "20001", "--bins 20001 exceeds the 20000 values"),
                                 # _run_args gives --edges, which --bins would contradict
                                 ("--bins", "5", "--bins and --edges cannot be given together"),
                                 ("--edges", "0,x", "--edges:"),
                                 ("--edges", "1,0", "--edges must be ascending"),
                                 ("--edges", "0,nan,40", "--edges must be finite"),
                                 ("--edges", "-inf,0,inf", "--edges must be finite"),
                                 ("--seed", "-1", "--seed must be >= 0"),
                                 # a two-site chain has no analytic weight
                                 ("--n-sites", "2", "need at least 3 sites")):
        out = tmp_path / f"bad{flag}{value}"
        args = _run_args(out)
        if flag in args:
            del args[args.index(flag):args.index(flag) + 2]
        args[-2:-2] = [f"{flag}={value}"]           # "=" lets a value start with "-"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2, (flag, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not out.exists(), (flag, value)

    # a file where --out, or a directory above it, should be
    in_the_way = tmp_path / "a_file"
    in_the_way.write_text("")
    for out, reason in ((in_the_way, "File exists"), (in_the_way / "below", "Not a directory")):
        assert main(_run_args(out)) == 2, out
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: cannot make the directory: {reason}\n", err
    assert in_the_way.read_text() == ""

    # a flag of another ensemble is an error, not ignored
    for ensemble, extra, message in (
            ("goe", ["--rank", "3"], "--rank applies only to --ensemble wishart"),
            ("wishart", ["--rank", "4", "--balanced"], "--balanced applies only to --ensemble pm1"),
            ("pm1", ["--spectrum-file", str(spectrum)],
             "--spectrum-file applies only to --ensemble fixed")):
        out = tmp_path / f"wrong_flag_{ensemble}"
        args = _run_args(out)
        args[2] = ensemble
        args[-2:-2] = extra
        assert main(args) == 2, extra
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err
        assert not out.exists(), extra

    # trials · d^N beyond what sample retention may hold: 140,000 · 2^10 > 2^27
    out = tmp_path / "too_many"
    assert main(["run", "--ensemble", "pm1", "--n-sites", "10", "--d", "2",
                 "--trials", "140000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trials 140000 keeps") and err.count("\n") == 1, err
    assert "use at most 131072 trials" in err
    assert not out.exists()


def test_run_beyond_nearest_neighbor(tmp_path):
    out = tmp_path / "L3"
    code = main(["run", "--ensemble", "wishart", "--rank", "8", "--n-sites", "4",
                 "--d", "2", "--range", "3", "--trials", "300", "--seed", "3",
                 "--bins", "24", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p_analytic"] is None  # all-isotropic regime, no mixture weight
    lines = (out / "densities.csv").read_text().strip().splitlines()[1:]
    ie = [ln.split(",")[3] for ln in lines if ln.startswith("ie,")]
    iso = [ln.split(",")[3] for ln in lines if ln.startswith("iso,")]
    assert ie == iso
    # the ie row's mu, sigma2, gamma1 and gamma2 are the iso row's
    rows = {row[0]: row[1:5]
            for row in csv.reader((out / "moments.csv").read_text().splitlines())}
    assert rows["ie"] == rows["iso"]


def test_reproduce_theory_only():
    code, out, _ = run_cli("reproduce", "N5", "--trials", "0")
    assert code == 0
    assert "16.000000" in out and "80.000000" in out and "0.716" in out
    assert "0.087" in out and "0.255" in out and "0.480000" in out


def test_reproduce_theory_only_n9():
    code, out, _ = run_cli("reproduce", "N9", "--trials", "0")
    assert code == 0
    for value in ("-0.164", "0.108", "0.240000"):
        assert value in out


def test_reproduce_usage_errors():
    for trials in ("1", "-1"):
        code, out, err = run_cli("reproduce", "N9", "--trials", trials)
        assert code == 2, trials
        assert out == "" and err.startswith("error: --trials must be 0") and \
            err.count("\n") == 1, err


def test_reproduce_rejects_negative_seed(capsys):
    # checked before the table header is printed
    assert main(["reproduce", "N3", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --seed must be >= 0\n", (out, err)


def test_reproduce_does_not_check_the_dense_cap(monkeypatch, capsys):
    # reproduce keeps no samples and forms no m×m matrix, so a cap below
    # its m = 8 does not stop it
    monkeypatch.setenv("IE_MAX_DIM", "4")
    assert main(["reproduce", "N3", "--trials", "8000", "--seed", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_reproduce_small_run_passes():
    code, out, _ = run_cli("reproduce", "N3", "--trials", "8000", "--seed", "2")
    assert code == 0, out


def test_reproduce_short_run_passes():
    # below 50 trials each s.e. block holds one trial; the jackknife s.e. is
    # still the error of the pooled statistic, not the spread of trial shapes
    code, out, _ = run_cli("reproduce", "N9", "--trials", "30", "--seed", "0")
    assert code == 0, out
