"""Command-line front end: closed-form weights, experiment runs, table checks.

Subcommands
-----------
slider      print the analytic mixture weight for (N, d, beta) as JSON
run         sample classical/iso/quantum spectra and write CSV/JSON artifacts
reproduce   compare a d=2, r=4, beta=1 preset against its closed forms

``run`` writes densities.csv from each trial's sampled eigenvalues.  Its
moments.csv and ``p_empirical`` in summary.json come from each trial's
Σλ¹…Σλ⁴ given its local draw: averaged exactly over the permutations and
Haar rotations for the classical and isotropic spectra, exact for the
quantum one (``spectra.ensemble_pools``).  ``reproduce`` reads the same sums
and samples no eigenvalues.  Both commands print one moments report: each
pool's μ, σ², γ₁ and γ₂ with their jackknife s.e., from one leave-one-out
pass per pool.  ``reproduce`` adds the closed forms, a 3-s.e. verdict per
row and exit code 1.

Exit codes: 0 ok, 1 tolerance failure (reproduce), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import _workers
from . import slider as slider_mod
from . import spectra
from .chain import ChainSpec, LocalEnsemble
from .rng import Rng

_SOURCES = ("classical", "iso", "quantum", "ie", "gram_charlier")
_STATS = ("mu", "sigma2", "gamma1", "gamma2")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# slider


def cmd_slider(args) -> int:
    try:
        res = slider_mod.slider_p(args.n_sites, args.d, args.beta)
    except ValueError as exc:
        return _fail_usage(str(exc))
    except OverflowError:
        # blame --beta if the closed form holds at β = 1, else the size d^N
        try:
            slider_mod.slider_p(args.n_sites, args.d, 1.0)
        except OverflowError:
            return _fail_usage(f"--d {args.d} at --n-sites {args.n_sites} is too large: "
                               f"the closed form overflows a float")
        return _fail_usage(f"--beta {args.beta} is too large: "
                           f"the closed form overflows a float")
    dims = slider_mod.SliderDims.odd_side(args.n_sites, args.d, args.beta)
    out = {"p": res.p, "one_minus_p": res.one_minus_p,
           "k": dims.k, "n": dims.n, "m": dims.m}
    print(json.dumps(out, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# run


def _ensemble_from_args(args) -> LocalEnsemble:
    for flag, given, kind in (("--rank", args.rank is not None, "wishart"),
                              ("--balanced", args.balanced, "pm1"),
                              ("--spectrum-file", args.spectrum_file is not None, "fixed")):
        if given and args.ensemble != kind:
            raise ValueError(f"{flag} applies only to --ensemble {kind}")
    if args.ensemble == "wishart":
        if args.rank is None:
            raise ValueError("wishart ensemble needs --rank")
        return LocalEnsemble.wishart(args.rank)
    if args.ensemble == "goe":
        return LocalEnsemble.goe()
    if args.ensemble == "pm1":
        return LocalEnsemble.pm1()
    if args.ensemble == "fixed":
        if args.spectrum_file is None:
            raise ValueError("fixed ensemble needs --spectrum-file")
        try:
            with warnings.catch_warnings():
                # numpy warns of an empty file; it is refused below instead
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(args.spectrum_file, ndmin=1)
        except OSError as exc:
            raise ValueError(f"cannot read --spectrum-file: {exc}") from exc
        if values.size == 0:
            raise ValueError("--spectrum-file holds no values")
        if values.ndim != 1:
            raise ValueError(f"--spectrum-file must hold one row or one column of values, "
                             f"not {values.shape[0]} rows of {values.shape[1]}")
        ensemble = LocalEnsemble.fixed_spectrum(values)
        if values.min() == values.max():
            raise ValueError("--spectrum-file holds a constant spectrum: every chain "
                             "spectrum is then a point mass, whose gamma and "
                             "Gram-Charlier density are undefined")
        return ensemble
    raise ValueError(f"unknown ensemble {args.ensemble!r}")


def _check_run_args(args, m):
    """Check --seed, --trials and --bins and parse --edges (None if absent), before any work.

    `m` = d^N is the number of eigenvalues each trial adds to every pool.
    """
    _check_seed(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.trials * m > spectra._MAX_KEPT_VALUES:
        raise ValueError(f"--trials {args.trials} keeps {args.trials * m} eigenvalues per "
                         f"spectrum (d^N = {m} per trial), beyond the limit of "
                         f"{spectra._MAX_KEPT_VALUES}; use at most "
                         f"{spectra._MAX_KEPT_VALUES // m} trials")
    if args.bins is not None and args.bins < 1:
        raise ValueError("--bins must be >= 1")
    if args.bins is not None and args.bins > args.trials * m:
        raise ValueError(f"--bins {args.bins} exceeds the {args.trials * m} values one "
                         f"spectrum pools (--trials × d^N = {args.trials} × {m})")
    if args.bins is not None and args.edges:
        raise ValueError("--bins and --edges cannot be given together")
    if not args.edges:
        return None
    try:
        edges = np.array([float(v) for v in args.edges.split(",")])
    except ValueError as exc:
        raise ValueError(f"--edges: {exc}") from exc
    if not np.all(np.isfinite(edges)):
        raise ValueError("--edges must be finite")
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("--edges must be ascending with >= 2 entries")
    return edges


def _check_seed(seed):
    if seed < 0:
        raise ValueError("--seed must be >= 0")


def _finite_or_none(x):
    """Strict JSON has no NaN: an undefined number is written as null."""
    return x if x is not None and math.isfinite(x) else None


def _csv_text(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _jackknife_se(values):
    """Jackknife s.e. from a statistic's ``leave_one_out`` values; None where undefined.

    It is undefined where a left-out block leaves the statistic undefined (a
    None value) and below two blocks (NaN).
    """
    try:
        return _finite_or_none(spectra.jackknife_se(values))
    except ValueError:
        return None


def _moments_report(pools):
    """Each pool's summary, the s.e. of its μ, σ², γ₁ and γ₂, and its leave-one-out summaries.

    One leave-one-out pass per pool serves every s.e. that ``run`` and
    ``reproduce`` print.
    """
    summaries = {k: p.summary() for k, p in pools.items()}
    loo = {k: p.leave_one_out() for k, p in pools.items()}
    se = {k: {stat: _jackknife_se(s.stat(stat) for s in loo[k]) for stat in _STATS}
          for k in pools}
    return summaries, se, loo


def _moments_row(source, summary, se=None):
    """A moments.csv row: μ, σ², γ₁, γ₂ and their s.e., blank where undefined or absent."""
    cells = [summary.stat(stat) for stat in _STATS] + [(se or {}).get(stat) for stat in _STATS]
    return [source] + ["" if v is None else _fmt(v) for v in cells]


def _p_empirical(summaries):
    """Slider weight from the (quantum, classical, iso) kurtoses; None where one is
    undefined or the classical and isotropic ones coincide."""
    g2 = [s.gamma2 for s in summaries]
    try:
        return None if None in g2 else slider_mod.p_from_kurtoses(*g2)
    except ZeroDivisionError:
        return None


def _library_versions() -> dict:
    """numpy's version and the BLAS it was built against, as "name version"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):    # releases without a dict-valued config
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def cmd_run(args) -> int:
    t_start = time.time()
    try:
        spec = ChainSpec(n_sites=args.n_sites, site_dim=args.d, ensemble=_ensemble_from_args(args),
                         beta=args.beta, coupling_range=args.coupling_range)
        spec.check_dense_cap()
        if args.balanced:       # half −1 and half +1: a fixed spectrum
            if spec.local_dim % 2:
                raise ValueError(f"--balanced needs an even d^L, not {spec.site_dim}^"
                                 f"{spec.coupling_range} = {spec.local_dim}")
            half = spec.local_dim // 2
            spec = dataclasses.replace(
                spec, ensemble=LocalEnsemble.fixed_spectrum([-1.0] * half + [1.0] * half))
        edges = _check_run_args(args, spec.m)
        p_analytic = slider_mod.slider_p(spec.n_sites, spec.site_dim, spec.beta).p \
            if spec.coupling_range == 2 else None
    except ValueError as exc:
        return _fail_usage(str(exc))
    out_dir = Path(args.out)
    try:
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]     # deepest first
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file in the way: FileExistsError, NotADirectoryError
        return _fail_usage(f"--out {args.out}: cannot make the directory: {exc.strerror}")
    try:
        texts, outside = _run_texts(args, spec, edges, p_analytic, t_start)
    except ValueError:
        # no file is written before every text is made, so the directories
        # the run made are empty; a directory that was there stays
        for d in made:
            with contextlib.suppress(OSError):      # "a/.." is a's parent, not made
                d.rmdir()
        raise
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
    if any(outside.values()):
        print("warning: mass outside the edges, clipped into the end bins: "
              + ", ".join(f"{k} {v:.4g}" for k, v in outside.items())
              + "; the ks block compares the clipped densities", file=sys.stderr)
    return 0


def _run_texts(args, spec, edges, p_analytic, t_start):
    """The text of each file ``run`` writes, and each pool's mass outside the edges."""
    weight = p_analytic or 0.0      # all-isotropic beyond nearest neighbors
    pools = spectra.ensemble_pools(spec, args.trials, Rng(args.seed), keep_samples=True)

    if edges is None:       # one set of edges for every pool, from all their samples
        edges = spectra.bin_edges([p.samples for p in pools.values()], args.bins)
    hists = {k: spectra.histogram(p.samples, edges) for k, p in pools.items()}
    summaries, se, loo = _moments_report(pools)
    ie = slider_mod.ie_mixture(weight, hists["classical"], hists["iso"])
    gc = spectra.gram_charlier_density(summaries["quantum"], edges)
    densities = dict(hists, ie=ie, gram_charlier=gc)

    rows = []
    for source in _SOURCES:
        dens = densities[source]
        for left, right, mass in zip(dens.bin_edges[:-1], dens.bin_edges[1:], dens.masses):
            rows.append([source, _fmt(left), _fmt(right), _fmt(mass)])
    texts = {"densities.csv": _csv_text(["source", "bin_left", "bin_right", "mass"], rows)}

    mrows = [_moments_row(k, summaries[k], se[k]) for k in ("classical", "iso", "quantum")]
    mix_raw = [weight * getattr(summaries["classical"], f"m{j}")
               + (1 - weight) * getattr(summaries["iso"], f"m{j}") for j in (1, 2, 3, 4)]
    mrows.append(_moments_row("ie", spectra.MomentSummary.from_raw_moments(*mix_raw)))
    mrows.append(_moments_row("gram_charlier", summaries["quantum"]))
    texts["moments.csv"] = _csv_text(["source", *_STATS, *(f"{s}_se" for s in _STATS)], mrows)

    # histogram() counts values outside the edges into the end bins
    outside = {k: float(np.mean((p.samples < edges[0]) | (p.samples > edges[-1])))
               for k, p in pools.items()}
    summary = {
        "config": {
            "ensemble": spec.ensemble.describe(), "n_sites": spec.n_sites,
            "d": spec.site_dim, "coupling_range": spec.coupling_range,
            "beta": spec.beta, "trials": args.trials, "seed": args.seed,
        },
        "p_analytic": p_analytic,
        "p_empirical": None,
        "p_empirical_se": None,
        "ks": {f"{k}_vs_quantum": spectra.ks_distance(densities[k], densities["quantum"])
               for k in ("classical", "iso", "ie", "gram_charlier")},
        "trials": args.trials,
        "seed": args.seed,
        "wall_time_s": None,
        "provenance": {
            **_library_versions(), **_workers.describe(),
            "chunk_trials": spectra._item_trials(spec, True, args.trials),     # per work item
            "mass_outside_edges": outside,
        },
    }
    kinds = ("quantum", "classical", "iso")
    summary["p_empirical"] = _p_empirical([summaries[k] for k in kinds])
    if summary["p_empirical"] is not None:
        summary["p_empirical_se"] = _jackknife_se(_p_empirical(s)
                                                  for s in zip(*(loo[k] for k in kinds)))
    summary["wall_time_s"] = time.time() - t_start
    # every file's text is made before any file is opened, so a non-finite
    # number in the summary leaves no file
    texts["summary.json"] = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    return texts, outside


# ---------------------------------------------------------------------------
# reproduce

# default trial counts: each preset runs in under 1.5 s on 2 cores, and on
# seeds 0-4 its widest γ₂ 3-s.e. band is about half the smallest gap between
# its three γ₂ theory values or less; --trials sets the published counts
_PRESETS = {
    "N3": (3, 200_000),
    "N5": (5, 50_000),
    "N7": (7, 4_000),
    "N9": (9, 4_000),
    "N11": (11, 4_000),
}


def cmd_reproduce(args) -> int:
    n_sites, default_trials = _PRESETS[args.table]
    trials = default_trials if args.trials is None else args.trials
    if trials < 0 or trials == 1:
        return _fail_usage("--trials must be 0 (theory only) or >= 2: "
                           "a standard error needs two trials")
    _check_seed(args.seed)
    d, r, beta = 2, 4, 1
    spec = ChainSpec(n_sites=n_sites, site_dim=d, ensemble=LocalEnsemble.wishart(r), beta=beta)
    theory = slider_mod.wishart_chain_stats(n_sites, d, r)
    dims = slider_mod.SliderDims.odd_side(n_sites, d, beta)
    slid = slider_mod.ensemble_slider(slider_mod.wishart_moments(r, d * d, beta), dims)
    print(f"table {args.table}: wishart chain, d={d}, r={r}, beta={beta}, trials={trials}")
    if trials:
        summaries, se, _ = _moments_report(
            spectra.ensemble_pools(spec, trials, Rng(args.seed), keep_samples=False))
    # the "3 d.p." column is the theory at the precision of the paper's tables
    print(f"{'statistic':<10} {'ensemble':<10} {'theory':>12} {'3 d.p.':>8} "
          f"{'empirical':>12} {'3 s.e.':>10}")
    ok = True
    for stat in _STATS:
        for kind in ("iso", "quantum", "classical"):
            # μ, σ² and γ₁ are shared by the three spectra; γ₂ is each one's own
            t = getattr(slid, f"gamma2_{kind}") if stat == "gamma2" else theory.stat(stat)
            row = f"{stat:<10} {kind:<10} {t:>12.6f} {t:>8.3f}"
            if not trials:
                print(f"{row} {'-':>12} {'-':>10}")
                continue
            emp = summaries[kind].stat(stat)
            tol = None if se[kind][stat] is None else 3.0 * se[kind][stat] + 1e-9
            good = tol is not None and abs(emp - t) <= tol
            ok = ok and good
            flag = "" if good else "  <-- out of tolerance"
            print(f"{row} {emp:>12.6f} {'-' if tol is None else f'{tol:.4f}':>10}{flag}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slider", help="analytic mixture weight as JSON")
    p.add_argument("--n-sites", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=cmd_slider)

    p = sub.add_parser("run", help="sample spectra and write CSV/JSON artifacts")
    p.add_argument("--ensemble", choices=("wishart", "goe", "pm1", "fixed"),
                   required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--spectrum-file", default=None)
    p.add_argument("--balanced", action="store_true",
                   help="pm1 only: the fixed spectrum of half -1 / half +1")
    p.add_argument("--n-sites", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--range", dest="coupling_range", type=int, default=2)
    p.add_argument("--beta", type=int, choices=(1, 2), default=1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--edges", default=None,
                   help="comma-separated explicit bin edges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="check a preset against closed forms")
    p.add_argument("table", choices=sorted(_PRESETS))
    p.add_argument("--trials", type=int, default=None,
                   help="override the preset count; 0 prints theory only")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as "-2.5,-1.5" as a flag; bind it with '='
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--edges" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"--edges={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
