"""Correctness gate applied to every benchmarked operation.

Each check returns a list of problems; an operation with any problem counts
as failed.  The closed-form comparison of ``spinmix reproduce`` is reported
as a count and never fails an operation (see ``closed_form_misses``).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

TRACE_RTOL = 1e-9
MASS_TOL = 1e-9
POOL_KINDS = ("classical", "iso", "quantum")
STATS = ("mu", "sigma2", "gamma1", "gamma2")


def _trace_identity(sums, counts, m2_sum) -> list:
    """Pooled λ¹ sums agree across the three pools.

    Every pool's λ¹ sum is the sum of the same chains' traces.  The tolerance
    is relative to sqrt(count·Σλ²) ≥ Σ|λ|, since Σλ itself can vanish (pm1).
    """
    scale = math.sqrt(counts["classical"] * m2_sum)
    problems = []
    for kind in ("iso", "quantum"):
        err = abs(sums[kind] - sums["classical"])
        if not err <= TRACE_RTOL * scale:
            problems.append(f"{kind}: pooled λ¹ sum differs from classical by "
                            f"{err:.3e} (scale {scale:.3e})")
    return problems


def check_pools(pools) -> list:
    """Gate for ``ensemble_pools`` output: finite moments, equal λ¹ sums."""
    summaries = {k: pools[k].summary() for k in POOL_KINDS}
    problems = []
    for kind, s in summaries.items():
        moments = (s.m1, s.m2, s.m3, s.m4, s.gamma1, s.gamma2)
        if not all(v is not None and math.isfinite(v) for v in moments):
            problems.append(f"{kind}: non-finite pooled moment {moments}")
    if problems:
        return problems
    counts = {k: pools[k].count for k in POOL_KINDS}
    return _trace_identity({k: summaries[k].m1 * counts[k] for k in POOL_KINDS},
                           counts, summaries["classical"].m2 * counts["classical"])


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_run_dir(out_dir: Path, n_bonds: int) -> list:
    """Gate for a ``spinmix run`` output directory of a ±1-spectrum chain.

    The run is made without --edges or --bins, so its bin edges are
    Freedman–Diaconis edges spanning exactly the smallest to the largest
    pooled eigenvalue; bounding the outer edges bounds every eigenvalue.
    """
    problems = []
    moments = {row["source"]: row for row in _read_csv(out_dir / "moments.csv")}
    stats = {}
    for kind in POOL_KINDS:
        try:
            stats[kind] = {s: float(moments[kind][s]) for s in STATS}
        except (KeyError, ValueError):
            problems.append(f"{kind}: missing moments row or statistic")
            continue
        if not all(math.isfinite(v) for v in stats[kind].values()):
            problems.append(f"{kind}: non-finite moment {stats[kind]}")
    if not problems:
        # means stand in for sums: all three pools hold trials·m values
        c = stats["classical"]
        problems += _trace_identity({k: stats[k]["mu"] for k in POOL_KINDS},
                                    {k: 1 for k in POOL_KINDS},
                                    c["sigma2"] + c["mu"] ** 2)

    dens = _read_csv(out_dir / "densities.csv")
    mass = {}
    for row in dens:
        mass[row["source"]] = mass.get(row["source"], 0.0) + float(row["mass"])
    for source, total in sorted(mass.items()):
        if not abs(total - 1.0) <= MASS_TOL:
            problems.append(f"{source}: masses sum to {total!r}")
    edges = [float(row[k]) for row in dens if row["source"] in POOL_KINDS
             for k in ("bin_left", "bin_right")]
    if not edges:
        problems.append("densities.csv has no pooled-source rows")
    elif max(abs(e) for e in edges) > n_bonds * (1 + TRACE_RTOL):
        problems.append(f"an eigenvalue exceeds n_bonds = {n_bonds} in magnitude "
                        f"(edges span {min(edges)!r}..{max(edges)!r})")
    return problems


def closed_form_misses(pools, n_sites: int, d: int = 2, r: int = 4, beta: int = 1):
    """(rows outside 3 s.e., rows) of ``spinmix reproduce``'s closed-form table.

    Reported, never a failure: below 50 trials every s.e. block holds one
    trial, so the block statistics measure within-trial shape and the 3 s.e.
    band is unreliable.
    """
    from spinmix import slider

    theory = slider.wishart_chain_stats(n_sites, d, r)
    dims = slider.SliderDims.odd_side(n_sites, d, beta)
    slid = slider.ensemble_slider(slider.wishart_moments(r, d * d, beta), dims)
    gamma2 = {"iso": slid.gamma2_iso, "quantum": slid.gamma2_quantum,
              "classical": slid.gamma2_classical}
    outside = rows = 0
    for stat in STATS:
        for kind in POOL_KINDS:
            th = gamma2[kind] if stat == "gamma2" else theory.stat(stat)
            pool = pools[kind]
            rows += 1
            if not abs(pool.summary().stat(stat) - th) <= 3.0 * pool.stderr(stat) + 1e-9:
                outside += 1
    return outside, rows
