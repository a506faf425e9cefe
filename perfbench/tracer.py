"""Span tracing of spinmix's pipeline layers, installed from outside the package.

The pipeline looks each layer up as a module attribute at call time
(``chain_mod.draw_local_batch(...)``, ``matgen.haar_batch(...)``,
``np.linalg.eigvalsh(...)``, ``rng.substream(...)``), so replacing those
attributes with recording wrappers traces every call without touching the
package.  ``Tracer.installed()`` swaps the wrappers in and always restores the
originals, so code run outside it is untraced.

Each wrapper records a span (name, start, end, parent).  A layer's self time
is its duration minus the durations of its child spans; children run one
after another on the caller's thread, so their durations never overlap.
On the first call of each layer per traced operation the wrapper also checks
an exact identity of the layer's output; the check runs in its own
``check.*`` span so that its time is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref
from dataclasses import dataclass

import numpy as np

# eigvalsh is credited to the stage whose output it diagonalises
EIG_LOCAL = "chain.eig_local"
EIG_ISO = "spectra.eig_iso"
EIG_QUANTUM = "spectra.eig_quantum"
EIG_OTHER = "numpy.eigvalsh"

ORTHO_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    work: float = 0.0    # layer-specific amount: matrices, flops or bytes
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Records spans from wrappers around spinmix's layer entry points."""

    def __init__(self):
        self.spans = []
        self.failures = []       # messages from layer identity checks
        self.checks = 0
        self.missing = []        # layer attributes the package no longer has
        self._stack = []
        self._checked = set()    # layers already checked in this operation
        self._produced = {}      # stage name -> weakref to its last output

    # -- span bookkeeping --------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def new_operation(self):
        """Check each layer again on its first call in the next operation."""
        self._checked.clear()

    def _check(self, layer: str, fn, *args):
        if layer in self._checked:
            return
        self._checked.add(layer)
        with self.span("check." + layer):
            self.checks += 1
            problem = fn(*args)
        if problem:
            self.failures.append(f"{layer}: {problem}")

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], args, kwargs, out)
            return out

        return wrapper

    def _eigvalsh_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def eigvalsh(a, *args, **kwargs):
            idx = tracer.open(tracer.eig_stage(a))
            try:
                out = fn(a, *args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            m = a.shape[-1]
            span.work = float(np.prod(a.shape[:-2], dtype=float))
            span.flops = span.work * 4.0 / 3.0 * m ** 3
            return out

        return eigvalsh

    def eig_stage(self, a) -> str:
        """Stage credited with an eigvalsh call on `a`."""
        if self.parent_name() == "chain.draw_local_batch":
            return EIG_LOCAL
        for stage, eig in (("spectra.rotate", EIG_ISO),
                           ("chain.embed_sum_batch", EIG_QUANTUM)):
            ref = self._produced.get(stage)
            if ref is not None and ref() is a:
                return eig
        return EIG_OTHER

    def _remember(self, stage, out):
        self._produced[stage] = weakref.ref(out)

    # -- per-layer hooks ---------------------------------------------------
    def _after_haar(self, span, args, kwargs, out):
        count, dim = out.shape[0], out.shape[-1]
        span.work = float(count)
        span.flops = count * 8.0 / 3.0 * dim ** 3
        self._check(f"matgen.haar_batch[{dim}]", haar_defect, out[0])

    def _after_rotate(self, span, args, kwargs, out):
        count, m = out.shape[0], out.shape[-1]
        span.work = float(count)
        span.flops = count * 2.0 * m ** 3
        self._remember("spectra.rotate", out)
        self._check("spectra.rotate", rotate_defect, out[0], np.asarray(args[1])[0])

    def _after_embed(self, span, args, kwargs, out):
        dense = args[0]
        span.work = float(dense.nbytes + out.nbytes)
        self._remember("chain.embed_sum_batch", out)
        self._check("chain.embed_sum_batch", embed_defect, out, dense)

    @staticmethod
    def _after_draw(span, args, kwargs, out):
        span.work = float(args[1] if len(args) > 1 else kwargs["count"])

    @staticmethod
    def _after_pools(span, args, kwargs, out):
        span.work = float(args[1] if len(args) > 1 else kwargs["trials"])

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into spinmix and numpy; restore on exit."""
        from spinmix import chain, matgen, spectra
        from spinmix.rng import Rng

        targets = [
            (chain, "draw_local_batch", "chain.draw_local_batch", self._after_draw),
            (chain, "diagonals_from_eigs", "chain.diagonals_from_eigs", None),
            (chain, "embed_sum_batch", "chain.embed_sum_batch", self._after_embed),
            (matgen, "haar_batch", "matgen.haar_batch", self._after_haar),
            (spectra, "_rotate_diag", "spectra.rotate", self._after_rotate),
            (spectra, "_accumulate", "spectra.accumulate", None),
            (spectra, "ensemble_pools", "spectra.ensemble_pools", self._after_pools),
            (spectra, "histogram", "spectra.histogram", None),
            (spectra, "ks_distance", "spectra.ks_distance", None),
            (spectra, "gram_charlier_density", "spectra.gram_charlier_density", None),
            (Rng, "substream", "rng.substream", None),
        ]
        self.missing = [name for owner, attr, name, _ in targets if attr not in vars(owner)]
        saved = []
        try:
            for owner, attr, name, after in targets:
                if name in self.missing:
                    continue
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._wrap(name, vars(owner)[attr], after))
            saved.append((np.linalg, "eigvalsh", np.linalg.eigvalsh))
            np.linalg.eigvalsh = self._eigvalsh_wrapper(np.linalg.eigvalsh)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# exact identities at layer boundaries; each returns a message or None


def haar_defect(q):
    defect = float(np.abs(q.conj().T @ q - np.eye(q.shape[-1])).max())
    if defect > ORTHO_TOL:
        return f"Haar matrix not orthonormal (defect {defect:.3e})"
    return None


def rotate_defect(x, b):
    """Q† diag(b) Q must be Hermitian with trace Σb."""
    herm = float(np.abs(x - x.conj().T).max())
    if herm > HERMITIAN_TOL * max(1.0, float(np.abs(b).max())):
        return f"rotation output not Hermitian (defect {herm:.3e})"
    err = abs(complex(np.trace(x)) - float(np.sum(b)))
    if err > TRACE_TOL * max(1.0, float(np.abs(b).sum())):
        return f"rotation trace differs from sum(b) by {err:.3e}"
    return None


def embed_defect(out, dense):
    """tr(Σ_l I⊗h_l⊗I) = (m / d^L)·Σ_l tr(h_l) for every trial."""
    m, nloc = out.shape[-1], dense.shape[-1]
    local = np.trace(dense, axis1=-2, axis2=-1).sum(axis=1) * (m // nloc)
    scale = np.abs(np.diagonal(dense, axis1=-2, axis2=-1)).sum(axis=(1, 2)) * (m // nloc)
    err = np.abs(np.trace(out, axis1=-2, axis2=-1) - local)
    if np.any(err > TRACE_TOL * np.maximum(1.0, scale)):
        return f"embedded trace differs from (m/d^L)·Σ local traces by {float(err.max()):.3e}"
    return None


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass
class Totals:
    self_s: float = 0.0
    calls: int = 0
    work: float = 0.0
    flops: float = 0.0
    total_s: float = 0.0


def layer_totals(spans) -> dict:
    """Span name -> its spans' summed self time, calls, work, flops and time."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, Totals())
        t.self_s += own
        t.calls += 1
        t.work += span.work
        t.flops += span.flops
        t.total_s += span.duration
    return totals


def layer_metrics(spans, trials: int) -> dict:
    """Per-layer metrics of a traced run; layers never called read 0."""
    tot = layer_totals(spans)

    def get(name) -> Totals:
        return tot.get(name, Totals())

    def ms_per_trial(name):
        return 1e3 * get(name).self_s / trials

    def gflops(*names):
        secs = sum(get(n).self_s for n in names)
        return sum(get(n).flops for n in names) / secs / 1e9 if secs > 0 else 0.0

    chunks = get("chain.draw_local_batch").calls
    pools_calls = get("spectra.ensemble_pools").calls
    post = sum(get(n).total_s for n in ("spectra.histogram", "spectra.ks_distance",
                                        "spectra.gram_charlier_density"))
    cli_calls = get("cli.cmd_run").calls
    return {
        "matgen.haar_batch.ms_per_trial": ms_per_trial("matgen.haar_batch"),
        "matgen.haar_batch.matrices_per_trial": get("matgen.haar_batch").work / trials,
        "matgen.haar_batch.gflops": gflops("matgen.haar_batch"),
        "spectra.rotate.ms_per_trial": ms_per_trial("spectra.rotate"),
        "spectra.rotate.gflops": gflops("spectra.rotate"),
        "chain.embed_sum_batch.ms_per_trial": ms_per_trial("chain.embed_sum_batch"),
        "chain.embed_sum_batch.bytes_per_trial": get("chain.embed_sum_batch").work / trials,
        "chain.draw_local_batch.ms_per_trial": ms_per_trial("chain.draw_local_batch"),
        "chain.eig_local.ms_per_trial": ms_per_trial(EIG_LOCAL),
        "chain.diagonals_from_eigs.ms_per_trial": ms_per_trial("chain.diagonals_from_eigs"),
        "spectra.eig_iso.ms_per_trial": ms_per_trial(EIG_ISO),
        "spectra.eig_quantum.ms_per_trial": ms_per_trial(EIG_QUANTUM),
        "spectra.eig.gflops": gflops(EIG_ISO, EIG_QUANTUM),
        "spectra.accumulate.ms_per_trial": ms_per_trial("spectra.accumulate"),
        "spectra.ensemble_pools.self_ms_per_trial": ms_per_trial("spectra.ensemble_pools"),
        "spectra.chunks": chunks / pools_calls if pools_calls else 0.0,
        "spectra.chunk_trials": get("chain.draw_local_batch").work / chunks if chunks else 0.0,
        "rng.substream.calls_per_trial": get("rng.substream").calls / trials,
        "cli.postprocess.ms": 1e3 * post / cli_calls if cli_calls else 0.0,
        "cli.cmd_run.self_ms": 1e3 * get("cli.cmd_run").self_s / cli_calls if cli_calls else 0.0,
    }


def stage_shares(spans) -> dict:
    """Self time of each span name as a share of the root spans' time."""
    wall = sum(s.duration for s in spans if s.parent < 0)
    return {name: t.self_s / wall for name, t in sorted(layer_totals(spans).items())}
