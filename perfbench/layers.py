"""Per-layer spans recorded from outside the package.

``instrumented(tracer)`` swaps public call sites of the package for timed
wrappers and puts the originals back on exit, so nothing under ``src/``
changes.  Layers are named after modules:

* ``constants``: ``compute_constants`` as ``search`` calls it;
* ``biharmonic.tone``: ``fundamental_tone`` as ``penalty`` calls it;
* ``biharmonic.assemble``: ``biharmonic._masked_bilap``;
* ``biharmonic.factor``: ``scipy.sparse.linalg.splu`` as ``biharmonic``
  calls it, through a proxy of its ``spla`` module;
* ``biharmonic.solve``: ``solve`` of the returned LU, through a proxy;
* ``search.step`` and ``search.candidates``: ``descent_step`` and
  ``candidate_masks``;
* ``diagnostics``: ``run_diagnostics`` as ``search`` calls it.

Spans stay in memory; ``summarize`` turns them into the per-layer metrics.
A span's self time is its duration minus that of its child spans.

This module imports nothing from the package at import time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Flat list of spans; each names the index of the span that caused it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else -1,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as span ``name``; ``note(rec, result)`` adds fields."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if note is not None:
                note(rec, out)
            return out
        return wrapper


class _LUProxy:
    """A SuperLU factor whose ``solve`` is timed."""

    def __init__(self, tracer: Tracer, lu):
        self._lu = lu
        self.solve = tracer.wrap("biharmonic.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaProxy:
    """``scipy.sparse.linalg`` with ``splu`` timed and its factor proxied."""

    def __init__(self, tracer: Tracer, spla):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, A, *args, **kwargs):
        with self._tracer.span("biharmonic.factor") as rec:
            lu = self._spla.splu(A, *args, **kwargs)
        rec["n"] = A.shape[0]
        rec["fill_nnz"] = lu.nnz        # stored entries of L and U
        return _LUProxy(self._tracer, lu)


def _note_count(rec, out):
    rec["count"] = len(out)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from platetone import biharmonic, penalty, search

    patches = [
        (search, "compute_constants", tracer.wrap("constants", search.compute_constants)),
        (search, "descent_step", tracer.wrap("search.step", search.descent_step)),
        (search, "candidate_masks",
         tracer.wrap("search.candidates", search.candidate_masks, _note_count)),
        (search, "run_diagnostics", tracer.wrap("diagnostics", search.run_diagnostics)),
        (penalty, "fundamental_tone",
         tracer.wrap("biharmonic.tone", penalty.fundamental_tone)),
        (biharmonic, "_masked_bilap",
         tracer.wrap("biharmonic.assemble", biharmonic._masked_bilap)),
        (biharmonic, "spla", _SplaProxy(tracer, biharmonic.spla)),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, wrapped in patches:
            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for mod, attr, orig in originals:
            setattr(mod, attr, orig)


# Layers whose self time is reported as a share of the traced wall.
SHARE_LAYERS = (
    "constants",
    "biharmonic.assemble",
    "biharmonic.factor",
    "biharmonic.solve",
    "biharmonic.tone",
    "search.candidates",
    "search.step",
    "diagnostics",
)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals from a span list holding one ``optimize`` root span.

    Returns, per layer name, ``<name>.s`` (all its spans), ``<name>.calls``
    and ``<name>.self_s``; ``<name>.root_self_s`` (self time inside the root
    only) feeds the shares of the root's duration ``root.s``.
    ``unaccounted.s`` is the root's own self time.
    """
    child_s = [0.0] * len(spans)
    top = [0] * len(spans)
    for i, rec in enumerate(spans):
        p = rec["parent"]
        if p >= 0:
            child_s[p] += rec["end"] - rec["start"]
            top[i] = top[p]
        else:
            top[i] = i
    roots = [i for i, rec in enumerate(spans) if rec["name"] == "optimize" and rec["parent"] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one optimize root span, found {len(roots)}")
    r = roots[0]
    out: dict[str, float] = {
        "root.s": spans[r]["end"] - spans[r]["start"],
        "unaccounted.s": spans[r]["end"] - spans[r]["start"] - child_s[r],
    }
    for i, rec in enumerate(spans):
        name = rec["name"]
        if rec["parent"] < 0:
            continue
        dur = rec["end"] - rec["start"]
        self_s = dur - child_s[i]
        for key, val in ((".s", dur), (".calls", 1), (".self_s", self_s),
                         (".root_self_s", self_s if top[i] == r else 0.0)):
            out[name + key] = out.get(name + key, 0) + val
        for field in ("n", "fill_nnz", "count"):
            if field in rec:
                out[f"{name}.{field}"] = out.get(f"{name}.{field}", 0) + rec[field]
        if "error" in rec:
            out[name + ".errors"] = out.get(name + ".errors", 0) + 1
    return out
