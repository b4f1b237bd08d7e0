"""Outside-in span tracing for the traced benchmark run.

``Tracer`` wraps the layer functions as they are bound in
``repro.core.cleaner`` (plus the three public ``BClean`` methods) and
records one span per call: name, start, end and the index of the span
that was open when the call began. Spans stay in memory; ``run.py``
writes them out when the run ends. Nothing in ``src/`` is modified: the
patches are undone by ``Tracer.restore``.

Two calls need special handling, because their cost would otherwise
land in the wrong span:

* ``similarity_observations`` returns a lazy DataFrame whose work runs
  in the ``.toPandas()`` that ``BClean.fit`` calls on it. The tracer
  remembers the returned DataFrames and gives that collect its own
  ``structure.observations_collect`` span. PySpark 4 binds ``toPandas``
  on ``pyspark.sql.classic.dataframe.DataFrame``, so that is the class
  patched.
* ``mapInPandas`` workers import ``repro`` afresh, so driver-side
  wrappers never see the distributed kernel. Kernel and pruning counts
  come from ``count_calls`` around a single-process ``clean_batch``.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import pandas as pd

# (namespace attribute in repro.core.cleaner, span name)
CLEANER_FUNCS = [
    ("similarity_observations", "structure.similarity_observations"),
    ("learn_skeleton", "structure.learn_skeleton"),
    ("edge_determinism", "structure.edge_determinism"),
    ("corr_counts", "compensatory.corr_counts"),
    ("build_corr_index", "compensatory.build_corr_index"),
    ("cpt_counts", "cpt.cpt_counts"),
    ("value_counts", "cpt.value_counts"),
    ("build_vocab", "model.build_vocab"),
    ("build_cpt_table", "model.build_cpt_table"),
    ("build_child_views", "model.build_child_views"),
    ("run_inference", "inference.run_inference"),
]
BCLEAN_METHODS = [
    ("fit", "cleaner.fit"),
    ("clean", "cleaner.clean"),
    ("apply_network_edits", "cleaner.apply_network_edits"),
]


class Tracer:
    """Records spans around calls into the program's layers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._lazy_obs: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = orig(*args, **kwargs)
                if isinstance(out, pd.DataFrame):
                    rec["rows"] = len(out)
                return out

        self._patch(owner, attr, traced)

    def install(self):
        """Wrap every traced layer boundary; undo with ``restore``."""
        from pyspark.sql.classic.dataframe import DataFrame
        from repro.core import cleaner

        for attr, name in CLEANER_FUNCS:
            self.wrap(cleaner, attr, name)
        for attr, name in BCLEAN_METHODS:
            self.wrap(cleaner.BClean, attr, name)

        build_obs = cleaner.similarity_observations

        @functools.wraps(build_obs)
        def similarity_observations(*args, **kwargs):
            out = build_obs(*args, **kwargs)
            self._lazy_obs.append(out)
            return out

        self._patch(cleaner, "similarity_observations", similarity_observations)

        to_pandas = DataFrame.toPandas

        @functools.wraps(to_pandas)
        def toPandas(df, *args, **kwargs):
            if any(df is lazy for lazy in self._lazy_obs):
                with self.span("structure.observations_collect") as rec:
                    out = to_pandas(df, *args, **kwargs)
                    rec["rows"] = len(out)
                    return out
            return to_pandas(df, *args, **kwargs)

        self._patch(DataFrame, "toPandas", toPandas)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._lazy_obs.clear()

    # -- summaries ------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of all spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def rows(self, name: str) -> int:
        """Summed row counts of the pandas frames the named spans returned."""
        return sum(s.get("rows", 0) for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s["name"] == name}
        child = sum(s["end"] - s["start"] for s in self.spans
                    if s["parent"] in own)
        return self.total(name) - child

    def dump(self) -> list[dict]:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                for s in self.spans]


@contextmanager
def count_calls(module, names: list[str]):
    """Count calls to ``module.<name>`` for each name inside the block."""
    counts: Counter = Counter()
    saved = {n: getattr(module, n) for n in names}

    def counted(name, fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return inner

    for n, fn in saved.items():
        setattr(module, n, counted(n, fn))
    try:
        yield counts
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)
