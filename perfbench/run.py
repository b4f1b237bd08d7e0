"""Benchmark of record for BClean: fit / clean / edit latency and repair F1.

Run from the repository root::

    python3 perfbench/run.py --workload hospital --seed 1 --seconds 1 --trace 0

The benchmark drives ``BClean`` from outside through its public API
(``fit``, ``clean``, ``apply_network_edits``) on a single driver process
with a pinned ``local[N]`` Spark session, N = min(4, nproc).

Set-up (``setup_s``) is interpreter start, imports, JVM and session
start, workload generation and a cold fit + clean on a slice of the
workload (``warm_up``). One *pass* is then: a fresh ``BClean``, ``fit``
on the seeded dirty frame, ``CLEANS_PER_FIT`` ``clean`` calls, then the
workload's post-fit network edits, each followed by a ``clean``. Passes
repeat until ``--seconds`` have elapsed, at least one.

Every repaired frame is checked: same row count, tid set and columns
as the input; every changed cell takes a value from that attribute's
dirty domain; repeated cleans of one fit return the same frame;
precision / recall / F1 after fit and after each edit equal the
recorded values in ``expected.json`` when it has the seed, and agree
between the passes of one run. A miss counts as a failed pass and the
command exits non-zero.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes one untraced and one traced pass and prints the
per-layer metrics (see ``spans.py``). The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full
record of a run (environment, workload properties, per-pass timings
and, when traced, the spans) is written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.

``--record`` writes the first pass's scores to ``expected.json`` for
its seed; use it only when a change is meant to alter the repairs.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import platform
import shlex
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
# C1 only: the JIT settles after about one full pass. With the default
# tiered C2, successive fits in one JVM kept getting faster for four
# passes or more, and the one timed fit per run spread by about a quarter
# between runs (flights_edit, five seeds) against 2-3% with C1.
JVM_OPTIONS = "-XX:TieredStopAtLevel=1"
# Pinned here rather than taken from jobs/_common.get_spark (32 shuffle
# partitions, 16g driver, broadcast joins on) or the test conftest, so
# that a change to either does not silently move the benchmark.
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
    "spark.sql.session.timeZone": "UTC",
}
# Rows of the single-process clean_batch passes that time the kernel
# per variant; the base variant costs ~0.5 ms per cell.
KERNEL_ROWS = 200
WARM_UP_ROWS, WARM_UP_ATTRS = 100, 2
# clean is ~10x cheaper than fit; repeating it gives clean_s a median.
# Traced runs make three passes, so they clean once per fit to stay well
# inside a run's time limit.
CLEANS_PER_FIT = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    dataset: str
    variant: str
    edits_at_fit: bool
    # Post-fit network edits; each one is applied and followed by a clean.
    edits: Callable[[object], list[list[tuple]]]


def _toggle_first_edit(task) -> list[list[tuple]]:
    _, u, v = task.bn_edits[0]
    return [[("remove", u, v)], [("add", u, v)]]


def _paper_edits_one_at_a_time(task) -> list[list[tuple]]:
    return [[e] for e in task.bn_edits]


WORKLOADS = {
    # 1000x15, 5% noise, paper BN edits at fit: the widest schema, where
    # construction is most of the wall time. One of the paper's edges is
    # removed and re-added after fit, so the final network equals the fit
    # one and edit_s measures edit latency on 15 attributes.
    "hospital": Workload("hospital", "PI", True, _toggle_first_edit),
    # 2376x6, 30% noise, fit without edits, then the four paper edits
    # (flight -> *_time) one at a time, each followed by a clean: the
    # incremental CPT re-estimation and per-edit re-broadcast path.
    "flights_edit": Workload("flights", "PI", False,
                             _paper_edits_one_at_a_time),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# Spark session and environment
# ----------------------------------------------------------------------
def start_spark():
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; "
                         "run from the repository root")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Workers import repro afresh, so they need src on PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf " + shlex.quote(
            f"spark.driver.extraJavaOptions={JVM_OPTIONS} "
            f"-Djava.io.tmpdir={tmp}"),
        "pyspark-shell",
    ])
    sys.path.insert(0, str(SRC))
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark):
    """Stop the session and wait for the gateway JVM (and its Python
    workers) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway exits on EOF of its stdin
        proc.wait(timeout=60)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(spark) -> dict:
    import pyspark

    jvm = spark.sparkContext._jvm
    return {
        "master": spark.sparkContext.master,
        "nproc": os.cpu_count(),
        "driver_memory": DRIVER_MEMORY,
        "jvm_options": JVM_OPTIONS,
        "spark_conf": SPARK_CONF,
        "kernel_rows": KERNEL_ROWS,
        "warm_up_rows_attrs": [WARM_UP_ROWS, WARM_UP_ATTRS],
        "cleans_per_fit": CLEANS_PER_FIT,
        "pyspark": pyspark.__version__,
        "java": jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def reset_peak_rss() -> None:
    """Restart VmHWM at the current RSS (Linux clear_refs, value 5)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ----------------------------------------------------------------------
# One pass through the public API, and the output check
# ----------------------------------------------------------------------
def run_pass(spark, task, wl: Workload, label: str, cleans: int) -> dict:
    """fit -> clean x cleans -> (edit + clean)* on a fresh BClean.

    Each stage runs under its own Spark job group, named uniquely per
    pass, so the job counts are exact.
    """
    from repro.core.cleaner import BClean

    sc = spark.sparkContext
    tracker = sc.statusTracker()

    def stage(name, fn):
        group = f"{label}.{name}"
        sc.setJobGroup(group, group)
        t = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t
        return res, dt, len(tracker.getJobIdsForGroup(group))

    bc = BClean(wl.variant)
    fit_edits = task.bn_edits if wl.edits_at_fit else None
    _, fit_s, fit_jobs = stage("fit", lambda: bc.fit(
        spark, task.dirty, ucs=task.ucs, numeric_attrs=task.numeric_attrs,
        bn_edits=fit_edits))
    repeats, clean_s, clean_jobs = [], [], []
    for i in range(cleans):
        frame, dt, jobs = stage(f"clean{i}", bc.clean)
        repeats.append(frame)
        clean_s.append(dt)
        clean_jobs.append(jobs)
    frames = repeats[:1]
    edit_s, edit_jobs = [], 0
    for i, edit in enumerate(wl.edits(task)):
        def edit_then_clean(edit=edit):
            bc.apply_network_edits(edit)
            return bc.clean()
        frame, dt, jobs = stage(f"edit{i}", edit_then_clean)
        frames.append(frame)
        edit_s.append(dt)
        edit_jobs += jobs
    spark.catalog.clearCache()
    return {
        "bc": bc, "frames": frames, "repeats": repeats[1:],
        "fit_s": fit_s, "clean_s": clean_s, "edit_s": edit_s,
        "total_s": fit_s + sum(clean_s) + sum(edit_s),
        "fit_jobs": fit_jobs, "clean_jobs": clean_jobs[0],
        "edit_jobs": edit_jobs,
    }


def make_task(wl: Workload, seed: int):
    """The workload's dataset at its paper size with errors injected from
    ``seed``. The clean table is the one ``load_task`` makes for seed 0:
    the paper injects errors into one fixed table per dataset, so a seed
    varies the errors, not the world they are injected into."""
    from repro.datasets.errors import inject_errors
    from repro.datasets.registry import load_task
    from repro.datasets.ucs import ERROR_ATTRS

    task = load_task(wl.dataset, scale=1.0, seed=0)
    dirty, errors = inject_errors(
        task.clean, rate=task.noise_rate, types=task.error_types,
        seed=seed + 100, attrs=ERROR_ATTRS[wl.dataset])
    return dataclasses.replace(task, dirty=dirty, errors=errors)


def warm_up(spark, task, wl: Workload) -> None:
    """Cold fit + clean of BClean on a slice of the workload (its first
    WARM_UP_ROWS rows and WARM_UP_ATTRS attributes). It runs every Spark
    operator and Python kernel a pass uses, so the JVM compiles them and
    the Python workers start before any timed pass, at a fraction of a
    full cold pass."""
    from repro.core.cleaner import BClean

    attrs = task.attrs[:WARM_UP_ATTRS]
    dirty = task.dirty[["tid", *attrs]].head(WARM_UP_ROWS)
    bc = BClean(wl.variant).fit(
        spark, dirty, ucs={a: u for a, u in task.ucs.items() if a in attrs},
        numeric_attrs={a for a in task.numeric_attrs if a in attrs})
    bc.clean()
    spark.catalog.clearCache()


def frame_problems(task, frame, domains: dict[str, set]) -> list[str]:
    attrs = task.attrs
    dirty = task.dirty
    if list(frame.columns) != list(dirty.columns):
        return [f"columns {list(frame.columns)} != {list(dirty.columns)}"]
    if len(frame) != len(dirty):
        return [f"{len(frame)} rows != {len(dirty)}"]
    d = dirty.assign(tid=dirty["tid"].astype(str)).set_index("tid")[attrs]
    r = frame.assign(tid=frame["tid"].astype(str)).set_index("tid")[attrs]
    if set(r.index) != set(d.index) or not r.index.is_unique:
        return ["tid set differs from the input"]
    d = d.fillna("").astype(str)
    r = r.reindex(d.index).fillna("").astype(str)
    problems = []
    for a in attrs:
        changed = r.loc[r[a] != d[a], a]
        outside = [v for v in changed.unique() if v not in domains[a]]
        if outside:
            problems.append(
                f"{a}: {len(outside)} repaired values outside the dirty "
                f"domain, e.g. {outside[0]!r}")
    return problems


def pass_scores(task, frames) -> list[list[float]]:
    """[precision, recall, f1] after fit and after each edit."""
    from repro.eval.metrics import score_repair

    return [list(score_repair(task.clean, task.dirty, f).row())
            for f in frames]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def write_expected(data: dict) -> None:
    """One line per (workload, seed): [[precision, recall, f1], ...]."""
    blocks = []
    for wl, seeds in sorted(data.items()):
        rows = [f'  "{k}": {json.dumps(seeds[k])}'
                for k in sorted(seeds, key=int)]
        blocks.append(f' "{wl}": {{\n' + ",\n".join(rows) + "\n }")
    EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


# ----------------------------------------------------------------------
# Per-layer metrics of the traced run
# ----------------------------------------------------------------------
def distinct_pair_share(task) -> float:
    """Distinct / all unequal adjacent value pairs under each pivot sort,
    the share of the structure layer's edit-distance work that is not a
    repeat. Both workloads are within BClean's default ``struct_sample``,
    so structure learning sees every row."""
    df = task.dirty.astype(str)
    attrs = task.attrs
    unequal = 0
    distinct = set()
    for pivot in attrs:
        s = df.sort_values(pivot, kind="stable")
        for a in attrs:
            cur = s[a].to_numpy()[1:]
            prev = s[a].to_numpy()[:-1]
            diff = cur != prev
            unequal += int(diff.sum())
            lo = [min(x, y) for x, y in zip(cur[diff], prev[diff])]
            hi = [max(x, y) for x, y in zip(cur[diff], prev[diff])]
            distinct.update(zip([a] * len(lo), lo, hi))
    return len(distinct) / unequal if unequal else 0.0


def kernel_passes(task, bc, seed: int) -> dict:
    """Single-process clean_batch per variant on a fixed row sample."""
    from repro.core import inference

    from spans import count_calls

    rows = task.dirty.sample(n=min(KERNEL_ROWS, len(task.dirty)),
                             random_state=seed)
    cells = len(rows) * len(task.attrs)
    us = {}
    for variant in ("base", "PI", "PIP"):
        params = dataclasses.replace(bc.params, variant=variant)
        with count_calls(inference, ["tuple_filter",
                                     "domain_prune_mask"]) as counts:
            t = time.perf_counter()
            inference.clean_batch(rows, bc.model, params)
            us[variant] = (time.perf_counter() - t) / cells * 1e6
    # counts now holds the PIP pass, the only one that prunes
    return {"us_per_cell": us, "cells": cells,
            "cells_checked": counts["tuple_filter"],
            "cells_scored": counts["domain_prune_mask"]}


def layer_metrics(task, wl, tracer, traced, untraced, kernel) -> dict:
    from repro.eval.metrics import score_repair

    tr = tracer
    scores = traced["scores"]
    us = kernel["us_per_cell"]
    n_cells = len(task.dirty) * len(task.attrs)
    inf_s = tr.total("inference.run_inference")
    inf_calls = tr.calls("inference.run_inference")
    kernel_s = us[wl.variant] * n_cells / 1e6 * inf_calls
    m = {
        "spark.fit_jobs": (traced["fit_jobs"], "count"),
        "spark.clean_jobs": (traced["clean_jobs"], "count"),
        "spark.edit_jobs": (traced["edit_jobs"], "count"),
        "structure.observations_s": (
            tr.total("structure.similarity_observations")
            + tr.total("structure.observations_collect"), "s"),
        "structure.obs_rows": (
            tr.rows("structure.observations_collect"), "count"),
        "structure.distinct_pair_share": (distinct_pair_share(task),
                                          "fraction"),
        # One metric for the two driver-side steps: when no edge is
        # learned (flights_edit) edge_determinism is never called, and a
        # time of exactly 0 on every run is not a measurement.
        "structure.skeleton_s": (
            tr.total("structure.learn_skeleton")
            + tr.total("structure.edge_determinism"), "s"),
        "structure.edge_determinism_calls": (
            tr.calls("structure.edge_determinism"), "count"),
        "compensatory.corr_counts_s": (
            tr.total("compensatory.corr_counts"), "s"),
        "compensatory.corr_rows": (
            tr.rows("compensatory.corr_counts"), "count"),
        "compensatory.build_corr_index_s": (
            tr.total("compensatory.build_corr_index"), "s"),
        "cpt.cpt_counts_s": (tr.total("cpt.cpt_counts"), "s"),
        "cpt.cpt_counts_calls": (tr.calls("cpt.cpt_counts"), "count"),
        "cpt.value_counts_s": (tr.total("cpt.value_counts"), "s"),
        "model.build_s": (sum(tr.total(n) for n in (
            "model.build_vocab", "model.build_cpt_table",
            "model.build_child_views")), "s"),
        "model.pickled_bytes": (len(pickle.dumps(
            traced["bc"].model, protocol=pickle.HIGHEST_PROTOCOL)), "B"),
        "inference.run_inference_s": (inf_s, "s"),
        "inference.kernel_us_per_cell.base": (us["base"], "us"),
        "inference.kernel_us_per_cell.PI": (us["PI"], "us"),
        "inference.kernel_us_per_cell.PIP": (us["PIP"], "us"),
        "inference.base_over_pi": (us["base"] / us["PI"], "ratio"),
        "inference.base_over_pip": (us["base"] / us["PIP"], "ratio"),
        "inference.parallel_efficiency": (
            kernel_s / (inf_s * CORES), "fraction"),
        "inference.repairs": (score_repair(
            task.clean, task.dirty, traced["frames"][0]).n_modified, "count"),
        "pruning.cells_checked": (kernel["cells_checked"], "count"),
        "pruning.cells_scored": (kernel["cells_scored"], "count"),
        "pruning.skip_share": (
            1.0 - kernel["cells_scored"] / kernel["cells"], "fraction"),
        "cleaner.fit_self_s": (tr.self_time("cleaner.fit"), "s"),
        "cleaner.clean_self_s": (tr.self_time("cleaner.clean"), "s"),
        "cleaner.edit_self_s": (
            tr.self_time("cleaner.apply_network_edits"), "s"),
        "cleaner.edit_f1_gain": (scores[-1][2] - scores[0][2], "fraction"),
        "trace.overhead_s": (traced["total_s"] - untraced["total_s"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    spark = start_spark()
    try:
        return bench(spark, args, wl)
    finally:
        stop_spark(spark)


def bench(spark, args, wl: Workload) -> int:
    session_s = time.perf_counter() - T_START
    env = environment(spark)
    print("env " + json.dumps(env), flush=True)

    t = time.perf_counter()
    task = make_task(wl, args.seed)
    gen_s = time.perf_counter() - t
    t = time.perf_counter()
    warm_up(spark, task, wl)
    warm_s = time.perf_counter() - t
    attrs = task.attrs
    n_cells = len(task.dirty) * len(attrs)
    domains = {a: {v for v in task.dirty[a].astype(str).unique() if v != ""}
               for a in attrs}
    props = {
        "rows": len(task.dirty), "attributes": len(attrs), "cells": n_cells,
        "injected_error_share": float(
            (task.dirty[attrs].astype(str) != task.clean[attrs].astype(str))
            .to_numpy().mean()),
    }
    label = f"{args.workload}.s{args.seed}"
    attempted = failed = 0
    problems: list[str] = []
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "properties": props, "passes": []}

    def checked_pass(name, reference, tracer=None, cleans=CLEANS_PER_FIT):
        """Run and check one pass; None if it raised or failed a check."""
        nonlocal attempted, failed
        attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                res = run_pass(spark, task, wl, f"{label}.{name}", cleans)
            finally:
                if tracer is not None:
                    tracer.restore()
            bad = [p for f in res["frames"]
                   for p in frame_problems(task, f, domains)]
            if not all(f.equals(res["frames"][0]) for f in res["repeats"]):
                bad.append("repeated cleans of one fit differ")
            res["scores"] = pass_scores(task, res["frames"])
            if reference is not None and res["scores"] != reference:
                bad.append(f"scores {res['scores']} != {reference}")
        except Exception:  # one pass failing is reported, not fatal
            traceback.print_exc()
            bad = ["raised"]
            res = None
        record["passes"].append({
            "name": name, "problems": bad,
            **({k: res[k] for k in ("fit_s", "clean_s", "edit_s",
                                    "fit_jobs", "clean_jobs", "edit_jobs",
                                    "scores")} if res else {})})
        if bad:
            failed += 1
            problems.extend(f"{name}: {p}" for p in bad)
            return None
        return res

    # --record replaces the seed's entry, so the old one is not checked.
    expected = (None if args.record else
                load_expected().get(args.workload, {}).get(str(args.seed)))
    if args.trace:
        metrics = traced_run(args, wl, task, expected, checked_pass, record)
    else:
        metrics = timed_run(args, task, expected, checked_pass,
                            session_s + gen_s + warm_s, n_cells)
    if args.record and record["passes"][0]["problems"] == []:
        data = load_expected()
        data.setdefault(args.workload, {})[str(args.seed)] = (
            record["passes"][0]["scores"])
        write_expected(data)

    record["metrics"] = metrics
    record["problems"] = problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    for p in problems:
        print("FAILED " + p, flush=True)
    print("properties " + json.dumps(props))
    print(f"failed_share {failed / attempted:.4f} fraction "
          f"({failed} of {attempted} passes)")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 and metrics else 1


def timed_run(args, task, reference, checked_pass, setup_s, n_cells):
    """Passes until --seconds have elapsed, at least one."""
    reset_peak_rss()
    passes = []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < args.seconds:
        res = checked_pass(f"run{i}", reference)
        i += 1
        if res is not None:
            reference = res["scores"]
            del res["bc"], res["frames"], res["repeats"]
            passes.append(res)
        gc.collect()
    rss = peak_rss_mb()
    if not passes:
        return {}
    fit_s = statistics.median(p["fit_s"] for p in passes)
    clean_s = statistics.median(c for p in passes for c in p["clean_s"])
    edit_s = statistics.median(e for p in passes for e in p["edit_s"])
    precision, recall, f1 = passes[-1]["scores"][-1]
    m = {
        "setup_s": (setup_s, "s"),
        "fit_s": (fit_s, "s"),
        "clean_s": (clean_s, "s"),
        "edit_s": (edit_s, "s"),
        "cells_per_s": (n_cells / (fit_s + clean_s), "cells/s"),
        "f1": (f1, "fraction"),
        "precision": (precision, "fraction"),
        "recall": (recall, "fraction"),
        "driver_peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(args, wl, task, reference, checked_pass, record):
    """An untraced pass as in a timed run, which also finishes warming
    the JVM, then a traced and an untraced pass to compare."""
    from spans import Tracer

    first = checked_pass("first", reference, cleans=1)
    if first is None:
        return {}
    reference = first["scores"]
    del first
    gc.collect()
    tracer = Tracer()
    traced = checked_pass("traced", reference, tracer, cleans=1)
    record["spans"] = tracer.dump()
    untraced = checked_pass("untraced", reference, cleans=1)
    if traced is None or untraced is None:
        return {}
    del untraced["bc"], untraced["frames"], untraced["repeats"]
    bc = traced["bc"]
    kernel = kernel_passes(task, bc, args.seed)
    metrics = layer_metrics(task, wl, tracer, traced, untraced, kernel)
    fit = tracer.total("cleaner.fit")
    layers = fit - tracer.self_time("cleaner.fit")
    print(f"fit accounting: cleaner.fit span {fit:.3f} s = layer spans "
          f"{layers:.3f} s + fit self {fit - layers:.3f} s; "
          f"untraced fit_s {untraced['fit_s']:.3f} s", flush=True)
    record["properties"]["structure.distinct_pair_share"] = metrics[
        "structure.distinct_pair_share"]["value"]
    record["properties"]["pruning.skip_share"] = metrics[
        "pruning.skip_share"]["value"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
