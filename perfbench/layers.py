"""Per-layer probes of a traced run. Each probe calls one layer of the
package from outside — Ray-free on one core in this process, or through a
Ray Dataset whose operator stats are read afterwards — and returns the
layer's metrics. The same probes run in the traced run of every workload,
so each per-layer metric is always present."""

from __future__ import annotations

import glob
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import collect, critical_segments, operator_stats
from pages import PagesWorkload, manifest_checksums, remove_partitions, traced_run
from registry import ASOF_QUERIES, check_against, generate_events, iterative_probe, job_floor, oracle_hashes, resolve

PROBE_MIN_S = 0.3  # repeat each Ray-free call until this much time is measured

UNITS = {
    "text.extract.rows_per_s_core": "1/s",
    "text_stage.prepare.rows_per_s_core": "1/s",
    "text_stage.prepare.wall_s": "s",
    "text_stage.prepare.cpu_s": "s",
    "partition.assign.rows_per_s_core": "1/s",
    "partition.rows_max_over_median": "1",
    "partition.nonempty": "count",
    "features.run.wall_s": "s",
    "features.resume.wall_s": "s",
    "features.read.wall_s": "s",
    "features.prepare.wall_s": "s",
    "features.exchange.wall_s": "s",
    "features.merge_write.wall_s": "s",
    "features.exchange.bytes": "B",
    "trace.stage_sum_over_wall": "1",
    "kernels.merge.rows_per_s_core": "1/s",
    "kernels.merge.wall_s": "s",
    "checkpoint.write.rows_per_s_core": "1/s",
    "checkpoint.checksum.rows_per_s_core": "1/s",
    "checkpoint.write.bytes_out": "B",
    "checkpoint.load_completed.wall_s": "s",
    "checkpoint.partitions_resumed": "count",
    "checkpoint.rows_recomputed": "count",
    "checkpoint.resume_useful_frac": "1",
    **{f"events.{q}.wall_s": "s" for q in ASOF_QUERIES},
    "ray.job_floor.wall_s": "s",
    "search_dedup.dup_kcore.wall_s": "s",
    "search_dedup.near_dedup_keep.wall_s": "s",
    "ann.embedding_kcenter.wall_s": "s",
    "trace.overhead_frac": "1",
}


def rate(fn, rows: int) -> float:
    """Rows per second of one core running fn() back to back."""
    n, t0 = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= PROBE_MIN_S:
            return rows * n / dt


def _op(ops, prefix: str):
    found = [op for op in ops if op.operator_name.startswith(prefix)]
    if not found:
        raise RuntimeError(f"no Ray operator named {prefix}* in {[op.operator_name for op in ops]}")
    return found[0]


def kernel_rates(pages: PagesWorkload) -> dict[str, float]:
    """Ray-free rows/s per core of the extract, prepare, assign, merge,
    write and checksum layers, on the seeded fixture."""
    from audio_feature_extraction_ray.config import FeatureConfig
    from audio_feature_extraction_ray.functions.text import extract_text_arrow
    from audio_feature_extraction_ray.state.checkpoint import partition_checksum, write_partition_stream
    from audio_feature_extraction_ray.state.kernels import SignalsLookup, merge_partition_chunks
    from audio_feature_extraction_ray.state.partition import HashPartitioner
    from audio_feature_extraction_ray.stages.text_stage import assign_partition_batch, prepare_batch

    fcfg = FeatureConfig(signals_path=pages.signals_path)
    files = sorted(glob.glob(f"{pages.pages_dir}/*.parquet"))
    first = pq.read_table(files[0], columns=["url", "warc_ts", "html", "lang"])
    html, n = first.column("html"), first.num_rows
    prepared = pa.concat_tables(
        prepare_batch(pq.read_table(f, columns=["url", "warc_ts", "html", "lang"]), fcfg) for f in files
    )
    part = HashPartitioner(pages.cfg.engine.num_partitions)
    tagged = assign_partition_batch(prepared, part)
    # the fixed partition: partition 0 of the seeded fixture
    fixed = tagged.filter(pa.compute.equal(tagged.column("partition_id"), 0)).drop_columns(["partition_id"])
    signals = SignalsLookup(pq.read_table(pages.signals_path))
    merged = list(merge_partition_chunks(fixed, fcfg, signals))
    merged_tbl = pa.concat_tables(merged)
    scratch = Path(pages.out).parent / "probe-write"

    def write():
        write_partition_stream(scratch, 0, iter(merged), {"rows_in": fixed.num_rows})

    out = {
        "text.extract.rows_per_s_core": rate(lambda: extract_text_arrow(html), n),
        "text_stage.prepare.rows_per_s_core": rate(lambda: prepare_batch(first, fcfg), n),
        "partition.assign.rows_per_s_core": rate(lambda: assign_partition_batch(prepared, part), prepared.num_rows),
        "kernels.merge.rows_per_s_core": rate(
            lambda: list(merge_partition_chunks(fixed, fcfg, signals)), fixed.num_rows
        ),
        "checkpoint.write.rows_per_s_core": rate(write, merged_tbl.num_rows),
        "checkpoint.checksum.rows_per_s_core": rate(lambda: partition_checksum(merged_tbl), merged_tbl.num_rows),
    }
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def pipeline_layers(pages: PagesWorkload, tracer) -> tuple[dict[str, float], list[str], int]:
    """One traced full run, one traced resume and one feature_dataset pass
    over the fixture; metrics from their operator stats and manifests."""
    from audio_feature_extraction_ray.pipelines.features import feature_dataset
    from audio_feature_extraction_ray.state.checkpoint import load_completed

    errs: list[str] = []
    out = pages.out
    shutil.rmtree(out, ignore_errors=True)
    tracer.new_trace()
    report, wall, ops = traced_run(pages.cfg, tracer, "probe.features.run")
    segs = _named_segments(ops)
    stage_sum = sum(segs.values())
    if manifest_checksums(out) != pages.clean:
        errs.append("probe full run: checksums differ from the warm-up run")
    rows_in = np.array([m["rows_in"] for m in load_completed(out).values()], dtype=float)
    m = {
        "features.read.wall_s": segs["read"],
        "features.prepare.wall_s": segs["prepare"],
        "features.exchange.wall_s": segs["exchange"],
        "features.merge_write.wall_s": segs["merge_write"],
        "features.exchange.bytes": float(_op(ops, "SortMap").output_size_bytes["sum"]),
        "features.run.wall_s": wall,
        "trace.stage_sum_over_wall": stage_sum / wall,
        "partition.rows_max_over_median": float(rows_in.max() / np.median(rows_in)),
        "partition.nonempty": float((rows_in > 0).sum()),
        "checkpoint.write.bytes_out": float(report["bytes_out"]),
    }

    # read side of the checkpoint: every other partition removed, as a crash
    # before they completed would leave the output dir
    remove_partitions(out, pages.removed)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        done = load_completed(out)
        walls.append(time.perf_counter() - t0)
    m["checkpoint.load_completed.wall_s"] = float(np.median(walls))
    tracer.new_trace()
    rreport, m["features.resume.wall_s"], _ = traced_run(pages.resume_cfg, tracer, "probe.features.run.resume")
    after = load_completed(out)
    recomputed = sum(after[p]["rows_in"] for p in after if p not in done)
    m["checkpoint.partitions_resumed"] = float(rreport["resumed_partitions"])
    m["checkpoint.rows_recomputed"] = float(recomputed)
    m["checkpoint.resume_useful_frac"] = recomputed / pages.input_rows
    errs += resume_errors(pages, rreport)

    # prepare / merge busy time from the stats of the feature Dataset
    ds = feature_dataset(pages.cfg)
    with tracer.span("probe.feature_dataset"):
        rows = sum(b.num_rows for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"))
    if rows != pages.distinct_pairs:
        errs.append(f"feature_dataset produced {rows} rows, expected {pages.distinct_pairs}")
    fops = operator_stats(ds)
    prep = _op(fops, "MapBatches(prepare_batch)")
    merge = _op(fops, "MapBatches(group_fn)")
    m["text_stage.prepare.wall_s"] = float(prep.wall_time["sum"])
    m["text_stage.prepare.cpu_s"] = float(prep.cpu_time["sum"])
    m["kernels.merge.wall_s"] = float(merge.wall_time["sum"])
    return m, errs, 3


def resume_errors(pages: PagesWorkload, report: dict) -> list[str]:
    """A resumed run must reproduce the clean run's partitions exactly,
    leave no temp files and count no partition twice."""
    errs = []
    if manifest_checksums(pages.out) != pages.clean:
        errs.append("resume: checksums differ from the clean run")
    tmp = list(Path(pages.out).rglob(".tmp-*"))
    if tmp:
        errs.append(f"resume: {len(tmp)} .tmp-* files left behind")
    if report["partitions"] != len(pages.clean):
        errs.append(f"resume: report counts {report['partitions']} partitions, clean run had {len(pages.clean)}")
    expect = len(pages.clean) - len(pages.removed)
    if report["resumed_partitions"] != expect:
        errs.append(f"resume: {report['resumed_partitions']} partitions resumed, expected {expect}")
    if report["rows_in"] != pages.clean_report["rows_in"]:
        errs.append("resume: rows_in differs from the clean run, a partition was counted twice or lost")
    return errs


def _named_segments(ops):
    """Critical segments of features.run grouped into its stages: read,
    prepare (extract + partition tag), the sort exchange, merge + write."""
    groups = {"read": 0.0, "prepare": 0.0, "exchange": 0.0, "merge_write": 0.0}
    for name, dur in critical_segments(ops):
        if name.startswith("ReadParquet"):
            groups["read"] += dur
        elif name.startswith("MapBatches(prepare_batch)"):
            groups["prepare"] += dur
        elif name.startswith("Sort"):
            groups["exchange"] += dur
        elif name.startswith("MapBatches(group_fn)"):
            groups["merge_write"] += dur
        else:
            raise RuntimeError(f"unattributed Ray operator {name}")
    return groups


def registry_layers(work: Path, seed: int, rows: int, tracer) -> tuple[dict[str, float], list[str], int]:
    """Per-query walls of the registry_asof entries (second of two passes),
    the Ray job floor and the fixpoint entries."""
    queries, oracles = resolve(ASOF_QUERIES)
    data = work / "probe-tables"
    generate_events(data, seed, rows)
    want = oracle_hashes(data, ASOF_QUERIES, oracles)
    m: dict[str, float] = {}
    errs: list[str] = []
    for fn in queries.values():  # warm pass
        collect(fn(str(data)))
    tracer.new_trace()
    for name, fn in queries.items():
        with tracer.span("probe.events." + name):
            t0 = time.perf_counter()
            res = collect(fn(str(data)))
            m[f"events.{name}.wall_s"] = time.perf_counter() - t0
        errs += check_against(name, res, want)
    m["ray.job_floor.wall_s"] = job_floor(data, rows)
    tracer.new_trace()
    walls, ierrs, n_iter = iterative_probe(work, seed, tracer)
    m["search_dedup.dup_kcore.wall_s"] = walls["dup_kcore"]
    m["search_dedup.near_dedup_keep.wall_s"] = walls["near_dedup_keep"]
    m["ann.embedding_kcenter.wall_s"] = walls["embedding_kcenter"]
    return m, errs + ierrs, len(queries) + n_iter
