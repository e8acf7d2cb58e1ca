"""Per-partition lineage + metrics checkpoint manifests (north rule; reference
analog: CheckpointManager TASK-025 tasks.md:789-810 + ProcessingState
design.md:243-253).

Layout (resumable output, SURVEY §4.2):

    out_dir/
      part=00042/data.parquet      # written to a temp name, atomic rename
      _manifests/part-00042.json   # written AFTER the data rename (atomic)

A partition is "completed" iff its manifest exists and parses; a rerun with
resume=True skips completed partitions without recomputing them, and every
run first prunes the partitions it does not reuse (`prune_partitions`), so
out_dir never mixes two partition layouts. Kernels are
deterministic, so a retried/resumed partition emits byte-identical output —
the checksum in the manifest makes silent divergence detectable.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import string_hash_strong

MANIFEST_DIR = "_manifests"


def partition_checksum(tbl: pa.Table) -> int:
    """Order-independent 64-bit checksum over (url, warc_ts) plus the feature
    vectors: xor of per-row hashes. Vectorized from the Arrow buffers — this
    runs inside the partition writer, so no per-row Python here."""
    if tbl.num_rows == 0:
        return 0
    uh = string_hash_strong(tbl.column("url"))
    ts = tbl.column("warc_ts").cast(pa.int64()).to_numpy().view(np.uint64)
    h = uh ^ (ts * np.uint64(0x9E3779B97F4A7C15))
    if "features" in tbl.column_names:
        feats = np.asarray(tbl.column("features").combine_chunks().flatten().to_numpy(zero_copy_only=False))
        width = feats.size // tbl.num_rows if tbl.num_rows else 0
        if width:
            fv = feats.reshape(tbl.num_rows, width)
            # NaN-stable: hash the raw bit patterns
            bits = fv.view(np.uint64)
            h = h ^ bits.sum(axis=1, dtype=np.uint64)
    return int(np.bitwise_xor.reduce(h))


def _prepare_dirs(out: Path, partition_id: int) -> tuple[Path, Path]:
    part_dir = out / f"part={partition_id:05d}"
    mdir = out / MANIFEST_DIR
    part_dir.mkdir(parents=True, exist_ok=True)
    mdir.mkdir(parents=True, exist_ok=True)
    # purge tmp files orphaned by a previous crashed write of this partition
    for stale in part_dir.glob(".tmp-*.parquet"):
        try:
            stale.unlink()
        except OSError:
            pass
    return part_dir, mdir


def write_partition(
    out_dir: str | Path,
    partition_id: int,
    tbl: pa.Table,
    metrics: dict,
) -> dict:
    """Atomically write one partition's parquet + manifest. Returns manifest."""
    out = Path(out_dir)
    part_dir, mdir = _prepare_dirs(out, partition_id)

    tmp = part_dir / f".tmp-{uuid.uuid4().hex}.parquet"
    pq.write_table(tbl, tmp)
    data_path = part_dir / "data.parquet"
    os.replace(tmp, data_path)

    watermark = None
    if tbl.num_rows and "warc_ts" in tbl.column_names:
        watermark = int(pa.compute.max(tbl.column("warc_ts").cast(pa.int64())).as_py())
    manifest = {
        "partition_id": int(partition_id),
        "rows_out": int(tbl.num_rows),
        "watermark_us": watermark,
        "checksum": f"{partition_checksum(tbl):016x}",
        "bytes_out": int(data_path.stat().st_size),
        "completed_at": time.time(),
        "output": str(data_path),
        **metrics,
    }
    if "wall_s" in manifest and "rows_in" in manifest and manifest["wall_s"]:
        manifest["rows_per_s"] = round(manifest["rows_in"] / manifest["wall_s"], 1)
    mtmp = mdir / f".tmp-{uuid.uuid4().hex}.json"
    mtmp.write_text(json.dumps(manifest))
    os.replace(mtmp, mdir / f"part-{partition_id:05d}.json")
    return manifest


def write_partition_stream(
    out_dir: str | Path,
    partition_id: int,
    chunks,
    metrics: dict,
    started_at: float | None = None,
) -> dict:
    """Incremental variant of write_partition: consumes an ITERATOR of feature
    tables (merge_partition_chunks) into a single parquet file via
    ParquetWriter, folding rows/watermark/checksum chunk-by-chunk — the whole
    partition output is never resident at once. The checksum is an xor-reduce
    of per-row hashes, so chunk-wise folding equals the one-shot value."""
    out = Path(out_dir)
    part_dir, mdir = _prepare_dirs(out, partition_id)

    tmp = part_dir / f".tmp-{uuid.uuid4().hex}.parquet"
    writer: pq.ParquetWriter | None = None
    rows = 0
    watermark: int | None = None
    checksum = 0
    try:
        for chunk in chunks:
            if writer is None:
                writer = pq.ParquetWriter(tmp, chunk.schema)
            writer.write_table(chunk)
            rows += chunk.num_rows
            checksum ^= partition_checksum(chunk)
            if chunk.num_rows and "warc_ts" in chunk.column_names:
                wm = int(pa.compute.max(chunk.column("warc_ts").cast(pa.int64())).as_py())
                watermark = wm if watermark is None else max(watermark, wm)
    finally:
        if writer is not None:
            writer.close()
    data_path = part_dir / "data.parquet"
    os.replace(tmp, data_path)
    manifest = {
        "partition_id": int(partition_id),
        "rows_out": rows,
        "watermark_us": watermark,
        "checksum": f"{checksum:016x}",
        "bytes_out": int(data_path.stat().st_size),
        "completed_at": time.time(),
        "output": str(data_path),
        **metrics,
    }
    # derived metrics are computed BEFORE the manifest hits disk, so resumed
    # runs see them too (a post-hoc dict update would be lost on resume)
    if "rows_in" in metrics:
        manifest["dup_dropped"] = int(metrics["rows_in"]) - rows
    if started_at is not None:
        wall = max(time.time() - started_at, 1e-9)
        manifest["wall_s"] = round(wall, 4)
        manifest["rows_per_s"] = round(metrics.get("rows_in", rows) / wall, 1)
    mtmp = mdir / f".tmp-{uuid.uuid4().hex}.json"
    mtmp.write_text(json.dumps(manifest))
    os.replace(mtmp, mdir / f"part-{partition_id:05d}.json")
    return manifest


def load_completed(out_dir: str | Path) -> dict[int, dict]:
    """partition_id -> manifest for every completed (manifest present) partition."""
    mdir = Path(out_dir) / MANIFEST_DIR
    done: dict[int, dict] = {}
    if not mdir.is_dir():
        return done
    for p in sorted(mdir.glob("part-*.json")):
        try:
            m = json.loads(p.read_text())
            done[int(m["partition_id"])] = m
        except (ValueError, KeyError):
            continue  # torn manifest -> treat as incomplete
    return done


def prune_partitions(out_dir: str | Path, keep) -> None:
    """Delete every manifest and part=NNNNN/ directory under out_dir whose
    partition id is not in `keep`, manifests first (a crash in between
    leaves data without a manifest: an incomplete partition). What is left
    is one partition layout, the one `keep` belongs to."""
    out = Path(out_dir)
    names = {f"{int(pid):05d}" for pid in keep}
    for m in out.glob(f"{MANIFEST_DIR}/part-*.json"):
        if m.stem.removeprefix("part-") not in names:
            m.unlink()
    for d in out.glob("part=*"):
        if d.name.removeprefix("part=") not in names:
            shutil.rmtree(d)


def job_report(manifests: list[dict], slow_threshold: float = 0.5) -> dict:
    """Global report = reduce over partition manifests (reference analog:
    ExecutionReport, design.md:1786-1792). Latency stats (SURVEY A1,
    design.md:2005-2061): per-partition wall aggregates + overall rows/s so
    stragglers are visible without scanning the manifest dir.

    Latency threshold predicate (reference analog: LatencyMonitor's
    sliding-window threshold check, design.md:2005-2061): partitions whose
    rows_per_s falls below slow_threshold x the run MEDIAN are flagged in
    `slow_partitions` — the straggler list a scheduler or operator would
    alert on — plus the median and cutoff used, so the flag is auditable."""
    import numpy as _np

    walls = [m.get("wall_s") for m in manifests if m.get("wall_s")]
    rows_in = sum(m.get("rows_in", 0) for m in manifests)
    rps = [
        (int(m["partition_id"]), float(m["rows_per_s"]))
        for m in manifests
        if m.get("rows_per_s") is not None and m.get("partition_id") is not None
    ]
    if rps:
        med = float(_np.median([v for _, v in rps]))
        cutoff = slow_threshold * med
        slow = sorted(pid for pid, v in rps if v < cutoff)
    else:
        med, cutoff, slow = None, None, []
    return {
        "rows_per_s_median": round(med, 1) if med is not None else None,
        "slow_cutoff_rows_per_s": round(cutoff, 1) if cutoff is not None else None,
        "slow_partitions": slow,
        "partitions": len(manifests),
        "rows_in": rows_in,
        "rows_out": sum(m.get("rows_out", 0) for m in manifests),
        "dup_dropped": sum(m.get("dup_dropped", 0) for m in manifests),
        "bytes_out": sum(m.get("bytes_out", 0) for m in manifests),
        "watermark_us": max((m.get("watermark_us") or 0) for m in manifests) if manifests else None,
        "wall_s_sum": round(sum(walls), 4) if walls else 0.0,
        "wall_s_max": round(max(walls), 4) if walls else 0.0,
        "rows_per_s_overall": round(rows_in / sum(walls), 1) if walls and sum(walls) else None,
    }
