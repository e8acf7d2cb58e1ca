"""The flagship pipeline: pages Parquet -> point-in-time feature table.

Idiomatic Ray Data (SURVEY §3.4):

    read_parquet(columns pruned)                       # S1: projection pushdown
      -> map_batches(prepare_batch, pyarrow)           # M3/M4/M1: extract_text,
                                                       #   validate, per-row feats,
                                                       #   DROP html pre-shuffle
      -> map_batches(assign_partition, pyarrow)        # §4: url-hash or sampled
                                                       #   range bounds (+salting)
      -> exchange(partition_id, kernel)                # the ONE wide shuffle;
                                                       #   kernel = sort, dedup,
                                                       #   streaming merge, LOCF
      -> feature Dataset | per-partition parquet+manifest

The as-of right side (signals) is broadcast: ray.put once on the driver,
ray.get once per reduce block inside the kernel (a node-local object —
never re-shipped per batch). Resume: completed partitions (valid
manifest) are filtered out BEFORE the shuffle.

run() executes as two barrier phases, each with the whole cluster:

  1. read + prepare + partition tag, feeding the exchange's map side;
  2. the exchange's reduce side + block kernel (merge, parquet, manifest).

The exchange (`stages.exchange.exchange`) is a full barrier, so no kernel
task can start before phase 1 ends. It routes partition ids through fixed
boundaries into one reduce block per read block, capped at the partition
count (a one-block read becomes one `repartition(1)` block), and calls the
kernel once per block; the kernel merges each partition id of its block on
its own, so a partition is still the checkpoint unit. The read's block
count is therefore the task count on both sides.
`stages.exchange.read_num_blocks` picks it in three branches:

  * at least as many input files as cluster CPUs: one block per file, so
    Ray adds no SplitBlocks(k) whose read generators would hold CPU slots
    while they wait for a consumer;
  * fewer parquet files: ceil(footer bytes / target_min_block_size) blocks
    when that is below 2 x CPUs, so a small input is not cut into 2 x CPUs
    blocks whose per-task overhead exceeds their work;
  * otherwise Ray picks the count and splits the files, so a large one-file
    input still gets a prepare task per CPU; the plan then cannot predict
    the block count, and the exchange samples its boundaries as Ray's sort
    does.

run() also turns off Ray Data's per-operator reservation
(op_resource_reservation_enabled) on its own Dataset: it keeps half the
CPUs split evenly across read, prepare, exchange and kernel, which across a
barrier only idles cores. The switch is set on that Dataset's copy of the
DataContext, never the caller's. feature_dataset() keeps the reservation:
its lazy Dataset goes to callers who may chain more operators onto it,
where the reservation protects streaming stages.

Trade-off: with at least one file per CPU, parallelism in phase 1 is the
file count, so uneven file sizes mean uneven prepare tasks; set
engine.read_num_blocks to split them.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import FeatureConfig, PipelineConfig
from ..functions.hashing import string_hash_strong
from ..state.checkpoint import job_report, load_completed, write_partition, write_partition_stream
from ..state.kernels import SignalsLookup, merge_partition, merge_partition_chunks
from ..state.partition import HashPartitioner, HostSaltPartitioner, RangePartitioner
from ..stages.exchange import exchange, read_num_blocks
from ..stages.text_stage import assign_partition_batch, prepare_batch

INPUT_COLUMNS = ["url", "warc_ts", "html", "lang"]  # prune `text` at the read


# file endings each input format reads (gzip variants decode transparently)
_INPUT_EXTS = {
    "parquet": (".parquet",),
    "jsonl": (".jsonl", ".json", ".jsonl.gz", ".json.gz"),
    "csv": (".csv", ".csv.gz"),
}


def _input_files(cfg: PipelineConfig) -> list[str]:
    """The one listing of the input: the files of cfg.input_format directly
    under input_path, sorted, or input_path itself when it names a file."""
    import glob as _glob

    ext = _INPUT_EXTS[cfg.input_format]
    return sorted(p for p in _glob.glob(f"{cfg.input_path}/*") if p.endswith(ext)) or [
        cfg.input_path
    ]


def _input_columns(files: list[str]) -> list[str]:
    """Projection for the read: required columns plus `lang` when present
    (prepare_batch substitutes nulls for a missing lang)."""
    try:
        names = set(pq.read_schema(files[0]).names)
    except OSError:
        return INPUT_COLUMNS
    return [c for c in INPUT_COLUMNS if c in names or c != "lang"]


def _input_row_count(files: list[str]) -> int | None:
    """Exact input row count from parquet footers — no data read. None for
    inputs without footers (jsonl/csv, or a path that is not there)."""
    try:
        return sum(pq.read_metadata(p).num_rows for p in files)
    except (OSError, pa.ArrowInvalid):
        return None


def _read_num_blocks(cfg: PipelineConfig, files: list[str]) -> int | None:
    """Block count of the input read: engine.read_num_blocks when set, else
    the shared rule of stages.exchange.read_num_blocks (one block per file
    when the files cover every cluster CPU; a footer-sized count for a small
    parquet input; None, so Ray splits, for everything else)."""
    return cfg.engine.read_num_blocks or read_num_blocks(files)


def _read_input(cfg: PipelineConfig) -> ray.data.Dataset:
    """Format-dispatched source (SURVEY §2.1 S1/S4 input side). Parquet is
    the scale path: columnar, projection pushed into the read. jsonl/csv are
    ingest-compatibility paths — whole records are decoded, then projected
    and normalized (warc_ts parsed to timestamp[us]) in a map stage, since
    row formats cannot prune columns before decode."""
    fmt = cfg.input_format
    files = _input_files(cfg)
    num_blocks = _read_num_blocks(cfg, files)
    if fmt == "parquet":
        return ray.data.read_parquet(
            cfg.input_path,
            columns=_input_columns(files),
            override_num_blocks=num_blocks,
        )
    if fmt == "jsonl":
        ds = ray.data.read_json(files, override_num_blocks=num_blocks)
    else:
        from pyarrow import csv as _pacsv

        ds = ray.data.read_csv(
            files,
            override_num_blocks=num_blocks,
            # html payloads embed newlines inside quoted fields
            parse_options=_pacsv.ParseOptions(newlines_in_values=True),
        )

    def project(tbl: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array | pa.ChunkedArray] = {}
        for c in INPUT_COLUMNS:
            if c not in tbl.column_names:
                continue  # prepare_batch substitutes nulls for missing lang
            col = tbl.column(c)
            if c == "warc_ts":
                col = col.cast(pa.timestamp("us"))  # ISO string or coarser unit
            cols[c] = col
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


def _build_partitioner(cfg: PipelineConfig):
    e = cfg.engine
    if e.partitioner == "hash":
        return HashPartitioner(e.num_partitions)
    # range: driver-side url sample -> bounds (+ hot-range salting).
    # Row count comes from parquet FOOTERS and the sample from a raw
    # column-pruned read — never from the prepared dataset, which would
    # execute the whole extract stage once just to count (round-1 verdict #4)
    n = _input_row_count(_input_files(cfg)) or 1
    frac = min(1.0, e.range_sample_size / max(1, n))
    sample = (
        ray.data.read_parquet(cfg.input_path, columns=["url"])
        .random_sample(frac, seed=7)
        .take_all()
    )
    urls = [r["url"] for r in sample]
    return RangePartitioner.from_sample(urls, e.num_partitions, hot_salt=e.hot_salt)


def _partition_runs(tbl: pa.Table):
    """Zero-copy slices of a partition_id-sorted block, one per partition id."""
    pid = tbl.column("partition_id").to_numpy()
    cuts = [0, *(np.flatnonzero(pid[1:] != pid[:-1]) + 1).tolist(), tbl.num_rows]
    for a, b in zip(cuts[:-1], cuts[1:]):
        yield tbl.slice(a, b - a)


def _concat(tables) -> pa.Table:
    return pa.concat_tables(list(tables), promote_options="default")


def _make_group_fn(fcfg: FeatureConfig, signals_ref, output_dir: str | None, lineage: dict | None = None):
    """Block kernel; one call per reduce block of the exchange, which holds
    whole partitions sorted by partition_id. Each partition is merged (and
    written, with its manifest) on its own: a partition id stays the
    checkpoint unit. Pure + deterministic -> safe under Ray task retries."""

    def group_fn(block: pa.Table) -> pa.Table:
        signals = ray.get(signals_ref) if signals_ref is not None else None
        return _concat(merge_one(tbl, signals) for tbl in _partition_runs(block))

    def merge_one(tbl: pa.Table, signals) -> pa.Table:
        t0 = time.time()
        pid = int(tbl.column("partition_id")[0].as_py())
        rows_in = tbl.num_rows
        tbl = tbl.drop_columns(["partition_id"])
        if output_dir is not None and not fcfg.emit_labels:
            # bounded-memory path: stream chunks straight into the parquet
            # writer — the partition's output is never resident at once.
            # dup_dropped / wall_s / rows_per_s are computed INSIDE the writer
            # so the on-disk manifest carries them (resume reads it back)
            manifest = write_partition_stream(
                output_dir,
                pid,
                merge_partition_chunks(tbl, fcfg, signals),
                {"rows_in": rows_in, **(lineage or {})},
                started_at=t0,
            )
            return pa.table({k: [v] for k, v in manifest.items() if k not in ("output",)})
        out = merge_partition(tbl, fcfg, signals)
        dup_dropped = rows_in - out.num_rows
        if output_dir is not None:
            manifest = write_partition(
                output_dir,
                pid,
                out,
                {"rows_in": rows_in, "dup_dropped": dup_dropped, "wall_s": round(time.time() - t0, 4), **(lineage or {})},
            )
            return pa.table({k: [v] for k, v in manifest.items() if k not in ("output",)})
        return out

    return group_fn


def _load_signals(fcfg: FeatureConfig):
    if fcfg.signals_path is None:
        return None
    return ray.put(SignalsLookup(pq.read_table(fcfg.signals_path)))


def build_dataset(cfg: PipelineConfig) -> tuple[ray.data.Dataset, HashPartitioner | RangePartitioner]:
    """Lazy Dataset of prepared + partition-tagged rows (pre-shuffle), and
    the partitioner that tagged them."""
    cfg.validate()
    ds = _read_input(cfg)
    prep = functools.partial(prepare_batch, cfg=cfg.features)
    ds = ds.map_batches(prep, batch_format="pyarrow", batch_size=cfg.engine.batch_size)
    partitioner = _build_partitioner(cfg)
    ds = ds.map_batches(
        functools.partial(assign_partition_batch, partitioner=partitioner),
        batch_format="pyarrow",
        batch_size=cfg.engine.batch_size,
    )
    return ds, partitioner


def _tagged_input(cfg: PipelineConfig, copart: bool) -> tuple[ray.data.Dataset, int]:
    """The partition-tagged rows the exchange routes, and how many partition
    ids they can carry."""
    if copart:
        ds, partitioner = build_copartitioned(cfg)
        return ds, partitioner.total_partitions
    ds, partitioner = build_dataset(cfg)
    return ds, partitioner.num_partitions


def feature_dataset(cfg: PipelineConfig) -> ray.data.Dataset:
    """Full pipeline returning the feature table as a (lazy) Dataset."""
    copart = _use_copartition(cfg)
    ds, parts = _tagged_input(cfg, copart)
    if copart:
        fn = _make_copart_group_fn(cfg.features, output_dir=None)
    else:
        fn = _make_group_fn(cfg.features, _load_signals(cfg.features), output_dir=None)
    return exchange(ds, "partition_id", fn, parts, order=("partition_id",))


# ---------------------------------------------------------------------------
# Co-partitioned as-of path (SURVEY §2.5 J2, large right side): pages and
# signals are routed by the SAME host hash into one union -> ONE shuffle ->
# per-partition kernel builds a local SignalsLookup from its own signal rows.
# No broadcast: each merge task fetches only its partition's signals. Hot
# hosts are salted by url-hash with their signals replicated to every salt
# (replicated-skew-join: correct because LOCF only READS the right side).

_SIG_NULL_COLS = ("sig_ts", "sig_rank", "sig_ok")


def _tag_pages_batch(tbl: pa.Table, partitioner: HostSaltPartitioner) -> pa.Table:
    pid = partitioner.partition_ids(tbl.column("host"), tbl.column("url"))
    n = tbl.num_rows
    return pa.table(
        {
            "url": tbl.column("url"),
            "warc_ts": tbl.column("warc_ts"),
            "host": tbl.column("host"),
            "text": tbl.column("text"),
            "lang": tbl.column("lang"),
            "partition_id": pa.array(pid, pa.int32()),
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
            "sig_ts": pa.nulls(n, pa.int64()),
            "sig_rank": pa.nulls(n, pa.float64()),
            "sig_ok": pa.nulls(n, pa.float64()),
        }
    )


def _replicate_signals_batch(tbl: pa.Table, partitioner: HostSaltPartitioner) -> pa.Table:
    """Vectorized: normal hosts route in one hash call; only rows of HOT
    hosts (a handful by construction) fan out to their salt block.

    Runs INSIDE workers — no call-time relative imports here (the package
    ships pickle-by-value, so a lazy `from ..x import y` would raise
    ModuleNotFoundError whenever the driver's cwd is outside the repo)."""
    import pyarrow.compute as pc

    hosts = tbl.column("host")
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    nrows = len(hosts)
    base_pid = (
        string_hash_strong(hosts) % np.uint64(partitioner.num_partitions)
    ).astype(np.int64)
    if partitioner.hot_hosts:
        hot_idx = (
            pc.index_in(hosts, value_set=pa.array(list(partitioner.hot_hosts), pa.string()))
            .fill_null(-1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
    else:
        hot_idx = np.full(nrows, -1, dtype=np.int64)
    hot = hot_idx >= 0
    S = partitioner.hot_salt
    # normal rows once + hot rows replicated S times
    sel = np.concatenate([np.nonzero(~hot)[0], np.repeat(np.nonzero(hot)[0], S)])
    hot_base = partitioner.num_partitions + hot_idx[hot] * S
    pids = np.concatenate(
        [base_pid[~hot], (hot_base[:, None] + np.arange(S, dtype=np.int64)[None, :]).ravel()]
    )
    ts = tbl.column("ts").cast(pa.int64()).to_numpy()
    rank = tbl.column("rank").to_numpy(zero_copy_only=False).astype(np.float64)
    ok = tbl.column("fetch_ok").to_numpy(zero_copy_only=False).astype(np.float64)
    n = sel.size
    sel_pa = pa.array(sel)
    empty = pa.array(np.zeros(n, dtype=np.int32), pa.int32())  # offsets trick below
    blank = pa.DictionaryArray.from_arrays(empty, pa.array([""], pa.string())).dictionary_decode()
    return pa.table(
        {
            "url": blank,
            "warc_ts": pa.nulls(n, pa.timestamp("us")),
            "host": hosts.take(sel_pa),
            "text": blank,
            "lang": blank,
            "partition_id": pa.array(pids.astype(np.int32)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "sig_ts": pa.array(ts[sel], pa.int64()),
            "sig_rank": pa.array(rank[sel], pa.float64()),
            "sig_ok": pa.array(ok[sel], pa.float64()),
        }
    )


def _sample_hosts(cfg: PipelineConfig) -> list[str]:
    """Driver-side host sample for hot detection (metadata row count + a
    column-pruned sampled read — never a full materialization)."""
    total = sum(pq.read_metadata(p).num_rows for p in _input_files(cfg))
    frac = min(1.0, cfg.engine.range_sample_size / max(1, total))
    sample = (
        ray.data.read_parquet(cfg.input_path, columns=["url"]).random_sample(frac, seed=7).take_all()
    )
    # SAME host extraction as the partition router (stages/text_stage
    # _host_from_url) — hot-host detection and routing must agree on the
    # host string or skewed hosts can be missed
    from ..stages.text_stage import _host_from_url

    urls = pa.array([r["url"] for r in sample], pa.string())
    return _host_from_url(urls).to_pylist()


def _make_copart_group_fn(fcfg: FeatureConfig, output_dir: str | None, lineage: dict | None = None):
    """Block kernel of the co-partitioned path: as _make_group_fn, with each
    partition's SignalsLookup built from its own signal rows."""

    def group_fn(block: pa.Table) -> pa.Table:
        return _concat(merge_one(tbl) for tbl in _partition_runs(block))

    def merge_one(tbl: pa.Table) -> pa.Table:
        t0 = time.time()
        pid = int(tbl.column("partition_id")[0].as_py())
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        right = tbl.filter(pa.array(side == 1))
        signals = SignalsLookup(
            pa.table(
                {
                    "host": right.column("host"),
                    "ts": right.column("sig_ts"),
                    "rank": right.column("sig_rank"),
                    "fetch_ok": right.column("sig_ok"),
                }
            )
        )
        left = tbl.filter(pa.array(side == 0)).drop_columns(
            ["partition_id", "__side", *_SIG_NULL_COLS]
        )
        rows_in = left.num_rows
        if output_dir is not None and not fcfg.emit_labels:
            manifest = write_partition_stream(
                output_dir,
                pid,
                merge_partition_chunks(left, fcfg, signals),
                {"rows_in": rows_in, **(lineage or {})},
                started_at=t0,
            )
            return pa.table({k: [v] for k, v in manifest.items() if k not in ("output",)})
        out = merge_partition(left, fcfg, signals)
        if output_dir is not None:
            manifest = write_partition(
                output_dir,
                pid,
                out,
                {
                    "rows_in": rows_in,
                    "dup_dropped": rows_in - out.num_rows,
                    "wall_s": round(time.time() - t0, 4),
                    **(lineage or {}),
                },
            )
            return pa.table({k: [v] for k, v in manifest.items() if k not in ("output",)})
        return out

    return group_fn


def _use_copartition(cfg: PipelineConfig) -> bool:
    if cfg.features.signals_path is None:
        return False
    if cfg.engine.copartition_signals:
        return True
    try:
        return (
            pq.read_metadata(cfg.features.signals_path).num_rows
            > cfg.engine.broadcast_signals_max_rows
        )
    except OSError:
        return False


def build_copartitioned(cfg: PipelineConfig) -> tuple[ray.data.Dataset, HostSaltPartitioner]:
    """Union of host-routed pages + replicated signals, ready for the ONE
    shuffle. Signals never touch driver memory as a whole — they stream
    through their own read -> tag -> union path."""
    cfg.validate()
    partitioner = HostSaltPartitioner.from_sample(
        _sample_hosts(cfg), cfg.engine.num_partitions, hot_salt=cfg.engine.hot_salt
    )
    pages = _read_input(cfg)
    pages = pages.map_batches(
        functools.partial(prepare_batch, cfg=cfg.features),
        batch_format="pyarrow",
        batch_size=cfg.engine.batch_size,
    ).map_batches(
        functools.partial(_tag_pages_batch, partitioner=partitioner),
        batch_format="pyarrow",
        batch_size=cfg.engine.batch_size,
    )
    signals = ray.data.read_parquet(cfg.features.signals_path).map_batches(
        functools.partial(_replicate_signals_batch, partitioner=partitioner),
        batch_format="pyarrow",
    )
    return pages.union(signals), partitioner


def decode_features(output_dir: str, fcfg: FeatureConfig) -> ray.data.Dataset:
    """Output decoder (reference analog: AudioReconstructor.reconstruct_from_
    dataset, design.md:1581-1674): read a run's partitioned parquet back and
    unpack the fixed-width `features` vector into its named columns per
    cfg.feature_order, verifying the width invariant per batch. The inverse
    of the writer's packing — feature rows are reproducible from the stored
    vector alone."""
    order = fcfg.feature_order
    width = len(order)

    def unpack(tbl: pa.Table) -> pa.Table:
        fcol = tbl.column("features")
        if isinstance(fcol, pa.ChunkedArray):
            fcol = fcol.combine_chunks()
        if fcol.type.list_size != width:
            raise ValueError(
                f"feature width invariant violated: {fcol.type.list_size} != {width}"
            )
        mat = np.asarray(fcol.flatten().to_numpy(zero_copy_only=False)).reshape(-1, width)
        cols: dict[str, pa.Array] = {
            "url": tbl.column("url"),
            "warc_ts": tbl.column("warc_ts"),
        }
        for j, name in enumerate(order):
            cols[f"decoded_{name}"] = pa.array(mat[:, j], pa.float64())
        return pa.table(cols)

    ds = ray.data.read_parquet(f"{output_dir}")
    return ds.map_batches(unpack, batch_format="pyarrow")


def export_features_npy(run_dir: str, dest_dir: str, fcfg: FeatureConfig) -> dict:
    """Alternate output encoding (SURVEY §2.1 S4; reference analog: the
    spec's npy/HDF5 writer options, requirements.md:65-69): re-encode a
    completed run's partitions as one float64 .npy feature matrix + one
    (url, warc_ts) index parquet per partition. Partition-aligned (same
    part numbering -> resumable: existing exports are skipped), distributed
    as a Dataset over the manifest rows — one task per partition."""
    import os
    import uuid as _uuid
    from pathlib import Path

    from ..state.checkpoint import load_completed

    done = load_completed(run_dir)
    if not done:
        raise ValueError(f"no completed partitions under {run_dir}")
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    width = len(fcfg.feature_order)
    items = [
        {"pid": int(pid), "path": m["output"]}
        for pid, m in sorted(done.items())
        if not (dest / f"part-{int(pid):05d}.npy").exists()
    ]
    skipped = len(done) - len(items)

    def export_one(row: dict) -> dict:
        pid = row["pid"]
        tbl = pq.read_table(row["path"], columns=["url", "warc_ts", "features"])
        fcol = tbl.column("features")
        if isinstance(fcol, pa.ChunkedArray):
            fcol = fcol.combine_chunks()
        if fcol.type.list_size != width:
            raise ValueError(
                f"feature width invariant violated in part {pid}: "
                f"{fcol.type.list_size} != {width}"
            )
        mat = np.asarray(fcol.flatten().to_numpy(zero_copy_only=False)).reshape(-1, width)
        npy_tmp = dest / f".tmp-{_uuid.uuid4().hex}.npy"
        np.save(npy_tmp, mat)
        os.replace(npy_tmp, dest / f"part-{pid:05d}.npy")
        idx_tmp = dest / f".tmp-{_uuid.uuid4().hex}.parquet"
        pq.write_table(tbl.select(["url", "warc_ts"]), idx_tmp)
        os.replace(idx_tmp, dest / f"part-{pid:05d}.index.parquet")
        return {"pid": pid, "rows": tbl.num_rows}

    if items:
        results = (
            ray.data.from_items(items)
            .map(export_one, num_cpus=1)
            .take_all()
        )
    else:
        results = []
    return {
        "partitions_exported": len(results),
        "partitions_skipped": skipped,
        "rows": sum(r["rows"] for r in results),
        "width": width,
        "dest": str(dest),
    }


def compact_output(run_dir: str, dest_dir: str, target_rows_per_file: int = 250_000) -> dict:
    """Small-file compaction for a completed run (the operational counterpart
    of the reference's dataset-writer file-size targets, design.md:1324-1400):
    re-write a run's many per-partition parquet files into ~target-size files.

    A checkpointed run at cluster-scale partition counts produces one file per
    partition; downstream trainers scan faster over fewer, larger files. This
    streams the partitions through a Dataset (read -> split to target-row
    blocks -> write_parquet, one file per block) — nothing is materialized on
    the driver, and the source run is left untouched, so the compaction is
    re-runnable and the original remains the checkpoint of record. Row-count
    conservation is verified from parquet FOOTERS on both sides."""
    import glob as _glob
    import shutil as _shutil
    from pathlib import Path

    done = load_completed(run_dir)
    if not done:
        raise ValueError(f"no completed partitions under {run_dir}")
    src_files = sorted(m["output"] for m in done.values())
    rows_in = sum(pq.read_metadata(f).num_rows for f in src_files)
    dest = Path(dest_dir)
    if dest.exists():
        _shutil.rmtree(dest)
    # partitioning=None: the run's part=NNN/ layout must not hive-infer a
    # `part` column into the compacted schema
    ds = ray.data.read_parquet(src_files, partitioning=None)
    # explicit block count (repartition's target_num_rows_per_block splits
    # oversized blocks but does not coalesce small ones — the whole point here)
    n_blocks = max(1, -(-rows_in // target_rows_per_file))
    ds = ds.repartition(n_blocks)
    ds.write_parquet(str(dest))
    out_files = sorted(_glob.glob(f"{dest}/*.parquet"))
    rows_out = sum(pq.read_metadata(f).num_rows for f in out_files)
    if rows_out != rows_in:
        raise RuntimeError(
            f"compaction row-count mismatch: {rows_in} in vs {rows_out} out"
        )
    return {
        "files_in": len(src_files),
        "files_out": len(out_files),
        "rows": rows_out,
        "dest": str(dest),
    }


def run(cfg: PipelineConfig) -> dict:
    """Checkpointed run: per-partition parquet + manifests under
    cfg.engine.output_dir; returns the reduced job report. With resume=True,
    completed partitions are skipped before the shuffle."""
    if not cfg.engine.output_dir:
        raise ValueError("run() requires engine.output_dir")
    copart = _use_copartition(cfg)
    ds, parts = _tagged_input(cfg, copart)
    # fingerprint the RESOLVED partition layout, not just the config flag:
    # broadcast_signals_max_rows / the signals row count flip the layout
    # between url-keyed and host-salt, and partitions from one layout must
    # never be reused under the other (partition ids mean different row sets)
    fp = cfg.semantics_fingerprint() + ("-copart" if copart else "-bcast")
    lineage = {"input_path": cfg.input_path, "config_sha": fp}
    done = load_completed(cfg.engine.output_dir) if cfg.engine.resume else {}
    # resume safety: only reuse partitions produced under IDENTICAL semantics
    # (input + feature config + partition layout); anything else recomputes
    done = {pid: m for pid, m in done.items() if m.get("config_sha") == fp}
    if done:
        done_ids = np.array(sorted(done), dtype=np.int32)

        def drop_done(tbl: pa.Table) -> pa.Table:
            pids = tbl.column("partition_id").to_numpy()
            keep = ~np.isin(pids, done_ids)
            return tbl.filter(pa.array(keep))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    if copart:
        fn = _make_copart_group_fn(cfg.features, output_dir=cfg.engine.output_dir, lineage=lineage)
    else:
        signals_ref = _load_signals(cfg.features)
        fn = _make_group_fn(
            cfg.features, signals_ref, output_dir=cfg.engine.output_dir, lineage=lineage
        )
    ds = exchange(ds, "partition_id", fn, parts, order=("partition_id",))
    # across the sort barrier the per-operator reservation only idles cores
    # (module docstring); ds.context is this Dataset's own DataContext copy
    ds.context.op_resource_reservation_enabled = False
    manifest_rows = ds.take_all()  # one manifest row per partition_id
    report = job_report(list(done.values()) + manifest_rows)
    report["resumed_partitions"] = len(done)
    # quarantine accounting: prepare is 1:1 except for quarantined rows, so
    # footer row count minus prepared rows IS the quarantined count (bad rows
    # are dropped pre-partition, so they belong to no partition manifest)
    input_rows = _input_row_count(_input_files(cfg))
    if input_rows is not None:
        report["rows_quarantined"] = max(0, input_rows - report["rows_in"])
    return report
