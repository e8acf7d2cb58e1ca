"""The keyed exchange and the read layout in front of it
(stages/exchange.py): the three-branch block-count rule, read_table and the
plan it gives read_events, layout parity of the events as-of/window family
against its DuckDB oracles, exchange() against Ray's
groupby().map_groups(), and the one partition hash pid_of()."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
from ray.data import DataContext

from audio_feature_extraction_ray.functions.hashing import hash64_str_array
from audio_feature_extraction_ray.pipelines.events import read_events
from audio_feature_extraction_ray.stages import exchange, window
from audio_feature_extraction_ray.stages.exchange import (
    pid_of,
    predicted_num_blocks,
    read_num_blocks,
)

CPUS = 4  # the session CPU count the rule is tested against

# The events as-of/window family that the repo benchmark times.
ASOF_ENTRIES = (
    "events_asof_join",
    "events_asof_forward",
    "events_asof_tolerance",
    "events_asof_nearest",
    "events_asof_two_table",
    "events_lag_lead",
    "events_locf",
    "events_rolling",
    "events_sessionize",
    "events_session_stats",
)


@pytest.fixture
def fake_cluster(monkeypatch):
    """A Ray session of CPUS CPUs as the rule sees it, without starting one."""
    monkeypatch.setattr(exchange.ray, "is_initialized", lambda: True)
    monkeypatch.setattr(exchange.ray, "cluster_resources", lambda: {"CPU": float(CPUS)})


@pytest.fixture
def half_mib_file(tmp_path):
    """A parquet file with about 0.5 MiB of footer bytes."""
    path = tmp_path / "half.parquet"
    vals = np.random.default_rng(3).integers(0, 2**62, size=64_000, dtype=np.int64)
    pq.write_table(pa.table({"v": vals}), path, use_dictionary=False, compression="none")
    assert 0.4 * 2**20 < exchange._footer_bytes([str(path)]) < 0.6 * 2**20
    return str(path)


def test_files_covering_every_cpu_read_one_block_each(fake_cluster, tmp_path):
    files = [str(tmp_path / f"part-{i}.jsonl") for i in range(CPUS + 1)]
    assert read_num_blocks(files[:CPUS]) == CPUS
    assert read_num_blocks(files) == CPUS + 1


def test_small_parquet_reads_as_footer_sized_blocks(fake_cluster, half_mib_file, monkeypatch):
    assert read_num_blocks([half_mib_file]) == 1
    nbytes = exchange._footer_bytes([half_mib_file])
    ctx = DataContext.get_current()
    # 2 x CPUS - 1 blocks is still below Ray's CPU floor: the rule keeps it
    monkeypatch.setattr(ctx, "target_min_block_size", -(-nbytes // (2 * CPUS - 1)))
    assert read_num_blocks([half_mib_file]) == 2 * CPUS - 1
    # at 2 x CPUS blocks the floor no longer decides: Ray splits as before
    monkeypatch.setattr(ctx, "target_min_block_size", nbytes // (2 * CPUS))
    assert read_num_blocks([half_mib_file]) is None


def test_unsized_inputs_leave_the_split_to_ray(fake_cluster, tmp_path, half_mib_file, monkeypatch):
    jsonl = tmp_path / "rows.jsonl"
    jsonl.write_text('{"a": 1}\n')
    assert read_num_blocks([str(jsonl)]) is None
    assert read_num_blocks([str(tmp_path / "missing.parquet")]) is None
    monkeypatch.setattr(exchange.ray, "is_initialized", lambda: False)
    assert read_num_blocks([half_mib_file]) is None


def _events_table(path, seed=5, rows=3000, users=200):
    """Seeded events table in the shape of the sf tables: distinct
    timestamps, event_id in ts order, five event types."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.choice(30 * 86400 * 10**6, size=rows, replace=False)) + 1_704_067_200 * 10**6
    types = np.array(["signup", "purchase", "view", "click", "error"])
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(rows, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, users, size=rows, dtype=np.int64)),
            "event_type": pa.array(types[rng.integers(0, types.size, size=rows)]),
            "value": pa.array(np.round(rng.exponential(50.0, size=rows), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, size=rows)]),
        }
    )
    path.mkdir(parents=True, exist_ok=True)
    pq.write_table(tbl, path / "events.parquet")
    return str(path)


def _read_op_names(ds):
    names, node = [], ds._get_stats_summary()
    while node is not None:
        names = [op.operator_name for op in node.operators_stats] + names
        node = node.parents[0] if node.parents else None
    return [n for n in names if n.startswith("Read")]


def test_read_events_on_a_tiny_table_is_one_unsplit_read(ray_session, tmp_path):
    """A one-block table is one pq.read_table task, handed to Ray Data as
    one block: no ReadParquet planning or fragment sampling."""
    sf = _events_table(tmp_path / "sf", rows=50, users=5)
    ds = read_events(sf).materialize()
    assert _op_names(ds) == ["FromArrow"]
    assert _read_op_names(ds) == []
    assert ds.num_blocks() == 1


def _arrow(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs())).combine_chunks()


@pytest.mark.parametrize("columns", [None, ["value", "ts", "user_id"]])
@pytest.mark.parametrize("n_files", [1, 2])
def test_read_table_matches_ray_read_parquet(ray_session, tmp_path, columns, n_files):
    """On the one-block path, read_table gives the schema (column order and
    types, every column when columns=None) and rows of Ray's read."""
    sf = _events_table(tmp_path / "sf", rows=400)
    files = [f"{sf}/events.parquet"]
    if n_files == 2:
        files.append(_events_table(tmp_path / "sf2", seed=6, rows=300) + "/events.parquet")
    assert read_num_blocks(files) == 1
    ds = exchange.read_table(files, columns)
    assert _op_names(ds.materialize()) == ["FromArrow"]
    # Ray's read as read_events made it before read_table: one block
    want = _arrow(ray.data.read_parquet(files, columns=columns, override_num_blocks=1))
    got = _arrow(ds)
    assert got.schema == want.schema
    assert got.column_names == (columns or ["event_id", "ts", "user_id", "event_type", "value", "props"])
    assert got.num_rows == 400 + 300 * (n_files - 1)
    assert got.equals(want)


def test_read_table_missing_file_raises_at_construction(ray_session, tmp_path):
    with pytest.raises(FileNotFoundError):
        exchange.read_table([str(tmp_path / "missing.parquet")])


def test_read_table_leaves_hive_directories_to_ray(ray_session, tmp_path):
    """A file under a `key=value` directory keeps Ray's read, which adds
    the partition column."""
    sf = _events_table(tmp_path / "day=3", rows=40)
    ds = exchange.read_table([f"{sf}/events.parquet"], None)
    assert _arrow(ds).column_names[-1] == "day"


DEGENERATE_ENTRIES = ("events_lag_lead", "events_asof_join", "events_sessionize")


@pytest.mark.parametrize("case", ["zero_rows", "one_user"])
def test_one_block_path_degenerate_inputs_match_oracle(ray_session, tmp_path, case):
    """A zero-row table and a one-user table, read as one block and
    gathered into one kernel call, give the DuckDB oracle's rows."""
    import duckdb

    import __ray_entry__ as entry

    sf = _events_table(tmp_path / "sf", rows=0 if case == "zero_rows" else 120, users=1)
    assert read_num_blocks([f"{sf}/events.parquet"]) == 1
    queries, oracles = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    for name in DEGENERATE_ENTRIES:
        want = con.execute(oracles[name]).df()
        got = _to_pandas(queries[name](sf))
        if case == "zero_rows":
            assert len(want) == len(got) == 0, name
        else:
            assert _canon_hash(got) == _canon_hash(want), name
            assert len(got) == 120, name
    con.close()


def _canon_hash(df: pd.DataFrame) -> tuple[str, str, int]:
    """The canonical hash of scripts/check_correctness.py: columns by name,
    rows sorted, floats rounded to 6 places."""
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            h.update(col.round(6).fillna(-9e18).to_numpy().tobytes())
        else:
            h.update(col.astype(str).str.encode("utf-8").str.len().to_numpy().tobytes())
            h.update("\x00".join(col.astype(str)).encode())
    return h.hexdigest()[:16], ",".join(df.columns), len(df)


def _to_pandas(res) -> pd.DataFrame:
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def test_asof_family_is_layout_independent(ray_session, tmp_path, monkeypatch):
    """The ten as-of/window entries give the DuckDB oracle's canonical hash
    under the default one-block read and under a forced Ray split."""
    import duckdb

    import __ray_entry__ as entry

    queries, oracles = entry.queries(), entry.oracle_sql()
    sf = _events_table(tmp_path / "sf")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    want = {n: _canon_hash(con.execute(oracles[n]).df()) for n in ASOF_ENTRIES}
    con.close()

    def hashes():
        return {n: _canon_hash(_to_pandas(queries[n](sf))) for n in ASOF_ENTRIES}

    assert read_events(sf).materialize().num_blocks() == 1
    default = hashes()

    nbytes = exchange._footer_bytes([f"{sf}/events.parquet"])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", nbytes // (4 * CPUS))
    assert read_num_blocks([f"{sf}/events.parquet"]) is None
    split_read = read_events(sf).materialize()
    assert split_read.num_blocks() >= 2 * CPUS
    assert _read_op_names(split_read)[0].startswith("ReadParquet->SplitBlocks(")
    split = hashes()

    assert default == want
    assert split == want


# ---------------------------------------------------------------------------
# exchange(): parity with groupby(key).map_groups(fn), and its plan

PARTS = 8


def _tagged(sf: str, pid_parts: int = PARTS):
    """Events rows tagged with a partition_id in [0, pid_parts)."""

    def tag(tbl: pa.Table) -> pa.Table:
        pid = pid_of(tbl.column("user_id").to_numpy(), pid_parts)
        return tbl.append_column("partition_id", pa.array(pid))

    return read_events(sf, ["event_id", "user_id", "value"]).map_batches(tag, batch_format="pyarrow")


def _kernels():
    """(rank_in_partition, sorted_rank_in_partition), defined here so Ray
    ships them by value: workers cannot import this test module.

    rank_in_partition gives per row its rank by event_id within its
    partition id and the running value sum in cents: the same rows whether
    the table holds one partition id or many. It fails on a 0-row table.
    sorted_rank_in_partition first checks that its input arrived sorted by
    (partition_id, event_id)."""

    def rank_in_partition(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            raise AssertionError("fn called with 0 rows")
        pid = tbl.column("partition_id").to_numpy()
        eid = tbl.column("event_id").to_numpy()
        idx = np.lexsort((eid, pid))
        pid, eid = pid[idx], eid[idx]
        cents = np.round(tbl.column("value").to_numpy()[idx] * 100).astype(np.int64)
        head = np.r_[True, pid[1:] != pid[:-1]]
        start = np.maximum.accumulate(np.where(head, np.arange(pid.size), 0))
        csum = np.cumsum(cents)
        return pa.table(
            {
                "partition_id": pid,
                "event_id": eid,
                "rank": np.arange(pid.size) - start,
                "run_cents": csum - csum[start] + cents[start],
            }
        )

    def sorted_rank_in_partition(tbl: pa.Table) -> pa.Table:
        key = tbl.column("partition_id").to_numpy().astype(np.int64) * 2**40 + tbl.column("event_id").to_numpy()
        if (np.diff(key) < 0).any():
            raise AssertionError("block not sorted by (partition_id, event_id)")
        return rank_in_partition(tbl)

    return rank_in_partition, sorted_rank_in_partition


def _op_names(ds) -> list[str]:
    names, node = [], ds._get_stats_summary()
    while node is not None:
        names = [op.operator_name for op in node.operators_stats] + names
        node = node.parents[0] if node.parents else None
    return names


def _split_reads(monkeypatch, sf: str, blocks: int) -> None:
    """Lower target_min_block_size (as the split_reads fixture does) so the
    events table reads as `blocks` footer-sized blocks."""
    nbytes = exchange._footer_bytes([f"{sf}/events.parquet"])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", -(-nbytes // blocks))
    assert read_num_blocks([f"{sf}/events.parquet"]) == blocks


@pytest.mark.parametrize("case", ["one_block", "multi_block", "zero_rows", "one_partition_id"])
def test_exchange_matches_map_groups(ray_session, tmp_path, monkeypatch, case):
    """exchange() gives the rows of groupby(key).map_groups(fn), by canonical
    hash, on every routing branch; fn never sees an empty block (it raises
    on one) and gets each block sorted by `order`."""
    sf = _events_table(tmp_path / "sf", rows=0 if case == "zero_rows" else 3000)
    if case in ("multi_block", "one_partition_id"):
        _split_reads(monkeypatch, sf, 4)
    ds = _tagged(sf, pid_parts=1 if case == "one_partition_id" else PARTS)
    assert predicted_num_blocks(ds) == (1 if case in ("one_block", "zero_rows") else 4)

    rank, sorted_rank = _kernels()
    want = ds.groupby("partition_id").map_groups(rank, batch_format="pyarrow")
    got = exchange.exchange(ds, "partition_id", rank, PARTS)
    ordered = exchange.exchange(ds, "partition_id", sorted_rank, PARTS, order=("partition_id", "event_id"))
    want_hash = _canon_hash(want.to_pandas())
    assert _canon_hash(got.to_pandas()) == want_hash
    assert _canon_hash(ordered.to_pandas()) == want_hash
    assert want_hash[2] == (0 if case == "zero_rows" else 3000)


def _count_sampling(monkeypatch) -> list:
    """Calls of Ray's sort boundary sampling (it runs in the driver)."""
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    calls = []
    orig = SortTaskSpec.sample_boundaries

    def sample_boundaries(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(sample_boundaries))
    return calls


def test_exchange_plan_one_block_is_one_fused_gather(ray_session, tmp_path):
    """A one-block input: no Repartition and no Sort; the tag map and the
    kernel run as one fused MapBatches task after the read."""
    ds = _tagged(_events_table(tmp_path / "sf"))
    out = exchange.exchange(ds, "partition_id", _kernels()[0], PARTS).materialize()
    names = _op_names(out)
    assert not any(n.startswith(("Repartition", "Sort")) for n in names), names
    assert names == ["FromArrow", "MapBatches(tag)->MapBatches(rank_in_partition)"], names
    assert "MapBatches(tag)->MapBatches(rank_in_partition): 1 tasks executed" in out.stats()


def test_wrong_one_block_prediction_still_gathers(ray_session, tmp_path, monkeypatch):
    """An input of at least 8 read blocks predicted as one block: fn still
    runs once, over every row, and gives the rows of the multi-block path."""
    sf = _events_table(tmp_path / "sf")
    nbytes = exchange._footer_bytes([f"{sf}/events.parquet"])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", nbytes // (4 * CPUS))
    ds = _tagged(sf)
    assert ds.materialize().num_blocks() >= 8
    rank = _kernels()[0]
    want = _canon_hash(exchange.exchange(ds, "partition_id", rank, PARTS).to_pandas())

    def rows_per_call(tbl: pa.Table) -> pa.Table:
        return pa.table({"rows": [tbl.num_rows]})

    monkeypatch.setattr(exchange, "predicted_num_blocks", lambda ds: 1)
    calls = exchange.exchange(ds, "partition_id", rows_per_call, PARTS).take_all()
    assert calls == [{"rows": 3000}]
    assert _canon_hash(exchange.exchange(ds, "partition_id", rank, PARTS).to_pandas()) == want


def test_exchange_plan_multi_block_sorts_on_fixed_boundaries(ray_session, tmp_path, monkeypatch):
    """A predicted R-block input: a Sort with R - 1 even partition-id
    boundaries, R reduce blocks, and no boundary sampling."""
    sampled = _count_sampling(monkeypatch)
    sf = _events_table(tmp_path / "sf")
    r = 3
    _split_reads(monkeypatch, sf, r)
    ds = _tagged(sf)
    assert predicted_num_blocks(ds) == r
    out = exchange.exchange(ds, "partition_id", _kernels()[0], PARTS)
    sort_op = out._logical_plan.dag.input_dependencies[0]
    assert sort_op.name == "Sort"
    assert sort_op._sort_key.boundaries == [round(i * PARTS / r) for i in range(1, r)]
    out = out.materialize()
    names = _op_names(out)
    assert "SortMap" in names and "SortReduce" in names, names
    assert not any("Sample" in n for n in names), names
    assert f"SortReduce: 1 tasks executed, {r} blocks produced" in out.stats()
    assert sampled == []


def test_exchange_parts_one_gathers_an_unsized_read(ray_session, tmp_path, monkeypatch):
    """A parts == 1 exchange over a read Ray sizes itself (no prediction) is
    still a gather: no Sort and no boundary sampling, one fused MapBatches
    task over every row, and the key column is never read."""
    sampled = _count_sampling(monkeypatch)
    sf = _events_table(tmp_path / "sf")
    ds = ray.data.read_parquet(f"{sf}/events.parquet", columns=["event_id", "user_id"])
    assert predicted_num_blocks(ds) is None

    def rows_per_call(tbl: pa.Table) -> pa.Table:
        return pa.table({"rows": [tbl.num_rows]})

    out = exchange.exchange(ds, "__one", rows_per_call, 1).materialize()
    assert out.take_all() == [{"rows": 3000}]
    names = _op_names(out)
    assert not any(n.startswith(("Repartition", "Sort")) for n in names), names
    assert names[-1].endswith("MapBatches(rows_per_call)"), names
    assert f"{names[-1]}: 1 tasks executed" in out.stats()
    assert sampled == []


def test_exchange_unknown_prediction_samples_like_map_groups(ray_session, tmp_path, monkeypatch):
    """A read Ray sizes itself has no prediction: the sort samples its
    boundaries, as Ray's own map_groups does."""
    sampled = _count_sampling(monkeypatch)
    sf = _events_table(tmp_path / "sf")
    nbytes = exchange._footer_bytes([f"{sf}/events.parquet"])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", nbytes // (4 * CPUS))
    ds = _tagged(sf)
    assert predicted_num_blocks(ds) is None
    out = exchange.exchange(ds, "partition_id", _kernels()[0], PARTS)
    assert _canon_hash(out.to_pandas())[2] == 3000
    assert sampled


# ---------------------------------------------------------------------------
# pid_of(): the one partition hash. Every hash-partitioned layout depends on
# its exact bits, so it is pinned against the formula written out here.


def _golden_pid(key: int, parts: int) -> int:
    """((key mod 2^64) * 0x9E3779B97F4A7C15 mod 2^64) >> 33, mod parts."""
    return ((key % 2**64) * 0x9E3779B97F4A7C15 % 2**64 >> 33) % parts


@pytest.mark.parametrize("parts", [1, 7, 32])
def test_pid_of_is_the_golden_ratio_formula(parts):
    rng = np.random.default_rng(11)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    keys = {
        "int64": np.r_[rng.integers(i64.min, i64.max, size=200, dtype=np.int64), 0, -1, i64.min],
        "uint64": np.r_[rng.integers(2**63, u64.max, size=200, dtype=np.uint64), u64.max],
        "int32": np.r_[rng.integers(-(2**31), 2**31 - 1, size=200, dtype=np.int32), np.int32(-1)],
    }
    for name, k in keys.items():
        got = pid_of(k, parts)
        assert got.dtype == np.int32, name
        assert got.tolist() == [_golden_pid(int(v), parts) for v in k], name


def test_window_string_keys_route_through_pid_of():
    """stages.window hashes a string key with hash64_str_array, then takes
    pid_of; an integer key takes pid_of of its int64 value."""
    words = np.array(["alpha", "beta", "", "gamma", "ünï"], dtype=object)
    col = pa.chunked_array([pa.array(words.tolist())])
    h = hash64_str_array(words)
    assert pid_of(window._key_u64(col), 32).tolist() == [_golden_pid(int(v), 32) for v in h]
    ints = [-5, 0, 7, 2**31 - 1]
    col = pa.chunked_array([pa.array(ints, pa.int32())])
    assert pid_of(window._key_u64(col), 7).tolist() == [_golden_pid(v, 7) for v in ints]


@pytest.mark.parametrize(
    "name",
    [
        "docs_split_stats",
        "jaccard_pairs_sample",
        "edit_distance_pairs",
        "docs_tfidf_cosine_pairs",
        "ann_ivf_fullprobe",
    ],
)
def test_exchange_entries_emit_arrow_blocks(ray_session, name):
    """The entries whose merges ran as pandas map_groups kernels emit Arrow
    blocks through exchange."""
    import __ray_entry__ as e
    from test_queries_oracle import SF_DIR

    ds = e.queries()[name](SF_DIR)
    blocks = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles() for ref, _ in bundle.blocks]
    assert blocks and all(isinstance(b, pa.Table) for b in blocks), {type(b) for b in blocks}
