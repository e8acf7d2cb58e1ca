"""The keyed exchange and the read layout in front of it
(stages/exchange.py): the three-branch block-count rule, the plan it gives
read_events, layout parity of the events as-of/window family against its
DuckDB oracles, and exchange() against Ray's groupby().map_groups()."""

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from audio_feature_extraction_ray.pipelines.events import _assign_pid, read_events
from audio_feature_extraction_ray.stages import exchange
from audio_feature_extraction_ray.stages.exchange import predicted_num_blocks, read_num_blocks

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
    sf = _events_table(tmp_path / "sf", rows=50, users=5)
    ds = read_events(sf).materialize()
    assert _read_op_names(ds) == ["ReadParquet"]
    assert ds.num_blocks() == 1


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
    tag = functools.partial(_assign_pid, key="user_id", num_partitions=pid_parts)
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


def test_exchange_plan_one_block_is_a_repartition(ray_session, tmp_path):
    ds = _tagged(_events_table(tmp_path / "sf"))
    out = exchange.exchange(ds, "partition_id", _kernels()[0], PARTS).materialize()
    names = _op_names(out)
    assert any(n.startswith("Repartition") for n in names), names
    assert not any(n.startswith("Sort") for n in names), names
    assert names[-1] == "MapBatches(rank_in_partition)"


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
