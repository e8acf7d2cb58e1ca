"""Read layout in front of the keyed exchange (stages/exchange.py): the
three-branch block-count rule, the plan it gives read_events, and layout
parity of the events as-of/window family against its DuckDB oracles."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from audio_feature_extraction_ray.pipelines.events import read_events
from audio_feature_extraction_ray.stages import exchange
from audio_feature_extraction_ray.stages.exchange import read_num_blocks

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
