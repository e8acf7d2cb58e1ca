"""Kernels that compute one result per key, under reduce blocks that hold
many keys: a multi-block fixture whose every exchange is predicted as one
block, so each kernel call gathers every key of its input. The ann top-k
merges and per-cell scoring, the semdedup prune, the split counters, the
one-task graph and the grouped quantiles' interpolation must each restart
at every key head."""

import hashlib

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray
from ray.data import DataContext

from audio_feature_extraction_ray.stages import exchange
from test_queries_oracle import SF_DIR, TABLES, _compare, _duck, _to_pandas

READ_BLOCKS = 6  # below 2 x CPUs, so read_table asks Ray for exactly this many

# canonical hash of embedding_semdedup (rows-only: no SQL twin) on this
# fixture, from the map_groups implementation it replaced (one prune call
# per (cluster, shard) group), under the same one-block prediction
SEMDEDUP_HASH = "e87b55a0830034b9f7c18ab8bcc5ceab77bbbff39de9b99bd4cdd36577f6a3cb"


def _canon_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


@pytest.fixture
def many_keys_sf(tmp_path, monkeypatch):
    """SF_DIR with documents and embeddings in 10 row groups each, read as
    several blocks, and every exchange predicted as one block."""
    for t in TABLES:
        src = f"{SF_DIR}/{t}.parquet"
        if t in ("documents", "embeddings"):
            pq.write_table(pq.read_table(src), tmp_path / f"{t}.parquet", row_group_size=50)
        else:
            (tmp_path / f"{t}.parquet").symlink_to(src)
    nbytes = exchange._footer_bytes([str(tmp_path / "documents.parquet")])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", -(-nbytes // READ_BLOCKS))
    assert exchange.read_num_blocks([str(tmp_path / "documents.parquet")]) == READ_BLOCKS
    emb = ray.data.read_parquet(str(tmp_path / "embeddings.parquet")).materialize()
    assert emb.num_blocks() > 1
    monkeypatch.setattr(exchange, "predicted_num_blocks", lambda ds: 1)
    return str(tmp_path)


@pytest.mark.parametrize(
    "name",
    ["ann_ivf_fullprobe", "knn_join_exact", "dup_clusters", "docs_split_stats", "events_quantiles"],
)
def test_one_result_per_key_kernels_match_oracle(ray_session, many_keys_sf, name):
    import __ray_entry__ as e

    got = _to_pandas(e.queries()[name](many_keys_sf))
    con = _duck(many_keys_sf)
    _compare(name, got, con.sql(e.oracle_sql()[name]).df())


def test_semdedup_prunes_each_group_apart(ray_session, many_keys_sf):
    from audio_feature_extraction_ray.stages.ann import embedding_semdedup

    got = _to_pandas(embedding_semdedup(many_keys_sf))
    assert len(got) == 500
    assert _canon_hash(got) == SEMDEDUP_HASH
