"""text_analysis on the one keyed exchange: its per-partition kernels under
blocks that hold many partition ids, and its chained exchanges with no
boundary sampling."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from audio_feature_extraction_ray.pipelines import text_analysis as ta
from audio_feature_extraction_ray.stages import exchange
from test_queries_oracle import SF_DIR

DOCS = f"{SF_DIR}/documents.parquet"
READ_BLOCKS = 6  # below 2 x CPUs, so read_table asks Ray for exactly this many


@pytest.fixture
def docs_sf(tmp_path, monkeypatch):
    """The sf0.001 documents in 10 row groups, read as READ_BLOCKS blocks."""
    pq.write_table(pq.read_table(DOCS), tmp_path / "documents.parquet", row_group_size=50)
    nbytes = exchange._footer_bytes([str(tmp_path / "documents.parquet")])
    min_block = -(-nbytes // READ_BLOCKS)
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", min_block)
    assert exchange.predicted_num_blocks(ta._read_docs(str(tmp_path))) == READ_BLOCKS
    return str(tmp_path)


def _oracle(sf: str, sql: str):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    return con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)


def _greedy_per_partition(sf: str) -> dict[int, tuple[int, int]]:
    """doc_id -> (seq_id, offset_in_seq): first-fit packing in doc_id order,
    restarted in each range partition of _pack_bounds, one doc at a time."""
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pylist()
    bounds = ta._pack_bounds(sf)
    out, fill, cur, last_pid = {}, 0, 0, None
    for d in sorted(docs, key=lambda d: d["doc_id"]):
        pid = int(np.searchsorted(bounds, d["doc_id"], side="right"))
        t = max(len(d["text"].split(" ")) if d["text"] else 0, 1)
        if pid != last_pid:
            fill, cur, last_pid = 0, 0, pid
        elif fill + t > ta.SEQ_LEN and fill > 0:
            fill, cur = 0, cur + 1
        out[d["doc_id"]] = ((pid << 32) | cur, fill)
        fill += t
    return out


@pytest.mark.parametrize("entry", ["doc_quality_rank", "docs_pack_sequences", "docs_pack_greedy"])
def test_per_partition_kernels_restart_in_a_many_partition_block(
    ray_session, docs_sf, monkeypatch, entry
):
    """A multi-block read predicted as one block: the exchange gathers every
    partition id into one kernel call, and each kernel restarts its rank,
    prefix sum or packing at every partition head."""
    assert len(ta._pack_bounds(docs_sf)) == ta._PACK_PARTITIONS - 1
    monkeypatch.setattr(exchange, "predicted_num_blocks", lambda ds: 1)
    if entry == "doc_quality_rank":
        got = ta.quality_rank(docs_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = _oracle(docs_sf, ta.QUALITY_RANK_SQL)
        assert got["rank"].tolist() == want["rank"].tolist()
        np.testing.assert_allclose(got["quality"], want["quality"], atol=1e-9)
    elif entry == "docs_pack_sequences":
        got = ta.pack_sequences(docs_sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = _oracle(docs_sf, ta.PACK_SEQUENCES_SQL)
        for c in ("doc_id", "token_offset", "seq_first", "seq_last", "offset_in_seq"):
            assert got[c].tolist() == want[c].tolist(), c
    else:
        got = ta.pack_greedy_nosplit(docs_sf).to_pandas()
        want = _greedy_per_partition(docs_sf)
        assert len(got) == len(want)
        pairs = zip(got["doc_id"], got["seq_id"], got["offset_in_seq"])
        assert {int(d): (int(s), int(o)) for d, s, o in pairs} == want


@pytest.mark.parametrize(
    "entry, fn, n_exchanges",
    [
        ("doc_tfidf_top_terms", ta.tfidf_top_terms, 2),
        ("token_typo_pairs", ta.token_typo_pairs, 3),
        ("docs_bigram_topk", ta.bigram_topk, 1),
        ("docs_hapax_ratio", ta.docs_hapax_ratio, 2),
    ],
)
def test_text_exchanges_do_not_sample(ray_session, docs_sf, monkeypatch, entry, fn, n_exchanges):
    """Over a predicted multi-block read, every exchange of the entry (the
    chained ones of tfidf and typo pairs, and hapax's second one over a
    union) has a predicted R > 1 and sorts on fixed boundaries: Ray's
    boundary sampling must not be called."""
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    def no_sampling(*args, **kwargs):
        raise AssertionError(f"{entry} sampled sort boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(no_sampling))
    predicted = []

    def recorded(ds, *args, **kwargs):
        predicted.append(exchange.predicted_num_blocks(ds))
        return exchange.exchange(ds, *args, **kwargs)

    monkeypatch.setattr(ta, "exchange", recorded)
    res = fn(docs_sf)
    rows = len(res) if isinstance(res, pd.DataFrame) else res.count()
    assert rows > 0
    assert len(predicted) == n_exchanges and all(r > 1 for r in predicted), predicted
