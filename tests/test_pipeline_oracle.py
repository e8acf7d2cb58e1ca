"""Distributed pipeline vs single-process oracle: the north-rule check.

allclose at every (url, warc_ts), byte-identical extracted text, zero temporal
leakage, deterministic across runs, resumable from per-partition checkpoints.
"""

import glob
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from audio_feature_extraction_ray.config import EngineConfig, FeatureConfig, PipelineConfig
from audio_feature_extraction_ray.oracle import oracle_features
from audio_feature_extraction_ray.pipelines.features import feature_dataset, run


def _collect(ds) -> pa.Table:
    tbl = pa.concat_tables(
        b for b in ds.iter_batches(batch_size=1_000_000, batch_format="pyarrow")
    )
    return tbl.sort_by([("url", "ascending"), ("warc_ts", "ascending")])


def _features_matrix(tbl: pa.Table, width: int) -> np.ndarray:
    return np.array(
        tbl.column("features").combine_chunks().flatten().to_numpy(zero_copy_only=False)
    ).reshape(-1, width)


def _cfg(pages_dir, signals_path, partitioner="hash", out=None, resume=False):
    return PipelineConfig(
        input_path=str(pages_dir),
        features=FeatureConfig(signals_path=str(signals_path)),
        engine=EngineConfig(
            num_partitions=8, partitioner=partitioner, output_dir=out, resume=resume
        ),
    )


@pytest.fixture(scope="module")
def oracle_small(small_fixture):
    pages, signals = small_fixture
    cfg = FeatureConfig(signals_path="enabled")
    return oracle_features(pages, cfg, signals)


@pytest.mark.parametrize("partitioner", ["hash", "range"])
def test_engine_matches_oracle(ray_session, small_fixture_dir, oracle_small, partitioner):
    pages_dir, signals_path = small_fixture_dir
    cfg = _cfg(pages_dir, signals_path, partitioner=partitioner)
    tbl = _collect(feature_dataset(cfg))
    oracle = oracle_small

    assert tbl.num_rows == len(oracle)
    assert tbl.column("url").to_pylist() == list(oracle["url"])
    assert tbl.column("warc_ts").cast(pa.int64()).to_pylist() == list(
        oracle["warc_ts"].astype("int64")
    )
    # per-row invariant: byte-identical extracted text
    assert tbl.column("text").to_pylist() == list(oracle["text"])
    # allclose at every entity x timestamp
    W = len(cfg.features.feature_order)
    fa = _features_matrix(tbl, W)
    fb = np.stack(oracle["features"].to_numpy())
    np.testing.assert_allclose(fa, fb, equal_nan=True)


def test_determinism_across_runs(ray_session, small_fixture_dir):
    pages_dir, signals_path = small_fixture_dir
    cfg = _cfg(pages_dir, signals_path)
    W = len(cfg.features.feature_order)
    a = _features_matrix(_collect(feature_dataset(cfg)), W)
    b = _features_matrix(_collect(feature_dataset(cfg)), W)
    np.testing.assert_array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )  # bit-identical, incl. NaN patterns


def test_zero_temporal_leakage(ray_session, small_fixture, tmp_path):
    """Mutate every row with ts > t0; features at ts <= t0 must be unchanged."""
    pages, signals = small_fixture
    ts = pages.column("warc_ts").cast(pa.int64()).to_numpy()
    t0 = int(np.quantile(ts, 0.5))
    future = ts > t0

    mutated_text = [
        ("MUTATED " + t if f else t)
        for t, f in zip(pages.column("text").to_pylist(), future)
    ]
    from audio_feature_extraction_ray.testdata import _make_html

    mutated = pa.table(
        {
            "url": pages.column("url"),
            "warc_ts": pages.column("warc_ts"),
            "html": pa.array([_make_html(t, "x") for t in mutated_text], pa.binary()),
            "text": pa.array(mutated_text, pa.string()),
            "lang": pages.column("lang"),
        }
    )

    d1 = tmp_path / "orig"
    d2 = tmp_path / "mut"
    for d, tbl in ((d1, pages), (d2, mutated)):
        d.mkdir()
        pq.write_table(tbl, d / "pages.parquet")
    sig_path = tmp_path / "signals.parquet"
    pq.write_table(signals, sig_path)

    cfg1 = _cfg(d1, sig_path)
    cfg2 = _cfg(d2, sig_path)
    a = _collect(feature_dataset(cfg1))
    b = _collect(feature_dataset(cfg2))
    W = len(cfg1.features.feature_order)

    past_a = a.filter(pa.compute.less_equal(a.column("warc_ts").cast(pa.int64()), t0))
    past_b = b.filter(pa.compute.less_equal(b.column("warc_ts").cast(pa.int64()), t0))
    assert past_a.num_rows == past_b.num_rows and past_a.num_rows > 0
    np.testing.assert_array_equal(
        _features_matrix(past_a, W).view(np.uint64),
        _features_matrix(past_b, W).view(np.uint64),
    )


def test_resume_skips_completed(ray_session, small_fixture_dir, tmp_path):
    pages_dir, signals_path = small_fixture_dir
    out = str(tmp_path / "ckpt")

    cfg = _cfg(pages_dir, signals_path, out=out)
    rep1 = run(cfg)
    assert rep1["partitions"] == 8 and rep1["dup_dropped"] > 0
    # latency metrics (SURVEY A1): present in report AND in on-disk manifests
    assert rep1["wall_s_sum"] > 0 and rep1["wall_s_max"] > 0
    assert rep1["rows_per_s_overall"] > 0
    import json as _json
    from pathlib import Path as _Path

    m0 = _json.loads(_Path(sorted(glob.glob(out + "/_manifests/*.json"))[0]).read_text())
    for field in ("wall_s", "rows_per_s", "dup_dropped", "checksum"):
        assert field in m0, field

    # simulate a partial failure: delete 3 manifests (+ their data)
    import json, os
    from pathlib import Path

    manifests = sorted(glob.glob(out + "/_manifests/*.json"))
    kept_checksums = {}
    for m in manifests:
        kept_checksums[m] = json.loads(Path(m).read_text())["checksum"]
    for m in manifests[:3]:
        pid = json.loads(Path(m).read_text())["partition_id"]
        os.remove(m)
        shutil.rmtree(out + f"/part={pid:05d}")

    cfg2 = _cfg(pages_dir, signals_path, out=out, resume=True)
    rep2 = run(cfg2)
    assert rep2["resumed_partitions"] == 5
    assert rep2["rows_out"] == rep1["rows_out"]
    # recomputed partitions reproduce byte-identical output (checksum match)
    for m in manifests:
        assert json.loads(Path(m).read_text())["checksum"] == kept_checksums[m]


def test_skew_partition_balance(ray_session, small_fixture):
    """Hot domain (~50% of rows) must not blow up partition sizes (range
    partitioner with hot-range salting; SURVEY §7.4)."""
    pages, _ = small_fixture
    from audio_feature_extraction_ray.state.partition import RangePartitioner

    urls = pages.column("url").to_pylist()
    part = RangePartitioner.from_sample(urls, 8, hot_salt=4)
    pids = part.partition_ids(urls)
    counts = np.bincount(pids, minlength=part.num_partitions)
    counts = counts[counts > 0]
    assert counts.max() <= 3.0 * np.median(counts), counts


def test_lead_labels_match_oracle_and_stay_out_of_features(
    ray_session, small_fixture, small_fixture_dir
):
    """emit_labels: lead columns arrive under label_ prefix (reversed pass),
    match the oracle, and are never packed into the feature vector."""
    pages, signals = small_fixture
    pages_dir, signals_path = small_fixture_dir
    fcfg = FeatureConfig(signals_path=str(signals_path), emit_labels=True)
    assert not any(c.startswith("label_") for c in fcfg.feature_order)
    cfg = PipelineConfig(
        input_path=str(pages_dir), features=fcfg, engine=EngineConfig(num_partitions=8)
    )
    tbl = _collect(feature_dataset(cfg))
    oracle = oracle_features(pages, FeatureConfig(signals_path="enabled", emit_labels=True), signals)
    assert tbl.num_rows == len(oracle)
    for col in ("label_lead1_token_count", "label_ts_to_next"):
        np.testing.assert_allclose(
            tbl.column(col).to_numpy(zero_copy_only=False),
            oracle[col].to_numpy(dtype="float64", na_value=np.nan),
            equal_nan=True,
        )


def test_streamed_write_equals_oneshot(ray_session, small_fixture, tmp_path):
    """The bounded-memory chunked write path (merge_partition_chunks +
    write_partition_stream) must produce byte-equivalent partitions (rows,
    checksum, values) to the one-shot merge + write."""
    import pyarrow.compute as pc

    from audio_feature_extraction_ray.stages.text_stage import prepare_batch
    from audio_feature_extraction_ray.state.checkpoint import (
        partition_checksum,
        write_partition,
        write_partition_stream,
    )
    from audio_feature_extraction_ray.state.kernels import (
        SignalsLookup,
        merge_partition,
        merge_partition_chunks,
    )

    pages, signals = small_fixture
    fcfg = FeatureConfig(signals_path="enabled")
    prep = prepare_batch(pages, fcfg)
    sig = SignalsLookup(signals)

    one = merge_partition(prep, fcfg, sig)
    m1 = write_partition(tmp_path / "one", 0, one, {})
    m2 = write_partition_stream(
        tmp_path / "two", 0, merge_partition_chunks(prep, fcfg, sig, chunk_rows=257), {}
    )
    assert m2["rows_out"] == m1["rows_out"] > 0
    assert m2["checksum"] == m1["checksum"]
    a = pq.read_table(tmp_path / "one" / "part=00000" / "data.parquet")
    b = pq.read_table(tmp_path / "two" / "part=00000" / "data.parquet")
    assert a.schema == b.schema
    assert partition_checksum(a) == partition_checksum(b)
    assert a.column("url").to_pylist() == b.column("url").to_pylist()


def test_decode_features_roundtrip(ray_session, small_fixture_dir, tmp_path):
    """I3 analog: stored vector decodes back to the named scalar columns."""
    from audio_feature_extraction_ray.pipelines.features import decode_features

    pages_dir, signals_path = small_fixture_dir
    out = str(tmp_path / "dec")
    cfg = _cfg(pages_dir, signals_path, out=out)
    run(cfg)

    dec = _collect_by(decode_features(out, cfg.features))
    raw = _collect_by(
        __import__("ray").data.read_parquet(out)
    )
    assert dec.num_rows == raw.num_rows > 0
    for name in cfg.features.feature_order:
        np.testing.assert_array_equal(
            dec.column(f"decoded_{name}").to_numpy(zero_copy_only=False).view(np.uint64),
            raw.column(name).to_numpy(zero_copy_only=False).view(np.uint64),
        )


def _collect_by(ds):
    return _collect(ds)


def test_copartitioned_asof_matches_oracle(ray_session, small_fixture, small_fixture_dir):
    """J2 large-right-side path: host-keyed co-partition (hot hosts salted,
    signals replicated) must produce exactly the broadcast path's results."""
    pages_dir, signals_path = small_fixture_dir
    pages, signals = small_fixture
    cfg = PipelineConfig(
        input_path=str(pages_dir),
        features=FeatureConfig(signals_path=str(signals_path)),
        engine=EngineConfig(num_partitions=8, copartition_signals=True, hot_salt=3),
    )
    tbl = _collect(feature_dataset(cfg))
    oracle = oracle_features(pages, FeatureConfig(signals_path="enabled"), signals)
    assert tbl.num_rows == len(oracle)
    assert tbl.column("url").to_pylist() == list(oracle["url"])
    W = len(cfg.features.feature_order)
    fa = _features_matrix(tbl, W)
    fb = np.stack(oracle["features"].to_numpy())
    np.testing.assert_allclose(fa, fb, equal_nan=True)


def test_copartitioned_checkpoint_run(ray_session, small_fixture_dir, tmp_path):
    """Co-partitioned + checkpointed run: manifests complete, hot-host salting
    keeps partition sizes bounded, output matches the broadcast run."""
    import json as _json
    from pathlib import Path

    pages_dir, signals_path = small_fixture_dir
    out_a = str(tmp_path / "bcast")
    out_b = str(tmp_path / "copart")
    run(_cfg(pages_dir, signals_path, out=out_a))
    cfg = PipelineConfig(
        input_path=str(pages_dir),
        features=FeatureConfig(signals_path=str(signals_path)),
        engine=EngineConfig(
            num_partitions=8, copartition_signals=True, hot_salt=3, output_dir=out_b
        ),
    )
    rep = run(cfg)
    manifests = [
        _json.loads(p.read_text()) for p in sorted(Path(out_b, "_manifests").glob("*.json"))
    ]
    rows = [m["rows_out"] for m in manifests if m["rows_out"] > 0]
    assert sum(rows) == rep["rows_out"]
    # skew bound: hot host (~50% of rows) salted -> no partition dominates
    assert max(rows) <= 4.0 * np.median(rows), rows
    a = _collect(__import__("ray").data.read_parquet(out_a))
    b = _collect(__import__("ray").data.read_parquet(out_b))
    assert a.num_rows == b.num_rows
    W = len(cfg.features.feature_order)
    np.testing.assert_array_equal(
        _features_matrix(a, W).view(np.uint64), _features_matrix(b, W).view(np.uint64)
    )


def test_plugin_extractors_match_oracle(ray_session, small_fixture, small_fixture_dir):
    """F6: registered plugin extractors run in-kernel and match the oracle."""
    pages_dir, signals_path = small_fixture_dir
    pages, signals = small_fixture
    extra = ("mel_proj", "is_long_doc")
    cfg = PipelineConfig(
        input_path=str(pages_dir),
        features=FeatureConfig(signals_path=str(signals_path), extra_features=extra),
        engine=EngineConfig(num_partitions=8),
    )
    tbl = _collect(feature_dataset(cfg))
    oracle = oracle_features(
        pages, FeatureConfig(signals_path="enabled", extra_features=extra), signals
    )
    assert tbl.num_rows == len(oracle)
    # plugin columns present, not packed into the fixed-width vector
    assert not any(c.startswith("mel_proj") for c in cfg.features.feature_order)
    for col in ("mel_proj_0", "mel_proj_3", "is_long_doc"):
        np.testing.assert_allclose(
            tbl.column(col).to_numpy(zero_copy_only=False),
            oracle[col].to_numpy(dtype="float64"),
            equal_nan=True,
        )


def test_copartition_auto_threshold(small_fixture_dir):
    """_use_copartition flips on when the signals row count exceeds the
    broadcast cap (metadata-only check, no Ray needed)."""
    from audio_feature_extraction_ray.pipelines.features import _use_copartition

    pages_dir, signals_path = small_fixture_dir
    base = dict(input_path=str(pages_dir))
    cfg = PipelineConfig(
        **base,
        features=FeatureConfig(signals_path=str(signals_path)),
        engine=EngineConfig(broadcast_signals_max_rows=0),
    )
    assert _use_copartition(cfg) is True
    cfg2 = PipelineConfig(
        **base,
        features=FeatureConfig(signals_path=str(signals_path)),
        engine=EngineConfig(broadcast_signals_max_rows=10**9),
    )
    assert _use_copartition(cfg2) is False
    cfg3 = PipelineConfig(**base, features=FeatureConfig(signals_path=None))
    assert _use_copartition(cfg3) is False


def test_missing_lang_column(ray_session, small_fixture, tmp_path):
    """A pages table without `lang` still runs: the read projection adapts and
    lang_run_length degrades to a constant-null run per url."""
    pages, signals = small_fixture
    noLang = pages.drop_columns(["lang"])
    d = tmp_path / "nolang"
    d.mkdir()
    pq.write_table(noLang, d / "pages.parquet")
    sig = tmp_path / "signals.parquet"
    pq.write_table(signals, sig)
    tbl = _collect(feature_dataset(_cfg(d, sig)))
    assert tbl.num_rows > 0
    assert "lang_run_length" in tbl.column_names


def test_resume_rejects_stale_config(ray_session, small_fixture_dir, tmp_path):
    """Resume must NOT reuse partitions produced under different semantics:
    changing window_k invalidates every completed partition."""
    pages_dir, signals_path = small_fixture_dir
    out = str(tmp_path / "stale")
    run(_cfg(pages_dir, signals_path, out=out))

    cfg2 = PipelineConfig(
        input_path=str(pages_dir),
        features=FeatureConfig(signals_path=str(signals_path), window_k=3),
        engine=EngineConfig(num_partitions=8, output_dir=out, resume=True),
    )
    rep = run(cfg2)
    assert rep["resumed_partitions"] == 0  # all recomputed

    # and resuming again with the SAME config reuses everything
    rep2 = run(cfg2)
    assert rep2["resumed_partitions"] == 8


# ---------------------------------------------------------------------------
# Plan shape of run(): one read block per input file when the files cover
# the session's 4 CPUs; below that, footer-sized blocks for a small input and
# Ray's own split for a large one; and Ray's per-operator CPU reservation off
# on run()'s own Dataset only.


@pytest.fixture(scope="module")
def four_file_dir(tmp_path_factory):
    from audio_feature_extraction_ray.testdata import materialize_fixture

    return materialize_fixture(tmp_path_factory.mktemp("afe_4files"), 2000, n_files=4)


def _run_capturing(cfg, monkeypatch):
    """run(cfg), plus the Dataset it executed and that Dataset's operator
    names (upstream first)."""
    import ray.data

    captured = []
    orig = ray.data.Dataset.take_all

    def take_all(self, *args, **kwargs):
        captured.append(self)
        return orig(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "take_all", take_all)
        report = run(cfg)
    ds = captured[-1]
    names, node = [], ds._get_stats_summary()
    while node is not None:
        names = [op.operator_name for op in node.operators_stats] + names
        node = node.parents[0] if node.parents else None
    return report, ds, names


def _checksums(out) -> dict:
    from audio_feature_extraction_ray.state.checkpoint import load_completed

    return {pid: m["checksum"] for pid, m in load_completed(out).items()}


def test_run_reads_one_block_per_file(ray_session, four_file_dir, tmp_path, monkeypatch):
    pages_dir, signals_path = four_file_dir
    _, ds, names = _run_capturing(_cfg(pages_dir, signals_path, out=str(tmp_path / "o")), monkeypatch)
    reads = [n for n in names if n.startswith("ReadParquet")]
    assert reads == ["ReadParquet"], names
    assert ds.context.op_resource_reservation_enabled is False


def test_run_exchange_keeps_operator_names(ray_session, four_file_dir, tmp_path, monkeypatch):
    """Four read blocks route through a sort on fixed partition-id
    boundaries: the stage names the per-layer timings attribute stay
    SortMap / SortReduce and MapBatches(group_fn)."""
    pages_dir, signals_path = four_file_dir
    _, _, names = _run_capturing(_cfg(pages_dir, signals_path, out=str(tmp_path / "o")), monkeypatch)
    assert names[-3:] == ["SortMap", "SortReduce", "MapBatches(group_fn)"], names


def test_run_leaves_global_data_context(ray_session, four_file_dir, tmp_path):
    from ray.data import DataContext

    pages_dir, signals_path = four_file_dir
    before = DataContext.get_current().op_resource_reservation_enabled
    run(_cfg(pages_dir, signals_path, out=str(tmp_path / "o")))
    assert DataContext.get_current().op_resource_reservation_enabled == before
    # feature_dataset() hands its Dataset to callers: reservation untouched
    ds = feature_dataset(_cfg(pages_dir, signals_path))
    assert ds.context.op_resource_reservation_enabled == before


def test_block_layout_never_changes_output(ray_session, four_file_dir, tmp_path, monkeypatch):
    """A read forced to split (2 blocks per file) and the default one block
    per file write byte-identical partitions."""
    pages_dir, signals_path = four_file_dir
    default = _cfg(pages_dir, signals_path, out=str(tmp_path / "default"))
    split = _cfg(pages_dir, signals_path, out=str(tmp_path / "split"))
    split.engine.read_num_blocks = 8
    rep_d, _, _ = _run_capturing(default, monkeypatch)
    rep_s, _, names = _run_capturing(split, monkeypatch)
    assert [n for n in names if n.startswith("ReadParquet")] == ["ReadParquet->SplitBlocks(2)"]
    assert rep_s["rows_out"] == rep_d["rows_out"] > 0
    assert len(_checksums(default.engine.output_dir)) == 8
    assert _checksums(split.engine.output_dir) == _checksums(default.engine.output_dir)


def test_run_single_file_and_zero_row_inputs(ray_session, small_fixture_dir, tmp_path, monkeypatch):
    """Fewer files than CPUs: a small file reads as the blocks its footer
    bytes fill (one here), and a file past 2 x CPUs x target_min_block_size
    takes Ray's split, so a large one-file input still gets a prepare task
    per CPU instead of running as one task."""
    from ray.data import DataContext

    from audio_feature_extraction_ray.stages.exchange import _footer_bytes

    pages_dir, signals_path = small_fixture_dir
    one = sorted(glob.glob(f"{pages_dir}/*.parquet"))[0]
    n = pq.read_metadata(one).num_rows
    rep, _, names = _run_capturing(_cfg(one, signals_path, out=str(tmp_path / "tiny")), monkeypatch)
    assert [op for op in names if op.startswith("ReadParquet")] == ["ReadParquet"], names
    assert rep["rows_in"] == n and rep["rows_out"] == rep["rows_in"] - rep["dup_dropped"] > 0
    tiny = _checksums(str(tmp_path / "tiny"))

    nbytes = _footer_bytes([one])
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", nbytes // 16)
    rep, ds, names = _run_capturing(_cfg(one, signals_path, out=str(tmp_path / "one")), monkeypatch)
    [read] = [op for op in names if op.startswith("ReadParquet")]
    assert read.startswith("ReadParquet->SplitBlocks("), names
    assert ds.context.op_resource_reservation_enabled is False
    assert rep["rows_in"] == n and rep["rows_quarantined"] == 0
    assert rep["rows_out"] == rep["rows_in"] - rep["dup_dropped"] > 0
    assert _checksums(str(tmp_path / "one")) == tiny

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pq.read_table(one).slice(0, 0), empty / "pages.parquet")
    rep = run(_cfg(empty, signals_path, out=str(tmp_path / "none")))
    assert rep["rows_in"] == rep["rows_out"] == rep["rows_quarantined"] == 0
