"""Unit tests for the pure streaming merge kernels (no Ray).

Pins: session gap edges (exact threshold stays in-session), lag/backfill heads,
as-of "<=" tie semantics, dedup-keep-first, chunked == one-shot equivalence
(the reference's streaming-vs-batch equivalence idea, design.md:594-609).
"""

import numpy as np
import pyarrow as pa

from audio_feature_extraction_ray.config import FeatureConfig
from audio_feature_extraction_ray.stages.text_stage import prepare_batch
from audio_feature_extraction_ray.state.kernels import (
    SignalsLookup,
    StreamingMerger,
    _seg_head,
    _sort_dedup,
    asof_index,
    carried_index,
    gap_seconds,
    gap_sessions,
    merge_partition,
    shifted_stack,
)
from audio_feature_extraction_ray.testdata import PAGES_SCHEMA, SIGNALS_SCHEMA, _make_html

US = 1_000_000


def _pages(rows):
    """rows: list of (url, ts_seconds, text, lang)."""
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([int(r[1] * US) for r in rows], pa.timestamp("us")),
            "html": pa.array([_make_html(r[2], "t") for r in rows], pa.binary()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "lang": pa.array([r[3] for r in rows], pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def _merge(rows, cfg=None, signals=None):
    cfg = cfg or FeatureConfig()
    tbl = prepare_batch(_pages(rows), cfg)
    out = merge_partition(tbl, cfg, signals)
    return {name: out.column(name).to_pylist() for name in out.column_names}


def test_session_gap_edges():
    gap = 100.0
    cfg = FeatureConfig(session_gap_s=gap)
    u = "https://h/x"
    out = _merge(
        [
            (u, 0, "a", "en"),
            (u, 100, "a", "en"),     # exactly gap -> SAME session (strictly greater rule)
            (u, 201, "a", "en"),     # 101 > gap -> new session
            (u, 301, "a", "en"),     # 100 -> same
        ],
        cfg,
    )
    assert out["session_id"] == [0, 0, 1, 1]
    assert out["session_len"] == [1, 2, 1, 2]
    assert out["ts_since_prev"][0] is None or np.isnan(out["ts_since_prev"][0])
    assert out["ts_since_prev"][1:] == [100.0, 101.0, 100.0]


def test_lag_and_rolling_heads():
    cfg = FeatureConfig(window_k=3)
    u = "https://h/x"
    out = _merge(
        [(u, i * 10, " ".join(["w"] * (i + 1)), "en") for i in range(5)],
        cfg,
    )
    assert out["token_count"] == [1, 2, 3, 4, 5]
    lag = out["lag1_token_count"]
    assert np.isnan(lag[0]) and lag[1:] == [1, 2, 3, 4]
    np.testing.assert_allclose(out["rw_mean_token_count"], [1, 1.5, 2, 3, 4])
    np.testing.assert_allclose(out["rw_max_token_count"], [1, 2, 3, 4, 5])


def test_lang_run_length_and_churn():
    u = "https://h/x"
    out = _merge(
        [
            (u, 0, "a b c d", "en"),
            (u, 10, "a b c d", "en"),   # identical -> churn 0
            (u, 20, "a b x y", "de"),   # 2/6 overlap -> churn 1-2/6
            (u, 30, "p q r s", "de"),   # disjoint -> churn 1
        ]
    )
    assert out["lang_run_length"] == [1, 2, 1, 2]
    ch = out["text_churn"]
    assert np.isnan(ch[0])
    np.testing.assert_allclose(ch[1:], [0.0, 1 - 2 / 6, 1.0])


def test_dedup_keep_first():
    u = "https://h/x"
    out = _merge([(u, 0, "a", "en"), (u, 0, "a", "en"), (u, 10, "b", "en")])
    assert len(out["url"]) == 2
    assert out["session_len"] == [1, 2]


def test_asof_tie_and_no_prior():
    sig = pa.table(
        {
            "host": pa.array(["h", "h", "h"], pa.string()),
            "ts": pa.array([100 * US, 200 * US, 300 * US], pa.timestamp("us")),
            "rank": pa.array([1.0, 2.0, 3.0], pa.float64()),
            "fetch_ok": pa.array([10, 20, 30], pa.int32()),
        },
        schema=SIGNALS_SCHEMA,
    )
    cfg = FeatureConfig(signals_path="enabled")
    u = "https://h/x"
    out = _merge(
        [
            (u, 50, "a", "en"),    # before first obs -> NaN
            (u, 200, "a", "en"),   # exact tie -> 2.0 ("<=" matches)
            (u, 250, "a", "en"),   # carry-forward -> 2.0
            (u, 9999, "a", "en"),  # stale carry -> 3.0
        ],
        cfg,
        SignalsLookup(sig),
    )
    r = out["locf_rank"]
    assert np.isnan(r[0]) and r[1:] == [2.0, 2.0, 3.0]
    assert out["locf_fetch_ok"][1:] == [20.0, 20.0, 30.0]


def test_single_revisit_and_empty_text():
    out = _merge([("https://h/a", 0, "", "en"), ("https://h/b", 5, "x", "en")])
    assert out["token_count"] == [0, 1]
    assert out["char_count"] == [0, 1]
    assert out["session_id"] == [0, 0]
    assert np.isnan(out["text_churn"][0]) and np.isnan(out["text_churn"][1])


def test_chunked_equals_oneshot(small_fixture):
    pages, signals = small_fixture
    cfg = FeatureConfig(signals_path="enabled")
    prep = prepare_batch(pages, cfg)
    full = merge_partition(prep, cfg, SignalsLookup(signals))
    sd = _sort_dedup(prep)
    W = len(cfg.feature_order)
    fa = np.array(
        full.column("features").combine_chunks().flatten().to_numpy(zero_copy_only=False)
    ).reshape(-1, W)
    for chunk in (1, 13, 256):
        m = StreamingMerger(cfg, SignalsLookup(signals))
        parts = [m.process_chunk(sd.slice(i, chunk)) for i in range(0, sd.num_rows, chunk)]
        tbl = pa.concat_tables(parts)
        fb = np.array(
            tbl.column("features").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(-1, W)
        assert fa.shape == fb.shape
        np.testing.assert_allclose(fa, fb, equal_nan=True)


def test_feature_vector_width_invariant(small_fixture):
    """webtext analog of the n_freq_bins == n_fft//2+1 invariant."""
    pages, signals = small_fixture
    cfg = FeatureConfig(signals_path="enabled")
    out = merge_partition(prepare_batch(pages, cfg), cfg, SignalsLookup(signals))
    t = out.column("features").type
    assert pa.types.is_fixed_size_list(t)
    assert t.list_size == len(cfg.feature_order)


def test_locf_runs_matches_per_host_locf():
    """The whole-chunk vectorized LOCF (one lexsort-merge, no per-run loop)
    is value-identical to the per-host searchsorted form, including unknown
    hosts and exact-tie timestamps."""
    rng = np.random.default_rng(5)
    hosts = [f"h{i}.com" for i in range(12)]
    sh, sts = [], []
    for h in hosts[:9]:  # 3 hosts have NO signals
        for _ in range(int(rng.integers(1, 8))):
            sh.append(h)
            sts.append(int(rng.integers(0, 1000)) * 1000)
    sig = pa.table(
        {
            "host": pa.array(sh),
            "ts": pa.array(sts, pa.int64()).cast(pa.timestamp("us")),
            "rank": pa.array(rng.random(len(sh))),
            "fetch_ok": pa.array(rng.integers(0, 2, len(sh)).astype(float)),
        }
    )
    lk = SignalsLookup(sig)
    run_hosts, bounds, ts = [], [0], []
    for h in rng.permutation(hosts):
        k = int(rng.integers(1, 6))
        run_hosts.append(h)
        bounds.append(bounds[-1] + k)
        ts += [int(rng.integers(0, 1000)) * 1000 for _ in range(k)]
    ts = np.array(ts, dtype=np.int64)
    bounds = np.array(bounds, dtype=np.int64)
    r2, o2 = lk.locf_runs(run_hosts, bounds, ts)
    for k, h in enumerate(run_hosts):
        r1, o1 = lk.locf(h, ts[bounds[k] : bounds[k + 1]])
        np.testing.assert_allclose(r1, r2[bounds[k] : bounds[k + 1]], equal_nan=True)
        np.testing.assert_allclose(o1, o2[bounds[k] : bounds[k + 1]], equal_nan=True)


def test_job_report_slow_partition_predicate():
    """Latency threshold predicate: partitions below slow_threshold x the
    median rows_per_s are flagged, with the cutoff recorded for audit."""
    from audio_feature_extraction_ray.state.checkpoint import job_report

    manifests = [
        {"partition_id": i, "rows_in": 1000, "rows_out": 1000,
         "wall_s": 1.0, "rows_per_s": v}
        for i, v in enumerate([100.0, 110.0, 90.0, 105.0, 10.0])  # pid 4 straggles
    ]
    rep = job_report(manifests)
    assert rep["slow_partitions"] == [4]
    assert rep["rows_per_s_median"] == 100.0
    assert rep["slow_cutoff_rows_per_s"] == 50.0
    # all-healthy run flags nothing
    rep2 = job_report(manifests[:4])
    assert rep2["slow_partitions"] == []
    # empty run: predicate fields are null, not crashing
    rep3 = job_report([])
    assert rep3["slow_partitions"] == [] and rep3["rows_per_s_median"] is None


# ---------------------------------------------------------------------------
# point-in-time primitives vs brute-force per-row loops, on seeded random
# blocks with heavy timestamp ties; sizes 0 and 1, one entity, and blocks
# without source rows included.


def _blocks(seed, count=300):
    rng = np.random.default_rng(seed)
    for b in range(count):
        n = int(rng.choice([0, 1, 2, 7, 40]))
        seg = rng.integers(0, int(rng.integers(1, 4)), n)  # often one entity
        ts = rng.choice([0, 5, 5, 9, 100], n).astype(np.int64)
        src = rng.random(n) < (0.0 if b % 4 == 0 else 0.4)  # every 4th: no sources
        tiebreak = rng.permutation(n).astype(np.int64)
        yield seg, ts, src, tiebreak


def _sorted_block(seg, ts):
    order = np.lexsort((ts, seg))
    return seg[order], ts[order]


def test_carried_index_matches_loop():
    for seg, _, src, _ in _blocks(1):
        seg = np.sort(seg)
        want = np.full(seg.size, -1)
        for i in range(seg.size):
            for j in range(i, -1, -1):
                if seg[j] != seg[i]:
                    break
                if src[j]:
                    want[i] = j
                    break
        np.testing.assert_array_equal(carried_index(seg, src), want)


def _asof_loop(seg, ts, src, tiebreak, forward):
    """A source row matches itself; any other row takes the latest
    (backward) or earliest (forward) source of its segment on its side of
    its ts, equal ts included, ties going to the largest (backward) or
    smallest (forward) tiebreak."""
    want = np.full(seg.size, -1)
    for i in range(seg.size):
        if src[i]:
            want[i] = i
            continue
        cands = [
            j
            for j in range(seg.size)
            if src[j] and seg[j] == seg[i] and (ts[j] >= ts[i] if forward else ts[j] <= ts[i])
        ]
        if cands:
            pick = min if forward else max
            want[i] = pick(cands, key=lambda j: (ts[j], tiebreak[j]))
    return want


def test_asof_index_matches_loop_both_directions():
    for seg, ts, src, tiebreak in _blocks(2):
        for forward in (False, True):
            got = asof_index(seg, ts, src, tiebreak, forward=forward)
            np.testing.assert_array_equal(got, _asof_loop(seg, ts, src, tiebreak, forward))
            hit = got >= 0
            # leakage: a backward match never lies after the row, a forward
            # match never before it; both stay in the row's segment
            if forward:
                assert (ts[got[hit]] >= ts[hit]).all()
            else:
                assert (ts[got[hit]] <= ts[hit]).all()
            assert (seg[got[hit]] == seg[hit]).all()
            assert (got[src] == np.flatnonzero(src)).all()  # a source matches itself


def test_asof_index_equal_ts_and_empty():
    seg = np.array([0, 0, 0, 0])
    ts = np.array([10, 10, 20, 20])
    src = np.array([False, True, False, True])
    tb = np.arange(4)
    # the source at ts 10 is visible to the other ts-10 row ("<="); the
    # forward cursor from ts 10 stops at that same source
    np.testing.assert_array_equal(asof_index(seg, ts, src, tb), [1, 1, 3, 3])
    np.testing.assert_array_equal(asof_index(seg, ts, src, tb, forward=True), [1, 1, 3, 3])
    empty = np.array([], dtype=np.int64)
    assert asof_index(empty, empty, empty.astype(bool), empty).size == 0
    assert carried_index(empty, empty.astype(bool)).size == 0


def test_gap_sessions_match_loop():
    gap = 5.0
    for seg, ts, _, _ in _blocks(3):
        seg, ts = _sorted_block(seg, ts * 1_000_000)
        head = _seg_head(seg)
        dt = gap_seconds(head, ts)
        sess_head, sid, slen = gap_sessions(head, dt, gap)
        for i in range(seg.size):
            if head[i]:
                assert np.isnan(dt[i])
                want_head, want_sid, want_len = True, 0, 1
            else:
                assert dt[i] == (ts[i] - ts[i - 1]) / 1e6
                new = dt[i] > gap
                want_head = new
                want_sid = sid[i - 1] + new
                want_len = 1 if new else slen[i - 1] + 1
            assert (sess_head[i], sid[i], slen[i]) == (want_head, want_sid, want_len)
    # a gap exactly at the threshold does not start a session
    head = np.array([True, False, False])
    dt = gap_seconds(head, np.array([0, 5, 11]) * 1_000_000)
    sess_head, sid, slen = gap_sessions(head, dt, gap)
    assert sess_head.tolist() == [True, False, True]
    assert sid.tolist() == [0, 0, 1] and slen.tolist() == [1, 2, 1]


def test_shifted_stack_matches_loop():
    rng = np.random.default_rng(4)
    for seg, _, _, _ in _blocks(5):
        seg = np.sort(seg)
        head = _seg_head(seg)
        vals = rng.random(seg.size)
        for k in (1, 3, 5):
            got = shifted_stack(vals, head, k)
            assert got.shape == (k, seg.size)
            for i in range(seg.size):
                start = max(j for j in range(i + 1) if head[j])
                for j in range(k):
                    if i - j >= start:
                        assert got[j, i] == vals[i - j]
                    else:
                        assert np.isnan(got[j, i])
