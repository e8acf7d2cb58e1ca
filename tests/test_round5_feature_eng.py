"""Edge-path hardening for the round-5 feature-engineering transforms:
paths the sf fixtures never exercise (singleton categories, degenerate
value spans, tie-heavy quantiles, all-terms-missing docs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from audio_feature_extraction_ray.pipelines.events import (
    TARGET_ENC_U,
    VALUE_BINS,
    quantile_bins,
    read_events,
    target_encode,
    value_bins,
)
from audio_feature_extraction_ray.pipelines.text_analysis import (
    BM25_TERMS,
    BOOL_TERMS,
    docs_bm25_topk,
    docs_boolean_search,
)


def _events_fixture(tmp_path, types, values):
    n = len(types)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(
                np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")
            ),
            "user_id": pa.array(np.zeros(n, dtype=np.int64)),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(values, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "events.parquet", row_group_size=2)
    assert tbl.num_rows == 0 or read_events(str(sf)).materialize().num_blocks() > 1
    return str(sf)


def test_target_encode_singleton_category_falls_back_to_global_mean(ray_session, tmp_path, split_reads):
    # 'solo' occurs once -> LOO undefined -> global mean (micro-cents, floored)
    sf = _events_fixture(
        tmp_path,
        ["a", "a", "a", "solo", "b", "b"],
        [1.00, 2.00, 3.00, 10.00, 4.00, 6.00],
    )
    df = target_encode(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    cents = np.array([100, 200, 300, 1000, 400, 600], dtype=np.int64)
    gm = (cents.sum() * int(TARGET_ENC_U)) // len(cents)
    assert int(df.loc[3, "loo_enc_u"]) == gm
    # LOO for first 'a' = mean(200, 300)
    assert int(df.loc[0, "loo_enc_u"]) == ((200 + 300) * int(TARGET_ENC_U)) // 2
    # LOO for first 'b' = 600
    assert int(df.loc[4, "loo_enc_u"]) == 600 * int(TARGET_ENC_U)


def test_value_bins_degenerate_span_puts_everything_in_bin_zero(ray_session, tmp_path, split_reads):
    sf = _events_fixture(tmp_path, ["a"] * 5, [7.25] * 5)
    df = value_bins(sf).to_pandas()
    assert (df["bin"] == 0).all()


def test_value_bins_extremes_land_in_first_and_last_bin(ray_session, tmp_path, split_reads):
    sf = _events_fixture(tmp_path, ["a"] * 4, [0.00, 1.00, 2.00, 3.00])
    df = value_bins(sf).to_pandas().sort_values("event_id")
    assert int(df["bin"].iloc[0]) == 0
    assert int(df["bin"].iloc[-1]) == VALUE_BINS - 1


def test_quantile_bins_tie_heavy_matches_naive(ray_session, tmp_path, split_reads):
    import math

    vals = [1.0] * 10 + [2.0] * 10 + [3.0] * 2
    sf = _events_fixture(tmp_path, ["a"] * len(vals), vals)
    df = quantile_bins(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    s = sorted(vals)
    n = len(s)
    bounds = [s[int(math.ceil(q * n)) - 1] for q in (0.25, 0.5, 0.75)]
    expect = [sum(v > b for b in bounds) for v in vals]
    assert df["qbin"].tolist() == expect


def _docs_fixture(tmp_path, texts):
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["s"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    sf = tmp_path / "sfd"
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    return str(sf)


def test_boolean_search_requires_every_term(tmp_path):
    hit = " ".join(BOOL_TERMS)               # all terms once
    partial = " ".join(BOOL_TERMS[:-1])      # one term missing
    sf = _docs_fixture(tmp_path, [hit, partial, "nothing here", hit + " " + hit])
    df = docs_boolean_search(sf).to_pandas().sort_values("doc_id")
    assert df["doc_id"].tolist() == [0, 3]
    assert df["tf_0"].tolist() == [1, 2]


def test_bm25_scores_rank_matching_docs_and_skip_nonmatching(tmp_path):
    t = BM25_TERMS[0]
    texts = [
        f"{t} {t} {t}",                    # high tf, short
        t + " filler" * 60,                # tf=1, long doc -> normalized down
        "no query terms at all",
    ]
    sf = _docs_fixture(tmp_path, texts)
    df = docs_bm25_topk(sf)
    assert df["doc_id"].tolist()[:2] == [0, 1]
    assert 2 not in set(df["doc_id"])
    assert df["score"].iloc[0] > df["score"].iloc[1] > 0


def test_round5_ops_empty_and_single_row_inputs(ray_session, tmp_path, split_reads):
    """0-row and 1-row inputs flow through every round-5 operator without
    crashing (empty stats folds return None — each op must guard)."""
    from audio_feature_extraction_ray.pipelines.events import (
        psi_drift,
        time_features,
        user_rfm,
    )
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        docs_pareto_front,
        docs_phrase_search,
    )

    for label, n in [("empty", 0), ("one", 1)]:
        sfe = _events_fixture(
            tmp_path / label if False else tmp_path, ["a"] * n, [1.5] * n
        )
        for fn in (target_encode, value_bins, quantile_bins, time_features,
                   user_rfm, psi_drift):
            res = fn(sfe)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n, 16)  # psi emits its bin table
        sfd = _docs_fixture(tmp_path, ["solo text"] * n)
        for fn in (docs_bm25_topk, docs_boolean_search, docs_pareto_front,
                   docs_phrase_search):
            res = fn(sfd)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n, 1)


def test_hive_partitioned_read_prunes_directories(ray_session, tmp_path, split_reads):
    """The pruning contract: key=value directories outside the allowed set
    never contribute files to the plan (checked via input_files), and the
    partition value is re-attached correctly."""
    from audio_feature_extraction_ray.pipelines.hive import (
        build_hive_fixture,
        prune_hive_dirs,
        read_hive_partitioned,
    )

    sf = _events_fixture(
        tmp_path, ["click", "view", "error", "click", "view", "click"],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    root = build_hive_fixture(sf)
    names = sorted(e for e in __import__("os").listdir(root) if e.startswith("event_type="))
    assert names == ["event_type=click", "event_type=error", "event_type=view"]

    kept = prune_hive_dirs(root, "event_type", ("click",))
    assert [v for v, _ in kept] == ["click"]
    # the plan only ever sees files under the surviving directory
    import ray.data as rd

    files = rd.read_parquet([p for _, p in kept]).input_files()
    assert files and all("event_type=click" in f for f in files)

    ds = read_hive_partitioned(root, "event_type", ("click",), columns=["value"])
    df = ds.to_pandas()
    assert sorted(df["value"]) == [1.0, 4.0, 6.0]
    assert (df["event_type"] == "click").all()

    # empty allowed set -> empty dataset, still no crash
    ds0 = read_hive_partitioned(root, "event_type", (), columns=["value"])
    assert ds0.count() == 0


def test_cusum_matches_naive_per_user(ray_session, tmp_path, split_reads):
    """The prefix-doubling segmented running min (and the scaled-integer
    CUSUM built on it) against a naive per-user Python loop, on a fixture
    with interleaved users, duplicates, and a planted level shift."""
    from audio_feature_extraction_ray.pipelines.events import cusum_stats

    rng = np.random.default_rng(11)
    n = 400
    users = rng.integers(0, 7, size=n)
    vals = np.round(rng.uniform(0.01, 50.0, size=n), 2)
    vals[(users == 3) & (np.arange(n) > 200)] += 40.0  # level shift for user 3
    vals = np.round(vals, 2)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(
                rng.integers(0, 10**9, size=n).astype(np.int64), pa.timestamp("us")
            ),
            "user_id": pa.array(users.astype(np.int64)),
            "event_type": pa.array(["a"] * n, pa.string()),
            "value": pa.array(vals, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / "sfc"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet", row_group_size=37)
    assert read_events(str(sf)).materialize().num_blocks() > 1

    got = cusum_stats(str(sf)).to_pandas().set_index("user_id").sort_index()

    vc = np.round(vals * 100).astype(np.int64)
    for u in np.unique(users):
        m = users == u
        order = np.lexsort((np.arange(n)[m], tbl.column("ts").cast(pa.int64()).to_numpy()[m]))
        x = vc[m][order]
        nn, s = len(x), int(x.sum())
        S, run_min, best = 0, 0, 0
        run_min = None
        cs = 0
        for i, v in enumerate(x, 1):
            cs += int(v)
            S = nn * cs - i * s
            run_min = S if run_min is None else min(run_min, S)
            best = max(best, S - run_min)
        assert int(got.loc[u, "cusum_scaled"]) == best, u
        assert int(got.loc[u, "n"]) == nn


def test_bloom_join_contract(ray_session, tmp_path):
    """Bloom prefilter: never drops a true match (zero false negatives),
    drops most non-matching fact rows, and the composed join's result set
    equals the plain co-partitioned join's."""
    import ray.data as rd

    from audio_feature_extraction_ray.stages.join import (
        bloom_filtered_equijoin,
        bloom_prefilter,
        build_key_bloom,
        copartitioned_equijoin,
    )

    rng = np.random.default_rng(3)
    dim_keys = np.unique(rng.integers(0, 10_000, size=300)).astype(np.int64)
    fact_keys = rng.integers(0, 100_000, size=20_000).astype(np.int64)
    dim = rd.from_arrow(
        pa.table({"k": pa.array(dim_keys), "flag": pa.array(np.ones(dim_keys.size, np.int64))})
    )
    fact = rd.from_arrow(
        pa.table({"fk": pa.array(fact_keys), "v": pa.array(np.arange(fact_keys.size, dtype=np.int64))})
    )

    ref, bl = build_key_bloom(dim, "k")
    surv = bloom_prefilter(fact, "fk", ref, bl).to_pandas()
    in_dim = np.isin(fact_keys, dim_keys)
    # zero false negatives: every true match survives
    assert in_dim.sum() == np.isin(surv["fk"].to_numpy(), dim_keys).sum()
    # the filter actually prunes (FPR at 1M bits / ~300 keys is tiny)
    assert len(surv) < fact_keys.size * 0.1

    got = bloom_filtered_equijoin(
        fact, dim, fact_key="fk", dim_key="k",
        fact_cols=["v"], dim_cols=["flag"], num_partitions=4,
        fact_col_types={"v": pa.int64()}, dim_col_types={"flag": pa.int64()},
        key_type=pa.int64(),
    ).to_pandas()
    want = copartitioned_equijoin(
        fact, dim, fact_key="fk", dim_key="k",
        fact_cols=["v"], dim_cols=["flag"], num_partitions=4,
        fact_col_types={"v": pa.int64()}, dim_col_types={"flag": pa.int64()},
        key_type=pa.int64(),
    ).to_pandas()
    key = ["fk", "v"]
    assert sorted(map(tuple, got[key].to_numpy())) == sorted(map(tuple, want[key].to_numpy()))


# ---------------------------------------------------------------------------
# session-3 additions: interval join, unpivot, vocab build + encode


def test_interval_join_matches_naive(ray_session, tmp_path, split_reads):
    """Interleaved users, a follower exactly AT the window edge (included),
    one AT the signup ts (excluded: strict >), a signup with zero
    followers, overlapping windows from two signups of one user — all
    pinned against the O(n^2) naive join."""
    from audio_feature_extraction_ray.pipelines.events import (
        INTERVAL_JOIN_WIN_US,
        interval_join_signup,
    )

    W = INTERVAL_JOIN_WIN_US
    rows = [  # (event_id, ts_us, user_id, event_type, value)
        (0, 0, 1, "signup", 1.0),
        (1, 0, 1, "view", 2.0),          # ts == signup ts -> excluded
        (2, W, 1, "click", 3.0),         # exactly at edge -> included
        (3, W + 1, 1, "view", 4.0),      # past edge -> excluded
        (4, W // 2, 1, "signup", 5.0),   # overlapping second signup
        (5, W // 2 + 1, 2, "view", 6.0), # other user inside window
        (6, 10, 2, "signup", 7.0),       # zero followers in (10, 10+W]... see 5
        (7, 3 * W, 3, "signup", 8.0),    # truly zero followers
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        }
    )
    sf = tmp_path / "sfij"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1

    got = (
        interval_join_signup(str(sf))
        .to_pandas()
        .sort_values("signup_event_id")
        .reset_index(drop=True)
    )

    exp = []
    for s in rows:
        if s[3] != "signup":
            continue
        n = tot = 0
        for e in rows:
            if (
                e[2] == s[2]
                and e[3] != "signup"
                and s[1] < e[1] <= s[1] + W
            ):
                n += 1
                tot += int(np.floor(e[4] * 100 + 0.5))
        exp.append((s[0], s[2], n, tot))
    exp.sort()
    assert list(map(tuple, got.itertuples(index=False))) == exp


def test_unpivot_is_exact_inverse_of_pivot(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import (
        PIVOT_TYPES,
        unpivot_user_type,
    )

    sf = _events_fixture(tmp_path, ["click", "purchase", "click"], [1.25, 2.0, 0.25])
    df = unpivot_user_type(sf).to_pandas()
    # one long row per (user, type), zeros materialized for absent types
    assert len(df) == 1 * len(PIVOT_TYPES)
    assert set(df["event_type"]) == set(PIVOT_TYPES)
    by_type = df.set_index("event_type")["amt"]
    assert by_type["click"] == 1.5
    assert by_type["purchase"] == 2.0
    assert by_type["view"] == 0.0


def test_vocab_ids_count_then_string_order_with_ties_and_empty_token(
    ray_session, tmp_path
):
    """Ties in count break by token string (binary asc); the empty token
    from a double space is a real vocab entry (house tokenization mirrors
    string_split); ids are dense and 1-based."""
    from audio_feature_extraction_ray.pipelines.text_analysis import vocab_token_ids

    texts = ["b a  a", "b c", "d"]  # counts: a=2, b=2, ''=1, c=1, d=1
    sf = _docs_fixture(tmp_path, texts)
    df = (
        vocab_token_ids(sf)
        .to_pandas()
        .sort_values("token_id")
        .reset_index(drop=True)
    )
    assert df["token"].tolist() == ["a", "b", "", "c", "d"]
    assert df["c"].tolist() == [2, 2, 1, 1, 1]
    assert df["token_id"].tolist() == [1, 2, 3, 4, 5]


def test_vocab_encode_positions_match_naive(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        vocab_encode,
        vocab_token_ids,
    )

    texts = ["b a  a", "b c", "d"]
    sf = _docs_fixture(tmp_path, texts)
    ids = dict(
        zip(*(lambda d: (d["token"], d["token_id"]))(
            vocab_token_ids(sf).to_pandas()
        ))
    )
    got = (
        vocab_encode(sf)
        .to_pandas()
        .sort_values(["doc_id", "pos"])
        .reset_index(drop=True)
    )
    exp = [
        (doc_id, pos, ids[tok])
        for doc_id, text in enumerate(texts)
        for pos, tok in enumerate(text.split(" "))
    ]
    assert list(map(tuple, got.itertuples(index=False))) == exp


def test_interval_unpivot_vocab_empty_and_single_row_inputs(ray_session, tmp_path, split_reads):
    """0-row and 1-row inputs flow through the interval join, the unpivot and
    the vocab encoders without crashing."""
    from audio_feature_extraction_ray.pipelines.events import (
        interval_join_signup,
        unpivot_user_type,
    )
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        vocab_encode,
        vocab_token_ids,
    )

    for n in (0, 1):
        sfe = _events_fixture(tmp_path, ["signup"] * n, [1.0] * n)
        for fn in (interval_join_signup, unpivot_user_type):
            res = fn(sfe)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n * 5, 0) + n * 5 or len(df) in (0, n, n * 5)
        sfd = _docs_fixture(tmp_path, ["solo text"] * n)
        for fn in (vocab_token_ids, vocab_encode):
            res = fn(sfd)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= 2 * n


def _events_fixture_rows(tmp_path, rows, name="sfr"):
    """rows: (event_id, ts_us, user_id, event_type, value)"""
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert tbl.num_rows == 0 or read_events(str(sf)).materialize().num_blocks() > 1
    return str(sf)


def test_gap_buckets_counts_missing_hours(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import (
        GAP_BUCKET_US,
        gap_buckets,
    )

    H = GAP_BUCKET_US
    rows = [
        (0, 0, 1, "a", 1.0),           # hour 0
        (1, H // 2, 1, "a", 1.0),      # hour 0 again (no new bucket)
        (2, 3 * H, 1, "a", 1.0),       # hour 3 -> hours 1,2 missing
        (3, 5, 2, "a", 1.0),           # single event user: 1/1/0
    ]
    df = (
        gap_buckets(_events_fixture_rows(tmp_path, rows))
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert df.values.tolist() == [[1, 4, 2, 2], [2, 1, 1, 0]]


def test_resample_interp_matches_naive(ray_session, tmp_path, split_reads):
    """Midnight-exact endpoints (grid strictly inside), duplicate-ts ties
    at a grid point (prev = max event_id, next = min event_id), and plain
    interior interpolation — against a per-point naive scan."""
    from audio_feature_extraction_ray.pipelines.events import (
        RESAMPLE_DAY_US,
        resample_interp,
    )

    D = RESAMPLE_DAY_US
    rows = [
        # user 1: t0 exactly midnight day 0, t1 exactly midnight day 3
        (0, 0, 1, "a", 1.00),
        (1, D, 1, "a", 3.00),        # grid point day 1 == event ts
        (2, D, 1, "a", 5.00),        # duplicate ts: prev must take eid 2
        (3, 3 * D, 1, "a", 7.00),
        # user 2: single event -> no grid rows
        (4, 42, 2, "a", 9.00),
        # user 3: interior fractional interpolation
        (5, D // 2, 3, "a", 1.00),
        (6, 2 * D, 3, "a", 4.00),
    ]
    got = (
        resample_interp(_events_fixture_rows(tmp_path, rows))
        .to_pandas()
        .sort_values(["user_id", "grid_ts_us"])
        .reset_index(drop=True)
    )

    def naive():
        out = []
        byu = {}
        for r in rows:
            byu.setdefault(r[2], []).append(r)
        for u, rs in sorted(byu.items()):
            rs = sorted(rs, key=lambda r: (r[1], r[0]))
            t0, t1 = rs[0][1], rs[-1][1]
            for db in range(t0 // D + 1, (t1 - 1) // D + 1):
                g = db * D
                prev = max(
                    (r for r in rs if r[1] <= g), key=lambda r: (r[1], r[0])
                )
                nxt = min(
                    (r for r in rs if r[1] > g), key=lambda r: (r[1], r[0])
                )
                cp = int(np.floor(prev[4] * 100 + 0.5))
                cn = int(np.floor(nxt[4] * 100 + 0.5))
                frac = (g - prev[1]) / (nxt[1] - prev[1])
                v = (cp + (cn - cp) * frac) / 100.0
                out.append((u, g, np.floor(v * 1e6 + 0.5) / 1e6))
        return out

    assert list(map(tuple, got.itertuples(index=False))) == naive()
    # duplicate-ts tie: grid day 2 for user 1 interpolates FROM eid 2 (5.00)
    day2 = got[(got.user_id == 1) & (got.grid_ts_us == 2 * D)]
    assert day2["interp_value"].iloc[0] == 6.0  # (500 + (700-500)*0.5)/100


def test_jackknife_se_matches_naive_and_handles_single_user(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import jackknife_se

    # 3 users with uneven weights
    rows = [
        (0, 0, 1, "a", 1.00),
        (1, 1, 1, "a", 3.00),
        (2, 2, 2, "a", 10.00),
        (3, 3, 3, "a", 2.00),
        (4, 4, 3, "a", 4.00),
        (5, 5, 3, "a", 6.00),
    ]
    df = jackknife_se(_events_fixture_rows(tmp_path, rows, "sfj"))
    cents = [int(np.floor(r[4] * 100 + 0.5)) for r in rows]
    S, N = sum(cents), len(cents)
    users = {1: [0, 1], 2: [2], 3: [3, 4, 5]}
    devs = []
    for idx in users.values():
        su = sum(cents[i] for i in idx)
        nu = len(idx)
        devs.append(((S - su) / (N - nu) - S / N) / 100.0)
    T = sum(int(np.floor(d * d * 1e12 + 0.5)) for d in devs)
    k = len(users)
    exp_se = np.floor(np.sqrt((k - 1) / k * (T / 1e12)) * 1e6 + 0.5) / 1e6
    assert df["n_users"].iloc[0] == 3
    assert df["jackknife_se"].iloc[0] == exp_se

    # single user: SE defined as 0, no division by zero
    df1 = jackknife_se(_events_fixture_rows(tmp_path, rows[:2], "sfj1"))
    assert df1["n_users"].iloc[0] == 1
    assert df1["jackknife_se"].iloc[0] == 0.0


def test_trend_slope_recovers_planted_line(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import (
        TREND_ANCHOR_US,
        TREND_HOUR_US,
        trend_slope,
    )

    # exact line: value = 2.00 + 0.50 * hour; and a degenerate one-hour type
    rows = []
    for h in range(6):
        rows.append((h, TREND_ANCHOR_US + h * TREND_HOUR_US, 1, "lin", 2.0 + 0.5 * h))
    rows.append((10, TREND_ANCHOR_US, 2, "flat", 9.0))
    rows.append((11, TREND_ANCHOR_US + 1, 3, "flat", 5.0))  # same hour bucket
    df = trend_slope(_events_fixture_rows(tmp_path, rows, "sft")).set_index("event_type")
    assert df.loc["lin", "slope_per_hour"] == 0.5
    assert df.loc["lin", "intercept_value"] == 2.0
    assert df.loc["flat", "slope_per_hour"] == 0.0  # den == 0 guard


def test_ks_sources_known_distributions(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        KS_SOURCE_A,
        KS_SOURCE_B,
        ks_sources,
    )

    # A: lengths {1,1,2,3}; B: lengths {2,3,3,4}; exact D = 2/4
    texts, sources = [], []
    for ln, src in [(1, "a"), (1, "a"), (2, "a"), (3, "a"),
                    (2, "b"), (3, "b"), (3, "b"), (4, "b")]:
        texts.append("x" * ln)
        sources.append(KS_SOURCE_A if src == "a" else KS_SOURCE_B)
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(sources, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    sf = tmp_path / "sfks"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=3)
    df = ks_sources(str(sf))
    assert df["n_a"].iloc[0] == 4 and df["n_b"].iloc[0] == 4
    assert df["d_num"].iloc[0] == 8  # |F1*n2 - F2*n1| at v=1: 2*4 - 0*4
    assert df["ks_d"].iloc[0] == 0.5


def test_lang_source_mi_independent_vs_dependent(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import lang_source_mi

    def fixture(name, langs, sources):
        n = len(langs)
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(["t"] * n, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(sources, pa.string()),
                "n_chars": pa.array([1] * n, pa.int64()),
            }
        )
        sf = tmp_path / name
        sf.mkdir()
        pq.write_table(tbl, sf / "documents.parquet", row_group_size=3)
        return str(sf)

    # perfectly independent 2x2 (every cell equal) -> MI = 0
    ind = fixture("ind", ["en", "en", "de", "de"], ["s1", "s2", "s1", "s2"])
    assert lang_source_mi(ind)["mi_nats"].iloc[0] == 0.0
    # perfectly dependent -> MI = ln(2)
    dep = fixture("dep", ["en", "en", "de", "de"], ["s1", "s1", "s2", "s2"])
    assert lang_source_mi(dep)["mi_nats"].iloc[0] == np.floor(np.log(2) * 1e6 + 0.5) / 1e6


def test_churn_labels_cutoff_boundary(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import (
        CHURN_GAP_US,
        churn_labels,
    )

    G = CHURN_GAP_US
    rows = [
        (0, 10 * G, 1, "a", 1.0),          # corpus end (user 1: active)
        (1, 9 * G, 2, "a", 1.0),           # exactly AT cutoff -> NOT churned (<, not <=)
        (2, 9 * G - 1, 3, "a", 1.0),       # one us past cutoff -> churned
        (3, 1, 3, "a", 1.0),               # older event of user 3
    ]
    df = (
        churn_labels(_events_fixture_rows(tmp_path, rows, "sfc"))
        .to_pandas()
        .set_index("user_id")
    )
    assert df.loc[1, "label_churned"] == 0
    assert df.loc[2, "label_churned"] == 0
    assert df.loc[3, "label_churned"] == 1
    assert df.loc[3, "n_events"] == 2


def test_user_entropy_uniform_and_singleton(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import user_entropy

    rows = [
        (0, 1, 1, "a", 1.0),
        (1, 2, 1, "b", 1.0),  # user 1: two types, 1/1 -> H = ln 2
        (2, 3, 2, "a", 1.0),  # user 2: single event -> H = 0
        (3, 4, 3, "a", 1.0),
        (4, 5, 3, "a", 1.0),
        (5, 6, 3, "b", 1.0),
        (6, 7, 3, "b", 1.0),  # user 3: 2/2 -> H = ln 2
    ]
    df = (
        user_entropy(_events_fixture_rows(tmp_path, rows, "sfe"))
        .to_pandas()
        .set_index("user_id")
    )
    ln2 = np.floor(np.log(2.0) * 1e6 + 0.5) / 1e6
    assert df.loc[1, "type_entropy"] == ln2 and df.loc[1, "n_types"] == 2
    assert df.loc[2, "type_entropy"] == 0.0 and df.loc[2, "n_events"] == 1
    assert df.loc[3, "type_entropy"] == ln2 and df.loc[3, "n_events"] == 4


def test_autocorr1_planted_series_and_edges(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import autocorr1

    rows = [
        # user 1: alternating +1/-1 -> lag-1 correlation exactly -1
        (0, 1, 1, "a", 1.0),
        (1, 2, 1, "a", -1.0),
        (2, 3, 1, "a", 1.0),
        (3, 4, 1, "a", -1.0),
        (4, 5, 1, "a", 1.0),
        # user 2: constant series -> zero variance -> 0 by convention
        (5, 1, 2, "a", 3.0),
        (6, 2, 2, "a", 3.0),
        (7, 3, 2, "a", 3.0),
        # user 3: single event -> no pairs -> excluded
        (8, 1, 3, "a", 9.0),
        # user 4: duplicate ts, ordered by event_id: 1, 2, 3 -> r = +1
        (10, 7, 4, "a", 2.0),
        (9, 7, 4, "a", 1.0),
        (11, 8, 4, "a", 3.0),
    ]
    df = (
        autocorr1(_events_fixture_rows(tmp_path, rows, "sfa"))
        .to_pandas()
        .set_index("user_id")
    )
    assert df.loc[1, "autocorr1"] == -1.0 and df.loc[1, "n_pairs"] == 4
    assert df.loc[2, "autocorr1"] == 0.0
    assert 3 not in df.index
    assert df.loc[4, "autocorr1"] == 1.0 and df.loc[4, "n_pairs"] == 2


def test_survival_counts_risk_table(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import (
        CHURN_GAP_US,
        SURVIVAL_HOUR_US,
        survival_counts,
    )

    G, H = CHURN_GAP_US, SURVIVAL_HOUR_US
    end = 10 * G
    rows = [
        # user 1: duration 0h, last at corpus end -> censored at 0
        (0, end, 1, "a", 1.0),
        # user 2: duration 2h, churned (last far before cutoff)
        (1, 0, 2, "a", 1.0),
        (2, 2 * H, 2, "a", 1.0),
        # user 3: duration 2h, censored (last exactly AT cutoff: < not <=)
        (3, 9 * G - 2 * H, 3, "a", 1.0),
        (4, 9 * G, 3, "a", 1.0),
        # user 4: duration 5h, churned
        (5, 0, 4, "a", 1.0),
        (6, 5 * H, 4, "a", 1.0),
    ]
    df = survival_counts(_events_fixture_rows(tmp_path, rows, "sfs")).set_index(
        "duration_hours"
    )
    assert df.loc[0, "n_at_risk"] == 4 and df.loc[0, "n_censored"] == 1
    assert df.loc[2, "n_at_risk"] == 3
    assert df.loc[2, "n_churned"] == 1 and df.loc[2, "n_censored"] == 1
    assert df.loc[5, "n_at_risk"] == 1 and df.loc[5, "n_churned"] == 1


def test_activity_gini_known_values(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import activity_gini

    # equal counts -> gini 0
    rows = [(i, i + 1, i % 4, "a", 1.0) for i in range(8)]  # 4 users x 2 events
    df = activity_gini(_events_fixture_rows(tmp_path, rows, "sfg0"))
    assert df.loc[0, "gini"] == 0.0 and df.loc[0, "n_users"] == 4

    # counts 1, 3 over two users: sorted x=(1,3), W = 1*1 + 2*3 = 7
    # gini = (2*7 - 3*4) / (2*4) = 2/8 = 0.25
    rows = [(0, 1, 1, "a", 1.0)] + [(i, i + 1, 2, "a", 1.0) for i in range(1, 4)]
    df = activity_gini(_events_fixture_rows(tmp_path, rows, "sfg1"))
    assert df.loc[0, "gini"] == 0.25
    assert df.loc[0, "total_events"] == 4


def test_feature_hash_matches_naive_reference(ray_session, tmp_path):
    """Signed hashing-trick vectors vs a pure-python reference over the same
    frequency-rank vocabulary (ids by count DESC, token ASC; bucket =
    (id-1) % D, sign by (id-1)//D parity). Zero-sum buckets are kept."""
    from collections import Counter

    from audio_feature_extraction_ray.pipelines.text_analysis import (
        FEATURE_HASH_DIM,
        docs_feature_hash,
    )

    # >= 2*D distinct tokens so some buckets receive both signs
    D = FEATURE_HASH_DIM
    toks = [f"t{i:03d}" for i in range(2 * D + 5)]
    texts = [
        " ".join(toks[: D + 3]),
        " ".join(toks[D:]) + " " + toks[0] + " " + toks[0],
        toks[1] + " " + toks[1] + " " + toks[D + 1],
    ]
    sf = _docs_fixture(tmp_path, texts)
    got = (
        docs_feature_hash(sf)
        .to_pandas()
        .sort_values(["doc_id", "bucket"])
        .reset_index(drop=True)
    )

    corpus = Counter()
    for t in texts:
        corpus.update(t.split(" "))
    vocab = {
        tok: i + 1
        for i, (tok, _) in enumerate(
            sorted(corpus.items(), key=lambda kv: (-kv[1], kv[0]))
        )
    }
    ref = {}
    for did, t in enumerate(texts):
        for tok in t.split(" "):
            tid = vocab[tok] - 1
            b = tid % D
            s = 1 if (tid // D) % 2 == 0 else -1
            ref[(did, b)] = ref.get((did, b), 0) + s
    ref_df = (
        pd.DataFrame(
            [(d, b, v) for (d, b), v in ref.items()],
            columns=["doc_id", "bucket", "fval"],
        )
        .sort_values(["doc_id", "bucket"])
        .reset_index(drop=True)
    )
    assert len(got) == len(ref_df)
    assert (got["fval"].to_numpy() == ref_df["fval"].to_numpy()).all()
    assert (got["bucket"].to_numpy() == ref_df["bucket"].to_numpy()).all()


def test_source_hhi_known_shares(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import docs_source_hhi

    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(4, dtype=np.int64)),
            "text": pa.array(["x"] * 4, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["a", "a", "a", "b"], pa.string()),
            "n_chars": pa.array([1] * 4, pa.int64()),
        }
    )
    sf = tmp_path / "sfh"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    df = docs_source_hhi(str(sf))
    # shares 3/4 and 1/4 -> HHI = 9/16 + 1/16 = 0.625, effective = 1.6
    assert df.loc[0, "hhi"] == 0.625
    assert df.loc[0, "effective_sources"] == 1.6
    assert df.loc[0, "n_sources"] == 2 and df.loc[0, "n_docs"] == 4


def test_burstiness_periodic_and_degenerate(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import burstiness

    S = 1_000_000  # 1 second in us
    rows = [
        # user 1: perfectly periodic (gaps 10s, 10s) -> sigma=0 -> B = -1
        (0, 0, 1, "a", 1.0),
        (1, 10 * S, 1, "a", 1.0),
        (2, 20 * S, 1, "a", 1.0),
        # user 2: duplicate timestamps -> all gaps 0 -> sigma=mu=0 -> B = 0
        (3, 5 * S, 2, "a", 1.0),
        (4, 5 * S, 2, "a", 1.0),
        (5, 5 * S, 2, "a", 1.0),
        # user 3: one gap only -> excluded
        (6, 0, 3, "a", 1.0),
        (7, S, 3, "a", 1.0),
        # user 4: gaps 0s and 10s -> mu=5, sigma=5 -> B = 0
        (8, 0, 4, "a", 1.0),
        (9, 0, 4, "a", 1.0),
        (10, 10 * S, 4, "a", 1.0),
    ]
    df = (
        burstiness(_events_fixture_rows(tmp_path, rows, "sfb"))
        .to_pandas()
        .set_index("user_id")
    )
    assert df.loc[1, "burstiness"] == -1.0 and df.loc[1, "n_gaps"] == 2
    assert df.loc[2, "burstiness"] == 0.0
    assert 3 not in df.index
    assert df.loc[4, "burstiness"] == 0.0


def test_hour_uniformity_known_chi2(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import hour_uniformity

    H = 3_600_000_000
    # type "a": 24 events, one per hour -> chi2 = 0 (perfectly uniform)
    rows = [(i, i * H, 1, "a", 1.0) for i in range(24)]
    # type "b": 24 events all in hour 0 -> chi2 = (24*576 - 576)/24 = 552
    rows += [(100 + i, i * 24 * H, 2, "b", 1.0) for i in range(24)]
    df = hour_uniformity(_events_fixture_rows(tmp_path, rows, "sfu")).set_index(
        "event_type"
    )
    assert df.loc["a", "chi2_hour"] == 0.0
    assert df.loc["b", "chi2_hour"] == 552.0
    assert df.loc["b", "n"] == 24


def test_wau_daily_window_semantics(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import WAU_DAY_US, wau_daily

    D = WAU_DAY_US
    rows = [
        # user 1 active day 0; user 2 active days 0 and 10
        (0, 0, 1, "a", 1.0),
        (1, D // 2, 1, "a", 1.0),       # same day, must not double-count
        (2, 0, 2, "a", 1.0),
        (3, 10 * D, 2, "a", 1.0),
    ]
    df = wau_daily(_events_fixture_rows(tmp_path, rows, "sfw")).set_index("day")
    # days 0-6: both users in window (user1 day0 covers 0..6) -> wau 2
    for d in range(0, 7):
        assert df.loc[d, "wau"] == 2, d
    # days 7-9: nobody active in trailing window
    for d in range(7, 10):
        assert d not in df.index, d
    # day 10: user 2 only
    assert df.loc[10, "wau"] == 1
    # clipped at corpus max day (10): no trailing rows past it
    assert df.index.max() == 10


def test_circadian_phase_point_mass_and_balance(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import circadian_phase

    H = 3_600_000_000
    rows = [
        # user 1: always hour 6 -> mean_hour 6, R = 1
        (0, 6 * H, 1, "a", 1.0),
        (1, 30 * H, 1, "a", 1.0),
        # user 2: hours 0 and 12 (antipodal) -> R = 0
        (2, 0, 2, "a", 1.0),
        (3, 12 * H, 2, "a", 1.0),
    ]
    df = (
        circadian_phase(_events_fixture_rows(tmp_path, rows, "sfcp"))
        .to_pandas()
        .set_index("user_id")
    )
    assert abs(df.loc[1, "mean_hour"] - 6.0) < 1e-5 and df.loc[1, "resultant_r"] == 1.0
    assert df.loc[2, "resultant_r"] < 1e-5


def _docs_fixture_full(tmp_path, rows, name="sfq"):
    """rows: (doc_id, text, lang, source)"""
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array([r[3] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    return str(sf)


def test_length_anova_known_f(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import docs_length_anova

    # lang A lengths 1, 3; lang B lengths 5, 7 -> SSB=16, SSW=4 -> F=8
    rows = [
        (0, "x", "aa", "s"),
        (1, "xxx", "aa", "s"),
        (2, "xxxxx", "bb", "s"),
        (3, "xxxxxxx", "bb", "s"),
    ]
    df = docs_length_anova(_docs_fixture_full(tmp_path, rows, "sfav"))
    assert df.loc[0, "f_stat"] == 8.0
    assert df.loc[0, "n_langs"] == 2 and df.loc[0, "n_docs"] == 4

    # zero within-group variance -> degenerate branch reports 0
    rows = [(0, "xx", "aa", "s"), (1, "xx", "aa", "s"), (2, "yyyy", "bb", "s")]
    df = docs_length_anova(_docs_fixture_full(tmp_path, rows, "sfav0"))
    assert df.loc[0, "f_stat"] == 0.0


def test_source_js_identical_and_disjoint(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import docs_source_js

    # sources a, b identical distributions -> JS = 0; c disjoint -> JS = ln 2
    rows = [
        (0, "w1 w2 w2", "en", "a"),
        (1, "w1 w2 w2", "en", "b"),
        (2, "z1 z2", "en", "c"),
    ]
    df = docs_source_js(_docs_fixture_full(tmp_path, rows, "sfjs")).set_index(
        ["source_a", "source_b"]
    )
    ln2 = np.floor(np.log(2.0) * 1e6 + 0.5) / 1e6
    assert df.loc[("a", "b"), "js_nats"] == 0.0
    assert abs(df.loc[("a", "c"), "js_nats"] - ln2) < 2e-6
    assert abs(df.loc[("b", "c"), "js_nats"] - ln2) < 2e-6
    assert df.loc[("a", "b"), "n_tokens"] == 2  # shared vocab {w1, w2}
    assert df.loc[("a", "c"), "n_tokens"] == 4  # union vocab


def test_daily_anomalies_flags_spike_only(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import daily_anomalies

    D = 86_400_000_000
    rows = []
    eid = 0
    # type "a": 1 event/day for days 0..8, then 50 on day 9 -> day 9 flagged
    for d in range(9):
        rows.append((eid, d * D, 1, "a", 1.0)); eid += 1
    for _ in range(50):
        rows.append((eid, 9 * D, 1, "a", 1.0)); eid += 1
    # type "b": constant 2/day -> MAD 0, nothing flagged (0 > 0 false)
    for d in range(10):
        rows.append((eid, d * D, 2, "b", 1.0)); eid += 1
        rows.append((eid, d * D, 3, "b", 1.0)); eid += 1
    df = daily_anomalies(_events_fixture_rows(tmp_path, rows, "sfan"))
    assert len(df) == 1
    assert df.loc[0, "event_type"] == "a" and df.loc[0, "day"] == 9
    assert df.loc[0, "n_events"] == 50


def test_type_affinity_known_lift(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import type_affinity

    # 4 users: u1 {a,b}, u2 {a,b}, u3 {a}, u4 {b}
    # singles: a=3, b=3, both=2, n_users=4 -> lift = 2*4/(3*3) = 8/9
    rows = [
        (0, 1, 1, "a", 1.0), (1, 2, 1, "b", 1.0),
        (2, 3, 2, "a", 1.0), (3, 4, 2, "b", 1.0), (4, 5, 2, "b", 1.0),
        (5, 6, 3, "a", 1.0),
        (6, 7, 4, "b", 1.0),
    ]
    df = type_affinity(_events_fixture_rows(tmp_path, rows, "sfaf"))
    assert len(df) == 1
    assert df.loc[0, "type_a"] == "a" and df.loc[0, "type_b"] == "b"
    assert df.loc[0, "n_both"] == 2
    assert df.loc[0, "lift"] == np.floor(8.0 / 9.0 * 1e6 + 0.5) / 1e6


def test_time_to_convert_position_semantics(ray_session, tmp_path, split_reads):
    from audio_feature_extraction_ray.pipelines.events import time_to_convert

    S = 1_000_000
    rows = [
        # user 1: purchase BEFORE signup (excluded), then signup, then purchase
        (0, 0, 1, "purchase", 1.0),
        (1, 10 * S, 1, "signup", 1.0),
        (2, 25 * S, 1, "purchase", 1.0),
        # user 2: signup, no purchase -> excluded
        (3, 0, 2, "signup", 1.0),
        (4, 5 * S, 2, "view", 1.0),
        # user 3: purchase only -> excluded
        (5, 0, 3, "purchase", 1.0),
        # user 4: same-ts signup then purchase (event_id order) -> delta 0
        (6, 7 * S, 4, "signup", 1.0),
        (7, 7 * S, 4, "purchase", 1.0),
    ]
    df = (
        time_to_convert(_events_fixture_rows(tmp_path, rows, "sfc2"))
        .to_pandas()
        .set_index("user_id")
    )
    assert set(df.index) == {1, 4}
    assert df.loc[1, "convert_us"] == 15 * S
    assert df.loc[4, "convert_us"] == 0


def test_sentence_stats_segmentation(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import doc_sentence_stats

    texts = [
        "one two. three!  four?five...",   # segs: 'one two', ' three', '  four', 'five', ''
        "no punctuation here",
        "...",                              # only separators -> 0 sentences
    ]
    sf = _docs_fixture(tmp_path, texts)
    df = doc_sentence_stats(sf).to_pandas().set_index("doc_id")
    assert df.loc[0, "n_sentences"] == 4
    # trimmed lengths: 7, 5, 4, 4 -> mean 5.0
    assert df.loc[0, "mean_sentence_chars"] == 5.0
    assert df.loc[1, "n_sentences"] == 1
    assert df.loc[2, "n_sentences"] == 0 and np.isnan(df.loc[2, "mean_sentence_chars"])


def test_dup_rate_by_source_cross_source_dups(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        docs_dup_rate_by_source,
    )

    # 'dup' appears in sources a AND b -> both sides count as duplicated
    rows = [
        (0, "dup", "en", "a"),
        (1, "dup", "en", "b"),
        (2, "unique one", "en", "a"),
        (3, "unique two", "en", "b"),
        (4, "unique three", "en", "b"),
    ]
    df = docs_dup_rate_by_source(
        _docs_fixture_full(tmp_path, rows, "sfdr")
    ).set_index("source")
    assert df.loc["a", "n_dup_docs"] == 1 and df.loc["a", "n_docs"] == 2
    assert df.loc["a", "dup_rate"] == 0.5
    assert df.loc["b", "n_dup_docs"] == 1 and df.loc["b", "n_docs"] == 3


def test_session3_ops_empty_and_single_row_inputs(ray_session, tmp_path, split_reads):
    """0-row and 1-row corpora flow through every round-5 session-3 operator
    without crashing (empty folds return None; segment kernels must handle
    zero segments)."""
    from audio_feature_extraction_ray.pipelines.events import (
        activity_gini,
        autocorr1,
        burstiness,
        circadian_phase,
        daily_anomalies,
        hour_uniformity,
        survival_counts,
        time_to_convert,
        type_affinity,
        user_entropy,
        wau_daily,
    )
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        doc_sentence_stats,
        docs_dup_rate_by_source,
        docs_feature_hash,
        docs_length_anova,
        docs_source_hhi,
        docs_source_js,
    )

    for n in (0, 1):
        rows = [(0, 1, 1, "a", 1.0)][:n]
        sfe = _events_fixture_rows(tmp_path, rows, f"sfe3{n}")
        for fn in (user_entropy, autocorr1, survival_counts, activity_gini,
                   burstiness, hour_uniformity, wau_daily, circadian_phase,
                   daily_anomalies, type_affinity, time_to_convert):
            res = fn(sfe)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n, 7), (fn.__name__, len(df))
        texts = ["solo text."][:n]
        sfd = _docs_fixture(tmp_path, texts) if n else None
        if sfd is None:
            # build an explicitly empty documents table
            tbl = pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "source": pa.array([], pa.string()),
                    "n_chars": pa.array([], pa.int64()),
                }
            )
            sfd = tmp_path / "sfd30"
            sfd.mkdir(exist_ok=True)
            pq.write_table(tbl, sfd / "documents.parquet")
            sfd = str(sfd)
        for fn in (doc_sentence_stats, docs_source_hhi, docs_length_anova,
                   docs_source_js, docs_dup_rate_by_source, docs_feature_hash):
            res = fn(sfd)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n * 40, 1), (fn.__name__, len(df))
