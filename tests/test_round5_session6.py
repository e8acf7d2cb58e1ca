"""Round-5 session-6 operators. Oracle parity is covered by the
parametrized test_queries_oracle harness; these tests pin what SQL
equality can't see — integer-exactness edges, sentinel semantics, and
0-row flows."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from audio_feature_extraction_ray.pipelines.events import read_events


def _docs_fixture(tmp_path, texts, name="sfd6"):
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
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    return str(sf)


def test_quality_logistic_edges(ray_session, tmp_path):
    """Empty doc hard-rejects with the sentinel; the length term saturates
    at 300 tokens; keep is strictly logit > 0 (a zero logit is a reject)."""
    from audio_feature_extraction_ray.pipelines.text_analysis import quality_logistic

    long_doc = " ".join(["token"] * 400)  # saturates min(ntok, 300)
    cap_doc = " ".join(["token"] * 300)
    texts = ["", long_doc, cap_doc, "the of a and in"]
    df = (
        quality_logistic(_docs_fixture(tmp_path, texts))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert df["logit_1e6"][0] == -10_000_000 and not df["keep"][0]
    # saturation: 400-token and 300-token docs get the SAME length term;
    # remaining terms are identical (same token), so logits are equal
    assert df["logit_1e6"][1] == df["logit_1e6"][2]
    # keep is exactly logit > 0 on every row
    assert (df["keep"] == (df["logit_1e6"] > 0)).all()


def test_quality_logistic_integer_exact_vs_naive(ray_session, tmp_path):
    """Pin the engine's vectorized integer arithmetic against a scalar
    per-doc reference (pure-python ints, no numpy) on a mixed corpus."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        _EN_STOP,
        quality_logistic,
    )

    rng = np.random.default_rng(7)
    words = ["the", "a", "of", "spark", "data", "merge", "xylophone", "q,!?."]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(1, 120)).tolist())
        for _ in range(60)
    ] + [""]
    df = (
        quality_logistic(_docs_fixture(tmp_path, texts, name="sfq6"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    stop = set(_EN_STOP)
    punct_chars = set(".,;:!?'\"()-")
    for i, t in enumerate(texts):
        charc = len(t)
        toks = t.lower().split(" ") if t else []
        ntok = len(toks) if t else 0
        if charc == 0 or ntok == 0:
            want = -10_000_000
        else:
            sum_len = charc - (ntok - 1)
            stop_cnt = sum(1 for w in toks if w in stop)
            punct_cnt = sum(1 for c in t if c in punct_chars)
            d = abs(sum_len * 1_000_000 - 5_000_000 * ntok) // ntok
            want = (
                -900_000
                + 6_000 * min(ntok, 300)
                + max(0, 1_000_000 - d // 5) // 2
                + (800_000 * stop_cnt) // ntok
                - (1_600_000 * punct_cnt) // charc
            )
        assert df["logit_1e6"][i] == want, (i, t)


def test_trigram_novelty_planted(ray_session, tmp_path):
    """doc0 introduces every gram (novelty 1.0); an exact copy later has
    novelty 0; short docs (<3 tokens) are excluded; counts are exact."""
    from audio_feature_extraction_ray.pipelines.text_analysis import trigram_novelty

    texts = [
        "a b c d e",          # doc0: grams abc bcd cde -> all novel
        "a b c d e",          # doc1: exact copy -> novelty 0
        "x y",                # doc2: <3 tokens -> excluded
        "a b c z w v",        # doc3: 'a b c' seen, 'b c z','c z w','z w v' novel
    ]
    df = (
        trigram_novelty(_docs_fixture(tmp_path, texts, name="sftn"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert df["doc_id"].tolist() == [0, 1, 3]
    assert df["n_tri"].tolist() == [3, 3, 4]
    assert df["n_novel"].tolist() == [3, 0, 3]
    assert df["novelty_1e6"].tolist() == [1_000_000, 0, 750_000]


def test_trigram_novelty_within_doc_distinct(ray_session, tmp_path):
    """Repeated grams inside one doc count once (distinct per doc), and the
    repeating doc still owns them if it is first."""
    from audio_feature_extraction_ray.pipelines.text_analysis import trigram_novelty

    texts = ["p q r p q r p q r"]  # grams: pqr qrp rpq (x>1 each), 7 heads
    df = trigram_novelty(_docs_fixture(tmp_path, texts, name="sftd")).to_pandas()
    assert df["n_tri"].tolist() == [3]      # distinct, not 7
    assert df["n_novel"].tolist() == [3]
    assert df["novelty_1e6"].tolist() == [1_000_000]


def _events_fixture(tmp_path, ts_us, values, name="sfe6"):
    n = len(ts_us)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(np.asarray(ts_us, dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.zeros(n, dtype=np.int64)),
            "event_type": pa.array(["x"] * n, pa.string()),
            "value": pa.array(np.asarray(values, dtype=np.float64)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    return str(sf)


def test_day_peer_rank_ties_and_singleton(ray_session, tmp_path, split_reads):
    """RANK() tie semantics (equal values share the min rank, next rank
    skips), percentile span is exactly [0, 1e6], and a singleton day gets
    pct 0."""
    from audio_feature_extraction_ray.pipelines.events import day_peer_rank

    DAY = 86_400_000_000
    # day 0: values 5, 1, 5, 3, 9  -> ranks 3, 1, 3, 2, 5 (tie at 5, skip 4)
    # day 1: single event          -> rank 1, day_n 1, pct 0
    ts = [10, 20, 30, 40, 50, DAY + 10]
    vals = [5.0, 1.0, 5.0, 3.0, 9.0, 7.0]
    df = (
        day_peer_rank(_events_fixture(tmp_path, ts, vals))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert df["rank_asc"].tolist() == [3, 1, 3, 2, 5, 1]
    assert df["day_n"].tolist() == [5, 5, 5, 5, 5, 1]
    # pct: (rank-1)*1e6 // (n-1): rank 1 -> 0, rank 5 of 5 -> 1e6
    assert df["pct_1e6"].tolist() == [500_000, 0, 500_000, 250_000, 1_000_000, 0]


def test_kcenter_matches_naive_gonzalez(ray_session, tmp_path):
    """Distributed greedy k-center must reproduce the single-process
    Gonzalez selection exactly (same seed = smallest id, same GEMM distance
    formula, ties to smaller id), and radius2 must be non-increasing."""
    from audio_feature_extraction_ray.stages.ann import kcenter_select
    import ray as _ray

    rng = np.random.default_rng(31)
    n, d, k = 200, 8, 10
    m = rng.normal(size=(n, d)).astype(np.float32)
    ids = rng.permutation(n).astype(np.int64)  # ids NOT in row order
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
        }
    )
    sf = tmp_path / "sfkc"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=17)
    ds = _ray.data.read_parquet(str(sf / "embeddings.parquet"))
    df = kcenter_select(ds, k=k).reset_index(drop=True)

    order = np.argsort(ids)
    sids, sm = ids[order], m[order].astype(np.float64)
    cidx = [0]
    want = [(0, int(sids[0]))]
    for r in range(1, k):
        c = sm[cidx]
        dist = (sm * sm).sum(1)[:, None] - 2.0 * (sm @ c.T) + (c * c).sum(1)[None, :]
        mind = dist.min(1)
        best = np.lexsort((sids, -mind))[0]
        want.append((r, int(sids[best])))
        cidx.append(best)
    assert list(zip(df["round"], df["vec_id"])) == want
    r2 = df["radius2"].to_numpy()[1:]
    assert (np.diff(r2) <= 1e-12).all()  # non-increasing coverage radius


def test_kcenter_exhausted_corpus_stops_early(ray_session, tmp_path):
    """k greater than the number of distinct points stops once the radius
    hits zero instead of re-selecting chosen points."""
    from audio_feature_extraction_ray.stages.ann import kcenter_select
    import ray as _ray

    m = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(3, dtype=np.int64)),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
        }
    )
    sf = tmp_path / "sfkx"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet")
    ds = _ray.data.read_parquet(str(sf / "embeddings.parquet"))
    df = kcenter_select(ds, k=10)
    assert len(df) == 3  # 3 distinct points -> 3 rounds, then radius 0


def test_label_top_terms_planted(ray_session, tmp_path):
    """Cluster labeling: per-label doc-frequency top-k with exact
    row_number() tie order (df DESC, token ASC); stopwords and repeats
    within a doc never count."""
    import ray as _ray
    from audio_feature_extraction_ray.pipelines.text_analysis import label_top_terms

    texts = [
        "apple apple banana the",   # label 0: apple(df1) banana(df1)
        "apple cherry",             # label 0: apple(df2) cherry(df1)
        "dog dog dog",              # label 1: dog(df1)
        "dog emu",                  # label 1: dog(df2) emu(df1)
    ]
    sf = _docs_fixture(tmp_path, texts, name="sflt")
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(4, dtype=np.int64)),
            "embedding": pa.array([[0.0, 0.0]] * 4, pa.list_(pa.float32())),
            "label": pa.array([0, 0, 1, 1], pa.int32()),
        }
    )
    pq.write_table(emb, f"{sf}/embeddings.parquet")
    df = (
        label_top_terms(sf, k=2)
        .to_pandas()
        .sort_values(["label", "rank"])
        .reset_index(drop=True)
    )
    # label 0: apple df2 rank1; banana/cherry tie df1 -> banana (token asc)
    # label 1: dog df2 rank1; emu df1 rank2
    assert df[["label", "tok", "df", "rank"]].values.tolist() == [
        [0, "apple", 2, 1],
        [0, "banana", 1, 2],
        [1, "dog", 2, 1],
        [1, "emu", 1, 2],
    ]


def test_debounce_chained_window(ray_session, tmp_path, split_reads):
    """The suppression window chains from KEPT events only: a dense run
    longer than the window keeps the first event and the first one PAST
    kept_ts + window — unlike gap sessionization, which would keep only
    the run head."""
    from audio_feature_extraction_ray.pipelines.events import debounce

    W = 48 * 3600 * 1_000_000
    # one user/type; events at 0, W/2, W (dropped: <= 0+W), W+1 (kept),
    # then W+1+W+1 (kept: strictly after (W+1)+W)
    ts = [0, W // 2, W, W + 1, 2 * W + 2]
    df = (
        debounce(_events_fixture(tmp_path, ts, [1.0] * 5, name="sfdb"))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert df["kept"].tolist() == [True, False, False, True, True]


def test_debounce_independent_per_type(ray_session, tmp_path, split_reads):
    """Windows never chain across (user, type) chains."""
    from audio_feature_extraction_ray.pipelines.events import debounce

    n = 6
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(np.array([0, 1, 2, 3, 4, 5], dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.array([1, 1, 1, 1, 2, 2], dtype=np.int64)),
            "event_type": pa.array(["a", "b", "a", "b", "a", "a"], pa.string()),
            "value": pa.array(np.ones(n)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / "sfdb2"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet", row_group_size=2)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    df = debounce(str(sf)).to_pandas().sort_values("event_id").reset_index(drop=True)
    # first event of each (user, type) chain is kept; the rest are inside
    # the window of their chain head
    assert df["kept"].tolist() == [True, True, False, False, True, False]


def test_rake_keywords_hand_computed(ray_session, tmp_path):
    """RAKE on a hand-checkable corpus: phrase segmentation at stopwords,
    deg/freq word scores, phrase score = sum of member word scores, and
    repeated phrases aggregate with one score."""
    from audio_feature_extraction_ray.pipelines.text_analysis import rake_keywords

    # stopwords include 'the' and 'of'. Corpus:
    #   doc0: "deep learning of the deep learning"
    #     phrases: "deep learning" (x2, split by 'of the')
    #   doc1: "deep nets"
    # word stats over candidate instances:
    #   deep: freq 3 (two in d0 phrases, one in d1), deg = 2+2+2 = 6 -> 2.0
    #   learning: freq 2, deg 4 -> 2.0 ; nets: freq 1, deg 2 -> 2.0
    # scores: "deep learning" = 4.0 (n_occ 2), "deep nets" = 4.0 (n_occ 1)
    texts = ["deep learning of the deep learning", "deep nets"]
    df = rake_keywords(_docs_fixture(tmp_path, texts, name="sfrk")).reset_index(drop=True)
    got = {r["phrase"]: (r["n_occ"], r["score_1e6"]) for _, r in df.iterrows()}
    assert got["deep learning"] == (2, 4_000_000)
    assert got["deep nets"] == (1, 4_000_000)
    # tie order: score DESC then phrase ASC
    assert df["phrase"].tolist()[:2] == ["deep learning", "deep nets"]


def test_hard_negatives_planted(ray_session, tmp_path):
    """Planted geometry: the hardest negative is the different-label vector
    closest to the anchor; the hardest positive is the same-label vector
    farthest from it; self never matches."""
    import ray as _ray
    from audio_feature_extraction_ray.pipelines.search_dedup import (
        embedding_hard_negatives,
    )

    # 2-D unit vectors by angle; labels: 0 for ids 0-2, 1 for ids 3-5.
    # anchor 0 at angle 0. same-label: id1 (10 deg), id2 (80 deg) ->
    # hardest positive = id2. diff-label: id3 (30 deg), id4 (170 deg),
    # id5 (90 deg) -> hardest negative = id3 (most similar).
    ang = np.deg2rad(np.array([0, 10, 80, 30, 170, 90], dtype=np.float64))
    m = np.stack([np.cos(ang), np.sin(ang)], axis=1).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(6, dtype=np.int64)),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
            "label": pa.array(np.array([0, 0, 0, 1, 1, 1], dtype=np.int32), pa.int32()),
        }
    )
    sf = tmp_path / "sfhn"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=2)
    df = embedding_hard_negatives(str(sf))
    r0 = df[df["anchor_id"] == 0].iloc[0]
    assert r0["hard_neg_id"] == 3 and r0["hard_pos_id"] == 2
    # similarity sanity on the 1e-6 grid
    assert abs(r0["hard_neg_sim"] - np.floor(np.cos(np.deg2rad(30)) * 1e6 + 0.5) / 1e6) < 2e-6
    # every anchor present exactly once, with both sides mined
    assert len(df) == 6 and df["anchor_id"].tolist() == list(range(6))


def test_markov_stationary_two_state_closed_form(ray_session, tmp_path, split_reads):
    """Closed form: a 2-state chain with P(a->b)=2/3, P(b->a)=1 has
    stationary (q/(p+q), p/(p+q)) = (0.6, 0.4)."""
    from audio_feature_extraction_ray.pipelines.events import markov_stationary

    # one user; type sequence a a b a b a b a a -> transitions:
    # a->a:2, a->b:3, b->a:3  => P(a->b)=3/5... build explicitly instead:
    # sequence: a b a b a b a a a -> a->b:3, b->a:3, a->a:2
    seq = ["a", "b", "a", "b", "a", "b", "a", "a", "a"]
    n = len(seq)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(np.arange(n, dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.zeros(n, dtype=np.int64)),
            "event_type": pa.array(seq, pa.string()),
            "value": pa.array(np.ones(n)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / "sfms"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    df = markov_stationary(str(sf)).sort_values("event_type").reset_index(drop=True)
    # counts: a->b 3, a->a 2 (p = 3/5); b->a 3 (q = 1)
    p, q = 3 / 5, 1.0
    want_a, want_b = q / (p + q), p / (p + q)
    assert abs(df["stationary_p"][0] - want_a) < 1e-9
    assert abs(df["stationary_p"][1] - want_b) < 1e-9
    assert df["n_out"].tolist() == [5, 3]


def _naive_winnow(s, k=5, w=4):
    """Scalar reference: polynomial k-gram hashes + per-window rightmost
    min + consecutive dedup — pure python ints, mod 2**64."""
    B = 1099511628211
    M = (1 << 64) - 1
    b = s.encode("utf-8")
    m = len(b) - k + 1
    hs = []
    for i in range(max(m, 0)):
        h = 0
        for j in range(k):
            h = (h * B + b[i + j]) & M
        h = (h + 0x9E3779B97F4A7C15) & M
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & M
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & M
        h = h ^ (h >> 31)
        hs.append(h)
    if not hs:
        return []
    if len(hs) < w:
        return [min(hs)]
    sel, last = [], -1
    for i in range(len(hs) - w + 1):
        win = hs[i : i + w]
        mn = min(win)
        pos = i + max(j for j in range(w) if win[j] == mn)
        if pos != last:
            sel.append(hs[pos])
            last = pos
    return sel


def test_winnow_matches_naive_and_shares_substring_fp(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        WINNOW_K,
        WINNOW_W,
        _winnow_hashes,
        _winnow_select,
        winnow_fingerprints,
    )

    rng = np.random.default_rng(13)
    alpha = list("abcdefg ")
    texts = ["".join(rng.choice(alpha, size=rng.integers(0, 60)).tolist()) for _ in range(40)]
    # plant a shared substring of length >= k + w - 1 in two docs
    shared = "zqxjwvkzqxjwvk"  # 14 >= 5 + 4 - 1
    texts += ["AAA" + shared + "BBB", "CCCC" + shared + "D"]
    for t in texts:
        b = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
        got = _winnow_select(_winnow_hashes(b)).tolist()
        assert got == _naive_winnow(t, WINNOW_K, WINNOW_W), t
    # winnowing guarantee: the two planted docs share >= 1 fingerprint
    f1 = set(_winnow_select(_winnow_hashes(np.frombuffer(texts[-2].encode(), dtype=np.uint8))).tolist())
    f2 = set(_winnow_select(_winnow_hashes(np.frombuffer(texts[-1].encode(), dtype=np.uint8))).tolist())
    assert f1 & f2
    # end-to-end query flow over a fixture (schema + row count)
    df = winnow_fingerprints(_docs_fixture(tmp_path, texts, name="sfwn")).to_pandas()
    assert len(df) == len(texts)
    assert (df["n_fps"] <= np.maximum(df["n_grams"], 1)).all()


def test_funnel_paths_prefix_and_gap(ray_session, tmp_path, split_reads):
    """Paths take the first 3 events of each session in time order; a gap
    beyond SESSION_GAP_S starts a new session/path."""
    from audio_feature_extraction_ray.pipelines.events import (
        SESSION_GAP_S,
        funnel_paths_topk,
    )

    G = int(SESSION_GAP_S * 1e6)
    n = 7
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            # session 1: 4 events (path = first 3); session 2: 3 events
            "ts": pa.array(
                np.array([0, 1, 2, 3, 3 + G + 1, 4 + G + 1, 5 + G + 1], dtype=np.int64),
                pa.timestamp("us"),
            ),
            "user_id": pa.array(np.zeros(n, dtype=np.int64)),
            "event_type": pa.array(["a", "b", "c", "d", "a", "b", "c"], pa.string()),
            "value": pa.array(np.ones(n)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / "sffp"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    df = funnel_paths_topk(str(sf))
    assert df["path"].tolist() == ["a>b>c"] and df["n"].tolist() == [2]


def test_template_groups_planted(ray_session, tmp_path):
    """Docs with the same token-LENGTH sequence group together even when
    every word differs; the smallest doc_id is canonical."""
    from audio_feature_extraction_ray.pipelines.text_analysis import template_groups

    texts = [
        "dear bob your order nr 1234 shipped",   # lengths 4,3,4,5,2,4,7
        "dear ann your quote nr 9876 expired",   # same skeleton
        "completely different text",
        "dear sue your offer nr 1111 updated",   # same skeleton again
    ]
    df = (
        template_groups(_docs_fixture(tmp_path, texts, name="sftg"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert df["group_size"].tolist() == [3, 3, 1, 3]
    assert df["is_canonical"].tolist() == [True, False, True, False]
    assert df["skeleton_md5"][0] == df["skeleton_md5"][1] == df["skeleton_md5"][3]
    assert df["skeleton_md5"][0] != df["skeleton_md5"][2]


def test_session6_ops_empty_and_single_row_inputs(ray_session, tmp_path, split_reads):
    """0-row and 1-row flow guard for every session-6 operator: no crashes,
    sane cardinality."""
    import ray as _ray
    from audio_feature_extraction_ray.pipelines.events import (
        day_peer_rank,
        debounce,
        funnel_paths_topk,
        markov_stationary,
    )
    from audio_feature_extraction_ray.pipelines.search_dedup import (
        embedding_hard_negatives,
    )
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        label_top_terms,
        quality_logistic,
        rake_keywords,
        template_groups,
        trigram_novelty,
        winnow_fingerprints,
    )
    from audio_feature_extraction_ray.stages.ann import kcenter_select

    for n in (0, 1):
        # --- documents ---
        if n:
            sfd = _docs_fixture(tmp_path, ["one small doc"], name=f"sfd6f{n}")
        else:
            tbl = pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "source": pa.array([], pa.string()),
                    "n_chars": pa.array([], pa.int64()),
                }
            )
            d = tmp_path / "sfd6f0"
            d.mkdir(exist_ok=True)
            pq.write_table(tbl, d / "documents.parquet")
            sfd = str(d)
        for fn in (quality_logistic, trigram_novelty, template_groups,
                   winnow_fingerprints):
            res = fn(sfd)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) <= max(n, 1), (fn.__name__, len(df))
        df = rake_keywords(sfd)
        assert len(df) <= 20
        from audio_feature_extraction_ray.pipelines.bpe import UNI_VOCAB, unigram_pieces

        df = unigram_pieces(sfd)
        assert list(df.columns) == ["piece", "cnt", "score_1e6"]
        if n == 0:
            assert len(df) == 0
        else:
            assert 0 < len(df) <= UNI_VOCAB + 64  # alphabet + capped multi pieces
        # --- events ---
        if n:
            sfe = _events_fixture(tmp_path, [10], [1.0], name=f"sfe6f{n}")
        else:
            tbl = pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "user_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "value": pa.array([], pa.float64()),
                    "props": pa.array([], pa.string()),
                }
            )
            d = tmp_path / "sfe6f0"
            d.mkdir(exist_ok=True)
            pq.write_table(tbl, d / "events.parquet")
            sfe = str(d)
        for fn in (day_peer_rank, debounce):
            res = fn(sfe)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            assert len(df) == n, (fn.__name__, len(df))
        assert len(funnel_paths_topk(sfe)) == n
        # markov: 1 event -> no transitions -> empty
        assert len(markov_stationary(sfe)) == 0
        # --- embeddings ---
        if n:
            et = pa.table(
                {
                    "vec_id": pa.array([0], pa.int64()),
                    "embedding": pa.array([[1.0, 0.0]], pa.list_(pa.float32())),
                    "label": pa.array([0], pa.int32()),
                }
            )
        else:
            et = pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                    "label": pa.array([], pa.int32()),
                }
            )
        d = tmp_path / f"sfem6f{n}"
        d.mkdir(exist_ok=True)
        pq.write_table(et, d / "embeddings.parquet")
        # hard negatives: 0 or 1 vectors -> no (neg AND pos) pair -> empty
        assert len(embedding_hard_negatives(str(d))) == 0
        ds = _ray.data.read_parquet(str(d / "embeddings.parquet"))
        assert len(kcenter_select(ds, k=4)) == n


def test_ball_count_planted_radius(ray_session, tmp_path):
    """Exact range-search counts on planted angles around anchor 0 (tau on
    the 1e-6 grid both sides; self always counts)."""
    from audio_feature_extraction_ray.pipelines.search_dedup import (
        BALL_TAU,
        embedding_ball_count,
    )

    # anchor at angle 0; tau = 0.2 -> cutoff angle ~78.46 deg.
    # neighbors at 10 (in), 60 (in), 85 (out), 170 (out) degrees.
    ang = np.deg2rad(np.array([0, 10, 60, 85, 170], dtype=np.float64))
    m = np.stack([np.cos(ang), np.sin(ang)], axis=1).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(5, dtype=np.int64)),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
            "label": pa.array(np.zeros(5, dtype=np.int32), pa.int32()),
        }
    )
    sf = tmp_path / "sfbc"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=2)
    df = embedding_ball_count(str(sf))
    r0 = df[df["anchor_id"] == 0]["n_in_ball"].iloc[0]
    assert r0 == 3  # self + 10deg + 60deg
    assert BALL_TAU == 0.2


def test_quality_calibration_monotone_on_planted(ray_session, tmp_path):
    """A corpus spanning short junk to long fluent docs must land in
    multiple buckets, totals must sum to the corpus, and the gate's keep
    rate must be non-decreasing across the populated buckets (the two
    signals share the length/stopword features on this corpus)."""
    from audio_feature_extraction_ray.pipelines.text_analysis import quality_calibration

    texts = (
        ["x y"] * 5                                             # junk: short
        + ["the quick brown fox jumps over a lazy dog today"] * 5
        + [" ".join(["the quick brown fox jumps over a lazy dog"] * 12)] * 5
    )
    df = quality_calibration(_docs_fixture(tmp_path, texts, name="sfqc"))
    assert df["n"].sum() == len(texts)
    rates = df.sort_values("bucket")["keep_rate_1e6"].to_numpy()
    assert (np.diff(rates) >= 0).all()
    assert len(df) >= 2


def test_token_position_profile_planted(ray_session, tmp_path):
    """A token always first has mean relpos 0; always last -> 1e6; midpoint
    occurrences average exactly; single-token docs are excluded."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        token_position_profile,
    )

    texts = (
        ["head x x x x tail"] * 5   # head at rel 0, tail at rel 1e6
        + ["x head x"] * 0
        + ["solo"] * 3              # single-token docs excluded entirely
    )
    df = (
        token_position_profile(_docs_fixture(tmp_path, texts, name="sftp"))
        .to_pandas()
        .set_index("token")
    )
    assert df.loc["head", "mean_relpos_1e6"] == 0
    assert df.loc["tail", "mean_relpos_1e6"] == 1_000_000
    # x occurs at positions 1,2,3,4 of 0..5 -> rels 200000,400000,600000,800000
    assert df.loc["x", "mean_relpos_1e6"] == 500_000
    assert "solo" not in df.index


def test_pq_matches_naive_and_reduces_error(ray_session, tmp_path):
    """Distributed PQ training vs the naive single-process loop: identical
    codes on a tie-free corpus; quantization error shrinks vs iteration 0;
    every (vec, subspace) has exactly one code in [0, K)."""
    import ray as _ray
    from audio_feature_extraction_ray.stages.ann import (
        PQ_CODES,
        PQ_ITERS,
        PQ_SUBSPACES,
        embedding_pq,
    )

    rng = np.random.default_rng(5)
    n, dim = 300, 16
    m = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
        }
    )
    sf = tmp_path / "sfpq"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=64)
    df = (
        embedding_pq(str(sf))
        .to_pandas()
        .sort_values(["vec_id", "subspace"])
        .reset_index(drop=True)
    )
    assert len(df) == n * PQ_SUBSPACES
    assert df["code"].between(0, PQ_CODES - 1).all()

    # naive reference (same init, same update rule)
    md = m.astype(np.float64)
    sub = dim // PQ_SUBSPACES
    cent = np.stack(
        [md[:PQ_CODES, s * sub : (s + 1) * sub].copy() for s in range(PQ_SUBSPACES)]
    )
    for _ in range(PQ_ITERS):
        new = cent.copy()
        for s in range(PQ_SUBSPACES):
            x = md[:, s * sub : (s + 1) * sub]
            d = (x * x).sum(1)[:, None] - 2.0 * (x @ cent[s].T) + (cent[s] * cent[s]).sum(1)[None, :]
            a = d.argmin(axis=1)
            for c in range(PQ_CODES):
                msk = a == c
                if msk.any():
                    new[s, c] = x[msk].mean(axis=0)
        cent = new
    want_codes = []
    err0, err1 = 0.0, 0.0
    for s in range(PQ_SUBSPACES):
        x = md[:, s * sub : (s + 1) * sub]
        d = (x * x).sum(1)[:, None] - 2.0 * (x @ cent[s].T) + (cent[s] * cent[s]).sum(1)[None, :]
        want_codes.append(d.argmin(axis=1))
        err1 += d.min(axis=1).sum()
        c0 = md[:PQ_CODES, s * sub : (s + 1) * sub]
        d0 = (x * x).sum(1)[:, None] - 2.0 * (x @ c0.T) + (c0 * c0).sum(1)[None, :]
        err0 += d0.min(axis=1).sum()
    got = df.sort_values(["subspace", "vec_id"])["code"].to_numpy()
    assert (got == np.concatenate(want_codes)).all()
    assert err1 < err0  # Lloyd strictly improved the codebook here
    assert abs(df["sq_err"].sum() - err1) < 1e-5


def test_pq_adc_search_planted_clusters(ray_session, tmp_path):
    """With vectors sitting exactly ON codebook points (plus the 16
    smallest-id init vectors as the codebook), ADC distance is exact and
    recall is perfect; ADC arithmetic matches the naive LUT sum."""
    import ray as _ray
    from audio_feature_extraction_ray.stages.ann import (
        PQ_SUBSPACES,
        pq_adc_search,
        pq_train,
        _emb_matrix,
    )

    rng = np.random.default_rng(9)
    dim, K = 8, 16
    protos = rng.normal(size=(K, dim)).astype(np.float64) * 3
    # corpus = the 16 prototypes (ids 0-15, the deterministic init) plus
    # 100 copies of prototypes with tiny noise
    reps = protos[rng.integers(0, K, size=100)] + rng.normal(size=(100, dim)) * 1e-3
    m = np.vstack([protos, reps]).astype(np.float32)
    ids = np.arange(m.shape[0], dtype=np.int64)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array([r.tolist() for r in m], pa.list_(pa.float32())),
        }
    )
    sf = tmp_path / "sfadc"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=32)
    ds = _ray.data.read_parquet(str(sf / "embeddings.parquet"))
    cent = pq_train(ds)
    q = m[:5]
    df = pq_adc_search(ds, q, ids[:5], cent, k=3)
    # query 0..4 are prototypes: their own id must be rank 1 (ADC dist ~0)
    r1 = df[df["rank"] == 1]
    assert (r1["query_id"].to_numpy() == r1["neighbor_id"].to_numpy()).all()
    assert (r1["adc_dist"].to_numpy() < 1e-3).all()
    # naive ADC for query 0 equals the engine's reported distances
    md = m.astype(np.float64)
    S, KK, sd = cent.shape
    codes = np.empty((md.shape[0], S), dtype=np.int64)
    for s in range(S):
        x = md[:, s * sd : (s + 1) * sd]
        d = (x * x).sum(1)[:, None] - 2.0 * (x @ cent[s].T) + (cent[s] * cent[s]).sum(1)[None, :]
        codes[:, s] = d.argmin(axis=1)
    lut = np.stack(
        [((md[0, s * sd : (s + 1) * sd][None, :] - cent[s]) ** 2).sum(axis=1) for s in range(S)]
    )
    adc = lut[np.arange(S)[None, :], codes].sum(axis=1)
    order = np.lexsort((ids, adc))[:3]
    got0 = df[df["query_id"] == 0].sort_values("rank")
    assert got0["neighbor_id"].tolist() == ids[order].tolist()
    want = np.floor(adc[order] * 1e9 + 0.5) / 1e9
    assert np.allclose(got0["adc_dist"].to_numpy(), want, atol=1e-9)


def test_token_typo_pairs_planted(ray_session, tmp_path):
    """SymSpell deletion-variant candidates + exact DP verify: ED1
    (substitution, indel), ED2, and beyond-threshold pairs behave; output
    pairs are (a < b) unique."""
    from audio_feature_extraction_ray.pipelines.text_analysis import token_typo_pairs

    texts = [
        "spark spork",          # substitution -> ED1
        "data date dat gate",   # date/data ED1; dat/data, dat/date ED1; dat/gate ED2
        "zzzzzz completely",    # no near pair
    ]
    df = (
        token_typo_pairs(_docs_fixture(tmp_path, texts, name="sfty"))
        .to_pandas()
        .sort_values(["token_a", "token_b"])
        .reset_index(drop=True)
    )
    got = {(a, b): d for a, b, d in df.itertuples(index=False)}
    assert got[("spark", "spork")] == 1
    assert got[("data", "date")] == 1
    assert got[("dat", "data")] == 1
    assert got[("dat", "date")] == 1   # one insertion
    assert got[("dat", "gate")] == 2   # substitution + insertion
    assert ("completely", "zzzzzz") not in got
    # uniqueness and ordering invariants
    assert len(df) == len(set(zip(df["token_a"], df["token_b"])))
    assert (df["token_a"] < df["token_b"]).all()


def test_unigram_pieces_matches_naive_hard_em(ray_session, tmp_path):
    """Distributed hard-EM unigram tokenizer vs a plain-python reference:
    identical kept pieces, usage counts, and 1e-6-floored scores."""
    import math

    from audio_feature_extraction_ray.pipelines.bpe import (
        UNI_ITERS,
        UNI_MAX_PIECE,
        UNI_MIN_COUNT,
        UNI_VOCAB,
        unigram_pieces,
    )

    rng = np.random.default_rng(17)
    base = ["lowering", "lowest", "low", "newer", "newest", "wider", "widest", "apple"]
    texts = [" ".join(rng.choice(base, size=rng.integers(2, 9)).tolist()) for _ in range(50)]
    got = unigram_pieces(_docs_fixture(tmp_path, texts, name="sfun"))

    # ---- naive single-process reference ----
    wc: dict = {}
    for t in texts:
        for w in t.split(" "):
            if w:
                wc[w] = wc.get(w, 0) + 1
    cand: dict = {}
    for w, c in wc.items():
        for i in range(len(w)):
            for L in range(1, min(UNI_MAX_PIECE, len(w) - i) + 1):
                p = w[i : i + L]
                cand[p] = cand.get(p, 0) + c
    alphabet = sorted(p for p in cand if len(p) == 1)

    def prune(counts):
        kept = {}
        for ch in alphabet:
            kept[ch] = counts.get(ch, 0) + 1
        multi = sorted(
            ((p, n) for p, n in counts.items() if len(p) > 1 and n >= UNI_MIN_COUNT),
            key=lambda kv: (-kv[1], kv[0]),
        )[:UNI_VOCAB]
        kept.update(dict(multi))
        total = float(sum(kept.values()))
        return {p: math.log(n / total) for p, n in kept.items()}

    def viterbi(scores):
        usage = {}
        for w, c in wc.items():
            n = len(w)
            best = [-math.inf] * (n + 1)
            best[0] = 0.0
            back = [0] * (n + 1)
            for j in range(1, n + 1):
                for L in range(1, min(UNI_MAX_PIECE, j) + 1):
                    sc = scores.get(w[j - L : j])
                    if sc is None:
                        continue
                    cd = best[j - L] + sc
                    if cd > best[j]:
                        best[j], back[j] = cd, L
            j = n
            while j > 0:
                L = back[j]
                usage[w[j - L : j]] = usage.get(w[j - L : j], 0) + c
                j -= L
        return usage

    scores = prune(cand)
    for _ in range(UNI_ITERS):
        usage = viterbi(scores)
        scores = prune(usage)
    want = sorted(
        ((p, usage.get(p, 0), math.floor(scores[p] * 1e6) / 1e6) for p in scores),
        key=lambda r: (-r[1], r[0]),
    )
    got_rows = list(zip(got["piece"], got["cnt"], got["score_1e6"]))
    assert got_rows == want
