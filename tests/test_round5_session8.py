"""Round-5 session-8 operators. Oracle parity is covered by the
parametrized test_queries_oracle harness; these tests pin what SQL
equality can't see — planted-signal behavior, fixed-point/integer edges,
and 0-row/1-row flows."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from audio_feature_extraction_ray.pipelines.events import read_events


def _docs_fixture(tmp_path, texts, sources=None, langs=None, name="sfd8"):
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
            "source": pa.array(sources or ["s"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "documents.parquet", row_group_size=2)
    return str(sf)


def test_distinct_bigram_ratio_planted(ray_session, tmp_path):
    """A templated source (one bigram repeated) scores far below a diverse
    source; the ratio is the exact integer floor((distinct*1e6)//total)."""
    from audio_feature_extraction_ray.pipelines.text_analysis import distinct_bigram_ratio

    texts = ["spam spam spam spam spam"] * 4  # 4 docs x 4 bigrams, 1 distinct
    texts += ["a b c d e", "f g h i j"]  # 8 bigrams, 8 distinct
    sources = ["tmpl"] * 4 + ["div"] * 2
    df = distinct_bigram_ratio(_docs_fixture(tmp_path, texts, sources=sources))
    df = df.set_index("source")
    assert int(df.loc["tmpl", "n_bigrams"]) == 16
    assert int(df.loc["tmpl", "n_distinct"]) == 1
    assert int(df.loc["tmpl", "distinct_ratio_1e6"]) == (1 * 10**6) // 16
    assert int(df.loc["div", "n_bigrams"]) == 8
    assert int(df.loc["div", "n_distinct"]) == 8
    assert int(df.loc["div", "distinct_ratio_1e6"]) == 10**6


def test_distinct_bigram_ratio_single_token_docs(ray_session, tmp_path):
    """Docs with < 2 tokens contribute no bigrams; a source made only of
    them disappears from the output (same as the SQL twin's empty join)."""
    from audio_feature_extraction_ray.pipelines.text_analysis import distinct_bigram_ratio

    texts = ["solo", "alone", "x y"]
    sources = ["shorts", "shorts", "ok"]
    df = distinct_bigram_ratio(_docs_fixture(tmp_path, texts, sources=sources))
    assert set(df["source"]) == {"ok"}
    assert int(df.set_index("source").loc["ok", "n_bigrams"]) == 1


def test_bigram_coverage_exact_curve(ray_session, tmp_path):
    """Hand-computed corpus: coverage at each k equals the cumulative count
    of the top-k bigrams under (n DESC, bigram ASC), over the exact total."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        BIGRAM_COVERAGE_KS,
        bigram_coverage,
    )

    # bigram counts: 'a b' x 6 (3 docs of 'a b a b' -> 3 each? no: 'a b a b'
    # has bigrams [a b, b a, a b] -> 2x 'a b', 1x 'b a' per doc)
    texts = ["a b a b"] * 3 + ["c d"] * 4
    # totals: 'a b' 6, 'b a' 3, 'c d' 4 -> total 13
    df = bigram_coverage(_docs_fixture(tmp_path, texts))
    assert list(df["k"]) == list(BIGRAM_COVERAGE_KS)
    row10 = df[df["k"] == 10].iloc[0]
    # only 3 distinct bigrams; top-10 covers everything
    assert int(row10["covered"]) == 13 and int(row10["n_bigrams"]) == 13
    assert int(row10["coverage_1e6"]) == 10**6


def test_bigram_coverage_tie_and_truncation(ray_session, tmp_path):
    """k smaller than the distinct-bigram count: ties on n break by bigram
    ASC exactly as the SQL row_number order."""
    from audio_feature_extraction_ray.pipelines import text_analysis as ta

    old = ta.BIGRAM_COVERAGE_KS
    ta.BIGRAM_COVERAGE_KS = (1, 2, 500)
    try:
        # 'x y' and 'p q' both count 2 -> rank 1 is 'p q' (ASC); 'z w' count 1
        texts = ["x y", "x y", "p q", "p q", "z w"]
        df = ta.bigram_coverage(_docs_fixture(tmp_path, texts)).set_index("k")
        assert int(df.loc[1, "covered"]) == 2  # 'p q'
        assert int(df.loc[2, "covered"]) == 4  # 'p q' + 'x y'
        assert int(df.loc[500, "covered"]) == 5
        assert int(df.loc[1, "coverage_1e6"]) == (2 * 10**6) // 5
    finally:
        ta.BIGRAM_COVERAGE_KS = old


def test_topic_seeds_argmax_and_ties(ray_session, tmp_path):
    """Winner is the max seed-hit count; exact ties go to the
    lexicographically-smallest topic; zero hits -> 'none'."""
    from audio_feature_extraction_ray.pipelines.text_analysis import topic_seeds

    texts = [
        "join filter scan pad",        # execution 3
        "table row stream batch",      # storage 2 vs streaming 2 -> storage (asc)
        "pad pad pad",                 # none
        "window stream table",         # streaming 2 vs storage 1
        "",                            # empty doc -> none
    ]
    df = topic_seeds(_docs_fixture(tmp_path, texts)).to_pandas().set_index("doc_id")
    assert df.loc[0, "topic"] == "execution" and df.loc[0, "score"] == 3
    assert df.loc[1, "topic"] == "storage" and df.loc[1, "score"] == 2
    assert df.loc[2, "topic"] == "none" and df.loc[2, "score"] == 0
    assert df.loc[3, "topic"] == "streaming" and df.loc[3, "score"] == 2
    assert df.loc[4, "topic"] == "none" and df.loc[4, "score"] == 0


def test_session8_zero_and_one_row_flows(ray_session, tmp_path):
    """0-row and 1-row inputs flow through every session-8 operator."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        bigram_coverage,
        distinct_bigram_ratio,
        topic_seeds,
    )

    empty = _docs_fixture(tmp_path, [], name="sfd8e")
    one = _docs_fixture(tmp_path, ["join scan"], name="sfd8o")

    assert len(distinct_bigram_ratio(empty)) == 0
    assert len(bigram_coverage(empty)) == 0
    assert topic_seeds(empty).count() == 0

    r1 = distinct_bigram_ratio(one)
    assert len(r1) == 1 and int(r1.iloc[0]["n_bigrams"]) == 1
    c1 = bigram_coverage(one)
    assert int(c1.iloc[0]["covered"]) == 1
    t1 = topic_seeds(one).to_pandas()
    assert t1.iloc[0]["topic"] == "execution" and t1.iloc[0]["score"] == 2


def _edges_ds(pairs):
    import ray.data

    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    return ray.data.from_arrow(pa.table({"a": a, "b": b}))


def test_kcore_triangle_plus_tail(ray_session):
    """Triangle {0,1,2} + pendant 3: the 2-core is exactly the triangle,
    each member with core degree 2."""
    from audio_feature_extraction_ray.stages.graph import kcore

    out = kcore(_edges_ds([(0, 1), (1, 2), (0, 2), (0, 3)]), 2).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    assert list(out["node"]) == [0, 1, 2]
    assert list(out["degree"]) == [2, 2, 2]


def test_kcore_chain_unravels_over_rounds(ray_session):
    """A path graph has no 2-core, but peeling removes one layer of
    endpoints per round — exercises multi-round convergence."""
    from audio_feature_extraction_ray.stages.graph import kcore

    path = [(i, i + 1) for i in range(6)]
    out = kcore(_edges_ds(path), 2).to_pandas()
    assert len(out) == 0


def test_kcore_round_guard_raises(ray_session):
    """The exact-regime contract: exceeding max_rounds raises instead of
    silently returning a non-fixpoint (the SQL twin unrolls max_rounds)."""
    import pytest

    from audio_feature_extraction_ray.stages.graph import kcore

    path = [(i, i + 1) for i in range(10)]  # needs ~5 peel rounds
    with pytest.raises(RuntimeError, match="fixpoint"):
        kcore(_edges_ds(path), 2, max_rounds=2)


def test_kcore_vs_naive_networkx_style(ray_session):
    """Random-ish deterministic graph vs a naive python peeling reference."""
    from audio_feature_extraction_ray.stages.graph import kcore

    rng = np.random.RandomState(7)
    n = 40
    pairs = set()
    for _ in range(120):
        a, b = rng.randint(0, n), rng.randint(0, n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)

    def naive_kcore(edges, k):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        changed = True
        while changed:
            changed = False
            for v in [v for v, nb in adj.items() if len(nb) < k]:
                for u in adj.pop(v):
                    adj[u].discard(v)
                changed = True
        return {v: len(nb) for v, nb in adj.items()}

    for k in (2, 3, 4):
        want = naive_kcore(pairs, k)
        got = kcore(_edges_ds(pairs), k, max_rounds=40).to_pandas()
        assert dict(zip(got["node"], got["degree"])) == want


def _events_fixture(tmp_path, ts_us, user_ids, values, types=None, name="sfe8"):
    n = len(ts_us)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(np.asarray(ts_us, dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.asarray(user_ids, dtype=np.int64)),
            "event_type": pa.array(types or ["click"] * n, pa.string()),
            "value": pa.array(np.asarray(values, dtype=np.float64)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    return str(sf)


def test_zorder_tiles_bit_interleave(ray_session, tmp_path, split_reads):
    """Morton key: user bits land on odd positions, value bits on even;
    hand-checked tiles with exact ts spans."""
    from audio_feature_extraction_ray.pipelines.events import zorder_tiles

    # (user=1, value bucket 0) -> z = 2 ; (user=0, v=1 i.e. value 64) -> z = 1
    # (user=3, v=2 -> value 128) -> ux bits 11 -> z odd positions 2+8=10,
    # vx=2 -> bit1 even position 4 -> z=14
    sf = _events_fixture(
        tmp_path,
        ts_us=[1_000_000, 2_000_000, 3_000_000, 4_000_000],
        user_ids=[1, 0, 3, 1],
        values=[1.0, 64.0, 128.0, 10.0],
    )
    df = zorder_tiles(sf).set_index("z")
    assert set(df.index) == {2, 1, 14}
    assert int(df.loc[2, "n"]) == 2  # events 0 and 3 share the tile
    assert df.loc[2, "min_ts"].value == 1_000_000_000  # ns
    assert df.loc[2, "max_ts"].value == 4_000_000_000
    assert int(df.loc[1, "n"]) == 1 and int(df.loc[14, "n"]) == 1


def test_zorder_value_clamp(ray_session, tmp_path, split_reads):
    """Values beyond the top bucket clamp to 2^bits - 1 (no key overflow)."""
    from audio_feature_extraction_ray.pipelines.events import zorder_tiles

    sf = _events_fixture(tmp_path, [1_000_000], [0], [99_999.0], name="sfe8c")
    df = zorder_tiles(sf)
    # ux=0, vx=7 -> z = 1 + 4 + 16 = 21
    assert list(df["z"]) == [21] and int(df.iloc[0]["n"]) == 1


def test_nucleus_keep_rule_exact(ray_session, tmp_path):
    """Keep while 2*exclusive-mass < total, ties at the flip bucket go to
    the smallest doc_ids — verified against a naive per-source reference
    on a corpus with deliberate quality ties."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        nucleus_by_source,
        quality_scores,
    )

    texts, sources = [], []
    base = ["alpha beta gamma delta epsilon", "a b", "one two three four five six",
            "the of and to in is", "zz", "alpha beta gamma delta epsilon"]
    for rep in range(3):
        for t in base:
            texts.append(t)
            sources.append("s" + str(rep % 2))
    sf = _docs_fixture(tmp_path, texts, sources=sources, name="sfn8")
    out = nucleus_by_source(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)

    q = np.floor(quality_scores(pa.array(texts, pa.string())) * 1e6 + 0.5).astype(np.int64)
    keep_want = np.zeros(len(texts), dtype=np.int64)
    for s in set(sources):
        idx = [i for i in range(len(texts)) if sources[i] == s]
        order = sorted(idx, key=lambda i: (-q[i], i))
        tot = int(sum(int(q[i]) for i in idx))
        excl = 0
        for i in order:
            keep_want[i] = 1 if 2 * excl < tot else 0
            excl += int(q[i])
    assert list(out["keep"]) == list(keep_want)
    assert list(out["q1e6"]) == list(q)
    # ties exist at the flip in this corpus (duplicate texts) — make sure the
    # test actually exercises the boundary order statistic
    assert (out["keep"].to_numpy() != (out["q1e6"].to_numpy() > 0)).any()


def test_nucleus_degenerate_sources(ray_session, tmp_path):
    """Single-doc source keeps its doc (0 < tot); all-zero-quality source
    keeps nothing (0 < 0 is false) — both matching the SQL window rule."""
    from audio_feature_extraction_ray.pipelines.text_analysis import nucleus_by_source

    texts = ["alpha beta gamma delta", "", ""]
    sources = ["solo", "zero", "zero"]
    out = nucleus_by_source(_docs_fixture(tmp_path, texts, sources=sources, name="sfn8d"))
    df = out.to_pandas().set_index("doc_id")
    assert int(df.loc[0, "keep"]) == 1
    assert int(df.loc[1, "keep"]) == 0 and int(df.loc[2, "keep"]) == 0


def test_trunc_recall_planted_geometry(ray_session, tmp_path):
    """Vectors whose full-dim neighbors are destroyed by truncation: the
    head half is identical across a decoy group, the tail half carries the
    true similarity — truncation recall must drop for the probe query while
    a query whose signal lives in the head keeps recall 1.0."""
    import ray.data

    from audio_feature_extraction_ray.pipelines import search_dedup as sd

    rng = np.random.RandomState(3)
    dim, half = 64, sd.TRUNC_DIM
    n = 40
    m = rng.randn(n, dim) * 0.01
    # query 0 + its true friends 10..14: same TAIL, random heads
    tail = rng.randn(dim - half)
    for i in [0] + list(range(10, 15)):
        m[i, half:] = tail
        m[i, :half] = rng.randn(half) * 5.0  # heads dominate after truncation
    # query 1 + friends 20..24: same HEAD, tiny tails -> truncation keeps them
    head = rng.randn(half)
    for i in [1] + list(range(20, 25)):
        m[i, :half] = head
        m[i, half:] = rng.randn(dim - half) * 0.001

    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array([list(map(float, r)) for r in m],
                                  pa.list_(pa.float32())),
            "label": pa.array(np.zeros(n, dtype=np.int32)),
        }
    )
    sf = tmp_path / "sfemb8"
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=7)

    old = sd.N_QUERIES
    sd.N_QUERIES = 2
    try:
        out = sd.embedding_trunc_recall(str(sf)).set_index("query_id")
    finally:
        sd.N_QUERIES = old
    assert int(out.loc[1, "recall_1e6"]) == 10**6  # head-signal query survives
    assert int(out.loc[0, "recall_1e6"]) < 10**6   # tail-signal query degrades
    assert int(out.loc[0, "n_overlap"]) == int(out.loc[0, "recall_1e6"]) * sd.TOP_K // 10**6


def test_token_burstiness_poisson_vs_bursty(ray_session, tmp_path):
    """'glue' spread one-per-doc has VMR < 1 (under-dispersed); 'burst'
    piled into one doc has VMR >> 1; exact integer formula checked by hand."""
    from audio_feature_extraction_ray.pipelines.text_analysis import token_burstiness

    # 8 docs; 'glue' once in each; 'burst' 8 times in doc 0 only
    texts = ["glue burst burst burst burst burst burst burst burst"] + ["glue pad"] * 7
    df = token_burstiness(_docs_fixture(tmp_path, texts, name="sfb8")).to_pandas()
    df = df.set_index("token")
    nd = 8
    # glue: df=8, n=8, ss=8 -> vmr = (8*8 - 64)*1e6 // (8*8) = 0
    assert int(df.loc["glue", "vmr_1e6"]) == 0
    # burst: df=1, n=8, ss=64 -> (8*64 - 64)*1e6 // (8*8) = 7_000_000
    assert int(df.loc["burst", "vmr_1e6"]) == (nd * 64 - 64) * 10**6 // (nd * 8)
    assert int(df.loc["burst", "df"]) == 1 and int(df.loc["burst", "n"]) == 8
    # 'pad' has n=7 >= 5: present; below-support tokens are filtered
    assert "pad" in df.index


def test_length_pareto_alpha_exact_grid(ray_session, tmp_path):
    """alpha matches the naive float computation on the same 1e12 term grid;
    docs below xmin are excluded."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        PARETO_XMIN,
        length_pareto_alpha,
    )

    lens = [250, 300, 400, 800, 150, 100]  # last two below xmin=200
    texts = ["x" * (l - 1) + "y" for l in lens]
    df = length_pareto_alpha(_docs_fixture(tmp_path, texts, name="sfp8"))
    tail = [l for l in lens if l >= PARETO_XMIN]
    terms = [int(np.floor(np.log(l / float(PARETO_XMIN)) * 1e12 + 0.5)) for l in tail]
    alpha = 1.0 + float(len(tail)) / (float(sum(terms)) / 1e12)
    assert int(df.iloc[0]["n_tail"]) == len(tail)
    assert int(df.iloc[0]["alpha_1e6"]) == int(np.floor(alpha * 1e6 + 0.5))


def test_softdedup_weights_planted_clusters(ray_session, tmp_path):
    """Three identical docs form one cluster (weight 1/3 each), a pair forms
    another (1/2), singletons keep weight 1."""
    from audio_feature_extraction_ray.pipelines.search_dedup import softdedup_weights

    texts = ["alpha beta gamma delta"] * 3 + ["one two three four"] * 2 + ["lonely doc here"]
    df = softdedup_weights(_docs_fixture(tmp_path, texts, name="sfw8")).to_pandas()
    df = df.sort_values("doc_id").reset_index(drop=True)
    assert list(df["cluster_size"]) == [3, 3, 3, 2, 2, 1]
    assert list(df["weight_1e6"]) == [333333, 333333, 333333, 500000, 500000, 1000000]


def test_impact_study_hand_windows(ray_session, tmp_path, split_reads):
    """Hand-built stream: boundary inclusivity ([t-W, t) strictly-before,
    (t, t+W] strictly-after), same-ts events excluded from both windows."""
    from audio_feature_extraction_ray.pipelines.events import IMPACT_W_US, impact_study

    W = IMPACT_W_US
    t0 = 10 * W  # marker ts
    ts = [t0 - W, t0 - W // 2, t0 - 1, t0, t0, t0 + 1, t0 + W, t0 + W + 1]
    #     in-pre   in-pre      in-pre  MARKER same-ts in-post in-post beyond
    types = ["click"] * 3 + ["error", "view", "click", "click", "click"]
    vals = [1.0, 2.0, 3.0, 99.0, 4.0, 5.0, 6.0, 7.0]
    sf = _events_fixture(tmp_path, ts, [1] * 8, vals, types=types, name="sfi8")
    df = impact_study(sf).to_pandas()
    assert len(df) == 1
    r = df.iloc[0]
    assert int(r["n_pre"]) == 3 and int(r["sum_pre_cents"]) == 600
    assert int(r["n_post"]) == 2 and int(r["sum_post_cents"]) == 1100


def test_impact_study_two_markers_same_user(ray_session, tmp_path, split_reads):
    """Overlapping windows of two markers count independently; a marker
    falls inside the other's window like any other event."""
    from audio_feature_extraction_ray.pipelines.events import IMPACT_W_US, impact_study

    W = IMPACT_W_US
    t0 = 10 * W
    ts = [t0, t0 + W // 2, t0 + W // 4]
    types = ["error", "error", "click"]
    vals = [1.0, 2.0, 4.0]
    sf = _events_fixture(tmp_path, ts, [7] * 3, vals, types=types, name="sfi8b")
    df = impact_study(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    # marker 0: post holds click + other marker
    assert int(df.iloc[0]["n_post"]) == 2 and int(df.iloc[0]["sum_post_cents"]) == 600
    assert int(df.iloc[0]["n_pre"]) == 0
    # marker 1: pre holds click + first marker
    assert int(df.iloc[1]["n_pre"]) == 2 and int(df.iloc[1]["sum_pre_cents"]) == 500


def test_embedding_outliers_planted(ray_session, tmp_path):
    """A tight cluster plus one far vector: only the far vector flags; the
    exact gate d2 > (4*tot)//m verified against a naive reference."""
    from audio_feature_extraction_ray.pipelines.search_dedup import (
        CENTROID_Q,
        embedding_outliers,
    )

    rng = np.random.RandomState(11)
    dim = 8
    m = rng.randn(20, dim) * 0.05
    m[7] += 10.0  # the planted outlier
    labels = np.zeros(20, dtype=np.int32)
    m2 = rng.randn(10, dim) * 0.05 + 3.0  # second tight label, no outliers
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(30, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, r)) for r in np.vstack([m, m2])], pa.list_(pa.float32())
            ),
            "label": pa.array(np.concatenate([labels, np.ones(10, np.int32)]), pa.int32()),
        }
    )
    sf = tmp_path / "sfo8"
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "embeddings.parquet", row_group_size=6)

    out = embedding_outliers(str(sf)).to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert list(out[out["is_outlier"] == 1]["vec_id"]) == [7]

    # naive reference for d2 and the gate, same quantized centroid + grid
    x = np.vstack([m, m2]).astype(np.float32).astype(np.float64)
    lab = np.concatenate([labels, np.ones(10, np.int32)])
    for l in (0, 1):
        sel = lab == l
        q = np.rint(x[sel] * CENTROID_Q).astype(np.int64)
        c = (q.sum(axis=0).astype(np.float64) / sel.sum()) / CENTROID_Q
        d2 = np.floor((x[sel] - c) ** 2 * 1e12 + 0.5).astype(np.int64).sum(axis=1)
        tot, cnt = int(d2.sum()), int(sel.sum())
        want = (d2 > (4 * tot) // cnt).astype(np.int64)
        got = out[out["label"] == l].sort_values("vec_id")
        assert list(got["d2_1e12"]) == list(d2)
        assert list(got["is_outlier"]) == list(want)


def test_audio_vad_planted_bursts(ray_session):
    """Every record's VAD segment count equals its planted burst count and
    the voiced ratio sits strictly between 0 and 1 (silence gaps present)."""
    import ray.data

    from audio_feature_extraction_ray.stages.multimodal import (
        extract_audio_vad,
        synthetic_burst_wav_table,
    )

    tbl = synthetic_burst_wav_table(16)
    out = extract_audio_vad(ray.data.from_arrow(tbl)).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    want = tbl.column("n_bursts").to_pylist()
    assert list(out["n_segments"]) == want
    assert (out["voiced_ratio"] > 0).all() and (out["voiced_ratio"] < 1).all()
    assert (out["longest_segment"] <= out["n_voiced"]).all()
    assert (out["n_voiced"] <= out["n_frames"]).all()


def test_audio_vad_silence_and_fullsignal(ray_session):
    """All-silence record -> zero segments; an unbroken tone -> exactly one
    segment spanning (nearly) all frames."""
    import ray.data

    from audio_feature_extraction_ray.functions.audio import encode_wav
    from audio_feature_extraction_ray.stages.multimodal import extract_audio_vad

    sr = 8000
    t = np.arange(sr) / sr
    tone = 0.8 * np.sin(2 * np.pi * 440.0 * t)
    tbl = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array(
                [encode_wav(np.zeros(sr), sr), encode_wav(tone, sr)], pa.binary()
            ),
        }
    )
    out = (
        extract_audio_vad(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert int(out.loc[0, "n_segments"]) == 0 and int(out.loc[0, "n_voiced"]) == 0
    assert int(out.loc[1, "n_segments"]) == 1
    assert out.loc[1, "voiced_ratio"] > 0.9


def test_tfidf_cosine_pairs_rare_term_weighting(ray_session, tmp_path):
    """Docs sharing only a RARE term outscore docs sharing only a common
    term — the whole point of idf weighting (raw Jaccard ties them)."""
    from audio_feature_extraction_ray.pipelines import search_dedup as sd

    old = sd.TFIDF_COS_TAU_1E6
    sd.TFIDF_COS_TAU_1E6 = 0
    try:
        # 'common' appears in ALL docs (idf -> 0); 'rare' in docs 0,1 only
        texts = [
            "common rare alpha",
            "common rare beta",
            "common gamma delta",
            "common epsilon zeta",
        ]
        df = sd.tfidf_cosine_pairs(_docs_fixture(tmp_path, texts, name="sfc8")).to_pandas()
        df = df.set_index(["a", "b"])
        cos_rare = int(df.loc[(0, 1), "cos_1e6"])
        cos_common = int(df.loc[(2, 3), "cos_1e6"])
        assert cos_rare > cos_common
        # common-only pair: idf('common') = floor(ln(4/4)*1e3+0.5) = 0 -> the
        # only shared weighted term has weight 0 -> cosine 0
        assert cos_common == 0
    finally:
        sd.TFIDF_COS_TAU_1E6 = old


def test_tfidf_cosine_pairs_exact_integer_weights(ray_session, tmp_path):
    """Hand-computed cosine on a tiny corpus with known tf/df values."""
    from audio_feature_extraction_ray.pipelines import search_dedup as sd

    old = sd.TFIDF_COS_TAU_1E6
    sd.TFIDF_COS_TAU_1E6 = 0
    try:
        texts = ["x x y", "x y y", "z z z"]
        df = sd.tfidf_cosine_pairs(_docs_fixture(tmp_path, texts, name="sfc8b")).to_pandas()
        n = 3
        idf = {t: int(np.floor(np.log(n / d) * 1e3 + 0.5)) for t, d in
               {"x": 2, "y": 2, "z": 1}.items()}
        wa = {"x": 2 * idf["x"], "y": 1 * idf["y"]}
        wb = {"x": 1 * idf["x"], "y": 2 * idf["y"]}
        dp = wa["x"] * wb["x"] + wa["y"] * wb["y"]
        na = wa["x"] ** 2 + wa["y"] ** 2
        nb = wb["x"] ** 2 + wb["y"] ** 2
        want = int(np.floor(dp / (np.sqrt(na) * np.sqrt(nb)) * 1e6 + 0.5))
        got = int(df.set_index(["a", "b"]).loc[(0, 1), "cos_1e6"])
        assert got == want
        # doc 2 shares no token with 0/1 -> its pairs score 0
        assert int(df.set_index(["a", "b"]).loc[(0, 2), "cos_1e6"]) == 0
    finally:
        sd.TFIDF_COS_TAU_1E6 = old


def test_image_dups_planted_cross_format_pair(ray_session):
    """The planted identical-pixels BMP/PNG pair collides at Hamming 0, and
    the banded engine output EQUALS the brute-force all-pairs popcount set
    (<= 3 flips always share a 16-bit band: completeness guarantee)."""
    import ray.data

    from audio_feature_extraction_ray.stages.multimodal import (
        IMAGE_DUP_MAX_HAMMING,
        extract_image_features,
        media_image_dups,
        synthetic_image_table,
    )

    n = 24
    pairs = media_image_dups("/root/testdata/sf0.001").to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (0, n - 1) in got or (n - 1, 0) in got
    ham = dict(((int(a), int(b)), int(h)) for a, b, h in
               zip(pairs["a"], pairs["b"], pairs["hamming"]))
    assert ham[min((0, n - 1), (n - 1, 0), key=lambda p: p)] == 0
    assert pairs["hamming"].max() <= IMAGE_DUP_MAX_HAMMING

    feats = (
        extract_image_features(ray.data.from_arrow(synthetic_image_table(n)))
        .to_pandas()
        .sort_values("media_id")
    )
    h = feats["ahash64"].to_numpy().astype(np.int64).view(np.uint64)
    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            if bin(int(h[i] ^ h[j])).count("1") <= IMAGE_DUP_MAX_HAMMING:
                want.add((int(feats["media_id"].iloc[i]), int(feats["media_id"].iloc[j])))
    norm_got = {(min(a, b), max(a, b)) for a, b in got}
    assert norm_got == want


def test_partition_skew_hand_buckets(ray_session, tmp_path, split_reads):
    """Hand-built skew: all events on one user -> user_mod ratio == n_buckets
    x 1e6 over 1 bucket (perfectly skewed = 1e6 with a single bucket), vs a
    spread key staying near 1e6."""
    from audio_feature_extraction_ray.pipelines.events import SKEW_P, partition_skew

    n = 12
    ts = [i * 86_400_000_000 for i in range(n)]  # one event per day: day_mod spread
    sf = _events_fixture(tmp_path, ts, [5] * n, [1.0] * n,
                         types=["click"] * n, name="sfs8")
    df = partition_skew(sf).set_index("key_name")
    # user_mod: single bucket holds everything -> max==total, nb==1 -> 1e6
    assert int(df.loc["user_mod", "n_buckets"]) == 1
    assert int(df.loc["user_mod", "skew_1e6"]) == 10**6
    # day_mod: 12 distinct days spread over 12 buckets, one each -> balanced
    assert int(df.loc["day_mod", "n_buckets"]) == n
    assert int(df.loc["day_mod", "max_n"]) == 1
    assert int(df.loc["day_mod", "skew_1e6"]) == 10**6
    assert int(df.loc["type_ascii", "total"]) == n


def test_partition_skew_detects_hot_bucket(ray_session, tmp_path, split_reads):
    """A hot user among spread users drives the user_mod ratio above 1e6 by
    exactly max*nb*1e6//total."""
    from audio_feature_extraction_ray.pipelines.events import partition_skew

    users = [1] * 30 + [2, 3, 4, 5, 6, 7]
    n = len(users)
    ts = [i * 3_600_000_000 for i in range(n)]
    sf = _events_fixture(tmp_path, ts, users, [1.0] * n, name="sfs8h")
    df = partition_skew(sf).set_index("key_name")
    assert int(df.loc["user_mod", "max_n"]) == 30
    assert int(df.loc["user_mod", "skew_1e6"]) == 30 * 7 * 10**6 // 36


def test_order_fanout_hist_planted(ray_session, tmp_path):
    """Hand-built lineitem table: known group sizes -> exact histogram."""
    from audio_feature_extraction_ray.pipelines.relational import order_fanout_hist

    keys = [1] * 4 + [2] * 4 + [3] * 2 + [4]
    tbl = pa.table({"l_orderkey": pa.array(np.array(keys, dtype=np.int64))})
    sf = tmp_path / "sffan"
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "lineitem.parquet", row_group_size=3)
    df = order_fanout_hist(str(sf)).set_index("fanout")
    assert int(df.loc[4, "n_orders"]) == 2
    assert int(df.loc[2, "n_orders"]) == 1
    assert int(df.loc[1, "n_orders"]) == 1


def test_session_concurrency_hand_intervals(ray_session, tmp_path, split_reads):
    """Three users with overlapping sessions: peak and its earliest instant
    computed by hand; a touching boundary (start == another session's end)
    counts as overlap (the <= tie rule)."""
    from audio_feature_extraction_ray.pipelines.events import session_concurrency

    m = 60_000_000  # one minute in us
    # user 1: events at 0..10 min (one session, smin=0, smax=10m)
    # user 2: events at 5 and 12 min (gap 7 min < 30 min -> one session 5..12m)
    # user 3: single event exactly at 10 min (session 10..10m) -> touches u1
    ts, users = [], []
    for t in (0, 10):
        ts.append(t * m); users.append(1)
    for t in (5, 12):
        ts.append(t * m); users.append(2)
    ts.append(10 * m); users.append(3)
    sf = _events_fixture(tmp_path, ts, users, [1.0] * len(ts), name="sfcc8")
    df = session_concurrency(sf)
    assert int(df.iloc[0]["max_concurrent"]) == 3  # at t=10m all three open
    assert df.iloc[0]["at_ts"].value == 10 * m * 1000  # ns


def test_bot_flags_regular_vs_human(ray_session, tmp_path, split_reads):
    """Metronome user (constant 60 s gaps) flags as bot with cv2 == 0; a
    jittery user stays human; the integer CV^2 matches the hand formula on
    second-quantized gaps."""
    from audio_feature_extraction_ray.pipelines.events import bot_flags

    m = 1_000_000
    ts, users = [], []
    for i in range(10):  # bot: exactly 60 s apart
        ts.append(i * 60 * m); users.append(1)
    human_gaps = [30, 300, 45, 1200, 90, 600, 15, 2000, 75]  # seconds
    t = 0
    ts.append(t); users.append(2)
    for g in human_gaps:
        t += g * m
        ts.append(t); users.append(2)
    sf = _events_fixture(tmp_path, ts, users, [1.0] * len(ts), name="sfbot")
    df = bot_flags(sf).to_pandas().set_index("user_id")
    assert int(df.loc[1, "is_bot"]) == 1 and int(df.loc[1, "cv2_1e6"]) == 0
    assert int(df.loc[2, "is_bot"]) == 0
    g = len(human_gaps)
    S = sum(human_gaps)
    S2 = sum(x * x for x in human_gaps)
    assert int(df.loc[2, "cv2_1e6"]) == (g * S2 - S * S) * 10**6 // (S * S)
    assert int(df.loc[2, "n_gaps"]) == g


def test_bot_flags_min_support(ray_session, tmp_path, split_reads):
    """Users with fewer than BOT_MIN_GAPS gaps are not judged at all."""
    from audio_feature_extraction_ray.pipelines.events import BOT_MIN_GAPS, bot_flags

    m = 1_000_000
    ts = [i * 60 * m for i in range(BOT_MIN_GAPS)]  # gaps = BOT_MIN_GAPS - 1
    sf = _events_fixture(tmp_path, ts, [9] * len(ts), [1.0] * len(ts), name="sfbot2")
    assert len(bot_flags(sf).to_pandas()) == 0
