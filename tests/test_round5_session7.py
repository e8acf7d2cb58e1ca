"""Round-5 session-7 operators. Oracle parity is covered by the
parametrized test_queries_oracle harness; these tests pin what SQL
equality can't see — planted-signal behavior, fixed-point arithmetic
edges, and 0-row/1-row flows."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from audio_feature_extraction_ray.pipelines.events import read_events


def _docs_fixture(tmp_path, texts, sources=None, langs=None, name="sfd7"):
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


def _keyness_corpus(tmp_path, name="sfkey"):
    """Three sources: srcA is saturated with 'zebra' (absent elsewhere),
    'common' appears everywhere proportionally, 'rare' appears 4x in srcB
    (below min support)."""
    texts, sources = [], []
    for i in range(6):  # every doc exactly 10 tokens; source totals all 60
        texts.append("zebra zebra zebra common filler" + str(i) + " pad pad pad pad pad")
        sources.append("srcA")
    for i in range(6):
        mid = "rare" if i < 4 else "pad"
        texts.append("common " + mid + " pad pad pad pad pad pad pad tail" + str(i))
        sources.append("srcB")
    for i in range(6):
        texts.append("common pad pad pad pad pad pad pad pad tail" + str(i))
        sources.append("srcC")
    return _docs_fixture(tmp_path, texts, sources=sources, name=name)


def test_chi2_keywords_planted(ray_session, tmp_path):
    from audio_feature_extraction_ray.pipelines.text_analysis import chi2_keywords

    df = chi2_keywords(_keyness_corpus(tmp_path)).to_pandas()
    a = df[df["source"] == "srcA"].sort_values("rank")
    # the planted domain word is srcA's #1 keyword
    assert a.iloc[0]["token"] == "zebra" and a.iloc[0]["rank"] == 1
    assert a.iloc[0]["cnt"] == 18
    # 'rare' (4 occurrences) is below CHI2_MIN_A=5 everywhere
    assert "rare" not in set(df["token"])
    # 'common' is EXACTLY proportional (6 per 60-token source): the strict
    # over-representation gate a*N > c*f is an equality there, so it is out
    assert "common" not in set(df["token"])
    # ranks are dense and unique per source
    for s, g in df.groupby("source"):
        assert sorted(g["rank"]) == list(range(1, len(g) + 1))


def test_token_dispersion_planted_and_fixed_point(ray_session, tmp_path):
    """A token confined to one source has DP = 1 - s_src; a perfectly
    proportional token has DP = 0 (both on the exact 1e6 grid, mirrored
    by the same fixed-point ops as the engine)."""
    from audio_feature_extraction_ray.pipelines.text_analysis import token_dispersion

    sf = _keyness_corpus(tmp_path)
    df = token_dispersion(sf).to_pandas().set_index("token")

    # recompute totals the same way the engine defines them (spaces+1)
    import pyarrow.parquet as _pq

    tbl = _pq.read_table(sf + "/documents.parquet")
    tot = {}
    for t, s in zip(tbl.column("text").to_pylist(), tbl.column("source").to_pylist()):
        tot[s] = tot.get(s, 0) + t.count(" ") + 1
    n = sum(tot.values())

    # zebra: only in srcA, f = 18
    s_a = tot["srcA"] / n
    term_a = math.floor((abs(18 / 18 - s_a) - s_a) * 1e12 + 0.5)
    term_rest = sum(0 for _ in ())  # absent cells contribute via the 1+... identity
    dp_zebra = math.floor((10**12 + term_a + term_rest) / 1e12 * 500000.0 + 0.5)
    assert int(df.loc["zebra", "dp_1e6"]) == dp_zebra
    # and numerically DP ≈ 1 - s_srcA
    assert abs(df.loc["zebra", "dp_1e6"] / 1e6 - (1 - s_a)) < 1e-5

    # 'common' is perfectly proportional: DP is exactly 0 on the 1e6 grid
    assert int(df.loc["common", "dp_1e6"]) == 0
    # pad: spread across sources — DP well below the confined token's
    assert df.loc["pad", "dp_1e6"] < df.loc["zebra", "dp_1e6"]
    # min support: f >= 10 only
    assert (df["f"] >= 10).all()
    assert "rare" not in df.index


def test_session7_ops_empty_and_single_row_inputs(ray_session, tmp_path, split_reads):
    """0-row and 1-row flow guard for every session-7 operator."""
    from audio_feature_extraction_ray.pipelines.text_analysis import (
        chi2_keywords,
        token_dispersion,
    )

    for n in (0, 1):
        if n:
            sfd = _docs_fixture(tmp_path, ["one small doc"], name=f"sfd7f{n}")
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
            d = tmp_path / "sfd7f0"
            d.mkdir(exist_ok=True)
            pq.write_table(tbl, d / "documents.parquet")
            sfd = str(d)
        for fn in (chi2_keywords, token_dispersion):
            res = fn(sfd)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            # 3-token single doc: below every min-support threshold
            assert len(df) == 0, (fn.__name__, n, len(df))
        # --- events ---
        from audio_feature_extraction_ray.pipelines.events import k_anonymity

        if n:
            sfe = _events_fixture7(tmp_path, [10], ["x"], name=f"sfe7f{n}")
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
            d = tmp_path / "sfe7f0"
            d.mkdir(exist_ok=True)
            pq.write_table(tbl, d / "events.parquet")
            sfe = str(d)
        df = k_anonymity(sfe)
        assert list(df.columns) == ["event_type", "hour", "dow", "cnt"]
        assert len(df) == n  # a lone event IS a k-anonymity violation


def _events_fixture7(tmp_path, ts_us, types, name="sfe7"):
    n = len(ts_us)
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(np.asarray(ts_us, dtype=np.int64), pa.timestamp("us")),
            "user_id": pa.array(np.zeros(n, dtype=np.int64)),
            "event_type": pa.array(types, pa.string()),
            "value": pa.array(np.ones(n, dtype=np.float64)),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    sf = tmp_path / name
    sf.mkdir(exist_ok=True)
    pq.write_table(tbl, sf / "events.parquet", row_group_size=3)
    assert read_events(str(sf)).materialize().num_blocks() > 1
    return str(sf)


def test_k_anonymity_planted(ray_session, tmp_path, split_reads):
    """A QI combo with K-1 rows is a violation; one with exactly K is not;
    the boundary is strict (< K). 1970-01-01 is a Thursday (dow 4)."""
    from audio_feature_extraction_ray.pipelines.events import K_ANON, k_anonymity

    HOUR = 3_600_000_000
    ts, types = [], []
    # combo (a, hour 0, thu): exactly K rows -> NOT reported
    for i in range(K_ANON):
        ts.append(i * 60_000_000)
        types.append("a")
    # combo (b, hour 1, thu): K-1 rows -> reported with cnt K-1
    for i in range(K_ANON - 1):
        ts.append(HOUR + i * 60_000_000)
        types.append("b")
    # combo (a, hour 2, thu): a single row -> reported
    ts.append(2 * HOUR)
    types.append("a")
    df = k_anonymity(_events_fixture7(tmp_path, ts, types))
    got = {(r.event_type, r.hour, r.dow): r.cnt for r in df.itertuples()}
    assert got == {("b", 1, 4): K_ANON - 1, ("a", 2, 4): 1}
