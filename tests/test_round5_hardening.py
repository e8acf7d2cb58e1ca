"""Round-5 scale-robustness pins: the shared exchange_fold helper and the
de-drivered partial folds (embedding_centroids, bigram_pmi — round-4 VERDICT
#1/#2), mirroring test_heavy_hitters_driver_fold_bounded."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from audio_feature_extraction_ray.stages.fold import exchange_fold


def test_exchange_fold_global_sum(ray_session):
    """Global (un-keyed) fold: many one-row partials reduce to one total,
    independent of how many blocks produced them."""
    import ray.data

    partials = ray.data.from_arrow(
        pa.table({"v": pa.array(np.arange(1000, dtype=np.int64), pa.int64())})
    ).repartition(37)

    def fold(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"v": pa.array([int(pc.sum(tbl.column("v")).as_py() or 0)], pa.int64())})

    out = exchange_fold(partials, fold, parts=8)
    assert out.num_rows == 1
    assert int(out.column("v")[0].as_py()) == int(np.arange(1000).sum())


def test_exchange_fold_keyed(ray_session, monkeypatch):
    """Keyed fold with pid_of: equal keys co-locate, output has one final row
    per key; driver-side concat is a no-op re-fold. The 23-block input goes
    through the keyed exchange on fixed boundaries: Ray's sort boundary
    sampling (which groupby().map_groups runs) must not be called."""
    import ray.data
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    from audio_feature_extraction_ray.functions.hashing import avalanche64
    from audio_feature_extraction_ray.stages.exchange import predicted_num_blocks

    def no_sampling(*args, **kwargs):
        raise AssertionError("exchange_fold sampled sort boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", staticmethod(no_sampling))

    n = 500
    keys = np.arange(n, dtype=np.int64) % 7
    partials = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(keys, pa.int64()),
                "c": pa.array(np.ones(n, np.int64), pa.int64()),
            }
        )
    ).repartition(23)
    assert predicted_num_blocks(partials) == 23

    def fold(tbl: pa.Table) -> pa.Table:
        return tbl.group_by(["k"]).aggregate([("c", "sum")]).rename_columns(["k", "c"])

    def pid_of(tbl: pa.Table) -> np.ndarray:
        k = tbl.column("k").to_numpy().astype(np.uint64)
        return (avalanche64(k) % np.uint64(4)).astype(np.int32)

    out = exchange_fold(partials, fold, parts=4, pid_of=pid_of)
    assert out.num_rows == 7  # one FINAL row per key — bounded by keys, not blocks
    got = dict(zip(out.column("k").to_pylist(), out.column("c").to_pylist()))
    for k in range(7):
        assert got[k] == int((keys == k).sum())


def test_exchange_fold_empty(ray_session):
    import ray.data

    partials = ray.data.from_arrow(pa.table({"v": pa.array([], pa.int64())}))

    def fold(tbl: pa.Table) -> pa.Table:
        return tbl

    assert exchange_fold(partials, fold) is None


def test_embedding_centroids_driver_fold_bounded(ray_session, tmp_path):
    """round-4 VERDICT #1: the centroid partials merge through ONE label-hash
    exchange; the driver receives <= labels x dim final rows regardless of
    block count, and the answer stays exact against a naive computation."""
    from audio_feature_extraction_ray.pipelines.search_dedup import (
        CENTROID_Q,
        embedding_centroids,
    )

    rng = np.random.default_rng(9)
    n, d, k = 400, 8, 5
    emb = rng.normal(size=(n, d)).astype(np.float32)
    labels = (np.arange(n) % k).astype(np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "label": pa.array(labels, pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1), pa.float32()), d
            ),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    # many tiny row groups -> many blocks -> many per-block partials
    pq.write_table(t, sf / "embeddings.parquet", row_group_size=16)
    out = embedding_centroids(str(sf))
    assert len(out) == k * d  # driver fold bounded by labels x dim

    # exactness: identical quantized-sum formula
    xq = np.rint(emb.astype(np.float64) * CENTROID_Q).astype(np.int64)
    for lab in range(k):
        m = labels == lab
        s = xq[m].sum(axis=0)
        cnt = int(m.sum())
        want = np.floor((s.astype(np.float64) / CENTROID_Q) / cnt * 1e6 + 0.5) / 1e6
        got = out[out["label"] == lab].sort_values("dim")["centroid"].to_numpy()
        assert np.array_equal(got, want)
        assert (out[out["label"] == lab]["n"] == cnt).all()


def test_no_per_block_take_all_outside_helper():
    """grep-clean contract (round-4 VERDICT task 6): every take_all() in the
    package is either inside the fold helper, post-exchange (<= partitions),
    a declared driver-side sample, or a per-partition manifest/export row —
    never a raw per-block partial fold. The allowlist makes any new site a
    conscious decision."""
    import re
    from pathlib import Path

    pkg = Path(__file__).resolve().parents[1] / "audio_feature_extraction_ray"
    allowed = {
        ("stages/fold.py",),  # docstring mention only
        ("stages/graph.py", "groupby(\"__pid\")"),  # post-exchange, <= P rows
    }
    bad = []
    for f in pkg.rglob("*.py"):
        rel = f.relative_to(pkg).as_posix()
        for i, line in enumerate(f.read_text().splitlines(), 1):
            if "take_all()" not in line or line.strip().startswith("#"):
                continue
            ok = (
                rel == "stages/fold.py"
                or "__pid" in line
                or "sample" in line
                or "bounded" in line
                or "<= " in line
                or "x 20 rows" in line
                or "partition_id" in line
                or "from_items" in line
                or "random_sample" in line
            )
            if not ok:
                # look back a couple of lines for the random_sample/groupby
                ctx = "\n".join(f.read_text().splitlines()[max(0, i - 4) : i])
                if not any(
                    s in ctx for s in ("random_sample", "__pid", "from_items", "bounded")
                ):
                    bad.append(f"{rel}:{i}: {line.strip()}")
    assert not bad, "unreviewed take_all() partial folds:\n" + "\n".join(bad)


def test_one_keyed_exchange_and_one_partition_hash():
    """grep-clean contract: the package routes every keyed shuffle through
    stages.exchange.exchange (no Ray groupby().map_groups anywhere), the
    text, relational, spans, splits and bpe pipelines read through
    stages.exchange.read_table (no direct ray.data.read_parquet), and the
    golden-ratio partition hash `>> np.uint64(33)` is written out only in
    stages.exchange.pid_of."""
    import ast
    import re
    from pathlib import Path

    pkg = Path(__file__).resolve().parents[1] / "audio_feature_extraction_ray"
    bad = []
    for f in sorted(pkg.rglob("*.py")):
        rel = f.relative_to(pkg).as_posix()
        for i, line in enumerate(f.read_text().splitlines(), 1):
            if ".map_groups(" in line:
                bad.append(f"{rel}:{i}: {line.strip()}")
    for name in ("text_analysis", "relational", "spans", "splits", "bpe"):
        rel = f"pipelines/{name}.py"
        for i, line in enumerate((pkg / rel).read_text().splitlines(), 1):
            if "ray.data.read_parquet(" in line:
                bad.append(f"{rel}:{i}: {line.strip()}")
    tree = ast.parse((pkg / "stages/exchange.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "pid_of"]
    pid_lines = range(fn.lineno, fn.end_lineno + 1)
    formula = re.compile(r">>\s*np\.uint64\(\s*33\s*\)")
    for f in sorted(pkg.rglob("*.py")):
        rel = f.relative_to(pkg).as_posix()
        for i, line in enumerate(f.read_text().splitlines(), 1):
            if formula.search(line) and not (rel == "stages/exchange.py" and i in pid_lines):
                bad.append(f"{rel}:{i}: {line.strip()}")
    assert not bad, "keyed shuffle or pid hash outside stages.exchange:\n" + "\n".join(bad)


def test_semdedup_oversized_cluster_split(ray_session, tmp_path):
    """round-4 VERDICT #3: a skewed k-means cluster (one cluster ~= 90% of
    vectors) is split over salted shards so no prune task holds a
    corpus-sized matrix. Pins: (a) shard sizes stay near max_cluster;
    (b) keep flags match a shard-aware naive reference exactly (within-shard
    pruning exact, cross-shard skipped by documented policy); (c) planted
    same-shard duplicates are still pruned."""
    from audio_feature_extraction_ray.functions.hashing import avalanche64
    from audio_feature_extraction_ray.stages.ann import (
        SEMDEDUP_TAU,
        _emb_matrix,
        embedding_semdedup,
    )

    rng = np.random.default_rng(17)
    n, dim, k = 600, 8, 4
    # one dense blob (cluster-skew: ~90% of vectors) + a few far outliers
    m = rng.normal(size=(n, dim)) * 0.05
    m[:540] += np.array([10.0] * dim)  # the mega-cluster
    m[540:560] += np.array([-40.0] + [0.0] * (dim - 1))
    m[560:580] += np.array([0.0, 40.0] + [0.0] * (dim - 2))
    m[580:] += np.array([0.0, 0.0, -40.0] + [0.0] * (dim - 3))
    # plant an exact duplicate pair inside the mega-cluster
    m[100] = m[50]
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "embedding": pa.array(
                [r.astype("float32").tolist() for r in m], pa.list_(pa.float32())
            ),
            "label": pa.array(np.zeros(n, np.int32), pa.int32()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "embeddings.parquet", row_group_size=64)

    cap = 100  # force the mega-cluster (~540 rows) over ~6 shards
    out = (
        embedding_semdedup(str(sf), k=k, max_cluster=cap)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert len(out) == n and out.vec_id.is_unique

    # reconstruct the engine's shard routing and verify per-task bound
    cl = out.set_index("vec_id")["cluster"]
    sizes = cl.value_counts()
    big = sizes[sizes > cap]
    assert len(big) >= 1  # the planted skew survives k-means (>= 1 oversized)
    shards = {int(c): max(1, -(-int(s) // cap)) for c, s in sizes.items()}
    ids = out["vec_id"].to_numpy().astype(np.uint64)
    shard = (
        avalanche64(ids)
        % np.array([shards[int(c)] for c in out["cluster"]], dtype=np.uint64)
    ).astype(np.int64)
    gsizes = (
        out.assign(shard=shard).groupby(["cluster", "shard"]).size()
    )
    assert gsizes.max() <= 2 * cap  # hash-balanced shards, bounded per task

    # shard-aware naive reference: within each (cluster, shard), keep iff no
    # EARLIER-id vector in the same shard has cosine >= tau
    mm = _emb_matrix(t)
    nm = mm / np.maximum(np.linalg.norm(mm, axis=1, keepdims=True), 1e-300)
    keep_ref = np.ones(n, dtype=bool)
    df = out.assign(shard=shard)
    for (_c, _s), grp in df.groupby(["cluster", "shard"]):
        gids = np.sort(grp["vec_id"].to_numpy())
        for i, v in enumerate(gids):
            if i and (nm[gids[:i]] @ nm[v]).max() >= SEMDEDUP_TAU:
                keep_ref[v] = False
    assert (out["keep"].to_numpy() == keep_ref).all()

    # the planted exact duplicate: when co-sharded with its twin (or any
    # earlier near-parallel blob-mate), it must be pruned — one direction
    # only, since ANY earlier same-shard vector over tau also prunes it
    same_shard = shard[50] == shard[100] and int(cl.loc[50]) == int(cl.loc[100])
    if same_shard:
        assert not bool(out.loc[100, "keep"])


def test_column_profile_distincts_distributed(ray_session, tmp_path):
    """round-5: column_profile's exact distinct counts ride a value-hash
    exchange (never a driver-side value union — the old path shipped every
    distinct doc_id to the driver). Pin exactness across MANY blocks, with
    nulls and duplicate values spread over row groups."""
    import pandas as pd

    from audio_feature_extraction_ray.pipelines.text_analysis import column_profile

    rng = np.random.default_rng(23)
    n = 900
    langs = rng.choice(["en", "de", "fr", None], size=n, p=[0.5, 0.25, 0.2, 0.05])
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(["x"] * n, pa.string()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "source": pa.array(rng.choice(["web", "wiki"], size=n).tolist(), pa.string()),
            "n_chars": pa.array(rng.integers(0, 50, size=n), pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet", row_group_size=32)  # ~29 blocks
    out = column_profile(str(sf)).set_index("column")
    df = t.to_pandas()
    for c in ["doc_id", "lang", "source", "n_chars"]:
        assert int(out.loc[c, "n_rows"]) == n
        assert int(out.loc[c, "n_null"]) == int(df[c].isna().sum())
        assert int(out.loc[c, "n_distinct"]) == int(df[c].nunique(dropna=True)), c
    assert int(out.loc["doc_id", "min_v"]) == 0
    assert int(out.loc["doc_id", "max_v"]) == n - 1
    assert out.loc["lang", "min_v"] == "de" and out.loc["lang", "max_v"] == "fr"


def test_embedding_kmeans_step_exact_vs_naive(ray_session, tmp_path):
    """The kmeans family's driver-visible exact twin: one Lloyd step in the
    quantized-integer domain equals a naive single-process replication —
    same smallest-id init, same argmin tie rule, bit-exact sums."""
    from audio_feature_extraction_ray.stages.ann import (
        KSTEP_K,
        KSTEP_Q,
        embedding_kmeans_step,
    )

    rng = np.random.default_rng(17)
    n, d = 300, 6
    emb = (rng.normal(size=(n, d)) * 0.4).astype(np.float32)
    ids = rng.permutation(n).astype(np.int64)  # ids NOT in row order
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1), pa.float32()), d
            ),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "embeddings.parquet", row_group_size=16)  # ~19 blocks
    out = embedding_kmeans_step(str(sf))
    assert len(out) <= KSTEP_K * d  # driver fold bounded by k x dim

    # naive: centroids = the KSTEP_K smallest-id vectors in id order
    xq = np.rint(emb.astype(np.float64) * KSTEP_Q).astype(np.int64)
    order = np.argsort(ids, kind="stable")[:KSTEP_K]
    cq = xq[order]
    d2 = (
        (xq * xq).sum(axis=1)[:, None]
        - 2 * (xq @ cq.T)
        + (cq * cq).sum(axis=1)[None, :]
    )
    assign = d2.argmin(axis=1)
    for cl in np.unique(assign):
        m = assign == cl
        sub = out[out["cluster"] == cl].sort_values("dim")
        assert (sub["n"] == int(m.sum())).all()
        assert np.array_equal(sub["s"].to_numpy(), xq[m].sum(axis=0))


def test_embedding_pca_moments_exact_vs_naive(ray_session, tmp_path):
    """The PCA family's driver-visible exact twin: the distributed
    integer-moment reduction equals a naive single-process computation,
    independent of block count."""
    from audio_feature_extraction_ray.stages.ann import (
        PCA_Q,
        embedding_pca_moments,
    )

    rng = np.random.default_rng(23)
    n, d = 250, 5
    emb = (rng.normal(size=(n, d)) * 0.3).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1), pa.float32()), d
            ),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "embeddings.parquet", row_group_size=16)
    out = embedding_pca_moments(str(sf))
    assert len(out) == d * (d + 1) // 2 + d + 1  # bounded by the moment count

    xq = np.rint(emb.astype(np.float64) * PCA_Q).astype(np.int64)
    gram = xq.T @ xq
    sx = xq.sum(axis=0)
    got = {(r.dim_i, r.dim_j): r.val for r in out.itertuples()}
    assert got[(-1, -1)] == n
    for i in range(d):
        assert got[(i, -1)] == sx[i]
        for j in range(i, d):
            assert got[(i, j)] == gram[i, j]


def test_pii_scrub_kernel_planted_cases(ray_session, tmp_path):
    """PII redaction pinned on handcrafted rows (multiple emails, adjacent
    phones, no-PII) against Python re with the same patterns — the RE2
    kernels must agree with re on count AND scrubbed bytes."""
    import re

    from audio_feature_extraction_ray.pipelines.text_analysis import (
        PII_EMAIL_RE,
        PII_PHONE_RE,
        pii_scrub,
    )

    texts = [
        "reach a.b-c_d%x@mail.example.org or z@q.io now",
        "call +44 20 7946 0958 or 555 0100 99 today",
        "mixed bob@x.co +1 212 555 0000 bob@x.co",
        "no pii here at all",
        "",
    ]
    n = len(texts)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["web"] * n, pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet", row_group_size=2)
    out = pii_scrub(str(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True)

    for i, s in enumerate(texts):
        aug = f"{s} contact user{i}@example.com call +{i % 900 + 100} {i % 10000:04d}"
        want_e = len(re.findall(PII_EMAIL_RE, aug))
        t1 = re.sub(PII_EMAIL_RE, "<EMAIL>", aug)
        want_p = len(re.findall(PII_PHONE_RE, t1))
        want_clean = re.sub(PII_PHONE_RE, "<PHONE>", t1)
        assert out.loc[i, "n_email"] == want_e >= 1  # planted email always hits
        assert out.loc[i, "n_phone"] == want_p >= 1  # planted phone always hits
        assert out.loc[i, "text_clean"] == want_clean


def test_pii_scrub_rejects_negative_doc_id(ray_session, tmp_path):
    """The planted-PII arithmetic assumes nonnegative ids (numpy % and SQL %
    disagree on negative dividends) — enforced at runtime, not assumed."""
    import pytest

    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines.text_analysis import pii_scrub

    t = pa.table(
        {
            "doc_id": pa.array([-1, 0], pa.int64()),
            "text": pa.array(["a", "b"], pa.string()),
            "lang": pa.array(["en", "en"], pa.string()),
            "source": pa.array(["web", "web"], pa.string()),
            "n_chars": pa.array([1, 1], pa.int64()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    with pytest.raises(Exception) as ei:
        pii_scrub(str(sf)).to_pandas()
    # Ray wraps worker exceptions; the SchemaError must be the cause chain
    assert "pii_scrub requires nonnegative doc_id" in str(ei.value) or isinstance(
        ei.value, SchemaError
    )


def test_no_relative_imports_in_worker_closures():
    """AST contract for the distinct_users cloudpickle trap: a RELATIVE
    import in the body of a NESTED function (the shape of every worker UDF
    here) executes at call time on workers whose sys.path may lack the repo.
    Capture by value in the enclosing scope instead. Module-level function
    bodies are driver-side and audited separately (round 4)."""
    import ast
    from pathlib import Path

    pkg = Path(__file__).resolve().parents[1] / "audio_feature_extraction_ray"
    hits = []
    for f in pkg.rglob("*.py"):
        tree = ast.parse(f.read_text())

        class V(ast.NodeVisitor):
            def __init__(self):
                self.depth = 0

            def visit_FunctionDef(self, node):
                self.depth += 1
                if self.depth >= 2:
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.ImportFrom) and (sub.level or 0) > 0:
                            hits.append(f"{f.name}:{sub.lineno} in {node.name}")
                self.generic_visit(node)
                self.depth -= 1

            visit_AsyncFunctionDef = visit_FunctionDef

        V().visit(tree)
    assert not hits, "relative imports inside worker closures:\n" + "\n".join(hits)


# ---------------------------------------------------------------------------
# round-5 continuation: robust_zscale / window_distinct edge guards.


def _write_events(tmp_path, ts_us, user_id, event_type, value):
    import pandas as pd

    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(np.arange(len(ts_us), dtype=np.int64)),
                "ts": pa.array(np.asarray(ts_us, dtype=np.int64), pa.timestamp("us")),
                "user_id": pa.array(np.asarray(user_id, dtype=np.int64)),
                "event_type": pa.array(event_type, pa.string()),
                "value": pa.array(np.asarray(value, dtype=np.float64)),
                "props": pa.array(["{}"] * len(ts_us), pa.string()),
            }
        ),
        d / "events.parquet",
    )
    return str(d)


def test_robust_zscale_zero_mad_raises(ray_session, tmp_path):
    """A constant-valued group has MAD == 0; the operator must refuse rather
    than emit inf/nan that silently diverges from the SQL oracle."""
    import pytest

    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines.events import robust_zscale

    sf = _write_events(
        tmp_path,
        ts_us=[1_000_000 * i for i in range(6)],
        user_id=[1, 2, 3, 1, 2, 3],
        event_type=["a", "a", "a", "b", "b", "b"],
        value=[5.0, 5.0, 5.0, 1.0, 2.0, 9.0],
    )
    with pytest.raises(SchemaError, match="MAD is zero"):
        robust_zscale(sf)


def test_robust_zscale_matches_naive(ray_session, tmp_path):
    """Engine (med, mad, robust_z) equals a naive numpy median/MAD per group
    (odd group sizes -> quantile_cont == exact middle order statistic)."""
    rng = np.random.default_rng(7)
    n = 301
    types = np.array(["x", "y", "z"])[rng.integers(0, 3, n)]
    # force odd per-group counts by trimming to odd sizes per type
    vals = np.round(rng.normal(10, 4, n), 2)
    sf = _write_events(
        tmp_path,
        ts_us=[1_000_000 * i for i in range(n)],
        user_id=rng.integers(1, 9, n),
        event_type=types.tolist(),
        value=vals,
    )
    from audio_feature_extraction_ray.pipelines.events import robust_zscale

    out = robust_zscale(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    for t in ["x", "y", "z"]:
        v = vals[types == t]
        med = np.quantile(v, 0.5, method="linear")
        mad = np.quantile(np.abs(v - med), 0.5, method="linear")
        sub = out[out["event_type"] == t]
        assert np.allclose(sub["med"], med)
        assert np.allclose(sub["mad"], mad)
        assert np.allclose(
            sub["robust_z"], np.floor((sub["value"] - med) / mad * 1e6 + 0.5) / 1e6
        )


def test_window_distinct_negative_ts_raises(ray_session, tmp_path):
    import pytest

    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines.events import window_distinct

    sf = _write_events(
        tmp_path,
        ts_us=[-1],
        user_id=[1],
        event_type=["a"],
        value=[1.0],
    )
    with pytest.raises(Exception) as ei:
        window_distinct(sf)
    # Ray wraps worker exceptions; the SchemaError must be the cause chain
    assert "non-negative timestamps" in str(ei.value) or isinstance(ei.value, SchemaError)


def test_window_distinct_pair_spans_batches(ray_session, tmp_path):
    """The same (day, user) pair emitted from MANY input blocks must count
    once: the pair-keyed exchange co-locates duplicates across batches."""
    import ray.data

    from audio_feature_extraction_ray.pipelines.events import window_distinct

    day_us = 86_400_000_000
    # user 7 appears on day 0 in 40 separate rows; users 1..5 on day 1
    ts = [i * 1000 for i in range(40)] + [day_us + i for i in range(5)]
    users = [7] * 40 + [1, 2, 3, 4, 5]
    sf = _write_events(
        tmp_path,
        ts_us=ts,
        user_id=users,
        event_type=["a"] * 45,
        value=[1.0] * 45,
    )
    out = window_distinct(sf)
    assert out["n_users"].tolist() == [1, 5]


def test_multi_kth_smallest_forced_narrowing(ray_session):
    """Tiny collect_cap + tiny bin count forces several histogram-narrowing
    rounds; answers must equal np.sort exactly, including duplicate-heavy
    data where a bin collapses to a single repeated value."""
    import ray.data

    from audio_feature_extraction_ray.stages.selection import multi_kth_smallest

    rng = np.random.default_rng(11)
    vals = np.concatenate(
        [
            rng.normal(0, 1, 4000),
            np.full(3000, 0.25),  # heavy duplicate mass: vmin==vmax collapse path
            rng.uniform(-50, 50, 3000),
        ]
    )
    make = lambda: ray.data.from_arrow(  # noqa: E731
        pa.table({"value": pa.array(vals, pa.float64())})
    ).repartition(17)
    ks = [1, 2500, 5000, 7499, 10000]
    n, got = multi_kth_smallest(make, "value", ks, bins=4, collect_cap=16)
    assert n == vals.size
    want = np.sort(vals)
    assert got == [float(want[k - 1]) for k in ks]


def test_multi_kth_smallest_nan_guard(ray_session):
    import pytest
    import ray.data

    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.stages.selection import multi_kth_smallest

    make = lambda: ray.data.from_arrow(  # noqa: E731
        pa.table({"value": pa.array([1.0, float("nan"), 2.0], pa.float64())})
    )
    with pytest.raises(SchemaError, match="NaN"):
        multi_kth_smallest(make, "value", [1])


def _write_docs(tmp_path, texts, name="sf"):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    n = len(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["web"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        d / "documents.parquet",
        row_group_size=32,  # many blocks -> many sketch partials
    )
    return str(d)


def _naive_topk(texts, k):
    from collections import Counter

    c = Counter()
    for t in texts:
        c.update(t.split(" "))
    return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def test_token_topk_rescore_sketch_path_exact(ray_session, tmp_path):
    """Zipf-ish corpus with vocab >> MG_K: batch compress fires, candidates
    survive, the guarantee check (kth exact > E) proves the sketch path, and
    the answer equals a naive global Counter exactly."""
    from audio_feature_extraction_ray.pipelines import text_analysis as ta

    rng = np.random.default_rng(23)
    vocab = np.array([f"w{i:04d}" for i in range(500)])
    # heavy head: token w0000 ~ 1/rank mass, far above the subtracted bound
    probs = 1.0 / np.arange(1, vocab.size + 1) ** 1.6
    probs /= probs.sum()
    texts = [
        " ".join(vocab[rng.choice(vocab.size, size=60, p=probs)]) for _ in range(400)
    ]
    sf = _write_docs(tmp_path, texts)
    out = ta.token_topk_rescore(sf)
    want = _naive_topk(texts, ta.TOPK_RESCORE_K)
    assert list(zip(out["token"], out["n"])) == want
    assert ta._last_topk_path["path"] == "sketch_rescore"


def test_token_topk_rescore_flat_falls_back_exact(ray_session, tmp_path, split_reads):
    """Near-uniform corpus read as many batches: no candidate can beat the
    summed subtracted-mass bound, so the operator must take the
    exact-fallback path — and still match the naive global Counter exactly."""
    from audio_feature_extraction_ray.pipelines import text_analysis as ta

    rng = np.random.default_rng(29)
    vocab = np.array([f"u{i:05d}" for i in range(5000)])
    texts = [
        " ".join(vocab[rng.choice(vocab.size, size=40, replace=False)])
        for _ in range(300)
    ]
    sf = _write_docs(tmp_path, texts)
    out = ta.token_topk_rescore(sf)
    want = _naive_topk(texts, ta.TOPK_RESCORE_K)
    assert list(zip(out["token"], out["n"])) == want
    assert ta._last_topk_path["path"] == "exact_fallback"


def test_token_countmin_general_regime_bound(ray_session, tmp_path):
    """Tiny width forces collisions: exact mode must refuse (SchemaError), and
    collision-tolerated mode must satisfy the CMS invariant est >= true for
    EVERY token while staying exact for tokens with a clean row."""
    import pytest

    from audio_feature_extraction_ray.errors import SchemaError
    from audio_feature_extraction_ray.pipelines import text_analysis as ta

    rng = np.random.default_rng(31)
    vocab = np.array([f"c{i:03d}" for i in range(300)])
    texts = [" ".join(vocab[rng.integers(0, vocab.size, 50)]) for _ in range(200)]
    sf = _write_docs(tmp_path, texts)

    with pytest.raises(SchemaError, match="colliding"):
        ta.token_countmin(sf, width=64, exact=True)

    out = ta.token_countmin(sf, width=64, exact=False)
    from collections import Counter

    true = Counter()
    for t in texts:
        true.update(t.split(" "))
    got = dict(zip(out["token"], out["est"]))
    assert set(got) == set(true)
    assert all(got[t] >= c for t, c in true.items())  # CMS never undercounts


def test_token_countmin_exact_regime_matches_counter(ray_session, tmp_path):
    """Default width, modest vocab: the collision audit passes and every
    point estimate equals the exact global count."""
    from collections import Counter

    from audio_feature_extraction_ray.pipelines import text_analysis as ta

    rng = np.random.default_rng(37)
    vocab = np.array([f"e{i:03d}" for i in range(120)])
    texts = [" ".join(vocab[rng.integers(0, vocab.size, 30)]) for _ in range(150)]
    sf = _write_docs(tmp_path, texts)
    out = ta.token_countmin(sf)
    true = Counter()
    for t in texts:
        true.update(t.split(" "))
    assert dict(zip(out["token"], out["est"])) == dict(true)


def test_token_zipf_matches_naive_counter(ray_session, tmp_path):
    """Zipf histogram: exact count-of-counts vs a driver Counter across MANY
    blocks (token totals must survive the token-hash exchange — a token
    split across row groups has partial counts in several batches), and the
    level-fit slope vs np.polyfit over the same points."""
    from collections import Counter

    from audio_feature_extraction_ray.pipelines.text_analysis import (
        token_zipf_hist,
        token_zipf_slope,
    )

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(40)]
    # zipf-ish draw with heavy ties in the count-of-counts
    probs = 1.0 / np.arange(1, 41)
    probs /= probs.sum()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 30), p=probs))
        for _ in range(600)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(600, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet", row_group_size=16)  # ~38 blocks

    counts = Counter()
    for s in texts:
        counts.update(s.split(" "))
    hist = Counter(counts.values())

    df = token_zipf_hist(str(sf))
    assert dict(zip(df["c"], df["n_tokens"])) == dict(hist)
    assert list(df["c"]) == sorted(hist, reverse=True)
    assert list(df["zipf_rank"]) == list(range(1, len(hist) + 1))

    sl = token_zipf_slope(str(sf)).iloc[0]
    cs = np.array(sorted(hist, reverse=True), dtype=np.float64)
    coef = np.polyfit(np.log(np.arange(1, cs.size + 1)), np.log(cs), 1)
    # operator reports on the 1e-6 fixed-point grid
    assert abs(sl["slope"] - coef[0]) < 1e-6
    assert abs(sl["intercept"] - coef[1]) < 1e-6
    assert int(sl["n_points"]) == cs.size


def test_token_heaps_curve_matches_naive(ray_session, tmp_path):
    """Heaps curve: first-occurrence bucketing must survive BOTH exchanges
    (a token first seen in an early block must win the min over later
    blocks' partials) and the cumulative sum must cover skipped buckets.
    Naive reference: dict of first doc per token."""
    from audio_feature_extraction_ray.pipelines.text_analysis import token_heaps_curve

    rng = np.random.default_rng(37)
    n = 400
    texts = []
    for i in range(n):
        toks = [f"base{j}" for j in rng.integers(0, 30, size=5)]
        if i % 7 == 0:
            toks.append(f"rare{i}")  # new vocab injected throughout ingest
        texts.append(" ".join(toks))
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet", row_group_size=16)  # ~25 blocks

    first = {}
    for i, s in enumerate(texts):
        for tok in s.split(" "):
            first.setdefault(tok, i)
    bucket = 50
    exp = {}
    for fd in first.values():
        exp[fd // bucket] = exp.get(fd // bucket, 0) + 1

    df = token_heaps_curve(str(sf), bucket=bucket)
    assert dict(zip(df["bucket"], df["new_tokens"])) == exp
    assert len(df) > 1  # multi-bucket: new vocab arrives all through ingest
    assert list(df["cum_vocab"]) == list(np.cumsum(df["new_tokens"]))
    assert int(df["cum_vocab"].iloc[-1]) == len(first)


def test_token_cooc_window_matches_naive(ray_session, tmp_path):
    """Windowed co-occurrence: pairs never cross document boundaries, all
    offsets 1..W count, and the global top-k survives the pair-hash exchange
    with SQL-identical (n DESC, pair ASC) tie-breaking."""
    from collections import Counter

    from audio_feature_extraction_ray.pipelines.text_analysis import (
        COOC_TOPK,
        COOC_WINDOW,
        token_cooc_window,
    )

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 9)))  # some 1-token docs
        for _ in range(300)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(300, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet", row_group_size=16)  # ~19 blocks

    c = Counter()
    for s in texts:
        toks = s.split(" ")
        for i in range(len(toks)):
            for d in range(1, COOC_WINDOW + 1):
                if i + d < len(toks):
                    c[f"{toks[i]} {toks[i + d]}"] += 1
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:COOC_TOPK]

    df = token_cooc_window(str(sf))
    assert list(zip(df["pair"], df["n"])) == want


def test_q13_zero_bucket(ray_session, tmp_path):
    """Q13 analog: customers with NO orders land in the c_count=0 bucket
    (footer-count arithmetic, no join) and the histogram survives custkeys
    split across many blocks."""
    from audio_feature_extraction_ray.pipelines.relational import q13_order_distribution

    rng = np.random.default_rng(43)
    n_cust = 120
    # customers 0..79 place orders; 80..119 never do
    custkeys = rng.integers(0, 80, size=600).astype(np.int64)
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(600, dtype=np.int64), pa.int64()),
            "o_custkey": pa.array(custkeys, pa.int64()),
        }
    )
    cust = pa.table(
        {"c_custkey": pa.array(np.arange(n_cust, dtype=np.int64), pa.int64())}
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(orders, sf / "orders.parquet", row_group_size=32)  # ~19 blocks
    pq.write_table(cust, sf / "customer.parquet")

    counts = np.bincount(custkeys, minlength=n_cust)
    exp = {}
    for c in counts:
        exp[int(c)] = exp.get(int(c), 0) + 1
    # customers 80..119 have count 0 via bincount minlength — already in exp

    df = q13_order_distribution(str(sf))
    assert dict(zip(df["c_count"], df["custdist"])) == exp
    assert int(df.loc[df["c_count"] == 0, "custdist"].iloc[0]) == int((counts == 0).sum())
    assert int(df["custdist"].sum()) == n_cust


# ---------------------------------------------------------------------------
# docs_pareto_front: the vectorized dominance mask against a naive O(n^2)
# reference, and the skyline-merge associativity the distributed fold
# relies on (skyline(A u B) == skyline(skyline(A) u skyline(B))).


def _naive_pareto(feats):
    n = len(feats)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if (
                all(feats[j][d] >= feats[i][d] for d in range(len(feats[i])))
                and any(feats[j][d] > feats[i][d] for d in range(len(feats[i])))
            ):
                dominated = True
                break
        keep.append(not dominated)
    return keep


def test_pareto_mask_matches_naive_and_merge_is_associative():
    from audio_feature_extraction_ray.pipelines.text_analysis import _pareto_mask

    rng = np.random.default_rng(7)
    feats = rng.integers(0, 12, size=(600, 3)).astype(np.int64)  # many ties
    mask = _pareto_mask(feats)
    assert mask.tolist() == _naive_pareto(feats.tolist())

    # associativity: front of fronts == front of the union, any split point
    for cut in (1, 137, 300, 599):
        a, b = feats[:cut], feats[cut:]
        fa, fb = a[_pareto_mask(a)], b[_pareto_mask(b)]
        merged = np.concatenate([fa, fb])
        front2 = merged[_pareto_mask(merged)]
        front1 = feats[_pareto_mask(feats)]
        assert sorted(map(tuple, front2)) == sorted(map(tuple, front1))


def test_pareto_mask_keeps_all_identical_rows():
    from audio_feature_extraction_ray.pipelines.text_analysis import _pareto_mask

    feats = np.tile(np.array([[5, 5, 5]], dtype=np.int64), (40, 1))
    assert _pareto_mask(feats).all()
