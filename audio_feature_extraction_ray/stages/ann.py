"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k: the exact baseline. Query matrix broadcast once
  (ray.put); every batch computes a float64 GEMM against it and emits only its
  LOCAL top-k per query (k rows per query per batch leave the task, not the
  batch), then a query-keyed exchange merges them to the global top-k
  (`_merge_topk`: one vectorized rank over every query run of a block).
- IVF: the scale path. Seeded driver-side k-means (on a sample) -> broadcast
  centroids -> per-batch cluster assignment; queries probe the nprobe nearest
  clusters and score only candidate rows. Approximate: recall measured in
  tests against the brute-force baseline.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..state.kernels import _seg_head
from .exchange import exchange, pid_of

logger = logging.getLogger(__name__)


def _emb_matrix(tbl: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = tbl.column(col).combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(tbl.num_rows, -1)


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    n[n == 0] = 1.0
    return m / n


def _runs(keys: np.ndarray):
    """(lo, hi) of each run of equal values in a sorted key array."""
    cuts = np.append(np.flatnonzero(_seg_head(keys)), keys.size)
    return zip(cuts[:-1], cuts[1:])


# query-keyed partitions of the brute-force and IVF top-k merges
MERGE_PARTS = 8


def _merge_topk(partials: ray.data.Dataset, k: int, parts: int) -> ray.data.Dataset:
    """Global top-k per query from (query_id, neighbor_id, cos_sim)
    candidates: rows route by query id; each reduce block sorts by (query,
    -sim, neighbor) and ranks within every query run at once. Output
    (query_id, rank, neighbor_id, cos_sim), cos_sim rounded to 1e-6."""

    def tag_by_query(tbl: pa.Table) -> pa.Table:
        pid = pid_of(tbl.column("query_id").to_numpy(), parts)
        return tbl.append_column("__pid", pa.array(pid))

    def merge_topk(tbl: pa.Table) -> pa.Table:
        sim = tbl.column("cos_sim").to_numpy()
        fin = np.isfinite(sim)  # brute force masks self-matches as -inf
        qid = tbl.column("query_id").to_numpy()[fin]
        nid = tbl.column("neighbor_id").to_numpy()[fin]
        sim = sim[fin]
        order = np.lexsort((nid, -sim, qid))
        qs, ns, ss = qid[order], nid[order], sim[order]
        ar = np.arange(qs.size)
        seg_start = np.where(_seg_head(qs), ar, 0)
        np.maximum.accumulate(seg_start, out=seg_start)
        rank = ar - seg_start + 1
        hit = rank <= k
        return pa.table(
            {
                "query_id": pa.array(qs[hit], pa.int64()),
                "rank": pa.array(rank[hit], pa.int64()),
                "neighbor_id": pa.array(ns[hit], pa.int64()),
                "cos_sim": pa.array(np.floor(ss[hit] * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    tagged = partials.map_batches(tag_by_query, batch_format="pyarrow")
    return exchange(tagged, "__pid", merge_topk, parts)


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> ray.data.Dataset:
    qn = _norm_rows(queries.astype(np.float64))
    qref = ray.put((qn, query_ids.astype(np.int64)))

    def partial(tbl: pa.Table) -> pa.Table:
        qm, qids = ray.get(qref)
        if tbl.num_rows == 0:
            return pa.table(
                {"query_id": pa.array([], pa.int64()), "neighbor_id": pa.array([], pa.int64()),
                 "cos_sim": pa.array([], pa.float64())}
            )
        cm = _norm_rows(_emb_matrix(tbl, emb_col))
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        sims = cm @ qm.T  # (n, Q)
        if exclude_self:
            for qi, qid in enumerate(qids):
                sims[ids == qid, qi] = -np.inf
        kk = min(k, sims.shape[0])
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # (kk, Q)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids):
            sel = top[:, qi]
            out_q.extend([int(qid)] * len(sel))
            out_n.extend(ids[sel].tolist())
            out_s.extend(sims[sel, qi].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos_sim": pa.array(out_s, pa.float64()),
            }
        )

    return _merge_topk(ds.map_batches(partial, batch_format="pyarrow"), k, MERGE_PARTS)


# ---------------------------------------------------------------------------
# IVF (inverted file) variant


def _kmeans(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.choice(sample.shape[0], size=min(n_clusters, sample.shape[0]), replace=False)
    cent = sample[idx].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(cent.shape[0]):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def ivf_knn_join(
    corpus: ray.data.Dataset,
    queries: ray.data.Dataset,
    k: int = 5,
    n_clusters: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample: np.ndarray | None = None,
    exclude_self: bool = True,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Dataset x Dataset k-NN join — BOTH sides distributed (the fix for
    brute_force_topk/ivf_topk's caveat that queries live in one driver
    ndarray and cannot scale in count).

    Plan: seeded driver k-means on a bounded corpus sample -> broadcast
    centroids; corpus rows route to their cell, query rows replicate to
    their nprobe nearest cells; ONE union exchange keyed by cell; per-cell
    kernel does a blocked GEMM of the cell's corpus against the cell's
    queries and emits each query's local top-k; a second slim exchange
    hash-partitioned on query id merges to the global top-k with a
    vectorized rank-within-segment kernel (no per-query Python).

    nprobe == n_clusters probes every cell -> EXACT k-NN join (SQL-checkable
    against the cross-join oracle); smaller nprobe trades recall for a
    candidate-only exchange."""
    if sample is None:
        # bounded k-means sample. Callers reading from parquet should pass
        # `sample` from a pushdown-filtered driver read instead — this
        # fallback executes the corpus plan once just to sample it.
        sample_tbl = pa.concat_tables(
            b for b in corpus.limit(4096).iter_batches(batch_size=4096, batch_format="pyarrow")
        )
        sample = _emb_matrix(sample_tbl, emb_col)
    cent = _kmeans(sample.astype(np.float64), n_clusters)
    n_clusters = cent.shape[0]
    cent_ref = ray.put(cent)
    width = sample.shape[1]
    emb_t = pa.list_(pa.float64(), width)

    def tag_corpus(tbl: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        m = _emb_matrix(tbl, emb_col)
        d = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        cell = d.argmin(axis=1).astype(np.int32)
        return pa.table(
            {
                "__cell": pa.array(cell),
                "__side": pa.array(np.zeros(tbl.num_rows, dtype=np.int8)),
                id_col: tbl.column(id_col).cast(pa.int64()),
                "__emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(m.ravel(), pa.float64()), width
                ),
            }
        )

    def tag_queries(tbl: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        m = _emb_matrix(tbl, emb_col)
        d = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        probe = np.argsort(d, axis=1)[:, :nprobe]  # (n, nprobe)
        n = tbl.num_rows
        rep = np.repeat(np.arange(n), nprobe)
        return pa.table(
            {
                "__cell": pa.array(probe.ravel().astype(np.int32)),
                "__side": pa.array(np.ones(n * nprobe, dtype=np.int8)),
                id_col: pa.array(
                    np.repeat(tbl.column(id_col).cast(pa.int64()).to_numpy(), nprobe),
                    pa.int64(),
                ),
                "__emb": pa.FixedSizeListArray.from_arrays(
                    pa.array(m[rep].ravel(), pa.float64()), width
                ),
            }
        )

    unioned = corpus.map_batches(tag_corpus, batch_format="pyarrow").union(
        queries.map_batches(tag_queries, batch_format="pyarrow")
    )

    part_schema = pa.schema(
        [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("cos_sim", pa.float64())]
    )

    def one_cell_topk(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        c = tbl.filter(pa.array(side == 0))
        q = tbl.filter(pa.array(side == 1))
        if c.num_rows == 0 or q.num_rows == 0:
            return part_schema.empty_table()
        cm = _norm_rows(_emb_matrix(c, "__emb"))
        qm = _norm_rows(_emb_matrix(q, "__emb"))
        cids = c.column(id_col).to_numpy()
        qids = q.column(id_col).to_numpy()
        sims = cm @ qm.T  # (nc, nq)
        if exclude_self:
            sims[cids[:, None] == qids[None, :]] = -np.inf
        kk = min(k, sims.shape[0])
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # (kk, nq)
        qcol = np.repeat(qids, kk)
        ncol = cids[top.T.ravel()]
        scol = np.take_along_axis(sims, top, axis=0).T.ravel()
        fin = np.isfinite(scol)
        return pa.table(
            {
                "query_id": pa.array(qcol[fin], pa.int64()),
                "neighbor_id": pa.array(ncol[fin], pa.int64()),
                "cos_sim": pa.array(scol[fin], pa.float64()),
            }
        )

    def cell_topk(tbl: pa.Table) -> pa.Table:
        # a block holds many cells, sorted by cell: score each cell's
        # corpus rows against that cell's queries only
        runs = _runs(tbl.column("__cell").to_numpy())
        return pa.concat_tables([one_cell_topk(tbl.slice(lo, hi - lo)) for lo, hi in runs])

    partials = exchange(unioned, "__cell", cell_topk, n_clusters, order=("__cell",))
    # no (query, neighbor) dedupe in the merge: every corpus row lives in
    # exactly ONE cell, so each pair is scored at most once whatever nprobe
    return _merge_topk(partials, k, num_partitions or max(8, n_clusters))


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    n_clusters: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    sample: np.ndarray | None = None,
    exclude_self: bool = True,
) -> ray.data.Dataset:
    """Approximate top-k: score only rows whose IVF cell is among each query's
    nprobe nearest cells. Same output schema as brute_force_topk."""
    if sample is None:
        sample_tbl = pa.concat_tables(
            b for b in ds.limit(4096).iter_batches(batch_size=4096, batch_format="pyarrow")
        )
        sample = _emb_matrix(sample_tbl, emb_col)
    cent = _kmeans(sample.astype(np.float64), n_clusters)
    qn = _norm_rows(queries.astype(np.float64))
    qd = ((qn[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probe = np.argsort(qd, axis=1)[:, :nprobe]  # (Q, nprobe)
    ref = ray.put((qn, query_ids.astype(np.int64), cent, probe))

    def partial(tbl: pa.Table) -> pa.Table:
        qm, qids, cents, probes = ray.get(ref)
        empty = pa.table(
            {"query_id": pa.array([], pa.int64()), "neighbor_id": pa.array([], pa.int64()),
             "cos_sim": pa.array([], pa.float64())}
        )
        if tbl.num_rows == 0:
            return empty
        cm_raw = _emb_matrix(tbl, emb_col)
        cm = _norm_rows(cm_raw)
        ids = tbl.column(id_col).to_numpy().astype(np.int64)
        d = ((cm_raw[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        cell = d.argmin(axis=1)  # (n,)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids):
            cand = np.isin(cell, probes[qi])
            if exclude_self:
                cand &= ids != qid
            if not cand.any():
                continue
            sims = cm[cand] @ qm[qi]
            cids = ids[cand]
            kk = min(k, sims.size)
            sel = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([int(qid)] * kk)
            out_n.extend(cids[sel].tolist())
            out_s.extend(sims[sel].tolist())
        if not out_q:
            return empty
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos_sim": pa.array(out_s, pa.float64()),
            }
        )

    return _merge_topk(ds.map_batches(partial, batch_format="pyarrow"), k, MERGE_PARTS)


# ---------------------------------------------------------------------------
# distributed k-means (full-corpus Lloyd's): the training-side upgrade of
# _kmeans above, which fits on a bounded DRIVER SAMPLE (fine for IVF cell
# seeding, not for clustering the corpus itself). Each round broadcasts the
# k x dim centroid matrix, computes per-batch partial (sum, count, inertia)
# via one GEMM-based assignment, and folds <= one tiny row per batch on the
# driver — the canonical broadcast+partial-aggregate iteration; nothing
# corpus-sized ever leaves the workers.


def kmeans_fit(
    ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> tuple[np.ndarray, np.ndarray, float]:
    """Returns (centroids k x dim, cluster sizes, total inertia) after
    `iters` Lloyd rounds. Deterministic: init = the k vectors with the
    smallest ids (distributed bounded top-k fold), assignment ties break to
    the lowest centroid index (argmin)."""

    def smallest_k(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy()
        take = np.argsort(ids, kind="stable")[:k]
        return tbl.take(pa.array(np.sort(take)))

    from .fold import exchange_fold

    # init candidates merge through ONE exchange (k rows per block before,
    # O(blocks x k) driver concat) — smallest_k is its own fold
    cand = exchange_fold(ds.map_batches(smallest_k, batch_format="pyarrow"), smallest_k)
    order = np.argsort(cand.column(id_col).to_numpy(), kind="stable")[:k]
    cent = _emb_matrix(cand.take(pa.array(np.sort(order))), emb_col)

    inertia = float("nan")
    for _ in range(iters):
        c = cent  # captured by value in the closure below

        def partials(tbl: pa.Table, c=c) -> pa.Table:
            m = _emb_matrix(tbl, emb_col)
            # squared distance via GEMM: |x|^2 - 2 x.c + |c|^2 (argmin safe)
            d = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = d.argmin(axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=c.shape[0]).astype(np.int64)
            inert = float(np.maximum(d[np.arange(d.shape[0]), assign], 0.0).sum())
            return pa.table(
                {
                    "sums": pa.array([sums.ravel().tolist()], pa.list_(pa.float64())),
                    "counts": pa.array([counts.tolist()], pa.list_(pa.int64())),
                    "inertia": pa.array([inert], pa.float64()),
                }
            )

        kd = cent.size

        def moments_fold(tbl: pa.Table, kd=kd, kk=cent.shape[0]) -> pa.Table:
            s = (
                tbl.column("sums").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(-1, kd).sum(axis=0)
            )
            n = (
                tbl.column("counts").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(-1, kk).sum(axis=0)
            )
            i_ = float(pc.sum(tbl.column("inertia")).as_py() or 0.0)
            return pa.table(
                {
                    "sums": pa.array([s.tolist()], pa.list_(pa.float64())),
                    "counts": pa.array([n.tolist()], pa.list_(pa.int64())),
                    "inertia": pa.array([i_], pa.float64()),
                }
            )

        # per-round moment partials merge through ONE exchange (one row per
        # block before — O(blocks x k x d) floats through the driver)
        folded = exchange_fold(ds.map_batches(partials, batch_format="pyarrow"), moments_fold)
        tot_s = np.asarray(folded.column("sums")[0].as_py()).reshape(cent.shape)
        tot_n = np.asarray(folded.column("counts")[0].as_py(), dtype=np.int64)
        tot_i = float(folded.column("inertia")[0].as_py())
        nz = tot_n > 0
        cent = cent.copy()
        cent[nz] = tot_s[nz] / tot_n[nz, None]  # empty clusters keep position
        inertia = tot_i
    return cent, tot_n, inertia


def embedding_kmeans(sf_dir: str):
    """Driver-contract query (rows-only: iterative): k cluster rows with
    size, inertia share and the centroid vector. Pinned against a naive
    single-process Lloyd reference in pytest."""
    import pandas as pd

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent, sizes, inertia = kmeans_fit(ds)
    return pd.DataFrame(
        {
            "cluster": np.arange(cent.shape[0], dtype=np.int64),
            "size": sizes,
            "inertia_total": np.full(cent.shape[0], np.floor(inertia * 1e6 + 0.5) / 1e6),
            "centroid_norm": np.floor(np.linalg.norm(cent, axis=1) * 1e6 + 0.5) / 1e6,
        }
    )


# ---------------------------------------------------------------------------
# distributed PCA over the embedding column: pass 1 accumulates the mean and
# Gram matrix as INTEGER partials (embeddings quantized at Q=1e4), so the
# distributed fold is summation-order-free and the covariance the driver
# sees is bit-deterministic; the (d x d) eigendecomposition runs on the
# driver (d is the embedding width — tiny); pass 2 projects every vector
# onto the top components in one streaming map. Overflow contract:
# n * (Q*|x|_max)^2 must stay < 2^63 — at Q=1e4 and |x|<=4 that is ~5e13
# rows per FOLDED partial; beyond that, fold per-block Gram partials
# pairwise (they stay exact ints) or drop Q a decade. Sign convention:
# each component is flipped so its largest-|.| coordinate is positive.

PCA_Q = 10_000.0
PCA_COMPONENTS = 2


def pca_moments(ds: ray.data.Dataset, emb_col: str = "embedding"):
    """Integer-exact pass-1 moments at PCA_Q quantization: returns
    (n, sx: (d,) int64, gram: (d, d) int64) — the distributed reduction
    pca_fit eigendecomposes. Split out so the moments themselves are a
    driver-visible hash-exact query (embedding_pca_moments)."""

    def partial(tbl: pa.Table) -> pa.Table:
        m = _emb_matrix(tbl, emb_col)
        xq = np.rint(m * PCA_Q).astype(np.int64)
        sx = xq.sum(axis=0)
        gram = xq.T @ xq  # (d, d) int64
        d = xq.shape[1]
        return pa.table(
            {
                "n": pa.array([tbl.num_rows], pa.int64()),
                "sx": pa.array([sx.tolist()], pa.list_(pa.int64())),
                "gram": pa.array([gram.reshape(-1).tolist()], pa.list_(pa.int64())),
                "d": pa.array([d], pa.int64()),
            }
        )

    from .fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        n = int(pc.sum(tbl.column("n")).as_py() or 0)
        sx = np.zeros(0, np.int64)
        gram = np.zeros(0, np.int64)
        for row_sx in tbl.column("sx").to_pylist():
            a = np.asarray(row_sx, dtype=np.int64)
            sx = a if sx.size == 0 else sx + a
        for row_g in tbl.column("gram").to_pylist():
            a = np.asarray(row_g, dtype=np.int64)
            gram = a if gram.size == 0 else gram + a
        d_ = int(tbl.column("d")[0].as_py())
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "sx": pa.array([sx.tolist()], pa.list_(pa.int64())),
                "gram": pa.array([gram.tolist()], pa.list_(pa.int64())),
                "d": pa.array([d_], pa.int64()),
            }
        )

    # per-block moment partials merge through ONE exchange (driver receives
    # <= parts one-row tables, then one final fold — O(parts), not O(blocks))
    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    n_tot = int(folded.column("n")[0].as_py())
    sx_tot = np.asarray(folded.column("sx")[0].as_py(), dtype=np.int64)
    gram_tot = np.asarray(folded.column("gram")[0].as_py(), dtype=np.int64)
    d = int(folded.column("d")[0].as_py())
    return n_tot, sx_tot, gram_tot.reshape(d, d)


def pca_fit(ds: ray.data.Dataset, emb_col: str = "embedding", n_components: int = PCA_COMPONENTS):
    """Returns (mean: (d,), components: (k, d)) from integer-exact moments."""
    n_tot, sx_tot, gram_tot = pca_moments(ds, emb_col)
    mean_q = sx_tot.astype(np.float64) / n_tot
    cov = (gram_tot.astype(np.float64) - np.outer(mean_q, mean_q) * n_tot) / n_tot
    evals, evecs = np.linalg.eigh(cov)  # ascending
    comp = evecs[:, ::-1][:, :n_components].T  # (k, d), descending eigenvalue
    flip = np.sign(comp[np.arange(comp.shape[0]), np.abs(comp).argmax(axis=1)])
    comp = comp * flip[:, None]
    return mean_q / PCA_Q, comp


def embedding_pca(sf_dir: str) -> ray.data.Dataset:
    """Driver-contract query (rows-only: eigendecomposition is not SQL):
    per-vector projections onto the top-2 principal components. Pinned
    against a single-process reference with the identical quantized-moment
    formula in pytest (exact equality)."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mean, comp = pca_fit(ds)
    cref = ray.put((mean, comp))

    def project(tbl: pa.Table) -> pa.Table:
        mu, c = ray.get(cref)
        m = _emb_matrix(tbl)
        p = (m - mu) @ c.T
        p = np.floor(p * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "vec_id": tbl.column("vec_id"),
                "pc1": pa.array(p[:, 0], pa.float64()),
                "pc2": pa.array(p[:, 1], pa.float64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def embedding_pca_moments(sf_dir: str):
    """Driver-contract query (hash-exact SQL oracle): the integer-exact
    pass-1 moments of embedding_pca — n, per-dim sums, and the
    upper-triangle Gram matrix at PCA_Q quantization — as flat
    (dim_i, dim_j, val) BIGINT rows (sums ride dim_j = -1, n rides
    (-1, -1)). Moves the PCA family's distributed reduction onto a
    driver-visible exact check; only the driver-side (d x d)
    eigendecomposition stays rows-only by design."""
    import pandas as pd

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    n, sx, gram = pca_moments(ds)
    d = sx.size
    iu, ju = np.triu_indices(d)
    dim_i = np.concatenate([iu, np.arange(d), [-1]]).astype(np.int64)
    dim_j = np.concatenate([ju, np.full(d, -1, dtype=np.int64), [-1]]).astype(np.int64)
    val = np.concatenate([gram[iu, ju], sx, [n]]).astype(np.int64)
    return pd.DataFrame({"dim_i": dim_i, "dim_j": dim_j, "val": val})


EMBEDDING_PCA_MOMENTS_SQL = f"""
WITH xq AS (
  SELECT vec_id, i - 1 AS dim,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {int(PCA_Q)}) AS BIGINT) AS q
  FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS r(i)
)
SELECT a.dim AS dim_i, b.dim AS dim_j, CAST(sum(a.q * b.q) AS BIGINT) AS val
FROM xq a JOIN xq b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY a.dim, b.dim
UNION ALL
SELECT dim AS dim_i, CAST(-1 AS BIGINT) AS dim_j, CAST(sum(q) AS BIGINT) AS val
FROM xq GROUP BY dim
UNION ALL
SELECT CAST(-1 AS BIGINT) AS dim_i, CAST(-1 AS BIGINT) AS dim_j,
       CAST(count(*) AS BIGINT) AS val
FROM embeddings
"""


# one exact-integer Lloyd step: same deterministic init (k smallest-id
# vectors) and the same argmin assignment rule as the iterative
# embedding_kmeans, but distances and cluster sums computed in the
# quantized-integer domain (Q=1e4) so the answer is bit-exact and
# SQL-expressible — the kmeans family's driver-visible hash-exact twin.
# Overflow contract: per-dim |q| <= Q*|x|_max (~5e3 here); squared-distance
# terms are <= d*(2*Q*|x|_max)^2 ~ 6e9 and cluster sums <= n*Q*|x|_max,
# both comfortably int64 up to ~1e14 rows per cluster.

KSTEP_K = 8
KSTEP_Q = 10_000
KSTEP_PARTS = 16


def embedding_kmeans_step(sf_dir: str):
    import pandas as pd

    from ..functions.hashing import avalanche64
    from .fold import exchange_fold

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    k = KSTEP_K

    def smallest_k(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("vec_id").to_numpy()
        take = np.argsort(ids, kind="stable")[:k]
        return tbl.take(pa.array(np.sort(take)))

    cand = exchange_fold(ds.map_batches(smallest_k, batch_format="pyarrow"), smallest_k)
    if cand is None:
        return pd.DataFrame(columns=["cluster", "dim", "n", "s"])
    # centroid index = rank of the centroid's vec_id (ascending), matching
    # the oracle's row_number() OVER (ORDER BY vec_id)
    pos = np.argsort(cand.column("vec_id").to_numpy(), kind="stable")[:k]
    cq = np.rint(_emb_matrix(cand.take(pa.array(pos))) * KSTEP_Q).astype(np.int64)
    cref = ray.put(cq)

    def partial(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "cluster": pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        c = ray.get(cref)
        xq = np.rint(_emb_matrix(tbl) * KSTEP_Q).astype(np.int64)
        # exact integer squared distance; argmin ties break to the lowest
        # centroid index (numpy first-occurrence == the oracle's ORDER BY
        # d2, cid)
        d2 = (xq * xq).sum(axis=1)[:, None] - 2 * (xq @ c.T) + (c * c).sum(axis=1)[None, :]
        assign = d2.argmin(axis=1)
        uniq, inv = np.unique(assign, return_inverse=True)
        kk, d = uniq.size, xq.shape[1]
        sums = np.zeros((kk, d), dtype=np.int64)
        np.add.at(sums, inv, xq)
        n = np.bincount(inv, minlength=kk).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(np.repeat(uniq.astype(np.int64), d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), kk), pa.int64()),
                "s": pa.array(sums.reshape(-1), pa.int64()),
                "n": pa.array(np.repeat(n, d), pa.int64()),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["cluster", "dim"])
            .aggregate([("s", "sum"), ("n", "sum")])
            .rename_columns(["cluster", "dim", "s", "n"])
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        cl = tbl.column("cluster").to_numpy().astype(np.uint64)
        return (avalanche64(cl) % np.uint64(KSTEP_PARTS)).astype(np.int32)

    # ONE cluster-hash exchange merges the per-block (cluster, dim) partials;
    # the driver sees <= k x d final rows regardless of block count
    folded = exchange_fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        fold,
        parts=KSTEP_PARTS,
        pid_of=pid_of,
    )
    out = folded.to_pandas().sort_values(["cluster", "dim"]).reset_index(drop=True)
    return out[["cluster", "dim", "n", "s"]]


EMBEDDING_KMEANS_STEP_SQL = f"""
WITH cent AS (
  SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT {KSTEP_K}
), cid AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, embedding FROM cent
), cq AS (
  SELECT cid, i - 1 AS dim,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {KSTEP_Q}) AS BIGINT) AS q
  FROM cid, UNNEST(range(1, len(embedding) + 1)) AS r(i)
), xq AS (
  SELECT vec_id, i - 1 AS dim,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {KSTEP_Q}) AS BIGINT) AS q
  FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS r(i)
), dist AS (
  SELECT x.vec_id, c.cid, sum((x.q - c.q) * (x.q - c.q)) AS d2
  FROM xq x JOIN cq c ON x.dim = c.dim
  GROUP BY x.vec_id, c.cid
), assign AS (
  SELECT vec_id, cid FROM (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) AS rn
    FROM dist
  ) WHERE rn = 1
)
SELECT a.cid AS cluster, x.dim AS dim, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x.q) AS BIGINT) AS s
FROM assign a JOIN xq x ON a.vec_id = x.vec_id
GROUP BY a.cid, x.dim
"""


# ---------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
# web-scale through semantic deduplication"): k-means the embedding space,
# then prune near-duplicate vectors WITHIN each cluster by pairwise cosine
# — the clustering is exactly what makes semantic dedup tractable at
# corpus scale (pairwise work is bounded per cluster, never all-pairs).
# Deterministic keep rule: a vector is dropped iff an EARLIER-id vector in
# its cluster has cosine >= tau. Plan: deterministic distributed Lloyd's
# (kmeans_fit, broadcast centroids), per-batch assignment, ONE exchange on
# cluster id, per-cluster chunked-GEMM prune (row blocks of the similarity
# matrix — memory c x B, never c x c for big clusters). Rows-only driver
# check (iterative k-means); pinned against a naive single-process
# reference in pytest.

SEMDEDUP_K = 8
SEMDEDUP_TAU = 0.95
_SEMDEDUP_ROW_BLOCK = 4096
# A k-means cluster larger than this is SPLIT over ceil(size/cap) salted
# sub-tasks before the prune (round-4 VERDICT #3: one degenerate centroid
# must not put a corpus-sized matrix in one task). Within-shard pruning is
# exact; cross-shard comparisons inside an oversized cluster are skipped
# with a log line (the minhash mega-bucket policy: observable truncation,
# never silent, recall loss confined to the pathological cluster). At the
# default cap the per-task matrix is <= cap x dim x 8 B (~50 MB at d=64).
SEMDEDUP_MAX_CLUSTER = 100_000


def embedding_semdedup(
    sf_dir: str,
    k: int = SEMDEDUP_K,
    tau: float = SEMDEDUP_TAU,
    max_cluster: int = SEMDEDUP_MAX_CLUSTER,
) -> ray.data.Dataset:
    from ..functions.hashing import avalanche64
    from .fold import exchange_fold

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cent, _, _ = kmeans_fit(ds, k=k)
    cref = ray.put(cent)

    def assign(tbl: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _emb_matrix(tbl)
        d = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
        return pa.table(
            {
                "vec_id": tbl.column("vec_id").cast(pa.int64()),
                "embedding": tbl.column("embedding"),
                "cluster": pa.array(d.argmin(axis=1).astype(np.int64), pa.int64()),
            }
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    # cluster-size census (k counters per block -> exchange_fold -> k rows on
    # the driver) decides the per-cluster shard count BEFORE the exchange, so
    # an oversized cluster never lands whole in one prune task
    def size_partial(tbl: pa.Table) -> pa.Table:
        cnt = np.bincount(tbl.column("cluster").to_numpy(), minlength=k).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(np.arange(k, dtype=np.int64), pa.int64()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    def size_fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["cluster"]).aggregate([("n", "sum")]).rename_columns(["cluster", "n"])
        )

    assigned = assigned.materialize()  # the prune exchange consumes it anyway
    sizes_tbl = exchange_fold(assigned.map_batches(size_partial, batch_format="pyarrow"), size_fold)
    shards = np.ones(k, dtype=np.int64)
    if sizes_tbl is not None:
        for c_, n_ in zip(sizes_tbl.column("cluster").to_pylist(), sizes_tbl.column("n").to_pylist()):
            shards[int(c_)] = max(1, -(-int(n_) // max_cluster))
    n_split = int((shards > 1).sum())
    if n_split:
        logger.warning(
            "embedding_semdedup: %d oversized cluster(s) split over salted shards "
            "(max_cluster=%d, shard counts=%s) — cross-shard duplicate pairs inside "
            "those clusters are not compared",
            n_split,
            max_cluster,
            {i: int(s) for i, s in enumerate(shards) if s > 1},
        )
    shards_ref = ray.put(shards)

    def salt(tbl: pa.Table) -> pa.Table:
        s = ray.get(shards_ref)
        cl = tbl.column("cluster").to_numpy()
        ids = tbl.column("vec_id").to_numpy().astype(np.uint64)
        shard = (avalanche64(ids) % s[cl].astype(np.uint64)).astype(np.int64)
        # pack (cluster, shard) into one group key; shard < 2^32 always
        gkey = (cl << np.int64(32)) | shard
        return tbl.append_column("gkey", pa.array(gkey, pa.int64())).append_column(
            "__pid", pa.array(pid_of(gkey, k))
        )

    def max_earlier_cos(nm: np.ndarray) -> np.ndarray:
        # row blocks against the full (cluster-sized) matrix: position in
        # the id-sorted order IS the earlier-vector mask
        n = nm.shape[0]
        max_cos = np.full(n, -1.0)
        for lo in range(1, n, _SEMDEDUP_ROW_BLOCK):
            hi = min(lo + _SEMDEDUP_ROW_BLOCK, n)
            sim = nm[lo:hi] @ nm.T  # (B, n)
            col = np.arange(n)[None, :]
            row = np.arange(lo, hi)[:, None]
            sim[col >= row] = -1.0  # only earlier ids count
            max_cos[lo:hi] = sim.max(axis=1)
        return max_cos

    def prune(tbl: pa.Table) -> pa.Table:
        # rows arrive sorted by (gkey, vec_id); a block holds many groups
        ids = tbl.column("vec_id").to_numpy()
        nm = _norm_rows(_emb_matrix(tbl))
        runs = _runs(tbl.column("gkey").to_numpy())
        max_cos = np.concatenate([max_earlier_cos(nm[lo:hi]) for lo, hi in runs])
        keep = max_cos < tau
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": tbl.column("cluster"),
                "keep": pa.array(keep),
                "max_cos_e6": pa.array(
                    np.floor(max_cos * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    salted = assigned.map_batches(salt, batch_format="pyarrow")
    return exchange(salted, "__pid", prune, k, order=("gkey", "vec_id"))


# ---------------------------------------------------------------------------
# GREEDY K-CENTER CORESET (Gonzalez 2-approximation) — embedding-space data
# SELECTION: pick K maximally-spread vectors (each round adds the vector
# farthest from everything chosen so far). The diversity-first counterpart
# of SemDeDup's redundancy pruning: where semdedup drops near-duplicates,
# k-center keeps a small cover whose max distance to any corpus vector is
# within 2x optimal — the classic coreset for facility-location-style
# training-data subset selection. Iterative by nature (rows-only query):
# K rounds, each a streaming pass that broadcasts the <=K chosen centers
# (ray.put once per round), computes the squared-L2 GEMM against them per
# batch, and emits ONE (dist, vec_id) candidate per block; candidates merge
# through the exchange_fold max (tie -> smaller vec_id), so driver traffic
# is O(parts) rows per round, never O(blocks). No materialization between
# rounds: like kmeans_fit, each pass recomputes against the tiny center
# matrix rather than persisting a data-sized min-dist column.


def kcenter_select(
    ds: "ray.data.Dataset",
    k: int = 16,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
):
    """Returns a pandas DataFrame (round, vec_id, radius2) — the selection
    order and the coverage radius (max over corpus of min squared distance
    to the already-chosen set) AT selection time; radius2 is non-increasing
    by construction."""
    import pandas as pd

    from .fold import exchange_fold

    def smallest_one(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy()
        return tbl.take(pa.array([int(np.argmin(ids))])) if len(ids) else tbl

    seed_tbl = exchange_fold(
        ds.map_batches(smallest_one, batch_format="pyarrow"), smallest_one
    )
    if seed_tbl is None or seed_tbl.num_rows == 0:
        return pd.DataFrame(
            {"round": pa.array([], pa.int64()).to_pandas(),
             "vec_id": pa.array([], pa.int64()).to_pandas(),
             "radius2": pa.array([], pa.float64()).to_pandas()}
        )
    i0 = int(np.argmin(seed_tbl.column(id_col).to_numpy()))
    centers = _emb_matrix(seed_tbl.take(pa.array([i0])), emb_col)
    chosen_ids = [int(seed_tbl.column(id_col)[i0].as_py())]
    rounds = [(0, chosen_ids[0], float("nan"))]

    for r in range(1, k):
        cref = ray.put(centers)

        def cand(tbl: pa.Table, cref=cref) -> pa.Table:
            c = ray.get(cref)
            m = _emb_matrix(tbl, emb_col)
            d = (m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
            mind = d.min(axis=1)
            ids = tbl.column(id_col).to_numpy()
            # farthest point in this block; tie -> smaller id (stable argmax
            # over (mind, -id) via lexsort)
            best = np.lexsort((ids, -mind))[0]
            return pa.table(
                {
                    "dist": pa.array([float(mind[best])], pa.float64()),
                    "vid": pa.array([int(ids[best])], pa.int64()),
                }
            )

        def pick_fold(tbl: pa.Table) -> pa.Table:
            d = tbl.column("dist").to_numpy(zero_copy_only=False)
            v = tbl.column("vid").to_numpy(zero_copy_only=False)
            best = np.lexsort((v, -d))[0]
            return tbl.take(pa.array([int(best)]))

        winner = exchange_fold(ds.map_batches(cand, batch_format="pyarrow"), pick_fold)
        wtbl = pick_fold(winner)
        vid = int(wtbl.column("vid")[0].as_py())
        radius2 = float(wtbl.column("dist")[0].as_py())
        if radius2 <= 0.0:  # corpus exhausted (all points are chosen points)
            break
        # fetch the winning vector (tiny targeted filter pass)
        row = exchange_fold(
            ds.map_batches(
                lambda t, vid=vid: t.filter(pc.equal(t.column(id_col), vid)),
                batch_format="pyarrow",
            ),
            lambda t: t.slice(0, 1),
        )
        centers = np.vstack([centers, _emb_matrix(row.slice(0, 1), emb_col)])
        chosen_ids.append(vid)
        rounds.append((r, vid, radius2))

    return pd.DataFrame(
        {
            "round": np.array([r for r, _, _ in rounds], dtype=np.int64),
            "vec_id": np.array([v for _, v, _ in rounds], dtype=np.int64),
            "radius2": np.array([d for _, _, d in rounds], dtype=np.float64),
        }
    )


def embedding_kcenter(sf_dir: str, k: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kcenter_select(ds, k=k)


# ---------------------------------------------------------------------------
# PRODUCT QUANTIZATION (Jegou et al. 2011) — the standard scale path for
# billion-vector ANN: split each embedding into S subspaces, k-means each
# subspace to K codes, store each vector as S small codes (here S x 4 bits
# of information per K=16). Training runs ALL subspaces simultaneously:
# one streaming pass per Lloyd iteration, broadcast (S,K,subdim) codebook,
# per-batch GEMM assignments, (S*K*subdim sums + S*K counts) partials
# through ONE exchange_fold — the kmeans_fit shape, S-fold wider. Encoding
# is a final stateless pass emitting (vec_id, subspace, code, sq_err).
# Deterministic: init = subvectors of the K smallest-id vectors, argmin
# ties to the lowest code. Rows-only query (iterative); pinned against the
# naive single-process PQ in pytest.

PQ_SUBSPACES = 4
PQ_CODES = 16
PQ_ITERS = 5


def pq_train(
    ds: "ray.data.Dataset",
    subspaces: int = PQ_SUBSPACES,
    codes: int = PQ_CODES,
    iters: int = PQ_ITERS,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> np.ndarray:
    """Returns the trained codebook (subspaces, codes, subdim)."""
    from .fold import exchange_fold

    def smallest_k(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy()
        take = np.argsort(ids, kind="stable")[:codes]
        return tbl.take(pa.array(np.sort(take)))

    cand = exchange_fold(ds.map_batches(smallest_k, batch_format="pyarrow"), smallest_k)
    if cand is None or cand.num_rows < codes:
        raise ValueError("pq_train needs at least `codes` vectors")
    order = np.argsort(cand.column(id_col).to_numpy(), kind="stable")[:codes]
    init = _emb_matrix(cand.take(pa.array(np.sort(order))))
    dim = init.shape[1]
    if dim % subspaces:
        raise ValueError(f"dim {dim} not divisible by {subspaces} subspaces")
    sub = dim // subspaces
    # (S, K, subdim)
    cent = np.stack([init[:, s * sub : (s + 1) * sub] for s in range(subspaces)])

    for _ in range(iters):
        cref = ray.put(cent)

        def partials(tbl: pa.Table, cref=cref) -> pa.Table:
            c = ray.get(cref)
            S, K, sd = c.shape
            m = _emb_matrix(tbl)
            sums = np.zeros((S, K, sd), dtype=np.float64)
            counts = np.zeros((S, K), dtype=np.int64)
            for s in range(S):  # S is a small constant
                x = m[:, s * sd : (s + 1) * sd]
                d = (x * x).sum(1)[:, None] - 2.0 * (x @ c[s].T) + (c[s] * c[s]).sum(1)[None, :]
                a = d.argmin(axis=1)
                np.add.at(sums[s], a, x)
                counts[s] += np.bincount(a, minlength=K)
            return pa.table(
                {
                    "sums": pa.array([sums.ravel().tolist()], pa.list_(pa.float64())),
                    "counts": pa.array([counts.ravel().tolist()], pa.list_(pa.int64())),
                }
            )

        S, K, sd = cent.shape

        def fold(tbl: pa.Table, S=S, K=K, sd=sd) -> pa.Table:
            s = (
                tbl.column("sums").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(-1, S * K * sd).sum(axis=0)
            )
            n = (
                tbl.column("counts").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(-1, S * K).sum(axis=0)
            )
            return pa.table(
                {
                    "sums": pa.array([s.tolist()], pa.list_(pa.float64())),
                    "counts": pa.array([n.tolist()], pa.list_(pa.int64())),
                }
            )

        folded = exchange_fold(ds.map_batches(partials, batch_format="pyarrow"), fold)
        ftbl = fold(folded)
        sums = np.asarray(ftbl.column("sums")[0].as_py()).reshape(S, K, sd)
        counts = np.asarray(ftbl.column("counts")[0].as_py()).reshape(S, K)
        nz = counts > 0
        cent = np.where(nz[:, :, None], sums / np.maximum(counts, 1)[:, :, None], cent)
    return cent


def embedding_pq(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cent = pq_train(ds)
    cref = ray.put(cent)

    def encode(tbl: pa.Table) -> pa.Table:
        c = ray.get(cref)
        S, K, sd = c.shape
        if tbl.num_rows == 0:
            return pa.table(
                {"vec_id": pa.array([], pa.int64()), "subspace": pa.array([], pa.int64()),
                 "code": pa.array([], pa.int64()), "sq_err": pa.array([], pa.float64())}
            )
        m = _emb_matrix(tbl)
        ids = tbl.column("vec_id").to_numpy().astype(np.int64)
        out_s, out_c, out_e = [], [], []
        for s in range(S):
            x = m[:, s * sd : (s + 1) * sd]
            d = (x * x).sum(1)[:, None] - 2.0 * (x @ c[s].T) + (c[s] * c[s]).sum(1)[None, :]
            a = d.argmin(axis=1)
            out_s.append(np.full(ids.size, s, dtype=np.int64))
            out_c.append(a.astype(np.int64))
            out_e.append(np.maximum(d[np.arange(ids.size), a], 0.0))
        return pa.table(
            {
                "vec_id": pa.array(np.tile(ids, S), pa.int64()),
                "subspace": pa.array(np.concatenate(out_s), pa.int64()),
                "code": pa.array(np.concatenate(out_c), pa.int64()),
                "sq_err": pa.array(
                    np.floor(np.concatenate(out_e) * 1e9 + 0.5) / 1e9, pa.float64()
                ),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PQ ADC SEARCH — approximate top-k with the trained PQ codebook via
# asymmetric distance computation: each query precomputes an (S, K) lookup
# table of subspace distances to every code; a corpus vector's approximate
# distance is then S table lookups summed over its codes — the memory-bound
# scan that makes billion-vector search feasible. One streaming pass:
# encode the batch with the broadcast codebook AND score all broadcast
# queries via LUT gather (no full-dim GEMM per query x corpus), emit
# per-block top-k partials, merge through the bounded query-keyed fold
# (the brute_force_topk contract: k x parts driver rows). Rows-only;
# exactness of the ADC arithmetic and planted-cluster recall pinned in
# pytest.

PQ_SEARCH_QUERIES = 20
PQ_SEARCH_K = 5


def pq_adc_search(
    ds: "ray.data.Dataset",
    queries: np.ndarray,
    query_ids: np.ndarray,
    cent: np.ndarray,
    k: int = PQ_SEARCH_K,
):
    """Top-k by ADC distance. cent: (S, K, subdim) codebook. Ties break to
    the smaller neighbor id. Returns pandas (query_id, rank, neighbor_id,
    adc_dist)."""
    import pandas as pd

    from .fold import exchange_fold

    S, K, sd = cent.shape
    # (Q, S, K) lookup tables
    luts = np.stack(
        [
            [
                ((q[s * sd : (s + 1) * sd][None, :] - cent[s]) ** 2).sum(axis=1)
                for s in range(S)
            ]
            for q in queries.astype(np.float64)
        ]
    )
    qref = ray.put((luts, query_ids.astype(np.int64)))
    cref = ray.put(cent)

    def part(tbl: pa.Table) -> pa.Table:
        luts_, qids = ray.get(qref)
        c = ray.get(cref)
        S_, K_, sd_ = c.shape
        if tbl.num_rows == 0:
            return pa.table(
                {"query_id": pa.array([], pa.int64()), "neighbor_id": pa.array([], pa.int64()),
                 "adc_dist": pa.array([], pa.float64())}
            )
        m = _emb_matrix(tbl)
        ids = tbl.column("vec_id").to_numpy().astype(np.int64)
        codes = np.empty((ids.size, S_), dtype=np.int64)
        for s in range(S_):
            x = m[:, s * sd_ : (s + 1) * sd_]
            d = (x * x).sum(1)[:, None] - 2.0 * (x @ c[s].T) + (c[s] * c[s]).sum(1)[None, :]
            codes[:, s] = d.argmin(axis=1)
        out_q, out_n, out_d = [], [], []
        sub_idx = np.arange(S_)
        for qi, lut in zip(qids, luts_):
            adc = lut[sub_idx[None, :], codes].sum(axis=1)  # (rows,)
            take = min(k, adc.size)
            best = np.lexsort((ids, adc))[:take]
            out_q.append(np.full(take, qi, dtype=np.int64))
            out_n.append(ids[best])
            out_d.append(adc[best])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
                "adc_dist": pa.array(np.concatenate(out_d), pa.float64()),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        df = (
            df.sort_values(["query_id", "adc_dist", "neighbor_id"])
            .groupby("query_id", sort=True)
            .head(k)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    folded = exchange_fold(
        ds.map_batches(part, batch_format="pyarrow"),
        fold,
        pid_of=lambda t: (
            t.column("query_id").to_numpy().astype(np.uint64) % np.uint64(16)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(columns=["query_id", "rank", "neighbor_id", "adc_dist"])
    df = fold(folded).to_pandas()
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df["adc_dist"] = np.floor(df["adc_dist"].to_numpy() * 1e9 + 0.5) / 1e9
    return df[["query_id", "rank", "neighbor_id", "adc_dist"]].reset_index(drop=True)


def embedding_pq_search(sf_dir: str):
    import pyarrow.parquet as pqt

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cent = pq_train(ds)
    qt = pqt.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", PQ_SEARCH_QUERIES)],
    )
    q = _emb_matrix(qt)
    qids = qt.column("vec_id").to_numpy().astype(np.int64)
    return pq_adc_search(ds, q, qids, cent)
