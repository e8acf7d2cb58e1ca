"""Generic equi-joins (SURVEY §2.5 J1/J2 equality variants).

Two shapes, same switch philosophy as the flagship's as-of signals side
(pipelines/features.py _use_copartition):

- broadcast_dim_join: the dimension table is gathered once (bounded, small
  side), ray.put as sorted arrays, and every fact batch does a vectorized
  searchsorted lookup — one map stage, no shuffle. For dimensions that fit
  a node's plasma store (region/nation/customer class).
- copartitioned_equijoin: both sides are hash-partitioned ON THE SAME KEY,
  unioned with a side tag, and joined per partition with one vectorized
  sort + searchsorted + Arrow take — the stages/asof.py exchange shape with
  equality semantics. For large x large (orders x lineitem class) where no
  side may touch driver or broadcast memory.

Keys may be integer (int64-castable) OR string (round-2 verdict #5): string
keys route via the vectorized buffer hash and merge on per-partition
dictionary codes — no per-row Python either way. The dimension side must be
unique per key (FK -> dimension row). Inner semantics: fact rows without a
match are dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import avalanche64, string_hash_strong
from .exchange import exchange, pid_of

def _is_string(dt: pa.DataType) -> bool:
    return pa.types.is_string(dt) or pa.types.is_large_string(dt)


def _key_pids(col: pa.Array, key_type: pa.DataType, num_partitions: int) -> np.ndarray:
    if _is_string(key_type):
        return (string_hash_strong(col) % np.uint64(num_partitions)).astype(np.int32)
    return pid_of(col.to_numpy(), num_partitions)


def gather_small_side(ds: ray.data.Dataset) -> pa.Table:
    """Materialize a BOUNDED dimension dataset onto the driver through a
    distributed (column-pruned) read. Only ever call this on a declared
    small side — the caller owns the size contract.

    materialize() first: a bare to_arrow_refs() executes the lazy plan TWICE
    (schema sample + refs); on a materialized dataset the refs are free."""
    tbls = ray.get(ds.materialize().to_arrow_refs())
    return pa.concat_tables([t for t in tbls if t.num_columns])


def broadcast_dim_join(
    fact: ray.data.Dataset,
    dim_tbl: pa.Table,
    fact_key: str,
    dim_key: str,
    dim_cols: list[str],
) -> ray.data.Dataset:
    """Attach dim_cols to every fact row matching on fact_key == dim_key.
    dim_tbl is ray.put once (sorted by key); fact rows without a match are
    dropped (inner)."""
    dk = dim_tbl.column(dim_key).to_numpy()
    order = np.argsort(dk, kind="stable")
    ref = ray.put((dk[order], dim_tbl.select(dim_cols).take(pa.array(order))))

    def fn(tbl: pa.Table) -> pa.Table:
        dks, dsel = ray.get(ref)
        fk = tbl.column(fact_key).to_numpy()
        pos = np.searchsorted(dks, fk)
        hit = pos < dks.size
        hit[hit] = dks[pos[hit]] == fk[hit]
        if not hit.all():
            tbl = tbl.filter(pa.array(hit))
            pos = pos[hit]
        gathered = dsel.take(pa.array(pos))
        for c in dim_cols:
            tbl = tbl.append_column(c, gathered.column(c))
        return tbl

    return fact.map_batches(fn, batch_format="pyarrow")


def copartitioned_equijoin(
    fact: ray.data.Dataset,
    dim: ray.data.Dataset,
    fact_key: str,
    dim_key: str,
    fact_cols: list[str],
    dim_cols: list[str],
    num_partitions: int = 32,
    fact_col_types: dict | None = None,
    dim_col_types: dict | None = None,
    key_type: pa.DataType | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """m:n equi-join with NO broadcast side: both datasets are routed by
    hash(key) into the same partition ids, unioned with a side tag, and each
    partition is joined by ONE vectorized kernel (dictionary-encode the
    partition's keys to int codes, sort dim, searchsorted the run bounds,
    expand with repeat/arange, Arrow take). Duplicate keys on EITHER side
    produce the full cross-product of matches. Works for int64-castable AND
    string keys; the key keeps its native type in the output. Output
    columns: fact_key, *fact_cols, *dim_cols.

    how: "inner" (matches only), "left" (unmatched fact rows keep null dim
    cols), "full" (additionally emits unmatched dim rows with null fact
    cols, key taken from the dim side).

    Pass fact_col_types / dim_col_types (name -> pa.DataType) and key_type
    when known: the .schema() fallback partially EXECUTES each upstream
    pipeline just to sample its schema."""
    if how not in ("inner", "left", "full"):
        raise ValueError(f"unknown join how={how!r}")
    if fact_col_types is None or key_type is None:
        fschema = fact.schema()
        if fact_col_types is None:
            fact_col_types = dict(zip(fschema.names, fschema.types))
        if key_type is None:
            key_type = dict(zip(fschema.names, fschema.types))[fact_key]
    if dim_col_types is None:
        dschema = dim.schema()
        dim_col_types = dict(zip(dschema.names, dschema.types))
    ftypes, dtypes = fact_col_types, dim_col_types
    key_type = key_type if _is_string(key_type) else pa.int64()

    def tag_fact(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(fact_key).cast(key_type)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        n = tbl.num_rows
        cols = {
            "__pid": pa.array(_key_pids(keys, key_type, num_partitions)),
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
            "__key": keys,
        }
        for c in fact_cols:
            cols[c] = tbl.column(c)
        for c in dim_cols:
            cols[c] = pa.nulls(n, dtypes[c])
        return pa.table(cols)

    def tag_dim(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(dim_key).cast(key_type)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        n = tbl.num_rows
        cols = {
            "__pid": pa.array(_key_pids(keys, key_type, num_partitions)),
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            "__key": keys,
        }
        for c in fact_cols:
            cols[c] = pa.nulls(n, ftypes[c])
        for c in dim_cols:
            cols[c] = tbl.column(c)
        return pa.table(cols)

    unioned = fact.map_batches(tag_fact, batch_format="pyarrow").union(
        dim.map_batches(tag_dim, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [(fact_key, key_type)]
        + [(c, ftypes[c]) for c in fact_cols]
        + [(c, dtypes[c]) for c in dim_cols]
    )

    def kernel(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        key_col = tbl.column("__key")
        if isinstance(key_col, pa.ChunkedArray):
            key_col = key_col.combine_chunks()
        # one dictionary encode covers both sides -> int codes; string keys
        # never hit numpy object comparisons
        kc = pc.dictionary_encode(key_col).indices.to_numpy(zero_copy_only=False)
        is_d = side == 1
        d = tbl.filter(pa.array(is_d))
        f = tbl.filter(pa.array(~is_d))
        if f.num_rows == 0 and (how != "full" or d.num_rows == 0):
            return out_schema.empty_table()
        dk = kc[is_d]
        dorder = np.argsort(dk, kind="stable")
        dks = dk[dorder]
        fk = kc[~is_d]
        # m:n match expansion: each fact row's matching dim run is
        # [lo, hi); repeat fact rows by run length, gather dim rows by
        # run-relative arange — no per-key Python
        lo = np.searchsorted(dks, fk, side="left")
        hi = np.searchsorted(dks, fk, side="right")
        cnt = hi - lo
        matched = cnt > 0
        total = int(cnt.sum())
        if total:
            f_idx = np.repeat(np.arange(fk.size, dtype=np.int64), cnt)
            starts = np.repeat(lo, cnt)
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt
            )
            d_idx = dorder[starts + offs]
        else:
            f_idx = np.empty(0, np.int64)
            d_idx = np.empty(0, np.int64)
        if how in ("left", "full") and not matched.all():
            # one output row per unmatched fact row, dim side null
            miss = np.nonzero(~matched)[0]
            f_idx = np.concatenate([f_idx, miss])
            d_idx = np.concatenate([d_idx, np.full(miss.size, -1, np.int64)])
        f_sel = f.take(pa.array(f_idx))
        d_gather = pa.array(d_idx)
        if (d_idx < 0).any():
            d_gather = pa.array(
                np.where(d_idx < 0, 0, d_idx), mask=d_idx < 0
            )  # null index -> null row
        gathered = d.select(dim_cols).take(d_gather)
        cols = {fact_key: f_sel.column("__key")}
        for c in fact_cols:
            cols[c] = f_sel.column(c)
        for c in dim_cols:
            cols[c] = gathered.column(c)
        out = pa.table(cols)
        if how == "full":
            # dim rows whose key never occurs on the fact side
            fks = np.sort(fk)
            p = np.searchsorted(fks, dk)
            d_hit = p < fks.size
            d_hit[d_hit] = fks[p[d_hit]] == dk[d_hit]
            if not d_hit.all():
                d_un = d.filter(pa.array(~d_hit))
                n_un = d_un.num_rows
                extra = {fact_key: d_un.column("__key")}
                for c in fact_cols:
                    extra[c] = pa.nulls(n_un, ftypes[c])
                for c in dim_cols:
                    extra[c] = d_un.column(c)
                out = pa.concat_tables([out, pa.table(extra).cast(out_schema)])
        return out.cast(out_schema)

    return exchange(unioned, "__pid", kernel, num_partitions)


def copartitioned_semi_anti(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    anti: bool = False,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Semi (EXISTS) / anti (NOT EXISTS) join on an integer key with no
    broadcast side: the right side ships ONLY its distinct keys per batch
    (the cheapest possible probe side), both sides co-route by hash(key),
    and each partition filters its left rows with one vectorized
    searchsorted membership test. Left columns pass through unchanged."""
    lschema = left.schema()
    ltypes = dict(zip(lschema.names, lschema.types))
    lcols = [c for c in lschema.names]

    def tag_left(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(left_key).cast(pa.int64()).to_numpy()
        out = {"__pid": pa.array(pid_of(keys, num_partitions)),
               "__side": pa.array(np.zeros(tbl.num_rows, dtype=np.int8))}
        for c in lcols:
            out[c] = tbl.column(c)
        return pa.table(out)

    def tag_right(tbl: pa.Table) -> pa.Table:
        # distinct keys only — the whole point of a semi join's probe side
        keys = np.unique(tbl.column(right_key).cast(pa.int64()).to_numpy())
        out = {"__pid": pa.array(pid_of(keys, num_partitions)),
               "__side": pa.array(np.ones(keys.size, dtype=np.int8))}
        for c in lcols:
            out[c] = (
                pa.array(keys, pa.int64()) if c == left_key else pa.nulls(keys.size, ltypes[c])
            )
        return pa.table(out)

    unioned = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def kernel(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        l = tbl.filter(pa.array(side == 0)).select(lcols)
        probe = np.unique(
            tbl.filter(pa.array(side == 1)).column(left_key).cast(pa.int64()).to_numpy()
        )
        lk = l.column(left_key).cast(pa.int64()).to_numpy()
        pos = np.searchsorted(probe, lk)
        hit = pos < probe.size
        hit[hit] = probe[pos[hit]] == lk[hit]
        return l.filter(pa.array(~hit if anti else hit))

    return exchange(unioned, "__pid", kernel, num_partitions)


# ---------------------------------------------------------------------------
# Bloom-prefiltered co-partitioned join: the classic distributed join
# optimization for a dim side too large to broadcast raw but whose Bloom
# bitmap fits. Build: per-block partial bitmaps OR-fold through ONE
# counters-only exchange (the bitmap IS the partial — bounded by 2^bits
# regardless of dim size). Probe: the broadcast bitmap prefilters fact rows
# BEFORE the join exchange (zero false negatives, bounded false-positive
# rate), and the exact co-partitioned join removes the FPs — final
# semantics identical to the plain equi-join, exchange volume cut to
# matching-rows + FPR.

BLOOM_JOIN_BITS_LOG2 = 20
_BJ_K = 6


def _bloom_join_positions(keys: np.ndarray, bits_log2: int) -> np.ndarray:
    # module-level import (join.py:31 idiom), NOT a call-time import: this
    # runs inside shipped worker UDFs, where a call-time relative import
    # fails when the driver's package dir isn't on the worker's sys.path
    # (cloudpickle captures avalanche64 by value through the closure).
    h = avalanche64(keys.astype(np.uint64))
    m = np.uint64(1 << bits_log2)
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    with np.errstate(over="ignore"):
        return np.stack(
            [((h1 + np.uint64(i) * h2) % m).astype(np.int64) for i in range(_BJ_K)]
        )


def build_key_bloom(
    dim: ray.data.Dataset, dim_key: str, bits_log2: int = BLOOM_JOIN_BITS_LOG2
):
    """OR-fold a Bloom bitmap of dim's join keys; returns (ray ObjectRef to
    the packed uint8 bitmap, bits_log2)."""
    from ..stages.fold import exchange_fold

    nbytes = (1 << bits_log2) // 8

    def partial(tbl: pa.Table) -> pa.Table:
        bits = np.zeros(1 << bits_log2, dtype=bool)
        if tbl.num_rows:
            keys = tbl.column(dim_key).to_numpy(zero_copy_only=False).astype(np.int64)
            pos = _bloom_join_positions(keys, bits_log2)
            bits[pos.ravel()] = True
        return pa.table({"bm": pa.array([np.packbits(bits).tobytes()], pa.binary())})

    def fold(tbl: pa.Table) -> pa.Table:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for v in tbl.column("bm").to_pylist():
            acc |= np.frombuffer(v, dtype=np.uint8)
        return pa.table({"bm": pa.array([acc.tobytes()], pa.binary())})

    folded = exchange_fold(dim.map_batches(partial, batch_format="pyarrow"), fold)
    if folded is None:
        packed = np.zeros(nbytes, dtype=np.uint8)
    else:
        packed = np.frombuffer(fold(folded).column("bm")[0].as_py(), dtype=np.uint8)
    return ray.put(packed), bits_log2


def bloom_prefilter(
    fact: ray.data.Dataset, fact_key: str, bloom_ref, bits_log2: int
) -> ray.data.Dataset:
    """Drop fact rows whose key cannot be in the dim side (bloom miss).
    Never drops a true match; survivors still carry bloom FPs."""

    def probe(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        bits = np.unpackbits(ray.get(bloom_ref)).view(bool)
        keys = tbl.column(fact_key).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = _bloom_join_positions(keys, bits_log2)
        hit = bits[pos].all(axis=0)
        return tbl.filter(pa.array(hit))

    return fact.map_batches(probe, batch_format="pyarrow")


def bloom_filtered_equijoin(
    fact: ray.data.Dataset,
    dim: ray.data.Dataset,
    fact_key: str,
    dim_key: str,
    fact_cols: list,
    dim_cols: list,
    num_partitions: int = 32,
    bits_log2: int = BLOOM_JOIN_BITS_LOG2,
    **kwargs,
) -> ray.data.Dataset:
    """copartitioned_equijoin with a Bloom prefilter on the fact side.
    Exact inner-join semantics (FPs die in the join); the exchange only
    carries bloom survivors."""
    bloom_ref, bl = build_key_bloom(dim, dim_key, bits_log2)
    slim_fact = bloom_prefilter(fact, fact_key, bloom_ref, bl)
    return copartitioned_equijoin(
        slim_fact, dim,
        fact_key=fact_key, dim_key=dim_key,
        fact_cols=fact_cols, dim_cols=dim_cols,
        num_partitions=num_partitions,
        **kwargs,
    )
