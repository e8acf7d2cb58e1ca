"""Relational operators over the TPC-H-ish testdata tables: vectorized
filter/project, grouped aggregation with map-side partials, broadcast hash
join (small side via ray.put), sort + top-k, distinct.

Money aggregates run in integer cents (prices/discounts have exactly 2
decimals) so distributed sums are bit-identical to the DuckDB oracle —
no float-summation-order drift.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..stages.exchange import exchange, pid_of, read_table


def _read(sf_dir: str, name: str, columns=None) -> ray.data.Dataset:
    return read_table([f"{sf_dir}/{name}.parquet"], columns)


def _cents(col) -> np.ndarray:
    return np.round(np.asarray(col, dtype=np.float64) * 100).astype(np.int64)


# ---------------------------------------------------------------------------
# Q1-style pricing summary: filter -> map-side partial agg -> small groupby.


def q1_pricing(sf_dir: str) -> ray.data.Dataset:
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partial(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.less_equal(tbl.column("l_shipdate"), cutoff))
        qty_c = _cents(tbl.column("l_quantity").to_numpy(zero_copy_only=False))
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        # disc price in 1e-4 dollars: price_c * (100 - disc_pct)
        disc_price = price_c * (100 - disc_pct)
        df = pd.DataFrame(
            {
                "l_returnflag": tbl.column("l_returnflag").to_pylist(),
                "l_linestatus": tbl.column("l_linestatus").to_pylist(),
                "qty_c": qty_c,
                "price_c": price_c,
                "disc_price_4": disc_price,
            }
        )
        agg = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty_c=("qty_c", "sum"),
                sum_price_c=("price_c", "sum"),
                sum_disc_price_4=("disc_price_4", "sum"),
                n=("qty_c", "size"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(partial, batch_format="pyarrow")

    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_c", alias_name="sum_qty_c"),
        Sum("sum_price_c", alias_name="sum_price_c"),
        Sum("sum_disc_price_4", alias_name="sum_disc_price_4"),
        Sum("n", alias_name="count_order"),
    )

    def finish(tbl: pa.Table) -> pa.Table:
        n = tbl.column("count_order").to_numpy()
        return pa.table(
            {
                "l_returnflag": tbl.column("l_returnflag"),
                "l_linestatus": tbl.column("l_linestatus"),
                "sum_qty": pa.array(tbl.column("sum_qty_c").to_numpy() / 100.0),
                "sum_base_price": pa.array(tbl.column("sum_price_c").to_numpy() / 100.0),
                "sum_disc_price": pa.array(tbl.column("sum_disc_price_4").to_numpy() / 10000.0),
                "avg_qty": pa.array(tbl.column("sum_qty_c").to_numpy() / (100.0 * n)),
                "count_order": pa.array(n, pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(CAST(round(l_quantity*100) AS BIGINT)) / 100.0 AS sum_qty,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)) / 100.0 AS sum_base_price,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT))) / 10000.0 AS sum_disc_price,
       sum(CAST(round(l_quantity*100) AS BIGINT))
         / (100.0 * count(*)) AS avg_qty,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# revenue per market segment: two-stage join, scale-shaped (round-2 redesign).
# ONLY customer — the genuinely small dimension — is broadcast (sorted-array
# lookup via ray.put). orders <-> lineitem, both fact-sized, go through the
# generic hash-CO-PARTITIONED equi-join (stages/join.py): lineitem is
# pre-aggregated per batch by orderkey (map-side combine) before the one
# exchange, and the join output is reduced to per-segment partials inside the
# same tasks, so the final groupby moves ~num_partitions x num_segments rows.
# No full fact table ever touches driver memory.


def revenue_by_segment(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    import pyarrow.compute as pc

    from ..stages.join import copartitioned_equijoin, gather_small_side

    cust = gather_small_side(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    de = pc.dictionary_encode(cust.column("c_mktsegment").combine_chunks())
    dict_vals = de.dictionary.to_pylist()
    segs = sorted(set(dict_vals))
    remap = np.array([segs.index(v) for v in dict_vals], dtype=np.int32)
    seg_of_cust_row = remap[de.indices.to_numpy()]
    ck = cust.column("c_custkey").to_numpy()
    corder = np.argsort(ck, kind="stable")
    cust_side = ray.put((ck[corder], seg_of_cust_row[corder]))

    def orders_with_seg(tbl: pa.Table) -> pa.Table:
        cks, csegs = ray.get(cust_side)
        cu = tbl.column("o_custkey").to_numpy()
        # every order has a customer (FK)
        seg = csegs[np.searchsorted(cks, cu)]
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "seg_id": pa.array(seg, pa.int32()),
            }
        )

    ord_seg = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        orders_with_seg, batch_format="pyarrow"
    )

    def li_partial(tbl: pa.Table) -> pa.Table:
        # map-side combine: one row per distinct orderkey per batch
        ok = tbl.column("l_orderkey").to_numpy()
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev4 = price_c * (100 - disc)
        order = np.argsort(ok, kind="stable")
        ok_s, rev_s = ok[order], rev4[order]
        head = np.ones(ok_s.size, dtype=bool)
        head[1:] = ok_s[1:] != ok_s[:-1]
        starts = np.flatnonzero(head)
        sums = np.add.reduceat(rev_s, starts) if starts.size else np.empty(0, np.int64)
        cnts = np.diff(np.append(starts, ok_s.size))
        return pa.table(
            {
                "l_orderkey": pa.array(ok_s[starts], pa.int64()),
                "rev4": pa.array(sums, pa.int64()),
                "n_items": pa.array(cnts, pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow"
    )

    joined = copartitioned_equijoin(
        li,
        ord_seg,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["rev4", "n_items"],
        dim_cols=["seg_id"],
        num_partitions=num_partitions,
        fact_col_types={"rev4": pa.int64(), "n_items": pa.int64()},
        dim_col_types={"seg_id": pa.int32()},
    )

    nseg = len(segs)

    def seg_partial(tbl: pa.Table) -> pa.Table:
        seg = tbl.column("seg_id").to_numpy(zero_copy_only=False)
        rev4 = tbl.column("rev4").to_numpy()
        n = tbl.column("n_items").to_numpy()
        sums = np.empty(nseg, dtype=np.int64)
        cnts = np.empty(nseg, dtype=np.int64)
        for s in range(nseg):  # nseg is tiny; per-seg masked sums stay int64-exact
            m = seg == s
            sums[s] = rev4[m].sum()
            cnts[s] = n[m].sum()
        return pa.table(
            {
                "seg_id": pa.array(np.arange(nseg, dtype=np.int32)),
                "rev4": pa.array(sums, pa.int64()),
                "n_items": pa.array(cnts, pa.int64()),
            }
        )

    partials = joined.map_batches(seg_partial, batch_format="pyarrow")
    # final fold: <= num_blocks x num_segments tiny partial rows — a driver
    # fold of a BOUNDED small result (the sanctioned "consume with an
    # aggregate" endpoint), not a full-table materialization. A second
    # sort-based shuffle for ~hundreds of rows would cost more than the join.
    # materialize() first — a bare to_arrow_refs() executes the plan twice
    blocks = [t for t in ray.get(partials.materialize().to_arrow_refs()) if t.num_columns]
    folded = pa.concat_tables(blocks)  # groupby emits schema-less empty blocks
    sid = folded.column("seg_id").to_numpy(zero_copy_only=False).astype(np.int64)
    rev4 = folded.column("rev4").to_numpy()
    n = folded.column("n_items").to_numpy()
    sums = np.zeros(nseg, dtype=np.int64)
    cnts = np.zeros(nseg, dtype=np.int64)
    np.add.at(sums, sid, rev4)
    np.add.at(cnts, sid, n)
    keep = cnts > 0  # inner-join semantics: empty segments don't appear
    out = pa.table(
        {
            "c_mktsegment": pa.array([s for s, k in zip(segs, keep) if k], pa.string()),
            "revenue": pa.array(sums[keep] / 10000.0),
            "n_items": pa.array(cnts[keep], pa.int64()),
        }
    )
    return ray.data.from_arrow(out)


REVENUE_BY_SEGMENT_SQL = """
SELECT c.c_mktsegment,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue,
       count(*) AS n_items
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


# ---------------------------------------------------------------------------
# top-k: top 10 parts by revenue (groupby -> sort -> limit).


def topk_parts(sf_dir: str) -> ray.data.Dataset:
    def partial(tbl: pa.Table) -> pa.Table:
        pk = tbl.column("l_partkey").to_numpy()
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev4 = price_c * (100 - disc)
        df = pd.DataFrame({"l_partkey": pk, "rev4": rev4})
        agg = df.groupby("l_partkey", sort=False)["rev4"].sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]).map_batches(
        partial, batch_format="pyarrow"
    )
    agg = partials.groupby("l_partkey").aggregate(Sum("rev4", alias_name="rev4"))

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": tbl.column("l_partkey").cast(pa.int64()),
                "revenue": pa.array(tbl.column("rev4").to_numpy() / 10000.0),
            }
        )

    out = agg.map_batches(finish, batch_format="pyarrow")
    return out.sort(["revenue", "l_partkey"], descending=[True, False]).limit(10)


TOPK_PARTS_SQL = """
SELECT l_partkey,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem
GROUP BY l_partkey
ORDER BY revenue DESC, l_partkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# vectorized filter + computed projection (pushdown at the read).


def filter_project(sf_dir: str) -> ray.data.Dataset:
    lo = pa.scalar(np.datetime64("1996-03-01", "us"))
    hi = pa.scalar(np.datetime64("1996-06-01", "us"))

    def fn(tbl: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(tbl.column("l_shipdate"), lo), pc.less(tbl.column("l_shipdate"), hi)
        )
        tbl = tbl.filter(m)
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev = price_c * (100 - disc) / 10000.0
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey"),
                "l_linenumber": tbl.column("l_linenumber").cast(pa.int32()),
                "l_shipdate": tbl.column("l_shipdate"),
                "revenue": pa.array(rev, pa.float64()),
            }
        )

    return _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(fn, batch_format="pyarrow")


FILTER_PROJECT_SQL = """
SELECT l_orderkey, l_linenumber, l_shipdate,
       CAST(round(l_extendedprice*100) AS BIGINT)
         * (100 - CAST(round(l_discount*100) AS BIGINT)) / 10000.0 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-03-01' AND l_shipdate < TIMESTAMP '1996-06-01'
"""


# ---------------------------------------------------------------------------
# distinct (shuffle) + order stats per group via built-in aggregates.


def segment_stats(sf_dir: str) -> ray.data.Dataset:
    ds = _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])

    def to_cents(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": tbl.column("c_mktsegment"),
                "bal_c": pa.array(_cents(tbl.column("c_acctbal").to_numpy(zero_copy_only=False))),
            }
        )

    out = ds.map_batches(to_cents, batch_format="pyarrow").groupby("c_mktsegment").aggregate(
        Count(alias_name="n_customers"),
        Sum("bal_c", alias_name="sum_bal_c"),
        Min("bal_c", alias_name="min_bal_c"),
        Max("bal_c", alias_name="max_bal_c"),
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": tbl.column("c_mktsegment"),
                "n_customers": tbl.column("n_customers").cast(pa.int64()),
                "sum_acctbal": pa.array(tbl.column("sum_bal_c").to_numpy() / 100.0),
                "min_acctbal": pa.array(tbl.column("min_bal_c").to_numpy() / 100.0),
                "max_acctbal": pa.array(tbl.column("max_bal_c").to_numpy() / 100.0),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


SEGMENT_STATS_SQL = """
SELECT c_mktsegment,
       count(*) AS n_customers,
       sum(CAST(round(c_acctbal*100) AS BIGINT)) / 100.0 AS sum_acctbal,
       min(CAST(round(c_acctbal*100) AS BIGINT)) / 100.0 AS min_acctbal,
       max(CAST(round(c_acctbal*100) AS BIGINT)) / 100.0 AS max_acctbal
FROM customer
GROUP BY c_mktsegment
"""

# ---------------------------------------------------------------------------
# raw co-partitioned equi-join surfaced as a first-class query: orders x
# customer on custkey with NO broadcast side (the large x large path of
# stages/join.py). Every joined row is emitted, so the driver hash-checks the
# join itself, not an aggregate of it.


def orders_customer_join(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    from ..stages.join import copartitioned_equijoin

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    joined = copartitioned_equijoin(
        orders,
        cust,
        fact_key="o_custkey",
        dim_key="c_custkey",
        fact_cols=["o_orderkey", "o_totalprice"],
        dim_cols=["c_mktsegment", "c_acctbal"],
        num_partitions=num_partitions,
        fact_col_types={"o_orderkey": pa.int64(), "o_totalprice": pa.float64()},
        dim_col_types={"c_mktsegment": pa.string(), "c_acctbal": pa.float64()},
    )

    def rename(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(
            ["o_custkey", "o_orderkey", "o_totalprice", "c_mktsegment", "c_acctbal"]
        )

    return joined.map_batches(rename, batch_format="pyarrow")


ORDERS_CUSTOMER_JOIN_SQL = """
SELECT o.o_custkey, o.o_orderkey, o.o_totalprice, c.c_mktsegment, c.c_acctbal
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
"""


def cust_orders_left(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    """customer LEFT JOIN orders — the m:n + outer case of the co-partitioned
    join: the dim side (orders) has DUPLICATE keys (run-bound expansion) and
    customers with no orders survive with null order columns."""
    from ..stages.join import copartitioned_equijoin

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    joined = copartitioned_equijoin(
        cust,
        orders,
        fact_key="c_custkey",
        dim_key="o_custkey",
        fact_cols=["c_mktsegment"],
        dim_cols=["o_orderkey", "o_totalprice"],
        num_partitions=num_partitions,
        fact_col_types={"c_mktsegment": pa.string()},
        dim_col_types={"o_orderkey": pa.int64(), "o_totalprice": pa.float64()},
        key_type=pa.int64(),
        how="left",
    )

    def rename(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(
            ["c_custkey", "c_mktsegment", "o_orderkey", "o_totalprice"]
        )

    return joined.map_batches(rename, batch_format="pyarrow")


CUST_ORDERS_LEFT_SQL = """
SELECT c.c_custkey, c.c_mktsegment, o.o_orderkey, o.o_totalprice
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
"""


# ---------------------------------------------------------------------------
# grouped top-k (row_number window): top 3 orders per customer by totalprice.


TOP_ORDERS_K = 3


def top_orders_per_cust(sf_dir: str) -> ray.data.Dataset:
    from ..stages.window import grouped_topk

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return grouped_topk(
        ds,
        key="o_custkey",
        order_col="o_totalprice",
        tiebreak="o_orderkey",
        k=TOP_ORDERS_K,
        descending=True,
    )


TOP_ORDERS_PER_CUST_SQL = f"""
SELECT o_custkey, o_orderkey, o_totalprice, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rank
  FROM orders
)
WHERE rank <= {TOP_ORDERS_K}
"""


# ---------------------------------------------------------------------------
# semi / anti joins (EXISTS / NOT EXISTS) — the distinct-key probe exchange
# of stages/join.copartitioned_semi_anti.

BIG_ORDER_CENTS = 350_000 * 100


def custs_with_big_orders(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    """Customers having at least one order over the threshold (semi join)."""
    from ..stages.join import copartitioned_semi_anti

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def big(tbl: pa.Table) -> pa.Table:
        cents = _cents(tbl.column("o_totalprice").to_numpy(zero_copy_only=False))
        return tbl.filter(pa.array(cents > BIG_ORDER_CENTS)).select(["o_custkey"])

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        big, batch_format="pyarrow"
    )
    return copartitioned_semi_anti(
        cust, orders, left_key="c_custkey", right_key="o_custkey",
        anti=False, num_partitions=num_partitions,
    )


CUSTS_WITH_BIG_ORDERS_SQL = f"""
SELECT c_custkey, c_name, c_mktsegment
FROM customer c
WHERE EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey
    AND CAST(round(o.o_totalprice*100) AS BIGINT) > {BIG_ORDER_CENTS}
)
"""


HUGE_ORDER_CENTS = 450_000 * 100


def custs_without_orders(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    """Customers with NO order above the high threshold (anti join)."""
    from ..stages.join import copartitioned_semi_anti

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def huge(tbl: pa.Table) -> pa.Table:
        cents = _cents(tbl.column("o_totalprice").to_numpy(zero_copy_only=False))
        return tbl.filter(pa.array(cents > HUGE_ORDER_CENTS)).select(["o_custkey"])

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        huge, batch_format="pyarrow"
    )
    return copartitioned_semi_anti(
        cust, orders, left_key="c_custkey", right_key="o_custkey",
        anti=True, num_partitions=num_partitions,
    )


CUSTS_WITHOUT_ORDERS_SQL = f"""
SELECT c_custkey, c_name, c_acctbal
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey
    AND CAST(round(o.o_totalprice*100) AS BIGINT) > {HUGE_ORDER_CENTS}
)
"""


# ---------------------------------------------------------------------------
# percent_rank window: each order's within-customer price percentile.
# Unique (price, orderkey) ordering makes rank == row_number, so
# percent_rank = (rn-1)/(n-1) from exact small integers — identical IEEE
# division on both sides.


def orders_percent_rank(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    from ..stages.window import _key_u64, _seg_starts

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def tag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__pid", pa.array(pid_of(_key_u64(tbl.column("o_custkey")), num_partitions))
        )

    def kernel(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"])
        cust = tbl.column("o_custkey").to_numpy()
        price = tbl.column("o_totalprice").to_numpy(zero_copy_only=False)
        okey = tbl.column("o_orderkey").to_numpy()
        idx = np.lexsort((okey, price, cust))
        cs = cust[idx]
        starts = _seg_starts(cs)
        rn = np.arange(cs.size) - starts + 1
        # segment length broadcast to each row: position of NEXT segment start
        head = np.ones(cs.size, dtype=bool)
        head[1:] = cs[1:] != cs[:-1]
        seg_id = np.cumsum(head) - 1
        cnts = np.bincount(seg_id)
        n = cnts[seg_id]
        pr = np.where(n > 1, (rn - 1) / np.maximum(n - 1, 1), 0.0)
        out = tbl.take(pa.array(idx))
        return out.append_column("pct_rank", pa.array(pr, pa.float64()))

    return exchange(ds.map_batches(tag, batch_format="pyarrow"), "__pid", kernel, num_partitions)


ORDERS_PERCENT_RANK_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice,
       percent_rank() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice, o_orderkey) AS pct_rank
FROM orders
"""


# ---------------------------------------------------------------------------
# macro-query: TPC-H Q3 analog (segment-filtered 3-way join -> grouped
# revenue -> global top-10). Broadcast the filtered customer keys, map-side
# combine lineitem revenue per order, ONE co-partitioned exchange, then a
# bounded per-partition top-k + driver merge.

Q3_SEGMENT = "BUILDING"
Q3_DATE = np.datetime64("1996-06-15", "us")
Q3_K = 10


def q3_shipping(sf_dir: str, num_partitions: int = 32):
    import ray as _ray

    from ..stages.join import copartitioned_equijoin, gather_small_side

    cust = gather_small_side(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    keys = np.sort(
        cust.filter(pc.equal(cust.column("c_mktsegment"), Q3_SEGMENT))
        .column("c_custkey")
        .to_numpy()
    )
    kref = _ray.put(keys)
    lo = pa.scalar(Q3_DATE)

    def orders_side(tbl: pa.Table) -> pa.Table:
        ks = _ray.get(kref)
        tbl = tbl.filter(pc.less(tbl.column("o_orderdate"), lo))
        cu = tbl.column("o_custkey").to_numpy()
        pos = np.searchsorted(ks, cu)
        hit = pos < ks.size
        hit[hit] = ks[pos[hit]] == cu[hit]
        tbl = tbl.filter(pa.array(hit))
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "o_orderdate": tbl.column("o_orderdate"),
                "o_orderpriority": tbl.column("o_orderpriority"),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(orders_side, batch_format="pyarrow")

    def li_partial(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.greater(tbl.column("l_shipdate"), lo))
        ok = tbl.column("l_orderkey").to_numpy()
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev4 = price_c * (100 - disc)
        order = np.argsort(ok, kind="stable")
        ok_s, rev_s = ok[order], rev4[order]
        head = np.ones(ok_s.size, dtype=bool)
        head[1:] = ok_s[1:] != ok_s[:-1]
        starts = np.flatnonzero(head)
        sums = np.add.reduceat(rev_s, starts) if starts.size else np.empty(0, np.int64)
        return pa.table(
            {"l_orderkey": pa.array(ok_s[starts], pa.int64()), "rev4": pa.array(sums, pa.int64())}
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(li_partial, batch_format="pyarrow")

    joined = copartitioned_equijoin(
        li,
        orders,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["rev4"],
        dim_cols=["o_orderdate", "o_orderpriority"],
        num_partitions=num_partitions,
        fact_col_types={"rev4": pa.int64()},
        dim_col_types={"o_orderdate": pa.timestamp("us"), "o_orderpriority": pa.string()},
    )

    def part_topk(tbl: pa.Table) -> pa.Table:
        # partition owns whole orderkeys: fold partials, keep local top-k
        ok = tbl.column("l_orderkey").to_numpy()
        rev = tbl.column("rev4").to_numpy()
        uniq, codes = np.unique(ok, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, rev)
        first = np.zeros(uniq.size, dtype=np.int64)
        first[codes[::-1]] = np.arange(ok.size - 1, -1, -1)
        order = np.lexsort((uniq, -sums))[: min(Q3_K, uniq.size)]
        sel = tbl.take(pa.array(first[order]))
        return pa.table(
            {
                "o_orderkey": pa.array(uniq[order], pa.int64()),
                "rev4": pa.array(sums[order], pa.int64()),
                "o_orderdate": sel.column("o_orderdate"),
                "o_orderpriority": sel.column("o_orderpriority"),
            }
        )

    import pandas as pd

    parts = joined.map_batches(part_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        ["rev4", "o_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(Q3_K)
    parts["revenue"] = parts.pop("rev4") / 10000.0
    return parts[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]].reset_index(
        drop=True
    )


Q3_SHIPPING_SQL = f"""
SELECT o.o_orderkey,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue,
       o.o_orderdate, o.o_orderpriority
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '1996-06-15'
  AND l.l_shipdate > TIMESTAMP '1996-06-15'
GROUP BY 1, 3, 4
ORDER BY sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
             * (100 - CAST(round(l.l_discount*100) AS BIGINT))) DESC, o.o_orderkey
LIMIT {Q3_K}
"""


# ---------------------------------------------------------------------------
# macro-query: TPC-H Q5 analog (5-way join, local-supplier volume per
# nation). Every dimension side (region/nation/supplier/customer) is a
# bounded broadcast; the one large x large step (orders x lineitem) is the
# co-partitioned exchange; nation partials fold on the driver (<= 25 rows).


def q5_local_volume(sf_dir: str, num_partitions: int = 32):
    import ray as _ray

    from ..stages.join import copartitioned_equijoin, gather_small_side

    region = gather_small_side(_read(sf_dir, "region", ["r_regionkey", "r_name"]))
    rname = min(region.column("r_name").to_pylist())
    rkey = region.filter(pc.equal(region.column("r_name"), rname)).column(
        "r_regionkey"
    ).to_pylist()[0]
    nation = gather_small_side(_read(sf_dir, "nation"))
    nmask = pc.equal(nation.column("n_regionkey"), rkey)
    region_nations = nation.filter(nmask)
    nkeys = region_nations.column("n_nationkey").to_numpy().astype(np.int64)
    nnames = region_nations.column("n_name").to_pylist()
    sup = gather_small_side(_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]))
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk, kind="stable")
    cust = gather_small_side(_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]))
    ck = cust.column("c_custkey").to_numpy()
    corder = np.argsort(ck, kind="stable")
    ref = _ray.put(
        (
            sk[sorder],
            sup.column("s_nationkey").to_numpy().astype(np.int64)[sorder],
            ck[corder],
            cust.column("c_nationkey").to_numpy().astype(np.int64)[corder],
            np.sort(nkeys),
        )
    )

    def orders_side(tbl: pa.Table) -> pa.Table:
        _, _, cks, cnat, _ = _ray.get(ref)
        cu = tbl.column("o_custkey").to_numpy()
        nat = cnat[np.searchsorted(cks, cu)]  # FK: every order has a customer
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "cust_nation": pa.array(nat, pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        orders_side, batch_format="pyarrow"
    )

    def li_side(tbl: pa.Table) -> pa.Table:
        sks, snat, _, _, region_keys = _ray.get(ref)
        su = tbl.column("l_suppkey").to_numpy()
        nat = snat[np.searchsorted(sks, su)]
        pos = np.searchsorted(region_keys, nat)
        hit = pos < region_keys.size
        hit[hit] = region_keys[pos[hit]] == nat[hit]
        tbl = tbl.filter(pa.array(hit))
        nat = nat[hit]
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "supp_nation": pa.array(nat, pa.int64()),
                "rev4": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_side, batch_format="pyarrow")

    joined = copartitioned_equijoin(
        li,
        orders,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["supp_nation", "rev4"],
        dim_cols=["cust_nation"],
        num_partitions=num_partitions,
        fact_col_types={"supp_nation": pa.int64(), "rev4": pa.int64()},
        dim_col_types={"cust_nation": pa.int64()},
    )

    nkeys_sorted = np.sort(nkeys)

    def nation_partial(tbl: pa.Table) -> pa.Table:
        m = pc.equal(tbl.column("supp_nation"), tbl.column("cust_nation"))
        tbl = tbl.filter(m)
        nat = tbl.column("supp_nation").to_numpy()
        rev = tbl.column("rev4").to_numpy()
        sums = np.zeros(nkeys_sorted.size, dtype=np.int64)
        np.add.at(sums, np.searchsorted(nkeys_sorted, nat), rev)
        return pa.table(
            {"nkey": pa.array(nkeys_sorted, pa.int64()), "rev4": pa.array(sums, pa.int64())}
        )

    import pandas as pd

    parts = joined.map_batches(nation_partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("nkey", as_index=False)["rev4"].sum()
    name_of = dict(zip(nkeys, nnames))
    agg = agg[agg["rev4"] > 0]
    out = pd.DataFrame(
        {
            "n_name": [name_of[k] for k in agg["nkey"]],
            "revenue": agg["rev4"].to_numpy() / 10000.0,
        }
    )
    return out.reset_index(drop=True)


Q5_LOCAL_VOLUME_SQL = """
SELECT n.n_name,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = (SELECT min(r_name) FROM region)
  AND c.c_nationkey = s.s_nationkey
GROUP BY n.n_name
"""


def q10_returned_items(sf_dir: str, num_partitions: int = 32):
    """TPC-H Q10 analog: revenue lost to returned items ('R' lineitems) per
    customer, top 20 by revenue (ties -> min custkey). Shape: pruned+filtered
    lineitem x orders co-partitioned join on orderkey -> custkey-hash partial
    sums -> per-partition exact sums + local top-20 -> <= partitions x 20
    driver fold -> broadcast customer/nation attribute attach. Money in
    integer cents end-to-end; rank on the integer sum so float formatting
    can't flip order."""
    import pandas as pd
    import ray as _ray

    from ..stages.join import copartitioned_equijoin, gather_small_side

    def li_side(tbl: pa.Table) -> pa.Table:
        m = pc.equal(tbl.column("l_returnflag"), "R")
        tbl = tbl.filter(m)
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "rev4": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    ).map_batches(li_side, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = copartitioned_equijoin(
        li,
        orders,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["rev4"],
        dim_cols=["o_custkey"],
        num_partitions=num_partitions,
        fact_col_types={"rev4": pa.int64()},
        dim_col_types={"o_custkey": pa.int64()},
        key_type=pa.int64(),
    )

    def cust_partial(tbl: pa.Table) -> pa.Table:
        cu = tbl.column("o_custkey").to_numpy()
        rev = tbl.column("rev4").to_numpy()
        uniq, codes = np.unique(cu, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, rev)
        return pa.table(
            {
                "c_custkey": pa.array(uniq, pa.int64()),
                "rev4": pa.array(sums, pa.int64()),
                "__pid": pa.array(pid_of(uniq, num_partitions)),
            }
        )

    def topk_kernel(tbl: pa.Table) -> pa.Table:
        cu = tbl.column("c_custkey").to_numpy()
        rev = tbl.column("rev4").to_numpy()
        uniq, codes = np.unique(cu, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, rev)
        order = np.lexsort((uniq, -sums))[:20]
        return pa.table(
            {
                "c_custkey": pa.array(uniq[order], pa.int64()),
                "rev4": pa.array(sums[order], pa.int64()),
            }
        )

    partials = joined.map_batches(cust_partial, batch_format="pyarrow")
    # a block's top 20 holds every global top-20 customer it owns
    cands = exchange(partials, "__pid", topk_kernel, num_partitions).take_all()
    df = pd.DataFrame(cands).sort_values(
        ["rev4", "c_custkey"], ascending=[False, True]
    ).head(20)

    cust = gather_small_side(
        _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    )
    nation = gather_small_side(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    ck = cust.column("c_custkey").to_numpy()
    corder = np.argsort(ck, kind="stable")
    pos = corder[np.searchsorted(ck[corder], df["c_custkey"].to_numpy())]
    nk = nation.column("n_nationkey").to_numpy()
    norder = np.argsort(nk, kind="stable")
    cnat = cust.column("c_nationkey").to_numpy()[pos]
    npos = norder[np.searchsorted(nk[norder], cnat)]
    out = pd.DataFrame(
        {
            "c_custkey": df["c_custkey"].to_numpy(),
            "c_name": np.asarray(cust.column("c_name").to_pylist(), dtype=object)[pos],
            "revenue": df["rev4"].to_numpy() / 10000.0,
            "c_acctbal": cust.column("c_acctbal").to_numpy(zero_copy_only=False)[pos],
            "n_name": np.asarray(nation.column("n_name").to_pylist(), dtype=object)[npos],
        }
    )
    return out.reset_index(drop=True)


Q10_RETURNED_ITEMS_SQL = """
SELECT c_custkey, c_name, revenue, c_acctbal, n_name
FROM (
  SELECT c.c_custkey, c.c_name,
         sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
             * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue,
         c.c_acctbal, n.n_name,
         row_number() OVER (
           ORDER BY sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l.l_discount*100) AS BIGINT))) DESC,
                    c.c_custkey) AS rn
  FROM customer c
  JOIN orders o ON c.c_custkey = o.o_custkey
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  WHERE l.l_returnflag = 'R'
  GROUP BY c.c_custkey, c.c_name, c.c_acctbal, n.n_name
) WHERE rn <= 20
"""


def q7_nation_volume(sf_dir: str, num_partitions: int = 32):
    """TPC-H Q7 analog: shipping volume between the two lexicographically
    smallest nations, grouped by (supp_nation, cust_nation, ship year).
    Nation/supplier/customer are broadcast lookups (genuinely small dims);
    lineitem x orders co-partition on orderkey; the grouped sum has <= 2x2xY
    cells, folded map-side then on the driver. Integer cents end-to-end."""
    import pandas as pd
    import ray as _ray

    from ..stages.join import copartitioned_equijoin, gather_small_side

    nation = gather_small_side(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    nnames = sorted(nation.column("n_name").to_pylist())
    n1, n2 = nnames[0], nnames[1]
    name_of = dict(
        zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist())
    )
    pair_keys = np.array(
        [k for k, v in name_of.items() if v in (n1, n2)], dtype=np.int64
    )
    sup = gather_small_side(_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]))
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk, kind="stable")
    cust = gather_small_side(_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]))
    ck = cust.column("c_custkey").to_numpy()
    corder = np.argsort(ck, kind="stable")
    ref = _ray.put(
        (
            sk[sorder],
            sup.column("s_nationkey").to_numpy().astype(np.int64)[sorder],
            ck[corder],
            cust.column("c_nationkey").to_numpy().astype(np.int64)[corder],
            np.sort(pair_keys),
        )
    )

    def li_side(tbl: pa.Table) -> pa.Table:
        sks, snat, _, _, keys = _ray.get(ref)
        su = tbl.column("l_suppkey").to_numpy()
        nat = snat[np.searchsorted(sks, su)]
        pos = np.searchsorted(keys, nat)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == nat[hit]
        tbl = tbl.filter(pa.array(hit))
        nat = nat[hit]
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        year = pc.year(tbl.column("l_shipdate")).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "supp_nation": pa.array(nat, pa.int64()),
                "l_year": pa.array(year, pa.int64()),
                "rev4": pa.array(price_c * (100 - disc), pa.int64()),
            }
        )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(li_side, batch_format="pyarrow")

    def orders_side(tbl: pa.Table) -> pa.Table:
        _, _, cks, cnat, keys = _ray.get(ref)
        cu = tbl.column("o_custkey").to_numpy()
        nat = cnat[np.searchsorted(cks, cu)]
        pos = np.searchsorted(keys, nat)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == nat[hit]
        tbl = tbl.filter(pa.array(hit))
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "cust_nation": pa.array(nat[hit], pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        orders_side, batch_format="pyarrow"
    )
    joined = copartitioned_equijoin(
        li,
        orders,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["supp_nation", "l_year", "rev4"],
        dim_cols=["cust_nation"],
        num_partitions=num_partitions,
        fact_col_types={"supp_nation": pa.int64(), "l_year": pa.int64(), "rev4": pa.int64()},
        dim_col_types={"cust_nation": pa.int64()},
        key_type=pa.int64(),
    )

    def cell_partial(tbl: pa.Table) -> pa.Table:
        sn = tbl.column("supp_nation").to_numpy()
        cn = tbl.column("cust_nation").to_numpy()
        keep = sn != cn
        sn, cn = sn[keep], cn[keep]
        yr = tbl.column("l_year").to_numpy()[keep]
        rev = tbl.column("rev4").to_numpy()[keep]
        key = (sn << 40) | (cn << 16) | yr
        uniq, codes = np.unique(key, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, rev)
        return pa.table(
            {"cell": pa.array(uniq, pa.int64()), "rev4": pa.array(sums, pa.int64())}
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["cell"]).aggregate([("rev4", "sum")]).rename_columns(["cell", "rev4"])
        )

    folded = exchange_fold(joined.map_batches(cell_partial, batch_format="pyarrow"), fold)
    agg: dict[int, int] = {}
    for r in folded.to_pylist() if folded is not None else []:
        agg[r["cell"]] = agg.get(r["cell"], 0) + r["rev4"]
    rows = []
    for cell in sorted(agg):
        sn, cn, yr = cell >> 40, (cell >> 16) & 0xFFFFFF, cell & 0xFFFF
        rows.append((name_of[sn], name_of[cn], int(yr), agg[cell] / 10000.0))
    return pd.DataFrame(rows, columns=["supp_nation", "cust_nation", "l_year", "revenue"])


Q7_NATION_VOLUME_SQL = """
WITH two AS (
  SELECT n_nationkey, n_name FROM nation
  WHERE n_name IN (SELECT n_name FROM nation ORDER BY n_name LIMIT 2)
)
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN two ns ON s.s_nationkey = ns.n_nationkey
JOIN two nc ON c.c_nationkey = nc.n_nationkey
WHERE ns.n_name <> nc.n_name
GROUP BY ns.n_name, nc.n_name, year(l.l_shipdate)
ORDER BY supp_nation, cust_nation, l_year
"""


# ---------------------------------------------------------------------------
# ntile + cume_dist windows over the same hash-partitioned segment kernel as
# percent_rank. Unique ordering makes both pure integer-derived:
# ntile = ((rn-1)*k) // n + 1; cume_dist = rn / n (exact int division,
# IEEE-identical on both sides).

NTILE_K = 4


def orders_ntile(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    from ..stages.window import _key_u64, _seg_starts

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def tag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__pid", pa.array(pid_of(_key_u64(tbl.column("o_custkey")), num_partitions))
        )

    def kernel(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"])
        cust = tbl.column("o_custkey").to_numpy()
        price = tbl.column("o_totalprice").to_numpy(zero_copy_only=False)
        okey = tbl.column("o_orderkey").to_numpy()
        idx = np.lexsort((okey, price, cust))
        cs = cust[idx]
        rn = np.arange(cs.size) - _seg_starts(cs) + 1
        head = np.ones(cs.size, dtype=bool)
        head[1:] = cs[1:] != cs[:-1]
        seg_id = np.cumsum(head) - 1
        n = np.bincount(seg_id)[seg_id]
        # ntile semantics: the first n%k buckets hold one extra row
        q, r = n // NTILE_K, n % NTILE_K
        cut = r * (q + 1)
        tile = np.where(
            rn <= cut,
            (rn - 1) // (q + 1) + 1,
            r + (rn - 1 - cut) // np.maximum(q, 1) + 1,
        )
        out = tbl.take(pa.array(idx))
        out = out.append_column("tile", pa.array(tile, pa.int64()))
        return out.append_column("cume", pa.array(rn / n, pa.float64()))

    return exchange(ds.map_batches(tag, batch_format="pyarrow"), "__pid", kernel, num_partitions)


ORDERS_NTILE_SQL = f"""
SELECT o_custkey, o_orderkey, o_totalprice,
       CAST(ntile({NTILE_K}) OVER w AS BIGINT) AS tile,
       cume_dist() OVER w AS cume
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_totalprice, o_orderkey)
"""


# ---------------------------------------------------------------------------
# TPC-H Q12 analog: for lineitems shipped in 1996, how many belong to
# high-priority orders vs low, per linestatus. Shape: date-filtered pruned
# lineitem side x orders co-partitioned join on orderkey, conditional
# INTEGER counts folded per linestatus (2 statuses — bounded driver fold).

Q12_FROM = "1996-01-01"
Q12_TO = "1997-01-01"
_Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_priority_by_status(sf_dir: str, num_partitions: int = 32):
    import pandas as pd

    from ..stages.join import copartitioned_equijoin

    lo = np.datetime64(Q12_FROM).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(Q12_TO).astype("datetime64[us]").astype(np.int64)

    def li_side(tbl: pa.Table) -> pa.Table:
        ship = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        keep = (ship >= lo) & (ship < hi)
        tbl = tbl.filter(pa.array(keep))
        st = tbl.column("l_linestatus")
        if isinstance(st, pa.ChunkedArray):
            st = st.combine_chunks()
        # encode status as int so the join payload stays fixed-width
        scode = pc.equal(st, "O").cast(pa.int8()).cast(pa.int64())
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "scode": scode,
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"]).map_batches(
        li_side, batch_format="pyarrow"
    )

    def ord_side(tbl: pa.Table) -> pa.Table:
        pri = tbl.column("o_orderpriority")
        if isinstance(pri, pa.ChunkedArray):
            pri = pri.combine_chunks()
        high = pc.is_in(pri, value_set=pa.array(list(_Q12_HIGH), pa.string()))
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "is_high": high.cast(pa.int8()).cast(pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        ord_side, batch_format="pyarrow"
    )
    joined = copartitioned_equijoin(
        li,
        orders,
        fact_key="l_orderkey",
        dim_key="o_orderkey",
        fact_cols=["scode"],
        dim_cols=["is_high"],
        num_partitions=num_partitions,
        fact_col_types={"scode": pa.int64()},
        dim_col_types={"is_high": pa.int64()},
    )

    def partial(tbl: pa.Table) -> pa.Table:
        sc = tbl.column("scode").to_numpy()
        ih = tbl.column("is_high").to_numpy()
        out_rows = []
        for code, name in ((1, "O"), (0, "F")):
            m = sc == code
            out_rows.append((name, int(ih[m].sum()), int((m & (ih == 0)).sum())))
        return pa.table(
            {
                "l_linestatus": pa.array([r[0] for r in out_rows], pa.string()),
                "high_line_count": pa.array([r[1] for r in out_rows], pa.int64()),
                "low_line_count": pa.array([r[2] for r in out_rows], pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["l_linestatus"])
            .aggregate([("high_line_count", "sum"), ("low_line_count", "sum")])
            .rename_columns(["l_linestatus", "high_line_count", "low_line_count"])
        )

    folded = exchange_fold(joined.map_batches(partial, batch_format="pyarrow"), fold)
    rows = sorted(
        zip(
            folded.column("l_linestatus").to_pylist(),
            folded.column("high_line_count").to_pylist(),
            folded.column("low_line_count").to_pylist(),
        )
    )
    return pd.DataFrame(rows, columns=["l_linestatus", "high_line_count", "low_line_count"])


Q12_PRIORITY_SQL = f"""
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '{Q12_FROM}' AND l_shipdate < TIMESTAMP '{Q12_TO}'
GROUP BY l_linestatus
"""


# ---------------------------------------------------------------------------
# TPC-H Q4 analog: order count per priority for orders placed in 1996 that
# HAVE at least one lineitem shipped after the order date (EXISTS semi-join
# shape: distinct-key probe side, then a bounded conditional count).


def q4_order_priority(sf_dir: str, num_partitions: int = 32):
    import pandas as pd

    from ..stages.join import copartitioned_equijoin

    lo = np.datetime64(Q12_FROM).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(Q12_TO).astype("datetime64[us]").astype(np.int64)

    def ord_side(tbl: pa.Table) -> pa.Table:
        od = tbl.column("o_orderdate").cast(pa.int64()).to_numpy()
        keep = (od >= lo) & (od < hi)
        tbl = tbl.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "o_orderdate": tbl.column("o_orderdate").cast(pa.int64()),
                "o_orderpriority": tbl.column("o_orderpriority"),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(ord_side, batch_format="pyarrow")

    def li_side(tbl: pa.Table) -> pa.Table:
        # in-batch distinct (orderkey, max shipdate) combiner
        ok = tbl.column("l_orderkey").cast(pa.int64()).to_numpy()
        sd = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        uniq, inv = np.unique(ok, return_inverse=True)
        mx = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(mx, inv, sd)
        return pa.table(
            {
                "lk": pa.array(uniq, pa.int64()),
                "max_ship": pa.array(mx, pa.int64()),
            }
        )

    def li_route(tbl: pa.Table) -> pa.Table:
        pid = pid_of(tbl.column("lk").to_numpy(), num_partitions)
        return tbl.append_column("__pid", pa.array(pid))

    def li_fold(tbl: pa.Table) -> pa.Table:
        # global per-orderkey max: the batch combiner is per-block only, and
        # the join must see ONE dim row per key (m:n would overcount EXISTS)
        ok = tbl.column("lk").to_numpy()
        sd = tbl.column("max_ship").to_numpy()
        uniq, inv = np.unique(ok, return_inverse=True)
        mx = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(mx, inv, sd)
        return pa.table(
            {"lk": pa.array(uniq, pa.int64()), "max_ship": pa.array(mx, pa.int64())}
        )

    li = exchange(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(li_side, batch_format="pyarrow")
        .map_batches(li_route, batch_format="pyarrow"),
        "__pid",
        li_fold,
        num_partitions,
    )
    joined = copartitioned_equijoin(
        orders,
        li,
        fact_key="o_orderkey",
        dim_key="lk",
        fact_cols=["o_orderdate", "o_orderpriority"],
        dim_cols=["max_ship"],
        num_partitions=num_partitions,
        fact_col_types={"o_orderdate": pa.int64(), "o_orderpriority": pa.string()},
        dim_col_types={"max_ship": pa.int64()},
    )

    def partial(tbl: pa.Table) -> pa.Table:
        # EXISTS lineitem with shipdate > orderdate <=> max shipdate > orderdate
        ok = tbl.column("max_ship").to_numpy() > tbl.column("o_orderdate").to_numpy()
        tbl = tbl.filter(pa.array(ok))
        pri = tbl.column("o_orderpriority").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(pri, return_counts=True)
        return pa.table(
            {
                "o_orderpriority": pa.array(uniq.tolist(), pa.string()),
                "order_count": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["o_orderpriority"])
            .aggregate([("order_count", "sum")])
            .rename_columns(["o_orderpriority", "order_count"])
        )

    folded = exchange_fold(joined.map_batches(partial, batch_format="pyarrow"), fold)
    rows = sorted(
        zip(
            folded.column("o_orderpriority").to_pylist(),
            (int(c) for c in folded.column("order_count").to_pylist()),
        )
    )
    return pd.DataFrame(rows, columns=["o_orderpriority", "order_count"])


Q4_ORDER_PRIORITY_SQL = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders o
WHERE o_orderdate >= TIMESTAMP '{Q12_FROM}' AND o_orderdate < TIMESTAMP '{Q12_TO}'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate > o.o_orderdate)
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# TPC-H Q6 analog: forecast revenue change — one pruned scan, three pushdown
# predicates, a single integer-cents product sum. The "pure filter-aggregate"
# baseline every scan engine is judged on: no shuffle at all, map-side
# integer partials folded on the driver.

Q6_FROM, Q6_TO = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 5, 7  # discount in integer cents
Q6_QTY = 24


def q6_forecast_revenue(sf_dir: str):
    import pandas as pd

    lo = np.datetime64(Q6_FROM).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(Q6_TO).astype("datetime64[us]").astype(np.int64)

    def partial(tbl: pa.Table) -> pa.Table:
        ship = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        price = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        keep = (
            (ship >= lo)
            & (ship < hi)
            & (disc >= Q6_DISC_LO)
            & (disc <= Q6_DISC_HI)
            & (qty < Q6_QTY)
        )
        rev4 = int((price[keep] * disc[keep]).sum())  # cents x cents = 1e-4 units
        return pa.table({"rev4": pa.array([rev4], pa.int64())})

    from ..stages.fold import exchange_fold

    ds = _read(
        sf_dir, "lineitem", ["l_shipdate", "l_quantity", "l_discount", "l_extendedprice"]
    ).map_batches(partial, batch_format="pyarrow")

    def fold(tbl: pa.Table) -> pa.Table:
        return pa.table({"rev4": pa.array([int(pc.sum(tbl.column("rev4")).as_py() or 0)],
                                          pa.int64())})

    folded = exchange_fold(ds, fold)
    total = int(folded.column("rev4")[0].as_py()) if folded is not None else 0
    return pd.DataFrame({"revenue": [total / 1e4]})


Q6_FORECAST_SQL = f"""
SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE) / 1e4 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_FROM}' AND l_shipdate < TIMESTAMP '{Q6_TO}'
  AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY}
"""


# ---------------------------------------------------------------------------
# TPC-H Q14 analog: promo revenue share — lineitem x part co-partitioned
# join on partkey, conditional integer-cents revenue split by p_type, one
# driver division sequenced identically to SQL. (The fixture's p_type
# vocabulary uses 'ECONOMY' as the promo class.)

Q14_PROMO = "ECONOMY"


def q14_promo_share(sf_dir: str, num_partitions: int = 32):
    import pandas as pd

    from ..stages.join import copartitioned_equijoin

    lo = np.datetime64(Q6_FROM).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(Q6_TO).astype("datetime64[us]").astype(np.int64)

    def li_side(tbl: pa.Table) -> pa.Table:
        ship = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        keep = (ship >= lo) & (ship < hi)
        tbl = tbl.filter(pa.array(keep))
        price = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "l_partkey": tbl.column("l_partkey").cast(pa.int64()),
                "rev4": pa.array(price * (100 - disc), pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_side, batch_format="pyarrow")
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda t: pa.table(
            {
                "p_partkey": t.column("p_partkey").cast(pa.int64()),
                "is_promo": pc.equal(t.column("p_type"), Q14_PROMO)
                .cast(pa.int8())
                .cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = copartitioned_equijoin(
        li,
        part,
        fact_key="l_partkey",
        dim_key="p_partkey",
        fact_cols=["rev4"],
        dim_cols=["is_promo"],
        num_partitions=num_partitions,
        fact_col_types={"rev4": pa.int64()},
        dim_col_types={"is_promo": pa.int64()},
    )

    def partial(tbl: pa.Table) -> pa.Table:
        rev = tbl.column("rev4").to_numpy()
        promo = tbl.column("is_promo").to_numpy()
        return pa.table(
            {
                "promo4": pa.array([int(rev[promo == 1].sum())], pa.int64()),
                "total4": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "promo4": pa.array([int(pc.sum(tbl.column("promo4")).as_py() or 0)], pa.int64()),
                "total4": pa.array([int(pc.sum(tbl.column("total4")).as_py() or 0)], pa.int64()),
            }
        )

    folded = exchange_fold(joined.map_batches(partial, batch_format="pyarrow"), fold)
    promo4 = int(folded.column("promo4")[0].as_py()) if folded is not None else 0
    total4 = int(folded.column("total4")[0].as_py()) if folded is not None else 0
    share = float(np.floor(100.0 * np.float64(promo4) / np.float64(total4) * 1e6 + 0.5) / 1e6)
    return pd.DataFrame({"promo_revenue_pct": [share]})


Q14_PROMO_SHARE_SQL = f"""
SELECT floor(100.0 * CAST(sum(CASE WHEN p_type = '{Q14_PROMO}'
                THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                ELSE 0 END) AS DOUBLE)
       / CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE)
       * 1e6 + 0.5) / 1e6 AS promo_revenue_pct
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '{Q6_FROM}' AND l_shipdate < TIMESTAMP '{Q6_TO}'
"""


# ---------------------------------------------------------------------------
# TPC-H Q15 analog: the top supplier(s) by 1996 shipped revenue — the
# "equal to the subquery max" pattern. Per-supplier integer-cents revenue
# via map-side partials + one suppkey exchange; the max and the winners are
# a bounded driver fold; names attach from the small supplier table.


def q15_top_supplier(sf_dir: str, num_partitions: int = 16):
    import pandas as pd

    from ..stages.join import gather_small_side

    lo = np.datetime64(Q6_FROM).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(Q6_TO).astype("datetime64[us]").astype(np.int64)

    def partial(tbl: pa.Table) -> pa.Table:
        ship = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        keep = (ship >= lo) & (ship < hi)
        tbl = tbl.filter(pa.array(keep))
        sk = tbl.column("l_suppkey").cast(pa.int64()).to_numpy()
        price = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev4 = price * (100 - disc)
        uniq, inv = np.unique(sk, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, inv, rev4)
        return pa.table(
            {
                "l_suppkey": pa.array(uniq, pa.int64()),
                "rev4": pa.array(sums, pa.int64()),
                "__pid": pa.array(
                    (uniq.astype(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
                ),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        sk = tbl.column("l_suppkey").to_numpy()
        rv = tbl.column("rev4").to_numpy()
        uniq, inv = np.unique(sk, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, inv, rv)
        # per-block winner(s): keys are block-exclusive, so the global max
        # is the max over <= P candidate rows
        m = sums == sums.max()
        return pa.table(
            {"l_suppkey": pa.array(uniq[m], pa.int64()), "rev4": pa.array(sums[m], pa.int64())}
        )

    li = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow")
    cands = exchange(li, "__pid", fold, num_partitions).take_all()  # <= P rows
    mx = max(int(r["rev4"]) for r in cands)
    winners = sorted(int(r["l_suppkey"]) for r in cands if int(r["rev4"]) == mx)
    names = {
        int(r["s_suppkey"]): r["s_name"]
        for r in gather_small_side(
            _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
        ).to_pylist()
    }
    return pd.DataFrame(
        {
            "s_suppkey": winners,
            "s_name": [names[w] for w in winners],
            "total_revenue": [mx / 1e4] * len(winners),
        }
    )


Q15_TOP_SUPPLIER_SQL = f"""
WITH r AS (
  SELECT l_suppkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{Q6_FROM}' AND l_shipdate < TIMESTAMP '{Q6_TO}'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, CAST(r.rev4 AS DOUBLE) / 1e4 AS total_revenue
FROM supplier JOIN r ON s_suppkey = l_suppkey
WHERE r.rev4 = (SELECT max(rev4) FROM r)
"""


# ---------------------------------------------------------------------------
# TPC-H Q18 analog ("large volume customers"): orders whose total lineitem
# quantity exceeds a threshold, joined back to customer. The classic
# group-HAVING + double-join, with the scale-defining property that the
# HAVING filter is massively selective — so the plan is: map-side combine
# of integer quantity sums per orderkey, ONE bounded hash exchange to fold
# them exactly, filter (now a tiny set), then two broadcast joins
# (matched orders into orders, matched orders into customer) instead of
# shuffling the two big tables. l_quantity is integral by TPC-H spec, so
# the sums are exact int64.

Q18_MIN_QTY = 250
Q18_PARTS = 32


def q18_big_orders(sf_dir: str, num_partitions: int = Q18_PARTS) -> ray.data.Dataset:
    from ..functions.hashing import avalanche64
    from ..stages.join import broadcast_dim_join, gather_small_side

    def qty_partial(tbl: pa.Table) -> pa.Table:
        ok = tbl.column("l_orderkey").to_numpy()
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ok, kind="stable")
        ok_s, q_s = ok[order], qty[order]
        head = np.ones(ok_s.size, dtype=bool)
        head[1:] = ok_s[1:] != ok_s[:-1]
        starts = np.flatnonzero(head)
        sums = np.add.reduceat(q_s, starts) if starts.size else np.empty(0, np.int64)
        keys = ok_s[starts]
        pid = (avalanche64(keys.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "l_orderkey": pa.array(keys, pa.int64()),
                "qty": pa.array(sums, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def fold_filter(tbl: pa.Table) -> pa.Table:
        ok = tbl.column("l_orderkey").to_numpy()
        qty = tbl.column("qty").to_numpy()
        uniq, inv = np.unique(ok, return_inverse=True)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, inv, qty)
        keep = s > Q18_MIN_QTY
        return pa.table(
            {
                "l_orderkey": pa.array(uniq[keep], pa.int64()),
                "sum_qty": pa.array(s[keep], pa.int64()),
            }
        )

    big = exchange(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
            qty_partial, batch_format="pyarrow"
        ),
        "__pid",
        fold_filter,
        num_partitions,
    )
    # the HAVING survivors: a declared-small set (threshold selectivity),
    # safe to broadcast — the two base tables never shuffle
    big_tbl = gather_small_side(big)

    matched_orders = broadcast_dim_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        big_tbl,
        fact_key="o_orderkey",
        dim_key="l_orderkey",
        dim_cols=["sum_qty"],
    )
    mo_tbl = gather_small_side(matched_orders)
    mck = mo_tbl.column("o_custkey").to_numpy()
    morder = np.argsort(mck, kind="stable")
    mo_ref = ray.put((mck[morder], mo_tbl.take(pa.array(morder))))

    def cust_join(tbl: pa.Table) -> pa.Table:
        """Inner join customer rows to their matched orders; a customer can
        own several qualifying orders (vectorized multi-match expansion)."""
        cks, mo = ray.get(mo_ref)
        cu = tbl.column("c_custkey").to_numpy()
        lo = np.searchsorted(cks, cu, side="left")
        hi = np.searchsorted(cks, cu, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        crow = np.repeat(np.arange(cu.size, dtype=np.int64), cnt)
        if total:
            midx = lo.repeat(cnt) + (
                np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            )
        else:
            midx = np.empty(0, np.int64)
        msel = mo.take(pa.array(midx))
        return pa.table(
            {
                "c_custkey": tbl.column("c_custkey").take(pa.array(crow)).cast(pa.int64()),
                "c_name": tbl.column("c_name").take(pa.array(crow)),
                "o_orderkey": msel.column("o_orderkey").cast(pa.int64()),
                "o_orderdate": msel.column("o_orderdate"),
                "o_totalprice": msel.column("o_totalprice"),
                "sum_qty": msel.column("sum_qty"),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        cust_join, batch_format="pyarrow"
    )


Q18_BIG_ORDERS_SQL = f"""
WITH big AS (
  SELECT l_orderkey, CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(l_quantity AS BIGINT)) > {Q18_MIN_QTY}
)
SELECT c_custkey, c_name, o_orderkey, o_orderdate, o_totalprice, sum_qty
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN big ON o_orderkey = l_orderkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q13 analog: customer order-count distribution (how many customers
# placed exactly k orders, including the zero-order bucket). Scale shape:
# per-batch custkey value_counts combiner, ONE custkey-hash exchange, each
# partition folds its disjoint custkey set exactly and collapses to a
# (c_count, custdist) histogram BEFORE the driver; the zero bucket is
# total-customer footer count minus purchasers (a scalar), never a join.

Q13_PARTS = 32


def q13_order_distribution(sf_dir: str, num_partitions: int = Q13_PARTS):
    import pyarrow.parquet as pq

    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold

    def partial(tbl: pa.Table) -> pa.Table:
        ck = tbl.column("o_custkey").to_numpy()
        uniq, cnt = np.unique(ck, return_counts=True)
        pid = (avalanche64(uniq.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "custkey": pa.array(uniq, pa.int64()),
                "n": pa.array(cnt.astype(np.int64)),
                "__pid": pa.array(pid),
            }
        )

    def to_hist(tbl: pa.Table) -> pa.Table:
        ck = tbl.column("custkey").to_numpy()
        n = tbl.column("n").to_numpy()
        uniq, inv = np.unique(ck, return_inverse=True)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, inv, n)
        hv, hc = np.unique(s, return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(hv, pa.int64()),
                "custdist": pa.array(hc.astype(np.int64)),
            }
        )

    partials = _read(sf_dir, "orders", ["o_custkey"]).map_batches(partial, batch_format="pyarrow")
    parts = exchange(partials, "__pid", to_hist, num_partitions)

    def fold(tbl: pa.Table) -> pa.Table:
        return tbl.group_by("c_count").aggregate([("custdist", "sum")]).rename_columns(
            ["c_count", "custdist"]
        )

    folded = exchange_fold(
        parts,
        fold,
        pid_of=lambda t: (
            t.column("c_count").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(num_partitions)
        ).astype(np.int32),
    )
    if folded is None:
        df = pd.DataFrame({"c_count": pd.Series([], dtype=np.int64),
                           "custdist": pd.Series([], dtype=np.int64)})
    else:
        df = folded.to_pandas().groupby("c_count", as_index=False)["custdist"].sum()
    # zero-order bucket: total customers (parquet footer scalar) - purchasers
    total = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    zero = total - int(df["custdist"].sum())
    if zero > 0:
        df = pd.concat(
            [pd.DataFrame({"c_count": [np.int64(0)], "custdist": [np.int64(zero)]}), df],
            ignore_index=True,
        )
    return df.sort_values("c_count").reset_index(drop=True)


Q13_ORDER_DISTRIBUTION_SQL = """
WITH c AS (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY c_custkey
)
SELECT c_count, count(*) AS custdist FROM c GROUP BY c_count
"""


# ---------------------------------------------------------------------------
# TPC-H Q22 analog (scalar subquery): customers whose balance exceeds the
# corpus average POSITIVE balance, counted per market segment. The global
# average is an integer-cents (sum, count) fold broadcast as two scalars;
# the comparison runs integer-exactly as bal_c * count > sum_c on BOTH
# engine and oracle sides — no float-division drift. (The anti-join flavor
# of full Q22 is covered separately by custs_without_orders.)


def q22_above_avg_balance(sf_dir: str, num_partitions: int = 16):
    from ..stages.fold import exchange_fold

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def bal_partial(tbl: pa.Table) -> pa.Table:
        bal = _cents(tbl.column("c_acctbal").to_numpy(zero_copy_only=False))
        pos = bal[bal > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "c": pa.array([int(pos.size)], pa.int64()),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s": pa.array([int(pc.sum(tbl.column("s")).as_py() or 0)], pa.int64()),
                "c": pa.array([int(pc.sum(tbl.column("c")).as_py() or 0)], pa.int64()),
            }
        )

    folded = exchange_fold(cust.map_batches(bal_partial, batch_format="pyarrow"), fold)
    s_tot = int(pc.sum(folded.column("s")).as_py() or 0)
    c_tot = int(pc.sum(folded.column("c")).as_py() or 0)

    def seg_partial(tbl: pa.Table) -> pa.Table:
        bal = _cents(tbl.column("c_acctbal").to_numpy(zero_copy_only=False))
        keep = bal * c_tot > s_tot  # integer-exact bal > sum/count
        seg = tbl.column("c_mktsegment").to_numpy(zero_copy_only=False)[keep]
        bal = bal[keep]
        uniq, inv = np.unique(seg, return_inverse=True)
        ns = np.zeros(uniq.size, dtype=np.int64)
        ss = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(ns, inv, 1)
        np.add.at(ss, inv, bal)
        return pa.table(
            {
                "c_mktsegment": pa.array(uniq.astype(str), pa.string()),
                "numcust": pa.array(ns),
                "totacctbal_c": pa.array(ss),
            }
        )

    def seg_fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by("c_mktsegment")
            .aggregate([("numcust", "sum"), ("totacctbal_c", "sum")])
            .rename_columns(["c_mktsegment", "numcust", "totacctbal_c"])
        )

    from ..functions.hashing import hash64_str_array

    out = exchange_fold(
        cust.map_batches(seg_partial, batch_format="pyarrow"),
        seg_fold,
        pid_of=lambda t: (
            hash64_str_array(t.column("c_mktsegment").to_numpy(zero_copy_only=False))
            % np.uint64(num_partitions)
        ).astype(np.int32),
    )
    if out is None:
        return pd.DataFrame(
            {"c_mktsegment": pd.Series([], dtype=str),
             "numcust": pd.Series([], dtype=np.int64),
             "totacctbal_c": pd.Series([], dtype=np.int64)}
        )
    return (
        out.to_pandas()
        .groupby("c_mktsegment", as_index=False)
        .sum()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )


Q22_ABOVE_AVG_SQL = """
WITH pos AS (
  SELECT CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS s,
         count(*) AS c
  FROM customer WHERE CAST(round(c_acctbal * 100) AS BIGINT) > 0
)
SELECT c_mktsegment, count(*) AS numcust,
       CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS totacctbal_c
FROM customer, pos
WHERE CAST(round(c_acctbal * 100) AS BIGINT) * pos.c > pos.s
GROUP BY c_mktsegment
"""


# ---------------------------------------------------------------------------
# TPC-H Q17 analog (correlated per-part average): total revenue from
# small-quantity lineitems — rows whose quantity is below 20% of their
# part's average order quantity, for one brand's parts. The correlated
# AVG(l_quantity) subquery becomes: brand partkeys broadcast -> ONE
# partkey-hash exchange folding exact (sum_qty, cnt) per part -> thresholds
# broadcast back -> second lineitem pass filters with the INTEGER predicate
# 5 * qty * cnt < sum_qty (quantities are integral, so no float-division
# drift) -> global integer-cents revenue fold. lineitem never shuffles.

Q17_BRAND = "Brand#12"


def q17_small_qty_revenue(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold
    from ..stages.join import gather_small_side

    pk_tbl = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
            lambda t: t.filter(pc.equal(t.column("p_brand"), Q17_BRAND)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
    )
    brand_keys = np.sort(pk_tbl.column("p_partkey").to_numpy())
    keys_ref = ray.put(brand_keys)

    def qty_partial(tbl: pa.Table) -> pa.Table:
        bk = ray.get(keys_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(bk, lp)
        hit = pos < bk.size
        hit[hit] = bk[pos[hit]] == lp[hit]
        lp = lp[hit]
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)[hit]
        uniq, inv = np.unique(lp, return_inverse=True)
        sq = np.zeros(uniq.size, dtype=np.int64)
        nc = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sq, inv, qty)
        np.add.at(nc, inv, 1)
        pid = (avalanche64(uniq.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "partkey": pa.array(uniq, pa.int64()),
                "sq": pa.array(sq),
                "cnt": pa.array(nc),
                "__pid": pa.array(pid),
            }
        )

    def qty_fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by("partkey")
            .aggregate([("sq", "sum"), ("cnt", "sum")])
            .rename_columns(["partkey", "sq", "cnt"])
        )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    per_part = exchange(
        li.map_batches(qty_partial, batch_format="pyarrow"), "__pid", qty_fold, num_partitions
    )
    # per-part thresholds: bounded by the brand's part count — broadcast back
    th = gather_small_side(per_part)
    tk = th.column("partkey").to_numpy()
    order = np.argsort(tk, kind="stable")
    th_ref = ray.put((tk[order], th.column("sq").to_numpy()[order], th.column("cnt").to_numpy()[order]))

    def rev_partial(tbl: pa.Table) -> pa.Table:
        tks, sqs, cnts = ray.get(th_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(tks, lp)
        hit = pos < tks.size
        hit[hit] = tks[pos[hit]] == lp[hit]
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)[hit]
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))[hit]
        p = pos[hit]
        keep = 5 * qty * cnts[p] < sqs[p]
        return pa.table(
            {
                "rev_c": pa.array([int(price_c[keep].sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    def rev_fold(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "rev_c": pa.array([int(pc.sum(tbl.column("rev_c")).as_py() or 0)], pa.int64()),
                "n": pa.array([int(pc.sum(tbl.column("n")).as_py() or 0)], pa.int64()),
            }
        )

    folded = exchange_fold(li.map_batches(rev_partial, batch_format="pyarrow"), rev_fold)
    rev = int(pc.sum(folded.column("rev_c")).as_py() or 0) if folded is not None else 0
    n = int(pc.sum(folded.column("n")).as_py() or 0) if folded is not None else 0
    return pd.DataFrame({"sum_revenue_c": [np.int64(rev)], "n_items": [np.int64(n)]})


Q17_SMALL_QTY_SQL = f"""
WITH bp AS (SELECT p_partkey FROM part WHERE p_brand = '{Q17_BRAND}'),
ag AS (
  SELECT l_partkey, CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq,
         count(*) AS cnt
  FROM lineitem JOIN bp ON l_partkey = p_partkey GROUP BY l_partkey
)
SELECT CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)), 0) AS BIGINT)
         AS sum_revenue_c,
       count(*) AS n_items
FROM lineitem JOIN ag USING (l_partkey)
WHERE 5 * CAST(l_quantity AS BIGINT) * ag.cnt < ag.sq
"""


# ---------------------------------------------------------------------------
# TPC-H Q9 analog (profit by supplier nation and order year, for parts whose
# name matches a color prefix; the testdata has no partsupp/supplycost, so
# profit = discounted revenue in 1e-4 dollars). Scale shape: part-filter
# keys and the supplier->nation map are broadcast dims; lineitem
# co-partitions with orders on orderkey (the only big-big exchange); the
# grouped sum has <= nations x years cells, folded map-side then per
# partition.

Q9_NAME_PREFIX = "red "


def q9_profit_by_nation(sf_dir: str, num_partitions: int = 32):
    from ..stages.join import copartitioned_equijoin, gather_small_side

    pk_tbl = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
            lambda t: t.filter(
                pc.starts_with(t.column("p_name"), Q9_NAME_PREFIX)
            ).select(["p_partkey"]),
            batch_format="pyarrow",
        )
    )
    part_keys = np.sort(pk_tbl.column("p_partkey").to_numpy())

    sup = gather_small_side(_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]))
    nat = gather_small_side(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    nk = nat.column("n_nationkey").to_numpy()
    nnames = np.asarray(nat.column("n_name").to_numpy(zero_copy_only=False)).astype(str)
    nation_of_supp = np.empty(0, dtype=object)
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk, kind="stable")
    s_nk = sup.column("s_nationkey").to_numpy()[sorder]
    name_by_nk = dict(zip(nk.tolist(), nnames.tolist()))
    s_names = np.array([name_by_nk[int(x)] for x in s_nk], dtype=object)
    dims_ref = ray.put((part_keys, sk[sorder], s_names))

    def li_slim(tbl: pa.Table) -> pa.Table:
        pks, sks, snames = ray.get(dims_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        hit = pos < pks.size
        hit[hit] = pks[pos[hit]] == lp[hit]
        tbl = tbl.filter(pa.array(hit))
        ls = tbl.column("l_suppkey").to_numpy()
        sp = np.searchsorted(sks, ls)
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        profit_4 = price_c * (100 - disc_pct)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "nation": pa.array(snames[sp].astype(str), pa.string()),
                "profit_4": pa.array(profit_4, pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_slim, batch_format="pyarrow")

    def ord_year(tbl: pa.Table) -> pa.Table:
        yr = pc.year(tbl.column("o_orderdate")).cast(pa.int64())
        return pa.table(
            {"o_orderkey": tbl.column("o_orderkey").cast(pa.int64()), "o_year": yr}
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        ord_year, batch_format="pyarrow"
    )
    joined = copartitioned_equijoin(
        li, orders,
        fact_key="l_orderkey", dim_key="o_orderkey",
        fact_cols=["nation", "profit_4"], dim_cols=["o_year"],
        num_partitions=num_partitions,
    )

    def agg_partial(tbl: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "nation": tbl.column("nation").to_pylist(),
                "o_year": tbl.column("o_year").to_numpy(zero_copy_only=False),
                "profit_4": tbl.column("profit_4").to_numpy(zero_copy_only=False),
            }
        )
        out = df.groupby(["nation", "o_year"], sort=False, as_index=False)["profit_4"].sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    from ..functions.hashing import hash64_str_array
    from ..stages.fold import exchange_fold

    folded = exchange_fold(
        joined.map_batches(agg_partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by(["nation", "o_year"])
            .aggregate([("profit_4", "sum")])
            .rename_columns(["nation", "o_year", "profit_4"])
        ),
        pid_of=lambda t: (
            hash64_str_array(t.column("nation").to_numpy(zero_copy_only=False))
            % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {"nation": pd.Series([], dtype=str),
             "o_year": pd.Series([], dtype=np.int64),
             "profit_4": pd.Series([], dtype=np.int64)}
        )
    return (
        folded.to_pandas()
        .groupby(["nation", "o_year"], as_index=False)["profit_4"]
        .sum()
        .sort_values(["nation", "o_year"])
        .reset_index(drop=True)
    )


Q9_PROFIT_SQL = f"""
SELECT n_name AS nation,
       CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS profit_4
FROM lineitem
JOIN part ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN orders ON l_orderkey = o_orderkey
WHERE p_name LIKE '{Q9_NAME_PREFIX}%'
GROUP BY n_name, year(o_orderdate)
"""


# ---------------------------------------------------------------------------
# TPC-H Q19 analog (disjunctive predicate revenue): discounted revenue from
# lineitems matching any of three (brand, size-range, quantity-range)
# predicate triples. Part attributes are a broadcast dim (partkey -> brand
# code, size); the OR-of-ANDs mask is one vectorized expression per batch;
# the result is a global 1e-4-dollar integer fold. Nothing shuffles.

Q19_PREDS = [  # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#12", 1, 5, 1, 11),
    ("Brand#23", 1, 10, 10, 20),
    ("Brand#34", 1, 15, 20, 30),
]


def q19_disjunctive_revenue(sf_dir: str):
    from ..stages.fold import exchange_fold
    from ..stages.join import gather_small_side

    part = gather_small_side(_read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]))
    pk = part.column("p_partkey").to_numpy()
    order = np.argsort(pk, kind="stable")
    brands = np.asarray(part.column("p_brand").to_numpy(zero_copy_only=False)).astype(str)[order]
    sizes = part.column("p_size").to_numpy()[order]
    dims_ref = ray.put((pk[order], brands, sizes))

    def partial(tbl: pa.Table) -> pa.Table:
        pks, pb, psz = ray.get(dims_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.zeros(lp.size, dtype=bool)
        for brand, s_lo, s_hi, q_lo, q_hi in Q19_PREDS:
            keep |= (
                (pb[pos] == brand)
                & (psz[pos] >= s_lo) & (psz[pos] <= s_hi)
                & (qty >= q_lo) & (qty <= q_hi)
            )
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))[keep]
        disc_pct = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))[keep]
        rev4 = price_c * (100 - disc_pct)
        return pa.table(
            {
                "revenue_4": pa.array([int(rev4.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    folded = exchange_fold(
        _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "revenue_4": pa.array([int(pc.sum(t.column("revenue_4")).as_py() or 0)], pa.int64()),
                "n": pa.array([int(pc.sum(t.column("n")).as_py() or 0)], pa.int64()),
            }
        ),
    )
    rev = int(pc.sum(folded.column("revenue_4")).as_py() or 0) if folded is not None else 0
    n = int(pc.sum(folded.column("n")).as_py() or 0) if folded is not None else 0
    return pd.DataFrame({"revenue_4": [np.int64(rev)], "n_items": [np.int64(n)]})


Q19_DISJUNCTIVE_SQL = f"""
SELECT CAST(coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                          * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0) AS BIGINT)
         AS revenue_4,
       count(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE {" OR ".join(
    f"(p_brand = '{b}' AND p_size BETWEEN {slo} AND {shi} "
    f"AND l_quantity BETWEEN {qlo} AND {qhi})"
    for b, slo, shi, qlo, qhi in Q19_PREDS
)}
"""


# ---------------------------------------------------------------------------
# TPC-H Q16 analog (distinct suppliers per part attribute group): for parts
# NOT of one brand, count DISTINCT supplying suppliers per (brand, type,
# size) — partsupp is absent from the testdata, so "supplies" is witnessed
# by lineitem. Scale shape: the events_distinct_users idiom — per-batch
# unique (attrs, suppkey) pair combiner, ONE pair-hash exchange (a pair
# lands in exactly one partition, so per-partition unique = globally
# unique), per-partition counts per attrs, attrs-keyed exchange_fold.

Q16_EXCLUDE_BRAND = "Brand#15"
Q16_PARTS = 32


def q16_supplier_part_counts(sf_dir: str, num_partitions: int = Q16_PARTS):
    from ..functions.hashing import avalanche64, hash64_str_array
    from ..stages.fold import exchange_fold
    from ..stages.join import gather_small_side

    part = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]).map_batches(
            lambda t: t.filter(
                pc.invert(pc.equal(t.column("p_brand"), Q16_EXCLUDE_BRAND))
            ),
            batch_format="pyarrow",
        )
    )
    pk = part.column("p_partkey").to_numpy()
    order = np.argsort(pk, kind="stable")
    attrs = np.array(
        [
            f"{b}|{t}|{s}"
            for b, t, s in zip(
                np.asarray(part.column("p_brand").to_numpy(zero_copy_only=False)).astype(str),
                np.asarray(part.column("p_type").to_numpy(zero_copy_only=False)).astype(str),
                part.column("p_size").to_numpy(),
            )
        ],
        dtype=object,
    )[order]
    dims_ref = ray.put((pk[order], attrs))

    def pair_partial(tbl: pa.Table) -> pa.Table:
        pks, att = ray.get(dims_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        hit = pos < pks.size
        hit[hit] = pks[pos[hit]] == lp[hit]
        sk = tbl.column("l_suppkey").to_numpy()[hit]
        a = att[pos[hit]]
        pairs = np.char.add(np.char.add(a.astype(str), "|"), sk.astype(str))
        uniq, idx = np.unique(pairs, return_index=True)
        pid = (hash64_str_array(uniq) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "pair": pa.array(uniq.astype(str), pa.string()),
                "attrs": pa.array(a[idx].astype(str), pa.string()),
                "__pid": pa.array(pid),
            }
        )

    def count_unique(tbl: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "pair": tbl.column("pair").to_pylist(),
                "attrs": tbl.column("attrs").to_pylist(),
            }
        ).drop_duplicates("pair")
        out = df.groupby("attrs", as_index=False).size().rename(columns={"size": "supplier_cnt"})
        return pa.Table.from_pandas(out, preserve_index=False)

    parts_ds = exchange(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            pair_partial, batch_format="pyarrow"
        ),
        "__pid",
        count_unique,
        num_partitions,
    )

    folded = exchange_fold(
        parts_ds,
        lambda t: (
            t.group_by("attrs")
            .aggregate([("supplier_cnt", "sum")])
            .rename_columns(["attrs", "supplier_cnt"])
        ),
        pid_of=lambda t: (
            hash64_str_array(t.column("attrs").to_numpy(zero_copy_only=False))
            % np.uint64(Q16_PARTS)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {"p_brand": pd.Series([], dtype=str), "p_type": pd.Series([], dtype=str),
             "p_size": pd.Series([], dtype=np.int64),
             "supplier_cnt": pd.Series([], dtype=np.int64)}
        )
    df = folded.to_pandas().groupby("attrs", as_index=False)["supplier_cnt"].sum()
    split = df["attrs"].str.split("|", expand=True)
    out = pd.DataFrame(
        {
            "p_brand": split[0],
            "p_type": split[1],
            "p_size": split[2].astype(np.int64),
            "supplier_cnt": df["supplier_cnt"].astype(np.int64),
        }
    )
    return out.sort_values(["p_brand", "p_type", "p_size"]).reset_index(drop=True)


Q16_SUPPLIER_PART_SQL = f"""
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_brand <> '{Q16_EXCLUDE_BRAND}'
GROUP BY p_brand, p_type, p_size
"""


# ---------------------------------------------------------------------------
# TPC-H Q8 analog (national market share): of the revenue that one region's
# customers spent on one part family, what fraction was supplied by one
# nation, per order year. Dims (region->nation, customer->nation,
# supplier->nation, filtered part keys) broadcast exactly as in q5; the only
# big-big exchange is lineitem x orders co-partitioned on orderkey; per-year
# (numerator, denominator) integer partials fold to <= years rows. The
# share itself is ONE float division of two exact int64s, floor-gridded at
# 1e-6 identically on both sides — bit-equal by construction.

Q8_REGION = "ASIA"
Q8_NATION = "NATION_7"
Q8_PART_PREFIX = "small "


def q8_market_share(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold
    from ..stages.join import copartitioned_equijoin, gather_small_side

    nat = gather_small_side(_read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]))
    reg = gather_small_side(_read(sf_dir, "region", ["r_regionkey", "r_name"]))
    region_keys = {
        int(k)
        for k, name in zip(
            reg.column("r_regionkey").to_pylist(), reg.column("r_name").to_pylist()
        )
        if name == Q8_REGION
    }
    asia_nations = {
        int(k)
        for k, rk in zip(
            nat.column("n_nationkey").to_pylist(), nat.column("n_regionkey").to_pylist()
        )
        if int(rk) in region_keys
    }
    target_nations = {
        int(k)
        for k, name in zip(
            nat.column("n_nationkey").to_pylist(), nat.column("n_name").to_pylist()
        )
        if name == Q8_NATION
    }

    cust = gather_small_side(_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]))
    ck = cust.column("c_custkey").to_numpy()
    cnk = cust.column("c_nationkey").to_numpy()
    asia_cust = np.sort(ck[np.isin(cnk, list(asia_nations))])

    sup = gather_small_side(_read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]))
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk, kind="stable")
    s_target = np.isin(sup.column("s_nationkey").to_numpy()[sorder], list(target_nations))

    pk_tbl = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
            lambda t: t.filter(pc.starts_with(t.column("p_name"), Q8_PART_PREFIX)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
    )
    part_keys = np.sort(pk_tbl.column("p_partkey").to_numpy())
    dims_ref = ray.put((part_keys, sk[sorder], s_target, asia_cust))

    def li_slim(tbl: pa.Table) -> pa.Table:
        pks, sks, stgt, _ac = ray.get(dims_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        hit = pos < pks.size
        hit[hit] = pks[pos[hit]] == lp[hit]
        tbl = tbl.filter(pa.array(hit))
        ls = tbl.column("l_suppkey").to_numpy()
        sp = np.searchsorted(sks, ls)
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(tbl.column("l_discount").to_numpy(zero_copy_only=False))
        rev4 = price_c * (100 - disc_pct)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "rev_4": pa.array(rev4, pa.int64()),
                "num_4": pa.array(np.where(stgt[sp], rev4, 0), pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_slim, batch_format="pyarrow")

    def ord_slim(tbl: pa.Table) -> pa.Table:
        _pks, _sks, _st, ac = ray.get(dims_ref)
        ok = tbl.column("o_custkey").to_numpy()
        pos = np.searchsorted(ac, ok)
        hit = pos < ac.size
        hit[hit] = ac[pos[hit]] == ok[hit]
        tbl = tbl.filter(pa.array(hit))
        yr = pc.year(tbl.column("o_orderdate")).cast(pa.int64())
        return pa.table({"o_orderkey": tbl.column("o_orderkey").cast(pa.int64()), "o_year": yr})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        ord_slim, batch_format="pyarrow"
    )
    joined = copartitioned_equijoin(
        li, orders,
        fact_key="l_orderkey", dim_key="o_orderkey",
        fact_cols=["rev_4", "num_4"], dim_cols=["o_year"],
        num_partitions=num_partitions,
    )

    def agg_partial(tbl: pa.Table) -> pa.Table:
        yr = tbl.column("o_year").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(yr, return_inverse=True)
        den = np.zeros(uniq.size, dtype=np.int64)
        num = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(den, inv, tbl.column("rev_4").to_numpy(zero_copy_only=False))
        np.add.at(num, inv, tbl.column("num_4").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_year": pa.array(uniq, pa.int64()),
                "numerator_4": pa.array(num),
                "denominator_4": pa.array(den),
            }
        )

    folded = exchange_fold(
        joined.map_batches(agg_partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by("o_year")
            .aggregate([("numerator_4", "sum"), ("denominator_4", "sum")])
            .rename_columns(["o_year", "numerator_4", "denominator_4"])
        ),
        pid_of=lambda t: (
            t.column("o_year").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {"o_year": pd.Series([], dtype=np.int64),
             "numerator_4": pd.Series([], dtype=np.int64),
             "denominator_4": pd.Series([], dtype=np.int64),
             "mkt_share": pd.Series([], dtype=np.float64)}
        )
    df = (
        folded.to_pandas()
        .groupby("o_year", as_index=False)[["numerator_4", "denominator_4"]]
        .sum()
        .sort_values("o_year")
        .reset_index(drop=True)
    )
    share = df["numerator_4"].to_numpy(np.float64) / df["denominator_4"].to_numpy(np.float64)
    df["mkt_share"] = np.floor(share * 1e6 + 0.5) / 1e6
    return df


Q8_MARKET_SHARE_SQL = f"""
WITH rev AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_4,
         CASE WHEN ns.n_name = '{Q8_NATION}' THEN 1 ELSE 0 END AS is_target
  FROM lineitem
  JOIN orders ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN nation nc ON c_nationkey = nc.n_nationkey
  JOIN region ON nc.n_regionkey = r_regionkey
  JOIN part ON l_partkey = p_partkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation ns ON s_nationkey = ns.n_nationkey
  WHERE r_name = '{Q8_REGION}' AND p_name LIKE '{Q8_PART_PREFIX}%'
)
SELECT o_year,
       CAST(sum(rev_4 * is_target) AS BIGINT) AS numerator_4,
       CAST(sum(rev_4) AS BIGINT) AS denominator_4,
       floor(CAST(sum(rev_4 * is_target) AS DOUBLE)
             / CAST(sum(rev_4) AS DOUBLE) * 1e6 + 0.5) / 1e6 AS mkt_share
FROM rev GROUP BY o_year
"""


# ---------------------------------------------------------------------------
# TPC-H Q2 analog (min-cost supplier per part). The testdata has no
# partsupp/supplycost, so "cost" = min extended price in cents a supplier
# ever charged for the part (integer-exact). Filtered parts and the
# region's supplier set are broadcast dims; lineitem makes ONE pass with a
# per-(part,supplier) min partial, then ONE hash exchange on partkey
# finalizes the per-part minimum — output bounded by filtered-parts x ties.

Q2_TYPE = "STANDARD"
Q2_MIN_SIZE = 25
Q2_REGION = "EUROPE"


def _region_suppliers(sf_dir: str, region_name: str):
    """(sorted s_suppkey array, supplier attr table aligned to it) for
    suppliers whose nation lies in region_name. Dimension-sized."""
    from ..stages.join import gather_small_side

    reg = gather_small_side(_read(sf_dir, "region", ["r_regionkey", "r_name"]))
    rkeys = {
        int(k)
        for k, name in zip(
            reg.column("r_regionkey").to_pylist(), reg.column("r_name").to_pylist()
        )
        if name == region_name
    }
    nat = gather_small_side(_read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]))
    nmask = np.isin(nat.column("n_regionkey").to_numpy(), list(rkeys))
    nkeys = nat.column("n_nationkey").to_numpy()[nmask]
    nname_of = dict(
        zip(nkeys.tolist(), np.asarray(nat.column("n_name").to_numpy(zero_copy_only=False))[nmask].tolist())
    )
    sup = gather_small_side(
        _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])
    )
    smask = np.isin(sup.column("s_nationkey").to_numpy(), nkeys)
    sup = sup.filter(pa.array(smask))
    sk = sup.column("s_suppkey").to_numpy()
    order = np.argsort(sk, kind="stable")
    sup = sup.take(pa.array(order))
    return sk[order], sup, nname_of


def q2_min_cost_supplier(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.join import gather_small_side

    pk_tbl = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_type", "p_size"]).map_batches(
            lambda t: t.filter(
                pc.and_(
                    pc.equal(t.column("p_type"), Q2_TYPE),
                    pc.greater_equal(t.column("p_size"), Q2_MIN_SIZE),
                )
            ).select(["p_partkey"]),
            batch_format="pyarrow",
        )
    )
    part_keys = np.sort(pk_tbl.column("p_partkey").to_numpy())
    sks, sup, nname_of = _region_suppliers(sf_dir, Q2_REGION)
    dims_ref = ray.put((part_keys, sks))

    def min_partial(tbl: pa.Table) -> pa.Table:
        pks, sup_keys = ray.get(dims_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        hit = pos < pks.size
        hit[hit] = pks[pos[hit]] == lp[hit]
        ls = tbl.column("l_suppkey").to_numpy()
        sp = np.searchsorted(sup_keys, ls)
        shit = sp < sup_keys.size
        shit[shit] = sup_keys[sp[shit]] == ls[shit]
        hit &= shit
        lp, ls = lp[hit], ls[hit]
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))[hit]
        # group-min per (part, supplier) inside the block
        key = lp.astype(np.uint64) * np.uint64(1 << 32) + ls.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        k_s, p_s = key[order], price_c[order]
        head = np.ones(k_s.size, dtype=bool)
        head[1:] = k_s[1:] != k_s[:-1]
        starts = np.flatnonzero(head)
        mins = np.minimum.reduceat(p_s, starts) if starts.size else np.empty(0, np.int64)
        pk_out = (k_s[starts] >> np.uint64(32)).astype(np.int64)
        sk_out = (k_s[starts] & np.uint64(0xFFFFFFFF)).astype(np.int64)
        pid = (avalanche64(pk_out.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "p_partkey": pa.array(pk_out, pa.int64()),
                "s_suppkey": pa.array(sk_out, pa.int64()),
                "min_price_c": pa.array(mins, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def min_fold(tbl: pa.Table) -> pa.Table:
        g = (
            tbl.group_by(["p_partkey", "s_suppkey"])
            .aggregate([("min_price_c", "min")])
            .rename_columns(["p_partkey", "s_suppkey", "min_price_c"])
        )
        pk = g.column("p_partkey").to_numpy()
        mp = g.column("min_price_c").to_numpy()
        uniq, inv = np.unique(pk, return_inverse=True)
        pmin = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(pmin, inv, mp)
        return g.filter(pa.array(mp == pmin[inv]))

    winners = gather_small_side(
        exchange(
            _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"]).map_batches(
                min_partial, batch_format="pyarrow"
            ),
            "__pid",
            min_fold,
            num_partitions,
        )
    )
    # attach supplier attrs driver-side: both sides are dimension-bounded
    sk_all = sup.column("s_suppkey").to_numpy()
    pos = np.searchsorted(sk_all, winners.column("s_suppkey").to_numpy())
    acct_c = _cents(sup.column("s_acctbal").to_numpy(zero_copy_only=False))[pos]
    names = np.asarray(sup.column("s_name").to_numpy(zero_copy_only=False))[pos]
    nnames = np.asarray(
        [nname_of[int(k)] for k in sup.column("s_nationkey").to_numpy()[pos]], dtype=object
    )
    df = pd.DataFrame(
        {
            "s_acctbal_c": acct_c,
            "s_name": names,
            "n_name": nnames,
            "p_partkey": winners.column("p_partkey").to_numpy(),
            "s_suppkey": winners.column("s_suppkey").to_numpy(),
            "min_price_c": winners.column("min_price_c").to_numpy(),
        }
    )
    df = df.sort_values(
        ["s_acctbal_c", "n_name", "s_name", "p_partkey", "s_suppkey"],
        ascending=[False, True, True, True, True],
    ).head(100).reset_index(drop=True)
    return df


Q2_MIN_COST_SQL = f"""
WITH ep AS (SELECT p_partkey FROM part
            WHERE p_type = '{Q2_TYPE}' AND p_size >= {Q2_MIN_SIZE}),
es AS (SELECT s_suppkey, s_name,
              CAST(round(s_acctbal * 100) AS BIGINT) AS s_acctbal_c, n_name
       FROM supplier JOIN nation ON s_nationkey = n_nationkey
       JOIN region ON n_regionkey = r_regionkey
       WHERE r_name = '{Q2_REGION}'),
mc AS (SELECT l_partkey AS pk, l_suppkey AS sk,
              min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS mp
       FROM lineitem JOIN ep ON l_partkey = p_partkey
       JOIN es ON l_suppkey = s_suppkey
       GROUP BY 1, 2),
pm AS (SELECT pk, min(mp) AS pmin FROM mc GROUP BY 1)
SELECT es.s_acctbal_c, es.s_name, es.n_name,
       mc.pk AS p_partkey, mc.sk AS s_suppkey, mc.mp AS min_price_c
FROM mc JOIN pm ON mc.pk = pm.pk AND mc.mp = pm.pmin
JOIN es ON mc.sk = es.s_suppkey
ORDER BY s_acctbal_c DESC, n_name, s_name, p_partkey, s_suppkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# TPC-H Q11 analog (important stock). No partsupp table, so a part's "stock
# value" = sum of round(l_extendedprice*100) * l_quantity over lineitems
# shipped by suppliers in a region (integer 1e-2 dollars x units). Keep
# parts whose value exceeds 1/Q11_FRACTION_DEN of the region total. ONE
# lineitem pass -> per-part partials -> ONE hash exchange finalizes per-part
# values; the grand total folds from the (bounded, per-part) intermediate,
# never from raw lineitems.

Q11_REGION = "ASIA"
Q11_FRACTION_DEN = 1000


def q11_important_parts(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold
    from ..stages.join import gather_small_side

    sks, _sup, _nn = _region_suppliers(sf_dir, Q11_REGION)
    sk_ref = ray.put(sks)

    def val_partial(tbl: pa.Table) -> pa.Table:
        sup_keys = ray.get(sk_ref)
        ls = tbl.column("l_suppkey").to_numpy()
        pos = np.searchsorted(sup_keys, ls)
        hit = pos < sup_keys.size
        hit[hit] = sup_keys[pos[hit]] == ls[hit]
        lp = tbl.column("l_partkey").to_numpy()[hit]
        price_c = _cents(tbl.column("l_extendedprice").to_numpy(zero_copy_only=False))[hit]
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)[hit]
        val = price_c * qty
        uniq, inv = np.unique(lp, return_inverse=True)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, inv, val)
        pid = (avalanche64(uniq.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "p_partkey": pa.array(uniq, pa.int64()),
                "value_c": pa.array(s, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    per_part = exchange(
        _read(
            sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"]
        ).map_batches(val_partial, batch_format="pyarrow"),
        "__pid",
        lambda t: t.group_by("p_partkey")
        .aggregate([("value_c", "sum")])
        .rename_columns(["p_partkey", "value_c"]),
        num_partitions,
    ).materialize()  # bounded: one row per distinct part (dimension-sized)
    tot_tbl = exchange_fold(
        per_part.map_batches(
            lambda t: pa.table(
                {"t": pa.array([int(pc.sum(t.column("value_c")).as_py() or 0)], pa.int64())}
            ),
            batch_format="pyarrow",
        ),
        lambda t: pa.table({"t": pa.array([int(pc.sum(t.column("t")).as_py() or 0)], pa.int64())}),
    )
    total = int(pc.sum(tot_tbl.column("t")).as_py() or 0) if tot_tbl is not None else 0
    den = np.int64(Q11_FRACTION_DEN)

    # provably bounded gather: value_c * den > total admits FEWER than den
    # rows (each survivor exceeds total/den), so the driver sees < 1000 rows
    # regardless of corpus size
    kept = gather_small_side(
        per_part.map_batches(
            lambda t: t.filter(
                pa.array(t.column("value_c").to_numpy() * den > np.int64(total))
            ),
            batch_format="pyarrow",
        )
    )
    df = (
        pd.DataFrame(
            {
                "p_partkey": kept.column("p_partkey").to_numpy(),
                "value_c": kept.column("value_c").to_numpy(),
            }
        )
        .sort_values(["value_c", "p_partkey"], ascending=[False, True])
        .reset_index(drop=True)
    )
    return df


Q11_IMPORTANT_SQL = f"""
WITH es AS (SELECT s_suppkey FROM supplier
            JOIN nation ON s_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            WHERE r_name = '{Q11_REGION}'),
v AS (SELECT l_partkey AS p_partkey,
             CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * CAST(l_quantity AS BIGINT)) AS BIGINT) AS value_c
      FROM lineitem JOIN es ON l_suppkey = s_suppkey
      GROUP BY 1)
SELECT p_partkey, value_c FROM v
WHERE value_c * {Q11_FRACTION_DEN} > (SELECT sum(value_c) FROM v)
ORDER BY value_c DESC, p_partkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q20 analog (potential part promotion). No partsupp/availqty, so a
# supplier "has excess share" of a part when its shipped quantity of that
# part (name-prefix filter, ship years Q20_YEARS) exceeds 1/5 of the part's
# total shipped quantity. Semi-join chain: filtered part keys broadcast ->
# ONE lineitem pass -> per-(part,supplier) partials -> hash exchange on
# partkey -> qualifying supplier set (bounded) -> region filter + names
# driver-side.

Q20_PREFIX = "small "
Q20_YEARS = (1998, 2000)
Q20_SHARE_DEN = 5  # supplier qty * 5 > part total  <=>  share > 20%


def q20_share_suppliers(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.join import gather_small_side

    pk_tbl = gather_small_side(
        _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
            lambda t: t.filter(pc.starts_with(t.column("p_name"), Q20_PREFIX)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
    )
    part_keys = np.sort(pk_tbl.column("p_partkey").to_numpy())
    pk_ref = ray.put(part_keys)
    lo_us = np.int64(np.datetime64(f"{Q20_YEARS[0]}-01-01", "us").astype(np.int64))
    hi_us = np.int64(np.datetime64(f"{Q20_YEARS[1] + 1}-01-01", "us").astype(np.int64))

    def qty_partial(tbl: pa.Table) -> pa.Table:
        pks = ray.get(pk_ref)
        lp = tbl.column("l_partkey").to_numpy()
        pos = np.searchsorted(pks, lp)
        hit = pos < pks.size
        hit[hit] = pks[pos[hit]] == lp[hit]
        ship = tbl.column("l_shipdate").cast(pa.int64()).to_numpy()
        hit &= (ship >= lo_us) & (ship < hi_us)
        lp = lp[hit]
        ls = tbl.column("l_suppkey").to_numpy()[hit]
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.int64)[hit]
        key = lp.astype(np.uint64) * np.uint64(1 << 32) + ls.astype(np.uint64)
        uniq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, inv, qty)
        pk_out = (uniq >> np.uint64(32)).astype(np.int64)
        sk_out = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        pid = (avalanche64(pk_out.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "pk": pa.array(pk_out, pa.int64()),
                "sk": pa.array(sk_out, pa.int64()),
                "q": pa.array(s, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def share_fold(tbl: pa.Table) -> pa.Table:
        g = (
            tbl.group_by(["pk", "sk"])
            .aggregate([("q", "sum")])
            .rename_columns(["pk", "sk", "q"])
        )
        pk = g.column("pk").to_numpy()
        q = g.column("q").to_numpy()
        uniq, inv = np.unique(pk, return_inverse=True)
        tq = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(tq, inv, q)
        keep = q * np.int64(Q20_SHARE_DEN) > tq[inv]
        sk = np.unique(g.column("sk").to_numpy()[keep])
        return pa.table({"s_suppkey": pa.array(sk, pa.int64())})

    qual = gather_small_side(
        exchange(
            _read(
                sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
            ).map_batches(qty_partial, batch_format="pyarrow"),
            "__pid",
            share_fold,
            num_partitions,
        )
    )
    qset = np.unique(qual.column("s_suppkey").to_numpy())
    sks, sup, _nn = _region_suppliers(sf_dir, "AFRICA")
    pos = np.searchsorted(sks, qset)
    hit = pos < sks.size
    hit[hit] = sks[pos[hit]] == qset[hit]
    kept_sk = qset[hit]
    names = np.asarray(sup.column("s_name").to_numpy(zero_copy_only=False))[
        np.searchsorted(sks, kept_sk)
    ]
    df = (
        pd.DataFrame({"s_suppkey": kept_sk, "s_name": names})
        .sort_values(["s_name", "s_suppkey"])
        .reset_index(drop=True)
    )
    return df


Q20_SHARE_SQL = f"""
WITH fp AS (SELECT p_partkey FROM part WHERE p_name LIKE '{Q20_PREFIX}%'),
ps AS (SELECT l_partkey AS pk, l_suppkey AS sk,
              CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q
       FROM lineitem JOIN fp ON l_partkey = p_partkey
       WHERE year(l_shipdate) BETWEEN {Q20_YEARS[0]} AND {Q20_YEARS[1]}
       GROUP BY 1, 2),
pt AS (SELECT pk, sum(q) AS tq FROM ps GROUP BY 1),
qual AS (SELECT DISTINCT sk FROM ps JOIN pt USING (pk)
         WHERE q * {Q20_SHARE_DEN} > tq)
SELECT s_suppkey, s_name FROM qual
JOIN supplier ON sk = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'AFRICA'
ORDER BY s_name, s_suppkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q21 analog (suppliers who kept orders waiting). No
# commit/receipt dates, so a lineitem is "late" when l_shipdate lands more
# than Q21_LATE_DAYS after o_orderdate. A finished ('F') order counts
# against supplier S when S shipped late on it, at least one OTHER supplier
# is on the order, and NO other supplier was late (the classic
# EXISTS / NOT-EXISTS pair). Shape: lineitem co-partitions with filtered
# orders on orderkey (the one big-big exchange); per-(order,supplier) late
# counts take a second, partials-only exchange on orderkey so each order's
# supplier set finalizes in one task; per-supplier numwait folds via
# exchange_fold keyed on suppkey (bounded by #suppliers).

Q21_LATE_DAYS = 60
Q21_REGION = "EUROPE"


def q21_waiting_suppliers(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold
    from ..stages.join import copartitioned_equijoin

    def li_slim(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").cast(pa.int64()),
                "l_suppkey": tbl.column("l_suppkey").cast(pa.int64()),
                "ship_us": tbl.column("l_shipdate").cast(pa.int64()),
            }
        )

    def ord_slim(tbl: pa.Table) -> pa.Table:
        tbl = tbl.filter(pc.equal(tbl.column("o_orderstatus"), "F"))
        return pa.table(
            {
                "o_orderkey": tbl.column("o_orderkey").cast(pa.int64()),
                "ord_us": tbl.column("o_orderdate").cast(pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        li_slim, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderdate"]).map_batches(
        ord_slim, batch_format="pyarrow"
    )
    joined = copartitioned_equijoin(
        li, orders,
        fact_key="l_orderkey", dim_key="o_orderkey",
        fact_cols=["l_suppkey", "ship_us"], dim_cols=["ord_us"],
        num_partitions=num_partitions,
        fact_col_types={"l_suppkey": pa.int64(), "ship_us": pa.int64()},
        dim_col_types={"ord_us": pa.int64()},
        key_type=pa.int64(),
    )
    late_us = np.int64(Q21_LATE_DAYS) * np.int64(86_400_000_000)

    def late_partial(tbl: pa.Table) -> pa.Table:
        ok = tbl.column("l_orderkey").to_numpy()
        sk = tbl.column("l_suppkey").to_numpy()
        late = (
            tbl.column("ship_us").to_numpy() - tbl.column("ord_us").to_numpy() > late_us
        ).astype(np.int64)
        # lexsort-grouped (order, supplier) late counts: exact for any
        # 64-bit key domain (no packed-key width assumption)
        order = np.lexsort((sk, ok))
        ok_s, sk_s, late_s = ok[order], sk[order], late[order]
        head = np.ones(ok_s.size, dtype=bool)
        head[1:] = (ok_s[1:] != ok_s[:-1]) | (sk_s[1:] != sk_s[:-1])
        starts = np.flatnonzero(head)
        nl = np.add.reduceat(late_s, starts) if starts.size else np.empty(0, np.int64)
        ok_out = ok_s[starts]
        sk_out = sk_s[starts]
        pid = (avalanche64(ok_out.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "ok": pa.array(ok_out, pa.int64()),
                "sk": pa.array(sk_out, pa.int64()),
                "nl": pa.array(nl, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def wait_fold(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["ok", "sk"]).aggregate([("nl", "sum")]).rename_columns(["ok", "sk", "nl"])
        ok = g.column("ok").to_numpy()
        nl = g.column("nl").to_numpy()
        uniq, inv = np.unique(ok, return_inverse=True)
        ns = np.zeros(uniq.size, dtype=np.int64)
        nls = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(ns, inv, 1)
        np.add.at(nls, inv, (nl > 0).astype(np.int64))
        keep = (ns[inv] >= 2) & (nls[inv] == 1) & (nl > 0)
        sk = g.column("sk").to_numpy()[keep]
        nw = nl[keep]
        su, sinv = np.unique(sk, return_inverse=True)
        s = np.zeros(su.size, dtype=np.int64)
        np.add.at(s, sinv, nw)
        return pa.table({"s_suppkey": pa.array(su, pa.int64()), "numwait": pa.array(s, pa.int64())})

    per_supp = exchange_fold(
        exchange(
            joined.map_batches(late_partial, batch_format="pyarrow"),
            "__pid",
            wait_fold,
            num_partitions,
        ),
        lambda t: (
            t.group_by("s_suppkey")
            .aggregate([("numwait", "sum")])
            .rename_columns(["s_suppkey", "numwait"])
        ),
        pid_of=lambda t: (
            t.column("s_suppkey").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    sks, sup, _nn = _region_suppliers(sf_dir, Q21_REGION)
    if per_supp is None:
        return pd.DataFrame(
            {"s_name": pd.Series([], dtype=object),
             "s_suppkey": pd.Series([], dtype=np.int64),
             "numwait": pd.Series([], dtype=np.int64)}
        )
    wsk = per_supp.column("s_suppkey").to_numpy()
    pos = np.searchsorted(sks, wsk)
    hit = pos < sks.size
    hit[hit] = sks[pos[hit]] == wsk[hit]
    names = np.asarray(sup.column("s_name").to_numpy(zero_copy_only=False))[pos[hit]]
    df = (
        pd.DataFrame(
            {
                "s_name": names,
                "s_suppkey": wsk[hit],
                "numwait": per_supp.column("numwait").to_numpy()[hit],
            }
        )
        .sort_values(["numwait", "s_name", "s_suppkey"], ascending=[False, True, True])
        .head(100)
        .reset_index(drop=True)
    )
    return df


Q21_WAITING_SQL = f"""
WITH j AS (SELECT l_orderkey AS ok, l_suppkey AS sk,
                  CASE WHEN l_shipdate > o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY
                       THEN 1 ELSE 0 END AS late
           FROM lineitem JOIN orders ON l_orderkey = o_orderkey
           WHERE o_orderstatus = 'F'),
per AS (SELECT ok, sk, CAST(sum(late) AS BIGINT) AS nl FROM j GROUP BY 1, 2),
o AS (SELECT ok, count(*) AS ns,
             sum(CASE WHEN nl > 0 THEN 1 ELSE 0 END) AS nls
      FROM per GROUP BY 1),
w AS (SELECT sk, CAST(sum(nl) AS BIGINT) AS numwait
      FROM per JOIN o USING (ok)
      WHERE ns >= 2 AND nls = 1 AND nl > 0
      GROUP BY sk)
SELECT s_name, sk AS s_suppkey, numwait FROM w
JOIN supplier ON sk = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = '{Q21_REGION}'
ORDER BY numwait DESC, s_name, s_suppkey
LIMIT 100
"""


# ---------------------------------------------------------------------------
# full-outer join coverage query: per custkey present in EITHER table, an
# existence flag and order count. Exercises copartitioned_equijoin's
# how="full" path (unmatched fact rows keep null dim cols, unmatched dim
# rows emit with the key from the dim side) in a registered, SQL-oracled
# query; the post-join aggregate folds integer partials through one keyed
# exchange.


def cust_orders_full(sf_dir: str, num_partitions: int = 16):
    from ..stages.fold import exchange_fold
    from ..stages.join import copartitioned_equijoin

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "c_flag": pa.array(np.ones(t.num_rows, dtype=np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = copartitioned_equijoin(
        orders, cust,
        fact_key="o_custkey", dim_key="c_custkey",
        fact_cols=["o_orderkey"], dim_cols=["c_flag"],
        num_partitions=num_partitions,
        fact_col_types={"o_orderkey": pa.int64()},
        dim_col_types={"c_flag": pa.int64()},
        key_type=pa.int64(),
        how="full",
    )

    def partial(tbl: pa.Table) -> pa.Table:
        k = tbl.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        flag = (
            pc.is_valid(tbl.column("c_flag"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        has_ord = (
            pc.is_valid(tbl.column("o_orderkey"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        uniq, inv = np.unique(k, return_inverse=True)
        f = np.zeros(uniq.size, dtype=np.int64)
        n = np.zeros(uniq.size, dtype=np.int64)
        np.maximum.at(f, inv, flag)
        np.add.at(n, inv, has_ord)
        return pa.table(
            {
                "custkey": pa.array(uniq, pa.int64()),
                "has_cust": pa.array(f, pa.int64()),
                "n_orders": pa.array(n, pa.int64()),
            }
        )

    folded = exchange_fold(
        joined.map_batches(partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by("custkey")
            .aggregate([("has_cust", "max"), ("n_orders", "sum")])
            .rename_columns(["custkey", "has_cust", "n_orders"])
        ),
        pid_of=lambda t: (
            t.column("custkey").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {c: pd.Series([], dtype=np.int64) for c in ["custkey", "has_cust", "n_orders"]}
        )
    return (
        folded.to_pandas()
        .sort_values("custkey")
        .reset_index(drop=True)
    )


CUST_ORDERS_FULL_SQL = """
SELECT COALESCE(c.c_custkey, o.o_custkey) AS custkey,
       CAST(max(CASE WHEN c.c_custkey IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS has_cust,
       CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
FROM customer c FULL OUTER JOIN orders o ON c.c_custkey = o.o_custkey
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Bloom-join proof query: order count + integer-cents revenue for one
# customer segment, joined through stages/join.bloom_filtered_equijoin —
# the dim side's key bitmap OR-folds through one counters-only exchange and
# prefilters the fact side BEFORE the join exchange. Results are identical
# to the plain join (FPs die in the exact join); the oracle is the plain
# SQL join. The segment dim here WOULD fit a broadcast — the query exists
# to pin the bloom path's exactness end-to-end (the FPR/volume contract is
# pinned separately in pytest).

BLOOM_SEMI_SEGMENT = "BUILDING"


def orders_bloom_semi(sf_dir: str, num_partitions: int = 16):
    from ..stages.fold import exchange_fold
    from ..stages.join import bloom_filtered_equijoin

    def cust_slim(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("c_mktsegment"), BLOOM_SEMI_SEGMENT))
        return pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "c_flag": pa.array(np.ones(t.num_rows, dtype=np.int64), pa.int64()),
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        cust_slim, batch_format="pyarrow"
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "price_c": pa.array(
                    _cents(t.column("o_totalprice").to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    joined = bloom_filtered_equijoin(
        orders, cust,
        fact_key="o_custkey", dim_key="c_custkey",
        fact_cols=["price_c"], dim_cols=["c_flag"],
        num_partitions=num_partitions,
        fact_col_types={"price_c": pa.int64()},
        dim_col_types={"c_flag": pa.int64()},
        key_type=pa.int64(),
    )
    folded = exchange_fold(
        joined.map_batches(
            lambda t: pa.table(
                {
                    "n_orders": pa.array([t.num_rows], pa.int64()),
                    "revenue_c": pa.array(
                        [int(pc.sum(t.column("price_c")).as_py() or 0)], pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        lambda t: pa.table(
            {
                "n_orders": pa.array([int(pc.sum(t.column("n_orders")).as_py() or 0)], pa.int64()),
                "revenue_c": pa.array([int(pc.sum(t.column("revenue_c")).as_py() or 0)], pa.int64()),
            }
        ),
    )
    n = int(pc.sum(folded.column("n_orders")).as_py() or 0) if folded is not None else 0
    rev = int(pc.sum(folded.column("revenue_c")).as_py() or 0) if folded is not None else 0
    return pd.DataFrame({"n_orders": [np.int64(n)], "revenue_c": [np.int64(rev)]})


ORDERS_BLOOM_SEMI_SQL = f"""
SELECT count(*) AS n_orders,
       CAST(coalesce(sum(CAST(round(o_totalprice * 100) AS BIGINT)), 0) AS BIGINT)
         AS revenue_c
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = '{BLOOM_SEMI_SEGMENT}'
"""


# ---------------------------------------------------------------------------
# market-basket affinity: top-K co-ordered part pairs with lift — the
# association-rule mining step (baskets = orders, items = parts). Shape:
# distinct (order, part) pairs co-locate by ONE orderkey exchange; pair
# expansion is vectorized per partition (per-order segment offsets — no
# Python loop over orders); pair counts finalize through a pair-keyed
# exchange; the global top-K is per-partition top-K + a bounded fold; lift
# denominators gather ONLY the <= 2K part ids the winners touch. All
# integer: lift_e6 = floor(n_ab * N * 1e6 / (n_a * n_b)).

AFFINITY_TOPK = 20


def part_affinity_pairs(sf_dir: str, num_partitions: int = 32):
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def op_partial(tbl: pa.Table) -> pa.Table:
        ok = tbl.column("l_orderkey").to_numpy()
        pk = tbl.column("l_partkey").to_numpy()
        key = ok.astype(np.uint64) * np.uint64(1 << 32) + pk.astype(np.uint64)
        uniq = np.unique(key)
        ok_u = (uniq >> np.uint64(32)).astype(np.int64)
        pk_u = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        pid = (avalanche64(ok_u.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                "ok": pa.array(ok_u, pa.int64()),
                "pk": pa.array(pk_u, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def pair_fold(tbl: pa.Table) -> pa.Table:
        """distinct (order, part) -> all within-order part pairs (a < b),
        plus per-part and per-order partials for the lift denominators."""
        ok = tbl.column("ok").to_numpy()
        pk = tbl.column("pk").to_numpy()
        key = ok.astype(np.uint64) * np.uint64(1 << 32) + pk.astype(np.uint64)
        uniq = np.unique(key)  # globally distinct: orders are partition-local
        ok_s = (uniq >> np.uint64(32)).astype(np.int64)
        pk_s = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
        head = np.ones(ok_s.size, dtype=bool)
        head[1:] = ok_s[1:] != ok_s[:-1]
        seg = np.cumsum(head) - 1
        seg_n = np.bincount(seg).astype(np.int64)
        starts = np.flatnonzero(head)
        # pair expansion: for each row i (position j in its segment of size
        # k), pair with the j2 > j rows of the same segment
        k = seg_n[seg]
        pos_in = np.arange(ok_s.size) - starts[seg]
        n_right = k - pos_in - 1
        a_idx = np.repeat(np.arange(ok_s.size), n_right)
        within = np.arange(n_right.sum()) - np.repeat(
            np.cumsum(n_right) - n_right, n_right
        )
        b_idx = a_idx + 1 + within
        pa_, pb_ = pk_s[a_idx], pk_s[b_idx]
        lo = np.minimum(pa_, pb_)
        hi = np.maximum(pa_, pb_)
        pkey = lo.astype(np.uint64) * np.uint64(1 << 32) + hi.astype(np.uint64)
        up, cnt = np.unique(pkey, return_counts=True)
        ppid = (avalanche64(up) % np.uint64(num_partitions)).astype(np.int32)
        pairs = pa.table(
            {
                "a": pa.array((up >> np.uint64(32)).astype(np.int64), pa.int64()),
                "b": pa.array((up & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()),
                "n_ab": pa.array(cnt.astype(np.int64), pa.int64()),
                "__pid2": pa.array(ppid),
            }
        )
        # per-part order counts + this partition's distinct-order count ride
        # along as sentinel rows (a = -1 marks part counts, a = -2 the order
        # count), so ONE output table carries all three partials
        pu, pcnt = np.unique(pk_s, return_counts=True)
        sent = pa.table(
            {
                "a": pa.array(
                    np.concatenate([np.full(pu.size, -1, np.int64), [-2]]), pa.int64()
                ),
                "b": pa.array(np.concatenate([pu, [0]]), pa.int64()),
                "n_ab": pa.array(
                    np.concatenate([pcnt.astype(np.int64), [int(head.sum())]]), pa.int64()
                ),
                "__pid2": pa.array(
                    np.concatenate(
                        [
                            (avalanche64(pu.astype(np.uint64)) % np.uint64(num_partitions)).astype(np.int32),
                            np.array([0], np.int32),
                        ]
                    ),
                    pa.int32(),
                ),
            }
        )
        return pa.concat_tables([pairs, sent])

    def final_fold(tbl: pa.Table) -> pa.Table:
        g = (
            tbl.group_by(["a", "b"])
            .aggregate([("n_ab", "sum")])
            .rename_columns(["a", "b", "n_ab"])
        )
        a = g.column("a").to_numpy()
        is_pair = a >= 0
        pairs = g.filter(pa.array(is_pair))
        # local top-K among finalized pairs; sentinels pass through whole
        n_ab = pairs.column("n_ab").to_numpy()
        pa_ = pairs.column("a").to_numpy()
        pb_ = pairs.column("b").to_numpy()
        order = np.lexsort((pb_, pa_, -n_ab))[:AFFINITY_TOPK]
        return pa.concat_tables(
            [pairs.take(pa.array(order)), g.filter(pa.array(~is_pair))]
        )

    pairs = exchange(
        li.map_batches(op_partial, batch_format="pyarrow"), "__pid", pair_fold, num_partitions
    )
    # consumed twice below; rows stay distributed
    staged = exchange(pairs, "__pid2", final_fold, num_partitions).materialize()
    from ..stages.join import gather_small_side

    # phase 1: gather ONLY the bounded rows — per-partition top-K pairs and
    # the order-count sentinels. Part-count sentinels (O(#parts) rows, the
    # round-4-VERDICT driver-fold defect class) stay distributed.
    tbl = gather_small_side(
        staged.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("a"), np.int64(-1))),
            batch_format="pyarrow",
        )
    )
    a = tbl.column("a").to_numpy()
    b = tbl.column("b").to_numpy()
    n_ab = tbl.column("n_ab").to_numpy()
    n_orders = int(n_ab[a == -2].sum())
    is_pair = a >= 0
    pa_, pb_, nab = a[is_pair], b[is_pair], n_ab[is_pair]
    order = np.lexsort((pb_, pa_, -nab))[:AFFINITY_TOPK]
    pa_, pb_, nab = pa_[order], pb_[order], nab[order]
    # phase 2: fetch counts for ONLY the <= 2K winner parts (broadcast ids)
    winner_ids = np.unique(np.concatenate([pa_, pb_])) if pa_.size else np.empty(0, np.int64)
    wref = ray.put(winner_ids)

    def winners_only(t: pa.Table) -> pa.Table:
        wid = ray.get(wref)
        aa = t.column("a").to_numpy()
        bb = t.column("b").to_numpy()
        pos = np.searchsorted(wid, bb)
        hit = (aa == -1) & (pos < wid.size)
        hit[hit] &= wid[pos[hit]] == bb[hit]
        return t.filter(pa.array(hit))

    ptbl = gather_small_side(staged.map_batches(winners_only, batch_format="pyarrow"))
    part_ids = ptbl.column("b").to_numpy()
    part_cnt = ptbl.column("n_ab").to_numpy()
    porder = np.argsort(part_ids, kind="stable")
    part_ids, part_cnt = part_ids[porder], part_cnt[porder]
    ca = part_cnt[np.searchsorted(part_ids, pa_)] if pa_.size else np.empty(0, np.int64)
    cb = part_cnt[np.searchsorted(part_ids, pb_)] if pb_.size else np.empty(0, np.int64)
    lift = (nab * np.int64(n_orders) * np.int64(1_000_000)) // (ca * cb)
    return pd.DataFrame(
        {
            "p_a": pa_,
            "p_b": pb_,
            "n_ab": nab,
            "lift_e6": lift,
        }
    )


PART_AFFINITY_SQL = f"""
WITH op AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem),
n AS (SELECT count(DISTINCT ok) AS nord FROM op),
pcounts AS (SELECT pk, count(*) AS c FROM op GROUP BY 1),
pairs AS (SELECT a.pk AS p_a, b.pk AS p_b, count(*) AS n_ab
          FROM op a JOIN op b ON a.ok = b.ok AND a.pk < b.pk
          GROUP BY 1, 2),
top AS (SELECT * FROM pairs ORDER BY n_ab DESC, p_a, p_b LIMIT {AFFINITY_TOPK})
SELECT p_a, p_b, n_ab,
       (n_ab * nord * 1000000) // (ca.c * cb.c) AS lift_e6
FROM top JOIN pcounts ca ON p_a = ca.pk JOIN pcounts cb ON p_b = cb.pk, n
ORDER BY n_ab DESC, p_a, p_b
"""


# ---------------------------------------------------------------------------
# ORDER GAP STATS — per-customer inter-order cadence over the orders
# table (the RFM "recency rhythm" feature on the relational side of the
# house): number of orders, mean and max gap in whole days between
# consecutive orders. One custkey-keyed exchange; inside each partition
# a single lexsort over (custkey, orderdate, orderkey) + segment diffs —
# no per-customer loop. Orderdates are midnight-aligned timestamps, so
# the day gap is exact integer division; gap sums/maxima over a sorted
# sequence are tie-order independent, making the oracle hash-exact. The
# single mean divide closes on the 1e-6 grid (NULL for single-order
# customers, where no gap exists).


def orders_gap_stats(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    def tag(tbl: pa.Table) -> pa.Table:
        pid = pid_of(tbl.column("o_custkey").to_numpy(zero_copy_only=False), num_partitions)
        return tbl.append_column("partition_id", pa.array(pid))

    def fold(tbl: pa.Table) -> pa.Table:
        cust = tbl.column("o_custkey").to_numpy(zero_copy_only=False)
        tu = tbl.column("o_orderdate").cast(pa.int64()).to_numpy(zero_copy_only=False)
        key = tbl.column("o_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((key, tu, cust))
        sc, st = cust[order], tu[order]
        head = np.ones(sc.size, dtype=bool)
        head[1:] = sc[1:] != sc[:-1]
        gid = np.cumsum(head) - 1
        n_cust = int(gid[-1]) + 1 if sc.size else 0
        n_orders = np.bincount(gid, minlength=n_cust).astype(np.int64)
        gap = np.empty(sc.size, dtype=np.int64)
        gap[1:] = (st[1:] - st[:-1]) // 86_400_000_000
        has_prev = ~head
        sum_gap = np.zeros(n_cust, dtype=np.int64)
        np.add.at(sum_gap, gid[has_prev], gap[has_prev])
        max_gap = np.full(n_cust, -1, dtype=np.int64)
        np.maximum.at(max_gap, gid[has_prev], gap[has_prev])
        multi = n_orders >= 2
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_gap = np.where(
                multi,
                np.floor(sum_gap / (n_orders - 1).astype(np.float64) * 1e6 + 0.5) / 1e6,
                np.nan,
            )
        return pa.table(
            {
                "custkey": pa.array(sc[head], pa.int64()),
                "n_orders": pa.array(n_orders, pa.int64()),
                "mean_gap_days": pa.array(mean_gap, pa.float64()),
                "max_gap_days": pa.Array.from_pandas(
                    np.where(multi, max_gap.astype(np.float64), np.nan)
                ).cast(pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    tagged = orders.map_batches(tag, batch_format="pyarrow")
    return exchange(tagged, "partition_id", fold, num_partitions)


ORDERS_GAP_STATS_SQL = """
WITH o AS (
  SELECT o_custkey, epoch_us(o_orderdate) AS tu,
         lag(epoch_us(o_orderdate)) OVER (PARTITION BY o_custkey
                                          ORDER BY o_orderdate, o_orderkey) AS prev
  FROM orders
), g AS (
  SELECT o_custkey, (tu - prev) // 86400000000 AS gap
  FROM o WHERE prev IS NOT NULL
), s AS (
  SELECT o_custkey, CAST(sum(gap) AS BIGINT) AS sg,
         CAST(count(*) AS BIGINT) AS c, CAST(max(gap) AS BIGINT) AS mx
  FROM g GROUP BY 1
), n AS (
  SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders FROM orders GROUP BY 1
)
SELECT n.o_custkey AS custkey, n.n_orders,
       CASE WHEN n.n_orders >= 2
            THEN floor(CAST(s.sg AS DOUBLE) / s.c * 1e6 + 0.5) / 1e6
            ELSE NULL END AS mean_gap_days,
       s.mx AS max_gap_days
FROM n LEFT JOIN s ON n.o_custkey = s.o_custkey
"""


# ---------------------------------------------------------------------------
# MONTHLY VOLUME — per calendar (year, month): order count, revenue, and
# EXACT distinct customers; the monthly-cohort rollup every partitioned
# lake keys its directories on. Calendar math is the vectorized
# civil-from-days kernel (functions/dates) — no Python datetime per row —
# which equals DuckDB's year()/month() on the proleptic Gregorian
# calendar. Distinct custkeys ride the exchange as per-block-deduped
# (y, m, custkey) rows keyed by MONTH, so each month's customer set
# closes inside one partition (months are bounded; a 10^12-row corpus
# still has only ~10^2 of them, and per-month customer rows are the
# true output cardinality, not a blow-up).


def orders_monthly_volume(sf_dir: str, num_partitions: int = 32) -> ray.data.Dataset:
    from ..functions.dates import year_month_from_us

    def partial(tbl: pa.Table) -> pa.Table:
        tu = tbl.column("o_orderdate").cast(pa.int64()).to_numpy(zero_copy_only=False)
        y, m = year_month_from_us(tu)
        cents = _cents(tbl.column("o_totalprice").to_numpy(zero_copy_only=False))
        t = pa.table(
            {
                "y": pa.array(y, pa.int64()),
                "m": pa.array(m, pa.int64()),
                "custkey": tbl.column("o_custkey"),
                "cents": pa.array(cents, pa.int64()),
            }
        )
        return (
            t.group_by(["y", "m", "custkey"])
            .aggregate([([], "count_all"), ("cents", "sum")])
            .rename_columns(["y", "m", "custkey", "n", "cents"])
        )

    def tag(tbl: pa.Table) -> pa.Table:
        ym = tbl.column("y").to_numpy() * 12 + tbl.column("m").to_numpy()
        return tbl.append_column("partition_id", pa.array(pid_of(ym, num_partitions)))

    def fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by(["y", "m", "custkey"])
            .aggregate([("n", "sum"), ("cents", "sum")])
            .rename_columns(["y", "m", "custkey", "n", "cents"])
        )
        ym = t.column("y").to_numpy() * 100 + t.column("m").to_numpy()
        keys, codes = np.unique(ym, return_inverse=True)
        n = np.zeros(keys.size, dtype=np.int64)
        np.add.at(n, codes, t.column("n").to_numpy().astype(np.int64))
        cents = np.zeros(keys.size, dtype=np.int64)
        np.add.at(cents, codes, t.column("cents").to_numpy().astype(np.int64))
        ncust = np.bincount(codes, minlength=keys.size).astype(np.int64)
        return pa.table(
            {
                "year": pa.array(keys // 100, pa.int64()),
                "month": pa.array(keys % 100, pa.int64()),
                "n_orders": pa.array(n, pa.int64()),
                "sum_price": pa.array(cents / 100.0, pa.float64()),
                "n_customers": pa.array(ncust, pa.int64()),
            }
        )

    return exchange(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(tag, batch_format="pyarrow"),
        "partition_id",
        fold,
        num_partitions,
    )


ORDERS_MONTHLY_SQL = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
       CAST(month(o_orderdate) AS BIGINT) AS month,
       CAST(count(*) AS BIGINT) AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS sum_price,
       CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_customers
FROM orders GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# JOIN-FANOUT HISTOGRAM — the join-planning audit: the distribution of
# lineitems per order (how many 1-row, 2-row, ... k-row groups the fact side
# fans into). Read before choosing broadcast vs co-partition and before
# trusting a skew-free plan: a heavy tail here is exactly what makes an
# m:n join explode. Stage 1: per-order counts through ONE order-keyed
# exchange (bincount combiner per batch); stage 2: count-of-counts collapse
# (<= sqrt(2N) distinct sizes, the top_user_share bound) through a second
# counters-only fold. All integers.


def order_fanout_hist(sf_dir: str):
    import pandas as pd

    from ..stages.fold import exchange_fold

    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial(tbl: pa.Table) -> pa.Table:
        k = tbl.column("l_orderkey").to_numpy()
        uniq, cnt = np.unique(k, return_counts=True)
        return pa.table(
            {
                "k": pa.array(uniq, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
                "__pid": pa.array((uniq % 32).astype(np.int32)),
            }
        )

    per_key = exchange(
        li.map_batches(partial, batch_format="pyarrow"),
        "__pid",
        lambda t: t.group_by("k").aggregate([("n", "sum")]).rename_columns(["k", "n"]),
        32,
    )

    def hist_partial(tbl: pa.Table) -> pa.Table:
        n = tbl.column("n").to_numpy()
        size, cnt = np.unique(n, return_counts=True)
        return pa.table(
            {
                "fanout": pa.array(size, pa.int64()),
                "n_orders": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    folded = exchange_fold(
        per_key.map_batches(hist_partial, batch_format="pyarrow"),
        lambda t: t.group_by("fanout")
        .aggregate([("n_orders", "sum")])
        .rename_columns(["fanout", "n_orders"]),
        parts=8,
        pid_of=lambda t: t.column("fanout").to_numpy(zero_copy_only=False) % 8,
    )
    cols = ["fanout", "n_orders"]
    if folded is None:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    df = folded.to_pandas().groupby("fanout", as_index=False)["n_orders"].sum()
    return df[cols].astype(np.int64)


ORDER_FANOUT_HIST_SQL = """
WITH c AS (
  SELECT l_orderkey, CAST(count(*) AS BIGINT) AS fanout FROM lineitem GROUP BY 1
)
SELECT fanout, CAST(count(*) AS BIGINT) AS n_orders
FROM c GROUP BY fanout
"""
