"""Point-in-time feature-engineering operators over a generic event stream
(`events` table: event_id, ts, user_id, event_type, value).

Same operator family as the flagship pages pipeline (as-of, LOCF, lag/lead,
sessionization, rolling windows — SURVEY §2.3/2.5/2.9), expressed over the
driver's testdata so every operator has a DuckDB SQL oracle.

Execution idiom (identical to pipelines/features.py): read_events ->
entity-hash partition (stages.exchange.pid_of) -> the one keyed exchange
(stages.exchange.exchange) -> vectorized kernel over each reduce block,
sorted by (entity, time). Entity = user_id; a user never spans blocks, and
a block holds many users, so the kernel runs once per block. Per-user folds
take the same path with `order=()` (map-side partials, then
`partitioned_ordered(partials, fold, order=())`), and the few steps keyed
on something else (a (day, user) pair, a ts range) tag a `__pid` and call
`exchange` directly; no step uses Ray's groupby().map_groups. The exchange
makes one reduce block per read block (capped at NUM_PARTITIONS), so
read_events reads through stages.exchange.read_table, which sizes the read
with the pages read's rule (read_num_blocks): events is one file, so a
table under 2 x CPUs x target_min_block_size of footer bytes reads as
ceil(bytes / target_min_block_size) blocks. A one-block table (the sf0.01
table) is one read task, then one task that tags and runs the kernel once
over every row; a few blocks (sf0.1 reads as 3) go through a sort on fixed
partition-id boundaries; a larger table keeps Ray's own split and its
sampled sort.
Money values are aggregated as integer cents so distributed results are
bit-identical to the SQL oracle (no float-summation-order drift).

Kernels are Arrow in, Arrow out (batch_format="pyarrow", one np.lexsort +
Arrow take per block) and pure numpy index algebra over the sorted arrays,
with no Python loop per user. The point-in-time primitives are shared with
the pages kernel and live in state/kernels.py: `_seg_head` (entity heads),
`carried_index` (LOCF), `asof_index` (the backward / forward as-of cursor),
`gap_seconds` + `gap_sessions` (gap sessions) and `shifted_stack` (the
k-row window)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..errors import SchemaError
from ..stages.exchange import GOLD, exchange, pid_of, read_table
from ..state.kernels import (
    _seg_head,
    asof_index,
    carried_index,
    gap_seconds,
    gap_sessions,
    shifted_stack,
)

NUM_PARTITIONS = 32

# Advice of the packed-key kernels' overflow errors. A kernel call holds one
# reduce block, and a table reads as about footer bytes / target_min_block_size
# blocks (stages.exchange.read_num_blocks), so raising num_partitions alone
# cannot split a one-block table.
FEWER_USERS_PER_CALL = (
    "Each kernel call holds the users of one reduce block, and there are "
    "min(read blocks, num_partitions) of them: lower "
    "ray.data.DataContext.get_current().target_min_block_size so the table "
    "reads as more blocks and each call holds fewer users."
)


def read_events(sf_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return read_table([f"{sf_dir}/events.parquet"], columns)


def partitioned_ordered(
    ds: ray.data.Dataset,
    kernel,
    key: str = "user_id",
    order: tuple[str, ...] = ("ts", "event_id"),
    num_partitions: int = NUM_PARTITIONS,
) -> ray.data.Dataset:
    """Entity-hash partition + one keyed exchange + Arrow kernel per reduce
    block, sorted by (key, *order). The kernel sees every row of each entity
    exactly once, in time order, and entities in key order — the same
    ordering contract as the pages merge kernel."""

    def tag(tbl: pa.Table) -> pa.Table:
        pid = pid_of(tbl.column(key).to_numpy(zero_copy_only=False), num_partitions)
        return tbl.append_column("partition_id", pa.array(pid))

    def group_fn(tbl: pa.Table) -> pa.Table:
        return kernel(tbl.drop_columns(["partition_id"]))

    ds = ds.map_batches(tag, batch_format="pyarrow")
    return exchange(ds, "partition_id", group_fn, num_partitions, order=(key, *order))


# ---------------------------------------------------------------------------
# lag / lead (reference analog: MFCC delta / delta-delta frames,
# tasks.md:637-658 — frame-to-frame differences). Lead is a LABEL: emitted
# under label_ prefix, never a feature (leakage discipline SURVEY §4.3).


def lag_lead(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        head = _seg_head(uid)
        tail = np.zeros(n, dtype=bool)
        if n:
            tail[:-1] = head[1:]
            tail[-1] = True
        lag1 = np.full(n, np.nan)
        lead1 = np.full(n, np.nan)
        if n > 1:
            lag1[1:] = val[:-1]
            lead1[:-1] = val[1:]
        lag1[head] = np.nan
        lead1[tail] = np.nan
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "value": tbl.column("value"),
                "lag1_value": pa.array(lag1, pa.float64()),
                "label_lead1_value": pa.array(lead1, pa.float64()),
                "delta_value": pa.array(val - lag1, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


LAG_LEAD_SQL = """
SELECT event_id, user_id, ts, value,
       lag(value)  OVER w AS lag1_value,
       lead(value) OVER w AS label_lead1_value,
       value - lag(value) OVER w AS delta_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# ---------------------------------------------------------------------------
# gap-based sessionization (north rule; reference analog: silence-gap
# trimming design.md:837-859). Gap strictly greater than threshold starts a
# new session.

SESSION_GAP_S = 1800.0


def sessionize(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        dt = gap_seconds(head, ts)
        _, session_id, session_len = gap_sessions(head, dt, SESSION_GAP_S)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "ts_since_prev_s": pa.array(dt, pa.float64()),
                "session_id": pa.array(session_id, pa.int64()),
                "session_len": pa.array(session_len, pa.int64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


SESSIONIZE_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, ts,
         date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS ts_since_prev_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *,
         sum(CASE WHEN ts_since_prev_s > {SESSION_GAP_S} THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS session_id
  FROM g
)
SELECT event_id, user_id, ts, ts_since_prev_s,
       CAST(session_id AS BIGINT) AS session_id,
       row_number() OVER (PARTITION BY user_id, session_id ORDER BY ts, event_id)
         AS session_len
FROM s
"""


# ---------------------------------------------------------------------------
# rolling window over the last k rows incl. current (reference analog: STFT
# frame window n_fft/hop, design.md:533-555). Integer-cents sums for
# bit-exactness vs the SQL oracle.

ROLL_K = 5


def rolling(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        head = _seg_head(uid)
        cents = np.round(val * 100).astype(np.int64)
        cstack = shifted_stack(cents.astype(np.float64), head, ROLL_K)
        rw_count = (~np.isnan(cstack)).sum(axis=0).astype(np.int64)
        rsum = np.nansum(cstack, axis=0)  # cents << 2^53: float sum is exact
        vstack = shifted_stack(val, head, ROLL_K)
        with np.errstate(invalid="ignore"):
            rw_max = np.nanmax(vstack, axis=0)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "value": tbl.column("value"),
                "rw_count": pa.array(rw_count, pa.int64()),
                "rw_sum_value": pa.array(rsum / 100.0, pa.float64()),
                "rw_mean_value": pa.array(rsum / (100.0 * rw_count), pa.float64()),
                "rw_max_value": pa.array(rw_max, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ROLLING_SQL = f"""
SELECT event_id, user_id, ts, value,
       count(*) OVER w AS rw_count,
       sum(CAST(round(value * 100) AS BIGINT)) OVER w / 100.0 AS rw_sum_value,
       sum(CAST(round(value * 100) AS BIGINT)) OVER w
         / (100.0 * count(*) OVER w) AS rw_mean_value,
       max(value) OVER w AS rw_max_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN {ROLL_K - 1} PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# LOCF backfill (reference analog: Griffin-Lim partial-information
# reconstruction idea, design.md:684-744 -> fill at t from latest obs <= t):
# carry the latest 'purchase' value forward onto every event of the user
# with one carried_index over the whole block — no per-user loop.


def locf(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        is_p = pc.equal(tbl.column("event_type"), "purchase").to_numpy(zero_copy_only=False)
        last_p = carried_index(uid, is_p)
        out = np.where(last_p >= 0, val[last_p], np.nan)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "event_type": tbl.column("event_type"),
                "locf_purchase_value": pa.array(out, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


LOCF_SQL = """
SELECT event_id, user_id, ts, event_type,
       last_value(CASE WHEN event_type = 'purchase' THEN value END IGNORE NULLS)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) AS locf_purchase_value
FROM events
"""


# ---------------------------------------------------------------------------
# sorted-merge as-of join (J2, the north rule's core operator): attach to each
# event the latest signup-event value of the same user with signup.ts <= ts
# ("<=": an event matches itself when it IS the signup). One asof_index
# call: signups sort FIRST within equal (user, ts), so the carried cursor
# implements "<=" for every user at once.


def asof_join(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        eid = tbl.column("event_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        is_sig = pc.equal(tbl.column("event_type"), "signup").to_numpy(zero_copy_only=False)
        m = asof_index(uid, ts, is_sig, eid)
        ok = m >= 0
        av = np.where(ok, val[m], np.nan)
        at_dt = ts[m].astype("datetime64[us]")
        at_dt[~ok] = np.datetime64("NaT")
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "asof_signup_value": pa.array(av, pa.float64()),
                "asof_signup_ts": pa.array(at_dt),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ASOF_JOIN_SQL = """
WITH signups AS (
  SELECT user_id, ts AS sig_ts, value AS sig_value
  FROM events WHERE event_type = 'signup'
)
SELECT e.event_id, e.user_id, e.ts,
       s.sig_value AS asof_signup_value,
       s.sig_ts    AS asof_signup_ts
FROM events e
ASOF LEFT JOIN signups s
  ON e.user_id = s.user_id AND e.ts >= s.sig_ts
"""


# ---------------------------------------------------------------------------
# exact dedup / keep-first-per-key (SURVEY §2.8): first event per
# (user_id, event_type) in (ts, event_id) order.


def dedup_first(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        codes = pc.dictionary_encode(et).indices.to_numpy()
        order2 = np.lexsort((np.arange(n), codes, uid))
        u2, c2 = uid[order2], codes[order2]
        first = np.ones(n, dtype=bool)
        first[1:] = (u2[1:] != u2[:-1]) | (c2[1:] != c2[:-1])
        keep = np.sort(order2[first])
        return tbl.take(pa.array(keep)).select(
            ["user_id", "event_type", "event_id", "ts", "value"]
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


DEDUP_FIRST_SQL = """
SELECT user_id, event_type, event_id, ts, value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts, event_id) AS rn
  FROM events
) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# tumbling window aggregate with map-side partial aggregation (SURVEY §2.6 A5,
# "pre-aggregate inside map_batches before the groupby"): per user x hour.


def window_agg(sf_dir: str) -> ray.data.Dataset:
    def partial(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        win = (ts // 3_600_000_000) * 3_600_000_000
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        cents = np.round(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        df = pd.DataFrame({"user_id": uid, "win": win, "cents": cents})
        agg = df.groupby(["user_id", "win"], sort=False).agg(
            n_events=("cents", "size"), sum_cents=("cents", "sum")
        ).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    ds = read_events(sf_dir, columns=["user_id", "ts", "value"])
    partials = ds.map_batches(partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    out = partials.groupby(["user_id", "win"]).aggregate(
        Sum("n_events", alias_name="n_events"), Sum("sum_cents", alias_name="sum_cents")
    )

    def finish(tbl: pa.Table) -> pa.Table:
        win_ts = pa.array(tbl.column("win").to_numpy(), pa.int64()).cast(pa.timestamp("us"))
        sum_value = pa.array(tbl.column("sum_cents").to_numpy() / 100.0, pa.float64())
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "win_start": win_ts,
                "n_events": tbl.column("n_events").cast(pa.int64()),
                "sum_value": sum_value,
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


WINDOW_AGG_SQL = """
SELECT user_id,
       time_bucket(INTERVAL 1 HOUR, ts) AS win_start,
       count(*) AS n_events,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value
FROM events
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# HOPPING window aggregate (overlapping windows: length = HOP_MULT x hop,
# sliding by hop — each event lands in HOP_MULT windows). The streaming analog
# of the reference's overlapping STFT frames (hop_length < n_fft,
# design.md:533-555): per batch every event emits HOP_MULT (window, cents)
# contributions, pre-aggregated per batch with Arrow hash aggregation, then
# ONE small exchange keyed on the window start. Integer cents keep the
# distributed sum bit-identical to the SQL oracle.

HOP_US = 600_000_000  # 10 min hop
HOP_MULT = 3  # window length = 30 min


def hopping_window(sf_dir: str) -> ray.data.Dataset:
    def partial(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.round(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        base = (ts // HOP_US) * HOP_US
        wins = np.concatenate([base - i * HOP_US for i in range(HOP_MULT)])
        c = np.tile(cents, HOP_MULT)
        agg = (
            pa.table({"win": pa.array(wins), "cents": pa.array(c), "one": pa.array(np.ones(wins.size, np.int64))})
            .group_by(["win"])
            .aggregate([("one", "sum"), ("cents", "sum")])
        )
        return agg.rename_columns(["win", "n_events", "sum_cents"])

    from ray.data.aggregate import Sum

    out = (
        read_events(sf_dir, columns=["ts", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("win")
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("sum_cents", alias_name="sum_cents"))
    )

    def finish(tbl: pa.Table) -> pa.Table:
        win_ts = pa.array(tbl.column("win").to_numpy(), pa.int64()).cast(pa.timestamp("us"))
        return pa.table(
            {
                "win_start": win_ts,
                "n_events": tbl.column("n_events").cast(pa.int64()),
                "sum_value": pa.array(
                    tbl.column("sum_cents").to_numpy() / 100.0, pa.float64()
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


HOPPING_WINDOW_SQL = f"""
WITH x AS (
  SELECT epoch_us(ts) AS tu, CAST(round(value * 100) AS BIGINT) AS cents FROM events
),
g AS (
  SELECT (tu // {HOP_US} - i) * {HOP_US} AS win_us, cents
  FROM x, UNNEST([0, 1, 2]) AS u(i)
)
SELECT make_timestamp(win_us) AS win_start,
       count(*) AS n_events,
       sum(cents) / 100.0 AS sum_value
FROM g GROUP BY win_us
"""


# ---------------------------------------------------------------------------
# exact distinct aggregate with map-side set partials (SURVEY §2.6; "emit one
# partial per batch, merge in a tiny second stage" — the mergeable-sketch
# shape, here with exact sets since user-id cardinality is bounded per type).


DISTINCT_USERS_PARTS = 32


def distinct_users(sf_dir: str) -> ray.data.Dataset:
    """Exact distinct users per event_type, scale-safe on skewed keys
    (round-3 VERDICT fix): the old plan put ALL of one type's distinct
    users into a single pandas task; this one hash-exchanges on
    hash(user_id) % P so every partition holds a 1/P user slice of every
    type, counts distinct pairs vectorized per partition, then sums the
    <= P x n_types partials in a second exchange keyed by hash(event_type),
    all Arrow. Both exchanges are stages.exchange.exchange, so a reduce
    block holds many partition ids; that is safe because a (type, user)
    pair lands in one partition. UDFs are closures (pickled by value,
    hashing imports captured here) so workers never need the package on
    their sys.path — module-level UDFs broke driver-from-/tmp runs."""
    from ..functions.hashing import avalanche64, string_hash_strong

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        """Batch-local distinct (event_type, user_id) pairs — the combiner:
        each pair crosses the exchange at most once per batch. Fully
        vectorized via dictionary-encode + lexsort run-heads."""
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        de = pc.dictionary_encode(et)
        tcode = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((uid, tcode))
        ts, us = tcode[order], uid[order]
        head = np.ones(ts.size, dtype=bool)
        if ts.size:
            head[1:] = (ts[1:] != ts[:-1]) | (us[1:] != us[:-1])
        keep = order[head]
        pid = (avalanche64(uid[keep].astype(np.uint64)) % np.uint64(DISTINCT_USERS_PARTS)).astype(
            np.int32
        )
        return pa.table(
            {
                "event_type": et.take(pa.array(keep)),
                "user_id": pa.array(uid[keep], pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def count_partition(tbl: pa.Table) -> pa.Table:
        """Per-block distinct-pair counts per event_type. A (type, user)
        pair is routed by hash(user_id), so one partition sees 1/P of EVERY
        type's users — a hot type spreads over all P tasks instead of one."""
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        de = pc.dictionary_encode(et)
        tcode = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, tcode))
        ts, us = tcode[order], uid[order]
        head = np.ones(ts.size, dtype=bool)
        if ts.size:
            head[1:] = (ts[1:] != ts[:-1]) | (us[1:] != us[:-1])
        n = np.bincount(ts[head], minlength=len(de.dictionary)).astype(np.int64)
        tpid = string_hash_strong(de.dictionary) % np.uint64(DISTINCT_USERS_PARTS)
        return pa.table(
            {
                "event_type": de.dictionary,
                "n_partial": pa.array(n, pa.int64()),
                "__tpid": pa.array(tpid.astype(np.int32)),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by("event_type").aggregate([("n_partial", "sum")])
        return pa.table({"event_type": g.column("event_type"), "n_users": g.column("n_partial_sum")})

    pairs = read_events(sf_dir, ["event_type", "user_id"]).map_batches(
        dedup_pairs, batch_format="pyarrow"
    )
    partials = exchange(pairs, "__pid", count_partition, DISTINCT_USERS_PARTS)
    return exchange(partials, "__tpid", fold, DISTINCT_USERS_PARTS)


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# two-table as-of join via the GENERIC co-partitioned stage (stages/asof.py):
# left = all events, right = the signups table, hash-co-partitioned on
# user_id, merged with one sorted forward pass per key segment. Same result
# contract as asof_join (which merges within the single partitioned stream).
# The signups are a filter of the events, so one read feeds both sides: the
# stage tags each read block's left rows and its signups in one map, the
# side-tag exchange that the large-right-side path uses at scale.


def asof_join_two_table(sf_dir: str) -> ray.data.Dataset:
    from ..stages.asof import asof_join_copartitioned

    ev = read_events(sf_dir, ["event_id", "user_id", "ts", "event_type", "value"])

    def signups(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.equal(tbl.column("event_type"), "signup"))
        return pa.table(
            {"user_id": t.column("user_id"), "ts": t.column("ts"), "sig_value": t.column("value")}
        )

    out = asof_join_copartitioned(
        ev,
        signups,
        key="user_id",
        left_ts="ts",
        right_ts="ts",
        left_cols=["event_id"],
        right_value_cols=["sig_value"],
        num_partitions=NUM_PARTITIONS,
        col_types={"event_id": pa.int64(), "sig_value": pa.float64()},
        key_type=pa.int64(),
    )

    def finish(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": pc.cast(tbl.column("event_id"), pa.int64()),
                "user_id": pc.cast(tbl.column("user_id"), pa.int64()),
                "ts": tbl.column("ts"),
                "asof_sig_value": tbl.column("asof_sig_value"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


ASOF_TWO_TABLE_SQL = """
WITH signups AS (
  SELECT user_id, ts AS sig_ts, value AS sig_value
  FROM events WHERE event_type = 'signup'
)
SELECT e.event_id, e.user_id, e.ts, s.sig_value AS asof_sig_value
FROM events e
ASOF LEFT JOIN signups s
  ON e.user_id = s.user_id AND e.ts >= s.sig_ts
"""


# ---------------------------------------------------------------------------
# exact grouped quantiles (per-window order statistics, SURVEY §2.6 A3
# analog): median / p90 of value per event type via the hash-partitioned
# sorted-segment kernel in stages/window.py. Integer-cents input makes the
# interpolated result bit-comparable to DuckDB's quantile_cont.


def value_quantiles(sf_dir: str) -> ray.data.Dataset:
    from ..stages.window import grouped_quantiles

    ds = read_events(sf_dir, ["event_type", "value"])
    return grouped_quantiles(
        ds,
        key="event_type",
        value_col="value",
        quantiles={"p50": 0.5, "p90": 0.9},
    )


VALUE_QUANTILES_SQL = """
SELECT event_type,
       count(*) AS n,
       quantile_cont(value, 0.5) AS p50,
       quantile_cont(value, 0.9) AS p90
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# two-pass group normalization (z-score per event type). Pass 1: map-side
# integer-cents partials (n, sum, sumsq) -> tiny driver fold (5 keys,
# bounded) -> ray.put. Pass 2: one vectorized map stage. Every float op is
# sequenced identically to the SQL oracle over the SAME exact integers, so
# the result is bit-identical before rounding.


def zscore(sf_dir: str) -> ray.data.Dataset:
    import ray as _ray

    ds = read_events(sf_dir, ["event_id", "event_type", "value"])

    def partial(tbl: pa.Table) -> pa.Table:
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        vc = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        uniq, codes = np.unique(tcol, return_inverse=True)
        n = np.bincount(codes, minlength=uniq.size)
        s1 = np.zeros(uniq.size, dtype=np.int64)
        s2 = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s1, codes, vc)
        np.add.at(s2, codes, vc * vc)
        return pa.table(
            {
                "event_type": pa.array(uniq.tolist(), pa.string()),
                "n": pa.array(n, pa.int64()),
                "s1": pa.array(s1, pa.int64()),
                "s2": pa.array(s2, pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type"])
            .aggregate([("n", "sum"), ("s1", "sum"), ("s2", "sum")])
            .rename_columns(["event_type", "n", "s1", "s2"])
        )

    # ONE exchange merges the per-block partials; driver folds <= types rows
    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    stats: dict[str, tuple[int, int, int]] = {}
    for r in folded.to_pylist() if folded is not None else []:
        nn, ss1, ss2 = stats.get(r["event_type"], (0, 0, 0))
        stats[r["event_type"]] = (nn + r["n"], ss1 + r["s1"], ss2 + r["s2"])
    mean_std = {}
    for t, (nn, ss1, ss2) in stats.items():
        # identical op sequence to the SQL oracle: all operands exact ints
        # cast to double at the same points
        m = np.float64(ss1) / np.float64(nn)
        var = (np.float64(ss2) - np.float64(ss1) * np.float64(ss1) / np.float64(nn)) / np.float64(nn)
        mean_std[t] = (m, np.sqrt(var))
    ref = _ray.put(mean_std)

    def apply(tbl: pa.Table) -> pa.Table:
        ms = _ray.get(ref)
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        vc = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100)
        uniq, codes = np.unique(tcol, return_inverse=True)
        means = np.array([ms[t][0] for t in uniq])
        stds = np.array([ms[t][1] for t in uniq])
        z = (vc - means[codes]) / stds[codes]
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "event_type": tbl.column("event_type"),
                "value": tbl.column("value"),
                "zscore": pa.array(np.floor(z * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    return ds.map_batches(apply, batch_format="pyarrow")


ZSCORE_SQL = """
WITH c AS (
  SELECT event_id, event_type, value,
         CAST(round(value*100) AS BIGINT) AS vc
  FROM events
), s AS (
  SELECT event_type, count(*) AS n,
         CAST(sum(vc) AS DOUBLE) AS s1,
         CAST(sum(vc*vc) AS DOUBLE) AS s2
  FROM c GROUP BY event_type
)
SELECT c.event_id, c.event_type, c.value,
       floor(((c.vc - s.s1/s.n) / sqrt((s.s2 - s.s1*s.s1/s.n)/s.n)) * 1e6 + 0.5)/1e6
         AS zscore
FROM c JOIN s USING (event_type)
"""


# ---------------------------------------------------------------------------
# pivot: per-user event_type -> columns (wide feature layout for training
# tables). Map-side integer-cents partials per (user, type), ONE
# hash-partitioned exchange on user_id, vectorized per-partition fold —
# the pivot never creates one Ray group per user.

PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def pivot_user_type(sf_dir: str, num_partitions: int = NUM_PARTITIONS) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["user_id", "event_type", "value"])
    ntypes = len(PIVOT_TYPES)
    type_arr = np.array(PIVOT_TYPES)

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        vc = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        tcode = np.searchsorted(type_arr, tcol)
        # searchsorted silently maps unknown types onto a neighbor's column
        # (round-2 ADVICE): verify the round-trip and fail loudly instead of
        # mis-attributing amounts
        known = type_arr[np.clip(tcode, 0, ntypes - 1)] == tcol
        if not known.all():
            bad = sorted(set(np.asarray(tcol)[~known].tolist()))[:5]
            raise SchemaError(f"pivot_user_type: unknown event_type values {bad}")
        users, ucode = np.unique(uid, return_inverse=True)
        amt = np.zeros((users.size, ntypes), dtype=np.int64)
        np.add.at(amt, (ucode, tcode), vc)
        n = np.bincount(ucode, minlength=users.size).astype(np.int64)
        cols: dict[str, pa.Array] = {"user_id": pa.array(users, pa.int64())}
        for j, t in enumerate(PIVOT_TYPES):
            cols[f"{t}_amt_c"] = pa.array(amt[:, j], pa.int64())
        cols["n_events"] = pa.array(n, pa.int64())
        return pa.table(cols)

    def finish(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        users, ucode = np.unique(uid, return_inverse=True)
        cols: dict[str, pa.Array] = {"user_id": pa.array(users, pa.int64())}
        for t in PIVOT_TYPES:
            acc = np.zeros(users.size, dtype=np.int64)
            np.add.at(acc, ucode, tbl.column(f"{t}_amt_c").to_numpy())
            cols[f"{t}_amt"] = pa.array(acc / 100.0, pa.float64())
        acc = np.zeros(users.size, dtype=np.int64)
        np.add.at(acc, ucode, tbl.column("n_events").to_numpy())
        cols["n_events"] = pa.array(acc, pa.int64())
        return pa.table(cols)

    return partitioned_ordered(
        ds.map_batches(partial, batch_format="pyarrow"),
        finish,
        order=(),
        num_partitions=num_partitions,
    )


PIVOT_USER_TYPE_SQL = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type='click'    THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS BIGINT)/100.0 AS click_amt,
       CAST(sum(CASE WHEN event_type='error'    THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS BIGINT)/100.0 AS error_amt,
       CAST(sum(CASE WHEN event_type='purchase' THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS BIGINT)/100.0 AS purchase_amt,
       CAST(sum(CASE WHEN event_type='signup'   THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS BIGINT)/100.0 AS signup_amt,
       CAST(sum(CASE WHEN event_type='view'     THEN CAST(round(value*100) AS BIGINT) ELSE 0 END) AS BIGINT)/100.0 AS view_amt,
       count(*) AS n_events
FROM events
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# rollup: (event_type, day) detail + per-type subtotal + grand total in one
# result (GROUP BY ROLLUP shape). Detail cardinality is types x days —
# bounded — so partials fold on the driver; the NULL-marker rows are derived
# from the same exact integer partials, never re-scanned.


def rollup_type_day(sf_dir: str):
    ds = read_events(sf_dir, ["event_type", "ts", "value"])

    def partial(tbl: pa.Table) -> pa.Table:
        t = tbl.column("event_type").to_numpy(zero_copy_only=False)
        day = (
            tbl.column("ts").cast(pa.timestamp("us")).cast(pa.date32()).to_numpy(zero_copy_only=False)
        )
        vc = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        key = np.char.add(np.char.add(t.astype(str), "|"), day.astype(str))
        uniq, codes = np.unique(key, return_inverse=True)
        n = np.bincount(codes, minlength=uniq.size).astype(np.int64)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, codes, vc)
        et, dy = zip(*(u.split("|") for u in uniq.tolist()))
        return pa.table(
            {
                "event_type": pa.array(list(et), pa.string()),
                "day": pa.array(list(dy), pa.string()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    import pandas as pd

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    detail = parts.groupby(["event_type", "day"], as_index=False).agg(
        n=("n", "sum"), s=("s", "sum")
    )
    by_type = detail.groupby("event_type", as_index=False).agg(n=("n", "sum"), s=("s", "sum"))
    by_type["day"] = None
    grand = pd.DataFrame(
        {"event_type": [None], "day": [None], "n": [detail["n"].sum()], "s": [detail["s"].sum()]}
    )
    out = pd.concat([detail, by_type, grand], ignore_index=True)
    out["sum_value"] = out.pop("s").astype("int64") / 100.0
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "day", "n", "sum_value"]]


ROLLUP_TYPE_DAY_SQL = """
SELECT event_type,
       strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
       count(*) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT)/100.0 AS sum_value
FROM events
GROUP BY ROLLUP(event_type, day)
"""


# ---------------------------------------------------------------------------
# interval / range join: for every signup, aggregate the user's events whose
# ts falls in [signup_ts, signup_ts + WINDOW). Co-partitioned by user (the
# one exchange), then ONE global searchsorted over disjoint
# (user-code << ts_bits | ts_rel) composite keys + prefix sums — no per-user
# Python loop (the offset-array form from state/kernels). The key layout is
# ADAPTIVE (round-2 ADVICE): ts is offset per USER (not per partition) and
# ts_bits is computed from the actual per-user span + window, so the packing
# holds for arbitrarily long crawls as long as log2(span)+log2(users) <= 64;
# beyond that it fails loudly with SchemaError instead of silently
# overflowing into the user bits.

RANGE_WINDOW_DAYS = 3


def signup_window_agg(sf_dir: str, num_partitions: int = NUM_PARTITIONS) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "user_id", "ts", "event_type", "value"])
    window_us = RANGE_WINDOW_DAYS * 86_400_000_000

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        vc = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        is_signup = (
            tbl.column("event_type").to_numpy(zero_copy_only=False) == "signup"
        )
        users, ucode = np.unique(uid, return_inverse=True)
        umin = np.full(users.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(umin, ucode, ts)
        ts_rel = (ts - umin[ucode]).astype(np.uint64)
        span = int(ts_rel.max(initial=0)) + window_us
        ts_bits = max(span.bit_length() + 1, 1)  # +1: s_comb + window must not wrap
        if ts_bits + max(users.size - 1, 0).bit_length() > 64:
            raise SchemaError(
                f"signup_window composite key overflow: per-user ts span+window "
                f"needs {ts_bits} bits, {users.size} users need "
                f"{max(users.size - 1, 0).bit_length()} — exceeds 64. " + FEWER_USERS_PER_CALL
            )
        comb = (ucode.astype(np.uint64) << np.uint64(ts_bits)) | ts_rel
        order = np.argsort(comb, kind="stable")
        comb_s, vc_s = comb[order], vc[order]
        csum = np.concatenate([[0], np.cumsum(vc_s)])
        s_comb = comb[is_signup]
        lo = np.searchsorted(comb_s, s_comb, side="left")
        hi = np.searchsorted(comb_s, s_comb + np.uint64(window_us), side="left")
        n = (hi - lo).astype(np.int64)
        sums = csum[hi] - csum[lo]
        return pa.table(
            {
                "signup_id": tbl.column("event_id").filter(pa.array(is_signup)),
                "user_id": pa.array(uid[is_signup], pa.int64()),
                "ts": tbl.column("ts").filter(pa.array(is_signup)),
                "n_events": pa.array(n, pa.int64()),
                "sum_value": pa.array(sums / 100.0, pa.float64()),
            }
        )

    return partitioned_ordered(ds, kernel, order=(), num_partitions=num_partitions)


SIGNUP_WINDOW_AGG_SQL = f"""
SELECT s.event_id AS signup_id, s.user_id, s.ts,
       count(*) AS n_events,
       CAST(sum(CAST(round(e.value*100) AS BIGINT)) AS BIGINT)/100.0 AS sum_value
FROM events s
JOIN events e
  ON e.user_id = s.user_id
 AND e.ts >= s.ts
 AND e.ts < s.ts + INTERVAL {RANGE_WINDOW_DAYS} DAY
WHERE s.event_type = 'signup'
GROUP BY 1, 2, 3
"""


def value_quantile_sketch(sf_dir: str) -> ray.data.Dataset:
    """Histogram-sketch twin of value_quantiles (rows-only driver check; the
    one-bin-width error bound is pinned against the exact kernel in
    test_quantile_sketch_error_bound)."""
    from ..stages.window import grouped_quantile_sketch

    ds = read_events(sf_dir, ["event_type", "value"])
    return grouped_quantile_sketch(
        ds,
        key="event_type",
        value_col="value",
        quantiles={"p50": 0.5, "p90": 0.9},
        lo=0.0,
        hi=600.0,
    )


# ---------------------------------------------------------------------------
# sessionized conversion funnel: per (user, session) — did a purchase follow
# the session's first signup? Composition of the sessionize kernel and a
# segment-reduceat aggregation, all inside the ONE ordered pass.

FUNNEL_GAP_S = 86400.0


def session_funnel(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        et = tbl.column("event_type").to_numpy(zero_copy_only=False)
        head = _seg_head(uid)
        seg_head, session_id, _ = gap_sessions(head, gap_seconds(head, ts), FUNNEL_GAP_S)
        starts = np.flatnonzero(seg_head)
        seg_n = np.diff(np.append(starts, n))
        is_sig = et == "signup"
        is_pur = et == "purchase"
        # first signup ts per session: min-reduceat over a +inf-masked copy
        sig_ts = np.where(is_sig, ts, np.iinfo(np.int64).max)
        seg_sig_ts = np.minimum.reduceat(sig_ts, starts)
        seg_of_row = np.cumsum(seg_head) - 1
        pas_row = is_pur & (ts > seg_sig_ts[seg_of_row])
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "session_id": pa.array(session_id[starts], pa.int64()),
                "n_events": pa.array(seg_n, pa.int64()),
                "n_signups": pa.array(np.add.reduceat(is_sig, starts), pa.int64()),
                "purchases_after_signup": pa.array(
                    np.add.reduceat(pas_row, starts), pa.int64()
                ),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


SESSION_FUNNEL_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, ts, event_type,
         date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS gap_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, CAST(sum(CASE WHEN gap_s > {FUNNEL_GAP_S} THEN 1 ELSE 0 END)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM g
), f AS (
  SELECT *, min(CASE WHEN event_type = 'signup' THEN ts END)
              OVER (PARTITION BY user_id, session_id) AS sig_ts
  FROM s
)
SELECT user_id, session_id,
       count(*) AS n_events,
       CAST(count(CASE WHEN event_type = 'signup' THEN 1 END) AS BIGINT) AS n_signups,
       CAST(count(CASE WHEN event_type = 'purchase' AND ts > sig_ts THEN 1 END) AS BIGINT)
         AS purchases_after_signup
FROM f
GROUP BY user_id, session_id
"""


def cube_type_day(sf_dir: str):
    """GROUP BY CUBE(event_type, day): every subtotal level derived from
    the same exact integer detail partials as the rollup (bounded fold)."""
    import pandas as pd

    base = rollup_type_day(sf_dir)  # detail + per-type + grand (exact ints)
    detail = base[base["event_type"].notna() & base["day"].notna()].copy()
    cents = (detail["sum_value"] * 100).round().astype("int64")
    by_day = detail.assign(c=cents).groupby("day", as_index=False).agg(
        n=("n", "sum"), c=("c", "sum")
    )
    by_day["event_type"] = None
    by_day["sum_value"] = by_day.pop("c") / 100.0
    out = pd.concat([base, by_day[["event_type", "day", "n", "sum_value"]]], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out


CUBE_TYPE_DAY_SQL = """
SELECT event_type,
       strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
       count(*) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT)/100.0 AS sum_value
FROM events
GROUP BY CUBE(event_type, day)
"""


# ---------------------------------------------------------------------------
# time-decayed sum (exponential decay, half-life 1 day): for each event, the
# sum of the SAME user's values at ts_i <= ts_t weighted by
# 0.5 ** ((ts_t - ts_i) / 1 day) — the classic decayed-counter feature.
# Direct-form evaluation (one t-chunk x all-i weight block per user, chunked
# to bound memory) so the arithmetic is identical to the oracle's self-join
# SUM; fixed-point floor(x*1e6+0.5)/1e6 on both sides absorbs summation
# order. The production-scale alternative for very long histories is the
# per-user streaming recurrence y_t = x_t + y_prev * 0.5**(dt/hl) (the
# state/kernels carry idiom); the direct form is kept here because it is
# bit-checkable against SQL.

DECAY_HL_US = 86_400_000_000.0  # half-life: 1 day in microseconds
_DECAY_T_CHUNK = 512


def decayed_sum(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy().astype(np.float64)
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        out = np.empty(len(uid), dtype=np.float64)
        heads = np.concatenate([[0], np.nonzero(uid[1:] != uid[:-1])[0] + 1, [len(uid)]])
        for s, e in zip(heads[:-1], heads[1:]):
            ts_u, val_u = ts[s:e], val[s:e]
            for c in range(s, e, _DECAY_T_CHUNK):
                ce = min(c + _DECAY_T_CHUNK, e)
                dt = ts[c:ce, None] - ts_u[None, :]
                # np.power -> C libm pow, the same call DuckDB's pow() makes:
                # identical doubles on this host, not merely close
                w = np.power(0.5, dt / DECAY_HL_US)
                w[dt < 0] = 0.0  # ts_i <= ts_t only (value comparison, not index)
                out[c:ce] = w @ val_u
        out = np.floor(out * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "decayed_value": pa.array(out, pa.float64()),
            }
        )

    return partitioned_ordered(ds, kernel, key="user_id", order=("ts", "event_id"))


DECAYED_SUM_SQL = """
SELECT t.event_id, t.user_id,
       floor(SUM(s.value * pow(0.5, (epoch_us(t.ts) - epoch_us(s.ts)) / 86400000000.0)) * 1e6 + 0.5) / 1e6
         AS decayed_value
FROM events t JOIN events s ON s.user_id = t.user_id AND s.ts <= t.ts
GROUP BY t.event_id, t.user_id
"""


# ---------------------------------------------------------------------------
# semi-structured extraction: parse the props JSON column ({"k": <int>}) with
# a vectorized Arrow regex (no per-row json.loads) and aggregate per event
# type. Map-side integer partials -> bounded driver fold (<= blocks x types
# rows). The oracle uses DuckDB's JSON extraction — same values, so the
# regex path is pinned to real JSON semantics for this (flat) shape.


def props_stats(sf_dir: str):
    import pandas as pd
    import pyarrow.compute as pc

    ds = read_events(sf_dir, ["event_type", "props"])

    def partial(tbl: pa.Table) -> pa.Table:
        ks = pc.extract_regex(tbl.column("props"), pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.struct_field(ks, "k").cast(pa.int64()).to_numpy(zero_copy_only=False)
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(tcol, return_inverse=True)
        n = np.bincount(codes, minlength=uniq.size)
        s = np.zeros(uniq.size, dtype=np.int64)
        mx = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.add.at(s, codes, k)
        np.maximum.at(mx, codes, k)
        return pa.table(
            {
                "event_type": pa.array(uniq.tolist(), pa.string()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
                "mx": pa.array(mx, pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type"])
            .aggregate([("n", "sum"), ("s", "sum"), ("mx", "max")])
            .rename_columns(["event_type", "n", "s", "mx"])
        )

    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    agg: dict[str, list[int]] = {}
    for r in folded.to_pylist() if folded is not None else []:
        cur = agg.setdefault(r["event_type"], [0, 0, np.iinfo(np.int64).min])
        cur[0] += r["n"]; cur[1] += r["s"]; cur[2] = max(cur[2], r["mx"])
    rows = [
        (t, v[0], v[1], v[2], np.float64(v[1]) / np.float64(v[0]))
        for t, v in sorted(agg.items())
    ]
    return pd.DataFrame(rows, columns=["event_type", "n", "sum_k", "max_k", "avg_k"])


PROPS_STATS_SQL = """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS DOUBLE)
         / count(*) AS avg_k
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# cumulative (unbounded-preceding) running features per user: running event
# count, running sum and running max of value — the classic "customer
# lifetime state at each event" point-in-time feature. Complements the
# bounded rolling-k window (rolling) and the decayed sum (decayed_sum) with
# the UNBOUNDED frame. Money stays integer cents end-to-end so the window
# sum is bit-identical to the SQL oracle regardless of per-partition
# summation order. Fully vectorized: segment cumsum via prefix-sum offsets,
# segment running max via the monotone seg_id offset trick (one
# maximum.accumulate over the whole partition, no per-user loop).


def cumulative(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100 + 0.5).astype(np.int64)
        n = uid.size
        head = _seg_head(uid)
        seg_id = np.cumsum(head) - 1
        head_idx = np.nonzero(head)[0]
        idx = np.arange(n, dtype=np.int64)
        run_count = idx - head_idx[seg_id] + 1
        cs = np.cumsum(cents)
        base = cs[head_idx] - cents[head_idx]
        run_sum = cs - base[seg_id]
        # running max: shift each segment into its own disjoint value band
        # (seg_id is non-decreasing, so one global maximum.accumulate never
        # leaks a previous segment's values into the next); falls back to a
        # per-segment accumulate only if the band arithmetic would overflow.
        if n:
            lo, hi = int(cents.min()), int(cents.max())
            span = hi - lo + 1
            nseg = int(seg_id[-1]) + 1
            if span < 2**62 and nseg * span < 2**62:
                shifted = (cents - lo) + seg_id * span
                run_max = np.maximum.accumulate(shifted) - seg_id * span + lo
            else:  # pragma: no cover - needs >2^62 value x segment range
                run_max = np.empty_like(cents)
                bounds = np.concatenate([head_idx, [n]])
                for s, e in zip(bounds[:-1], bounds[1:]):
                    np.maximum.accumulate(cents[s:e], out=run_max[s:e])
        else:
            run_max = cents
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "run_count": pa.array(run_count, pa.int64()),
                "run_sum_cents": pa.array(run_sum, pa.int64()),
                "run_max_cents": pa.array(run_max, pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel, key="user_id", order=("ts", "event_id"))


CUMULATIVE_SQL = """
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS run_count,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS run_sum_cents,
       max(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS run_max_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# FORWARD as-of join: attach, at each event, the NEXT purchase at ts >= the
# event's ts (inclusive; ties broken by the signal's event_id ascending).
# Forward-looking state is a LABEL, not a feature — emitted under the label_
# prefix like the leads family (leakage discipline SURVEY §4.3). The same
# asof_index as the backward as-of, with forward=True: the cursor runs over
# the reversed sorted block.


def asof_join_forward(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        eid = tbl.column("event_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        is_sig = pc.equal(tbl.column("event_type"), "purchase").to_numpy(zero_copy_only=False)
        # the earliest (sig_ts, sig_eid) >= e.ts
        m = asof_index(uid, ts, is_sig, eid, forward=True)
        ok = m >= 0
        av = np.where(ok, val[m], np.nan)
        at_dt = ts[m].astype("datetime64[us]")
        at_dt[~ok] = np.datetime64("NaT")
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "label_next_purchase_value": pa.array(av, pa.float64()),
                "label_next_purchase_ts": pa.array(at_dt),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ASOF_FORWARD_SQL = """
WITH sigs AS (
  SELECT event_id AS sig_id, user_id, ts AS sig_ts, value AS sig_value
  FROM events WHERE event_type = 'purchase'
), j AS (
  SELECT e.event_id, s.sig_value, s.sig_ts,
         row_number() OVER (PARTITION BY e.event_id ORDER BY s.sig_ts, s.sig_id) AS rn
  FROM events e JOIN sigs s ON s.user_id = e.user_id AND s.sig_ts >= e.ts
)
SELECT e.event_id, e.user_id, e.ts,
       j.sig_value AS label_next_purchase_value,
       j.sig_ts    AS label_next_purchase_ts
FROM events e LEFT JOIN (SELECT * FROM j WHERE rn = 1) j USING (event_id)
"""


# ---------------------------------------------------------------------------
# rolling MEDIAN (order-statistic window) per user over the same ROWS frame
# as `rolling`: the robust-statistics counterpart of the mean family (an
# order statistic cannot be expressed as a running sum, so it gets its own
# kernel: the k-shifted stack + one vectorized nanmedian/nanmin over the
# stack axis — still no per-row or per-user Python). Median is computed over
# integer cents so the only float op is the final midpoint average, which
# DuckDB's median() performs identically.


def rolling_median(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        head = _seg_head(uid)
        cents = np.round(val * 100).astype(np.int64)
        cstack = shifted_stack(cents.astype(np.float64), head, ROLL_K)
        with np.errstate(invalid="ignore"):
            rw_median = np.nanmedian(cstack, axis=0)
            rw_min = np.nanmin(cstack, axis=0)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "rw_median_cents": pa.array(rw_median, pa.float64()),
                "rw_min_cents": pa.array(rw_min, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ROLLING_MEDIAN_SQL = f"""
SELECT event_id, user_id,
       median(CAST(round(value * 100) AS BIGINT)) OVER w AS rw_median_cents,
       CAST(min(CAST(round(value * 100) AS BIGINT)) OVER w AS DOUBLE) AS rw_min_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN {ROLL_K - 1} PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# winsorized (outlier-clamped) per-type mean: clamp value at the EXACT
# per-type p05/p95 (pass 1: the grouped exact-quantile exchange), then
# aggregate the clamped values (pass 2: streaming integer partials). The
# clamped sum is decomposed as  sum(in-range cents) + n_below*p05 +
# n_above*p95  so every partial is an INTEGER and the only float ops are the
# final three, sequenced identically to the SQL oracle — bit-identical, no
# summation-order drift. The quantile table is bounded by event-type
# cardinality (a legitimate broadcast side).


def winsorized_stats(sf_dir: str):
    import ray as _ray

    from ..stages.window import grouped_quantiles

    ds = read_events(sf_dir, ["event_type", "value"])

    def to_cents(tbl: pa.Table) -> pa.Table:
        c = np.round(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return pa.table({"event_type": tbl.column("event_type"), "cents": pa.array(c, pa.int64())})

    cents_ds = ds.map_batches(to_cents, batch_format="pyarrow")
    qrows = grouped_quantiles(
        cents_ds, key="event_type", value_col="cents", quantiles={"qlo": 0.05, "qhi": 0.95}
    ).take_all()  # bounded: one row per event type
    qmap = {r["event_type"]: (float(r["qlo"]), float(r["qhi"])) for r in qrows}
    q_ref = _ray.put(qmap)

    def partial(tbl: pa.Table) -> pa.Table:
        q = _ray.get(q_ref)
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        c = tbl.column("cents").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(tcol, return_inverse=True)
        qlo = np.array([q[t][0] for t in uniq])[codes]
        qhi = np.array([q[t][1] for t in uniq])[codes]
        below, above = c < qlo, c > qhi
        mid = ~below & ~above
        k = uniq.size
        out = {
            "event_type": pa.array(uniq.tolist(), pa.string()),
            "n": pa.array(np.bincount(codes, minlength=k), pa.int64()),
            "n_lo": pa.array(np.bincount(codes[below], minlength=k), pa.int64()),
            "n_hi": pa.array(np.bincount(codes[above], minlength=k), pa.int64()),
            "mid_sum": pa.array(
                np.bincount(codes[mid], weights=c[mid].astype(np.float64), minlength=k).astype(
                    np.int64
                ),
                pa.int64(),
            ),
        }
        return pa.table(out)

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type"])
            .aggregate([("n", "sum"), ("n_lo", "sum"), ("n_hi", "sum"), ("mid_sum", "sum")])
            .rename_columns(["event_type", "n", "n_lo", "n_hi", "mid_sum"])
        )

    folded = exchange_fold(cents_ds.map_batches(partial, batch_format="pyarrow"), fold)
    agg: dict[str, list[int]] = {}
    for r in folded.to_pylist() if folded is not None else []:
        cur = agg.setdefault(r["event_type"], [0, 0, 0, 0])
        cur[0] += r["n"]; cur[1] += r["n_lo"]; cur[2] += r["n_hi"]; cur[3] += r["mid_sum"]
    rows = []
    for t in sorted(agg):
        n, n_lo, n_hi, mid_sum = agg[t]
        qlo, qhi = qmap[t]
        wm = ((np.float64(mid_sum) + n_lo * qlo) + n_hi * qhi) / n
        rows.append((t, n, qlo, qhi, float(wm)))
    return pd.DataFrame(
        rows, columns=["event_type", "n", "p05_cents", "p95_cents", "winsorized_mean_cents"]
    )


WINSORIZED_STATS_SQL = """
WITH q AS (
  SELECT event_type,
         quantile_cont(CAST(round(value * 100) AS BIGINT), 0.05) AS qlo,
         quantile_cont(CAST(round(value * 100) AS BIGINT), 0.95) AS qhi
  FROM events GROUP BY event_type
), d AS (
  SELECT e.event_type, CAST(round(e.value * 100) AS BIGINT) AS c, q.qlo, q.qhi
  FROM events e JOIN q USING (event_type)
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       qlo AS p05_cents, qhi AS p95_cents,
       ((CAST(sum(CASE WHEN c >= qlo AND c <= qhi THEN c ELSE 0 END) AS DOUBLE)
         + sum(CASE WHEN c < qlo THEN 1 ELSE 0 END) * qlo)
         + sum(CASE WHEN c > qhi THEN 1 ELSE 0 END) * qhi) / count(*)
         AS winsorized_mean_cents
FROM d GROUP BY event_type, qlo, qhi
"""


# ---------------------------------------------------------------------------
# session transition matrix: counts of CONSECUTIVE event-type pairs within a
# session (the first-order Markov transition counts a sequence model trains
# on). Same gap rule as sessionize; transitions never cross a session
# boundary. Per-partition: the sessionize segment algebra marks boundaries,
# one dictionary-encode + bincount per (prev_type, next_type) code pair, and
# the bounded (types x types) partials fold on the driver.


def _transition_counts(sf_dir: str) -> ray.data.Dataset:
    """Distributed within-session (prev_type, next_type, n) partials —
    bounded at types^2 rows per partition. Shared by session_transitions
    (driver fold) and transition_entropy (prev-keyed exchange_fold)."""
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        de = pc.dictionary_encode(et)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        types = de.dictionary.to_pylist()
        k = len(types)
        if n < 2 or k == 0:
            return pa.table(
                {
                    "prev_type": pa.array([], pa.string()),
                    "next_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        head = _seg_head(uid)
        sess_head, _, _ = gap_sessions(head, gap_seconds(head, ts), SESSION_GAP_S)
        # a transition exists at i when i-1 -> i stays in the same session
        trans = ~sess_head
        pair = codes[np.flatnonzero(trans) - 1] * k + codes[trans]
        cnt = np.bincount(pair, minlength=k * k).reshape(k, k)
        nz = np.nonzero(cnt)
        return pa.table(
            {
                "prev_type": pa.array([types[i] for i in nz[0]], pa.string()),
                "next_type": pa.array([types[j] for j in nz[1]], pa.string()),
                "n": pa.array(cnt[nz], pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel)


def session_transitions(sf_dir: str):
    agg: dict[tuple[str, str], int] = {}
    # bounded: types^2 x partitions
    for r in _transition_counts(sf_dir).take_all():
        key = (r["prev_type"], r["next_type"])
        agg[key] = agg.get(key, 0) + int(r["n"])
    rows = [(a, b, c) for (a, b), c in sorted(agg.items())]
    return pd.DataFrame(rows, columns=["prev_type", "next_type", "n"])


SESSION_TRANSITIONS_SQL = f"""
WITH g AS (
  SELECT user_id, ts, event_type,
         lag(event_type) OVER w AS prev_type,
         date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS dt_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT prev_type, event_type AS next_type, CAST(count(*) AS BIGINT) AS n
FROM g
WHERE prev_type IS NOT NULL AND dt_s <= {SESSION_GAP_S}
GROUP BY prev_type, next_type
"""


# ---------------------------------------------------------------------------
# grouped Pearson correlation between value (cents) and the props.k integer,
# per event type: the feature-vs-feature dependence scan a feature-selection
# pass runs. All partials are INTEGERS (n, Sx, Sy, Sxy, Sxx, Syy per type,
# map-side combined), so the distributed fold is order-free; the closing
# float formula is sequenced identically to the SQL oracle.


def value_props_corr(sf_dir: str):
    ds = read_events(sf_dir, ["event_type", "value", "props"])

    def partial(tbl: pa.Table) -> pa.Table:
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        x = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        ks = pc.extract_regex(tbl.column("props"), pattern=r'"k":\s*(?P<k>-?\d+)')
        y = pc.struct_field(ks, "k").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(tcol, return_inverse=True)
        m = uniq.size

        def seg(v):
            s = np.zeros(m, dtype=np.int64)
            np.add.at(s, codes, v)
            return s

        return pa.table(
            {
                "event_type": pa.array(uniq.tolist(), pa.string()),
                "n": pa.array(np.bincount(codes, minlength=m), pa.int64()),
                "sx": pa.array(seg(x), pa.int64()),
                "sy": pa.array(seg(y), pa.int64()),
                "sxy": pa.array(seg(x * y), pa.int64()),
                "sxx": pa.array(seg(x * x), pa.int64()),
                "syy": pa.array(seg(y * y), pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type"])
            .aggregate(
                [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                 ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")]
            )
            .rename_columns(["event_type", "n", "sx", "sy", "sxy", "sxx", "syy"])
        )

    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    agg: dict[str, np.ndarray] = {}
    for r in folded.to_pylist() if folded is not None else []:
        cur = agg.setdefault(r["event_type"], np.zeros(6, dtype=np.int64))
        cur += np.array([r["n"], r["sx"], r["sy"], r["sxy"], r["sxx"], r["syy"]], dtype=np.int64)
    rows = []
    for t in sorted(agg):
        n, sx, sy, sxy, sxx, syy = (int(v) for v in agg[t])
        num = np.float64(n * sxy - sx * sy)
        den = np.sqrt(np.float64(n * sxx - sx * sx)) * np.sqrt(np.float64(n * syy - sy * sy))
        r_ = float(np.floor(num / den * 1e6 + 0.5) / 1e6) if den != 0 else None
        rows.append((t, n, r_))
    return pd.DataFrame(rows, columns=["event_type", "n", "corr_value_k"])


VALUE_PROPS_CORR_SQL = """
WITH d AS (
  SELECT event_type,
         CAST(round(value * 100) AS BIGINT) AS x,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS y
  FROM events
), s AS (
  SELECT event_type, count(*) AS n,
         sum(x) AS sx, sum(y) AS sy, sum(x*y) AS sxy,
         sum(x*x) AS sxx, sum(y*y) AS syy
  FROM d GROUP BY event_type
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       floor(CAST(n*sxy - sx*sy AS DOUBLE)
             / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE)) * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))
             * 1e6 + 0.5) / 1e6 AS corr_value_k
FROM s
"""


# ---------------------------------------------------------------------------
# per-user inter-arrival statistics: count, min/max/mean gap (microseconds)
# between consecutive events — the activity-cadence feature family. Gaps are
# integer microseconds end-to-end (the mean is the only float, sequenced
# identically to SQL), and the whole kernel is segment index algebra over
# the sorted partition.


def interarrival_stats(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id"])

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        gap = np.empty(uid.size, dtype=np.int64)
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        is_gap = ~head  # a gap row belongs to the user of its LATER event
        starts = np.flatnonzero(head)
        nseg = starts.size
        seg_id = np.cumsum(head) - 1
        n_gaps = np.bincount(seg_id[is_gap], minlength=nseg).astype(np.int64)
        sums = np.zeros(nseg, dtype=np.int64)
        np.add.at(sums, seg_id[is_gap], gap[is_gap])
        mins = np.full(nseg, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mins, seg_id[is_gap], gap[is_gap])
        maxs = np.full(nseg, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(maxs, seg_id[is_gap], gap[is_gap])
        has = n_gaps > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(has, sums.astype(np.float64) / n_gaps, np.nan)
        mean = np.floor(mean * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_gaps": pa.array(n_gaps, pa.int64()),
                "min_gap_us": pa.array(
                    np.where(has, mins, 0).astype(np.int64), pa.int64()
                ),
                "max_gap_us": pa.array(
                    np.where(has, maxs, 0).astype(np.int64), pa.int64()
                ),
                "mean_gap_us": pa.array(mean, pa.float64()),
            }
        )

    return partitioned_ordered(ds, kernel)


INTERARRIVAL_SQL = """
WITH g AS (
  SELECT user_id,
         date_diff('microsecond', lag(ts) OVER w, ts) AS gap
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
       CAST(count(gap) AS BIGINT) AS n_gaps,
       CAST(coalesce(min(gap), 0) AS BIGINT) AS min_gap_us,
       CAST(coalesce(max(gap), 0) AS BIGINT) AS max_gap_us,
       floor(CAST(sum(gap) AS DOUBLE) / count(gap) * 1e6 + 0.5) / 1e6 AS mean_gap_us
FROM g GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# tolerance-bounded as-of (staleness-capped LOCF): identical to asof_join
# but a carried signal older than ASOF_TOL_US is treated as missing — the
# freshness contract real feature stores enforce. One extra vectorized
# comparison on top of asof_index.

ASOF_TOL_US = 3 * 86_400_000_000  # 3 days


def asof_join_tolerance(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        eid = tbl.column("event_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        is_sig = pc.equal(tbl.column("event_type"), "signup").to_numpy(zero_copy_only=False)
        m = asof_index(uid, ts, is_sig, eid)
        # freshness: the carried signal must be within the tolerance window
        ok = (m >= 0) & (ts - ts[m] <= ASOF_TOL_US)
        av = np.where(ok, val[m], np.nan)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "asof_fresh_value": pa.array(av, pa.float64()),
                "is_fresh": pa.array(ok, pa.bool_()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ASOF_TOLERANCE_SQL = f"""
WITH signups AS (
  SELECT user_id, ts AS sig_ts, value AS sig_value
  FROM events WHERE event_type = 'signup'
), j AS (
  SELECT e.event_id, e.user_id, e.ts, s.sig_value, s.sig_ts
  FROM events e
  ASOF LEFT JOIN signups s
    ON e.user_id = s.user_id AND e.ts >= s.sig_ts
)
SELECT event_id, user_id, ts,
       CASE WHEN date_diff('microsecond', sig_ts, ts) <= {ASOF_TOL_US}
            THEN sig_value END AS asof_fresh_value,
       coalesce(date_diff('microsecond', sig_ts, ts) <= {ASOF_TOL_US}, FALSE)
         AS is_fresh
FROM j
"""


# ---------------------------------------------------------------------------
# fused point-in-time feature assembly: the training-matrix builder. ONE
# entity-hash shuffle + ONE sorted-partition kernel computes, per event:
# running lifetime state (count/sum), the bounded rolling-k window mean,
# the leakage-free as-of signup value, and the session id — the features a
# model actually consumes, assembled without re-shuffling per family. This
# is the fusion argument made executable: at 100 TB each extra feature
# family costs ZERO additional exchanges, only per-partition vector work.
# The SQL oracle states the same four features as four window expressions
# over one scan.


def feature_matrix(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        eid = tbl.column("event_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(val * 100 + 0.5).astype(np.int64)
        head = _seg_head(uid)
        seg_id = np.cumsum(head) - 1
        head_idx = np.nonzero(head)[0]
        ar = np.arange(n, dtype=np.int64)
        # lifetime running count / sum (integer cents)
        run_count = ar - head_idx[seg_id] + 1
        cs = np.cumsum(cents)
        run_sum = cs - (cs[head_idx] - cents[head_idx])[seg_id]
        # rolling-k mean over the same frame as `rolling`
        cstack = shifted_stack(cents.astype(np.float64), head, ROLL_K)
        rw_n = (~np.isnan(cstack)).sum(axis=0).astype(np.int64)
        rw_sum = np.nansum(cstack, axis=0)
        rw_mean = rw_sum / (100.0 * rw_n)
        # as-of signup value (signals-before-events tie rule, as asof_join)
        is_sig = pc.equal(tbl.column("event_type"), "signup").to_numpy(zero_copy_only=False)
        m = asof_index(uid, ts, is_sig, eid)
        asof_v = np.where(m >= 0, val[m], np.nan)
        # session id (same gap rule as sessionize)
        _, session_id, _ = gap_sessions(head, gap_seconds(head, ts), SESSION_GAP_S)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "run_count": pa.array(run_count, pa.int64()),
                "run_sum_cents": pa.array(run_sum, pa.int64()),
                "rw_mean_value": pa.array(rw_mean, pa.float64()),
                "asof_signup_value": pa.array(asof_v, pa.float64()),
                "session_id": pa.array(session_id, pa.int64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


FEATURE_MATRIX_SQL = f"""
WITH sig AS (
  SELECT event_id, user_id, ts,
         max(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) OVER wsig AS _has,
         last_value(CASE WHEN event_type = 'signup' THEN value END IGNORE NULLS)
           OVER wsig AS asof_signup_value
  FROM events
  WINDOW wsig AS (PARTITION BY user_id
                  ORDER BY ts, (CASE WHEN event_type = 'signup' THEN 0 ELSE 1 END), event_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
), base AS (
  SELECT event_id, user_id, ts,
         CAST(count(*) OVER w AS BIGINT) AS run_count,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
           AS run_sum_cents,
         sum(CAST(round(value * 100) AS BIGINT)) OVER wk
           / (100.0 * count(*) OVER wk) AS rw_mean_value,
         CASE WHEN date_diff('microsecond', lag(ts) OVER wo, ts) / 1000000.0
                   > {SESSION_GAP_S} THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w  AS (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
         wk AS (PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN {ROLL_K - 1} PRECEDING AND CURRENT ROW),
         wo AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT *, CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
              AS session_id
  FROM base
)
SELECT s.event_id, s.user_id, s.ts, s.run_count, s.run_sum_cents, s.rw_mean_value,
       g.asof_signup_value, s.session_id
FROM sess s JOIN sig g USING (event_id, user_id, ts)
"""


# ---------------------------------------------------------------------------
# retention cohort matrix: users grouped by the week of their FIRST signup
# (cohort), counted as active in each later week they have any event — the
# classic growth-analytics triangle. Because a user lives wholly inside one
# partition, the kernel emits each user's distinct (cohort_week, offset)
# rows exactly once; the final count-distinct is then a bounded
# (weeks x weeks) integer fold. Week truncation is Monday-aligned integer
# day arithmetic, identical to DuckDB's date_trunc('week').


def _week_start_days(ts_us: np.ndarray) -> np.ndarray:
    d = ts_us // 86_400_000_000
    return d - (d + 3) % 7  # epoch day 0 = Thursday; Monday-aligned


def retention_cohorts(sf_dir: str):
    ds = read_events(sf_dir, ["ts", "user_id", "event_type"])

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        is_sig = pc.equal(tbl.column("event_type"), "signup").to_numpy(zero_copy_only=False)
        week = _week_start_days(ts)
        head = _seg_head(uid)
        seg_id = np.cumsum(head) - 1
        nseg = int(seg_id[-1]) + 1 if uid.size else 0
        # first signup week per user (partition is (user, ts)-sorted)
        first_sig = np.full(nseg, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first_sig, seg_id[is_sig], week[is_sig])
        has = first_sig[seg_id] != np.iinfo(np.int64).max
        cohort = first_sig[seg_id]
        offset = (week - cohort) // 7
        keep = has & (offset >= 0)
        trip = np.stack(
            [uid[keep], cohort[keep], offset[keep]], axis=1
        )
        uniq = np.unique(trip, axis=0) if trip.size else trip.reshape(0, 3)
        return pa.table(
            {
                "cohort_day": pa.array(uniq[:, 1], pa.int64()),
                "week_offset": pa.array(uniq[:, 2], pa.int64()),
                "n_users": pa.array(np.ones(uniq.shape[0], np.int64), pa.int64()),
            }
        )

    agg: dict[tuple[int, int], int] = {}
    for r in partitioned_ordered(ds, kernel, order=("ts",)).take_all():  # bounded weeks^2
        key = (int(r["cohort_day"]), int(r["week_offset"]))
        agg[key] = agg.get(key, 0) + int(r["n_users"])
    rows = [
        (np.datetime64(0, "D") + np.timedelta64(cd, "D"), off, n)
        for (cd, off), n in sorted(agg.items())
    ]
    return pd.DataFrame(rows, columns=["cohort_week", "week_offset", "n_users"]).astype(
        {"cohort_week": "datetime64[us]"}
    )


RETENTION_COHORTS_SQL = """
WITH first_sig AS (
  SELECT user_id, CAST(date_trunc('week', min(ts)) AS TIMESTAMP) AS cohort_week
  FROM events WHERE event_type = 'signup' GROUP BY user_id
), act AS (
  SELECT DISTINCT e.user_id, f.cohort_week,
         date_diff('day', CAST(f.cohort_week AS DATE),
                   CAST(date_trunc('week', e.ts) AS DATE)) // 7 AS week_offset
  FROM events e JOIN first_sig f USING (user_id)
  WHERE date_trunc('week', e.ts) >= f.cohort_week
)
SELECT cohort_week, CAST(week_offset AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM act GROUP BY cohort_week, week_offset
"""


# ---------------------------------------------------------------------------
# session-level rollup: one row per (user, session) with event count,
# distinct event types, duration (us) and total value cents — aggregates
# over a DERIVED window (the session boundaries computed in the same
# kernel, not a stored key). Same gap rule as sessionize; all segment
# algebra, no per-session Python.


def session_stats(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        tcodes = pc.dictionary_encode(et).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        head = _seg_head(uid)
        sess_head, local_sid, _ = gap_sessions(head, gap_seconds(head, ts), SESSION_GAP_S)
        sid = np.cumsum(sess_head) - 1  # global session index within partition
        nsess = int(sid[-1]) + 1 if n else 0
        starts = np.flatnonzero(sess_head)
        n_events = np.diff(np.append(starts, n)).astype(np.int64)
        total_cents = np.zeros(nsess, dtype=np.int64)
        np.add.at(total_cents, sid, cents)
        dur = ts[np.append(starts[1:] - 1, n - 1)] - ts[starts] if n else np.empty(0, np.int64)
        # distinct types per session: unique (sid, tcode) pairs
        pair = sid * (tcodes.max() + 1 if n else 1) + tcodes
        uniq_pairs = np.unique(pair)
        n_types = np.bincount(
            (uniq_pairs // (tcodes.max() + 1 if n else 1)).astype(np.int64), minlength=nsess
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "session_id": pa.array(local_sid[starts], pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_types": pa.array(n_types, pa.int64()),
                "duration_us": pa.array(dur, pa.int64()),
                "total_cents": pa.array(total_cents, pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel)


SESSION_STATS_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, ts, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         CASE WHEN date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0
                   > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
              AS session_id
  FROM g
)
SELECT user_id, session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_types,
       CAST(date_diff('microsecond', min(ts), max(ts)) AS BIGINT) AS duration_us,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM s GROUP BY user_id, session_id
"""


# ---------------------------------------------------------------------------
# trailing TIME-window aggregate (RANGE frame, not ROWS): per event, the
# sum/count of the user's events in the last hour INCLUDING ts-peers — the
# true time-window feature (rolling-k is its row-count cousin). Vectorized
# with the monotone segment-offset trick: shifting each user's timestamps
# into a disjoint band turns per-user windowing into two global
# searchsorted calls (window start, peer end) against one sorted array; the
# prefix-sum difference gives every window sum at once.

TIME_WIN_US = 3_600_000_000  # 1 hour


def time_window_sum(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        head = _seg_head(uid)
        seg_id = np.cumsum(head) - 1
        if n:
            base = ts - ts.min()
            offset = int(base.max()) + 2 * TIME_WIN_US + 1
            nseg = int(seg_id[-1]) + 1
            if nseg * offset >= 2**62:  # survives python -O, unlike assert
                raise SchemaError(
                    f"time_window segment-band shift would overflow int64: "
                    f"{nseg} segments x {offset} us band. " + FEWER_USERS_PER_CALL
                )
            shifted = base + seg_id * offset
            lo = np.searchsorted(shifted, shifted - TIME_WIN_US, side="left")
            hi = np.searchsorted(shifted, shifted, side="right")  # include ts peers
            cs = np.concatenate([[0], np.cumsum(cents)])
            wsum = cs[hi] - cs[lo]
            wcount = hi - lo
        else:
            wsum = wcount = np.empty(0, np.int64)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "w1h_sum_cents": pa.array(wsum, pa.int64()),
                "w1h_count": pa.array(wcount.astype(np.int64), pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel, order=("ts", "event_id"))


TIME_WINDOW_SUM_SQL = """
SELECT event_id, user_id, ts,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS w1h_sum_cents,
       CAST(count(*) OVER w AS BIGINT) AS w1h_count
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# A/B experiment analysis: user_id parity assigns the arm (deterministic,
# SQL-expressible); per event type, mean value per arm, the lift, and the
# two-sample z statistic. All partials are integers (n, sum, sumsq cents
# per arm per type); the closing float algebra is sequenced identically to
# the SQL oracle and fixed-point rounded.


def ab_lift(sf_dir: str):
    ds = read_events(sf_dir, ["user_id", "event_type", "value"])

    def partial(tbl: pa.Table) -> pa.Table:
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        arm = (tbl.column("user_id").to_numpy() % 2).astype(np.int64)
        c = np.rint(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        uniq, codes = np.unique(tcol, return_inverse=True)
        m = uniq.size
        idx = codes * 2 + arm
        n = np.bincount(idx, minlength=2 * m).astype(np.int64)
        s1 = np.zeros(2 * m, dtype=np.int64)
        s2 = np.zeros(2 * m, dtype=np.int64)
        np.add.at(s1, idx, c)
        np.add.at(s2, idx, c * c)
        rep = np.repeat(np.arange(m), 2)
        return pa.table(
            {
                "event_type": pa.array([uniq[i] for i in rep], pa.string()),
                "arm": pa.array(np.tile([0, 1], m), pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s1": pa.array(s1, pa.int64()),
                "s2": pa.array(s2, pa.int64()),
            }
        )

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type", "arm"])
            .aggregate([("n", "sum"), ("s1", "sum"), ("s2", "sum")])
            .rename_columns(["event_type", "arm", "n", "s1", "s2"])
        )

    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    agg: dict[tuple[str, int], list[int]] = {}
    for r in folded.to_pylist() if folded is not None else []:
        cur = agg.setdefault((r["event_type"], int(r["arm"])), [0, 0, 0])
        cur[0] += r["n"]; cur[1] += r["s1"]; cur[2] += r["s2"]
    rows = []
    for t in sorted({k[0] for k in agg}):
        n0, a0, q0 = agg.get((t, 0), [0, 0, 0])
        n1, a1, q1 = agg.get((t, 1), [0, 0, 0])
        m0 = np.float64(a0) / n0
        m1 = np.float64(a1) / n1
        v0 = np.float64(q0) / n0 - m0 * m0
        v1 = np.float64(q1) / n1 - m1 * m1
        lift = (m1 - m0) / m0
        z = (m1 - m0) / np.sqrt(v0 / n0 + v1 / n1)
        f6 = lambda x: float(np.floor(x * 1e6 + 0.5) / 1e6)  # noqa: E731
        rows.append((t, n0, n1, f6(m0), f6(m1), f6(lift), f6(z)))
    return pd.DataFrame(
        rows,
        columns=["event_type", "n_control", "n_treat", "mean_control_cents",
                 "mean_treat_cents", "lift", "z_stat"],
    )


AB_LIFT_SQL = """
WITH d AS (
  SELECT event_type, user_id % 2 AS arm,
         CAST(round(value * 100) AS BIGINT) AS c
  FROM events
), s AS (
  SELECT event_type,
         sum(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS n0,
         sum(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS n1,
         sum(CASE WHEN arm = 0 THEN c ELSE 0 END) AS a0,
         sum(CASE WHEN arm = 1 THEN c ELSE 0 END) AS a1,
         sum(CASE WHEN arm = 0 THEN c * c ELSE 0 END) AS q0,
         sum(CASE WHEN arm = 1 THEN c * c ELSE 0 END) AS q1
  FROM d GROUP BY event_type
)
SELECT event_type,
       CAST(n0 AS BIGINT) AS n_control, CAST(n1 AS BIGINT) AS n_treat,
       floor(CAST(a0 AS DOUBLE) / n0 * 1e6 + 0.5) / 1e6 AS mean_control_cents,
       floor(CAST(a1 AS DOUBLE) / n1 * 1e6 + 0.5) / 1e6 AS mean_treat_cents,
       floor((CAST(a1 AS DOUBLE) / n1 - CAST(a0 AS DOUBLE) / n0)
             / (CAST(a0 AS DOUBLE) / n0) * 1e6 + 0.5) / 1e6 AS lift,
       floor((CAST(a1 AS DOUBLE) / n1 - CAST(a0 AS DOUBLE) / n0)
             / sqrt((CAST(q0 AS DOUBLE) / n0
                     - (CAST(a0 AS DOUBLE) / n0) * (CAST(a0 AS DOUBLE) / n0)) / n0
                  + (CAST(q1 AS DOUBLE) / n1
                     - (CAST(a1 AS DOUBLE) / n1) * (CAST(a1 AS DOUBLE) / n1)) / n1)
             * 1e6 + 0.5) / 1e6 AS z_stat
FROM s
"""


# ---------------------------------------------------------------------------
# robust (median/MAD) per-type scaling — the outlier-insensitive twin of
# zscore. Pass 1: exact per-type median through stages.window.grouped_quantiles
# (its interpolator is bit-identical to DuckDB quantile_cont). Pass 2: exact
# per-type median absolute deviation over the derived |value - med| column,
# same kernel. Pass 3: broadcast the <= |types| (median, mad) rows via
# ray.put and apply in one vectorized map stage. Each quantile pass ships
# only (type, value) pairs through its exchange; nothing else shuffles.


def robust_zscale(sf_dir: str) -> ray.data.Dataset:
    import ray as _ray

    from ..stages.window import grouped_quantiles

    med_df = grouped_quantiles(
        read_events(sf_dir, ["event_type", "value"]), "event_type", "value", {"med": 0.5}
    ).to_pandas()  # bounded: one row per event_type
    med = dict(zip(med_df["event_type"], med_df["med"]))
    med_ref = _ray.put(med)

    def adev(tbl: pa.Table) -> pa.Table:
        m = _ray.get(med_ref)
        t = tbl.column("event_type").to_numpy(zero_copy_only=False)
        v = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        uniq, codes = np.unique(t, return_inverse=True)
        meds = np.array([m[x] for x in uniq], dtype=np.float64)
        return pa.table(
            {
                "event_type": tbl.column("event_type"),
                "adev": pa.array(np.abs(v - meds[codes]), pa.float64()),
            }
        )

    mad_df = grouped_quantiles(
        read_events(sf_dir, ["event_type", "value"]).map_batches(adev, batch_format="pyarrow"),
        "event_type",
        "adev",
        {"mad": 0.5},
    ).to_pandas()  # bounded: one row per event_type
    mad = dict(zip(mad_df["event_type"], mad_df["mad"]))
    for t, v in mad.items():
        if not v > 0:
            raise SchemaError(f"robust_zscale: MAD is zero for event_type={t!r}")
    stats_ref = _ray.put((med, mad))

    def apply(tbl: pa.Table) -> pa.Table:
        m, d = _ray.get(stats_ref)
        t = tbl.column("event_type").to_numpy(zero_copy_only=False)
        v = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        uniq, codes = np.unique(t, return_inverse=True)
        meds = np.array([m[x] for x in uniq], dtype=np.float64)
        mads = np.array([d[x] for x in uniq], dtype=np.float64)
        rz = (v - meds[codes]) / mads[codes]
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "event_type": tbl.column("event_type"),
                "value": tbl.column("value"),
                "med": pa.array(meds[codes], pa.float64()),
                "mad": pa.array(mads[codes], pa.float64()),
                # same defensive 1e-6 rounding idiom as zscore/ab_lift
                "robust_z": pa.array(np.floor(rz * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    return read_events(sf_dir, ["event_id", "event_type", "value"]).map_batches(
        apply, batch_format="pyarrow"
    )


ROBUST_ZSCALE_SQL = """
WITH m AS (
  SELECT event_type, quantile_cont(value, 0.5) AS med
  FROM events GROUP BY event_type
), d AS (
  SELECT e.event_id, e.event_type, e.value, m.med
  FROM events e JOIN m USING (event_type)
), s AS (
  SELECT event_type, quantile_cont(abs(value - med), 0.5) AS mad
  FROM d GROUP BY event_type
)
SELECT d.event_id, d.event_type, d.value, d.med, s.mad,
       floor(((d.value - d.med) / s.mad) * 1e6 + 0.5) / 1e6 AS robust_z
FROM d JOIN s USING (event_type)
"""


# ---------------------------------------------------------------------------
# per-day exact COUNT(DISTINCT user_id): the windowed twin of
# events_distinct_users. Per-batch (day, user) unique combiner (each pair
# crosses the exchange at most once per batch), ONE hash exchange keyed on
# the (day, user) PAIR — so equal pairs co-locate and each partition's
# post-dedup per-day counts are disjoint partials — then a driver fold of
# <= days x P rows (days is a calendar-bounded domain, never data-sized).


WINDOW_DISTINCT_PARTS = 32
_DAY_US = np.int64(86_400_000_000)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _day_user_dedup(day: np.ndarray, u: np.ndarray):
    order = np.lexsort((u, day))
    d2, u2 = day[order], u[order]
    keep = np.r_[True, (d2[1:] != d2[:-1]) | (u2[1:] != u2[:-1])]
    return d2[keep], u2[keep]


def window_distinct(sf_dir: str):
    ds = read_events(sf_dir, ["ts", "user_id"])

    def partial(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        if ts.size and ts.min() < 0:
            # numpy // floors while date_trunc on pre-epoch timestamps would
            # need calendar logic; the fixture domain is post-epoch
            raise SchemaError("window_distinct requires non-negative timestamps")
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        day = (ts // _DAY_US) * _DAY_US
        d2, u2 = _day_user_dedup(day, u)
        h = (d2.astype(np.uint64) * GOLD) ^ (u2.astype(np.uint64) * _MIX2)
        pid = (h % np.uint64(WINDOW_DISTINCT_PARTS)).astype(np.int32)
        return pa.table(
            {
                "day": pa.array(d2, pa.int64()),
                "user_id": pa.array(u2, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def finish(tbl: pa.Table) -> pa.Table:
        day = tbl.column("day").to_numpy(zero_copy_only=False)
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        d2, _ = _day_user_dedup(day, u)
        uniq, counts = np.unique(d2, return_counts=True)
        return pa.table(
            {
                "day": pa.array(uniq, pa.int64()),
                "n_users": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    parts = exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "__pid", finish, WINDOW_DISTINCT_PARTS
    ).to_pandas()  # bounded: <= days x WINDOW_DISTINCT_PARTS rows
    out = parts.groupby("day", as_index=False)["n_users"].sum()
    out["day"] = out["day"].astype("datetime64[us]")
    return out.sort_values("day").reset_index(drop=True)


WINDOW_DISTINCT_SQL = """
SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
       count(DISTINCT user_id) AS n_users
FROM events
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# exact GLOBAL order statistics without a value exchange: median and p90 by
# distributed selection (stages.selection.multi_kth_smallest — iterative
# histogram narrowing, per-round exchange is (query, bin) counters only).
# The contrast operator to events_quantiles' full (key, value) co-location:
# this is the shape that still works when ONE group holds 100 TB of values.


def median_2pass(sf_dir: str):
    import math

    from ..stages.selection import multi_kth_smallest

    make = lambda: read_events(sf_dir, ["value"])  # noqa: E731 - fresh pass per round
    # ranks derive from n inside the helper's stats pass (no extra scan);
    # identical rank formulas to the SQL oracle's (n+1)//2 and ceil(0.9*n)
    n, vals = multi_kth_smallest(
        make, "value", lambda n: [(n + 1) // 2, int(math.ceil(0.9 * n))]
    )
    return pd.DataFrame({"n": [n], "median_lo": [vals[0]], "p90_lo": [vals[1]]})


MEDIAN_2PASS_SQL = """
WITH s AS (
  SELECT value,
         row_number() OVER (ORDER BY value) AS rn,
         count(*) OVER () AS n
  FROM events
)
SELECT max(n) AS n,
       max(CASE WHEN rn = (n + 1) // 2 THEN value END) AS median_lo,
       max(CASE WHEN rn = CAST(ceil(0.9 * n) AS BIGINT) THEN value END) AS p90_lo
FROM s
"""


# ---------------------------------------------------------------------------
# ML feature-engineering transforms over events. Shape for all three: ONE
# bounded stats fold (per-category sums / global extremes — a handful of
# rows) broadcast back into a second streaming pass that emits one feature
# row per event; the stats never exceed #categories and the data pass never
# shuffles. Exactness: cents + pure int64 floor division on BOTH sides (no
# float division order to drift).

TARGET_ENC_U = np.int64(1_000_000)  # micro-cents per unit


def target_encode(sf_dir: str) -> ray.data.Dataset:
    """Leave-one-out target encoding of event_type against value: for each
    event, the mean value (micro-cents, floored) of all OTHER events of the
    same category; singleton categories fall back to the global mean."""
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["event_id", "event_type", "value"])

    def stat_partial(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        de = pc.dictionary_encode(tbl.column("event_type").combine_chunks() if isinstance(tbl.column("event_type"), pa.ChunkedArray) else tbl.column("event_type"))
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(de.dictionary)
        s = np.zeros(k, dtype=np.int64)
        n = np.zeros(k, dtype=np.int64)
        np.add.at(s, codes, vc)
        np.add.at(n, codes, 1)
        return pa.table(
            {
                "event_type": de.dictionary,
                "s": pa.array(s, pa.int64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    st = exchange_fold(
        ev.map_batches(stat_partial, batch_format="pyarrow"),
        lambda t: t.group_by("event_type")
        .aggregate([("s", "sum"), ("n", "sum")])
        .rename_columns(["event_type", "s", "n"]),
        pid_of=lambda t: (
            np.arange(t.num_rows, dtype=np.int64) % 8
        ).astype(np.int32),
    )
    if st is None:
        return pd.DataFrame(
            {
                "event_id": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=object),
                "loo_enc_u": pd.Series([], dtype=np.int64),
            }
        )
    st = (
        st.group_by("event_type")
        .aggregate([("s", "sum"), ("n", "sum")])
        .rename_columns(["event_type", "s", "n"])
    )
    types = st.column("event_type").combine_chunks()
    s_arr = st.column("s").to_numpy()
    n_arr = st.column("n").to_numpy()
    g_mean_u = (int(s_arr.sum()) * TARGET_ENC_U) // max(int(n_arr.sum()), 1)
    ref = ray.put((types, s_arr, n_arr, np.int64(g_mean_u)))

    def encode(tbl: pa.Table) -> pa.Table:
        ty, s, n, gm = ray.get(ref)
        idx = pc.index_in(tbl.column("event_type"), value_set=ty).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        sc, nc = s[idx], n[idx]
        loo = np.where(
            nc > 1,
            ((sc - vc) * TARGET_ENC_U) // np.maximum(nc - 1, 1),
            gm,
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "event_type": tbl.column("event_type"),
                "loo_enc_u": pa.array(loo, pa.int64()),
            }
        )

    return ev.map_batches(encode, batch_format="pyarrow")


TARGET_ENCODE_SQL = """
WITH v AS (SELECT event_id, event_type,
                  CAST(round(value * 100) AS BIGINT) AS vc FROM events),
g AS (SELECT event_type, CAST(sum(vc) AS BIGINT) AS s, count(*) AS n
      FROM v GROUP BY 1),
t AS (SELECT CAST(sum(vc) AS BIGINT) AS ts, count(*) AS tn FROM v)
SELECT event_id, v.event_type,
       CASE WHEN g.n > 1 THEN ((g.s - v.vc) * 1000000) // (g.n - 1)
            ELSE (t.ts * 1000000) // t.tn END AS loo_enc_u
FROM v JOIN g USING (event_type), t
"""


VALUE_BINS = 16


def value_bins(sf_dir: str) -> ray.data.Dataset:
    """Equal-width binning of value into VALUE_BINS buckets over the exact
    global [min, max] cent range (the classic numeric-feature discretizer).
    Stats pass folds two ints; the data pass is shuffle-free."""
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["event_id", "value"])

    def mm_partial(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        if vc.size == 0:
            return pa.table({"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        return pa.table(
            {"lo": pa.array([int(vc.min())], pa.int64()), "hi": pa.array([int(vc.max())], pa.int64())}
        )

    st = exchange_fold(
        ev.map_batches(mm_partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "lo": pa.array([int(pc.min(t.column("lo")).as_py())], pa.int64()),
                "hi": pa.array([int(pc.max(t.column("hi")).as_py())], pa.int64()),
            }
        ),
    )
    if st is None:
        return pd.DataFrame(
            {"event_id": pd.Series([], dtype=np.int64), "bin": pd.Series([], dtype=np.int64)}
        )
    lo = int(pc.min(st.column("lo")).as_py())
    hi = int(pc.max(st.column("hi")).as_py())
    span = np.int64(hi - lo + 1)
    nb = np.int64(VALUE_BINS)

    def assign(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        b = (vc - np.int64(lo)) * nb // span
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "bin": pa.array(np.minimum(b, nb - 1), pa.int64()),
            }
        )

    return ev.map_batches(assign, batch_format="pyarrow")


VALUE_BINS_SQL = f"""
WITH v AS (SELECT event_id, CAST(round(value * 100) AS BIGINT) AS vc FROM events),
mm AS (SELECT min(vc) AS lo, max(vc) AS hi FROM v)
SELECT event_id,
       least((vc - lo) * {VALUE_BINS} // (hi - lo + 1), {VALUE_BINS} - 1) AS bin
FROM v, mm
"""


def time_features(sf_dir: str) -> ray.data.Dataset:
    """Integer calendar features per event (hour-of-day, day-of-week with
    Sunday=0, weekend flag, days since epoch) — the date-part expansion of
    feature pipelines, batch-local and shuffle-free, int64-exact."""
    ev = read_events(sf_dir, ["event_id", "ts"])
    day_us = np.int64(86_400_000_000)
    hour_us = np.int64(3_600_000_000)

    def feats(tbl: pa.Table) -> pa.Table:
        us = tbl.column("ts").cast(pa.int64()).to_numpy()
        days = us // day_us
        hour = (us // hour_us) % np.int64(24)
        dow = (days + np.int64(4)) % np.int64(7)  # 1970-01-01 is a Thursday
        wk = ((dow == 0) | (dow == 6)).astype(np.int64)
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "hour": pa.array(hour, pa.int64()),
                "dow": pa.array(dow, pa.int64()),
                "is_weekend": pa.array(wk, pa.int64()),
                "epoch_day": pa.array(days, pa.int64()),
            }
        )

    return ev.map_batches(feats, batch_format="pyarrow")


TIME_FEATURES_SQL = """
SELECT event_id,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(CASE WHEN dayofweek(ts) IN (0, 6) THEN 1 ELSE 0 END AS BIGINT)
         AS is_weekend,
       CAST(floor(epoch(ts) / 86400) AS BIGINT) AS epoch_day
FROM events
"""


QBIN_QS = (0.25, 0.5, 0.75)


def quantile_bins(sf_dir: str) -> ray.data.Dataset:
    """Equal-frequency (quartile) binning: exact global quartile boundaries
    via the distributed histogram-narrowing selection (same machinery as
    median_2pass — counter-only exchanges, no value shuffle), then a
    shuffle-free assignment pass. Boundary convention: k-th smallest at
    rank ceil(q*n); bin = #boundaries strictly below the value (raw-double
    comparisons, no arithmetic to drift)."""
    import math

    import pyarrow.parquet as _pq

    from ..stages.selection import multi_kth_smallest

    if _pq.read_metadata(f"{sf_dir}/events.parquet").num_rows == 0:
        return pd.DataFrame(
            {"event_id": pd.Series([], dtype=np.int64), "qbin": pd.Series([], dtype=np.int64)}
        )
    make = lambda: read_events(sf_dir, ["value"])  # noqa: E731
    _n, bounds = multi_kth_smallest(
        make, "value", lambda n: [int(math.ceil(q * n)) for q in QBIN_QS]
    )
    b = np.asarray(bounds, dtype=np.float64)

    def assign(tbl: pa.Table) -> pa.Table:
        v = tbl.column("value").to_numpy(zero_copy_only=False)
        qbin = (v[:, None] > b[None, :]).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "qbin": pa.array(qbin, pa.int64()),
            }
        )

    return read_events(sf_dir, ["event_id", "value"]).map_batches(
        assign, batch_format="pyarrow"
    )


QUANTILE_BINS_SQL = f"""
WITH s AS (
  SELECT value, row_number() OVER (ORDER BY value) AS rn,
         count(*) OVER () AS n
  FROM events
),
b AS (SELECT
  max(CASE WHEN rn = CAST(ceil({QBIN_QS[0]} * n) AS BIGINT) THEN value END) AS q1,
  max(CASE WHEN rn = CAST(ceil({QBIN_QS[1]} * n) AS BIGINT) THEN value END) AS q2,
  max(CASE WHEN rn = CAST(ceil({QBIN_QS[2]} * n) AS BIGINT) THEN value END) AS q3
  FROM s)
SELECT event_id,
       CAST(CASE WHEN value > q1 THEN 1 ELSE 0 END
          + CASE WHEN value > q2 THEN 1 ELSE 0 END
          + CASE WHEN value > q3 THEN 1 ELSE 0 END AS BIGINT) AS qbin
FROM events, b
"""


def user_rfm(sf_dir: str) -> ray.data.Dataset:
    """Per-user RFM feature table (recency in days vs the corpus max event
    day, frequency, monetary in cents). ONE user-keyed exchange finalizes
    per-user rows; the corpus max folds from 1-row-per-block partials of the
    bounded per-user intermediate, never from raw events."""
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["user_id", "ts", "value"])
    day_us = np.int64(86_400_000_000)

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        us = tbl.column("ts").cast(pa.int64()).to_numpy()
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uniq, inv = np.unique(uid, return_inverse=True)
        last = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, inv, us)
        n = np.zeros(uniq.size, dtype=np.int64)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(n, inv, 1)
        np.add.at(s, inv, vc)
        pid = (avalanche64(uniq.astype(np.uint64)) % np.uint64(NUM_PARTITIONS)).astype(np.int32)
        return pa.table(
            {
                "user_id": pa.array(uniq, pa.int64()),
                "last_us": pa.array(last, pa.int64()),
                "frequency": pa.array(n, pa.int64()),
                "monetary_c": pa.array(s, pa.int64()),
                "__pid": pa.array(pid),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        uniq, inv = np.unique(uid, return_inverse=True)
        last = np.full(uniq.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, inv, tbl.column("last_us").to_numpy())
        n = np.zeros(uniq.size, dtype=np.int64)
        s = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(n, inv, tbl.column("frequency").to_numpy())
        np.add.at(s, inv, tbl.column("monetary_c").to_numpy())
        return pa.table(
            {
                "user_id": pa.array(uniq, pa.int64()),
                "last_us": pa.array(last, pa.int64()),
                "frequency": pa.array(n, pa.int64()),
                "monetary_c": pa.array(s, pa.int64()),
            }
        )

    per_user = exchange(
        ev.map_batches(partial, batch_format="pyarrow"), "__pid", fold, NUM_PARTITIONS
    ).materialize()  # bounded: one row per user
    mx_tbl = exchange_fold(
        per_user.map_batches(
            lambda t: pa.table(
                {"m": pa.array([int(pc.max(t.column("last_us")).as_py())], pa.int64())}
            )
            if t.num_rows
            else pa.table({"m": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        ),
        lambda t: pa.table({"m": pa.array([int(pc.max(t.column("m")).as_py())], pa.int64())}),
    )
    max_day = int(pc.max(mx_tbl.column("m")).as_py()) // int(day_us) if mx_tbl is not None else 0

    def finish(tbl: pa.Table) -> pa.Table:
        rec = np.int64(max_day) - tbl.column("last_us").to_numpy() // day_us
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "recency_days": pa.array(rec, pa.int64()),
                "frequency": tbl.column("frequency"),
                "monetary_c": tbl.column("monetary_c"),
            }
        )

    return per_user.map_batches(finish, batch_format="pyarrow")


USER_RFM_SQL = """
WITH u AS (SELECT user_id,
                  CAST(floor(epoch(max(ts)) / 86400) AS BIGINT) AS last_day,
                  count(*) AS frequency,
                  CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                    AS monetary_c
           FROM events GROUP BY 1),
m AS (SELECT max(last_day) AS max_day FROM u)
SELECT user_id, max_day - last_day AS recency_days, frequency, monetary_c
FROM u, m
"""


def psi_drift(sf_dir: str):
    """Population Stability Index scan between the two deterministic halves
    of the stream (event_id parity): equal-width cent bins over the exact
    global range, per-(bin, half) counts folded through ONE bounded
    exchange (VALUE_BINS x 2 ints), PSI terms computed from the bounded
    counts. Exactness: each term (p1-p2)*ln(p1/p2) rounds to integer 1e-9
    units before any summation (zero-count bins contribute 0 by the
    standard convention), so the engine and the SQL oracle cannot drift on
    float addition order."""
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["event_id", "value"])

    def mm_partial(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        if vc.size == 0:
            return pa.table({"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        return pa.table(
            {"lo": pa.array([int(vc.min())], pa.int64()), "hi": pa.array([int(vc.max())], pa.int64())}
        )

    st = exchange_fold(
        ev.map_batches(mm_partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "lo": pa.array([int(pc.min(t.column("lo")).as_py())], pa.int64()),
                "hi": pa.array([int(pc.max(t.column("hi")).as_py())], pa.int64()),
            }
        ),
    )
    if st is None:
        z = np.zeros(VALUE_BINS, dtype=np.int64)
        return pd.DataFrame(
            {"bin": np.arange(VALUE_BINS, dtype=np.int64), "n_first": z,
             "n_second": z, "psi_term_n": z}
        )
    lo = int(pc.min(st.column("lo")).as_py())
    hi = int(pc.max(st.column("hi")).as_py())
    span = np.int64(hi - lo + 1)
    nb = np.int64(VALUE_BINS)

    def cnt_partial(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        b = np.minimum((vc - np.int64(lo)) * nb // span, nb - 1)
        half = tbl.column("event_id").to_numpy() % 2
        c0 = np.bincount(b[half == 0], minlength=int(nb)).astype(np.int64)
        c1 = np.bincount(b[half == 1], minlength=int(nb)).astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(np.arange(int(nb), dtype=np.int64), pa.int64()),
                "n_first": pa.array(c0, pa.int64()),
                "n_second": pa.array(c1, pa.int64()),
            }
        )

    folded = exchange_fold(
        ev.map_batches(cnt_partial, batch_format="pyarrow"),
        lambda t: t.group_by("bin")
        .aggregate([("n_first", "sum"), ("n_second", "sum")])
        .rename_columns(["bin", "n_first", "n_second"]),
        pid_of=lambda t: (t.column("bin").to_numpy().astype(np.uint64) % np.uint64(8)).astype(
            np.int32
        ),
    )
    if folded is None:
        z = np.zeros(VALUE_BINS, dtype=np.int64)
        return pd.DataFrame(
            {"bin": np.arange(VALUE_BINS, dtype=np.int64), "n_first": z,
             "n_second": z, "psi_term_n": z}
        )
    tbl = (
        folded.group_by("bin")
        .aggregate([("n_first", "sum"), ("n_second", "sum")])
        .rename_columns(["bin", "n_first", "n_second"])
    )
    c0 = np.zeros(int(nb), dtype=np.int64)
    c1 = np.zeros(int(nb), dtype=np.int64)
    bi = tbl.column("bin").to_numpy()
    c0[bi] = tbl.column("n_first").to_numpy()
    c1[bi] = tbl.column("n_second").to_numpy()
    t0, t1 = int(c0.sum()), int(c1.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = c0 / max(t0, 1)
        p1 = c1 / max(t1, 1)
        term = (p0 - p1) * np.log(p0 / p1)
    term_n = np.where(
        (c0 > 0) & (c1 > 0), np.floor(term * 1e9 + 0.5), 0.0
    ).astype(np.int64)
    return pd.DataFrame(
        {
            "bin": np.arange(int(nb), dtype=np.int64),
            "n_first": c0,
            "n_second": c1,
            "psi_term_n": term_n,
        }
    )


PSI_DRIFT_SQL = f"""
WITH v AS (SELECT event_id, CAST(round(value * 100) AS BIGINT) AS vc FROM events),
mm AS (SELECT min(vc) AS lo, max(vc) AS hi FROM v),
bnd AS (SELECT event_id % 2 AS half,
               least((vc - lo) * {VALUE_BINS} // (hi - lo + 1), {VALUE_BINS} - 1)
                 AS bin
        FROM v, mm),
c AS (SELECT b.bin,
             CAST(coalesce(sum(CASE WHEN half = 0 THEN 1 ELSE 0 END), 0) AS BIGINT)
               AS n_first,
             CAST(coalesce(sum(CASE WHEN half = 1 THEN 1 ELSE 0 END), 0) AS BIGINT)
               AS n_second
      FROM (SELECT unnest(range(0, {VALUE_BINS})) AS bin) b
      LEFT JOIN bnd ON bnd.bin = b.bin
      GROUP BY 1),
t AS (SELECT sum(n_first) AS t0, sum(n_second) AS t1 FROM c)
SELECT bin, n_first, n_second,
       CASE WHEN n_first > 0 AND n_second > 0 THEN
         CAST(floor((CAST(n_first AS DOUBLE) / t0 - CAST(n_second AS DOUBLE) / t1)
              * ln((CAST(n_first AS DOUBLE) / t0) / (CAST(n_second AS DOUBLE) / t1))
              * 1e9 + 0.5) AS BIGINT)
       ELSE 0 END AS psi_term_n
FROM c, t ORDER BY bin
"""


def value_ecdf(sf_dir: str) -> ray.data.Dataset:
    """Exact grouped ECDF feature: for every event, the count of same-type
    events with STRICTLY smaller value (= rank()-1 under min-rank ties) and
    the type's total count — the integer form of a percentile feature, no
    division to drift. Scale shape: values are 2-decimal cents, so the
    distinct (type, cent) domain is bounded (types x cent-span); ONE keyed
    exchange folds per-(type,cent) counts, the bounded count table cumsums
    driver-side and broadcasts, and the assignment pass is shuffle-free.
    Unlike a per-type sort, no data-sized exchange ever happens."""
    from ..functions.hashing import string_hash_strong
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["event_id", "event_type", "value"])

    def cnt_partial(tbl: pa.Table) -> pa.Table:
        ty = tbl.column("event_type")
        de = pc.dictionary_encode(ty.combine_chunks() if isinstance(ty, pa.ChunkedArray) else ty)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        k = max(len(de.dictionary), 1)
        key = codes * np.int64(1 << 32) + vc  # vc >= 0 (guarded by domain)
        uniq, inv = np.unique(key, return_inverse=True)
        n = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(n, inv, 1)
        tcode = (uniq >> np.int64(32)).astype(np.int64)
        return pa.table(
            {
                "event_type": de.dictionary.take(pa.array(tcode)),
                "vc": pa.array(uniq & np.int64((1 << 32) - 1), pa.int64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    folded = exchange_fold(
        ev.map_batches(cnt_partial, batch_format="pyarrow"),
        lambda t: t.group_by(["event_type", "vc"])
        .aggregate([("n", "sum")])
        .rename_columns(["event_type", "vc", "n"]),
        pid_of=lambda t: (
            string_hash_strong(t.column("event_type")) % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {
                "event_id": pd.Series([], dtype=np.int64),
                "lt_count": pd.Series([], dtype=np.int64),
                "n_type": pd.Series([], dtype=np.int64),
            }
        )
    cnt = (
        folded.group_by(["event_type", "vc"])
        .aggregate([("n", "sum")])
        .rename_columns(["event_type", "vc", "n"])
    )
    # bounded: types x distinct cent values; cumsum per type driver-side
    ty = np.asarray(cnt.column("event_type").to_numpy(zero_copy_only=False)).astype(str)
    vc = cnt.column("vc").to_numpy()
    n = cnt.column("n").to_numpy()
    order = np.lexsort((vc, ty))
    ty, vc, n = ty[order], vc[order], n[order]
    head = np.ones(ty.size, dtype=bool)
    head[1:] = ty[1:] != ty[:-1]
    csum = np.cumsum(n) - n  # strictly-less counts within the running group
    grp_start = np.maximum.accumulate(np.where(head, np.arange(ty.size), 0))
    base = (np.cumsum(n) - n)[grp_start]
    lt = csum - base
    gid = np.cumsum(head) - 1
    tsum = np.zeros(int(gid[-1]) + 1, dtype=np.int64)
    np.add.at(tsum, gid, n)
    tot = tsum[gid]
    ref = ray.put((ty, vc, lt, tot, head))

    def assign(tbl: pa.Table) -> pa.Table:
        ty_s, vc_s, lt_s, tot_s, head_s = ray.get(ref)
        t = tbl.column("event_type")
        tarr = np.asarray(t.to_numpy(zero_copy_only=False)).astype(str)
        v = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        # locate each (type, vc) row in the bounded sorted table
        starts = np.flatnonzero(head_s)
        ends = np.append(starts[1:], ty_s.size)
        gi = np.searchsorted(ty_s[starts], tarr)
        idx = np.empty(tarr.size, dtype=np.int64)
        for g in np.unique(gi):  # bounded: one iteration per event TYPE
            m = gi == g
            s, e = int(starts[g]), int(ends[g])
            idx[m] = s + np.searchsorted(vc_s[s:e], v[m])
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "lt_count": pa.array(lt_s[idx], pa.int64()),
                "n_type": pa.array(tot_s[idx], pa.int64()),
            }
        )

    return ev.map_batches(assign, batch_format="pyarrow")


VALUE_ECDF_SQL = """
WITH v AS (SELECT event_id, event_type,
                  CAST(round(value * 100) AS BIGINT) AS vc FROM events)
SELECT event_id,
       CAST(rank() OVER (PARTITION BY event_type ORDER BY vc) - 1 AS BIGINT)
         AS lt_count,
       CAST(count(*) OVER (PARTITION BY event_type) AS BIGINT) AS n_type
FROM v
"""


def cusum_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-user CUSUM change-point statistic in the scaled-integer domain:
    with per-user count n and cent-sum s, S_i = n*cumsum(vc)_i - i*s (the
    mean-centered cumulative sum scaled by n so everything stays int64),
    and cusum_scaled = max_i (S_i - min_{j<=i} S_j) — the maximum upward
    drift vs the running minimum, 0 for a drift-free stream. One
    user-keyed exchange (the sessionize contract: every user's rows arrive
    ordered in one kernel call); the segmented running min uses log2(n)
    prefix-doubling passes — vectorized, exact, no per-user Python loop."""

    def kernel(tbl: pa.Table) -> pa.Table:
        n_rows = tbl.num_rows
        uid = tbl.column("user_id").to_numpy()
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        head = _seg_head(uid)
        gid = np.cumsum(head) - 1
        n_u = np.bincount(gid).astype(np.int64)  # rows per user segment
        s_u = np.zeros(n_u.size, dtype=np.int64)
        np.add.at(s_u, gid, vc)
        ar = np.arange(n_rows, dtype=np.int64)
        seg_start = np.repeat(np.flatnonzero(head), n_u)
        i_in = ar - seg_start + 1  # 1-indexed position within the segment
        cs = np.cumsum(vc)
        base = np.repeat(cs[np.flatnonzero(head)] - vc[np.flatnonzero(head)], n_u)
        seg_cs = cs - base  # segmented cumsum of vc
        S = n_u[gid] * seg_cs - i_in * s_u[gid]
        # segmented running min by prefix doubling
        m = S.copy()
        dist = i_in - 1
        shift = 1
        while shift < n_rows:
            can = dist >= shift
            if not can.any():
                break
            src = np.flatnonzero(can)
            m[src] = np.minimum(m[src], m[src - shift])
            shift *= 2
        dd = S - m
        out_max = np.zeros(n_u.size, dtype=np.int64)
        np.maximum.at(out_max, gid, dd)
        users = uid[head]
        return pa.table(
            {
                "user_id": pa.array(users.astype(np.int64), pa.int64()),
                "n": pa.array(n_u, pa.int64()),
                "cusum_scaled": pa.array(out_max, pa.int64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


CUSUM_SQL = """
WITH v AS (SELECT user_id, event_id, ts,
                  CAST(round(value * 100) AS BIGINT) AS vc FROM events),
u AS (SELECT user_id, count(*) AS n, CAST(sum(vc) AS BIGINT) AS s
      FROM v GROUP BY 1),
c AS (SELECT v.user_id, v.ts, v.event_id, u.n,
             u.n * sum(vc) OVER w - row_number() OVER w * u.s AS S
      FROM v JOIN u USING (user_id)
      WINDOW w AS (PARTITION BY v.user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING)),
d AS (SELECT user_id, n,
             S - min(S) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS dd
      FROM c)
SELECT user_id, max(n) AS n, CAST(max(dd) AS BIGINT) AS cusum_scaled
FROM d GROUP BY user_id
"""


def benford_digits(sf_dir: str):
    """First-significant-digit histogram of value cents (Benford's-law data
    quality audit). Digit extraction is pure integer repeated division (<= 6
    vectorized passes for cent magnitudes), counts fold through one bounded
    exchange (9 rows)."""
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["value"])

    def partial(tbl: pa.Table) -> pa.Table:
        vc = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        d = vc[vc > 0].copy()
        while (d >= 10).any():
            big = d >= 10
            d[big] //= 10
        cnt = np.bincount(d, minlength=10)[1:10].astype(np.int64)
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64), pa.int64()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    folded = exchange_fold(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda t: t.group_by("digit").aggregate([("n", "sum")]).rename_columns(["digit", "n"]),
        pid_of=lambda t: (t.column("digit").to_numpy().astype(np.uint64) % np.uint64(8)).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {"digit": np.arange(1, 10, dtype=np.int64), "n": np.zeros(9, dtype=np.int64)}
        )
    df = (
        folded.to_pandas().groupby("digit", as_index=False)["n"].sum().sort_values("digit")
    )
    return df.reset_index(drop=True)


BENFORD_SQL = """
WITH v AS (SELECT CAST(round(value * 100) AS BIGINT) AS vc FROM events),
d AS (SELECT CAST(left(CAST(vc AS VARCHAR), 1) AS BIGINT) AS digit
      FROM v WHERE vc > 0)
SELECT g.digit, CAST(coalesce(count(d.digit), 0) AS BIGINT) AS n
FROM (SELECT unnest(range(1, 10)) AS digit) g
LEFT JOIN d ON d.digit = g.digit
GROUP BY 1 ORDER BY 1
"""


def daily_last(sf_dir: str) -> ray.data.Dataset:
    """Temporal downsampling: keep each user's LAST event per calendar day
    (ties on ts broken by max event_id) — the resample-to-daily step of a
    user-feature pipeline. Same one-exchange ordered-kernel contract as
    sessionize."""
    day_us = np.int64(86_400_000_000)

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        day = ts // day_us
        n = tbl.num_rows
        last = np.ones(n, dtype=bool)
        if n > 1:
            # rows arrive sorted (user, ts, event_id): a row is the day's
            # last iff the next row starts a new (user, day)
            last[:-1] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        out = tbl.take(pa.array(np.flatnonzero(last)))
        return pa.table(
            {
                "event_id": out.column("event_id").cast(pa.int64()),
                "user_id": out.column("user_id").cast(pa.int64()),
                "epoch_day": pa.array(day[last], pa.int64()),
                "value": out.column("value"),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


DAILY_LAST_SQL = """
WITH v AS (SELECT event_id, user_id,
                  CAST(floor(epoch(ts) / 86400) AS BIGINT) AS epoch_day,
                  value, ts,
                  row_number() OVER (PARTITION BY user_id,
                                     CAST(floor(epoch(ts) / 86400) AS BIGINT)
                                     ORDER BY ts DESC, event_id DESC) AS rn
           FROM events)
SELECT event_id, user_id, epoch_day, value FROM v WHERE rn = 1
"""


FEATURE_CROSS_D = 64


def feature_cross(sf_dir: str) -> ray.data.Dataset:
    """Crossed categorical feature: (event_type rank x 24 + hour) mod D —
    the hashed-cross-column trick with a transparent modular formula so the
    SQL oracle reproduces it exactly. The type->rank map is the broadcast
    sorted distinct-type list (bounded)."""
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["event_id", "event_type", "ts"])

    def types_partial(tbl: pa.Table) -> pa.Table:
        ty = tbl.column("event_type")
        u = pc.unique(ty.combine_chunks() if isinstance(ty, pa.ChunkedArray) else ty)
        return pa.table({"event_type": u})

    st = exchange_fold(
        ev.map_batches(types_partial, batch_format="pyarrow"),
        lambda t: pa.table({"event_type": pc.unique(t.column("event_type").combine_chunks())}),
    )
    if st is None:
        return pd.DataFrame(
            {"event_id": pd.Series([], dtype=np.int64), "cross_id": pd.Series([], dtype=np.int64)}
        )
    types = np.sort(
        np.asarray(pc.unique(st.column("event_type").combine_chunks()).to_numpy(zero_copy_only=False)).astype(str)
    )
    ref = ray.put(types)
    hour_us = np.int64(3_600_000_000)

    def assign(tbl: pa.Table) -> pa.Table:
        ty_sorted = ray.get(ref)
        tarr = np.asarray(
            tbl.column("event_type").to_numpy(zero_copy_only=False)
        ).astype(str)
        rank = np.searchsorted(ty_sorted, tarr)
        hour = (tbl.column("ts").cast(pa.int64()).to_numpy() // hour_us) % np.int64(24)
        cross = (rank.astype(np.int64) * 24 + hour) % np.int64(FEATURE_CROSS_D)
        return pa.table(
            {
                "event_id": tbl.column("event_id").cast(pa.int64()),
                "cross_id": pa.array(cross, pa.int64()),
            }
        )

    return ev.map_batches(assign, batch_format="pyarrow")


FEATURE_CROSS_SQL = f"""
WITH r AS (SELECT event_type,
                  CAST(rank() OVER (ORDER BY event_type) - 1 AS BIGINT) AS trank
           FROM (SELECT DISTINCT event_type FROM events))
SELECT event_id,
       (r.trank * 24 + CAST(hour(ts) AS BIGINT)) % {FEATURE_CROSS_D} AS cross_id
FROM events JOIN r USING (event_type)
"""


def ab_srm(sf_dir: str):
    """Sample-ratio-mismatch guardrail for the user_id%2 A/B assignment of
    ab_lift: per-arm DISTINCT-USER counts (assignment is per user, so SRM
    audits users, not events) and the 2-cell chi-square against a 50/50
    split in 1e-6 integer units: chi2_e6 = floor((u0-u1)^2 * 1e6 / (u0+u1)).
    Distinct users per arm ride the same hash-exchange idiom as
    events_distinct_users; everything after is a bounded 2-row fold."""
    from ..functions.hashing import avalanche64
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["user_id"])

    def partial(tbl: pa.Table) -> pa.Table:
        uid = np.unique(tbl.column("user_id").to_numpy())
        pid = (avalanche64(uid.astype(np.uint64)) % np.uint64(NUM_PARTITIONS)).astype(np.int32)
        return pa.table({"user_id": pa.array(uid, pa.int64()), "__pid": pa.array(pid)})

    def arm_counts(tbl: pa.Table) -> pa.Table:
        u = np.unique(tbl.column("user_id").to_numpy())
        return pa.table(
            {
                "arm": pa.array([0, 1], pa.int64()),
                "n_users": pa.array([int((u % 2 == 0).sum()), int((u % 2 == 1).sum())], pa.int64()),
            }
        )

    per_arm = exchange(
        ev.map_batches(partial, batch_format="pyarrow"), "__pid", arm_counts, NUM_PARTITIONS
    )
    folded = exchange_fold(
        per_arm,
        lambda t: t.group_by("arm").aggregate([("n_users", "sum")]).rename_columns(["arm", "n_users"]),
        pid_of=lambda t: t.column("arm").to_numpy().astype(np.int32) % np.int32(2),
    )
    u = np.zeros(2, dtype=np.int64)
    if folded is not None:
        tb = (
            folded.group_by("arm").aggregate([("n_users", "sum")]).rename_columns(["arm", "n_users"])
        )
        u[tb.column("arm").to_numpy()] = tb.column("n_users").to_numpy()
    tot = int(u.sum())
    chi2_e6 = ((int(u[0]) - int(u[1])) ** 2 * 1_000_000) // tot if tot else 0
    return pd.DataFrame(
        {
            "users_arm0": [np.int64(u[0])],
            "users_arm1": [np.int64(u[1])],
            "chi2_e6": [np.int64(chi2_e6)],
        }
    )


AB_SRM_SQL = """
WITH u AS (SELECT DISTINCT user_id FROM events),
c AS (SELECT CAST(sum(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT) AS u0,
             CAST(sum(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END) AS BIGINT) AS u1
      FROM u)
SELECT u0 AS users_arm0, u1 AS users_arm1,
       CASE WHEN u0 + u1 > 0
            THEN ((u0 - u1) * (u0 - u1) * 1000000) // (u0 + u1)
            ELSE 0 END AS chi2_e6
FROM c
"""


# ---------------------------------------------------------------------------
# INTERVAL (range) JOIN — an operator Ray Data has no native verb for:
# every left row (a signup) joins the right rows (the same user's
# NON-signup events) whose timestamp falls in the half-open window
# (s.ts, s.ts + W]. Both sides ride the ONE user-hash exchange of
# partitioned_ordered (they are views of the same co-located partition),
# and inside the partition the segment-band shift turns the per-user range
# probe into two searchsorted calls against the single sorted timeline —
# masked prefix sums then answer count + sum for EVERY interval at once.
# No per-interval loop, no all-pairs expansion: the cost is the sort the
# partition already pays. Partitioning assumption (documented contract):
# one user's rows co-locate; intervals never span users by construction.

INTERVAL_JOIN_WIN_US = 3_600_000_000  # 1 hour


def interval_join_signup(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if not n:
            return pa.table(
                {
                    "signup_event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "n_follow": pa.array([], pa.int64()),
                    "sum_follow_cents": pa.array([], pa.int64()),
                }
            )
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        is_sig = pc.equal(tbl.column("event_type"), "signup").to_numpy(zero_copy_only=False)
        head = _seg_head(uid)
        seg_id = np.cumsum(head) - 1
        base = ts - ts.min()
        offset = int(base.max()) + 2 * INTERVAL_JOIN_WIN_US + 1
        nseg = int(seg_id[-1]) + 1
        if nseg * offset >= 2**62:  # survives python -O, unlike assert
            raise SchemaError(
                f"interval_join segment-band shift would overflow int64: "
                f"{nseg} segments x {offset} us band. " + FEWER_USERS_PER_CALL
            )
        shifted = base + seg_id * offset
        follow = ~is_sig
        cnt = np.concatenate([[0], np.cumsum(follow.astype(np.int64))])
        cs = np.concatenate([[0], np.cumsum(np.where(follow, cents, 0))])
        s_idx = np.nonzero(is_sig)[0]
        # (s.ts, s.ts + W]: 'right' at s.ts excludes ts-peers of the signup
        # (strict >), 'right' at s.ts + W includes rows exactly at the edge.
        lo = np.searchsorted(shifted, shifted[s_idx], side="right")
        hi = np.searchsorted(shifted, shifted[s_idx] + INTERVAL_JOIN_WIN_US, side="right")
        return pa.table(
            {
                "signup_event_id": pa.array(
                    tbl.column("event_id").to_numpy()[s_idx], pa.int64()
                ),
                "user_id": pa.array(uid[s_idx], pa.int64()),
                "n_follow": pa.array(cnt[hi] - cnt[lo], pa.int64()),
                "sum_follow_cents": pa.array(cs[hi] - cs[lo], pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel)


INTERVAL_JOIN_SIGNUP_SQL = """
SELECT s.event_id AS signup_event_id, s.user_id,
       CAST(count(e.event_id) AS BIGINT) AS n_follow,
       CAST(coalesce(sum(CAST(floor(e.value * 100 + 0.5) AS BIGINT)), 0) AS BIGINT)
         AS sum_follow_cents
FROM events s
LEFT JOIN events e
  ON e.user_id = s.user_id
 AND e.event_type <> 'signup'
 AND e.ts > s.ts
 AND e.ts <= s.ts + INTERVAL 1 HOUR
WHERE s.event_type = 'signup'
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# UNPIVOT / MELT (wide -> long), the inverse of pivot_user_type: a generic
# zero-shuffle vectorized stage — each wide row explodes to one long row
# per value column via a single repeated take + column stack, no Python
# per row. Applied here to the pivot output so the pair round-trips.


def unpivot_columns(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
) -> ray.data.Dataset:
    names = list(value_cols)

    def melt(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        m = len(names)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), m))
        cols: dict[str, pa.Array] = {c: tbl.column(c).take(idx) for c in id_cols}
        cols[var_name] = pa.array(names * n, pa.string())
        if m and n:
            stacked = np.column_stack(
                [tbl.column(c).to_numpy(zero_copy_only=False) for c in names]
            ).ravel()
        else:
            stacked = np.empty(0, np.float64)
        cols[value_name] = pa.array(stacked)
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def unpivot_user_type(sf_dir: str) -> ray.data.Dataset:
    wide = pivot_user_type(sf_dir)
    return unpivot_columns(
        wide,
        id_cols=["user_id"],
        value_cols=[f"{t}_amt" for t in PIVOT_TYPES],
        var_name="event_type",
        value_name="amt",
    ).map_batches(
        # long-form event_type carries the bare type name, not the wide
        # column label — strip the suffix so the melt is the true inverse
        lambda t: t.set_column(
            t.schema.get_field_index("event_type"),
            "event_type",
            pc.utf8_replace_slice(
                t.column("event_type"), start=-4, stop=2**30, replacement=""
            ),
        ),
        batch_format="pyarrow",
    )


UNPIVOT_USER_TYPE_SQL = """
WITH u AS (SELECT DISTINCT user_id FROM events),
t AS (SELECT unnest(['click','error','purchase','signup','view']) AS event_type),
s AS (SELECT user_id, event_type,
             CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS c
      FROM events GROUP BY 1, 2)
SELECT u.user_id, t.event_type, coalesce(s.c, 0) / 100.0 AS amt
FROM u CROSS JOIN t
LEFT JOIN s ON s.user_id = u.user_id AND s.event_type = t.event_type
"""


# ---------------------------------------------------------------------------
# COMPLETENESS AUDIT (gap buckets): per user, how many hourly buckets
# between their first and last activity have zero events — the
# missing-data report a feature pipeline runs before trusting windowed
# features. Rows arrive user-sorted by ts, so hour buckets are monotone
# within a segment: present = 1 + count of bucket CHANGES (one compare +
# reduceat, no distinct set), expected = last - first + 1. One exchange,
# one output row per user, all int64.

GAP_BUCKET_US = 3_600_000_000  # 1 hour


def gap_buckets(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if not n:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_expected": pa.array([], pa.int64()),
                    "n_present": pa.array([], pa.int64()),
                    "n_missing": pa.array([], pa.int64()),
                }
            )
        uid = tbl.column("user_id").to_numpy()
        hb = tbl.column("ts").cast(pa.int64()).to_numpy() // GAP_BUCKET_US
        head = _seg_head(uid)
        head_idx = np.nonzero(head)[0]
        tail_idx = np.concatenate([head_idx[1:] - 1, [n - 1]])
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (hb[1:] != hb[:-1]) & ~head[1:]
        present = np.add.reduceat(changed, head_idx) + 1
        expected = hb[tail_idx] - hb[head_idx] + 1
        return pa.table(
            {
                "user_id": pa.array(uid[head_idx], pa.int64()),
                "n_expected": pa.array(expected, pa.int64()),
                "n_present": pa.array(present, pa.int64()),
                "n_missing": pa.array(expected - present, pa.int64()),
            }
        )

    return partitioned_ordered(ds, kernel)


GAP_BUCKETS_SQL = """
WITH h AS (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events
)
SELECT user_id,
       CAST(max(hb) - min(hb) + 1 AS BIGINT) AS n_expected,
       CAST(count(DISTINCT hb) AS BIGINT) AS n_present,
       CAST(max(hb) - min(hb) + 1 - count(DISTINCT hb) AS BIGINT) AS n_missing
FROM h GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# RESAMPLE + LINEAR INTERPOLATION: per user, a fixed daily grid strictly
# inside (first_ts, last_ts), each grid point valued by linear
# interpolation between the surrounding events — the gap-filling
# counterpart to LOCF (which carries; this blends). Tie discipline when
# several events share a timestamp: prev = the LAST (max event_id) row
# with ts <= g, next = the FIRST (min event_id) row with ts > g — exactly
# the rows adjacent to searchsorted(ts, g, 'right') in the partition's
# (user, ts, event_id) sort, and exactly what the oracle's two lateral
# ORDER BY ... LIMIT 1 scans select. Values interpolate in integer cents
# with a single float expression on both sides, reported on the 1e-6 grid.

RESAMPLE_DAY_US = 86_400_000_000


def resample_interp(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "grid_ts_us": pa.array([], pa.int64()),
                "interp_value": pa.array([], pa.float64()),
            }
        )
        if not n:
            return empty
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        head = _seg_head(uid)
        head_idx = np.nonzero(head)[0]
        tail_idx = np.concatenate([head_idx[1:] - 1, [n - 1]])
        D = RESAMPLE_DAY_US
        db_lo = ts[head_idx] // D + 1          # first midnight strictly after t0
        db_hi = (ts[tail_idx] - 1) // D        # last midnight strictly before t1
        counts = np.maximum(db_hi - db_lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return empty
        seg_of = np.repeat(np.arange(head_idx.size), counts)
        offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
        gts = (db_lo[seg_of] + (np.arange(total) - offs[seg_of])) * D
        # segment-band shift (the time_window_sum idiom) makes per-user
        # searchsorted a single global call
        seg_id = np.cumsum(head) - 1
        base_min = ts.min()
        offset = int((ts - base_min).max()) + 2 * D + 2
        nseg = int(seg_id[-1]) + 1
        if nseg * offset >= 2**62:
            raise SchemaError(
                f"resample_interp band shift would overflow int64: {nseg} "
                f"segments x {offset} us. " + FEWER_USERS_PER_CALL
            )
        shifted = (ts - base_min) + seg_id * offset
        g_shift = (gts - base_min) + seg_of * offset
        nxt = np.searchsorted(shifted, g_shift, side="right")
        prv = nxt - 1  # always valid: db range keeps t0 < g < t1
        tp, tn = ts[prv], ts[nxt]
        cp, cn = cents[prv], cents[nxt]
        frac = (gts - tp).astype(np.float64) / (tn - tp).astype(np.float64)
        v = (cp.astype(np.float64) + (cn - cp).astype(np.float64) * frac) / 100.0
        v = np.floor(v * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "user_id": pa.array(uid[head_idx][seg_of], pa.int64()),
                "grid_ts_us": pa.array(gts, pa.int64()),
                "interp_value": pa.array(v, pa.float64()),
            }
        )

    return partitioned_ordered(ds, kernel)


RESAMPLE_INTERP_SQL = """
WITH b AS (
  SELECT user_id, min(epoch_us(ts)) AS t0, max(epoch_us(ts)) AS t1
  FROM events GROUP BY user_id
), grid AS (
  SELECT user_id,
         unnest(generate_series(t0 // 86400000000 + 1,
                                (t1 - 1) // 86400000000)) * 86400000000 AS g
  FROM b
)
SELECT g.user_id, CAST(g.g AS BIGINT) AS grid_ts_us,
       floor((CAST(p.cp AS DOUBLE)
              + CAST(nx.cn - p.cp AS DOUBLE)
                * (CAST(g.g - p.tp AS DOUBLE) / CAST(nx.tn - p.tp AS DOUBLE)))
             / 100.0 * 1e6 + 0.5) / 1e6 AS interp_value
FROM grid g,
LATERAL (SELECT epoch_us(e.ts) AS tp,
                CAST(floor(e.value * 100 + 0.5) AS BIGINT) AS cp
         FROM events e
         WHERE e.user_id = g.user_id AND epoch_us(e.ts) <= g.g
         ORDER BY e.ts DESC, e.event_id DESC LIMIT 1) p,
LATERAL (SELECT epoch_us(e.ts) AS tn,
                CAST(floor(e.value * 100 + 0.5) AS BIGINT) AS cn
         FROM events e
         WHERE e.user_id = g.user_id AND epoch_us(e.ts) > g.g
         ORDER BY e.ts ASC, e.event_id ASC LIMIT 1) nx
"""


# ---------------------------------------------------------------------------
# LEAVE-ONE-USER-OUT JACKKNIFE: distribution-free standard error of the
# corpus mean under user-level resampling (users are the exchangeable
# unit, not events — the error bar a metrics pipeline should report).
# Deterministic and exactly SQL-expressible: pass 1 folds global (N, S)
# in integer cents; pass 2 folds per-user (n_u, s_u) through the user
# exchange, forms each user's squared LOO deviation as a 1e-12-grid
# INTEGER inside the exchange (so cross-user summation order cannot
# perturb the float hash), and the driver sees only bounded partial sums.

JK_GRID = 1e12


def jackknife_se(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["user_id", "value"])

    def g_partial(tbl: pa.Table) -> pa.Table:
        c = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([tbl.num_rows], pa.int64()),
                "s": pa.array([int(c.sum())], pa.int64()),
            }
        )

    g_fold = exchange_fold(
        ds.map_batches(g_partial, batch_format="pyarrow"),
        lambda t: pa.table(
            {
                "n": pa.array([int(pc.sum(t.column("n")).as_py() or 0)], pa.int64()),
                "s": pa.array([int(pc.sum(t.column("s")).as_py() or 0)], pa.int64()),
            }
        ),
    )
    if g_fold is None:
        return pd.DataFrame(
            {
                "n_users": [np.int64(0)],
                "mean_value": [np.float64(np.nan)],
                "jackknife_se": [np.float64(np.nan)],
            }
        )
    N = int(pc.sum(g_fold.column("n")).as_py() or 0)
    S = int(pc.sum(g_fold.column("s")).as_py() or 0)

    def u_partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        c = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        users, codes = np.unique(uid, return_inverse=True)
        nu = np.bincount(codes, minlength=users.size).astype(np.int64)
        su = np.zeros(users.size, dtype=np.int64)
        np.add.at(su, codes, c)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "nu": pa.array(nu, pa.int64()),
                "su": pa.array(su, pa.int64()),
            }
        )

    def u_fold(tbl: pa.Table) -> pa.Table:
        # exchange_fold re-applies the fold to its own (k, t) outputs on the
        # driver — that pass is a plain integer sum
        if "k" in tbl.column_names:
            return pa.table(
                {
                    "k": pa.array([int(pc.sum(tbl.column("k")).as_py() or 0)], pa.int64()),
                    "t": pa.array([int(pc.sum(tbl.column("t")).as_py() or 0)], pa.int64()),
                }
            )
        # exact per-user totals within this partition's disjoint user set,
        # then each user collapses to ONE integer deviation term
        t = (
            tbl.group_by("user_id")
            .aggregate([("nu", "sum"), ("su", "sum")])
            .rename_columns(["user_id", "nu", "su"])
        )
        nu = t.column("nu").to_numpy()
        su = t.column("su").to_numpy()
        mean_all = np.float64(S) / np.float64(N)
        loo = np.where(
            N == nu,
            0.0,
            (np.float64(S) - su.astype(np.float64))
            / np.maximum(np.float64(N) - nu.astype(np.float64), 1.0)
            - mean_all,
        )
        term = np.floor((loo / 100.0) ** 2 * JK_GRID + 0.5).astype(np.int64)
        return pa.table(
            {
                "k": pa.array([t.num_rows], pa.int64()),
                "t": pa.array([int(term.sum())], pa.int64()),
            }
        )

    folded = exchange_fold(
        ds.map_batches(u_partial, batch_format="pyarrow"),
        u_fold,
        pid_of=lambda t: (
            t.column("user_id").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    k = int(pc.sum(folded.column("k")).as_py() or 0) if folded is not None else 0
    T = int(pc.sum(folded.column("t")).as_py() or 0) if folded is not None else 0
    mean_v = float(np.floor(np.float64(S) / N / 100.0 * 1e6 + 0.5) / 1e6) if N else np.nan
    se = (
        float(
            np.floor(
                np.sqrt((k - 1) / np.float64(k) * (T / JK_GRID)) * 1e6 + 0.5
            )
            / 1e6
        )
        if k > 1
        else 0.0
    )
    return pd.DataFrame(
        {
            "n_users": [np.int64(k)],
            "mean_value": [np.float64(mean_v)],
            "jackknife_se": [np.float64(se)],
        }
    )


JACKKNIFE_SE_SQL = """
WITH g AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS s
  FROM events
), u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS nu,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS su
  FROM events GROUP BY user_id
), x AS (
  SELECT (CASE WHEN g.n = u.nu THEN 0.0
               ELSE (CAST(g.s AS DOUBLE) - CAST(u.su AS DOUBLE))
                    / (CAST(g.n AS DOUBLE) - CAST(u.nu AS DOUBLE))
                    - CAST(g.s AS DOUBLE) / CAST(g.n AS DOUBLE) END)
         / 100.0 AS xv
  FROM u, g
), d AS (
  SELECT CAST(floor(xv * xv * 1e12 + 0.5) AS BIGINT) AS t FROM x
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       floor(CAST(g.s AS DOUBLE) / g.n / 100.0 * 1e6 + 0.5) / 1e6 AS mean_value,
       CASE WHEN count(*) > 1
            THEN floor(sqrt((count(*) - 1) / CAST(count(*) AS DOUBLE)
                            * (sum(d.t) / 1e12)) * 1e6 + 0.5) / 1e6
            ELSE 0.0 END AS jackknife_se
FROM d, g GROUP BY g.s, g.n
"""


# ---------------------------------------------------------------------------
# TREND SLOPE (per-type OLS of value against time): the feature pipeline's
# drift detector. Exactness discipline: x = integer hours since a FIXED
# anchor (2024-01-01, a constant on both sides — no data-dependent
# centering pass), y = integer cents; the five OLS moments (n, Sx, Sy,
# Sxx, Sxy) fold as exact int64 through the type-keyed exchange; the
# closing algebra runs in arbitrary-precision Python ints (the SQL twin
# uses HUGEINT) so n*Sxy - Sx*Sy never overflows, then ONE float division
# sequence shared literally with the oracle, reported on the 1e-6 grid.

TREND_ANCHOR_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
TREND_HOUR_US = 3_600_000_000


def trend_slope(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "event_type", "value"])

    def partial(tbl: pa.Table) -> pa.Table:
        x = (tbl.column("ts").cast(pa.int64()).to_numpy() - TREND_ANCHOR_US) // TREND_HOUR_US
        y = np.floor(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        if x.size and (np.abs(x).max() > 1_000_000 or np.abs(y).max() > 10**12):
            raise SchemaError(
                "trend_slope moment domain exceeded (|hours|>1e6 or |cents|"
                ">1e12): per-row x*y products would risk int64 overflow — "
                "rescale the anchor/bucket."
            )
        tcol = tbl.column("event_type").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(tcol, return_inverse=True)
        m = uniq.size
        n = np.bincount(codes, minlength=m).astype(np.int64)
        sx = np.zeros(m, np.int64); np.add.at(sx, codes, x)
        sy = np.zeros(m, np.int64); np.add.at(sy, codes, y)
        sxx = np.zeros(m, np.int64); np.add.at(sxx, codes, x * x)
        sxy = np.zeros(m, np.int64); np.add.at(sxy, codes, x * y)
        return pa.table(
            {
                "event_type": pa.array(list(uniq), pa.string()),
                "n": pa.array(n), "sx": pa.array(sx), "sy": pa.array(sy),
                "sxx": pa.array(sxx), "sxy": pa.array(sxy),
            }
        )

    folded = exchange_fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by("event_type")
            .aggregate([("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                        ("sxx", "sum"), ("sxy", "sum")])
            .rename_columns(["event_type", "n", "sx", "sy", "sxx", "sxy"])
        ),
    )
    grid = lambda v: float(np.floor(v * 1e6 + 0.5) / 1e6)  # noqa: E731
    rows = []
    for r in sorted(folded.to_pylist(), key=lambda r: r["event_type"]) if folded is not None else []:
        n, sx, sy, sxx, sxy = (int(r[c]) for c in ("n", "sx", "sy", "sxx", "sxy"))
        num = n * sxy - sx * sy        # exact python ints (SQL: HUGEINT)
        den = n * sxx - sx * sx
        if den == 0:
            slope_c = 0.0
        else:
            slope_c = float(num) / float(den)
        intercept_c = (float(sy) - slope_c * float(sx)) / float(n)
        rows.append(
            (r["event_type"], np.int64(n),
             grid(slope_c / 100.0), grid(intercept_c / 100.0))
        )
    return pd.DataFrame(
        rows, columns=["event_type", "n", "slope_per_hour", "intercept_value"]
    )


TREND_SLOPE_SQL = """
WITH b AS (
  SELECT event_type,
         (epoch_us(ts) - 1704067200000000) // 3600000000 AS x,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
  FROM events
), m AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * x) AS BIGINT) AS sxx, CAST(sum(x * y) AS BIGINT) AS sxy
  FROM b GROUP BY event_type
), s AS (
  SELECT event_type, n, sx, sy,
         CASE WHEN CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx = 0
              THEN 0.0
              ELSE CAST(CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS DOUBLE)
                   / CAST(CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx AS DOUBLE)
         END AS slope_c
  FROM m
)
SELECT event_type, n,
       floor(slope_c / 100.0 * 1e6 + 0.5) / 1e6 AS slope_per_hour,
       floor((CAST(sy AS DOUBLE) - slope_c * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
             / 100.0 * 1e6 + 0.5) / 1e6 AS intercept_value
FROM s
"""


# ---------------------------------------------------------------------------
# CHURN LABELS — the label-generation step of a training pipeline: a user
# is "churned" when their last event predates the corpus end by more than
# CHURN_GAP. Two bounded passes: the global max ts folds first (one
# scalar), then per-user last-event partials ride the user exchange and
# the label is pure integer arithmetic against the broadcast scalar — so
# the labeling is reproducible from the corpus alone (no wall clock).

CHURN_GAP_US = 7 * 86_400_000_000  # 7 days


def churn_labels(sf_dir: str) -> ray.data.Dataset:
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "user_id"])

    g = exchange_fold(
        ds.map_batches(
            lambda t: pa.table(
                {
                    "m": pa.array(
                        [int(pc.max(t.column("ts").cast(pa.int64())).as_py() or 0)]
                        if t.num_rows
                        else [],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ),
        lambda t: pa.table(
            {"m": pa.array([int(pc.max(t.column("m")).as_py() or 0)], pa.int64())}
        ),
    )
    end_us = int(pc.max(g.column("m")).as_py() or 0) if g is not None else 0
    cutoff = end_us - CHURN_GAP_US

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        users, codes = np.unique(uid, return_inverse=True)
        last = np.zeros(users.size, dtype=np.int64)
        np.maximum.at(last, codes, ts)
        n = np.bincount(codes, minlength=users.size).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "last_ts_us": pa.array(last, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
            }
        )

    # per-user rows STAY DISTRIBUTED (the user_rfm shape): at 100 TB the
    # user table is itself large — only the end-ts scalar touched the driver
    def fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by("user_id")
            .aggregate([("last_ts_us", "max"), ("n_events", "sum")])
            .rename_columns(["user_id", "last_ts_us", "n_events"])
        )
        lab = (t.column("last_ts_us").to_numpy() < cutoff).astype(np.int64)
        return t.append_column("label_churned", pa.array(lab, pa.int64()))

    return partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), fold, order=())


CHURN_LABELS_SQL = """
WITH g AS (SELECT max(epoch_us(ts)) AS end_us FROM events)
SELECT user_id,
       CAST(max(epoch_us(ts)) AS BIGINT) AS last_ts_us,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(CASE WHEN max(epoch_us(ts)) < g.end_us - 604800000000
                 THEN 1 ELSE 0 END AS BIGINT) AS label_churned
FROM events, g
GROUP BY user_id, g.end_us
"""


# ---------------------------------------------------------------------------
# BEHAVIORAL ENTROPY — per-user Shannon entropy of the event-type
# distribution (the "how varied is this user's behavior" feature, a
# standard engagement/bot signal). Exactness discipline: per-(user, type)
# counts ride ONE user-keyed exchange; inside each partition the entropy
# uses H = ln(n) - (1/n) * sum_t c_t ln(c_t) with each c*ln(c) term
# floored onto the 1e-12 grid BEFORE summation (summation order moot,
# the lang_source_mi idiom), reported on the 1e-6 grid. Per-user rows
# stay distributed (the user_rfm shape).

ENTROPY_GRID = 1e12


def user_entropy(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["user_id", "event_type"])

    def partial(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "event_type", "c"])
        )

    def fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([("c", "sum")])
            .rename_columns(["user_id", "event_type", "c"])
        )
        uid = t.column("user_id").to_numpy()
        c = t.column("c").to_numpy().astype(np.int64)
        users, codes = np.unique(uid, return_inverse=True)
        n = np.zeros(users.size, dtype=np.int64)
        np.add.at(n, codes, c)
        k = np.bincount(codes, minlength=users.size).astype(np.int64)
        term = np.floor(
            c.astype(np.float64) * np.log(c.astype(np.float64)) * ENTROPY_GRID + 0.5
        ).astype(np.int64)
        tsum = np.zeros(users.size, dtype=np.int64)
        np.add.at(tsum, codes, term)
        h = np.floor(
            (np.log(n.astype(np.float64)) - (tsum / ENTROPY_GRID) / n) * 1e6 + 0.5
        ) / 1e6
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "n_types": pa.array(k, pa.int64()),
                "type_entropy": pa.array(h, pa.float64()),
            }
        )

    return partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), fold, order=())


USER_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), u AS (
  SELECT user_id, CAST(sum(c) AS BIGINT) AS n, CAST(count(*) AS BIGINT) AS k,
         CAST(sum(CAST(floor(c * ln(c) * 1e12 + 0.5) AS BIGINT)) AS BIGINT) AS t
  FROM c GROUP BY 1
)
SELECT user_id, n AS n_events, k AS n_types,
       floor((ln(n) - (t / 1e12) / n) * 1e6 + 0.5) / 1e6 AS type_entropy
FROM u
"""


# ---------------------------------------------------------------------------
# LAG-1 AUTOCORRELATION — per-user serial correlation of value with its
# successor (Pearson over the (x_t, x_{t+1}) pairs, ordered by ts then
# event_id): the burstiness/momentum feature of a user's spend series.
# One user-keyed exchange (the sessionize ordering contract); adjacent
# pairs form inside user segments with a head-mask shift — no per-user
# Python loop. Moments (m, Sa, Sb, Saa, Sbb, Sab) are exact int64 over
# cents; a runtime guard pins the int64-exact domain (per-user n x
# max|cents| <= 3e9 keeps m*Saa within int64, so the engine's int64
# algebra equals the oracle's HUGEINT algebra); the single float
# sqrt/divide sequence is shared literally with the SQL twin, 1e-6 grid.


def autocorr1(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        x = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        head = _seg_head(uid)
        gid = np.cumsum(head) - 1
        n_u = np.bincount(gid).astype(np.int64)
        if n_u.size and int(n_u.max()) * int(np.abs(x).max(initial=0)) > 3_000_000_000:
            raise SchemaError(
                "autocorr1 moment domain exceeded (per-user n x max|cents| "
                "> 3e9): m*Saa would risk int64 overflow vs the HUGEINT "
                "oracle — rescale the value grid."
            )
        # pair (a, b) = (x_t, x_{t+1}) within a segment: valid where the NEXT
        # row exists and belongs to the same user
        valid = np.zeros(uid.size, dtype=bool)
        if uid.size > 1:
            valid[:-1] = ~head[1:]
        a = x[valid]
        b = x[1:][valid[:-1]] if uid.size > 1 else x[:0]
        pg = gid[valid]
        users = uid[head]
        nseg = n_u.size

        def seg_sum(v: np.ndarray) -> np.ndarray:
            out = np.zeros(nseg, dtype=np.int64)
            np.add.at(out, pg, v)
            return out

        m = np.bincount(pg, minlength=nseg).astype(np.int64)
        sa, sb = seg_sum(a), seg_sum(b)
        saa, sbb, sab = seg_sum(a * a), seg_sum(b * b), seg_sum(a * b)
        keep = m > 0
        m, sa, sb, saa, sbb, sab, users = (
            m[keep], sa[keep], sb[keep], saa[keep], sbb[keep], sab[keep], users[keep]
        )
        va = m * saa - sa * sa
        vb = m * sbb - sb * sb
        num = (m * sab - sa * sb).astype(np.float64)
        den = np.sqrt(va.astype(np.float64) * vb.astype(np.float64))
        r = np.where(
            (va == 0) | (vb == 0),
            0.0,
            np.floor(num / np.where(den == 0.0, 1.0, den) * 1e6 + 0.5) / 1e6,
        )
        return pa.table(
            {
                "user_id": pa.array(users.astype(np.int64), pa.int64()),
                "n_pairs": pa.array(m, pa.int64()),
                "autocorr1": pa.array(r, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir, ["user_id", "ts", "event_id", "value"]), kernel)


AUTOCORR1_SQL = """
WITH v AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 100) AS BIGINT) AS x
  FROM events
), p AS (
  SELECT user_id, x AS a,
         lead(x) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS b
  FROM v
), q AS (
  SELECT user_id, a, b FROM p WHERE b IS NOT NULL
), m AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS m,
         CAST(sum(a) AS BIGINT) AS sa, CAST(sum(b) AS BIGINT) AS sb,
         CAST(sum(a * a) AS BIGINT) AS saa,
         CAST(sum(b * b) AS BIGINT) AS sbb,
         CAST(sum(a * b) AS BIGINT) AS sab
  FROM q GROUP BY 1
)
SELECT user_id, m AS n_pairs,
       CASE WHEN CAST(m AS HUGEINT) * saa - CAST(sa AS HUGEINT) * sa = 0
              OR CAST(m AS HUGEINT) * sbb - CAST(sb AS HUGEINT) * sb = 0
            THEN 0.0
            ELSE floor(CAST(CAST(m AS HUGEINT) * sab - CAST(sa AS HUGEINT) * sb AS DOUBLE)
                 / sqrt(CAST(CAST(m AS HUGEINT) * saa - CAST(sa AS HUGEINT) * sa AS DOUBLE)
                        * CAST(CAST(m AS HUGEINT) * sbb - CAST(sb AS HUGEINT) * sb AS DOUBLE))
                 * 1e6 + 0.5) / 1e6 END AS autocorr1
FROM m
"""


# ---------------------------------------------------------------------------
# SURVIVAL RISK TABLE (Kaplan-Meier prep) — per distinct user-lifetime
# duration d (integer hours between a user's first and last event):
# n_at_risk(d) = users with duration >= d, n_churned(d) = churned users
# (label from the churn_labels cutoff) with duration == d, n_censored(d) =
# still-active users censored at their observed duration. Pure integer
# counting end to end: per-user (first, last) rides the user exchange,
# duration-keyed counts fold through a second bounded exchange (distinct
# durations <= corpus span in hours), and the at-risk suffix-sum runs on
# the driver over that bounded table. The KM estimator S(t) =
# prod(1 - d_i/n_i) is one exact division chain away from this table.

SURVIVAL_HOUR_US = 3_600_000_000


def survival_counts(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "user_id"])

    g = exchange_fold(
        ds.map_batches(
            lambda t: pa.table(
                {
                    "m": pa.array(
                        [int(pc.max(t.column("ts").cast(pa.int64())).as_py() or 0)]
                        if t.num_rows
                        else [],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ),
        lambda t: pa.table(
            {"m": pa.array([int(pc.max(t.column("m")).as_py() or 0)], pa.int64())}
        ),
    )
    cols = ["duration_hours", "n_at_risk", "n_churned", "n_censored"]
    if g is None:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    end_us = int(pc.max(g.column("m")).as_py() or 0)
    cutoff = end_us - CHURN_GAP_US

    def u_partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        users, codes = np.unique(uid, return_inverse=True)
        first = np.full(users.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, codes, ts)
        last = np.zeros(users.size, dtype=np.int64)
        np.maximum.at(last, codes, ts)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "first_us": pa.array(first, pa.int64()),
                "last_us": pa.array(last, pa.int64()),
            }
        )

    def u_fold(tbl: pa.Table) -> pa.Table:
        # after the user-keyed exchange each user is final in one partition;
        # collapse to duration-keyed (churned, censored) counts immediately
        # so the second exchange ships counters only
        t = (
            tbl.group_by("user_id")
            .aggregate([("first_us", "min"), ("last_us", "max")])
            .rename_columns(["user_id", "first_us", "last_us"])
        )
        first = t.column("first_us").to_numpy()
        last = t.column("last_us").to_numpy()
        dur = (last - first) // SURVIVAL_HOUR_US
        ev = (last < cutoff).astype(np.int64)
        uniq, codes = np.unique(dur, return_inverse=True)
        ch = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(ch, codes, ev)
        ce = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(ce, codes, 1 - ev)
        return pa.table(
            {
                "dur": pa.array(uniq, pa.int64()),
                "ch": pa.array(ch, pa.int64()),
                "ce": pa.array(ce, pa.int64()),
            }
        )

    per_user = partitioned_ordered(
        ds.map_batches(u_partial, batch_format="pyarrow"), u_fold, order=()
    )
    folded = exchange_fold(
        per_user,
        lambda t: (
            t.group_by("dur")
            .aggregate([("ch", "sum"), ("ce", "sum")])
            .rename_columns(["dur", "ch", "ce"])
        ),
        pid_of=lambda t: (
            t.column("dur").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
    df = folded.to_pandas().sort_values("dur").reset_index(drop=True)
    total = np.int64(df["ch"].sum() + df["ce"].sum())
    exits = (df["ch"] + df["ce"]).to_numpy(dtype=np.int64)
    at_risk = total - np.concatenate(([np.int64(0)], np.cumsum(exits)[:-1]))
    return pd.DataFrame(
        {
            "duration_hours": df["dur"].astype(np.int64),
            "n_at_risk": at_risk.astype(np.int64),
            "n_churned": df["ch"].astype(np.int64),
            "n_censored": df["ce"].astype(np.int64),
        }
    )


SURVIVAL_COUNTS_SQL = """
WITH g AS (SELECT max(epoch_us(ts)) AS end_us FROM events),
u AS (
  SELECT user_id,
         (max(epoch_us(ts)) - min(epoch_us(ts))) // 3600000000 AS dur,
         CAST(CASE WHEN max(epoch_us(ts)) < g.end_us - 604800000000
                   THEN 1 ELSE 0 END AS BIGINT) AS ev
  FROM events, g GROUP BY user_id, g.end_us
), d AS (
  SELECT dur, CAST(sum(ev) AS BIGINT) AS n_churned,
         CAST(sum(1 - ev) AS BIGINT) AS n_censored
  FROM u GROUP BY dur
)
SELECT CAST(d.dur AS BIGINT) AS duration_hours,
       (SELECT CAST(count(*) AS BIGINT) FROM u WHERE u.dur >= d.dur) AS n_at_risk,
       n_churned, n_censored
FROM d ORDER BY duration_hours
"""


# ---------------------------------------------------------------------------
# ACTIVITY GINI — concentration of corpus activity across users (the
# domain-concentration audit every web corpus needs: is the traffic
# long-tailed or dominated by a few entities?). Exact via count-of-counts:
# per-user counts ride the user exchange, then collapse to (count value ->
# multiplicity) — provably <= sqrt(2N) distinct values (the token_zipf_hist
# bound) — through a second counters-only exchange. The rank-weighted sum
# over equal values is closed-form per value run, so the driver computes
# the exact integer numerator over the bounded table in arbitrary-precision
# Python ints (SQL twin: HUGEINT over row_number), one float division,
# 1e-6 grid.


def activity_gini(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["user_id"])

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        users, counts = np.unique(uid, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def u_fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by("user_id")
            .aggregate([("c", "sum")])
            .rename_columns(["user_id", "c"])
        )
        v, m = np.unique(t.column("c").to_numpy().astype(np.int64), return_counts=True)
        return pa.table(
            {"v": pa.array(v, pa.int64()), "m": pa.array(m.astype(np.int64), pa.int64())}
        )

    per_user = partitioned_ordered(
        ds.map_batches(partial, batch_format="pyarrow"), u_fold, order=()
    )
    folded = exchange_fold(
        per_user,
        lambda t: t.group_by("v").aggregate([("m", "sum")]).rename_columns(["v", "m"]),
        pid_of=lambda t: (
            t.column("v").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {
                "n_users": [np.int64(0)],
                "total_events": [np.int64(0)],
                "gini": [np.float64(np.nan)],
            }
        )
    df = folded.to_pandas().sort_values("v").reset_index(drop=True)
    n = 0
    s = 0
    w = 0  # sum_i rank_i * x_i with ranks ascending by (count, user): exact
    for v, m in zip(df["v"].tolist(), df["m"].tolist()):
        v, m = int(v), int(m)
        w += v * (m * n + m * (m + 1) // 2)  # ranks n+1 .. n+m all carry x=v
        n += m
        s += v * m
    gini = (
        float(np.floor(float(2 * w - (n + 1) * s) / float(n * s) * 1e6 + 0.5) / 1e6)
        if n and s
        else 0.0
    )
    return pd.DataFrame(
        {
            "n_users": [np.int64(n)],
            "total_events": [np.int64(s)],
            "gini": [np.float64(gini)],
        }
    )


ACTIVITY_GINI_SQL = """
WITH u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c FROM events GROUP BY 1
), r AS (
  SELECT c, row_number() OVER (ORDER BY c, user_id) AS i FROM u
), m AS (
  SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(c) AS BIGINT) AS s,
         CAST(sum(CAST(i AS HUGEINT) * c) AS HUGEINT) AS w
  FROM r
)
SELECT n AS n_users, s AS total_events,
       floor(CAST(2 * w - (CAST(n AS HUGEINT) + 1) * s AS DOUBLE)
             / CAST(CAST(n AS HUGEINT) * s AS DOUBLE) * 1e6 + 0.5) / 1e6 AS gini
FROM m
"""


# ---------------------------------------------------------------------------
# BURSTINESS — the Goh-Barabasi burstiness coefficient per user,
# B = (sigma - mu) / (sigma + mu) over the user's inter-arrival gaps in
# integer SECONDS: -1 = perfectly periodic, 0 = Poisson, -> 1 = bursty.
# The standard human-activity feature on event streams. Same ordered
# user-exchange contract as interarrival_stats; the second moment makes
# sigma exact: with m gaps, S = sum d, Q = sum d^2 (int64, guarded),
# sigma*m = sqrt(m*Q - S^2) so B = (sqrt(m*Q - S^2) - S) /
# (sqrt(m*Q - S^2) + S) — exact integers inside the sqrt, ONE float
# sqrt/divide shared literally with the SQL twin, 1e-6 grid. Users with
# < 2 gaps are excluded (B undefined); an all-zero-gap user (duplicate
# timestamps) has sigma = mu = 0 and reports 0 by convention.


def burstiness(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        gap_s = np.empty(uid.size, dtype=np.int64)
        gap_s[0] = 0
        gap_s[1:] = (ts[1:] - ts[:-1]) // 1_000_000
        is_gap = ~head
        seg_id = np.cumsum(head) - 1
        nseg = int(seg_id[-1]) + 1 if uid.size else 0
        m = np.bincount(seg_id[is_gap], minlength=nseg).astype(np.int64)
        if m.size and is_gap.any():
            gmax = int(gap_s[is_gap].max())
            if int(m.max()) * gmax * gmax > 9_000_000_000_000_000_000 // 2:
                raise SchemaError(
                    "burstiness moment domain exceeded (m * max_gap^2 too "
                    "large for int64 vs the HUGEINT oracle) — bucket gaps "
                    "coarser than seconds."
                )
        S = np.zeros(nseg, dtype=np.int64)
        np.add.at(S, seg_id[is_gap], gap_s[is_gap])
        Q = np.zeros(nseg, dtype=np.int64)
        np.add.at(Q, seg_id[is_gap], gap_s[is_gap] * gap_s[is_gap])
        users = uid[head]
        keep = m >= 2
        m, S, Q, users = m[keep], S[keep], Q[keep], users[keep]
        var_m2 = (m * Q - S * S).astype(np.float64)  # (sigma*m)^2, exact
        sig_m = np.sqrt(var_m2)
        den = sig_m + S.astype(np.float64)
        b = np.where(
            den == 0.0,
            0.0,
            np.floor((sig_m - S.astype(np.float64)) / np.where(den == 0.0, 1.0, den) * 1e6 + 0.5)
            / 1e6,
        )
        return pa.table(
            {
                "user_id": pa.array(users.astype(np.int64), pa.int64()),
                "n_gaps": pa.array(m, pa.int64()),
                "burstiness": pa.array(b, pa.float64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir, ["user_id", "ts", "event_id"]), kernel)


BURSTINESS_SQL = """
WITH v AS (
  SELECT user_id, epoch_us(ts) AS t,
         lead(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS t2
  FROM events
), g AS (
  SELECT user_id, (t2 - t) // 1000000 AS d FROM v WHERE t2 IS NOT NULL
), m AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS m,
         CAST(sum(d) AS BIGINT) AS s, CAST(sum(d * d) AS BIGINT) AS q
  FROM g GROUP BY 1 HAVING count(*) >= 2
)
SELECT user_id, m AS n_gaps,
       CASE WHEN sqrt(CAST(CAST(m AS HUGEINT) * q - CAST(s AS HUGEINT) * s AS DOUBLE))
                 + CAST(s AS DOUBLE) = 0 THEN 0.0
            ELSE floor((sqrt(CAST(CAST(m AS HUGEINT) * q - CAST(s AS HUGEINT) * s AS DOUBLE))
                        - CAST(s AS DOUBLE))
                 / (sqrt(CAST(CAST(m AS HUGEINT) * q - CAST(s AS HUGEINT) * s AS DOUBLE))
                    + CAST(s AS DOUBLE)) * 1e6 + 0.5) / 1e6 END AS burstiness
FROM m
"""


# ---------------------------------------------------------------------------
# HOUR-OF-DAY UNIFORMITY — per event type, the chi-square statistic of the
# hour-of-day activity profile against uniform (the bot-vs-human /
# seasonality screen): chi2 = (24 * sum_h c_h^2 - n^2) / n over the 24
# hourly counts. Counts ride ONE bounded (type, hour)-keyed exchange
# (24 x |types| rows); the closing algebra is arbitrary-precision integer
# (SQL twin: HUGEINT), one float division on the 1e-6 grid.


def hour_uniformity(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "event_type"])

    def partial(tbl: pa.Table) -> pa.Table:
        hour = (
            tbl.column("ts").cast(pa.int64()).to_numpy() // 3_600_000_000 % 24
        ).astype(np.int64)
        t = pa.table({"event_type": tbl.column("event_type"), "hour": pa.array(hour)})
        return (
            t.group_by(["event_type", "hour"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "hour", "c"])
        )

    folded = exchange_fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by(["event_type", "hour"])
            .aggregate([("c", "sum")])
            .rename_columns(["event_type", "hour", "c"])
        ),
        pid_of=lambda t: (
            t.column("hour").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=str),
                "n": pd.Series([], dtype=np.int64),
                "chi2_hour": pd.Series([], dtype=np.float64),
            }
        )
    df = folded.to_pandas().groupby(["event_type", "hour"], as_index=False)["c"].sum()
    rows = []
    for et, grp in df.groupby("event_type"):
        cs = [int(v) for v in grp["c"].tolist()]
        n = sum(cs)
        s2 = sum(c * c for c in cs)
        chi2 = float(np.floor(float(24 * s2 - n * n) / float(n) * 1e6 + 0.5) / 1e6)
        rows.append((et, np.int64(n), np.float64(chi2)))
    rows.sort(key=lambda r: r[0])
    return pd.DataFrame(rows, columns=["event_type", "n", "chi2_hour"])


HOUR_UNIFORMITY_SQL = """
WITH h AS (
  SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS hour,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), m AS (
  SELECT event_type, CAST(sum(c) AS BIGINT) AS n,
         CAST(sum(CAST(c AS HUGEINT) * c) AS HUGEINT) AS s2
  FROM h GROUP BY 1
)
SELECT event_type, n,
       floor(CAST(24 * s2 - CAST(n AS HUGEINT) * n AS DOUBLE)
             / CAST(n AS DOUBLE) * 1e6 + 0.5) / 1e6 AS chi2_hour
FROM m
"""


# ---------------------------------------------------------------------------
# ROLLING 7-DAY ACTIVE USERS (WAU) — for every calendar day in the
# corpus, the number of distinct users active at least once in the
# trailing 7-day window. Distinct-over-sliding-window is the classic
# hard case for distributed exact counting; the scale-safe shape used
# here: (user, day) pairs dedup inside the user-keyed exchange, each
# user's active days expand to their <= 7x coverage days (dedup'd per
# user, still inside the exchange), and the per-day +1 contributions
# fold through a second day-keyed counters-only exchange. No window
# state, no all-days-per-user materialization; every stage is bounded
# by 7x the user's distinct active days. Days past the corpus end that
# only a trailing window would reach are clipped to the observed day
# range (both sides).

WAU_DAY_US = 86_400_000_000
WAU_WINDOW = 7


def wau_daily(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "user_id"])

    g = exchange_fold(
        ds.map_batches(
            lambda t: pa.table(
                {
                    "m": pa.array(
                        [int(pc.max(t.column("ts").cast(pa.int64())).as_py() or 0)]
                        if t.num_rows
                        else [],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ),
        lambda t: pa.table(
            {"m": pa.array([int(pc.max(t.column("m")).as_py() or 0)], pa.int64())}
        ),
    )
    if g is None:
        return pd.DataFrame(
            {"day": pd.Series([], dtype=np.int64), "wau": pd.Series([], dtype=np.int64)}
        )
    max_day = int(pc.max(g.column("m")).as_py() or 0) // WAU_DAY_US

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        day = tbl.column("ts").cast(pa.int64()).to_numpy() // WAU_DAY_US
        pairs = np.unique(np.stack([uid, day], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(pairs[:, 0], pa.int64()),
                "day": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def cover_fold(tbl: pa.Table) -> pa.Table:
        # inside the user exchange: per-user distinct active days -> distinct
        # coverage days (day .. day+6), still keyed by user so the dedup is
        # exact; emit per-day +1 partial counts for this block
        uid = tbl.column("user_id").to_numpy()
        day = tbl.column("day").to_numpy()
        pairs = np.unique(np.stack([uid, day], axis=1), axis=0)
        u = np.repeat(pairs[:, 0], WAU_WINDOW)
        d = np.repeat(pairs[:, 1], WAU_WINDOW) + np.tile(
            np.arange(WAU_WINDOW, dtype=np.int64), pairs.shape[0]
        )
        cov = np.unique(np.stack([u, d], axis=1), axis=0)
        days, cnt = np.unique(cov[:, 1], return_counts=True)
        keep = days <= max_day
        return pa.table(
            {
                "day": pa.array(days[keep], pa.int64()),
                "wau": pa.array(cnt[keep].astype(np.int64), pa.int64()),
            }
        )

    per_part = partitioned_ordered(
        ds.map_batches(partial, batch_format="pyarrow"), cover_fold, order=()
    )
    folded = exchange_fold(
        per_part,
        lambda t: t.group_by("day").aggregate([("wau", "sum")]).rename_columns(["day", "wau"]),
        pid_of=lambda t: (
            t.column("day").to_numpy().astype(np.uint64) % np.uint64(8)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame(
            {"day": pd.Series([], dtype=np.int64), "wau": pd.Series([], dtype=np.int64)}
        )
    df = folded.to_pandas().groupby("day", as_index=False)["wau"].sum()
    return df.sort_values("day").reset_index(drop=True).astype(np.int64)


WAU_DAILY_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
), mx AS (SELECT max(day) AS max_day FROM ud),
cov AS (
  SELECT DISTINCT user_id, day + o.o AS d
  FROM ud, (SELECT unnest(range(0, 7)) AS o) o
)
SELECT CAST(d AS BIGINT) AS day, CAST(count(*) AS BIGINT) AS wau
FROM cov, mx WHERE d <= mx.max_day
GROUP BY d ORDER BY day
"""


# ---------------------------------------------------------------------------
# CIRCADIAN PHASE — per-user circular mean event hour and resultant
# length R (mesor-style regularity: R -> 1 = always the same time of
# day, R -> 0 = uniform around the clock). Angles are hour-of-day
# mapped to the unit circle; each sin/cos term is floored onto the
# 1e-12 integer grid BEFORE summation (the lang_source_mi order-moot
# idiom, shared literally with the SQL twin), so the per-user sums are
# exact integers through the user exchange; atan2 / sqrt close on the
# 1e-6 grid.

CIRC_GRID = 1e12


def circadian_phase(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["user_id", "ts"])

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        hour = (
            tbl.column("ts").cast(pa.int64()).to_numpy() // 3_600_000_000 % 24
        ).astype(np.float64)
        ang = hour * (2.0 * np.pi / 24.0)
        s = np.floor(np.sin(ang) * CIRC_GRID + 0.5).astype(np.int64)
        c = np.floor(np.cos(ang) * CIRC_GRID + 0.5).astype(np.int64)
        users, codes = np.unique(uid, return_inverse=True)
        n = np.bincount(codes, minlength=users.size).astype(np.int64)
        ss = np.zeros(users.size, np.int64)
        np.add.at(ss, codes, s)
        cc = np.zeros(users.size, np.int64)
        np.add.at(cc, codes, c)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(ss, pa.int64()),
                "c": pa.array(cc, pa.int64()),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by("user_id")
            .aggregate([("n", "sum"), ("s", "sum"), ("c", "sum")])
            .rename_columns(["user_id", "n", "s", "c"])
        )
        n = t.column("n").to_numpy().astype(np.float64)
        s = t.column("s").to_numpy() / CIRC_GRID
        c = t.column("c").to_numpy() / CIRC_GRID
        mean_hour = np.arctan2(s, c) * (24.0 / (2.0 * np.pi)) % 24.0
        r = np.sqrt(s * s + c * c) / n
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_events": t.column("n"),
                "mean_hour": pa.array(np.floor(mean_hour * 1e6 + 0.5) / 1e6, pa.float64()),
                "resultant_r": pa.array(np.floor(r * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    return partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), fold, order=())


CIRCADIAN_SQL = """
WITH a AS (
  SELECT user_id,
         ((epoch_us(ts) // 3600000000) % 24) * (2 * pi() / 24) AS ang
  FROM events
), u AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(floor(sin(ang) * 1e12 + 0.5) AS BIGINT)) AS BIGINT) AS s,
         CAST(sum(CAST(floor(cos(ang) * 1e12 + 0.5) AS BIGINT)) AS BIGINT) AS c
  FROM a GROUP BY 1
)
SELECT user_id, n AS n_events,
       floor(((atan2(s / 1e12, c / 1e12) * (24 / (2 * pi()))) % 24 + 24) % 24
             * 1e6 + 0.5) / 1e6 AS mean_hour,
       floor(sqrt((s / 1e12) * (s / 1e12) + (c / 1e12) * (c / 1e12)) / n
             * 1e6 + 0.5) / 1e6 AS resultant_r
FROM u
"""


# ---------------------------------------------------------------------------
# DAILY ANOMALY FLAGS — per event type, flag calendar days whose event
# count deviates from that type's median daily count by more than
# ANOMALY_K x MAD (the robust spike/outage detector every event stream
# gets). (type, day) counts ride ONE bounded exchange (days x types
# rows); median and MAD close on the driver over that bounded table
# with DuckDB's median convention (mean of the two middles on even n,
# computed from exact integers), and the flag rule |c - med| > K * MAD
# compares 2x-scaled integers so no float enters the decision.

ANOMALY_K = 3


def daily_anomalies(sf_dir: str):
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["ts", "event_type"])

    def partial(tbl: pa.Table) -> pa.Table:
        day = (tbl.column("ts").cast(pa.int64()).to_numpy() // 86_400_000_000).astype(
            np.int64
        )
        t = pa.table({"event_type": tbl.column("event_type"), "day": pa.array(day)})
        return (
            t.group_by(["event_type", "day"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "day", "c"])
        )

    folded = exchange_fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by(["event_type", "day"])
            .aggregate([("c", "sum")])
            .rename_columns(["event_type", "day", "c"])
        ),
        pid_of=lambda t: (
            t.column("day").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(8)
        ).astype(np.int32),
    )
    cols = ["event_type", "day", "c", "med2", "mad2"]
    if folded is None:
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=str),
                "day": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
            }
        )
    df = (
        folded.to_pandas()
        .groupby(["event_type", "day"], as_index=False)["c"]
        .sum()
        .sort_values(["event_type", "day"])
    )

    def med2_of(v: np.ndarray) -> int:
        # 2x the median so even-n midpoints stay integer (DuckDB median of
        # BIGINT is the mean of the two middles)
        v = np.sort(v)
        n = v.size
        if n % 2:
            return int(2 * v[n // 2])
        return int(v[n // 2 - 1] + v[n // 2])

    rows = []
    for et, grp in df.groupby("event_type"):
        c = grp["c"].to_numpy(dtype=np.int64)
        m2 = med2_of(c)
        dev2 = np.abs(2 * c - m2)       # 2 * |c - median|, exact int
        mad4 = med2_of(dev2)            # 2 * median(dev2) = 4 * MAD, exact int
        # |c - med| > K * MAD  <=>  2 * dev2 > K * mad4  (all integers)
        flag = 2 * dev2 > ANOMALY_K * mad4
        for d, cv in zip(grp["day"].to_numpy()[flag], c[flag]):
            rows.append((et, int(d), int(cv)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return pd.DataFrame(rows, columns=["event_type", "day", "n_events"]).astype(
        {"day": np.int64, "n_events": np.int64}
    )


DAILY_ANOMALIES_SQL = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), m AS (
  SELECT event_type, CAST(2 * median(c) AS BIGINT) AS med2 FROM d GROUP BY 1
), dev AS (
  SELECT d.event_type, d.day, d.c, abs(2 * d.c - m.med2) AS dev2, m.med2
  FROM d JOIN m USING (event_type)
), md AS (
  -- 2 * median(dev2) = 4 * MAD: exact integer (sum of the two middles)
  SELECT event_type, CAST(2 * median(dev2) AS BIGINT) AS mad4 FROM dev GROUP BY 1
)
SELECT dev.event_type, CAST(dev.day AS BIGINT) AS day, dev.c AS n_events
FROM dev JOIN md USING (event_type)
WHERE 2 * dev.dev2 > 3 * md.mad4
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# TYPE AFFINITY — "users who do X also do Y": lift between event types
# over per-user presence sets (the events analog of part_affinity's
# market-basket pairs). Distinct (user, type) pairs dedup inside the
# user exchange; each user's <= T types expand to their T(T-1)/2
# ordered pairs (bounded by the tiny type domain), pair counts fold
# through a second counters-only exchange; lift closes on the bounded
# pair table with exact integer cross products (SQL: HUGEINT), 1e-6
# grid. Output: every co-occurring (a < b) pair with support and lift.


def type_affinity(sf_dir: str):
    from ..functions.hashing import string_hash_array
    from ..stages.fold import exchange_fold

    def _affinity_pid(t: pa.Table) -> np.ndarray:
        # string_hash_array captured by value (no call-time relative import
        # in the worker closure — the test_round5_hardening AST contract)
        return (string_hash_array(t.column("a")) % np.uint64(8)).astype(np.int32)

    ds = read_events(sf_dir, ["user_id", "event_type"])

    def partial(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([])
            .rename_columns(["user_id", "event_type"])
        )
        return t

    def pair_fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([])
            .rename_columns(["user_id", "event_type"])
        )
        uid = t.column("user_id").to_numpy()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        if ((et == "__single__") | (et == "__users__")).any():
            raise SchemaError(
                "type_affinity: event_type collides with an internal "
                "sentinel ('__single__'/'__users__')."
            )
        order = np.lexsort((et, uid))
        uid, et = uid[order], et[order]
        head = _seg_head(uid)
        gid = np.cumsum(head) - 1
        nt = np.bincount(gid).astype(np.int64)
        # per-user singles
        types, tcode = np.unique(et, return_inverse=True)
        singles = np.bincount(tcode, minlength=types.size).astype(np.int64)
        n_users = int(nt.size)
        # pair expansion: for each user segment, all i<j combinations of its
        # (sorted) type list — vectorized via repeat/tile per segment size
        etc = tcode  # integer type codes aligned with the sorted rows
        pa_rows, pb_rows = [], []
        for size in np.unique(nt):
            if size < 2:
                continue
            seg_ids = np.flatnonzero(nt == size)
            starts = np.concatenate([[0], np.cumsum(nt)])[:-1][seg_ids]
            ii, jj = np.triu_indices(int(size), k=1)
            a_idx = (starts[:, None] + ii[None, :]).ravel()
            b_idx = (starts[:, None] + jj[None, :]).ravel()
            pa_rows.append(etc[a_idx])
            pb_rows.append(etc[b_idx])
        if pa_rows:
            a = np.concatenate(pa_rows)
            b = np.concatenate(pb_rows)
            key = a.astype(np.int64) * np.int64(types.size) + b
            kcodes, pair_cnt = np.unique(key, return_counts=True)
            pair_keys = np.stack(
                [types[kcodes // types.size], types[kcodes % types.size]], axis=1
            )
        else:
            pair_keys = np.empty((0, 2), dtype=et.dtype)
            pair_cnt = np.empty(0, dtype=np.int64)
        single_tbl = pa.table(
            {
                "a": pa.array(types, pa.string()),
                "b": pa.array(["__single__"] * types.size, pa.string()),
                "n": pa.array(singles, pa.int64()),
            }
        )
        users_tbl = pa.table(
            {
                "a": pa.array(["__users__"], pa.string()),
                "b": pa.array(["__users__"], pa.string()),
                "n": pa.array([n_users], pa.int64()),
            }
        )
        pairs_tbl = pa.table(
            {
                "a": pa.array(pair_keys[:, 0].astype(str), pa.string()),
                "b": pa.array(pair_keys[:, 1].astype(str), pa.string()),
                "n": pa.array(pair_cnt.astype(np.int64), pa.int64()),
            }
        )
        return pa.concat_tables([pairs_tbl, single_tbl, users_tbl])

    folded = exchange_fold(
        partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), pair_fold, order=()),
        lambda t: (
            t.group_by(["a", "b"]).aggregate([("n", "sum")]).rename_columns(["a", "b", "n"])
        ),
        pid_of=_affinity_pid,
    )
    cols = ["type_a", "type_b", "n_both", "lift"]
    if folded is None:
        return pd.DataFrame({c: pd.Series([], dtype=object) for c in cols})
    df = folded.to_pandas().groupby(["a", "b"], as_index=False)["n"].sum()
    n_users = int(df.loc[df["a"] == "__users__", "n"].sum())
    singles = {
        r["a"]: int(r["n"]) for _, r in df[df["b"] == "__single__"].iterrows()
    }
    out = []
    for _, r in df[(df["b"] != "__single__") & (df["a"] != "__users__")].iterrows():
        a, b, nb = r["a"], r["b"], int(r["n"])
        lift = float(
            np.floor(
                float(nb * n_users) / float(singles[a] * singles[b]) * 1e6 + 0.5
            )
            / 1e6
        )
        out.append((a, b, np.int64(nb), np.float64(lift)))
    out.sort(key=lambda x: (x[0], x[1]))
    return pd.DataFrame(out, columns=cols)


TYPE_AFFINITY_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM ut GROUP BY 1),
u AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS nu FROM ut),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(count(*) AS BIGINT) AS n_both
  FROM ut a JOIN ut b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT type_a, type_b, n_both,
       floor(CAST(CAST(n_both AS HUGEINT) * u.nu AS DOUBLE)
             / CAST(CAST(sa.n AS HUGEINT) * sb.n AS DOUBLE) * 1e6 + 0.5) / 1e6
         AS lift
FROM p, u
JOIN s sa ON sa.event_type = p.type_a
JOIN s sb ON sb.event_type = p.type_b
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# TIME TO CONVERT — per-user latency from FIRST signup to the FIRST
# purchase at a strictly later position in the (ts, event_id) order (the
# funnel-latency label/feature). Runs in the ordered user-exchange
# kernel: first-signup and first-qualifying-purchase positions are
# segmented integer argmins (no per-user Python loop); the delta is an
# exact integer of microseconds. Users without a signup, or without a
# purchase after it, are excluded.


def time_to_convert(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        et = tbl.column("event_type").to_numpy(zero_copy_only=False)
        head = _seg_head(uid)
        gid = np.cumsum(head) - 1
        nseg = int(gid[-1]) + 1 if uid.size else 0
        pos = np.arange(uid.size, dtype=np.int64)
        BIG = np.iinfo(np.int64).max
        s_pos = np.full(nseg, BIG, dtype=np.int64)
        sig = et == "signup"
        np.minimum.at(s_pos, gid[sig], pos[sig])
        pur = (et == "purchase") & (s_pos[gid] < BIG) & (pos > s_pos[gid])
        p_pos = np.full(nseg, BIG, dtype=np.int64)
        np.minimum.at(p_pos, gid[pur], pos[pur])
        keep = (s_pos < BIG) & (p_pos < BIG)
        users = uid[head][keep]
        st = ts[s_pos[keep]]
        pt = ts[p_pos[keep]]
        return pa.table(
            {
                "user_id": pa.array(users.astype(np.int64), pa.int64()),
                "signup_ts_us": pa.array(st, pa.int64()),
                "convert_ts_us": pa.array(pt, pa.int64()),
                "convert_us": pa.array(pt - st, pa.int64()),
            }
        )

    return partitioned_ordered(
        read_events(sf_dir, ["user_id", "ts", "event_id", "event_type"]), kernel
    )


TIME_TO_CONVERT_SQL = """
WITH o AS (
  SELECT user_id, epoch_us(ts) AS t, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
), s AS (
  SELECT user_id, min(rn) AS srn FROM o WHERE event_type = 'signup' GROUP BY 1
), p AS (
  SELECT o.user_id, min(o.rn) AS prn
  FROM o JOIN s USING (user_id)
  WHERE o.event_type = 'purchase' AND o.rn > s.srn GROUP BY 1
)
SELECT s.user_id,
       CAST(os.t AS BIGINT) AS signup_ts_us,
       CAST(op.t AS BIGINT) AS convert_ts_us,
       CAST(op.t - os.t AS BIGINT) AS convert_us
FROM s JOIN p ON s.user_id = p.user_id
JOIN o os ON os.user_id = s.user_id AND os.rn = s.srn
JOIN o op ON op.user_id = p.user_id AND op.rn = p.prn
"""


# ---------------------------------------------------------------------------
# DAY-OF-WEEK PROFILE — per (event_type, dow) volume and mean value: the
# weekly-seasonality feature every traffic model conditions on. dow is
# computed from the raw µs timestamp as ((ts_us // 86400e6) + 4) % 7
# (1970-01-01 was a Thursday), which equals DuckDB's dayofweek(ts)
# (Sunday = 0) for the non-negative fixture epoch. Counters and cents
# are exact int64 through one type-keyed exchange; the single mean
# divide closes on the 1e-6 grid with the SQL twin's float sequence.


def dow_profile(sf_dir: str) -> ray.data.Dataset:
    from ..functions.hashing import string_hash_strong
    from ..stages.fold import exchange_fold

    def partial(tbl: pa.Table) -> pa.Table:
        tu = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((tu // 86_400_000_000) + 4) % 7
        cents = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        t = pa.table(
            {
                "event_type": tbl.column("event_type"),
                "dow": pa.array(dow, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )
        return (
            t.group_by(["event_type", "dow"])
            .aggregate([([], "count_all"), ("cents", "sum")])
            .rename_columns(["event_type", "dow", "n", "cents"])
        )

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["event_type", "dow"])
            .aggregate([("n", "sum"), ("cents", "sum")])
            .rename_columns(["event_type", "dow", "n", "cents"])
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        return (string_hash_strong(et) % np.uint64(16)).astype(np.int32)

    partials = read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    folded = exchange_fold(partials, fold, parts=16, pid_of=pid_of)
    if folded is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "dow": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "sum_value": pa.array([], pa.float64()),
                    "mean_value": pa.array([], pa.float64()),
                }
            )
        )
    n = folded.column("n").to_numpy().astype(np.int64)
    cents = folded.column("cents").to_numpy().astype(np.int64)
    return ray.data.from_arrow(
        pa.table(
            {
                "event_type": folded.column("event_type"),
                "dow": folded.column("dow"),
                "n_events": pa.array(n, pa.int64()),
                "sum_value": pa.array(cents / 100.0, pa.float64()),
                "mean_value": pa.array(
                    np.floor(cents / 100.0 / n * 1e6 + 0.5) / 1e6, pa.float64()
                ),
            }
        )
    )


DOW_PROFILE_SQL = """
WITH c AS (
  SELECT event_type, CAST(dayofweek(ts) AS BIGINT) AS dow,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM events GROUP BY 1, 2
)
SELECT event_type, dow, n AS n_events, cents / 100.0 AS sum_value,
       floor(cents / 100.0 / n * 1e6 + 0.5) / 1e6 AS mean_value
FROM c
"""


# ---------------------------------------------------------------------------
# MODAL EVENT TYPE — each user's most frequent event type (ties break to
# the lexicographically smallest type, the deterministic contract), with
# its count and share of the user's events. Per-(user, type) counters ride
# ONE user-keyed exchange; inside each partition the winner falls out of a
# single lexsort over (user, -count, type-code) — type codes come from
# np.unique, whose code order IS lexicographic order, so no Python/string
# comparisons in the hot path. Per-user rows stay distributed.


def user_mode_type(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["user_id", "event_type"])

    def partial(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "event_type", "c"])
        )

    def fold(tbl: pa.Table) -> pa.Table:
        t = (
            tbl.group_by(["user_id", "event_type"])
            .aggregate([("c", "sum")])
            .rename_columns(["user_id", "event_type", "c"])
        )
        uid = t.column("user_id").to_numpy()
        c = t.column("c").to_numpy().astype(np.int64)
        types, tcode = np.unique(
            np.asarray(t.column("event_type").to_pylist(), dtype=object),
            return_inverse=True,
        )
        order = np.lexsort((tcode, -c, uid))
        su, sc, st = uid[order], c[order], tcode[order]
        head = np.ones(su.size, dtype=bool)
        head[1:] = su[1:] != su[:-1]
        gid = np.cumsum(head) - 1
        n_user = np.zeros(int(gid[-1]) + 1 if su.size else 0, dtype=np.int64)
        np.add.at(n_user, gid, sc)
        top_c = sc[head]
        share = np.floor(top_c / n_user.astype(np.float64) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "user_id": pa.array(su[head], pa.int64()),
                "top_type": pa.array(
                    [str(types[i]) for i in st[head]], pa.string()
                ),
                "n_top": pa.array(top_c, pa.int64()),
                "share": pa.array(share, pa.float64()),
            }
        )

    return partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), fold, order=())


USER_MODE_TYPE_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), u AS (
  SELECT user_id, CAST(sum(c) AS BIGINT) AS n FROM c GROUP BY 1
), r AS (
  SELECT user_id, event_type, c,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY c DESC, event_type ASC) AS rn
  FROM c
)
SELECT r.user_id, r.event_type AS top_type, r.c AS n_top,
       floor(CAST(r.c AS DOUBLE) / u.n * 1e6 + 0.5) / 1e6 AS share
FROM r JOIN u USING (user_id) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# ROLLING CORRELATION — per-event Pearson correlation between value and
# hour-of-day over the trailing 8-row window (current + 7 preceding)
# inside each user's time-ordered stream: the windowed bivariate analog
# of the rolling scalar family (F1/F5), catching circadian spend drift as
# it happens. All six moments (n, Sx, Sy, Sxx, Syy, Sxy) are exact int64
# over cents x hour built from segment-reset prefix sums — no per-window
# loop; the SQL twin aggregates the identical BIGINT moments through a
# ROWS BETWEEN 7 PRECEDING window, and both sides close with the same
# single float sequence on the 1e-6 grid. A runtime guard pins the int64
# domain (|cents| <= 3e8 keeps n*Sxx within int64).

ROLLING_CORR_WINDOW = 8


def rolling_corr(sf_dir: str) -> ray.data.Dataset:
    W = ROLLING_CORR_WINDOW

    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        tu = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        if x.size and int(np.abs(x).max()) > 300_000_000:
            raise SchemaError(
                "rolling_corr moment domain exceeded (|cents| > 3e8): "
                "n*Sxx would risk int64 overflow vs the BIGINT oracle."
            )
        y = (tu // 3_600_000_000) % 24
        head = _seg_head(uid)
        idx = np.arange(uid.size, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(head, idx, 0))
        start = np.maximum(seg_start, idx - (W - 1))
        n = idx - start + 1

        def wsum(v: np.ndarray) -> np.ndarray:
            c = np.concatenate([[0], np.cumsum(v, dtype=np.int64)])
            return c[idx + 1] - c[start]

        sx, sy = wsum(x), wsum(y)
        sxx, syy, sxy = wsum(x * x), wsum(y * y), wsum(x * y)
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        num = n * sxy - sx * sy
        ok = (n >= 2) & (vx > 0) & (vy > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(
                ok,
                np.floor(
                    num.astype(np.float64)
                    / (np.sqrt(vx.astype(np.float64)) * np.sqrt(vy.astype(np.float64)))
                    * 1e6
                    + 0.5
                )
                / 1e6,
                np.nan,
            )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "rc_n": pa.array(n, pa.int64()),
                "rolling_corr": pa.array(r, pa.float64()),
            }
        )

    return partitioned_ordered(
        read_events(sf_dir, ["event_id", "ts", "user_id", "value"]), kernel
    )


ROLLING_CORR_SQL = """
WITH b AS (
  SELECT event_id, user_id, ts,
         CAST(round(value * 100) AS BIGINT) AS x,
         CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT) AS y
  FROM events
), w AS (
  SELECT event_id, user_id,
         CAST(count(*) OVER win AS BIGINT) AS n,
         CAST(sum(x) OVER win AS BIGINT) AS sx,
         CAST(sum(y) OVER win AS BIGINT) AS sy,
         CAST(sum(x * x) OVER win AS BIGINT) AS sxx,
         CAST(sum(y * y) OVER win AS BIGINT) AS syy,
         CAST(sum(x * y) OVER win AS BIGINT) AS sxy
  FROM b
  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 7 PRECEDING AND CURRENT ROW)
)
SELECT event_id, user_id, n AS rc_n,
       CASE WHEN n >= 2 AND n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
            THEN floor(CAST(n * sxy - sx * sy AS DOUBLE)
                       / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                          * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       * 1e6 + 0.5) / 1e6
            ELSE NULL END AS rolling_corr
FROM w
"""


# ---------------------------------------------------------------------------
# TRANSITION ENTROPY — conditional next-type entropy H(next | prev) per
# previous event type, computed over the SAME within-session transition
# pairs as session_transitions (gap rule shared by construction: the op
# consumes that dataset, so the two can never drift). Exactness is the
# user_entropy discipline: c*ln(c) terms on the 1e-12 integer grid
# before summation, one prev-keyed exchange_fold, final close on the
# 1e-6 grid with the SQL twin's literal expression.


def transition_entropy(sf_dir: str) -> ray.data.Dataset:
    from ..functions.hashing import string_hash_strong
    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["prev_type", "next_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["prev_type", "next_type", "n"])
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        p = tbl.column("prev_type")
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        return (string_hash_strong(p) % np.uint64(16)).astype(np.int32)

    folded = exchange_fold(_transition_counts(sf_dir), fold, parts=16, pid_of=pid_of)
    if folded is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "prev_type": pa.array([], pa.string()),
                    "n_transitions": pa.array([], pa.int64()),
                    "n_next_types": pa.array([], pa.int64()),
                    "cond_entropy": pa.array([], pa.float64()),
                }
            )
        )
    prev = np.asarray(folded.column("prev_type").to_pylist(), dtype=object)
    c = folded.column("n").to_numpy().astype(np.int64)
    uniq, codes = np.unique(prev, return_inverse=True)
    n = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(n, codes, c)
    k = np.bincount(codes, minlength=uniq.size).astype(np.int64)
    term = np.floor(
        c.astype(np.float64) * np.log(c.astype(np.float64)) * ENTROPY_GRID + 0.5
    ).astype(np.int64)
    tsum = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(tsum, codes, term)
    h = np.floor(
        (np.log(n.astype(np.float64)) - (tsum / ENTROPY_GRID) / n) * 1e6 + 0.5
    ) / 1e6
    return ray.data.from_arrow(
        pa.table(
            {
                "prev_type": pa.array([str(x) for x in uniq], pa.string()),
                "n_transitions": pa.array(n, pa.int64()),
                "n_next_types": pa.array(k, pa.int64()),
                "cond_entropy": pa.array(h, pa.float64()),
            }
        )
    )


TRANSITION_ENTROPY_SQL = f"""
WITH g AS (
  SELECT user_id, ts, event_type,
         lag(event_type) OVER w AS prev_type,
         date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS dt_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), c AS (
  SELECT prev_type, event_type AS next_type, CAST(count(*) AS BIGINT) AS c
  FROM g WHERE prev_type IS NOT NULL AND dt_s <= {SESSION_GAP_S}
  GROUP BY 1, 2
), u AS (
  SELECT prev_type, CAST(sum(c) AS BIGINT) AS n, CAST(count(*) AS BIGINT) AS k,
         CAST(sum(CAST(floor(c * ln(c) * 1e12 + 0.5) AS BIGINT)) AS BIGINT) AS t
  FROM c GROUP BY 1
)
SELECT prev_type, n AS n_transitions, k AS n_next_types,
       floor((ln(n) - (t / 1e12) / n) * 1e6 + 0.5) / 1e6 AS cond_entropy
FROM u
"""


# ---------------------------------------------------------------------------
# NEAREST AS-OF JOIN — the direction='nearest' member completing the
# as-of family (backward=asof_join, forward=asof_join_forward,
# tolerance=asof_join_tolerance): each event takes the purchase signal
# minimizing |sig_ts - ts| within the same user, backward winning exact
# distance ties. Both directional candidates come from the SAME
# asof_index calls the directional ops use (backward for "<=", forward for
# ">="), then a vectorized pick — no new join machinery. Tie contract, engine == SQL by construction: backward
# candidate maximizes (sig_ts, is-self, sig_id), forward minimizes
# (sig_ts, NOT is-self, sig_id) — "is-self" because a purchase event is
# its own zero-distance match on both sides (the asof_join "<=" rule).
# nearest_dt_us is SIGNED (sig_ts - ts): direction falls out of the sign.


def asof_join_nearest(sf_dir: str) -> ray.data.Dataset:
    def kernel(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        eid = tbl.column("event_id").to_numpy()
        val = tbl.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        is_sig = pc.equal(tbl.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False
        )
        # backward pick = max (sig_ts, is-self, sig_id) (the asof_join
        # ordering); forward pick = min (sig_ts, not-self, sig_id)
        b = asof_index(uid, ts, is_sig, eid)
        f = asof_index(uid, ts, is_sig, eid, forward=True)
        bok, fok = b >= 0, f >= 0
        bdt = ts - ts[b]  # >= 0 where bok
        fdt = ts[f] - ts  # >= 0 where fok
        use_b = bok & (~fok | (bdt <= fdt))
        ok = bok | fok
        value = np.where(ok, val[np.where(use_b, b, f)], np.nan)
        dt = np.where(use_b, -bdt, fdt)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "ts": tbl.column("ts"),
                "nearest_purchase_value": pa.array(value, pa.float64()),
                "nearest_dt_us": pa.Array.from_pandas(
                    np.where(ok, dt.astype(np.float64), np.nan)
                ).cast(pa.int64()),
            }
        )

    return partitioned_ordered(read_events(sf_dir), kernel)


ASOF_NEAREST_SQL = """
WITH sigs AS (
  SELECT event_id AS sig_id, user_id, ts AS sig_ts, value AS sig_value
  FROM events WHERE event_type = 'purchase'
), b AS (
  SELECT e.event_id, s.sig_value, s.sig_ts,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY s.sig_ts DESC,
                                     (s.sig_id = e.event_id) DESC,
                                     s.sig_id DESC) AS rn
  FROM events e JOIN sigs s ON s.user_id = e.user_id AND s.sig_ts <= e.ts
), f AS (
  SELECT e.event_id, s.sig_value, s.sig_ts,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY s.sig_ts ASC,
                                     (s.sig_id = e.event_id) DESC,
                                     s.sig_id ASC) AS rn
  FROM events e JOIN sigs s ON s.user_id = e.user_id AND s.sig_ts >= e.ts
)
SELECT e.event_id, e.user_id, e.ts,
       CASE WHEN b.sig_ts IS NOT NULL
                 AND (f.sig_ts IS NULL
                      OR epoch_us(e.ts) - epoch_us(b.sig_ts)
                         <= epoch_us(f.sig_ts) - epoch_us(e.ts))
            THEN b.sig_value ELSE f.sig_value END AS nearest_purchase_value,
       CASE WHEN b.sig_ts IS NOT NULL
                 AND (f.sig_ts IS NULL
                      OR epoch_us(e.ts) - epoch_us(b.sig_ts)
                         <= epoch_us(f.sig_ts) - epoch_us(e.ts))
            THEN CAST(epoch_us(b.sig_ts) - epoch_us(e.ts) AS BIGINT)
            ELSE CAST(epoch_us(f.sig_ts) - epoch_us(e.ts) AS BIGINT)
            END AS nearest_dt_us
FROM events e
LEFT JOIN (SELECT * FROM b WHERE rn = 1) b USING (event_id)
LEFT JOIN (SELECT * FROM f WHERE rn = 1) f USING (event_id)
"""


# ---------------------------------------------------------------------------
# ACTIVITY STREAKS — per-user longest run of consecutive active days (the
# engagement-streak feature), the gaps-and-islands pattern: distinct
# (user, epoch-day) pairs dedup per block, ride ONE user-keyed exchange,
# and inside each partition a single sort + day-diff segmentation finds
# run lengths — run boundaries where the day step != 1, max per user via
# np.maximum.at. All int64; the SQL twin is the canonical
# day - row_number() islands grouping, hash-exact by construction.


def streak_features(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["user_id", "ts"])

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        t = pa.table(
            {"user_id": pa.array(uid, pa.int64()), "day": pa.array(day, pa.int64())}
        )
        return t.group_by(["user_id", "day"]).aggregate([]).combine_chunks()

    def fold(tbl: pa.Table) -> pa.Table:
        t = tbl.group_by(["user_id", "day"]).aggregate([])
        uid = t.column("user_id").to_numpy()
        day = t.column("day").to_numpy()
        order = np.lexsort((day, uid))
        su, sd = uid[order], day[order]
        head = np.ones(su.size, dtype=bool)
        head[1:] = su[1:] != su[:-1]
        gid = np.cumsum(head) - 1
        n_user = int(gid[-1]) + 1 if su.size else 0
        n_days = np.bincount(gid, minlength=n_user).astype(np.int64)
        # run boundary: new user OR day step != 1
        run_head = head.copy()
        if su.size > 1:
            run_head[1:] |= sd[1:] != sd[:-1] + 1
        rid = np.cumsum(run_head) - 1
        run_len = np.bincount(rid).astype(np.int64)
        max_streak = np.zeros(n_user, dtype=np.int64)
        np.maximum.at(max_streak, gid[run_head], run_len)
        return pa.table(
            {
                "user_id": pa.array(su[head], pa.int64()),
                "n_active_days": pa.array(n_days, pa.int64()),
                "max_streak_days": pa.array(max_streak, pa.int64()),
            }
        )

    return partitioned_ordered(ds.map_batches(partial, batch_format="pyarrow"), fold, order=())


STREAK_FEATURES_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
), r AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
  FROM d
), runs AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS len FROM r GROUP BY user_id, grp
)
SELECT a.user_id, a.n_active_days, m.max_streak_days
FROM (SELECT user_id, CAST(count(*) AS BIGINT) AS n_active_days FROM d GROUP BY 1) a
JOIN (SELECT user_id, CAST(max(len) AS BIGINT) AS max_streak_days
      FROM runs GROUP BY 1) m USING (user_id)
"""


# ---------------------------------------------------------------------------
# TOP-USER CONCENTRATION — share of all events contributed by the top
# ceil(10%) most active users (the power-user concentration scalar next
# to activity_gini's full curve). The top-k SUM over sorted counts is
# tie-independent (any k users with the same count multiset sum
# identically), so the statistic is exact: per-user counts close under
# the user exchange, collapse to a count-of-counts histogram (<= sqrt(2N)
# rows, the activity_gini bound) through one more counters-only exchange,
# and the driver takes the top-k mass from the histogram tail. k uses
# integer arithmetic ((n_users + 9) // 10) on both sides.


def top_user_share(sf_dir: str) -> pd.DataFrame:
    from ..stages.fold import exchange_fold

    def per_user(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by("user_id")
            .aggregate([("c", "sum")])
            .rename_columns(["user_id", "c"])
        )

    partials = partitioned_ordered(
        read_events(sf_dir, ["user_id"]).map_batches(
            lambda t: t.group_by("user_id")
            .aggregate([([], "count_all")])
            .rename_columns(["user_id", "c"]),
            batch_format="pyarrow",
        ),
        per_user,
        order=(),
    )

    def hist_partial(tbl: pa.Table) -> pa.Table:
        hv = pc.value_counts(tbl.column("c"))
        return pa.table(
            {
                "c": hv.field("values").cast(pa.int64()),
                "n_users": hv.field("counts").cast(pa.int64()),
            }
        )

    def hist_fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by("c")
            .aggregate([("n_users", "sum")])
            .rename_columns(["c", "n_users"])
        )

    folded = exchange_fold(
        partials.map_batches(hist_partial, batch_format="pyarrow"), hist_fold
    )
    if folded is None:
        return pd.DataFrame(
            columns=["n_users", "k_top", "top_events", "total_events", "top_share"]
        ).astype(
            {
                "n_users": np.int64,
                "k_top": np.int64,
                "top_events": np.int64,
                "total_events": np.int64,
                "top_share": np.float64,
            }
        )
    c = folded.column("c").to_numpy().astype(np.int64)
    n = folded.column("n_users").to_numpy().astype(np.int64)
    order = np.argsort(-c, kind="stable")
    c, n = c[order], n[order]
    n_users = int(n.sum())
    total = int((c * n).sum())
    k = (n_users + 9) // 10
    take = np.minimum(np.maximum(k - np.concatenate([[0], np.cumsum(n)[:-1]]), 0), n)
    top_events = int((c * take).sum())
    share = float(np.floor(top_events / total * 1e6 + 0.5) / 1e6)
    return pd.DataFrame(
        {
            "n_users": [np.int64(n_users)],
            "k_top": [np.int64(k)],
            "top_events": [np.int64(top_events)],
            "total_events": [np.int64(total)],
            "top_share": [share],
        }
    )


TOP_USER_SHARE_SQL = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c FROM events GROUP BY 1
), s AS (
  SELECT c, row_number() OVER (ORDER BY c DESC) AS rn FROM c
), k AS (
  SELECT (CAST(count(*) AS BIGINT) + 9) // 10 AS k,
         CAST(sum(c) AS BIGINT) AS tot,
         CAST(count(*) AS BIGINT) AS nu
  FROM c
)
SELECT k.nu AS n_users, k.k AS k_top,
       CAST(sum(CASE WHEN s.rn <= k.k THEN s.c ELSE 0 END) AS BIGINT) AS top_events,
       k.tot AS total_events,
       floor(CAST(sum(CASE WHEN s.rn <= k.k THEN s.c ELSE 0 END) AS DOUBLE)
             / k.tot * 1e6 + 0.5) / 1e6 AS top_share
FROM s, k GROUP BY k.nu, k.k, k.tot
"""


# ---------------------------------------------------------------------------
# DAY-PEER RANK — for each event, its RANK() among ALL events of the same
# calendar day ordered by value (cross-entity peer-group percentile: "how
# did this observation compare to everything else that day"). The
# cross-ENTITY counterpart of the per-user expanding stats: the partition
# key is the day, not the user, so one exchange co-locates each day and the
# kernel ranks whole days vectorized (lexsort by (day, value), first-equal-
# value position forward-filled per day segment). Tie semantics are SQL
# RANK() exactly (1 + count of strictly smaller); the percentile is integer
# fixed-point ((rank-1)*1e6)//(day_n-1) so the twin is bit-identical. A
# skewed day spreads nothing here — days are bounded (one partition holds
# whole days; at 100 TB the day key would be (day, value-bucket) salted
# with a final merge, noted for the scale path).


def day_peer_rank(sf_dir: str) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "value"])

    def add_day(tbl: pa.Table) -> pa.Table:
        day = (
            tbl.column("ts")
            .cast(pa.timestamp("us"))
            .cast(pa.date32())
            .cast(pa.int32())
            .cast(pa.int64())
        )
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "day_num": day,
                "value": tbl.column("value"),
            }
        )

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        day = tbl.column("day_num").to_numpy(zero_copy_only=False)
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        pos = np.arange(n, dtype=np.int64)
        h_day = np.ones(n, dtype=bool)
        h_day[1:] = day[1:] != day[:-1]
        h_val = h_day.copy()
        h_val[1:] |= val[1:] != val[:-1]
        day_start = np.maximum.accumulate(np.where(h_day, pos, -1))
        first_eq = np.maximum.accumulate(np.where(h_val, pos, -1))
        rank = first_eq - day_start + 1
        seg_id = np.cumsum(h_day) - 1
        day_n = np.bincount(seg_id)[seg_id].astype(np.int64)
        pct = np.where(day_n > 1, ((rank - 1) * 1_000_000) // np.maximum(day_n - 1, 1), 0)
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "day_num": tbl.column("day_num"),
                "value": tbl.column("value"),
                "day_n": pa.array(day_n, pa.int64()),
                "rank_asc": pa.array(rank, pa.int64()),
                "pct_1e6": pa.array(pct, pa.int64()),
            }
        )

    ds = ds.map_batches(add_day, batch_format="pyarrow")
    return partitioned_ordered(ds, kernel, key="day_num", order=("value", "event_id"))


DAY_PEER_RANK_SQL = """
WITH d AS (
  SELECT event_id,
         CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT) AS day_num,
         value
  FROM events
), r AS (
  SELECT event_id, day_num, value,
         CAST(rank() OVER (PARTITION BY day_num ORDER BY value) AS BIGINT) AS rank_asc,
         CAST(count(*) OVER (PARTITION BY day_num) AS BIGINT) AS day_n
  FROM d
)
SELECT event_id, day_num, value, day_n, rank_asc,
       CASE WHEN day_n > 1 THEN ((rank_asc - 1) * 1000000) // (day_n - 1)
            ELSE CAST(0 AS BIGINT) END AS pct_1e6
FROM r
"""


# ---------------------------------------------------------------------------
# DEBOUNCE — keep the FIRST event of each burst per (user, event_type),
# where a burst is the chained window [kept_ts, kept_ts + DEBOUNCE_US]: an
# event is kept iff it lands strictly after the last KEPT event plus the
# window (retry-storm / duplicate-webhook suppression). NOT sessionization:
# the window chains from kept events only, so a dense run longer than the
# window keeps its first event, then the first one past the window, etc.
# Inherently sequential per (user, type) chain (same class as greedy
# packing): the kernel walks KEPT events only — each step jumps via
# searchsorted, so work is O(kept x log n) per partition, not O(rows) —
# after the ONE user-keyed exchange of the shared partitioned_ordered
# idiom. The SQL twin is a linear recursive CTE stepping row_number()+1
# per group, carrying the last kept timestamp.

DEBOUNCE_US = 48 * 3600 * 1_000_000  # 48 h chained suppression window


def debounce(sf_dir: str, window_us: int = DEBOUNCE_US) -> ray.data.Dataset:
    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        codes = pc.dictionary_encode(et).indices.to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        kept = np.zeros(n, dtype=bool)
        if n:
            head = np.ones(n, dtype=bool)
            head[1:] = (uid[1:] != uid[:-1]) | (codes[1:] != codes[:-1])
            bounds = np.concatenate([np.nonzero(head)[0], [n]])
            for s, e in zip(bounds[:-1], bounds[1:]):
                i = s
                while i < e:  # iterates once per KEPT event, not per row
                    kept[i] = True
                    i = s + int(np.searchsorted(ts[s:e], ts[i] + window_us, side="right"))
        return pa.table(
            {
                "event_id": tbl.column("event_id"),
                "user_id": tbl.column("user_id"),
                "event_type": tbl.column("event_type"),
                "ts_us": pa.array(ts, pa.int64()),
                "kept": pa.array(kept, pa.bool_()),
            }
        )

    return partitioned_ordered(ds, kernel, key="user_id", order=("event_type", "ts", "event_id"))


DEBOUNCE_SQL = f"""
WITH RECURSIVE e AS (
  SELECT user_id, event_type, event_id, epoch_us(ts) AS ts_us,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM events
), k AS (
  SELECT user_id, event_type, event_id, ts_us, rn,
         ts_us AS kept_ts, TRUE AS kept
  FROM e WHERE rn = 1
  UNION ALL
  SELECT e.user_id, e.event_type, e.event_id, e.ts_us, e.rn,
         CASE WHEN e.ts_us > k.kept_ts + {DEBOUNCE_US} THEN e.ts_us
              ELSE k.kept_ts END,
         e.ts_us > k.kept_ts + {DEBOUNCE_US}
  FROM k JOIN e ON e.user_id = k.user_id
              AND e.event_type = k.event_type AND e.rn = k.rn + 1
)
SELECT event_id, user_id, event_type, ts_us, kept FROM k
"""


# ---------------------------------------------------------------------------
# MARKOV STATIONARY DISTRIBUTION over event types — the long-run occupancy
# of the user-stream transition chain ("where does a user's activity settle
# if the observed transition dynamics persist"). The event-type domain is
# bounded, so the distributed part is exactly transition_entropy's ONE
# (prev,next)-keyed count exchange; the driver then solves the tiny chain:
# row-normalize counts (dangling types redistribute uniformly), power-
# iterate from uniform with a FIXED iteration count (deterministic floats —
# same counts always produce the same vector). Rows-only query (an
# eigenproblem, not SQL); the closed-form two-state chain pins it in
# pytest.

MARKOV_ITERS = 500


def markov_stationary(sf_dir: str):
    import pandas as pd

    from ..functions.hashing import string_hash_strong
    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["prev_type", "next_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["prev_type", "next_type", "n"])
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        p = tbl.column("prev_type")
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        return (string_hash_strong(p) % np.uint64(16)).astype(np.int32)

    folded = exchange_fold(_transition_counts(sf_dir), fold, parts=16, pid_of=pid_of)
    if folded is None:
        return pd.DataFrame({"event_type": [], "n_out": [], "stationary_p": []})
    df = fold(folded).to_pandas()
    types = sorted(set(df["prev_type"]) | set(df["next_type"]))
    k = len(types)
    tix = {t: i for i, t in enumerate(types)}
    C = np.zeros((k, k), dtype=np.float64)
    for p, nx, n in zip(df["prev_type"], df["next_type"], df["n"]):
        C[tix[p], tix[nx]] += float(n)
    out = C.sum(axis=1)
    P = np.where(out[:, None] > 0, C / np.maximum(out[:, None], 1.0), 1.0 / k)
    pi = np.full(k, 1.0 / k)
    for _ in range(MARKOV_ITERS):
        pi = pi @ P
    return pd.DataFrame(
        {
            "event_type": types,
            "n_out": out.astype(np.int64),
            "stationary_p": np.floor(pi * 1e9 + 0.5) / 1e9,
        }
    )


# ---------------------------------------------------------------------------
# TOP SESSION PATHS — the most common session OPENINGS: per session, the
# first <= 3 event types joined 'a>b>c', counted corpus-wide, top-K by
# (count DESC, path ASC). The sequence-pattern summary a funnel designer
# reads before committing to steps. Shape: sessions are user-local, so the
# per-partition kernel (shared sessionize arithmetic) emits per-partition
# (path, n) partials; ONE path-keyed exchange finalizes counts; the global
# top-K is per-partition local top-K + bounded driver fold (the grouped
# top-K superset property — each path lives in one partition).

FUNNEL_PATHS_K = 10
FUNNEL_PATHS_LEN = 3


def funnel_paths_topk(sf_dir: str, k: int = FUNNEL_PATHS_K):
    import pandas as pd

    from ..functions.hashing import string_hash_strong
    from ..stages.fold import exchange_fold

    ds = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return pa.table({"path": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        seg_head, _, sess_len = gap_sessions(head, gap_seconds(head, ts), SESSION_GAP_S)
        sess = np.cumsum(seg_head) - 1
        mask = sess_len <= FUNNEL_PATHS_LEN
        et = np.asarray(tbl.column("event_type").to_pylist(), dtype=object)
        df = pd.DataFrame({"sess": sess[mask], "t": et[mask]})
        paths = df.groupby("sess", sort=True)["t"].agg(">".join)
        vc = paths.value_counts()
        return pa.table(
            {
                "path": pa.array(vc.index.tolist(), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    partials = partitioned_ordered(ds, kernel, key="user_id", order=("ts", "event_id"))

    def fold(tbl: pa.Table) -> pa.Table:
        c = tbl.group_by(["path"]).aggregate([("n", "sum")]).rename_columns(["path", "n"])
        df = c.to_pandas().sort_values(["n", "path"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    folded = exchange_fold(
        partials,
        fold,
        pid_of=lambda t: (
            string_hash_strong(t.column("path").combine_chunks()) % np.uint64(16)
        ).astype(np.int32),
    )
    if folded is None:
        return pd.DataFrame({"path": [], "n": []})
    return fold(folded).to_pandas().reset_index(drop=True)


FUNNEL_PATHS_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, ts, event_type,
         date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 AS gap_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, CAST(sum(CASE WHEN gap_s > {SESSION_GAP_S} THEN 1 ELSE 0 END)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM g
), r AS (
  SELECT *, row_number() OVER (PARTITION BY user_id, session_id
                               ORDER BY ts, event_id) AS rn
  FROM s
), p AS (
  SELECT user_id, session_id,
         string_agg(event_type, '>' ORDER BY ts, event_id) AS path
  FROM r WHERE rn <= {FUNNEL_PATHS_LEN}
  GROUP BY user_id, session_id
)
SELECT path, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY path
ORDER BY n DESC, path LIMIT {FUNNEL_PATHS_K}
"""


# ---------------------------------------------------------------------------
# K-ANONYMITY AUDIT — the data-governance gate before releasing event-level
# training data: any quasi-identifier combination shared by fewer than K
# records re-identifies its members. QI here = (event_type, hour-of-day,
# day-of-week), the same integer calendar kernel as time_features (Sunday=0,
# matching DuckDB dayofweek). Per-batch combo bincount is the combiner
# (domain-bounded: types x 24 x 7 rows per batch at most), ONE counters-only
# exchange_fold keyed on event_type, then the < K filter. Output is the
# violating combos themselves — bounded by the QI domain, never by data size.

K_ANON = 5


def k_anonymity(sf_dir: str):
    from ..functions.hashing import string_hash_array
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["ts", "event_type"])
    day_us = np.int64(86_400_000_000)
    hour_us = np.int64(3_600_000_000)

    def partial(tbl: pa.Table) -> pa.Table:
        us = tbl.column("ts").cast(pa.int64()).to_numpy()
        et = tbl.column("event_type").to_numpy(zero_copy_only=False)
        hour = (us // hour_us) % np.int64(24)
        dow = ((us // day_us) + np.int64(4)) % np.int64(7)
        ut, code = np.unique(et, return_inverse=True)
        key = (code * 24 + hour) * 7 + dow
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "event_type": pa.array(ut[uniq // (24 * 7)], pa.string()),
                "hour": pa.array((uniq // 7) % 24, pa.int64()),
                "dow": pa.array(uniq % 7, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        return (string_hash_array(et) % np.uint64(8)).astype(np.int32)

    folded = exchange_fold(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda t: (
            t.group_by(["event_type", "hour", "dow"])
            .aggregate([("cnt", "sum")])
            .rename_columns(["event_type", "hour", "dow", "cnt"])
        ),
        pid_of=pid_of,
    )
    cols = ["event_type", "hour", "dow", "cnt"]
    if folded is None:
        return pd.DataFrame({c: pd.Series([], dtype=(object if c == "event_type" else np.int64)) for c in cols})
    df = folded.to_pandas().groupby(["event_type", "hour", "dow"], as_index=False)["cnt"].sum()
    out = df[df["cnt"] < K_ANON].reset_index(drop=True)
    return out[cols]


K_ANONYMITY_SQL = f"""
SELECT event_type,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS cnt
FROM events
GROUP BY 1, 2, 3
HAVING count(*) < {K_ANON}
"""


# ---------------------------------------------------------------------------
# Z-ORDER LAYOUT TILES — the data-layout audit before rewriting a table
# clustered on two dimensions: interleave the bits of bucketed (user, value)
# into a 6-bit Morton key and summarize each tile (row count, ts span).
# Files written in z-key ranges serve BOTH user-range and value-range scans
# with bounded over-read — this table is what you inspect to pick the bucket
# widths. Pure integer bit arithmetic (identical expression in the SQL twin),
# per-batch tile combiner bounded by the 64-tile domain, counters-only
# exchange_fold, driver traffic O(tiles x parts).

ZORDER_BITS = 3            # 3 bits per dimension -> 8x8 = 64 tiles
ZORDER_VALUE_BUCKET = 64.0  # value bucket width before clamping to 2^bits-1


def zorder_tiles(sf_dir: str):
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["ts", "user_id", "value"])
    side = 1 << ZORDER_BITS

    def partial(tbl: pa.Table) -> pa.Table:
        us = tbl.column("ts").cast(pa.int64()).to_numpy()
        ux = (tbl.column("user_id").to_numpy() % side).astype(np.int64)
        vx = np.minimum(
            np.floor(tbl.column("value").to_numpy() / ZORDER_VALUE_BUCKET).astype(np.int64),
            side - 1,
        )
        z = np.zeros(tbl.num_rows, dtype=np.int64)
        for b in range(ZORDER_BITS):
            z |= ((ux >> b) & 1) << (2 * b + 1)
            z |= ((vx >> b) & 1) << (2 * b)
        order = np.argsort(z, kind="stable")
        zs, ts = z[order], us[order]
        head = np.ones(zs.size, dtype=bool)
        head[1:] = zs[1:] != zs[:-1]
        starts = np.flatnonzero(head)
        stops = np.r_[starts[1:], zs.size]
        return pa.table(
            {
                "z": pa.array(zs[starts], pa.int64()),
                "n": pa.array(stops - starts, pa.int64()),
                "min_ts": pa.array(
                    np.minimum.reduceat(ts, starts) if zs.size else np.array([], np.int64),
                    pa.int64(),
                ),
                "max_ts": pa.array(
                    np.maximum.reduceat(ts, starts) if zs.size else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by("z").aggregate([("n", "sum"), ("min_ts", "min"), ("max_ts", "max")])
        return g.rename_columns(["z", "n", "min_ts", "max_ts"])

    folded = exchange_fold(
        ev.map_batches(partial, batch_format="pyarrow"),
        fold,
        parts=8,
        pid_of=lambda t: t.column("z").to_numpy(zero_copy_only=False) % 8,
    )
    import pandas as pd

    cols = ["z", "n", "min_ts", "max_ts"]
    if folded is None:
        df = pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})
        df["min_ts"] = pd.to_datetime(df["min_ts"])
        df["max_ts"] = pd.to_datetime(df["max_ts"])
        return df
    df = (
        folded.to_pandas()
        .groupby("z", as_index=False)
        .agg(n=("n", "sum"), min_ts=("min_ts", "min"), max_ts=("max_ts", "max"))
    )
    df["min_ts"] = pd.to_datetime(df["min_ts"], unit="us")
    df["max_ts"] = pd.to_datetime(df["max_ts"], unit="us")
    return df[cols]


def _zorder_expr() -> str:
    terms = []
    for b in range(ZORDER_BITS):
        terms.append(f"((ux >> {b}) & 1) * {1 << (2 * b + 1)}")
        terms.append(f"((vx >> {b}) & 1) * {1 << (2 * b)}")
    return " + ".join(terms)


ZORDER_TILES_SQL = f"""
WITH b AS (
  SELECT ts,
         user_id % {1 << ZORDER_BITS} AS ux,
         least(CAST(floor(value / {ZORDER_VALUE_BUCKET}) AS BIGINT),
               {(1 << ZORDER_BITS) - 1}) AS vx
  FROM events
)
SELECT CAST({_zorder_expr()} AS BIGINT) AS z,
       CAST(count(*) AS BIGINT) AS n,
       min(ts) AS min_ts,
       max(ts) AS max_ts
FROM b GROUP BY 1
"""


# ---------------------------------------------------------------------------
# EVENT STUDY (impact windows) — for every marker event, the count and
# integer-cents value mass of the user's OTHER activity in the preceding
# [t-W, t) and following (t, t+W] windows: the before/after comparison run
# ahead of any incident/release analysis. Fully vectorized with the
# locf_runs merge idiom: events and the four window boundaries per marker
# are tagged with a per-user run id, ONE lexsort orders them with tie keys
# that encode < vs <= exactly (left boundaries sort before equal-ts events,
# right boundaries after), and prefix sums read off every window aggregate —
# no per-user Python, ONE user-keyed exchange.

IMPACT_MARKER = "error"
IMPACT_W_US = 2 * 86_400_000_000  # 2 days


def impact_study(sf_dir: str) -> ray.data.Dataset:
    ev = read_events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "n_pre": pa.array([], pa.int64()),
                "n_post": pa.array([], pa.int64()),
                "sum_pre_cents": pa.array([], pa.int64()),
                "sum_post_cents": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        cents = np.round(tbl.column("value").to_numpy(zero_copy_only=False) * 100).astype(
            np.int64
        )
        head = _seg_head(uid)
        rid = np.cumsum(head) - 1
        m = (
            pc.equal(tbl.column("event_type"), IMPACT_MARKER)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        mi = np.flatnonzero(m)
        if mi.size == 0:
            return empty
        mrid, mts = rid[mi], ts[mi]
        # boundary queries: (value, tie) — tie 0 sorts BEFORE equal-ts events
        # (tie 1), tie 2 AFTER: counts below a tie-0 boundary are ts < v,
        # below a tie-2 boundary are ts <= v
        q_rid = np.concatenate([mrid] * 4)
        q_val = np.concatenate([mts - IMPACT_W_US, mts, mts, mts + IMPACT_W_US])
        q_tie = np.concatenate(
            [
                np.zeros(mi.size, np.int8),      # a: count ts <  t-W ... left
                np.zeros(mi.size, np.int8),      # b: count ts <  t
                np.full(mi.size, 2, np.int8),    # c: count ts <= t
                np.full(mi.size, 2, np.int8),    # d: count ts <= t+W
            ]
        )
        all_rid = np.concatenate([rid, q_rid])
        all_val = np.concatenate([ts, q_val])
        all_tie = np.concatenate([np.ones(n, np.int8), q_tie])
        is_ev = np.concatenate([np.ones(n, bool), np.zeros(q_rid.size, bool)])
        all_cents = np.concatenate([cents, np.zeros(q_rid.size, np.int64)])
        order = np.lexsort((all_tie, all_val, all_rid))
        s_ev = is_ev[order]
        s_rid = all_rid[order]
        ccount = np.cumsum(s_ev.astype(np.int64))
        csum = np.cumsum(np.where(s_ev, all_cents[order], 0))
        # per-rid exclusive base at each merged position
        s_head = np.ones(s_rid.size, dtype=bool)
        s_head[1:] = s_rid[1:] != s_rid[:-1]
        starts = np.flatnonzero(s_head)
        base_cnt = np.concatenate([[0], ccount])[starts]
        base_sum = np.concatenate([[0], csum])[starts]
        seg = np.cumsum(s_head) - 1
        # events BEFORE each merged position, within its rid
        before_cnt = np.concatenate([[0], ccount])[np.arange(s_rid.size)] - base_cnt[seg]
        before_sum = np.concatenate([[0], csum])[np.arange(s_rid.size)] - base_sum[seg]
        # positions of the queries in merged order
        inv = np.empty(order.size, dtype=np.int64)
        inv[order] = np.arange(order.size)
        qpos = inv[n:]
        qc = before_cnt[qpos]
        qs = before_sum[qpos]
        k = mi.size
        a_c, b_c, c_c, d_c = qc[:k], qc[k : 2 * k], qc[2 * k : 3 * k], qc[3 * k :]
        a_s, b_s, c_s, d_s = qs[:k], qs[k : 2 * k], qs[2 * k : 3 * k], qs[3 * k :]
        return pa.table(
            {
                "event_id": tbl.column("event_id").take(pa.array(mi)),
                "n_pre": pa.array(b_c - a_c, pa.int64()),
                "n_post": pa.array(d_c - c_c, pa.int64()),
                "sum_pre_cents": pa.array(b_s - a_s, pa.int64()),
                "sum_post_cents": pa.array(d_s - c_s, pa.int64()),
            }
        )

    return partitioned_ordered(ev, kernel)


IMPACT_STUDY_SQL = f"""
WITH m AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = '{IMPACT_MARKER}'
)
SELECT m.event_id,
       CAST(count(*) FILTER (WHERE w.ts < m.ts) AS BIGINT) AS n_pre,
       CAST(count(*) FILTER (WHERE w.ts > m.ts) AS BIGINT) AS n_post,
       CAST(COALESCE(sum(CAST(round(w.value * 100) AS BIGINT))
                FILTER (WHERE w.ts < m.ts), 0) AS BIGINT) AS sum_pre_cents,
       CAST(COALESCE(sum(CAST(round(w.value * 100) AS BIGINT))
                FILTER (WHERE w.ts > m.ts), 0) AS BIGINT) AS sum_post_cents
FROM m LEFT JOIN events w
  ON w.user_id = m.user_id
 AND w.ts >= m.ts - INTERVAL {IMPACT_W_US // 86_400_000_000} DAY
 AND w.ts <= m.ts + INTERVAL {IMPACT_W_US // 86_400_000_000} DAY
 AND w.ts != m.ts
GROUP BY m.event_id
"""


# ---------------------------------------------------------------------------
# PARTITION-SKEW AUDIT — the "which key should I partition on" diagnostic
# run before committing a layout: for each candidate routing key (user_id
# mod P, calendar-day mod P, event-type leading byte mod P) the bucket-count
# distribution's max/mean ratio over NONEMPTY buckets. A ratio near 1e6
# means balanced; a hot key shows up as max >> mean long before it melts a
# real shuffle. Counters-only per-batch bincounts (bounded by 3 x P rows per
# block), ONE key-name-keyed exchange_fold, 3-row output — all integer
# arithmetic mirrored by the SQL twin.

SKEW_P = 64


def partition_skew(sf_dir: str):
    import pandas as pd

    from ..functions.hashing import string_hash_array
    from ..stages.fold import exchange_fold

    ev = read_events(sf_dir, ["ts", "user_id", "event_type"])
    day_us = np.int64(86_400_000_000)

    def partial(tbl: pa.Table) -> pa.Table:
        us = tbl.column("ts").cast(pa.int64()).to_numpy()
        uid = tbl.column("user_id").to_numpy()
        et = tbl.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        de = pc.dictionary_encode(et)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # leading-codepoint lookup over the DISTINCT type values only
        fb = np.array([ord(s[0]) if s else 0 for s in de.dictionary.to_pylist()],
                      dtype=np.int64)
        first_byte = fb[codes]
        names, buckets = [], []
        for name, b in (
            ("user_mod", uid % SKEW_P),
            ("day_mod", (us // day_us) % SKEW_P),
            ("type_ascii", first_byte % SKEW_P),
        ):
            cnt = np.bincount(b.astype(np.int64), minlength=SKEW_P).astype(np.int64)
            nz = np.flatnonzero(cnt)
            names.append((name, nz, cnt[nz]))
        key = np.concatenate([[n] * len(nz) for n, nz, _ in names])
        bkt = np.concatenate([nz for _, nz, _ in names])
        n = np.concatenate([c for _, _, c in names])
        return pa.table(
            {
                "key_name": pa.array(key, pa.string()),
                "bucket": pa.array(bkt, pa.int64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        k = tbl.column("key_name")
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        return (string_hash_array(k) % np.uint64(4)).astype(np.int32)

    folded = exchange_fold(
        ev.map_batches(partial, batch_format="pyarrow"),
        lambda t: t.group_by(["key_name", "bucket"])
        .aggregate([("n", "sum")])
        .rename_columns(["key_name", "bucket", "n"]),
        parts=4,
        pid_of=pid_of,
    )
    cols = ["key_name", "n_buckets", "max_n", "total", "skew_1e6"]
    if folded is None:
        return pd.DataFrame(
            {c: pd.Series([], dtype=(object if c == "key_name" else np.int64)) for c in cols}
        )
    df = folded.to_pandas().groupby(["key_name", "bucket"], as_index=False)["n"].sum()
    rows = []
    for k, grp in df.groupby("key_name"):
        nb, mx, tot = len(grp), int(grp["n"].max()), int(grp["n"].sum())
        rows.append((k, nb, mx, tot, mx * nb * 10**6 // tot))
    return pd.DataFrame(rows, columns=cols)


PARTITION_SKEW_SQL = f"""
WITH b AS (
  SELECT 'user_mod' AS key_name, user_id % {SKEW_P} AS bucket FROM events
  UNION ALL
  SELECT 'day_mod', CAST(epoch_us(ts) // {86_400_000_000} % {SKEW_P} AS BIGINT) FROM events
  UNION ALL
  SELECT 'type_ascii', ascii(event_type) % {SKEW_P} FROM events
), c AS (
  SELECT key_name, bucket, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY 1, 2
)
SELECT key_name,
       CAST(count(*) AS BIGINT) AS n_buckets,
       CAST(max(n) AS BIGINT) AS max_n,
       CAST(sum(n) AS BIGINT) AS total,
       CAST(max(n) AS BIGINT) * CAST(count(*) AS BIGINT) * 1000000
         // CAST(sum(n) AS BIGINT) AS skew_1e6
FROM c GROUP BY key_name
"""


# ---------------------------------------------------------------------------
# PEAK SESSION CONCURRENCY — the capacity-planning scan: the maximum number
# of simultaneously-open sessions (start <= t <= end, gap-rule sessions from
# the shared sessionize arithmetic) and the earliest instant achieving it.
# Exact and distributed via an endpoint sweep: (+1 at start, -1 after end)
# endpoints range-partition on sampled ts bounds (the pack_sequences
# global-prefix-sum shape), each partition sorts (ts, kind) and cumsums
# locally, partition delta-totals prefix-sum on the driver (P scalars), and
# two bounded per-partition reductions produce the global max + argmin ts.
# Tie rule (starts before ends at equal ts => touching sessions overlap) is
# mirrored by the SQL twin's j.smin <= i.smin <= j.smax count.

CONC_PARTITIONS = 32


def session_concurrency(sf_dir: str):
    import pandas as pd

    ev = read_events(sf_dir, ["event_id", "ts", "user_id"])

    def sess_kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0:
            return pa.table({"smin": pa.array([], pa.int64()), "smax": pa.array([], pa.int64())})
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        sess_head, _, _ = gap_sessions(head, gap_seconds(head, ts), SESSION_GAP_S)
        starts = np.flatnonzero(sess_head)
        ends = np.append(starts[1:] - 1, n - 1)
        return pa.table(
            {"smin": pa.array(ts[starts], pa.int64()), "smax": pa.array(ts[ends], pa.int64())}
        )

    sessions = partitioned_ordered(ev, sess_kernel)

    # sampled ts bounds for order-aligned endpoint partitions
    import pyarrow.parquet as pq

    ev_path = f"{sf_dir}/events.parquet"
    n_ev = pq.read_metadata(ev_path).num_rows
    frac = min(1.0, 10_000 / max(1, n_ev))
    sample = (
        ray.data.read_parquet(ev_path, columns=["ts"]).random_sample(frac, seed=13).take_all()
    )
    s_ts = np.sort(np.array([int(pd.Timestamp(r["ts"]).value // 1000) for r in sample], np.int64))
    idx = (np.arange(1, CONC_PARTITIONS) * s_ts.size) // CONC_PARTITIONS
    bounds = s_ts[np.minimum(idx, s_ts.size - 1)] if s_ts.size else np.array([], np.int64)

    def endpoints(tbl: pa.Table) -> pa.Table:
        smin = tbl.column("smin").to_numpy()
        smax = tbl.column("smax").to_numpy()
        ts = np.concatenate([smin, smax])
        kind = np.concatenate([np.zeros(smin.size, np.int8), np.ones(smax.size, np.int8)])
        delta = np.where(kind == 0, np.int64(1), np.int64(-1))
        return pa.table(
            {
                "ts": pa.array(ts, pa.int64()),
                "kind": pa.array(kind, pa.int8()),
                "delta": pa.array(delta, pa.int64()),
                "__pid": pa.array(np.searchsorted(bounds, ts, side="right").astype(np.int32)),
            }
        )

    def local_scan(tbl: pa.Table) -> pa.Table:
        # rows arrive sorted by (__pid, ts, kind); the running sum restarts
        # at each __pid, and every row carries its __pid's total
        d = tbl.column("delta").to_numpy()
        head = _seg_head(tbl.column("__pid").to_numpy())
        seg = np.cumsum(head) - 1
        run = np.cumsum(d)
        run -= (run - d)[head][seg]
        tail = np.append(head[1:], True)
        return pa.table(
            {
                "ts": tbl.column("ts"),
                "kind": tbl.column("kind"),
                "__pid": tbl.column("__pid"),
                "__local_run": pa.array(run, pa.int64()),
                "__local_tot": pa.array(run[tail][seg], pa.int64()),
            }
        )

    scanned = exchange(
        sessions.map_batches(endpoints, batch_format="pyarrow"),
        "__pid",
        local_scan,
        CONC_PARTITIONS,
        order=("__pid", "ts", "kind"),
    ).materialize()
    from ..stages.fold import pid_totals

    totals = pid_totals(scanned, CONC_PARTITIONS + 1, "__local_tot", np.maximum)
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])

    def reduce_partial(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"mx": pa.array([], pa.int64())})
        pid = tbl.column("__pid").to_numpy()
        run = tbl.column("__local_run").to_numpy() + offsets[pid]
        return pa.table({"mx": pa.array([int(run.max())], pa.int64())})

    from ..stages.fold import exchange_fold

    def fold_max(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table({"mx": pa.array([int(t.column("mx").to_numpy().max())], pa.int64())})

    gmax_tbl = exchange_fold(
        scanned.map_batches(reduce_partial, batch_format="pyarrow"), fold_max, parts=4
    )
    if gmax_tbl is None or gmax_tbl.num_rows == 0:
        return pd.DataFrame({"max_concurrent": pd.Series([], dtype=np.int64),
                             "at_ts": pd.Series([], dtype="datetime64[us]")})
    gmax = int(gmax_tbl.column("mx").to_numpy().max())

    def argmin_partial(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"t": pa.array([], pa.int64())})
        pid = tbl.column("__pid").to_numpy()
        run = tbl.column("__local_run").to_numpy() + offsets[pid]
        kind = tbl.column("kind").to_numpy()
        ts = tbl.column("ts").to_numpy()
        sel = (run == gmax) & (kind == 0)
        if not sel.any():
            return pa.table({"t": pa.array([], pa.int64())})
        return pa.table({"t": pa.array([int(ts[sel].min())], pa.int64())})

    def fold_min(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table({"t": pa.array([int(t.column("t").to_numpy().min())], pa.int64())})

    t_tbl = exchange_fold(
        scanned.map_batches(argmin_partial, batch_format="pyarrow"), fold_min, parts=4
    )
    at_us = int(t_tbl.column("t").to_numpy().min())
    return pd.DataFrame(
        {"max_concurrent": [gmax], "at_ts": [pd.to_datetime(at_us, unit="us")]}
    )


SESSION_CONCURRENCY_SQL = f"""
WITH g AS (
  SELECT user_id, ts, event_id,
         CASE WHEN date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0
                   > {SESSION_GAP_S} THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
              AS session_id
  FROM g
), sess AS MATERIALIZED (
  SELECT user_id, session_id, min(ts) AS smin, max(ts) AS smax
  FROM s GROUP BY 1, 2
), conc AS (
  SELECT i.user_id, i.session_id, i.smin AS t, CAST(count(*) AS BIGINT) AS c
  FROM sess i JOIN sess j ON j.smin <= i.smin AND j.smax >= i.smin
  GROUP BY 1, 2, 3
)
SELECT c AS max_concurrent, t AS at_ts
FROM conc ORDER BY c DESC, t LIMIT 1
"""


# ---------------------------------------------------------------------------
# BOT / AUTOMATION FLAGS — the crawl-hygiene gate before events feed any
# engagement signal: automated clients beat human traffic by inter-arrival
# REGULARITY, so flag users whose gap coefficient-of-variation is tiny at
# meaningful volume. CV^2 = (g*S2 - S^2) / S^2 with S = sum gaps (us),
# S2 = sum gap^2, g = gap count — integer-exact on a 1e6 grid (python ints;
# SQL twin in HUGEINT), one user-keyed ordered kernel, zero extra exchanges.

BOT_MIN_GAPS = 5
BOT_CV2_1E6 = 10_000  # CV < 0.1


def bot_flags(sf_dir: str) -> ray.data.Dataset:
    ev = read_events(sf_dir, ["event_id", "ts", "user_id"])

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "cv2_1e6": pa.array([], pa.int64()),
                "is_bot": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        uid = tbl.column("user_id").to_numpy()
        ts = tbl.column("ts").cast(pa.int64()).to_numpy()
        head = _seg_head(uid)
        starts = np.flatnonzero(head)
        # gaps quantized to SECONDS before squaring (orders_gap_stats idiom:
        # keeps vectorized int64 sums exact — overflow would need ~1e6 gaps
        # of ~30 years each per user)
        d = np.diff(ts) // np.int64(1_000_000)
        gap_ok = np.ones(n - 1, dtype=bool)
        gap_ok[starts[1:] - 1] = False  # diffs crossing user boundaries
        seg = (np.cumsum(head) - 1)[1:]
        nu = starts.size
        g = np.bincount(seg[gap_ok], minlength=nu).astype(np.int64)
        s_sum = np.zeros(nu, dtype=np.int64)
        s_sq = np.zeros(nu, dtype=np.int64)
        np.add.at(s_sum, seg[gap_ok], d[gap_ok])
        np.add.at(s_sq, seg[gap_ok], d[gap_ok] * d[gap_ok])
        keep = np.flatnonzero(g >= BOT_MIN_GAPS)
        if keep.size == 0:
            return empty
        users = uid[starts]
        out_cv, out_b = [], []
        for i in keep:  # one iteration per USER aggregate (burstiness idiom)
            gi, S, S2 = int(g[i]), int(s_sum[i]), int(s_sq[i])  # python-int
            cv2 = (gi * S2 - S * S) * 10**6 // (S * S) if S > 0 else 0  # exact
            out_cv.append(cv2)
            out_b.append(1 if cv2 < BOT_CV2_1E6 else 0)
        return pa.table(
            {
                "user_id": pa.array(users[keep], pa.int64()),
                "n_gaps": pa.array(g[keep], pa.int64()),
                "cv2_1e6": pa.array(out_cv, pa.int64()),
                "is_bot": pa.array(out_b, pa.int64()),
            }
        )

    return partitioned_ordered(ev, kernel)


BOT_FLAGS_SQL = f"""
WITH d AS (
  SELECT user_id,
         date_diff('microsecond', lag(ts) OVER (PARTITION BY user_id
                   ORDER BY ts, event_id), ts) // 1000000 AS gap
  FROM events
), a AS (
  SELECT user_id,
         CAST(count(gap) AS BIGINT) AS g,
         sum(CAST(gap AS HUGEINT)) AS s,
         sum(CAST(gap AS HUGEINT) * gap) AS s2
  FROM d WHERE gap IS NOT NULL GROUP BY user_id
)
SELECT user_id, g AS n_gaps,
       CAST(CASE WHEN s > 0 THEN (g * s2 - s * s) * 1000000 // (s * s)
                 ELSE 0 END AS BIGINT) AS cv2_1e6,
       CAST(CASE WHEN s > 0 AND (g * s2 - s * s) * 1000000 // (s * s)
                      < {BOT_CV2_1E6} THEN 1 ELSE 0 END AS BIGINT) AS is_bot
FROM a WHERE g >= {BOT_MIN_GAPS}
"""
