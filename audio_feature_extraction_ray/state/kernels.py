"""Pure streaming merge kernels: (state, rows) -> (state, feature_rows).

The webtext recast of the reference's explicit-state streaming design
(StreamBuffer ring buffer + carried overlap state, design.md:1851-2002;
extract_streaming's (output, state) pairs, design.md:594-609). Everything here
is plain numpy/pyarrow — no Ray imports — so the kernels are unit-testable
single-process and identical code runs inside map_groups / actor stages.

Ordering contract: input rows of one partition arrive sorted by
(url, warc_ts); a url never spans two partitions. Chunked processing
(StreamingMerger) must equal one-shot processing (merge_partition) exactly —
pinned by tests/test_kernels.py.

Leakage discipline (SURVEY §4.3): every output value at row i is a function of
rows j <= i of the same url (plus signals rows with ts <= ts_i). Features are
computed BEFORE the current row is folded into any carried state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from zlib import crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import FeatureConfig

# ---------------------------------------------------------------------------
# token hashing with a per-process cache (stateful setup done once per worker,
# the actor-pool idiom — reference: model/state loaded once, design.md:1743)

_TOKEN_HASH_CACHE: dict[str, int] = {}

# --- vectorized 64-bit token hashing (must agree bit-for-bit with
# functions.text.token_hashes64) ------------------------------------------

from ..functions.registry import apply_extra_features as _apply_extra_features  # noqa: E402
from ..functions.text import _TOK_K, _TOK_LMIX, _TOK_W  # noqa: E402
from ..stages.text_stage import per_row_text_features as _per_row_text_features  # noqa: E402


# Row-chunk size: keeps the uint64 hash/index temporaries L2-resident. This
# machine's DRAM bandwidth saturates near 8 concurrent streaming workers, so
# cache residency is what buys 32-worker scaling (same finding as the trigram
# kernel in stages/text_stage.py).
_TOKHASH_ROW_CHUNK = 512


def _token_hashes64_batch(text_arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sorted-unique uint64 token hashes for a string column.

    Returns (hashes, row_offsets): hashes concatenated per row in ascending
    order; row r's set is hashes[row_offsets[r]:row_offsets[r+1]]. Processed
    in fixed row chunks (rows are independent, results concatenate exactly)."""
    if isinstance(text_arr, pa.ChunkedArray):
        text_arr = text_arr.combine_chunks()
    n = len(text_arr)
    if n > _TOKHASH_ROW_CHUNK:
        hs_parts: list[np.ndarray] = []
        off_parts: list[np.ndarray] = [np.zeros(1, np.int64)]
        base = np.int64(0)
        for i in range(0, n, _TOKHASH_ROW_CHUNK):
            hs_i, off_i = _token_hashes64_batch(text_arr.slice(i, _TOKHASH_ROW_CHUNK))
            hs_parts.append(hs_i)
            off_parts.append(off_i[1:] + base)
            base += off_i[-1]
        return np.concatenate(hs_parts), np.concatenate(off_parts)
    toks = pc.split_pattern(text_arr, " ")
    ntok = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    m = len(flat)
    if m == 0:
        return np.empty(0, np.uint64), np.zeros(n + 1, np.int64)
    off_dtype = np.int64 if pa.types.is_large_string(flat.type) else np.int32
    off = np.frombuffer(flat.buffers()[1], dtype=off_dtype)[flat.offset : flat.offset + m + 1].astype(np.int64)
    data = np.frombuffer(flat.buffers()[2], dtype=np.uint8)
    lens = off[1:] - off[:-1]
    starts = off[:-1]
    h = lens.astype(np.uint64)
    with np.errstate(over="ignore"):
        h *= _TOK_LMIX
        hi = data.size - 1
        for j in range(_TOK_K if data.size else 0):
            idx = np.minimum(starts + j, hi)
            contrib = data[idx].astype(np.uint64)
            contrib *= lens > j
            contrib *= _TOK_W[j]
            h += contrib
    row_of = np.repeat(np.arange(n, dtype=np.int64), ntok)
    keep = lens > 0  # python str.split() drops empty tokens
    h, row_of = h[keep], row_of[keep]
    order = np.lexsort((h, row_of))
    rs, hs = row_of[order], h[order]
    uniq = np.ones(rs.size, dtype=bool)
    uniq[1:] = (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1])
    rs, hs = rs[uniq], hs[uniq]
    counts = np.bincount(rs, minlength=n)
    row_off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return hs, row_off


def _pairwise_intersections(hs: np.ndarray, row_off: np.ndarray, pair_mask: np.ndarray) -> np.ndarray:
    """For each row p with pair_mask[p] True, |set(p-1) ∩ set(p)|.

    One global sort over the doubled entry array — no per-row Python."""
    n = row_off.size - 1
    sizes = np.diff(row_off)
    row_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    # entries participate in pair p=row (as current) and p=row+1 (as previous)
    cur_keep = pair_mask[row_of]
    nxt = row_of + 1
    nxt_keep = (nxt < n) & pair_mask[np.minimum(nxt, n - 1)]
    tags = np.concatenate([row_of[cur_keep], nxt[nxt_keep]])
    vals = np.concatenate([hs[cur_keep], hs[nxt_keep]])
    if tags.size == 0:
        return np.zeros(n, dtype=np.int64)
    order = np.lexsort((vals, tags))
    t, v = tags[order], vals[order]
    dup = np.zeros(t.size, dtype=bool)
    dup[1:] = (t[1:] == t[:-1]) & (v[1:] == v[:-1])
    return np.bincount(t[dup], minlength=n)


def _token_hash_set(text: str) -> np.ndarray:
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint32)
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(toks), dtype=np.uint32)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = crc32(t.encode("utf-8"))
            if len(cache) < 2_000_000:  # bound worker memory
                cache[t] = h
        out[i] = h
    return np.unique(out)


def _jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


# ---------------------------------------------------------------------------
# as-of right side: host -> sorted observation arrays (broadcast via ray.put
# once, ray.get'd per worker — never re-shipped per batch)


class SignalsLookup:
    """Sorted per-host signal series for as-of (ts <= t) lookups.

    Storage is flat offset arrays (unique sorted hosts + per-host [lo, hi)
    spans over host-then-ts-sorted ts/rank/ok arrays) — no per-host dict, so
    whole-chunk lookups (locf_runs) are ONE lexsort-merge with zero Python
    per host run (round-1 verdict #5's offset-array form)."""

    def __init__(self, signals: pa.Table):
        host = np.asarray(signals.column("host").to_pylist(), dtype=object)
        ts = signals.column("ts").cast(pa.int64()).to_numpy()
        rank = np.asarray(
            signals.column("rank").to_numpy(zero_copy_only=False), dtype=np.float64
        )
        ok = np.asarray(
            signals.column("fetch_ok").to_numpy(zero_copy_only=False), dtype=np.float64
        )
        order = np.lexsort((ts, host))
        hs = host[order]
        self._ts = ts[order]
        self._rank = rank[order]
        self._ok = ok[order]
        if hs.size:
            head = _seg_head(hs)
            self._hosts = hs[head]
            self._off = np.append(np.flatnonzero(head), hs.size).astype(np.int64)
        else:
            self._hosts = np.empty(0, dtype=object)
            self._off = np.zeros(1, dtype=np.int64)

    def _host_pos(self, hosts: np.ndarray) -> np.ndarray:
        """Index into self._hosts per host, -1 if absent."""
        pos = np.searchsorted(self._hosts, hosts)
        ok = pos < self._hosts.size
        ok[ok] = self._hosts[pos[ok]] == hosts[ok]
        return np.where(ok, pos, -1)

    def locf(self, host: str, ts_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized last-observation-carried-forward for one host: for each
        query ts (µs), the rank/fetch_ok of the latest obs with obs.ts <= ts
        (exact ties match — "<=" semantics); NaN when no prior obs."""
        n = ts_us.size
        p = self._host_pos(np.asarray([host], dtype=object))[0]
        if p < 0:
            return np.full(n, np.nan), np.full(n, np.nan)
        lo, hi = self._off[p], self._off[p + 1]
        idx = lo + np.searchsorted(self._ts[lo:hi], ts_us, side="right") - 1
        ok_mask = idx >= lo
        r = np.full(n, np.nan)
        o = np.full(n, np.nan)
        r[ok_mask] = self._rank[idx[ok_mask]]
        o[ok_mask] = self._ok[idx[ok_mask]]
        return r, o

    def locf_runs(
        self, run_hosts: list[str], run_bounds: np.ndarray, ts_us: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-chunk LOCF: rows form host runs (run_hosts[k] covers rows
        run_bounds[k]:run_bounds[k+1]); returns (rank, fetch_ok) per row.

        The touched signal entries and the query rows are tagged with a
        compact run id and resolved by one asof_index call (a signal at the
        query's ts is visible: "<="). Same semantics as per-host locf(),
        pinned by pytest; no Python loop over runs."""
        n = ts_us.size
        rank = np.full(n, np.nan)
        okv = np.full(n, np.nan)
        if n == 0 or self._hosts.size == 0:
            return rank, okv
        rh = np.asarray(run_hosts, dtype=object)
        hpos = self._host_pos(rh)
        valid_run = hpos >= 0
        if not valid_run.any():
            return rank, okv
        vsel = np.flatnonzero(valid_run)
        lo = self._off[hpos[vsel]]
        hi = self._off[hpos[vsel] + 1]
        seg_len = hi - lo
        ns = int(seg_len.sum())
        base = np.repeat(np.concatenate([[0], np.cumsum(seg_len)[:-1]]), seg_len)
        sig_idx = np.repeat(lo, seg_len) + (np.arange(ns, dtype=np.int64) - base)
        sig_seg = np.repeat(np.arange(vsel.size, dtype=np.int64), seg_len)
        # query rows of valid runs, tagged with the compact run id
        run_sizes = np.diff(run_bounds)
        row_run = np.repeat(np.arange(rh.size, dtype=np.int64), run_sizes)
        compact = np.full(rh.size, -1, dtype=np.int64)
        compact[vsel] = np.arange(vsel.size)
        q_rows = np.flatnonzero(valid_run[row_run])
        q_seg = compact[row_run[q_rows]]
        nq = q_rows.size
        # tiebreak by merged position: among equal-ts signals of a host the
        # last in signal order wins, as in locf()'s searchsorted(side="right")
        match = asof_index(
            np.concatenate([sig_seg, q_seg]),
            np.concatenate([self._ts[sig_idx], ts_us[q_rows]]),
            np.arange(ns + nq) < ns,
            np.arange(ns + nq),
        )[ns:]
        hit = match >= 0
        rows = q_rows[hit]
        vals = sig_idx[match[hit]]
        rank[rows] = self._rank[vals]
        okv[rows] = self._ok[vals]
        return rank, okv


# ---------------------------------------------------------------------------
# carried per-url state across chunk boundaries


@dataclass
class _UrlCarry:
    url: str = ""
    ts_us: int = 0
    lang: str = ""
    session_id: float = 0.0
    session_len: float = 0.0
    run_len: float = 0.0
    token_hashes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    # trailing token counts, most recent LAST, at most window_k-1 entries
    recent_tok: list[float] = field(default_factory=list)


def _neq_prev_mask(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """mask[i] = col[i] != col[i-1], mask[0] = True — Arrow string compare,
    no Python string materialization."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    out = np.ones(n, dtype=bool)
    if n > 1:
        out[1:] = pc.not_equal(col.slice(1), col.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    return out


def _propagate_last(head_vals: np.ndarray, head_mask: np.ndarray) -> np.ndarray:
    """For each row, the value of head_vals at the most recent True in
    head_mask (inclusive). head_vals must be 0 where head_mask is False."""
    idx = np.where(head_mask, np.arange(head_mask.size), 0)
    np.maximum.accumulate(idx, out=idx)
    return head_vals[idx]


# ---------------------------------------------------------------------------
# point-in-time primitives over a frame sorted by (segment, ts, ...): the
# as-of cursor, gap sessions and the k-row window, shared by the pages
# kernel (_history_features, SignalsLookup.locf_runs), the events kernels
# (pipelines/events.py) and the co-partitioned as-of join (stages/asof.py).


def _seg_head(seg: np.ndarray) -> np.ndarray:
    """head[i] = seg[i] != seg[i-1]; head[0] = True."""
    head = np.ones(seg.size, dtype=bool)
    head[1:] = seg[1:] != seg[:-1]
    return head


def carried_index(seg: np.ndarray, src: np.ndarray) -> np.ndarray:
    """The as-of cursor: for each row, the position of the latest `src` row
    at or before it within its segment (rows of one segment are contiguous),
    or -1. One maximum.accumulate serves every segment at once."""
    last = np.where(src, np.arange(src.size), -1)
    np.maximum.accumulate(last, out=last)
    last[seg[np.maximum(last, 0)] != seg] = -1
    return last


def asof_index(
    seg: np.ndarray, ts: np.ndarray, src: np.ndarray, tiebreak: np.ndarray, forward: bool = False
) -> np.ndarray:
    """Per row, the row index of its as-of `src` match in the same segment,
    or -1. Backward: the latest source with source.ts <= ts. Forward: the
    earliest with source.ts >= ts. At equal ts a source counts as before
    (backward) or after (forward) the other rows, so a source row matches
    itself; among equal-ts sources the largest (backward) or smallest
    (forward) `tiebreak` wins. Rows may come in any order."""
    if forward:
        # the cursor runs over the reversed ascending order
        order = np.lexsort((tiebreak, src, ts, seg))[::-1]
    else:
        order = np.lexsort((tiebreak, ~src, ts, seg))
    hit = carried_index(seg[order], src[order])
    out = np.empty(order.size, dtype=np.int64)
    out[order] = np.where(hit >= 0, order[hit], -1)
    return out


def gap_seconds(head: np.ndarray, ts_us: np.ndarray) -> np.ndarray:
    """Seconds since the previous row of the same segment; NaN at heads."""
    dt = np.full(ts_us.size, np.nan)
    dt[1:] = (ts_us[1:] - ts_us[:-1]) / 1e6
    dt[head] = np.nan
    return dt


def gap_sessions(
    head: np.ndarray, dt: np.ndarray, gap_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap sessions within segments: a gap strictly greater than gap_s
    starts a session (NaN gaps never do). Returns (session-head flag,
    session_id counted from 0 at each segment head, session_len = rows
    since the session head, inclusive)."""
    with np.errstate(invalid="ignore"):
        flag = dt > gap_s
    c = np.cumsum(flag)
    session_id = c - _propagate_last(np.where(head, c - flag, 0), head)
    sess_head = head | flag
    ar = np.arange(dt.size)
    session_len = ar - _propagate_last(np.where(sess_head, ar, 0), sess_head) + 1
    return sess_head, session_id, session_len


def shifted_stack(vals: np.ndarray, head: np.ndarray, k: int) -> np.ndarray:
    """The k-row window: a (k, n) stack of vals shifted down by 0..k-1 rows,
    NaN where the shift crosses a segment head."""
    n = vals.size
    shifted = np.full((k, n), np.nan)
    shifted[0] = vals
    ar = np.arange(n)
    rows_since_head = ar - _propagate_last(np.where(head, ar, 0), head)
    for j in range(1, min(k, n)):
        shifted[j, j:] = vals[:-j]
        shifted[j, rows_since_head < j] = np.nan
    return shifted


def _history_features(
    url_col: pa.Array,
    ts_us: np.ndarray,
    lang_col: pa.Array,
    tokc: np.ndarray,
    texts: pa.Array,  # text column (Arrow)
    cfg: FeatureConfig,
    carry: _UrlCarry | None,
) -> tuple[dict[str, np.ndarray], _UrlCarry]:
    """Vectorized history features over a sorted, deduped chunk.

    `carry` holds the state of the last url of the PREVIOUS chunk; only the
    first segment of this chunk can continue it. Returns (columns, new_carry).
    """
    n = len(url_col)
    gap_s = cfg.session_gap_s
    k = cfg.window_k
    head = _neq_prev_mask(url_col)
    first_url = url_col[0].as_py() if n else ""
    cont = carry is not None and n > 0 and first_url == carry.url  # first segment continues

    # --- ts_since_prev -----------------------------------------------------
    dt = gap_seconds(head, ts_us)
    if cont:
        dt[0] = (ts_us[0] - carry.ts_us) / 1e6

    # --- sessions ----------------------------------------------------------
    # a continuing chunk head (dt[0] from the carry) may itself start a
    # session; its session_id then reads 1 before the carry is added
    sess_head, session_id, session_len = gap_sessions(head, dt, gap_s)
    session_id = session_id.astype(np.float64)
    session_len = session_len.astype(np.float64)
    ar = np.arange(n)
    if cont:
        seg0 = int(np.argmax(head[1:]) + 1) if n > 1 and head[1:].any() else n  # first segment end
        session_id[:seg0] += carry.session_id
        if not dt[0] > gap_s:
            # rows of the first *session* sub-segment continue the carried length
            sub_end = seg0
            flags_in_seg = np.nonzero(sess_head[1:seg0])[0]
            if flags_in_seg.size:
                sub_end = int(flags_in_seg[0]) + 1
            session_len[:sub_end] += carry.session_len

    # --- lang run length ---------------------------------------------------
    lang_change = _neq_prev_mask(lang_col)
    run_head = head | lang_change
    run_len = ar - _propagate_last(np.where(run_head, ar, 0), run_head) + 1.0
    if cont and n > 0 and lang_col[0].as_py() == carry.lang:
        seg0 = int(np.argmax(head[1:]) + 1) if n > 1 and head[1:].any() else n
        run_end = seg0
        changes = np.nonzero(lang_change[1:seg0])[0]
        if changes.size:
            run_end = int(changes[0]) + 1
        run_len[:run_end] += carry.run_len

    # --- lag1 token count --------------------------------------------------
    lag1 = np.full(n, np.nan)
    lag1[1:] = tokc[:-1]
    lag1[head] = np.nan
    if cont:
        lag1[0] = carry.recent_tok[-1] if carry.recent_tok else np.nan

    # --- rolling window over last k (incl. current) ------------------------
    # entries that cross a url head are NaN; a continuing first segment
    # takes them from the carry
    shifted = shifted_stack(tokc, head, k)
    if cont and carry.recent_tok:
        seg0 = int(np.argmax(head[1:]) + 1) if n > 1 and head[1:].any() else n
        rt = carry.recent_tok  # most recent last
        for i in range(min(seg0, k - 1)):
            # row i of continuing segment: shifts i+1..k-1 come from carry
            for j in range(i + 1, k):
                back = j - i  # how far into carry (1 = most recent)
                if back <= len(rt):
                    shifted[j, i] = rt[-back]
    with np.errstate(invalid="ignore"):
        rw_mean = np.nanmean(shifted, axis=0)
        rw_max = np.nanmax(shifted, axis=0)

    # --- text churn (1 - jaccard vs previous revisit), fully vectorized ----
    hs_all, row_off = _token_hashes64_batch(texts)
    sizes = np.diff(row_off)
    pair_mask = ~head
    inter = _pairwise_intersections(hs_all, row_off, pair_mask)
    churn = np.full(n, np.nan)
    if n > 1:
        union = sizes[:-1] + sizes[1:] - inter[1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            c = 1.0 - inter[1:] / union
        c[union == 0] = 0.0  # both empty -> jaccard 1 -> churn 0
        churn[1:][pair_mask[1:]] = c[pair_mask[1:]]
    if cont and carry.token_hashes is not None:
        row0 = hs_all[row_off[0] : row_off[1]]
        churn[0] = 1.0 - _jaccard(row0, carry.token_hashes)

    # --- new carry (state of the last url in this chunk) -------------------
    if n:
        last_seg = int(_propagate_last(np.where(head, ar, 0), head)[-1])
        new_recent: list[float]
        seg_len_tail = n - last_seg
        # keep at least ONE entry even when k == 1: lag1 needs the previous
        # revisit's count across chunk boundaries regardless of window size
        keep = max(k - 1, 1)
        if cont and last_seg == 0:
            new_recent = (list(carry.recent_tok) + list(tokc))[-keep:]
        else:
            new_recent = list(tokc[max(n - keep, last_seg) : n])
        new_carry = _UrlCarry(
            url=url_col[n - 1].as_py(),
            ts_us=int(ts_us[-1]),
            lang=lang_col[n - 1].as_py(),
            session_id=float(session_id[-1]),
            session_len=float(session_len[-1]),
            run_len=float(run_len[-1]),
            token_hashes=hs_all[row_off[n - 1] : row_off[n]],
            recent_tok=new_recent,
        )
    else:
        new_carry = carry if carry is not None else _UrlCarry()

    return (
        {
            "ts_since_prev": dt,
            "session_id": session_id.astype(np.float64),
            "session_len": session_len.astype(np.float64),
            "lang_run_length": run_len.astype(np.float64),
            "lag1_token_count": lag1,
            "rw_mean_token_count": rw_mean,
            "rw_max_token_count": rw_max,
            "text_churn": churn,
        },
        new_carry,
    )


def _sort_dedup(tbl: pa.Table) -> pa.Table:
    tbl = tbl.sort_by([("url", "ascending"), ("warc_ts", "ascending")])
    ts = tbl.column("warc_ts").cast(pa.int64()).to_numpy()
    keep = _neq_prev_mask(tbl.column("url"))
    keep[1:] |= ts[1:] != ts[:-1]
    if keep.all():
        return tbl
    return tbl.filter(pa.array(keep))


class StreamingMerger:
    """Chunk-at-a-time merger carrying per-url state across chunk boundaries
    (the reference's StreamBuffer/process_chunk shape, design.md:1794-1846).

    Chunks must arrive sorted by (url, warc_ts) and already deduped. Per-row
    text features (token_count, char_count, ngram_b*) are attached on entry if
    absent — they are pure functions of `text` and deliberately NOT shuffled."""

    def __init__(self, cfg: FeatureConfig, signals: SignalsLookup | None = None):
        self.cfg = cfg
        self.signals = signals
        self._carry: _UrlCarry | None = None

    def process_chunk(self, tbl: pa.Table) -> pa.Table:
        cfg = self.cfg
        if "token_count" not in tbl.column_names:
            # per-row numerics are computed HERE (post-shuffle, post-dedup)
            # rather than shipped through the exchange — pure functions of
            # `text`, ~80B/row of shuffle volume saved (SURVEY §7.4)
            tbl = _per_row_text_features(tbl, cfg)
        n = tbl.num_rows
        url_col = tbl.column("url").combine_chunks() if isinstance(tbl.column("url"), pa.ChunkedArray) else tbl.column("url")
        lang_col = tbl.column("lang").combine_chunks() if isinstance(tbl.column("lang"), pa.ChunkedArray) else tbl.column("lang")
        ts_us = tbl.column("warc_ts").cast(pa.int64()).to_numpy()
        tokc = tbl.column("token_count").to_numpy(zero_copy_only=False).astype(np.float64)
        texts = tbl.column("text")

        cols, self._carry = _history_features(url_col, ts_us, lang_col, tokc, texts, cfg, self._carry)

        out = tbl
        for name, arr in cols.items():
            out = out.append_column(name, pa.array(arr, pa.float64()))

        if self.signals is not None and cfg.signals_path is not None:
            host_col = tbl.column("host")
            host_change = _neq_prev_mask(host_col)
            # hosts form contiguous runs in url-sorted order; the whole chunk
            # is resolved in ONE vectorized merge (locf_runs) — no Python
            # iteration per host run
            run_starts = np.nonzero(host_change)[0]
            run_bounds = np.append(run_starts, n)
            if isinstance(host_col, pa.ChunkedArray):
                host_col = host_col.combine_chunks()
            run_hosts = host_col.take(pa.array(run_starts)).to_pylist() if n else []
            rank, ok = self.signals.locf_runs(run_hosts, run_bounds, ts_us)
            out = out.append_column("locf_rank", pa.array(rank, pa.float64()))
            out = out.append_column("locf_fetch_ok", pa.array(ok, pa.float64()))

        if cfg.extra_features:
            out = _apply_extra_features(out, list(cfg.extra_features))

        # pack the fixed-width feature vector (null -> NaN), declared order
        order = cfg.feature_order
        mat = np.empty((n, len(order)), dtype=np.float64)
        for j, name in enumerate(order):
            col = out.column(name)
            mat[:, j] = col.to_numpy(zero_copy_only=False).astype(np.float64)
        out = out.append_column(
            "features", pa.FixedSizeListArray.from_arrays(pa.array(mat.ravel(), pa.float64()), len(order))
        )
        return out


def merge_partition_chunks(
    tbl: pa.Table,
    cfg: FeatureConfig,
    signals: SignalsLookup | None = None,
    chunk_rows: int = 65536,
):
    """Bounded-memory partition merge: sort -> dedup once, then stream the
    partition through a StreamingMerger in `chunk_rows` slices, yielding one
    feature table per slice. Peak memory = input partition + O(chunk), vs
    input + full output for the one-shot path — at 10^12-doc scale a single
    partition's output need never be resident at once (the checkpoint writer
    consumes this iterator into an incremental parquet write).

    Chunked == one-shot exactly (pinned by tests). Lead labels need one-row
    lookahead across chunk boundaries, so emit_labels uses merge_partition.
    """
    if cfg.emit_labels:
        raise ValueError("emit_labels requires the one-shot merge_partition path")
    tbl = _sort_dedup(tbl)
    merger = StreamingMerger(cfg, signals)
    for i in range(0, max(tbl.num_rows, 1), chunk_rows):
        chunk = tbl.slice(i, chunk_rows)
        if chunk.num_rows or i == 0:
            yield merger.process_chunk(chunk)


def merge_partition(
    tbl: pa.Table, cfg: FeatureConfig, signals: SignalsLookup | None = None
) -> pa.Table:
    """One-shot partition merge: sort -> dedup-keep-first -> history features
    -> as-of LOCF -> packed vector. Equivalent to StreamingMerger over the
    whole partition in one chunk.

    With cfg.emit_labels, lead columns are added by a reversed second pass
    over the full partition (SURVEY §4.3): they carry the label_ prefix and
    are NEVER packed into the feature vector — leads are training labels, not
    features (reference analog: delta frames as targets, tasks.md:637-658)."""
    tbl = _sort_dedup(tbl)
    out = StreamingMerger(cfg, signals).process_chunk(tbl)
    if cfg.emit_labels:
        n = out.num_rows
        url_col = out.column("url")
        head = _neq_prev_mask(url_col)
        tail = np.zeros(n, dtype=bool)  # last row of each url
        if n:
            tail[:-1] = head[1:]
            tail[-1] = True
        tokc = out.column("token_count").to_numpy(zero_copy_only=False).astype(np.float64)
        ts_us = out.column("warc_ts").cast(pa.int64()).to_numpy()
        lead_tok = np.full(n, np.nan)
        lead_dt = np.full(n, np.nan)
        if n > 1:
            lead_tok[:-1] = tokc[1:]
            lead_dt[:-1] = (ts_us[1:] - ts_us[:-1]) / 1e6
        lead_tok[tail] = np.nan
        lead_dt[tail] = np.nan
        out = out.append_column("label_lead1_token_count", pa.array(lead_tok, pa.float64()))
        out = out.append_column("label_ts_to_next", pa.array(lead_dt, pa.float64()))
    return out
