"""Distributed BPE vocabulary learning over the `documents` corpus.

The tokenizer-training step of an LLM data pipeline (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"), recast in
the scalable two-level shape every production trainer uses:

1. ONE corpus-scale pass builds the distinct-word frequency table (per-batch
   Arrow hash-agg combiner + word-keyed exchange — the same shape as the
   bigram/df ops). Everything after runs on the word table, which is
   vocabulary-sized, not corpus-sized.
2. Each merge round over the DISTRIBUTED word table:
   - pair counting: adjacent symbol pairs weighted by word count, packed
     into one int64 key, per-batch bincount combiner, pair-keyed exchange,
     per-partition exact sums + local top-1, driver folds <= P candidates
     (count desc, key asc tie-break -> byte-deterministic winner);
   - merge application: one vectorized scan over the flat symbol buffer
     (left-to-right non-overlapping, the "aaa"+(a,a) case resolved by
     position-in-run parity — no per-word Python);
   - the word table re-materializes with pinned block refs each round
     (the graph.py iterative-loop idiom) so plans stay flat.

Driver-side state is bounded: the alphabet (distinct characters — bounded by
the script, not the corpus), one merge candidate per partition per round,
and the merge table itself. No SQL oracle (iterative argmax); pinned in
pytest against a naive single-process BPE reference.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import string_hash_strong
from ..stages.exchange import exchange, pid_of, read_table

PAIR_SHIFT = np.int64(25)  # symbol ids < 2^25 (alphabet + merges)
WORD_PARTS = 16
PAIR_PARTS = 16
N_MERGES = 12


def _read_docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return read_table([f"{sf_dir}/documents.parquet"], columns)


def word_counts(sf_dir: str, parts: int = WORD_PARTS) -> ray.data.Dataset:
    """Distinct-word frequency table: (word, cnt), exact, distributed."""

    def partial(tbl: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(tbl.column("text"), " "))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        # drop empty tokens (empty docs split to [""]); zero-length words
        # would break the flat-buffer pair/merge kernels' offset arithmetic
        toks = toks.filter(pc.greater(pc.utf8_length(toks), 0))
        agg = (
            pa.table({"word": toks, "cnt": pa.array(np.ones(len(toks), np.int64))})
            .group_by(["word"])
            .aggregate([("cnt", "sum")])
        )
        w = agg.column("word").combine_chunks()
        pid = (string_hash_strong(w) % np.uint64(parts)).astype(np.int32)
        return pa.table({"word": w, "cnt": agg.column("cnt_sum"), "__pid": pa.array(pid)})

    def fold(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["word"]).aggregate([("cnt", "sum")])
        return agg.rename_columns(["word", "cnt"])

    partials = _read_docs(sf_dir, ["text"]).map_batches(partial, batch_format="pyarrow")
    return exchange(partials, "__pid", fold, parts)


def _alphabet(words: ray.data.Dataset) -> list[str]:
    """Sorted distinct characters of the corpus — bounded by the script
    (the one legitimately driver-sized artifact of BPE training)."""

    def chars(tbl: pa.Table) -> pa.Table:
        # distinct codepoints of the block's words via ONE utf-32 decode —
        # output is alphabet-sized regardless of block size
        joined = "".join(tbl.column("word").to_pylist())
        cps = np.unique(np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32))
        return pa.table({"ch": pa.array([chr(c) for c in cps], pa.string())})

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        u = pc.unique(
            tbl.column("ch").combine_chunks()
            if isinstance(tbl.column("ch"), pa.ChunkedArray)
            else tbl.column("ch")
        )
        return pa.table({"ch": u})

    # alphabet-sized rows per BLOCK merge through one exchange (driver sees
    # <= parts x alphabet rows, not blocks x alphabet)
    folded = exchange_fold(words.map_batches(chars, batch_format="pyarrow"), fold)
    return sorted(folded.column("ch").to_pylist()) if folded is not None else []


def _symbolize(tbl: pa.Table, sym_of: dict[str, int]) -> pa.Table:
    """word string -> list<int32> of initial (character) symbol ids.
    Vectorized via codepoint lookup table (alphabet is bounded)."""
    w = tbl.column("word").combine_chunks()
    lens = pc.utf8_length(w).to_numpy(zero_copy_only=False).astype(np.int64)
    # codepoints of the concatenated words; map through a lookup array
    joined = "".join(w.to_pylist())
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    lut = np.full(int(cps.max(initial=0)) + 1, -1, dtype=np.int32)
    for ch, sid in sym_of.items():
        cp = ord(ch)
        if cp < lut.size:
            lut[cp] = sid
    syms = lut[cps]
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    return pa.table(
        {
            "cnt": tbl.column("cnt"),
            "syms": pa.ListArray.from_arrays(pa.array(offs, pa.int32()), pa.array(syms)),
        }
    )


def _flat_syms(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat int32 symbols, int64 row offsets, int64 counts) of a word block."""
    col = tbl.column("syms").combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    cnt = tbl.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offs, cnt


def _pair_partial(tbl: pa.Table, parts: int = PAIR_PARTS) -> pa.Table:
    """Per-batch pair-count combiner: (packed pair key, weighted count)."""
    flat, offs, cnt = _flat_syms(tbl)
    n = flat.size
    if n < 2:
        return pa.table({"pair": pa.array([], pa.int64()), "c": pa.array([], pa.int64()),
                         "__pid": pa.array([], pa.int32())})
    lens = np.diff(offs)
    valid = np.ones(n - 1, dtype=bool)
    valid[offs[1:-1] - 1] = False  # pairs straddling word boundaries
    keys = (flat[:-1].astype(np.int64) << PAIR_SHIFT) | flat[1:].astype(np.int64)
    w = np.repeat(cnt, np.maximum(lens - 1, 0))
    keys = keys[valid]
    uk, inv = np.unique(keys, return_inverse=True)
    sums = np.bincount(inv, weights=w.astype(np.float64)).astype(np.int64)
    return pa.table(
        {
            "pair": pa.array(uk, pa.int64()),
            "c": pa.array(sums),
            "__pid": pa.array(pid_of(uk, parts)),
        }
    )


def _pair_top1(tbl: pa.Table) -> pa.Table:
    """Per-block exact pair sums -> single best (count desc, key asc); the
    block's best beats every pair it owns, so the global best is among the
    blocks' bests."""
    pair = tbl.column("pair").to_numpy(zero_copy_only=False)
    c = tbl.column("c").to_numpy(zero_copy_only=False)
    uk, inv = np.unique(pair, return_inverse=True)
    sums = np.bincount(inv, weights=c.astype(np.float64)).astype(np.int64)
    best = np.lexsort((uk, -sums))[0]
    return pa.table({"pair": pa.array([uk[best]]), "c": pa.array([sums[best]])})


def _apply_merge(tbl: pa.Table, a: int, b: int, new_id: int) -> pa.Table:
    """Replace each non-overlapping (a,b) adjacency with new_id, left to
    right, in one vectorized scan of the flat symbol buffer."""
    flat, offs, cnt = _flat_syms(tbl)
    n = flat.size
    if n < 2:
        return tbl
    hit = np.zeros(n - 1, dtype=bool)
    hit[: n - 1] = (flat[:-1] == a) & (flat[1:] == b)
    hit[offs[1:-1] - 1] = False  # never merge across word boundaries
    pos = np.flatnonzero(hit)
    if pos.size == 0:
        return tbl
    # left-to-right non-overlap: within each run of CONSECUTIVE hit positions
    # (e.g. "aaa" with pair (a,a)), keep even offsets into the run
    run_start = np.concatenate([[True], np.diff(pos) != 1])
    run_id = np.cumsum(run_start) - 1
    pos_in_run = pos - pos[run_start][run_id]
    keep = pos[(pos_in_run % 2) == 0]
    out = flat.astype(np.int32, copy=True)
    out[keep] = new_id
    drop = np.zeros(n, dtype=bool)
    drop[keep + 1] = True
    # new per-word lengths: words lose one symbol per kept merge inside them
    word_of_keep = np.searchsorted(offs, keep, side="right") - 1
    lens = np.diff(offs)
    dec = np.bincount(word_of_keep, minlength=lens.size)
    new_lens = (lens - dec).astype(np.int32)
    new_offs = np.concatenate([[0], np.cumsum(new_lens)]).astype(np.int32)
    return pa.table(
        {
            "cnt": tbl.column("cnt"),
            "syms": pa.ListArray.from_arrays(
                pa.array(new_offs, pa.int32()), pa.array(out[~drop])
            ),
        }
    )


def _pin(ds: ray.data.Dataset) -> ray.data.Dataset:
    """materialize + re-wrap block refs so the plan stays flat per round
    (stages/graph.py lineage-pinning idiom)."""
    refs = [r for r in ds.materialize().to_arrow_refs()]
    return ray.data.from_arrow_refs(refs)


def bpe_train(sf_dir: str, n_merges: int = N_MERGES, return_encoder: bool = False):
    """Learn `n_merges` BPE merges over the corpus. Returns a pandas
    DataFrame (rank, left, right, token, pair_count) — the merge table, in
    learned order. Deterministic: ties break on the packed pair key, i.e.
    (left id, right id) ascending. With return_encoder=True, also returns
    the id-level encoder state (alphabet list, [(a, b, new_id), ...]) for
    bpe_encode."""
    import pandas as pd

    words = _pin(word_counts(sf_dir))
    # data-aware round sizing: every merge round costs one task per block
    # plus one reduce group per pair partition, which is pure scheduling
    # overhead when the vocabulary is small. Real corpora (millions of
    # distinct words) keep the full width; tiny vocabularies collapse to a
    # handful of tasks per round.
    n_words = words.count()
    pair_parts = max(1, min(PAIR_PARTS, n_words // 512))
    if n_words // 512 < WORD_PARTS:
        words = _pin(words.repartition(max(1, n_words // 512)))
    alphabet = _alphabet(words)
    sym_of = {ch: i for i, ch in enumerate(alphabet)}
    sym_str = list(alphabet)
    table = _pin(words.map_batches(lambda t: _symbolize(t, sym_of), batch_format="pyarrow"))

    merges = []
    id_merges: list[tuple[int, int, int]] = []
    for rank in range(n_merges):
        partials = table.map_batches(
            functools.partial(_pair_partial, parts=pair_parts), batch_format="pyarrow"
        )
        cands = exchange(partials, "__pid", _pair_top1, pair_parts).take_all()  # <= PAIR_PARTS rows
        if not cands:
            break
        best = min(cands, key=lambda r: (-int(r["c"]), int(r["pair"])))
        pair_key, cnt = int(best["pair"]), int(best["c"])
        if cnt <= 0:
            break
        a = pair_key >> int(PAIR_SHIFT)
        b = pair_key & ((1 << int(PAIR_SHIFT)) - 1)
        new_id = len(sym_str)
        sym_str.append(sym_str[a] + sym_str[b])
        id_merges.append((a, b, new_id))
        merges.append(
            {
                "rank": rank,
                "left": sym_str[a],
                "right": sym_str[b],
                "token": sym_str[new_id],
                "pair_count": cnt,
            }
        )
        table = _pin(
            table.map_batches(
                lambda t, a=a, b=b, nid=new_id: _apply_merge(t, a, b, nid),
                batch_format="pyarrow",
            )
        )
    df = pd.DataFrame(merges, columns=["rank", "left", "right", "token", "pair_count"])
    if return_encoder:
        return df, alphabet, id_merges
    return df


def bpe_merges(sf_dir: str):
    """Driver-contract query (rows-only: iterative global argmax is not
    SQL-expressible; pinned against a naive reference in pytest)."""
    return bpe_train(sf_dir, N_MERGES)


def bpe_encode(sf_dir: str, n_merges: int = N_MERGES) -> ray.data.Dataset:
    """Tokenizer APPLICATION at corpus scale — the other half of the
    train -> encode story: learn the merge table once (bounded driver
    state), broadcast it (ray.put once), then one stateless vectorized
    pass over documents. Per batch, only the DISTINCT words are encoded
    (dictionary-encode combiner: Zipf makes this a large constant factor),
    merges replay in rank order through the same _apply_merge kernel the
    trainer uses, and per-doc BPE token counts come from one segment-sum —
    no per-word Python in the hot path. Rows-only driver check (iterative
    merge learning is not SQL-expressible); pinned against a naive
    single-process encoder in pytest, including the "aaa" left-to-right
    non-overlap parity case."""
    _, alphabet, id_merges = bpe_train(sf_dir, n_merges, return_encoder=True)
    sym_of = {ch: i for i, ch in enumerate(alphabet)}
    enc_ref = ray.put((sym_of, id_merges))

    def encode(tbl: pa.Table) -> pa.Table:
        sym, merges_l = ray.get(enc_ref)
        toks = pc.split_pattern(tbl.column("text"), " ")
        nw = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        de = pc.dictionary_encode(flat)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        words = de.dictionary
        if len(words):
            # Zero-length dictionary entries (empty docs split to [""],
            # double/leading spaces) contribute 0 BPE tokens but would break
            # the flat-buffer offset arithmetic in _symbolize/_apply_merge
            # (offs[i+1]==offs[i] makes the boundary mask wrap) — filter them
            # out of the word table and map their codes to 0 tokens, the same
            # policy word_counts applies on the training path.
            wlens = pc.utf8_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
            keep = wlens > 0
            per_word_all = np.zeros(len(words), np.int64)
            if keep.any():
                kept_words = words.filter(pa.array(keep))
                wt = _symbolize(
                    pa.table(
                        {
                            "word": kept_words,
                            "cnt": pa.array(np.ones(len(kept_words), np.int64), pa.int64()),
                        }
                    ),
                    sym,
                )
                for a, b, nid in merges_l:
                    wt = _apply_merge(wt, a, b, nid)
                n_syms = (
                    pc.list_value_length(wt.column("syms").combine_chunks())
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
                per_word_all[keep] = n_syms
            per_word = per_word_all[codes]
        else:
            per_word = np.zeros(0, np.int64)
        offs = np.concatenate([[0], np.cumsum(nw)])[:-1]
        per_doc = (
            np.add.reduceat(per_word, np.minimum(offs, per_word.size - 1))
            if per_word.size
            else np.zeros(tbl.num_rows, np.int64)
        )
        per_doc = np.where(nw > 0, per_doc, 0)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_words": pa.array(nw, pa.int64()),
                "n_bpe_tokens": pa.array(per_doc, pa.int64()),
            }
        )

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(encode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# UNIGRAM-LM TOKENIZER (Kudo 2018, the SentencePiece unigram model) — the
# other major subword algorithm beside BPE, trained here with hard EM:
# candidate pieces are all substrings up to UNI_MAX_PIECE chars over the
# distinct-word table; each round Viterbi-segments every word under the
# current piece log-probs, recounts piece usage (weighted by word counts),
# prunes to single chars + the top UNI_VOCAB multi-char pieces
# (count DESC, piece ASC — integer-deterministic), and rescores. All
# corpus-scale work is the ONE word_counts exchange; per round the pieces
# travel driver->workers once (ray.put) and counts come back through one
# piece-keyed exchange bounded by the candidate vocabulary. Single chars
# are never pruned, so every word stays segmentable. Rows-only query
# (iterative EM); pinned against a naive single-process reference in
# pytest.

UNI_MAX_PIECE = 4
UNI_VOCAB = 48
UNI_ITERS = 3
UNI_MIN_COUNT = 2


def _viterbi_counts(words, cnts, scores: dict, max_len: int):
    """Hard-EM E-step for one word batch: best segmentation per word under
    `scores` (log probs), returning piece usage counts weighted by word
    counts. DP tie-break: a candidate replaces the incumbent only on
    strictly better score, with pieces tried shortest-first — deterministic
    for any dict content."""
    usage: dict = {}
    for w, c in zip(words, cnts):
        n = len(w)
        best = np.full(n + 1, -np.inf)
        best[0] = 0.0
        back = np.zeros(n + 1, dtype=np.int64)
        for j in range(1, n + 1):
            for L in range(1, min(max_len, j) + 1):
                piece = w[j - L : j]
                sc = scores.get(piece)
                if sc is None:
                    continue
                cand = best[j - L] + sc
                if cand > best[j]:
                    best[j] = cand
                    back[j] = L
        j = n
        while j > 0:
            L = int(back[j])
            if L == 0:  # unreachable while the alphabet is pinned; hard stop
                raise ValueError(f"unsegmentable word {w!r}")
            piece = w[j - L : j]
            usage[piece] = usage.get(piece, 0) + int(c)
            j -= L
    return usage


def unigram_pieces(sf_dir: str, vocab: int = UNI_VOCAB, iters: int = UNI_ITERS):
    import pandas as pd
    import ray

    from ..stages.fold import exchange_fold

    words = _pin(word_counts(sf_dir))

    # --- candidate harvest: substring counts over the word table
    def cand_partial(tbl: pa.Table) -> pa.Table:
        ws = tbl.column("word").to_pylist()
        cs = tbl.column("cnt").to_numpy(zero_copy_only=False)
        counts: dict = {}
        for w, c in zip(ws, cs):
            for i in range(len(w)):
                for L in range(1, min(UNI_MAX_PIECE, len(w) - i) + 1):
                    p = w[i : i + L]
                    counts[p] = counts.get(p, 0) + int(c)
        items = sorted(counts.items())
        return pa.table(
            {
                "piece": pa.array([k for k, _ in items], pa.string()),
                "n": pa.array(np.array([v for _, v in items], dtype=np.int64)),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["piece"]).aggregate([("n", "sum")]).rename_columns(["piece", "n"])
        )

    def pid_of(tbl: pa.Table) -> np.ndarray:
        p = tbl.column("piece")
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        return (string_hash_strong(p) % np.uint64(16)).astype(np.int32)

    folded = exchange_fold(
        words.map_batches(cand_partial, batch_format="pyarrow"), fold, pid_of=pid_of
    )
    if folded is None:
        return pd.DataFrame(columns=["piece", "cnt", "score_1e6"])
    cdf = fold(folded).to_pandas()
    # the alphabet is pinned for the whole run: a char whose occurrences are
    # all covered by multi-char pieces must STILL be segmentable next round
    alphabet = sorted(cdf[cdf["piece"].str.len() == 1]["piece"])

    def prune(df: pd.DataFrame) -> dict:
        chars = pd.DataFrame({"piece": alphabet}).merge(
            df[df["piece"].str.len() == 1], on="piece", how="left"
        )
        chars["n"] = chars["n"].fillna(0).astype(np.int64) + 1  # +1 floor
        multi = df[(df["piece"].str.len() > 1) & (df["n"] >= UNI_MIN_COUNT)]
        multi = multi.sort_values(["n", "piece"], ascending=[False, True]).head(vocab)
        kept = pd.concat([chars, multi])
        total = float(kept["n"].sum())
        return dict(zip(kept["piece"], np.log(kept["n"].to_numpy() / total)))

    scores = prune(cdf)

    for _ in range(iters):
        sref = ray.put(scores)

        def em_partial(tbl: pa.Table, sref=sref) -> pa.Table:
            sc = ray.get(sref)
            usage = _viterbi_counts(
                tbl.column("word").to_pylist(),
                tbl.column("cnt").to_numpy(zero_copy_only=False),
                sc,
                UNI_MAX_PIECE,
            )
            items = sorted(usage.items())
            return pa.table(
                {
                    "piece": pa.array([k for k, _ in items], pa.string()),
                    "n": pa.array(np.array([v for _, v in items], dtype=np.int64)),
                }
            )

        folded = exchange_fold(
            words.map_batches(em_partial, batch_format="pyarrow"), fold, pid_of=pid_of
        )
        udf = fold(folded).to_pandas()
        scores = prune(udf)

    out = pd.DataFrame(
        {"piece": list(scores.keys())}
    )
    cnts = udf.set_index("piece")["n"]
    out["cnt"] = [int(cnts.get(p, 0)) for p in out["piece"]]
    out["score_1e6"] = np.floor(np.array([scores[p] for p in out["piece"]]) * 1e6) / 1e6
    return out.sort_values(["cnt", "piece"], ascending=[False, True]).reset_index(drop=True)
