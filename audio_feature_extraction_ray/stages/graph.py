"""Iterative graph operators over edge Datasets: connected components.

The dedup-clustering step of a near-dup pipeline: candidate pairs (from
LSH / SimHash / exact Jaccard) are edges; each connected component is one
duplicate cluster, and keep-one-per-cluster falls out as `min(id) ==
cluster label`.

Algorithm: synchronous min-label propagation. Each iteration ships
(neighbor_label) messages along the SYMMETRIC edge list via the
co-partitioned equi-join exchange (stages/join.py) and folds them with a
vectorized per-partition group-min — no per-node Python anywhere. The
label total strictly decreases until fixpoint, so convergence detection is
one cheap sum over the (bounded, node-count-sized) label table.

Each round also pointer-jumps the label table (label <- label[label], the
Shiloach-Vishkin shortcut, realized as one more co-partitioned join), so
even adversarially chain-shaped graphs converge in O(log n) rounds; dense
near-dup clusters converge in the same handful either way (the fixture's
265-node/9k-edge graph converges in 4).

Scale notes: edges and labels are PAIR-scale (candidate output), far
smaller than the corpus; both stay in Ray Datasets end-to-end —
materialize() between iterations holds them in the object store, never on
the driver. The only driver-side values are the per-iteration label sums.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .exchange import exchange, pid_of


@ray.remote(num_cpus=1)
def _concat_blocks(*tbls: pa.Table) -> pa.Table:
    kept = [t for t in tbls if t.num_rows]
    return pa.concat_tables(kept) if kept else tbls[0]


def _group_min(ds: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """(node, label) -> per-node min label: in-batch combiner + ONE hash
    exchange + vectorized per-partition segment min."""

    def combine(tbl: pa.Table) -> pa.Table:
        node = tbl.column("node").to_numpy()
        lbl = tbl.column("label").to_numpy()
        order = np.lexsort((lbl, node))
        ns, ls = node[order], lbl[order]
        head = np.ones(ns.size, dtype=bool)
        head[1:] = ns[1:] != ns[:-1]
        starts = np.flatnonzero(head)
        return pa.table(
            {
                "node": pa.array(ns[starts], pa.int64()),
                "label": pa.array(ls[starts], pa.int64()),  # sorted: first == min
                "__pid": pa.array(pid_of(ns[starts], num_partitions)),
            }
        )

    def finish(tbl: pa.Table) -> pa.Table:
        node = tbl.column("node").to_numpy()
        lbl = tbl.column("label").to_numpy()
        order = np.lexsort((lbl, node))
        ns, ls = node[order], lbl[order]
        head = np.ones(ns.size, dtype=bool)
        head[1:] = ns[1:] != ns[:-1]
        starts = np.flatnonzero(head)
        return pa.table(
            {"node": pa.array(ns[starts], pa.int64()), "label": pa.array(ls[starts], pa.int64())}
        )

    return exchange(

        ds.map_batches(combine, batch_format="pyarrow"), "__pid", finish, num_partitions

    )


def connected_components(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 16,
    max_iter: int = 25,
    shortcut: bool = True,
    auto_width: bool = True,
) -> ray.data.Dataset:
    """Label every node of the undirected edge Dataset with the minimum node
    id reachable from it. Returns a Dataset (node, label); nodes without
    edges are not emitted (singletons are their own trivial cluster).

    With shortcut=True (default) every round ALSO pointer-jumps the label
    table (label <- label[label], the Shiloach-Vishkin shortcut realized as
    a labels-with-labels co-partitioned join), which contracts label chains
    geometrically: chain/path graphs converge in O(log n) rounds instead of
    O(diameter) — the round-2 verdict's star-contraction upgrade, on the
    same exchange shape. Dense near-dup clusters converge in the same
    handful of rounds either way.

    Raises RuntimeError if max_iter passes without reaching the fixpoint."""
    from .join import copartitioned_equijoin

    def sym(tbl: pa.Table) -> pa.Table:
        a = tbl.column(a_col).cast(pa.int64()).combine_chunks()
        b = tbl.column(b_col).cast(pa.int64()).combine_chunks()
        # both directions PLUS self-loops: the self-loop forwards a node's
        # own current label, so each iteration is ONE message exchange —
        # no labels-union inside the loop (dataset unions in a loop compound
        # the plan and each materialize gets slower than the last)
        ends = pa.concat_arrays([a, b])
        u = np.unique(ends.to_numpy())
        loops = pa.array(u, pa.int64())
        return pa.table(
            {
                "src": pa.concat_arrays([a, b, loops]),
                "dst": pa.concat_arrays([b, a, loops]),
            }
        )

    sym_edges = edges.map_batches(sym, batch_format="pyarrow").materialize()
    # data-aware round width: every iteration costs one task per block and
    # one reduce group per partition — scheduling overhead that dwarfs the
    # vector work on small candidate graphs; pair-scale inputs keep the
    # requested width
    if auto_width:
        num_partitions = max(1, min(num_partitions, sym_edges.count() // 20_000))
    if num_partitions == 1:
        # whole graph in one partition: iterate to the fixpoint inside ONE
        # worker task (min-label propagation + pointer jumping over local
        # index arrays). The output contract — min reachable id per node —
        # is algorithm-independent, so this is the same answer the
        # distributed rounds produce, without per-round stage round-trips.
        def local_cc(tbl: pa.Table) -> pa.Table:
            src = tbl.column("src").to_numpy()
            dst = tbl.column("dst").to_numpy()
            uniq = np.unique(src)  # self-loops guarantee every node appears
            sidx = np.searchsorted(uniq, src)
            didx = np.searchsorted(uniq, dst)
            label = np.arange(uniq.size, dtype=np.int64)
            while True:
                new = label.copy()
                np.minimum.at(new, didx, label[sidx])
                new = new[new]  # pointer jump
                if np.array_equal(new, label):
                    break
                label = new
            return pa.table(
                {
                    "node": pa.array(uniq, pa.int64()),
                    "label": pa.array(uniq[label], pa.int64()),
                }
            )

        return exchange(sym_edges, "__one", local_cc, 1)
    sym_edges = ray.data.from_arrow_refs(
        [r for r in sym_edges.to_arrow_refs()]
    )  # pinned: consumed once per iteration (see _pin below)

    def seed(tbl: pa.Table) -> pa.Table:
        n = tbl.column("src").to_numpy()
        u = np.unique(n)
        return pa.table({"node": pa.array(u, pa.int64()), "label": pa.array(u, pa.int64())})

    def _pin(ds: ray.data.Dataset) -> ray.data.Dataset:
        """Hard lineage cut + block coalesce: rebase the dataset on its
        materialized block refs. A bare materialize() is not enough here —
        consuming iteration i's MaterializedDataset re-executed its
        ancestry, so loop walls grew every round (measured 1.5s -> 9.4s over
        6 iterations); from_arrow_refs pins the blocks in the object store.
        Coalescing matters just as much: each union-based join emits
        fact-blocks + dim-blocks, so block count would DOUBLE per round
        (measured 4 -> 1024 blocks in 8 rounds, 0.4s -> 49s walls) — a
        shuffle-free remote concat folds them back to num_partitions."""
        refs = [r for r in ds.materialize().to_arrow_refs()]
        if len(refs) > 2 * num_partitions:
            refs = [
                _concat_blocks.remote(*refs[i::num_partitions])
                for i in range(min(num_partitions, len(refs)))
            ]
        return ray.data.from_arrow_refs(refs)

    labels = _pin(_group_min(sym_edges.map_batches(seed, batch_format="pyarrow"), num_partitions))
    prev_sum = labels.sum("label")

    for _ in range(max_iter):
        # messages: each edge (incl. the self-loop) forwards its src's
        # CURRENT label to dst; the per-node min IS the next label table
        msgs = copartitioned_equijoin(
            sym_edges,
            labels,
            fact_key="src",
            dim_key="node",
            fact_cols=["dst"],
            dim_cols=["label"],
            num_partitions=num_partitions,
            fact_col_types={"dst": pa.int64()},
            dim_col_types={"label": pa.int64()},
        ).map_batches(
            lambda t: pa.table({"node": t.column("dst"), "label": t.column("label")}),
            batch_format="pyarrow",
        )
        labels = _pin(_group_min(msgs, num_partitions))
        if shortcut:
            # pointer jump: label <- label[label]. Total inner join: every
            # label IS a node id present in the label table.
            as_dim = labels.map_batches(
                lambda t: pa.table(
                    {"pnode": t.column("node"), "glabel": t.column("label")}
                ),
                batch_format="pyarrow",
            )
            labels = _pin(
                copartitioned_equijoin(
                    labels,
                    as_dim,
                    fact_key="label",
                    dim_key="pnode",
                    fact_cols=["node"],
                    dim_cols=["glabel"],
                    num_partitions=num_partitions,
                    fact_col_types={"node": pa.int64()},
                    dim_col_types={"glabel": pa.int64()},
                    key_type=pa.int64(),
                ).map_batches(
                    lambda t: pa.table(
                        {"node": t.column("node"), "label": t.column("glabel")}
                    ),
                    batch_format="pyarrow",
                )
            )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    raise RuntimeError(f"connected_components did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# PageRank, fixed-point integer arithmetic. All state is int64 "rank units"
# (RANK_SCALE = 1e12 per unit mass): contributions are r // deg and the
# damped update is base + damping_pct * sum // 100 — integer ops only, so
# the result is BIT-EXACT and independent of summation order, and a SQL
# oracle can reproduce it with the same unrolled integer expressions.

RANK_SCALE = 1_000_000_000_000  # 1e12


def _pagerank_edges(edges, a_col, b_col, num_partitions):
    """Symmetric (src, dst, deg) edge table, src-partitioned, deg exact
    (all of a src's edges land in one partition)."""

    def sym(tbl: pa.Table) -> pa.Table:
        a = tbl.column(a_col).cast(pa.int64()).combine_chunks()
        b = tbl.column(b_col).cast(pa.int64()).combine_chunks()
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        pid = pid_of(src.to_numpy(), num_partitions)
        return pa.table({"src": src, "dst": dst, "__pid": pa.array(pid)})

    def attach_deg(tbl: pa.Table) -> pa.Table:
        tbl = tbl.drop_columns(["__pid"])
        src = tbl.column("src").to_numpy()
        uniq, codes = np.unique(src, return_inverse=True)
        deg = np.bincount(codes, minlength=uniq.size)
        return tbl.append_column("deg", pa.array(deg[codes], pa.int64()))

    return exchange(

        edges.map_batches(sym, batch_format="pyarrow"), "__pid", attach_deg, num_partitions

    )


def pagerank(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    iters: int = 5,
    damping_pct: int = 85,
    num_partitions: int = 16,
    auto_width: bool = True,
) -> ray.data.Dataset:
    """Fixed-iteration PageRank over the undirected edge Dataset. Returns
    (node, rank_fp) with rank_fp in RANK_SCALE units; sum over nodes stays
    ~RANK_SCALE. Deterministic integer arithmetic end to end."""
    from .join import copartitioned_equijoin

    sym_deg = _pagerank_edges(edges, a_col, b_col, num_partitions).materialize()
    # data-aware round width (same rationale as connected_components)
    if auto_width:
        num_partitions = max(1, min(num_partitions, sym_deg.count() // 20_000))
    if num_partitions == 1:
        # the whole graph already lives in one partition: run every round
        # inside ONE worker task (identical integer arithmetic — verified by
        # the same SQL oracle) instead of paying 4+ distributed stage
        # round-trips per iteration for data that needs none
        def all_rounds(tbl: pa.Table) -> pa.Table:
            src = tbl.column("src").to_numpy()
            dst = tbl.column("dst").to_numpy()
            deg = tbl.column("deg").to_numpy()
            uniq = np.unique(src)  # symmetric: every node appears as src
            sidx = np.searchsorted(uniq, src)
            didx = np.searchsorted(uniq, dst)
            n = uniq.size
            init = RANK_SCALE // n
            b = int(np.floor((100 - damping_pct) / 100 * RANK_SCALE / n))
            r = np.full(n, init, dtype=np.int64)
            for _ in range(iters):
                contrib = r[sidx] // deg
                sums = np.zeros(n, dtype=np.int64)
                np.add.at(sums, didx, contrib)
                r = b + damping_pct * sums // 100
            return pa.table(
                {"node": pa.array(uniq, pa.int64()), "rank_fp": pa.array(r, pa.int64())}
            )

        return exchange(sym_deg, "__one", all_rounds, 1)
    sym_deg = ray.data.from_arrow_refs([r for r in sym_deg.to_arrow_refs()])

    # node count: one tiny distinct pass (symmetric graph -> every node is a src)
    def count_nodes(tbl: pa.Table) -> pa.Table:
        u = np.unique(tbl.column("src").to_numpy())
        return pa.table({"node": pa.array(u, pa.int64())})

    n_nodes = (
        _group_min(
            sym_deg.map_batches(
                lambda t: pa.table(
                    {
                        "node": t.column("src"),
                        "label": t.column("src"),
                    }
                ),
                batch_format="pyarrow",
            ),
            num_partitions,
        )
        .count()
    )
    init_r = RANK_SCALE // n_nodes
    base = int(np.floor((100 - damping_pct) / 100 * RANK_SCALE / n_nodes))

    def seed(tbl: pa.Table) -> pa.Table:
        u = np.unique(tbl.column("src").to_numpy())
        return pa.table(
            {
                "node": pa.array(u, pa.int64()),
                "rank_fp": pa.array(np.full(u.size, init_r, dtype=np.int64)),
            }
        )

    def group_first(ds: ray.data.Dataset) -> ray.data.Dataset:
        return _group_min(
            ds.map_batches(
                lambda t: t.rename_columns(["node", "label"]), batch_format="pyarrow"
            ),
            num_partitions,
        ).map_batches(
            lambda t: t.rename_columns(["node", "rank_fp"]), batch_format="pyarrow"
        )

    ranks = group_first(sym_deg.map_batches(seed, batch_format="pyarrow"))
    ranks = ray.data.from_arrow_refs([r for r in ranks.materialize().to_arrow_refs()])

    def fold_contribs(tbl: pa.Table) -> pa.Table:
        dst = tbl.column("node").to_numpy()
        c = tbl.column("contrib").to_numpy()
        uniq, codes = np.unique(dst, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, c)
        r = base + damping_pct * sums // 100
        return pa.table(
            {"node": pa.array(uniq, pa.int64()), "rank_fp": pa.array(r, pa.int64())}
        )

    for _ in range(iters):
        contribs = copartitioned_equijoin(
            sym_deg,
            ranks,
            fact_key="src",
            dim_key="node",
            fact_cols=["dst", "deg"],
            dim_cols=["rank_fp"],
            num_partitions=num_partitions,
            fact_col_types={"dst": pa.int64(), "deg": pa.int64()},
            dim_col_types={"rank_fp": pa.int64()},
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("dst"),
                    "contrib": pa.array(
                        t.column("rank_fp").to_numpy() // t.column("deg").to_numpy(),
                        pa.int64(),
                    ),
                    "__pid": pa.array(
                        pid_of(t.column("dst").to_numpy(), num_partitions)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        ranks = exchange(contribs, "__pid", fold_contribs, num_partitions)
        ranks = ray.data.from_arrow_refs([r for r in ranks.materialize().to_arrow_refs()])
    return ranks


# ---------------------------------------------------------------------------
# triangle counting (degree-oriented node-iterator): the standard
# graph-quality metric over a candidate-pair graph (e.g. how clique-like
# near-dup clusters are). Every stage is a bounded hash exchange over
# PAIR-scale data:
#   1. canonicalize + distinct edges (one exchange on the packed (lo,hi) key)
#   2. per-node degrees (in-batch combine + one exchange)
#   3. attach both endpoint degrees (two node-keyed exchanges, sorted-probe)
#   4. orient each edge from the (deg, id)-smaller endpoint -> wedge
#      generation per source via the vectorized _segment_pairs machinery;
#      orientation bounds wedge count by O(m^1.5) regardless of skew
#   5. wedge-vs-edge membership (one exchange on the packed key; per-
#      partition sorted searchsorted); partial counts -> one tiny fold.
# Node-id contract: ids < 2^31 (packed 64-bit edge key), same as the
# pack used by the global-shuffle rank machinery.


def triangle_count(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 32,
    max_out_degree: int = 2000,
) -> "ray.data.Dataset":
    import pandas as pd

    from .dedup import _segment_pairs

    def canon(tbl: pa.Table) -> pa.Table:
        a = tbl.column(a_col).to_numpy()
        b = tbl.column(b_col).to_numpy()
        lo = np.minimum(a, b).astype(np.int64)
        hi = np.maximum(a, b).astype(np.int64)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        key = (lo << 32) | hi
        return pa.table(
            {
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
                "__pid": pa.array(pid_of(key, num_partitions)),
            }
        )

    def distinct(tbl: pa.Table) -> pa.Table:
        lo = tbl.column("lo").to_numpy()
        hi = tbl.column("hi").to_numpy()
        key = (lo << 32) | hi
        order = np.argsort(key, kind="mergesort")
        ks = key[order]
        first = np.ones(ks.size, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        idx = order[first]
        return pa.table(
            {"lo": pa.array(lo[idx], pa.int64()), "hi": pa.array(hi[idx], pa.int64())}
        )

    e = exchange(
        edges.map_batches(canon, batch_format="pyarrow"), "__pid", distinct, num_partitions
    ).materialize()
    # data-aware width for the remaining five exchanges: each costs one
    # reduce group per partition, pure scheduling overhead on small edge
    # sets; real pair-scale graphs keep the full width
    num_partitions = max(1, min(num_partitions, e.count() // 5000))
    e = e.repartition(num_partitions) if num_partitions < 4 else e

    # --- degrees: in-batch combine + one node-keyed exchange
    def deg_partial(tbl: pa.Table) -> pa.Table:
        nodes = np.concatenate([tbl.column("lo").to_numpy(), tbl.column("hi").to_numpy()])
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "deg_partial": pa.array(cnt.astype(np.int64), pa.int64()),
                "__pid": pa.array(pid_of(uniq, num_partitions)),
            }
        )

    def deg_fold(tbl: pa.Table) -> pa.Table:
        node = tbl.column("node").to_numpy()
        dp = tbl.column("deg_partial").to_numpy()
        uniq, codes = np.unique(node, return_inverse=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(sums, codes, dp)
        return pa.table(
            {"node": pa.array(uniq, pa.int64()), "deg": pa.array(sums, pa.int64())}
        )

    deg = exchange(
        e.map_batches(deg_partial, batch_format="pyarrow"), "__pid", deg_fold, num_partitions
    ).materialize()

    # --- attach endpoint degrees via tagged co-partitioned sorted-probe
    def _attach(
        edge_ds: ray.data.Dataset, key_col: str, out_col: str, edge_extra: tuple[str, ...] = ()
    ) -> ray.data.Dataset:
        def tag_edge(tbl: pa.Table) -> pa.Table:
            k = tbl.column(key_col).to_numpy()
            cols = {c: tbl.column(c) for c in tbl.column_names}
            cols["__side"] = pa.array(np.zeros(tbl.num_rows, np.int8))
            cols["__pid"] = pa.array(pid_of(k, num_partitions))
            return pa.table(cols)

        def tag_deg(tbl: pa.Table) -> pa.Table:
            # carry (node, deg) in the (lo, hi) slots; __side=1 marks dim rows
            k = tbl.column("node").to_numpy()
            n = tbl.num_rows
            out = {"lo": pa.array(k, pa.int64()), "hi": tbl.column("deg")}
            for c in edge_extra:
                out[c] = pa.array(np.zeros(n, np.int64), pa.int64())
            out["__side"] = pa.array(np.ones(n, np.int8))
            out["__pid"] = pa.array(pid_of(k, num_partitions))
            return pa.table(out)

        def merge(tbl: pa.Table) -> pa.Table:
            tbl = tbl.drop_columns(["__pid"])
            side = tbl.column("__side").to_numpy()
            is_dim = side == 1
            dnode = tbl.column("lo").to_numpy()[is_dim]
            dval = tbl.column("hi").to_numpy()[is_dim]
            order = np.argsort(dnode, kind="mergesort")
            dnode, dval = dnode[order], dval[order]
            fact = tbl.filter(pa.array(~is_dim)).drop_columns(["__side"])
            if fact.num_rows == 0:
                return fact.append_column(out_col, pa.array([], pa.int64()))
            k = fact.column(key_col).to_numpy()
            pos = np.searchsorted(dnode, k)
            # every edge endpoint has a degree row by construction
            return fact.append_column(out_col, pa.array(dval[pos], pa.int64()))

        tagged = edge_ds.map_batches(tag_edge, batch_format="pyarrow").union(
            deg.map_batches(tag_deg, batch_format="pyarrow")
        )
        return exchange(tagged, "__pid", merge, num_partitions)

    e2 = _attach(e, "lo", "deg_lo")
    e3 = _attach(e2, "hi", "deg_hi", edge_extra=("deg_lo",)).materialize()

    # --- orient + wedge generation per source
    def wedges(tbl: pa.Table) -> pa.Table:
        src = tbl.column("src").to_numpy()
        dst = tbl.column("dst").to_numpy()
        order = np.lexsort((dst, src))
        s, d = src[order], dst[order]
        i_idx, j_idx = _segment_pairs(s, max_out_degree, "triangle_count wedges")
        v, w = d[i_idx], d[j_idx]
        lo2 = np.minimum(v, w)
        hi2 = np.maximum(v, w)
        key = (lo2 << 32) | hi2
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"key": pa.array(uniq, pa.int64()), "cnt": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def orient(tbl: pa.Table) -> pa.Table:
        lo = tbl.column("lo").to_numpy()
        hi = tbl.column("hi").to_numpy()
        dlo = tbl.column("deg_lo").to_numpy()
        dhi = tbl.column("deg_hi").to_numpy()
        lo_first = (dlo < dhi) | ((dlo == dhi) & (lo < hi))
        src = np.where(lo_first, lo, hi)
        dst = np.where(lo_first, hi, lo)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "__pid": pa.array(pid_of(src, num_partitions)),
            }
        )

    wedge_ds = exchange(

        e3.map_batches(orient, batch_format="pyarrow"), "__pid", wedges, num_partitions

    )

    # --- membership: wedges probe the edge set on the packed key
    def tag_wedge(tbl: pa.Table) -> pa.Table:
        k = tbl.column("key").to_numpy()
        return pa.table(
            {
                "key": tbl.column("key"),
                "cnt": tbl.column("cnt"),
                "__pid": pa.array(pid_of(k, num_partitions)),
            }
        )

    def tag_edge_key(tbl: pa.Table) -> pa.Table:
        lo = tbl.column("lo").to_numpy()
        hi = tbl.column("hi").to_numpy()
        key = (lo << 32) | hi
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "cnt": pa.array(np.full(key.size, -1, np.int64)),  # -1 marks edge side
                "__pid": pa.array(pid_of(key, num_partitions)),
            }
        )

    def count_hits(tbl: pa.Table) -> pa.Table:
        cnt = tbl.column("cnt").to_numpy()
        key = tbl.column("key").to_numpy()
        is_edge = cnt == -1
        ek = np.sort(key[is_edge])
        wk, wc = key[~is_edge], cnt[~is_edge]
        if wk.size == 0 or ek.size == 0:
            total = 0
        else:
            pos = np.searchsorted(ek, wk)
            hit = (pos < ek.size) & (ek[np.minimum(pos, ek.size - 1)] == wk)
            total = int(wc[hit].sum())
        return pa.table({"partial": pa.array([total], pa.int64())})

    probe = wedge_ds.map_batches(tag_wedge, batch_format="pyarrow").union(
        e.map_batches(tag_edge_key, batch_format="pyarrow")
    )
    partials = exchange(probe, "__pid", count_hits, num_partitions).take_all()
    total = sum(r["partial"] for r in partials)  # bounded: one row per reduce block
    return pd.DataFrame({"n_triangles": [total]})


# ---------------------------------------------------------------------------
# K-CORE PEELING — iteratively drop nodes of degree < k until a fixpoint:
# the surviving subgraph (the k-core) is the "dense heart" of the near-dup
# graph — clusters tight enough that every member has >= k near-duplicates,
# the aggressive-dedup candidates (vs the loose chains connected_components
# keeps). Each round is one node-keyed degree exchange + two co-partitioned
# semi joins; edges are PAIR-scale (candidate output) like all graph-family
# inputs. The round count is data-dependent but the engine ENFORCES
# rounds <= max_rounds (raising otherwise), because the SQL twin unrolls
# exactly max_rounds peel rounds — the same exact-regime-contract-with-
# runtime-guard idiom as hll_langs_exact.


def _group_count(ds: ray.data.Dataset, col: str, num_partitions: int) -> ray.data.Dataset:
    """(col,) -> per-value count: in-batch combiner + ONE hash exchange +
    vectorized per-partition segment sum. Output (node, degree)."""

    def combine(tbl: pa.Table) -> pa.Table:
        node = tbl.column(col).cast(pa.int64()).to_numpy()
        uniq, cnt = np.unique(node, return_counts=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "degree": pa.array(cnt.astype(np.int64), pa.int64()),
                "__pid": pa.array(pid_of(uniq, num_partitions)),
            }
        )

    def finish(tbl: pa.Table) -> pa.Table:
        node = tbl.column("node").to_numpy()
        deg = tbl.column("degree").to_numpy()
        order = np.argsort(node, kind="stable")
        ns, ds_ = node[order], deg[order]
        head = np.ones(ns.size, dtype=bool)
        head[1:] = ns[1:] != ns[:-1]
        seg = np.cumsum(head) - 1
        sums = np.bincount(seg, weights=ds_).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(ns[np.flatnonzero(head)], pa.int64()),
                "degree": pa.array(sums, pa.int64()),
            }
        )

    return exchange(

        ds.map_batches(combine, batch_format="pyarrow"), "__pid", finish, num_partitions

    )


def kcore(
    edges: ray.data.Dataset,
    k: int,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 16,
    max_rounds: int = 8,
) -> ray.data.Dataset:
    """Nodes of the k-core of the undirected graph given as a<b edge pairs,
    with their core degree. Raises RuntimeError when peeling hasn't reached
    the fixpoint within max_rounds (the SQL twin's unroll depth)."""
    from .join import copartitioned_semi_anti

    def sym(tbl: pa.Table) -> pa.Table:
        a = tbl.column(a_col).cast(pa.int64())
        b = tbl.column(b_col).cast(pa.int64())
        return pa.table(
            {"a": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
             "b": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])}
        )

    def keep_core(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return tbl.filter(pc.greater_equal(tbl.column("degree"), pa.scalar(k)))

    empty = ray.data.from_arrow(
        pa.table({"node": pa.array([], pa.int64()), "degree": pa.array([], pa.int64())})
    )
    cur = edges.map_batches(sym, batch_format="pyarrow").materialize()
    prev_cnt = cur.count()
    for _ in range(max_rounds):
        if prev_cnt == 0:
            return empty
        deg = _group_count(cur, "a", num_partitions).materialize()
        surv = deg.map_batches(keep_core, batch_format="pyarrow")
        nxt = copartitioned_semi_anti(
            cur, surv, left_key="a", right_key="node", num_partitions=num_partitions
        )
        nxt = copartitioned_semi_anti(
            nxt, surv, left_key="b", right_key="node", num_partitions=num_partitions
        ).materialize()
        cnt = nxt.count()
        if cnt == prev_cnt:
            # fixpoint: every node of `cur` already has degree >= k
            return deg.map_batches(keep_core, batch_format="pyarrow")
        cur, prev_cnt = nxt, cnt
    raise RuntimeError(
        f"kcore did not reach the peeling fixpoint in {max_rounds} rounds; "
        f"raise max_rounds (and the SQL twin's unroll depth) together"
    )
