"""Registry workloads: entries of `__ray_entry__.queries()` looked up by name
over tables generated from the seed, each output checked against its DuckDB
`oracle_sql()` with the canonical hash of scripts/check_correctness.py."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from common import canon, collect, to_pandas

# The events as-of family plus the carried-state window queries that ROADMAP
# item 2 folds into one exchange and one as-of kernel.
ASOF_QUERIES = (
    "events_asof_join",
    "events_asof_forward",
    "events_asof_tolerance",
    "events_asof_nearest",
    "events_asof_two_table",
    "events_lag_lead",
    "events_locf",
    "events_rolling",
    "events_sessionize",
    "events_session_stats",
)
# Fixpoint loops with per-round barriers (ROADMAP item 3); measured as
# layers only, see BENCHMARK.json.
ITERATIVE_QUERIES = ("dup_kcore", "near_dedup_keep", "embedding_kcenter")
KCENTER_K = 16

# Shape of the sf0.1 events table (1500 users, five equally likely types,
# distinct timestamps over 30 days, event_id in ts order) at 20k events:
# one execution of the ten entries takes ~5 s on 4 CPUs and its checks
# ~2 s, where 100k events took 9-24 s and 16 s.
EVENTS_ROWS = 20_000
EVENT_USERS = 1_500
EVENT_TYPES = ("signup", "purchase", "view", "click", "error")
EVENT_SPAN_US = 30 * 86400 * 1_000_000
# documents like sf0.1's: 30-word vocabulary, 10-99 tokens per document,
# one in twenty a near-duplicate of an earlier one marked by a "dup" token
DOCS = 1_000
DOC_VOCAB = (
    "a the data batch part spark line column order small sort fast value scan hash slow "
    "group agg filter query big key window row table stream merge join vector customer"
).split()
EMBEDDINGS = 2_000
EMBED_DIM = 32


def resolve(names) -> dict:
    """Registry entries by name; a missing name fails the run loudly."""
    import __ray_entry__ as entry

    queries, oracles = entry.queries(), entry.oracle_sql()
    missing = [n for n in names if n not in queries]
    if missing:
        raise SystemExit(f"registry entries missing from __ray_entry__.queries(): {missing}")
    return {n: queries[n] for n in names}, oracles


def generate_events(path: Path, seed: int, rows: int = EVENTS_ROWS) -> None:
    rng = np.random.default_rng(seed)
    start = np.int64(1704067200) * 1_000_000  # 2024-01-01
    ts = np.unique(rng.integers(0, EVENT_SPAN_US, size=rows + rows // 10))
    ts = np.sort(rng.choice(ts, size=rows, replace=False)) + start
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(rows, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, EVENT_USERS, size=rows, dtype=np.int64)),
            "event_type": pa.array(np.array(EVENT_TYPES)[rng.integers(0, len(EVENT_TYPES), size=rows)]),
            "value": pa.array(np.round(rng.exponential(50.0, size=rows), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, size=rows)]),
        }
    )
    path.mkdir(parents=True, exist_ok=True)
    pq.write_table(tbl, path / "events.parquet")


def generate_corpus(path: Path, seed: int) -> None:
    """documents and embeddings tables."""
    rng = np.random.default_rng(seed + 1)
    vocab = np.array(DOC_VOCAB)
    texts: list[str] = []
    for i in range(DOCS):
        if i >= 10 and rng.random() < 0.05:
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            texts.append(" ".join(rng.choice(vocab, size=int(rng.integers(10, 100)))))
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(DOCS, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array(np.array(["en", "de", "zh"])[rng.integers(0, 3, size=DOCS)]),
            "source": pa.array([f"src{k}" for k in rng.integers(0, 4, size=DOCS)]),
            "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
        }
    )
    emb = rng.normal(size=(EMBEDDINGS, EMBED_DIM)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    embeddings = pa.table(
        {
            "vec_id": pa.array(np.arange(EMBEDDINGS, dtype=np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(pa.array(emb.ravel()), EMBED_DIM).cast(
                pa.list_(pa.float32())
            ),
            "label": pa.array(rng.integers(0, 10, size=EMBEDDINGS, dtype=np.int32)),
        }
    )
    path.mkdir(parents=True, exist_ok=True)
    pq.write_table(docs, path / "documents.parquet")
    pq.write_table(embeddings, path / "embeddings.parquet")


def oracle_hashes(data_dir: Path, names, oracles) -> dict[str, tuple]:
    """DuckDB oracle canonical hashes, one per entry with an oracle."""
    import duckdb

    con = duckdb.connect()
    try:
        for t in sorted(p.stem for p in data_dir.glob("*.parquet")):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{data_dir / t}.parquet')")
        return {n: canon(con.execute(oracles[n]).df()) for n in names if n in oracles}
    finally:
        con.close()


def check_against(name: str, result, want: dict) -> list[str]:
    got = canon(to_pandas(result))
    if got != want[name]:
        return [f"{name}: canonical hash {got} != oracle {want[name]}"]
    return []


def kcenter_reference(data_dir: Path, k: int = KCENTER_K) -> list[int]:
    """Single-process Gonzalez selection with the distributed kernel's
    seed (smallest id), distance formula and tie rule (smaller id)."""
    tbl = pq.read_table(data_dir / "embeddings.parquet", columns=["vec_id", "embedding"])
    ids = tbl.column("vec_id").to_numpy()
    m = np.asarray(tbl.column("embedding").combine_chunks().flatten().to_numpy(), dtype=np.float64)
    order = np.argsort(ids)
    sids, sm = ids[order], m.reshape(len(ids), -1)[order]
    cidx = [0]
    for _ in range(1, k):
        c = sm[cidx]
        dist = (sm * sm).sum(1)[:, None] - 2.0 * (sm @ c.T) + (c * c).sum(1)[None, :]
        cidx.append(int(np.lexsort((sids, -dist.min(1)))[0]))
    return [int(sids[i]) for i in cidx]


class AsofWorkload:
    """registry_asof: the ten events entries back to back, each streamed to
    completion; one execution is the ten queries."""

    def __init__(self, seed: int, tracer, rows: int = EVENTS_ROWS):
        self.seed, self.tracer, self.rows = seed, tracer, rows
        self.queries, self.oracles = resolve(ASOF_QUERIES)
        missing = [n for n in ASOF_QUERIES if n not in self.oracles]
        if missing:
            raise SystemExit(f"registry entries without oracle_sql(): {missing}")

    def prepare(self, work: Path) -> None:
        self.data = work / "tables"
        generate_events(self.data, self.seed, self.rows)

    def warm_up(self) -> None:
        for fn in self.queries.values():
            collect(fn(str(self.data)))

    def after_setup(self) -> None:
        self.want = oracle_hashes(self.data, ASOF_QUERIES, self.oracles)
        self.input_rows = self.rows * len(ASOF_QUERIES)

    def execute(self) -> float:
        self.tracer.new_trace()
        self.results = {}
        wall = 0.0
        with self.tracer.span("registry_asof"):
            for name, fn in self.queries.items():
                with self.tracer.span("events." + name):
                    t0 = time.perf_counter()
                    self.results[name] = collect(fn(str(self.data)))
                    wall += time.perf_counter() - t0
        return wall

    def operations(self) -> int:
        return len(ASOF_QUERIES)

    def check(self) -> list[str]:
        errs: list[str] = []
        for name, res in self.results.items():
            errs += check_against(name, res, self.want)
        return errs


def iterative_probe(work: Path, seed: int, tracer) -> tuple[dict[str, float], list[str], int]:
    """One execution of each fixpoint entry over a seeded corpus, checked:
    dup_kcore and near_dedup_keep against their oracles, embedding_kcenter
    against the single-process Gonzalez selection."""
    queries, oracles = resolve(ITERATIVE_QUERIES)
    data = work / "corpus"
    generate_corpus(data, seed)
    want = oracle_hashes(data, ITERATIVE_QUERIES, oracles)
    walls, errs = {}, []
    for name, fn in queries.items():
        with tracer.span(name):
            t0 = time.perf_counter()
            res = collect(fn(str(data)))
            walls[name] = time.perf_counter() - t0
        if name in want:
            errs += check_against(name, res, want)
        elif name == "embedding_kcenter":
            got = to_pandas(res)["vec_id"].tolist()
            if got != kcenter_reference(data):
                errs.append(f"embedding_kcenter: {got} differs from the Gonzalez reference")
    return walls, errs, len(queries)


def job_floor(data: Path, rows: int, reps: int = 5) -> float:
    """read -> identity map_batches -> consume on the events table: the
    per-job Ray Data cost every registry entry pays."""
    import ray.data

    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ds = ray.data.read_parquet(str(data / "events.parquet")).map_batches(
            lambda t: t, batch_format="pyarrow"
        )
        got = sum(b.num_rows for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"))
        walls.append(time.perf_counter() - t0)
        if got != rows:
            raise RuntimeError(f"job floor read {got} rows, expected {rows}")
    return float(np.median(walls))
