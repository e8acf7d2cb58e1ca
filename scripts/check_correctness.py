"""Simulate the driver's correctness gate: run each queries() entry and its
oracle_sql() in DuckDB over the same parquet dir; compare row count, schema,
and a value hash over columns sorted by name.

    python scripts/check_correctness.py SF_DIR ['events_*' ...] [--against GATE.json]

Entries are selected by name or glob (all when none is given). Every
entry's `hash` is the canonical hash of the engine's own output (list cells
hashed by their bytes), so the JSON of two trees compares entry by entry.
The reserved key `__run__` records the tree sha, the sf dir and the Ray CPU
count of the run; the JSON this script prints is a gate file as it stands.
--against compares each selected entry's status, row count and, where the
gate entry has one, its hash with a saved gate, and exits 1 on any
difference; `__run__` is not compared."""
import argparse
import fnmatch
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

ap = argparse.ArgumentParser()
ap.add_argument("sf_dir")
ap.add_argument("names", nargs="*", help="entry names or globs, e.g. 'events_*'")
ap.add_argument("--against", help="saved gate JSON to compare status and rows with")
args = ap.parse_args()
SF_DIR = args.sf_dir

import ray

ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
import __ray_entry__ as ent

RUN_KEY = "__run__"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _cell_digest(v):
    """A list cell as the sha256 of its dtype and bytes, so that a column of
    list cells sorts and hashes like a column of scalars."""
    a = np.asarray(v)
    data = repr(a.tolist()).encode() if a.dtype == object else a.tobytes()
    return hashlib.sha256(str(a.dtype).encode() + data).hexdigest()


def _is_list(v) -> bool:
    return isinstance(v, (list, np.ndarray))


def canon(df: pd.DataFrame) -> tuple[str, str, int]:
    df = df[sorted(df.columns)]
    lists = [c for c in df.columns if df[c].dtype == object and df[c].map(_is_list).any()]
    df = df.assign(**{c: df[c].map(lambda v: _cell_digest(v) if _is_list(v) else v) for c in lists})
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    # normalize floats to reduce representation noise
    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            h.update(col.round(6).fillna(-9e18).to_numpy().tobytes())
        else:
            h.update(col.astype(str).str.encode("utf-8").str.len().to_numpy().tobytes())
            h.update("\x00".join(col.astype(str)).encode())
    schema = ",".join(f"{c}" for c in df.columns)
    return h.hexdigest()[:16], schema, len(df)


con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")

qs = ent.queries()
oracles = ent.oracle_sql()
results = {}
for name, fn in qs.items():
    if args.names and not any(fnmatch.fnmatchcase(name, p) for p in args.names):
        continue
    try:
        ray_df = to_pandas(fn(SF_DIR))
    except Exception as e:
        results[name] = {"status": "RAY_ERROR", "err": repr(e)[:200]}
        continue
    rh, rs, rn = canon(ray_df)
    if name not in oracles:
        results[name] = {"status": "rows_only", "rows": rn, "hash": rh}
        continue
    try:
        ora_df = con.execute(oracles[name]).df()
    except Exception as e:
        results[name] = {"status": "ORACLE_ERROR", "err": repr(e)[:200]}
        continue
    oh, os_, on_ = canon(ora_df)
    ok = (rh == oh) and (rs == os_) and (rn == on_)
    results[name] = {
        "status": "MATCH" if ok else "MISMATCH",
        "rows": [rn, on_],
        "schema_ok": rs == os_,
        "hash_ok": rh == oh,
        "hash": rh,
    }
    if rs != os_:
        results[name]["schemas"] = [rs, os_]

sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
run = {
    "tree_sha": sha.stdout.strip() or None,
    "sf_dir": SF_DIR,
    "ray_cpus": int(ray.cluster_resources()["CPU"]),
}
print(json.dumps({RUN_KEY: run, **results}, indent=1))
bad = [k for k, v in results.items() if v["status"] not in ("MATCH", "rows_only")]
print("BAD:", bad)
ray.shutdown()


def same(v: dict, g: dict) -> bool:
    """Status, rows and (when the gate has one) hash agree."""
    if (v["status"], v.get("rows")) != (g["status"], g.get("rows")):
        return False
    return "hash" not in g or v.get("hash") == g["hash"]


if args.against:
    gate = json.load(open(args.against))
    gate.pop(RUN_KEY, None)
    differ = [k for k, v in results.items() if k not in gate or not same(v, gate[k])]
    print(f"AGAINST {args.against}: {len(results) - len(differ)} same, differ: {differ}")
    sys.exit(1 if differ else 0)
