"""Simulate the driver's correctness gate: run each queries() entry and its
oracle_sql() in DuckDB over the same parquet dir; compare row count, schema,
and a value hash over columns sorted by name.

    python scripts/check_correctness.py SF_DIR ['events_*' ...] [--against GATE.json]

Entries are selected by name or glob (all when none is given). --against
compares each selected entry's status and row count with a saved gate (the
JSON this script prints) and exits 1 on any difference."""
import argparse
import fnmatch
import hashlib
import json
import sys

import duckdb
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

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1]))
import __ray_entry__ as ent

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> tuple[str, str, int]:
    df = df[sorted(df.columns)]
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
    if name not in oracles:
        results[name] = {"status": "rows_only", "rows": len(ray_df)}
        continue
    try:
        ora_df = con.execute(oracles[name]).df()
    except Exception as e:
        results[name] = {"status": "ORACLE_ERROR", "err": repr(e)[:200]}
        continue
    rh, rs, rn = canon(ray_df)
    oh, os_, on_ = canon(ora_df)
    ok = (rh == oh) and (rs == os_) and (rn == on_)
    results[name] = {
        "status": "MATCH" if ok else "MISMATCH",
        "rows": [rn, on_],
        "schema_ok": rs == os_,
        "hash_ok": rh == oh,
    }
    if rs != os_:
        results[name]["schemas"] = [rs, os_]

print(json.dumps(results, indent=1))
bad = [k for k, v in results.items() if v["status"] not in ("MATCH", "rows_only")]
print("BAD:", bad)
ray.shutdown()
if args.against:
    gate = json.load(open(args.against))
    differ = [
        k
        for k, v in results.items()
        if k not in gate or (v["status"], v.get("rows")) != (gate[k]["status"], gate[k].get("rows"))
    ]
    print(f"AGAINST {args.against}: {len(results) - len(differ)} same, differ: {differ}")
    sys.exit(1 if differ else 0)
