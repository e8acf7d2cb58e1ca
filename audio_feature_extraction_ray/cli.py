"""CLI entry points (reference analog: click extract/reconstruct commands,
design.md:2432-2457). In production this script is the payload of
`ray job submit -- python -m audio_feature_extraction_ray run ...`; in this
sandbox it owns a local Ray session (the library itself never calls
ray.init)."""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(args) -> int:
    from .config import EngineConfig, FeatureConfig, PipelineConfig
    from .pipelines.features import run

    if args.config:
        cfg = PipelineConfig.from_file(args.config)
    else:
        cfg = PipelineConfig()
    if args.input:
        cfg.input_path = args.input
    if getattr(args, "format", None):
        cfg.input_format = args.format
    if args.signals:
        cfg.features.signals_path = args.signals
    if args.output:
        cfg.engine.output_dir = args.output
    if args.resume:
        cfg.engine.resume = True
    if args.partitions:
        cfg.engine.num_partitions = args.partitions
    cfg.validate()
    _init_ray(args.num_cpus)
    report = run(cfg)
    print(json.dumps(report))
    return 0


def cmd_verify(args) -> int:
    """Read back a run's output and re-check the invariants: feature-vector
    width, per-partition checksum, oracle allclose on a sample of urls
    (reference analog: AudioReconstructor read-back validation,
    design.md:1581-1674)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from .config import FeatureConfig
    from .state.checkpoint import load_completed, partition_checksum

    def fail(error: str) -> int:
        print(json.dumps({"ok": False, "error": error}))
        return 1

    done = load_completed(args.output)
    if not done:
        return fail("no manifests found")
    width = len(FeatureConfig(signals_path="x").feature_order)
    checked = 0
    for pid, m in sorted(done.items()):
        files = sorted(glob.glob(f"{args.output}/part={pid:05d}/*.parquet"))
        if not files:
            return fail(f"partition {pid} missing data")
        tbl = pa.concat_tables([pq.read_table(f) for f in files])
        if tbl.num_rows != m["rows_out"]:
            return fail(f"rows mismatch in {pid}")
        if f"{partition_checksum(tbl):016x}" != m["checksum"]:
            return fail(f"checksum mismatch in {pid}")
        if tbl.schema.field("features").type.list_size not in (width, width - 2):
            return fail(f"feature width invariant violated in {pid}")
        checked += 1
    print(json.dumps({"ok": True, "partitions_checked": checked}))
    return 0


def cmd_export_npy(args) -> int:
    """Re-encode a completed run as per-partition .npy + index parquet
    (SURVEY S4 alternate output encoding)."""
    from .config import FeatureConfig, PipelineConfig

    if args.config:
        fcfg = PipelineConfig.from_file(args.config).features
    else:
        fcfg = FeatureConfig(signals_path="x" if args.with_signals else None)
    _init_ray(args.num_cpus)
    from .pipelines.features import export_features_npy

    print(json.dumps(export_features_npy(args.output, args.dest, fcfg)))
    return 0


def cmd_compact(args) -> int:
    """Compact a completed run's per-partition files into ~target-size files."""
    _init_ray(args.num_cpus)
    from .pipelines.features import compact_output

    print(json.dumps(compact_output(args.output, args.dest, args.target_rows)))
    return 0


def cmd_gen_fixture(args) -> int:
    from .testdata import materialize_fixture

    pages_dir, signals_path = materialize_fixture(
        args.out, args.rows, n_files=args.files, seed=args.seed
    )
    print(json.dumps({"pages": pages_dir, "signals": signals_path}))
    return 0


def cmd_query(args) -> int:
    """Run any operator-suite query (the __ray_entry__.queries() registry)
    over a testdata-shaped table dir; stream the result to parquet (one
    file per block — resumable layout) or, with --show, print the first
    rows. `--list` enumerates available queries."""
    import importlib.util
    import os

    # the registry lives in the repo-root driver contract module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    entry_path = os.path.join(root, "__ray_entry__.py")
    if not os.path.isfile(entry_path):
        # installed-wheel layout (site-packages) has no repo-root module;
        # fail with a clear message instead of a FileNotFoundError traceback
        print(
            "query registry (__ray_entry__.py) not found next to the package; "
            "the `query` subcommand requires a repo checkout",
            file=sys.stderr,
        )
        return 2
    spec = importlib.util.spec_from_file_location("afe_ray_entry", entry_path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    qs = mod.queries()
    if args.list:
        print("\n".join(sorted(qs)))
        return 0
    if args.name not in qs:
        print(f"unknown query {args.name!r}; use --list", file=sys.stderr)
        return 2
    if not args.sf_dir or (not args.out and not args.show):
        print("need --sf-dir and one of --out/--show", file=sys.stderr)
        return 2
    _init_ray(args.num_cpus)
    import pandas as pd
    import pyarrow as pa

    res = qs[args.name](args.sf_dir)
    if isinstance(res, pd.DataFrame):
        res = __import__("ray").data.from_pandas(res)
    elif isinstance(res, pa.Table):
        res = __import__("ray").data.from_arrow(res)
    if args.show:
        import pandas as _pd

        head = res.limit(args.show).to_pandas()
        print(head.to_string())
        return 0
    res.write_parquet(args.out)
    print(json.dumps({"query": args.name, "out": args.out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="audio_feature_extraction_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run the feature pipeline (checkpointed)")
    r.add_argument("--input", help="pages input dir")
    r.add_argument("--format", choices=["parquet", "jsonl", "csv"], help="input format (default parquet)")
    r.add_argument("--signals", help="signals parquet path")
    r.add_argument("--output", help="output dir (parquet + manifests)")
    r.add_argument("--config", help="YAML/JSON PipelineConfig")
    r.add_argument("--resume", action="store_true")
    r.add_argument("--partitions", type=int)
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="verify a run's output against its manifests")
    v.add_argument("--output", required=True)
    v.set_defaults(fn=cmd_verify)

    x = sub.add_parser("export-npy", help="re-encode a run as per-partition .npy + index")
    x.add_argument("--output", required=True, help="completed run dir (parquet + manifests)")
    x.add_argument("--dest", required=True, help="destination dir for npy shards")
    x.add_argument("--config", help="YAML/JSON PipelineConfig (for feature width)")
    x.add_argument("--with-signals", action="store_true", help="run had locf_* columns")
    x.add_argument("--num-cpus", type=int, default=None)
    x.set_defaults(fn=cmd_export_npy)

    c = sub.add_parser("compact", help="compact a run's partition files into ~target-size files")
    c.add_argument("--output", required=True, help="completed run dir (parquet + manifests)")
    c.add_argument("--dest", required=True, help="destination dir for compacted parquet")
    c.add_argument("--target-rows", type=int, default=250_000, help="rows per output file")
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_compact)

    g = sub.add_parser("gen-fixture", help="write a deterministic pages+signals fixture")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=2000)
    g.add_argument("--files", type=int, default=2)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen_fixture)

    q = sub.add_parser("query", help="run an operator-suite query over a table dir")
    q.add_argument("name", nargs="?", default="", help="query name (see --list)")
    q.add_argument("--sf-dir", help="dir with documents/events/... parquet tables")
    q.add_argument("--out", help="write result parquet here")
    q.add_argument("--show", type=int, default=0, help="print first N rows instead of writing")
    q.add_argument("--list", action="store_true", help="list available queries")
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
