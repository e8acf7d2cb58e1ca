"""CLI surface (reference analog: click extract/reconstruct commands,
design.md:2432-2457): gen-fixture -> run -> verify round-trip, plus config
validation errors surfacing at build time."""

import json
from pathlib import Path

import pytest

from audio_feature_extraction_ray.cli import main
from audio_feature_extraction_ray.config import PipelineConfig


def test_cli_run_and_verify(ray_session, tmp_path, capsys):
    fx = tmp_path / "fx"
    rc = main(["gen-fixture", "--out", str(fx), "--rows", "500", "--files", "2"])
    assert rc == 0
    paths = json.loads(capsys.readouterr().out.strip())

    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--input", paths["pages"],
            "--signals", paths["signals"],
            "--output", str(out),
            "--partitions", "4",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["partitions"] == 4 and report["rows_out"] > 0

    rc = main(["verify", "--output", str(out)])
    assert rc == 0
    v = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert v == {"ok": True, "partitions_checked": 4}


def _verify_subprocess(out, optimize: bool) -> tuple[int, dict]:
    """`verify` in a fresh interpreter, with or without -O (which strips
    assert statements)."""
    import os
    import subprocess
    import sys

    root = str(Path(__file__).resolve().parents[1])
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "audio_feature_extraction_ray",
           "verify", "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": root}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_verify_reads_every_file_and_fails_without_asserts(ray_session, tmp_path, capsys):
    """verify reads every data file of a partition, and reports a changed
    feature value or a lost row as {"ok": false} with exit 1, also under
    python -O."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    fx = tmp_path / "fx"
    main(["gen-fixture", "--out", str(fx), "--rows", "300", "--files", "1"])
    paths = json.loads(capsys.readouterr().out.strip())
    out = tmp_path / "out"
    assert main(["run", "--input", paths["pages"], "--signals", paths["signals"],
                 "--output", str(out), "--partitions", "2"]) == 0
    part = out / "part=00000"
    tbl = pq.read_table(part / "data.parquet")
    assert tbl.num_rows >= 4

    # one partition stored as two files: still whole and valid
    half = tbl.num_rows // 2
    pq.write_table(tbl.slice(0, half), part / "data.parquet")
    pq.write_table(tbl.slice(half), part / "data-1.parquet")
    for optimize in (False, True):
        assert _verify_subprocess(out, optimize) == (0, {"ok": True, "partitions_checked": 2})

    # one feature value changed in the second file
    second = tbl.slice(half)
    feats = second.column("features").combine_chunks()
    vals = np.asarray(feats.flatten().to_numpy(zero_copy_only=False)).copy()
    vals[0] += 1.0
    changed = pa.FixedSizeListArray.from_arrays(pa.array(vals, pa.float64()), feats.type.list_size)
    i = second.schema.get_field_index("features")
    pq.write_table(second.set_column(i, second.schema.field(i), changed), part / "data-1.parquet")
    for optimize in (False, True):
        assert _verify_subprocess(out, optimize) == (
            1, {"ok": False, "error": "checksum mismatch in 0"})

    # one row lost
    pq.write_table(tbl.slice(half + 1), part / "data-1.parquet")
    for optimize in (False, True):
        assert _verify_subprocess(out, optimize) == (1, {"ok": False, "error": "rows mismatch in 0"})


def test_cli_run_resume_flag(ray_session, tmp_path, capsys):
    fx = tmp_path / "fx"
    main(["gen-fixture", "--out", str(fx), "--rows", "300", "--files", "1"])
    paths = json.loads(capsys.readouterr().out.strip())
    out = tmp_path / "out"
    args = ["run", "--input", paths["pages"], "--signals", paths["signals"],
            "--output", str(out), "--partitions", "3"]
    main(args)
    capsys.readouterr()
    rc = main(args + ["--resume"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["resumed_partitions"] == 3 and report["rows_out"] > 0


def test_config_from_file_and_validation(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"input_path": "/x", "features": {"window_k": 3}}))
    cfg = PipelineConfig.from_file(p)
    assert cfg.features.window_k == 3

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"features": {"window_k": 0}}))
    with pytest.raises(ValueError, match="window_k"):
        PipelineConfig.from_file(bad)

    with pytest.raises(ValueError, match="resume"):
        PipelineConfig.from_dict({"engine": {"resume": True}})


def test_cli_export_npy_roundtrip(ray_session, small_fixture_dir, tmp_path):
    """S4 alternate output encoding: run -> export-npy -> the npy matrices
    re-concatenate to exactly the run's feature vectors (index-aligned)."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq

    from audio_feature_extraction_ray.cli import main

    pages_dir, signals_path = small_fixture_dir
    out = str(tmp_path / "run")
    rc = main(["run", "--input", pages_dir, "--signals", signals_path,
               "--output", out, "--partitions", "4"])
    assert rc == 0
    dest = str(tmp_path / "npy")
    rc = main(["export-npy", "--output", out, "--dest", dest, "--with-signals"])
    assert rc == 0
    npys = sorted(glob.glob(dest + "/part-*.npy"))
    idxs = sorted(glob.glob(dest + "/part-*.index.parquet"))
    assert len(npys) == 4 and len(idxs) == 4
    for npy, idx, part in zip(npys, idxs, sorted(glob.glob(out + "/part=*/data.parquet"))):
        mat = np.load(npy)
        src = pq.read_table(part)
        fcol = src.column("features").combine_chunks()
        ref = np.asarray(fcol.flatten().to_numpy(zero_copy_only=False)).reshape(
            src.num_rows, -1
        )
        np.testing.assert_array_equal(mat.view(np.uint64), ref.view(np.uint64))
        assert pq.read_table(idx).num_rows == src.num_rows
    # resumable: re-export skips everything
    import json as _json
    import contextlib, io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["export-npy", "--output", out, "--dest", dest, "--with-signals"])
    rep = _json.loads(buf.getvalue().strip().splitlines()[-1])
    assert rc == 0 and rep["partitions_exported"] == 0 and rep["partitions_skipped"] == 4


def test_cli_compact_roundtrip(ray_session, tmp_path, capsys):
    """run -> compact: row-conserving, fewer files, identical content."""
    import pandas as pd
    import pyarrow.parquet as pq

    fx = tmp_path / "fx"
    main(["gen-fixture", "--out", str(fx), "--rows", "600", "--files", "2"])
    paths = json.loads(capsys.readouterr().out.strip())
    out = tmp_path / "out"
    main(
        ["run", "--input", paths["pages"], "--signals", paths["signals"],
         "--output", str(out), "--partitions", "8"]
    )
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    dest = tmp_path / "compact"
    rc = main(["compact", "--output", str(out), "--dest", str(dest),
               "--target-rows", "100000"])
    assert rc == 0
    comp = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert comp["rows"] == report["rows_out"]
    assert comp["files_in"] == 8
    assert comp["files_out"] < comp["files_in"]

    import glob

    def read_sorted(files):
        df = pd.concat([pq.read_table(f).to_pandas() for f in files])
        df["features"] = df["features"].map(tuple)
        return df.sort_values(["url", "warc_ts"]).reset_index(drop=True)

    a = read_sorted(sorted(glob.glob(f"{out}/part=*/*.parquet")) or sorted(glob.glob(f"{out}/part-*.parquet")))
    b = read_sorted(sorted(glob.glob(f"{dest}/*.parquet")))
    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])


def test_jsonl_source_matches_parquet(ray_session, tmp_path):
    """The same pages through input_format='jsonl' produce IDENTICAL features
    to the parquet path (source abstraction, not a semantic fork)."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq

    from audio_feature_extraction_ray.config import EngineConfig, FeatureConfig, PipelineConfig
    from audio_feature_extraction_ray.pipelines.features import feature_dataset
    from audio_feature_extraction_ray.testdata import materialize_fixture

    pages_dir, signals_path = materialize_fixture(str(tmp_path / "fx"), 800, n_files=2)
    jdir = tmp_path / "jsonl"
    jdir.mkdir()
    for i, f in enumerate(sorted(glob.glob(f"{pages_dir}/*.parquet"))):
        df = pq.read_table(f).to_pandas()
        df["warc_ts"] = df["warc_ts"].dt.strftime("%Y-%m-%dT%H:%M:%S.%f")
        df.to_json(jdir / f"part-{i}.jsonl", orient="records", lines=True)

    def run(input_path, fmt):
        cfg = PipelineConfig(
            input_path=input_path,
            input_format=fmt,
            features=FeatureConfig(signals_path=signals_path),
            engine=EngineConfig(num_partitions=8),
        )
        df = feature_dataset(cfg).to_pandas()
        df["features"] = df["features"].map(tuple)
        return df.sort_values(["url", "warc_ts"]).reset_index(drop=True)

    a = run(pages_dir, "parquet")
    b = run(str(jdir), "jsonl")
    pd.testing.assert_frame_equal(a, b)

    cdir = tmp_path / "csv"
    cdir.mkdir()
    for i, f in enumerate(sorted(glob.glob(f"{pages_dir}/*.parquet"))):
        df = pq.read_table(f).to_pandas()
        df["html"] = df["html"].map(lambda b: b.decode() if isinstance(b, bytes) else b)
        df["warc_ts"] = df["warc_ts"].dt.strftime("%Y-%m-%dT%H:%M:%S.%f")
        df.to_csv(cdir / f"part-{i}.csv", index=False)
    c = run(str(cdir), "csv")
    pd.testing.assert_frame_equal(a, c)

    # gzip-compressed jsonl reads transparently
    import gzip as _gzip
    import shutil as _shutil

    gdir = tmp_path / "jsonl_gz"
    gdir.mkdir()
    for f in glob.glob(f"{jdir}/*.jsonl"):
        with open(f, "rb") as src, _gzip.open(gdir / (Path(f).name + ".gz"), "wb") as dst:
            _shutil.copyfileobj(src, dst)
    g = run(str(gdir), "jsonl")
    pd.testing.assert_frame_equal(a, g)


def test_headline_completes_under_object_store_pressure(tmp_path):
    """The checkpointed pipeline must stream-and-spill, not OOM: run it in a
    FRESH ray session whose object store is far smaller than the shuffled
    data and verify exact row conservation. (Subprocess: object store size
    is fixed at ray.init.)"""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        f"""
        import ray, shutil, sys
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=80 * 1024 * 1024)
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        sys.path.insert(0, {str(repr("/root/repo"))})
        from audio_feature_extraction_ray.config import EngineConfig, FeatureConfig, PipelineConfig
        from audio_feature_extraction_ray.pipelines import features
        from audio_feature_extraction_ray.testdata import ensure_fixture
        pages_dir, signals_path = ensure_fixture("medium")
        out = {str(repr(str(tmp_path / "out")))}
        cfg = PipelineConfig(input_path=pages_dir,
                             features=FeatureConfig(signals_path=signals_path),
                             engine=EngineConfig(num_partitions=96, batch_size=8192,
                                                 output_dir=out))
        rep = features.run(cfg)
        print("ROWS_OUT", rep["rows_out"])
        ray.shutdown()
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr[-2000:]
    rows = [l for l in out.stdout.splitlines() if l.startswith("ROWS_OUT")]
    assert rows and int(rows[0].split()[1]) > 50_000


def test_jaccard_join_under_object_store_pressure():
    """The set-similarity join ships per-candidate token lists through two
    tagged exchanges — the op most likely to balloon the object store. Run
    it in a fresh session with a tiny store and check the pair count matches
    an unconstrained run (spill costs wall, never correctness)."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import ray, sys
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=80 * 1024 * 1024)
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        sys.path.insert(0, "/root/repo")
        from audio_feature_extraction_ray.pipelines.search_dedup import jaccard_join_docs
        n = jaccard_join_docs("/root/testdata/sf0.001").count()
        print("PAIRS", n)
        ray.shutdown()
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr[-2000:]
    pairs = [l for l in out.stdout.splitlines() if l.startswith("PAIRS")]
    assert pairs and int(pairs[0].split()[1]) == 11025  # == the oracle count


def test_cli_query_subcommand(ray_session, tmp_path, capsys):
    """query --list enumerates the full registry; --show prints rows; --out
    streams the result to parquet; unknown names fail with rc=2."""
    import glob

    import pyarrow.parquet as pq

    rc = main(["query", "--list"])
    assert rc == 0
    names = capsys.readouterr().out.strip().splitlines()
    assert len(names) > 100 and "docs_gopher_rules" in names

    rc = main(
        ["query", "docs_gopher_rules", "--sf-dir", "/root/testdata/sf0.001", "--show", "3"]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "rule_mask" in shown

    out = tmp_path / "q1"
    rc = main(
        ["query", "q1_pricing", "--sf-dir", "/root/testdata/sf0.001", "--out", str(out)]
    )
    assert rc == 0
    files = glob.glob(str(out / "*.parquet"))
    assert files and sum(pq.read_metadata(f).num_rows for f in files) > 0

    assert main(["query", "no_such_query", "--sf-dir", "x", "--show", "1"]) == 2
    assert main(["query", "q1_pricing"]) == 2  # missing --sf-dir/--out
