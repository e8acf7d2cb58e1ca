"""The pages_full workload: checkpointed `features.run` over a pages fixture
generated from the seed into the run's own work dir, with every output
checked outside the timed window."""

from __future__ import annotations

import contextlib
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from common import critical_segments, operator_stats

# ~50% hot host, 1% duplicates and broadcast signals come from the fixture
# generator; 40k rows keep one execution near 2.5 s on 4 CPUs so a run
# holds several executions.
PAGES_ROWS = 40_000
PAGES_FILES = 8
PARTITIONS = 64
ORACLE_HOT_URLS = 8
ORACLE_OTHER_URLS = 16


def make_config(pages_dir: str, signals_path: str, out_dir: Path, resume: bool = False):
    from audio_feature_extraction_ray.config import EngineConfig, FeatureConfig, PipelineConfig

    return PipelineConfig(
        input_path=pages_dir,
        features=FeatureConfig(signals_path=signals_path),
        engine=EngineConfig(num_partitions=PARTITIONS, output_dir=str(out_dir), resume=resume),
    )


def manifest_checksums(out_dir: Path) -> dict[int, str]:
    from audio_feature_extraction_ray.state.checkpoint import load_completed

    return {pid: m["checksum"] for pid, m in load_completed(out_dir).items()}


def remove_partitions(out_dir: Path, pids) -> None:
    """Delete the manifest and the data of each partition in `pids`, as a
    job that crashed before those partitions completed would leave them."""
    from audio_feature_extraction_ray.state.checkpoint import MANIFEST_DIR

    for pid in pids:
        (out_dir / MANIFEST_DIR / f"part-{pid:05d}.json").unlink(missing_ok=True)
        shutil.rmtree(out_dir / f"part={pid:05d}", ignore_errors=True)


@contextlib.contextmanager
def capture_take_all(sink: list):
    """Record every Dataset that calls take_all() while active, so the
    operator stats of the Dataset that `features.run` builds internally
    can be read after it returns."""
    import ray.data

    orig = ray.data.Dataset.take_all

    def take_all(self, *args, **kwargs):
        sink.append(self)
        return orig(self, *args, **kwargs)

    ray.data.Dataset.take_all = take_all
    try:
        yield
    finally:
        ray.data.Dataset.take_all = orig


def traced_run(cfg, tracer, name: str) -> tuple[dict, float, list]:
    """features.run under a span, with the Ray operator stages of its one
    Dataset attached as child spans (non-overlapping critical segments)."""
    from audio_feature_extraction_ray.pipelines import features

    captured: list = []
    with capture_take_all(captured), tracer.span(name) as sp:
        t0 = time.perf_counter()
        report = features.run(cfg)
        wall = time.perf_counter() - t0
    ops = operator_stats(captured[-1])
    segs = critical_segments(ops)
    if tracer.enabled:
        tracer._stack.append(sp.id)
        t = ops[0].earliest_start_time
        for op_name, dur in segs:
            tracer.add("stage:" + op_name, t, t + dur)
            t += dur
        tracer._stack.pop()
    return report, wall, ops


class PagesWorkload:
    """pages_full: one execution is one checkpointed features.run from an
    empty output dir."""

    def __init__(self, seed: int, tracer, rows: int = PAGES_ROWS):
        self.seed, self.tracer, self.rows = seed, tracer, rows

    # -- set-up -----------------------------------------------------------

    def prepare(self, work: Path) -> None:
        from audio_feature_extraction_ray.testdata import materialize_fixture

        self.pages_dir, self.signals_path = materialize_fixture(
            work / "fixture", self.rows, seed=self.seed, n_files=PAGES_FILES
        )
        self.out = work / "out"
        self.cfg = make_config(self.pages_dir, self.signals_path, self.out)
        self.resume_cfg = make_config(self.pages_dir, self.signals_path, self.out, resume=True)

    def warm_up(self) -> None:
        from audio_feature_extraction_ray.pipelines import features

        shutil.rmtree(self.out, ignore_errors=True)
        self.clean_report = features.run(self.cfg)

    def after_setup(self) -> None:
        """Facts the checks compare against, computed once and untimed."""
        pages = pq.read_table(self.pages_dir, columns=["url", "warc_ts", "html", "text", "lang"])
        self.input_rows = pages.num_rows
        keys = pa.table({"u": pages.column("url"), "t": pages.column("warc_ts")})
        self.distinct_pairs = keys.group_by(["u", "t"]).aggregate([]).num_rows
        self.clean = manifest_checksums(self.out)
        self.removed = sorted(self.clean)[::2]  # the half a resume probe recomputes
        self._oracle_sample(pages)

    def _oracle_sample(self, pages: pa.Table) -> None:
        from audio_feature_extraction_ray.config import FeatureConfig
        from audio_feature_extraction_ray.oracle import oracle_features
        from audio_feature_extraction_ray.testdata import HOT_HOST

        urls = np.array(sorted(set(pages.column("url").to_pylist())))
        rng = np.random.default_rng(self.seed)
        hot = urls[np.char.find(urls.astype(str), f"//{HOT_HOST}/") >= 0]
        cold = urls[np.char.find(urls.astype(str), f"//{HOT_HOST}/") < 0]
        empty = [u for u in urls if u.endswith("/p/000001")]  # the generator's empty-text url
        sample = sorted(
            set(rng.choice(hot, ORACLE_HOT_URLS, replace=False))
            | set(rng.choice(cold, ORACLE_OTHER_URLS, replace=False))
            | set(empty)
        )
        self.sample = pa.array(sample, pa.string())
        rows = pages.filter(pc.is_in(pages.column("url"), self.sample))
        signals = pq.read_table(self.signals_path)
        self.oracle = oracle_features(
            rows.select(["url", "warc_ts", "html", "lang"]),
            FeatureConfig(signals_path=self.signals_path),
            signals,
        )
        stored = rows.select(["url", "warc_ts", "text"]).to_pandas()
        stored = stored.drop_duplicates(["url", "warc_ts"]).sort_values(["url", "warc_ts"])
        self.stored_text = stored["text"].tolist()
        self.width = len(FeatureConfig(signals_path=self.signals_path).feature_order)

    # -- one timed execution ------------------------------------------------

    def execute(self) -> float:
        """Untimed removal of the output dir, then one timed features.run."""
        from audio_feature_extraction_ray.pipelines import features

        shutil.rmtree(self.out, ignore_errors=True)
        self.tracer.new_trace()
        if self.tracer.enabled:
            self.report, wall, _ = traced_run(self.cfg, self.tracer, "features.run")
        else:
            t0 = time.perf_counter()
            self.report = features.run(self.cfg)
            wall = time.perf_counter() - t0
        return wall

    def operations(self) -> int:
        return 1

    # -- output checks (untimed) ---------------------------------------------

    def check(self) -> list[str]:
        errs: list[str] = []
        if manifest_checksums(self.out) != self.clean:
            errs.append("partition checksums differ from the warm-up run")
        if self.report["rows_out"] != self.distinct_pairs:
            errs.append(f"rows_out {self.report['rows_out']} != {self.distinct_pairs} distinct (url, warc_ts)")
        errs += self._check_oracle()
        return errs

    def _check_oracle(self) -> list[str]:
        out = pq.read_table(
            self.out, columns=["url", "warc_ts", "text", "features"], filters=[("url", "in", self.sample.to_pylist())],
            partitioning=None,
        ).sort_by([("url", "ascending"), ("warc_ts", "ascending")])
        o = self.oracle
        errs = []
        if out.num_rows != len(o):
            return [f"oracle sample: {out.num_rows} rows out, oracle has {len(o)}"]
        if out.column("url").to_pylist() != list(o["url"]) or out.column("warc_ts").cast(pa.int64()).to_pylist() != list(
            o["warc_ts"].astype("int64")
        ):
            errs.append("oracle sample: (url, warc_ts) keys differ")
        text = out.column("text").to_pylist()
        if text != list(o["text"]) or text != self.stored_text:
            errs.append("oracle sample: extracted text is not byte-identical to the stored text")
        got = np.asarray(out.column("features").combine_chunks().flatten().to_numpy(zero_copy_only=False))
        want = np.stack(o["features"].to_numpy()) if len(o) else np.zeros((0, self.width))
        if not np.allclose(got.reshape(-1, self.width), want, equal_nan=True):
            errs.append("oracle sample: features are not allclose to oracle_features")
        return errs
