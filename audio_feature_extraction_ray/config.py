"""Pipeline configuration (reference analog: STFTConfig/FeatureConfig/
PipelineConfig + YAML load, design.md:2145-2221, tasks.md:549-578).

Plain dataclasses, validated at build time (reference: early config
validation, design.md:2352-2377). Loadable from YAML (if pyyaml present)
or JSON.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path


# Scalar feature columns emitted by the feature pipeline, in the order they
# are packed into the `features` list<double> vector (fixed-width invariant —
# the webtext analog of n_freq_bins == n_fft//2+1, design.md:173-204).
def _default_feature_order(ngram_buckets: int) -> list[str]:
    return (
        ["token_count", "char_count"]
        + [f"ngram_b{i}" for i in range(ngram_buckets)]
        + [
            "lang_run_length",
            "ts_since_prev",
            "session_id",
            "session_len",
            "text_churn",
            "lag1_token_count",
            "rw_mean_token_count",
            "rw_max_token_count",
            "locf_rank",
            "locf_fetch_ok",
        ]
    )


@dataclass
class FeatureConfig:
    """Semantics knobs. Engine and oracle both read ONLY this."""

    window_k: int = 5               # rolling window: last k revisits incl. current
    session_gap_s: float = 7 * 86400.0  # gap STRICTLY greater than this starts a new session
    ngram_buckets: int = 8          # byte-trigram histogram width
    # as-of right side (signals table); None disables locf_* columns
    signals_path: str | None = None
    # lead features (labels) — emitted under label_ prefix, never packed into
    # the feature vector (leakage discipline, SURVEY §4.3)
    emit_labels: bool = False
    # names of registered plugin extractors (functions.registry) applied
    # inside the merge kernel after the built-in history features; emitted as
    # extra columns, not packed into the fixed-width vector
    extra_features: tuple = ()
    # bad-record policy (SURVEY M4/P8; spec recovery rule design.md:2373-2376):
    # "error" -> a null in a required column raises SchemaError and fails the
    # job; "quarantine" -> bad rows are dropped pre-shuffle and surfaced as
    # job_report["rows_quarantined"]
    bad_rows: str = "error"

    @property
    def feature_order(self) -> list[str]:
        cols = _default_feature_order(self.ngram_buckets)
        if self.signals_path is None:
            cols = [c for c in cols if not c.startswith("locf_")]
        return cols


@dataclass
class EngineConfig:
    """Physical execution knobs (Ray Data side only; oracle ignores these)."""

    num_partitions: int = 64        # the ONE wide shuffle's fan-out
    partitioner: str = "hash"       # "hash" (url-hash) | "range" (sampled url ranges + hot-range salting)
    range_sample_size: int = 10_000  # driver-side url sample for range bounds
    hot_salt: int = 4               # salts applied to ranges holding > 2x median rows
    batch_size: int = 4096          # map_batches batch size for stateless stages
    # Block count of the pages read. None = stages.exchange.read_num_blocks:
    # one block per input file when there are at least as many files as
    # cluster CPUs (a larger count makes Ray split each read task's output
    # (SplitBlocks), and the split generators hold CPU slots while they wait
    # for the next stage); with fewer parquet files, ceil(footer bytes /
    # DataContext.target_min_block_size) blocks when that is below 2 x CPUs;
    # otherwise Ray's own count. The sort-based shuffle emits one reduce
    # block (-> one grouped kernel task) per upstream block. Set this only to
    # split uneven or very large files. Pair with batch_size <=
    # rows-per-block so one read block = one map task.
    read_num_blocks: int | None = None
    broadcast_signals_max_rows: int = 5_000_000  # above this, co-partition instead of broadcast
    copartition_signals: bool = False  # force the co-partitioned as-of path (host-keyed)
    output_dir: str | None = None   # when set, partition kernels write parquet + manifest
    resume: bool = False            # skip partitions with a valid manifest in output_dir


@dataclass
class PipelineConfig:
    input_path: str = ""
    # "parquet" (columnar, projection pushdown at the read) | "jsonl" | "csv"
    # (row formats: columns are projected AFTER decode — fine for ingest
    # compatibility, but parquet is the scale path and the docs say so)
    input_format: str = "parquet"
    features: FeatureConfig = field(default_factory=FeatureConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def validate(self) -> None:
        from .errors import ConfigError

        f, e = self.features, self.engine
        if self.input_format not in ("parquet", "jsonl", "csv"):
            raise ConfigError(f"unknown input_format {self.input_format!r}")
        if f.window_k < 1:
            raise ConfigError("window_k must be >= 1")
        if f.session_gap_s <= 0:
            raise ConfigError("session_gap_s must be > 0")
        if f.ngram_buckets < 1:
            raise ConfigError("ngram_buckets must be >= 1")
        if f.bad_rows not in ("error", "quarantine"):
            raise ConfigError(f"unknown bad_rows policy {f.bad_rows!r}")
        if e.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if e.partitioner not in ("hash", "range"):
            raise ConfigError(f"unknown partitioner {e.partitioner!r}")
        if e.resume and not e.output_dir:
            raise ConfigError("resume=True requires output_dir")

    def semantics_fingerprint(self) -> str:
        """Hash of everything that changes OUTPUT VALUES (input + feature
        semantics + partition layout). Recorded in every partition manifest;
        resume only reuses partitions whose fingerprint matches — a completed
        partition from a run with different semantics is recomputed, never
        silently reused."""
        import hashlib as _hashlib

        f, e = self.features, self.engine
        payload = json.dumps(
            {
                "input_path": self.input_path,
                "input_format": self.input_format,
                "features": dataclasses.asdict(f),
                "partitioner": e.partitioner,
                "num_partitions": e.num_partitions,
                "hot_salt": e.hot_salt,
                "copartition": e.copartition_signals,
            },
            sort_keys=True,
            default=str,
        )
        return _hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        cfg = cls(
            input_path=d.get("input_path", ""),
            input_format=d.get("input_format", "parquet"),
            features=FeatureConfig(**d.get("features", {})),
            engine=EngineConfig(**d.get("engine", {})),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        text = Path(path).read_text()
        if str(path).endswith((".yaml", ".yml")):
            try:
                import yaml  # type: ignore

                return cls.from_dict(yaml.safe_load(text))
            except ImportError as e:  # pragma: no cover
                raise RuntimeError("pyyaml not installed; use JSON config") from e
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
