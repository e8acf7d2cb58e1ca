"""Shared machinery of the benchmark: the Ray session, process accounting
from /proc, the span recorder, the registry canonical hash and the small
statistics helpers. Nothing here is imported by the package under test."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One Ray session per run, sized to the 4-CPU affinity set of the host the
# benchmark was written for; fixed so that two hosts run the same plan.
NUM_CPUS = 4
OBJECT_STORE_BYTES = 768 << 20
# Ray's socket paths (<temp>/session_<stamp>/sockets/plasma_store) must fit
# in 107 bytes; a temp dir longer than this falls back to Ray's default.
_MAX_RAY_TEMP = 44


def work_root() -> Path:
    return ROOT / ".perfbench_work"


# --------------------------------------------------------------------------
# processes


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below `pid` (default: this process)."""
    kids = _children()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def summed_rss_mb() -> float:
    """RSS of this process plus every process of its Ray session, in MB."""
    pids = [os.getpid(), *descendants()]
    return sum(_rss_kb(p) for p in pids) / 1024.0


class RssSampler:
    """Samples summed_rss_mb() on a thread while active; keeps the peak."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, summed_rss_mb())
            self._stop.wait(self.period_s)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_mb = max(self.peak_mb, summed_rss_mb())


def reap_children(timeout_s: float = 20.0) -> None:
    """Wait until every process this run started has ended; kill stragglers
    after `timeout_s`."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = descendants()
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)


# --------------------------------------------------------------------------
# the Ray session


def ray_temp_dir() -> str | None:
    tmp = str(ROOT / ".pbray")
    return tmp if len(tmp) <= _MAX_RAY_TEMP else None


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    kwargs = dict(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
    )
    tmp = ray_temp_dir()
    if tmp is not None:
        kwargs["_temp_dir"] = tmp
    ray.init(**kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    reap_children()


def remove_ray_temp() -> None:
    tmp = ray_temp_dir()
    if tmp is not None:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans recorded around calls into the package's layers:
    (trace id, span id, parent id, name, start, end), written out when the
    run ends. Disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def new_trace(self) -> None:
        self.trace_id += 1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, start: float, end: float) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"trace": self.trace_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
        )
        return sid

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> "_Span":
        t = self.tracer
        if t.enabled:
            self.id = t.add(self.name, time.perf_counter(), 0.0)
            t._stack.append(self.id)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        if t.enabled:
            t._stack.pop()
            t.spans[self.id]["end"] = time.perf_counter()


# --------------------------------------------------------------------------
# Ray Data operator stats


def operator_stats(ds) -> list:
    """Per-operator stats of an executed Dataset, upstream first, with
    suboperators (SortMap / SortReduce) flattened in place."""
    summary = ds._get_stats_summary()
    chain = []
    node = summary
    while node is not None:
        chain.append(node)
        node = node.parents[0] if node.parents else None
    ops = []
    for node in reversed(chain):
        ops.extend(op for op in node.operators_stats if op.earliest_start_time)
    return ops


def critical_segments(ops) -> list[tuple[str, float]]:
    """Split the execution timeline among operators without overlap: each
    operator owns the time from the previous owner's last end (its own
    first start, for the first) to its own last end, so waits between
    operators (an exchange's sampling job, scheduling) are charged to the
    operator that waited. The segments sum to the span from the first
    operator start to the last operator end."""
    segs, frontier = [], None
    for op in ops:
        start = op.earliest_start_time if frontier is None else frontier
        end = max(op.latest_end_time, start)
        segs.append((op.operator_name, end - start))
        frontier = end
    return segs


# --------------------------------------------------------------------------
# registry output canonical form (same as scripts/check_correctness.py)


def canon(df) -> tuple[str, str, int]:
    import pandas as pd

    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
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


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


def collect(res):
    """Run a registry result to completion: a Dataset is streamed into an
    Arrow table (no pandas conversion inside the timed window); anything
    else is already materialized."""
    import pyarrow as pa

    if hasattr(res, "iter_batches"):
        batches = list(res.iter_batches(batch_size=65536, batch_format="pyarrow"))
        return pa.concat_tables(batches) if batches else res.to_pandas()
    return res


# --------------------------------------------------------------------------
# statistics and stamps


def median(xs: list[float]) -> float:
    return float(statistics.median(xs))


def git_revision() -> str:
    """Revision of the tree under test; the checkout the benchmark runs in
    may not be a git repository, so fall back to a hash of the package."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return lines[1][:12]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "audio_feature_extraction_ray").rglob("*.py")):
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]
