"""Repository benchmark for the point-in-time feature pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of the repository. Each run is a closed loop: one process
owning one Ray session with num_cpus=4, and the workload's executions one
after another for --seconds of timed work. Inputs are generated from --seed
into .perfbench_work/ and removed at exit.

Workloads (see BENCHMARK.json for why each was chosen):
  pages_full    features.run, checkpointed, over a seeded pages fixture
  registry_asof ten events entries of __ray_entry__.queries() by name

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced executions (for trace.overhead_frac), then runs the per-layer probes
of layers.py and prints the per-layer metrics. Every output is checked
outside the timed window; a failed check counts in `failed`. The last line
of stdout is the result JSON; everything Ray or the package prints goes to
stderr. The line before it stamps the result with the tree revision, the
host fault-in probe and the traced stage reconciliation.

--smoke runs every workload once, traced and untraced, on tiny inputs and
asserts that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-ups per run; setup_s is their median. Each costs 10-15 s on 4 CPUs
# (Ray init, inputs, a cold warm-up execution), so two keep a run at 40-55 s.
SETUPS = 2
MIN_EXECUTIONS = 2  # timed executions per run, even if --seconds is reached earlier
RECONCILE_TOL = 0.10  # traced Ray stage spans must cover the run's wall within this share

WORKLOADS = ("pages_full", "registry_asof")


def _require_package() -> None:
    """Fail before any work when the package under test is absent."""
    if not (ROOT / "audio_feature_extraction_ray" / "__init__.py").is_file() or not (
        ROOT / "__ray_entry__.py"
    ).is_file():
        raise SystemExit(f"package under test not found under {ROOT}")
    sys.path.insert(0, str(ROOT))
    import audio_feature_extraction_ray  # noqa: F401


def sizes(tiny: bool) -> dict[str, int]:
    from pages import PAGES_ROWS
    from registry import EVENTS_ROWS

    return {"pages": 3_000, "events": 5_000} if tiny else {"pages": PAGES_ROWS, "events": EVENTS_ROWS}


def make_workload(name: str, seed: int, tracer, size: dict[str, int]):
    from pages import PagesWorkload
    from registry import AsofWorkload

    if name == "pages_full":
        return PagesWorkload(seed, tracer, rows=size["pages"])
    return AsofWorkload(seed, tracer, rows=size["events"])


def set_up(wl, work: Path) -> list[float]:
    """SETUPS full set-ups (Ray init, fixture from the seed, untimed warm-up
    execution); all but the last session are torn down again."""
    from common import start_ray, stop_ray

    times = []
    for k in range(SETUPS):
        d = work / f"setup-{k}"
        t0 = time.perf_counter()
        start_ray()
        t1 = time.perf_counter()
        wl.prepare(d)
        t2 = time.perf_counter()
        wl.warm_up()
        times.append(time.perf_counter() - t0)
        print(f"setup {k}: ray {t1 - t0:.2f} s, inputs {t2 - t1:.2f} s, warm-up {t0 + times[-1] - t2:.2f} s",
              file=sys.stderr)
        if k < SETUPS - 1:
            stop_ray()
            shutil.rmtree(d, ignore_errors=True)
    wl.after_setup()
    return times


def measure(wl, seconds: float, tracer, alternate: bool) -> dict:
    """Timed executions until `seconds` of timed work and at least
    MIN_EXECUTIONS; each output is checked after its timer stops. An
    execution whose output fails its check still counts its wall; one that
    raises counts only as failed. With `alternate`, every other execution
    is traced."""
    from common import RssSampler

    walls, traced_walls = [], []
    attempted = failed = 0
    peak = timed = 0.0
    errors: list[str] = []
    i = 0
    while timed < seconds or i < MIN_EXECUTIONS:
        tracer.enabled = alternate and i % 2 == 1
        ops = wl.operations()
        attempted += ops
        t0 = time.perf_counter()
        wall = None
        try:
            with RssSampler() as rss:
                wall = wl.execute()
            peak = max(peak, rss.peak_mb)
            errs = wl.check()
        except Exception:  # a failed execution is counted, not fatal
            errs = [traceback.format_exc(limit=3)] * ops
        timed += wall if wall is not None else time.perf_counter() - t0
        print(f"execution {i}: {wall if wall is None else round(wall, 3)} s, traced={tracer.enabled}, "
              f"{len(errs)} errors", file=sys.stderr)
        if errs:
            failed += min(ops, len(errs))
            errors += errs
        if wall is not None:
            (traced_walls if tracer.enabled else walls).append(wall)
        i += 1
    tracer.enabled = alternate
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak,
        "errors": errors,
    }


END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}


def end_to_end(wl, setups: list[float], m: dict) -> dict[str, float]:
    from common import median

    if not m["walls"]:
        raise RuntimeError("no execution succeeded: " + " | ".join(m["errors"][:3]))
    wall = median(m["walls"])
    return {
        "wall_s": wall,
        "rows_per_s": wl.input_rows / wall,
        "setup_s": median(setups),
        "peak_rss_mb": m["peak_rss_mb"],
        "ok_frac": 1.0 - m["failed"] / m["attempted"],
    }


def per_layer(wl, seed: int, size: dict[str, int], work: Path, tracer, m: dict) -> tuple[dict, list[str], int]:
    import layers
    from common import median
    from pages import PagesWorkload

    if not (m["walls"] and m["traced_walls"]):
        raise RuntimeError("traced run needs both traced and untraced executions: " + " | ".join(m["errors"][:3]))
    out = {"trace.overhead_frac": median(m["traced_walls"]) / median(m["walls"]) - 1.0}
    pages = wl if isinstance(wl, PagesWorkload) else None
    if pages is None:
        pages = PagesWorkload(seed, tracer, rows=size["pages"])
        pages.prepare(work / "probe-pages")
        pages.warm_up()
        pages.after_setup()
    out.update(layers.kernel_rates(pages))
    lm, errs, ops = layers.pipeline_layers(pages, tracer)
    out.update(lm)
    rm, rerrs, rops = layers.registry_layers(work, seed, size["events"], tracer)
    out.update(rm)
    return out, errs + rerrs, ops + rops


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    from common import Tracer, remove_ray_temp, stop_ray, work_root
    from layers import UNITS

    tracer = Tracer(enabled=False)
    size = sizes(tiny)
    wl = make_workload(name, seed, tracer, size)
    work = work_root() / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = set_up(wl, work)
        m = measure(wl, seconds, tracer, alternate=trace)
        if trace:
            metrics, errs, ops = per_layer(wl, seed, size, work, tracer, m)
            m["attempted"] += ops
            m["failed"] += min(ops, len(errs))
            m["errors"] += errs
            tracer.dump(work_root() / f"trace-{name}-seed{seed}.jsonl")
        else:
            metrics = end_to_end(wl, setups, m)
    finally:
        stop_ray()
        remove_ray_temp()
        shutil.rmtree(work, ignore_errors=True)
    for e in m["errors"]:
        print("check failed:", e, file=sys.stderr)
    units = UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, stamp(name, seed, trace, metrics)


def stamp(name: str, seed: int, trace: bool, metrics: dict) -> dict:
    import bench
    from common import NUM_CPUS, git_revision

    s = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "revision": git_revision(),
        "fault_probe_gbps": bench.fault_in_probe(),
        "num_cpus": NUM_CPUS,
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
    if trace:
        ratio = metrics["trace.stage_sum_over_wall"]
        s["stage_reconcile"] = {"stage_sum_over_wall": ratio, "ok": abs(ratio - 1.0) <= RECONCILE_TOL}
        if not s["stage_reconcile"]["ok"]:
            print(f"stage spans sum to {ratio:.3f} of the pages_full wall (tolerance {RECONCILE_TOL})", file=sys.stderr)
    return s


def smoke() -> int:
    """Every workload once, untraced and traced, on tiny inputs; every
    metric named in BENCHMARK.json must be printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                bad.append(f"{w['name']} trace={trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = got == want[trace] and res["correct"]
            if not ok:
                bad.append(f"{w['name']} trace={trace}: correct={res['correct']} metrics {sorted(got.items())} "
                           f"!= {sorted(want[trace].items())}")
            print(f"smoke {w['name']} trace={trace}: ok={ok}", file=sys.stderr)
    for b in bad:
        print(b, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload once on tiny inputs")
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _require_package()
    if args.smoke:
        return smoke()
    if not args.workload:
        p.error("--workload is required")
    # the result line is the last line of the real stdout; everything else,
    # Ray's and the package's prints included, goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    # a terminated run still shuts its Ray session down (run()'s finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, st = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    with os.fdopen(result_fd, "w") as out:
        out.write(json.dumps({"stamp": st}) + "\n")
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
