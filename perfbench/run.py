"""Benchmark of the evodial training paths, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim-train --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --smoke        # shrunk self-check of all workloads

One run sets up several times (``workloads.SIZES``), then runs timed units
of its workload back to back (a closed batch with a single client) until
``--seconds`` would be exceeded.  With ``--trace 0`` it reports the
end-to-end metrics, scaled for the drift of a shared machine (see
``probe.py``); with ``--trace 1`` it alternates untraced and traced units
on the same instances and reports the per-layer metrics plus the tracing
overhead.  The last stdout line is a JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record of the run
goes to ``perfbench/results/``.  See README.md.
"""
from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"

WORKLOAD_NAMES = ("sim-train", "sim-train-w2", "corpus-train",
                  "corpus-train-w2")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "episodes_per_s": "1/s",
}
TRACE_UNITS = {
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans_per_unit": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunk unit sizes; without --workload, run the "
                        "self-check of every workload")
    args = p.parse_args(argv)
    if args.workload is not None or not args.smoke:
        missing = [f"--{k}" for k in ("workload", "seed", "seconds")
                   if getattr(args, k) is None]
        if missing:
            p.error("missing " + ", ".join(missing))
        if args.seconds <= 0:
            p.error("--seconds must be positive")
    return args


def _usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu(before, after) -> tuple[float, float]:
    """(total, children) user+sys CPU seconds between two _usage() calls."""
    own = sum(getattr(after[0], f) - getattr(before[0], f)
              for f in ("ru_utime", "ru_stime"))
    kids = sum(getattr(after[1], f) - getattr(before[1], f)
               for f in ("ru_utime", "ru_stime"))
    return own + kids, kids


def measure(fn):
    """Run ``fn`` and return (wall s, CPU s incl. reaped workers, workers' CPU
    s, fn's result)."""
    before = _usage()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    cpu, kids = _cpu(before, _usage())
    return wall, cpu, kids, result


def check_no_live_workers(label: str) -> None:
    """Stop the run if a worker process outlives the unit that started it.

    ``cpu_s``, ``peak_rss_mb`` and ``evolution.worker_cpu_s`` count workers
    through RUSAGE_CHILDREN, which covers only children that have ended and
    been waited for; a worker that lives on would leave those figures
    unnoticed.
    """
    alive = multiprocessing.active_children()
    if alive:
        for child in alive:
            child.terminate()
        for child in alive:
            child.join()
        raise RuntimeError(f"{label}: {len(alive)} worker process(es) were "
                           "still running after the unit, so their CPU time "
                           "and RSS would be missing from the figures")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI.

    No timeout is passed: with one, ``subprocess`` polls the child in sleeps
    of up to 50 ms, which would round the figure up to that step.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import evodial.cli"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "evodial").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, load_before: float) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_model": _cpu_model(), "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run(args) -> int:
    import tracer as tracing
    import workloads as wl
    from probe import PROBE_REFERENCE_S, ProbeServer

    load_before = os.getloadavg()[0]
    workload = wl.WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}" + \
        ("_smoke" if args.smoke else "")
    work = WORK / f"{tag}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    calls = []
    units = []
    setup_runs, traced_runs = [], []
    try:
        family = wl.make_family(workload, size, work, args.seed,
                                wl.load_references())
        with ProbeServer() as prober:
            setup_walls, setup_probes = [], []
            for rep in range(family.setup_reps):
                if tracer is not None:
                    tracer.begin_run(f"setup-{rep}")
                    setup_runs.append(len(tracer.runs) - 1)
                    tracer.install()
                try:
                    wall, _, _, results = measure(lambda: family.setup(rep))
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                setup_walls.append(wall)
                setup_probes.append(prober.measure())
                calls += results
            to_timed = time.perf_counter() - _PROCESS_T0

            def unit(index: int, traced: bool) -> dict:
                label = f"unit-{index}-{'traced' if traced else 'plain'}"
                if traced:
                    tracer.begin_run(label)
                    traced_runs.append(len(tracer.runs) - 1)
                    tracer.install()
                try:
                    wall, cpu, kids, results = measure(
                        lambda: family.unit(index, label))
                finally:
                    if traced:
                        tracer.uninstall()
                check_no_live_workers(label)
                calls.extend(results)
                record = {"index": index, "instance": family.instance(index),
                          "traced": traced, "wall_s": wall, "cpu_s": cpu,
                          "worker_cpu_s": kids, "probe_s": prober.measure(),
                          "episodes": family.episodes_per_unit,
                          "ok": all(r.ok for r in results)}
                units.append(record)
                return record

            deadline = time.perf_counter() + args.seconds
            step_walls = []
            index = 0
            while not step_walls or \
                    time.perf_counter() + _median(step_walls) <= deadline:
                wall = unit(index, False)["wall_s"]
                if tracer is not None:
                    wall += unit(index, True)["wall_s"]
                step_walls.append(wall)
                index += 1
            own, kids = _usage()
            peak_rss_mb = (own.ru_maxrss + kids.ru_maxrss) / 1024.0
            # Fresh-interpreter imports run after the timed region, so that
            # these short-lived children cannot enter the workers' peak RSS.
            imports = []
            for _ in range(family.setup_reps):
                imports.append(import_seconds())
                setup_probes.append(prober.measure())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [u for u in units if not u["traced"]]
    failed = sum(not c.ok for c in calls)
    probe_mean = statistics.fmean([u["probe_s"] for u in units])
    setup_probe_mean = statistics.fmean(setup_probes)
    raw = {
        "wall_s": _median([u["wall_s"] for u in plain]),
        "setup_s": _median([i + s for i, s in zip(imports, setup_walls)]),
        "cpu_s": _median([u["cpu_s"] for u in plain]),
        "peak_rss_mb": peak_rss_mb,
        "episodes_per_s": _median([u["episodes"] / u["wall_s"]
                                   for u in plain]),
    }
    if tracer is None:
        # Each time is scaled by the probes taken in its own stretch of the
        # run, since the machine's speed can change between set-up and units.
        scale = PROBE_REFERENCE_S / probe_mean
        values = {**raw, "wall_s": raw["wall_s"] * scale,
                  "setup_s": raw["setup_s"] * PROBE_REFERENCE_S
                  / setup_probe_mean,
                  "cpu_s": raw["cpu_s"] * scale,
                  "episodes_per_s": raw["episodes_per_s"] / scale}
        units_of = END_TO_END_UNITS
    else:
        traced = [u for u in units if u["traced"]]
        values = tracing.layer_metrics(
            tracer, traced_runs, setup_runs,
            sum(u["worker_cpu_s"] for u in traced))
        untraced_wall = _median([u["wall_s"] for u in plain])
        overhead = _median([t["wall_s"] - p["wall_s"]
                            for p, t in zip(plain, traced)])
        values.update({
            "trace.traced_wall_s": _median([u["wall_s"] for u in traced]),
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": overhead,
            "trace.overhead_frac": overhead / untraced_wall
            if untraced_wall else 0.0,
            "trace.spans_per_unit": tracing.span_count(tracer, traced_runs)
            / max(len(traced), 1),
        })
        units_of = {**tracing.LAYER_UNITS, **TRACE_UNITS}

    metrics = {name: {"value": values[name], "unit": unit_}
               for name, unit_ in units_of.items()}
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = run_record(args, load_before)
    spans_file = None
    if tracer is not None:
        spans_file = RESULTS / f"{tag}_spans.npz"
        tracer.save(spans_file)
    result = {
        "record": record,
        "correct": failed == 0, "attempted": len(calls), "failed": failed,
        "failed_frac": failed / len(calls) if calls else 1.0,
        "metrics": metrics, "unscaled": raw, "probe_mean_s": probe_mean,
        "setup_probe_mean_s": setup_probe_mean,
        "process_to_timed_s": to_timed,
        "setup_walls_s": setup_walls, "import_s": imports,
        "units": units, "calls": [c.to_dict() for c in calls],
        "spans_file": spans_file.name if spans_file else None,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"# {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced units, {len(units) - len(plain)} traced; "
          f"nproc {record['nproc']}, load {load_before:.2f} -> "
          f"{record['loadavg_1m_after']:.2f}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"{'wall_s unscaled':36s} {raw['wall_s']:14.6g} s "
          f"(probe mean {probe_mean:.4g} s)")
    print(f"{'failed_frac':36s} {result['failed_frac']:14.6g} ratio "
          f"({failed} of {len(calls)} calls)")
    print(json.dumps({"correct": result["correct"], "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evodial" / "__init__.py").is_file():
        print(f"error: no evodial sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        import smoke
        return smoke.main()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
