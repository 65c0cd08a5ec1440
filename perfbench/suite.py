"""Run the benchmark over many seeds and summarise it per workload.

Usage, from the root of the repository:

    python3 perfbench/suite.py                  # seeds 1-10, every workload
    python3 perfbench/suite.py --seeds 101-110  # the re-check seeds
    python3 perfbench/suite.py --trace          # plus one traced run each

Every run is a fresh ``run.py`` process; runs go seed by seed, cycling through
the workloads of BENCHMARK.json, so a slow spell of a shared machine is
spread over all of them.  For each end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``), the run count and the spread
(quartile distance over median) against the metric's bound in
BENCHMARK.json, plus the unscaled ``wall_s`` and the failed share of
subcommand calls.  It exits 1 if any spread exceeds its bound or any call
failed.  ``--trajectory LABEL`` appends the medians to ``trajectory.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_FILE = BENCH_DIR.parent / "BENCHMARK.json"
RESULTS = BENCH_DIR / "results"
TRAJECTORY = BENCH_DIR / "trajectory.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["process_s"] = time.perf_counter() - t0
    result = json.loads((RESULTS / f"{workload}_seed{seed}_trace{trace}.json")
                        .read_text(encoding="utf-8"))
    line["unscaled_wall_s"] = result["unscaled"]["wall_s"]
    return line


def _stats(unit: str, values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def summarise(spec: dict, lines: list[dict]) -> dict:
    out = {"runs": len(lines),
           "attempted": sum(x["attempted"] for x in lines),
           "failed": sum(x["failed"] for x in lines),
           "metrics": {m["name"]: _stats(m["unit"], [
               x["metrics"][m["name"]]["value"] for x in lines])
               for m in spec["end_to_end"]},
           "unscaled_wall_s": _stats("s", [x["unscaled_wall_s"]
                                           for x in lines])}
    out["failed_frac"] = out["failed"] / max(out["attempted"], 1)
    return out


def _row(name: str, m: dict, bound: str, verdict: str) -> str:
    return (f"  {name:16s} {m['median']:12.6g} {m['q1']:12.6g} "
            f"{m['q3']:12.6g} {m['spread']:8.4f} {bound:>6s}  "
            f"{verdict} [{m['unit']}]")


def print_summary(spec: dict, summary: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, s in summary.items():
        print(f"\n{workload}: {s['runs']} runs, failed_frac "
              f"{s['failed_frac']:.4g} ({s['failed']} of {s['attempted']})")
        ok = ok and s["failed"] == 0
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, m in s["metrics"].items():
            bound = bounds[name]
            verdict = "steady" if m["spread"] <= bound / 3 else \
                "within bound" if m["spread"] <= bound else "TOO WIDE"
            ok = ok and m["spread"] <= bound
            print(_row(name, m, f"{bound:.3f}", verdict))
        print(_row("wall_s unscaled", s["unscaled_wall_s"], "-",
                   "(not a metric)"))
    return ok


def print_traced(spec: dict, traced: dict[str, dict]) -> None:
    names = list(traced)
    print("\nper-layer metrics (one traced run per workload, per unit):")
    print(f"  {'metric':34s}" + "".join(f" {n:>16s}" for n in names))
    for m in spec["per_layer"]:
        row = "".join(f" {traced[n]['metrics'][m['name']]['value']:16.6g}"
                      for n in names)
        print(f"  {m['name']:34s}{row}  {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", type=_seeds)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true",
                   help="add one traced run per workload (first seed)")
    p.add_argument("--trajectory", metavar="LABEL",
                   help="append the medians to trajectory.json")
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    lines: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            line = run_once(w, seed, args.seconds, 0)
            lines[w].append(line)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in line["metrics"].items())
                + f"; {line['failed']}/{line['attempted']} failed; "
                f"{line['process_s']:.1f} s", flush=True)
    summary = {w: summarise(spec, v) for w, v in lines.items()}
    traced = {w: run_once(w, args.seeds[0], args.seconds, 1)
              for w in workloads} if args.trace else {}
    ok = print_summary(spec, summary)
    if traced:
        print_traced(spec, traced)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"suite_{stamp}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "summary": summary, "traced": traced},
                              indent=1) + "\n", encoding="utf-8")
    print(f"\nsummary written to {out}")
    if args.trajectory:
        entries = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
            if TRAJECTORY.exists() else []
        record = json.loads((RESULTS / f"{workloads[0]}_seed{args.seeds[0]}"
                                       "_trace0.json").read_text())["record"]
        entries.append({
            "label": args.trajectory, "date_utc": stamp, "seeds": args.seeds,
            "seconds": args.seconds,
            "machine": {k: record[k] for k in ("nproc", "cpu_model", "python",
                                               "numpy", "commit",
                                               "src_sha256")},
            "workloads": {w: {"runs": s["runs"],
                              "failed_frac": s["failed_frac"],
                              "metrics": {k: {f: v[f] for f in
                                              ("unit", "median", "q1", "q3")}
                                          for k, v in s["metrics"].items()},
                              "unscaled_wall_s": {
                                  f: s["unscaled_wall_s"][f]
                                  for f in ("unit", "median", "q1", "q3")}}
                          for w, s in summary.items()}})
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
