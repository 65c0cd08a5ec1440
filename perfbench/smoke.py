"""Self-check: every workload, shrunk, traced and untraced.

Run as ``python3 perfbench/run.py --smoke``.  Each workload runs twice in a
fresh interpreter (``--trace 0`` and ``--trace 1``) with the "smoke" unit
sizes.  The check fails unless every run exits 0 and is correct (every
output digest matches its reference, which for a ``-w2`` workload is the
digest of its serial twin), every metric named in BENCHMARK.json is emitted
with its unit, and the run's record holds a digest of every byte-stable
output its subcommands write.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
SEED = 1


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "results" /
                         f"{workload}_seed{SEED}_trace{trace}_smoke.json")
                        .read_text(encoding="utf-8"))
    return line, record


def _check(spec: dict, workload: str, trace: int, line: dict,
           record: dict) -> None:
    where = f"{workload} trace {trace}"
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        raise AssertionError(f"{where}: {line['failed']} of "
                             f"{line['attempted']} calls failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(line["metrics"]) != {m["name"] for m in wanted}:
        raise AssertionError(f"{where}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(line['metrics']) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = line["metrics"][m["name"]]
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{where}: {m['name']} emitted as {got}")
    family = wl.FAMILIES[wl.WORKLOADS[workload].family]
    outputs = {(cmd, name) for cmd in family.commands
               for name in wl.OUTPUTS[cmd]}
    digested = {(c["command"], name) for c in record["calls"]
                for name in c["digests"]}
    if outputs - digested:
        raise AssertionError(f"{where}: no digest of {sorted(outputs - digested)}")


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                line, record = _run(workload, trace)
                _check(spec, workload, trace, line, record)
                print(f"smoke ok: {workload} trace {trace}: "
                      f"{line['attempted']} calls")
    except AssertionError as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke ok: all workloads; every output matches its serial "
          "reference digest")
    return 0
