"""Record the reference digests of every pool instance.

Usage, from the root of the repository:

    python3 perfbench/record_references.py [full|smoke ...]

Runs every instance of the instance pools serially (EVODIAL_WORKERS=1) and
rewrites the given sizes' entries of ``reference_digests.json``.  Run it only
on the commit whose outputs define correctness: a later change that alters
any digest changes the program's results.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as wl  # noqa: E402


def record(size_name: str, work: Path) -> dict[str, dict]:
    refs = {}

    def keep(results) -> None:
        for r in results:
            if r.returncode != 0 or None in r.digests.values():
                raise SystemExit(f"{r.key}/{r.command} failed: {r.error}")
            refs[f"{r.key}/{r.command}"] = r.digests

    sim = wl.make_family(wl.WORKLOADS["sim-train"], size_name, work, 0, None)
    for seed in sim.size["sim_pool"]:
        keep(sim.run_instance(seed, "ref"))
        print(f"sim/{size_name}/{seed}", flush=True)
    corpus = wl.make_family(wl.WORKLOADS["corpus-train"], size_name, work, 0,
                            None)
    for corpus_seed in corpus.size["corpus_pool"]:
        keep([corpus.make_corpus(corpus_seed)])
        for seed in corpus.size["train_pool"]:
            keep(corpus.run_instance((corpus_seed, seed), "ref"))
            print(f"corpus/{size_name}/{corpus_seed}/{seed}", flush=True)
    return refs


def main(argv: list[str]) -> int:
    sizes = argv or ["full", "smoke"]
    refs = wl.load_references() if wl.REFERENCE_FILE.exists() else {}
    work = BENCH_DIR / "work" / "references"
    try:
        for size_name in sizes:
            prefix = (f"sim/{size_name}/", f"corpus/{size_name}/")
            refs = {k: v for k, v in refs.items() if not k.startswith(prefix)}
            work.mkdir(parents=True, exist_ok=True)
            refs.update(record(size_name, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE_FILE.write_text(json.dumps(dict(sorted(refs.items())),
                                            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
