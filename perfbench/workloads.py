"""Workload definitions: what one set-up step and one timed unit run.

Every workload drives the real CLI entry point, ``evodial.cli.main``, in the
benchmark process, one subcommand after the other (a closed batch with one
client).  A *unit* is the sequence of subcommands one user run makes:

* ``sim`` family: ``train-sim`` on the shipped restaurant template, then
  ``evaluate`` with a noise sweep of the winner.
* ``corpus`` family: ``train-corpus`` with one resampling round on a corpus
  made during set-up by ``make-corpus``.

Inputs come from fixed pools of instance seeds, and every pool instance has
reference sha256 digests of its byte-stable outputs in
``reference_digests.json`` (written by ``record_references.py``).  The
workload seed picks which pool instances a run uses and in which order, so
every run of every seed is checked byte for byte, and a ``-w2`` workload must
reproduce the digests of its serial twin.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

from evodial import cli, dsl, simulator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
SHIPPED_TEMPLATE = ROOT / "src" / "evodial" / "data" / "restaurant.policy"

# Behaviour-policy parameters of the corpus generator (criterion 12's).
CORPUS_GEN_PARAMS = [0.3, 0.8, 0.5]

# Unit sizes and set-up repetitions per run (setup_s is their median).
# "full" is what the timed runs use; "smoke" is the shrunk self-check.  Changing a value changes the outputs, so the reference
# digests must be recorded again.
SIZES = {
    "full": {
        "setup_reps": 7,
        "sim_train": ["--pop", "24", "--generations", "10", "--episodes", "16"],
        "sim_eval": ["--noise", "0.0:0.6:0.1", "--episodes", "100"],
        "corpus_make": ["--episodes", "240", "--epsilon", "0.25",
                        "--rewards", "corpus"],
        "corpus_train": ["--resamples", "1", "--l-max", "3", "--trees", "3",
                         "--n-min", "6", "--pop", "20", "--n-mut", "3",
                         "--k", "3", "--generations", "15",
                         "--fitness", "qval"],
        "sim_pool": list(range(1, 49)),
        "corpus_pool": list(range(1, 8)),
        "train_pool": list(range(1, 9)),
    },
    "smoke": {
        "setup_reps": 2,
        "sim_train": ["--pop", "4", "--n-mut", "1", "--k", "2",
                      "--generations", "2", "--episodes", "2"],
        "sim_eval": ["--noise", "0.0:0.6:0.1", "--episodes", "5"],
        "corpus_make": ["--episodes", "30", "--epsilon", "0.3",
                        "--rewards", "corpus"],
        "corpus_train": ["--resamples", "1", "--l-max", "2", "--trees", "2",
                         "--n-min", "6", "--pop", "6", "--n-mut", "1",
                         "--k", "2", "--generations", "2",
                         "--fitness", "qval"],
        "sim_pool": [1, 2],
        "corpus_pool": [1, 2, 3],
        "train_pool": [1, 2],
    },
}

def _sim_unit_episodes(size: dict) -> int:
    """Simulated episodes in one sim unit.

    train-sim evaluates the initial population plus pop - 1 new individuals
    per generation (the elite keeps its cached fitness), each on --episodes
    dialogs; the sweep then runs --episodes dialogs per noise level.
    """
    train = dict(zip(size["sim_train"][::2], size["sim_train"][1::2]))
    sweep = dict(zip(size["sim_eval"][::2], size["sim_eval"][1::2]))
    pop, gens, eps = (int(train[k]) for k in ("--pop", "--generations",
                                                "--episodes"))
    lo, hi, step = (float(x) for x in sweep["--noise"].split(":"))
    levels = round((hi - lo) / step) + 1
    return (pop + gens * (pop - 1)) * eps + levels * int(sweep["--episodes"])


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "sim" | "corpus"
    workers: int


WORKLOADS = {w.name: w for w in (
    Workload("sim-train", "sim", 1),
    Workload("sim-train-w2", "sim", 2),
    Workload("corpus-train", "corpus", 1),
    Workload("corpus-train-w2", "corpus", 2),
)}

# Output files whose bytes are fixed by the seed, per subcommand.
OUTPUTS = {
    "train-sim": ("trace.csv", "best_params.json", "policy.txt"),
    "evaluate": ("noise_sweep.csv",),
    "make-corpus": ("corpus.jsonl",),
    "train-corpus": ("results.csv", "best_params.json", "policy.txt"),
}


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class CallResult:
    """One subcommand call: its exit status and the digests it produced."""

    command: str
    key: str  # reference-table key of the instance
    returncode: int | None  # None when the call raised
    error: str | None
    digests: dict[str, str | None]
    expected: dict[str, str] | None

    @property
    def ok(self) -> bool:
        return (self.returncode == 0 and self.expected is not None
                and self.digests == self.expected)

    def to_dict(self) -> dict:
        return {"command": self.command, "key": self.key,
                "returncode": self.returncode, "error": self.error,
                "digests": self.digests, "ok": self.ok}


def call_cli(command: str, argv: list[str], out_dir: Path, key: str,
             references: dict | None) -> CallResult:
    """Run one subcommand through ``cli.main`` and digest its outputs.

    ``cli.main`` is looked up at call time so that a traced unit reaches the
    wrapped entry point.  The subcommand's own stdout is swallowed: the
    benchmark's last stdout line must be its JSON result.
    """
    error = None
    returncode = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            returncode = cli.main([command] + argv)
    except Exception:  # a broken program must count as a failed call
        error = traceback.format_exc()
    digests = {name: sha256_file(out_dir / name) for name in OUTPUTS[command]}
    expected = None if references is None else \
        references.get(f"{key}/{command}")
    return CallResult(command, key, returncode, error, digests, expected)


class Family:
    """Set-up and unit steps shared by a serial workload and its -w2 twin."""

    def __init__(self, size_name: str, work: Path, seed: int,
                 references: dict | None):
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.work = work
        self.references = references
        self.rng = random.Random(seed)
        self.setup_reps = self.size["setup_reps"]

    def unit_dir(self, label: str) -> Path:
        path = self.work / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def instance(self, index: int):
        return self.order[index % len(self.order)]

    def unit(self, index: int, label: str) -> list[CallResult]:
        return self.run_instance(self.instance(index), label)


class SimFamily(Family):
    commands = ("train-sim", "evaluate")

    def __init__(self, *args):
        super().__init__(*args)
        pool = self.size["sim_pool"]
        self.order = self.rng.sample(pool, len(pool))
        self.episodes_per_unit = _sim_unit_episodes(self.size)

    def setup(self, rep: int) -> list[CallResult]:
        """Template and ontology load; the CLI repeats both per call."""
        dsl.parse_template(SHIPPED_TEMPLATE.read_text(encoding="utf-8"))
        simulator.default_ontology()
        return []

    def run_instance(self, seed: int, label: str) -> list[CallResult]:
        key = f"sim/{self.size_name}/{seed}"
        out = self.unit_dir(label)
        common = ["--template", str(SHIPPED_TEMPLATE), "--out", str(out),
                  "--seed", str(seed)]
        results = [call_cli("train-sim", common + self.size["sim_train"],
                            out, key, self.references)]
        results.append(call_cli(
            "evaluate", common + ["--params", str(out / "best_params.json")]
            + self.size["sim_eval"], out, key, self.references))
        shutil.rmtree(out, ignore_errors=True)
        return results


class CorpusFamily(Family):
    """Each set-up repetition makes a different corpus, and the units draw
    (corpus seed, train-corpus seed) instances from all of them, so that the
    cost of one corpus does not set a run's figures."""

    commands = ("make-corpus", "train-corpus")

    def __init__(self, *args):
        super().__init__(*args)
        self.corpus_seeds = self.rng.sample(self.size["corpus_pool"],
                                            self.setup_reps)
        pairs = [(c, t) for c in self.corpus_seeds
                 for t in self.size["train_pool"]]
        self.order = self.rng.sample(pairs, len(pairs))
        self.template = self.work / "flat.policy"
        self.template.write_text(
            SHIPPED_TEMPLATE.read_text(encoding="utf-8")
            .replace("Offer(filter=p3)", "Offer"), encoding="utf-8")
        self.params = self.work / "gen_params.json"
        self.params.write_text(json.dumps({"params": CORPUS_GEN_PARAMS}),
                               encoding="utf-8")
        self.corpora: dict[int, Path] = {}
        self.episodes_per_unit = int(dict(zip(
            self.size["corpus_make"][::2],
            self.size["corpus_make"][1::2]))["--episodes"])

    def setup(self, rep: int) -> list[CallResult]:
        return [self.make_corpus(self.corpus_seeds[rep])]

    def make_corpus(self, corpus_seed: int) -> CallResult:
        out = self.unit_dir(f"corpus-{corpus_seed}")
        self.corpora[corpus_seed] = out / "corpus.jsonl"
        return call_cli(
            "make-corpus",
            ["--template", str(self.template), "--params", str(self.params),
             "--out", str(self.corpora[corpus_seed]), "--seed",
             str(corpus_seed)] + self.size["corpus_make"],
            out, f"corpus/{self.size_name}/{corpus_seed}", self.references)

    def run_instance(self, instance: tuple[int, int],
                     label: str) -> list[CallResult]:
        corpus_seed, seed = instance
        key = f"corpus/{self.size_name}/{corpus_seed}/{seed}"
        out = self.unit_dir(label)
        results = [call_cli(
            "train-corpus",
            ["--template", str(self.template), "--corpus",
             str(self.corpora[corpus_seed]), "--out", str(out), "--seed",
             str(seed)] + self.size["corpus_train"], out, key,
            self.references)]
        shutil.rmtree(out, ignore_errors=True)
        return results


FAMILIES = {"sim": SimFamily, "corpus": CorpusFamily}


def make_family(workload: Workload, size_name: str, work: Path, seed: int,
                references: dict | None) -> Family:
    os.environ["EVODIAL_WORKERS"] = str(workload.workers)
    return FAMILIES[workload.family](size_name, work, seed, references)
