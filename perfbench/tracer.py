"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``evodial`` modules at
the module or class attribute where their callers look them up, so the
program itself is not edited.  Each call becomes a span (name, start, end,
parent span, run id) stored in flat arrays; the spans stay in memory and are
written out when the run ends.  Counters recorded at the same boundaries
(tree nodes, predicted rows, pools and jobs) sit next to them.

Only the process that created the tracer records: worker processes forked
while the wrappers are installed call straight through, so on ``-w2``
workloads worker time is measured from ``RUSAGE_CHILDREN`` instead.
"""
from __future__ import annotations

import functools
import os
import pickle
import time
from array import array
from pathlib import Path

import numpy as np

from evodial import (batch_rl, cli, core, corpus_io, dsl, evolution,
                     simulator, trees)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_run = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.runs: list[str] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._stack = [-1]
        self._run = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Start a new run id; later spans and counts belong to it."""
        self.runs.append(label)
        self._run = len(self.runs) - 1

    def add(self, counter: str, amount: float) -> None:
        if os.getpid() == self._pid:
            key = (self._run, counter)
            self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(tracer, args,
        result)`` may add counters after a successful call."""
        nid = self._name_id(name)
        pid = self._pid
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self._run)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced boundary (see ``BOUNDARIES``)."""
        for owner, attr, name, on_result in BOUNDARIES:
            self.patch(owner, attr, name, on_result)
        original = evolution.ProcessPoolExecutor
        evolution.ProcessPoolExecutor = _counting_pool(self, original)
        self._patches.append((evolution, "ProcessPoolExecutor", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        # Spans nest on one thread's call stack, so the children of a span
        # never overlap and their summed durations are their coverage.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {"name": np.array(self.span_name, dtype=np.uint16),
                "run": np.array(self.span_run, dtype=np.uint16),
                "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - covered}

    def save(self, path: Path) -> None:
        a = self.arrays()
        t0 = int(a["start"].min()) if len(a["start"]) else 0
        np.savez_compressed(
            path, names=np.array(self.names), runs=np.array(self.runs),
            name=a["name"], run=a["run"], parent=a["parent"],
            start_ns=a["start"] - t0, end_ns=a["end"] - t0)


def _count_saved(tracer: Tracer, args, result) -> None:
    tracer.add("corpus_io.bytes_saved", os.path.getsize(args[0]))


def _count_loaded(tracer: Tracer, args, result) -> None:
    tracer.add("corpus_io.bytes_loaded", os.path.getsize(args[0]))


def _count_nodes(tracer: Tracer, args, result) -> None:
    tracer.add("trees.nodes", len(result.feature))


def _count_row_trees(tracer: Tracer, args, result) -> None:
    ensemble, X = args[0], args[1]
    tracer.add("trees.predict_row_trees", len(X) * ensemble.n_trees)


def _counting_pool(tracer: Tracer, base):
    """``base`` that counts pools started, jobs sent and pickled job bytes."""

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.add("evolution.pools_started", 1)
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            jobs = min(len(it) for it in iterables) if iterables else 0
            tracer.add("evolution.jobs_sent", jobs)
            if jobs:
                first = pickle.dumps(tuple(it[0] for it in iterables))
                tracer.add("evolution.job_bytes", len(first) * jobs)
            return super().map(fn, *iterables, **kwargs)

    return CountingPool


# (owner, attribute, span name, counter hook).  Owners are where callers look
# the names up: simulator imports evaluate_policy and resolve_action into its
# own namespace, dsl imports resolve_action, batch_rl imports
# evaluate_policy_batch and variable_columns_from_features.
BOUNDARIES = (
    (cli, "main", "cli.main", None),
    (simulator, "run_episode", "simulator.run_episode", None),
    (simulator.SimulatedDialogEnv, "reset", "simulator.env_reset", None),
    (simulator.SluChannel, "corrupt", "simulator.slu_corrupt", None),
    (simulator.BeliefTracker, "update", "simulator.tracker_update", None),
    (simulator.AgendaUser, "respond", "simulator.user_respond", None),
    (simulator.SimulationFitness, "evaluate", "simulator.fitness", None),
    (simulator, "evaluate_policy", "dsl.evaluate_policy", None),
    (batch_rl, "evaluate_policy_batch", "dsl.evaluate_policy_batch", None),
    (core.DialogState, "variables", "core.state_variables", None),
    (batch_rl, "variable_columns_from_features", "core.state_columns", None),
    (dsl, "resolve_action", "core.resolve_action", None),
    (simulator, "resolve_action", "core.resolve_action", None),
    (evolution, "run_ga", "evolution.run_ga", None),
    (evolution, "mutate", "evolution.mutate", None),
    (evolution, "crossover", "evolution.crossover", None),
    (evolution, "tournament_select", "evolution.tournament_select", None),
    (trees.ExtraTreesRegressor, "fit", "trees.fit", None),
    (trees.ExtraTreesClassifier, "fit", "trees.fit", None),
    (trees, "_grow", "trees.grow", _count_nodes),
    (trees.ExtraTreesRegressor, "predict", "trees.predict", _count_row_trees),
    (trees.ExtraTreesClassifier, "predict_proba", "trees.predict",
     _count_row_trees),
    (batch_rl, "fitted_q_iteration", "batch_rl.fqi", None),
    (batch_rl.QModel, "q_matrix", "batch_rl.q_matrix", None),
    (batch_rl, "fit_action_classifier", "batch_rl.classifier", None),
    (batch_rl, "evaluate_policy_on_corpus", "batch_rl.fqe", None),
    (batch_rl.CorpusFitness, "__post_init__", "batch_rl.corpus_fitness_init",
     None),
    (batch_rl.CorpusFitness, "evaluate", "batch_rl.corpus_fitness", None),
    (corpus_io, "save_corpus", "corpus_io.save", _count_saved),
    (corpus_io, "load_corpus", "corpus_io.load", _count_loaded),
    (corpus_io, "resample_splits", "corpus_io.resample", None),
)


# Per-layer metrics of a traced run, with their units.  Values are per timed
# unit (one train-sim + evaluate, or one train-corpus), except the corpus_io
# save figures: save_s per set-up repetition, file_mb per corpus written.
LAYER_UNITS = {
    "simulator.episodes": "count",
    "simulator.turns": "count",
    "simulator.episode_ms_p50": "ms",
    "simulator.episode_ms_p99": "ms",
    "simulator.slu_corrupt_s": "s",
    "simulator.tracker_update_s": "s",
    "simulator.user_respond_s": "s",
    "simulator.env_reset_s": "s",
    "simulator.episode_self_s": "s",
    "dsl.evaluate_policy_s": "s",
    "dsl.evaluate_policy_us": "us",
    "dsl.evaluate_policy_batch_s": "s",
    "dsl.evaluate_policy_batch_calls": "count",
    "core.state_variables_s": "s",
    "core.resolve_action_s": "s",
    "evolution.run_ga_s": "s",
    "evolution.run_ga_self_s": "s",
    "evolution.fitness_evals": "count",
    "evolution.ga_ops_s": "s",
    "evolution.pools_started": "count",
    "evolution.jobs_sent": "count",
    "evolution.job_bytes": "bytes",
    "evolution.worker_cpu_s": "s",
    "trees.ensembles_fit": "count",
    "trees.trees_grown": "count",
    "trees.nodes": "count",
    "trees.fit_s": "s",
    "trees.fit_ms_per_tree": "ms",
    "trees.grow_us_per_node": "us",
    "trees.predict_s": "s",
    "trees.predict_row_trees": "count",
    "trees.predict_ns_per_row_tree": "ns",
    "batch_rl.fqi_s": "s",
    "batch_rl.fqi_self_s": "s",
    "batch_rl.q_matrix_s": "s",
    "batch_rl.classifier_s": "s",
    "batch_rl.fqe_s": "s",
    "batch_rl.fqe_calls": "count",
    "batch_rl.fqe_self_s": "s",
    "batch_rl.corpus_fitness_init_s": "s",
    "batch_rl.corpus_fitness_eval_us": "us",
    "corpus_io.save_s": "s",
    "corpus_io.load_s": "s",
    "corpus_io.file_mb": "MB",
    "corpus_io.load_mb_per_s": "MB/s",
    "corpus_io.resample_s": "s",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, unit_runs: list[int], setup_runs: list[int],
                  worker_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced units (and set-up)."""
    a = tracer.arrays()
    n = max(len(unit_runs), 1)
    in_units = np.isin(a["run"], unit_runs)
    in_setup = np.isin(a["run"], setup_runs)

    def select(name: str, where=in_units) -> np.ndarray:
        nid = tracer._name_ids.get(name)
        if nid is None:
            return np.zeros(len(a["name"]), dtype=bool)
        return where & (a["name"] == nid)

    def total(*names: str, where=in_units) -> float:
        return float(sum(a["dur"][select(nm, where)].sum() for nm in names))

    def own(name: str) -> float:
        return float(a["self"][select(name)].sum())

    def calls(*names: str) -> int:
        return int(sum(select(nm).sum() for nm in names))

    def counter(name: str, runs: list[int] = unit_runs) -> float:
        return float(sum(tracer.counts.get((r, name), 0) for r in runs))

    episode_ms = a["dur"][select("simulator.run_episode")] * 1e3
    p50, p99 = (np.percentile(episode_ms, [50, 99]) if len(episode_ms)
                else (0.0, 0.0))
    nodes = counter("trees.nodes")
    row_trees = counter("trees.predict_row_trees")
    jobs = counter("evolution.jobs_sent")
    saves = int(select("corpus_io.save", in_setup).sum())
    m = {
        "simulator.episodes": calls("simulator.run_episode") / n,
        "simulator.turns": calls("simulator.tracker_update") / n,
        "simulator.episode_ms_p50": float(p50),
        "simulator.episode_ms_p99": float(p99),
        "simulator.slu_corrupt_s": total("simulator.slu_corrupt") / n,
        "simulator.tracker_update_s": total("simulator.tracker_update") / n,
        "simulator.user_respond_s": total("simulator.user_respond") / n,
        "simulator.env_reset_s": total("simulator.env_reset") / n,
        "simulator.episode_self_s": own("simulator.run_episode") / n,
        "dsl.evaluate_policy_s": total("dsl.evaluate_policy") / n,
        "dsl.evaluate_policy_us": 1e6 * _ratio(
            total("dsl.evaluate_policy"), calls("dsl.evaluate_policy")),
        "dsl.evaluate_policy_batch_s": total("dsl.evaluate_policy_batch") / n,
        "dsl.evaluate_policy_batch_calls":
            calls("dsl.evaluate_policy_batch") / n,
        "core.state_variables_s":
            total("core.state_variables", "core.state_columns") / n,
        "core.resolve_action_s": total("core.resolve_action") / n,
        "evolution.run_ga_s": total("evolution.run_ga") / n,
        "evolution.run_ga_self_s": own("evolution.run_ga") / n,
        "evolution.fitness_evals": (calls("simulator.fitness",
                                          "batch_rl.corpus_fitness")
                                    + jobs) / n,
        "evolution.ga_ops_s": total("evolution.mutate", "evolution.crossover",
                                    "evolution.tournament_select") / n,
        "evolution.pools_started": counter("evolution.pools_started") / n,
        "evolution.jobs_sent": jobs / n,
        "evolution.job_bytes": counter("evolution.job_bytes") / n,
        "evolution.worker_cpu_s": worker_cpu_s / n,
        "trees.ensembles_fit": calls("trees.fit") / n,
        "trees.trees_grown": calls("trees.grow") / n,
        "trees.nodes": nodes / n,
        "trees.fit_s": total("trees.fit") / n,
        "trees.fit_ms_per_tree": 1e3 * _ratio(total("trees.fit"),
                                              calls("trees.grow")),
        "trees.grow_us_per_node": 1e6 * _ratio(total("trees.grow"), nodes),
        "trees.predict_s": total("trees.predict") / n,
        "trees.predict_row_trees": row_trees / n,
        "trees.predict_ns_per_row_tree": 1e9 * _ratio(total("trees.predict"),
                                                      row_trees),
        "batch_rl.fqi_s": total("batch_rl.fqi") / n,
        "batch_rl.fqi_self_s": own("batch_rl.fqi") / n,
        "batch_rl.q_matrix_s": total("batch_rl.q_matrix") / n,
        "batch_rl.classifier_s": total("batch_rl.classifier") / n,
        "batch_rl.fqe_s": total("batch_rl.fqe") / n,
        "batch_rl.fqe_calls": calls("batch_rl.fqe") / n,
        "batch_rl.fqe_self_s": own("batch_rl.fqe") / n,
        "batch_rl.corpus_fitness_init_s":
            total("batch_rl.corpus_fitness_init") / n,
        "batch_rl.corpus_fitness_eval_us": 1e6 * _ratio(
            total("batch_rl.corpus_fitness"), calls("batch_rl.corpus_fitness")),
        "corpus_io.save_s": _ratio(total("corpus_io.save", where=in_setup),
                                   len(setup_runs)),
        "corpus_io.load_s": total("corpus_io.load") / n,
        "corpus_io.file_mb": 1e-6 * _ratio(
            counter("corpus_io.bytes_saved", setup_runs), saves),
        "corpus_io.load_mb_per_s": 1e-6 * _ratio(
            counter("corpus_io.bytes_loaded"), total("corpus_io.load")),
        "corpus_io.resample_s": total("corpus_io.resample") / n,
        "cli.self_s": own("cli.main") / n,
    }
    assert m.keys() == LAYER_UNITS.keys()
    return m


def span_count(tracer: Tracer, runs: list[int]) -> int:
    return int(np.isin(np.array(tracer.span_run, dtype=np.uint16), runs).sum())
