"""Real-vector genetic algorithm over [0, 1]^n chromosomes.

Each generation keeps one elite copy of the previous fittest (with its cached
fitness, so the best-fitness trace never decreases), adds n_mut mutants of
that fittest, and fills the rest with mutate(crossover(tournament, tournament))
children.  Mutation perturbs genes with a skewed half-Gaussian centered at the
current value, rejection-resampled to stay inside [0, 1].

``worker_map`` is the one place that dispatches work to worker processes,
for the GA's fitness calls and for the CLI's other parallel steps.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Callable, Protocol, Sequence

import numpy as np

_OPS_STREAM = 1
_EVAL_STREAM = 2

PERTURB_MAX_RETRIES = 64


class InvalidConfig(Exception):
    pass


class GenomeLengthMismatch(Exception):
    pass


class FitnessEvaluationFailure(Exception):
    def __init__(self, generation: int, index: int, cause: BaseException):
        super().__init__(generation, index, cause)
        self.generation = generation
        self.index = index
        self.__cause__ = cause

    def __str__(self) -> str:
        return (f"fitness evaluation failed at generation {self.generation}, "
                f"individual {self.index}: {self.args[2]!r}")


class FitnessFunction(Protocol):
    """Fitness contract: higher is better, reproducible under a fixed stream."""

    n_params: int

    def evaluate(self, genome: np.ndarray, rng: np.random.Generator) -> float:
        ...


@dataclass
class Individual:
    genome: np.ndarray
    fitness: float | None = None

    def copy(self) -> "Individual":
        return Individual(self.genome.copy(), self.fitness)


@dataclass(frozen=True)
class GaConfig:
    n_pop: int = 100
    n_mut: int = 5
    t_max: int = 30
    k: int = 3
    sigma: float = 2.0
    mu_mut: float = 0.25
    seed: int = 0
    convergence_window: int | None = 10

    def validate(self) -> None:
        if self.n_pop < 1:
            raise InvalidConfig("n_pop must be >= 1")
        if self.n_mut < 0 or self.n_mut + 1 > self.n_pop:
            raise InvalidConfig("need n_mut + 1 <= n_pop")
        if not 1 <= self.k <= self.n_pop:
            raise InvalidConfig("need 1 <= k <= n_pop")
        if not 0 < self.sigma < np.inf:
            raise InvalidConfig("sigma must be positive and finite")
        if not 0.0 <= self.mu_mut <= 1.0:
            raise InvalidConfig("mu_mut must lie in [0, 1]")
        if self.t_max < 0:
            raise InvalidConfig("t_max must be >= 0")
        if self.convergence_window is not None and self.convergence_window < 1:
            raise InvalidConfig("convergence_window must be >= 1 or None")


@dataclass(frozen=True)
class TraceRow:
    generation: int
    best_fitness: float
    mean_fitness: float
    std_fitness: float


@dataclass
class GenerationTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp)
        writer.writerow(["generation", "best_fitness", "mean_fitness", "std_fitness"])
        for r in self.rows:
            writer.writerow([r.generation, repr(r.best_fitness),
                             repr(r.mean_fitness), repr(r.std_fitness)])


def perturb(theta: float, sigma: float, rng: np.random.Generator) -> float:
    """Skewed half-Gaussian noise around theta, resampled until inside [0, 1].

    With probability theta the draw moves left (toward 0), scaled by theta;
    otherwise right, scaled by 1 - theta.  The peak of the resulting density
    sits at theta.  After PERTURB_MAX_RETRIES out-of-range draws theta is
    returned unchanged (unreachable for any realistic sigma).
    """
    for _ in range(PERTURB_MAX_RETRIES):
        g = abs(rng.standard_normal())
        if rng.random() < theta:
            v = -(g / sigma) * theta + theta
        else:
            v = (g / sigma) * (1.0 - theta) + theta
        if 0.0 <= v <= 1.0:
            return float(v)
    return float(theta)


def mutate(ind: Individual, sigma: float, mu_mut: float,
           rng: np.random.Generator) -> Individual:
    """Independently perturb each gene with probability mu_mut."""
    genome = ind.genome.copy()
    for i in range(len(genome)):
        if rng.random() < mu_mut:
            genome[i] = perturb(genome[i], sigma, rng)
    return Individual(genome)


def crossover(a: Individual, b: Individual,
              rng: np.random.Generator) -> Individual:
    """Child genome from two parents by uniform per-gene exchange."""
    if a.genome.shape != b.genome.shape:
        raise GenomeLengthMismatch(
            f"parent genomes differ in length: {a.genome.shape} vs {b.genome.shape}")
    mask = rng.random(len(a.genome)) < 0.5
    return Individual(np.where(mask, a.genome, b.genome))


def tournament_select(pop: Sequence[Individual], k: int,
                      rng: np.random.Generator) -> Individual:
    """Fittest member of a uniformly-sampled k-subset (without replacement)."""
    if not 1 <= k <= len(pop):
        raise InvalidConfig(f"tournament size {k} not in [1, {len(pop)}]")
    picks = rng.choice(len(pop), size=k, replace=False)
    best = picks[0]
    for i in picks[1:]:
        if pop[i].fitness > pop[best].fitness:
            best = i
    return pop[best]


def _eval_stream(seed: int, generation: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _EVAL_STREAM, generation, index]))


# (fn, shared) of the pool this worker process belongs to; set once per worker
# by the pool initializer, so jobs carry only their own small arguments.
_worker_task = None


def _install_task(fn, shared) -> None:
    global _worker_task
    _worker_task = (fn, shared)


def _run_task(job):
    fn, shared = _worker_task
    return fn(shared, job)


@contextmanager
def worker_map(fn: Callable, shared, n_workers: int):
    """Yield ``map(jobs)``, an iterator of ``fn(shared, job)`` in job order.

    With ``n_workers > 1`` one process pool serves every ``map`` call made in
    the block: ``shared`` reaches each worker once, through the pool
    initializer, and only the jobs are sent per call.  The pool is shut down
    and its workers joined when the block exits, also when it exits by an
    exception while jobs are in flight.  ``map`` submits all its jobs when
    it is called, so the jobs of several calls can run while the caller
    works.  With one worker ``fn`` runs inline, each job when its result is
    fetched.  Results are fetched lazily in both cases, so an exception
    surfaces at the position of the job that raised it.
    """
    if n_workers <= 1:
        yield lambda jobs: (fn(shared, job) for job in jobs)
        return
    pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_install_task,
                               initargs=(fn, shared))
    try:
        yield lambda jobs: pool.map(_run_task, jobs)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _eval_one(fitness: FitnessFunction, job) -> float:
    genome, seed, generation, index = job
    return float(fitness.evaluate(genome, _eval_stream(seed, generation, index)))


def _evaluate_population(pop: list[Individual], seed: int, generation: int,
                         map_jobs) -> None:
    pending = [i for i, ind in enumerate(pop) if ind.fitness is None]
    results = map_jobs([(pop[i].genome, seed, generation, i) for i in pending])
    for i in pending:
        try:
            pop[i].fitness = next(results)
        except Exception as exc:
            raise FitnessEvaluationFailure(generation, i, exc) from exc


def _fittest_index(pop: list[Individual]) -> int:
    best = 0
    for i in range(1, len(pop)):
        if pop[i].fitness > pop[best].fitness:
            best = i
    return best


def run_ga(fitness: FitnessFunction, cfg: GaConfig,
           n_workers: int = 1) -> tuple[Individual, GenerationTrace]:
    """Run the GA and return the final fittest individual plus the trace.

    Serial and parallel (n_workers > 1) execution produce identical results:
    every fitness evaluation uses an RNG stream derived from (seed,
    generation, individual index), and GA bookkeeping stays on a single
    operations stream.  With n_workers > 1 one worker pool serves the whole
    run; the fitness object reaches each worker once.
    """
    cfg.validate()
    n_params = fitness.n_params
    if n_params < 1:
        raise InvalidConfig("fitness function must declare n_params >= 1")
    ops = np.random.default_rng(np.random.SeedSequence([cfg.seed, _OPS_STREAM]))
    pop = [Individual(ops.random(n_params)) for _ in range(cfg.n_pop)]
    with worker_map(_eval_one, fitness, n_workers) as map_jobs:
        _evaluate_population(pop, cfg.seed, 0, map_jobs)
        trace = GenerationTrace()

        def record(gen: int) -> float:
            values = np.array([ind.fitness for ind in pop])
            row = TraceRow(gen, float(values.max()), float(values.mean()),
                           float(values.std()))
            trace.rows.append(row)
            return row.best_fitness

        best = record(0)
        stale = 0
        for t in range(1, cfg.t_max + 1):
            elite = pop[_fittest_index(pop)]
            next_pop = [elite.copy()]
            for _ in range(cfg.n_mut):
                next_pop.append(mutate(elite, cfg.sigma, cfg.mu_mut, ops))
            for _ in range(cfg.n_pop - cfg.n_mut - 1):
                p1 = tournament_select(pop, cfg.k, ops)
                p2 = tournament_select(pop, cfg.k, ops)
                child = crossover(p1, p2, ops)
                next_pop.append(mutate(child, cfg.sigma, cfg.mu_mut, ops))
            pop = next_pop
            _evaluate_population(pop, cfg.seed, t, map_jobs)
            new_best = record(t)
            stale = stale + 1 if new_best == best else 0
            best = new_best
            if cfg.convergence_window is not None and \
                    stale >= cfg.convergence_window:
                break
        return pop[_fittest_index(pop)].copy(), trace
