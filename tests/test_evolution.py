import io
import multiprocessing

import numpy as np
import pytest

from evodial import evolution
from evodial.evolution import (FitnessEvaluationFailure, GaConfig,
                               GenomeLengthMismatch, Individual, InvalidConfig,
                               crossover, mutate, perturb, run_ga,
                               tournament_select)
from support import (NoisySphereFitness, SphereFitness, best_history,
                     fitted_peak)


class _ForcedRng:
    """Stub stream with a pinned Gaussian draw."""

    def __init__(self, gaussian, uniform=0.99):
        self.gaussian = gaussian
        self.uniform = uniform

    def standard_normal(self):
        return self.gaussian

    def random(self, size=None):
        return self.uniform


def test_perturb_zero_noise_is_identity():
    for theta in (0.0, 0.1, 0.5, 0.9, 1.0):
        for uniform in (0.0, 0.99):  # either branch
            assert perturb(theta, 2.0, _ForcedRng(0.0, uniform)) == pytest.approx(theta)


def test_perturb_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
        samples = [perturb(theta, 0.5, rng) for _ in range(4000)]
        assert min(samples) >= 0.0 and max(samples) <= 1.0


def test_perturb_left_branch_probability():
    # the left branch fires with probability theta and always lands below it
    rng = np.random.default_rng(42)
    theta = 0.3
    below = sum(perturb(theta, 2.0, rng) < theta for _ in range(100_000))
    assert below / 100_000 == pytest.approx(0.3, abs=0.01)


def test_perturb_boundary_theta_zero():
    rng = np.random.default_rng(3)
    samples = [perturb(0.0, 2.0, rng) for _ in range(2000)]
    assert min(samples) >= 0.0


def test_mutate_zero_probability_keeps_genome():
    rng = np.random.default_rng(1)
    ind = Individual(np.array([0.2, 0.8, 0.5]), fitness=1.0)
    out = mutate(ind, 2.0, 0.0, rng)
    assert np.array_equal(out.genome, ind.genome)
    assert out.fitness is None


def test_mutate_certain_probability_perturbs_every_gene():
    rng = np.random.default_rng(2)
    ind = Individual(np.full(64, 0.5))
    out = mutate(ind, 2.0, 1.0, rng)
    assert np.all(out.genome != ind.genome)
    assert np.all((out.genome >= 0) & (out.genome <= 1))


def test_mutate_output_mode_matches_gene_value():
    rng = np.random.default_rng(9)
    samples = np.array([mutate(Individual(np.array([0.5, 0.5])), 2.0, 1.0,
                               rng).genome for _ in range(50_000)]).ravel()
    assert abs(fitted_peak(samples) - 0.5) < 0.05


def test_crossover_identical_parents():
    rng = np.random.default_rng(4)
    a = Individual(np.array([0.1, 0.2, 0.3]))
    child = crossover(a, Individual(a.genome.copy()), rng)
    assert np.array_equal(child.genome, a.genome)


def test_crossover_uniform_gene_mixing():
    rng = np.random.default_rng(5)
    a = Individual(np.zeros(8))
    b = Individual(np.ones(8))
    children = np.array([crossover(a, b, rng).genome for _ in range(20_000)])
    assert set(np.unique(children)) <= {0.0, 1.0}
    assert np.allclose(children.mean(axis=0), 0.5, atol=0.02)


def test_crossover_preserves_length():
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 9):
        a = Individual(rng.random(n))
        b = Individual(rng.random(n))
        assert len(crossover(a, b, rng).genome) == n


def test_crossover_length_mismatch():
    rng = np.random.default_rng(7)
    with pytest.raises(GenomeLengthMismatch):
        crossover(Individual(np.zeros(3)), Individual(np.zeros(4)), rng)


def _pop(fitnesses):
    return [Individual(np.array([float(i)]), fitness=f)
            for i, f in enumerate(fitnesses)]


def test_tournament_full_size_returns_global_best():
    rng = np.random.default_rng(10)
    pop = _pop([3.0, 1.0, 2.0])
    for _ in range(20):
        assert tournament_select(pop, 3, rng).fitness == 3.0


def test_tournament_singleton_is_uniform():
    rng = np.random.default_rng(11)
    pop = _pop([1.0, 2.0, 3.0])
    counts = np.zeros(3)
    for _ in range(30_000):
        counts[int(tournament_select(pop, 1, rng).genome[0])] += 1
    assert np.allclose(counts / 30_000, 1 / 3, atol=0.02)


def test_tournament_pair_statistics():
    # exact combinatorics: the fittest of {1,2,3} wins iff drawn, p = 2/3
    rng = np.random.default_rng(12)
    pop = _pop([1.0, 2.0, 3.0])
    wins = sum(tournament_select(pop, 2, rng).fitness == 3.0
               for _ in range(30_000))
    assert wins / 30_000 == pytest.approx(2 / 3, abs=0.02)


def test_run_ga_optimizes_sphere():
    target = np.array([0.31, 0.62, 0.48, 0.9])
    best, trace = run_ga(SphereFitness(target),
                         GaConfig(n_pop=100, t_max=30, seed=0,
                                  convergence_window=None))
    assert best.fitness >= -1e-2
    assert len(trace.rows) == 31


def test_best_fitness_never_decreases():
    best, trace = run_ga(SphereFitness(np.array([0.5, 0.5])),
                         GaConfig(n_pop=20, t_max=25, seed=1,
                                  convergence_window=None))
    hist = best_history(trace)
    assert all(b >= a for a, b in zip(hist, hist[1:]))


def test_population_of_one_is_elite_only():
    best, trace = run_ga(SphereFitness(np.array([0.5])),
                         GaConfig(n_pop=1, n_mut=0, t_max=10, k=1, seed=2,
                                  convergence_window=None))
    hist = best_history(trace)
    assert len(set(hist)) == 1  # the elite is never re-evaluated or replaced


def test_run_ga_deterministic_and_parallel_identical():
    cfg = GaConfig(n_pop=12, n_mut=2, t_max=6, seed=3, convergence_window=None)
    fitness = SphereFitness(np.array([0.2, 0.7, 0.4]))
    best_a, trace_a = run_ga(fitness, cfg)
    best_b, trace_b = run_ga(fitness, cfg)
    best_c, trace_c = run_ga(fitness, cfg, n_workers=2)
    assert np.array_equal(best_a.genome, best_b.genome)
    assert trace_a.rows == trace_b.rows == trace_c.rows
    assert np.array_equal(best_a.genome, best_c.genome)


def test_run_ga_serial_matches_two_workers_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def configs(draw):
        n_pop = draw(st.integers(1, 8))
        return GaConfig(
            n_pop=n_pop, n_mut=draw(st.integers(0, n_pop - 1)),
            t_max=draw(st.integers(0, 4)), k=draw(st.integers(1, n_pop)),
            sigma=draw(st.floats(0.1, 10.0)), mu_mut=draw(st.floats(0.0, 1.0)),
            seed=draw(st.integers(0, 2 ** 32 - 1)),
            convergence_window=draw(st.none() | st.integers(1, 3)))

    # each run_ga call joins its pool before returning, so at most one
    # 2-worker pool exists at a time
    @hypothesis.settings(max_examples=10, deadline=None, derandomize=True)
    @hypothesis.given(cfg=configs(), n_params=st.integers(1, 4),
                      fitness_seed=st.integers(0, 2 ** 16))
    def check(cfg, n_params, fitness_seed):
        rng = np.random.default_rng(fitness_seed)
        fitness = NoisySphereFitness(rng.random(n_params), noise=0.1)
        best_s, trace_s = run_ga(fitness, cfg)
        best_p, trace_p = run_ga(fitness, cfg, n_workers=2)
        assert not multiprocessing.active_children()
        assert best_s.genome.tobytes() == best_p.genome.tobytes()
        assert best_s.fitness == best_p.fitness
        assert trace_s.rows == trace_p.rows

    check()


def test_convergence_window_stops_early():
    class Flat:
        n_params = 2

        def evaluate(self, genome, rng):
            return 1.0

    best, trace = run_ga(Flat(), GaConfig(n_pop=8, t_max=50, seed=4,
                                          convergence_window=5))
    assert len(trace.rows) == 6  # generations 0..5, then stale for 5


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        GaConfig(n_pop=3, n_mut=3).validate()
    with pytest.raises(InvalidConfig):
        GaConfig(k=0).validate()
    with pytest.raises(InvalidConfig):
        GaConfig(sigma=0.0).validate()
    with pytest.raises(InvalidConfig):
        GaConfig(mu_mut=1.5).validate()


def test_fitness_failure_carries_location():
    class Broken:
        n_params = 2

        def evaluate(self, genome, rng):
            raise RuntimeError("boom")

    with pytest.raises(FitnessEvaluationFailure) as err:
        run_ga(Broken(), GaConfig(n_pop=4, n_mut=1, k=2, t_max=2, seed=5))
    assert err.value.generation == 0
    assert err.value.index == 0


class _Recording:
    n_params = 2

    def __init__(self):
        self.genomes = []

    def evaluate(self, genome, rng):
        self.genomes.append(genome.copy())
        return 0.0


class _FailsOn:
    """Raises for one genome only."""

    n_params = 2

    def __init__(self, bad_genome):
        self.bad_genome = bad_genome

    def evaluate(self, genome, rng):
        if np.array_equal(genome, self.bad_genome):
            raise RuntimeError("boom")
        return float(genome.sum())


def test_parallel_fitness_failure_carries_location():
    cfg = GaConfig(n_pop=4, n_mut=1, k=2, t_max=2, seed=5)
    initial = _Recording()
    run_ga(initial, GaConfig(n_pop=4, n_mut=1, k=2, t_max=0, seed=5))
    with pytest.raises(FitnessEvaluationFailure) as err:
        run_ga(_FailsOn(initial.genomes[2]), cfg, n_workers=2)
    assert (err.value.generation, err.value.index) == (0, 2)
    assert not multiprocessing.active_children()


def test_run_ga_starts_one_pool_per_run(monkeypatch):
    started = []

    class CountingPool(evolution.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(evolution, "ProcessPoolExecutor", CountingPool)
    cfg = GaConfig(n_pop=6, n_mut=1, k=2, t_max=4, seed=3,
                   convergence_window=None)
    _, trace = run_ga(SphereFitness(np.array([0.2, 0.7])), cfg, n_workers=2)
    assert len(trace.rows) == 5
    assert len(started) == 1
    assert not multiprocessing.active_children()


def test_trace_csv_layout():
    _, trace = run_ga(SphereFitness(np.array([0.5])),
                      GaConfig(n_pop=5, n_mut=1, t_max=3, k=2, seed=6,
                               convergence_window=None))
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,std_fitness"
    assert len(lines) == 5


def test_population_size_and_elite_caching():
    calls = []

    class Counting:
        n_params = 3

        def evaluate(self, genome, rng):
            calls.append(1)
            return float(genome.sum())

    cfg = GaConfig(n_pop=10, n_mut=2, k=3, t_max=6, seed=7,
                   convergence_window=None)
    run_ga(Counting(), cfg)
    # generation 0 evaluates everyone; afterwards the elite's cached fitness
    # is reused, so each generation evaluates exactly n_pop - 1 individuals
    assert len(calls) == 10 + 6 * 9
