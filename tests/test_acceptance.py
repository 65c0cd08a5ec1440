"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier criteria
(the 30-seed online-training comparison and the 12-round corpus pipeline)
take a few minutes each; the full module finishes in roughly ten minutes on
a laptop-class machine.
"""
import random
import time

import numpy as np
import pytest

import evodial
from evodial.batch_rl import (CorpusFitness, FittedQConfig, QValConfig,
                              evaluate_policy_on_corpus, fit_action_classifier,
                              fitted_q_iteration, template_actions,
                              template_corpus_policy)
from evodial.core import CORPUS_REWARDS, SIM_REWARDS
from evodial.corpus_io import ResamplePlan, resample_splits
from evodial.dsl import (DanglingElse, StateSchema, TemplateSyntaxError,
                         TemplateValidationError, UnknownIdentifier,
                         evaluate_policy, parse_template, pretty_print)
from evodial.evolution import GaConfig, perturb, run_ga, tournament_select, Individual
from evodial.simulator import (DEFAULT_NOISE_SCHEDULE, HEURISTIC_PARAMS,
                               NoiseConfig, SimulationFitness, SluChannel,
                               default_ontology, default_template_text,
                               evaluate_policy_sim, make_synthetic_corpus,
                               template_policy)
from support import (CHAIN_ACTIONS, CHAIN_STATE_VECS, SphereFitness,
                     best_history, build_comparison_dms, chain_corpus,
                     chain_value_iteration, fitness_npoints, fitness_qval,
                     fitted_peak,
                     q_values, random_template, variables_from_features)

ONTOLOGY = default_ontology()
TEMPLATE = parse_template(default_template_text())
FLAT_TEMPLATE = parse_template(
    default_template_text().replace("Offer(filter=p3)", "Offer"))

# Every GA run in this suite funnels through _run_ga_tracked, which enforces
# the elitism invariant inline; criterion 2 then audits the collected traces.
_TRACKED_TRACES: list[list[float]] = []


def _run_ga_tracked(fitness, cfg, n_workers=1):
    best, trace = run_ga(fitness, cfg, n_workers=n_workers)
    history = best_history(trace)
    assert all(b >= a for a, b in zip(history, history[1:])), \
        "elitism monotonicity violated"
    _TRACKED_TRACES.append(history)
    return best, trace


def _report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion:2d}] {text} -- PASS")


def test_criterion_01_ga_sanity():
    rng = np.random.default_rng(20260809)
    hits = 0
    slowest = 0.0
    for seed in range(100):
        target = rng.random(4)
        start = time.perf_counter()
        best, _ = _run_ga_tracked(
            SphereFitness(target),
            GaConfig(n_pop=100, n_mut=5, k=3, t_max=30, seed=seed,
                     convergence_window=None))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 5.0, f"run {seed} took {elapsed:.2f}s"
        hits += best.fitness >= -1e-2
    assert hits >= 95, f"only {hits}/100 runs reached -1e-2"
    _report(1, f"GA sanity: {hits}/100 runs reached -1e-2, "
               f"slowest run {slowest:.2f}s (< 5s)")


def test_criterion_02_elitism_monotonicity():
    # stochastic fitness stresses the cached-elite path
    for seed in range(3):
        fitness = SimulationFitness(TEMPLATE, ONTOLOGY, SIM_REWARDS,
                                    n_episodes=2, schedule=(0.0, 0.3, 0.6))
        _run_ga_tracked(fitness, GaConfig(n_pop=8, n_mut=2, k=2, t_max=10,
                                          seed=seed, convergence_window=None))
    assert len(_TRACKED_TRACES) >= 103
    for history in _TRACKED_TRACES:
        assert all(b >= a for a, b in zip(history, history[1:]))
    _report(2, f"elitism monotonicity: 0 violations across "
               f"{len(_TRACKED_TRACES)} tracked GA runs")


class _ForcedZeroGaussian:
    def __init__(self, uniform):
        self.uniform = uniform

    def standard_normal(self):
        return 0.0

    def random(self, size=None):
        return self.uniform


def test_criterion_03_perturb_correctness():
    modes = {}
    for theta in (0.1, 0.5, 0.9):
        for uniform in (0.0, 0.99):  # forces either skew branch
            assert perturb(theta, 2.0, _ForcedZeroGaussian(uniform)) == theta
        rng = np.random.default_rng(int(theta * 1000))
        samples = np.array([perturb(theta, 2.0, rng) for _ in range(100_000)])
        assert samples.min() >= 0.0 and samples.max() <= 1.0
        # the density is nearly flat on its wide side, so a histogram argmax
        # cannot localize the peak at this sample size; the two-piece fit in
        # support.fitted_peak estimates the mode from the global shape
        modes[theta] = fitted_peak(samples)
        assert abs(modes[theta] - theta) <= 0.05, \
            f"mode {modes[theta]:.3f} too far from theta={theta}"
    _report(3, "perturb: outputs in [0,1], zero-noise fixed point exact, "
               "empirical modes " +
            ", ".join(f"{t}->{m:.3f}" for t, m in modes.items()))


def test_criterion_04_tournament_statistics():
    rng = np.random.default_rng(4)
    pop = [Individual(np.array([float(i)]), fitness=float(f))
           for i, f in enumerate((1, 2, 3))]
    wins = sum(tournament_select(pop, 2, rng).fitness == 3.0
               for _ in range(100_000))
    rate = wins / 100_000
    assert rate == pytest.approx(2 / 3, abs=0.01)
    _report(4, f"tournament: fittest of {{1,2,3}} selected at k=2 with "
               f"frequency {rate:.4f} (exact oracle 2/3)")


CHAIN_FQ = FittedQConfig(l_max=50, gamma=0.9, trees=50, k_features=5, n_min=2,
                         seed=0)


def test_criterion_05_fitted_q_oracle():
    corpus = chain_corpus(200, mixed=True)
    start = time.perf_counter()
    q = fitted_q_iteration(corpus, CHAIN_FQ)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    exact = chain_value_iteration()
    worst = 0.0
    for s_name, vec in CHAIN_STATE_VECS.items():
        q_hat = q.q_matrix(vec.reshape(1, -1))[0]
        for a_idx, a_name in enumerate(CHAIN_ACTIONS):
            truth = exact[(s_name, a_name)]
            rel = abs(q_hat[a_idx] - truth) / abs(truth)
            worst = max(worst, rel)
            assert rel <= 0.05, f"Q({s_name},{a_name}) off by {rel:.3f}"
    _report(5, f"fitted Q-iteration: worst relative error "
               f"{worst:.4f} (<= 0.05) in {elapsed:.1f}s (< 60s)")


def test_criterion_06_off_policy_evaluator_oracle():
    corpus = chain_corpus(200, mixed=False)  # generated by always-advance
    advance = lambda X: np.zeros(len(X), dtype=np.int64)
    value = evaluate_policy_on_corpus(advance, corpus, CHAIN_FQ)
    analytic = 0.0 + 0.9 * 10.0  # discounted reward sequence [0, 10]
    assert value == pytest.approx(analytic, rel=0.05)
    _report(6, f"off-policy evaluator: starting-turn value {value:.3f} vs "
               f"closed form {analytic} (within 5%)")


SYN_FEATURES = ("top_a", "second_a", "top_b", "second_b", "filled_count",
                "top_slu_score", "dialog_begin", "slu_empty", "slot_denied",
                "require_more_pending", "offer_correct", "offer_duplicate",
                "offer_wrong", "turn_frac")
SYN_SCHEMA = StateSchema(
    bool_vars=("dialog_begin", "slu_empty", "slot_denied",
               "require_more_pending"),
    num_vars=("top_slu_score", "min_slot_score", "max_slot_score",
              "filled_frac", "turn_frac"),
    actions=("A0", "A1", "A2"),
)


class _UniformProbs:
    def __init__(self, n):
        self.n = n

    def predict_proba(self, X):
        return np.full((len(X), self.n), 1.0 / self.n)

    def predict(self, X):
        return np.zeros(len(X), dtype=np.int64)


def test_criterion_07_fitness_brute_force_equivalence():
    from evodial.batch_rl import QModel
    from evodial.trees import ExtraTreesClassifier, ExtraTreesRegressor

    rng = np.random.default_rng(7)
    states = rng.random((200, len(SYN_FEATURES)))
    actions = rng.integers(0, 3, 200)
    targets = states[:, 0] * 20 - 10 + actions
    reg = ExtraTreesRegressor(25, None, 4, seed=1).fit(
        np.hstack([states, np.eye(3)[actions]]), targets)
    q = QModel(reg, SYN_SCHEMA.actions)
    clf = ExtraTreesClassifier(25, None, 4, seed=2).fit(states, actions, 3)
    ast = parse_template(
        "if top_slu_score < p0 then A1 else if slot_denied then A2 else A0",
        SYN_SCHEMA)
    params = [0.55]
    cfg = QValConfig(delta=0.1, r_punish=-100.0)

    npoints = fitness_npoints(ast, params, states, SYN_FEATURES, q)
    qval = fitness_qval(ast, params, states, SYN_FEATURES, q, clf, cfg)
    brute_n = 0
    brute_q = 0.0
    for i in range(len(states)):
        variables = variables_from_features(states[i], SYN_FEATURES)
        act = evaluate_policy(ast, params, variables).act
        a = SYN_SCHEMA.actions.index(act)
        per_action = [q_values(q, states[i:i + 1], np.array([b]))[0]
                      for b in range(3)]
        brute_n += a == int(np.argmax(per_action))
        p = clf.predict_proba(states[i:i + 1])[0, a]
        brute_q += per_action[a] if p > cfg.delta else cfg.r_punish
    assert npoints == brute_n  # bitwise
    assert qval == pytest.approx(brute_q, abs=1e-9)

    uniform = _UniformProbs(3)
    acts = template_actions(ast, params, states, SYN_FEATURES, SYN_SCHEMA.actions)
    plain_sum = q.q_matrix(states)[np.arange(200), acts].sum()
    assert fitness_qval(ast, params, states, SYN_FEATURES, q, uniform,
                        QValConfig(delta=0.0, r_punish=-1.0)) == \
        pytest.approx(plain_sum, abs=1e-9)
    assert fitness_qval(ast, params, states, SYN_FEATURES, q, uniform,
                        QValConfig(delta=1.0, r_punish=-3.25)) == 200 * -3.25
    _report(7, f"corpus fitness: npoints {int(npoints)} and qval "
               f"{qval:.3f} match brute force; delta 0/1 identities exact")


@pytest.mark.slow
def test_criterion_08_simulation_ordering():
    start = time.perf_counter()
    seeds = 30
    wins = 0
    margins = []
    rule_policy = template_policy(TEMPLATE, HEURISTIC_PARAMS)
    for seed in range(seeds):
        fitness = SimulationFitness(TEMPLATE, ONTOLOGY, SIM_REWARDS,
                                    n_episodes=16,
                                    schedule=DEFAULT_NOISE_SCHEDULE)
        best, _ = _run_ga_tracked(
            fitness, GaConfig(n_pop=24, n_mut=3, k=3, t_max=30, seed=seed,
                              convergence_window=None))
        ga_policy = template_policy(TEMPLATE, best.genome)
        # shared test seed pairs the episode streams of the two policies
        ga = evaluate_policy_sim(ga_policy, ONTOLOGY, SIM_REWARDS, 1000,
                                 90_000 + seed, schedule=DEFAULT_NOISE_SCHEDULE)
        rule = evaluate_policy_sim(rule_policy, ONTOLOGY, SIM_REWARDS, 1000,
                                   90_000 + seed, schedule=DEFAULT_NOISE_SCHEDULE)
        wins += ga.mean_reward > rule.mean_reward
        margins.append(ga.mean_reward - rule.mean_reward)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert wins >= 27, f"optimized policy won only {wins}/{seeds} seeds"
    _report(8, f"simulation ordering: optimized template beat the rule "
               f"baseline in {wins}/{seeds} seeds (mean margin "
               f"{np.mean(margins):+.1f}) in {elapsed / 60:.1f} min (< 30)")


def test_criterion_09_noise_channel_calibration():
    rng = random.Random(9)
    slots = list(ONTOLOGY.slots)
    worst = 0.0
    for rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        channel = SluChannel(ONTOLOGY, NoiseConfig(rate, nbest_size=3))
        errors = 0
        n = 100_000
        for _ in range(n):
            slot = rng.choice(slots)
            truth = evodial.DialogAct(
                "inform", ((slot, rng.choice(ONTOLOGY.values[slot])),))
            nbest = channel.corrupt(truth, rng)
            if nbest.is_empty or not nbest.top.same_semantics(truth):
                errors += 1
        measured = errors / n
        worst = max(worst, abs(measured - rate))
        assert measured == pytest.approx(rate, abs=0.01), \
            f"rate {rate}: measured {measured:.4f}"
    _report(9, f"noise channel: top-hypothesis semantic error rate matches "
               f"configuration, worst deviation {worst:.4f} (<= 0.01)")


class _RippleFitness:
    """Multimodal landscape where small populations stall in local optima."""

    def __init__(self, target):
        self.target = np.asarray(target)
        self.n_params = len(self.target)

    def evaluate(self, genome, rng):
        z = 4.0 * (genome - self.target)
        return -float(np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0))


def test_criterion_10_population_size_trend():
    rng = np.random.default_rng(10)
    finals = {10: [], 300: []}
    for seed in range(20):
        target = rng.random(6)
        for pop in (10, 300):
            best, _ = _run_ga_tracked(
                _RippleFitness(target),
                GaConfig(n_pop=pop, n_mut=min(5, pop - 1), k=3, t_max=30,
                         seed=seed, convergence_window=None))
            finals[pop].append(best.fitness)
    mean_small, mean_large = np.mean(finals[10]), np.mean(finals[300])
    assert mean_large >= mean_small
    _report(10, f"population trend: mean final training fitness "
                f"{mean_large:.2f} (pop=300) >= {mean_small:.2f} (pop=10) "
                f"over 20 seeds")


MALFORMED = (
    ("if a then X", DanglingElse),
    ("if a then X else", TemplateSyntaxError),
    ("if a and then X else Y", TemplateSyntaxError),
    ("if missing_var then X else Y", UnknownIdentifier),
    ("if a then Unknown else Y", UnknownIdentifier),
    ("if p0 then X else Y", TemplateSyntaxError),
    ("if score < 0.5 then X else Y", TemplateSyntaxError),
    ("if score < other then X else Y", TemplateSyntaxError),
    ("if score < p1 then X else Y", TemplateValidationError),
    ("if (a or score < p0 then X else Y", TemplateSyntaxError),
    ("if a then X else Y trailing", TemplateSyntaxError),
)
MALFORMED_SCHEMA = StateSchema(("a",), ("score", "other"), ("X", "Y"))


def test_criterion_11_dsl_round_trip():
    gen = random.Random(11)
    for _ in range(500):
        ast = random_template(gen)
        printed = pretty_print(ast)
        assert parse_template(printed) == ast
    assert parse_template(pretty_print(TEMPLATE)) == TEMPLATE
    positioned = 0
    for source, expected in MALFORMED:
        with pytest.raises(expected) as err:
            parse_template(source, MALFORMED_SCHEMA)
        if getattr(err.value, "line", 0):
            positioned += 1
    assert positioned >= len(MALFORMED) - 1  # validation errors are global
    _report(11, f"DSL round trip: 500 random templates plus the shipped one "
                f"reparse identically; {len(MALFORMED)} malformed fixtures "
                f"rejected ({positioned} with positions)")


@pytest.mark.slow
def test_criterion_12_on_corpus_pipeline():
    start = time.perf_counter()
    gen_params = (0.3, 0.8, 0.5)
    corpus = make_synthetic_corpus(
        FLAT_TEMPLATE, gen_params, ONTOLOGY, 240, seed=99,
        rewards=CORPUS_REWARDS, epsilon=0.25)
    header = corpus.header
    fq = FittedQConfig(l_max=12, gamma=0.9, trees=30, n_min=6, seed=0)
    fq_clf = FittedQConfig(l_max=1, gamma=0.9, trees=60, k_features=10,
                           n_min=3, seed=0)
    fq_eval = FittedQConfig(l_max=10, gamma=0.9, trees=25, n_min=6, seed=1)
    qv = QValConfig(delta=0.1, r_punish=-100.0)
    plan = ResamplePlan(n_rounds=12, split_fraction=0.5, seed=5)
    accuracy, ga_scores, sl_scores = [], [], []
    for r, (train, test) in enumerate(resample_splits(corpus, plan)):
        q = fitted_q_iteration(train, fq)
        clf = fit_action_classifier(train, fq_clf)
        fitness = CorpusFitness(FLAT_TEMPLATE, train.S,
                                header.feature_names, "qval", q, clf, qv)
        best, _ = _run_ga_tracked(
            fitness, GaConfig(n_pop=20, n_mut=3, k=3, t_max=15, seed=r,
                              convergence_window=None))
        ga_policy = template_corpus_policy(FLAT_TEMPLATE, best.genome,
                                           header.feature_names,
                                           header.action_set)
        sl_policy = build_comparison_dms(q, clf, qv)["SL-Original"]
        ga_scores.append(evaluate_policy_on_corpus(ga_policy, test, fq_eval))
        sl_scores.append(evaluate_policy_on_corpus(sl_policy, test, fq_eval))
        truth = template_actions(FLAT_TEMPLATE, gen_params, test.S,
                                 header.feature_names, header.action_set)
        accuracy.append(float((sl_policy(test.S) == truth).mean()))
    acc_mean, acc_std = float(np.mean(accuracy)), float(np.std(accuracy))
    ga_mean, ga_std = float(np.mean(ga_scores)), float(np.std(ga_scores))
    sl_mean, sl_std = float(np.mean(sl_scores)), float(np.std(sl_scores))
    assert acc_mean >= 0.95, f"imitation accuracy {acc_mean:.3f}"
    assert ga_mean >= sl_mean, \
        f"GA-QVal {ga_mean:.2f} did not reach SL-Original {sl_mean:.2f}"
    _report(12, f"on-corpus pipeline over 12 rounds: SL-Original accuracy "
                f"{acc_mean:.3f} ({acc_std:.3f}); GA-QVal {ga_mean:.2f} "
                f"({ga_std:.2f}) >= SL-Original {sl_mean:.2f} ({sl_std:.2f}); "
                f"{(time.perf_counter() - start) / 60:.1f} min")
