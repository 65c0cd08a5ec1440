import numpy as np
import pytest

from evodial import batch_rl
from evodial.batch_rl import (CorpusFitness, FittedQConfig, FqeProblem,
                              MalformedEpisode, QModel, QValConfig,
                              evaluate_policy_on_corpus, fit_action_classifier,
                              first_fqe_ensemble, fitted_q_evaluation,
                              fitted_q_iteration, policy_next_actions,
                              reference_next_actions, template_actions,
                              template_corpus_policy)
from evodial.core import RewardConfig
from evodial.corpus_io import (Corpus, CorpusHeader, CorpusParseError,
                               MissingTerminal, SchemaMismatch)
from evodial.dsl import (ArityMismatch, StateSchema,
                         StructuralParamForbidden, evaluate_policy,
                         parse_template)
from evodial.trees import ExtraTreesRegressor
from support import (CHAIN_ACTIONS, CHAIN_FEATURES, CHAIN_HEADER,
                     CHAIN_REWARDS, CHAIN_STATE_VECS, EP_DIRECT, EP_STALL0,
                     EP_STALL1, build_comparison_dms, chain_corpus,
                     chain_rows, chain_value_iteration, corpus_from_rows,
                     fitness_npoints, fitness_qval, greedy, q_values,
                     variables_from_features)

FQ_FAST = FittedQConfig(l_max=25, gamma=0.9, trees=30, k_features=5, n_min=2,
                        seed=0)

# synthetic feature schema for direct fitness tests
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


def _syn_states(rng, n):
    X = rng.random((n, len(SYN_FEATURES)))
    X[:, SYN_FEATURES.index("filled_count")] = rng.integers(0, 3, n)
    for flag in ("dialog_begin", "slu_empty", "slot_denied",
                 "require_more_pending", "offer_correct", "offer_duplicate",
                 "offer_wrong"):
        X[:, SYN_FEATURES.index(flag)] = rng.integers(0, 2, n)
    return X


def _syn_template(body):
    return parse_template(body, SYN_SCHEMA)


@pytest.fixture(scope="module")
def chain_q():
    corpus = chain_corpus(200)
    return fitted_q_iteration(corpus, FQ_FAST)


def test_fitted_q_matches_value_iteration(chain_q):
    exact = chain_value_iteration()
    for s_name, vec in CHAIN_STATE_VECS.items():
        q_hat = chain_q.q_matrix(vec.reshape(1, -1))[0]
        for a_idx, a_name in enumerate(CHAIN_ACTIONS):
            truth = exact[(s_name, a_name)]
            assert q_hat[a_idx] == pytest.approx(truth, rel=0.05), \
                f"Q({s_name},{a_name})"


@pytest.mark.parametrize("n_rows", [0, 1, 37, 2100])
def test_q_matrix_equals_per_action_predictions(chain_q, n_rows):
    # 2100 states of two actions take two predict passes
    X = np.random.default_rng(n_rows).integers(
        0, 2, (n_rows, len(CHAIN_FEATURES))).astype(np.float64)
    n_act = chain_q.n_actions
    columns = [chain_q.regressor.predict(np.hstack([
        X, np.tile(np.eye(n_act)[a], (n_rows, 1))])) for a in range(n_act)]
    q = chain_q.q_matrix(X)
    assert q.shape == (n_rows, n_act)
    assert np.array_equal(q, np.stack(columns, axis=1))


def test_greedy_ties_break_to_lowest_index():
    class Constant:
        def predict(self, X):
            return np.zeros(len(X))

    q = QModel(Constant(), ("x", "y"))
    q.regressor = Constant()
    acts = greedy(q, np.zeros((5, 1)))
    assert np.array_equal(acts, np.zeros(5))


def test_gamma_zero_equals_immediate_reward_regression():
    corpus = chain_corpus(60)
    cfg = FittedQConfig(l_max=7, gamma=0.0, trees=10, k_features=5, n_min=2,
                        seed=3)
    q = fitted_q_iteration(corpus, cfg)
    # an immediate-reward regressor fit with the final iteration's seed
    X = np.hstack([corpus.S, np.array([[1.0, 0.0] if a == 0 else [0.0, 1.0]
                                       for a in corpus.A])])
    r = corpus.rewards()
    direct = ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min,
                                 seed=(cfg.seed, cfg.l_max)).fit(X, r)
    grid = np.vstack([np.hstack([CHAIN_STATE_VECS["s0"], [1, 0]]),
                      np.hstack([CHAIN_STATE_VECS["s1"], [0, 1]])])
    assert np.array_equal(q.regressor.predict(grid), direct.predict(grid))


def test_single_turn_dialogs_regress_immediate_rewards():
    moves = corpus_from_rows([(i, 0, CHAIN_STATE_VECS["s1"], "advance",
                               np.array([0.0, 0.0, 1.0, 0.0, 0.0]), True)
                              for i in range(40)])
    q = fitted_q_iteration(moves, FQ_FAST)
    pred = q_values(q, CHAIN_STATE_VECS["s1"].reshape(1, -1),
                    np.array([0]))
    assert pred[0] == pytest.approx(10.0, abs=1e-9)


def test_malformed_episodes_rejected():
    (t0, t1), (u0, u1) = chain_rows(0, EP_DIRECT), chain_rows(1, EP_DIRECT)
    with pytest.raises(MissingTerminal, match="without a terminal"):
        corpus_from_rows([t0])
    with pytest.raises(MissingTerminal, match="dialog 0: dialog ended"):
        corpus_from_rows([t0, u0, u1])
    with pytest.raises(MissingTerminal, match="follows the terminal"):
        corpus_from_rows([t0[:5] + (True,), t1])
    with pytest.raises(CorpusParseError, match="turn 5 follows 0") as err:
        corpus_from_rows([t0, (0, 5) + t1[2:]])
    assert err.value.line == 3  # the row's line in a saved file
    with pytest.raises(CorpusParseError, match="not contiguous"):
        corpus_from_rows([t0, t1, u0, u1, (0, 0) + u0[2:4] + t1[4:]])
    # empty feature rows of the wrong width, and action indices
    with pytest.raises(SchemaMismatch):
        Corpus(CHAIN_HEADER, np.zeros((0, 3)), [], np.zeros((0, 5)), [], [],
               [])
    with pytest.raises(SchemaMismatch):
        Corpus(CHAIN_HEADER, np.zeros((1, 5)), [2], np.zeros((1, 5)), [True],
               [0], [0])
    with pytest.raises(CorpusParseError, match="non-finite"):
        corpus_from_rows([t0[:4] + (np.full(5, np.inf), True)])


def _fitted_models(rng, states):
    targets = states[:, 0] * 2.0 + (states[:, 5] > 0.5)
    actions = rng.integers(0, 3, len(states))
    X_sa = np.hstack([states, np.eye(3)[actions]])
    reg = ExtraTreesRegressor(25, None, 4, seed=1).fit(X_sa, targets)
    q = QModel(reg, SYN_SCHEMA.actions)
    from evodial.trees import ExtraTreesClassifier
    clf = ExtraTreesClassifier(25, None, 4, seed=2).fit(states, actions, 3)
    return q, clf


def test_fitness_npoints_matches_brute_force():
    rng = np.random.default_rng(10)
    states = _syn_states(rng, 200)
    q, _ = _fitted_models(rng, states)
    ast = _syn_template(
        "if min_slot_score < p0 then A1 else if slu_empty then A2 else A0")
    params = [0.45]
    value = fitness_npoints(ast, params, states, SYN_FEATURES, q)
    brute = 0
    for i in range(len(states)):
        variables = variables_from_features(states[i], SYN_FEATURES)
        chosen = evaluate_policy(ast, params, variables).act
        greedy_idx = int(np.argmax([
            q_values(q, states[i:i + 1], np.array([a]))[0] for a in range(3)]))
        brute += chosen == SYN_SCHEMA.actions[greedy_idx]
    assert value == brute


def test_fitness_npoints_bounds():
    rng = np.random.default_rng(11)
    states = _syn_states(rng, 80)
    q, _ = _fitted_models(rng, states)
    greedy_acts = greedy(q, states)
    all_a0 = _syn_template("A0")
    count_a0 = fitness_npoints(all_a0, [], states, SYN_FEATURES, q)
    assert count_a0 == float(np.sum(greedy_acts == 0))
    # a template that always picks an action the greedy policy never picks
    never = _syn_template("A2") if (greedy_acts != 2).all() else None
    if never is not None:
        assert fitness_npoints(never, [], states, SYN_FEATURES, q) == 0.0


def test_fitness_qval_matches_brute_force():
    rng = np.random.default_rng(12)
    states = _syn_states(rng, 200)
    q, clf = _fitted_models(rng, states)
    ast = _syn_template(
        "if top_slu_score > p0 then A0 else if slot_denied then A1 else A2")
    params = [0.6]
    cfg = QValConfig(delta=0.1, r_punish=-100.0)
    value = fitness_qval(ast, params, states, SYN_FEATURES, q, clf, cfg)
    brute = 0.0
    for i in range(len(states)):
        variables = variables_from_features(states[i], SYN_FEATURES)
        a = SYN_SCHEMA.actions.index(evaluate_policy(ast, params, variables).act)
        p = clf.predict_proba(states[i:i + 1])[0, a]
        if p > cfg.delta:
            brute += q_values(q, states[i:i + 1], np.array([a]))[0]
        else:
            brute += cfg.r_punish
    assert value == pytest.approx(brute, abs=1e-9)


class _UniformClassifier:
    """Stub with strictly positive probabilities everywhere."""

    def __init__(self, n_actions):
        self.n_actions = n_actions

    def predict_proba(self, X):
        return np.full((len(X), self.n_actions), 1.0 / self.n_actions)

    def predict(self, X):
        return np.zeros(len(X), dtype=np.int64)


def test_fitness_qval_degenerate_thresholds():
    rng = np.random.default_rng(13)
    states = _syn_states(rng, 120)
    q, clf = _fitted_models(rng, states)
    ast = _syn_template("if dialog_begin then A0 else A1")
    uniform = _UniformClassifier(3)
    # delta = 1: every action fails the threshold, each state pays the penalty
    cfg = QValConfig(delta=1.0, r_punish=-7.5)
    assert fitness_qval(ast, [], states, SYN_FEATURES, q, uniform, cfg) == \
        pytest.approx(len(states) * -7.5)
    # delta = 0 with all-positive probabilities: the plain Q-value sum
    cfg0 = QValConfig(delta=0.0, r_punish=-7.5)
    acts = template_actions(ast, [], states, SYN_FEATURES, SYN_SCHEMA.actions)
    expected = q.q_matrix(states)[np.arange(len(states)), acts].sum()
    assert fitness_qval(ast, [], states, SYN_FEATURES, q, uniform, cfg0) == \
        pytest.approx(expected, abs=1e-9)


def test_structural_params_forbidden(restaurant_ast):
    rng = np.random.default_rng(14)
    states = _syn_states(rng, 10)
    q, clf = _fitted_models(rng, states)
    with pytest.raises(StructuralParamForbidden):
        fitness_npoints(restaurant_ast, [0.1, 0.2, 0.3, 0.4], states,
                        SYN_FEATURES, q)
    with pytest.raises(StructuralParamForbidden):
        CorpusFitness(restaurant_ast, states, SYN_FEATURES, "npoints", q)


def test_corpus_fitness_matches_module_functions():
    rng = np.random.default_rng(15)
    states = _syn_states(rng, 150)
    q, clf = _fitted_models(rng, states)
    ast = _syn_template("if min_slot_score < p0 then A1 else A0")
    cfg = QValConfig(delta=0.2, r_punish=-50.0)
    genome = np.array([0.35])
    np_fit = CorpusFitness(ast, states, SYN_FEATURES, "npoints", q)
    qv_fit = CorpusFitness(ast, states, SYN_FEATURES, "qval", q, clf, cfg)
    assert np_fit.evaluate(genome, None) == \
        fitness_npoints(ast, genome, states, SYN_FEATURES, q)
    assert qv_fit.evaluate(genome, None) == pytest.approx(
        fitness_qval(ast, genome, states, SYN_FEATURES, q, clf, cfg), abs=1e-9)


def test_npoints_twin_of_a_qval_fitness_matches_a_fresh_one():
    rng = np.random.default_rng(20)
    states = _syn_states(rng, 150)
    q, clf = _fitted_models(rng, states)
    ast = _syn_template("if top_slu_score > p0 then A2 else if slu_empty "
                        "then A1 else A0")
    qval = CorpusFitness(ast, states, SYN_FEATURES, "qval", q, clf,
                         QValConfig(delta=0.3, r_punish=-20.0))
    before = [qval.evaluate(np.array([g]), None) for g in (0.2, 0.5, 0.8)]
    twin = qval.as_npoints()
    fresh = CorpusFitness(ast, states, SYN_FEATURES, "npoints", q)
    for g in (0.2, 0.5, 0.8):
        genome = np.array([g])
        assert twin.evaluate(genome, None) == fresh.evaluate(genome, None)
    assert qval.mode == "qval"
    assert [qval.evaluate(np.array([g]), None) for g in (0.2, 0.5, 0.8)] == \
        before


def test_corpus_fitness_computes_each_genome_once(monkeypatch):
    rng = np.random.default_rng(21)
    states = _syn_states(rng, 120)
    q, clf = _fitted_models(rng, states)
    ast = _syn_template("if top_slu_score > p0 then A2 else if slu_empty "
                        "then A1 else A0")
    cfg = QValConfig(delta=0.3, r_punish=-20.0)
    genomes = [np.array([g]) for g in (0.2, 0.5, 0.2, 0.8, 0.5, 0.2)]
    expected = [fitness_qval(ast, g, states, SYN_FEATURES, q, clf, cfg)
                for g in genomes]
    qval = CorpusFitness(ast, states, SYN_FEATURES, "qval", q, clf, cfg)
    calls = []
    batch = batch_rl.evaluate_policy_batch
    monkeypatch.setattr(batch_rl, "evaluate_policy_batch",
                        lambda *args: calls.append(args) or batch(*args))
    assert [qval.evaluate(g, None) for g in genomes] == expected
    assert len(calls) == 3
    twin = qval.as_npoints()  # a copy that must not read qval's values
    assert twin.evaluate(genomes[0], None) == \
        fitness_npoints(ast, genomes[0], states, SYN_FEATURES, q)
    assert len(calls) == 5
    # the same bytes in another shape are a genome of their own
    with pytest.raises(ArityMismatch):
        qval.evaluate(genomes[0].reshape(1, 1), None)


def test_eq4_zero_reward_corpus_scores_zero():
    zero_rewards = RewardConfig(per_turn=0.0, correct_offer=0.0,
                                duplicate_offer=0.0, wrong_offer=0.0, gamma=0.9)
    corpus = chain_corpus(30, rewards=zero_rewards)
    policy = lambda X: np.zeros(len(X), dtype=np.int64)
    value = evaluate_policy_on_corpus(policy, corpus, FQ_FAST)
    assert value == 0.0


def test_eq4_recovers_generating_policy_value():
    corpus = chain_corpus(200, mixed=False)  # generated by always-advance
    policy = lambda X: np.zeros(len(X), dtype=np.int64)
    value = evaluate_policy_on_corpus(policy, corpus, FQ_FAST)
    assert value == pytest.approx(9.0, rel=0.05)


def test_eq4_rejects_out_of_set_actions():
    corpus = chain_corpus(5)
    policy = lambda X: np.full(len(X), 7, dtype=np.int64)
    with pytest.raises(MalformedEpisode):
        evaluate_policy_on_corpus(policy, corpus, FQ_FAST)


def test_comparison_dms_degenerate_deltas():
    rng = np.random.default_rng(16)
    states = _syn_states(rng, 60)
    q, clf = _fitted_models(rng, states)
    uniform = _UniformClassifier(3)
    free = build_comparison_dms(q, uniform, QValConfig(delta=0.0))
    assert np.array_equal(free["ThresholdedQ"](states), free["SL-MaxQ"](states))
    closed = build_comparison_dms(q, clf, QValConfig(delta=1.0))
    assert np.array_equal(closed["ThresholdedQ"](states),
                          closed["SL-Original"](states))


@pytest.mark.parametrize("delta", [0.0, 0.3, 0.6, 1.0])
def test_reference_next_actions_follow_each_policy_rule(delta):
    rng = np.random.default_rng(19)
    states = _syn_states(rng, 120)
    q, clf = _fitted_models(rng, states)
    n = 80  # two-turn dialogs, so half of the successor states are open
    header = CorpusHeader("dlg-v1", SYN_FEATURES, SYN_SCHEMA.actions,
                          CHAIN_REWARDS)
    turn = np.arange(n) % 2
    corpus = Corpus(header, _syn_states(rng, n), rng.integers(0, 3, n),
                    _syn_states(rng, n), turn == 1, np.arange(n) // 2, turn)
    cfg = QValConfig(delta=delta)
    got = reference_next_actions(q, clf, cfg, corpus)
    policies = build_comparison_dms(q, clf, cfg)
    assert list(got) == list(policies)
    for name, policy in policies.items():
        assert np.array_equal(got[name], policy_next_actions(policy, corpus))
    S_open = corpus.S_next[~corpus.terminal]
    rows = zip(q.q_matrix(S_open).tolist(), clf.predict_proba(S_open).tolist())
    for i, (q_row, p_row) in enumerate(rows):
        allowed = [a for a in range(3) if p_row[a] > delta]
        assert got["SL-Original"][i] == p_row.index(max(p_row))
        assert got["SL-MaxQ"][i] == q_row.index(max(q_row))
        assert got["ThresholdedQ"][i] == (
            max(allowed, key=lambda a: (q_row[a], -a)) if allowed
            else p_row.index(max(p_row)))


def test_classifier_recovers_behavior_policy():
    rng = np.random.default_rng(17)
    states = _syn_states(rng, 600)
    behavior = (states[:, SYN_FEATURES.index("top_slu_score")] > 0.5).astype(int)
    header = CorpusHeader("dlg-v1", SYN_FEATURES, SYN_SCHEMA.actions,
                          CHAIN_REWARDS)
    n = len(states)
    corpus = Corpus(header, states, behavior, states, np.ones(n, dtype=bool),
                    np.arange(n), np.zeros(n))
    clf = fit_action_classifier(corpus, FittedQConfig(trees=40, n_min=4,
                                                      seed=5))
    test_states = _syn_states(np.random.default_rng(18), 300)
    truth = (test_states[:, SYN_FEATURES.index("top_slu_score")] > 0.5).astype(int)
    acc = float((clf.predict(test_states) == truth).mean())
    assert acc >= 0.95


def test_template_corpus_policy_adapter():
    rng = np.random.default_rng(19)
    states = _syn_states(rng, 40)
    ast = _syn_template("if slu_empty then A1 else A0")
    policy = template_corpus_policy(ast, [], SYN_FEATURES, SYN_SCHEMA.actions)
    expected = np.where(states[:, SYN_FEATURES.index("slu_empty")] > 0.5, 1, 0)
    assert np.array_equal(policy(states), expected)


def test_fitness_npoints_perfect_agreement_reaches_count():
    rng = np.random.default_rng(20)
    states = _syn_states(rng, 90)
    actions = rng.integers(0, 3, len(states))
    # train the regressor so action A0 dominates everywhere
    targets = (actions == 0).astype(float)
    X_sa = np.hstack([states, np.eye(3)[actions]])
    reg = ExtraTreesRegressor(20, None, 4, seed=6).fit(X_sa, targets)
    q = QModel(reg, SYN_SCHEMA.actions)
    assert np.array_equal(greedy(q, states), np.zeros(len(states)))
    always_a0 = _syn_template("A0")
    assert fitness_npoints(always_a0, [], states, SYN_FEATURES, q) == len(states)


# Off-policy evaluation.  The pinned values were recorded with the
# one-policy-per-call implementation that fitted every iteration's ensemble,
# the first one once per policy; the shared first fit must not move a bit.
FQE_PIN_REWARDS = RewardConfig(per_turn=-1.0, correct_offer=10.0,
                               duplicate_offer=0.0, wrong_offer=0.0, gamma=0.9)
FQE_PIN_POLICIES = {
    "advance": lambda X: np.zeros(len(X), dtype=np.int64),
    "stall_s1": lambda X: (X[:, 1] > 0.5).astype(np.int64),
}
FQE_PINS = {
    1: {"advance": "-0x1.0000000000000p+0", "stall_s1": "-0x1.0000000000000p+0"},
    2: {"advance": "0x1.0b33333333333p+2", "stall_s1": "-0x1.e666666666666p+0"},
    3: {"advance": "0x1.a2d4fdf3b645ap+2", "stall_s1": "-0x1.5ae147ae147aep+1"},
}


def _fqe_cfg(l_max, trees=5):
    return FittedQConfig(l_max=l_max, gamma=0.9, trees=trees, k_features=5,
                         n_min=2, seed=3)


@pytest.mark.parametrize("l_max", sorted(FQE_PINS))
def test_fqe_values_pinned_to_the_bit(l_max):
    corpus = chain_corpus(40, rewards=FQE_PIN_REWARDS)
    cfg = _fqe_cfg(l_max)
    singles = {}
    for name, policy in FQE_PIN_POLICIES.items():
        singles[name] = evaluate_policy_on_corpus(policy, corpus, cfg)
        assert singles[name].hex() == FQE_PINS[l_max][name], name
    pi_nexts = [policy_next_actions(p, corpus)
                for p in FQE_PIN_POLICIES.values()]
    assert fitted_q_evaluation(corpus, pi_nexts, cfg) == list(singles.values())


@pytest.mark.parametrize("l_max", [1, 2, 3, 5])
@pytest.mark.parametrize("n_policies", [1, 3])
def test_fqe_fit_schedule(monkeypatch, l_max, n_policies):
    fits = []
    real_fit = ExtraTreesRegressor.fit

    def counting_fit(self, X, y):
        fits.append(self.seed)
        return real_fit(self, X, y)

    monkeypatch.setattr(ExtraTreesRegressor, "fit", counting_fit)
    corpus = chain_corpus(12)
    rng = np.random.default_rng(l_max)
    pi_nexts = [rng.integers(0, 2, int((~corpus.terminal).sum()))
                for _ in range(n_policies)]
    values = fitted_q_evaluation(corpus, pi_nexts, _fqe_cfg(l_max, trees=2))
    assert len(values) == n_policies
    expected = 0 if l_max == 1 else 1 + n_policies * (l_max - 2)
    assert len(fits) == expected
    # the shared first ensemble comes first; no ensemble of the last
    # iteration is ever fitted
    assert all(seed[1] < l_max for seed in fits)
    assert fits[:1] == ([] if l_max == 1 else [(3, 1)])


def _tree_bytes(ensemble: ExtraTreesRegressor) -> list[bytes]:
    return [getattr(tree, name).tobytes() for tree in ensemble._trees
            for name in ("feature", "threshold", "left", "right", "value")]


@pytest.mark.parametrize("l_max", [1, 2, 4])
def test_fitted_q_first_ensemble_is_the_fqe_first_ensemble(l_max):
    # train-corpus reuses fitted-Q's first ensemble as the train split's
    # first FQE ensemble: both regress r + gamma * 0 with seed (seed, 1)
    corpus = chain_corpus(30, rewards=FQE_PIN_REWARDS)
    cfg = _fqe_cfg(l_max)
    seen = []
    fitted_q_iteration(corpus, cfg,
                       lambda l, Q, reg: seen.append((l, Q, reg)))
    assert [l for l, _, _ in seen] == list(range(1, l_max + 1))
    l, Q, reg = seen[0]
    assert Q.tobytes() == corpus.rewards().tobytes()
    assert reg.seed == (cfg.seed, 1)
    assert _tree_bytes(reg) == _tree_bytes(first_fqe_ensemble(corpus, cfg))


@pytest.mark.parametrize("l_max", [1, 2, 3, 5])
def test_fqe_given_first_ensemble(monkeypatch, l_max):
    corpus = chain_corpus(40, rewards=FQE_PIN_REWARDS)
    cfg = _fqe_cfg(l_max)
    pi_nexts = [policy_next_actions(p, corpus)
                for p in FQE_PIN_POLICIES.values()]
    expected = fitted_q_evaluation(corpus, pi_nexts, cfg)
    first = first_fqe_ensemble(corpus, cfg)
    fits = []
    real_fit = ExtraTreesRegressor.fit

    def counting_fit(self, X, y):
        fits.append(self.seed)
        return real_fit(self, X, y)

    monkeypatch.setattr(ExtraTreesRegressor, "fit", counting_fit)
    assert fitted_q_evaluation(corpus, pi_nexts, cfg, first) == expected
    assert len(fits) == len(pi_nexts) * max(l_max - 2, 0)
    assert (cfg.seed, 1) not in fits


def test_fqe_multi_policy_matches_single_policy_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    episodes = (EP_DIRECT, EP_STALL0, EP_STALL1)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(
        kinds=st.lists(st.sampled_from(range(len(episodes))), min_size=1,
                       max_size=8),
        per_turn=st.sampled_from([-1.0, 0.0, 0.5]),
        l_max=st.integers(1, 4),
        seed=st.integers(0, 2 ** 16),
        draw=st.data())
    def check(kinds, per_turn, l_max, seed, draw):
        rewards = RewardConfig(per_turn=per_turn, correct_offer=10.0,
                               duplicate_offer=0.0, wrong_offer=0.0, gamma=0.9)
        corpus = corpus_from_rows(
            [row for i, kind in enumerate(kinds)
             for row in chain_rows(i, episodes[kind])],
            CorpusHeader("dlg-v1", CHAIN_FEATURES, CHAIN_ACTIONS, rewards))
        n_open = int((~corpus.terminal).sum())
        pi_nexts = [np.array(draw.draw(st.lists(st.integers(0, 1),
                                                min_size=n_open,
                                                max_size=n_open)),
                             dtype=np.int64)
                    for _ in range(draw.draw(st.integers(1, 3)))]
        cfg = FittedQConfig(l_max=l_max, gamma=0.9, trees=2, k_features=3,
                            n_min=2, seed=seed)
        values = fitted_q_evaluation(corpus, pi_nexts, cfg)
        assert values == [fitted_q_evaluation(corpus, [p], cfg)[0]
                          for p in pi_nexts]
        if l_max == 1:
            first_turn = corpus.rewards()[corpus.starts]
            assert values == [float(first_turn.mean())] * len(pi_nexts)

    check()


@pytest.mark.parametrize("l_max", [1, 3])
def test_fitting_a_prebuilt_problem_equals_fitting_the_corpus(l_max):
    corpus = chain_corpus(40, rewards=FQE_PIN_REWARDS)
    cfg = _fqe_cfg(l_max)
    pi_nexts = [policy_next_actions(p, corpus)
                for p in FQE_PIN_POLICIES.values()]
    problem = FqeProblem.of(corpus)
    assert FqeProblem.of(problem) is problem
    assert fitted_q_evaluation(problem, pi_nexts, cfg) == \
        fitted_q_evaluation(corpus, pi_nexts, cfg)
    assert _tree_bytes(first_fqe_ensemble(problem, cfg)) == \
        _tree_bytes(first_fqe_ensemble(corpus, cfg))
    assert _tree_bytes(fitted_q_iteration(problem, cfg).regressor) == \
        _tree_bytes(fitted_q_iteration(corpus, cfg).regressor)


def test_empty_corpus_is_malformed():
    empty = corpus_from_rows([])
    with pytest.raises(MalformedEpisode, match="no transitions"):
        fitted_q_evaluation(empty, [], FQ_FAST)
    with pytest.raises(MalformedEpisode, match="no transitions"):
        fitted_q_iteration(empty, FQ_FAST)
    with pytest.raises(MalformedEpisode, match="no transitions"):
        fit_action_classifier(empty, FQ_FAST)
