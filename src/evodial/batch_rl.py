"""Batch reinforcement learning on serialized dialog corpora.

Episodic fitted Q-iteration with an extremely-randomized-trees regressor
produces a Q-model whose greedy policy defines the corpus-side fitness
signals: NPoints counts the states where a candidate template agrees with the
greedy policy, QVal sums the candidate's Q-values with a probability-
thresholded punishment for actions the behavior classifier considers
unlikely.  The same iteration scheme, with maximization replaced by the
evaluated policy's action choice, yields an off-policy estimate of any
policy's starting-turn value.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (FEATURE_SCHEMA_VERSION, RewardConfig, Transition,
                   transition_reward, variable_columns_from_features)
from .dsl import StructuralParamForbidden, TemplateAst, evaluate_policy_batch
from .trees import ExtraTreesClassifier, ExtraTreesRegressor

MODEL_FORMAT_VERSION = 1

# A corpus policy maps a matrix of state features to action indices.
BatchPolicy = Callable[[np.ndarray], np.ndarray]


class MalformedEpisode(Exception):
    pass


class ModelSchemaError(Exception):
    pass


@dataclass(frozen=True)
class FittedQConfig:
    l_max: int = 30
    gamma: float = 0.9
    trees: int = 100
    k_features: int | None = None
    n_min: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        if self.trees < 1:
            raise ValueError("trees must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class QValConfig:
    delta: float = 0.1
    r_punish: float = -100.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


def _one_hot(indices: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(indices), n))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def _save_model(path: str, kind: str, payload, feature_names, action_set,
                schema_version: str) -> None:
    with open(path, "wb") as fp:
        pickle.dump({"format": MODEL_FORMAT_VERSION, "kind": kind,
                     "schema_version": schema_version,
                     "feature_names": tuple(feature_names),
                     "action_set": tuple(action_set),
                     "payload": payload}, fp)


def _load_model(path: str, kind: str, expect_feature_names=None):
    with open(path, "rb") as fp:
        blob = pickle.load(fp)
    if blob.get("format") != MODEL_FORMAT_VERSION or blob.get("kind") != kind:
        raise ModelSchemaError(
            f"{path} is not a version-{MODEL_FORMAT_VERSION} {kind} file")
    if expect_feature_names is not None and \
            tuple(expect_feature_names) != blob["feature_names"]:
        raise ModelSchemaError(f"{path} was trained on a different feature schema")
    return blob


@dataclass
class QModel:
    """Tree-ensemble action-value model over (state features, one-hot action)."""

    regressor: ExtraTreesRegressor
    action_set: tuple[str, ...]
    feature_names: tuple[str, ...]
    schema_version: str

    @property
    def n_actions(self) -> int:
        return len(self.action_set)

    def q_matrix(self, X: np.ndarray) -> np.ndarray:
        """Q-values for every action, one column per action-set entry."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        cols = []
        for a in range(self.n_actions):
            onehot = np.zeros((n, self.n_actions))
            onehot[:, a] = 1.0
            cols.append(self.regressor.predict(np.hstack([X, onehot])))
        return np.stack(cols, axis=1)

    def q_values(self, X: np.ndarray, actions: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.regressor.predict(
            np.hstack([X, _one_hot(np.asarray(actions), self.n_actions)]))

    def greedy(self, X: np.ndarray) -> np.ndarray:
        """Greedy action indices; ties resolve to the lowest action index."""
        return self.q_matrix(X).argmax(axis=1)

    def save(self, path: str) -> None:
        _save_model(path, "qmodel", self.regressor, self.feature_names,
                    self.action_set, self.schema_version)

    @classmethod
    def load(cls, path: str, expect_feature_names=None) -> "QModel":
        blob = _load_model(path, "qmodel", expect_feature_names)
        return cls(blob["payload"], blob["action_set"], blob["feature_names"],
                   blob["schema_version"])


@dataclass
class ActionClassifier:
    """Behavior classifier P(a | s) fit on the observed corpus actions."""

    classifier: ExtraTreesClassifier
    action_set: tuple[str, ...]
    feature_names: tuple[str, ...]
    schema_version: str

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.classifier.predict_proba(np.asarray(X, dtype=np.float64))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classifier.predict(np.asarray(X, dtype=np.float64))

    def save(self, path: str) -> None:
        _save_model(path, "classifier", self.classifier, self.feature_names,
                    self.action_set, self.schema_version)

    @classmethod
    def load(cls, path: str, expect_feature_names=None) -> "ActionClassifier":
        blob = _load_model(path, "classifier", expect_feature_names)
        return cls(blob["payload"], blob["action_set"], blob["feature_names"],
                   blob["schema_version"])


def group_dialogs(transitions: Sequence[Transition]) -> list[list[Transition]]:
    """Group transitions into dialogs, validating turn order and terminals."""
    dialogs: list[list[Transition]] = []
    current: list[Transition] = []
    for t in transitions:
        if current and t.dialog_id != current[0].dialog_id:
            dialogs.append(current)
            current = []
        if current and t.turn != current[-1].turn + 1:
            raise MalformedEpisode(
                f"dialog {t.dialog_id}: turn {t.turn} follows {current[-1].turn}")
        current.append(t)
    if current:
        dialogs.append(current)
    for d in dialogs:
        terminals = [t for t in d if t.terminal]
        if len(terminals) != 1 or not d[-1].terminal:
            raise MalformedEpisode(
                f"dialog {d[0].dialog_id} needs exactly one terminal transition, "
                f"at the end")
    return dialogs


def _states(transitions: Sequence[Transition]) -> np.ndarray:
    if not transitions:
        raise MalformedEpisode("corpus has no transitions")
    return np.stack([t.s for t in transitions])


def _corpus_arrays(transitions, feature_names, action_set, rewards):
    S = _states(transitions)
    S_next = np.stack([t.s_next for t in transitions])
    index = {a: i for i, a in enumerate(action_set)}
    try:
        A = np.array([index[t.a] for t in transitions], dtype=np.int64)
    except KeyError as exc:
        raise MalformedEpisode(f"action {exc.args[0]!r} not in the action set") from None
    term = np.array([t.terminal for t in transitions], dtype=bool)
    r = np.array([transition_reward(t, feature_names, rewards) for t in transitions])
    return S, A, S_next, term, r


def fit_extratrees_regressor(samples: Sequence[tuple[np.ndarray, float]],
                             cfg: FittedQConfig) -> ExtraTreesRegressor:
    """Fit the Q-regressor ensemble on (feature vector, target) pairs."""
    X = np.stack([s for s, _ in samples]) if samples else np.zeros((0, 0))
    y = np.array([t for _, t in samples])
    model = ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min, seed=cfg.seed)
    return model.fit(X, y)


def fitted_q_iteration(transitions: Sequence[Transition],
                       feature_names: Sequence[str],
                       action_set: Sequence[str],
                       rewards: RewardConfig,
                       cfg: FittedQConfig,
                       iteration_hook: Callable[[int, np.ndarray], None] | None
                       = None) -> QModel:
    """Episodic fitted Q-iteration; returns the final Q-model.

    Targets start at zero.  Each outer iteration sets terminal turns to their
    immediate reward and bootstraps non-terminal turns through the running
    regressor's action maximum, then refits the ensemble from scratch.
    ``iteration_hook`` (if given) receives each iteration's target array,
    e.g. for convergence monitoring.
    """
    group_dialogs(transitions)
    action_set = tuple(action_set)
    S, A, S_next, term, r = _corpus_arrays(transitions, feature_names,
                                           action_set, rewards)
    n = len(transitions)
    X_sa = np.hstack([S, _one_hot(A, len(action_set))])
    S_next_open = S_next[~term]
    Q = np.zeros(n)
    model: QModel | None = None
    for l in range(1, cfg.l_max + 1):
        if model is None:
            q_max = np.zeros(len(S_next_open))
        else:
            q_max = model.q_matrix(S_next_open).max(axis=1)
        Q[term] = r[term]
        Q[~term] = r[~term] + cfg.gamma * q_max
        if iteration_hook is not None:
            iteration_hook(l, Q.copy())
        reg = ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min,
                                  seed=(cfg.seed, l)).fit(X_sa, Q)
        model = QModel(reg, action_set, tuple(feature_names), FEATURE_SCHEMA_VERSION)
    return model


def fit_action_classifier(transitions: Sequence[Transition],
                          feature_names: Sequence[str],
                          action_set: Sequence[str],
                          cfg: FittedQConfig) -> ActionClassifier:
    """Supervised behavior model on the observed (state, action) pairs."""
    action_set = tuple(action_set)
    index = {a: i for i, a in enumerate(action_set)}
    X = _states(transitions)
    y = np.array([index[t.a] for t in transitions], dtype=np.int64)
    clf = ExtraTreesClassifier(cfg.trees, cfg.k_features, cfg.n_min,
                               seed=(cfg.seed, 0)).fit(X, y, len(action_set))
    return ActionClassifier(clf, action_set, tuple(feature_names),
                            FEATURE_SCHEMA_VERSION)


def _forbid_structural(ast: TemplateAst) -> None:
    if ast.has_structural_params:
        raise StructuralParamForbidden(
            "corpus-mode fitness cannot evaluate templates whose actions take "
            "structural parameters")


def template_actions(ast: TemplateAst, params, states: np.ndarray,
                     feature_names: Sequence[str],
                     action_set: Sequence[str]) -> np.ndarray:
    """Action indices a bound template picks on serialized corpus states."""
    cols = variable_columns_from_features(np.asarray(states), feature_names)
    index = {a: i for i, a in enumerate(action_set)}
    return evaluate_policy_batch(ast, params, cols, index)


def fitness_npoints(ast: TemplateAst, params, states: np.ndarray,
                    feature_names: Sequence[str], q: QModel) -> float:
    """Number of corpus states where the template matches the greedy policy."""
    _forbid_structural(ast)
    acts = template_actions(ast, params, states, feature_names, q.action_set)
    return float(np.sum(acts == q.greedy(np.asarray(states))))


def fitness_qval(ast: TemplateAst, params, states: np.ndarray,
                 feature_names: Sequence[str], q: QModel,
                 clf: ActionClassifier, cfg: QValConfig) -> float:
    """Sum of thresholded Q-values for the template's action choices.

    Actions whose behavior probability does not exceed ``delta`` (including
    actions outside the corpus action set) contribute ``r_punish`` instead of
    their Q-value.
    """
    _forbid_structural(ast)
    states = np.asarray(states)
    acts = template_actions(ast, params, states, feature_names, q.action_set)
    q_mat = q.q_matrix(states)
    p_mat = clf.predict_proba(states)
    rows = np.arange(len(states))
    safe = np.where(acts >= 0, acts, 0)
    known = acts >= 0
    vals = np.where(known & (p_mat[rows, safe] > cfg.delta),
                    q_mat[rows, safe], cfg.r_punish)
    return float(vals.sum())


@dataclass
class CorpusFitness:
    """GA fitness over a fixed corpus with precomputed model predictions."""

    ast: TemplateAst
    states: np.ndarray
    feature_names: tuple[str, ...]
    mode: str  # 'npoints' | 'qval'
    q: QModel
    clf: ActionClassifier | None = None
    qcfg: QValConfig = field(default_factory=QValConfig)

    def __post_init__(self):
        _forbid_structural(self.ast)
        if self.mode not in ("npoints", "qval"):
            raise ValueError(f"unknown corpus fitness mode {self.mode!r}")
        if self.mode == "qval" and self.clf is None:
            raise ValueError("qval fitness needs the behavior classifier")
        self.states = np.asarray(self.states, dtype=np.float64)
        self._cols = variable_columns_from_features(self.states, self.feature_names)
        self._index = {a: i for i, a in enumerate(self.q.action_set)}
        q_mat = self.q.q_matrix(self.states)
        self._greedy = q_mat.argmax(axis=1)  # as QModel.greedy
        if self.mode == "qval":
            self._q_mat = q_mat
            self._p_mat = self.clf.predict_proba(self.states)

    @property
    def n_params(self) -> int:
        return self.ast.param_count

    def evaluate(self, genome: np.ndarray, rng) -> float:
        acts = evaluate_policy_batch(self.ast, genome, self._cols, self._index)
        if self.mode == "npoints":
            return float(np.sum(acts == self._greedy))
        rows = np.arange(len(acts))
        safe = np.where(acts >= 0, acts, 0)
        known = acts >= 0
        vals = np.where(known & (self._p_mat[rows, safe] > self.qcfg.delta),
                        self._q_mat[rows, safe], self.qcfg.r_punish)
        return float(vals.sum())


@dataclass(frozen=True)
class FqeData:
    """One corpus's arrays for off-policy evaluation, built once per corpus.

    ``X_sa`` holds (state features, one-hot logged action) per transition,
    ``S_next_open`` the successor states of the non-terminal transitions and
    ``starts`` the row of every dialog's first turn.
    """

    X_sa: np.ndarray
    S_next_open: np.ndarray
    term: np.ndarray
    r: np.ndarray
    starts: np.ndarray
    n_actions: int


def fqe_data(transitions: Sequence[Transition], feature_names: Sequence[str],
             action_set: Sequence[str], rewards: RewardConfig) -> FqeData:
    """Validate a corpus and build its off-policy evaluation arrays."""
    dialogs = group_dialogs(transitions)
    S, A, S_next, term, r = _corpus_arrays(transitions, feature_names,
                                           tuple(action_set), rewards)
    starts = np.cumsum([0] + [len(d) for d in dialogs[:-1]], dtype=np.int64)
    return FqeData(np.hstack([S, _one_hot(A, len(action_set))]),
                   S_next[~term], term, r, starts, len(action_set))


def policy_next_actions(policy: BatchPolicy, data: FqeData) -> np.ndarray:
    """The evaluated policy's action index at every open successor state."""
    pi_next = np.asarray(policy(data.S_next_open), dtype=np.int64)
    if len(pi_next) and (pi_next.min() < 0 or pi_next.max() >= data.n_actions):
        raise MalformedEpisode("evaluated policy chose an action outside the "
                               "corpus action set")
    return pi_next


def fitted_q_evaluation(data: FqeData, pi_nexts: Sequence[np.ndarray],
                        cfg: FittedQConfig) -> list[float]:
    """Off-policy value estimates of several policies on one corpus.

    Runs the fitted-Q iteration scheme with the action maximum replaced by
    each evaluated policy's own choice at the successor states (one array of
    ``pi_nexts`` per policy, see ``policy_next_actions``) and returns, per
    policy, the mean of the first-turn targets after ``cfg.l_max``
    iterations.

    Iteration ``l`` computes targets from the ensemble fitted at ``l - 1``
    (seed ``(cfg.seed, l - 1)``) and fits only while a later iteration
    reads the result.  The first ensemble regresses the immediate rewards,
    which no policy changes, so it is fitted once and shared: ``P`` policies
    cost ``1 + P * (l_max - 2)`` ensemble fits for ``l_max >= 2`` and none
    for ``l_max == 1``, with the same values as fitting each policy alone.
    """
    r = data.r
    open_rows = ~data.term

    def targets(q_pi: np.ndarray) -> np.ndarray:
        Q = r.copy()
        Q[open_rows] += cfg.gamma * q_pi
        return Q

    def fit(Q: np.ndarray, l: int) -> ExtraTreesRegressor:
        return ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min,
                                   seed=(cfg.seed, l)).fit(data.X_sa, Q)

    Q_first = targets(np.zeros(len(data.S_next_open)))
    if cfg.l_max == 1:
        return [float(Q_first[data.starts].mean())] * len(pi_nexts)
    reg_first = fit(Q_first, 1)
    values = []
    for pi_next in pi_nexts:
        X_next_pi = np.hstack([data.S_next_open,
                               _one_hot(pi_next, data.n_actions)])
        reg = reg_first
        for l in range(2, cfg.l_max + 1):
            Q = targets(reg.predict(X_next_pi))
            if l < cfg.l_max:
                reg = fit(Q, l)
        values.append(float(Q[data.starts].mean()))
    return values


def evaluate_policy_on_corpus(policy: BatchPolicy,
                              transitions: Sequence[Transition],
                              feature_names: Sequence[str],
                              action_set: Sequence[str],
                              rewards: RewardConfig,
                              cfg: FittedQConfig) -> float:
    """Off-policy value estimate of ``policy`` on a corpus (see
    ``fitted_q_evaluation``)."""
    data = fqe_data(transitions, feature_names, action_set, rewards)
    return fitted_q_evaluation(data, [policy_next_actions(policy, data)],
                               cfg)[0]


def template_corpus_policy(ast: TemplateAst, params,
                           feature_names: Sequence[str],
                           action_set: Sequence[str]) -> BatchPolicy:
    """Adapt a bound template into a batch corpus policy."""
    _forbid_structural(ast)
    params = np.asarray(params, dtype=np.float64)

    def policy(X: np.ndarray) -> np.ndarray:
        return template_actions(ast, params, X, feature_names, action_set)

    return policy


def build_comparison_dms(q: QModel, clf: ActionClassifier,
                         cfg: QValConfig) -> dict[str, BatchPolicy]:
    """The three reference corpus policies.

    SL-Original imitates the behavior classifier, SL-MaxQ acts greedily on
    the Q-model, and ThresholdedQ maximizes Q over the actions the classifier
    deems likelier than ``delta`` (falling back to SL-Original when that set
    is empty).
    """

    def sl_original(X: np.ndarray) -> np.ndarray:
        return clf.predict(X)

    def sl_maxq(X: np.ndarray) -> np.ndarray:
        return q.greedy(X)

    def thresholded(X: np.ndarray) -> np.ndarray:
        p = clf.predict_proba(X)
        allowed = p > cfg.delta
        masked = np.where(allowed, q.q_matrix(X), -np.inf)
        pick = masked.argmax(axis=1)
        fallback = ~allowed.any(axis=1)
        if fallback.any():
            pick[fallback] = p[fallback].argmax(axis=1)
        return pick

    return {"SL-Original": sl_original, "SL-MaxQ": sl_maxq,
            "ThresholdedQ": thresholded}
