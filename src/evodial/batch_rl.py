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

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import variable_columns_from_features
from .corpus_io import Corpus
from .dsl import StructuralParamForbidden, TemplateAst, evaluate_policy_batch
from .trees import ExtraTreesClassifier, ExtraTreesRegressor

# A corpus policy maps a matrix of state features to action indices.
BatchPolicy = Callable[[np.ndarray], np.ndarray]

# (state, action) rows per predict pass of QModel.q_matrix: larger blocks
# save little time but raise the process's peak memory.
_Q_BLOCK_ROWS = 4096


class MalformedEpisode(Exception):
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
        if not np.isfinite(self.r_punish):
            raise ValueError("r_punish must be finite")


def _one_hot(indices: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(indices), n))
    out[np.arange(len(indices)), indices] = 1.0
    return out


@dataclass
class QModel:
    """Tree-ensemble action-value model over (state features, one-hot action)."""

    regressor: ExtraTreesRegressor
    action_set: tuple[str, ...]

    @property
    def n_actions(self) -> int:
        return len(self.action_set)

    def q_matrix(self, X: np.ndarray) -> np.ndarray:
        """Q-values for every action, one column per action-set entry.

        One ``predict`` pass covers the (state, action) rows of up to
        ``_Q_BLOCK_ROWS`` at a time: trees route each row by comparisons
        alone, so a row's value does not depend on the rows predicted with
        it.
        """
        X = np.asarray(X, dtype=np.float64)
        (n, width), m = X.shape, self.n_actions
        out = np.empty((n, m))
        step = max(1, _Q_BLOCK_ROWS // m)
        for start in range(0, n, step):
            block = X[start:start + step]
            stacked = np.zeros((len(block), m, width + m))
            stacked[:, :, :width] = block[:, None, :]
            stacked[:, :, width:] = np.eye(m)
            out[start:start + step] = self.regressor.predict(
                stacked.reshape(-1, width + m)).reshape(-1, m)
        return out


def _require_transitions(corpus: Corpus) -> None:
    if not len(corpus):
        raise MalformedEpisode("corpus has no transitions")


def _state_actions(corpus: Corpus) -> np.ndarray:
    """(state features, one-hot logged action) per transition."""
    _require_transitions(corpus)
    return np.hstack([corpus.S,
                      _one_hot(corpus.A, len(corpus.header.action_set))])


def fitted_q_iteration(corpus: Corpus | FqeProblem, cfg: FittedQConfig,
                       iteration_hook: Callable[
                           [int, np.ndarray, ExtraTreesRegressor], None]
                       | None = None) -> QModel:
    """Episodic fitted Q-iteration; returns the final Q-model.

    Targets start at zero.  Each outer iteration sets terminal turns to their
    immediate reward and bootstraps non-terminal turns through the running
    regressor's action maximum, then refits the ensemble from scratch.
    ``iteration_hook`` (if given) receives each iteration's number, target
    array and fitted ensemble, e.g. for convergence monitoring.  The first
    ensemble is the one ``first_fqe_ensemble`` fits on the same corpus,
    which may be given as its ``FqeProblem``.
    """
    problem = FqeProblem.of(corpus)
    corpus, r = problem.corpus, problem.r
    header, term = corpus.header, corpus.terminal
    S_next_open = corpus.S_next[~term]
    Q = np.zeros(len(corpus))
    model: QModel | None = None
    for l in range(1, cfg.l_max + 1):
        if model is None:
            q_max = np.zeros(len(S_next_open))
        else:
            q_max = model.q_matrix(S_next_open).max(axis=1)
        Q[term] = r[term]
        Q[~term] = r[~term] + cfg.gamma * q_max
        reg = problem.fit(Q, l, cfg)
        if iteration_hook is not None:
            iteration_hook(l, Q.copy(), reg)
        model = QModel(reg, header.action_set)
    return model


def fit_action_classifier(corpus: Corpus,
                          cfg: FittedQConfig) -> ExtraTreesClassifier:
    """Supervised behavior model on the observed (state, action) pairs."""
    _require_transitions(corpus)
    clf = ExtraTreesClassifier(cfg.trees, cfg.k_features, cfg.n_min,
                               seed=(cfg.seed, 0))
    return clf.fit(corpus.S, corpus.A, len(corpus.header.action_set))


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
    return CorpusFitness(ast, states, tuple(feature_names), "npoints",
                         q).evaluate(params, None)


def fitness_qval(ast: TemplateAst, params, states: np.ndarray,
                 feature_names: Sequence[str], q: QModel,
                 clf: ExtraTreesClassifier, cfg: QValConfig) -> float:
    """Sum of thresholded Q-values for the template's action choices.

    Actions whose behavior probability does not exceed ``delta`` (including
    actions outside the corpus action set) contribute ``r_punish`` instead of
    their Q-value.
    """
    return CorpusFitness(ast, states, tuple(feature_names), "qval", q, clf,
                         cfg).evaluate(params, None)


@dataclass
class CorpusFitness:
    """GA fitness over a fixed corpus with precomputed model predictions.

    A genome's value depends on the genome alone, so each instance computes
    it once per distinct genome; the GA revisits genomes often (about a
    third of its calls at the benchmark's sizes).
    """

    ast: TemplateAst
    states: np.ndarray
    feature_names: tuple[str, ...]
    mode: str  # 'npoints' | 'qval'
    q: QModel
    clf: ExtraTreesClassifier | None = None
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
        self._greedy = q_mat.argmax(axis=1)  # ties go to the lowest index
        if self.mode == "qval":
            self._q_mat = q_mat
            self._p_mat = self.clf.predict_proba(self.states)
        self._values: dict[tuple, float] = {}  # (shape, bytes) -> value

    @property
    def n_params(self) -> int:
        return self.ast.param_count

    def as_npoints(self) -> "CorpusFitness":
        """The NPoints fitness on the same states and Q-model, which reads
        this fitness's predictions instead of computing them again."""
        twin = copy.copy(self)
        twin.mode = "npoints"
        twin._values = {}
        return twin

    def evaluate(self, genome: np.ndarray, rng) -> float:
        """The genome's fitness; ``rng`` is not read."""
        vec = np.asarray(genome, dtype=np.float64)
        key = (vec.shape, vec.tobytes())
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._value(vec)
        return value

    def _value(self, genome: np.ndarray) -> float:
        acts = evaluate_policy_batch(self.ast, genome, self._cols, self._index)
        if self.mode == "npoints":
            return float(np.sum(acts == self._greedy))
        rows = np.arange(len(acts))
        safe = np.where(acts >= 0, acts, 0)
        known = acts >= 0
        vals = np.where(known & (self._p_mat[rows, safe] > self.qcfg.delta),
                        self._q_mat[rows, safe], self.qcfg.r_punish)
        return float(vals.sum())


def policy_next_actions(policy: BatchPolicy, corpus: Corpus) -> np.ndarray:
    """The evaluated policy's action index at every open successor state."""
    pi_next = np.asarray(policy(corpus.S_next[~corpus.terminal]),
                         dtype=np.int64)
    if len(pi_next) and (pi_next.min() < 0 or
                         pi_next.max() >= len(corpus.header.action_set)):
        raise MalformedEpisode("evaluated policy chose an action outside the "
                               "corpus action set")
    return pi_next


@dataclass(frozen=True, eq=False)
class FqeProblem:
    """The regression inputs that fitted-Q and off-policy evaluation read
    of one corpus, built once: the logged state-actions and the rewards.
    Every fit on the corpus, and every policy evaluated on it, shares them.
    """

    corpus: Corpus
    X_sa: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, data: "Corpus | FqeProblem") -> "FqeProblem":
        if isinstance(data, FqeProblem):
            return data
        return cls(data, _state_actions(data), data.rewards())

    def targets(self, q_pi: np.ndarray, gamma: float) -> np.ndarray:
        """``r + gamma * q_pi`` with the successor values ``q_pi`` at the
        open (non-terminal) rows."""
        Q = self.r.copy()
        Q[~self.corpus.terminal] += gamma * q_pi
        return Q

    def fit(self, Q: np.ndarray, l: int,
            cfg: FittedQConfig) -> ExtraTreesRegressor:
        """Iteration ``l``'s ensemble on the logged state-actions."""
        return ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min,
                                   seed=(cfg.seed, l)).fit(self.X_sa, Q)


def first_fqe_ensemble(corpus: Corpus | FqeProblem,
                       cfg: FittedQConfig) -> ExtraTreesRegressor:
    """The first ensemble of ``fitted_q_evaluation`` on ``corpus``.

    It regresses the immediate rewards (targets ``r + gamma * 0``) on the
    logged state-actions with seed ``(cfg.seed, 1)``, so no evaluated
    policy changes it; ``fitted_q_iteration`` fits the same ensemble first.
    """
    problem = FqeProblem.of(corpus)
    n_open = int((~problem.corpus.terminal).sum())
    return problem.fit(problem.targets(np.zeros(n_open), cfg.gamma), 1, cfg)


def fitted_q_evaluation(corpus: Corpus | FqeProblem,
                        pi_nexts: Sequence[np.ndarray], cfg: FittedQConfig,
                        first: ExtraTreesRegressor | None = None
                        ) -> list[float]:
    """Off-policy value estimates of several policies on one corpus.

    Runs the fitted-Q iteration scheme with the action maximum replaced by
    each evaluated policy's own choice at the successor states (one array of
    ``pi_nexts`` per policy, see ``policy_next_actions``) and returns, per
    policy, the mean of the first-turn targets after ``cfg.l_max``
    iterations.  ``corpus`` may be given as its ``FqeProblem``, which
    callers evaluating many policies build once.

    Iteration ``l`` computes targets from the ensemble fitted at ``l - 1``
    (seed ``(cfg.seed, l - 1)``) and fits only while a later iteration
    reads the result.  The first ensemble regresses the immediate rewards,
    which no policy changes, so it is fitted once and shared: ``P`` policies
    cost ``1 + P * (l_max - 2)`` ensemble fits for ``l_max >= 2`` and none
    for ``l_max == 1``, with the same values as fitting each policy alone.
    A given ``first`` ensemble (``first_fqe_ensemble(corpus, cfg)``, or
    ``fitted_q_iteration``'s equal first one) replaces that fit, leaving
    ``P * (l_max - 2)``.
    """
    problem = FqeProblem.of(corpus)
    corpus = problem.corpus
    S_next_open = corpus.S_next[~corpus.terminal]
    Q_first = problem.targets(np.zeros(len(S_next_open)), cfg.gamma)
    if cfg.l_max == 1:
        return [float(Q_first[corpus.starts].mean())] * len(pi_nexts)
    reg_first = problem.fit(Q_first, 1, cfg) if first is None else first
    values = []
    for pi_next in pi_nexts:
        X_next_pi = np.hstack([S_next_open, _one_hot(
            pi_next, len(corpus.header.action_set))])
        reg = reg_first
        for l in range(2, cfg.l_max + 1):
            Q = problem.targets(reg.predict(X_next_pi), cfg.gamma)
            if l < cfg.l_max:
                reg = problem.fit(Q, l, cfg)
        values.append(float(Q[corpus.starts].mean()))
    return values


def evaluate_policy_on_corpus(policy: BatchPolicy, corpus: Corpus,
                              cfg: FittedQConfig) -> float:
    """Off-policy value estimate of ``policy`` on a corpus (see
    ``fitted_q_evaluation``)."""
    return fitted_q_evaluation(
        corpus, [policy_next_actions(policy, corpus)], cfg)[0]


def template_corpus_policy(ast: TemplateAst, params,
                           feature_names: Sequence[str],
                           action_set: Sequence[str]) -> BatchPolicy:
    """Adapt a bound template into a batch corpus policy."""
    _forbid_structural(ast)
    params = np.asarray(params, dtype=np.float64)

    def policy(X: np.ndarray) -> np.ndarray:
        return template_actions(ast, params, X, feature_names, action_set)

    return policy


def reference_actions(q_mat: np.ndarray, p_mat: np.ndarray,
                      delta: float) -> dict[str, np.ndarray]:
    """The three reference policies' action indices on a set of states,
    from the states' Q-matrix and behavior-probability matrix.

    SL-Original imitates the behavior classifier, SL-MaxQ acts greedily on
    the Q-model, and ThresholdedQ maximizes Q over the actions the classifier
    deems likelier than ``delta`` (falling back to SL-Original when that set
    is empty).  Ties resolve to the lowest action index.
    """
    sl_original = p_mat.argmax(axis=1)
    allowed = p_mat > delta
    thresholded = np.where(allowed, q_mat, -np.inf).argmax(axis=1)
    fallback = ~allowed.any(axis=1)
    thresholded[fallback] = sl_original[fallback]
    return {"SL-Original": sl_original, "SL-MaxQ": q_mat.argmax(axis=1),
            "ThresholdedQ": thresholded}


def reference_next_actions(q: QModel, clf: ExtraTreesClassifier,
                           cfg: QValConfig,
                           corpus: Corpus) -> dict[str, np.ndarray]:
    """Each reference policy's action index at every open successor state
    (as ``policy_next_actions`` of ``build_comparison_dms``'s policies),
    from one Q-matrix and one probability matrix."""
    S_next_open = corpus.S_next[~corpus.terminal]
    return reference_actions(q.q_matrix(S_next_open),
                             clf.predict_proba(S_next_open), cfg.delta)


def build_comparison_dms(q: QModel, clf: ExtraTreesClassifier,
                         cfg: QValConfig) -> dict[str, BatchPolicy]:
    """The three reference corpus policies (see ``reference_actions``)."""

    def policy(name: str) -> BatchPolicy:
        def act(X: np.ndarray) -> np.ndarray:
            return reference_actions(q.q_matrix(X), clf.predict_proba(X),
                                     cfg.delta)[name]
        return act

    return {name: policy(name)
            for name in ("SL-Original", "SL-MaxQ", "ThresholdedQ")}
