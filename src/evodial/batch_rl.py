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
from dataclasses import dataclass, field, replace
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

    def targets(self, q_pi: np.ndarray | float, gamma: float) -> np.ndarray:
        """``r + gamma * q_pi`` with the successor values ``q_pi`` (or one
        value for all) at the open (non-terminal) rows."""
        Q = self.r.copy()
        Q[~self.corpus.terminal] += gamma * q_pi
        return Q

    def fit(self, Q: np.ndarray, l: int,
            cfg: FittedQConfig) -> ExtraTreesRegressor:
        """Iteration ``l``'s ensemble on the logged state-actions."""
        return ExtraTreesRegressor(cfg.trees, cfg.k_features, cfg.n_min,
                                   seed=(cfg.seed, l)).fit(self.X_sa, Q)


def _fitted_q(problem: FqeProblem, cfg: FittedQConfig,
              successor_values: Callable[[ExtraTreesRegressor], np.ndarray],
              first: ExtraTreesRegressor | None = None, fit_last: bool = True,
              hook: Callable | None = None
              ) -> tuple[np.ndarray, ExtraTreesRegressor | None]:
    """The fitted-Q scheme; returns the last targets and ensemble.

    Iteration ``l`` sets the targets ``r + gamma * q``, with ``q`` zero at
    ``l == 1`` (so an open row's ``-0.0`` reward becomes ``0.0``) and
    ``successor_values`` of the previous ensemble after, and fits them with
    seed ``(cfg.seed, l)``; a given ``first`` replaces the first fit, and
    the last targets are fitted only with ``fit_last``.
    ``hook`` (if given) receives each fit's ``(l, targets, ensemble)``.
    """
    reg = None
    for l in range(1, cfg.l_max + 1):
        Q = problem.targets(0.0 if reg is None else successor_values(reg),
                            cfg.gamma)
        if l < cfg.l_max or fit_last:
            reg = (first if l == 1 and first is not None
                   else problem.fit(Q, l, cfg))
            if hook is not None:
                hook(l, Q, reg)
    return Q, reg


def fitted_q_iteration(corpus: Corpus | FqeProblem, cfg: FittedQConfig,
                       iteration_hook: Callable[
                           [int, np.ndarray, ExtraTreesRegressor], None]
                       | None = None) -> QModel:
    """Episodic fitted Q-iteration; returns the final Q-model.

    The fitted-Q scheme with an open turn's successor value the running
    Q-model's action maximum.  ``iteration_hook`` (if given) receives each
    iteration's number, target array and fitted ensemble, e.g. for
    convergence monitoring; the first ensemble is ``first_fqe_ensemble``'s.
    ``corpus`` may be given as its ``FqeProblem``.
    """
    problem = FqeProblem.of(corpus)
    S_next_open = problem.corpus.S_next[~problem.corpus.terminal]
    actions = problem.corpus.header.action_set
    _, reg = _fitted_q(problem, cfg, lambda prev: QModel(prev, actions)
                       .q_matrix(S_next_open).max(axis=1), hook=iteration_hook)
    return QModel(reg, actions)


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


def first_fqe_ensemble(corpus: Corpus | FqeProblem,
                       cfg: FittedQConfig) -> ExtraTreesRegressor:
    """The fitted-Q scheme's first ensemble on ``corpus``: the immediate
    rewards regressed with seed ``(cfg.seed, 1)``, whatever the policy."""
    return _fitted_q(FqeProblem.of(corpus), replace(cfg, l_max=1), None)[1]


def fitted_q_evaluation(corpus: Corpus | FqeProblem,
                        pi_nexts: Sequence[np.ndarray], cfg: FittedQConfig,
                        first: ExtraTreesRegressor | None = None
                        ) -> list[float]:
    """Off-policy value estimates of several policies on one corpus.

    The fitted-Q scheme with the action maximum replaced by each evaluated
    policy's own choice at the successor states (one array of ``pi_nexts``
    per policy, see ``policy_next_actions``); returns, per policy, the mean
    of the first-turn targets after ``cfg.l_max`` iterations.  ``corpus``
    may be given as its ``FqeProblem``, which callers build once.

    Only ensembles that a later iteration reads are fitted, and the first,
    which no policy changes, once for all: ``P`` policies cost
    ``1 + P * (l_max - 2)`` fits for ``l_max >= 2`` and none for
    ``l_max == 1``.  A given ``first`` ensemble (``first_fqe_ensemble``'s, or
    ``fitted_q_iteration``'s equal first one) saves that fit.
    """
    problem = FqeProblem.of(corpus)
    corpus = problem.corpus
    if first is None and cfg.l_max > 1:
        first = first_fqe_ensemble(problem, cfg)
    S_next_open = corpus.S_next[~corpus.terminal]
    values = []
    for pi_next in pi_nexts:
        X_next_pi = np.hstack([S_next_open, _one_hot(
            pi_next, len(corpus.header.action_set))])
        Q, _ = _fitted_q(problem, cfg, lambda prev: prev.predict(X_next_pi),
                         first, fit_last=False)
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
    """Each reference policy's action index at every open successor state,
    from one Q-matrix and one probability matrix."""
    S_next_open = corpus.S_next[~corpus.terminal]
    return reference_actions(q.q_matrix(S_next_open),
                             clf.predict_proba(S_next_open), cfg.delta)
