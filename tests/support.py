"""Shared test machinery: grammar-level template generators, the template
interpreter as the oracle of the compiled templates, the row-wise state
variables, the per-state reward, test-only Q-model views, one-call corpus
fitness functions and the reference corpus policies, the
structured-view row grouping, tree-by-tree prediction, the record-by-record
corpus writer and the SLU channel's list-copying swap as oracles, episode
rewards and best-fitness histories, a one-shot simulation fitness, the
master-stream layout of seeded episodes,
enumerable MDP corpora with exact dynamic-programming oracles, and a robust
peak estimator for heavily skewed samples."""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from evodial.batch_rl import (BatchPolicy, CorpusFitness, QModel, QValConfig,
                              _one_hot, reference_actions)
from evodial.core import (_BOOL_FEATURES, OFFER_CORRECT, OFFER_DUPLICATE,
                          OFFER_WRONG, ActionDecision, DialogAct, DialogState,
                          NBestList, RewardConfig, _schema_slots,
                          resolve_action)
from evodial.corpus_io import Corpus, CorpusHeader, _g17
from evodial.dsl import (DEFAULT_OFFER_THRESHOLD, EQ_TOLERANCE, ActionSpec,
                         BoolVar, Clause, Comparison, LogicNode,
                         MissingStateVariable, StateSchema, TemplateAst)
from evodial.evolution import GenerationTrace
from evodial.simulator import (EpisodeLog, NoiseConfig, Ontology, Policy,
                               SimulatedDialogEnv, SimulationFitness,
                               default_ontology, run_episode)
from evodial.trees import ExtraTreesClassifier

# ---------------------------------------------------------------------------
# Random templates over the policy grammar
# ---------------------------------------------------------------------------

@dataclass
class _ParamPool:
    count: int = 0

    def draw(self, rng: random.Random) -> int:
        # new indices are appended, so references always end up dense
        if self.count == 0 or rng.random() < 0.6:
            self.count += 1
            return self.count - 1
        return rng.randrange(self.count)


def random_schema(rng: random.Random) -> StateSchema:
    n_bool = rng.randint(1, 4)
    n_num = rng.randint(1, 4)
    n_act = rng.randint(1, 5)
    return StateSchema(
        tuple(f"flag_{i}" for i in range(n_bool)),
        tuple(f"score_{i}" for i in range(n_num)),
        tuple(f"Act{i}" for i in range(n_act)),
    )


def random_condition(rng: random.Random, schema: StateSchema,
                     pool: _ParamPool, depth: int = 0):
    if depth >= 3 or rng.random() < 0.45:
        if rng.random() < 0.5:
            return BoolVar(rng.choice(schema.bool_vars))
        return Comparison(rng.choice(schema.num_vars),
                          rng.choice(("<", ">", "==")), pool.draw(rng))
    return LogicNode(rng.choice(("and", "or")),
                     random_condition(rng, schema, pool, depth + 1),
                     random_condition(rng, schema, pool, depth + 1))


def random_action(rng: random.Random, schema: StateSchema, pool: _ParamPool,
                  structural: bool) -> ActionSpec:
    label = rng.choice(schema.actions)
    if structural and rng.random() < 0.2:
        return ActionSpec(label, (("filter", pool.draw(rng)),))
    return ActionSpec(label)


def random_template(rng: random.Random, structural: bool = True,
                    schema: StateSchema | None = None) -> TemplateAst:
    schema = schema or random_schema(rng)
    pool = _ParamPool()
    clauses = [
        Clause(random_condition(rng, schema, pool),
               random_action(rng, schema, pool, structural))
        for _ in range(rng.randint(0, 5))
    ]
    clauses.append(Clause(None, random_action(rng, schema, pool, structural)))
    return TemplateAst(tuple(clauses), pool.count, schema)


def random_state_columns(rng: np.random.Generator, schema: StateSchema,
                         n: int) -> dict[str, np.ndarray]:
    cols: dict[str, np.ndarray] = {}
    for name in schema.bool_vars:
        cols[name] = rng.random(n) < 0.5
    for name in schema.num_vars:
        cols[name] = rng.random(n)
    return cols


# ---------------------------------------------------------------------------
# The template interpreter: the oracle of the compiled templates
# ---------------------------------------------------------------------------

def eval_cond(node, variables, params):
    """Truth of a condition on one state or on a batch of states, by a walk
    of its tree.

    ``variables`` maps names to scalars (one state; the result is a bool) or
    to equal-length arrays (a batch; the result is a bool array).  Boolean
    variables must already hold bools, since ``and``/``or`` are ``&``/``|``.
    """
    if isinstance(node, LogicNode):
        left = eval_cond(node.left, variables, params)
        right = eval_cond(node.right, variables, params)
        return (left & right) if node.op == "and" else (left | right)
    name = node.name if isinstance(node, BoolVar) else node.var
    try:
        value = variables[name]
    except KeyError:
        raise MissingStateVariable(f"state has no variable {name!r}") from None
    if isinstance(node, BoolVar):
        return value
    p = params[node.param]
    if node.op == "<":
        return value < p
    if node.op == ">":
        return value > p
    return abs(value - p) <= EQ_TOLERANCE


def interpret_policy(ast: TemplateAst, params, state) -> ActionDecision:
    """``evaluate_policy`` by the interpreter: a DialogState's variables
    come from ``DialogState.variables()``, a mapping's through the schema's
    ``bool``/``float`` coercion."""
    values = [float(v) for v in params]
    assert len(values) == ast.param_count
    if isinstance(state, DialogState):
        variables = state.variables()
    else:
        kinds = dict.fromkeys(ast.schema.bool_vars, bool) | \
            dict.fromkeys(ast.schema.num_vars, float)
        variables = {k: kinds[k](v) if k in kinds else v
                     for k, v in state.items()}
    for i, clause in enumerate(ast.clauses):
        if clause.condition is not None and \
                not eval_cond(clause.condition, variables, values):
            continue
        spec = clause.action
        if isinstance(state, DialogState):
            threshold = DEFAULT_OFFER_THRESHOLD
            for key, ref in spec.structural_params:
                if key == "filter":
                    threshold = values[ref]
            return resolve_action(spec.act, state, offer_threshold=threshold,
                                  clause_index=i)
        return ActionDecision(spec.act, clause_index=i)
    raise AssertionError("unreachable: final clause is unconditional")


def interpret_policy_batch(ast: TemplateAst, params, columns,
                           action_index) -> np.ndarray:
    """``evaluate_policy_batch`` by the interpreter."""
    values = [float(v) for v in params]
    columns = {**columns, **{name: np.asarray(columns[name], dtype=bool)
                             for name in ast.schema.bool_vars if name in columns}}
    n = len(next(iter(columns.values())))
    out = np.full(n, -1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    for clause in ast.clauses:
        if clause.condition is None:
            fired = undecided
        else:
            fired = undecided & eval_cond(clause.condition, columns, values)
        out[fired] = action_index.get(clause.action.act, -1)
        undecided = undecided & ~fired
        if not undecided.any():
            break
    return out


# ---------------------------------------------------------------------------
# Row-wise state variables: the oracle of the column-wise derivation
# ---------------------------------------------------------------------------

def variables_from_features(vec: np.ndarray, names: Sequence[str]) -> dict[str, float | bool]:
    """Reconstruct the template-visible state variables from a feature vector.

    Inverse of :func:`featurize` restricted to the variables the policy DSL
    can see; used when evaluating templates on serialized corpus states.
    """
    idx = {n: i for i, n in enumerate(names)}
    slots = _schema_slots(names)
    tops = [float(vec[idx[f"top_{s}"]]) for s in slots]
    n = len(slots) or 1
    out: dict[str, float | bool] = {
        "top_slu_score": float(vec[idx["top_slu_score"]]),
        "min_slot_score": min(tops) if tops else 0.0,
        "max_slot_score": max(tops) if tops else 0.0,
        "filled_frac": float(vec[idx["filled_count"]]) / n,
        "turn_frac": float(vec[idx["turn_frac"]]),
    }
    for name in _BOOL_FEATURES:
        out[name] = bool(vec[idx[name]] > 0.5)
    return out


# ---------------------------------------------------------------------------
# Per-state reward: the oracle of ``Corpus.rewards``; one-shot simulation
# fitness
# ---------------------------------------------------------------------------

def reward(s: DialogState, a: str, s_next: DialogState, cfg: RewardConfig) -> float:
    """Per-turn reward plus the offer bonus/penalty recorded on ``s_next``.

    The offer outcome annotation is only ever set on the state directly
    following an offer turn, so non-offer turns yield ``per_turn`` alone.
    """
    r = cfg.per_turn
    outcome = s_next.last_offer_outcome
    if outcome == OFFER_CORRECT:
        r += cfg.correct_offer
    elif outcome == OFFER_DUPLICATE:
        r += cfg.duplicate_offer
    elif outcome == OFFER_WRONG:
        r += cfg.wrong_offer
    return r


def episode_rewards(log: EpisodeLog) -> list[float]:
    """The turn rewards of a recorded episode."""
    return [t.reward for t in log.turns]


def best_history(trace: GenerationTrace) -> list[float]:
    """The best fitness of each generation."""
    return [r.best_fitness for r in trace.rows]


def fitness_simulation(ast: TemplateAst, params: Sequence[float],
                       n_episodes: int, noise_schedule: Sequence[float],
                       rewards: RewardConfig, seed: int,
                       ontology: Ontology | None = None) -> float:
    """One-shot simulation fitness for a bound template (Eq. 1 style mean)."""
    fitness = SimulationFitness(ast, ontology or default_ontology(), rewards,
                                n_episodes=n_episodes,
                                schedule=tuple(noise_schedule))
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return fitness.evaluate(np.asarray(params, dtype=np.float64), rng)


def stream_layout_episodes(policy: Policy, ontology: Ontology,
                           rewards: RewardConfig, n_episodes: int,
                           master: np.random.Generator,
                           schedule: Sequence[float],
                           error_rate: float | None = None,
                           explore_rng: random.Random | None = None
                           ) -> list[EpisodeLog]:
    """Recorded episodes drawn from ``master`` in the documented layout,
    step by step: (1) one noise-level index per episode, also under a fixed
    ``error_rate``; (2) only if ``explore_rng`` is given, that stream's
    seed; (3) each episode's seed, just before it runs."""
    levels = master.integers(0, len(schedule), size=n_episodes)
    if explore_rng is not None:
        explore_rng.seed(int(master.integers(0, 2 ** 62)))
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), rewards)
    logs = []
    for level in levels:
        episode_rng = random.Random(int(master.integers(0, 2 ** 62)))
        rate = schedule[int(level)] if error_rate is None else error_rate
        logs.append(run_episode(policy, env, episode_rng, rate))
    return logs


# ---------------------------------------------------------------------------
# Q-model views and corpus policies that only tests read
# ---------------------------------------------------------------------------

def q_values(q: QModel, X: np.ndarray,
             actions: np.ndarray) -> np.ndarray:
    """The Q-value of each row's action, by one ``predict`` over the rows'
    (state, one-hot action) inputs."""
    X = np.asarray(X, dtype=np.float64)
    return q.regressor.predict(
        np.hstack([X, _one_hot(np.asarray(actions), q.n_actions)]))


def greedy(q: QModel, X: np.ndarray) -> np.ndarray:
    """Greedy action indices; ties resolve to the lowest action index."""
    return q.q_matrix(X).argmax(axis=1)


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


# ---------------------------------------------------------------------------
# List-copying value swap: the oracle of the SLU channel's swap pools
# ---------------------------------------------------------------------------

class ListSwapChannel:
    """``SluChannel`` whose value swap copies the act's pairs into a list,
    swaps one value drawn from the slot's other values, and makes a tuple
    again; it makes the same ``random.Random`` calls in the same order."""

    def __init__(self, ontology: Ontology, cfg: NoiseConfig):
        self.ontology = ontology
        self.cfg = cfg

    def _replace_value(self, slot_values, rng):
        if not slot_values:
            return None
        i = rng.randrange(len(slot_values))
        slot, value = slot_values[i]
        pool = [v for v in self.ontology.values.get(slot, ()) if v != value]
        if not pool:
            return None
        swapped = list(slot_values)
        swapped[i] = (slot, rng.choice(pool))
        return tuple(swapped)

    def corrupt(self, act: DialogAct, rng: random.Random) -> NBestList:
        cfg = self.cfg
        truth = act.slot_values
        if rng.random() < cfg.error_rate:
            top = None
            if truth and rng.random() < 0.5:
                top = self._replace_value(truth, rng)
            if top is None:
                return NBestList(())
        else:
            top = truth
        top_conf = (cfg.draw_correct if top == truth
                    else cfg.draw_incorrect)(rng)
        hyps = [DialogAct(act.act, top, top_conf)]
        seen = {top}
        for _ in range(4 * cfg.nbest_size):
            if len(hyps) >= cfg.nbest_size:
                break
            cand = truth if rng.random() < 0.4 \
                else self._replace_value(truth, rng)
            if cand is None or cand in seen:
                continue
            seen.add(cand)
            conf = (cfg.draw_correct if cand == truth
                    else cfg.draw_incorrect)(rng) * top_conf
            hyps.append(DialogAct(act.act, cand, conf))
        hyps[1:] = sorted(hyps[1:], key=attrgetter("confidence"), reverse=True)
        return NBestList(tuple(hyps))


# ---------------------------------------------------------------------------
# Structured-view row grouping: the oracle of ``trees._dedup``
# ---------------------------------------------------------------------------

def dedup_by_unique(X: np.ndarray, y: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of ``[X | y]`` plus multiplicities, in first-seen order,
    by ``np.unique`` over a structured view of the rows."""
    stacked = np.ascontiguousarray(np.column_stack([X, y.astype(np.float64)]))
    flat = stacked.view([("", stacked.dtype)] * stacked.shape[1]).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    order = first[by_first]
    remap = np.empty(len(first), dtype=np.int64)  # sorted pos -> dense id
    remap[by_first] = np.arange(len(first))
    counts = np.bincount(remap[inverse], minlength=len(order)).astype(np.float64)
    return stacked[order], counts


# ---------------------------------------------------------------------------
# Tree-by-tree prediction: the oracle of the ensembles' one-descent predict
# ---------------------------------------------------------------------------

def _tree_leaves(tree, X: np.ndarray) -> np.ndarray:
    """Leaf index of every row in one tree, by a level-synchronous descent
    over the rows that have not reached a leaf."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        rows = np.nonzero(feat >= 0)[0]
        if rows.size == 0:
            return node
        at = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])


def predict_tree_by_tree(ensemble, X) -> np.ndarray:
    """``predict`` (regressor) or ``predict_proba`` (classifier): the trees'
    leaf values added one tree at a time, over the tree count."""
    X = np.asarray(X, dtype=np.float64)
    trees = ensemble._trees
    out = np.zeros((X.shape[0],) + trees[0].value.shape[1:])
    for tree in trees:
        out += tree.value[_tree_leaves(tree, X)]
    return out / len(trees)


# ---------------------------------------------------------------------------
# Record-by-record corpus writer: the oracle of ``corpus_io.save_corpus``
# ---------------------------------------------------------------------------

def _encode(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _g17(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def save_corpus_by_record(path: str, corpus: Corpus) -> None:
    """Write ``corpus`` one record at a time, each value encoded on its own."""
    actions = corpus.header.action_set
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(_encode(asdict(corpus.header)) + "\n")
        for dialog_id, turn, s, a, s_next, terminal in zip(
                corpus.dialog_id.tolist(), corpus.turn.tolist(), corpus.S,
                corpus.A.tolist(), corpus.S_next, corpus.terminal.tolist()):
            record = {"dialog_id": dialog_id, "turn": turn, "s": s.tolist(),
                      "a": actions[a], "s_next": s_next.tolist(),
                      "terminal": terminal}
            fp.write(_encode(record) + "\n")


# ---------------------------------------------------------------------------
# Deterministic chain MDP (3 states, 2 actions) with exact oracles
# ---------------------------------------------------------------------------

CHAIN_FEATURES = ("at_s0", "at_s1", "offer_correct", "offer_duplicate",
                  "offer_wrong")
CHAIN_ACTIONS = ("advance", "back")
CHAIN_REWARDS = RewardConfig(per_turn=0.0, correct_offer=10.0,
                             duplicate_offer=0.0, wrong_offer=0.0, gamma=0.9)

_S0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
_S1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
_S2 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])  # terminal; flag pays +10 on entry


CHAIN_HEADER = CorpusHeader("dlg-v1", CHAIN_FEATURES, CHAIN_ACTIONS,
                            CHAIN_REWARDS)


def corpus_from_rows(rows, header: CorpusHeader = CHAIN_HEADER) -> Corpus:
    """A Corpus from ``(dialog_id, turn, s, action label, s_next, terminal)``
    rows."""
    width = len(header.feature_names)
    ids, turns, S, labels, S_next, terminal = zip(*rows) if rows else [()] * 6
    return Corpus(header, np.reshape(S, (-1, width)),
                  [header.action_set.index(a) for a in labels],
                  np.reshape(S_next, (-1, width)), terminal, ids, turns)


def chain_rows(dialog_id: int, moves: list[tuple[np.ndarray, str, np.ndarray]]
               ) -> list[tuple]:
    return [(dialog_id, t, s, a, s_next, t == len(moves) - 1)
            for t, (s, a, s_next) in enumerate(moves)]


EP_DIRECT = [(_S0, "advance", _S1), (_S1, "advance", _S2)]
EP_STALL0 = [(_S0, "back", _S0), (_S0, "advance", _S1), (_S1, "advance", _S2)]
EP_STALL1 = [(_S0, "advance", _S1), (_S1, "back", _S0), (_S0, "advance", _S1),
             (_S1, "advance", _S2)]


def chain_corpus(n_episodes: int = 200, mixed: bool = True,
                 rewards: RewardConfig = CHAIN_REWARDS) -> Corpus:
    """Episodes of the chain MDP; mixed corpora cover every (state, action)."""
    kinds = (EP_DIRECT, EP_STALL0, EP_STALL1) if mixed else (EP_DIRECT,)
    header = CorpusHeader("dlg-v1", CHAIN_FEATURES, CHAIN_ACTIONS, rewards)
    return corpus_from_rows([row for i in range(n_episodes)
                             for row in chain_rows(i, kinds[i % len(kinds)])],
                            header)


def chain_value_iteration(gamma: float = 0.9, iters: int = 200) -> dict:
    """Exact Q* of the chain MDP by dynamic programming (independent oracle)."""
    nxt = {("s0", "advance"): "s1", ("s0", "back"): "s0",
           ("s1", "advance"): "s2", ("s1", "back"): "s0"}
    rew = {("s1", "advance"): 10.0}
    q = {k: 0.0 for k in nxt}
    for _ in range(iters):
        new = {}
        for (s, a), s2 in nxt.items():
            future = 0.0
            if s2 != "s2":
                future = max(q[(s2, b)] for b in ("advance", "back"))
            new[(s, a)] = rew.get((s, a), 0.0) + gamma * future
        q = new
    return q


CHAIN_STATE_VECS = {"s0": _S0, "s1": _S1}


# ---------------------------------------------------------------------------
# Robust peak location for skewed unimodal samples
# ---------------------------------------------------------------------------

def fitted_peak(samples, grid_step: float = 0.005) -> float:
    """Peak of the best-fit two-piece half-normal density on [0, 1].

    The perturbation density is nearly flat on its wide side, so a histogram
    argmax cannot localize the peak at 1e5 samples; the join point of the
    two-branch fit is sharply identified by the steep side instead.  Scales
    and branch weight have closed-form conditional MLEs, leaving a 1-d grid
    search over the join point.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    cum = np.concatenate([[0.0], np.cumsum(s)])
    cum2 = np.concatenate([[0.0], np.cumsum(s ** 2)])
    best_ll, best_m = -np.inf, None
    for m in np.arange(grid_step, 1.0, grid_step):
        k = int(np.searchsorted(s, m))
        ll = 0.0
        if k > 0:
            a2 = (k * m * m - 2.0 * m * cum[k] + cum2[k]) / k
            if a2 <= 0:
                continue
            ll += k * (np.log(k / n) - 0.5 * np.log(a2))
        if k < n:
            b2 = ((cum2[n] - cum2[k]) - 2.0 * m * (cum[n] - cum[k])
                  + (n - k) * m * m) / (n - k)
            if b2 <= 0:
                continue
            ll += (n - k) * (np.log((n - k) / n) - 0.5 * np.log(b2))
        if ll > best_ll:
            best_ll, best_m = ll, float(m)
    return best_m


@dataclass
class SphereFitness:
    """-(distance to a hidden optimum)^2; exact optimum value is zero."""

    target: np.ndarray

    @property
    def n_params(self) -> int:
        return len(self.target)

    def evaluate(self, genome: np.ndarray, rng) -> float:
        return -float(np.sum((genome - self.target) ** 2))


@dataclass
class NoisySphereFitness:
    """SphereFitness plus Gaussian noise from the evaluation stream, so the
    GA's per-evaluation RNG streams reach the fitness values."""

    target: np.ndarray
    noise: float

    @property
    def n_params(self) -> int:
        return len(self.target)

    def evaluate(self, genome: np.ndarray, rng) -> float:
        return (-float(np.sum((genome - self.target) ** 2))
                + self.noise * float(rng.standard_normal()))
