"""Shared test machinery: grammar-level template generators, the row-wise
state variables, the per-state reward, the structured-view row grouping and
the record-by-record corpus writer as oracles, a one-shot simulation
fitness, enumerable MDP corpora with exact dynamic-programming oracles, and
a robust peak estimator for heavily skewed samples."""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from evodial.core import (_BOOL_FEATURES, OFFER_CORRECT, OFFER_DUPLICATE,
                          OFFER_WRONG, DialogState, RewardConfig,
                          _schema_slots)
from evodial.corpus_io import Corpus, CorpusHeader, _g17
from evodial.dsl import (ActionSpec, BoolVar, Clause, Comparison, LogicNode,
                         StateSchema, TemplateAst)
from evodial.simulator import Ontology, SimulationFitness, default_ontology

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
