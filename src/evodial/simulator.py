"""Agenda-based user simulation for a slot-filling restaurant domain.

The environment couples three pieces: a goal-driven user that informs, denies
and confirms slot values; an act-level SLU noise channel that replaces or
deletes values and fabricates N-best confusions with randomly generated
confidences; and a max-score belief tracker that turns N-best lists into
DialogStates for the policy.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from math import exp, inf, log, sqrt
from operator import attrgetter, methodcaller
from random import LOG4, SG_MAGICCONST
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (ACTIONS, DEFAULT_MAX_TURNS, FEATURE_SCHEMA_VERSION,
                   OFFER_CORRECT, OFFER_DUPLICATE, OFFER_WRONG,
                   ActionDecision, DialogAct, DialogState, NBestList,
                   RewardConfig, discounted_return, feature_names,
                   featurize, resolve_action, top_belief)
from .corpus_io import Corpus, CorpusHeader, reject_repeated_keys
# evaluate_policy stays importable from here: perfbench's tracer patches it
from .dsl import TemplateAst, evaluate_policy, template_policy

DEFAULT_NOISE_SCHEDULE = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
DEFAULT_PATIENCE = 3

Policy = Callable[[DialogState], ActionDecision]


class PolicyError(Exception):
    def __init__(self, turn: int, cause: BaseException):
        super().__init__(turn, cause)
        self.turn = turn
        self.__cause__ = cause

    def __str__(self) -> str:
        return f"policy failed at turn {self.turn}: {self.args[1]!r}"


@dataclass(frozen=True)
class Ontology:
    slots: tuple[str, ...]
    values: dict[str, tuple[str, ...]]
    # slot_values -> per position i, every copy of slot_values with the
    # value at i swapped for another value of its slot, in ontology order:
    # the SLU channels' swap pools, built on first use and shared by every
    # channel over this ontology, so that they are built once per process
    swap_pools: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)


def _parse_ontology(text: str, source: str) -> Ontology:
    try:
        data = json.loads(text, object_pairs_hook=reject_repeated_keys)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    slots = data.get("slots") if isinstance(data, dict) else None
    if not isinstance(slots, dict) or not slots \
            or not data.keys() <= {"domain", "slots"} \
            or not isinstance(data.get("domain", ""), str) \
            or not all(isinstance(values, list) and values
                       and all(isinstance(v, str) for v in values)
                       for values in slots.values()):
        raise ValueError(f'{source}: expected {{"slots": {{slot: [value, '
                         f'...]}}}} and at most a "domain" string besides, '
                         f'with at least one slot and at least one string '
                         f'value per slot')
    # a corpus header must name each feature once
    names = feature_names(tuple(slots))
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{source}: the slots make two {name!r} "
                             f"features")
    return Ontology(tuple(slots), {s: tuple(v) for s, v in slots.items()})


def load_ontology(path: str) -> Ontology:
    with open(path, encoding="utf-8") as fp:
        return _parse_ontology(fp.read(), path)


def default_ontology() -> Ontology:
    text = resources.files("evodial.data").joinpath("restaurant_ontology.json").read_text()
    return _parse_ontology(text, "restaurant_ontology.json")


def default_template_text() -> str:
    return resources.files("evodial.data").joinpath("restaurant.policy").read_text()


# Reasonable but untuned values for the default template's p0..p3; the foil
# the optimized policies beat.
HEURISTIC_PARAMS = (0.3, 0.8, 0.5, 0.5)


def _cheng_beta(gammas: list[tuple[float, ...]], rng: random.Random) -> float:
    """CPython 3.11's ``rng.betavariate`` for shapes above 1, its two
    ``gammavariate`` calls (Cheng 1977, algorithm GB) inlined with their
    constants computed once.  It skips the 0.0 returned for a first gamma
    draw of 0, since ``|v| < 16.2`` keeps every draw above 0."""
    random, x = rng.random, None
    for alpha, ainv, bbb, ccc in gammas:
        y = x
        while True:
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = log(u1 / (1.0 - u1)) / ainv
            x = alpha * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                break
    return y / (y + x)


def _beta(shapes: tuple[float, float]) -> Callable[[random.Random], float]:
    """``f(rng) == rng.betavariate(*shapes)``, draw for draw."""
    if min(shapes) <= 1.0:
        return methodcaller("betavariate", *shapes)
    return partial(_cheng_beta, [(a, sqrt(2.0 * a - 1.0), a - LOG4,
                                  a + sqrt(2.0 * a - 1.0)) for a in shapes])


@dataclass(frozen=True)
class NoiseConfig:
    """SLU channel parameters.

    ``error_rate`` is the probability that the top hypothesis misrepresents
    the true act (split evenly between value replacement and deletion, where
    deletion empties the SLU output for the turn).  Confidences are drawn
    from Beta distributions, one for semantically correct hypotheses and a
    lower one for confusions.
    """

    error_rate: float
    nbest_size: int = 3
    correct_conf: tuple[float, float] = (5.0, 2.0)
    incorrect_conf: tuple[float, float] = (2.0, 5.0)
    draw_correct: Callable = field(init=False, repr=False, compare=False)
    draw_incorrect: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must lie in [0, 1]")
        if self.nbest_size < 1:
            raise ValueError("nbest_size must be >= 1")
        for name in ("correct_conf", "incorrect_conf"):
            shapes = getattr(self, name)
            # a NaN shape would make the first draw loop forever
            if len(shapes) != 2 or not all(0.0 < a < inf for a in shapes):
                raise ValueError(f"{name} must hold two finite Beta shapes "
                                 f"above 0, got {shapes!r}")
        object.__setattr__(self, "draw_correct", _beta(self.correct_conf))
        object.__setattr__(self, "draw_incorrect", _beta(self.incorrect_conf))


class SluChannel:
    """Applies value replacement/deletion noise and builds N-best lists."""

    def __init__(self, ontology: Ontology, cfg: NoiseConfig):
        self.ontology = ontology
        self.cfg = cfg
        self._pools = ontology.swap_pools

    def _replace_value(self, slot_values: tuple[tuple[str, str], ...],
                       rng: random.Random) -> tuple[tuple[str, str], ...] | None:
        """``slot_values`` with one value swapped for a confusable one: a
        uniform position, then a uniform other value of its slot.  Both
        ``choice`` calls draw as ``randrange(len(seq))`` does."""
        if not slot_values:
            return None
        pools = self._pools.get(slot_values)
        if pools is None:
            pools = self._pools[slot_values] = tuple(
                tuple((*slot_values[:i], (slot, v), *slot_values[i + 1:])
                      for v in self.ontology.values.get(slot, ())
                      if v != value)
                for i, (slot, value) in enumerate(slot_values))
        pool = rng.choice(pools)
        return rng.choice(pool) if pool else None

    def corrupt(self, act: DialogAct, rng: random.Random) -> NBestList:
        """Corrupt a true user act into an N-best list.

        With probability ``error_rate`` the top hypothesis is wrong: either
        one value is replaced by a confusable one, or the act is deleted
        outright and the turn yields no SLU result at all.  Every hypothesis
        keeps the act's label, so its content alone tells it apart.
        """
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
            cand = truth if rng.random() < 0.4 else self._replace_value(truth, rng)
            if cand is None or cand in seen:
                continue
            seen.add(cand)
            conf = (cfg.draw_correct if cand == truth
                    else cfg.draw_incorrect)(rng) * top_conf
            hyps.append(DialogAct(act.act, cand, conf))
        hyps[1:] = sorted(hyps[1:], key=attrgetter("confidence"), reverse=True)
        return NBestList(tuple(hyps))


@dataclass
class UserGoal:
    constraints: dict[str, str]
    satisfied: bool = False


def sample_goal(ontology: Ontology, rng: random.Random) -> UserGoal:
    return UserGoal({s: rng.choice(ontology.values[s]) for s in ontology.slots})


_NEGATE = DialogAct("negate")
_BYE = DialogAct("bye")


class AgendaUser:
    """Minimal agenda-based user: a stack of pending informs, with responses
    to system acts pushed ahead of them."""

    def __init__(self, goal: UserGoal, rng: random.Random):
        self.goal = goal
        self.rng = rng
        slots = list(goal.constraints)
        rng.shuffle(slots)
        # acts are immutable, so each of the goal's informs is built once
        self._informs = {s: DialogAct("inform", ((s, v),))
                         for s, v in goal.constraints.items()}
        # last item pops first
        self.agenda: list[DialogAct] = [self._informs[s] for s in slots]
        self.last_act: DialogAct | None = None

    def _drop_pending(self, slot: str) -> None:
        self.agenda = [a for a in self.agenda
                       if not any(s == slot for s, _ in a.slot_values)]

    def _pop_or_negate(self) -> DialogAct:
        if self.agenda:
            return self.agenda.pop()
        return _NEGATE

    def respond(self, decision: ActionDecision) -> DialogAct:
        act = self._respond(decision)
        self.last_act = act
        return act

    def _respond(self, decision: ActionDecision) -> DialogAct:
        goal = self.goal.constraints
        if decision.act == "Repeat" and self.last_act is not None:
            return self.last_act
        if decision.act == "Request" and decision.slot in goal:
            self._drop_pending(decision.slot)
            return self._informs[decision.slot]
        if decision.act == "ExplicitConf" and decision.slot in goal:
            truth = goal[decision.slot]
            if decision.value == truth:
                self._drop_pending(decision.slot)
                return DialogAct("affirm", ((decision.slot, truth),))
            return DialogAct("deny", ((decision.slot, decision.value or ""),))
        if decision.act == "Offer":
            offered = dict(decision.offer_pairs or ())
            if offered == goal:
                self.goal.satisfied = True
                return _BYE
            wrong = [s for s in goal if offered.get(s) != goal[s]]
            pending = {s for a in self.agenda for s, _ in a.slot_values}
            for s in wrong:
                if s not in pending:
                    self.agenda.append(self._informs[s])
            return self._pop_or_negate()
        return self._pop_or_negate()


class BeliefTracker:
    """Max-score tracker: keeps the best confidence seen per slot value.

    A denial resets the denied slot, an accepted explicit confirmation pins
    the confirmed value to 1.0.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology

    def initial_state(self) -> DialogState:
        return DialogState(slot_beliefs={s: {} for s in self.ontology.slots})

    def update(self, state: DialogState, decision: ActionDecision,
               nbest: NBestList, offer_outcome: str | None = None,
               offered_id: tuple | None = None) -> DialogState:
        # belief dicts are shared with ``state`` until first written, then
        # copied: a built state's dicts are never mutated
        beliefs = dict(state.slot_beliefs)
        written = []  # the slots whose belief dict this turn replaced
        denied = None
        top = nbest.top
        if decision.act == "ExplicitConf" and decision.slot is not None and top is not None:
            if top.act == "affirm" and decision.value is not None:
                beliefs[decision.slot] = {**beliefs[decision.slot], decision.value: 1.0}
                written.append(decision.slot)
            elif top.act == "deny":
                beliefs[decision.slot] = {}
                written.append(decision.slot)
                denied = decision.slot
        for hyp in nbest.hypotheses:
            if hyp.act != "inform":
                continue
            for slot, value in hyp.slot_values:
                if slot in beliefs and hyp.confidence > beliefs[slot].get(value, 0.0):
                    if beliefs[slot] is state.slot_beliefs.get(slot):
                        beliefs[slot] = dict(beliefs[slot])
                        written.append(slot)
                    beliefs[slot][value] = hyp.confidence
        offered = state.offered_results
        if offered_id is not None:
            offered = offered | {offered_id}
        # an unwritten slot keeps its belief dict, and so its top; like the
        # belief dicts, a built state's tops are never mutated
        tops = state.tops
        if written:
            tops = dict(tops)
            for slot in written:
                tops[slot] = top_belief(beliefs[slot])
        return DialogState(
            slot_beliefs=beliefs,
            top_slu_score=top.confidence if top is not None else 0.0,
            slu_empty=nbest.is_empty,
            last_denied_slot=denied,
            require_more_issued=state.require_more_issued or decision.act == "RequireMore",
            offered_results=offered,
            last_offer_outcome=offer_outcome,
            turn_index=state.turn_index + 1,
            known_tops=tops,
        )


@dataclass(frozen=True)
class TurnRecord:
    state: DialogState
    decision: ActionDecision
    user_act: DialogAct | None
    nbest: NBestList
    reward: float


@dataclass
class EpisodeLog:
    turns: list[TurnRecord] | None  # None unless the episode was recorded
    outcome: str  # success | failure | timeout
    discounted_reward: float
    final_state: DialogState
    n_turns: int


class SimulatedDialogEnv:
    """Turn-level environment: system decision in, tracked state out."""

    def __init__(self, ontology: Ontology, noise: NoiseConfig,
                 rewards: RewardConfig, max_turns: int = DEFAULT_MAX_TURNS,
                 patience: int | None = DEFAULT_PATIENCE):
        self.ontology = ontology
        self.noise = noise
        self.rewards = rewards
        self.max_turns = max_turns
        self.patience = patience
        self.tracker = BeliefTracker(ontology)
        self.channel = SluChannel(ontology, noise)
        self.state: DialogState | None = None
        self._noise_at = {None: noise}
        self._offer_rewards = {OFFER_CORRECT: rewards.correct_offer,
                               OFFER_DUPLICATE: rewards.duplicate_offer,
                               OFFER_WRONG: rewards.wrong_offer}

    def reset(self, rng: random.Random,
              error_rate: float | None = None) -> DialogState:
        if error_rate not in self._noise_at:
            self._noise_at[error_rate] = replace(self.noise, error_rate=error_rate)
        self.channel.cfg = self._noise_at[error_rate]
        self.goal = sample_goal(self.ontology, rng)
        self.user = AgendaUser(self.goal, rng)
        self.rng = rng
        self.state = self.tracker.initial_state()
        self._repeats = 0
        return self.state

    def _classify_offer(self, decision: ActionDecision) -> tuple[str, tuple]:
        pairs = tuple(sorted(decision.offer_pairs or ()))
        if dict(pairs) == self.goal.constraints:
            return OFFER_CORRECT, pairs
        if pairs in self.state.offered_results:
            return OFFER_DUPLICATE, pairs
        return OFFER_WRONG, pairs

    def step(self, decision: ActionDecision, info: bool = True):
        """Apply a system decision; returns (state, reward, done, info), the
        info dict only if asked for.  ``self.outcome`` is the episode's
        outcome once done, else None."""
        reward = self.rewards.per_turn
        outcome = None
        offered_id = None
        if decision.act == "Offer":
            outcome, offered_id = self._classify_offer(decision)
            reward += self._offer_rewards[outcome]
        self._repeats = self._repeats + 1 if decision.act == "Repeat" else 0
        user_act = self.user.respond(decision)
        if outcome == OFFER_CORRECT:
            nbest = NBestList(())  # user hangs up; nothing reaches the SLU
        else:
            nbest = self.channel.corrupt(user_act, self.rng)
        self.state = self.tracker.update(self.state, decision, nbest,
                                         offer_outcome=outcome,
                                         offered_id=offered_id)
        self.outcome = None
        if outcome == OFFER_CORRECT:
            self.outcome = "success"
        elif self.patience is not None and self._repeats >= self.patience:
            self.outcome = "failure"
        elif self.state.turn_index >= self.max_turns:
            self.outcome = "timeout"
        info = {"user_act": user_act, "nbest": nbest,
                "outcome": self.outcome} if info else None
        return self.state, reward, self.outcome is not None, info


def run_episode(policy: Policy, env: SimulatedDialogEnv, rng: random.Random,
                error_rate: float | None = None,
                record: bool = True) -> EpisodeLog:
    """Run one dialog between a policy and the simulated user; without
    ``record`` the log keeps no turn records."""
    state = env.reset(rng, error_rate)
    turns: list[TurnRecord] | None = [] if record else None
    rewards: list[float] = []
    while True:
        try:
            decision = policy(state)
        except Exception as exc:
            raise PolicyError(state.turn_index, exc) from exc
        next_state, reward, done, info = env.step(decision, record)
        if record:
            turns.append(TurnRecord(state, decision, info["user_act"],
                                    info["nbest"], reward))
        rewards.append(reward)
        state = next_state
        if done:
            return EpisodeLog(turns, env.outcome, discounted_return(
                rewards, env.rewards.gamma), state, len(rewards))


def _check_episodes(n_episodes: int) -> None:
    if n_episodes < 1:
        raise ValueError(f"the number of episodes must be >= 1, got {n_episodes}")


def simulate(policy: Policy, ontology: Ontology, rewards: RewardConfig,
             n_episodes: int, master: np.random.Generator,
             schedule: Sequence[float], error_rate: float | None = None,
             record: bool = False) -> Iterator[EpisodeLog]:
    """Logs of ``n_episodes`` dialogs of ``policy``, run as the iterator
    reaches them.  The call draws one ``schedule`` index per episode from
    ``master``, also under a fixed ``error_rate``; each episode draws its
    stream's seed from ``master`` just before it runs."""
    _check_episodes(n_episodes)
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), rewards)
    levels = master.integers(0, len(schedule), size=n_episodes).tolist()
    # run_episode is looked up per episode, since perfbench's tracer patches it
    return (run_episode(policy, env,
                        random.Random(int(master.integers(0, 2 ** 62))),
                        schedule[i] if error_rate is None else error_rate,
                        record) for i in levels)


@dataclass
class SimulationFitness:
    """Mean discounted episode return, the online fitness function.

    The noise level is re-sampled per episode from ``schedule``.  Evaluation
    consumes only the generator passed in, so fitness is reproducible per
    (seed, generation, individual) stream.
    """

    ast: TemplateAst
    ontology: Ontology
    rewards: RewardConfig
    n_episodes: int = 16
    schedule: tuple[float, ...] = DEFAULT_NOISE_SCHEDULE

    def __post_init__(self):
        # checked before the GA, which reports an evaluation's error as a
        # fitness failure
        _check_episodes(self.n_episodes)

    @property
    def n_params(self) -> int:
        return self.ast.param_count

    def evaluate(self, genome: np.ndarray, rng: np.random.Generator) -> float:
        total = 0.0  # added left to right: np.mean would round differently
        for log in simulate(template_policy(self.ast, genome), self.ontology,
                            self.rewards, self.n_episodes, rng, self.schedule):
            total += log.discounted_reward
        return total / self.n_episodes


@dataclass
class EvalResult:
    rewards: np.ndarray
    lengths: np.ndarray
    successes: np.ndarray

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean())

    @property
    def mean_length(self) -> float:
        return float(self.lengths.mean())

    @property
    def completion_rate(self) -> float:
        return float(self.successes.mean())


def exploring_policy(base: Policy, epsilon: float, rng: random.Random,
                     action_set: Sequence[str]) -> Policy:
    """Mix a base policy with uniform random actions (behavior-policy noise).

    Used when bootstrapping corpora: a strictly deterministic generator would
    leave the batch learners with no alternative actions to score.
    """

    def policy(state: DialogState) -> ActionDecision:
        if rng.random() < epsilon:
            return resolve_action(rng.choice(list(action_set)), state)
        return base(state)

    return policy


def make_synthetic_corpus(ast: TemplateAst, params: Sequence[float],
                          ontology: Ontology, n_episodes: int, seed: int,
                          rewards: RewardConfig,
                          schedule: Sequence[float] = DEFAULT_NOISE_SCHEDULE,
                          epsilon: float = 0.0) -> Corpus:
    """Generate a corpus by running a templated behavior policy.

    Each episode becomes one dialog (its index is the dialog id) whose rows
    are the featurized states before and after every turn.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"exploration rate epsilon must lie in [0, 1], got {epsilon}")
    base = template_policy(ast, params)
    master = np.random.default_rng(np.random.SeedSequence([seed]))
    explore_rng = random.Random()
    policy = exploring_policy(base, epsilon, explore_rng, ACTIONS) if epsilon > 0 \
        else base
    episodes = simulate(policy, ontology, rewards, n_episodes, master,
                        schedule, record=True)
    # the exploration seed follows the levels, also when epsilon is 0
    explore_rng.seed(int(master.integers(0, 2 ** 62)))
    rows = []
    for i, log in enumerate(episodes):
        visited = [t.state for t in log.turns] + [log.final_state]
        states = [featurize(s, ontology.slots) for s in visited]
        rows += [(i, j, states[j], ACTIONS.index(t.decision.act),
                  states[j + 1], j == len(log.turns) - 1)
                 for j, t in enumerate(log.turns)]
    ids, turns, S, A, S_next, terminal = zip(*rows) if rows else [()] * 6
    names = feature_names(ontology.slots)
    return Corpus(CorpusHeader(FEATURE_SCHEMA_VERSION, names, ACTIONS, rewards),
                  np.reshape(S, (-1, len(names))), A,
                  np.reshape(S_next, (-1, len(names))), terminal, ids, turns)


def evaluate_policy_sim(policy: Policy, ontology: Ontology,
                        rewards: RewardConfig, n_episodes: int, seed: int,
                        error_rate: float | None = None,
                        schedule: Sequence[float] = DEFAULT_NOISE_SCHEDULE
                        ) -> EvalResult:
    """Test a policy over seeded episodes; fixed ``error_rate`` overrides the
    mixed-noise schedule.  Identical seeds yield identical episode streams,
    which pairs the comparison when two policies are tested with one seed."""
    logs = simulate(policy, ontology, rewards, n_episodes,
                    np.random.default_rng(np.random.SeedSequence([seed])),
                    schedule, error_rate)
    rews, lens, succ = zip(*((log.discounted_reward, log.n_turns,
                              log.outcome == "success") for log in logs))
    return EvalResult(np.array(rews), np.array(lens, dtype=np.int64),
                      np.array(succ))
