"""Shared dialog-domain types: acts, N-best lists, tracked state, rewards
and the feature layout used by the regression components.

Everything here is a plain immutable value object; instances are safe to share
across threads and fitness evaluations.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_MAX_TURNS = 30

FEATURE_SCHEMA_VERSION = "dlg-v1"

# System action vocabulary of the slot-filling domain.
ACTIONS = ("Welcome", "Repeat", "Request", "ExplicitConf", "RequireMore", "Offer")

# Offer outcome labels recorded on the state that follows an offer turn.
OFFER_CORRECT = "correct"
OFFER_DUPLICATE = "duplicate"
OFFER_WRONG = "wrong"


@dataclass(frozen=True)
class DialogAct:
    """A dialog act: a label plus optional (slot, value) content.

    ``confidence`` is set on user-side hypotheses only (SLU output); system
    acts and ground-truth user acts leave it None.
    """

    act: str
    slot_values: tuple[tuple[str, str], ...] = ()
    confidence: float | None = None

    def same_semantics(self, other: "DialogAct") -> bool:
        """True if label and content match, ignoring confidence."""
        return self.act == other.act and self.slot_values == other.slot_values


@dataclass(frozen=True)
class NBestList:
    """Confidence-ordered SLU hypotheses; may be empty (no valid SLU result)."""

    hypotheses: tuple[DialogAct, ...] = ()

    def __post_init__(self):
        prev = None
        for h in self.hypotheses:
            if h.confidence is None:
                raise ValueError("every N-best hypothesis needs a confidence")
            if prev is not None and h.confidence > prev:
                raise ValueError("N-best confidences must be non-increasing")
            prev = h.confidence

    @property
    def is_empty(self) -> bool:
        return not self.hypotheses

    @property
    def top(self) -> DialogAct | None:
        return self.hypotheses[0] if self.hypotheses else None


def top_belief(beliefs: dict[str, float]) -> tuple[str, float] | None:
    """The highest-scoring (value, score), None for an empty slot; score
    ties go to the larger value."""
    return max(zip(beliefs.values(), beliefs))[::-1] if beliefs else None


@dataclass(frozen=True)
class DialogState:
    """Tracked dialog state.

    ``slot_beliefs`` maps slot -> {value: score}; slots with no evidence map
    to an empty dict.  ``last_offer_outcome`` is an environment annotation
    (set by the episode runner, never visible to the policy DSL) that makes
    rewards recomputable from serialized states.
    """

    slot_beliefs: dict[str, dict[str, float]]
    top_slu_score: float = 0.0
    slu_empty: bool = True
    last_denied_slot: str | None = None
    require_more_issued: bool = False
    offered_results: frozenset = frozenset()
    last_offer_outcome: str | None = None
    turn_index: int = 0
    # slot -> top_belief(slot_beliefs[slot]); fixed here because a state's
    # belief dicts are never mutated once it is built
    tops: dict[str, tuple[str, float] | None] = field(
        init=False, repr=False, compare=False)
    known_tops: InitVar[dict | None] = None  # tops the builder already has

    def __post_init__(self, known_tops):
        object.__setattr__(self, "tops", known_tops or {
            slot: top_belief(b) for slot, b in self.slot_beliefs.items()})

    def top_score(self, slot: str) -> float:
        top = self.tops[slot]
        return top[1] if top else 0.0

    def second_score(self, slot: str) -> float:
        scores = sorted(self.slot_beliefs[slot].values(), reverse=True)
        return scores[1] if len(scores) > 1 else 0.0

    def variables(self) -> dict[str, float | bool]:
        """Named state variables available to policy templates."""
        tops = [top[1] if top else 0.0 for top in self.tops.values()]
        n = len(tops) or 1
        return {
            "dialog_begin": self.turn_index == 0,
            "slu_empty": self.slu_empty,
            "slot_denied": self.last_denied_slot is not None,
            "require_more_pending": not self.require_more_issued,
            "top_slu_score": self.top_slu_score,
            "min_slot_score": min(tops) if tops else 0.0,
            "max_slot_score": max(tops) if tops else 0.0,
            "filled_frac": sum(1 for t in tops if t > 0.5) / n,
            "turn_frac": min(self.turn_index / DEFAULT_MAX_TURNS, 1.0),
        }


@dataclass(frozen=True)
class ActionDecision:
    """A resolved policy decision.

    ``slot``/``value`` carry the target of Request/ExplicitConf;
    ``offer_pairs`` carries the constraint pairs an Offer presents.
    """

    act: str
    slot: str | None = None
    value: str | None = None
    offer_pairs: tuple[tuple[str, str], ...] | None = None
    clause_index: int | None = None


@dataclass(frozen=True)
class RewardConfig:
    per_turn: float
    correct_offer: float
    duplicate_offer: float
    wrong_offer: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


# Reward schemes for the simulated and the corpus-style setting.
SIM_REWARDS = RewardConfig(per_turn=-1.0, correct_offer=100.0,
                           duplicate_offer=-5.0, wrong_offer=-5.0, gamma=0.9)
CORPUS_REWARDS = RewardConfig(per_turn=-10.0, correct_offer=100.0,
                              duplicate_offer=-50.0, wrong_offer=-100.0, gamma=0.9)


def discounted_return(rewards: Sequence[float], gamma: float) -> float:
    """Sum of gamma^(j-1) * r_j over the episode's turn rewards."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return float(sum(r * gamma ** j for j, r in enumerate(rewards)))


def resolve_action(act: str, state: DialogState,
                   offer_threshold: float = 0.5,
                   clause_index: int | None = None) -> ActionDecision:
    """Attach slot/value structure to a bare action label.

    Request and ExplicitConf target the just-denied slot when there is one,
    otherwise the slot with the lowest top score (ties broken by slot order).
    Offer presents the top value of every slot whose score exceeds
    ``offer_threshold``.
    """
    if act in ("Request", "ExplicitConf"):
        slot = state.last_denied_slot
        if slot is None:
            # min keeps the first of equal scores, in slot order
            slot = min(state.slot_beliefs, key=state.top_score)
        value = None
        if act == "ExplicitConf":
            top = state.tops[slot]
            value = top[0] if top else None
        return ActionDecision(act, slot=slot, value=value, clause_index=clause_index)
    if act == "Offer":
        pairs = []
        for slot, top in state.tops.items():
            if top and top[1] > offer_threshold:
                pairs.append((slot, top[0]))
        return ActionDecision(act, offer_pairs=tuple(pairs), clause_index=clause_index)
    return ActionDecision(act, clause_index=clause_index)


# ---------------------------------------------------------------------------
# Feature layout (versioned; serialized corpora embed it)
# ---------------------------------------------------------------------------

_BOOL_FEATURES = ("dialog_begin", "slu_empty", "slot_denied", "require_more_pending")
_FLAG_FEATURES = ("offer_correct", "offer_duplicate", "offer_wrong")


def feature_names(slots: Sequence[str]) -> tuple[str, ...]:
    """Feature vector layout for a slot ontology, in serialization order."""
    names: list[str] = []
    for slot in slots:
        names.append(f"top_{slot}")
        names.append(f"second_{slot}")
    names.append("filled_count")
    names.append("top_slu_score")
    names.extend(_BOOL_FEATURES)
    names.extend(_FLAG_FEATURES)
    names.append("turn_frac")
    return tuple(names)


def featurize(state: DialogState, slots: Sequence[str]) -> np.ndarray:
    """Project a DialogState onto the versioned feature vector."""
    vals: list[float] = []
    for slot in slots:
        vals.append(state.top_score(slot))
        vals.append(state.second_score(slot))
    vals.append(float(sum(1 for s in slots if state.top_score(s) > 0.5)))
    vals.append(state.top_slu_score)
    vals.append(float(state.turn_index == 0))
    vals.append(float(state.slu_empty))
    vals.append(float(state.last_denied_slot is not None))
    vals.append(float(not state.require_more_issued))
    vals.append(float(state.last_offer_outcome == OFFER_CORRECT))
    vals.append(float(state.last_offer_outcome == OFFER_DUPLICATE))
    vals.append(float(state.last_offer_outcome == OFFER_WRONG))
    vals.append(min(state.turn_index / DEFAULT_MAX_TURNS, 1.0))
    return np.asarray(vals, dtype=np.float64)


def _schema_slots(names: Sequence[str]) -> list[str]:
    # top_slu_score also carries the top_ prefix; the second_ columns exist
    # only for slots, so they identify the slot set unambiguously
    return [n[len("second_"):] for n in names if n.startswith("second_")]


def template_feature_columns(names: Sequence[str]) -> tuple[str, ...]:
    """The columns of the feature layout ``names`` that
    :func:`variable_columns_from_features` reads."""
    return (*(f"top_{s}" for s in _schema_slots(names)), "top_slu_score",
            "filled_count", "turn_frac", *_BOOL_FEATURES)


def variable_columns_from_features(X: np.ndarray,
                                   names: Sequence[str]) -> dict[str, np.ndarray]:
    """The template-visible state variables of a state matrix, one column
    each.

    Inverse of :func:`featurize` restricted to the variables the policy DSL
    can see; used when evaluating templates on serialized corpus states.
    :meth:`DialogState.variables` gives the same values for one tracked
    state.
    """
    idx = {n: i for i, n in enumerate(names)}
    slots = _schema_slots(names)
    tops = np.stack([X[:, idx[f"top_{s}"]] for s in slots], axis=1) if slots \
        else np.zeros((X.shape[0], 1))
    n = len(slots) or 1
    cols: dict[str, np.ndarray] = {
        "top_slu_score": X[:, idx["top_slu_score"]],
        "min_slot_score": tops.min(axis=1),
        "max_slot_score": tops.max(axis=1),
        "filled_frac": X[:, idx["filled_count"]] / n,
        "turn_frac": X[:, idx["turn_frac"]],
    }
    for name in _BOOL_FEATURES:
        cols[name] = X[:, idx[name]] > 0.5
    return cols
