import copy
import dataclasses
import hashlib
import inspect
import pickle
import random

import numpy as np
import pytest

from evodial.core import (ACTIONS, CORPUS_REWARDS, SIM_REWARDS,
                          ActionDecision, DialogAct, DialogState, NBestList,
                          RewardConfig,
                          discounted_return, feature_names, featurize,
                          resolve_action, template_feature_columns,
                          variable_columns_from_features)
from evodial.corpus_io import Corpus, CorpusHeader
from support import reward, variables_from_features

SLOTS = ("food", "area", "pricerange", "name")


def _state(**kwargs):
    beliefs = kwargs.pop("slot_beliefs", {s: {} for s in SLOTS})
    return DialogState(slot_beliefs=beliefs, **kwargs)


def test_reward_non_offer_turn():
    assert reward(_state(), "Request", _state(turn_index=1), SIM_REWARDS) == -1.0


def test_reward_correct_offer_sim():
    nxt = _state(turn_index=5, last_offer_outcome="correct")
    assert reward(_state(turn_index=4), "Offer", nxt, SIM_REWARDS) == 99.0


def test_reward_wrong_offer_sim():
    nxt = _state(turn_index=5, last_offer_outcome="wrong")
    assert reward(_state(turn_index=4), "Offer", nxt, SIM_REWARDS) == -6.0


def test_reward_duplicate_offer_corpus():
    nxt = _state(turn_index=5, last_offer_outcome="duplicate")
    assert reward(_state(turn_index=4), "Offer", nxt, CORPUS_REWARDS) == -60.0


def test_reward_wrong_offer_corpus():
    nxt = _state(turn_index=5, last_offer_outcome="wrong")
    assert reward(_state(turn_index=4), "Offer", nxt, CORPUS_REWARDS) == -110.0


def test_reward_event_set_is_closed():
    for outcome, expected in ((None, 0.0), ("correct", 100.0),
                              ("duplicate", -5.0), ("wrong", -5.0)):
        nxt = _state(turn_index=1, last_offer_outcome=outcome)
        assert reward(_state(), "Offer", nxt, SIM_REWARDS) - SIM_REWARDS.per_turn \
            == expected


def test_discounted_return_single_term():
    assert discounted_return([-1.0], 0.9) == -1.0


def test_discounted_return_hand_value():
    assert discounted_return([-1.0, -1.0, 99.0], 0.9) == pytest.approx(78.29)


def test_discounted_return_empty():
    assert discounted_return([], 0.9) == 0.0


def test_discounted_return_gamma_one_is_plain_sum():
    rewards = [1.0, -2.0, 3.5]
    assert discounted_return(rewards, 1.0) == pytest.approx(sum(rewards))


def _episode_rewards(rng):
    """Turn rewards of a simulated or corpus-style episode: a per-turn cost,
    offer penalties on some turns, and a correct offer that may end it."""
    per_turn, correct, duplicate, wrong = rng.choice(
        [(-1.0, 100.0, -5.0, -5.0), (-10.0, 100.0, -50.0, -100.0)])
    rewards = []
    for _ in range(rng.randint(1, 30)):
        u = rng.random()
        rewards.append(per_turn + (wrong if u < 0.1 else
                                   duplicate if u < 0.15 else 0.0))
    if rng.random() < 0.6:
        rewards[-1] = per_turn + correct
    return rewards


def test_discounted_return_adds_left_to_right():
    # Python 3.12's builtin sum of floats is compensated and differs from
    # left-to-right addition on about half of these lists, e.g. on the
    # first one (-0x1.ed70a3d70a3d7p+2); the pins are the 3.11 returns.
    assert discounted_return([-6.0, -1.0, -1.0], 0.9).hex() == \
        "-0x1.ed70a3d70a3d8p+2"
    rng = random.Random(2024)
    returns = [discounted_return(_episode_rewards(rng), 0.9)
               for _ in range(2000)]
    assert hashlib.sha256(" ".join(r.hex() for r in returns).encode()) \
        .hexdigest() == ("35ae1fb9310674fc51cf2d671e7ba9c8"
                         "8ea5de917ff0305d13189009c8e19037")


def test_reward_config_validates_gamma():
    with pytest.raises(ValueError):
        RewardConfig(-1.0, 100.0, -5.0, -5.0, gamma=0.0)
    with pytest.raises(ValueError):
        RewardConfig(-1.0, 100.0, -5.0, -5.0, gamma=1.1)


def test_nbest_requires_ordered_confidences():
    a = DialogAct("inform", (("food", "thai"),), 0.4)
    b = DialogAct("inform", (("food", "korean"),), 0.7)
    with pytest.raises(ValueError):
        NBestList((a, b))
    with pytest.raises(ValueError, match="needs a confidence"):
        NBestList((b, DialogAct("inform", (("food", "thai"),))))
    assert NBestList((b, a)).top is b
    assert NBestList(()).is_empty


_HYP = DialogAct("inform", (("food", "thai"),), 0.7)
# one instance per value object with every field set, and per field a
# different value
_VALUE_OBJECTS = [
    (DialogAct("deny", (("area", "north"),), 0.25),
     {"act": "affirm", "slot_values": (), "confidence": None}),
    (ActionDecision("Offer", "food", "thai", (("food", "thai"),), 3),
     {"act": "Request", "slot": None, "value": "korean",
      "offer_pairs": None, "clause_index": 0}),
    (NBestList((_HYP, DialogAct("inform", (("food", "korean"),), 0.5))),
     {"hypotheses": (_HYP,)}),
    (DialogState({"food": {"thai": 0.5, "korean": 0.5}, "area": {}}, 0.5,
                 False, "area", True, frozenset({(("food", "thai"),)}),
                 "wrong", 4),
     {"slot_beliefs": {"food": {}, "area": {"north": 1.0}},
      "top_slu_score": 0.0, "slu_empty": True, "last_denied_slot": None,
      "require_more_issued": False, "offered_results": frozenset(),
      "last_offer_outcome": None, "turn_index": 5}),
]


@pytest.mark.parametrize("obj, other", _VALUE_OBJECTS,
                         ids=lambda v: type(v).__name__)
def test_value_objects_keep_the_dataclass_contract(obj, other):
    cls = type(obj)
    fields = dataclasses.fields(cls)
    values = {f.name: getattr(obj, f.name) for f in fields if f.init}
    assert set(other) == set(values)
    # the class-body __init__ takes the dataclass's parameters and defaults
    expected = [(name, f.default) for name, f in
                cls.__dataclass_fields__.items() if f.init]
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == [
        (name, inspect.Parameter.empty if default is dataclasses.MISSING
         else default) for name, default in expected]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert cls(*values.values()) == cls(**values) == obj
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, other[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        changed = dataclasses.replace(obj, **{name: other[name]})
        assert getattr(changed, name) == other[name] != getattr(obj, name)
        assert changed != obj
        assert changed == cls(**{**values, name: other[name]})
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{f.name}={getattr(obj, f.name)!r}" for f in fields if f.repr) + ")"
    key = tuple(getattr(obj, f.name) for f in fields if f.compare)
    if cls is DialogState:  # its belief dicts make it unhashable
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(key) == hash(cls(**values))
    assert obj != key and obj.__eq__(key) is NotImplemented
    assert pickle.loads(pickle.dumps(obj)) == copy.copy(obj) == obj


def test_state_tops_follow_the_beliefs_unless_given():
    beliefs = {"food": {"thai": 0.5, "korean": 0.5}, "area": {}}
    state = DialogState(beliefs)
    assert state.tops == {"food": ("thai", 0.5), "area": None}
    assert dataclasses.replace(state, slot_beliefs={"area": {"x": 0.1}}) \
        .tops == {"area": ("x", 0.1)}
    given = {"food": ("korean", 0.5), "area": None}
    assert DialogState(beliefs, known_tops=given).tops is given
    assert DialogState(beliefs, known_tops=given) == state


def test_featurize_and_variables_agree():
    rng = np.random.default_rng(0)
    names = feature_names(SLOTS)
    for _ in range(50):
        beliefs = {}
        for s in SLOTS:
            values = {f"v{i}": float(rng.random()) for i in range(rng.integers(0, 3))}
            beliefs[s] = values
        state = DialogState(
            slot_beliefs=beliefs,
            top_slu_score=float(rng.random()),
            slu_empty=bool(rng.random() < 0.5),
            last_denied_slot="food" if rng.random() < 0.3 else None,
            require_more_issued=bool(rng.random() < 0.5),
            turn_index=int(rng.integers(0, 30)),
        )
        vec = featurize(state, SLOTS)
        assert len(vec) == len(names)
        recovered = variables_from_features(vec, names)
        assert recovered == state.variables()


def test_template_feature_columns_are_the_columns_read():
    # renaming a listed column breaks variable_columns_from_features, and
    # renaming any other column does not change what it returns
    names = feature_names(SLOTS)
    X = np.random.default_rng(2).random((5, len(names)))
    listed = template_feature_columns(names)
    assert set(listed) < set(names)
    expected = variable_columns_from_features(X, names)
    for i, name in enumerate(names):
        renamed = names[:i] + ("unused",) + names[i + 1:]
        if name in listed:
            with pytest.raises(KeyError):
                variable_columns_from_features(X, renamed)
        elif not name.startswith("second_"):  # a second_ column names a slot
            cols = variable_columns_from_features(X, renamed)
            assert cols.keys() == expected.keys()
            assert all(np.array_equal(cols[k], expected[k]) for k in cols)


def test_variable_columns_match_rowwise():
    rng = np.random.default_rng(1)
    names = feature_names(SLOTS)
    X = rng.random((40, len(names)))
    cols = variable_columns_from_features(X, names)
    for i in range(40):
        row = variables_from_features(X[i], names)
        for key, val in row.items():
            assert cols[key][i] == pytest.approx(val)


def test_transition_reward_matches_state_reward():
    before = _state(turn_index=3)
    outcomes = (None, "correct", "duplicate", "wrong")
    afters = [_state(turn_index=4, last_offer_outcome=o) for o in outcomes]
    S_next = np.stack([featurize(after, SLOTS) for after in afters])
    n = len(afters)
    for cfg in (CORPUS_REWARDS, SIM_REWARDS,
                RewardConfig(-0.0, 0.0, 0.0, 0.0, 0.9)):
        header = CorpusHeader("dlg-v1", feature_names(SLOTS), ACTIONS, cfg)
        rewards = Corpus(header, S_next, np.full(n, ACTIONS.index("Offer")),
                         S_next, np.ones(n, dtype=bool), np.arange(n),
                         np.zeros(n)).rewards()
        expected = [reward(before, "Offer", after, cfg) for after in afters]
        assert [r.hex() for r in rewards] == [r.hex() for r in expected]


def test_resolve_request_prefers_denied_slot():
    state = _state(slot_beliefs={"food": {"thai": 0.9}, "area": {},
                                 "pricerange": {}, "name": {}},
                   last_denied_slot="food")
    assert resolve_action("Request", state).slot == "food"


def test_resolve_request_falls_back_to_weakest_slot():
    state = _state(slot_beliefs={"food": {"thai": 0.9}, "area": {"north": 0.2},
                                 "pricerange": {"cheap": 0.4}, "name": {}})
    assert resolve_action("Request", state).slot == "name"


def test_resolve_request_breaks_ties_by_slot_order():
    state = _state()
    assert resolve_action("Request", state).slot == "food"


def test_resolve_confirm_carries_top_value():
    state = _state(slot_beliefs={"food": {"thai": 0.6, "korean": 0.3},
                                 "area": {"north": 1.0},
                                 "pricerange": {"cheap": 1.0},
                                 "name": {"efes": 1.0}})
    decision = resolve_action("ExplicitConf", state)
    assert decision.slot == "food"
    assert decision.value == "thai"


def test_resolve_offer_filters_by_threshold():
    state = _state(slot_beliefs={"food": {"thai": 0.9}, "area": {"north": 0.4},
                                 "pricerange": {"cheap": 0.6}, "name": {}})
    decision = resolve_action("Offer", state, offer_threshold=0.5)
    assert dict(decision.offer_pairs) == {"food": "thai", "pricerange": "cheap"}


# featurize on hand-built states, one value per feature as float.hex(); the
# bits were recorded before the feature vector read the state-variable
# getters and must not move
_ZERO, _ONE = "0x0.0p+0", "0x1.0000000000000p+0"
FEATURIZE_PINS = [
    (DialogState({"food": {}, "area": {}}),
     [_ZERO] * 6 + [_ONE, _ONE, _ZERO, _ONE] + [_ZERO] * 4),
    (DialogState({"food": {"thai": 0.1 + 0.2, "korean": 0.7 / 3},
                  "area": {"north": 0.55}},
                 top_slu_score=0.1 + 0.7, slu_empty=False,
                 require_more_issued=True, turn_index=7),
     ["0x1.3333333333334p-2", "0x1.dddddddddddddp-3", "0x1.199999999999ap-1",
      _ZERO, _ONE, "0x1.9999999999999p-1"] + [_ZERO] * 7
     + ["0x1.ddddddddddddep-3"]),
    (DialogState({"food": {"thai": 2 / 3}, "area": {"north": 0.3,
                                                    "south": 0.45}},
                 top_slu_score=1 / 3, slu_empty=False,
                 last_denied_slot="area", last_offer_outcome="duplicate",
                 turn_index=31),
     ["0x1.5555555555555p-1", _ZERO, "0x1.ccccccccccccdp-2",
      "0x1.3333333333333p-2", _ONE, "0x1.5555555555555p-2", _ZERO, _ZERO,
      _ONE, _ONE, _ZERO, _ONE, _ZERO, _ONE]),
]


@pytest.mark.parametrize("case", range(len(FEATURIZE_PINS)))
def test_featurize_pinned_to_the_bit(case):
    state, expected = FEATURIZE_PINS[case]
    assert [v.hex() for v in featurize(state, ("food", "area"))] == expected
