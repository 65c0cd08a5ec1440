import numpy as np
import pytest

from evodial.core import (ACTIONS, CORPUS_REWARDS, SIM_REWARDS, DialogAct,
                          DialogState, NBestList, RewardConfig,
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
