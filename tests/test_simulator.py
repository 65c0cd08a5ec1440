import copy
import hashlib
import random

import numpy as np
import pytest

from evodial.core import (SIM_REWARDS, ActionDecision, DialogAct,
                          DialogState, NBestList, discounted_return)
from evodial import simulator
from evodial.simulator import (HEURISTIC_PARAMS, AgendaUser, BeliefTracker,
                               NoiseConfig,
                               PolicyError, SimulatedDialogEnv,
                               SimulationFitness, SluChannel,
                               evaluate_policy_sim, exploring_policy,
                               Ontology, run_episode, sample_goal,
                               template_policy)
from support import ListSwapChannel, episode_rewards, fitness_simulation

RULE_PARAMS = [0.3, 0.8, 0.5, 0.5]


def _channel(ontology, rate, nbest=3):
    return SluChannel(ontology, NoiseConfig(rate, nbest_size=nbest))


def _inform(slot="food", value="thai"):
    return DialogAct("inform", ((slot, value),))


def test_noiseless_top_hypothesis_is_truth(ontology):
    channel = _channel(ontology, 0.0)
    rng = random.Random(0)
    for _ in range(200):
        nbest = channel.corrupt(_inform(), rng)
        assert nbest.top.same_semantics(_inform())
        confs = [h.confidence for h in nbest.hypotheses]
        assert confs == sorted(confs, reverse=True)
        assert all(0.0 <= c <= 1.0 for c in confs)


def test_saturated_noise_never_keeps_truth(ontology):
    channel = _channel(ontology, 1.0)
    rng = random.Random(1)
    for _ in range(300):
        nbest = channel.corrupt(_inform(), rng)
        assert nbest.is_empty or not nbest.top.same_semantics(_inform())


def test_channel_calibration_quick(ontology):
    rng = random.Random(2)
    for rate in (0.2, 0.5):
        channel = _channel(ontology, rate)
        errors = 0
        n = 20_000
        for _ in range(n):
            nbest = channel.corrupt(_inform(), rng)
            if nbest.is_empty or not nbest.top.same_semantics(_inform()):
                errors += 1
        assert errors / n == pytest.approx(rate, abs=0.02)


def test_nbest_size_respected(ontology):
    rng = random.Random(3)
    channel = _channel(ontology, 0.3, nbest=5)
    sizes = [len(channel.corrupt(_inform(), rng).hypotheses) for _ in range(200)]
    assert max(sizes) <= 5


def test_contentless_act_corruption_empties_slu(ontology):
    channel = _channel(ontology, 1.0)
    rng = random.Random(4)
    nbest = channel.corrupt(DialogAct("negate"), rng)
    assert nbest.is_empty


def test_tracker_merges_max_confidence(ontology):
    tracker = BeliefTracker(ontology)
    state = tracker.initial_state()
    decision = ActionDecision("Request", slot="food")
    nbest = lambda c: __import__("evodial").NBestList(
        (DialogAct("inform", (("food", "thai"),), c),))
    state = tracker.update(state, decision, nbest(0.6))
    assert state.slot_beliefs["food"]["thai"] == 0.6
    state = tracker.update(state, decision, nbest(0.4))
    assert state.slot_beliefs["food"]["thai"] == 0.6  # max wins
    state = tracker.update(state, decision, nbest(0.9))
    assert state.slot_beliefs["food"]["thai"] == 0.9
    assert state.turn_index == 3


def test_tracker_denial_resets_slot(ontology):
    from evodial import NBestList
    tracker = BeliefTracker(ontology)
    state = tracker.initial_state()
    state = tracker.update(state, ActionDecision("Request", slot="food"),
                           NBestList((DialogAct("inform", (("food", "thai"),), 0.7),)))
    deny = NBestList((DialogAct("deny", (("food", "thai"),), 0.8),))
    state = tracker.update(state, ActionDecision("ExplicitConf", slot="food",
                                                 value="thai"), deny)
    assert state.slot_beliefs["food"] == {}
    assert state.last_denied_slot == "food"
    # the denial flag only covers the turn right after it happened
    state = tracker.update(state, ActionDecision("Request", slot="food"),
                           NBestList(()))
    assert state.last_denied_slot is None


def test_tracker_accepted_confirmation_pins_score(ontology):
    from evodial import NBestList
    tracker = BeliefTracker(ontology)
    state = tracker.initial_state()
    affirm = NBestList((DialogAct("affirm", (("food", "thai"),), 0.6),))
    state = tracker.update(state, ActionDecision("ExplicitConf", slot="food",
                                                 value="thai"), affirm)
    assert state.slot_beliefs["food"]["thai"] == 1.0


def test_agenda_user_answers_request(ontology):
    rng = random.Random(5)
    goal = sample_goal(ontology, rng)
    user = AgendaUser(goal, rng)
    act = user.respond(ActionDecision("Request", slot="area"))
    assert act.act == "inform"
    assert act.slot_values == (("area", goal.constraints["area"]),)


def test_agenda_user_confirms_and_denies(ontology):
    rng = random.Random(6)
    goal = sample_goal(ontology, rng)
    user = AgendaUser(goal, rng)
    truth = goal.constraints["food"]
    assert user.respond(ActionDecision("ExplicitConf", slot="food",
                                       value=truth)).act == "affirm"
    assert user.respond(ActionDecision("ExplicitConf", slot="food",
                                       value="__wrong__")).act == "deny"


def test_agenda_user_accepts_correct_offer(ontology):
    rng = random.Random(7)
    goal = sample_goal(ontology, rng)
    user = AgendaUser(goal, rng)
    pairs = tuple(sorted(goal.constraints.items()))
    assert user.respond(ActionDecision("Offer", offer_pairs=pairs)).act == "bye"
    assert user.goal.satisfied


def test_agenda_user_repeats_last_act(ontology):
    rng = random.Random(8)
    user = AgendaUser(sample_goal(ontology, rng), rng)
    first = user.respond(ActionDecision("Welcome"))
    again = user.respond(ActionDecision("Repeat"))
    assert again == first


def test_noiseless_episode_succeeds_quickly(ontology, restaurant_ast):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(restaurant_ast, RULE_PARAMS)
    log = run_episode(policy, env, random.Random(11), error_rate=0.0)
    assert log.outcome == "success"
    assert len(log.turns) <= 12
    assert log.turns[0].decision.act == "Welcome"
    assert log.turns[-1].decision.act == "Offer"
    assert log.turns[-1].reward == 99.0


def test_episode_rewards_match_discounted_return(ontology, restaurant_ast):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(restaurant_ast, RULE_PARAMS)
    for seed in range(10):
        log = run_episode(policy, env, random.Random(seed), error_rate=0.3)
        assert log.discounted_reward == pytest.approx(
            discounted_return(episode_rewards(log), SIM_REWARDS.gamma))


def test_always_repeat_times_out_without_patience(ontology):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS,
                             max_turns=30, patience=None)
    policy = lambda state: ActionDecision("Repeat")
    log = run_episode(policy, env, random.Random(12), error_rate=0.0)
    assert log.outcome == "timeout"
    assert len(log.turns) == 30
    expected = sum(-1.0 * 0.9 ** j for j in range(30))
    assert log.discounted_reward == pytest.approx(expected)


def test_always_repeat_hits_patience_by_default(ontology):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = lambda state: ActionDecision("Repeat")
    log = run_episode(policy, env, random.Random(13), error_rate=0.0)
    assert log.outcome == "failure"
    assert len(log.turns) == 3


def test_episode_determinism(ontology, restaurant_ast):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(restaurant_ast, RULE_PARAMS)
    a = run_episode(policy, env, random.Random(99), error_rate=0.4)
    b = run_episode(policy, env, random.Random(99), error_rate=0.4)
    assert [t.decision for t in a.turns] == [t.decision for t in b.turns]
    assert episode_rewards(a) == episode_rewards(b)
    assert a.outcome == b.outcome


def test_policy_error_carries_turn(ontology):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)

    def broken(state):
        if state.turn_index == 2:
            raise ValueError("nope")
        return ActionDecision("Request", slot="food")

    with pytest.raises(PolicyError) as err:
        run_episode(broken, env, random.Random(14), error_rate=0.0)
    assert err.value.turn == 2


def test_duplicate_offer_penalized(ontology):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    env.reset(random.Random(15), error_rate=0.0)
    wrong = (("area", "north"), ("food", "thai"))
    first = env.step(ActionDecision("Offer", offer_pairs=wrong))
    second = env.step(ActionDecision("Offer", offer_pairs=wrong))
    assert first[1] == SIM_REWARDS.per_turn + SIM_REWARDS.wrong_offer
    assert second[1] == SIM_REWARDS.per_turn + SIM_REWARDS.duplicate_offer
    assert first[0].last_offer_outcome == "wrong"
    assert second[0].last_offer_outcome == "duplicate"


def test_fitness_simulation_deterministic(ontology, restaurant_ast):
    args = (restaurant_ast, RULE_PARAMS, 8, (0.0, 0.3), SIM_REWARDS, 123)
    assert fitness_simulation(*args, ontology=ontology) == \
        fitness_simulation(*args, ontology=ontology)


def test_fitness_simulation_single_episode_equals_return(ontology, restaurant_ast):
    fitness = SimulationFitness(restaurant_ast, ontology, SIM_REWARDS,
                                n_episodes=1, schedule=(0.2,))
    rng = np.random.default_rng(np.random.SeedSequence([7]))
    value = fitness.evaluate(np.asarray(RULE_PARAMS), rng)
    # replay the identical episode stream by hand
    rng2 = np.random.default_rng(np.random.SeedSequence([7]))
    rng2.integers(0, 1, size=1)  # the schedule draw
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    log = run_episode(template_policy(restaurant_ast, RULE_PARAMS), env,
                      random.Random(int(rng2.integers(0, 2 ** 62))),
                      error_rate=0.2)
    assert value == pytest.approx(log.discounted_reward)


def test_completion_degrades_with_noise(ontology, restaurant_ast):
    policy = template_policy(restaurant_ast, RULE_PARAMS)
    low = evaluate_policy_sim(policy, ontology, SIM_REWARDS, 200, 5,
                              error_rate=0.0)
    high = evaluate_policy_sim(policy, ontology, SIM_REWARDS, 200, 5,
                               error_rate=0.5)
    assert low.completion_rate > high.completion_rate
    assert low.mean_reward > high.mean_reward


def test_exploring_policy_mixes_actions(ontology, restaurant_ast):
    base = template_policy(restaurant_ast, RULE_PARAMS)
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    state = env.reset(random.Random(16), error_rate=0.0)
    explore = exploring_policy(base, 1.0, random.Random(0),
                               ("Repeat", "Welcome"))
    acts = {explore(state).act for _ in range(50)}
    assert acts <= {"Repeat", "Welcome"}
    assert len(acts) == 2


def _beliefs(state):
    return [(slot, sorted((v, s.hex()) for v, s in beliefs.items()))
            for slot, beliefs in state.slot_beliefs.items()]


def _turn_trace_digest(ast, ontology, params, error_rate, n_episodes=40):
    """sha256 over every turn of seeded episodes: the belief dicts, the
    decision, the user act, the N-best list and the reward, floats in hex."""
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(ast, params)
    digest = hashlib.sha256()
    for seed in range(n_episodes):
        log = run_episode(policy, env, random.Random(seed),
                          error_rate=error_rate)
        for t in log.turns:
            nbest = [(h.act, h.slot_values, h.confidence.hex())
                     for h in t.nbest.hypotheses]
            digest.update(repr((_beliefs(t.state), t.state.top_slu_score.hex(),
                                t.decision, t.user_act, nbest,
                                t.reward.hex())).encode())
        digest.update(repr((_beliefs(log.final_state), log.outcome,
                            log.discounted_reward.hex())).encode())
    return digest.hexdigest()


# Any change to the order or arguments of the simulator's random.Random
# calls, or to what a turn computes from them, changes these digests.
_TURN_TRACES = {
    (HEURISTIC_PARAMS, 0.0):
        "a4cbcd35ca6a9cc1794586586fade52bfaf615b0b6ee50396044bbc236129466",
    (HEURISTIC_PARAMS, 0.3):
        "3c63561c735f89cb825a821563afab10cfe30988d68fbfb096cfd6c49ac55506",
    (HEURISTIC_PARAMS, 0.6):
        "b974d30a96dbfe6ceb96509ac42505dd468f9af7597d4f33f90a8912314c8785",
    ((0.1, 0.95, 0.25, 0.3), 0.0):
        "5c88a3ff2807d0007f4364768ddac060855895e980275a85d77243463d561593",
    ((0.1, 0.95, 0.25, 0.3), 0.3):
        "463c5d2a2b329134ff70f23046f7637fc83761a4e48dff70ff5a25aa81081b64",
    ((0.1, 0.95, 0.25, 0.3), 0.6):
        "d60fbc6c5cfecf4a4715369c4de0e1e675f15d781ae007624a53d8e21ed56cc4",
}


@pytest.mark.parametrize("params, error_rate", list(_TURN_TRACES), ids=[
    f"{'heuristic' if p == HEURISTIC_PARAMS else 'confirming'}-{rate}"
    for p, rate in _TURN_TRACES])
def test_turn_trace_is_pinned(ontology, restaurant_ast, params, error_rate):
    assert _turn_trace_digest(restaurant_ast, ontology, params, error_rate) \
        == _TURN_TRACES[params, error_rate]


def test_state_tops_and_tracker_update_property(ontology):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # few distinct scores, so ties between values are common
    score = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
    beliefs = st.fixed_dictionaries({
        slot: st.dictionaries(st.sampled_from(ontology.values[slot]), score,
                              max_size=4)
        for slot in ontology.slots})
    pairs = st.tuples(st.sampled_from(ontology.slots), st.text(max_size=3)) | \
        st.sampled_from([(s, v) for s in ontology.slots
                         for v in ontology.values[s]])
    hyp = st.builds(DialogAct, st.sampled_from(["inform", "affirm", "deny"]),
                    st.lists(pairs, max_size=2).map(tuple), score)
    nbests = st.lists(hyp, max_size=3).map(
        lambda hs: NBestList(tuple(sorted(hs, key=lambda h: -h.confidence))))
    decisions = st.builds(ActionDecision,
                          st.sampled_from(["ExplicitConf", "Request", "Offer"]),
                          slot=st.sampled_from(ontology.slots),
                          value=st.none() | st.sampled_from(ontology.values["food"]))

    def top(b):
        value = max(b, key=lambda v: (b[v], v))
        return value, b[value]

    def tops_from_scratch(state):
        return {slot: top(b) if b else None
                for slot, b in state.slot_beliefs.items()}

    tracker = BeliefTracker(ontology)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(beliefs=beliefs, decision=decisions, nbest=nbests)
    def check(beliefs, decision, nbest):
        state = DialogState(slot_beliefs=beliefs)
        assert state.tops == tops_from_scratch(state)
        before = copy.deepcopy(state.slot_beliefs)
        after = tracker.update(state, decision, nbest)
        assert state.slot_beliefs == before
        assert after.tops == tops_from_scratch(after)

    check()


def test_channel_swap_pools_match_the_list_swap_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = st.text("abc", min_size=1, max_size=2)
    ontologies = st.dictionaries(names, st.lists(names, max_size=4),
                                 min_size=1, max_size=3).map(
        lambda slots: Ontology(tuple(slots),
                               {s: tuple(v) for s, v in slots.items()}))

    @st.composite
    def cases(draw):
        ontology = draw(ontologies)
        # slots and values outside the ontology too, and repeated slots
        pair = st.tuples(st.sampled_from(ontology.slots) | names,
                         st.sampled_from(sum(ontology.values.values(), ()))
                         | names if any(ontology.values.values()) else names)
        acts = st.builds(DialogAct, st.sampled_from(["inform", "deny",
                                                     "affirm", "negate"]),
                         st.lists(pair, max_size=3).map(tuple))
        cfg = NoiseConfig(draw(st.floats(0.0, 1.0)),
                          nbest_size=draw(st.integers(1, 5)))
        return ontology, cfg, draw(st.lists(acts, min_size=1, max_size=8))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case=cases(), seed=st.integers(0, 2 ** 64))
    def check(case, seed):
        ontology, cfg, acts = case
        # two channels over one ontology share its pools, and later swaps
        # reuse them
        channels = SluChannel(ontology, cfg), SluChannel(ontology, cfg)
        oracle = ListSwapChannel(ontology, cfg)
        ours, theirs = random.Random(seed), random.Random(seed)
        for i, act in enumerate(acts * 3):
            assert channels[i % 2].corrupt(act, ours) == \
                oracle.corrupt(act, theirs)
            assert ours.getstate() == theirs.getstate()

    check()


def test_channel_beta_draws_match_the_stdlib():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cfg = NoiseConfig(0.0)
    above_1 = st.floats(1.0, 50.0, exclude_min=True)
    shapes = st.one_of(
        st.sampled_from([cfg.correct_conf, cfg.incorrect_conf]),
        st.tuples(above_1, above_1),
        # a shape of at most 1 falls back to the stdlib
        st.tuples(st.floats(0.05, 1.0), above_1 | st.floats(0.05, 1.0)),
        st.tuples(above_1, st.just(1.0)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(shapes=shapes, seed=st.integers(0, 2 ** 64))
    def check(shapes, seed):
        draw = NoiseConfig(0.0, correct_conf=shapes).draw_correct
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert draw(ours) == stdlib.betavariate(*shapes)
        assert ours.random() == stdlib.random()

    check()


@pytest.mark.parametrize("field", ["correct_conf", "incorrect_conf"])
@pytest.mark.parametrize("shapes", [
    (float("nan"), 2.0), (2.0, float("nan")), (float("inf"), 2.0),
    (0.0, 2.0), (2.0, -1.0), (2.0,), (2.0, 5.0, 1.0),
])
def test_bad_beta_shapes_are_rejected_before_any_draw(field, shapes):
    # a NaN shape made the first draw loop forever, so nothing is drawn here
    with pytest.raises(ValueError, match=f"{field} must hold two finite "
                                         f"Beta shapes above 0"):
        NoiseConfig(0.1, **{field: shapes})


@pytest.mark.parametrize("error_rate", [0.0, 0.3, 0.6])
def test_unrecorded_episodes_match_recorded_ones(ontology, restaurant_ast,
                                                 error_rate):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(restaurant_ast, HEURISTIC_PARAMS)
    for seed in range(30):
        full = run_episode(policy, env, random.Random(seed), error_rate)
        bare = run_episode(policy, env, random.Random(seed), error_rate,
                           record=False)
        assert bare.turns is None and full.n_turns == len(full.turns)
        assert (bare.discounted_reward, bare.n_turns, bare.outcome) == \
            (full.discounted_reward, full.n_turns, full.outcome)
        assert bare.final_state == full.final_state
        assert bare.final_state.tops == full.final_state.tops


def test_fitness_and_evaluation_build_no_turn_records(ontology, restaurant_ast,
                                                      monkeypatch):
    def no_records(*args, **kwargs):
        raise AssertionError("a turn record was built")

    monkeypatch.setattr(simulator, "TurnRecord", no_records)
    fitness = SimulationFitness(restaurant_ast, ontology, SIM_REWARDS,
                                n_episodes=8)
    fitness.evaluate(np.asarray(RULE_PARAMS), np.random.default_rng(3))
    evaluate_policy_sim(template_policy(restaurant_ast, RULE_PARAMS),
                        ontology, SIM_REWARDS, 8, 4, error_rate=0.3)
    with pytest.raises(AssertionError, match="turn record"):
        run_episode(template_policy(restaurant_ast, RULE_PARAMS),
                    SimulatedDialogEnv(ontology, NoiseConfig(0.0),
                                       SIM_REWARDS), random.Random(0))
