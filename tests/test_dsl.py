import math
import random

import numpy as np
import pytest

from evodial.core import (ACTIONS, SIM_REWARDS, STATE_VARIABLES,
                          ActionDecision, DialogState, feature_names, featurize,
                          variable_columns_from_features)
from evodial.dsl import (EQ_TOLERANCE, ArityMismatch, BoolVar, Clause,
                         Comparison, DanglingElse, LogicNode,
                         MissingStateVariable, StateSchema,
                         TemplateSyntaxError, TemplateValidationError,
                         UnknownIdentifier, _compile, ablate, evaluate_policy,
                         evaluate_policy_batch, parse_template, pretty_print,
                         template_policy)
from evodial.simulator import NoiseConfig, SimulatedDialogEnv, run_episode
from support import (interpret_policy, interpret_policy_batch,
                     random_state_columns, random_template)

SCHEMA = StateSchema(
    bool_vars=("a", "b", "slu_empty"),
    num_vars=("top_slu_score", "score"),
    actions=("X", "Y", "Repeat", "Welcome"),
)


def test_parse_single_comparison_clause():
    ast = parse_template("if top_slu_score < p0 then Repeat else Welcome", SCHEMA)
    assert ast.param_count == 1
    assert len(ast.clauses) == 2
    first = ast.clauses[0]
    assert first.condition == Comparison("top_slu_score", "<", 0)
    assert first.action.act == "Repeat"
    assert ast.clauses[1] == Clause(None, ast.clauses[1].action)
    assert ast.clauses[1].action.act == "Welcome"


def test_parse_boolean_and():
    ast = parse_template("if a and b then X else Y", SCHEMA)
    assert ast.clauses[0].condition == LogicNode("and", BoolVar("a"), BoolVar("b"))
    assert ast.param_count == 0


def test_and_binds_tighter_than_or():
    ast = parse_template("if a or b and slu_empty then X else Y", SCHEMA)
    cond = ast.clauses[0].condition
    assert cond == LogicNode("or", BoolVar("a"),
                             LogicNode("and", BoolVar("b"), BoolVar("slu_empty")))


def test_parentheses_override_precedence():
    ast = parse_template("if (a or b) and slu_empty then X else Y", SCHEMA)
    cond = ast.clauses[0].condition
    assert cond == LogicNode("and", LogicNode("or", BoolVar("a"), BoolVar("b")),
                             BoolVar("slu_empty"))


def test_chained_ops_fold_left():
    ast = parse_template("if a or b or slu_empty then X else Y", SCHEMA)
    cond = ast.clauses[0].condition
    assert cond == LogicNode("or", LogicNode("or", BoolVar("a"), BoolVar("b")),
                             BoolVar("slu_empty"))


def test_restaurant_template_shape(restaurant_ast):
    assert restaurant_ast.param_count == 4
    assert len(restaurant_ast.clauses) == 7
    assert restaurant_ast.clauses[-1].condition is None
    assert restaurant_ast.clauses[-1].action.act == "Offer"
    assert restaurant_ast.clauses[-1].action.structural_params == (("filter", 3),)
    assert restaurant_ast.has_structural_params


def test_terminal_only_template():
    ast = parse_template("Welcome", SCHEMA)
    assert len(ast.clauses) == 1
    assert ast.param_count == 0
    assert pretty_print(ast, include_schema=False) == "Welcome\n"


def test_comments_ignored():
    ast = parse_template("# leading\nif a then X # trailing\nelse Y\n", SCHEMA)
    assert len(ast.clauses) == 2


def test_syntax_error_carries_position():
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template("if a then X else\nif ? then X else Y", SCHEMA)
    assert err.value.line == 2
    assert err.value.column == 4


def test_unknown_state_variable_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_template("if nosuch then X else Y", SCHEMA)


def test_unknown_action_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_template("if a then Nope else Y", SCHEMA)


def test_bool_var_in_comparison_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_template("if a < p0 then X else Y", SCHEMA)


def test_dangling_else():
    with pytest.raises(DanglingElse):
        parse_template("if a then X", SCHEMA)


def test_trailing_text_after_terminal_rejected():
    with pytest.raises(TemplateSyntaxError):
        parse_template("if a then X else Y Y", SCHEMA)


def test_comparison_requires_parameter_rhs():
    with pytest.raises(TemplateSyntaxError):
        parse_template("if score < top_slu_score then X else Y", SCHEMA)


def test_sparse_parameter_indices_rejected():
    with pytest.raises(TemplateValidationError):
        parse_template("if score < p2 then X else Y", SCHEMA)


def test_schema_rejects_reserved_parameter_names():
    with pytest.raises(TemplateSyntaxError):
        parse_template("num p0\n%%\nWelcome")


def test_schema_rejects_duplicates():
    with pytest.raises(TemplateSyntaxError):
        parse_template("bool a\nnum a\naction X\n%%\nX")


def test_missing_schema_rejected():
    with pytest.raises(TemplateSyntaxError):
        parse_template("if a then X else Y")


def test_roundtrip_restaurant(restaurant_ast):
    assert parse_template(pretty_print(restaurant_ast)) == restaurant_ast


def test_roundtrip_random_templates():
    rng = random.Random(1234)
    for _ in range(120):
        ast = random_template(rng)
        assert parse_template(pretty_print(ast)) == ast


def test_first_match_wins():
    ast = parse_template("if a then X else if a then Y else Welcome", SCHEMA)
    decision = evaluate_policy(ast, [], {"a": True})
    assert decision.act == "X"
    assert decision.clause_index == 0
    # a plain mapping sets a boolean variable with any truthy value
    assert evaluate_policy(ast, [], {"a": 1}).clause_index == 0
    both = parse_template("if a and b then X else Welcome", SCHEMA)
    assert evaluate_policy(both, [], {"a": 1, "b": 2}).act == "X"


def test_terminal_fires_when_nothing_matches():
    ast = parse_template("if a then X else Welcome", SCHEMA)
    assert evaluate_policy(ast, [], {"a": False}).act == "Welcome"
    assert evaluate_policy(ast, [], {"a": 0.0}).act == "Welcome"
    either = parse_template("if a or b then X else Welcome", SCHEMA)
    assert evaluate_policy(either, [], {"a": 0.0, "b": 0}).act == "Welcome"


def test_comparison_semantics():
    ast = parse_template("if score < p0 then X else Y", SCHEMA)
    assert evaluate_policy(ast, [0.5], {"score": 0.4}).act == "X"
    assert evaluate_policy(ast, [0.5], {"score": 0.6}).act == "Y"
    # raising the threshold can only turn the leaf true, never false
    assert evaluate_policy(ast, [0.7], {"score": 0.4}).act == "X"


def test_equality_uses_tolerance():
    ast = parse_template("if score == p0 then X else Y", SCHEMA)
    assert evaluate_policy(ast, [0.3], {"score": 0.3 + 5e-10}).act == "X"
    assert evaluate_policy(ast, [0.3], {"score": 0.3 + 1e-6}).act == "Y"


def test_arity_mismatch():
    ast = parse_template("if score < p0 then X else Y", SCHEMA)
    with pytest.raises(ArityMismatch):
        evaluate_policy(ast, [0.1, 0.2], {"score": 0.5})


def test_missing_state_variable():
    ast = parse_template("if score < p0 then X else Y", SCHEMA)
    with pytest.raises(MissingStateVariable):
        evaluate_policy(ast, [0.5], {"other": 0.5})


def test_evaluation_on_dialog_state(restaurant_ast):
    state = DialogState(slot_beliefs={"food": {}, "area": {}, "pricerange": {},
                                      "name": {}})
    decision = evaluate_policy(restaurant_ast, [0.3, 0.8, 0.5, 0.5], state)
    assert decision.act == "Welcome"


def test_empty_slu_repeats(restaurant_ast):
    state = DialogState(slot_beliefs={"food": {}, "area": {}, "pricerange": {},
                                      "name": {}},
                        slu_empty=True, turn_index=3)
    assert evaluate_policy(restaurant_ast, [0.3, 0.8, 0.5, 0.5], state).act == "Repeat"


def test_midscore_slot_confirmed(restaurant_ast):
    # hand trace: food at 0.5 is the weakest slot, below p1=0.8 and above p2=0.3
    state = DialogState(
        slot_beliefs={"food": {"thai": 0.5}, "area": {"north": 1.0},
                      "pricerange": {"cheap": 1.0}, "name": {"efes": 1.0}},
        top_slu_score=0.9, slu_empty=False, turn_index=4)
    decision = evaluate_policy(restaurant_ast, [0.3, 0.8, 0.3, 0.5], state)
    assert decision.act == "ExplicitConf"
    assert decision.slot == "food"
    assert decision.value == "thai"


def test_offer_filter_uses_structural_param(restaurant_ast):
    state = DialogState(
        slot_beliefs={"food": {"thai": 0.95}, "area": {"north": 0.9},
                      "pricerange": {"cheap": 0.85}, "name": {"efes": 0.6}},
        top_slu_score=0.9, slu_empty=False, require_more_issued=True,
        turn_index=6)
    decision = evaluate_policy(restaurant_ast, [0.3, 0.55, 0.3, 0.7], state)
    assert decision.act == "Offer"
    assert dict(decision.offer_pairs) == {"food": "thai", "area": "north",
                                          "pricerange": "cheap"}


def test_batch_matches_scalar_evaluation():
    rng_py = random.Random(77)
    rng_np = np.random.default_rng(77)
    for _ in range(25):
        ast = random_template(rng_py, structural=False)
        params = rng_np.random(ast.param_count)
        cols = random_state_columns(rng_np, ast.schema, 64)
        index = {a: i for i, a in enumerate(ast.schema.actions)}
        batch = evaluate_policy_batch(ast, params, cols, index)
        for i in range(64):
            state = {k: v[i] for k, v in cols.items()}
            assert index[evaluate_policy(ast, params, state).act] == batch[i]


def test_drivers_and_derivations_agree_on_dialog_states_property(
        restaurant_ast, ontology):
    # evaluate_policy on a DialogState reads DialogState.variables();
    # evaluate_policy_batch on its feature row reads the column derivation
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = feature_names(ontology.slots)
    index = {a: i for i, a in enumerate(ACTIONS)}
    full_schema = StateSchema(
        ("dialog_begin", "slu_empty", "slot_denied", "require_more_pending"),
        ("top_slu_score", "min_slot_score", "max_slot_score", "filled_frac",
         "turn_frac"), ACTIONS)
    score = st.floats(0.0, 1.0)
    states = st.builds(
        DialogState,
        slot_beliefs=st.fixed_dictionaries({
            slot: st.dictionaries(st.sampled_from(ontology.values[slot]),
                                  score, max_size=3)
            for slot in ontology.slots}),
        top_slu_score=score, slu_empty=st.booleans(),
        last_denied_slot=st.none() | st.sampled_from(ontology.slots),
        require_more_issued=st.booleans(), turn_index=st.integers(0, 40))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(state=states, template_seed=st.integers(-1, 2 ** 16),
                      draw=st.data())
    def check(state, template_seed, draw):
        ast = restaurant_ast if template_seed < 0 else random_template(
            random.Random(template_seed), schema=full_schema)
        # thresholds equal to the state's own values exercise == and the
        # strict comparisons at their boundary
        own = [v for v in state.variables().values()
               if not isinstance(v, bool)]
        params = [draw.draw(score | st.sampled_from(own))
                  for _ in range(ast.param_count)]
        decision = evaluate_policy(ast, params, state)
        cols = variable_columns_from_features(
            featurize(state, ontology.slots)[None, :], names)
        assert {k: v[0] for k, v in cols.items()} == state.variables()
        assert evaluate_policy_batch(ast, params, cols, index).tolist() == \
            [index[decision.act]]

    check()


def test_determinism_of_evaluation():
    rng_py = random.Random(5)
    ast = random_template(rng_py, structural=False)
    params = np.full(ast.param_count, 0.4)
    state = {k: 0.3 for k in ast.schema.num_vars} | \
            {k: True for k in ast.schema.bool_vars}
    first = evaluate_policy(ast, params, state)
    for _ in range(5):
        assert evaluate_policy(ast, params, state) == first


def test_ablate_drops_clause(restaurant_ast):
    ablated = ablate(restaurant_ast, [4])
    assert len(ablated.clauses) == 6
    assert ablated.param_count == restaurant_ast.param_count
    acts = [c.action.act for c in ablated.clauses]
    assert acts.count("Request") == 1  # the re-request clause is gone


def test_ablate_rejects_bad_index(restaurant_ast):
    with pytest.raises(TemplateValidationError):
        ablate(restaurant_ast, [6])  # only c0..c5 are conditional


# ---------------------------------------------------------------------------
# Compiled templates against the interpreter
# ---------------------------------------------------------------------------

_TABLE_BOOLS = ("dialog_begin", "slu_empty", "slot_denied",
                "require_more_pending")
_TABLE_NUMS = ("top_slu_score", "min_slot_score", "max_slot_score",
               "filled_frac", "turn_frac")
# Python keywords, builtins and the compiler's own identifiers are all legal
# template names; none may change what a template decides
_ODD_NAMES = ("lambda", "s", "get", "__import__", "abs", "v0", "t", "None",
              "yield", "bind", "decide", "resolve_action", "p_0")
_LABELS = (*ACTIONS, "class")
_EDGES = (0.0, 0.0, EQ_TOLERANCE, -EQ_TOLERANCE,
          math.nextafter(EQ_TOLERANCE, 1.0), 2 * EQ_TOLERANCE)


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _odd_templates(st, var_names):
    """Templates over a schema drawn from ``var_names`` and the odd names,
    with nested conditions, ``filter`` parameters and ablated clauses."""

    @st.composite
    def templates(draw):
        names = draw(st.lists(st.sampled_from(var_names), min_size=2,
                              max_size=7, unique=True))
        names += [n for n in draw(st.lists(st.sampled_from(_ODD_NAMES),
                                           max_size=2, unique=True))
                  if n not in names]
        names = draw(st.permutations(names))
        split = draw(st.integers(1, len(names) - 1))
        labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1,
                               max_size=4, unique=True))
        schema = StateSchema(tuple(names[:split]), tuple(names[split:]),
                             tuple(labels))
        ast = random_template(random.Random(draw(st.integers(0, 2 ** 32))),
                              schema=schema)
        assert parse_template(pretty_print(ast)) == ast  # a legal template
        n_cond = ast.conditional_clause_count()
        drop = draw(st.lists(st.integers(0, max(n_cond - 1, 0)), max_size=2,
                             unique=True)) if n_cond else []
        return ablate(ast, drop)

    return templates()


def _params(draw, st, ast, own):
    """Parameters at the state's own values or anywhere in [0, 1], or at
    the tolerance edge around them; around 0.0 the edge is exact."""
    bases = st.just(0.0) | st.floats(0.0, 1.0) | st.sampled_from(own or [0.5])
    return [draw(bases) + draw(st.sampled_from(_EDGES))
            for _ in range(ast.param_count)]


def _episode_states(ontology, restaurant_ast):
    env = SimulatedDialogEnv(ontology, NoiseConfig(0.0), SIM_REWARDS)
    policy = template_policy(restaurant_ast, [0.3, 0.8, 0.5, 0.5])
    states = []
    for seed, rate in enumerate((0.0, 0.2, 0.4, 0.6)):
        log = run_episode(policy, env, random.Random(seed), error_rate=rate)
        states += [t.state for t in log.turns] + [log.final_state]
    return states


def test_compiled_state_policy_matches_the_interpreter_property(
        ontology, restaurant_ast):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # tied and empty beliefs: 0.5 is the filled_frac cut, ties go to
    # the larger value
    score = st.sampled_from((0.0, 0.3, 0.5, 1.0)) | st.floats(0.0, 1.0)
    synthetic = st.builds(
        DialogState,
        slot_beliefs=st.fixed_dictionaries({
            slot: st.dictionaries(st.sampled_from(ontology.values[slot][:3]),
                                  score, max_size=3)
            for slot in ontology.slots}),
        top_slu_score=score, slu_empty=st.booleans(),
        last_denied_slot=st.none() | st.sampled_from(ontology.slots),
        require_more_issued=st.booleans(), turn_index=st.integers(0, 40))
    states = st.sampled_from(_episode_states(ontology, restaurant_ast)) \
        | synthetic
    # the shipped template with clauses dropped reaches Offer(filter=p3)
    # often, and with all of them dropped on every state
    templates = st.sets(st.integers(0, 5)).map(
        lambda drop: ablate(restaurant_ast, sorted(drop))) | st.just(
        ablate(restaurant_ast, range(6))) | _odd_templates(
        st, _TABLE_BOOLS + _TABLE_NUMS)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(ast=templates, state=states, draw=st.data())
    def check(ast, state, draw):
        own = [v for v in state.variables().values()
               if not isinstance(v, bool)]
        params = _params(draw.draw, st, ast, own)
        expected = _outcome(lambda: interpret_policy(ast, params, state))
        assert _outcome(lambda: evaluate_policy(ast, params, state)) == \
            expected
        assert _outcome(lambda: template_policy(ast, params)(state)) == \
            expected

    check()


def test_compiled_batch_and_mapping_match_the_interpreter_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = ("flag", "score", "other") + _ODD_NAMES

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(ast=_odd_templates(st, names), draw=st.data())
    def check(ast, draw):
        params = _params(draw.draw, st, ast, [])
        n = draw.draw(st.integers(1, 6))
        near = st.sampled_from(params or [0.5]).flatmap(
            lambda p: st.sampled_from([p + e for e in _EDGES]))
        cols = {}
        for name in ast.schema.bool_vars:  # 1 & 2 is 0, True & True is not
            cols[name] = np.array(draw.draw(st.lists(
                st.integers(0, 2), min_size=n, max_size=n)))
        for name in ast.schema.num_vars:
            cols[name] = np.array(draw.draw(st.lists(
                near | st.floats(0.0, 1.0), min_size=n, max_size=n)),
                dtype=np.float64)
        for name in draw.draw(st.lists(st.sampled_from(sorted(cols)),
                                       max_size=1)):
            del cols[name]  # a missing variable, read or not
        if not cols:
            return
        index = {a: i for i, a in enumerate(ast.schema.actions[1:])}
        assert _outcome(lambda: evaluate_policy_batch(
            ast, params, cols, index).tolist()) == _outcome(
            lambda: interpret_policy_batch(ast, params, cols, index).tolist())
        for i in range(n):
            row = {k: v[i] for k, v in cols.items()}
            assert _outcome(lambda: evaluate_policy(ast, params, row)) == \
                _outcome(lambda: interpret_policy(ast, params, row))

    check()


def _code_names(code) -> set[str]:
    names = {*code.co_names, *code.co_varnames, *code.co_freevars}
    names |= {c for c in code.co_consts if isinstance(c, str)}
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


@pytest.mark.parametrize("target", ["state", "mapping"])
def test_compiled_source_holds_no_template_name(target):
    schema = StateSchema(("zz_flag", "slu_empty"), ("zz_score",),
                         ("zz_Act", "Offer"))
    ast = parse_template("if zz_flag or zz_score == p0 then zz_Act "
                         "else if slu_empty and zz_score < p1 then Offer "
                         "else Offer(filter=p2)", schema)
    bind, names = _compile(ast, target)
    assert names == ("zz_flag", "zz_score", "slu_empty")
    seen = _code_names(bind.__code__)
    # labels enter as repr()s, so as string constants; variable names never
    assert {n for n in seen if n.startswith("zz_")} <= {"zz_Act"}
    if target == "state":  # read off the DialogState's attribute
        assert "slu_empty" in seen


def test_clause_size_is_bounded():
    # deep nesting used to end in a RecursionError, and the compiled source
    # may nest only so deep
    schema = StateSchema(("a",), ("x",), ("X", "Y"))
    state = {"a": False, "x": 0.5}
    for cond in (" or ".join(["a"] * 101),
                 "(" * 50 + "a" + " and x == p0)" * 50):
        ast = parse_template(f"if {cond} then X else Y", schema)
        params = [0.5] * ast.param_count
        assert evaluate_policy(ast, params, state) == \
            interpret_policy(ast, params, state) == ActionDecision("Y",
                                                                   clause_index=1)
    for cond in (" or ".join(["a"] * 102), "(" * 101 + "a" + ")" * 101,
                 "(" * 2000 + "a" + ")" * 2000):
        with pytest.raises(TemplateSyntaxError, match="at most 100 'and'"):
            parse_template(f"if {cond} then X else Y", schema)


def test_last_filter_parameter_sets_the_offer_threshold():
    schema = StateSchema((), (), ("Offer",))
    ast = parse_template("Offer(filter=p0, filter=p1)", schema)
    state = DialogState({"food": {"thai": 0.6}, "area": {"north": 0.9}})
    decision = template_policy(ast, [0.1, 0.7])(state)
    assert decision.offer_pairs == (("area", "north"),)
    assert decision == interpret_policy(ast, [0.1, 0.7], state)


def test_missing_variable_raised_at_the_clause_that_reads_it():
    schema = StateSchema(("a", "zz"), (), ("X", "Y"))
    ast = parse_template("if a then X else if zz then Y else X", schema)
    assert evaluate_policy(ast, [], {"a": True}).clause_index == 0
    with pytest.raises(MissingStateVariable, match="'zz'"):
        evaluate_policy(ast, [], {"a": False})
    state = DialogState({"food": {}}, turn_index=0)
    flag = parse_template("if dialog_begin then X else if zz then Y else X",
                          StateSchema(("dialog_begin", "zz"), (), ("X", "Y")))
    assert template_policy(flag, [])(state).clause_index == 0
    with pytest.raises(MissingStateVariable, match="'zz'"):
        template_policy(flag, [])(DialogState({"food": {}}, turn_index=1))
    assert set(STATE_VARIABLES) == set(_TABLE_BOOLS + _TABLE_NUMS)
