import json

import numpy as np
import pytest

from evodial.core import CORPUS_REWARDS, RewardConfig
from evodial.corpus_io import (Corpus, CorpusHeader, CorpusParseError,
                               MissingTerminal, ResamplePlan, SchemaMismatch,
                               load_corpus, resample_splits, save_corpus)
from evodial.simulator import make_synthetic_corpus
from support import (CHAIN_ACTIONS, CHAIN_HEADER, CHAIN_REWARDS, chain_corpus,
                     corpus_from_rows, save_corpus_by_record)

HEADER = CHAIN_HEADER
COLUMNS = ("S", "A", "S_next", "terminal", "dialog_id", "turn", "starts")


def _write(tmp_path, corpus, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus(str(path), corpus)
    return path


def _assert_same_corpus(a, b):
    assert a.header == b.header
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        # bitwise, so that -0.0 and 0.0 differ
        assert x.tobytes() == y.tobytes(), name


def test_empty_body_with_valid_header(tmp_path):
    path = _write(tmp_path, corpus_from_rows([]))
    corpus = load_corpus(str(path))
    assert len(corpus) == 0 and corpus.n_dialogs == 0
    assert corpus.S.shape == (0, len(HEADER.feature_names))
    assert corpus.header == HEADER


def test_write_then_read_identity(tmp_path):
    originals = chain_corpus(10)
    path = _write(tmp_path, originals)
    loaded = load_corpus(str(path))
    assert (loaded.n_dialogs, len(loaded)) == (10, len(originals))
    _assert_same_corpus(originals, loaded)


def test_save_load_save_is_byte_identical(tmp_path, restaurant_ast, ontology):
    corpus = make_synthetic_corpus(
        restaurant_ast, [0.3, 0.8, 0.5, 0.5], ontology, n_episodes=12, seed=4,
        rewards=CORPUS_REWARDS, epsilon=0.2)
    first = tmp_path / "a.jsonl"
    save_corpus(str(first), corpus)
    loaded = load_corpus(str(first))
    _assert_same_corpus(corpus, loaded)
    second = tmp_path / "b.jsonl"
    save_corpus(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()


def test_floats_survive_17_digit_round_trip(tmp_path):
    tricky = np.array([1 / 3, 0.1, 1e-17, 0.9999999999999999, -0.0])
    header = CorpusHeader("dlg-v1", tuple(f"f{i}" for i in range(5)),
                          CHAIN_ACTIONS, CHAIN_REWARDS)
    corpus = Corpus(header, [tricky], [0], [tricky], [True], [0], [0])
    loaded = load_corpus(str(_write(tmp_path, corpus)))
    assert loaded.S[0].tobytes() == tricky.tobytes()


@pytest.mark.parametrize("spoil", ["nan-reward", "inf-feature"])
def test_failed_save_leaves_the_file_as_it_was(tmp_path, spoil):
    path = _write(tmp_path, chain_corpus(3))
    before = path.read_bytes()
    if spoil == "nan-reward":
        bad = chain_corpus(2, rewards=RewardConfig(np.nan, 10.0, 0.0, 0.0,
                                                   0.9))
    else:
        bad = chain_corpus(2)
        bad.S_next[-1, 0] = np.inf  # past the constructor's check
    with pytest.raises(ValueError, match="finite"):
        save_corpus(str(path), bad)
    assert path.read_bytes() == before


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1]  # truncate a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 3


@pytest.mark.parametrize("field, literal", [
    ('"dialog_id": 0', '"dialog_id": 0.9'),
    ('"turn": 1', '"turn": "1"'),
    ('"turn": 1', '"turn": true'),
    ('"terminal": true', '"terminal": "no"'),
    ('"a": "advance"', '"a": 1'),
], ids=["float-dialog-id", "string-turn", "bool-turn", "string-terminal",
        "number-action"])
def test_mistyped_scalar_field_rejected_with_line(tmp_path, field, literal):
    lines = _write(tmp_path, chain_corpus(2)).read_text().splitlines()
    lines[2] = lines[2].replace(field, literal)
    with pytest.raises(CorpusParseError, match="bad transition record") \
            as err:
        load_corpus(str(_rewritten(tmp_path, lines)))
    assert err.value.line == 3


@pytest.mark.parametrize("field, literal", [
    ('"dialog_id": 0', '"dialog_id": ' + "9" * 5000),
    ('"s": [0, 1', '"s": [0, ' + "1" * 4301),
], ids=["dialog-id", "feature"])
def test_oversized_integer_rejected_with_line(tmp_path, field, literal):
    # json refuses an integer of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    lines = _write(tmp_path, chain_corpus(2)).read_text().splitlines()
    lines[2] = lines[2].replace(field, literal)
    with pytest.raises(CorpusParseError, match="bad transition record: "
                                               "Exceeds the limit") as err:
        load_corpus(str(_rewritten(tmp_path, lines)))
    assert err.value.line == 3


@pytest.mark.parametrize("extra", ['"note": 1', '"s_prev": []'],
                         ids=["number", "list"])
def test_unknown_record_key_rejected_with_line(tmp_path, extra):
    # a dropped key would break save(load(f)) == f
    lines = _write(tmp_path, chain_corpus(2)).read_text().splitlines()
    lines[3] = lines[3][:-1] + ", " + extra + "}"
    key = extra.split(":")[0].strip('"')
    with pytest.raises(CorpusParseError, match=f"bad transition record: "
                                               f"unknown key '{key}'") as err:
        load_corpus(str(_rewritten(tmp_path, lines)))
    assert err.value.line == 4


def test_unknown_action_rejected(tmp_path):
    path = _write(tmp_path, chain_corpus(1))
    text = path.read_text().replace('"a": "advance"', '"a": "sideways"')
    path.write_text(text)
    with pytest.raises(SchemaMismatch, match="line 2: unknown action "
                                             "'sideways'"):
        load_corpus(str(path))


def test_feature_arity_checked(tmp_path):
    path = _write(tmp_path, chain_corpus(1))
    text = path.read_text().replace("[1, 0, 0, 0, 0]", "[1, 0, 0]")
    path.write_text(text)
    with pytest.raises(SchemaMismatch, match="line 2: feature arity 3 does "
                                             "not match the header"):
        load_corpus(str(path))


def test_missing_terminal_detected(tmp_path):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"terminal": true', '"terminal": false')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingTerminal, match="dialog 0: dialog ended"):
        load_corpus(str(path))


def _rewritten(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_non_contiguous_dialog_rejected(tmp_path):
    lines = _write(tmp_path, chain_corpus(2)).read_text().splitlines()
    # dialog 0 again, after dialog 1, behind a blank line
    reopened = lines[1].replace('"terminal": false', '"terminal": true')
    path = _rewritten(tmp_path, lines + ["", reopened])
    with pytest.raises(CorpusParseError, match="dialog 0 is not contiguous") \
            as err:
        load_corpus(str(path))
    assert err.value.line == 8


def test_turn_gap_rejected(tmp_path):
    lines = _write(tmp_path, chain_corpus(1)).read_text().splitlines()
    lines[2] = lines[2].replace('"turn": 1', '"turn": 3')
    path = _rewritten(tmp_path, lines)
    with pytest.raises(CorpusParseError, match="dialog 0: turn 3 follows 0") \
            as err:
        load_corpus(str(path))
    assert err.value.line == 3


def test_unsupported_schema_version(tmp_path):
    path = _write(tmp_path, corpus_from_rows([]))
    path.write_text(path.read_text().replace("dlg-v1", "dlg-v9"))
    with pytest.raises(SchemaMismatch):
        load_corpus(str(path))


@pytest.mark.parametrize("bad_s", ['"x"', "[1, 0, 0, 0, {}]",
                                   "[[1], [0], [0], [0], [0]]",
                                   '[1, 0, 0, 0, "zero"]'],
                         ids=["string", "object-value", "nested-lists",
                              "word-value"])
def test_non_numeric_features_rejected_with_line(tmp_path, bad_s):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    head, rest = lines[3].split('"s": ', 1)
    lines[3] = head + '"s": ' + bad_s + ', "a"' + rest.split(', "a"', 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((CorpusParseError, SchemaMismatch)) as err:
        load_corpus(str(path))
    assert "line 4" in str(err.value)


def test_resample_disjoint_and_complete():
    corpus = chain_corpus(40)
    plan = ResamplePlan(n_rounds=5, split_fraction=0.5, seed=1)
    for train, test in resample_splits(corpus, plan):
        train_ids = set(train.dialog_id.tolist())
        test_ids = set(test.dialog_id.tolist())
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids | test_ids) == 40
        assert len(train_ids) == 20


def test_resample_deterministic_and_distinct():
    corpus = chain_corpus(30)
    plan = ResamplePlan(n_rounds=12, split_fraction=0.5, seed=2)
    first = resample_splits(corpus, plan)
    second = resample_splits(corpus, plan)
    orders = set()
    for (tr1, te1), (tr2, te2) in zip(first, second):
        assert np.array_equal(tr1.dialog_id, tr2.dialog_id)
        orders.add(tuple(tr1.dialog_id[tr1.starts].tolist()))
    assert len(orders) == 12  # independent shuffles


def test_resample_odd_count_splits_unevenly():
    n = 1117
    corpus = Corpus(HEADER, np.zeros((n, 5)), np.zeros(n), np.zeros((n, 5)),
                    np.ones(n, dtype=bool), np.arange(n), np.zeros(n))
    train, test = resample_splits(corpus, ResamplePlan(n_rounds=1, seed=3))[0]
    assert train.n_dialogs == 558
    assert test.n_dialogs == 559


def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan(split_fraction=0.0)
    with pytest.raises(ValueError):
        ResamplePlan(n_rounds=0)


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
def test_non_finite_feature_rejected_with_line(tmp_path, literal):
    path = _write(tmp_path, chain_corpus(3))
    lines = path.read_text().splitlines()
    head, rest = lines[3].split('"s": [', 1)
    lines[3] = head + '"s": [' + literal + "," + rest.split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 4


def test_non_finite_header_reward_rejected(tmp_path):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    head, rest = lines[0].split('"per_turn": ', 1)
    lines[0] = head + '"per_turn": NaN,' + rest.split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 1


@pytest.mark.parametrize("old, new, key", [
    ('"action_set": ', '"action_set": ["x"], "action_set": ', "action_set"),
    ('"gamma": ', '"gamma": 0.5, "gamma": ', "gamma"),
], ids=["top-level", "reward-config"])
def test_repeated_header_key_rejected(tmp_path, old, new, key):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    assert lines[0].count(old) == 1
    lines[0] = lines[0].replace(old, new)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError,
                       match=f"bad header: repeated key '{key}'") as err:
        load_corpus(str(path))
    assert err.value.line == 1


def _replace_reward(key, value):
    def edit(rc):
        rc[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _replace_reward("per_turn", "-10"), _replace_reward("gamma", True),
    _replace_reward("wrong_offer", None), _replace_reward("bonus", 1.0),
    lambda rc: rc.pop("gamma"), _replace_reward("per_turn", 10 ** 400),
], ids=["string-number", "boolean-gamma", "null", "extra-key",
        "missing-key", "int-overflow"])
def test_mistyped_header_reward_rejected(tmp_path, edit):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header["reward_config"])
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError, match="bad header") as err:
        load_corpus(str(path))
    assert err.value.line == 1


# Property tests: generated dialog shapes, identifiers and feature values.

def _corpus_strategy(st):
    floats = st.floats(allow_nan=False, allow_infinity=False)
    width = len(HEADER.feature_names)

    @st.composite
    def corpora(draw):
        lengths = draw(st.lists(st.integers(1, 4), max_size=6))
        ids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), unique=True,
                            min_size=len(lengths), max_size=len(lengths)))
        rows = []
        for dialog_id, length in zip(ids, lengths):
            first_turn = draw(st.integers(0, 50))
            for j in range(length):
                s, s_next = (draw(st.lists(floats, min_size=width,
                                           max_size=width)) for _ in range(2))
                rows.append((dialog_id, first_turn + j, s,
                             draw(st.sampled_from(CHAIN_ACTIONS)), s_next,
                             j == length - 1))
        return corpus_from_rows(rows)

    return corpora()


def test_save_load_round_trip_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(corpus=_corpus_strategy(st))
    def check(corpus):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(str(first), corpus)
        loaded = load_corpus(str(first))
        _assert_same_corpus(corpus, loaded)
        save_corpus(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()

    check()


def test_resample_splits_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(corpus=_corpus_strategy(st),
                      n_rounds=st.integers(1, 3),
                      fraction=st.floats(0.01, 0.99),
                      seed=st.integers(0, 2 ** 32))
    def check(corpus, n_rounds, fraction, seed):
        plan = ResamplePlan(n_rounds, fraction, seed)
        ends = np.append(corpus.starts[1:], len(corpus))
        ids = corpus.dialog_id[corpus.starts]
        for r, (train, test) in enumerate(resample_splits(corpus, plan)):
            perm = np.random.default_rng(
                np.random.SeedSequence([seed, r])).permutation(len(ids))
            n_train = int(len(ids) * fraction)
            for side, dialogs in ((train, perm[:n_train]),
                                  (test, perm[n_train:])):
                # whole dialogs, in permutation order, rows unchanged
                assert np.array_equal(side.dialog_id[side.starts],
                                      ids[dialogs])
                rows = np.concatenate(
                    [np.arange(corpus.starts[d], ends[d]) for d in dialogs]
                    + [np.zeros(0, dtype=np.int64)])
                for name in COLUMNS[:-1]:
                    assert np.array_equal(getattr(side, name),
                                          getattr(corpus, name)[rows])
            assert set(ids[perm[:n_train]]).isdisjoint(ids[perm[n_train:]])
            assert train.n_dialogs + test.n_dialogs == corpus.n_dialogs
            assert len(train) + len(test) == len(corpus)

    check()


# Writer property: the bytes of the record-by-record oracle.

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-17, 0.1, 0.9999999999999999, 1e308,
                  -1e308]


def _writer_corpus_strategy(st):
    floats = st.floats(allow_nan=False, allow_infinity=False)
    labels = st.one_of(st.text(max_size=6),
                       st.sampled_from(['say "no"', "naïve", "caf\u00e9 \u2603",
                                        "back\\slash", "tab\tstop"]))

    @st.composite
    def corpora(draw):
        names = tuple(draw(st.lists(st.text(max_size=6), max_size=4)))
        actions = tuple(draw(st.lists(labels, min_size=1, max_size=4,
                                      unique=True)))
        # a small pool, so that values repeat heavily
        pool = SPECIAL_FLOATS + draw(st.lists(floats, max_size=6))
        value = st.sampled_from(pool)
        rewards = RewardConfig(*(draw(value) for _ in range(4)),
                               gamma=draw(st.sampled_from(
                                   [0.9, 1.0, 5e-324, 0.9999999999999999])))
        lengths = draw(st.lists(st.integers(1, 3), max_size=5))
        ids = draw(st.lists(st.integers(-2 ** 62, 2 ** 62), unique=True,
                            min_size=len(lengths), max_size=len(lengths)))
        rows = []
        for dialog_id, length in zip(ids, lengths):
            first_turn = draw(st.integers(-5, 50))
            rows += [(dialog_id, first_turn + j, j == length - 1,
                      draw(st.integers(0, len(actions) - 1)))
                     for j in range(length)]
        n, width = len(rows), len(names)
        S, S_next = (np.array([draw(value) for _ in range(n * width)],
                              dtype=np.float64).reshape(n, width)
                     for _ in range(2))
        ids, turns, terminal, A = zip(*rows) if rows else [()] * 4
        return Corpus(CorpusHeader(draw(st.text(max_size=6)), names, actions,
                                   rewards), S, A, S_next, terminal, ids, turns)

    return corpora()


def test_save_matches_record_by_record_writer_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(corpus=_writer_corpus_strategy(st))
    def check(corpus):
        ours, oracle = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(str(ours), corpus)
        save_corpus_by_record(str(oracle), corpus)
        assert ours.read_bytes() == oracle.read_bytes()

    check()
