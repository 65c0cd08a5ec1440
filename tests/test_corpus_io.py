import numpy as np
import pytest

from evodial.core import CORPUS_REWARDS, Transition
from evodial.corpus_io import (CorpusHeader, CorpusParseError, MissingTerminal,
                               ResamplePlan, SchemaMismatch, corpus_counts,
                               load_corpus, resample_splits, save_corpus)
from evodial.simulator import make_synthetic_corpus
from support import CHAIN_ACTIONS, CHAIN_FEATURES, CHAIN_REWARDS, chain_corpus

HEADER = CorpusHeader("dlg-v1", CHAIN_FEATURES, CHAIN_ACTIONS, CHAIN_REWARDS)


def _write(tmp_path, transitions, header=HEADER, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus(str(path), header, transitions)
    return path


def test_empty_body_with_valid_header(tmp_path):
    path = _write(tmp_path, [])
    header, transitions = load_corpus(str(path))
    assert transitions == []
    assert header == HEADER


def test_write_then_read_identity(tmp_path):
    originals = chain_corpus(10)
    path = _write(tmp_path, originals)
    header, loaded = load_corpus(str(path))
    assert corpus_counts(loaded) == (10, len(originals))
    for a, b in zip(originals, loaded):
        assert (a.dialog_id, a.turn, a.a, a.terminal) == \
            (b.dialog_id, b.turn, b.a, b.terminal)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.s_next, b.s_next)


def test_save_load_save_is_byte_identical(tmp_path, restaurant_ast, ontology):
    header, transitions = make_synthetic_corpus(
        restaurant_ast, [0.3, 0.8, 0.5, 0.5], ontology, n_episodes=12, seed=4,
        rewards=CORPUS_REWARDS, epsilon=0.2)
    first = tmp_path / "a.jsonl"
    save_corpus(str(first), header, transitions)
    header2, loaded = load_corpus(str(first))
    second = tmp_path / "b.jsonl"
    save_corpus(str(second), header2, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_floats_survive_17_digit_round_trip(tmp_path):
    tricky = np.array([1 / 3, 0.1, 1e-17, 0.9999999999999999, 0.0])
    t = Transition(0, 0, tricky, "advance", tricky, True)
    header = CorpusHeader("dlg-v1", tuple(f"f{i}" for i in range(5)),
                          CHAIN_ACTIONS, CHAIN_REWARDS)
    path = _write(tmp_path, [t], header)
    _, loaded = load_corpus(str(path))
    assert np.array_equal(loaded[0].s, tricky)


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1]  # truncate a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 3


def test_unknown_action_rejected(tmp_path):
    path = _write(tmp_path, chain_corpus(1))
    text = path.read_text().replace('"a": "advance"', '"a": "sideways"')
    path.write_text(text)
    with pytest.raises(SchemaMismatch):
        load_corpus(str(path))


def test_feature_arity_checked(tmp_path):
    path = _write(tmp_path, chain_corpus(1))
    text = path.read_text().replace("[1, 0, 0, 0, 0]", "[1, 0, 0]")
    path.write_text(text)
    with pytest.raises(SchemaMismatch):
        load_corpus(str(path))


def test_missing_terminal_detected(tmp_path):
    path = _write(tmp_path, chain_corpus(2))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"terminal": true', '"terminal": false')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingTerminal):
        load_corpus(str(path))


def test_non_contiguous_dialog_rejected(tmp_path):
    full = chain_corpus(2)
    reopened = full + [Transition(0, 0, full[0].s, "advance", full[0].s_next,
                                  True)]
    path = tmp_path / "bad.jsonl"
    save_corpus(str(path), HEADER, reopened)
    with pytest.raises(CorpusParseError):
        load_corpus(str(path))


def test_turn_gap_rejected(tmp_path):
    t0, t1 = chain_corpus(1)
    broken = [t0, Transition(0, 3, t1.s, t1.a, t1.s_next, True)]
    path = tmp_path / "gap.jsonl"
    save_corpus(str(path), HEADER, broken)
    with pytest.raises(CorpusParseError):
        load_corpus(str(path))


def test_unsupported_schema_version(tmp_path):
    path = _write(tmp_path, [])
    path.write_text(path.read_text().replace("dlg-v1", "dlg-v9"))
    with pytest.raises(SchemaMismatch):
        load_corpus(str(path))


def test_resample_disjoint_and_complete():
    corpus = chain_corpus(40)
    plan = ResamplePlan(n_rounds=5, split_fraction=0.5, seed=1)
    for train, test in resample_splits(corpus, plan):
        train_ids = {t.dialog_id for t in train}
        test_ids = {t.dialog_id for t in test}
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
        assert [t.dialog_id for t in tr1] == [t.dialog_id for t in tr2]
        orders.add(tuple(t.dialog_id for t in tr1))
    assert len(orders) == 12  # independent shuffles


def test_resample_odd_count_splits_unevenly():
    corpus = [Transition(i, 0, np.zeros(5), "advance", np.zeros(5), True)
              for i in range(1117)]
    train, test = resample_splits(corpus, ResamplePlan(n_rounds=1, seed=3))[0]
    assert len({t.dialog_id for t in train}) == 558
    assert len({t.dialog_id for t in test}) == 559


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
