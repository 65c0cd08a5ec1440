"""Corpus files: JSON-lines serialization, validation and resampling.

Line 1 is a header object ``{schema_version, feature_names, action_set,
reward_config}``; every following line is one transition ``{dialog_id, turn,
s, a, s_next, terminal}`` with the feature vectors as float lists.  Floats
are written with 17 significant digits so that save(load(f)) is
byte-identical for canonical files.  Transitions of one dialog are
contiguous, turn numbers consecutive, and the dialog's last transition is its
single terminal one.  Every feature and reward value is finite.
"""
from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .core import FEATURE_SCHEMA_VERSION, RewardConfig, Transition


class CorpusParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class SchemaMismatch(Exception):
    pass


class MissingTerminal(Exception):
    def __init__(self, dialog_id: int, message: str):
        super().__init__(f"dialog {dialog_id}: {message}")
        self.dialog_id = dialog_id


@dataclass(frozen=True)
class CorpusHeader:
    schema_version: str
    feature_names: tuple[str, ...]
    action_set: tuple[str, ...]
    reward_config: RewardConfig


@dataclass(frozen=True)
class ResamplePlan:
    n_rounds: int = 12
    split_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie strictly between 0 and 1")


def _g17(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("corpus floats must be finite")
    return format(float(x), ".17g")


def _encode(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _g17(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _header_dict(header: CorpusHeader) -> dict:
    rc = header.reward_config
    return {
        "schema_version": header.schema_version,
        "feature_names": list(header.feature_names),
        "action_set": list(header.action_set),
        "reward_config": {
            "per_turn": rc.per_turn,
            "correct_offer": rc.correct_offer,
            "duplicate_offer": rc.duplicate_offer,
            "wrong_offer": rc.wrong_offer,
            "gamma": rc.gamma,
        },
    }


def save_corpus(path: str, header: CorpusHeader,
                transitions: Sequence[Transition]) -> None:
    n_features = len(header.feature_names)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(_encode(_header_dict(header)) + "\n")
        for t in transitions:
            if len(t.s) != n_features or len(t.s_next) != n_features:
                raise SchemaMismatch(
                    f"dialog {t.dialog_id} turn {t.turn}: feature arity "
                    f"{len(t.s)} does not match the header ({n_features})")
            if t.a not in header.action_set:
                raise SchemaMismatch(
                    f"dialog {t.dialog_id} turn {t.turn}: unknown action {t.a!r}")
            record = {"dialog_id": int(t.dialog_id), "turn": int(t.turn),
                      "s": t.s, "a": t.a, "s_next": t.s_next,
                      "terminal": bool(t.terminal)}
            fp.write(_encode(record) + "\n")


def _parse_header(obj: dict, line: int) -> CorpusHeader:
    try:
        version = obj["schema_version"]
        names = tuple(obj["feature_names"])
        actions = tuple(obj["action_set"])
        rc = obj["reward_config"]
        rewards = RewardConfig(float(rc["per_turn"]), float(rc["correct_offer"]),
                               float(rc["duplicate_offer"]), float(rc["wrong_offer"]),
                               float(rc["gamma"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusParseError(f"bad header: {exc}", line) from None
    if not np.isfinite(astuple(rewards)).all():
        raise CorpusParseError("non-finite reward value in the header", line)
    if version != FEATURE_SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema version {version!r} (expected "
            f"{FEATURE_SCHEMA_VERSION!r})")
    return CorpusHeader(version, names, actions, rewards)


def load_corpus(path: str) -> tuple[CorpusHeader, list[Transition]]:
    """Read and validate a corpus file."""
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if not lines:
        raise CorpusParseError("empty corpus file", 1)
    try:
        header_obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorpusParseError(f"invalid JSON: {exc.msg}", 1) from None
    header = _parse_header(header_obj, 1)
    n_features = len(header.feature_names)
    transitions: list[Transition] = []
    linenos: list[int] = []
    closed_dialogs: set[int] = set()
    current_id: int | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(f"invalid JSON: {exc.msg}", lineno) from None
        try:
            t = Transition(int(obj["dialog_id"]), int(obj["turn"]),
                           np.asarray(obj["s"], dtype=np.float64), str(obj["a"]),
                           np.asarray(obj["s_next"], dtype=np.float64),
                           bool(obj["terminal"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusParseError(f"bad transition record: {exc}", lineno) from None
        if len(t.s) != n_features or len(t.s_next) != n_features:
            raise SchemaMismatch(
                f"line {lineno}: feature arity {len(t.s)} does not match the "
                f"header ({n_features})")
        if t.a not in header.action_set:
            raise SchemaMismatch(f"line {lineno}: unknown action {t.a!r}")
        if t.dialog_id != current_id:
            if transitions and not transitions[-1].terminal:
                raise MissingTerminal(current_id,
                                      "dialog ended without a terminal transition")
            if t.dialog_id in closed_dialogs:
                raise CorpusParseError(
                    f"dialog {t.dialog_id} is not contiguous", lineno)
            if current_id is not None:
                closed_dialogs.add(current_id)
            current_id = t.dialog_id
        else:
            if transitions[-1].terminal:
                raise MissingTerminal(
                    t.dialog_id, "transition follows the terminal one")
            if t.turn != transitions[-1].turn + 1:
                raise CorpusParseError(
                    f"dialog {t.dialog_id}: turn {t.turn} follows "
                    f"{transitions[-1].turn}", lineno)
        transitions.append(t)
        linenos.append(lineno)
    if transitions and not transitions[-1].terminal:
        raise MissingTerminal(transitions[-1].dialog_id,
                              "dialog ended without a terminal transition")
    if transitions:
        # json.loads accepts NaN and Infinity, and 1e400 parses to inf
        finite = (np.isfinite(np.stack([t.s for t in transitions])).all(axis=1)
                  & np.isfinite(np.stack([t.s_next for t in transitions]))
                  .all(axis=1))
        if not finite.all():
            raise CorpusParseError("non-finite feature value",
                                   linenos[int(finite.argmin())])
    return header, transitions


def corpus_counts(transitions: Sequence[Transition]) -> tuple[int, int]:
    """(dialog count, turn count) of a loaded corpus."""
    return len({t.dialog_id for t in transitions}), len(transitions)


def _dialog_groups(transitions: Sequence[Transition]) -> list[list[Transition]]:
    groups: list[list[Transition]] = []
    for t in transitions:
        if groups and groups[-1][0].dialog_id == t.dialog_id:
            groups[-1].append(t)
        else:
            groups.append([t])
    return groups


def resample_splits(transitions: Sequence[Transition], plan: ResamplePlan
                    ) -> list[tuple[list[Transition], list[Transition]]]:
    """Independent dialog-level shuffles into disjoint (train, test) pairs.

    Splitting happens at dialog granularity: no dialog ever straddles the
    two sides of a round.
    """
    dialogs = _dialog_groups(transitions)
    rounds = []
    for r in range(plan.n_rounds):
        rng = np.random.default_rng(np.random.SeedSequence([plan.seed, r]))
        perm = rng.permutation(len(dialogs))
        n_train = int(len(dialogs) * plan.split_fraction)
        train = [t for i in perm[:n_train] for t in dialogs[i]]
        test = [t for i in perm[n_train:] for t in dialogs[i]]
        rounds.append((train, test))
    return rounds
