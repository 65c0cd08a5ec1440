"""Corpus files: JSON-lines serialization, validation and resampling.

Line 1 is a header object ``{schema_version, feature_names, action_set,
reward_config}`` with no other key, its names and action labels lists of
distinct strings and its reward configuration one JSON number per field;
every following line is one transition ``{dialog_id, turn, s, a, s_next,
terminal}``, with no other key, and the feature vectors as float lists.
Floats are written with 17 significant digits so that save(load(f)) is
byte-identical for canonical files.  Transitions of one dialog are
contiguous, turn numbers consecutive, and the dialog's last transition is
its single terminal one.  Every feature and reward value is finite.  In
memory a corpus is one :class:`Corpus`, checked once when it is built.
"""
from __future__ import annotations

import json
from dataclasses import InitVar, astuple, dataclass, field, fields
from typing import Sequence

import numpy as np

from .core import FEATURE_SCHEMA_VERSION, REWARD_COLUMNS, RewardConfig


class CorpusParseError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


def reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object's dict, or a
    ValueError if the object names a key twice, where ``json`` would keep
    the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


class SchemaMismatch(Exception):
    pass


class MissingTerminal(Exception):
    def __init__(self, dialog_id: int, message: str):
        super().__init__(dialog_id, message)
        self.dialog_id = dialog_id

    def __str__(self) -> str:
        return f"dialog {self.dialog_id}: {self.args[1]}"


@dataclass(frozen=True)
class CorpusHeader:
    schema_version: str
    feature_names: tuple[str, ...]
    action_set: tuple[str, ...]
    reward_config: RewardConfig

    def require_columns(self, names: Sequence[str]) -> None:
        """Raise SchemaMismatch naming the first of ``names`` that is not
        a feature column."""
        for name in names:
            if name not in self.feature_names:
                raise SchemaMismatch(f"the corpus has no {name!r} feature "
                                     f"column")


@dataclass(frozen=True, eq=False)
class Corpus:
    """A dialog corpus, one array per column and one row per transition.

    ``A`` indexes ``header.action_set``; ``starts`` (derived) is the row of
    each dialog's first turn.  Construction enforces the file format's
    invariants (see the module docstring) and names the file line of an
    offending row: ``lines[row]``, by default the row's line in a saved file.
    """

    header: CorpusHeader
    S: np.ndarray
    A: np.ndarray
    S_next: np.ndarray
    terminal: np.ndarray
    dialog_id: np.ndarray
    turn: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines):
        for name, dtype in (("S", np.float64), ("A", np.int64),
                            ("S_next", np.float64), ("terminal", bool),
                            ("dialog_id", np.int64), ("turn", np.int64)):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))
        n, width = len(self.A), (len(self.header.feature_names),)
        if any(len(c) != n for c in (self.S, self.S_next, self.terminal,
                                     self.dialog_id, self.turn)):
            raise ValueError("corpus columns differ in length")
        if self.S.shape[1:] != width or self.S_next.shape[1:] != width:
            raise SchemaMismatch(f"feature rows of shapes {self.S.shape[1:]}"
                                 f" and {self.S_next.shape[1:]} do not match "
                                 f"the header ({width[0]} features)")
        if n and not 0 <= self.A.min() <= self.A.max() < \
                len(self.header.action_set):
            raise SchemaMismatch("action index outside the header's action set")

        lines = np.arange(2, n + 2) if lines is None else lines
        ids, turn, terminal = self.dialog_id, self.turn, self.terminal
        new = np.ones(n, dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new)
        # a start that is not its dialog id's first one reopens that dialog
        reopened = new.copy()
        reopened[starts[np.unique(ids[starts], return_index=True)[1]]] = False
        gap = np.zeros(n, dtype=bool)
        gap[1:] = ~new[1:] & (turn[1:] != turn[:-1] + 1)
        # a misplaced terminal at row j shows at row j + 1, a reopened
        # dialog or a turn gap at its own row: report what a reader meets
        # first
        misplaced = np.flatnonzero(np.append(new[1:], True) != terminal)
        broken = np.flatnonzero(reopened | gap)
        if len(misplaced) and not (len(broken) and broken[0] <= misplaced[0]):
            j = int(misplaced[0])
            message = ("transition follows the terminal one" if terminal[j]
                       else "dialog ended without a terminal transition")
            raise MissingTerminal(int(ids[j]), message)
        if len(broken):
            i = int(broken[0])
            raise CorpusParseError(
                f"dialog {ids[i]} is not contiguous" if reopened[i] else
                f"dialog {ids[i]}: turn {turn[i]} follows {turn[i - 1]}",
                int(lines[i]))
        # json.loads accepts NaN and Infinity, and 1e400 parses to inf
        finite = np.isfinite(self.S).all(axis=1) & \
            np.isfinite(self.S_next).all(axis=1)
        if not finite.all():
            raise CorpusParseError("non-finite feature value",
                                   int(lines[finite.argmin()]))
        object.__setattr__(self, "starts", starts)

    def __len__(self) -> int:
        return len(self.A)

    @property
    def n_dialogs(self) -> int:
        return len(self.starts)

    def rewards(self) -> np.ndarray:
        """Per-row reward: ``per_turn`` plus the offer outcome read off the
        offer flags of ``S_next``."""
        names, rc = self.header.feature_names, self.header.reward_config
        self.header.require_columns(REWARD_COLUMNS)
        flags = [self.S_next[:, names.index(column)] > 0.5
                 for column in REWARD_COLUMNS]
        return np.select(flags, [rc.per_turn + rc.correct_offer,
                                 rc.per_turn + rc.duplicate_offer,
                                 rc.per_turn + rc.wrong_offer], rc.per_turn)

    def take_dialogs(self, indices: np.ndarray) -> "Corpus":
        """The dialogs at ``indices`` (positions in ``starts``), in order."""
        ends = np.append(self.starts[1:], len(self))
        first = self.starts[indices]
        lengths = ends[indices] - first
        rows = np.arange(lengths.sum()) + np.repeat(
            first - (np.cumsum(lengths) - lengths), lengths)
        return Corpus(self.header, self.S[rows], self.A[rows],
                      self.S_next[rows], self.terminal[rows],
                      self.dialog_id[rows], self.turn[rows])


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
    # "-0" would read back as the integer 0
    return "-0.0" if x == 0 and np.signbit(x) else format(float(x), ".17g")


def save_corpus(path: str, corpus: Corpus) -> None:
    """Write ``corpus`` in the file format of the module docstring.

    Every value is checked and formatted before ``path`` is opened, so a
    failed save leaves an existing file as it was.
    """
    header, n = corpus.header, len(corpus)
    rewards = ", ".join(f"{json.dumps(f.name)}: "
                        f"{_g17(getattr(header.reward_config, f.name))}"
                        for f in fields(RewardConfig))
    parts = [f'{{"schema_version": {json.dumps(header.schema_version)}, '
             f'"feature_names": {json.dumps(list(header.feature_names))}, '
             f'"action_set": {json.dumps(list(header.action_set))}, '
             f'"reward_config": {{{rewards}}}}}\n']
    # each distinct bit pattern (-0.0 is not 0.0) is checked and formatted once
    X = np.concatenate([corpus.S, corpus.S_next])
    bits, inverse = np.unique(X.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([_g17(x) for x in bits.view(np.float64).tolist()],
                     dtype=object)
    rows = [", ".join(row) for row in texts[inverse].reshape(X.shape).tolist()]
    labels = [json.dumps(a) for a in header.action_set]
    record = ('{{"dialog_id": {}, "turn": {}, "s": [{}], "a": {}, '
              '"s_next": [{}], "terminal": {}}}\n')
    parts += map(record.format, corpus.dialog_id.tolist(),
                 corpus.turn.tolist(), rows[:n],
                 [labels[a] for a in corpus.A.tolist()], rows[n:],
                 ["true" if t else "false" for t in corpus.terminal.tolist()])
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("".join(parts))


def _labels(obj: dict, key: str, line: int) -> tuple[str, ...]:
    """``obj[key]``, a list of distinct strings."""
    labels = obj[key]
    if not (type(labels) is list and all(type(x) is str for x in labels)):
        raise CorpusParseError(f"bad header: {key} must be a list of "
                               f"strings", line)
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise CorpusParseError(f"bad header: {key} repeats {label!r}",
                                   line)
    return tuple(labels)


def _reward_config(obj: dict, line: int) -> RewardConfig:
    """``obj["reward_config"]``, a number for each RewardConfig field and
    no other key."""
    rc, keys = obj["reward_config"], [f.name for f in fields(RewardConfig)]
    # exact types, as for the records: a cast would read "-10" as -10.0
    # and true as 1.0
    if not (type(rc) is dict and sorted(rc) == sorted(keys)
            and all(type(rc[key]) in (int, float) for key in keys)):
        raise CorpusParseError(f"bad header: reward_config must map "
                               f"{', '.join(keys)} to numbers, and nothing "
                               f"else", line)
    return RewardConfig(*(float(rc[key]) for key in keys))


def _parse_header(obj: dict, line: int) -> CorpusHeader:
    try:
        version = obj["schema_version"]
        names = _labels(obj, "feature_names", line)
        actions = _labels(obj, "action_set", line)
        rewards = _reward_config(obj, line)
        unknown = set(obj) - {f.name for f in fields(CorpusHeader)}
        if unknown:
            raise CorpusParseError(f"bad header: unknown key "
                                   f"{min(unknown)!r}", line)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorpusParseError(f"bad header: {exc}", line) from None
    if not np.isfinite(astuple(rewards)).all():
        raise CorpusParseError("non-finite reward value in the header", line)
    if version != FEATURE_SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema version {version!r} (expected "
            f"{FEATURE_SCHEMA_VERSION!r})")
    return CorpusHeader(version, names, actions, rewards)


_RECORD_KEYS = {"dialog_id", "turn", "s", "a", "s_next", "terminal"}


def load_corpus(path: str) -> Corpus:
    """Read and validate a corpus file."""
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if not lines:
        raise CorpusParseError("empty corpus file", 1)
    # records are parsed without the hook: it would slow loading by about
    # a tenth, and a record's keys are checked by count below
    try:
        header_obj = json.loads(lines[0],
                                object_pairs_hook=reject_repeated_keys)
    except json.JSONDecodeError as exc:
        raise CorpusParseError(f"invalid JSON: {exc.msg}", 1) from None
    except ValueError as exc:
        raise CorpusParseError(f"bad header: {exc}", 1) from None
    header = _parse_header(header_obj, 1)
    action_index = {a: i for i, a in enumerate(header.action_set)}
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(f"invalid JSON: {exc.msg}", lineno) from None
        except ValueError as exc:  # an integer of more than 4300 digits
            raise CorpusParseError(f"bad transition record: {exc}", lineno) from None
        try:
            row = (lineno, obj["dialog_id"], obj["turn"], obj["s"], obj["a"],
                   obj["s_next"], obj["terminal"])
            # every field was read above, so any further key is unknown
            if len(obj) != len(_RECORD_KEYS):
                raise CorpusParseError(
                    f"bad transition record: unknown key "
                    f"{min(set(obj) - _RECORD_KEYS)!r}", lineno)
            _, dialog_id, turn, _, label, _, terminal = row
            # exact types: bool is a subclass of int, and a cast would read
            # 0.9 as 0, "1" as 1 and "no" as true
            if not (type(dialog_id) is type(turn) is int
                    and type(label) is str and type(terminal) is bool):
                raise TypeError("want integer dialog_id and turn, a string "
                                "action and a boolean terminal")
            if max(abs(dialog_id), abs(turn)) >= 2 ** 63:
                raise OverflowError("dialog_id or turn out of the int64 range")
        except (KeyError, TypeError, OverflowError) as exc:
            raise CorpusParseError(f"bad transition record: {exc}", lineno) from None
        if label not in action_index:
            raise SchemaMismatch(f"line {lineno}: unknown action {label!r}")
        rows.append(row)
    linenos, ids, turns, s_rows, labels, s_next_rows, terminals = \
        zip(*rows) if rows else [()] * 7
    n, n_features = len(rows), len(header.feature_names)
    # each feature column is converted once; if that fails, the first
    # record that is not a list of n_features numbers is reported
    try:
        X = np.array([s_rows, s_next_rows], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        X = None
    if X is None or X.shape[1:] != (n, n_features):
        for lineno, s, s_next in zip(linenos, s_rows, s_next_rows):
            try:
                s, s_next = (np.asarray(v, dtype=np.float64) for v in (s, s_next))
                if s.ndim != 1 or s_next.ndim != 1:
                    raise ValueError("feature values must be a list of numbers")
            except (TypeError, ValueError, OverflowError) as exc:
                raise CorpusParseError(f"bad transition record: {exc}",
                                       lineno) from None
            if len(s) != n_features or len(s_next) != n_features:
                raise SchemaMismatch(
                    f"line {lineno}: feature arity {len(s)} does not match "
                    f"the header ({n_features})")
    S, S_next = X.reshape(2, n, n_features)
    return Corpus(header, S, [action_index[a] for a in labels], S_next,
                  terminals, ids, turns, lines=linenos)


def resample_splits(corpus: Corpus, plan: ResamplePlan
                    ) -> list[tuple[Corpus, Corpus]]:
    """Independent dialog-level shuffles into disjoint (train, test) pairs.

    Splitting happens at dialog granularity: no dialog ever straddles the
    two sides of a round, and each side lists its dialogs' rows in the
    order of the round's permutation.
    """
    rounds = []
    for r in range(plan.n_rounds):
        rng = np.random.default_rng(np.random.SeedSequence([plan.seed, r]))
        perm = rng.permutation(corpus.n_dialogs)
        n_train = int(corpus.n_dialogs * plan.split_fraction)
        rounds.append((corpus.take_dialogs(perm[:n_train]),
                       corpus.take_dialogs(perm[n_train:])))
    return rounds
