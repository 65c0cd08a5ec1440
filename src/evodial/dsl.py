"""Dialog-policy template language.

A template file has two sections separated by a line containing ``%%``: a
schema header declaring state variables and action labels, and a policy body
of prioritized condition-action clauses::

    bool slu_empty
    num top_slu_score
    action Repeat
    action Welcome
    %%
    if slu_empty or top_slu_score < p0 then Repeat
    else Welcome

Body grammar (conditions are binary trees over boolean state variables and
``<num-var> (< | > | ==) <free-param>`` comparisons; ``and`` binds tighter
than ``or``; parentheses allowed)::

    template   := clause | action
    clause     := 'if' or-expr 'then' action 'else' (clause | action)
    or-expr    := and-expr ('or' and-expr)*
    and-expr   := atom ('and' atom)*
    atom       := '(' or-expr ')' | bool-var | num-var comparator param
    action     := label | label '(' key '=' param {',' key '=' param} ')'

Free parameters are written ``p0``, ``p1``, ...; their indices must be dense.
Comments run from ``#`` to end of line.  Evaluation is first-match: the
earliest clause whose condition holds decides the action, and the final
clause is unconditional.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .core import (_BOOL_FEATURES, STATE_VARIABLES, ActionDecision,
                   DialogState, resolve_action)

EQ_TOLERANCE = 1e-9

_PARAM_RE = re.compile(r"^p(\d+)$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DEFAULT_OFFER_THRESHOLD = 0.5
MAX_CONDITION_OPERATORS = 100  # 'and', 'or' and '(' tokens per clause


class TemplateError(Exception):
    """Base class for template language errors, at the 1-based source
    ``line`` and ``column`` when known (0 otherwise)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            where = f"line {line}, column {column}" if column else f"line {line}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class TemplateSyntaxError(TemplateError):
    """Source text that the template grammar does not accept."""


class UnknownIdentifier(TemplateError):
    """A name the template's schema does not declare."""


class DanglingElse(TemplateError):
    """Template does not terminate in an unconditional action."""


class TemplateValidationError(TemplateError):
    """AST-level invariant violated (e.g. sparse parameter indices)."""


class ArityMismatch(TemplateError):
    """Parameter vector length differs from the template's param_count."""


class MissingStateVariable(TemplateError):
    """Evaluation state lacks a variable the template references."""


class StructuralParamForbidden(TemplateError):
    """Corpus-mode fitness cannot evaluate templates with structural params."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolVar:
    name: str


@dataclass(frozen=True)
class Comparison:
    var: str
    op: str  # '<' | '>' | '=='
    param: int


@dataclass(frozen=True)
class LogicNode:
    op: str  # 'and' | 'or'
    left: "CondExpr"
    right: "CondExpr"


CondExpr = Union[BoolVar, Comparison, LogicNode]


@dataclass(frozen=True)
class ActionSpec:
    act: str
    structural_params: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Clause:
    condition: CondExpr | None  # None for the terminal clause
    action: ActionSpec


@dataclass(frozen=True)
class StateSchema:
    bool_vars: tuple[str, ...]
    num_vars: tuple[str, ...]
    actions: tuple[str, ...]


@dataclass(frozen=True)
class TemplateAst:
    clauses: tuple[Clause, ...]
    param_count: int
    schema: StateSchema

    @property
    def has_structural_params(self) -> bool:
        return any(c.action.structural_params for c in self.clauses)

    def conditional_clause_count(self) -> int:
        return sum(1 for c in self.clauses if c.condition is not None)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset({"if", "then", "else", "and", "or"})


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword | ident | param | '<' | '>' | '==' | '(' | ')' | ',' | '=' | 'eof'
    text: str
    line: int
    column: int


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _tokenize_body(lines: list[tuple[int, str]]) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in lines:
        text = _strip_comment(raw)
        col = 0
        n = len(text)
        while col < n:
            ch = text[col]
            if ch.isspace():
                col += 1
                continue
            if ch.isalpha() or ch == "_":
                m = _IDENT_RE.match(text, col)
                word = m.group(0)
                if word in _KEYWORDS:
                    tokens.append(_Token(word, word, lineno, col + 1))
                elif _PARAM_RE.match(word):
                    tokens.append(_Token("param", word, lineno, col + 1))
                else:
                    tokens.append(_Token("ident", word, lineno, col + 1))
                col = m.end()
                continue
            if text.startswith("==", col):
                tokens.append(_Token("==", "==", lineno, col + 1))
                col += 2
                continue
            if ch in "<>(),=":
                tokens.append(_Token(ch, ch, lineno, col + 1))
                col += 1
                continue
            raise TemplateSyntaxError(f"unexpected character {ch!r}", lineno, col + 1)
    last_line = lines[-1][0] if lines else 1
    tokens.append(_Token("eof", "", last_line, 1))
    return tokens


def _parse_schema(lines: list[tuple[int, str]]) -> StateSchema:
    bools: list[str] = []
    nums: list[str] = []
    actions: list[str] = []
    seen: dict[str, str] = {}
    for lineno, raw in lines:
        text = _strip_comment(raw).strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2 or parts[0] not in ("bool", "num", "action"):
            raise TemplateSyntaxError(
                "schema lines must read 'bool NAME', 'num NAME' or 'action NAME'",
                lineno, 1)
        kind, name = parts
        if not _IDENT_RE.fullmatch(name) or name in _KEYWORDS:
            raise TemplateSyntaxError(f"invalid identifier {name!r}", lineno, 1)
        if _PARAM_RE.match(name):
            raise TemplateSyntaxError(
                f"{name!r} is reserved for free parameters", lineno, 1)
        if name in seen:
            raise TemplateSyntaxError(f"duplicate declaration of {name!r}", lineno, 1)
        seen[name] = kind
        {"bool": bools, "num": nums, "action": actions}[kind].append(name)
    return StateSchema(tuple(bools), tuple(nums), tuple(actions))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], schema: StateSchema):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema
        self.param_refs: set[int] = set()
        self.operators = 0  # since the clause's 'if'

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind in ("and", "or", "("):
            self.operators += 1
            if self.operators > MAX_CONDITION_OPERATORS:
                raise TemplateSyntaxError(
                    f"a clause may hold at most {MAX_CONDITION_OPERATORS} "
                    f"'and', 'or' and '(' tokens", tok.line, tok.column)
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise TemplateSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        return self.advance()

    def parse_template(self) -> list[Clause]:
        clauses: list[Clause] = []
        while True:
            tok = self.peek()
            if tok.kind == "if":
                self.advance()
                self.operators = 0
                cond = self.parse_or()
                self.expect("then")
                action = self.parse_action()
                clauses.append(Clause(cond, action))
                nxt = self.peek()
                if nxt.kind == "eof":
                    raise DanglingElse(
                        "template must end in an unconditional action",
                        nxt.line)
                self.expect("else")
                continue
            if tok.kind == "ident":
                clauses.append(Clause(None, self.parse_action()))
                end = self.peek()
                if end.kind != "eof":
                    raise TemplateSyntaxError(
                        f"unexpected {end.text!r} after the terminal action",
                        end.line, end.column)
                return clauses
            raise TemplateSyntaxError(
                f"expected a clause, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)

    def parse_or(self) -> CondExpr:
        node = self.parse_and()
        while self.peek().kind == "or":
            self.advance()
            node = LogicNode("or", node, self.parse_and())
        return node

    def parse_and(self) -> CondExpr:
        node = self.parse_atom()
        while self.peek().kind == "and":
            self.advance()
            node = LogicNode("and", node, self.parse_atom())
        return node

    def parse_atom(self) -> CondExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = self.parse_or()
            self.expect(")")
            return node
        if tok.kind == "param":
            raise TemplateSyntaxError(
                "free parameters may only appear on the right of a comparison",
                tok.line, tok.column)
        name_tok = self.expect("ident")
        nxt = self.peek()
        if nxt.kind in ("<", ">", "=="):
            op = self.advance().kind
            rhs = self.peek()
            if rhs.kind != "param":
                raise TemplateSyntaxError(
                    "comparisons take a free parameter (p0, p1, ...) on the right",
                    rhs.line, rhs.column)
            self.advance()
            if name_tok.text not in self.schema.num_vars:
                raise UnknownIdentifier(
                    f"{name_tok.text!r} is not a declared numeric state variable",
                    name_tok.line, name_tok.column)
            index = int(_PARAM_RE.match(rhs.text).group(1))
            self.param_refs.add(index)
            return Comparison(name_tok.text, op, index)
        if name_tok.text not in self.schema.bool_vars:
            raise UnknownIdentifier(
                f"{name_tok.text!r} is not a declared boolean state variable",
                name_tok.line, name_tok.column)
        return BoolVar(name_tok.text)

    def parse_action(self) -> ActionSpec:
        label = self.expect("ident")
        if label.text not in self.schema.actions:
            raise UnknownIdentifier(
                f"{label.text!r} is not a declared action label",
                label.line, label.column)
        params: list[tuple[str, int]] = []
        if self.peek().kind == "(":
            self.advance()
            while True:
                key = self.expect("ident")
                self.expect("=")
                ref = self.expect("param")
                index = int(_PARAM_RE.match(ref.text).group(1))
                self.param_refs.add(index)
                params.append((key.text, index))
                if self.peek().kind == ",":
                    self.advance()
                    continue
                self.expect(")")
                break
        return ActionSpec(label.text, tuple(params))


def _split_sections(source: str) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    header: list[tuple[int, str]] = []
    body: list[tuple[int, str]] = []
    in_body = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        if not in_body and _strip_comment(line).strip() == "%%":
            in_body = True
            continue
        (body if in_body else header).append((lineno, line))
    # without a '%%' line the whole source is the body
    return (header, body) if in_body else ([], header)


def parse_template(source: str, schema: StateSchema | None = None) -> TemplateAst:
    """Parse template text into a validated AST.

    ``source`` is either a full two-section template file or a bare policy
    body; in the latter case ``schema`` must be supplied.
    """
    header, body = _split_sections(source)
    if header:
        schema = _parse_schema(header)
    if schema is None:
        raise TemplateSyntaxError(
            "template has no schema section and no schema was supplied", 1, 1)
    tokens = _tokenize_body(body)
    parser = _Parser(tokens, schema)
    clauses = parser.parse_template()
    refs = parser.param_refs
    param_count = (max(refs) + 1) if refs else 0
    missing = set(range(param_count)) - refs
    if missing:
        raise TemplateValidationError(
            f"free parameter indices must be dense; missing "
            f"{sorted('p%d' % i for i in missing)}")
    return TemplateAst(tuple(clauses), param_count, schema)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2}


def _format_cond(node: CondExpr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, BoolVar):
        return node.name
    if isinstance(node, Comparison):
        return f"{node.var} {node.op} p{node.param}"
    prec = _PREC[node.op]
    text = "{} {} {}".format(_format_cond(node.left, prec, False), node.op,
                             _format_cond(node.right, prec, True))
    # Parenthesize when binding looser than the parent, or when appearing as
    # the right operand of an equal-precedence operator (parsing is
    # left-associative).
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _format_action(spec: ActionSpec) -> str:
    if not spec.structural_params:
        return spec.act
    args = ", ".join(f"{k}=p{i}" for k, i in spec.structural_params)
    return f"{spec.act}({args})"


def pretty_print(ast: TemplateAst, include_schema: bool = True) -> str:
    """Emit canonical template text that reparses to an identical AST."""
    lines: list[str] = []
    if include_schema:
        for name in ast.schema.bool_vars:
            lines.append(f"bool {name}")
        for name in ast.schema.num_vars:
            lines.append(f"num {name}")
        for name in ast.schema.actions:
            lines.append(f"action {name}")
        lines.append("%%")
    for i, clause in enumerate(ast.clauses):
        if clause.condition is None:
            prefix = "else " if i > 0 else ""
            lines.append(f"{prefix}{_format_action(clause.action)}")
        else:
            prefix = "if" if i == 0 else "else if"
            lines.append(f"{prefix} {_format_cond(clause.condition)} "
                         f"then {_format_action(clause.action)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation: each template compiles once into Python source
# ---------------------------------------------------------------------------
# The ``state`` target reads a variable off a DialogState by its expression in
# ``core.STATE_VARIABLES``, the ``mapping`` target by ``get(k)``, where a clause
# first evaluates it; ``&``/``|`` never short-circuit.  Only the compiler's own
# names, numeric indices and label repr()s enter the source, never a template name.

def _cond_source(node: CondExpr, target: str, seen: dict[str, int]) -> str:
    if isinstance(node, LogicNode):
        return "({} {} {})".format(_cond_source(node.left, target, seen),
                                   "&" if node.op == "and" else "|",
                                   _cond_source(node.right, target, seen))
    name = node.name if isinstance(node, BoolVar) else node.var
    if name in seen:
        value = f"v{seen[name]}"
    else:
        k = seen[name] = len(seen)
        expr = STATE_VARIABLES.get(name) if target == "state" else None
        value = f"(v{k} := ({expr or f'get({k})'}))"
    if isinstance(node, BoolVar):
        return value
    if node.op in ("<", ">"):
        return f"({value} {node.op} p{node.param:d})"
    return f"(abs({value} - p{node.param:d}) <= {EQ_TOLERANCE!r})"


@lru_cache(maxsize=128)
def _compile(ast: TemplateAst, target: str) -> tuple[Callable, tuple[str, ...]]:
    """``(bind, names)``, where ``get(k)`` reads variable ``names[k]``: for
    ``state``, ``bind(get, *params)`` returns a decision function of a
    DialogState; for ``mapping`` it yields each condition's truth in turn."""
    seen: dict[str, int] = {}
    params = "".join(f", p{i}" for i in range(ast.param_count))
    lines = [f"def bind(get{params}):"]
    if target == "state":
        lines.append(" def decide(s):")
        for i, clause in enumerate(ast.clauses):
            ref = dict(clause.action.structural_params).get("filter")  # last
            threshold = DEFAULT_OFFER_THRESHOLD if ref is None else f"p{ref:d}"
            action = f"return resolve_action({clause.action.act!r}, s, {threshold}, {i:d})"
            cond = clause.condition and _cond_source(clause.condition, target, seen)
            lines.append(f"  if {cond}: {action}" if cond else f"  {action}")
        lines.append(" return decide")
    else:
        lines += [f" yield {_cond_source(c.condition, target, seen)}"
                  for c in ast.clauses if c.condition] or [" yield from ()"]
    namespace: dict = {}
    # resolve_action is looked up in this module's globals at call time
    exec(compile("\n".join(lines), f"<template {target}>", "exec"), globals(),
         namespace)
    return namespace["bind"], tuple(seen)


def _reader(names: tuple[str, ...], mapping: Mapping,
            kinds: Mapping[str, Callable]) -> Callable[[int], object]:
    """``get(k)``: variable ``names[k]`` of ``mapping``, coerced by its kind
    if it has one."""
    def get(k: int):
        if names[k] not in mapping:
            raise MissingStateVariable(f"state has no variable {names[k]!r}")
        kind = kinds.get(names[k])
        return mapping[names[k]] if kind is None else kind(mapping[names[k]])
    return get


def check_state_variables(ast: TemplateAst) -> None:
    """MissingStateVariable if a clause reads a variable that the dialog
    state, and so a corpus, lacks or holds as the other kind."""
    for name in _compile(ast, "mapping")[1]:
        is_bool = name in ast.schema.bool_vars
        if name not in STATE_VARIABLES or is_bool != (name in _BOOL_FEATURES):
            raise MissingStateVariable(f"the dialog state has no "
                                       f"{'bool' if is_bool else 'number'} {name!r}")


def _check_arity(ast: TemplateAst, params: Sequence[float]) -> list[float]:
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1 or len(vec) != ast.param_count:
        raise ArityMismatch(
            f"template takes {ast.param_count} parameters, got {len(np.atleast_1d(vec))}")
    return vec.tolist()


def evaluate_policy(ast: TemplateAst, params: Sequence[float],
                    state: DialogState | Mapping[str, float | bool]) -> ActionDecision:
    """First-match evaluation of a template against a dialog state.

    ``state`` may be a DialogState (decisions come back with resolved slot and
    offer structure) or a plain mapping of state variables, whose values are
    read as ``bool`` (any truthy value sets a boolean variable) or ``float``
    (label and clause index only).
    """
    if isinstance(state, DialogState):
        return template_policy(ast, params)(state)
    kinds = dict.fromkeys(ast.schema.bool_vars, bool) | \
        dict.fromkeys(ast.schema.num_vars, float)
    bind, names = _compile(ast, "mapping")
    conds = bind(_reader(names, state, kinds), *_check_arity(ast, params))
    for i, clause in enumerate(ast.clauses):
        if clause.condition is None or next(conds):
            return ActionDecision(clause.action.act, clause_index=i)
    raise AssertionError("unreachable: final clause is unconditional")


def template_policy(ast: TemplateAst, params: Sequence[float]
                    ) -> Callable[[DialogState], ActionDecision]:
    """``evaluate_policy`` on DialogStates with the parameters bound,
    checked once here rather than on every call."""
    values = _check_arity(ast, params)
    bind, names = _compile(ast, "state")
    return bind(_reader(names, {}, {}), *values)


def evaluate_policy_batch(ast: TemplateAst, params: Sequence[float],
                          columns: Mapping[str, np.ndarray],
                          action_index: Mapping[str, int]) -> np.ndarray:
    """Vectorized first-match evaluation over a batch of states.

    ``columns`` maps state-variable names to equal-length arrays;
    ``action_index`` maps action labels to output codes (labels missing from
    it are coded -1).  Returns one action code per state.
    """
    bind, names = _compile(ast, "mapping")
    kinds = dict.fromkeys(ast.schema.bool_vars, partial(np.asarray, dtype=bool))
    conds = bind(_reader(names, columns, kinds), *_check_arity(ast, params))
    n = len(next(iter(columns.values())))
    out = np.full(n, -1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    for clause in ast.clauses:
        fired = undecided if clause.condition is None else undecided & next(conds)
        out[fired] = action_index.get(clause.action.act, -1)
        undecided = undecided & ~fired
        if not undecided.any():
            break
    return out


def ablate(ast: TemplateAst, drop: Sequence[int]) -> TemplateAst:
    """Disable conditional clauses by position (0-based among conditionals).

    The terminal clause cannot be dropped; param_count is left unchanged so
    genomes stay aligned with the full template.
    """
    n_cond = ast.conditional_clause_count()
    for index in drop:
        if not 0 <= index < n_cond:
            raise TemplateValidationError(
                f"no conditional clause c{index} (template has {n_cond})")
    dropset = set(drop)
    kept = []
    cond_pos = 0
    for clause in ast.clauses:
        if clause.condition is None:
            kept.append(clause)
        else:
            if cond_pos not in dropset:
                kept.append(clause)
            cond_pos += 1
    return TemplateAst(tuple(kept), ast.param_count, ast.schema)
