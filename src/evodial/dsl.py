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
from functools import partial
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .core import ActionDecision, DialogState, resolve_action

EQ_TOLERANCE = 1e-9

_PARAM_RE = re.compile(r"^p(\d+)$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

DEFAULT_OFFER_THRESHOLD = 0.5


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

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
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
    found = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        if not in_body and _strip_comment(line).strip() == "%%":
            in_body = True
            found = True
            continue
        (body if in_body else header).append((lineno, line))
    if not found:
        return [], [(i, l) for i, l in enumerate(source.splitlines(), start=1)]
    return header, body


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
# Evaluation
# ---------------------------------------------------------------------------

def _eval_cond(node: CondExpr, variables: Mapping, params: Sequence[float]):
    """Truth of a condition on one state or on a batch of states.

    ``variables`` maps names to scalars (one state; the result is a bool) or
    to equal-length arrays (a batch; the result is a bool array).  Boolean
    variables must already hold bools, since ``and``/``or`` are ``&``/``|``.
    """
    if isinstance(node, LogicNode):
        left = _eval_cond(node.left, variables, params)
        right = _eval_cond(node.right, variables, params)
        return (left & right) if node.op == "and" else (left | right)
    name = node.name if isinstance(node, BoolVar) else node.var
    try:
        value = variables[name]
    except KeyError:
        raise MissingStateVariable(f"state has no variable {name!r}") from None
    if isinstance(node, BoolVar):
        return value
    p = params[node.param]
    if node.op == "<":
        return value < p
    if node.op == ">":
        return value > p
    return abs(value - p) <= EQ_TOLERANCE


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
    return _first_match(ast, _check_arity(ast, params), state)


def template_policy(ast: TemplateAst, params: Sequence[float]
                    ) -> Callable[[DialogState], ActionDecision]:
    """``evaluate_policy`` with the parameters bound, checked once here
    rather than on every call."""
    return partial(_first_match, ast, _check_arity(ast, params))


def _first_match(ast: TemplateAst, values: list[float],
                 state: DialogState | Mapping[str, float | bool]) -> ActionDecision:
    if isinstance(state, DialogState):
        variables = state.variables()
    else:
        kinds = dict.fromkeys(ast.schema.bool_vars, bool) | \
            dict.fromkeys(ast.schema.num_vars, float)
        variables = {k: kinds[k](v) if k in kinds else v for k, v in state.items()}
    for i, clause in enumerate(ast.clauses):
        if clause.condition is not None and \
                not _eval_cond(clause.condition, variables, values):
            continue
        spec = clause.action
        if isinstance(state, DialogState):
            threshold = DEFAULT_OFFER_THRESHOLD
            for key, ref in spec.structural_params:
                if key == "filter":
                    threshold = values[ref]
            return resolve_action(spec.act, state, offer_threshold=threshold,
                                  clause_index=i)
        return ActionDecision(spec.act, clause_index=i)
    raise AssertionError("unreachable: final clause is unconditional")


def evaluate_policy_batch(ast: TemplateAst, params: Sequence[float],
                          columns: Mapping[str, np.ndarray],
                          action_index: Mapping[str, int]) -> np.ndarray:
    """Vectorized first-match evaluation over a batch of states.

    ``columns`` maps state-variable names to equal-length arrays;
    ``action_index`` maps action labels to output codes (labels missing from
    it are coded -1).  Returns one action code per state.
    """
    values = _check_arity(ast, params)
    columns = {**columns, **{name: np.asarray(columns[name], dtype=bool)
                             for name in ast.schema.bool_vars if name in columns}}
    n = len(next(iter(columns.values())))
    out = np.full(n, -1, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    for clause in ast.clauses:
        if clause.condition is None:
            fired = undecided
        else:
            fired = undecided & _eval_cond(clause.condition, columns, values)
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
