"""Recursive-descent parser and serializer for the rule DSL.

    program  := (decl ";")*
    decl     := head "<-" tag expr "with" literal
    head     := IDENT | literal            # literal head = constraint
    tag      := "g" | "p" | "l"
    expr     := literal | IDENT | FUNC "(" expr ("," expr)* ")"
    literal  := DECIMAL | INT "/" INT      # must denote a value in [0, 1]

Files use extension .malp, UTF-8, '#' line comments.  "with" is a
reserved word.  f and g take their threshold constant as a first,
literal argument.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, NamedTuple

from .lattice import DEFAULT_TOL
from .program import (
    Apply,
    Atom,
    BodyExpr,
    BUILTINS,
    Const,
    MalpError,
    Program,
    Rule,
    TAG_IMPLICATIONS,
    ValidationFailure,
    body_ops,
    validate_program,
)


# Deepest nesting of operator applications in one body.  Parsing,
# validation, evaluation, serialization and `==` all recurse on the tree,
# at up to four interpreter frames per level (str and the dataclass
# equality), so this keeps every walk well inside Python's default
# recursion limit of 1000 even when called from a deep stack.
MAX_DEPTH = 128


class ParseError(MalpError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow><-)
      | (?P<punct>[(),;/])
    """,
    re.VERBOSE,
)
_KINDS = {"number": "number", "ident": "ident", "arrow": "<-"}


def _tokenize(text: str) -> list[Token]:
    # One finditer pass; a match that does not start where the last one
    # ended skipped a character no token pattern matches.
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind, tok = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = pos + tok.rindex("\n") + 1
        else:
            tokens.append(Token(_KINDS.get(kind, tok), tok, line, pos - line_start + 1))
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0   # operator applications open around the current token

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def literal(self) -> float:
        tok = self.expect("number")
        if self.peek().kind == "/":
            if "." in tok.text:
                raise ParseError("fraction numerator must be an integer", tok.line, tok.col)
            self.next()
            den = self.expect("number")
            if "." in den.text:
                raise ParseError("fraction denominator must be an integer", den.line, den.col)
            if int(den.text) == 0:
                raise ParseError("fraction denominator must be nonzero", den.line, den.col)
            value = int(tok.text) / int(den.text)
        else:
            value = float(tok.text)
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"literal {value} outside [0, 1]", tok.line, tok.col)
        return value

    def expr(self) -> BodyExpr:
        tok = self.peek()
        if tok.kind == "number":
            return Const(self.literal())
        if tok.kind != "ident":
            raise self.error(f"expected an expression, found {tok.text!r}")
        if tok.text == "with":
            raise self.error("'with' is reserved")
        self.next()
        if self.peek().kind != "(":
            return Atom(tok.text)
        if tok.text not in BUILTINS:
            raise ParseError(f"unknown builtin: {tok.text!r}", tok.line, tok.col)
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} applications",
                             tok.line, tok.col)
        self.next()
        self.depth += 1
        args = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        spec = BUILTINS[tok.text]
        if len(args) < spec.min_arity or (spec.max_arity is not None and len(args) > spec.max_arity):
            raise ParseError(f"{tok.text} applied to {len(args)} arguments", tok.line, tok.col)
        if spec.const_first and not isinstance(args[0], Const):
            raise ParseError(f"first argument of {tok.text} must be a literal", tok.line, tok.col)
        return Apply(tok.text, tuple(args))

    def decl(self) -> Rule:
        tok = self.peek()
        if tok.kind == "number":
            head: Atom | Const = Const(self.literal())
        elif tok.kind == "ident" and tok.text != "with":
            head = Atom(self.next().text)
        else:
            raise self.error(f"expected a rule head, found {tok.text!r}")
        self.expect("<-")
        tag = self.peek()
        if tag.kind != "ident" or tag.text not in TAG_IMPLICATIONS:
            raise self.error("expected implication tag 'g', 'p' or 'l'")
        self.next()
        body = self.expr()
        kw = self.peek()
        if kw.kind != "ident" or kw.text != "with":
            raise self.error(f"expected 'with', found {kw.text!r}")
        self.next()
        weight = self.literal()
        self.expect(";")
        return Rule(head, TAG_IMPLICATIONS[tag.text], body, weight)

    def program(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.decl())
        return Program(tuple(rules))


def parse_body(text: str) -> BodyExpr:
    """Parse a single body expression (no trailing input allowed)."""
    p = _Parser(text)
    e = p.expr()
    p.expect("eof")
    return e


def parse_program(text: str, allow_repeats: bool = False, tol: float = DEFAULT_TOL,
                  validate: bool = True) -> Program:
    """Parse and validate DSL text; raises ParseError or ValidationFailure.

    With validate=False the syntax tree is returned as parsed, leaving
    invariant checking to the caller (used by diagnostics frontends).
    """
    program = _Parser(text).program()
    if validate:
        report = validate_program(program, allow_repeats=allow_repeats, tol=tol)
        if not report.ok:
            raise ValidationFailure(report)
    return program


def serialize_program(program: Program) -> str:
    """Canonical DSL text; parse_program(serialize_program(P)) == P.

    A non-finite weight, constraint head or constant has no text, so it
    raises MalpError.
    """
    for idx, rule in enumerate(program.rules):
        for v in _values(rule):
            if not math.isfinite(v):
                raise MalpError(f"rule {idx}: cannot write the non-finite value {v}")
    if not program.rules:
        return ""
    return "\n".join(str(r) for r in program.rules) + "\n"


def _values(rule: Rule) -> Iterator[float]:
    """The numbers a rule's text writes: weight, constraint head, constants."""
    yield rule.weight
    if rule.is_constraint:
        yield rule.head.value
    if isinstance(rule.body, Const):
        yield rule.body.value
    for node in body_ops(rule.body):
        yield from (a.value for a in node.args if isinstance(a, Const))
