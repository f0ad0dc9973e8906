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
    kind: str   # "number", "ident", "eof", or the punctuation's text
    text: str
    pos: int    # offset in the text; _line_col turns it into a position


# One match per token: whitespace and comments before it are skipped,
# and the last alternatives match the end of the text or a bad character.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
      (?: (?P<number>\d+(?:\.\d+)?)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<punct><-|[(),;/])
        | (?P<eof>\Z)
        | (?P<bad>.) )
    """,
    re.VERBOSE | re.DOTALL,
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", *_line_col(text, pos))
        tokens.append(Token(tok if kind == "punct" else kind, tok, pos))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
            raise self.error(f"expected {kind!r}, found {tok.text!r}", tok)
        return self.next()

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """A ParseError at tok, by default the current token."""
        pos = (self.peek() if tok is None else tok).pos
        return ParseError(message, *_line_col(self.text, pos))

    def literal(self) -> float:
        tok = self.expect("number")
        if self.peek().kind == "/":
            if "." in tok.text:
                raise self.error("fraction numerator must be an integer", tok)
            self.next()
            den = self.expect("number")
            if "." in den.text:
                raise self.error("fraction denominator must be an integer", den)
            try:
                value = int(tok.text) / int(den.text)
            except ZeroDivisionError:
                raise self.error("fraction denominator must be nonzero", den) from None
            except OverflowError:
                raise self.error("fraction too large for a float", tok) from None
            except ValueError:   # past int's limit on decimal digits
                raise self.error("fraction has too many digits", tok) from None
        else:
            value = float(tok.text)
        if not 0.0 <= value <= 1.0:
            raise self.error(f"literal {value} outside [0, 1]", tok)
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
            raise self.error(f"unknown builtin: {tok.text!r}", tok)
        if self.depth == MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} applications", tok)
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
            raise self.error(f"{tok.text} applied to {len(args)} arguments", tok)
        if spec.const_first and not isinstance(args[0], Const):
            raise self.error(f"first argument of {tok.text} must be a literal", tok)
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
