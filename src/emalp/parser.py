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
from typing import NamedTuple

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
    validate_program,
)

__all__ = [
    "ParseError",
    "parse_body",
    "parse_program",
    "serialize_program",
]


# Deepest nesting of operator applications in one body.  Parsing,
# validation, evaluation, serialization, `==`, hash and repr all recurse
# on the tree, at up to four interpreter frames per level on CPython 3.11
# (str, and the nodes' __eq__ and __repr__; __hash__ takes two), so this
# keeps every walk well inside Python's default recursion limit of 1000
# even when called from a deep stack.
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


# One match per token, its text the one group: whitespace and comments
# before it are skipped, and the empty match at the end of the text is the
# eof token.  A bad character takes the rest of the text with it, so only
# the last token but one can be bad.
_TOKEN_RE = re.compile(
    r"""\s*(?:\#[^\n]*\s*)*
      ( [A-Za-z_][A-Za-z0-9_]* | [(),;/] | \d+(?:\.\d+)? | <- | \Z | .+ )
    """,
    re.VERBOSE | re.DOTALL,
)


def _kind(tok: str) -> str:
    """A token's kind: an ident is an ASCII identifier, a number starts
    with a Unicode decimal digit, and a bad character is none of these."""
    if tok in ("<-", "(", ")", ",", ";", "/"):
        return tok
    return ("eof" if not tok else "number" if tok[0].isdecimal()
            else "ident" if tok.isascii() and tok.isidentifier() else "bad")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[Token]:
    """The tokens with their offsets: the parser's scan, made again only to
    place an error."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        tok, pos = m[1], m.start(1)
        kind = _kind(tok)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok[0]!r}", *_line_col(text, pos))
        tokens.append(Token(kind, tok, pos))
        if kind == "eof":   # a second "" may follow trailing whitespace
            return tokens


def _scan(text: str) -> list[str]:
    """The token texts, up to eof's ""; a bad character raises its ParseError."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1:
        if not tokens[-2]:   # after trailing whitespace the end matches twice
            tokens.pop()
        elif _kind(tokens[-2]) == "bad":
            _tokenize(text)   # raises at the bad character
    return tokens


class _Parser:
    """Recursive descent over `_scan`'s texts, in which a token is an ident
    exactly when it is an identifier (no bad token is left)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0
        self.depth = 0   # operator applications open around the current token

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the current one."""
        pos = _tokenize(self.text)[self.i if at is None else at].pos
        return ParseError(message, *_line_col(self.text, pos))

    def expect(self, kind: str) -> str:
        """The current token, stepped over; a number, or the punctuation `kind`."""
        tok = self.tokens[self.i]
        if not (tok[:1].isdecimal() if kind == "number" else tok == kind):
            raise self.error(f"expected {kind!r}, found {tok!r}")
        self.i += 1
        return tok

    def literal(self) -> float:
        at = self.i
        tok = self.expect("number")
        if self.tokens[self.i] != "/":
            value = float(tok)
        else:
            if "." in tok:
                raise self.error("fraction numerator must be an integer", at)
            self.i += 1
            den = self.expect("number")
            if "." in den:
                raise self.error("fraction denominator must be an integer", at + 2)
            try:
                value = int(tok) / int(den)
            except ZeroDivisionError:
                raise self.error("fraction denominator must be nonzero", at + 2) from None
            except OverflowError:
                raise self.error("fraction too large for a float", at) from None
            except ValueError:   # past int's limit on decimal digits
                raise self.error("fraction has too many digits", at) from None
        if not 0.0 <= value <= 1.0:
            raise self.error(f"literal {value} outside [0, 1]", at)
        return value

    def expr(self) -> BodyExpr:
        tokens, at = self.tokens, self.i
        tok = tokens[at]
        if not tok.isidentifier():
            if tok[:1].isdecimal():
                return Const(self.literal())
            raise self.error(f"expected an expression, found {tok!r}")
        if tok == "with":
            raise self.error("'with' is reserved")
        if tokens[at + 1] != "(":
            self.i = at + 1
            return Atom(tok)
        if tok not in BUILTINS:
            raise self.error(f"unknown builtin: {tok!r}", at)
        if self.depth == MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} applications", at)
        self.i = at + 2
        self.depth += 1
        args = [self.expr()]
        while tokens[self.i] == ",":
            self.i += 1
            args.append(self.expr())
        self.expect(")")
        self.depth -= 1
        spec = BUILTINS[tok]
        if len(args) < spec.min_arity or (spec.max_arity is not None and len(args) > spec.max_arity):
            raise self.error(f"{tok} applied to {len(args)} arguments", at)
        if spec.const_first and args[0].__class__ is not Const:
            raise self.error(f"first argument of {tok} must be a literal", at)
        return Apply(tok, tuple(args))

    def decl(self) -> Rule:
        tokens = self.tokens
        tok = tokens[self.i]
        if tok.isidentifier() and tok != "with":
            head: Atom | Const = Atom(tok)
            self.i += 1
        elif tok[:1].isdecimal():
            head = Const(self.literal())
        else:
            raise self.error(f"expected a rule head, found {tok!r}")
        self.expect("<-")
        tag = tokens[self.i]
        if tag not in TAG_IMPLICATIONS:
            raise self.error("expected implication tag 'g', 'p' or 'l'")
        self.i += 1
        body = self.expr()
        if tokens[self.i] != "with":
            raise self.error(f"expected 'with', found {tokens[self.i]!r}")
        self.i += 1
        weight = self.literal()
        self.expect(";")
        return Rule(head, TAG_IMPLICATIONS[tag], body, weight)

    def program(self) -> Program:
        rules = []
        while self.tokens[self.i]:   # until eof
            rules.append(self.decl())
        return Program(tuple(rules))


def parse_body(text: str) -> BodyExpr:
    """Parse a single body expression (no trailing input allowed)."""
    p = _Parser(text)
    e = p.expr()
    if p.tokens[p.i]:
        raise p.error(f"expected 'eof', found {p.tokens[p.i]!r}")
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

    A non-finite weight, constraint head or constant has no text, and a
    body nested deeper than MAX_DEPTH applications does not parse back,
    so either raises MalpError.
    """
    for idx, rule in enumerate(program.rules):
        values = [rule.weight, rule.head.value] if rule.is_constraint else [rule.weight]
        depth = _depth(rule.body, values)
        for v in values:
            if not math.isfinite(v):
                raise MalpError(f"rule {idx}: cannot write the non-finite value {v}")
        if depth > MAX_DEPTH:
            raise MalpError(f"rule {idx}: cannot write a body nested {depth} applications "
                            f"deep, past the {MAX_DEPTH} a file may hold")
    return f"{program}\n" if program.rules else ""


def _depth(body: BodyExpr, values: list[float]) -> int:
    """How deep the body nests applications, read level by level; its
    constants are appended to `values`."""
    depth, level = 0, [body]
    while level:
        values += [node.value for node in level if node.__class__ is Const]
        ops = [node for node in level if node.__class__ is Apply]
        depth += bool(ops)
        level = [arg for node in ops for arg in node.args]
    return depth
