"""The tokenizer against the match-per-step loop it replaced.

`oracle_tokenize` is the earlier tokenizer, one `re.match` and one
frozen-dataclass token per step, whitespace runs included, tracking the
line and column as it goes.  Token streams (kind, text, and the line
and column of each token's offset) and every error message and position
must be the same.
"""

import random
import re
import string
from dataclasses import astuple, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emalp.parser import MAX_DEPTH, ParseError, _tokenize, serialize_program

from conftest import MOTOR_TEXT, gen
from genprog import random_emalp


@dataclass(frozen=True)
class OracleToken:
    kind: str
    text: str
    line: int
    col: int


_ORACLE_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow><-)
      | (?P<punct>[(),;/])
    """,
    re.VERBOSE,
)


def oracle_tokenize(text):
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _ORACLE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        if m.lastgroup == "ws":
            nl = m.group().count("\n")
            if nl:
                line += nl
                line_start = m.start() + m.group().rindex("\n") + 1
        elif m.lastgroup == "number":
            tokens.append(OracleToken("number", m.group(), line, col))
        elif m.lastgroup == "ident":
            tokens.append(OracleToken("ident", m.group(), line, col))
        elif m.lastgroup == "arrow":
            tokens.append(OracleToken("<-", m.group(), line, col))
        else:
            tokens.append(OracleToken(m.group(), m.group(), line, col))
        pos = m.end()
    tokens.append(OracleToken("eof", "", line, len(text) - line_start + 1))
    return tokens


def line_col(text, pos):
    before = text[:pos]
    return before.count("\n") + 1, len(before.rsplit("\n", 1)[-1]) + 1


def outcome(tokenize, text):
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    return [astuple(t) if isinstance(t, OracleToken) else (t.kind, t.text, *line_col(text, t.pos))
            for t in tokens]


def assert_same(text):
    expected = outcome(oracle_tokenize, text)
    assert outcome(_tokenize, text) == expected, text


def bench_pool_texts():
    """The programs the benchmark's workloads generate."""
    for n, count in ((5, 240), (6, 40), (7, 10)):
        for i in range(count):
            yield gen.grid_program(n, i)
    for k in (1, 2):
        for i in range(120):
            yield gen.equiv_program(k, i)
    for n in (6, 7, 8):
        for i in range(30):
            yield gen.iterate_program(n, True, i)[0]
    for i in range(30):
        yield gen.iterate_program(6 + i % 3, False, i)[0]


def test_benchmark_pools_tokenize_alike():
    texts = list(bench_pool_texts())
    assert len(texts) == 650
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("seed", range(0, 300, 50))
def test_genprog_programs_tokenize_alike(seed):
    for s in range(seed, seed + 50):
        rng = random.Random(s)
        assert_same(serialize_program(random_emalp(rng, max_atoms=4, max_rules=5)))


WELL_FORMED = [
    "", " ", "\n", "\n\n  \n", "# only a comment", "# comment\n", MOTOR_TEXT,
    MOTOR_TEXT.replace("\n", "\r\n"), "p <-g q with 1;  # trailing\nq <-g 1/2 with 3/4;",
    "p<-g neg1(q)with 1;", "\tp <-l\tq with 0.5;\r\n\r\n", "x_1 <-p 0.25 with 1;\n# end",
    "(" * (MAX_DEPTH + 5), "1.5.5 2 0.75",
]

MALFORMED = [
    "$p <-g q with 1;",                      # at the start
    "p <-g q $ with 1;",                     # in the middle
    "p <-g q with 1;$",                      # at the end of the file
    "p <-g q with 1;\n$",                    # at the end, on a new line
    "# a comment\n@p <-g q with 1;",         # after a comment
    "p <-g q with 1; # comment $\n!",        # after a comment on the same line
    "p <-g q with 1;\r\nq <-g p with 1;\r\n%",  # after CRLF
    "p <-g q with 1;\r\n\r\n  ~q",
    "p < q", "p - q", "p <- g q with 1.;", "p <-g q with 1;\x00", "é",
    "p <-g q with 1;\n\n\n   *", "p <-g 2. with 1;",
]


@pytest.mark.parametrize("text", WELL_FORMED + MALFORMED)
def test_hand_written_inputs_tokenize_alike(text):
    assert_same(text)


@pytest.mark.parametrize("text, message", [
    ("$p <-g q with 1;", "1:1: unexpected character '$'"),
    ("p <-g q $ with 1;", "1:9: unexpected character '$'"),
    ("p <-g q with 1;$", "1:16: unexpected character '$'"),
    ("# a comment\n@p <-g q with 1;", "2:1: unexpected character '@'"),
    ("p <-g q with 1;\r\nq <-g p with 1;\r\n%", "3:1: unexpected character '%'"),
])
def test_malformed_inputs_raise_at_the_bad_character(text, message):
    with pytest.raises(ParseError) as info:
        _tokenize(text)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(5))
def test_random_strings_tokenize_alike(seed):
    rng = random.Random(seed)
    alphabet = "pq01 .,;/()<-#\n\r\tgwith$%"
    for _ in range(400):
        assert_same("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))))


# every punctuation mark; Unicode whitespace, which \s matches but only
# "\n" ends a line; a lone "\r"; Unicode digits, which \d matches
CHARACTERS = list(string.punctuation + "pqgwith_01.9 \t\n\r\x0b\x0c\x1c\x85\u00a0\u2028\u2029"
                  "\u0663\uff15\u00e9")
FRAGMENTS = ["<-", "with", "# c", "#", "1/2", "0.5", "neg1(", "\r\n"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(CHARACTERS + FRAGMENTS), max_size=40).map("".join))
def test_any_text_tokenizes_alike(text):
    assert_same(text)


def test_a_long_run_of_whitespace_reaches_the_bad_character():
    with pytest.raises(ParseError) as info:
        _tokenize(" " * 1_000_000 + "$")
    assert str(info.value) == "1:1000001: unexpected character '$'"
