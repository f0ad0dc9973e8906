"""The node classes' contract, and the parser's scan against `_tokenize`.

`Const`, `Atom`, `Apply` and `Occurrence` are slotted and immutable:
equal only to a node of their own class with equal fields, hashed and
pickled by those fields, and written by repr as their frozen-dataclass
forms were.  The parser reads its tokens from one `findall`; its texts
must be `_tokenize`'s, or both must raise the same error.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emalp import Apply, Atom, Const, parse_body
from emalp.parser import ParseError, _scan, _tokenize
from emalp.program import Occurrence, is_freeze_site, occurrences

# the tokenizer property's alphabet, shared so both properties draw the same texts
from test_tokenizer import CHARACTERS, FRAGMENTS

NODES = [
    Const(0.5),
    Atom("p"),
    Apply("min", (Atom("p"), Const(0.5))),
    Apply("neg1", (Apply("max", (Atom("q"), Const(0.25))),)),
    Occurrence("p", -1, True),
]

REPRS = [
    "Const(value=0.5)",
    "Atom(name='p')",
    "Apply(op='min', args=(Atom(name='p'), Const(value=0.5)))",
    "Apply(op='neg1', args=(Apply(op='max', args=(Atom(name='q'), Const(value=0.25))),))",
    "Occurrence(atom='p', sign=-1, direct_negation=True)",
]


def copy(node):
    """An equal node built anew."""
    return eval(repr(node), {"Const": Const, "Atom": Atom, "Apply": Apply,
                             "Occurrence": Occurrence})


def test_equality_is_strict_on_type():
    assert Const(0.5) != (0.5,) and (0.5,) != Const(0.5)
    assert Atom("p") != Const(0.5) and Atom("p") != "p"
    assert Apply("min", (Atom("p"),)) != ("min", (Atom("p"),))
    assert Occurrence("p", 1, False) != ("p", 1, False)
    assert Const(1.0) == Const(1) and Const(0.5) != Const(0.25)
    assert Apply("min", (Atom("p"), Atom("q"))) != Apply("max", (Atom("p"), Atom("q")))


@pytest.mark.parametrize("node, text", list(zip(NODES, REPRS)))
def test_repr_is_the_dataclass_text(node, text):
    assert repr(node) == text


@pytest.mark.parametrize("node", NODES)
def test_equal_nodes_hash_equal_and_pickle_back(node):
    other = copy(node)
    assert other == node and other is not node and hash(other) == hash(node)
    assert len({node, other}) == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(node, protocol))
        assert back == node and type(back) is type(node) and hash(back) == hash(node)


@pytest.mark.parametrize("node", NODES)
def test_fields_cannot_be_assigned_or_deleted(node):
    field = type(node)._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(node, field, 1)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.other = 1
    assert node == copy(node)


def test_a_sign_summary_stays_outside_equality_and_pickling():
    body = parse_body("min(neg1(max(p, 0.25)), q)")
    negation = body.args[0]
    assert is_freeze_site(negation, 1) and not is_freeze_site(negation, -1)
    assert not is_freeze_site(body, 1)
    fresh = parse_body("min(neg1(max(p, 0.25)), q)")
    assert body == fresh and hash(body) == hash(fresh) and repr(body) == repr(fresh)
    back = pickle.loads(pickle.dumps(body))
    assert back == body and not hasattr(back.args[0], "_signs")
    assert occurrences(back) == occurrences(body)


def outcome(scan, text):
    try:
        return scan(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(CHARACTERS + FRAGMENTS), max_size=40).map("".join))
def test_the_scan_reads_the_tokens_tokenize_finds(text):
    assert outcome(_scan, text) == outcome(lambda t: [tok.text for tok in _tokenize(t)], text)


@pytest.mark.parametrize("text", ["", "  ", "p ;\n", "p # c", "p\n\n", "$", "p $ q", "p <",
                                  "p <-g q with 1;\n  "])
def test_the_scan_ends_with_one_eof(text):
    assert outcome(_scan, text) == outcome(lambda t: [tok.text for tok in _tokenize(t)], text)
