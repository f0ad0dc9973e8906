"""Where `least_model` stops: at an exact fixpoint, or where a pre-fixpoint bounds the limit.

A stop at the first step smaller than tol bounds the step, not the
distance to the limit: for a rule feeding itself at rate r that distance
is about step * r / (1 - r).  Kleene iterates lie below the least
fixpoint of a monotone T and every pre-fixpoint X (T(X) <= X) lies
above it, so `least_model` stops at T(I) == I, or at a step below tol
whose T(I) + tol is a pre-fixpoint.  Two one-rule programs showed the
old stop's wrong verdicts; the property draws more of their kind.
"""

import json
import tracemalloc

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emalp import parse_program
from emalp.cli import main
from emalp.lattice import DEFAULT_TOL
from emalp.semantics import (
    DEFAULT_MAX_ITER,
    StableSearchConfig,
    find_stable_models,
    is_stable,
    least_model,
)

# least model p = 1, approached at rate 0.99: the old stop quit at p = 0.99999990
SLOW = "p <-l add(mul(0.99, p), 0.01) with 1;\n"
# least model p = 5e-4, every step below tol: the old stop quit at p = 5e-10
TINY = "p <-g add(mul(0.999999, p), 0.0000000005) with 1;\n"


def search(program, **cfg):
    undecided = []
    return find_stable_models(program, StableSearchConfig(**cfg), undecided), undecided


def test_a_slow_approach_stops_within_tol_of_its_least_model():
    program = parse_program(SLOW)
    value, trace = least_model(program)
    assert trace.converged and trace.iterations == 2062
    assert 1 - DEFAULT_TOL <= value["p"] < 1     # p = 1 + tol is above: T(1) = 1
    assert is_stable(program, {"p": 1.0}) is True
    assert is_stable(program, {"p": 0.9999999}) is False
    assert search(program, mode="grid", grid_step=0.25) == ([{"p": 1.0}], [])
    models, _ = search(program, mode="iterate", seeds=2)
    assert len(models) == 1 and abs(models[0]["p"] - 1) <= DEFAULT_TOL


def test_steps_below_tol_far_from_the_least_model_are_not_a_stop():
    program = parse_program(TINY)
    _, trace = least_model(program)
    assert not trace.converged and trace.iterations == DEFAULT_MAX_ITER
    assert is_stable(program, {"p": 5e-10}) is None
    assert is_stable(program, {"p": 5e-4}) is None
    models, undecided = search(program, mode="grid", grid_step=0.25, max_iter=2000)
    assert models == [] and undecided == [{"p": v} for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert search(program, mode="iterate", seeds=2, max_iter=2000)[0] == []


def test_a_settled_atom_is_not_raised_in_the_bound():
    # x halves its distance to y = 0.25; y + tol in X would feed x past
    # x + tol, so raising every atom proves nothing before x settles
    value, trace = least_model(parse_program("y <-g 0.25 with 1;\nx <-p or_l(x, y) with 0.5;"))
    assert trace.converged and trace.iterations == 29
    assert trace.iterates[-2] != trace.iterates[-1]
    assert 0.25 - DEFAULT_TOL <= value["x"] < 0.25 and value["y"] == 0.25


def test_a_verdict_that_reaches_the_cap_keeps_one_iterate():
    # TINY's rule, read by eight more heads: all nine are iterated to the cap,
    # and the verdict holds the last iterate only, not each of the 10,000
    program = parse_program(TINY + "".join(f"q{i} <-g max(p, {i}/10) with 1;\n"
                                           for i in range(1, 9)))
    M = dict.fromkeys(program.atoms(), 0.5)
    assert is_stable(program, M) is None   # the program's analysis is made here
    tracemalloc.start()
    try:
        verdict = is_stable(program, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is None
    assert peak < 0.5e6


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cli_on_a_slow_approach(capsys, tmp_path):
    path, interp = tmp_path / "slow.malp", tmp_path / "one.json"
    path.write_text(SLOW)
    interp.write_text('{"p": 1}')
    code, out, _ = run(capsys, "lfp", path)
    data = json.loads(out)
    assert (code, data["trace"]["converged"], data["trace"]["iterations"]) == (0, True, 2062)
    assert 1 - DEFAULT_TOL <= data["least_model"]["p"] < 1
    code, out, _ = run(capsys, "stable", "verify", path, "-i", interp)
    assert (code, json.loads(out)["stable"]) == (0, True)
    code, out, _ = run(capsys, "stable", "search", path, "--grid", "0.25")
    data = json.loads(out)
    assert (code, data["stable_models"], data["undecided"]) == (0, [{"p": 1.0}], [])
    code, out, _ = run(capsys, "stable", "search", path, "--seeds", "2")
    assert (code, json.loads(out)["count"]) == (0, 1)


def test_the_cli_on_steps_below_tol(capsys, tmp_path):
    path, interp = tmp_path / "tiny.malp", tmp_path / "tiny.json"
    path.write_text(TINY)
    interp.write_text('{"p": 5e-10}')
    cap = ("--max-iter", "2000")
    code, out, _ = run(capsys, "lfp", path, *cap)
    data = json.loads(out)
    assert (code, data["trace"]["converged"], data["trace"]["iterations"]) == (0, False, 2000)
    code, out, _ = run(capsys, "stable", "verify", path, "-i", interp, *cap)
    assert (code, json.loads(out)["stable"]) == (0, "indeterminate")
    code, out, err = run(capsys, "stable", "search", path, "--grid", "0.25", *cap)
    data = json.loads(out)
    assert (code, data["count"], len(data["undecided"])) == (0, 0, 5)
    assert err.startswith("note: 5 grid point(s) undecided")
    code, out, _ = run(capsys, "stable", "search", path, "--seeds", "2", *cap)
    assert (code, json.loads(out)["count"]) == (0, 0)


def decimal(draw, exponents):
    """A literal m * 10**-e with one nonzero digit m, as text and value."""
    m, e = draw(st.integers(1, 9)), draw(st.sampled_from(exponents))
    text = "0." + "0" * (e - 1) + str(m)
    return text, float(text)


@st.composite
def self_feeding_chains(draw):
    """x1 <- r1*x1 + c; x_i <- r_i*x_i + s_i*x_(i-1): rules and least model in closed form."""
    rules, least = [], {}
    for i in range(1, draw(st.integers(1, 3)) + 1):
        r = draw(st.integers(0, 999)) / 1000
        text, c = decimal(draw, range(1, 13))
        assume(r + c <= 1)      # else the body may leave [0, 1]
        name = f"x{i}"
        if i == 1:
            rules.append(f"{name} <-g add(mul({r}, {name}), {text}) with 1;")
            least[name] = c / (1 - r)
        else:
            rules.append(f"{name} <-g add(mul({r}, {name}), mul({text}, x{i - 1})) with 1;")
            least[name] = c * least[f"x{i - 1}"] / (1 - r)
    return parse_program("\n".join(rules)), {a: min(1.0, v) for a, v in least.items()}


@settings(max_examples=100, deadline=None)
@given(self_feeding_chains(), st.data())
def test_verdicts_hold_at_the_closed_form_least_model(chain, data):
    program, least = chain
    assert is_stable(program, least) is not False
    # a point farther than 2 tol from it: the stop leaves the iterate
    # up to tol below the least model, and the verdict allows tol more
    atom = data.draw(st.sampled_from(sorted(least)))
    _, d = decimal(data.draw, range(1, 9))
    far = min(1.0, least[atom] + d) if least[atom] < 0.5 else max(0.0, least[atom] - d)
    assert is_stable(program, dict(least, **{atom: far})) is not True

