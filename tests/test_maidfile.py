"""Parsing and rendering of the plain-text graph format."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from maidkit import (
    Maid,
    MaidError,
    MaidParseError,
    Node,
    NodeKind,
    card_game,
    parse_maidfile,
    principal_agent,
    render_maidfile,
    validate,
)
from maidkit import cli, maidfile

import helpers


MESSY = """
# two rounds of inspection        # noqa: this whole line is a comment
agent    a;agent b;

utility  prize {agent a; parents call;
    table 1.0 0.0;}

decision call{agent a;
  domain yes   no;   # forward reference below
  parents hint;}

chance hint { domain yes no; cpt 0.25 .75; }
"""


def test_parses_messy_text():
    m = parse_maidfile(MESSY)
    assert m.agents == frozenset({"a", "b"})
    assert set(m.nodes) == {"prize", "call", "hint"}
    assert m.nodes["call"].parents == ("hint",)
    assert m.nodes["prize"].kind is NodeKind.UTILITY
    assert m.nodes["hint"].cpt == (0.25, 0.75)
    assert validate(m) == []


def test_number_forms():
    m = parse_maidfile("""
        chance x { domain lo hi; cpt 2.5e-1 7.5E-01; }
        utility u { agent z; parents x; table -3 1e2; }
        agent z;
    """)
    assert m.nodes["x"].cpt == (0.25, 0.75)
    assert m.nodes["u"].table == (-3.0, 100.0)


def test_empty_input_is_an_empty_graph():
    m = parse_maidfile("")
    assert m.agents == frozenset()
    assert m.nodes == {}
    assert validate(m) == []
    assert parse_maidfile(render_maidfile(m)) == m


def test_text_that_is_not_a_string_is_refused():
    for text in (b"agent a;", None, 3):
        with pytest.raises(MaidError, match="must be a str"):
            parse_maidfile(text)


def test_stray_semicolons_rejected():
    with pytest.raises(MaidParseError):
        parse_maidfile(";")


# -- syntax errors carry a position ------------------------------------------------


@pytest.mark.parametrize("text,fragment,line,col", [
    ("agent a", "expected ';'", 1, 8),
    ("chance X { domain f t;", "end of input", 1, 23),
    ("chance X { domain f t }", "expected ';'", 1, 23),
    ("chance 9X { }", "node name", 1, 8),
    ("decision D { agent 5; }", "agent name", 1, 20),
    ("chance X { color red; }", "clause", 1, 12),
    ("agent a; chance X { domain f t; } boom", "found 'boom'", 1, 35),
    ("agent a;\n%", "unexpected character", 2, 1),
    ("chance 9X { } %", "unexpected character", 1, 15),
    ("agent a;\r\nagent", "end of input", 2, 6),
    ("# note\n  agent 5;", "agent name", 2, 9),
    ("agent\x0ba;\x0cchance", "node name", 1, 16),
    ("chance X { domain f t; cpt 0.5 x; }", "expected ';'", 1, 32),
])
def test_syntax_error_positions(text, fragment, line, col):
    with pytest.raises(MaidParseError) as exc:
        parse_maidfile(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line
    assert exc.value.col == col


def test_duplicates_rejected_at_parse():
    with pytest.raises(MaidParseError, match="declared twice"):
        parse_maidfile("agent a;\nagent a;")
    with pytest.raises(MaidParseError, match="declared twice"):
        parse_maidfile("chance X { domain f t; }\nchance X { domain f t; }")
    with pytest.raises(MaidParseError, match="given twice"):
        parse_maidfile("chance X { domain f t; domain g h; }")


def test_semantic_problems_are_left_to_validate():
    # The file is well-formed; the graph is not. The parser loads it so the
    # diagnostics can name the offending nodes.
    m = parse_maidfile("""
        agent z;
        chance X { domain f t; cpt 0.5 0.25 0.25; }
        decision D { agent z; domain f t; parents ghost; }
    """)
    problems = {d.rule for d in validate(m)}
    assert "cpt-arity" in problems
    assert any(d.node == "D" for d in validate(m))


# -- rendering ----------------------------------------------------------------------


def test_render_is_parse_inverse_on_fixtures(card1, pa, cascade, pennies, sig_min):
    for m in (card1, pa, cascade, pennies, sig_min):
        assert parse_maidfile(render_maidfile(m)) == m


@pytest.mark.parametrize("name,build", [
    ("card-game.maid", lambda: card_game(1)),
    ("principal-agent.maid", principal_agent),
])
def test_shipped_game_files_match_their_fixtures(name, build):
    text = (Path(__file__).resolve().parent.parent / "games" / name).read_text()
    assert parse_maidfile(text) == build()
    assert render_maidfile(build()) == text


def test_render_is_stable(card1):
    text = render_maidfile(card1)
    assert render_maidfile(parse_maidfile(text)) == text
    assert text.endswith("\n")


def test_render_rejects_unwritable_names():
    from maidkit import Maid, MaidError, Node

    m = Maid.build(agents=["z"],
                   nodes=[Node.chance("x", domain=("0", "1"), cpt=(0.5, 0.5))])
    with pytest.raises(MaidError, match="cannot be written"):
        render_maidfile(m)
    # An unresolved parent is written by name, so its name must lex too.
    m = Maid.build(agents=["z"],
                   nodes=[Node.chance("x", domain=("f", "t"), parents=("a-b",))])
    with pytest.raises(MaidError, match="parent name 'a-b' cannot be written"):
        render_maidfile(m)
    # A kind that is not a NodeKind has no keyword; each escaped as an
    # AttributeError.
    x = Node.chance("x", domain=("f", "t"), cpt=(0.5, 0.5))
    for kind in ("chance", None, 3):
        m = Maid(agents=frozenset({"z"}), nodes={"x": dataclasses.replace(x, kind=kind)})
        with pytest.raises(MaidError, match=f"node 'x' has kind {kind!r}, not a NodeKind"):
            render_maidfile(m)


def test_render_refuses_a_node_keyed_by_another_id():
    # Written by its id, the node would declare another node, and the
    # text would parse into a different graph, here one in which y's
    # parent x resolves.
    b = ("f", "t")
    x, y = Node.chance("x", b), Node.chance("y", b, parents=("x",))
    for nodes, key in (({"a": x, "y": y}, "'a'"), ({5: x, 6: y}, "5")):
        m = Maid(agents=frozenset({"p"}), nodes=nodes)
        with pytest.raises(MaidError, match=f"node keyed as {key} reports id 'x'"):
            render_maidfile(m)


def test_render_orders_nodes_topologically(pa):
    text = render_maidfile(pa)
    positions = {n: text.index(f" {n} {{") for n in pa.nodes}
    for p, c in pa.edges:
        assert positions[p] < positions[c]


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000))
def test_round_trip_structures(seed):
    m = helpers.random_structure_maid(random.Random(seed))
    assert parse_maidfile(render_maidfile(m)) == m


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000))
def test_round_trip_parameterized(seed):
    m = helpers.random_parameterized_maid(random.Random(seed))
    text = render_maidfile(m)
    assert parse_maidfile(text) == m
    assert render_maidfile(parse_maidfile(text)) == text


def _scaled_payoffs(m, rng):
    """``m`` with each payoff table scaled by a power of ten, so that its
    text holds negative numbers and numbers with exponents."""
    return Maid.build(agents=m.agents, nodes=[
        dataclasses.replace(n, table=tuple(v * 10.0 ** rng.randint(-30, 30) for v in n.table))
        if n.table else n for n in m.nodes.values()])


def test_scanner_reads_every_rendered_file(monkeypatch, card1, pa, cascade, pennies, sig_min):
    # Every text render_maidfile writes is read one declaration per match:
    # the token parser is never built. A silent fall-through to it would
    # keep every result and lose the speed.
    games = Path(__file__).resolve().parent.parent / "games"
    texts = [render_maidfile(m) for m in (card1, pa, cascade, pennies, sig_min)]
    texts += [path.read_text() for path in sorted(games.glob("*.maid"))]
    texts += [render_maidfile(card_game(n)) for n in range(1, 10)]
    for seed in range(200):
        rng = random.Random(seed)
        texts.append(render_maidfile(helpers.random_structure_maid(rng)))
        texts.append(render_maidfile(_scaled_payoffs(helpers.random_parameterized_maid(rng), rng)))
    numbers = " ".join(re.findall(r"(?:cpt|table) ([^;]*);", "".join(texts))).split()
    assert any(v.startswith("-") for v in numbers)
    assert any("e-" in v for v in numbers) and any("e+" in v for v in numbers)

    expected = [helpers.reference_parse_maidfile(text) for text in texts]

    def no_token_parser(text):
        raise AssertionError(f"read token by token:\n{text}")

    monkeypatch.setattr(maidfile, "_Parser", no_token_parser)
    assert [parse_maidfile(text) for text in texts] == expected


@pytest.mark.parametrize("text", [
    "@" + " " * 50_000,
    "agent p;" + " " * 50_000 + "@",
    "agent p; chance x { domain a" + " " * 50_000 + "x }",
    "agent p; chance x { domain a; cpt " + "1" * 50_000 + "x; }",
    "agent p; chance x { domain a; cpt " + "1" * 25_000 + "." + "1" * 25_000 + "x; }",
], ids=["lead", "tail", "items", "digits", "decimal"])
def test_scanner_gives_up_on_long_runs_in_linear_time(text):
    # A search past the first unreadable text, or a number pattern with two
    # ways to split a digit run, makes the scanner quadratic here: minutes
    # instead of milliseconds before the token parser takes over.
    start = time.perf_counter()
    assert (_parse_outcome(parse_maidfile, text)
            == _parse_outcome(helpers.reference_parse_maidfile, text))
    assert time.perf_counter() - start < 2.0


def test_patterns_keep_to_python_3_10_syntax():
    # Possessive quantifiers and atomic groups are Python 3.11 syntax; on
    # 3.10 a pattern holding one fails to compile, and maidkit to import.
    patterns = [v for v in vars(maidfile).values() if isinstance(v, re.Pattern)]
    assert maidfile._DECL_RE in patterns
    for pattern in patterns:
        for syntax in ("*+", "++", "?+", "}+", "(?>"):
            assert syntax not in pattern.pattern, (pattern.pattern, syntax)


# -- agreement with the reference parser -------------------------------------------

# Characters that stress the lexer: every whitespace kind, comment starts,
# punctuation, number pieces, a character no token takes, and a non-ASCII
# letter and digit (``\\s`` and ``\\d`` match Unicode; identifiers do not).
_FUZZ_ALPHABET = " \n\r\t\x0b\x0c#{};0123456789.eE-%ax_\u00e9\u0663"

_FUZZ_SOURCES = st.one_of(
    st.sampled_from([render_maidfile(m) for m in (
        card_game(1), principal_agent(), helpers.cascade_maid(),
        helpers.matching_pennies(), helpers.minimal_signaling())] + [MESSY]),
    st.integers(1, 6).map(lambda n: render_maidfile(card_game(n))),
    st.integers(0, 10_000).map(
        lambda seed: render_maidfile(helpers.random_structure_maid(random.Random(seed)))),
)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except MaidParseError as exc:
        return str(exc), exc.line, exc.col


def _mutated(text, data):
    """``text`` with short runs of characters inserted and deleted, then
    maybe truncated."""
    for _ in range(data.draw(st.integers(1, 6), label="edits")):
        pos = data.draw(st.integers(0, len(text)), label="position")
        if data.draw(st.booleans(), label="insert"):
            piece = data.draw(st.text(_FUZZ_ALPHABET, min_size=1, max_size=3), label="piece")
            text = text[:pos] + piece + text[pos:]
        else:
            text = text[:pos] + text[pos + data.draw(st.integers(1, 3), label="cut"):]
    if data.draw(st.booleans(), label="truncate"):
        text = text[:data.draw(st.integers(0, len(text)), label="length")]
    return text


# Whitespace the lexer skips, two non-ASCII kinds included, comments, and
# number-like literals the lexer splits (1.5.5, 1e), reads as one number
# (-.5, 1e999, an Arabic-Indic digit) or as a name (nan, inf).
_SPACES = st.just("\r\n") | st.text(" \t\n\r\x0b\x0c\u00a0\u2003", min_size=1, max_size=3)
_COMMENTS = ("#\n", "# a; b {}\r\n", "#\u2003x")
_LITERALS = ("1.5.5", "1e", "-.5", "1e999", "nan", "inf", "\u0663")


def _relaid(text, data):
    """``text`` with whole declarations and clauses repeated or reordered,
    a literal put in place of a number, and laid out anew: the same
    whitespace in front of every token, or none around punctuation, with
    comments in some gaps."""
    decls, decl, run = [], [], []
    for token in re.findall(r"[{};]|[^\s{};]+", text):
        run.append(token)
        if token in "{};":
            decl.append(run)
            run = []
            if token == "}" or decl[0][-1] != "{":
                decls.append(decl)
                decl = []
    decls += [d for d in (decl + [run] if run else decl,) if d]
    for _ in range(data.draw(st.integers(0, 3), label="moves") if decls else 0):
        i = data.draw(st.integers(0, len(decls) - 1), label="declaration")
        decl = decls[i]
        move = data.draw(st.sampled_from(["repeat", "reorder", "clause"]), label="move")
        if move == "repeat":
            decls.insert(data.draw(st.integers(0, len(decls)), label="at"), decl)
        elif len(decl) > 2:
            middle = decl[1:-1]
            if move == "reorder":
                middle = data.draw(st.permutations(middle), label="order")
            else:
                j = data.draw(st.integers(0, len(middle) - 1), label="clause")
                middle = middle[:j + 1] + middle[j:]
            decls[i] = [decl[0], *middle, decl[-1]]
    tokens = [t for decl in decls for run in decl for t in run]
    numbers = [k for k, t in enumerate(tokens) if t[0] in "-.0123456789"]
    if numbers and data.draw(st.booleans(), label="literal"):
        k = data.draw(st.sampled_from(numbers), label="number")
        tokens[k] = data.draw(st.sampled_from(_LITERALS), label="text")

    space = data.draw(_SPACES, label="space")
    tight = data.draw(st.booleans(), label="tight")
    gaps = ["" if tight and (k == 0 or tokens[k - 1] in "{};" or t in "{};") else space
            for k, t in enumerate(tokens)] + [space]
    for _ in range(data.draw(st.integers(0, 2), label="comments")):
        k = data.draw(st.integers(0, len(gaps) - 1), label="gap")
        gaps[k] += data.draw(st.sampled_from(_COMMENTS), label="comment")
    return "".join(map(str.__add__, gaps, tokens)) + gaps[-1]


@settings(max_examples=900)
@given(text=_FUZZ_SOURCES, data=st.data())
def test_parse_matches_reference_on_mutated_files(text, data):
    # The same graph or the same error at the same place, and no other
    # exception from either parser. A third of the draws are edited
    # renderings, a third relaid ones, which are read one declaration per
    # match when they keep the canonical clause order and no comment, and a
    # third relaid then edited.
    layout = data.draw(st.sampled_from(["edited", "relaid", "relaid and edited"]),
                       label="layout")
    if layout != "edited":
        text = _relaid(text, data)
    if layout != "relaid":
        text = _mutated(text, data)
    assert (_parse_outcome(parse_maidfile, text)
            == _parse_outcome(helpers.reference_parse_maidfile, text))


# -- the outer boundary ---------------------------------------------------------------


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(text=_FUZZ_SOURCES, data=st.data())
def test_cli_handles_every_mutated_file_that_parses(text, data):
    # Whatever graph a damaged file still describes, each subcommand that
    # reads one ends in an exit code of its contract and a one-line
    # error, never an internal error. About one mutated file in twelve
    # parses.
    text = _mutated(text, data)
    try:
        parse_maidfile(text)
    except MaidParseError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.maid")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path], ["simplify", path], ["patterns", path],
                     ["verify", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), argv
            assert "error: internal error:" not in err.getvalue(), (argv, err.getvalue())
