"""Plain-text graph format.

A maidfile is a sequence of agent declarations and node blocks:

    agent a;
    agent b;

    chance J {
      domain H M L;
      cpt 0.3333333333333333 0.3333333333333333 0.3333333333333333;
    }

    decision A {
      agent a;
      domain H M L;
      parents J;
    }

    utility U_A {
      agent a;
      parents B;
      table 10.0 5.0 2.0;
    }

Whitespace is free-form and `#` starts a comment running to end of line.
Nodes may reference agents and nodes declared later in the file. Parsing
checks syntax only (plus duplicate declarations, which have no sensible
meaning); everything else, unknown parents included, is left to
:func:`maidkit.core.validate` so a structurally broken file can still be
loaded and inspected.
"""
from __future__ import annotations

import re

from .core import Maid, MaidError, Node, NodeKind, _check_maid

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Written so that no two ways split a number: the scanner backtracks over
# items that fail, and an ambiguous pattern does so in quadratic time.
_NUMBER = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# One match per token: the whitespace and comments in front of it, then the
# token's text. Every position matches something, so one findall lexes the
# whole text and ends in the empty text of the end of input.
_TOKEN_RE = re.compile(rf"""
    \s*(?:\#[^\n]*\s*)*
    ( {_IDENT}
    | [{{}};]
    | {_NUMBER}
    | \Z                                       # end of input
    | .)                                       # a character no token takes
""", re.VERBOSE | re.DOTALL)

# A token's kind by its first character. The rest start a number ('-', '.',
# a non-ASCII digit) or are a lone character no token takes ("bad").
_KIND_OF = {"": "eof", "{": "lbrace", "}": "rbrace", ";": "semi",
            **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"),
            **dict.fromkeys("0123456789", "number")}
_KINDS = {"chance": NodeKind.CHANCE,
          "decision": NodeKind.DECISION,
          "utility": NodeKind.UTILITY}
# List clauses: the kind of token listed, the fewest allowed, and what one is.
_LISTS = {"domain": ("ident", 1, "a domain value"),
          "parents": ("ident", 0, "a parent name"),
          "cpt": ("number", 1, "a probability"),
          "table": ("number", 1, "a payoff")}
_CLAUSES = ("agent", *_LISTS)

# The layout render_maidfile writes, one match per declaration: whitespace
# only between tokens, no comments, and a node's clauses in _CLAUSES order,
# each at most once. The groups are an agent declaration's name, or a
# node's kind, name and clause texts. An item ends at whitespace or ';',
# which no token can hold, so backtracking never splits one and each item
# is the very token the lexer's maximal munch reads.
_ITEMS = {"ident": _IDENT, "number": _NUMBER}
_DECL_RE = re.compile(
    rf"\s*(?:agent\s+({_IDENT})\s*;"
    rf"|({'|'.join(_KINDS)})\s+({_IDENT})\s*\{{(?:\s*agent\s+({_IDENT})\s*;)?"
    + "".join(rf"(?:\s*{clause}((?:\s+{_ITEMS[kind]}){{{minimum},}})\s*;)?"
              for clause, (kind, minimum, _) in _LISTS.items())
    + r"\s*\})")


class MaidParseError(MaidError):
    """Syntax error in a maidfile, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Parser:
    """Recursive descent over the token list, held as parallel lists of
    kinds and texts. The whole text is lexed first, so a stray character is
    reported ahead of any syntax error before it."""

    def __init__(self, text: str):
        self.text = text
        self.texts = texts = _TOKEN_RE.findall(text)
        kind_of = _KIND_OF.get
        self.kinds = kinds = [kind_of(t[:1]) or ("number" if len(t) > 1 or t.isdecimal()
                                                 else "bad") for t in texts]
        self.i = 0
        if "bad" in kinds:
            at = kinds.index("bad")
            self.fail(f"unexpected character {texts[at]!r}", at)

    def fail(self, message: str, at: int | None = None):
        # Token offsets are needed only here, so they come from a rescan.
        at = self.i if at is None else at
        pos = [m.start(1) for m in _TOKEN_RE.finditer(self.text)][at]
        line = self.text.count("\n", 0, pos) + 1
        raise MaidParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def found(self, at: int) -> str:
        return repr(self.texts[at] or "end of input")

    def expect(self, kind: str, what: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self.fail(f"expected {what}, found {self.found(i)}")
        self.i = i + 1
        return self.texts[i]

    def parse_file(self) -> Maid:
        agents: list[str] = []
        nodes: list[Node] = []
        seen_nodes: set[str] = set()
        kinds, texts = self.kinds, self.texts
        while kinds[self.i] != "eof":
            word = texts[self.i]
            if kinds[self.i] != "ident":
                self.fail(f"expected a declaration, found {self.found(self.i)}")
            if word == "agent":
                self.i += 1
                at = self.i
                name = self.expect("ident", "an agent name")
                self.expect("semi", "';'")
                if name in agents:
                    self.fail(f"agent {name!r} declared twice", at)
                agents.append(name)
            elif word in _KINDS:
                at = self.i + 1
                node = self.parse_node(_KINDS[word])
                if node.id in seen_nodes:
                    self.fail(f"node {node.id!r} declared twice", at)
                seen_nodes.add(node.id)
                nodes.append(node)
            else:
                self.fail(f"expected 'agent', 'chance', 'decision' or 'utility', "
                          f"found {word!r}")
        return Maid.build(agents=agents, nodes=nodes)

    def parse_node(self, kind: NodeKind) -> Node:
        self.i += 1
        name = self.expect("ident", "a node name")
        self.expect("lbrace", "'{'")
        kinds, texts = self.kinds, self.texts
        clauses: dict[str, object] = {}
        while kinds[self.i] != "rbrace":
            clause = texts[self.i]
            if kinds[self.i] != "ident" or clause not in _CLAUSES:
                self.fail(f"expected a clause ({', '.join(_CLAUSES)}) or '}}', "
                          f"found {self.found(self.i)}")
            if clause in clauses:
                self.fail(f"clause {clause!r} given twice in {name!r}")
            self.i += 1
            if clause == "agent":
                clauses[clause] = self.expect("ident", "an agent name")
                self.expect("semi", "';'")
            else:
                clauses[clause] = self.run(*_LISTS[clause])
        self.i += 1
        return Node(id=name, kind=kind, owner=clauses.get("agent"),
                    domain=clauses.get("domain"), parents=clauses.get("parents", ()),
                    cpt=clauses.get("cpt"), table=clauses.get("table"))

    def run(self, kind: str, minimum: int, what: str) -> tuple:
        """The run of ``kind`` tokens at the cursor, which must hold at least
        ``minimum`` of them and end in ';': names, or numbers as floats."""
        kinds = self.kinds
        start = end = self.i
        while kinds[end] == kind:
            end += 1
        if end - start < minimum:
            self.fail(f"expected {what}", end)
        self.i = end
        self.expect("semi", "';'")
        values = self.texts[start:end]
        return tuple(map(float, values)) if kind == "number" else tuple(values)


def _scan(text: str) -> Maid | None:
    """The graph of a text that is all declarations in the canonical
    layout, one match each, or None: text left over or a repeated agent or
    node is left to the token parser. Each match is anchored where the last
    one ended, so the scan stops at the first text it cannot read instead
    of searching on through it, which is quadratic in a whitespace run."""
    if "#" in text:
        # A comment is never in the layout. Stop here rather than after
        # scanning up to it, which may be the whole file.
        return None
    agents: list[str] = []
    nodes: dict[str, Node] = {}
    end = 0
    match = _DECL_RE.match
    while m := match(text, end):
        end = m.end()
        agent, kind, name, owner, domain, parents, cpt, table = m.groups()
        if agent is not None:
            if agent in agents:
                return None
            agents.append(agent)
        elif name in nodes:
            return None
        else:
            nodes[name] = Node(name, _KINDS[kind], owner,
                               domain and tuple(domain.split()),
                               tuple(parents.split()) if parents else (),
                               cpt and tuple(map(float, cpt.split())),
                               table and tuple(map(float, table.split())))
    if text[end:].strip():
        return None
    return Maid.build(agents=agents, nodes=nodes.values())


def parse_maidfile(text: str) -> Maid:
    """Parse maidfile text into a graph. Raises :class:`MaidParseError` on
    bad syntax or duplicate declarations; semantic problems are reported by
    :func:`maidkit.core.validate` instead.

    Text in the layout :func:`render_maidfile` writes is read one
    declaration per regex match; any other text, and every error, is read
    token by token. The graph or the error does not depend on which."""
    if not isinstance(text, str):
        raise MaidError(f"maidfile text must be a str, not {type(text).__name__}")
    maid = _scan(text)
    return _Parser(text).parse_file() if maid is None else maid


def _format_number(v: float) -> str:
    return repr(float(v))


_IDENT_RE = re.compile(_IDENT + r"\Z")


def _require_ident(value: str, what: str) -> str:
    if not (isinstance(value, str) and _IDENT_RE.match(value)):
        raise MaidError(f"{what} {value!r} cannot be written in this format "
                        f"(names must look like identifiers)")
    return value


def render_maidfile(maid: Maid) -> str:
    """Canonical text for a graph: agents sorted, nodes in dependency order,
    two-space indents. Parsing the output reproduces the graph exactly.

    Agents, node ids, parent names and domain values must lex as
    identifiers, each node must be keyed by its own id, and each node kind
    must be a :class:`NodeKind`; anything else would not survive a round
    trip and is rejected up front."""
    _check_maid(maid)
    lines: list[str] = []
    for agent in sorted(maid.agents):
        lines.append(f"agent {_require_ident(agent, 'agent')};")
    if maid.agents and maid.nodes:
        lines.append("")
    first = True
    for node_id in maid.topological_order:
        node = maid.nodes[node_id]
        if node.id != node_id:
            raise MaidError(f"node keyed as {node_id!r} reports id {node.id!r}, "
                            f"so its text would declare another node")
        if not first:
            lines.append("")
        first = False
        if not isinstance(node.kind, NodeKind):
            raise MaidError(f"node {node_id!r} has kind {node.kind!r}, not a NodeKind")
        lines.append(f"{node.kind.value} {_require_ident(node.id, 'node')} {{")
        if node.owner is not None:
            lines.append(f"  agent {_require_ident(node.owner, 'agent')};")
        # The list clauses, each named for the field it writes, in _LISTS
        # order, which is the order _DECL_RE reads. A run that may be empty
        # (parents) is left out when it is.
        for clause, (kind, minimum, what) in _LISTS.items():
            values = getattr(node, clause)
            if values is None or not (values or minimum):
                continue
            items = (map(_format_number, values) if kind == "number"
                     else [_require_ident(v, what[2:]) for v in values])
            lines.append(f"  {clause} {' '.join(items)};")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
