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

# One match per token: the whitespace and comments in front of it, then the
# token's text. Every position matches something, so one findall lexes the
# whole text and ends in the empty text of the end of input.
_TOKEN_RE = re.compile(r"""
    \s*(?:\#[^\n]*\s*)*
    ( [A-Za-z_][A-Za-z0-9_]*                   # identifier
    | [{};]
    | -?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?   # number
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


def parse_maidfile(text: str) -> Maid:
    """Parse maidfile text into a graph. Raises :class:`MaidParseError` on
    bad syntax or duplicate declarations; semantic problems are reported by
    :func:`maidkit.core.validate` instead."""
    if not isinstance(text, str):
        raise MaidError(f"maidfile text must be a str, not {type(text).__name__}")
    return _Parser(text).parse_file()


def _format_number(v: float) -> str:
    return repr(float(v))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _require_ident(value: str, what: str) -> str:
    if not (isinstance(value, str) and _IDENT_RE.match(value)):
        raise MaidError(f"{what} {value!r} cannot be written in this format "
                        f"(names must look like identifiers)")
    return value


def render_maidfile(maid: Maid) -> str:
    """Canonical text for a graph: agents sorted, nodes in dependency order,
    two-space indents. Parsing the output reproduces the graph exactly.

    Agents, node ids, parent names and domain values must lex as
    identifiers, and each node kind must be a :class:`NodeKind`; anything
    else would not survive a round trip and is rejected up front."""
    _check_maid(maid)
    lines: list[str] = []
    for agent in sorted(maid.agents):
        lines.append(f"agent {_require_ident(agent, 'agent')};")
    if maid.agents and maid.nodes:
        lines.append("")
    first = True
    for node_id in maid.topological_order:
        node = maid.nodes[node_id]
        if not first:
            lines.append("")
        first = False
        if not isinstance(node.kind, NodeKind):
            raise MaidError(f"node {node_id!r} has kind {node.kind!r}, not a NodeKind")
        lines.append(f"{node.kind.value} {_require_ident(node.id, 'node')} {{")
        if node.owner is not None:
            lines.append(f"  agent {_require_ident(node.owner, 'agent')};")
        if node.domain is not None:
            values = " ".join(_require_ident(v, "domain value") for v in node.domain)
            lines.append(f"  domain {values};")
        if node.parents:
            parents = " ".join(_require_ident(p, "parent") for p in node.parents)
            lines.append(f"  parents {parents};")
        if node.cpt is not None:
            lines.append(f"  cpt {' '.join(_format_number(v) for v in node.cpt)};")
        if node.table is not None:
            lines.append(f"  table {' '.join(_format_number(v) for v in node.table)};")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
