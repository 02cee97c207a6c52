"""Built-in example games.

Two families: a card guessing game with one informed player and a scalable
number of independent guessers, and a two-stage principal-agent game with
reputation. The card game carries full probabilities and payoffs; the
principal-agent game is structural only.
"""
from __future__ import annotations

from .core import Maid, MaidError, Node

CARD_DOMAIN = ("H", "M", "L")

_MATCH_10 = (10.0, 0.0, 0.0,
             0.0, 10.0, 0.0,
             0.0, 0.0, 10.0)


def card_game(n: int = 1) -> Maid:
    """The card game with one card holder A, one guesser B, and n side
    players who also try to match B's announcement.

    A is dealt a card J and announces a claim about it; each side player
    C_i independently sees the same card and commits to a prediction; B
    sees every announcement (but not the card) and names a card. B is paid
    for naming the true card, each C_i for matching B, and A according to
    how high B's guess is. With a single side player the plain names C and
    U_C are used.
    """
    if not isinstance(n, int):
        raise MaidError(f"card game needs an int number of side players, got {n!r}")
    if n < 1:
        raise MaidError(f"card game needs at least one side player, got {n}")
    if n == 1:
        side = [("C", "c", "U_C")]
    else:
        side = [(f"C_{i}", f"c_{i}", f"U_C_{i}") for i in range(1, n + 1)]

    third = 1.0 / 3.0
    agents = ["a", "b"] + [agent for _, agent, _ in side]
    nodes = [
        Node.chance("J", domain=CARD_DOMAIN, cpt=(third, third, third)),
        Node.decision("A", owner="a", domain=CARD_DOMAIN, parents=("J",)),
    ]
    for c_id, agent, _ in side:
        nodes.append(Node.decision(c_id, owner=agent, domain=CARD_DOMAIN,
                                   parents=("J",)))
    nodes.append(Node.decision("B", owner="b", domain=CARD_DOMAIN,
                               parents=("A",) + tuple(c_id for c_id, _, _ in side)))
    nodes.append(Node.utility("U_A", owner="a", parents=("B",),
                              table=(10.0, 5.0, 2.0)))
    nodes.append(Node.utility("U_B", owner="b", parents=("B", "J"),
                              table=_MATCH_10))
    for c_id, agent, u_id in side:
        nodes.append(Node.utility(u_id, owner=agent, parents=(c_id, "B"),
                                  table=_MATCH_10))
    return Maid.build(agents=agents, nodes=nodes)


def principal_agent() -> Maid:
    """A two-round principal-agent game with reputation.

    The agent privately knows its type. Each round the principal publicly
    sets terms (P1, P2) and the agent responds (D1, D2); a reputation
    signal r1 carries the first-round response, mixed with the initial
    reputation r0, into the principal's second-round choice. Both players
    remember their own earlier moves. No probabilities or payoffs are
    attached; the game is used for structural analysis only.
    """
    agents = ["agent", "principal"]
    nodes = [
        Node.chance("type", domain=("good", "bad")),
        Node.chance("r0", domain=("high", "med", "low")),
        Node.decision("P1", owner="principal", domain=("soft", "tough"),
                      parents=("r0",)),
        Node.decision("D1", owner="agent", domain=("shirk", "work"),
                      parents=("type", "P1")),
        Node.chance("r1", domain=("high", "med", "low"), parents=("r0", "D1")),
        Node.decision("P2", owner="principal", domain=("soft", "tough"),
                      parents=("r1", "P1")),
        Node.decision("D2", owner="agent", domain=("shirk", "work"),
                      parents=("type", "P2", "D1")),
        Node.utility("U_P1", owner="principal", parents=("P1", "D1")),
        Node.utility("U_P2", owner="principal", parents=("P2", "D2")),
        Node.utility("U_D1", owner="agent", parents=("P1", "D1", "type")),
        Node.utility("U_D2", owner="agent", parents=("P2", "D2", "type")),
    ]
    return Maid.build(agents=agents, nodes=nodes)


FIXTURE_NAMES = ("card-game", "principal-agent")


def fixture(name: str, n: int = 1) -> Maid:
    """Look up a fixture by CLI name."""
    if name == "card-game":
        return card_game(n)
    if name == "principal-agent":
        return principal_agent()
    raise MaidError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
