"""Event-deterministic labelled finite automata.

A node carries an opaque integer label id; what a label means (for switched
systems: which subsystem matrix is active) is decided by the caller, which
also injects the label-comparison predicate where two automata are compared.
Words are plain tuples of event indices; the empty tuple is the empty word.
"""

from collections import deque
from dataclasses import dataclass

from .errors import AlphabetMismatch, InvalidEvent

Word = tuple[int, ...]

EPSILON: Word = ()


@dataclass(frozen=True)
class EventAlphabet:
    """Ordered set of distinct event names; events are addressed by index.
    A name is non-empty and has no whitespace, so that parse_word can read
    every word format_word writes. Names given as any iterable are stored
    as a tuple, so alphabets compare and hash by their names alone; a bare
    string is refused rather than split into one-character events."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, str):
            raise ValueError(f"event names must be a sequence, not the string {self.names!r}")
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("alphabet must contain at least one event")
        for name in self.names:
            if not isinstance(name, str):
                raise ValueError(f"event names must be strings, got {name!r}")
            if name.split() != [name]:
                raise ValueError(f"event name {name!r} is empty or contains whitespace")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"event names must be distinct: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidEvent(f"unknown event name {name!r}") from None


def parse_word(text: str, alphabet: EventAlphabet) -> Word:
    """Parse a whitespace-separated list of event names; '' is the empty word."""
    return tuple(alphabet.index(name) for name in text.split())


def format_word(word: Word, alphabet: EventAlphabet) -> str:
    return " ".join(alphabet.names[e] for e in word)


@dataclass(frozen=True)
class Fa:
    """Complete deterministic automaton with integer-labelled nodes.

    delta[node][event] is the successor node; gamma[node] is the label id.
    The transition table is total, so every word has a run.
    """

    num_nodes: int
    initial: int
    alphabet: EventAlphabet
    delta: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("automaton needs at least one node")
        if not 0 <= self.initial < self.num_nodes:
            raise ValueError(f"initial node {self.initial} out of range")
        if len(self.delta) != self.num_nodes or len(self.gamma) != self.num_nodes:
            raise ValueError("delta and gamma must have one entry per node")
        for node, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"node {node} has {len(row)} transitions, "
                                 f"expected {len(self.alphabet)}")
            for target in row:
                if not 0 <= target < self.num_nodes:
                    raise ValueError(f"transition target {target} out of range")
        for label in self.gamma:
            if label < 0:
                raise ValueError(f"negative label id {label}")
        # the event indices, for check_word's one set test
        object.__setattr__(self, "_events", frozenset(range(len(self.alphabet))))


def check_word(fa: Fa, word: Word) -> None:
    """InvalidEvent naming the first event of word that is not an event
    index of fa. A word is passed by one set test; only a word that it
    refuses is walked, to name that event."""
    if fa._events.issuperset(word):
        return
    num_events = len(fa.alphabet)
    for e in word:
        if not 0 <= e < num_events:
            raise InvalidEvent(f"event index {e} out of range for "
                               f"{num_events} events")


def run(fa: Fa, word: Word) -> list[int]:
    """Node sequence visited while reading word; length |word| + 1."""
    check_word(fa, word)
    node = fa.initial
    nodes = [node]
    for e in word:
        node = fa.delta[node][e]
        nodes.append(node)
    return nodes


def language_of(fa: Fa, word: Word) -> list[int]:
    """Label sequence along the run of word; length |word| + 1."""
    return [fa.gamma[node] for node in run(fa, word)]


def output_of(fa: Fa, word: Word) -> int:
    """Label id of the last node reached by word."""
    return fa.gamma[run(fa, word)[-1]]


def language_equivalent(fa1: Fa, fa2: Fa, label_eq) -> Word | None:
    """None if the two automata produce agreeing labels on every word,
    otherwise a shortest word on which their outputs disagree.

    Breadth-first search over the product of the two automata; a pair of
    nodes disagreeing under label_eq yields the counterexample. Event order
    and FIFO processing make the returned word deterministic.
    """
    if fa1.alphabet != fa2.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {fa1.alphabet.names} vs {fa2.alphabet.names}")
    start = (fa1.initial, fa2.initial)
    if not label_eq(fa1.gamma[start[0]], fa2.gamma[start[1]]):
        return EPSILON
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        p, q = pair
        for e in range(len(fa1.alphabet)):
            nxt = (fa1.delta[p][e], fa2.delta[q][e])
            if nxt in parent:
                continue
            parent[nxt] = (pair, e)
            if not label_eq(fa1.gamma[nxt[0]], fa2.gamma[nxt[1]]):
                word = []
                cur = nxt
                while parent[cur] is not None:
                    cur, ev = parent[cur]
                    word.append(ev)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


def reachable_nodes(delta, initial: int) -> list[int]:
    """Nodes reachable from initial, in breadth-first discovery order with
    events taken by index. delta[node] lists node's successors; a tuple
    table and a 2-D integer array both work."""
    order = [initial]
    seen = {initial}
    for node in order:  # also visits the nodes appended below
        for target in map(int, delta[node]):
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


def reachable_part(fa: Fa) -> Fa:
    """Restriction of fa to nodes reachable from the initial node.

    Nodes are renumbered in breadth-first discovery order (reachable_nodes),
    so the initial node becomes 0 and the language is unchanged.
    """
    order = reachable_nodes(fa.delta, fa.initial)
    remap = {node: i for i, node in enumerate(order)}
    delta = tuple(tuple(remap[target] for target in fa.delta[node]) for node in order)
    gamma = tuple(fa.gamma[node] for node in order)
    return Fa(num_nodes=len(order), initial=0, alphabet=fa.alphabet,
              delta=delta, gamma=gamma)


def to_dot(fa: Fa) -> str:
    """Graphviz digraph: nodes annotated 'q{i} / A{label}', an arrow-only
    pseudo-node marking the initial node, edges labelled by event name
    (with backslash and double quote escaped)."""
    lines = ["digraph fa {", "  rankdir=LR;",
             "  __start__ [shape=point];",
             f"  __start__ -> q{fa.initial};"]
    for node in range(fa.num_nodes):
        lines.append(f'  q{node} [shape=circle label="q{node} / A{fa.gamma[node]}"];')
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in fa.alphabet.names]
    for node in range(fa.num_nodes):
        for e, name in enumerate(names):
            lines.append(f'  q{node} -> q{fa.delta[node][e]} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
