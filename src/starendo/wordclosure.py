"""Word-level union-find oracle for sizing a finitely presented monoid.

Deliberately independent of the class-table enumerator in congruence.py:
this one works on literal words.  Every registered word is a node of a
word trie, an int id; registering a word registers all its prefixes, so
the trie is prefix-closed and ``s + u`` is a walk of child links from the
node of ``s``.  Nodes are merged by union-find, and the older node (the
smaller id) stays the root, so the empty word, node 0, is always a root.  A
per-class signature (``sig[root*k + x]``, a node in the class of the root's
words followed by letter x) propagates merges to right extensions: when two
classes merge and both have a registered extension by the same letter,
those extensions merge too.

The oracle starts from the empty word alone and repeats one relation scan,
as in the HLT scan of coset enumeration (Sims, *Computation with Finitely
Presented Groups*, ch. 5).  The classes are read off as a transition table
(state = root of a class, state s on letter x goes to the class of the word
of s followed by x), and the states reachable from the class of the empty
word are found; a missing step of that search registers the word for the
next scan.  Then every relation (u, v) is traced from every state.  A
missing step of a trace registers the word and the trace carries on from
its class; if the two sides end in different classes, the classes merge,
which is the rewrite u -> v applied at the end of the state's word.  A
state that an earlier merge of the same scan turned into a non-root is
skipped.

The certificate: a scan that registers no word and merges no class has
found the table complete, reachable from the class of the empty word, and
satisfying every relation at every state, so it returns its state count.
Merges only ever join words provably congruent, and a table passing this
certificate has exactly one state per element of the presented monoid, so
the answer is exact.  Registering more than ``max_words`` words or scanning
more than ``max_rounds`` times returns None, never a guess; either budget
must be an ``int`` of at least 1, or the run raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import _require_count
from .presentations import Presentation

DEFAULT_WORD_BUDGET = 2_000_000
DEFAULT_ROUND_BUDGET = 10_000


@dataclass(frozen=True)
class WordClosureStats:
    """Counters of one word-closure run.

    ``words_registered`` counts the trie's nodes (the empty word included),
    ``merges`` how many classes union-find joined into others, and
    ``certify_rounds`` how many relation scans finished.  A certified run has
    ``words_registered - merges`` classes, one per element.
    """

    words_registered: int
    merges: int
    certify_rounds: int


class _OverBudget(Exception):
    """Registering one more word would exceed ``max_words``."""


def word_closure_size(
    pres: Presentation,
    *,
    max_words: int = DEFAULT_WORD_BUDGET,
    max_rounds: int = DEFAULT_ROUND_BUDGET,
) -> Optional[int]:
    """Number of classes of the presented monoid, or None on budget exhaustion."""
    return word_closure(pres, max_words=max_words, max_rounds=max_rounds)[0]


def word_closure(
    pres: Presentation,
    *,
    max_words: int = DEFAULT_WORD_BUDGET,
    max_rounds: int = DEFAULT_ROUND_BUDGET,
) -> tuple[Optional[int], WordClosureStats]:
    """Size of the presented monoid (None on budget exhaustion) and run counters."""
    closure = _WordClosure(pres, _require_count("max_words", max_words))
    try:
        size = closure.run(_require_count("max_rounds", max_rounds))
    except _OverBudget:
        size = None
    stats = WordClosureStats(len(closure.parent), closure.merges, closure.rounds)
    return size, stats


class _WordClosure:
    """The word trie, its union-find and the relation scan of one run."""

    def __init__(self, pres: Presentation, max_words: int):
        k = self.k = len(pres.alphabet)
        self.max_words = max_words
        index = {x: i for i, x in enumerate(pres.alphabet)}
        rels = [
            (tuple(index[x] for x in u), tuple(index[x] for x in v))
            for u, v in pres.relations
        ]
        self.rels = [(u, v) for u, v in rels if u != v]
        self.child: list[int] = []  # node*k + x -> node of word + letter x, or -1
        self.parent: list[int] = []  # union-find over nodes
        self.sig: list[int] = []  # root*k + x -> a node in the class of root's words + x
        self.blank = [-1] * k
        self.merges = 0
        self.rounds = 0

    def find(self, x: int) -> int:
        parent = self.parent
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    def union(self, x: int, y: int) -> None:
        parent, sig, k = self.parent, self.sig, self.k
        work = [(x, y)]
        while work:
            x, y = work.pop()
            if parent[x] != x:
                x = self.find(x)
            if parent[y] != y:
                y = self.find(y)
            if x == y:
                continue
            if y < x:  # the older node stays the root
                x, y = y, x
            parent[y] = x
            self.merges += 1
            bx, by = x * k, y * k
            for i in range(k):
                t = sig[by + i]
                if t >= 0:
                    s = sig[bx + i]
                    if s >= 0:
                        work.append((s, t))
                    else:
                        sig[bx + i] = t

    def new_node(self) -> int:
        n = len(self.parent)
        if n >= self.max_words:
            raise _OverBudget
        self.parent.append(n)
        self.child.extend(self.blank)
        self.sig.extend(self.blank)
        return n

    def extend(self, p: int, x: int) -> int:
        """Register the word of node p followed by letter x; return its node."""
        k, sig = self.k, self.sig
        n = self.new_node()
        self.child[p * k + x] = n
        r = p if self.parent[p] == p else self.find(p)
        t = sig[r * k + x]
        if t >= 0:
            self.union(n, t)
        else:
            sig[r * k + x] = n
        return n

    def trace(self, state: int, letters: tuple[int, ...]) -> int:
        """Class reached from ``state`` along ``letters``, registering missing steps."""
        child, parent, k = self.child, self.parent, self.k
        for x in letters:
            n = child[state * k + x]
            if n < 0:
                n = self.extend(state, x)
            state = parent[n]
            if state != n and parent[state] != state:
                state = self.find(n)
        return state

    def certify(self) -> Optional[int]:
        """The state count if the current table passes the certificate, else None."""
        child, parent, k = self.child, self.parent, self.k
        words_before, merges_before = len(self.parent), self.merges
        root0 = self.find(0)
        seen = {root0}
        states = [root0]
        for s in states:
            for x in range(k):
                n = child[s * k + x]
                if n < 0:
                    self.extend(s, x)  # registered for later scans, not followed now
                    continue
                if parent[n] != n:
                    n = self.find(n)
                if n not in seen:
                    seen.add(n)
                    states.append(n)
        trace = self.trace
        for s in states:
            if parent[s] != s:
                continue  # merged earlier in this scan, which voids the certificate
            for u, v in self.rels:
                a = trace(s, u)
                b = trace(s, v)
                if a != b:
                    self.union(a, b)
        if len(self.parent) == words_before and self.merges == merges_before:
            return len(states)
        return None

    def run(self, max_rounds: int) -> Optional[int]:
        """Scan from the empty word until a scan certifies; None past ``max_rounds``."""
        self.new_node()
        while True:
            size = self.certify()
            self.rounds += 1
            if size is not None:
                return size
            if self.rounds > max_rounds:
                return None
