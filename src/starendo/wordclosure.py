"""Word-level union-find oracle for sizing a finitely presented monoid.

Deliberately independent of the class-table enumerator in congruence.py:
this one works on literal words.  Every registered word is a node of a
word trie, an int id; registering a word registers all its prefixes, so
the trie is prefix-closed and ``s + u`` is a walk of child links from the
node of ``s``.  Nodes are merged by union-find, and the root of each class
is its shortlex-least word.  A per-class signature (``sig[root*k + x]``, a
node in the class of the root's words followed by letter x) propagates
merges to right extensions: when two classes merge and both have a
registered extension by the same letter, those extensions merge too.

Words are discovered breadth-first in shortlex order, extending each class
representative by every letter, and merged along descending relation
rewrites: a discovered word containing one side of a relation merges with
the shortlex-smaller word obtained by substituting the other side.

Descending rewrites alone cannot prove equalities whose derivations detour
through longer words, so before the breadth-first frontier advances to the
next word length the discovered classes are read off as a transition table
(state = root of a class, state s on letter x goes to the class of the word
of s followed by x) and checked, as in the HLT relation scan of coset
enumeration (Sims, *Computation with Finitely Presented Groups*, ch. 5):
the states reachable from the class of the empty word are found, and every
relation (u, v) is traced from every state.  A missing step of a trace
registers the word and the trace carries on from its class; if the two
sides end in different classes, the classes merge, which is the rewrite
u -> v applied at the end of the state's word.  A state that an earlier
merge of the same scan turned into a non-root is skipped.  These merges are
what collapses word families the descending rewrites cannot reach.

The certificate: a scan that registers no word and merges no class has
found the table complete, reachable from the class of the empty word, and
satisfying every relation at every state, so it returns its state count.
Merges only ever join words provably congruent, and a table passing this
certificate has exactly one state per element of the presented monoid, so
the answer is exact.  Registering more than ``max_words`` words or scanning
more than ``max_rounds`` times returns None, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .presentations import Presentation


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
    max_words: int = 2_000_000,
    max_rounds: int = 10_000,
) -> Optional[int]:
    """Number of classes of the presented monoid, or None on budget exhaustion."""
    return word_closure(pres, max_words=max_words, max_rounds=max_rounds)[0]


def word_closure(
    pres: Presentation,
    *,
    max_words: int = 2_000_000,
    max_rounds: int = 10_000,
) -> tuple[Optional[int], WordClosureStats]:
    """Size of the presented monoid (None on budget exhaustion) and run counters."""
    if len(pres.alphabet) > 24:
        raise ValueError("alphabet too large for the word-closure oracle")
    closure = _WordClosure(pres, max_words)
    try:
        size = closure.run(max_rounds)
    except _OverBudget:
        size = None
    stats = WordClosureStats(len(closure.word), closure.merges, closure.rounds)
    return size, stats


class _WordClosure:
    """The word trie, its union-find and the relation scan of one run."""

    def __init__(self, pres: Presentation, max_words: int):
        k = self.k = len(pres.alphabet)
        self.max_words = max_words
        self.letters = [chr(97 + i) for i in range(k)]
        self.code = {ch: i for i, ch in enumerate(self.letters)}
        index = {x: i for i, x in enumerate(pres.alphabet)}
        rels = [
            (tuple(index[x] for x in u), tuple(index[x] for x in v))
            for u, v in pres.relations
        ]
        self.rels = [(u, v) for u, v in rels if u != v]
        self.word: list[str] = []  # node -> its word, for shortlex order and rewriting
        self.child: list[int] = []  # node*k + x -> node of word + letter x, or -1
        self.parent: list[int] = []  # union-find over nodes
        self.sig: list[int] = []  # root*k + x -> a node in the class of root's words + x
        self.heap: list[tuple[int, str, int]] = []  # (len, word, node), shortlex order
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
        parent, word, sig, k = self.parent, self.word, self.sig, self.k
        work = [(x, y)]
        while work:
            x, y = work.pop()
            if parent[x] != x:
                x = self.find(x)
            if parent[y] != y:
                y = self.find(y)
            if x == y:
                continue
            # shortlex-least word of the class stays the root
            wx, wy = word[x], word[y]
            if len(wy) < len(wx) or (len(wy) == len(wx) and wy < wx):
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

    def new_node(self, w: str) -> int:
        n = len(self.word)
        if n >= self.max_words:
            raise _OverBudget
        self.word.append(w)
        self.parent.append(n)
        self.child.extend(self.blank)
        self.sig.extend(self.blank)
        heappush(self.heap, (len(w), w, n))
        return n

    def extend(self, p: int, x: int) -> int:
        """Register the word of node p followed by letter x; return its node."""
        k, sig = self.k, self.sig
        n = self.new_node(self.word[p] + self.letters[x])
        self.child[p * k + x] = n
        r = p if self.parent[p] == p else self.find(p)
        t = sig[r * k + x]
        if t >= 0:
            self.union(n, t)
        else:
            sig[r * k + x] = n
        return n

    def walk(self, w: str) -> int:
        """Node of ``w``, registering it and its prefixes."""
        child, k, node = self.child, self.k, 0
        for ch in w:
            x = self.code[ch]
            nxt = child[node * k + x]
            node = nxt if nxt >= 0 else self.extend(node, x)
        return node

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
        words_before, merges_before = len(self.word), self.merges
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
        if len(self.word) == words_before and self.merges == merges_before:
            return len(states)
        return None

    def run(self, max_rounds: int) -> Optional[int]:
        """Discover, rewrite and scan until a scan certifies; None past ``max_rounds``."""
        letters, heap, parent, child, k = self.letters, self.heap, self.parent, self.child, self.k
        rel_words = [
            ("".join(letters[x] for x in u), "".join(letters[x] for x in v))
            for u, v in self.rels
        ]
        # the descending-rewrite scan replaces src by dst, in both directions
        rewrites = [
            (src, dst) for u, v in rel_words for src, dst in ((u, v), (v, u)) if src
        ]
        self.new_node("")
        for u, v in rel_words:
            self.union(self.walk(u), self.walk(v))
        frontier = 0
        while True:
            if not heap or heap[0][0] > frontier:
                size = self.certify()
                self.rounds += 1
                if size is not None:
                    return size
                if self.rounds > max_rounds:
                    return None
                if heap:
                    frontier = heap[0][0]
                continue
            _, w, node = heappop(heap)
            for src, dst in rewrites:
                start = w.find(src)
                while start != -1:
                    w2 = w[:start] + dst + w[start + len(src):]
                    if len(w2) < len(w) or (len(w2) == len(w) and w2 < w):
                        self.union(node, self.walk(w2))
                    start = w.find(src, start + 1)
            if parent[node] == node:
                for x in range(k):
                    if child[node * k + x] < 0:
                        self.extend(node, x)
