"""Word-level union-find oracle for sizing a finitely presented monoid.

Deliberately independent of the class-table enumerator in congruence.py,
from which it imports nothing: this one works on literal words.  Every
registered word is a node, an int id: the empty word is node 0, and every
other node is the word of a class's root followed by one letter, so the
registered words are prefix-closed.  Nodes are merged by union-find, and
the older node (the smaller id) stays the root, so the empty word is always
a root.  The one table is a per-class signature (``sig[root*k + x]``, a
node in the class of the root's words followed by letter x); a word is
registered only for a class with no x extension yet, and that node becomes
the extension.  Merges propagate to right extensions: when two classes
merge and both have an extension by the same letter, those extensions merge
too.

The oracle starts from the empty word alone and repeats one relation scan,
as in the HLT scan of coset enumeration (Sims, *Computation with Finitely
Presented Groups*, ch. 5).  The classes are read off as a transition table
(state = root of a class, state s on letter x goes to the class of
``sig[s*k + x]``), and the states reachable from the class of the empty
word are found; a missing step of that search registers the word for the
next scan.  Then every relation u != v is traced from every state, by the
trace programs of ``presentations._compile_traces``, the compiler the
enumerator uses too: a segment resumes from the class in its slot,
resolved to its root, and steps through the signature table.  A missing
step registers the word and the trace carries on from its class; side v's
last letter is one more such step.  If the two sides end in different
classes, the classes merge, which is the rewrite u -> v applied at the end
of the state's word.  A state that an earlier merge of the same scan turned
into a non-root is skipped.

The certificate: a scan that registers no word and merges no class has
found the table complete, reachable from the class of the empty word, and
satisfying every relation at every state, so it returns its state count.
Resuming does not weaken it.  In such a scan no root changes, so the root
of a resumed slot is the class that tracing the shared prefix from the
state reaches again, and every trace ends where a letter-by-letter trace
of the whole side would.  In any scan, the root word of a resumed class is
congruent to the state's word followed by the shared prefix, so merges
only ever join words provably congruent; a table passing the certificate
has exactly one state per element of the presented monoid, and the answer
is exact.  Only a scan that merges can take another path than
letter-by-letter tracing, which walks a shared prefix again after a merge
and so can register other words.
Registering more than ``max_words`` words or scanning more than
``max_rounds`` times returns None, never a guess; either budget must be an
``int`` of at least 1, or the run raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import _require_count
from .presentations import Presentation, _compile_traces

DEFAULT_WORD_BUDGET = 2_000_000
DEFAULT_ROUND_BUDGET = 10_000


@dataclass(frozen=True)
class WordClosureStats:
    """Counters of one word-closure run.

    ``words_registered`` counts the registered words (the empty word included),
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
    """The registered words, their union-find and the relation scan of one run."""

    def __init__(self, pres: Presentation, max_words: int):
        k = self.k = len(pres.alphabet)
        self.max_words = max_words
        index = {x: i for i, x in enumerate(pres.alphabet)}
        n_slots, self.programs = _compile_traces([
            (tuple(index[x] for x in u), tuple(index[x] for x in v))
            for u, v in pres.relations
            if u != v
        ])
        self.slots = [0] * n_slots
        self.parent = [0]  # union-find over nodes; node 0 is the empty word
        self.sig = [-1] * k  # root*k + x -> a node in the class of root's words + x
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

    def extend(self, r: int, x: int) -> int:
        """Register root ``r``'s word followed by ``x``; return the new node, a root.

        Called only for a class with no ``x`` extension yet: the node becomes it.
        """
        n = len(self.parent)
        if n >= self.max_words:
            raise _OverBudget
        self.sig[r * self.k + x] = n
        self.sig.extend(self.blank)
        self.parent.append(n)
        return n

    def certify(self) -> Optional[int]:
        """The state count if the current table passes the certificate, else None."""
        sig, parent, k = self.sig, self.parent, self.k
        find, extend = self.find, self.extend
        words_before, merges_before = len(parent), self.merges
        root0 = find(0)
        seen = {root0}
        states = [root0]
        for q in states:
            for x in range(k):
                n = sig[q * k + x]
                if n < 0:
                    extend(q, x)  # registered for later scans, not followed now
                    continue
                if parent[n] != n:
                    n = find(n)
                if n not in seen:
                    seen.add(n)
                    states.append(n)
        slots = self.slots
        for q in states:
            if parent[q] != q:
                continue  # merged earlier in this scan, which voids the certificate
            slots[0] = q
            for segments, a, b, last in self.programs:
                for s, letters, t in segments:
                    c = slots[s]
                    if parent[c] != c:
                        c = find(c)  # merged since it was stored: resume from the root
                    for x in letters:
                        n = sig[c * k + x]
                        if n < 0:
                            c = extend(c, x)
                        else:
                            c = parent[n]
                            if c != n and parent[c] != c:
                                c = find(n)
                    slots[t] = c
                a = slots[a]
                if parent[a] != a:
                    a = find(a)
                b = slots[b]
                if parent[b] != b:
                    b = find(b)
                n = sig[b * k + last]  # side v's last letter, one more step
                if n < 0:
                    b = extend(b, last)
                else:
                    b = parent[n]
                    if b != n and parent[b] != b:
                        b = find(n)
                if a != b:
                    self.union(a, b)
        if len(parent) == words_before and self.merges == merges_before:
            return len(states)
        return None

    def run(self, max_rounds: int) -> Optional[int]:
        """Scan from the empty word until a scan certifies; None past ``max_rounds``."""
        while True:
            size = self.certify()
            self.rounds += 1
            if size is not None:
                return size
            if self.rounds > max_rounds:
                return None
