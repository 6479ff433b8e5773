"""Word-level union-find oracle for sizing a finitely presented monoid.

It imports nothing from the class-table enumerator in congruence.py: this
one works on literal words.  Every registered word is a node, an int id:
the empty word is node 0, and every other node is the word of a class's
root followed by one letter, so the registered words are prefix-closed.
Nodes are merged by union-find, and the older node (the smaller id) stays
the root, so the empty word is always a root.  The one table is a
per-class signature (``sig[root*k + x]``, a node in the class of the root's
words followed by letter x); a word is registered only for a class with no
x extension yet, and that node becomes the extension.  Merges propagate to
right extensions: when two classes merge and both have an extension by the
same letter, those extensions merge too.

What the two size engines share lives in presentations.py: the trace
programs of ``_compile_traces``, the union-find lookup ``_find`` and the
coincidence routine ``merge`` that ``_coincidence`` writes out per alphabet
size, here run on ``sig`` as the enumerator runs it on its class table.
Registration, the reachability pass and the certificate are this module's
own.

The oracle starts from the empty word alone and repeats one relation scan,
as in the HLT scan of coset enumeration (Sims, *Computation with Finitely
Presented Groups*, ch. 5).  The classes are read off as a transition table
(state = root of a class, state s on letter x goes to the class of
``sig[s*k + x]``), and the states reachable from the class of the empty
word are found; a missing step of that search registers the word for the
next scan.  Then every relation u != v is traced from every state by the
trace programs: a segment resumes from the class in its slot, resolved to
its root, and steps through the signature table.  A missing step registers
the word and the trace carries on from its class; side v's last letter is
one more such step, compiled as one more segment.  If the two sides end in
different classes, the classes merge, which is the rewrite u -> v applied
at the end of the state's word.  A word registered by a trace joins the
scan's states, so the same scan traces the relations from it too, as HLT
scans each class in the pass that defines it.  The reachability pass's
words wait for the next scan: that pass merges nothing, so following its
words would walk the free monoid.  A state that an earlier merge of the
same scan turned into a non-root is skipped.

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
``int`` of at least 1, or the run raises ValueError.  On an infinite
presentation the first scan keeps tracing the words it registers, so the
default word budget ends it within seconds, at roughly 70 bytes per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import _require_count
from .presentations import (
    Presentation, _coincidence, _compile_traces, _find, _require_presentation,
)

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
    closure = _WordClosure(_require_presentation(pres), _require_count("max_words", max_words))
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
        n_slots, programs = _compile_traces([(u, v) for u, v in pres._int_relations if u != v])
        # side v's last letter is one more step, a segment into one more slot
        self.programs = [
            (segments + ((b, (last,), n_slots),), a, n_slots)
            for segments, a, b, last in programs
        ]
        self.slots = [0] * (n_slots + 1)
        self.parent = [0]  # union-find over nodes; node 0 is the empty word
        self.sig = [-1] * k  # root*k + x -> a node in the class of root's words + x
        self.blank = [-1] * k
        self.merge = _coincidence(k)
        self.merges = 0
        self.rounds = 0

    def certify(self) -> Optional[int]:
        """The state count if the current table passes the certificate, else None.

        A missing extension is registered where it is found, in the
        reachability pass and in the scan: the new node, a root, becomes
        the extension, and registering past ``max_words`` raises
        ``_OverBudget``.  A word the relation scan registers is appended to
        its states and traced from later in the same scan.
        """
        sig, parent, k, blank = self.sig, self.parent, self.k, self.blank
        max_words, merge = self.max_words, self.merge
        words_before, merges_before = len(parent), self.merges
        root0 = _find(parent, 0)
        seen = {root0}
        states = [root0]
        for q in states:
            for i in range(q * k, q * k + k):
                n = sig[i]
                if n < 0:  # registered for later scans, not followed now
                    n = len(parent)
                    if n >= max_words:
                        raise _OverBudget
                    sig[i] = n
                    sig += blank
                    parent.append(n)
                    continue
                if parent[n] != n:
                    n = _find(parent, n)
                if n not in seen:
                    seen.add(n)
                    states.append(n)
        slots = self.slots
        for q in states:
            if parent[q] != q:
                continue  # merged earlier in this scan, which voids the certificate
            slots[0] = q
            for segments, a, b in self.programs:
                for s, letters, t in segments:
                    c = slots[s]
                    if parent[c] != c:
                        c = _find(parent, c)  # merged since it was stored: resume from the root
                    for x in letters:
                        i = c * k + x
                        n = sig[i]
                        if n < 0:
                            c = len(parent)
                            if c >= max_words:
                                raise _OverBudget
                            sig[i] = c
                            sig += blank
                            parent.append(c)
                            states.append(c)  # traced later in this scan while still a root
                        else:
                            c = parent[n]
                            if c != n and parent[c] != c:
                                c = _find(parent, n)
                    slots[t] = c
                a = slots[a]
                if parent[a] != a:
                    a = _find(parent, a)
                b = slots[b]  # a root: no merge since its segment stored it
                if a != b:
                    self.merges += merge(sig, parent, a, b)
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
