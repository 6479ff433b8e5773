"""Class-table enumeration of a finitely presented monoid quotient.

The engine keeps a right-multiplication table on congruence classes and
grows it the way an HLT coset enumerator does: every relation is traced from
every class (filling in missing entries with fresh classes), and whenever
the two sides of a relation land on different classes those classes are
merged, with merges propagated through table rows until stable.  The table
is one flat list of class numbers, and a relation's last missing entry is
deduced rather than defined (see ``_run_table_enumeration``).  Each merge
joins classes that provably represent congruent words, and a completed
table that respects every relation at every class has exactly one class
per element of the presented monoid, so the final size is exact.

The words traced from a class are compiled once over one prefix trie
(``_compile_traces``) into one flat segment list per relation, tracing ``u``
and then ``v[:-1]``, which the enumerator and ``CongruenceTable.check`` each
walk with one loop.  A word that shares a prefix with an earlier word of the
same scan resumes from the class that word reached at the end of the shared
prefix, kept in a slot, and traces only the letters past it.  The HLT
trajectory stays the same.  Re-tracing the shared prefix would define
nothing: the earlier trace defined every entry on it, and merges never
undefine an entry.  The re-trace would also end at the root of the saved
class, because a merge keeps ``table[find(c)][x]`` congruent to
``table[c][x]``.  So the classes defined, the merges, the live counts and
the completed table are those of the plain loop.

On completion the classes are renumbered in breadth-first order from the
class of the empty word, which makes the table and the shortlex
representative words deterministic regardless of internal merge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Union

from .errors import _require_count
from .presentations import Presentation, Relation, Word

IntWord = tuple[int, ...]


@dataclass(frozen=True)
class QuotientStats:
    """Counters of one enumeration run.

    ``classes_defined`` counts every class the table ever held (the class of
    the empty word included), ``peak_live`` is the most classes alive at once
    and ``coincidences`` is how many classes merges removed; the classes
    left alive are ``classes_defined - coincidences``.
    """

    classes_defined: int
    peak_live: int
    coincidences: int


@dataclass(frozen=True)
class QuotientExceeded:
    """Budget signal: enumeration stopped, or finished above the bound.

    ``completed`` is True when the congruence was fully enumerated and
    simply has more classes than requested (so ``classes_reached`` is the
    exact size); False means the class budget ran out mid-enumeration,
    which says nothing about finiteness.
    """

    classes_reached: int
    completed: bool
    stats: Optional[QuotientStats] = field(default=None, compare=False)


@dataclass(frozen=True)
class CongruenceTable:
    """Complete right-multiplication table of a finite quotient.

    Class 0 is the class of the empty word; ``right_mult[q][i]`` is the
    class of (representative of q) followed by letter i; representatives
    are shortlex-minimal.
    """

    alphabet: tuple[str, ...]
    size: int
    right_mult: tuple[tuple[int, ...], ...]
    representative_words: tuple[Word, ...]
    stats: Optional[QuotientStats] = field(default=None, compare=False)

    def trace(self, word: Sequence[str], start: int = 0) -> int:
        """Follow ``word`` through the table from the given class.

        Raises ValueError when ``start`` is not a class index or a letter is
        not in the alphabet.
        """
        if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start < self.size:
            raise ValueError(f"start {start!r} is not a class index in 0..{self.size - 1}")
        q = start
        for i in self._letters(word):
            q = self.right_mult[q][i]
        return q

    def _letters(self, word: Sequence[str]) -> IntWord:
        """The word as alphabet positions; raises ValueError for any other letter."""
        pos = {x: i for i, x in enumerate(self.alphabet)}
        for x in word:
            if x not in pos:
                raise ValueError(f"letter {x!r} is not in the alphabet {self.alphabet}")
        return tuple(map(pos.__getitem__, word))

    def check(self, relations: Sequence[Relation]) -> None:
        """Raise AssertionError if any relation fails to hold at any class.

        Runs the enumerator's trace programs (``_compile_traces``) through
        the finished table.  Raises ValueError when a relation is not a pair
        of words over the alphabet.
        """
        pairs = []
        for relation in relations:
            if not isinstance(relation, (tuple, list)) or len(relation) != 2:
                raise ValueError(f"relation {relation!r} is not a pair of words")
            pairs.append(tuple(map(self._letters, relation)))
        n_slots, programs = _compile_traces(pairs)
        rows = self.right_mult
        slots = [0] * n_slots
        for q in range(self.size):
            slots[0] = q
            for segments, a, b, last in programs:
                for s, letters, t in segments:
                    c = slots[s]
                    for x in letters:
                        c = rows[c][x]
                    slots[t] = c
                a, b = slots[a], rows[slots[b]][last]
                if a != b:
                    raise AssertionError(
                        f"relation fails at class {q}: traces reach {a} and {b}"
                    )


def _compile_traces(relations: Sequence[tuple[IntWord, IntWord]]):
    """Trace programs for relations ``u = v`` over letter indices.

    The words traced from each class are ``u`` and ``v[:-1]`` of every
    relation, in order; the last letter of ``v`` is left to the caller.
    The sides swap when ``v`` is empty, and a relation with two empty sides
    is dropped.  The words go into one prefix trie, and each word resumes
    from the deepest node that an earlier word reached.

    Returns ``(n_slots, programs)`` with one program
    ``(segments, a, b, last)`` per relation; slot 0 holds the scanned
    class.  Each segment ``(s, letters, t)`` starts from the class in slot
    ``s``, follows ``letters`` and stores the class reached in slot ``t``.
    The segments trace ``u`` and then ``v[:-1]``, one flat list, and a
    segment ends at each node that a later word resumes from.  After them
    slot ``a`` holds the class ``u`` reaches and slot ``b`` the class
    ``v[:-1]`` reaches.  The last two slots take the word ends that no
    later word resumes from, one per side, so ``v[:-1]`` cannot overwrite
    the end of ``u``.
    """
    children: list[dict[int, int]] = [{}]
    resumed = {0}
    traces = []  # per relation: ([(resume node, [(letter, node reached), ...])] * 2, last)
    for u, v in relations:
        if not (u or v):
            continue
        # v = () would leave no last letter; tracing the empty side first
        # defines nothing, so the two sides can swap
        u, v_head, last = (u, v[:-1], v[-1]) if v else (v, u[:-1], u[-1])
        sides = []
        for word in (u, v_head):
            node = depth = 0
            while depth < len(word) and word[depth] in children[node]:
                node = children[node][word[depth]]
                depth += 1
            resumed.add(node)
            start, steps = node, []
            for x in word[depth:]:
                children[node][x] = len(children)
                node = len(children)
                children.append({})
                steps.append((x, node))
            sides.append((start, steps))
        traces.append((sides, last))

    slot = {node: i for i, node in enumerate(sorted(resumed))}  # the root gets slot 0
    programs = []
    for sides, last in traces:
        segments, ends = [], []
        for spare, (start, steps) in enumerate(sides, len(slot)):
            s, letters = slot[start], []
            for x, node in steps:
                letters.append(x)
                if node in slot:
                    segments.append((s, tuple(letters), slot[node]))
                    s, letters = slot[node], []
            if letters:
                segments.append((s, tuple(letters), spare))
                s = spare
            ends.append(s)
        programs.append((tuple(segments), ends[0], ends[1], last))
    return len(slot) + 2, tuple(programs)


def _find(parent: list[int], c: int) -> int:
    """Root of class ``c``, halving the path on the way."""
    while parent[c] != c:
        parent[c] = parent[parent[c]]
        c = parent[c]
    return c


def _run_table_enumeration(n_letters: int, relations, cap: int):
    """Core loop; returns (table, find, live, stats), table None on budget.

    ``table`` is flat: entry ``c * n_letters + x`` is the class of c followed
    by letter x, or -1 while undefined.  A relation u = v is traced from each
    class q by following u in full and v up to its last letter; a missing
    last entry is set to u's class directly (the deduction), where plain HLT
    would define a fresh class there and merge it into u's class at once.
    The fresh class would be the newest and have an empty row, so the merge
    would only redirect it, and the live count, every later merge and the
    completed table are the same as plain HLT's.

    The traces run the segments of ``_compile_traces``, and a step calls
    ``_find`` only past a one-hop fast path: path halving leaves almost
    every non-root one step from its root.  Both ends are resolved to roots
    after all segments, as a trace defines classes but merges none.
    """
    k = n_letters
    blank = [-1] * k
    table = [-1] * k
    parent = [0]
    live = peak = 1
    n_slots, programs = _compile_traces(relations)
    slots = [0] * n_slots

    q = 0
    while q < len(parent):
        if parent[q] != q:
            q += 1
            continue
        slots[0] = q
        for segments, a, b, last in programs:
            for s, letters, t in segments:
                c = slots[s]
                for x in letters:
                    if parent[c] != c:
                        c = parent[c]
                        if parent[c] != c:
                            c = _find(parent, c)
                    i = c * k + x
                    c = table[i]
                    if c < 0:
                        c = len(parent)
                        parent.append(c)
                        table += blank
                        table[i] = c
                        live += 1
                slots[t] = c
            a = slots[a]
            if parent[a] != a:
                a = parent[a]
                if parent[a] != a:
                    a = _find(parent, a)
            b = slots[b]
            if parent[b] != b:
                b = parent[b]
                if parent[b] != b:
                    b = _find(parent, b)
            i = b * k + last
            b = table[i]
            if b < 0:
                table[i] = a
            else:
                if parent[b] != b:
                    b = parent[b]
                    if parent[b] != b:
                        b = _find(parent, b)
                if a != b:
                    if live > peak:
                        peak = live
                    # the coincidence: merge a and b, and every pair of
                    # entries the merge makes equal, keeping the older root
                    queue = [(a, b)]
                    while queue:
                        a, b = queue.pop()
                        if parent[a] != a:
                            a = _find(parent, a)
                        if parent[b] != b:
                            b = _find(parent, b)
                        if a == b:
                            continue
                        if b < a:
                            a, b = b, a
                        parent[b] = a
                        live -= 1
                        i = a * k
                        for vb in table[b * k : b * k + k]:
                            if vb >= 0:
                                va = table[i]
                                if va < 0:
                                    table[i] = vb
                                else:
                                    queue.append((va, vb))
                            i += 1
            if live > cap:
                return None, None, live, _stats(parent, peak, live)
            if parent[q] != q:
                break
        else:
            i = q * k
            for x in range(k):
                if table[i + x] < 0:
                    c = len(parent)
                    parent.append(c)
                    table += blank
                    table[i + x] = c
                    live += 1
            if live > cap:
                return None, None, live, _stats(parent, peak, live)
        q += 1
    return table, partial(_find, parent), live, _stats(parent, peak, live)


def _stats(parent: list[int], peak: int, live: int) -> QuotientStats:
    return QuotientStats(
        classes_defined=len(parent),
        peak_live=max(peak, live),
        coincidences=len(parent) - live,
    )


def enumerate_quotient(
    pres: Presentation, bound: int, *, max_classes: int | None = None
) -> Union[CongruenceTable, QuotientExceeded]:
    """Enumerate the quotient of the free monoid by the presentation's congruence.

    Returns the complete table when the quotient has at most ``bound`` classes.
    Otherwise returns :class:`QuotientExceeded`: with ``completed=True`` and
    the exact size when enumeration finished above the bound, or
    ``completed=False`` when the internal class budget (``max_classes``,
    default scaled from the bound) ran out first.  Raises ValueError when
    ``bound`` or ``max_classes`` is not an ``int`` (a ``bool`` is not one)
    of at least 1.
    """
    _require_count("bound", bound)
    if max_classes is not None:
        _require_count("max_classes", max_classes)
    pos = {x: i for i, x in enumerate(pres.alphabet)}
    relations = [
        (tuple(pos[x] for x in u), tuple(pos[x] for x in v)) for u, v in pres.relations
    ]
    # enumeration can transiently hold many more classes than the final
    # quotient before collapses land, hence the generous default slack.
    # Peak live classes against the final size, from QuotientStats: end n=6
    # 55,128 / 3,130 (17.6x), wend n=6 111,781 / 7,936 (14.1x).  The slack is
    # not always enough: end n=7 passes this cap (1,121,936 for a final
    # 46,662) with 1,121,950 live classes and stops unfinished
    cap = max_classes if max_classes is not None else max(24 * bound + 2048, 8192)
    n_letters = len(pres.alphabet)
    table, find, live, stats = _run_table_enumeration(n_letters, relations, cap)
    if table is None:
        return QuotientExceeded(classes_reached=live, completed=False, stats=stats)
    if live > bound:
        return QuotientExceeded(classes_reached=live, completed=True, stats=stats)

    # breadth-first renumbering from the class of the empty word; the first
    # word reaching a class in this order is its shortlex-minimal representative
    root = find(0)
    order = {root: 0}
    bfs = [root]
    reps: list[Word] = [()]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(bfs):
        base = bfs[i] * n_letters
        row = []
        for x in range(n_letters):
            d = find(table[base + x])
            if d not in order:
                order[d] = len(bfs)
                bfs.append(d)
                reps.append(reps[i] + (pres.alphabet[x],))
            row.append(order[d])
        rows.append(tuple(row))
        i += 1
    if len(bfs) != live:
        raise AssertionError(
            f"unreachable classes after enumeration: reached {len(bfs)} of {live}"
        )
    result = CongruenceTable(
        alphabet=pres.alphabet,
        size=live,
        right_mult=tuple(rows),
        representative_words=tuple(reps),
        stats=stats,
    )
    result.check(pres.relations)
    return result
