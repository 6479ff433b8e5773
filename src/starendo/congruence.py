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
(``presentations._compile_traces``, the one compiler, which the word-closure
oracle runs too) into one flat segment list per relation, tracing ``u`` and
then ``v[:-1]``, which the enumerator walks with one loop.  A word that
shares a prefix with an earlier word of the same scan resumes from the class
that word reached at the end of the shared prefix, kept in a slot, and
traces only the letters past it.  The HLT trajectory stays the same.
Re-tracing the shared prefix would define nothing: the earlier trace defined
every entry on it, and merges never undefine an entry.  The re-trace would
also end at the root of the saved class, because a merge keeps
``table[find(c)][x]`` congruent to ``table[c][x]``.  So the classes defined,
the merges, the live counts and the completed table are those of the plain
loop.

Coincidences are merged by ``merge``, a routine written out once per
alphabet size (``presentations._coincidence``, which the word-closure oracle
runs too, over the union-find of ``presentations._find``) from one fixed
template in which only the size ``k`` and the letter offsets ``0..k-1`` are
substituted.  It reads the removed class's row entry by entry at constant
offsets, with no slice and no loop over the letters.  A run removes nearly
every class it defines (1,152,891 of 1,230,062 when
``end_star_presentation(6)`` without its ``z z`` relation runs out of a
77,168-class budget), and most removed rows hold a single entry, so a slice
and a loop over k letters per removed class were overhead out of proportion
to the entries copied.  Its queue rule is the plain loop's: pairs are
popped last in, first out, the older root is kept, a missing entry is
copied and a clashing one is queued.

A run can also start from a finished table over the first letters of the
alphabet (``verify`` passes the table of a lower alphabet-prefix level).
Its classes are prefilled, and at them only the relations that use a later
letter are traced; the trace loop and the renumbering are the plain run's.
``enumerate_quotient`` always runs plain.

On completion ``_standardized`` renumbers the classes in breadth-first
order from the class of the empty word, in one pass over the finished
table, which makes the table deterministic regardless of merge order.
``enumerate_quotient`` builds its rows from that flat table and checks every
relation at every class; ``verify`` compares the same flat table with the
target's walk instead.  ``CongruenceTable.check`` shares no code with the
enumerator: it composes the table's columns.  ``monoid._tree_edges`` reads
the shortlex words off the rows' tree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import _require_count
from .monoid import _tree_edges
from .presentations import (
    IntWord, Presentation, Relation, Word, _coincidence, _compile_traces, _find,
    _require_presentation,
)
from .transform import _compose_images


@dataclass(frozen=True)
class QuotientStats:
    """Counters of one enumeration run.

    ``classes_defined`` counts every class the table ever held (the class of
    the empty word included), ``peak_live`` is the most classes alive at once
    and ``coincidences`` is how many classes merges removed; the classes
    left alive are ``classes_defined - coincidences``.  A run from a
    starting table counts only the classes it defined past the prefilled
    ones.  In a ``verify`` report the counters are summed over the
    alphabet-prefix levels its answer stands on, with the largest
    ``peak_live``, so the difference is still the final or reached count.
    """

    classes_defined: int
    peak_live: int
    coincidences: int


@dataclass(frozen=True)
class QuotientExceeded:
    """Budget signal: the class budget ran out mid-enumeration, which says
    nothing about finiteness; ``classes_reached`` is the live count then."""

    classes_reached: int
    stats: Optional[QuotientStats] = field(default=None, compare=False)


@dataclass(frozen=True)
class CongruenceTable:
    """Complete right-multiplication table of a finite quotient.

    Class 0 is the class of the empty word; ``right_mult[q][i]`` is the
    class of (representative of q) followed by letter i.  The numbering is
    breadth-first, so the table's tree gives the shortlex representatives.
    """

    alphabet: tuple[str, ...]
    size: int
    right_mult: tuple[tuple[int, ...], ...]
    stats: Optional[QuotientStats] = field(default=None, compare=False)

    @cached_property
    def representative_words(self) -> tuple[Word, ...]:
        """Each class's shortlex-minimal word, read off the table's tree."""
        words: list[Word] = [()] * self.size
        flat = [d for row in self.right_mult for d in row]
        for x, p, h in _tree_edges(flat, len(self.alphabet)):
            words[x] = words[p] + (self.alphabet[h],)
        return tuple(words)

    def trace(self, word: Sequence[str], start: int = 0) -> int:
        """Follow ``word`` through the table from the given class.

        Raises ValueError when ``start`` is not a class index, ``word`` is a
        ``str`` or a letter is not in the alphabet.
        """
        if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start < self.size:
            raise ValueError(f"start {start!r} is not a class index in 0..{self.size - 1}")
        q = start
        for i in self._letters(word):
            q = self.right_mult[q][i]
        return q

    def _letters(self, word: Sequence[str]) -> IntWord:
        """The word as alphabet positions; raises ValueError for a ``str``
        (a word is a sequence of letter names, not one string) or any other
        letter."""
        if isinstance(word, str):
            raise ValueError(f"word {word!r} is a str, not a sequence of letters")
        pos = {x: i for i, x in enumerate(self.alphabet)}
        for x in word:
            if x not in pos:
                raise ValueError(f"letter {x!r} is not in the alphabet {self.alphabet}")
        return tuple(map(pos.__getitem__, word))

    def check(self, relations: Sequence[Relation]) -> None:
        """Raise AssertionError if any relation fails to hold at any class,
        naming the smallest class at which the first failing relation fails.

        Letter x's column maps each class to that class followed by x; a
        relation holds at every class when its two sides, each its letters'
        columns composed left to right, give one map.  Raises ValueError
        when a relation is not a pair of words over the alphabet (a ``str``
        is not a word).
        """
        pairs = []
        for relation in relations:
            if not isinstance(relation, (tuple, list)) or len(relation) != 2:
                raise ValueError(f"relation {relation!r} is not a pair of words")
            pairs.append(tuple(map(self._letters, relation)))
        columns = [list(column) for column in zip(*self.right_mult)]
        for sides in pairs:
            maps = []
            for word in sides:  # from its first column, not composed with the identity
                image = columns[word[0]] if word else range(self.size)
                for x in word[1:]:
                    image = _compose_images(image, columns[x])
                maps.append(tuple(image))
            a, b = maps
            if a != b:
                q = next(q for q in range(self.size) if a[q] != b[q])
                raise AssertionError(f"relation fails at class {q}: traces reach {a[q]} and {b[q]}")


def _run_table_enumeration(n_letters: int, relations, cap: int, start=None):
    """Core loop; returns (table, parent, live, stats), table None on budget.

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
    Each coincidence is handed to ``merge``, built once per alphabet size
    by ``_coincidence``, which returns how many classes it removed.

    ``start``, when given, is ``(flat, m, kb)``: a finished table of ``m``
    classes over the first ``kb`` letters, entry ``q * kb + x`` the class
    of q followed by letter x.  The caller must see that its entries follow
    from ``relations`` and that the relations over the first ``kb`` letters
    hold at each of its classes (the README's level walk says why that
    suffices).  Its classes are prefilled as classes 0..m-1, and at them
    only the relations that use a letter past ``kb`` are traced, compiled
    once more.  The stats then count the classes defined past the m
    prefilled ones.
    """
    k = n_letters
    merge = _coincidence(k)
    blank = [-1] * k
    n_slots, programs = _compile_traces(relations)
    if start is None:
        table, m, carried, prefilled = [-1] * k, 1, 0, programs
    else:
        flat, m, kb = start
        table = [-1] * (m * k)
        for x in range(kb):
            table[x::k] = flat[x::kb]
        carried = m
        m_slots, prefilled = _compile_traces([
            (u, v) for u, v in relations if any(x >= kb for x in u + v)
        ])
        n_slots = max(n_slots, m_slots)
    parent = list(range(m))
    live = peak = m
    slots = [0] * n_slots

    q = 0
    while q < len(parent):
        if parent[q] != q:
            q += 1
            continue
        slots[0] = q
        for segments, a, b, last in prefilled if q < m else programs:
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
                    live -= merge(table, parent, a, b)
            if live > cap:
                return None, None, live, _stats(parent, peak, live, carried)
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
                return None, None, live, _stats(parent, peak, live, carried)
        q += 1
    return table, parent, live, _stats(parent, peak, live, carried)


def _stats(parent: list[int], peak: int, live: int, carried: int) -> QuotientStats:
    return QuotientStats(
        classes_defined=len(parent) - carried,
        peak_live=max(peak, live),
        coincidences=len(parent) - live,
    )


def _standardized(pres: Presentation, max_classes: int, start=None):
    """Enumerate and renumber: (flat table, live classes, stats), the table None
    on budget.  ``start`` is ``_run_table_enumeration``'s starting table.

    The finished table is read once, breadth-first from the class of the
    empty word with letters in alphabet order, and each class gets its
    discovery number on first sight; entry ``q * k + x`` of the returned
    ``array('i')`` is the number of class q followed by letter x.  This is
    the one renumbering of a finished table: ``enumerate_quotient`` builds
    its rows from it, and ``verify`` compares it with the target's walk.
    Raises AssertionError when a live class is unreachable.
    """
    _require_presentation(pres)
    _require_count("max_classes", max_classes)
    pos = {x: i for i, x in enumerate(pres.alphabet)}
    relations = [
        (tuple(pos[x] for x in u), tuple(pos[x] for x in v)) for u, v in pres.relations
    ]
    k = len(pres.alphabet)
    table, parent, live, stats = _run_table_enumeration(k, relations, max_classes, start)
    if table is None:
        return None, live, stats
    root = _find(parent, 0)
    order = {root: 0}
    bfs = [root]
    flat = array("i")
    for c in bfs:  # grows while it is walked: breadth-first
        for d in table[c * k : (c + 1) * k]:
            if parent[d] != d:
                d = parent[d]
                if parent[d] != d:
                    d = _find(parent, d)
            q = order.get(d)
            if q is None:
                q = order[d] = len(bfs)
                bfs.append(d)
            flat.append(q)
    if len(bfs) != live:
        raise AssertionError(
            f"unreachable classes after enumeration: reached {len(bfs)} of {live}"
        )
    return flat, live, stats


def _checked_table(
    pres: Presentation, flat: array, size: int, stats: QuotientStats
) -> CongruenceTable:
    """The ``CongruenceTable`` of a standardized flat table, after ``check``."""
    k = len(pres.alphabet)
    result = CongruenceTable(
        alphabet=pres.alphabet,
        size=size,
        right_mult=tuple(tuple(flat[q * k : (q + 1) * k]) for q in range(size)),
        stats=stats,
    )
    result.check(pres.relations)
    return result


def enumerate_quotient(
    pres: Presentation, *, max_classes: int
) -> Union[CongruenceTable, QuotientExceeded]:
    """Enumerate the quotient of the free monoid by the presentation's congruence.

    Returns the complete table whenever enumeration finishes, whatever its
    size, and :class:`QuotientExceeded` when more than ``max_classes``
    classes are live at once first.  The table is checked against every
    relation at every class before it is returned.  Raises ValueError when
    ``max_classes`` is not an ``int`` (a ``bool`` is not one) of at least 1.
    """
    flat, size, stats = _standardized(pres, max_classes)
    if flat is None:
        return QuotientExceeded(classes_reached=size, stats=stats)
    return _checked_table(pres, flat, size, stats)
