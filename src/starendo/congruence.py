"""Class-table enumeration of a finitely presented monoid quotient.

The engine keeps a right-multiplication table on congruence classes and
grows it the way a coset enumerator does: every relation is traced from
every class (filling in missing entries with fresh classes), and whenever
the two sides of a relation land on different classes those classes are
merged, with merges propagated through table rows until stable.  Each merge
joins classes that provably represent congruent words, and a completed
table that respects every relation at every class has exactly one class
per element of the presented monoid, so the final size is exact.

On completion the classes are renumbered in breadth-first order from the
class of the empty word, which makes the table and the shortlex
representative words deterministic regardless of internal merge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .presentations import Presentation, Relation, Word


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

    def trace(self, word: Sequence[str], start: int = 0) -> int:
        """Follow ``word`` through the table from the given class."""
        pos = {x: i for i, x in enumerate(self.alphabet)}
        q = start
        for letter in word:
            q = self.right_mult[q][pos[letter]]
        return q

    def check(self, relations: Sequence[Relation]) -> None:
        """Raise if any relation fails to hold at any class."""
        pos = {x: i for i, x in enumerate(self.alphabet)}
        rels = [
            ([pos[x] for x in u], [pos[x] for x in v]) for u, v in relations
        ]
        for q in range(self.size):
            for u, v in rels:
                a = q
                for i in u:
                    a = self.right_mult[a][i]
                b = q
                for i in v:
                    b = self.right_mult[b][i]
                if a != b:
                    raise AssertionError(
                        f"relation fails at class {q}: traces reach {a} and {b}"
                    )


def _run_table_enumeration(n_letters: int, relations, cap: int):
    """Core loop; returns (table, find, live) or (None, None, live) on budget."""
    table: list[list] = [[None] * n_letters]
    parent = [0]
    live = 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def new_class() -> int:
        nonlocal live
        table.append([None] * n_letters)
        parent.append(len(table) - 1)
        live += 1
        return len(table) - 1

    def scan_fill(q: int, word) -> int:
        c = q
        for x in word:
            c = find(c)
            nxt = table[c][x]
            if nxt is None:
                nxt = new_class()
                table[c][x] = nxt
            c = nxt
        return find(c)

    def merge(a: int, b: int) -> None:
        nonlocal live
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            live -= 1
            row_a = table[a]
            row_b = table[b]
            for x in range(n_letters):
                vb = row_b[x]
                if vb is None:
                    continue
                va = row_a[x]
                if va is None:
                    row_a[x] = vb
                else:
                    queue.append((va, vb))

    q = 0
    while q < len(table):
        if find(q) == q:
            for u, v in relations:
                a = scan_fill(q, u)
                b = scan_fill(q, v)
                if a != b:
                    merge(a, b)
                if live > cap:
                    return None, None, live
                if find(q) != q:
                    break
            if find(q) == q:
                row = table[q]
                for x in range(n_letters):
                    if row[x] is None:
                        row[x] = new_class()
                if live > cap:
                    return None, None, live
        q += 1
    return table, find, live


def enumerate_quotient(
    pres: Presentation, bound: int, *, max_classes: int | None = None
) -> Union[CongruenceTable, QuotientExceeded]:
    """Enumerate the quotient of the free monoid by the presentation's congruence.

    Returns the complete table when the quotient has at most ``bound``
    classes.  Otherwise returns :class:`QuotientExceeded`: with
    ``completed=True`` and the exact size when enumeration finished above
    the bound, or ``completed=False`` when the internal class budget
    (``max_classes``, default scaled from the bound) ran out first.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    pos = {x: i for i, x in enumerate(pres.alphabet)}
    relations = [
        (tuple(pos[x] for x in u), tuple(pos[x] for x in v)) for u, v in pres.relations
    ]
    # enumeration can transiently hold many more classes than the final
    # quotient before collapses land, hence the generous default slack; it
    # is not always enough: end_star_presentation(7) reaches 1,121,950 live
    # classes against a final 46,662 (over 24x) and runs out of this cap
    cap = max_classes if max_classes is not None else max(24 * bound + 2048, 8192)
    table, find, live = _run_table_enumeration(len(pres.alphabet), relations, cap)
    if table is None:
        return QuotientExceeded(classes_reached=live, completed=False)
    if live > bound:
        return QuotientExceeded(classes_reached=live, completed=True)

    # breadth-first renumbering from the class of the empty word; the first
    # word reaching a class in this order is its shortlex-minimal representative
    n_letters = len(pres.alphabet)
    root = find(0)
    order = {root: 0}
    bfs = [root]
    reps: list[Word] = [()]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(bfs):
        c = bfs[i]
        row = []
        for x in range(n_letters):
            d = find(table[c][x])
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
    )
    result.check(pres.relations)
    return result
