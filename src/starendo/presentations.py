"""Monoid presentations as data, plus builders for the standard families.

A presentation is an ordered alphabet plus a list of relations, each a pair
of words over the alphabet; the empty word denotes the identity.  Chained
equalities u = v = w are stored as adjacent pairs (u, v), (v, w), except
that chains ending in the identity distribute: u = v = 1 stores (u, 1) and
(v, 1), which is how those relation families are conventionally quoted.
A presentation also keeps its relations coded once, each letter by its
alphabet position, as ``_int_relations``, an attribute that is not a
field; the enumerator, the word-closure oracle, the weight search and the
level walk all read that coding.

Builders cover the symmetric group and full/partial transformation monoid
presentations (the classical Moore / Aizenstat / Popova families) and, on
top of them, the endomorphism-type monoids of star graphs.

``_compile_traces`` turns relations over letter indices into the trace
programs that both size engines run: the class-table enumerator in
congruence.py and the word-closure oracle in wordclosure.py, which imports
nothing from congruence.py.  ``CongruenceTable.check``, which certifies the
enumerator's tables, composes table columns and runs no trace program.  Both
engines also merge coincident classes through the one ``merge`` routine that
``_coincidence`` writes out per alphabet size, over the union-find of
``_find``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache

from .errors import _require_count

Word = tuple[str, ...]
Relation = tuple[Word, Word]
IntWord = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """Alphabet plus relation pairs; words are tuples of ``str`` letter names.
    ValueError for an alphabet or a relation list that is not iterable, any
    other letter, or a relation that is repeated or not a pair of words (a
    ``str`` is neither a relation nor a word)."""

    alphabet: tuple[str, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self):
        try:
            alphabet, given = tuple(self.alphabet), tuple(self.relations)
        except TypeError:
            raise ValueError(
                f"expected an iterable alphabet and relation list, got "
                f"{self.alphabet!r} and {self.relations!r}"
            ) from None
        for x in alphabet:
            if not isinstance(x, str):
                raise ValueError(f"letter {x!r} is not a string")
        position = {x: i for i, x in enumerate(alphabet)}
        if len(position) != len(alphabet):
            raise ValueError("alphabet has repeated letters")
        # a set that keeps the given order, each relation mapped to its coding
        relations: dict[Relation, tuple[IntWord, IntWord]] = {}
        for i, rel in enumerate(given):
            try:
                u, v = rel
                if isinstance(rel, str) or isinstance(u, str) or isinstance(v, str):
                    raise TypeError
                u, v = tuple(u), tuple(v)
            except (TypeError, ValueError):
                raise ValueError(f"relation {i}: expected a pair of words, got {rel!r}") from None
            for x in u + v:
                if not isinstance(x, str) or x not in position:
                    raise ValueError(f"letter {x!r} not in alphabet {alphabet}")
            if (u, v) in relations:
                raise ValueError(f"duplicate relation {u} = {v}")
            relations[u, v] = tuple(position[x] for x in u), tuple(position[x] for x in v)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "_int_relations", tuple(relations.values()))

    def relabel(self, mapping: Mapping[str, str]) -> "Presentation":
        """Rename letters; unmapped letters keep their names.  ValueError for
        a ``mapping`` that is not a Mapping."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"relabeling {mapping!r} is not a Mapping of letters")
        new_alphabet = tuple(mapping.get(x, x) for x in self.alphabet)
        new_relations = tuple(
            (tuple(mapping.get(x, x) for x in u), tuple(mapping.get(x, x) for x in v))
            for u, v in self.relations
        )
        return Presentation(new_alphabet, new_relations)

    def __repr__(self) -> str:
        return f"<Presentation |X|={len(self.alphabet)} |R|={len(self.relations)}>"


def _require_presentation(value: object) -> Presentation:
    """``value`` itself when it is a :class:`Presentation`; ValueError
    otherwise.  The presentation counterpart of ``transform._require_map``."""
    if not isinstance(value, Presentation):
        raise ValueError(f"not a Presentation: {value!r}")
    return value


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


# The coincidence routine of both size engines, written out for one alphabet
# size: ``{k}`` and each letter offset ``{x}`` are the only substitutions, so
# the removed class's row is read at constant offsets.
_MERGE_SOURCE = """\
def merge(table, parent, a, b):
    queue = [(a, b)]
    removed = 0
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
        removed += 1
        i = a * {k}
        j = b * {k}
{letters}    return removed
"""
_MERGE_LETTER = """\
        vb = table[j + {x}]
        if vb >= 0:
            va = table[i + {x}]
            if va < 0:
                table[i + {x}] = vb
            else:
                queue.append((va, vb))
"""


@cache
def _coincidence(k: int):
    """``merge(table, parent, a, b)`` for a flat table of ``k`` letters.

    ``table[c*k + x]`` is class c's entry for letter x, -1 while missing,
    and ``parent`` is the union-find of ``_find``.  Merges the distinct
    roots a and b, and then every pair of entries the merge makes equal:
    pairs are popped last in, first out, the older root (the smaller
    number) is kept, a missing entry is copied and a clashing pair is
    queued, in letter order.  Returns how many classes it removed.
    """
    letters = "".join(_MERGE_LETTER.format(x=x) for x in range(k))
    source = _MERGE_SOURCE.format(k=k, letters=letters)
    namespace = {"_find": _find}
    exec(compile(source, f"<coincidence k={k}>", "exec"), namespace)
    return namespace["merge"]



def _chain(*words: Word) -> list[Relation]:
    """Adjacent-pairs expansion of a chained equality."""
    return [(words[i], words[i + 1]) for i in range(len(words) - 1)]


def _moore_relations(a: Word, b: Word, n: int) -> list[Relation]:
    """Relations presenting the symmetric group on n points over (a, b)."""
    rels: list[Relation] = [
        (a * 2, ()),
        (b * n, ()),
        ((b + a) * (n - 1), ()),
        ((a + b * (n - 1) + a + b) * 3, ()),
    ]
    for j in range(2, n - 1):
        rels.append(((a + b * (n - j) + a + b * j) * 2, ()))
    return rels


def sym_presentation(n: int) -> Presentation:
    """Presentation of the symmetric group on n points, letters a, b (n >= 3)."""
    _require_count("degree", n, 3)
    return Presentation(("a", "b"), _moore_relations(("a",), ("b",), n))


def _idempotent_relations(a: Word, b: Word, e: Word, n: int) -> list[Relation]:
    """Relations tying the rank n-1 idempotent e to the Moore generators (a, b).

    Shared by the full and the partial transformation presentations.  At
    n = 3 the block is quoted without the second word of its first chain
    and without its last relation.
    """
    first = [
        a + e,
        b * (n - 2) + a + b * 2 + e + b * (n - 2) + a + b * 2,
        b + a + b * (n - 1) + a + b + e + b * (n - 1) + a + b + a + b * (n - 1),
        (e + b + a + b * (n - 1)) * 2,
        e,
    ]
    if n == 3:
        del first[1]
    rels = _chain(*first)
    rels += _chain(
        (b * (n - 1) + a + b + e) * 2,
        e + b * (n - 1) + a + b + e,
        (e + b * (n - 1) + a + b) * 2,
    )
    if n > 3:
        rels.append(((e + b + a + b * (n - 2) + a + b) * 2, (b + a + b * (n - 2) + a + b + e) * 2))
    return rels


def full_transf_presentation(n: int) -> Presentation:
    """Presentation of the full transformation monoid on n points, letters a, b, e."""
    _require_count("degree", n, 3)
    a, b, e = ("a",), ("b",), ("e",)
    rels = _moore_relations(a, b, n) + _idempotent_relations(a, b, e, n)
    return Presentation(("a", "b", "e"), rels)


def partial_transf_presentation(n: int) -> Presentation:
    """Presentation of the partial transformation monoid on n points, letters a, b, c, e."""
    _require_count("degree", n, 3)
    a, b, c, e = ("a",), ("b",), ("c",), ("e",)
    rels = _moore_relations(a, b, n)
    rels += _chain(
        b * (n - 1) + a + b + c + b * (n - 1) + a + b,
        b + a + c + a + b * (n - 1),
        c,
        c * 2,
    )
    rels += _chain((c + a) * 2, c + a + c, (a + c) * 2)
    rels += _idempotent_relations(a, b, e, n)
    w = a + b * (n - 1) + a + b + a
    rels += [
        (e + c, c + a + c),
        (c + e, c + a),
        (e + a + c, e + a),
        (e + w + c, w + c + w + e + w),
    ]
    return Presentation(("a", "b", "c", "e"), rels)


def _star3_relations() -> list[Relation]:
    """a0 a0 = 1, a0 z = z and z z z = z: every star presentation at n = 3 starts so."""
    a0, z = ("a0",), ("z",)
    return [(a0 * 2, ()), (a0 + z, z), (z * 3, z)]


def _hub_relations(n: int) -> list[Relation]:
    """The hub-collapse relations for z over the relabeled base letters, n >= 4:
    a0 z = b0 z = e0 z = z and z z = (e0 b0)^(n-3) e0."""
    a0, b0, e0, z = ("a0",), ("b0",), ("e0",), ("z",)
    return _chain(a0 + z, b0 + z, e0 + z, z) + [(z * 2, (e0 + b0) * (n - 3) + e0)]


def end_star_presentation(n: int) -> Presentation:
    """Presentation of the endomorphism monoid of the star with n vertices.

    For n >= 4 this is the full transformation presentation on n-1 points,
    relabeled to (a0, b0, e0), extended by the hub-collapse relations for z.
    """
    _require_count("degree", n, 3)
    if n == 3:
        return Presentation(("a0", "z"), _star3_relations())
    base = full_transf_presentation(n - 1).relabel({"a": "a0", "b": "b0", "e": "e0"})
    return Presentation(("a0", "b0", "e0", "z"), list(base.relations) + _hub_relations(n))


def swend_star_presentation(n: int) -> Presentation:
    """Presentation of the strong weak endomorphism monoid of the star with n vertices."""
    _require_count("degree", n, 3)
    a0, z, z0 = ("a0",), ("z",), ("z0",)
    if n == 3:
        rels = _star3_relations()
        rels += _chain(a0 + z0, z + z0, z0 * 2, z0 + a0, z0 + z * 2, z0)
        return Presentation(("a0", "z", "z0"), rels)
    base = end_star_presentation(n)
    b0, e0 = ("b0",), ("e0",)
    rels = list(base.relations)
    rels += _chain(
        a0 + z0, b0 + z0, e0 + z0, z + z0, z0 * 2, z0 + a0, z0 + b0, z0 + e0, z0
    )
    return Presentation(("a0", "b0", "e0", "z", "z0"), rels)


def wend_star_presentation(n: int) -> Presentation:
    """Presentation of the weak endomorphism monoid of the star with n vertices.

    For n >= 4 this is the partial transformation presentation on n-1
    points, relabeled to (a0, b0, c0, e0), extended by the z relations.
    """
    _require_count("degree", n, 3)
    a0, c0, z = ("a0",), ("c0",), ("z",)
    if n == 3:
        rels = _star3_relations() + [(c0 * 2, c0)]
        rels += _chain((c0 + a0) * 2, (a0 + c0) * 2, c0 + a0 + c0)
        rels += [
            (z * 2 + c0, c0 + a0 + c0),
            (c0 + z * 2, c0 + a0),
            (z * 2 + a0 + c0, z * 2 + a0),
            (z * 2 + c0, z + c0),
        ]
        return Presentation(("a0", "c0", "z"), rels)
    base = partial_transf_presentation(n - 1).relabel(
        {"a": "a0", "b": "b0", "c": "c0", "e": "e0"}
    )
    rels = list(base.relations) + _hub_relations(n)
    rels.append((z * 2 + c0, z + c0))
    return Presentation(("a0", "b0", "e0", "c0", "z"), rels)


def presentation_to_json(pres: Presentation) -> str:
    """Serialize to the structured text format (round-trip is bit-exact)."""
    _require_presentation(pres)
    doc = {
        "alphabet": list(pres.alphabet),
        "relations": [[list(u), list(v)] for u, v in pres.relations],
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_word(value: object, where: str) -> Word:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list of letters, got {type(value).__name__}")
    for x in value:
        if not isinstance(x, str):
            raise ValueError(f"{where}: letter {x!r} is not a string")
    return tuple(value)


def presentation_from_json(text: str) -> Presentation:
    """Parse the structured text format produced by :func:`presentation_to_json`.

    Malformed documents raise ``ValueError``: text that is neither ``str``
    nor ``bytes``, invalid JSON, a document that is not an object, missing
    keys, words that are not lists, letters that are not strings, or
    relations that are not pairs of words.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValueError(f"presentation text must be str or bytes, got {type(text).__name__}")
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"presentation document must be an object, got {type(doc).__name__}")
    missing = sorted({"alphabet", "relations"} - doc.keys())
    if missing:
        raise ValueError(f"presentation document lacks keys {missing}")
    alphabet = _json_word(doc["alphabet"], "alphabet")
    if not isinstance(doc["relations"], list):
        raise ValueError("relations: expected a list of pairs of words")
    relations = []
    for i, rel in enumerate(doc["relations"]):
        if not isinstance(rel, list) or len(rel) != 2:
            raise ValueError(f"relation {i}: expected a pair of words, got {rel!r}")
        relations.append(tuple(_json_word(w, f"relation {i}") for w in rel))
    return Presentation(alphabet, relations)
