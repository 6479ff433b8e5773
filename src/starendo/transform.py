"""Full transformations of {0, ..., n-1} stored as image tuples.

Composition is LEFT TO RIGHT everywhere in this package: ``compose(f, g)``
(equivalently ``f * g``) applies ``f`` first and ``g`` second, so

    compose(f, g)[i] == g[f[i]]

Vertex 0 (the hub of a star graph) is index 0 of the image tuple.  Getting
the composition order backwards silently transposes every monoid built on
top of this module, so all word evaluation anywhere in the package funnels
through :func:`compose`/:func:`power`.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator


def _compose_images(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right on raw image tuples; hot path for the closure engines
    return tuple(map(g.__getitem__, f))


def _left_factor(f: tuple[int, ...]):
    """The map g -> f * g on raw image tuples, for a fixed first factor ``f``.

    One C-level call per product; the closure engine builds it once per
    element and applies it to every generator.
    """
    if len(f) == 1:
        only = f[0]
        return lambda g: (g[only],)
    return operator.itemgetter(*f)


@functools.total_ordering
class Transformation:
    """A full map on {0, ..., n-1}; ``images[i]`` is the image of vertex i.

    Immutable and hashable.  Two transformations are equal iff their image
    tuples are equal (which forces equal degrees).  Ordering is
    lexicographic on the image tuple; this is the canonical order used for
    deterministic enumeration output.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if not images:
            raise ValueError("a transformation needs degree at least 1")
        n = len(images)
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"image value {v!r} out of range for degree {n}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> int:
        return self.images[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transformation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other: "Transformation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Transformation") -> "Transformation":
        """Left-to-right product: ``self`` first, then ``other``."""
        return compose(self, other)

    def __repr__(self) -> str:
        return f"Transformation({list(self.images)!r})"

    def format(self) -> str:
        """Text form: comma-separated image list, e.g. ``0,2,1,3``."""
        return ",".join(map(str, self.images))

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        """Parse the comma-separated text form; degree is inferred."""
        parts = text.strip().split(",")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse transformation from {text!r}: {exc}") from None


def identity(n: int) -> Transformation:
    """The map fixing every vertex of {0, ..., n-1}."""
    if n < 1:
        raise ValueError(f"invalid degree {n}; need n >= 1")
    return Transformation(range(n))


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Apply ``f`` first, then ``g``: the result sends i to g[f[i]]."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    return Transformation(_compose_images(f.images, g.images))


def power(f: Transformation, k: int) -> Transformation:
    """k-fold left-to-right composition of ``f`` with itself; k=0 gives the identity."""
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    result = tuple(range(f.degree))
    base = f.images
    while k:
        if k & 1:
            result = _compose_images(result, base)
        k >>= 1
        if k:
            base = _compose_images(base, base)
    return Transformation(result)


def image(f: Transformation) -> frozenset[int]:
    """The set of vertices hit by ``f``."""
    return frozenset(f.images)


def kernel(f: Transformation) -> tuple[tuple[int, ...], ...]:
    """The partition of {0, ..., n-1} into preimages of image points.

    Blocks are returned as increasing tuples, sorted by least element.
    """
    buckets: dict[int, list[int]] = {}
    for i, v in enumerate(f.images):
        buckets.setdefault(v, []).append(i)
    return tuple(tuple(b) for b in sorted(buckets.values()))


def is_permutation(f: Transformation) -> bool:
    return len(set(f.images)) == f.degree


def is_idempotent(f: Transformation) -> bool:
    return _compose_images(f.images, f.images) == f.images
