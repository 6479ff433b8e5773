"""Full transformations of {0, ..., n-1} stored as image tuples.

Composition is LEFT TO RIGHT everywhere in this package: ``compose(f, g)``
(equivalently ``f * g``) applies ``f`` first and ``g`` second, so

    compose(f, g)[i] == g[f[i]]

Vertex 0 (the hub of a star graph) is index 0 of the image tuple.  Getting
the composition order backwards silently transposes every monoid built on
top of this module, so every product in the package follows this order:
:func:`compose` on objects, :func:`_compose_images` on image tuples, and
the monoid layer's ``bytes.translate`` products in the same order.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import _require_count


def _compose_images(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right on raw image tuples: h[i] = g[f[i]]
    return tuple(map(g.__getitem__, f))


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
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
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

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Transformation):
            return NotImplemented
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: object) -> "Transformation":
        """Left-to-right product: ``self`` first, then ``other``."""
        if not isinstance(other, Transformation):
            return NotImplemented
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


_new_object = object.__new__


def _trusted(images: tuple[int, ...]) -> Transformation:
    """A :class:`Transformation` on an image tuple the package computed itself.

    Skips the per-value checks of ``Transformation(...)``; the caller (the
    lazy ``TransformationMonoid.elements``) guarantees a non-empty tuple of
    ints, each in ``range(len(images))``.
    """
    t = _new_object(Transformation)
    t.images = images
    return t


def _require_map(value: object, degree: int | None = None) -> Transformation:
    """``value`` itself when it is a :class:`Transformation` (of ``degree``, if
    given); ValueError otherwise.  The map counterpart of ``_require_count``."""
    if not isinstance(value, Transformation):
        raise ValueError(f"not a Transformation: {value!r}")
    if degree is not None and value.degree != degree:
        raise ValueError(f"degree mismatch: {value.degree} vs {degree}")
    return value


def identity(n: int) -> Transformation:
    """The map fixing every vertex of {0, ..., n-1}."""
    return Transformation(range(_require_count("degree", n)))


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Apply ``f`` first, then ``g``: the result sends i to g[f[i]]."""
    _require_map(g, _require_map(f).degree)
    return Transformation(_compose_images(f.images, g.images))


def is_idempotent(f: Transformation) -> bool:
    _require_map(f)
    return _compose_images(f.images, f.images) == f.images
