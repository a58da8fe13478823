"""Finite point universes: the carrier sets for bounded quantifiers.

A universe is an ordered, duplicate-free (under the space's equality) list
of points, each carrying a provenance tag recording why it is present.
Exact points are deduplicated by a set lookup on their normalised
integers; float points by the space's tolerant equality.  Universes are
immutable; adding points returns a new universe.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .geometry import GeometryError, Point, Space, point_to_record

TAG_INPUT = "input"
TAG_MIDPOINT = "midpoint-closure"
TAG_CHAIN = "chain-closure"
TAG_SPHERE = "sphere-witness"
TAG_REFUTER = "refuter"

SIZE_CAP = 10_000  # most points a universe may hold


class UniverseOverflowError(GeometryError):
    """Closure would exceed the universe size cap."""


class Universe:
    __slots__ = ("space", "points", "tags")

    def __init__(self, space: Space, points: Iterable[Point] = (), tags: Iterable[str] | str = TAG_INPUT):
        self.space = space
        self.points: tuple[Point, ...] = ()
        self.tags: tuple[str, ...] = ()
        pts = tuple(points)
        tag_list = [tags] * len(pts) if isinstance(tags, str) else list(tags)
        if len(tag_list) != len(pts):
            raise GeometryError("one provenance tag per point, please")
        merged = self._merge(pts, tag_list)
        self.points, self.tags = merged

    def _merge(
        self, pts: tuple[Point, ...], tag_list: list[str]
    ) -> tuple[tuple[Point, ...], tuple[str, ...]]:
        out_p: list[Point] = list(self.points)
        out_t: list[str] = list(self.tags)
        exact = self.space.backend == "exact"
        seen = set(out_p) if exact else None
        for p, t in zip(pts, tag_list):
            self.space.check_point(p)
            if exact:
                if p in seen:
                    continue
                seen.add(p)
            elif any(self.space.points_eq(p, q) for q in out_p):
                continue  # float dedup stays tolerance-aware
            out_p.append(p)
            out_t.append(t)
        if len(out_p) > SIZE_CAP:
            raise UniverseOverflowError(f"universe would hold {len(out_p)} points (cap {SIZE_CAP})")
        return tuple(out_p), tuple(out_t)

    def add(self, points: Iterable[Point], tag: str) -> "Universe":
        pts = tuple(points)
        if not pts:
            return self
        child = Universe.__new__(Universe)
        child.space = self.space
        child.points = self.points
        child.tags = self.tags
        child.points, child.tags = child._merge(pts, [tag] * len(pts))
        return child

    def contains(self, p: Point) -> bool:
        return any(self.space.points_eq(p, q) for q in self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Universe({len(self.points)} points, {self.space.label()})"

    def to_records(self) -> list[dict]:
        out = []
        for p, t in zip(self.points, self.tags):
            rec = point_to_record(self.space, p)
            rec["tag"] = t
            out.append(rec)
        return out
