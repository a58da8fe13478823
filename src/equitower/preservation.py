"""Fuzzing harness for equidistance-preserving plane maps.

A similarity (scaling x linear norm-isometry x translation) preserves the
equidistance relation in both directions and, on every sample drawn so
far, preserves betweenness as well; that transport claim is the property
under empirical test here, never an assumption.

Arbitrary maps are classified by sampling: quadruples biased to contain
exactly-equal segment pairs check both implication directions, segment
triples check betweenness transport.  Every entry point draws its samples
first and then classifies each map in ``_classify``, the one transport
path.  Samples are drawn as rows of coordinates, each point by one
``sampling.point_draws`` call and each generator and betweenness ratio by
the same rejection loops written out, so the draws are those of
``rand_point``, ``choice`` and ``rand_unit_fraction``.  Exact rows are integers
over one positive denominator (as in Yap, "Towards exact geometric
computation", CGTA 1997), and an affine map is decided on their integer
difference vectors, where translation drops out.  Float rows are doubles;
an affine map sends each coordinate pair through its coefficients as
``PlaneMap.apply`` does, and the image rows go through the float
kernel's tolerant length and betweenness arithmetic, as the points would.
Points are built from a row only for witness records and for nonlinear
maps, which are applied pointwise and asked of ``space.eq_dist`` and
``oracle_B``.  Sampling can only certify violations (with replayable
witnesses); "no violation found in n samples" is reported as exactly that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .geometry import EXACT, ExactPoint, Point, Space, point_to_record
from .kernel import BOX_LENGTHS, FloatKernel, int_between as _int_between
from .oracles import oracle_B
from .sampling import Matrix, generator_rows, isometry_generators, point_draws
from .scalars import float_eq, format_exact


class MapError(ValueError):
    """Malformed map description."""


NONLINEAR_FAMILIES = {
    "cubic_x": lambda p: Point(p.x * p.x * p.x, p.y),
    "square_shift": lambda p: Point(p.x + p.y * p.y, p.y),
}


@dataclass(frozen=True)
class PlaneMap:
    """An affine or named-nonlinear self-map of the plane.

    kind 'affine' applies ``matrix`` then ``shift`` (both exact rationals);
    kind 'nonlinear' applies a named coordinate family.  Compositions stay
    exact because all coefficients are rational.
    """

    kind: str
    matrix: Matrix = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    shift: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    family: str | None = None
    label: str = "map"

    def __post_init__(self) -> None:
        if self.kind not in ("affine", "nonlinear"):
            raise MapError(f"unknown map kind {self.kind!r}")
        if self.kind == "nonlinear" and self.family not in NONLINEAR_FAMILIES:
            raise MapError(f"unknown nonlinear family {self.family!r}")
        if self.kind == "affine":
            m = self.matrix
            if m[0] * m[3] - m[1] * m[2] == 0:
                raise MapError("affine maps need a nonsingular linear part")

    def apply(self, p: Point) -> Point:
        if self.kind == "nonlinear":
            return NONLINEAR_FAMILIES[self.family](p)
        m, s = self.matrix, self.shift
        if isinstance(p.x, float) or isinstance(p.y, float):
            return Point(
                float(m[0]) * p.x + float(m[1]) * p.y + float(s[0]),
                float(m[2]) * p.x + float(m[3]) * p.y + float(s[1]),
            )
        return Point(m[0] * p.x + m[1] * p.y + s[0], m[2] * p.x + m[3] * p.y + s[1])

    def to_config(self) -> dict:
        if self.kind == "nonlinear":
            return {"kind": "nonlinear", "family": self.family, "label": self.label}
        return {
            "kind": "affine",
            "matrix": [format_exact(v) for v in self.matrix],
            "shift": [format_exact(v) for v in self.shift],
            "label": self.label,
        }

    @staticmethod
    def from_config(cfg: dict) -> "PlaneMap":
        kind = cfg.get("kind", "affine")
        label = cfg.get("label", kind)
        if kind == "nonlinear":
            return PlaneMap(kind="nonlinear", family=cfg.get("family"), label=label)
        raw_m = cfg.get("matrix", ["1", "0", "0", "1"])
        raw_s = cfg.get("shift", ["0", "0"])
        if len(raw_m) != 4 or len(raw_s) != 2:
            raise MapError("affine config needs matrix[4] and shift[2]")
        matrix = tuple(Fraction(str(v)) for v in raw_m)
        shift = tuple(Fraction(str(v)) for v in raw_s)
        return PlaneMap(kind="affine", matrix=matrix, shift=shift, label=label)


def translation(vx, vy, label: str | None = None) -> PlaneMap:
    shift = (Fraction(vx), Fraction(vy))
    return PlaneMap("affine", shift=shift, label=label or f"translate({shift[0]},{shift[1]})")


def linear_map(m11, m12, m21, m22, label: str | None = None) -> PlaneMap:
    matrix = (Fraction(m11), Fraction(m12), Fraction(m21), Fraction(m22))
    return PlaneMap("affine", matrix=matrix, label=label or f"linear{matrix}")


def similarity(scale, isometry: Matrix, shift=(0, 0), label: str | None = None) -> PlaneMap:
    scale = Fraction(scale)
    if scale <= 0:
        raise MapError("similarity scale must be positive")
    matrix = tuple(scale * v for v in isometry)
    return PlaneMap(
        "affine",
        matrix=matrix,
        shift=(Fraction(shift[0]), Fraction(shift[1])),
        label=label or f"similarity(scale={format_exact(scale)})",
    )


def compose(outer: PlaneMap, inner: PlaneMap, label: str | None = None) -> PlaneMap:
    """outer after inner; only affine maps compose into a single PlaneMap."""
    if outer.kind != "affine" or inner.kind != "affine":
        raise MapError("only affine maps compose symbolically")
    a, b = outer.matrix, inner.matrix
    matrix = (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )
    shift = (
        a[0] * inner.shift[0] + a[1] * inner.shift[1] + outer.shift[0],
        a[2] * inner.shift[0] + a[3] * inner.shift[1] + outer.shift[1],
    )
    return PlaneMap("affine", matrix=matrix, shift=shift, label=label or f"{outer.label}∘{inner.label}")


SHEAR_X = linear_map(1, 1, 0, 1, label="shear(x+y,y)")
ANISOTROPIC = linear_map(2, 0, 0, 1, label="scale(2x,y)")
CUBIC_X = PlaneMap("nonlinear", family="cubic_x", label="cubic(x^3,y)")

SIMILARITY_SCALES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
SIMILARITY_SHIFTS = ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(-2)), (Fraction(-1, 2), Fraction(5)))


def similarity_suite(space: Space) -> list[PlaneMap]:
    """Every scale x isometry-generator x translation combination."""
    maps = []
    for scale in SIMILARITY_SCALES:
        for g_index, gen in enumerate(isometry_generators(space)):
            for shift in SIMILARITY_SHIFTS:
                label = f"similarity(scale={format_exact(scale)},iso={g_index},shift=({format_exact(shift[0])},{format_exact(shift[1])}))"
                maps.append(similarity(scale, gen, shift, label=label))
    return maps


@dataclass
class PreservationReport:
    map_label: str
    norm: str
    backend: str
    quadruples: int = 0
    triples: int = 0
    forward_violations: int = 0
    backward_violations: int = 0
    b_violations: int = 0
    first_witnesses: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def equidistance_preserving(self) -> bool:
        return self.forward_violations == 0 and self.backward_violations == 0

    @property
    def classification(self) -> str:
        if self.equidistance_preserving:
            return "bidirectional-preserving"
        if self.forward_violations == 0:
            return "forward-only"
        return "violating"

    def to_dict(self) -> dict:
        fields = dict(vars(self), classification=self.classification, b_preserving_on_samples=self.b_violations == 0)
        fields["map"] = fields.pop("map_label")
        return fields


_W = math.lcm(*range(1, 9))  # every denominator that rand_point draws divides it


def _coordinates(rng: random.Random, exact: bool) -> tuple:
    """``rand_point``'s draw as two coordinates: integers over ``_W``, or doubles."""
    xn, xd, yn, yd = point_draws(rng)
    if exact:
        return xn * _W // xd, yn * _W // yd
    return xn / xd, yn / yd


# the length (l1, linf) or squared length (l2) of an integer vector
_INT_LENGTH = {**BOX_LENGTHS, "l2": lambda x, y: x * x + y * y}


def _integer_matrix(m: Matrix) -> tuple[int, int, int, int, int]:
    """The entries of m times their least common denominator k, then k."""
    k = math.lcm(*(q.denominator for q in m))
    return (*(q.numerator * (k // q.denominator) for q in m), k)


class _Samples(NamedTuple):
    """Drawn samples in columns: each sample as a row of coordinates (float:
    doubles x1, y1, x2, y2, ...; exact: integers x1, y1, x2, y2, ..., w over
    one positive denominator w), whether the relation holds on it, and its
    difference vectors (exact only)."""

    samples: list[tuple]
    pre: list[bool]
    vectors: list[tuple[int, int, int, int]]


def _points(space: Space, sample: tuple) -> tuple[Point, ...]:
    """A sample's points; only here do rows become points."""
    if space.backend != EXACT:
        return tuple(Point(x, y) for x, y in zip(sample[::2], sample[1::2]))
    *coords, w = sample
    return tuple(ExactPoint(x, y, w) for x, y in zip(coords[::2], coords[1::2]))


def _float_eq_dist(kernel: FloatKernel, row: tuple) -> bool:
    """d(a,b) = d(c,d) on a row (ax, ay, bx, by, cx, cy, dx, dy), as ``kernel.eq_dist``."""
    ax, ay, bx, by, cx, cy, dx, dy = row
    return float_eq(kernel.length(ax - bx, ay - by), kernel.length(cx - dx, cy - dy), kernel.tol)


def _float_between(kernel: FloatKernel, row: tuple) -> bool:
    """B(a, b, c) on a row (ax, ay, bx, by, cx, cy), as ``kernel.between``."""
    ax, ay, bx, by, cx, cy = row
    return kernel.between_vectors(bx - ax, by - ay, cx - ax, cy - ay)


def _draw_quadruples(space: Space, rng: random.Random, n: int) -> _Samples:
    """Quadruples (a, b, c, d), half of them constructed equal-length pairs, which random
    ones essentially never are; ``pre`` is d(a,b) = d(c,d), the vectors are b-a and d-c."""
    drawn = _Samples([], [], [])
    exact = space.backend == EXACT
    generators = generator_rows(space)
    length = _INT_LENGTH.get(space.norm.kind)
    bits, g = rng.getrandbits, len(generators)
    kg = g.bit_length()
    for _ in range(n):
        (ax, ay), (cx, cy), (bx, by) = _coordinates(rng, exact), _coordinates(rng, exact), _coordinates(rng, exact)
        ux, uy = bx - ax, by - ay
        if rng.random() < 0.5:  # d - c is b - a under a generator m/k
            while (i := bits(kg)) >= g:  # choice(rng, generators), written out
                pass
            m11, m12, m21, m22, k = generators[i]
            vx, vy = m11 * ux + m12 * uy, m21 * ux + m22 * uy
            if k != 1:  # only exact l2 rotations have k > 1
                ax, ay, bx, by, cx, cy, ux, uy = (k * v for v in (ax, ay, bx, by, cx, cy, ux, uy))
            dx, dy, w = cx + vx, cy + vy, k * _W
        else:
            (dx, dy), w = _coordinates(rng, exact), _W
            vx, vy = dx - cx, dy - cy
        if exact:
            drawn.samples.append((ax, ay, bx, by, cx, cy, dx, dy, w))
            drawn.vectors.append((ux, uy, vx, vy))
            drawn.pre.append(length(ux, uy) == length(vx, vy))
        else:
            drawn.samples.append(row := (ax, ay, bx, by, cx, cy, dx, dy))
            drawn.pre.append(_float_eq_dist(space.kernel, row))
    return drawn


def _draw_triples(space: Space, rng: random.Random, n: int) -> _Samples:
    """Triples (a, b, c) with b = a + t(c-a), t in [0, 1]; ``pre`` is
    B(a, b, c), the vectors are b-a and c-a."""
    drawn = _Samples([], [], [])
    exact = space.backend == EXACT
    bits = rng.getrandbits
    for _ in range(n):
        (ax, ay), (cx, cy) = _coordinates(rng, exact), _coordinates(rng, exact)
        # t is choice((0, 1, rand_unit_fraction(rng))), written out: r + 2 is
        # randint(rng, 2, 16), then s + 1 is randint(rng, 1, r + 1), then the index
        while (r := bits(4)) >= 15:
            pass
        ks = (r + 1).bit_length()
        while (s := bits(ks)) > r:
            pass
        while (i := bits(2)) == 3:
            pass
        num, den = ((0, 1), (1, 1), (s + 1, r + 2))[i]
        if exact:  # over den * _W, b - a is num * (c - a) and c - a is den * (c - a)
            px, py, qx, qy = num * (cx - ax), num * (cy - ay), den * (cx - ax), den * (cy - ay)
            drawn.samples.append((den * ax, den * ay, den * ax + px, den * ay + py, den * cx, den * cy, den * _W))
            drawn.vectors.append((px, py, qx, qy))
            drawn.pre.append(_int_between(px, py, qx, qy))
        else:  # b as affine_combination(a, c, t) builds it; num / den rounds once, as float(Fraction) does
            t = num / den
            drawn.samples.append(row := (ax, ay, ax + t * (cx - ax), ay + t * (cy - ay), cx, cy))
            drawn.pre.append(_float_between(space.kernel, row))
    return drawn


def _classify(
    space: Space, plane_map: PlaneMap, quads: _Samples, triples: _Samples, rep: PreservationReport
) -> PreservationReport:
    """Decide each drawn sample's image under the map and count violations.

    Affine maps are decided on rows.  Exact ones use the samples' integer
    difference vectors: translation drops out, and the linear part is
    cleared to integers by a positive factor, which changes no comparison.
    Float ones map each row's coordinates as ``PlaneMap.apply`` maps a
    point, and the image rows go through the same tolerant arithmetic as
    the pre-answers.  Nonlinear maps are applied pointwise and the images
    go to ``space.eq_dist`` and ``oracle_B``.  Witnesses are the original
    points of the first violation of each kind.
    """
    if plane_map.kind != "affine":
        apply = plane_map.apply
        post = [space.eq_dist(*map(apply, _points(space, q))) for q in quads.samples]
        post_between = [pre and oracle_B(space, *map(apply, _points(space, t))) for pre, t in zip(triples.pre, triples.samples)]
    elif space.backend == EXACT:
        length = _INT_LENGTH[space.norm.kind]
        m11, m12, m21, m22, _ = _integer_matrix(plane_map.matrix)
        post = [
            length(m11 * ux + m12 * uy, m21 * ux + m22 * uy) == length(m11 * vx + m12 * vy, m21 * vx + m22 * vy)
            for ux, uy, vx, vy in quads.vectors
        ]
        post_between = [
            _int_between(m11 * px + m12 * py, m21 * px + m22 * py, m11 * qx + m12 * qy, m21 * qx + m22 * qy)
            for px, py, qx, qy in triples.vectors
        ]
    else:  # each point goes through the coefficients in the order of PlaneMap.apply
        m0, m1, m2, m3 = (float(v) for v in plane_map.matrix)
        s0, s1 = (float(v) for v in plane_map.shift)
        kernel = space.kernel
        post = [
            _float_eq_dist(kernel, (m0 * ax + m1 * ay + s0, m2 * ax + m3 * ay + s1, m0 * bx + m1 * by + s0,
                                    m2 * bx + m3 * by + s1, m0 * cx + m1 * cy + s0, m2 * cx + m3 * cy + s1,
                                    m0 * dx + m1 * dy + s0, m2 * dx + m3 * dy + s1))
            for ax, ay, bx, by, cx, cy, dx, dy in quads.samples
        ]
        post_between = [
            pre and _float_between(kernel, (m0 * ax + m1 * ay + s0, m2 * ax + m3 * ay + s1, m0 * bx + m1 * by + s0,
                                            m2 * bx + m3 * by + s1, m0 * cx + m1 * cy + s0, m2 * cx + m3 * cy + s1))
            for pre, (ax, ay, bx, by, cx, cy) in zip(triples.pre, triples.samples)
        ]
    rep.quadruples += len(quads.samples)
    rep.triples += len(triples.samples)
    # a map that changes no answer, as every similarity, records nothing
    first: dict[str, tuple] = {}  # the first violating sample of each kind
    if post != quads.pre:
        for pre, post_q, sample in zip(quads.pre, post, quads.samples):
            if pre and not post_q:
                rep.forward_violations += 1
                first.setdefault("forward", sample)
            elif post_q and not pre:
                rep.backward_violations += 1
                first.setdefault("backward", sample)
    if post_between != triples.pre:
        for pre, post_t, sample in zip(triples.pre, post_between, triples.samples):
            if pre and not post_t:
                rep.b_violations += 1
                first.setdefault("betweenness", sample)
    for kind, sample in first.items():
        rep.first_witnesses.setdefault(kind, [point_to_record(space, p) for p in _points(space, sample)])
    return rep


def _new_report(space: Space, plane_map: PlaneMap, seed: int) -> PreservationReport:
    return PreservationReport(map_label=plane_map.label, norm=space.norm.label(), backend=space.backend, seed=seed)


def check_equidistance_preservation(
    space: Space, plane_map: PlaneMap, samples: int, seed: int
) -> PreservationReport:
    """Both implication directions of equidistance transport under the map."""
    quads = _draw_quadruples(space, random.Random(seed), samples)
    return _classify(space, plane_map, quads, _Samples([], [], []), _new_report(space, plane_map, seed))


def check_B_preservation(
    space: Space, plane_map: PlaneMap, samples: int, seed: int, report: PreservationReport | None = None
) -> PreservationReport:
    """Betweenness transport on constructed in-segment triples."""
    triples = _draw_triples(space, random.Random(seed), samples)
    return _classify(space, plane_map, _Samples([], [], []), triples, report or _new_report(space, plane_map, seed))


def run_similarity_sweep(
    space: Space,
    maps: list[PlaneMap],
    quadruples: int,
    triples: int,
    seed: int,
) -> list[PreservationReport]:
    """Check many maps against one seeded sample pool.

    The pool is drawn once, quadruples then triples from one generator, and
    every map sees every sample.  The pre-answers and, on the exact
    backend, the integer difference vectors are computed once per sample,
    not once per map; each map is then classified as in ``check_*``.
    """
    rng = random.Random(seed)
    quads = _draw_quadruples(space, rng, quadruples)
    tris = _draw_triples(space, rng, triples)
    return [_classify(space, m, quads, tris, _new_report(space, m, seed)) for m in maps]


def run_experiment(
    space: Space,
    maps: list[PlaneMap],
    quadruples: int,
    triples: int,
    seed: int,
    expectations: dict[str, str] | None = None,
) -> dict:
    """Classify every map; deterministic for a fixed seed and map order."""
    results = []
    mismatches = 0
    for index, plane_map in enumerate(maps):
        rep = check_equidistance_preservation(space, plane_map, quadruples, seed + 1000 * index)
        rep = check_B_preservation(space, plane_map, triples, seed + 1000 * index + 1, rep)
        entry = rep.to_dict()
        if expectations and plane_map.label in expectations:
            entry["expected"] = expectations[plane_map.label]
            entry["expectation_met"] = expectations[plane_map.label] == rep.classification
            mismatches += 0 if entry["expectation_met"] else 1
        results.append(entry)
    return {
        "norm": space.norm.label(),
        "backend": space.backend,
        "quadruples": quadruples,
        "triples": triples,
        "seed": seed,
        "maps": results,
        "expectation_mismatches": mismatches,
    }
