"""Fuzzing harness for equidistance-preserving plane maps.

A similarity (scaling x linear norm-isometry x translation) preserves the
equidistance relation in both directions and, on every sample drawn so
far, preserves betweenness as well; that transport claim is the property
under empirical test here, never an assumption.
Arbitrary maps are classified by sampling: quadruples biased to contain
exactly-equal segment pairs check both implication directions, segment
triples check betweenness transport.  Sampling can only certify violations
(with replayable witnesses); "no violation found in n samples" is reported
as exactly that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import EXACT, Point, Space, affine_combination, p_add, p_sub, point_to_record
from .oracles import oracle_B
from .sampling import (
    Matrix,
    equal_length_mate,
    isometry_generators,
    rand_point,
    rand_unit_fraction,
)
from .scalars import format_exact


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
        return {
            "map": self.map_label,
            "norm": self.norm,
            "backend": self.backend,
            "quadruples": self.quadruples,
            "triples": self.triples,
            "forward_violations": self.forward_violations,
            "backward_violations": self.backward_violations,
            "b_violations": self.b_violations,
            "classification": self.classification,
            "b_preserving_on_samples": self.b_violations == 0,
            "first_witnesses": self.first_witnesses,
            "seed": self.seed,
        }


def _quadruple(space: Space, rng: random.Random) -> tuple[Point, Point, Point, Point]:
    """Half the draws are constructed equal-length pairs: random quadruples
    essentially never satisfy the relation exactly."""
    a = rand_point(space, rng)
    c = rand_point(space, rng)
    b = rand_point(space, rng)
    if rng.random() < 0.5:
        v = Point(b.x - a.x, b.y - a.y)
        d = p_add(c, equal_length_mate(space, rng, v))
        return a, b, c, d
    return a, b, c, rand_point(space, rng)


def check_equidistance_preservation(
    space: Space, plane_map: PlaneMap, samples: int, seed: int
) -> PreservationReport:
    """Both implication directions of equidistance transport under the map."""
    rng = random.Random(seed)
    rep = PreservationReport(
        map_label=plane_map.label, norm=space.norm.label(), backend=space.backend, seed=seed
    )
    for _ in range(samples):
        rep.quadruples += 1
        a, b, c, d = _quadruple(space, rng)
        pre = space.eq_dist(a, b, c, d)
        fa, fb, fc, fd = (plane_map.apply(p) for p in (a, b, c, d))
        post = space.eq_dist(fa, fb, fc, fd)
        if pre and not post:
            rep.forward_violations += 1
            rep.first_witnesses.setdefault(
                "forward", [point_to_record(space, p) for p in (a, b, c, d)]
            )
        elif post and not pre:
            rep.backward_violations += 1
            rep.first_witnesses.setdefault(
                "backward", [point_to_record(space, p) for p in (a, b, c, d)]
            )
    return rep


def check_B_preservation(
    space: Space, plane_map: PlaneMap, samples: int, seed: int, report: PreservationReport | None = None
) -> PreservationReport:
    """Betweenness transport on constructed in-segment triples."""
    rng = random.Random(seed)
    rep = report or PreservationReport(
        map_label=plane_map.label, norm=space.norm.label(), backend=space.backend, seed=seed
    )
    for _ in range(samples):
        rep.triples += 1
        a = rand_point(space, rng)
        c = rand_point(space, rng)
        t = rng.choice((Fraction(0), Fraction(1), rand_unit_fraction(rng)))
        b = affine_combination(a, c, t)
        if not oracle_B(space, a, b, c):
            continue
        fa, fb, fc = (plane_map.apply(p) for p in (a, b, c))
        if not oracle_B(space, fa, fb, fc):
            rep.b_violations += 1
            rep.first_witnesses.setdefault(
                "betweenness", [point_to_record(space, p) for p in (a, b, c)]
            )
    return rep


def _int_vector(u: Point, v: Point) -> tuple[int, int, int, int]:
    """A pair of vectors scaled jointly into integers (positive factor), which
    preserves every comparison the sweep makes."""
    k = 1
    for q in (u.x, u.y, v.x, v.y):
        k = k * q.denominator // math.gcd(k, q.denominator)
    return int(u.x * k), int(u.y * k), int(v.x * k), int(v.y * k)


def _int_norm_sq_or_len(kind: str, x: int, y: int) -> int:
    if kind == "l1":
        return abs(x) + abs(y)
    if kind == "linf":
        return max(abs(x), abs(y))
    return x * x + y * y


def _integer_matrix(m: Matrix) -> tuple[int, int, int, int]:
    k = 1
    for q in m:
        k = k * q.denominator // math.gcd(k, q.denominator)
    return int(m[0] * k), int(m[1] * k), int(m[2] * k), int(m[3] * k)


def run_similarity_sweep(
    space: Space,
    maps: list[PlaneMap],
    quadruples: int,
    triples: int,
    seed: int,
) -> list[PreservationReport]:
    """Check many maps against one seeded sample pool.

    Distances are translation-invariant and absolutely homogeneous, so for
    an affine map only the linear part applied to segment difference
    vectors matters; the sweep exploits that with exact integer arithmetic
    (vectors and matrices cleared of denominators by positive factors,
    which changes no comparison).  Nonlinear maps fall back to pointwise
    application.  Pools are drawn once; every map sees every sample.
    """
    if space.backend != EXACT:
        raise MapError("the pooled sweep is exact-backend machinery; use check_* on floats")
    rng = random.Random(seed)
    kind = space.norm.kind
    quad_pool = []
    for _ in range(quadruples):
        a, b, c, d = _quadruple(space, rng)
        ux, uy, vx, vy = _int_vector(p_sub(b, a), p_sub(d, c))
        pre = _int_norm_sq_or_len(kind, ux, uy) == _int_norm_sq_or_len(kind, vx, vy)
        quad_pool.append((a, b, c, d, ux, uy, vx, vy, pre))
    triple_pool = []
    for _ in range(triples):
        a = rand_point(space, rng)
        c = rand_point(space, rng)
        t = rng.choice((Fraction(0), Fraction(1), rand_unit_fraction(rng)))
        b = affine_combination(a, c, t)
        px, py, qx, qy = _int_vector(p_sub(b, a), p_sub(c, a))
        triple_pool.append((a, b, c, px, py, qx, qy))
    reports = []
    for plane_map in maps:
        rep = PreservationReport(
            map_label=plane_map.label, norm=space.norm.label(), backend=space.backend, seed=seed
        )
        if plane_map.kind == "affine":
            m11, m12, m21, m22 = _integer_matrix(plane_map.matrix)
            for a, b, c, d, ux, uy, vx, vy, pre in quad_pool:
                rep.quadruples += 1
                fux, fuy = m11 * ux + m12 * uy, m21 * ux + m22 * uy
                fvx, fvy = m11 * vx + m12 * vy, m21 * vx + m22 * vy
                post = _int_norm_sq_or_len(kind, fux, fuy) == _int_norm_sq_or_len(kind, fvx, fvy)
                if pre and not post:
                    rep.forward_violations += 1
                    rep.first_witnesses.setdefault(
                        "forward", [point_to_record(space, p) for p in (a, b, c, d)]
                    )
                elif post and not pre:
                    rep.backward_violations += 1
                    rep.first_witnesses.setdefault(
                        "backward", [point_to_record(space, p) for p in (a, b, c, d)]
                    )
            for a, b, c, px, py, qx, qy in triple_pool:
                rep.triples += 1
                fpx, fpy = m11 * px + m12 * py, m21 * px + m22 * py
                fqx, fqy = m11 * qx + m12 * qy, m21 * qx + m22 * qy
                # b' = a' + t(c'-a') with t in [0,1]: collinear and dot-bounded
                if fqx == 0 and fqy == 0:
                    ok = fpx == 0 and fpy == 0
                else:
                    dot = fpx * fqx + fpy * fqy
                    ok = fpx * fqy - fpy * fqx == 0 and 0 <= dot <= fqx * fqx + fqy * fqy
                if not ok:
                    rep.b_violations += 1
                    rep.first_witnesses.setdefault(
                        "betweenness", [point_to_record(space, p) for p in (a, b, c)]
                    )
        else:
            apply = plane_map.apply
            for a, b, c, d, *_rest, pre in quad_pool:
                rep.quadruples += 1
                post = space.eq_dist(apply(a), apply(b), apply(c), apply(d))
                if pre and not post:
                    rep.forward_violations += 1
                    rep.first_witnesses.setdefault(
                        "forward", [point_to_record(space, p) for p in (a, b, c, d)]
                    )
                elif post and not pre:
                    rep.backward_violations += 1
                    rep.first_witnesses.setdefault(
                        "backward", [point_to_record(space, p) for p in (a, b, c, d)]
                    )
            for a, b, c, *_vecs in triple_pool:
                rep.triples += 1
                if not oracle_B(space, apply(a), apply(b), apply(c)):
                    rep.b_violations += 1
                    rep.first_witnesses.setdefault(
                        "betweenness", [point_to_record(space, p) for p in (a, b, c)]
                    )
        reports.append(rep)
    return reports


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
