"""Tour of the coordinate planes: norms, backends, and the equidistance
primitive that everything else is defined from.

Run:  python demos/01_planes_and_distances.py
"""

from fractions import Fraction as F

from equitower import (
    L1,
    L2,
    LINF,
    Point,
    Space,
    distance,
    lp,
    sphere_intersection_point,
)


def main() -> None:
    a, b = Point(F(0), F(0)), Point(F(3), F(4))

    print("== one segment, three norms ==")
    for norm in (L1, L2, LINF):
        space = Space(norm, "exact")
        print(f"  d_{norm.kind}((0,0),(3,4)) = {distance(space, a, b)}")

    print("\n== exact euclidean lengths stay symbolic ==")
    euclid = Space(L2, "exact")
    diag = distance(euclid, Point(F(0), F(0)), Point(F(1), F(1)))
    print(f"  d((0,0),(1,1)) = {diag}  (float {float(diag):.6f})")
    print(f"  sqrt2 + sqrt2 == sqrt8 ? {diag + diag == distance(euclid, Point(F(0), F(0)), Point(F(2), F(2)))}")

    print("\n== the primitive relation: segment ab as long as segment cd ==")
    c, d = Point(F(0), F(5)), Point(F(0), F(0))
    print(f"  |(0,0)(3,4)| == |(0,5)(0,0)| in l2? {euclid.eq_dist(a, b, c, d)}")
    box = Space(LINF, "exact")
    print(
        "  |(0,0)(2,1)| == |(0,0)(1,2)| in linf?",
        box.eq_dist(Point(F(0), F(0)), Point(F(2), F(1)), Point(F(0), F(0)), Point(F(1), F(2))),
    )
    print(
        "  |(0,0)(4,0)| == 2*|(1,1)(3,1)| in l2?",
        euclid.eq_dist_scaled(Point(F(0), F(0)), Point(F(4), F(0)), 2, Point(F(1), F(1)), Point(F(3), F(1))),
    )

    print("\n== constructing triangle apexes from two sphere radii ==")
    taxicab = Space(L1, "exact")
    apex = sphere_intersection_point(taxicab, Point(F(0), F(0)), F(2), Point(F(2), F(0)), F(2))
    print(f"  l1 diamonds radius 2 around (0,0) and (2,0) meet at {tuple(apex)} (exact)")
    floaty = Space(lp("3/2"), "float", 1e-9)
    apex_p = sphere_intersection_point(floaty, Point(0.0, 0.0), 2.0, Point(1.0, 0.5), 1.5)
    print(f"  lp(3/2) circles meet near ({apex_p.x:.6f}, {apex_p.y:.6f}) (numeric)")


if __name__ == "__main__":
    main()
