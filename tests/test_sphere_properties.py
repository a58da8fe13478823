"""Property tests of the l1/linf sphere meets, with shrinking (Hypothesis).

For exact spheres S(c, R) and S(d, r): every point ``sphere_meets``
returns lies on both spheres; the list is non-empty exactly when the
annulus condition |R - r| <= d(c,d) <= R + r holds; and the reference
boundary walk's point (``box_walk``) is among the points.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from box_walk import box_length, walk_meet
from equitower import NormSpec, Point, Space
from equitower.geometry import sphere_meets

# small denominators make tangencies and overlapping parallel edges common
COORDS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
RADII = st.fractions(min_value=0, max_value=12, max_denominator=4)


@st.composite
def sphere_pairs(draw):
    kind = draw(st.sampled_from(["l1", "linf"]))
    c = Point(draw(COORDS), draw(COORDS))
    d = draw(st.one_of(st.just(c), st.builds(Point, COORDS, COORDS)))
    radius_c = draw(RADII)
    g = box_length(kind, c, d)
    radius_d = draw(st.one_of(RADII, st.sampled_from([abs(radius_c - g), radius_c + g])))
    return kind, c, radius_c, d, radius_d


@settings(max_examples=400, deadline=None)
@given(sphere_pairs())
def test_sphere_meets_properties(pair):
    kind, c, radius_c, d, radius_d = pair
    meets = sphere_meets(Space(NormSpec(kind), "exact"), c, radius_c, d, radius_d)
    for e in meets:
        assert isinstance(e.x, Fraction) and isinstance(e.y, Fraction)
        assert box_length(kind, c, e) == radius_c and box_length(kind, d, e) == radius_d
    annulus = abs(radius_c - radius_d) <= box_length(kind, c, d) <= radius_c + radius_d
    assert bool(meets) == annulus
    if annulus:
        assert walk_meet(kind, c, radius_c, d, radius_d) in meets
