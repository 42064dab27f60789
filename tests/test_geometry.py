import math

import numpy as np
import pytest

from gatecert.geometry import convex_hull, distance_origin_to_hull


def test_single_point():
    hull = convex_hull([(1.0, 0.0)])
    assert hull.shape == (1, 2)
    assert distance_origin_to_hull(hull) == pytest.approx(1.0)


def test_repeated_eigenvalue_collapses_to_chord():
    phi = 0.9
    pts = [(1.0, 0.0)] * 3 + [(math.cos(phi), math.sin(phi))]
    hull = convex_hull(pts)
    assert hull.shape == (2, 2)
    assert distance_origin_to_hull(hull) == pytest.approx(math.cos(phi / 2), abs=1e-14)


def test_chord_distance_over_angles():
    for phi in (0.1, 0.5, 1.0, 2.0, 3.0):
        pts = [(1.0, 0.0), (math.cos(phi), math.sin(phi))]
        hull = convex_hull(pts)
        assert distance_origin_to_hull(hull) == pytest.approx(
            math.cos(phi / 2), abs=1e-14
        )


def test_square_encloses_origin():
    hull = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert hull.shape == (4, 2)
    assert distance_origin_to_hull(hull) == 0.0


def test_single_unit_point_distance_one():
    for theta in (0.0, 1.0, 2.5):
        hull = convex_hull([(math.cos(theta), math.sin(theta))])
        assert distance_origin_to_hull(hull) == pytest.approx(1.0)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        convex_hull(np.empty((0, 2)))


def test_hull_is_counterclockwise():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((30, 2))
    hull = convex_hull(pts)
    k = len(hull)
    area2 = sum(
        hull[i][0] * hull[(i + 1) % k][1] - hull[(i + 1) % k][0] * hull[i][1]
        for i in range(k)
    )
    assert area2 > 0


def test_distance_never_exceeds_nearest_vertex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ang = rng.uniform(0, 2 * np.pi, rng.integers(2, 12))
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        dist = distance_origin_to_hull(convex_hull(pts))
        assert dist <= np.hypot(pts[:, 0], pts[:, 1]).min() + 1e-12


def test_rotation_invariance():
    rng = np.random.default_rng(2)
    ang = rng.uniform(0.2, 1.2, 7)
    base = distance_origin_to_hull(
        convex_hull(np.column_stack([np.cos(ang), np.sin(ang)]))
    )
    for _ in range(10):
        rot = rng.uniform(0, 2 * np.pi)
        pts = np.column_stack([np.cos(ang + rot), np.sin(ang + rot)])
        assert abs(distance_origin_to_hull(convex_hull(pts)) - base) <= 1e-12


def test_monotone_under_insertion():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ang = rng.uniform(-1.0, 1.0, 5)
        pts = list(np.column_stack([np.cos(ang), np.sin(ang)]))
        before = distance_origin_to_hull(convex_hull(pts))
        extra = rng.uniform(-1.5, 1.5)
        pts.append(np.array([math.cos(extra), math.sin(extra)]))
        after = distance_origin_to_hull(convex_hull(pts))
        assert after <= before + 1e-12


def test_brute_force_convex_combination_oracle():
    # random unit-circle clouds confined to an arc < pi, so the nearest hull
    # point lies on a chord between two input points; a dense sweep over all
    # pairwise segments brackets the hull distance from above and achieves it
    rng = np.random.default_rng(4)
    ts = np.linspace(0.0, 1.0, 10_000)
    for _ in range(1000):
        center = rng.uniform(0, 2 * np.pi)
        width = rng.uniform(0.05, math.pi - 0.05)
        ang = center + rng.uniform(-width / 2, width / 2, rng.integers(2, 7))
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        computed = distance_origin_to_hull(convex_hull(pts))
        brute = np.inf
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                seg = np.outer(ts, pts[i]) + np.outer(1 - ts, pts[j])
                brute = min(brute, float(np.hypot(seg[:, 0], seg[:, 1]).min()))
        assert brute >= computed - 1e-6
        assert brute <= computed + 1e-6


def test_origin_enclosing_clouds_give_zero():
    rng = np.random.default_rng(5)
    for _ in range(100):
        # three roughly equally spread angles always enclose the origin
        ang = np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, 3)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        assert distance_origin_to_hull(convex_hull(pts)) == 0.0
