"""Geometry: positions, areas, node layout validation, distances, azimuths."""

import math

import numpy as np
import pytest

from vrlink.errors import ConfigurationError, DegenerateGeometryError, InvalidInputError
from vrlink.topology import (
    AccessPoint,
    IndoorArea,
    NetworkTopology,
    Position3D,
    UserNode,
    departure_arrival_angles,
    distance,
)


def make_topology(ap_xy=(2.0, 2.0), user_xy=(5.0, 6.0)):
    area = IndoorArea()
    aps = (AccessPoint(0, Position3D(ap_xy[0], ap_xy[1], 3.0), 0.01),)
    users = (UserNode(0, Position3D(user_xy[0], user_xy[1], 1.5), 0.005, 0.02),)
    return NetworkTopology(area=area, aps=aps, users=users)


def test_position_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        Position3D(0.0, math.nan, 1.0)
    with pytest.raises(InvalidInputError):
        Position3D(math.inf, 0.0, 1.0)


def test_distance_345_triangle():
    assert distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == pytest.approx(5.0)
    assert distance(Position3D(1, 2, 2), Position3D(1, 2, 2)) == 0.0


def test_distance_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = Position3D(*rng.uniform(0, 10, 3))
        q = Position3D(*rng.uniform(0, 10, 3))
        assert distance(p, q) == pytest.approx(distance(q, p), rel=1e-15)


def test_angles_cardinal_directions():
    o = Position3D(0, 0, 0)
    aod, aoa = departure_arrival_angles(o, Position3D(1, 0, 0))
    assert aod == pytest.approx(0.0, abs=1e-12)
    assert aoa == pytest.approx(180.0)
    aod, aoa = departure_arrival_angles(o, Position3D(0, 1, 0))
    assert aod == pytest.approx(90.0)
    assert aoa == pytest.approx(270.0)
    aod, aoa = departure_arrival_angles(o, Position3D(-1, 0, 0))
    assert aod == pytest.approx(180.0)
    assert aoa == pytest.approx(0.0, abs=1e-12)
    aod, aoa = departure_arrival_angles(o, Position3D(0, -1, 0))
    assert aod == pytest.approx(270.0)
    assert aoa == pytest.approx(90.0)


def test_angles_quadrant_and_range():
    o = Position3D(0, 0, 0)
    aod, aoa = departure_arrival_angles(o, Position3D(1, 1, 0))
    assert aod == pytest.approx(45.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = Position3D(*rng.uniform(0, 10, 3))
        q = Position3D(*rng.uniform(0, 10, 3))
        if p.x == q.x and p.y == q.y:
            continue
        aod, aoa = departure_arrival_angles(p, q)
        assert 0.0 <= aod < 360.0
        assert 0.0 <= aoa < 360.0
        assert aoa == pytest.approx((aod + 180.0) % 360.0, abs=1e-9)


def test_angles_vertical_offset_only_is_degenerate():
    # same xy column, different height: azimuth undefined
    with pytest.raises(DegenerateGeometryError):
        departure_arrival_angles(Position3D(1, 1, 0), Position3D(1, 1, 2))


def test_area_contains_and_sample():
    area = IndoorArea()
    assert area.contains(Position3D(0, 0, 0))
    assert area.contains(Position3D(10, 17, 3))
    assert not area.contains(Position3D(10.01, 5, 1))
    rng = np.random.default_rng(9)
    for _ in range(200):
        assert area.contains(area.sample(rng))


def test_area_rejects_empty_range():
    with pytest.raises(ConfigurationError):
        IndoorArea(x_range=(5.0, 1.0))


def test_topology_validation():
    area = IndoorArea()
    ap = AccessPoint(0, Position3D(1, 1, 2), 0.01)
    user = UserNode(0, Position3D(2, 2, 1), 0.005, 0.02)
    NetworkTopology(area=area, aps=(ap,), users=(user,))  # fine

    with pytest.raises(ConfigurationError):
        NetworkTopology(area=area, aps=(), users=(user,))
    with pytest.raises(ConfigurationError):
        NetworkTopology(area=area, aps=(ap, ap), users=(user,))  # duplicate id
    outside = UserNode(1, Position3D(11, 2, 1), 0.005, 0.02)
    with pytest.raises(ConfigurationError):
        NetworkTopology(area=area, aps=(ap,), users=(outside,))

