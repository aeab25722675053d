"""Geometry: positions, areas, node layout validation, distances, azimuths."""

import math

import numpy as np
import pytest

from vrlink.errors import ConfigurationError, InvalidInputError
from vrlink.topology import IndoorArea, NetworkTopology, Position3D, departure_arrival_angles, distance


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
    ap = Position3D(1, 1, 2)
    user = Position3D(2, 2, 1)
    NetworkTopology(area=area, aps=(ap,), users=(user,))  # fine

    with pytest.raises(ConfigurationError):
        NetworkTopology(area=area, aps=(), users=(user,))
    with pytest.raises(ConfigurationError):
        NetworkTopology(area=area, aps=(ap,), users=(Position3D(11, 2, 1),))  # outside
    # a user above, on or below an AP: the link has no azimuth; a node's
    # index in its tuple names it
    for z in (1, 2, 0):
        with pytest.raises(ConfigurationError, match="user 1 and AP 0"):
            NetworkTopology(area=area, aps=(ap,), users=(user, Position3D(1, 1, z)))
    # two users, or two APs, may share a spot: no link joins them
    NetworkTopology(area=area, aps=(ap,), users=(user, user))
    NetworkTopology(area=area, aps=(ap, ap), users=(user,))
