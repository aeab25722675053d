"""Indoor 3-D geometry: node placement, Euclidean distances, azimuth angles."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise InvalidInputError(f"non-finite coordinate in {(self.x, self.y, self.z)}")


@dataclass(frozen=True)
class IndoorArea:
    """Axis-aligned room the network lives in, default 10 m x 17 m x 3 m."""

    x_range: tuple = (0.0, 10.0)
    y_range: tuple = (0.0, 17.0)
    z_range: tuple = (0.0, 3.0)

    def __post_init__(self):
        for axis, (lo, hi) in zip("xyz", (self.x_range, self.y_range, self.z_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ConfigurationError(f"empty or non-finite {axis}_range {(lo, hi)}")

    def contains(self, p: Position3D) -> bool:
        return (
            self.x_range[0] <= p.x <= self.x_range[1]
            and self.y_range[0] <= p.y <= self.y_range[1]
            and self.z_range[0] <= p.z <= self.z_range[1]
        )

    def sample(self, rng: "np.random.Generator") -> Position3D:
        """Uniform-random position inside the room."""
        return Position3D(
            rng.uniform(*self.x_range),
            rng.uniform(*self.y_range),
            rng.uniform(*self.z_range),
        )


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable AP/user layout. A node is its position, and its index in its
    tuple is its id: the canonical (user, ap) index order of every
    downstream array."""

    area: IndoorArea
    aps: tuple    # of Position3D
    users: tuple  # of Position3D

    def __post_init__(self):
        if len(self.aps) < 1 or len(self.users) < 1:
            raise ConfigurationError("topology needs at least one AP and one user")
        for node in self.aps + self.users:
            if not self.area.contains(node):
                raise ConfigurationError(f"node at {node} lies outside the indoor area")
        # a link's azimuths are undefined when its ends share an xy position
        for i, user in enumerate(self.users):
            for j, ap in enumerate(self.aps):
                if (user.x, user.y) == (ap.x, ap.y):
                    raise ConfigurationError(f"user {i} and AP {j} share the xy position")

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    @property
    def n_users(self) -> int:
        return len(self.users)


def distance(p: Position3D, q: Position3D) -> float:
    """Euclidean distance in meters."""
    return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)


def departure_arrival_angles(tx: Position3D, rx: Position3D) -> tuple:
    """Azimuth angle of departure and arrival, degrees in [0, 360).

    Departure direction is rx - tx; arrival is its negation, so the arrival
    azimuth is exactly the departure azimuth rotated by 180 degrees. The
    two-argument arctangent keeps the quadrant, which a plain ratio loses.
    tx and rx must differ in the xy plane, as ``NetworkTopology`` checks.
    """
    dx = rx.x - tx.x
    dy = rx.y - tx.y
    aod_az = math.degrees(math.atan2(dy, dx)) % 360.0
    aoa_az = (aod_az + 180.0) % 360.0
    return aod_az, aoa_az

