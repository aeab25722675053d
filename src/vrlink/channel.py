"""Per-subcarrier channel synthesis.

UL links are scalar path-loss channels with a unit-modulus per-subcarrier
factor; DL links are rank-1 matrices built from free-space path loss, a
delay-tap decay sum, and ULA steering vectors at the departure/arrival
azimuths. The DL is synthesized once per link: the link's geometry and
steering vectors are shared, and each subcarrier scales the same outer
product by its own gain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError, InvalidInputError
from .topology import NetworkTopology, Position3D, departure_arrival_angles, distance

SPEED_OF_LIGHT = 299_792_458.0  # m/s

GAIN_MODES = ("deterministic", "gaussian")


@dataclass(frozen=True)
class SubcarrierGrid:
    """OFDM frequency plan: subcarrier count, carrier, and total bandwidth."""

    n_sc: int
    carrier_frequency: float  # Hz
    total_bandwidth: float    # Hz

    def __post_init__(self):
        if self.n_sc < 1:
            raise ConfigurationError(f"n_sc must be >= 1, got {self.n_sc}")
        if not self.carrier_frequency > 0:
            raise ConfigurationError(f"carrier frequency must be positive, got {self.carrier_frequency}")
        if not self.total_bandwidth > 0:
            raise ConfigurationError(f"total bandwidth must be positive, got {self.total_bandwidth}")

    @property
    def subcarrier_bandwidth(self) -> float:
        return self.total_bandwidth / self.n_sc

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def sample_period(self) -> float:
        """Delay-tap spacing: one sample of the total-bandwidth waveform."""
        return 1.0 / self.total_bandwidth


def subcarrier_phase_ramp(n_sc: int) -> np.ndarray:
    """Unit-modulus factor per subcarrier, exp(j*n*pi/180) with n = 1..n_sc."""
    if n_sc < 1:
        raise InvalidInputError(f"n_sc must be >= 1, got {n_sc}")
    n = np.arange(1, n_sc + 1, dtype=float)
    return np.exp(1j * n * np.pi / 180.0)


def subcarrier_gains(n_sc: int, mode: str = "deterministic", rng=None) -> np.ndarray:
    """Per-subcarrier complex gain factors.

    deterministic reproduces the unit-modulus phase ramp; gaussian draws
    circularly-symmetric CN(0,1) samples from the supplied generator.
    """
    if mode == "deterministic":
        return subcarrier_phase_ramp(n_sc)
    if mode == "gaussian":
        if rng is None:
            raise ConfigurationError("gaussian gain mode needs a seeded generator")
        if n_sc < 1:
            raise InvalidInputError(f"n_sc must be >= 1, got {n_sc}")
        re = rng.standard_normal(n_sc)
        im = rng.standard_normal(n_sc)
        return (re + 1j * im) / math.sqrt(2.0)
    raise ConfigurationError(f"unknown gain mode {mode!r}, expected one of {GAIN_MODES}")


def ul_channel(d: float, w: float, ramp_n: complex) -> complex:
    """Single-subcarrier UL coefficient: per-subcarrier factor times d^-w."""
    if not d > 0:
        raise DegenerateGeometryError(f"distance must be positive, got {d}")
    if not w > 0:
        raise InvalidInputError(f"path-loss exponent must be positive, got {w}")
    return ramp_n * d ** (-w)


def fspl_db(d: float, wavelength: float) -> float:
    """Free-space path loss 20*log10(wavelength / (4*pi*d)) in dB."""
    if not d > 0:
        raise DegenerateGeometryError(f"distance must be positive, got {d}")
    if not wavelength > 0:
        raise InvalidInputError(f"wavelength must be positive, got {wavelength}")
    return 20.0 * math.log10(wavelength / (4.0 * math.pi * d))


def tap_decay_sum(tau_s: float, tap_count: int, tap_spacing_s: float) -> float:
    """Sum over taps k = 0..T-1 of exp(-(k*dt)/tau)."""
    if tap_count < 1:
        raise InvalidInputError(f"tap count must be >= 1, got {tap_count}")
    if not tau_s > 0:
        raise DegenerateGeometryError(f"propagation delay must be positive, got {tau_s}")
    if not tap_spacing_s > 0:
        raise InvalidInputError(f"tap spacing must be positive, got {tap_spacing_s}")
    k = np.arange(tap_count, dtype=float)
    return float(np.sum(np.exp(-(k * tap_spacing_s) / tau_s)))


def steering_vector(n_elements: int, azimuth_deg: float, spacing_over_wavelength: float = 0.5) -> np.ndarray:
    """ULA response, element k = (1/sqrt(N)) * exp(-j*k*2*pi*(d/lambda)*sin(az))."""
    if n_elements < 1:
        raise InvalidInputError(f"element count must be >= 1, got {n_elements}")
    if not spacing_over_wavelength > 0:
        raise InvalidInputError(f"spacing ratio must be positive, got {spacing_over_wavelength}")
    k = np.arange(n_elements, dtype=float)
    phase = -2.0 * np.pi * spacing_over_wavelength * math.sin(math.radians(azimuth_deg)) * k
    return np.exp(1j * phase) / math.sqrt(n_elements)


def dl_link_channels(
    tx: Position3D,
    rx: Position3D,
    gains: np.ndarray,
    n_tx: int,
    n_rx: int,
    grid: SubcarrierGrid,
    tap_count: int = 4,
    tap_spacing_s: float = None,
) -> np.ndarray:
    """Rank-1 DL matrices (n_sc, n_rx, n_tx) of one link, one per entry of gains.

    H_n = 10^(pg/10) * tap_sum * gains[n] * a_rx(aoa) a_tx(aod)^H. Distance,
    angles, path loss, tap sum and steering vectors belong to the link, so
    they are computed once and only the gain varies across subcarriers.
    """
    d = distance(tx, rx)
    if d <= 0.0:
        raise DegenerateGeometryError("transmitter and receiver coincide")
    aod_az, aoa_az = departure_arrival_angles(tx, rx)
    if tap_spacing_s is None:
        tap_spacing_s = grid.sample_period
    tau = d / SPEED_OF_LIGHT
    amp = 10.0 ** (fspl_db(d, grid.wavelength) / 10.0) * tap_decay_sum(tau, tap_count, tap_spacing_s)
    a_tx = steering_vector(n_tx, aod_az)
    a_rx = steering_vector(n_rx, aoa_az)
    return (amp * np.asarray(gains))[:, None, None] * np.outer(a_rx, a_tx.conj())


@dataclass(frozen=True)
class DlChannelSet:
    """DL matrices for every (user, AP) link and subcarrier."""

    matrices: np.ndarray  # complex, shape (U, B, n_sc, n_rx, n_tx); [i, j] is one link's stack


def synthesize_ul(
    topology: NetworkTopology,
    grid: SubcarrierGrid,
    w: float,
    mode: str = "deterministic",
    rng=None,
) -> np.ndarray:
    """UL scalar coefficients (U, B, n_sc), indexed [user, ap, subcarrier] in
    topology order; every entry of a link has modulus d^-w."""
    coeffs = np.zeros((topology.n_users, topology.n_aps, grid.n_sc), dtype=complex)
    for i, user in enumerate(topology.users):
        for j, ap in enumerate(topology.aps):
            gains = subcarrier_gains(grid.n_sc, mode, rng)
            d = distance(user.position, ap.position)
            if d <= 0.0:
                raise DegenerateGeometryError(
                    f"user {user.user_id} and AP {ap.ap_id} coincide"
                )
            coeffs[i, j] = gains * d ** (-w)
    return coeffs


def synthesize_dl(
    topology: NetworkTopology,
    grid: SubcarrierGrid,
    n_tx: int,
    n_rx: int,
    tap_count: int = 4,
    tap_spacing_s: float = None,
    mode: str = "deterministic",
    rng=None,
) -> DlChannelSet:
    """DL matrices for every (user, AP) pair, all subcarriers."""
    u, b = topology.n_users, topology.n_aps
    mats = np.zeros((u, b, grid.n_sc, n_rx, n_tx), dtype=complex)
    for i, user in enumerate(topology.users):
        for j, ap in enumerate(topology.aps):
            mats[i, j] = dl_link_channels(
                ap.position,
                user.position,
                subcarrier_gains(grid.n_sc, mode, rng),
                n_tx,
                n_rx,
                grid,
                tap_count=tap_count,
                tap_spacing_s=tap_spacing_s,
            )
    return DlChannelSet(matrices=mats)
