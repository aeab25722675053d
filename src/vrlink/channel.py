"""Per-subcarrier channel synthesis.

UL links are scalar path-loss channels with a unit-modulus per-subcarrier
factor; DL links are rank-1 matrices built from free-space path loss, a
delay-tap decay sum, and ULA steering vectors at the departure/arrival
azimuths. ``path_gains`` computes each link's distance, UL path gain and
DL amplitude once; the DL is then synthesized once per link and codebook:
the steering vectors are shared, and each subcarrier scales the same
outer product by its own gain.
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
        # the wavelength, subcarrier bandwidth and tap spacing must be finite and positive
        if not (self.carrier_frequency > 0 and math.isfinite(self.wavelength)):
            raise ConfigurationError(f"carrier frequency must be positive, not tiny, got {self.carrier_frequency}")
        if not (self.subcarrier_bandwidth > 0 and math.isfinite(self.sample_period)):
            raise ConfigurationError(f"total bandwidth must be positive, not tiny, got {self.total_bandwidth}")

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
    # a tap delay past the float range decays to exp(-inf) = 0
    with np.errstate(over="ignore"):
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


def path_gains(topology: NetworkTopology, grid: SubcarrierGrid, w: float, tap_count: int, tap_spacing_s: float) -> tuple:
    """UL path gain d^-w and DL amplitude 10^(pg/10) * tap_sum of every link,
    each (U, B) in topology order.

    Scalar math per link, as the model states it: numpy's power and log10
    differ from these in the last bit on some inputs. A link whose distance
    is not a positive finite number, or whose gain leaves the float range,
    is a ConfigurationError naming the link.
    """
    ul = np.zeros((topology.n_users, topology.n_aps))
    dl = np.zeros_like(ul)
    for i, user in enumerate(topology.users):
        for j, ap in enumerate(topology.aps):
            d = math.inf  # a distance that overflows while it is formed
            try:
                d = distance(ap, user)
                ul[i, j] = d ** (-w)
                tau = d / SPEED_OF_LIGHT
                dl[i, j] = 10.0 ** (fspl_db(d, grid.wavelength) / 10.0) * tap_decay_sum(tau, tap_count, tap_spacing_s)
            except (ArithmeticError, ValueError):
                dl[i, j] = math.nan
            if not (0.0 < d < math.inf and math.isfinite(dl[i, j])):
                raise ConfigurationError(f"user {i} / AP {j}: distance {d:.6g} m gives no finite path gain")
    return ul, dl


def dl_link_channels(tx: Position3D, rx: Position3D, amp: float, gains: np.ndarray, n_tx: int, n_rx: int) -> np.ndarray:
    """Rank-1 DL matrices (n_sc, n_rx, n_tx) of one link, one per entry of gains.

    H_n = amp * gains[n] * a_rx(aoa) a_tx(aod)^H, with amp the link's
    ``path_gains`` amplitude. The angles and steering vectors belong to the
    link, so only the gain varies across subcarriers.
    """
    aod_az, aoa_az = departure_arrival_angles(tx, rx)
    a_tx = steering_vector(n_tx, aod_az)
    a_rx = steering_vector(n_rx, aoa_az)
    return (amp * np.asarray(gains))[:, None, None] * np.outer(a_rx, a_tx.conj())


@dataclass(frozen=True)
class DlChannelSet:
    """DL matrices for every (user, AP) link and subcarrier."""

    matrices: np.ndarray  # complex, shape (U, B, n_sc, n_rx, n_tx); [i, j] is one link's stack


def synthesize_ul(path_gain: np.ndarray, n_sc: int, mode: str = "deterministic", rng=None) -> np.ndarray:
    """UL scalar coefficients (U, B, n_sc) from the (U, B) ``path_gains``:
    every entry of a link has modulus d^-w."""
    coeffs = np.zeros(path_gain.shape + (n_sc,), dtype=complex)
    for i, j in np.ndindex(path_gain.shape):
        coeffs[i, j] = subcarrier_gains(n_sc, mode, rng) * path_gain[i, j]
    return coeffs


def synthesize_dl(
    topology: NetworkTopology,
    amplitude: np.ndarray,
    n_sc: int,
    n_tx: int,
    n_rx: int,
    mode: str = "deterministic",
    rng=None,
) -> DlChannelSet:
    """DL matrices for every (user, AP) pair, all subcarriers, from the
    (U, B) ``path_gains`` amplitudes."""
    mats = np.zeros(amplitude.shape + (n_sc, n_rx, n_tx), dtype=complex)
    for i, user in enumerate(topology.users):
        for j, ap in enumerate(topology.aps):
            gains = subcarrier_gains(n_sc, mode, rng)
            mats[i, j] = dl_link_channels(ap, user, amplitude[i, j], gains, n_tx, n_rx)
    return DlChannelSet(matrices=mats)
