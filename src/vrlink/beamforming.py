"""One-shot SVD hybrid beamforming.

Full-digital baselines come straight from the per-subcarrier SVD. The analog
stages are shared across subcarriers and come from the SVD of covariance sums,
element-wise normalized to constant modulus. The digital stages are
per-subcarrier SVDs of the analog-reduced channel, designed for all
subcarriers at once on the stacked ``(n_sc, rows, cols)`` matrices with
stacked ``@`` and one stacked SVD. No iteration anywhere.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError
from .numerics import ensure_complex_matrix, ensure_complex_stack, svd, unit_modulus_normalize

# antenna / RF-chain configurations evaluated by default
DEFAULT_CODEBOOK_PAIRS = ((2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2))

_CODEBOOK_RE = re.compile(r"^(\d+)\s*[xA]\s*(\d+)R?$", re.IGNORECASE)


@dataclass(frozen=True)
class Codebook:
    """Antenna/RF-chain configuration for one AP-user link."""

    n_tx: int       # AP antennas
    n_rf: int       # AP RF chains
    n_rx: int = 1   # user antennas
    n_ds: int = 1   # data streams per user

    def __post_init__(self):
        if not (1 <= self.n_ds <= self.n_rf <= self.n_tx):
            raise InvalidInputError(
                f"need 1 <= n_ds <= n_rf <= n_tx, got ds={self.n_ds} rf={self.n_rf} tx={self.n_tx}"
            )
        if not (1 <= self.n_ds <= self.n_rx):
            raise InvalidInputError(
                f"need 1 <= n_ds <= n_rx, got ds={self.n_ds} rx={self.n_rx}"
            )

    @property
    def label(self) -> str:
        """Short name like 2A1R (two antennas, one RF chain)."""
        return f"{self.n_tx}A{self.n_rf}R"

    @classmethod
    def from_string(cls, text: str, n_rx: int = 1, n_ds: int = 1) -> "Codebook":
        """Parse '4x2' or '4A2R' style labels."""
        m = _CODEBOOK_RE.match(text.strip())
        if not m:
            raise InvalidInputError(f"cannot parse codebook {text!r}, expected NTxNRF")
        return cls(n_tx=int(m.group(1)), n_rf=int(m.group(2)), n_rx=n_rx, n_ds=n_ds)


def default_codebooks(n_rx: int = 1, n_ds: int = 1) -> tuple:
    return tuple(Codebook(t, r, n_rx, n_ds) for t, r in DEFAULT_CODEBOOK_PAIRS)


def full_digital(h_sc: np.ndarray, n_ds: int) -> tuple:
    """Unconstrained per-subcarrier precoder/combiner from the channel SVD.

    The factor with as many rows as transmit antennas becomes the precoder,
    the receive-sided factor the combiner, so the sandwich
    combiner^H @ H @ precoder is the diagonal of leading singular values.
    """
    h = ensure_complex_matrix(h_sc, "h_sc")
    n_rx, n_tx = h.shape
    if n_ds > min(n_rx, n_tx):
        raise ShapeError(f"n_ds={n_ds} exceeds min channel dimension {min(n_rx, n_tx)}")
    res = svd(h)
    precoder = res.right[:, :n_ds]   # n_tx rows
    combiner = res.left[:, :n_ds]    # n_rx rows
    return precoder, combiner


def _covariance_beams(channels: np.ndarray, n_cols: int, receive_side: bool) -> np.ndarray:
    """Shared analog stage: SVD of a covariance sum, constant-modulus entries."""
    if channels.ndim != 3:
        raise ShapeError(f"expected (n_sc, n_rx, n_tx) channel stack, got shape {channels.shape}")
    if channels.shape[0] < 1:
        raise InvalidInputError("need at least one subcarrier matrix")
    h_herm = np.conj(channels).swapaxes(-1, -2)
    products = channels @ h_herm if receive_side else h_herm @ channels
    # running sum from zero in subcarrier order (see the numerics docstring),
    # in place so that only one (n_sc, n, n) stack is held
    cov = np.cumsum(products, axis=0, out=products)[-1] + 0.0
    res = svd(cov)
    beams = res.left[:, :n_cols]
    return unit_modulus_normalize(beams, 1.0 / math.sqrt(beams.shape[0]))


def analog_combiner(channels: np.ndarray, n_cols: int = 1) -> np.ndarray:
    """Receive-side analog stage from the SVD of sum_sc H H^H, entries 1/sqrt(Nr)."""
    n_rx = channels.shape[1]
    if n_cols > n_rx:
        raise ShapeError(f"cannot take {n_cols} combiner columns from {n_rx} antennas")
    return _covariance_beams(channels, n_cols, receive_side=True)


def analog_precoder(channels: np.ndarray, n_rf: int) -> np.ndarray:
    """Transmit-side analog stage from the SVD of sum_sc H^H H, entries 1/sqrt(Nt)."""
    n_tx = channels.shape[2]
    if n_rf > n_tx:
        raise ShapeError(f"cannot take {n_rf} RF chains from {n_tx} antennas")
    return _covariance_beams(channels, n_rf, receive_side=False)


def hybrid_digital(h_d: np.ndarray, n_ds: int, n_rf: int) -> tuple:
    """Per-subcarrier digital stage: SVD of the analog-reduced channel.

    h_d is the channel seen through the analog stages (rows: combiner
    outputs, columns: RF chains), one matrix or a stack over subcarriers.
    Returns semi-unitary precoder (n_rf x n_ds) and combiner (rows x n_ds),
    stacked like h_d.
    """
    h = ensure_complex_stack(h_d, "h_d")
    rows, cols = h.shape[-2:]
    if cols != n_rf:
        raise ShapeError(f"reduced channel has {cols} columns, expected n_rf={n_rf}")
    if n_ds > min(rows, cols):
        raise ShapeError(f"n_ds={n_ds} exceeds min reduced dimension {min(rows, cols)}")
    res = svd(h)
    precoder = res.right[..., :n_ds]
    combiner = res.left[..., :n_ds]
    return precoder, combiner


def effective_channel(g: np.ndarray, h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Baseband channel through a combiner/precoder pair: G^H @ H @ P.

    Each operand is one matrix or a stack; stacks broadcast like ``@``.
    """
    g = ensure_complex_stack(g, "g")
    h = ensure_complex_stack(h, "h")
    p = ensure_complex_stack(p, "p")
    if g.shape[-2] != h.shape[-2]:
        raise ShapeError(f"combiner rows {g.shape[-2]} != channel rows {h.shape[-2]}")
    if h.shape[-1] != p.shape[-2]:
        raise ShapeError(f"channel columns {h.shape[-1]} != precoder rows {p.shape[-2]}")
    return np.conj(g).swapaxes(-1, -2) @ h @ p


@dataclass(frozen=True)
class BeamformingSolution:
    """Everything the link metrics need for one (user, AP) pair.

    digital_precoders are kept semi-unitary; power_scale carries the
    per-subcarrier amplitude that takes the composite transmit beam
    analog_precoder @ digital_precoder to the link's power budget.
    effective_channels are measured through unit-Frobenius-norm composite
    beams, so their singular values are directly comparable with the
    full-digital gain of the raw channel.
    """

    codebook: Codebook
    analog_precoder: np.ndarray     # (n_tx, n_rf), entry modulus 1/sqrt(n_tx)
    analog_combiner: np.ndarray     # (n_rx, n_ds), entry modulus 1/sqrt(n_rx)
    digital_precoders: np.ndarray   # (n_sc, n_rf, n_ds), semi-unitary
    digital_combiners: np.ndarray   # (n_sc, n_ds, n_ds)
    effective_channels: np.ndarray  # (n_sc, n_ds, n_ds)
    power_scale: np.ndarray         # (n_sc,), watts^0.5 amplitudes

    @property
    def n_sc(self) -> int:
        return self.digital_precoders.shape[0]

    def transmit_power(self) -> float:
        """Total transmit power summed over streams and subcarriers."""
        beams = self.power_scale[:, None, None] * (self.analog_precoder @ self.digital_precoders)
        per_subcarrier = np.sum(np.abs(beams) ** 2, axis=(1, 2))
        return float(np.cumsum(per_subcarrier)[-1])

    def effective_gain_per_subcarrier(self) -> np.ndarray:
        """Largest singular value of each effective channel (|h| for one stream)."""
        return np.linalg.svd(self.effective_channels, compute_uv=False)[:, 0]


def design_link(channels: np.ndarray, codebook: Codebook, p_b: float) -> BeamformingSolution:
    """One-shot hybrid design for a single (user, AP) link.

    channels: (n_sc, n_rx, n_tx) stack. p_b: transmit power budget for this
    link, split equally across subcarriers.
    """
    if channels.ndim != 3:
        raise ShapeError(f"expected (n_sc, n_rx, n_tx) stack, got shape {channels.shape}")
    n_sc, n_rx, n_tx = channels.shape
    if (n_rx, n_tx) != (codebook.n_rx, codebook.n_tx):
        raise ShapeError(
            f"channel shape {(n_rx, n_tx)} does not match codebook ({codebook.n_rx}, {codebook.n_tx})"
        )
    if not p_b > 0:
        raise InvalidInputError(f"power budget must be positive, got {p_b}")

    g_a = analog_combiner(channels, codebook.n_ds)
    p_a = analog_precoder(channels, codebook.n_rf)
    d_pre, d_comb = hybrid_digital(effective_channel(g_a, channels, p_a), codebook.n_ds, codebook.n_rf)

    # composite beams, unit Frobenius norm, so the effective gain is the
    # channel response to a unit-power beam and can never exceed the
    # leading singular value of the raw channel; the norms stay per
    # subcarrier because a batched BLAS norm rounds differently
    f = p_a @ d_pre
    w = g_a @ d_comb
    f_norm = np.array([np.linalg.norm(x) for x in f])
    w_norm = np.array([np.linalg.norm(x) for x in w])
    if np.any(f_norm == 0.0) or np.any(w_norm == 0.0):
        raise InvalidInputError("degenerate composite beam with zero norm")
    effective = effective_channel(w / w_norm[:, None, None], channels, f / f_norm[:, None, None])

    return BeamformingSolution(
        codebook=codebook,
        analog_precoder=p_a,
        analog_combiner=g_a,
        digital_precoders=np.ascontiguousarray(d_pre),
        digital_combiners=np.ascontiguousarray(d_comb),
        effective_channels=effective,
        power_scale=math.sqrt(p_b / n_sc) / f_norm,  # equal split of the budget
    )
