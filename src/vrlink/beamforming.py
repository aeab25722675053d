"""One-shot SVD hybrid beamforming.

The analog stages are shared across subcarriers and come from the SVD of
covariance sums, element-wise normalized to constant modulus. The digital
stages are per-subcarrier SVDs of the analog-reduced channel. Every link of a
group of codebooks is designed at once, on stacked ``(links, n_sc, rows,
cols)`` matrices with stacked ``@`` and one stacked SVD per stage. Codebooks
that differ only in n_rf share one pair of analog stages. The only loop sums
each link's covariance, one link at a time.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError
from .numerics import ensure_complex_stack, frobenius_norms, singular_values
from .numerics import svd, unit_modulus_normalize

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


def _covariance_beams(channels: np.ndarray, n_cols: int, receive_side: bool) -> np.ndarray:
    """Shared analog stage: SVD of a covariance sum, constant-modulus entries.

    channels is one link's (n_sc, n_rx, n_tx) stack or a stack of links
    (..., n_sc, n_rx, n_tx); the beams keep its leading link axes.
    """
    if channels.ndim < 3:
        raise ShapeError(f"expected (n_sc, n_rx, n_tx) channel stack, got shape {channels.shape}")
    if channels.shape[-3] < 1:
        raise InvalidInputError("need at least one subcarrier matrix")
    size = channels.shape[-2] if receive_side else channels.shape[-1]
    if n_cols > size:
        raise ShapeError(f"cannot take {n_cols} beams from {size} antennas")
    links = channels.reshape((-1,) + channels.shape[-3:])
    cov = np.empty((len(links), size, size), dtype=np.complex128)
    for k, h in enumerate(links):
        h_herm = np.conj(h).swapaxes(-1, -2)
        products = h @ h_herm if receive_side else h_herm @ h
        # running sum from zero in subcarrier order (see the numerics
        # docstring), in place and one link at a time so that only one
        # (n_sc, n, n) stack is held
        cov[k] = np.cumsum(products, axis=0, out=products)[-1] + 0.0
    beams = unit_modulus_normalize(svd(cov).left[..., :n_cols], 1.0 / math.sqrt(size))
    return beams.reshape(channels.shape[:-3] + beams.shape[-2:])


def analog_combiner(channels: np.ndarray, n_cols: int = 1) -> np.ndarray:
    """Receive-side analog stage from the SVD of sum_sc H H^H, entries 1/sqrt(Nr)."""
    return _covariance_beams(channels, n_cols, receive_side=True)


def analog_precoder(channels: np.ndarray, n_rf: int) -> np.ndarray:
    """Transmit-side analog stage from the SVD of sum_sc H^H H, entries 1/sqrt(Nt)."""
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
    return res.right[..., :n_ds], res.left[..., :n_ds]


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
    """Everything the link metrics need for a stack of L (user, AP) links:
    every array field has a leading link axis.

    digital_precoders are kept semi-unitary; power_scale carries the
    per-subcarrier amplitude that takes the composite transmit beam
    analog_precoder @ digital_precoder to the link's power budget.
    effective_channels are measured through unit-Frobenius-norm composite
    beams, so their singular values are directly comparable with the
    full-digital gain of the raw channel.
    """

    codebook: Codebook
    analog_precoder: np.ndarray     # (L, n_tx, n_rf), entry modulus 1/sqrt(n_tx)
    analog_combiner: np.ndarray     # (L, n_rx, n_ds), entry modulus 1/sqrt(n_rx)
    digital_precoders: np.ndarray   # (L, n_sc, n_rf, n_ds), semi-unitary
    digital_combiners: np.ndarray   # (L, n_sc, n_ds, n_ds)
    effective_channels: np.ndarray  # (L, n_sc, n_ds, n_ds)
    power_scale: np.ndarray         # (L, n_sc), watts^0.5 amplitudes

    def transmit_power(self):
        """Total transmit power per link, summed over streams and
        subcarriers: (L,)."""
        beams = self.power_scale[..., None, None] * (self.analog_precoder[..., None, :, :] @ self.digital_precoders)
        per_subcarrier = np.sum(np.abs(beams) ** 2, axis=(-2, -1))
        return np.cumsum(per_subcarrier, axis=-1)[..., -1]

    def effective_gain_per_subcarrier(self) -> np.ndarray:
        """Largest singular value of each effective channel (|h| for one
        stream): (L, n_sc)."""
        return singular_values(self.effective_channels)[..., 0]


def design_link(links: np.ndarray, codebooks: tuple, p_b: np.ndarray) -> tuple:
    """One-shot hybrid design for a stack of (user, AP) links.

    links: (L, n_sc, n_rx, n_tx), one channel stack per link. p_b: (L,), one
    transmit power budget per link, split equally across its subcarriers.
    codebooks: a tuple of codebooks that share (n_tx, n_rx, n_ds); returns
    one stacked solution per codebook, in tuple order. Neither covariance
    depends on n_rf, so the analog stages and the combiner side of the
    reduced channel are taken once, the precoder at the largest n_rf, and
    only the digital stage runs per codebook.
    """
    if not isinstance(codebooks, tuple) or len({(cb.n_tx, cb.n_rx, cb.n_ds) for cb in codebooks}) != 1:
        raise ShapeError(f"need a tuple of codebooks that share one (n_tx, n_rx, n_ds), got {codebooks!r}")
    links, budgets = np.asarray(links), np.asarray(p_b, dtype=float)
    if links.ndim != 4:
        raise ShapeError(f"expected (L, n_sc, n_rx, n_tx) stack, got shape {links.shape}")
    n_links, n_sc, n_rx, n_tx = links.shape
    if (n_rx, n_tx) != (codebooks[0].n_rx, codebooks[0].n_tx):
        raise ShapeError(
            f"channel shape {(n_rx, n_tx)} does not match codebook ({codebooks[0].n_rx}, {codebooks[0].n_tx})"
        )
    if budgets.shape != (n_links,):
        raise ShapeError(f"need one power budget per link, got shape {budgets.shape}")
    if not np.all(budgets > 0):
        raise InvalidInputError(f"power budget must be positive, got {p_b}")

    g_a = analog_combiner(links, codebooks[0].n_ds)
    p_widest = analog_precoder(links, max(cb.n_rf for cb in codebooks))
    # G^H @ H, the left product of every codebook's reduced channel G^H @ H @ P
    g_h = np.conj(g_a[:, None]).swapaxes(-1, -2) @ links
    solutions = []
    for cb in codebooks:
        # a contiguous slice: stacked @ on a strided operand may round differently
        p_a = np.ascontiguousarray(p_widest[..., :cb.n_rf])
        h_d = g_h @ p_a[:, None]
        d_pre, d_comb = hybrid_digital(h_d, cb.n_ds, cb.n_rf)

        # composite beams, unit Frobenius norm, so the effective gain is the
        # channel response to a unit-power beam and can never exceed the
        # leading singular value of the raw channel
        f = p_a[:, None] @ d_pre
        w = g_a[:, None] @ d_comb
        f_norm = frobenius_norms(f)
        w_norm = frobenius_norms(w)
        if np.any(f_norm == 0.0) or np.any(w_norm == 0.0):
            raise InvalidInputError("degenerate composite beam with zero norm")
        effective = effective_channel(w / w_norm[..., None, None], links, f / f_norm[..., None, None])
        solutions.append(BeamformingSolution(
            cb, p_a, g_a, np.ascontiguousarray(d_pre), np.ascontiguousarray(d_comb), effective,
            np.sqrt(budgets / n_sc)[:, None] / f_norm,  # equal split of the budget
        ))
    return tuple(solutions)
