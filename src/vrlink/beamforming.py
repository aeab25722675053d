"""One-shot SVD hybrid beamforming.

The analog stages are shared across subcarriers and come from the SVD of
covariance sums, element-wise normalized to constant modulus. The digital
stages are per-subcarrier SVDs of the analog-reduced channel. Every link of a
block of codebook groups is designed at once, on stacked
``(links, n_sc, rows, cols)`` matrices with stacked ``@``: the codebooks of a
group differ only in n_rf and share one pair of analog stages, and each
reduced-channel shape takes one stacked digital SVD. The covariances are
summed over blocks of ``covariance_block(L, n_sc, n)`` links, so that the
``(n_sc, n, n)`` products held at once are no more than
``COVARIANCE_PRODUCTS`` entries (1 MiB), or one link's products; each sum
reads them once, in subcarrier order, as a one-link loop would, and keeps
no running sums where n >= 2. A 1x1 covariance (one user antenna, or one
AP antenna) has the constant beam 1; where no term of it can leave the
float range (see the numerics docstring) the stage forms no sum at all. Each SVD forms only the singular vectors the stage keeps. A solution
keeps what the sweep reads: the analog stages, the effective channels and the
transmit power of each subcarrier, summed from the composite beam
``analog @ digital`` while the design holds it.

A single-antenna user (n_rx = 1) has the analog combiner G = 1, so the
design skips every product by it: ``G^H H`` is ``H + 0.0`` and ``G d`` is
``d + 0.0``, which round as the products do. With n_rf >= 2 the digital
SVD is one-row, its left vector is exactly 1, and so is the composite
combiner ``w``: its norm and divide are skipped and the effective channel
is ``(H + 0.0) @ f``. The products that carry arithmetic, ``H P``, ``P d``,
``H f``, the n_tx x n_tx covariances and the norms of ``f``, are formed as
for any codebook, and every output keeps its bits.

What the design holds at once, beside the links and the analog stages: the
covariance products of one block of links, then every codebook's reduced
channel ``G^H H P`` (``G^H H`` goes once they are formed), then one shape at
a time its stacked digital SVD, and one codebook at a time its composite
beams (its digital factors go once these exist) and effective channels.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LinkError, ShapeError
from .numerics import ensure_complex_stack, frobenius_norms, row_sums, singular_values
from .numerics import svd, unit_modulus_normalize

_CODEBOOK_RE = re.compile(r"^(\d+)\s*[xA]\s*(\d+)R?$", re.IGNORECASE)
# complex entries of the (n_sc, n, n) covariance products summed at once
COVARIANCE_PRODUCTS = 1 << 16


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


def _subcarrier_sum(products: np.ndarray) -> np.ndarray:
    """Sum over the subcarrier axis of a C-contiguous (..., n_sc, n, n)
    stack, added from zero in subcarrier order like a Python loop over each
    link (see the numerics docstring).

    add.reduce adds in index order over the subcarrier axis of a stack with
    n >= 2, one link or a block of them; with n = 1 that axis is the inner
    loop and add.reduce adds pairwise, so there the running sum, in place,
    keeps the order.
    """
    if products.shape[-1] > 1:
        return np.add.reduce(products, axis=-3) + 0.0
    return np.cumsum(products, axis=-3, out=products)[..., -1, :, :] + 0.0


def covariance_block(links: int, n_sc: int, n: int) -> int:
    """Links per covariance block: as many as keep their (n_sc, n, n)
    products within COVARIANCE_PRODUCTS entries, at least one and at most
    all ``links``."""
    return min(links, max(1, COVARIANCE_PRODUCTS // (n_sc * n * n)))


def _sums_stay_finite(channels: np.ndarray) -> bool:
    """True when no 1x1 covariance term or sum of the stack can leave the
    float range: with peak the largest |re| or |im|, each product h conj(h)
    has parts of at most 2 peak^2, so every partial sum over the n_sc
    subcarriers of n_rx * n_tx products stays below 4 peak^2 n_sc n_rx n_tx."""
    parts = np.ravel(channels).view(np.float64)
    peak = max(float(np.max(parts)), -float(np.min(parts)))
    return peak * peak * 4.0 * math.prod(channels.shape[-3:]) < 1e300


def _covariance_beams(channels: np.ndarray, n_cols: int, receive_side: bool) -> np.ndarray:
    """Shared analog stage: SVD of a covariance sum, constant-modulus entries.

    channels is one link's (n_sc, n_rx, n_tx) stack or a stack of links
    (..., n_sc, n_rx, n_tx); the beams keep its leading link axes. A sum
    past the float range is a LinkError naming the first such link, counted
    in the C order of the leading axes.
    """
    size = channels.shape[-2] if receive_side else channels.shape[-1]
    if size == 1 and _sums_stay_finite(channels):
        return np.ones(channels.shape[:-3] + (1, 1), dtype=np.complex128)
    links = channels.reshape((-1,) + channels.shape[-3:])
    cov = np.empty((len(links), size, size), dtype=np.complex128)
    step = covariance_block(len(links), links.shape[1], size)
    # an overflowing product or sum is caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(links), step):
            h = links[k:k + step]
            h_herm = np.conj(h).swapaxes(-1, -2)
            cov[k:k + step] = _subcarrier_sum(h @ h_herm if receive_side else h_herm @ h)
    bad = ~np.isfinite(cov).all(axis=(-2, -1))
    if bad.any():
        raise LinkError(int(np.argmax(bad)), "DL channel covariance sum leaves the float range")
    if size == 1:  # the normalized leading vector of a 1x1 sum is exactly 1 (numerics docstring)
        return np.ones(channels.shape[:-3] + (1, 1), dtype=np.complex128)
    beams = unit_modulus_normalize(svd(cov, n_cols).left, 1.0 / math.sqrt(size))
    return beams.reshape(channels.shape[:-3] + beams.shape[-2:])


def analog_combiner(channels: np.ndarray, n_cols: int = 1) -> np.ndarray:
    """Receive-side analog stage from the SVD of sum_sc H H^H, entries 1/sqrt(Nr)."""
    return _covariance_beams(channels, n_cols, receive_side=True)


def analog_precoder(channels: np.ndarray, n_rf: int) -> np.ndarray:
    """Transmit-side analog stage from the SVD of sum_sc H^H H, entries 1/sqrt(Nt)."""
    return _covariance_beams(channels, n_rf, receive_side=False)


def hybrid_digital(h_d: np.ndarray, n_ds: int) -> tuple:
    """Per-subcarrier digital stage: SVD of the analog-reduced channel.

    h_d is the channel seen through the analog stages (rows: combiner
    outputs, columns: the n_rf RF chains), one matrix or a stack over
    subcarriers. Returns semi-unitary precoder (n_rf x n_ds) and combiner
    (rows x n_ds), stacked like h_d.
    """
    res = svd(h_d, n_ds)
    return res.right, res.left


def effective_channel(g: np.ndarray, h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Baseband channel through a combiner/precoder pair: G^H @ H @ P.

    Each operand is one matrix or a stack; stacks broadcast like ``@``.
    """
    return np.conj(g).swapaxes(-1, -2) @ h @ p


@dataclass(frozen=True)
class BeamformingSolution:
    """Everything the link metrics need for a stack of L (user, AP) links:
    every array field has a leading link axis.

    effective_channels are measured through unit-Frobenius-norm composite
    beams, so their singular values are directly comparable with the
    full-digital gain of the raw channel. subcarrier_power is the power of
    each subcarrier's composite beam analog @ digital, scaled to an equal
    share of the link's budget.
    """

    codebook: Codebook
    analog_precoder: np.ndarray     # (L, n_tx, n_rf), entry modulus 1/sqrt(n_tx)
    analog_combiner: np.ndarray     # (L, n_rx, n_ds), entry modulus 1/sqrt(n_rx)
    effective_channels: np.ndarray  # (L, n_sc, n_ds, n_ds)
    subcarrier_power: np.ndarray    # (L, n_sc), watts

    def transmit_power(self):
        """Total transmit power per link, summed over subcarriers: (L,)."""
        return np.cumsum(self.subcarrier_power, axis=-1)[..., -1]

    def effective_gain_per_subcarrier(self) -> np.ndarray:
        """Largest singular value of each effective channel (|h| for one
        stream): (L, n_sc)."""
        return singular_values(self.effective_channels)[..., 0]


def _solution(cb, links, g_a, p_a, cuts: list, budgets) -> BeamformingSolution:
    """A codebook's solution from its analog stages and the digital factors it
    pops off cuts, flat over (link, subcarrier), so that they go with its beams."""
    d_pre, d_comb = (d.reshape(links.shape[:2] + d.shape[-2:]) for d in cuts.pop(0))
    # composite beams, unit Frobenius norm, so the effective gain is the
    # channel response to a unit-power beam and can never exceed the
    # leading singular value of the raw channel
    f = p_a[:, None] @ d_pre
    # one user antenna: G d = (1 + 0j) d rounds as d + 0.0, and w = 1
    # where the digital SVD is one-row (n_rf >= 2): its left vector is 1
    unit_w = links.shape[2] == 1 < cb.n_rf
    if unit_w:
        w = None
    elif links.shape[2] == 1:
        w = d_comb + 0.0
    else:
        w = g_a[:, None] @ d_comb
    del d_pre, d_comb
    f_norm = frobenius_norms(f)
    w_norm = 1.0 if unit_w else frobenius_norms(w)
    if np.any(f_norm == 0.0) or np.any(w_norm == 0.0):
        raise InvalidInputError("degenerate composite beam with zero norm")
    scale = np.sqrt(budgets / links.shape[1])[:, None] / f_norm  # equal split of the budget
    power = np.abs(scale[..., None, None] * f).reshape(f.shape[:-2] + (-1,))
    power = row_sums(np.multiply(power, power, out=power))
    f /= f_norm[..., None, None]
    if unit_w:  # w^H H = G^H H = H + 0.0, formed again: held, it raises the peak
        eff = (links + 0.0) @ f
    else:
        w /= w_norm[..., None, None]
        eff = effective_channel(w, links, f)
    return BeamformingSolution(cb, p_a, g_a, eff, power)


def design_link(groups: tuple, p_b: np.ndarray) -> tuple:
    """One-shot hybrid design for a block of groups of (user, AP) links.

    groups: a tuple of (links, codebooks) pairs, each an (L, n_sc, n_rx,
    n_tx) stack of the same L links and a tuple of codebooks that share
    (n_tx, n_rx, n_ds). p_b: (L,), one power budget per link, split equally
    across its subcarriers. Returns one stacked solution per codebook, in
    group and then tuple order, each byte for byte its design alone: a
    group's analog stages are taken once, the precoder at its largest n_rf,
    and the reduced channels of one (n_ds, n_rf) shape from every group take
    one digital SVD, which works matrix by matrix. Links enter here and are
    checked once: finite, shaped for their codebooks, one positive budget
    each; the stages below check only for covariance sums past the float range.
    """
    if not isinstance(groups, tuple) or not groups or not all(isinstance(g, tuple) and len(g) == 2 for g in groups):
        raise ShapeError(f"need a non-empty tuple of (links, codebooks) pairs, got {type(groups).__name__}")
    budgets, checked = np.asarray(p_b, dtype=float), []
    for links, codebooks in groups:
        if not isinstance(codebooks, tuple) or len({(cb.n_tx, cb.n_rx, cb.n_ds) for cb in codebooks}) != 1:
            raise ShapeError(f"need a tuple of codebooks that share one (n_tx, n_rx, n_ds), got {codebooks!r}")
        links, (n_rx, n_tx) = ensure_complex_stack(links, "links"), (codebooks[0].n_rx, codebooks[0].n_tx)
        if links.ndim != 4 or links.shape[2:] != (n_rx, n_tx):
            raise ShapeError(f"expected an (L, n_sc, {n_rx}, {n_tx}) stack of links, got shape {links.shape}")
        if budgets.shape != links.shape[:1]:
            raise ShapeError(f"need one power budget per link, got shape {budgets.shape}")
        checked.append((links, codebooks))
    if not np.all(budgets > 0):
        raise InvalidInputError(f"power budget must be positive, got {p_b}")

    # per codebook [codebook, links, combiner, precoder, reduced channel], and
    # the codebooks of each reduced-channel shape (n_ds, n_rf)
    parts, stacks = [], {}
    for links, codebooks in checked:
        g_a = analog_combiner(links, codebooks[0].n_ds)
        p_widest = analog_precoder(links, max(cb.n_rf for cb in codebooks))
        # every codebook's reduced channel G^H @ H @ P from one G^H @ H, which
        # then goes: it is as large as the DL stack when n_ds = n_rx. One user
        # antenna has G = 1, and G^H H = (1 - 0j) H rounds as H + 0.0
        g_h = links + 0.0 if links.shape[2] == 1 else np.conj(g_a[:, None]).swapaxes(-1, -2) @ links
        for cb in codebooks:
            # a contiguous slice: stacked @ on a strided operand may round differently
            p_a = np.ascontiguousarray(p_widest[..., :cb.n_rf])
            stacks.setdefault((cb.n_ds, cb.n_rf), []).append(len(parts))
            parts.append([cb, links, g_a, p_a, g_h @ p_a[:, None]])
        del g_h
    solutions = [None] * len(parts)
    for shape, members in stacks.items():
        # popped: each reduced channel goes once it is in the stack
        stack = np.concatenate([parts[k].pop().reshape((-1,) + shape) for k in members])
        d_pre, d_comb = hybrid_digital(stack, shape[0])
        sizes = [parts[k][1].shape[0] * parts[k][1].shape[1] for k in members]
        cuts = [(d_pre[a:a + n], d_comb[a:a + n]) for a, n in zip(np.cumsum([0] + sizes).tolist(), sizes)]
        del stack, d_pre, d_comb  # the cuts alone hold the factors
        for k in members:
            solutions[k] = _solution(*parts[k], cuts, budgets)
    return tuple(solutions)
