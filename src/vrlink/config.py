"""Flat key = value config parsing and the sweep configuration object.

Keys mirror the simulation parameter names (fc, w, n_sc, n_t, n_rf, ...).
``KEYS`` holds one row per key: its parser, default and bound.
``config_from_dict`` resolves every key in one pass over the rows, and
``SweepConfig`` checks the bounds again for a config made by
``dataclasses.replace``. Unknown keys are rejected so typos surface as
configuration errors instead of silently running defaults.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .beamforming import Codebook, covariance_block
from .channel import GAIN_MODES, SubcarrierGrid, path_gains
from .errors import ConfigurationError
from .linkmetrics import GainAggregation, noise_power
from .numerics import FACTOR_TOL
from .qos import TrafficModel
from .topology import IndoorArea, NetworkTopology, Position3D

# queue-rate presets: the same digits under opposite unit conventions,
# mu/lambda = 4e-9/2e-9 (mean wait 5e8 s) or 4e9/2e9 (mean wait 5e-10 s)
QUEUE_UNIT_PRESETS = {
    "paper": (4e-9, 2e-9),
    "reciprocal": (4e9, 2e9),
}

# size caps: the sweep allocates arrays in proportion to both
MAX_N_SC = 8192
MAX_ESN0_POINTS = 1001
# allocation budget: one design block's DL channel stacks and stacked
# digital stage, plus the analog stages' covariance stacks, plus one evaluation
# block's cells at CELL_BYTES each (a cell's UL SINR, rate, delays and
# utilities with their temporaries), plus the rows, at RECORD_BYTES each (a
# row at the sweep's peak), plus one link's delay taps at TAP_BYTES each (a
# tap and its temporaries)
MAX_SWEEP_BYTES = 1 << 30
CELL_BYTES = 128
RECORD_BYTES = 1024
TAP_BYTES = 32
# Es/N0 points per evaluation block: as many as keep the block's UL arrays
# under this many (point, user, AP, subcarrier) cells, at least one
BLOCK_CELLS = 1 << 18
# codebook groups per design block: as many consecutive groups as keep the
# block's (group, link, subcarrier) cells at or under this many, at least one.
# Fewer design calls save more time than larger stacks cost: at 8192 the
# benchmark's dense_gaussian sweep (3 groups of 32 x 64 cells) is one block.
# 16384 would also merge wideband_point's third group (4 x 1024 cells), and
# the traced peak of that sweep rises from 2.34 to 3.68 MB
DESIGN_CELLS = 1 << 13

DEFAULT_AP_POSITIONS = (Position3D(2.5, 4.0, 3.0), Position3D(7.5, 13.0, 3.0))
DEFAULT_USER_POSITIONS = (Position3D(3.0, 6.0, 1.5), Position3D(6.5, 11.0, 1.5))

def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; # starts a comment; blank lines ignored."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigurationError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in data:
            raise ConfigurationError(f"config line {lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def _number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as e:
        raise ConfigurationError(f"key {key!r}: cannot parse {text!r} as a number") from e
    if not math.isfinite(value):
        raise ConfigurationError(f"key {key!r}: expected a finite number, got {text!r}")
    return value


def _integer(key: str, text: str) -> int:
    """A finite number equal to an integer, so 2.0 and 1e1 are; an integer literal keeps every digit."""
    v = _number(key, text)
    if v != int(v):
        raise ConfigurationError(f"key {key!r}: expected an integer, got {v}")
    return int(text) if text.lstrip("+-").isdecimal() else int(v)


def _int_list(key: str, text: str) -> tuple:
    return tuple(_integer(key, part) for part in text.replace(",", " ").split())


def _range(key: str, text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigurationError(f"key {key!r}: expected two numbers, got {text!r}")
    return _number(key, parts[0]), _number(key, parts[1])


def _positions(key: str, text: str) -> tuple:
    """Semicolon-separated triples: `x,y,z ; x,y,z ; ...`."""
    triples = []
    for chunk in text.split(";"):
        parts = chunk.replace(",", " ").split()
        if len(parts) != 3:
            raise ConfigurationError(f"key {key!r}: expected x,y,z triples, got {chunk!r}")
        triples.append(Position3D(*(_number(key, p) for p in parts)))
    return tuple(triples)


def _word(key: str, text: str) -> str:
    return text.strip().lower()


def parse_scenarios(text: str) -> tuple:
    """'mean', 'min', 'both', or a comma list of modes in the given order."""
    text = text.strip().lower()
    if text == "both":
        return (GainAggregation.MEAN, GainAggregation.MIN)
    out = []
    for part in text.replace(",", " ").split():
        try:
            out.append(GainAggregation(part))
        except ValueError as e:
            raise ConfigurationError(f"unknown scenario {part!r}, expected mean, min, or both") from e
    return tuple(out)


def esn0_grid(start: float, step: float, stop: float) -> np.ndarray:
    """Inclusive dB grid from start to stop."""
    if not step > 0:
        raise ConfigurationError(f"esn0 step must be positive, got {step}")
    if stop < start:
        raise ConfigurationError(f"esn0 stop {stop} lies below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_ESN0_POINTS:
        raise ConfigurationError(f"esn0 grid has more than {MAX_ESN0_POINTS} points")
    count = int(math.floor(span)) + 1
    return start + step * np.arange(count)


def parse_esn0_range(text: str) -> tuple:
    """CLI grid shorthand start:step:stop."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected start:step:stop, got {text!r}")
    return tuple(_number("esn0", p) for p in parts)


def sweep_bytes(links: int, n_sc: int, codebooks, scenarios: int, points: int, tap_count: int) -> int:
    """One design block's DL channel stacks and stacked digital stage, the
    largest covariance stacks, one evaluation block of ``points`` Es/N0
    points, the rows and one link's delay taps."""
    k = min(len({(cb.n_tx, cb.n_rx, cb.n_ds) for cb in codebooks}), max(1, DESIGN_CELLS // (links * n_sc)))
    dl = k * max((links * n_sc * cb.n_rx * cb.n_tx * 16 for cb in codebooks), default=0)
    # an analog stage of n antennas holds the (n_sc, n, n) products of one
    # covariance_block of links and every link's (n, n) sum, then the sums
    # and five factor stacks of the same shape in their SVD
    covariance = max((max(covariance_block(links, n_sc, n) * n_sc + links, 6 * links) * n * n * 16
                      for cb in codebooks for n in (cb.n_tx, cb.n_rx)), default=0)
    # the digital stage forms, per link and subcarrier of each of the k
    # groups, the reduced channels G^H H and G^H H P, the SVD factors of
    # G^H H P (one stack per shape) and the composite beams; its SVD and the
    # effective channels hold about three copies of each at once. A one-row
    # G^H H P (n_ds = 1) has no n_rf x n_rf factor: its SVD is the reduced one
    digital = k * max((links * n_sc * 3 * (cb.n_rf ** 2 * (cb.n_ds > 1) + cb.n_ds ** 2
                                           + cb.n_ds * (cb.n_tx + cb.n_rf + cb.n_rx)) * 16
                       for cb in codebooks), default=0)
    cells = min(points, max(1, BLOCK_CELLS // (links * n_sc))) * links * n_sc
    records = scenarios * len(codebooks) * points * links
    return dl + covariance + digital + cells * CELL_BYTES + records * RECORD_BYTES + tap_count * TAP_BYTES


def check_budget(nbytes: int) -> None:
    if nbytes > MAX_SWEEP_BYTES:
        raise ConfigurationError(f"sweep needs about {nbytes} bytes, over the {MAX_SWEEP_BYTES}-byte budget")


def check_bound(key: str, value, bound) -> None:
    if bound is not None and not bound[0](value):
        raise ConfigurationError(f"{key} must be {bound[1]}, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs, fully resolved and validated."""

    topology: NetworkTopology
    grid: SubcarrierGrid
    codebooks: tuple               # of Codebook
    esn0_db: np.ndarray            # strictly increasing dB grid
    scenarios: tuple               # of GainAggregation
    traffic: TrafficModel
    w: float                       # path-loss exponent
    r_min: float                   # minimum DL rate per link, bits/s
    v_j: int                       # user capacity per AP
    seed: int
    tap_count: int
    tap_spacing: float             # delay-tap spacing, s
    epsilon0: float                # tracking-error scale, meters
    gain_mode: str                 # deterministic | gaussian
    mode_bin: float                # delay bin for the mode statistic, s
    p_b: float                     # AP transmit power budget, W; also the Es/N0 anchor power
    p_u: float                     # UL transmit power per user, W
    gamma_d: float                 # delay tolerance per user, s
    # worked out by __post_init__, for the sweep to read: (U, B) UL path
    # gains and DL amplitudes (``path_gains``), one noise power per Es/N0 point
    ul_gain: tuple = field(init=False, repr=False)
    dl_amplitude: tuple = field(init=False, repr=False)
    noise: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # row order: scenarios by name, codebooks by (n_tx, n_rf), each once
        object.__setattr__(self, "scenarios", tuple(sorted(set(self.scenarios), key=lambda s: s.value)))
        codebooks = sorted(dict.fromkeys(self.codebooks), key=lambda cb: (cb.n_tx, cb.n_rf))
        object.__setattr__(self, "codebooks", tuple(codebooks))
        if len(self.esn0_db) == 0:
            raise ConfigurationError("empty Es/N0 grid")
        if np.any(np.diff(self.esn0_db) <= 0):
            raise ConfigurationError("Es/N0 grid must be strictly increasing")
        if not self.scenarios:
            raise ConfigurationError("empty scenario list")
        if not self.codebooks:
            raise ConfigurationError("empty codebook list")
        for key, (_, _, bound) in KEYS.items():  # in table order, so the first bad key is the one named
            if key in self.__dataclass_fields__:
                check_bound(key, getattr(self, key), bound)
        # the power check scales p_b by 1 + FACTOR_TOL; a rate is at most
        # bw * log2(1 + SINR) <= bw * 1024 for a finite SINR, and twice that
        # leaves room for a sum of rates over the subcarriers to round up
        if not math.isfinite(self.p_b * (1.0 + FACTOR_TOL)):
            raise ConfigurationError(f"p_b leaves the float range with the power check's tolerance, got {self.p_b}")
        if not math.isfinite(self.grid.total_bandwidth * 2048.0):
            raise ConfigurationError(f"bw_total gives rates past the float range, got {self.grid.total_bandwidth}")
        try:  # the sweep's noise power at every grid point
            noise = [noise_power(e, self.p_b) for e in self.esn0_db.tolist()]
        except ArithmeticError:  # 10^(esn0/10) overflows, or underflows to 0
            noise = [0.0]
        if not 0 < min(noise) <= max(noise) < math.inf:
            grid = f"{self.esn0_db[0]:g}..{self.esn0_db[-1]:g} dB"
            raise ConfigurationError(f"noise power p_b / 10^(esn0/10) leaves the positive float range on Es/N0 {grid}")
        check_budget(self.estimated_bytes)
        ul, dl = path_gains(self.topology, self.grid, self.w, self.tap_count, self.tap_spacing)
        object.__setattr__(self, "ul_gain", tuple(map(tuple, ul.tolist())))
        object.__setattr__(self, "dl_amplitude", tuple(map(tuple, dl.tolist())))
        object.__setattr__(self, "noise", tuple(noise))

    @property
    def expected_records(self) -> int:
        links = self.topology.n_users * self.topology.n_aps
        return len(self.scenarios) * len(self.codebooks) * len(self.esn0_db) * links

    @property
    def estimated_bytes(self) -> int:
        """``sweep_bytes`` of this sweep."""
        links = self.topology.n_users * self.topology.n_aps
        return sweep_bytes(links, self.grid.n_sc, self.codebooks, len(self.scenarios), len(self.esn0_db),
                           self.tap_count)

    @property
    def base_cells(self) -> tuple:
        """Home AP per user: round-robin over the AP list."""
        return tuple(i % self.topology.n_aps for i in range(self.topology.n_users))


@dataclass(frozen=True)
class Derived:
    """A default worked out from the keys above it, with the words that say
    how: a bound the worked-out value fails names the keys it came from."""

    words: str
    rule: Callable

    def __call__(self, c: dict):
        return self.rule(c)


# every config key, in the order it is resolved: its parser, called as
# parser(key, text); its default, a value or a Derived of the keys above it,
# taken when the key is absent or parses to None (the positions stay None for
# config_from_dict to place; a tap_spacing of 0 is one sample of bw_total);
# and its bound, None or a test of the value with the words that name it
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
KEYS = {
    "fc": (_number, 60e9, None),
    "w": (_number, 3.2, POSITIVE),
    "n_sc": (_integer, 64, (lambda v: 1 <= v <= MAX_N_SC, f"between 1 and {MAX_N_SC}")),
    "bw_total": (_number, 2.16e9, POSITIVE),  # tap_spacing divides by it
    "n_t": (_int_list, (2, 4, 8), None),
    "n_rf": (_int_list, (1, 2), None),
    "n_r": (_integer, 1, None),
    "n_ds": (_integer, 1, None),
    "b": (_integer, 2, AT_LEAST_1),
    "u": (_integer, 2, AT_LEAST_1),
    "p_b": (_number, 10e-3, POSITIVE),
    "p_u": (_number, Derived("p_b / u", lambda c: c["p_b"] / c["u"]), POSITIVE),
    "s_i": (_number, 512 * 24, None),
    "a_i": (_number, 6, None),
    "v": (_number, 5, None),
    "m_capacity": (_number, 1e9, None),
    "n_share": (_number, 2, None),
    "queue_units": (_word, "paper", (lambda v: v in QUEUE_UNIT_PRESETS, f"one of {sorted(QUEUE_UNIT_PRESETS)}")),
    "mu": (_number, Derived("the queue_units preset", lambda c: QUEUE_UNIT_PRESETS[c["queue_units"]][0]), None),
    "lambda": (_number, Derived("the queue_units preset", lambda c: QUEUE_UNIT_PRESETS[c["queue_units"]][1]), None),
    "gamma_d": (_number, 20e-3, POSITIVE),
    "r_min": (_number, 0.0, NON_NEGATIVE),
    "v_j": (_integer, Derived("u", lambda c: c["u"]), AT_LEAST_1),
    "epsilon0": (_number, 1.0, POSITIVE),
    "esn0_start": (_number, 0.0, None),
    "esn0_stop": (_number, 20.0, None),
    "esn0_step": (_number, 1.0, None),
    "scenario": (lambda key, text: parse_scenarios(text), (GainAggregation.MEAN, GainAggregation.MIN), None),
    "seed": (_integer, 1, NON_NEGATIVE),
    "tap_count": (_integer, 4, AT_LEAST_1),
    "tap_spacing": (lambda key, text: _number(key, text) or None,
                    Derived("1 / bw_total", lambda c: 1.0 / c["bw_total"]), POSITIVE),
    "gain_mode": (_word, "deterministic", (lambda v: v in GAIN_MODES, f"one of {sorted(GAIN_MODES)}")),
    "mode_bin": (_number, 1e-6, POSITIVE),
    "area_x": (_range, (0.0, 10.0), None),
    "area_y": (_range, (0.0, 17.0), None),
    "area_z": (_range, (0.0, 3.0), None),
    "ap_positions": (_positions, None, None),  # fixed when b is 2, else sampled from the seed
    "user_positions": (_positions, None, None),  # fixed when u is 2, else sampled from the seed
}


def config_from_dict(raw: dict) -> SweepConfig:
    """Resolve defaults, validate, and build the immutable sweep config."""
    unknown = set(raw) - set(KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    c = {key: parse(key, raw[key]) for key, (parse, _, _) in KEYS.items() if key in raw}
    for key, (_, default, bound) in KEYS.items():
        name = key
        if c.get(key) is None and callable(default):
            c[key], name = default(c), f"{key} (default {default.words})"
        elif c.get(key) is None:
            c[key] = default
        check_bound(name, c[key], bound)

    grid = SubcarrierGrid(n_sc=c["n_sc"], carrier_frequency=c["fc"], total_bandwidth=c["bw_total"])
    codebooks = tuple(Codebook(t, r, c["n_r"], c["n_ds"]) for t in set(c["n_t"]) for r in set(c["n_rf"]))
    traffic = TrafficModel(
        s_bits=c["s_i"],
        a_bits=c["a_i"],
        v_bits=c["v"],
        m_capacity=c["m_capacity"],
        n_share=c["n_share"],
        mu=c["mu"],
        lam=c["lambda"],
    )
    area = IndoorArea(x_range=c["area_x"], y_range=c["area_y"], z_range=c["area_z"])

    esn0 = esn0_grid(c["esn0_start"], c["esn0_step"], c["esn0_stop"])
    # before any per-node work: the sizes alone can exceed the budget
    check_budget(sweep_bytes(c["u"] * c["b"], c["n_sc"], codebooks, len(set(c["scenario"])), len(esn0), c["tap_count"]))

    # positions not given are fixed for a count of 2, else drawn from the seed
    for key, count, fixed, stream in (
        ("ap_positions", c["b"], DEFAULT_AP_POSITIONS, 2),
        ("user_positions", c["u"], DEFAULT_USER_POSITIONS, 3),
    ):
        if c[key] is None and count == len(fixed):
            c[key] = fixed
        elif c[key] is None:
            rng = np.random.default_rng([c["seed"], stream])
            c[key] = tuple(area.sample(rng) for _ in range(count))
        if len(c[key]) != count:
            raise ConfigurationError(f"expected {count} {key}, got {len(c[key])}")

    return SweepConfig(
        topology=NetworkTopology(area=area, aps=c["ap_positions"], users=c["user_positions"]),
        grid=grid,
        codebooks=codebooks,
        esn0_db=esn0,
        scenarios=c["scenario"],
        traffic=traffic,
        **{key: c[key] for key in KEYS if key in SweepConfig.__dataclass_fields__},
    )


def load_config(path: str, overrides: dict = None) -> SweepConfig:
    """Read, parse, and resolve a config file; overrides replace file keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise OSError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"config {path} is not UTF-8 text: {e}") from e
    raw = parse_config_text(text)
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)
