"""Flat key = value config parsing and the sweep configuration object.

Keys mirror the simulation parameter names (fc, w, n_sc, n_t, n_rf, ...).
Unknown keys are rejected so typos surface as configuration errors instead
of silently running defaults.
"""

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import Codebook
from .channel import GAIN_MODES, SubcarrierGrid, path_gains
from .errors import ConfigurationError
from .linkmetrics import GainAggregation
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
# allocation budget: the largest DL channel stack plus the rows, at
# RECORD_BYTES each (a row at the sweep's peak),
# plus one link's delay taps at TAP_BYTES each (a tap and its temporaries)
MAX_SWEEP_BYTES = 1 << 30
RECORD_BYTES = 1024
TAP_BYTES = 32

DEFAULT_AP_POSITIONS = (Position3D(2.5, 4.0, 3.0), Position3D(7.5, 13.0, 3.0))
DEFAULT_USER_POSITIONS = (Position3D(3.0, 6.0, 1.5), Position3D(6.5, 11.0, 1.5))

KNOWN_KEYS = frozenset(
    {
        "fc", "w", "n_sc", "n_t", "n_rf", "n_r", "n_ds",
        "s_i", "a_i", "v", "b", "u",
        "p_b", "p_u", "mu", "lambda", "queue_units",
        "gamma_d", "r_min", "v_j",
        "esn0_start", "esn0_stop", "esn0_step",
        "scenario", "seed", "bw_total", "tap_count", "tap_spacing",
        "epsilon0", "m_capacity", "n_share",
        "gain_mode", "mode_bin",
        "area_x", "area_y", "area_z",
        "ap_positions", "user_positions",
    }
)


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
    """A finite number equal to an integer, so 2.0 and 1e1 are integers."""
    v = _number(key, text)
    if v != int(v):
        raise ConfigurationError(f"key {key!r}: expected an integer, got {v}")
    return int(v)


def _as_float(raw: dict, key: str, default: float) -> float:
    return _number(key, raw[key]) if key in raw else default


def _as_int(raw: dict, key: str, default: int) -> int:
    return _integer(key, raw[key]) if key in raw else default


def _as_int_list(raw: dict, key: str, default: tuple) -> tuple:
    if key not in raw:
        return default
    return tuple(_integer(key, part) for part in raw[key].replace(",", " ").split())


def _as_range(raw: dict, key: str, default: tuple) -> tuple:
    if key not in raw:
        return default
    parts = raw[key].replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigurationError(f"key {key!r}: expected two numbers, got {raw[key]!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as e:
        raise ConfigurationError(f"key {key!r}: cannot parse {raw[key]!r}") from e


def _as_positions(raw: dict, key: str):
    """Semicolon-separated triples: `x,y,z ; x,y,z ; ...`."""
    if key not in raw:
        return None
    triples = []
    for chunk in raw[key].split(";"):
        parts = chunk.replace(",", " ").split()
        if len(parts) != 3:
            raise ConfigurationError(f"key {key!r}: expected x,y,z triples, got {chunk!r}")
        try:
            triples.append(Position3D(*(float(p) for p in parts)))
        except ValueError as e:
            raise ConfigurationError(f"key {key!r}: cannot parse {chunk!r}") from e
    if not triples:
        raise ConfigurationError(f"key {key!r}: no positions given")
    return tuple(triples)


def parse_scenarios(text: str) -> tuple:
    """'mean', 'min', 'both', or a comma list of modes in the given order,
    each mode once."""
    text = text.strip().lower()
    if text == "both":
        return (GainAggregation.MEAN, GainAggregation.MIN)
    out = []
    for part in text.replace(",", " ").split():
        try:
            mode = GainAggregation(part)
        except ValueError as e:
            raise ConfigurationError(f"unknown scenario {part!r}, expected mean, min, or both") from e
        if mode not in out:
            out.append(mode)
    if not out:
        raise ConfigurationError("empty scenario list")
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
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError as e:
        raise ConfigurationError(f"cannot parse esn0 range {text!r}") from e
    return start, step, stop


def sweep_bytes(links: int, n_sc: int, codebooks, records: int, tap_count: int) -> int:
    """The largest complex DL channel stack over the codebooks, the rows
    and one link's delay taps."""
    dl = max((links * n_sc * cb.n_rx * cb.n_tx * 16 for cb in codebooks), default=0)
    return dl + records * RECORD_BYTES + tap_count * TAP_BYTES


def check_budget(nbytes: int) -> None:
    if nbytes > MAX_SWEEP_BYTES:
        raise ConfigurationError(f"sweep needs about {nbytes} bytes, over the {MAX_SWEEP_BYTES}-byte budget")


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
    tap_spacing_s: float           # delay-tap spacing, s
    epsilon0: float                # tracking-error scale, meters
    gain_mode: str                 # deterministic | gaussian
    mode_bin_s: float              # delay bin for the mode statistic
    p_b: float                     # AP transmit power budget, W; also the Es/N0 anchor power
    p_u: float                     # UL transmit power per user, W
    gamma_d: float                 # delay tolerance per user, s

    def __post_init__(self):
        if len(self.esn0_db) == 0:
            raise ConfigurationError("empty Es/N0 grid")
        if np.any(np.diff(self.esn0_db) <= 0):
            raise ConfigurationError("Es/N0 grid must be strictly increasing")
        if not self.scenarios:
            raise ConfigurationError("empty scenario list")
        if not self.codebooks:
            raise ConfigurationError("empty codebook list")
        if self.gain_mode not in GAIN_MODES:
            raise ConfigurationError(f"unknown gain mode {self.gain_mode!r}")
        if not self.mode_bin_s > 0:
            raise ConfigurationError(f"mode bin must be positive, got {self.mode_bin_s}")
        if not self.w > 0:
            raise ConfigurationError(f"path-loss exponent must be positive, got {self.w}")
        if self.r_min < 0:
            raise ConfigurationError(f"r_min must be non-negative, got {self.r_min}")
        if self.v_j < 1:
            raise ConfigurationError(f"v_j must be at least 1, got {self.v_j}")
        if self.tap_count < 1:
            raise ConfigurationError(f"tap count must be at least 1, got {self.tap_count}")
        for name in ("tap_spacing_s", "epsilon0", "p_b", "p_u", "gamma_d"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        check_budget(self.estimated_bytes)
        path_gains(self.topology, self.grid, self.w, self.tap_count, self.tap_spacing_s)

    @property
    def expected_records(self) -> int:
        links = self.topology.n_users * self.topology.n_aps
        return len(self.scenarios) * len(self.codebooks) * len(self.esn0_db) * links

    @property
    def estimated_bytes(self) -> int:
        """``sweep_bytes`` of this sweep."""
        links = self.topology.n_users * self.topology.n_aps
        return sweep_bytes(links, self.grid.n_sc, self.codebooks, self.expected_records, self.tap_count)

    @property
    def base_cells(self) -> tuple:
        """Home AP per user: round-robin over the AP list."""
        return tuple(i % self.topology.n_aps for i in range(self.topology.n_users))


def config_from_dict(raw: dict) -> SweepConfig:
    """Resolve defaults, validate, and build the immutable sweep config."""
    unknown = set(raw) - KNOWN_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")

    fc = _as_float(raw, "fc", 60e9)
    w = _as_float(raw, "w", 3.2)
    n_sc = _as_int(raw, "n_sc", 64)
    if n_sc > MAX_N_SC:
        raise ConfigurationError(f"n_sc must be at most {MAX_N_SC}, got {n_sc}")
    bw_total = _as_float(raw, "bw_total", 2.16e9)
    grid = SubcarrierGrid(n_sc=n_sc, carrier_frequency=fc, total_bandwidth=bw_total)

    n_t = _as_int_list(raw, "n_t", (2, 4, 8))
    n_rf = _as_int_list(raw, "n_rf", (1, 2))
    n_r = _as_int(raw, "n_r", 1)
    n_ds = _as_int(raw, "n_ds", 1)
    codebooks = tuple(Codebook(t, r, n_r, n_ds) for t in sorted(set(n_t)) for r in sorted(set(n_rf)))

    b = _as_int(raw, "b", 2)
    u = _as_int(raw, "u", 2)
    if b < 1 or u < 1:
        raise ConfigurationError(f"need at least one AP and one user, got b={b} u={u}")
    p_b = _as_float(raw, "p_b", 10e-3)

    queue_units = raw.get("queue_units", "paper").strip().lower()
    if queue_units not in QUEUE_UNIT_PRESETS:
        raise ConfigurationError(
            f"unknown queue_units {queue_units!r}, expected one of {sorted(QUEUE_UNIT_PRESETS)}"
        )
    mu_default, lam_default = QUEUE_UNIT_PRESETS[queue_units]
    mu = _as_float(raw, "mu", mu_default)
    lam = _as_float(raw, "lambda", lam_default)

    traffic = TrafficModel(
        s_bits=_as_float(raw, "s_i", 512 * 24),
        a_bits=_as_float(raw, "a_i", 6),
        v_bits=_as_float(raw, "v", 5),
        m_capacity=_as_float(raw, "m_capacity", 1e9),
        n_share=_as_float(raw, "n_share", 2),
        mu=mu,
        lam=lam,
    )

    area = IndoorArea(
        x_range=_as_range(raw, "area_x", (0.0, 10.0)),
        y_range=_as_range(raw, "area_y", (0.0, 17.0)),
        z_range=_as_range(raw, "area_z", (0.0, 3.0)),
    )

    seed = _as_int(raw, "seed", 1)
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")

    esn0 = esn0_grid(
        _as_float(raw, "esn0_start", 0.0), _as_float(raw, "esn0_step", 1.0), _as_float(raw, "esn0_stop", 20.0)
    )
    scenarios = parse_scenarios(raw.get("scenario", "both"))
    tap_count = _as_int(raw, "tap_count", 4)
    # before any per-node work: the sizes alone can exceed the budget
    records = len(scenarios) * len(codebooks) * len(esn0) * u * b
    check_budget(sweep_bytes(u * b, n_sc, codebooks, records, tap_count))

    ap_pos = _as_positions(raw, "ap_positions")
    user_pos = _as_positions(raw, "user_positions")
    if ap_pos is None:
        if b == len(DEFAULT_AP_POSITIONS):
            ap_pos = DEFAULT_AP_POSITIONS
        else:
            rng = np.random.default_rng([seed, 2])
            ap_pos = tuple(area.sample(rng) for _ in range(b))
    if user_pos is None:
        if u == len(DEFAULT_USER_POSITIONS):
            user_pos = DEFAULT_USER_POSITIONS
        else:
            rng = np.random.default_rng([seed, 3])
            user_pos = tuple(area.sample(rng) for _ in range(u))
    if len(ap_pos) != b:
        raise ConfigurationError(f"expected {b} AP positions, got {len(ap_pos)}")
    if len(user_pos) != u:
        raise ConfigurationError(f"expected {u} user positions, got {len(user_pos)}")

    return SweepConfig(
        topology=NetworkTopology(area=area, aps=ap_pos, users=user_pos),
        grid=grid,
        codebooks=codebooks,
        esn0_db=esn0,
        scenarios=scenarios,
        traffic=traffic,
        w=w,
        r_min=_as_float(raw, "r_min", 0.0),
        v_j=_as_int(raw, "v_j", u),
        seed=seed,
        tap_count=tap_count,
        # 0 means one sample of the total bandwidth
        tap_spacing_s=_as_float(raw, "tap_spacing", 0.0) or grid.sample_period,
        epsilon0=_as_float(raw, "epsilon0", 1.0),
        gain_mode=raw.get("gain_mode", "deterministic").strip().lower(),
        mode_bin_s=_as_float(raw, "mode_bin", 1e-6),
        p_b=p_b,
        p_u=_as_float(raw, "p_u", p_b / u),
        gamma_d=_as_float(raw, "gamma_d", 20e-3),
    )


def load_config(path: str, overrides: dict = None) -> SweepConfig:
    """Read, parse, and resolve a config file; overrides replace file keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise OSError(f"cannot read config {path}: {e}") from e
    raw = parse_config_text(text)
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)
