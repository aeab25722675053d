"""Link-level simulator for indoor mmWave MU-MIMO-OFDM networks.

Synthesizes UL/DL channels, designs one-shot SVD hybrid beamformers, maps
the results to SINR and Shannon rates, evaluates a three-part delay model
with a multi-attribute QoS utility, and sweeps Es/N0 across antenna/RF-chain
codebooks under mean and min channel-gain scenarios.

The package root exports the library API: configure a sweep, run it, write
its CSV, or design one link. Everything else lives in the submodules.
"""

from .beamforming import Codebook, design_link
from .config import SweepConfig, config_from_dict, load_config
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InvalidInputError,
    ShapeError,
)
from .runner import SweepResult, run_sweep, write_results_csv

__version__ = "0.1.0"
