"""The benchmark's workloads: which config each sweep resolves, and the
output each one must reproduce.

A workload seed reaches the program only as the ``seed`` config key. Why
each workload exists is stated in BENCHMARK.json and README.md.
"""

from dataclasses import dataclass, field

DEFAULT_CONF = "configs/indoor_default.conf"
DENSE_CONF = "perfbench/configs/dense_gaussian.conf"


@dataclass(frozen=True)
class Workload:
    name: str
    conf: str                # config file, relative to the repository root
    overrides: dict          # keys applied on top of the file, before the seed
    records: int             # CSV rows: scenarios x codebooks x Es/N0 points x U x B
    # sha256 of results.csv per seed; key None pins every seed, which holds
    # where the seed feeds nothing (deterministic gains, fixed positions)
    csv_sha256: dict = field(default_factory=dict)
    # compare the library CSV with what `vrlink simulate` writes
    cli_check: bool = False

    def resolve_overrides(self, seed: int) -> dict:
        return {**self.overrides, "seed": seed}

    def pinned_sha256(self, seed: int):
        return self.csv_sha256.get(None, self.csv_sha256.get(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_sweep",
            conf=DEFAULT_CONF,
            overrides={},
            records=1008,
            csv_sha256={None: "1402f083029906b65cd6e8488434a9c819821cff8e8e89986ad210d6b3a764f4"},
            cli_check=True,
        ),
        Workload(
            name="wideband_point",
            conf=DEFAULT_CONF,
            overrides={"n_sc": 1024, "esn0_start": 10, "esn0_stop": 10},
            records=48,
            csv_sha256={None: "796441ded2d9a36544de9ce6e4903453eecc704c202d6cc8331b0aa583380d5f"},
        ),
        Workload(
            name="dense_gaussian",
            conf=DENSE_CONF,
            overrides={},
            records=1920,
            csv_sha256={1: "59e75d74a01c3972ab78f92961dad422143e324facc8513ff42173eba026eb7e"},
        ),
    )
}
