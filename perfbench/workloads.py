"""The benchmark's workloads: what one call runs and what it must produce.

A call goes through caprog's public API with one worker. caprog is
imported inside the methods, so the caller decides when the import
happens and can time it as set-up.

The sizes are far smaller than the pinned defaults (the default sweep
takes about two minutes): a call takes 2 to 3.5 seconds, so one timed run
holds 10 to 20 calls and its median is robust to short bursts of load on
the machine. Each workload keeps the layer balance of its full-size
counterpart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0


def sample_times(t_max: int) -> list[int]:
    """The default runtime grid, written out independently of caprog."""
    t_min = max(4, t_max // 8)
    stride = max(1, (t_max - t_min) // 15)
    return list(range(t_max, t_min - 1, -stride))


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]
    seeded: bool  # True when the inputs depend on --seed
    systems: int  # systems measured per call (the rule plus calibration rules)
    n: int  # family members
    t: int  # deepest runtime
    row_cells: int  # cells in one row (1-D) or one grid (2-D)

    @property
    def cells(self) -> int:
        """Space-time cells evolved by one call."""
        return self.systems * self.n * (self.t + 1) * self.row_cells

    def expected_counts(self) -> dict[str, int]:
        """Layer counts one call makes, derived from the workload's shape."""
        times = sample_times(self.t)
        evolutions = self.systems * self.n
        return {
            "engine.evolve_calls": evolutions,
            "engine.cells": self.cells,
            "complexity.compress_calls": evolutions * len(times),
            "complexity.bytes_in": evolutions
            * sum(-(-(t + 1) * self.row_cells // 8) for t in times),
        }


@dataclass(frozen=True)
class CliWorkload(Workload):
    argv: tuple[str, ...] = ()

    def prepare(self, seed: int):
        from caprog import cli  # noqa: F401 - imported here so set-up times it

        return list(self.argv)

    def call(self, argv, out_dir: str) -> None:
        from caprog import cli

        code = cli.main(argv + ["--out", out_dir])
        if code != 0:
            raise RuntimeError(f"caprog {argv[0]} exited with {code}")


@dataclass(frozen=True)
class CoeffWide(Workload):
    rule: int = 110

    def prepare(self, seed: int):
        from caprog import engine, enumeration

        rng = np.random.default_rng(seed)
        members = tuple(
            engine.Configuration(cells=(rng.random(self.row_cells) < 0.5).astype(np.uint8))
            for _ in range(self.n)
        )
        family = enumeration.InputFamily(members=members, scheme=enumeration.CUSTOM)
        return engine.rule_from_number(self.rule), family

    def call(self, inputs, out_dir: str) -> None:
        from dataclasses import asdict

        from caprog import coefficient, reportio

        rule, family = inputs
        res, curve = coefficient.measure(rule, family, self.t)
        files = {
            "coefficient.json": reportio.json_bytes(reportio.coefficient_json_obj(res, curve)),
            "curve.csv": reportio.curve_csv_bytes(curve),
        }
        reportio.write_outputs(out_dir, files, [self.name], asdict(res.params))


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            name="eca_sweep",
            artifacts=("sweep.csv", "sweep.json"),
            seeded=False,
            systems=256,
            n=3,
            t=64,
            row_cells=61,
            argv=("sweep", "--t", "64", "--n", "3", "--width", "61", "--workers", "1"),
        ),
        CoeffWide(
            name="coeff_wide",
            artifacts=("coefficient.json", "curve.csv"),
            seeded=True,
            systems=1,
            n=6,
            t=300,
            row_cells=4096,
        ),
        CliWorkload(
            name="life_coeff",
            artifacts=("coefficient.json", "curve.csv"),
            seeded=False,
            systems=3,
            n=20,
            t=120,
            row_cells=48 * 48,
            argv=("coeff", "--model", "life", "--gray-inputs", "20", "--height", "48",
                  "--width", "48", "--t", "120"),
        ),
    )
}
