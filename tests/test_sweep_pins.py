"""Pinned bytes of the sweep layer: derived seeds and the three output files.

The goldens, the lock corpus and perfbench's pins cover single runs only.
These literals pin what a sweep adds on top: the per-cell seed derivation,
the raw and aggregate CSVs, and the JSON summary. A change to any of them is
a change to every sweep's output and must be made on purpose.
"""
import hashlib

import pytest

from fallsim.scenario import Scenario, ScenarioConfig
from fallsim.sweep import SweepSpec, derive_seed, run_sweep, write_outputs


@pytest.mark.parametrize(
    "base_seed, scenario, x_index, replication, seed",
    [
        (0, Scenario.SINGLE_DETECTOR, 0, 0, 14363863832335979830),
        (7, Scenario.DUAL_DETECTOR, 3, 9, 6659245007175651716),
        (2015, Scenario.SINGLE_DETECTOR, 8, 1, 1092240029851247070),
    ],
)
def test_derived_seeds_are_pinned(base_seed, scenario, x_index, replication, seed):
    assert derive_seed(base_seed, scenario, x_index, replication) == seed


#: Two tiny sweeps. "s2" has two replications per x, so its std column holds
#: non-zero values; every one of them is rounded alike by the pstdev of
#: Python 3.10 and by the correctly rounded one of 3.11 and later. "no_falls"
#: never falls, so its undefined sensitivity cells are written empty.
SWEEPS = {
    "s2": (
        SweepSpec(
            scenario=Scenario.DUAL_DETECTOR,
            x_values=(0, 5),
            replications=2,
            base_config=ScenarioConfig(ticks=300),
        ),
        {
            "raw": "3bd666b249e55524662183a2f8f8fe77b5da6067920d0577cc2b631d4fada103",
            "aggregate": "cb8497fb576de0b6aa752a78cb34c2ddfb3bd67635ceae7437914a618c9b096d",
            "summary": "64b0a9e0e55f8bfb5341aad6eb568be5267482f0a36d35dd156ef1f57311156e",
        },
    ),
    "no_falls": (
        SweepSpec(
            scenario=Scenario.SINGLE_DETECTOR,
            x_values=(0, 5),
            replications=2,
            base_config=ScenarioConfig(ticks=300, p_fall=0.0),
        ),
        {
            "raw": "218d5b1c09f8c42b360a5326e62bb9e79eca292fa9f28d90e2265f5fc9b574c2",
            "aggregate": "ec9bd070b182e942b872ecdf31a4bd2b202965843eaa0eee3c8a7c4585faee85",
            "summary": "7bfe0ee2bbfbb580c8aa1b4e6586c0bc6b7db152e212cd47e8b9084eed5fb869",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_output_files_are_pinned(name, tmp_path):
    spec, digests = SWEEPS[name]
    paths = write_outputs(run_sweep(spec), tmp_path / name)
    assert {
        kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in paths.items()
    } == digests
