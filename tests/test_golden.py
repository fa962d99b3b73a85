"""Behaviour lock: exact outputs of fixed (config, seed) cells.

For each cell the test pins the verbatim ``csv_row()``, a SHA-256 of
``to_dict()`` (JSON with sorted keys) and a SHA-256 of the JSONL trace,
written exactly as ``fallsim run --trace`` writes it. A refactor must leave
all three unchanged; regenerate them only for an intended change of
behaviour, and say why in CHANGES.md. ``python tests/test_golden.py`` prints
the current values.

The short cells cover both detector deployments at X = 0, 10 and 40
informal carers: s2 X=0 keeps the retry queue busy, s1 X=40 the carer walk.
The last cell is a full 10 000-tick s2 X=10 run with every other
parameter at its default.
"""
import hashlib
import json

import pytest

from fallsim.scenario import Scenario, ScenarioConfig, run_simulation

SHORT_TICKS = 2_000
S1, S2 = Scenario.SINGLE_DETECTOR, Scenario.DUAL_DETECTOR

CELLS = {
    "s1_x0": ScenarioConfig(scenario=S1, n_informal=0, ticks=SHORT_TICKS, seed=11),
    "s1_x10": ScenarioConfig(scenario=S1, n_informal=10, ticks=SHORT_TICKS, seed=12),
    "s1_x40": ScenarioConfig(scenario=S1, n_informal=40, ticks=SHORT_TICKS, seed=13),
    "s2_x0": ScenarioConfig(scenario=S2, n_informal=0, ticks=SHORT_TICKS, seed=14),
    "s2_x10": ScenarioConfig(scenario=S2, n_informal=10, ticks=SHORT_TICKS, seed=15),
    "s2_x40": ScenarioConfig(scenario=S2, n_informal=40, ticks=SHORT_TICKS, seed=16),
    "s2_x10_full": ScenarioConfig(scenario=S2, n_informal=10),
}

GOLDENS = {
    "s1_x0": {
        "csv_row": [
            "97", "23", "76", "55210", "0.0485", "0.0115", "0.5606", "0.00042",
            "76.76", "99.82", "7587", "0", "4765", "173", "0", "96", "75", "43.855",
            "27.543",
        ],
        "to_dict_sha256": "6b6e7a65ae55906c0559a2914b537619159e8b774dfb52f4eb2ffdd8a39ba12e",
        "trace_sha256": "25baa058fabf68a5781c8358b0bbb9e2d0f49d5df28c279da7c38bb3cac86c07",
    },
    "s1_x10": {
        "csv_row": [
            "119", "22", "72", "57907", "0.0595", "0.0110", "0.6230", "0.00038",
            "76.59", "99.79", "3159", "826", "830", "191", "184", "1", "71", "16.539",
            "4.346",
        ],
        "to_dict_sha256": "a272d42f326eac210f82e0302284ee5c8250e4b9dc9911091972dbc2680694ba",
        "trace_sha256": "b15f8cc702760896c742c612846ca05bfb0c936b804d26e15e69c8f82f98c802",
    },
    "s1_x40": {
        "csv_row": [
            "107", "25", "84", "58412", "0.0535", "0.0125", "0.5602", "0.00043",
            "77.06", "99.81", "2334", "480", "486", "191", "190", "0", "84", "12.220",
            "2.545",
        ],
        "to_dict_sha256": "8846b97df6c7fcca250df6d494e34cd2987073524cba050ac213821e359f942f",
        "trace_sha256": "b0dba41b03aa6d11b018336f8694f6982a88fe6958d7735a65ad674c72758ab7",
    },
    "s2_x0": {
        "csv_row": [
            "176", "3", "76", "45842", "0.0880", "0.0015", "0.6984", "0.00007",
            "96.20", "99.61", "9534", "0", "14151", "252", "0", "173", "75", "37.833",
            "56.155",
        ],
        "to_dict_sha256": "a36c9326e7f3c8805cec0864ec34cb08236b6658dda3a25bf70db131e0487f7a",
        "trace_sha256": "438945d277939ed6fbda27b184aa13e565bc9d83ad2767484a9b1b8f70f5cf91",
    },
    "s2_x10": {
        "csv_row": [
            "215", "4", "103", "56948", "0.1075", "0.0020", "0.6761", "0.00007",
            "96.26", "99.62", "4428", "1480", "1486", "318", "315", "2", "101",
            "13.925", "4.673",
        ],
        "to_dict_sha256": "b0042a5d29e1da704aee27819a8cac8cea6dc0b7222f1818c867979a820019c4",
        "trace_sha256": "4da131b08db4eb3407f5f423804ed931c186e6d26f997d639a3be33818365573",
    },
    "s2_x40": {
        "csv_row": [
            "204", "2", "97", "57263", "0.1020", "0.0010", "0.6777", "0.00003",
            "97.97", "99.64", "4236", "690", "703", "301", "301", "0", "95", "14.073",
            "2.336",
        ],
        "to_dict_sha256": "388588dc4a96425ea01e48b48206d117ee5ee7ce17806293fbf45544a5352669",
        "trace_sha256": "64464ef23b06c030adde2b727bc9bedc921d72689c1099ce1a3014ff99ee8d86",
    },
    "s2_x10_full": {
        "csv_row": [
            "1112", "21", "461", "285679", "0.1112", "0.0021", "0.7069", "0.00007",
            "95.64", "99.61", "20219", "7631", "7657", "1573", "1557", "10", "461",
            "12.854", "4.868",
        ],
        "to_dict_sha256": "53bff33495b4ea5a35bb367e160733bf6d75c19fc98afcd244aade84759c8fc9",
        "trace_sha256": "f13284ef1094081de2117d176a7f8938c1b7ceeba7539e884de2b33aa8a8d434",
    },
}


def observe(config: ScenarioConfig) -> dict:
    trace = hashlib.sha256()
    report = run_simulation(
        config, trace_sink=lambda record: trace.update((json.dumps(record) + "\n").encode())
    )
    return {
        "csv_row": report.csv_row(),
        "to_dict_sha256": hashlib.sha256(
            json.dumps(report.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "trace_sha256": trace.hexdigest(),
    }


@pytest.mark.parametrize("name", list(CELLS))
def test_outputs_match_golden(name):
    assert observe(CELLS[name]) == GOLDENS[name]


if __name__ == "__main__":
    print("GOLDENS = {")
    for name, config in CELLS.items():
        print(f"    {name!r}: {observe(config)!r},")
    print("}")
