"""Derived-metric formulas against the published reference tables.

The reference tables print percentages and rates truncated to the shown
precision and per-case figures rounded to three decimals. Each golden below
is one printed table cell; the raw counters come from the same column.
"""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fallsim.metrics import (
    CSV_COLUMNS,
    ConfusionCounters,
    CostLedger,
    MetricsReport,
    UndefinedMetricError,
    avg_per_tick,
    fmt_per_case,
    fmt_percent,
    fmt_rate,
    fn_rate,
    fn_rate_as_sensitivity_complement,
    fp_rate,
    fp_rate_as_specificity_complement,
    normalized_sc,
    normalized_wt,
    sensitivity,
    specificity,
    truncate,
)
from fallsim.world import AgentKind

# One column each of the two reference sweeps:
# (fp, fn, tp, tn, sum_sc_ma, sum_wt, cases).
S1 = {
    0: (299, 56, 195, 147313, 33720, 58617, 494),
    5: (320, 63, 212, 171175, 25928, 16981, 532),
    10: (330, 51, 227, 165171, 25230, 11943, 557),
    15: (335, 46, 228, 166988, 25062, 9815, 563),
    20: (357, 74, 221, 170681, 23951, 8451, 578),
    25: (342, 68, 224, 167515, 24333, 7980, 566),
    30: (311, 52, 232, 162385, 23541, 6565, 543),
    35: (344, 48, 238, 163097, 24619, 6545, 582),
    40: (340, 58, 230, 166825, 24102, 5969, 570),
}
S2 = {
    0: (418, 20, 178, 103699, 38819, 121316, 596),
    5: (603, 24, 235, 145952, 30249, 39364, 838),
    10: (631, 29, 245, 156918, 27141, 18986, 876),
    15: (629, 29, 257, 155168, 26829, 15229, 886),
    20: (663, 23, 255, 157907, 26054, 13965, 918),
    25: (654, 28, 239, 164355, 25832, 12160, 893),
    30: (661, 31, 256, 160108, 26026, 11113, 917),
    35: (651, 30, 255, 161965, 25296, 9628, 906),
    40: (667, 30, 256, 162078, 25116, 9707, 923),
}

SENSITIVITY_CELLS = {
    ("s1", 0): "77.68", ("s1", 5): "77.09", ("s1", 10): "81.65",
    ("s1", 15): "83.21", ("s1", 20): "74.91", ("s1", 25): "76.71",
    ("s1", 30): "81.69", ("s1", 35): "83.21", ("s1", 40): "79.86",
    ("s2", 0): "89.89", ("s2", 5): "90.73", ("s2", 10): "89.41",
    ("s2", 15): "89.86", ("s2", 20): "91.72", ("s2", 25): "89.51",
    ("s2", 30): "89.19", ("s2", 35): "89.47", ("s2", 40): "89.51",
}
SPECIFICITY_CELLS = {
    ("s1", 0): "99.79", ("s1", 5): "99.81", ("s1", 10): "99.8",
    ("s1", 15): "99.79", ("s1", 20): "99.79", ("s1", 25): "99.79",
    ("s1", 30): "99.8", ("s1", 35): "99.78", ("s1", 40): "99.79",
    ("s2", 0): "99.59", ("s2", 5): "99.58", ("s2", 10): "99.59",
    ("s2", 15): "99.59", ("s2", 20): "99.58", ("s2", 25): "99.6",
    ("s2", 30): "99.58", ("s2", 35): "99.59", ("s2", 40): "99.59",
}
FP_RATE_CELLS = {
    ("s1", 0): "0.6052", ("s1", 5): "0.6015", ("s1", 10): "0.5924",
    ("s1", 15): "0.595", ("s1", 20): "0.6176", ("s1", 25): "0.6042",
    ("s1", 30): "0.5727", ("s1", 35): "0.591", ("s1", 40): "0.5964",
    ("s2", 0): "0.7013", ("s2", 5): "0.7195", ("s2", 10): "0.7203",
    ("s2", 15): "0.7099", ("s2", 20): "0.7222", ("s2", 25): "0.7323",
    ("s2", 30): "0.7208", ("s2", 35): "0.7185", ("s2", 40): "0.7226",
}
NORMALIZED_SC_CELLS = {
    ("s1", 0): "68.259", ("s1", 5): "48.737", ("s1", 10): "45.296",
    ("s1", 15): "44.515", ("s1", 20): "41.438", ("s1", 25): "42.991",
    ("s1", 30): "43.353", ("s1", 35): "42.301", ("s1", 40): "42.284",
    ("s2", 0): "65.133", ("s2", 5): "36.097", ("s2", 10): "30.983",
    ("s2", 15): "30.281", ("s2", 20): "28.381", ("s2", 25): "28.927",
    ("s2", 30): "28.382", ("s2", 35): "27.921", ("s2", 40): "27.211",
}
NORMALIZED_WT_CELLS = {
    ("s1", 0): "118.658", ("s1", 5): "31.919", ("s1", 10): "21.442",
    ("s1", 15): "17.433", ("s1", 20): "14.621", ("s1", 25): "14.099",
    ("s1", 30): "12.09", ("s1", 35): "11.246", ("s1", 40): "10.472",
    ("s2", 0): "203.55", ("s2", 5): "46.974", ("s2", 10): "21.673",
    ("s2", 15): "17.188", ("s2", 20): "15.212", ("s2", 25): "13.617",
    ("s2", 30): "12.119", ("s2", 35): "10.627", ("s2", 40): "10.517",
}


def _column(tag: str, x: int):
    return (S1 if tag == "s1" else S2)[x]


def _decimals(cell: str) -> int:
    return len(cell.partition(".")[2])


def _cells(table):
    return sorted(table.items())


def _assert_printed(value: float, cell: str) -> None:
    """The per-case rows round to three decimals, except for two cells that
    were evidently truncated instead; accept whichever the table printed."""
    decimals = _decimals(cell)
    printed = float(cell)
    candidates = (round(value, decimals), truncate(value, decimals))
    assert any(c == pytest.approx(printed, abs=1e-9) for c in candidates), (
        f"{value!r} prints as neither rounded nor truncated {cell}"
    )


class TestTableGoldens:
    @pytest.mark.parametrize("key, cell", _cells(SENSITIVITY_CELLS))
    def test_sensitivity(self, key, cell):
        _, _, tp, tn, *_ = _column(*key)
        fn = _column(*key)[1]
        value = sensitivity(tp, fn)
        assert truncate(value, _decimals(cell)) == pytest.approx(float(cell), abs=1e-9)

    @pytest.mark.parametrize("key, cell", _cells(SPECIFICITY_CELLS))
    def test_specificity(self, key, cell):
        fp, _, _, tn, *_ = _column(*key)
        value = specificity(tn, fp)
        assert truncate(value, _decimals(cell)) == pytest.approx(float(cell), abs=1e-9)

    @pytest.mark.parametrize("key, cell", _cells(FP_RATE_CELLS))
    def test_fp_rate(self, key, cell):
        fp, _, tp, *_ = _column(*key)
        value = fp_rate(fp, tp)
        assert truncate(value, _decimals(cell)) == pytest.approx(float(cell), abs=1e-9)

    @pytest.mark.parametrize("key, cell", _cells(NORMALIZED_SC_CELLS))
    def test_normalized_sc(self, key, cell):
        *_, sc_ma, _, cases = _column(*key)
        value = normalized_sc(sc_ma, cases)
        _assert_printed(value, cell)

    @pytest.mark.parametrize("key, cell", _cells(NORMALIZED_WT_CELLS))
    def test_normalized_wt(self, key, cell):
        *_, wt, cases = _column(*key)
        value = normalized_wt(wt, cases)
        _assert_printed(value, cell)

    @pytest.mark.parametrize("tag, x", [(t, x) for t in ("s1", "s2") for x in S1])
    def test_case_total_is_fp_plus_tp(self, tag, x):
        fp, _, tp, *_, cases = _column(tag, x)
        assert cases == fp + tp

    def test_avg_per_tick_goldens(self):
        # "Avg. FP/tick" and "Avg. FN/tick" are exact count/10000 quotients.
        assert avg_per_tick(299, 10_000) == 0.0299
        assert avg_per_tick(56, 10_000) == 0.0056
        assert avg_per_tick(418, 10_000) == 0.0418

    def test_fn_rate_goldens(self):
        # The FN-rate row rounds to five decimals (unlike the truncated
        # FP-rate row); two of its eighteen printed cells follow neither
        # convention and are left unpinned.
        assert round(fn_rate(56, 147313), 5) == pytest.approx(0.00038)
        assert round(fn_rate(63, 171175), 5) == pytest.approx(0.00037)
        assert round(fn_rate(74, 170681), 5) == pytest.approx(0.00043)
        assert round(fn_rate(20, 103699), 5) == pytest.approx(0.00019)
        assert round(fn_rate(29, 155168), 5) == pytest.approx(0.00019)


class TestFormulaBasics:
    def test_cited_spot_checks(self):
        assert fmt_percent(sensitivity(195, 56)) == "77.68"
        assert fmt_rate(fp_rate(418, 178)) == "0.7013"
        assert fmt_per_case(normalized_wt(58617, 494)) == "118.658"

    def test_complementary_pairs(self):
        assert sensitivity(195, 56) + 100 * fn_rate_as_sensitivity_complement(195, 56) == pytest.approx(100.0)
        assert specificity(147313, 299) + 100 * fp_rate_as_specificity_complement(147313, 299) == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (sensitivity, (0, 0)),
            (specificity, (0, 0)),
            (fp_rate, (0, 0)),
            (fn_rate, (0, 0)),
            (normalized_sc, (10, 0)),
            (normalized_wt, (10, 0)),
            (avg_per_tick, (10, 0)),
        ],
    )
    def test_empty_denominators_raise(self, fn, args):
        with pytest.raises(UndefinedMetricError):
            fn(*args)

    @given(
        tp=st.integers(min_value=0, max_value=10_000),
        fn=st.integers(min_value=0, max_value=10_000),
    )
    def test_sensitivity_range(self, tp, fn):
        if tp + fn == 0:
            return
        value = sensitivity(tp, fn)
        assert 0.0 <= value <= 100.0
        assert value == pytest.approx(100.0 - sensitivity(fn, tp))


class TestTruncate:
    @pytest.mark.parametrize(
        "value, places, expected",
        [
            (77.689243, 2, 77.68),
            (89.898989, 2, 89.89),
            (0.61764705, 4, 0.6176),
            (99.598548, 2, 99.59),
            # Values sitting exactly on a boundary must not lose a digit
            # to binary float fuzz.
            (0.0299, 4, 0.0299),
            (99.8, 1, 99.8),
        ],
    )
    def test_goldens(self, value, places, expected):
        assert truncate(value, places) == pytest.approx(expected, abs=1e-12)

    @given(value=st.floats(min_value=0, max_value=1e6), places=st.integers(min_value=0, max_value=5))
    def test_never_increases(self, value, places):
        truncated = truncate(value, places)
        assert truncated <= value + 1e-6
        assert value - truncated < 10 ** -places + 1e-6


class TestReport:
    def _report(self):
        counters = ConfusionCounters(fp=299, fn=56, tp=195, tn=147313)
        ledger = CostLedger(
            sc_by_kind={AgentKind.AMBULANCE: 33720, AgentKind.INFORMAL_CARER: 0},
            sum_wt=58617,
            treated_cases=494,
            v_informal=0,
            v_ambulance=296,
            interventions=193,
        )
        return MetricsReport(counters=counters, ledger=ledger, ticks=10_000, seed=0, config={})

    def test_csv_row_matches_reference_column(self):
        row = self._report().csv_row()
        assert len(row) == len(CSV_COLUMNS)
        by_name = dict(zip(CSV_COLUMNS, row))
        assert by_name["FP"] == "299"
        assert by_name["Avg. FP/tick"] == "0.0299"
        assert by_name["FP rate"] == "0.6052"
        assert by_name["FN rate"] == "0.00038"
        assert by_name["Sensitivity"] == "77.68"
        assert by_name["Specificity"] == "99.79"
        assert by_name["ΣSC(MA)"] == "33720"
        assert by_name["ΣWT"] == "58617"
        assert by_name["♯"] == "494"
        assert by_name["V(MA)"] == "296"
        assert by_name["ΣSC(MA)/♯"] == "68.259"
        assert by_name["ΣWT/♯"] == "118.658"

    def test_to_dict_full_precision(self):
        d = self._report().to_dict()
        assert d["sensitivity"] == pytest.approx(100 * 195 / 251)
        assert d["normalized_wt"] == pytest.approx(58617 / 494)
        assert d["treated_cases"] == 494

    def test_undefined_metrics_serialize_as_none(self):
        report = MetricsReport(
            counters=ConfusionCounters(),
            ledger=CostLedger(),
            ticks=100,
            seed=0,
            config={},
        )
        d = report.to_dict()
        assert d["sensitivity"] is None
        assert d["normalized_wt"] is None
        row = dict(zip(CSV_COLUMNS, report.csv_row()))
        assert row["Sensitivity"] == ""
        assert math.isclose(float(row["FP"]), 0)
