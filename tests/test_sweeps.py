"""Tests for the sweep runner and its CSV format."""

import csv

import pytest

from mlharq.sweeps import CSV_HEADER, SweepRow, SweepSpec, run_sweep, write_csv


def small_spec(**overrides):
    base = dict(kind="t-vs-rate", axis_min=0.5, axis_max=1.0, axis_step=0.5,
                snr_db=3.0, protocols=("ts", "mlh"), grid_step=0.1,
                refine_tol=1e-2)
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            small_spec(kind="t-vs-power")

    def test_rate_kind_needs_snr(self):
        with pytest.raises(ValueError):
            small_spec(snr_db=None)

    def test_snr_kind_needs_rate(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="t-vs-snr", axis_min=0.0, axis_max=3.0,
                      axis_step=1.0, rate=None)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            small_spec(axis_step=0.0)

    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            small_spec(protocols=("ts", "cdma"))

    def test_axis_values_inclusive(self):
        assert small_spec().axis_values() == [0.5, 1.0]


class TestRunSweep:
    def test_rows_sorted_and_complete(self):
        rows = run_sweep(small_spec())
        assert len(rows) == 4  # 2 protocols x 2 rates
        keys = [(r.protocol, r.snr_db, r.rate) for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.source == "closed_form"
            assert row.trials == 0

    def test_mlh_rows_dominate_ts_rows(self):
        rows = run_sweep(small_spec())
        by_key = {(r.protocol, r.rate): r.throughput for r in rows}
        for rate in (0.5, 1.0):
            assert by_key[("mlh", rate)] >= by_key[("ts", rate)] - 1e-9

    def test_snr_axis_kind(self):
        spec = SweepSpec(kind="t-vs-snr", axis_min=0.0, axis_max=4.0,
                         axis_step=2.0, rate=1.0, protocols=("ts",))
        rows = run_sweep(spec)
        assert [r.snr_db for r in rows] == [0.0, 2.0, 4.0]
        assert all(r.rate == 1.0 for r in rows)

    def test_opt_rate_kind(self):
        spec = SweepSpec(kind="rate-star-vs-snr", axis_min=3.0, axis_max=3.0,
                         axis_step=1.0, protocols=("ts",))
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].rate > 0  # the optimized rate lands in the row

    def test_monte_carlo_source(self):
        spec = small_spec(protocols=("ts",), mc_trials=5000, master_seed=3)
        rows = run_sweep(spec)
        for row in rows:
            assert row.source == "monte_carlo"
            assert row.trials == 5000
            assert row.seed == 3

    def test_rerun_identical(self):
        assert run_sweep(small_spec()) == run_sweep(small_spec())


class TestWriteCsv:
    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_roundtrip(self, tmp_path):
        row = SweepRow(protocol="mlh", snr_db=3.0, rate=1.0, alpha=0.529,
                       beta=0.694, throughput=0.780574331153,
                       source="closed_form", trials=0, seed=0)
        path = tmp_path / "one.csv"
        write_csv([row], str(path))
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        rec = records[0]
        assert rec["protocol"] == "mlh"
        assert float(rec["throughput"]) == pytest.approx(row.throughput, abs=1e-12)
        assert rec["trials"] == "0"

    def test_twelve_significant_digits(self, tmp_path):
        row = SweepRow(protocol="ts", snr_db=3.0, rate=1.0, alpha=1.0,
                       beta=1.0, throughput=0.2231301601484298,
                       source="closed_form", trials=0, seed=0)
        path = tmp_path / "digits.csv"
        write_csv([row], str(path))
        assert "0.223130160148" in path.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        rows = run_sweep(small_spec())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, str(p1))
        write_csv(run_sweep(small_spec()), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            write_csv([], "/nonexistent-dir/sweep.csv")

    def test_row_validation(self):
        with pytest.raises(ValueError):
            SweepRow(protocol="ts", snr_db=0.0, rate=1.0, alpha=2.0, beta=1.0,
                     throughput=0.5, source="closed_form", trials=0, seed=0)
        with pytest.raises(ValueError):
            SweepRow(protocol="ts", snr_db=0.0, rate=1.0, alpha=1.0, beta=1.0,
                     throughput=-0.5, source="closed_form", trials=0, seed=0)
