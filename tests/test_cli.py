"""End-to-end tests of the command-line interface."""

import json
import warnings

import pytest

import mlharq.cli as cli
import mlharq.sweeps as sweeps
from mlharq.quadrature import NonConvergence


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_mlh_json_shape(self, capsys):
        code, out, _ = run(capsys, "eval", "--protocol", "mlh", "--rate", "1",
                           "--snr-db", "3", "--alpha", "0.8", "--beta", "0.7")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["event_probs"]) == {"p0", "p1", "p1p", "p2", "p2p",
                                           "p3", "p4", "p4p"}
        assert doc["throughput"] > 0

    def test_full_shares_match_time_sharing(self, capsys):
        code, out1, _ = run(capsys, "eval", "--protocol", "mlh", "--rate", "1",
                            "--snr-db", "3", "--alpha", "1", "--beta", "1")
        assert code == 0
        code, out2, _ = run(capsys, "eval", "--protocol", "ts", "--rate", "1",
                            "--snr-db", "3")
        assert code == 0
        eta1 = json.loads(out1)["throughput"]
        eta2 = json.loads(out2)["throughput"]
        assert abs(eta1 - eta2) <= 1e-9

    def test_sc_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--protocol", "sc", "--rate", "1",
                           "--snr-db", "3", "--alpha", "0.6")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["sc_probs"]) == {"tp3", "tp4", "tp4p"}

    def test_out_of_range_alpha_exits_1(self, capsys):
        code, _, err = run(capsys, "eval", "--protocol", "mlh", "--rate", "1",
                           "--snr-db", "3", "--alpha", "1.5", "--beta", "0.5")
        assert code == 1
        assert "alpha" in err

    def test_missing_rate_exits_1(self, capsys):
        code, _, err = run(capsys, "eval", "--protocol", "ts", "--snr-db", "3")
        assert code == 1
        assert "rate" in err

    def test_ts_rejects_split_flags(self, capsys):
        code, _, err = run(capsys, "eval", "--protocol", "ts", "--rate", "1",
                           "--snr-db", "3", "--alpha", "0.5")
        assert code == 1

    def test_byte_identical_stdout(self, capsys):
        args = ("eval", "--protocol", "mlh", "--rate", "1", "--snr-db", "3",
                "--alpha", "0.8", "--beta", "0.7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NonConvergence(0.0, 1.0, 2000)
        monkeypatch.setattr(cli, "event_probs", explode)
        code, _, err = run(capsys, "eval", "--protocol", "mlh", "--rate", "1",
                           "--snr-db", "3", "--alpha", "0.8", "--beta", "0.7")
        assert code == 2
        assert "numerical" in err

    def test_empty_p1_window_exits_0(self, capsys):
        # alpha just above the vanishing threshold: the p1 window bounds
        # cross by rounding, and the empty window gives exactly 0
        code, out, _ = run(capsys, "eval", "--protocol", "mlh",
                           "--rate", "1.6276197687631888",
                           "--snr-db", "-3.500785684197352",
                           "--alpha", "0.7555028780966168", "--beta", "0.73")
        assert code == 0
        doc = json.loads(out)
        assert doc["event_probs"]["p1"] == 0.0
        assert doc["event_probs"]["p2"] == 0.0

    def test_underflowing_share_matches_zero_share(self, capsys):
        # beta * P underflows to 0 although beta > 0: the m1 layer has no
        # slot-2 power, exactly as at beta = 0
        argv = ["eval", "--protocol", "mlh", "--rate", "1", "--snr-db", "-4",
                "--alpha", "0.6666666666666666", "--beta", "5e-324"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        argv[-1] = "0"
        code, zero, _ = run(capsys, *argv)
        assert code == 0
        got = json.loads(out)["event_probs"]
        want = json.loads(zero)["event_probs"]
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-10, name

    @pytest.mark.parametrize("protocol,split", [
        ("mlh", ("--alpha", "0.5", "--beta", "1e-320")),
        ("sc", ("--alpha", "1e-320")),
    ])
    def test_infinite_threshold_keeps_stderr_empty(self, capsys, protocol,
                                                   split):
        # a subnormal share overflows a threshold to the intended +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "eval", "--protocol", protocol,
                               "--rate", "1", "--snr-db", "3", *split)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("flag,value", [("--rate", "inf"),
                                            ("--rate", "600"),
                                            ("--snr-db", "1e4")])
    def test_nonfinite_or_overflowing_input_exits_1(self, capsys, flag, value):
        argv = ["eval", "--protocol", "mlh", "--rate", "1", "--snr-db", "3",
                "--alpha", "0.8", "--beta", "0.7"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestSimulate:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "simulate", "--protocol", "mlh", "--rate",
                           "1", "--snr-db", "3", "--alpha", "0.5", "--beta",
                           "0.5", "--trials", "20000", "--seed", "42")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 20000
        assert doc["master_seed"] == 42
        total = sum(doc["event_probs"].values()) + doc["none_prob"]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_across_workers(self, capsys, monkeypatch):
        args = ("simulate", "--protocol", "sc", "--rate", "1", "--snr-db", "3",
                "--alpha", "0.4", "--trials", "20000", "--seed", "9")
        monkeypatch.setenv("HARQ_WORKERS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("HARQ_WORKERS", "8")
        _, out8, _ = run(capsys, *args)
        assert out1 == out8

    def test_bad_workers_env_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("HARQ_WORKERS", "zero")
        code, _, err = run(capsys, "simulate", "--protocol", "ts", "--rate",
                           "1", "--snr-db", "3", "--trials", "100")
        assert code == 1
        assert "HARQ_WORKERS" in err

    def test_zero_trials_exits_1(self, capsys):
        code, _, _ = run(capsys, "simulate", "--protocol", "ts", "--rate", "1",
                         "--snr-db", "3", "--trials", "0")
        assert code == 1


class TestOptimize:
    def test_fixed_rate(self, capsys):
        code, out, _ = run(capsys, "optimize", "--protocol", "sc", "--rate",
                           "1", "--snr-db", "3", "--grid-step", "0.1",
                           "--refine-tol", "1e-2")
        assert code == 0
        doc = json.loads(out)
        assert doc["rate_star"] is None
        assert 0.0 <= doc["alpha_star"] <= 1.0
        assert doc["evaluations"] > 0

    def test_ts_needs_no_split(self, capsys):
        code, out, _ = run(capsys, "optimize", "--protocol", "ts", "--rate",
                           "1", "--snr-db", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_star"] == 1.0 and doc["beta_star"] == 1.0


class TestSweep:
    def test_writes_csv_and_prints_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, out, _ = run(capsys, "sweep", "--kind", "t-vs-rate", "--snr-db",
                           "3", "--axis-min", "0.5", "--axis-max", "1.0",
                           "--axis-step", "0.5", "--protocols", "ts,sc",
                           "--grid-step", "0.1", "--refine-tol", "1e-2",
                           "--out", str(out_path))
        assert code == 0
        assert out.strip() == "4"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "protocol,snr_db,rate,alpha,beta,throughput,source,trials,seed"
        assert len(lines) == 5

    def test_numerical_failure_exits_2(self, capsys, monkeypatch, tmp_path):
        def explode(*args, **kwargs):
            raise NonConvergence(0.0, 1.0, 2000)
        monkeypatch.setattr(sweeps, "optimize_split", explode)
        code, _, err = run(capsys, "sweep", "--kind", "t-vs-rate", "--snr-db",
                           "3", "--axis-min", "0.5", "--axis-max", "0.5",
                           "--protocols", "sc", "--out",
                           str(tmp_path / "x.csv"))
        assert code == 2
        assert "numerical failure" in err
        assert "protocol=sc, axis=0.5 (t-vs-rate)" in err

    def test_missing_fixed_param_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--kind", "t-vs-rate", "--out",
                         str(tmp_path / "x.csv"))
        assert code == 1


class TestValidate:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--configs", "3", "--trials",
                           "50000", "--seed", "7")
        assert code == 0
        assert "3/3 pass" in out

    def test_bad_configs_exits_1(self, capsys):
        code, _, _ = run(capsys, "validate", "--configs", "0")
        assert code == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "--protocol", "ts", "--rate", "1",
                         "--snr-db", "3", "--frobnicate")
        assert code == 1
