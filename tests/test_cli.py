"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlharq.cli as cli
import mlharq.sweeps as sweeps
from mlharq.closed_form import prob_p3, prob_p4
from mlharq.model import PROTOCOLS, SystemConfig
from mlharq.quadrature import NonConvergence, QuadratureSettings


# a coarse search at tolerances that its integrals miss at 3 dB, R = 1
TIGHT_SEARCH = ("--grid-step", "0.1", "--refine-tol", "0.01",
                "--abs-tol", "1e-19", "--rel-tol", "1e-19")


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

    def test_numerical_failure_names_the_integral(self, capsys):
        """The lockstep mlh grid names its lowest failing integral, a point
        at which the scalar closed form fails too, the same on every run."""
        argv = ("optimize", "--protocol", "mlh", "--rate", "1", "--snr-db", "3",
                *TIGHT_SEARCH)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: quadrature did not converge")
        assert err.count("\n") == 1
        cfg = SystemConfig.from_snr_db(3.0, 1.0)
        named = re.search(r" in (p3|p4) at alpha=([^,]+), beta=([^,]+), "
                          + re.escape(repr(cfg)) + "$", err.rstrip())
        assert named is not None, err
        kernel, alpha, beta = named.groups()
        scalar = {"p3": prob_p3, "p4": prob_p4}[kernel]
        with pytest.raises(NonConvergence):
            scalar(float(alpha), float(beta), cfg,
                   QuadratureSettings(abs_tol=1e-19, rel_tol=1e-19))
        assert run(capsys, *argv) == (code, out, err)

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


@pytest.mark.parametrize("argv", [
    ["eval", "--protocol", "ts", "--rate", "1e-17", "--snr-db", "3"],
    ["optimize", "--protocol", "sc", "--rate", "600", "--snr-db", "3"],
    ["sweep", "--kind", "t-vs-snr", "--rate", "512", "--axis-min", "3",
     "--axis-max", "3", "--protocols", "ts"],
    ["eval", "--protocol", "ts", "--rate", "2000", "--snr-db", "3"],
])
def test_rate_without_finite_thresholds_exits_1(capsys, tmp_path, argv):
    """2^R - 1 rounding to 0, or 2^(2R) overflowing, is refused with one
    error line that names rate_R, also from R = 1024 on, where 2^R
    overflows too."""
    out_path = tmp_path / "x.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error: rate_R ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--protocol", "ts", "--rate", "1", "--snr-db", "4000"],
    ["optimize", "--protocol", "mlh", "--rate", "1", "--snr-db", "4000"],
    ["sweep", "--kind", "t-vs-snr", "--rate", "1", "--axis-min", "4000",
     "--axis-max", "4000", "--protocols", "ts"],
])
def test_snr_db_whose_power_overflows_exits_1(capsys, tmp_path, argv):
    """An SNR whose 10**(snr_db/10) overflows is refused with one error
    line that names snr_db, not Python's bare OverflowError."""
    out_path = tmp_path / "x.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err.startswith("error: snr_db ") and err.count("\n") == 1


def test_overflowing_sum_rate_threshold_exits_1(capsys):
    """At -5 dB, P = 0.316 makes (2**(2R) - 1) / P overflow at the largest
    rate; the config is refused at once with one error line."""
    code, out, err = run(capsys, "optimize", "--protocol", "mlh", "--rate",
                         "511.99999999999994", "--snr-db", "-5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: rate_R ") and "power_P" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--protocol", "mlh", "--alpha", "0.5", "--beta", "1"],
    ["eval", "--protocol", "mlh", "--alpha", "0.5", "--beta", "0.9999999999999999"],
    ["optimize", "--protocol", "mlh"],
])
def test_overflowing_residual_keeps_stderr_empty(capsys, argv):
    """Near the largest accepted rate, h4's residual n overflows to +inf on
    the upper part of the slot-1 range; at beta = 1 its interference cap
    is then 0 * inf.  Both betas give the intended h4 = +inf, and no
    warning reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv, "--rate", "511.99999999999994",
                             "--snr-db", "3")
    assert code == 0
    assert out and err == ""


EDGE_SHARES = [0.0, 1.0, 1e-300, 1.0 - 1e-16]


@st.composite
def edge_runs(draw):
    """An eval or coarse optimize command anywhere in the accepted ranges
    and past them: R from 1e-12 to 512, SNR from -320 to 3,100 dB, sigma2
    from 1e-170 to 1e160, shares at the edges 0, 1, 1e-300, 1 - 1e-16 or
    anywhere in [0, 1]."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    argv = [draw(st.sampled_from(["eval", "optimize"])), "--protocol", protocol,
            f"--rate={draw(st.floats(1e-12, 512.0))!r}",
            f"--snr-db={draw(st.floats(-320.0, 3100.0))!r}",
            f"--sigma2={10.0 ** draw(st.floats(-170.0, 160.0))!r}"]
    if argv[0] == "optimize":
        return argv + ["--grid-step", "0.1", "--refine-tol", "0.01"]
    share = st.one_of(st.sampled_from(EDGE_SHARES), st.floats(0.0, 1.0))
    shares = {"ts": [], "sc": ["--alpha"], "mlh": ["--alpha", "--beta"]}[protocol]
    for flag in shares:
        argv += [flag, repr(draw(share))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=edge_runs())
# 2^R (alpha - 1) P overflows to -inf in the mlh coarse grid's g_max
@example(argv=["optimize", "--protocol", "mlh", "--rate=189.0",
               "--snr-db=1964.0", "--sigma2=1e+55", "--grid-step", "0.1",
               "--refine-tol", "0.01"])
def test_every_edge_input_ends_quietly_in_a_documented_exit_code(argv):
    """No command warns, with RuntimeWarning an error, and each ends as the
    CLI edge-input checks demand: exit 0 with nothing on stderr, 1 with
    one `error: ` line, or 2 with one `numerical failure: ` line."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    else:
        prefix = "error: " if code == 1 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, argv


HUGE_SIGMA2_RUNS = [
    ["eval", "--protocol", "ts"],
    ["eval", "--protocol", "mlh", "--alpha", "0.5", "--beta", "0.3"],
    ["eval", "--protocol", "sc", "--alpha", "0.5"],
    ["simulate", "--protocol", "ts", "--trials", "20000"],
    ["simulate", "--protocol", "mlh", "--alpha", "0.5", "--beta", "0.3",
     "--trials", "20000"],
    ["simulate", "--protocol", "sc", "--alpha", "0.5", "--trials", "20000"],
]


@pytest.mark.parametrize("argv", HUGE_SIGMA2_RUNS)
def test_largest_accepted_sigma2_keeps_stderr_empty(capsys, argv):
    """P = sigma2 * 10^(snr/10), so g*P grows like sigma2^2: at 3 dB,
    sigma2 = 1e153 keeps every sampled g*P finite and runs warning-free."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv, "--rate", "1", "--snr-db", "3",
                             "--sigma2", "1e153")
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize("sigma2", ["3e153", "1e154"])
@pytest.mark.parametrize("argv", HUGE_SIGMA2_RUNS)
def test_overflowing_received_snr_exits_1(capsys, argv, sigma2):
    """Past sigma2 of about 1.6e153 at 3 dB the largest sampled gain times P
    overflows (inf - inf and inf / inf in the thresholds and the
    Monte-Carlo terms); the config is refused with one error line."""
    code, out, err = run(capsys, *argv, "--rate", "1", "--snr-db", "3",
                         "--sigma2", sigma2)
    assert code == 1
    assert out == ""
    assert err.startswith("error: sigma2 ") and "power_P" in err
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

    def test_sc_numerical_failure_exits_2(self, capsys):
        """A real failure of the lockstep sc grid, one stderr line naming
        the split."""
        code, out, err = run(capsys, "optimize", "--protocol", "sc", "--rate",
                             "1", "--snr-db", "3", *TIGHT_SEARCH)
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert " in sc at alpha=" in err

    @pytest.mark.parametrize("command", [
        ["optimize", "--protocol", "mlh", "--rate", "1", "--snr-db", "3"],
        ["optimize", "--protocol", "sc", "--opt-rate", "--snr-db", "3"],
        ["sweep", "--kind", "t-vs-rate", "--snr-db", "3", "--axis-min", "0.5",
         "--axis-max", "0.5", "--protocols", "mlh"],
    ])
    def test_tiny_grid_step_exits_1(self, capsys, tmp_path, command):
        """A grid of more than 1000 subdivisions is refused before it is
        built, with one error line."""
        if command[0] == "sweep":
            command = [*command, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *command, "--grid-step", "1e-9")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 1000 subdivisions" in err

    @pytest.mark.parametrize("tols", [("--abs-tol", "inf", "--rel-tol", "inf"),
                                      ("--abs-tol", "inf"),
                                      ("--rel-tol", "nan")])
    def test_nonfinite_tolerance_exits_1(self, capsys, tols):
        """A tolerance must be finite: an infinite one would accept any
        first estimate (multiplying inf by 0 in the error test) and make
        the coarse grid's bounds infinite.  One error line, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "optimize", "--protocol", "mlh",
                                 "--rate", "1", "--snr-db", "3", *tols)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite and > 0" in err

    @pytest.mark.parametrize("tols", [("--rel-tol", "1e308"), ("--rel-tol", "2"),
                                      ("--abs-tol", "1")])
    def test_tolerance_of_one_or_more_exits_1(self, capsys, tols):
        """A tolerance of 1 or more accepts any estimate of a probability;
        at 1e308 the bounds' slack and the error test's shares overflow.
        One error line, no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "optimize", "--protocol", "mlh",
                                 "--rate", "3.3", "--snr-db", "3", *tols)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "below 1" in err


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

    def test_sc_numerical_failure_exits_2(self, capsys, tmp_path):
        """A real failure in a sweep point: one stderr line naming the
        point and the split, and no CSV."""
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--kind", "t-vs-rate", "--snr-db",
                             "3", "--axis-min", "1", "--axis-max", "1",
                             "--protocols", "sc", *TIGHT_SEARCH,
                             "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "protocol=sc, axis=1.0 (t-vs-rate)" in err
        assert " in sc at alpha=" in err
        assert not out_path.exists()

    def test_tiny_axis_step_exits_1(self, capsys, tmp_path):
        """4.5e13 axis points are refused before the axis is built."""
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--kind", "t-vs-snr", "--rate",
                             "1", "--axis-step", "1e-12", "--out", str(out_path))
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 10000 axis points" in err

    def test_negative_trials_exits_1(self, capsys, tmp_path):
        """As simulate --trials -5 does, with one error line and no CSV."""
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--kind", "t-vs-rate", "--snr-db",
                             "3", "--axis-min", "1", "--axis-max", "1",
                             "--trials", "-1", "--out", str(out_path))
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err == "error: mc_trials must be >= 0, got -1\n"

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

    def test_negative_seed_exits_1(self, capsys):
        """numpy's default_rng would refuse it with a message that names
        no flag."""
        code, out, err = run(capsys, "validate", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be >= 0, got -1\n"


class TestUsage:
    def test_one_parser_serves_every_call(self, capsys, monkeypatch, tmp_path):
        """main() builds its parser once per process and reuses it: a run of
        calls (usage errors among them) prints and returns what the same
        calls print and return with a fresh parser each."""
        calls = [
            ["eval", "--protocol", "ts", "--rate", "1", "--snr-db", "3"],
            ["eval", "--protocol", "cdma", "--rate", "1", "--snr-db", "3"],
            ["optimize", "--protocol", "ts", "--rate", "1", "--snr-db", "3"],
            ["optimize", "--protocol", "sc", "--rate", "1", "--snr-db", "3",
             "--grid-step", "0.5", "--refine-tol", "0.5", "--frobnicate"],
            ["sweep", "--kind", "t-vs-rate", "--snr-db", "3", "--axis-min", "1",
             "--axis-max", "1", "--protocols", "ts", "--out",
             str(tmp_path / "x.csv")],
            ["transmogrify"],
            ["validate", "--configs", "0"],
            ["optimize", "--protocol", "sc", "--rate", "1", "--snr-db", "3",
             "--grid-step", "0.5", "--refine-tol", "0.5"],
        ]
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert len(built) == len(calls)
        cli._parser.cache_clear()
        shared = [run(capsys, *argv) for argv in calls]
        assert len(built) == len(calls) + 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 1, 1, 0]

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "--protocol", "ts", "--rate", "1",
                         "--snr-db", "3", "--frobnicate")
        assert code == 1
