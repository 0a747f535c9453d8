import json
import math

import numpy as np
import pytest

from l2p.accountant import (
    ball_config,
    config_budget,
    regret_bound_oco,
    tune_ope,
)
from l2p.adversaries import bernoulli_experts, epoch_lower_bound_stream, neighbor_of
from l2p.audit import (
    empirical_epsilon,
    marginal_tv_profile,
    ratio_range_check,
    switch_statistics,
)
from l2p.cli import main
from l2p.harness import monte_carlo
from l2p.transform import L2PConfig, PreparedRun


_MISSING = object()  # an override that drops the field


def _write_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "problem": "ope",
        "T": 400,
        "d": 3,
        "epsilon": 1.0,
        "delta": 1e-6,
        "reps": 5,
        "base_seed": 0,
        "adversary": {"kind": "bernoulli", "means": [0.3, 0.5, 0.7], "seed": 1},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not _MISSING}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--epsilon-grid", "1.0"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize(
    "problem, adversary",
    [
        ("ope", {"kind": "iid-sphere", "seed": 1}),
        ("ope", {"kind": "drift", "seed": 1}),
        ("oco", {"kind": "bernoulli", "means": [0.3, 0.5, 0.7], "seed": 1}),
    ],
    ids=["ope-iid-sphere", "ope-drift", "oco-bernoulli"],
)
def test_mismatched_stream_exit_2_writes_nothing(tmp_path, capsys, command, problem, adversary):
    # a problem whose measure kind does not fit its adversary's losses
    path = _write_config(tmp_path, problem=problem, adversary=adversary)
    assert main([*command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--epsilon-grid", "1.0"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize(
    "overrides",
    [None, {"T": None}, {"epsilon": "1.0"}, {"reps": True}, {"T": math.inf},
     {"delta": math.nan}, {"adversary": "bernoulli"},
     {"override": ["B", "eta", "p"]},
     {"override": {"B": None, "eta": 0.01, "p": 0.5}},
     {"problem": "oco", "adversary": {"kind": "iid-sphere", "seed": 1}, "lipschitz": None},
     {"adversary": {"kind": "bernoulli", "means": [0.3, 0.5, 0.7], "seed": None}},
     {"problem": "oco", "adversary": {"kind": "iid-sphere", "seed": 1, "lipschitz": None}},
     {"T": 200.5}, {"reps": 2.9}, {"base_seed": 0.5},
     {"override": {"B": 2.7, "eta": 0.01, "p": 0.5}},
     {"reps": _MISSING}, {"adversary": _MISSING}, {"problem": "mystery"},
     {"adversary": {"kind": "mystery", "seed": 1}}, {"reps": 0},
     {"adversary": {"kind": "bernoulli", "means": [None, 0.5, 0.7], "seed": 1}}],
    ids=["array", "null-T", "string-epsilon", "bool-reps", "infinite-T", "nan-delta",
         "string-adversary", "list-override", "null-override-B", "null-lipschitz",
         "null-adversary-seed", "null-adversary-lipschitz", "fractional-T", "fractional-reps",
         "fractional-base_seed", "fractional-override-B", "missing-reps", "missing-adversary",
         "unknown-problem", "unknown-adversary-kind", "zero-reps", "null-mean"],
)
def test_malformed_config_exit_2_writes_nothing(tmp_path, capsys, command, overrides):
    # a top level that is not an object, a field that is not a finite
    # number or not a whole one where one is read, or an adversary or
    # override that is not an object; a missing field, an unknown problem
    # or adversary kind, no replicates, or a null Bernoulli mean
    path = _write_config(tmp_path, **(overrides or {}))
    if overrides is None:
        path.write_text("[1, 2]")
    assert main([*command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--epsilon-grid", "1.0"]], ids=["run", "sweep"]
)
def test_gradients_above_the_lipschitz_bound_exit_2_writes_nothing(tmp_path, capsys, command):
    # no top-level lipschitz, so the run is tuned and accounted for L=1;
    # without the check this config ran and reported that budget
    path = _write_config(
        tmp_path, problem="oco", adversary={"kind": "iid-sphere", "lipschitz": 3.0, "seed": 1}
    )
    assert main([*command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "exceeds the config's lipschitz 1.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


_ACCOUNT = ["account", "--eta", "0.01", "--p", "0.5", "--T", "100", "--B", "1", "--delta1", "1e-6"]
_LOWER_BOUND = ["lower-bound", "--T", "1000", "--epsilon", "0.1", "--d", "2", "--reps", "3"]
_TUNE_OPE = ["tune", "ope", "--T", "1000", "--d", "3", "--epsilon", "1", "--delta", "1e-6"]
_TUNE_OCO = ["tune", "oco", *_TUNE_OPE[2:]]


def _with(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``."""
    i = argv.index(flag)
    return [*argv[: i + 1], value, *argv[i + 2:]]


_ETA = "eta must lie in (0, 0.1]"
_EPOCH = "the epoch construction needs T >= 1, d >= 1 and a finite epsilon > 0"
_TARGET = "target epsilon must be positive and finite"
_L_D = "lipschitz and diameter must be positive and finite"


def _audit_config(T=5, d=3, reps=10_000, seed=0, **fields):
    """An experts run config: means ``linspace(0.3, 0.7, d)``, epsilon 1, delta 1e-6.

    ``seed`` seeds both the stream and the replicates; ``fields`` set or
    add top-level keys.
    """
    means = [float(m) for m in np.linspace(0.3, 0.7, d)]
    return {"schema": 1, "problem": "ope", "T": T, "d": d, "epsilon": 1.0, "delta": 1e-6,
            "reps": reps, "base_seed": seed,
            "adversary": {"kind": "bernoulli", "means": means, "seed": seed}, **fields}


def _audit(directory, test, *flags, **config):
    """``audit test --config <file> *flags``; the file holds ``_audit_config(**config)``."""
    path = directory / f"audit-{test}.json"
    path.write_text(json.dumps(_audit_config(**config)))
    return ["audit", test, "--config", str(path), *flags]


@pytest.mark.parametrize(
    "argv, message",
    [(_with(_ACCOUNT, "--eta", "-0.1"), _ETA),
     (_with(_ACCOUNT, "--eta", "0.5"), _ETA),
     (_with(_ACCOUNT, "--B", "0"), "B must be a positive integer"),
     (_with(_ACCOUNT, "--delta1", "0"), "delta1 must lie in (0, 1)"),
     ([*_ACCOUNT, "--delta0", "nan"], "delta0 must lie in [0, 1)"),
     (_with(_LOWER_BOUND, "--T", "-100"), _EPOCH),
     (_with(_LOWER_BOUND, "--epsilon", "-1"), _EPOCH),
     (_with(_LOWER_BOUND, "--epsilon", "inf"), _EPOCH),
     (_with(_LOWER_BOUND, "--reps", "0"), "--reps must be at least 1"),
     (_with(_LOWER_BOUND, "--reps", "-1"), "--reps must be at least 1"),
     (["audit", "ratio", {"reps": 0}], "ratio audit needs at least 1 run"),
     (["audit", "epsilon", {"d": 2, "reps": 50}],
      "bucketing audit needs at least 100 runs per stream"),
     (["audit", "ratio", {"T": 1, "reps": 10, "override": {"B": 1, "eta": 0.05, "p": 0.5}}],
      "ratio audit needs at least two batches"),
     (["audit", "switches", {"reps": 50}], "need at least 100 runs from an identical config"),
     (["audit", "marginal", {"problem": "oco"}], "audits run on experts configs"),
     (["audit", "marginal", {"output_dir": "out"}],
      "an audit writes no files; output_dir is unused"),
     (_with(_TUNE_OPE, "--epsilon", "inf"), _TARGET),
     (_with(_TUNE_OPE, "--epsilon", "nan"), _TARGET),
     ([*_TUNE_OCO, "--L", "nan"], _L_D),
     ([*_TUNE_OCO, "--D", "nan"], _L_D)],
    ids=["account-eta-negative", "account-eta-above-cap", "account-B-0", "account-delta1-0",
         "account-delta0-nan", "lower-bound-T-negative", "lower-bound-epsilon-negative",
         "lower-bound-epsilon-inf", "lower-bound-reps-0", "lower-bound-reps-negative",
         "audit-ratio-runs-0", "audit-epsilon-runs-50", "audit-ratio-one-batch",
         "audit-switches-runs-50", "audit-oco-config", "audit-output-dir", "tune-ope-epsilon-inf",
         "tune-ope-epsilon-nan", "tune-oco-L-nan", "tune-oco-D-nan"],
)
def test_bad_flags_exit_2_writes_nothing(
    tmp_path, tmp_path_factory, monkeypatch, capsys, argv, message
):
    # input a command cannot honour ends in its own configuration error: no
    # traceback, no game played, no budget or result printed, no file
    # written. An audit row names its config's fields, and the config is
    # written outside the cwd.
    def no_game(self, rng):
        raise AssertionError("a game was played")

    monkeypatch.setattr(PreparedRun, "run", no_game)
    if argv[0] == "audit":
        argv = _audit(tmp_path_factory.mktemp("config"), argv[1], **argv[2])
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_smoke_writes_three_files(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "reps.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "provenance.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_reps"] == 5

    def test_rerun_byte_identical(self, tmp_path):
        path = _write_config(tmp_path)
        main(["run", "--config", str(path)])
        first = (tmp_path / "out" / "reps.csv").read_bytes()
        main(["run", "--config", str(path)])
        assert (tmp_path / "out" / "reps.csv").read_bytes() == first

    def test_partial_override_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.01})
        assert main(["run", "--config", str(path)]) == 2

    def test_full_override_accepted(self, tmp_path):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.01, "p": 0.5})
        assert main(["run", "--config", str(path)]) == 0

    def test_ball_override_reports_accounted_budget(self, tmp_path, capsys):
        # the budget of a ball override uses the divergence bound of its measure;
        # with the nominal eta=0.01, delta0=0 it read eps 3.51 here
        path = _write_config(
            tmp_path, problem="oco", T=400, reps=2,
            adversary={"kind": "iid-sphere", "seed": 1},
            override={"B": 1, "eta": 0.01, "p": 0.1},
        )
        assert main(["run", "--config", str(path)]) == 0
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        tuned, budget = provenance["tuned"], provenance["budget"]
        config = ball_config(400, 3, 1, 0.01, 0.1, 1e-6, 1.0, 1.0)
        assert tuned["eta_accounted"] == config.eta_accounted > 0.03
        assert tuned["delta0"] == config.delta0 > 0.0
        assert budget == config_budget(config).to_dict()
        nominal = config_budget(
            L2PConfig(T=400, B=1, eta=0.01, p=0.1, delta0=0.0, delta1=1e-6 / 800)
        )
        assert budget["epsilon"] > 3 * nominal.epsilon

    def test_degenerate_override_is_flagged(self, tmp_path, capsys):
        # at p=1 every batch refreshes both chains, so the coin hides nothing
        path = _write_config(tmp_path, T=200, reps=2, override={"B": 1, "eta": 0.05, "p": 1.0})
        assert main(["run", "--config", str(path)]) == 0
        budget = json.loads((tmp_path / "out" / "provenance.json").read_text())["budget"]
        assert budget["preconditions_met"] is False
        assert "degenerate fake-switch probability p=1; run is not private" in budget["notes"]

    def test_ball_override_above_the_cap_is_nominal(self, tmp_path, capsys):
        # nominal eta 0.05 is accounted at about 0.165, above ETA_MAX
        path = _write_config(
            tmp_path, problem="oco", T=200, reps=2,
            adversary={"kind": "iid-sphere", "seed": 1},
            override={"B": 1, "eta": 0.05, "p": 0.5},
        )
        assert main(["run", "--config", str(path)]) == 0
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert provenance["tuned"]["eta_accounted"] > 0.1
        budget = provenance["budget"]
        assert budget["preconditions_met"] is False
        assert (
            "accounted eta exceeds the divergence cap; budget is nominal only" in budget["notes"]
        )

    def test_invalid_override_exit_2_writes_nothing(self, tmp_path, capsys):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.5, "p": 0.5})
        assert main(["run", "--config", str(path)]) == 2
        assert "eta must lie in (0, 0.1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sampler_failure_exit_4_writes_nothing(self, tmp_path, capsys):
        # a tuned ball at d=50, T=1000 accepts about 8e-12 of its proposals at the
        # centre, so no proposal of about a million lands
        path = _write_config(
            tmp_path, problem="oco", T=1000, d=50, reps=1,
            adversary={"kind": "iid-sphere", "seed": 1},
        )
        assert main(["run", "--config", str(path)]) == 4
        assert "sampler failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_output_flag_beats_output_dir(self, tmp_path, capsys):
        # the config names out/, the flag flag/: the files go to flag/ only
        path = _write_config(tmp_path)
        flag = tmp_path / "flag"
        assert main(["run", "--config", str(path), "--output", str(flag)]) == 0
        for name in ("reps.csv", "summary.json", "provenance.json"):
            assert (flag / name).exists()
        assert not (tmp_path / "out").exists()

    def test_integral_floats_accepted(self, tmp_path, capsys):
        # 4e2 and 3.0 are whole numbers, so they run as the integers do
        runs = {}
        for name, numbers in [("int", {"T": 400, "reps": 3}), ("float", {"T": 4e2, "reps": 3.0})]:
            path = _write_config(tmp_path, **numbers, base_seed=0.0)
            assert main(["run", "--config", str(path), "--output", str(tmp_path / name)]) == 0
            runs[name] = (tmp_path / name / "reps.csv").read_bytes()
        assert runs["int"] == runs["float"]

    def test_epoch_adversary(self, tmp_path, capsys):
        path = _write_config(
            tmp_path, reps=3, adversary={"kind": "epoch_lower_bound", "epsilon": 0.05, "seed": 1}
        )
        assert main(["run", "--config", str(path)]) == 0
        stream = epoch_lower_bound_stream(400, 0.05, 3, 1)
        want = monte_carlo(tune_ope(400, 3, 1.0, 1e-6), stream, 3, 0).to_json() + "\n"
        assert (tmp_path / "out" / "summary.json").read_text() == want

    def test_bad_schema(self, tmp_path):
        path = _write_config(tmp_path, schema=2)
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file(self):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_tuner_infeasible_exit_code(self, tmp_path):
        path = _write_config(tmp_path, T=10, epsilon=1e-6)
        assert main(["run", "--config", str(path)]) == 3


class TestAccount:
    def test_golden_key_values(self, capsys):
        code = main(
            [
                "account", "--eta", "0.01", "--p", "0.1", "--T", "1000",
                "--B", "10", "--delta1", "1e-6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.strip().splitlines() if "=" in l)
        assert float(lines["epsilon"]) == pytest.approx(1.3009, abs=1e-3)
        assert float(lines["delta"]) == pytest.approx(0.002)

    def test_degenerate_p_is_flagged(self, capsys):
        # at p=1 the fake-switch coin hides nothing; the config's own budget says so
        argv = ["account", "--eta", "0.01", "--p", "1", "--T", "1000", "--B", "1", "--delta1", "1e-6"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert "preconditions_met=False" in out
        assert out[-1] == "note=degenerate fake-switch probability p=1; run is not private"

    def test_json_mode(self, capsys):
        main(
            [
                "account", "--eta", "0.01", "--p", "0.1", "--T", "1000",
                "--B", "10", "--delta1", "1e-6", "--json",
            ]
        )
        obj = json.loads(capsys.readouterr().out)
        assert obj["epsilon"] == pytest.approx(1.3009, abs=1e-3)
        assert obj["preconditions_met"] is False


class TestTune:
    def test_ope(self, capsys):
        assert main(["tune", "ope", "--T", "100000", "--d", "10",
                     "--epsilon", "1.0", "--delta", "1e-6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["B"] == 1
        assert obj["budget"]["epsilon"] <= 1.0

    def test_oco(self, capsys):
        assert main(["tune", "oco", "--T", "10000", "--d", "3",
                     "--epsilon", "1.0", "--delta", "1e-6"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["eta_accounted"] > obj["eta"]
        assert obj["budget"]["epsilon"] <= 1.0

    def test_oco_nominal_budget_noted(self, capsys):
        # this tuned ball config is accepted with its accounted eta above ETA_MAX
        assert main(["tune", "oco", "--T", "10", "--d", "2",
                     "--epsilon", "8", "--delta", "0.05"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["eta_accounted"] > 0.1
        assert obj["budget"]["preconditions_met"] is False
        assert (
            "accounted eta exceeds the divergence cap; budget is nominal only"
            in obj["budget"]["notes"]
        )

    @pytest.mark.parametrize("flags", [["--L", "5"], ["--D", "9"], ["--L", "1", "--D", "1"]])
    def test_ope_refuses_L_and_D_exit_2(self, capsys, flags):
        # the experts tuner has no Lipschitz bound or diameter; these flags were ignored
        args = ["tune", "ope", "--T", "20000", "--d", "10", "--epsilon", "1", "--delta", "1e-6"]
        assert main([*args, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--L and --D apply to oco only" in captured.err

    def test_infeasible_exit_3(self, capsys):
        assert main(["tune", "ope", "--T", "10", "--d", "2",
                     "--epsilon", "1e-6", "--delta", "1e-6"]) == 3


class TestSweepAndLowerBound:
    def test_sweep_rows(self, tmp_path, capsys):
        path = _write_config(tmp_path, T=300, reps=3)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(path), "--epsilon-grid", "0.5", "1.0",
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,mean_regret,std_regret,theory_bound"
        assert len(lines) == 3

    def test_sweep_oco_bound(self, tmp_path, capsys):
        # an oco sweep overlays the DP-OCO rate, with L and D from the config
        path = _write_config(
            tmp_path, problem="oco", T=200, reps=2, lipschitz=2.0, diameter=0.5,
            adversary={"kind": "iid-sphere", "seed": 1, "lipschitz": 2.0},
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--epsilon-grid", "0.5", "1.0",
                     "--output", str(out)]) == 0
        for line, eps in zip(out.read_text().splitlines()[1:], (0.5, 1.0)):
            want = 2.0 * 0.5 * (
                math.sqrt(200) + 200 ** (1 / 3) * math.sqrt(3) * math.log(200 / 1e-6) / eps ** (2 / 3)
            )
            assert float(line.split(",")[3]) == want
            assert float(line.split(",")[3]) == regret_bound_oco(200, 3, eps, 1e-6, 2.0, 0.5)

    def test_sweep_refuses_an_override_exit_2_writes_nothing(self, tmp_path, capsys):
        # the override fixes one config, so every epsilon of the grid ran it
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.01, "p": 0.5})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--epsilon-grid", "0.1", "1", "5",
                     "--output", str(out)]) == 2
        assert "it takes no override block" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_epsilon_grid_exit_2(self, tmp_path, capsys):
        # argparse refuses the empty grid before the command runs
        path = _write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--epsilon-grid"]) == 2
        assert "--epsilon-grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_epsilon_in_grid_exit_2(self, tmp_path, capsys, value):
        path = _write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(path), "--epsilon-grid", "1.0", value, "--output", str(out)]
        assert main(argv) == 2
        assert "target epsilon must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_lower_bound_csv(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        code = main(
            ["lower-bound", "--T", "1000", "--epsilon", "0.05", "--d", "4",
             "--reps", "10", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,seed,strawman_regret,comparator,clamped"
        assert len(lines) == 11

    def test_lower_bound_single_expert_note(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        args = ["lower-bound", "--T", "100", "--epsilon", "0.1", "--d", "1", "--reps", "2",
                "--output", str(out)]
        assert main(args) == 0
        assert capsys.readouterr().err == "note: single expert, regret is identically 0\n"
        assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == ["0.0"] * 2

    def test_lower_bound_clamp_reported_once(self, tmp_path, capsys):
        # the library's warning is the one report; the CSV marks every row
        out = tmp_path / "lb.csv"
        args = ["lower-bound", "--T", "16", "--epsilon", "1", "--d", "2", "--reps", "3",
                "--output", str(out)]
        with pytest.warns(UserWarning, match="clamped to T") as record:
            assert main(args) == 0
        assert len(record) == 1
        assert capsys.readouterr().err == ""
        assert [line[-2:] for line in out.read_text().splitlines()[1:]] == [",1"] * 3


class TestAudit:
    _OVERRIDE = {"B": 1, "eta": 0.1, "p": 0.5}

    def test_marginal_json_lines(self, tmp_path, capsys):
        argv = _audit(tmp_path, "marginal", "--s", "2", reps=20_000, override=self._OVERRIDE)
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["passed"] is True

    def test_marginal_prints_the_profile(self, tmp_path, capsys):
        # every row of marginal_tv_profile on the config's run, stream and seed;
        # --s picks one of them
        argv = _audit(tmp_path, "marginal", reps=20_000, seed=3, override=self._OVERRIDE)
        stream = bernoulli_experts(3, 5, np.linspace(0.3, 0.7, 3), 3)
        config = L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6 / 10)
        want = [r.to_json_line() for r in marginal_tv_profile(config, stream, 20_000, 3)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert main([*argv, "--s", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == [want[3]]

    def test_tuned_marginal_prints_the_profile(self, tmp_path, capsys):
        stream = bernoulli_experts(3, 5, np.linspace(0.3, 0.7, 3), 2)
        want = marginal_tv_profile(tune_ope(5, 3, 1.0, 1e-6), stream, 10_000, 2)
        assert main(_audit(tmp_path, "marginal", seed=2)) == 0
        assert capsys.readouterr().out.splitlines() == [r.to_json_line() for r in want]

    @pytest.mark.parametrize("test", ["ratio", "epsilon", "switches"])
    def test_tuned_audit_prints_its_report(self, tmp_path, capsys, test):
        # the report the library gives on the config's tuned run, stream and seed
        T, d, runs, seed = 10, 2, 200, 4
        stream = bernoulli_experts(d, T, np.linspace(0.3, 0.7, d), seed)
        config = tune_ope(T, d, 1.0, 1e-6)
        if test == "ratio":
            report = ratio_range_check(config, stream, runs, seed)
        elif test == "epsilon":
            neighbor = neighbor_of(stream, T // 2, 1.0 - stream.values[T // 2])
            report = empirical_epsilon(config, stream, neighbor, runs, seed)
        else:
            report = switch_statistics(config, stream, runs, seed)
        assert main(_audit(tmp_path, test, T=T, d=d, reps=runs, seed=seed)) == 0
        assert capsys.readouterr().out == report.to_json_line() + "\n"

    def test_epoch_adversary(self, tmp_path, capsys):
        # the lower bound's epoch stream, with the replicates seeded apart from it
        path = _write_config(
            tmp_path, T=20, d=2, reps=300, base_seed=7, output_dir=_MISSING,
            adversary={"kind": "epoch_lower_bound", "epsilon": 0.2, "seed": 1},
        )
        stream = epoch_lower_bound_stream(20, 0.2, 2, 1)
        config = tune_ope(20, 2, 1.0, 1e-6)
        neighbor = neighbor_of(stream, 10, 1.0 - stream.values[10])
        want = empirical_epsilon(config, stream, neighbor, 300, 7).to_json_line() + "\n"
        assert main(["audit", "epsilon", "--config", str(path)]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("s", ["0", "6"])
    def test_marginal_batch_out_of_range_exit_2(self, tmp_path, capsys, s):
        argv = _audit(tmp_path, "marginal", "--s", s, reps=20_000, override=self._OVERRIDE)
        assert main(argv) == 2
        assert "--s must lie in 1..5" in capsys.readouterr().err

    @pytest.mark.parametrize("test", ["ratio", "epsilon", "switches"])
    def test_s_outside_marginal_exit_2(self, tmp_path, capsys, test):
        # only the marginal audit reads one batch; the others ignored --s
        argv = _audit(tmp_path, test, "--s", "3", T=20, reps=50, seed=1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--s applies to the marginal audit only" in captured.err

    def test_invalid_override_exit_2(self, tmp_path, capsys):
        argv = _audit(tmp_path, "ratio", reps=10, override={"B": 1, "eta": 0.5, "p": 0.5})
        assert main(argv) == 2
        assert "eta must lie in (0, 0.1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--d", "3"), ("--T", "5"), ("--B", "1"), ("--p", "0.5"), ("--epsilon", "1"),
         ("--delta", "1e-6"), ("--runs", "10000"), ("--seed", "0"), ("--override-eta", "0.1")],
    )
    def test_removed_flags_exit_2(self, tmp_path, capsys, flag, value):
        # the config names the run; the flags that used to build one are gone
        assert main([*_audit(tmp_path, "marginal"), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_threads_flag_gone(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["run", "--config", str(path), "--threads", "2"]) == 2
