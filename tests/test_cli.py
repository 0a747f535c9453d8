import json
import math

import numpy as np
import pytest

from l2p.accountant import ball_config, config_budget, l2p_privacy, regret_bound_oco
from l2p.adversaries import bernoulli_experts
from l2p.audit import marginal_tv_profile
from l2p.cli import main
from l2p.transform import L2PConfig


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
     {"delta": math.nan}, {"adversary": "bernoulli"}],
    ids=["array", "null-T", "string-epsilon", "bool-reps", "infinite-T", "nan-delta",
         "string-adversary"],
)
def test_malformed_config_exit_2_writes_nothing(tmp_path, capsys, command, overrides):
    # a top level that is not an object, a field that is not a finite
    # number, or an adversary that is not an object
    path = _write_config(tmp_path, **(overrides or {}))
    if overrides is None:
        path.write_text("[1, 2]")
    assert main([*command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


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
        nominal = l2p_privacy(0.01, 0.1, 400, 1, 0.0, 1e-6 / 800)
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


class TestAudit:
    def test_marginal_json_lines(self, capsys):
        code = main(
            ["audit", "marginal", "--d", "3", "--T", "5", "--runs", "20000",
             "--override-eta", "0.1", "--B", "1", "--p", "0.5", "--s", "2"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["passed"] is True

    def test_marginal_prints_the_profile(self, capsys):
        # every row of marginal_tv_profile on the command's config, stream and seed;
        # --s picks one of them
        args = ["audit", "marginal", "--d", "3", "--T", "5", "--runs", "20000",
                "--override-eta", "0.1", "--seed", "3"]
        stream = bernoulli_experts(3, 5, np.linspace(0.3, 0.7, 3), 3)
        config = L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6 / 10)
        want = [r.to_json_line() for r in marginal_tv_profile(config, stream, 20_000, 3)]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == want
        assert main([*args, "--s", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == [want[3]]

    @pytest.mark.parametrize("s", ["0", "6"])
    def test_marginal_batch_out_of_range_exit_2(self, capsys, s):
        args = ["audit", "marginal", "--d", "3", "--T", "5", "--runs", "20000",
                "--override-eta", "0.1", "--s", s]
        assert main(args) == 2
        assert "--s must lie in 1..5" in capsys.readouterr().err

    def test_invalid_override_exit_2(self, capsys):
        assert main(["audit", "ratio", "--runs", "10", "--override-eta", "0.5"]) == 2
        assert "eta must lie in (0, 0.1]" in capsys.readouterr().err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_threads_flag_gone(self, tmp_path, capsys):
        path = _write_config(tmp_path)
        assert main(["run", "--config", str(path), "--threads", "2"]) == 2
