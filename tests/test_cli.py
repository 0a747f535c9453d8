import json
import math
import re

import numpy as np
import pytest

from l2p.accountant import (
    ball_config,
    config_budget,
    regret_bound_oco,
    regret_bound_ope,
    tune_ope,
)
from l2p.adversaries import bernoulli_experts, epoch_lower_bound_stream, neighbor_of
from l2p.audit import (
    empirical_epsilon,
    marginal_tv_profile,
    ratio_range_check,
    switch_statistics,
)
from l2p.cli import _build_config, _build_stream, main
from l2p.harness import REP_CSV_COLUMNS, monte_carlo, strawman_fixed_switch
from l2p.seeding import replicate_seed
from l2p.transform import L2PConfig, PreparedRun


_MISSING = object()  # an override that drops the field
_SPHERE = {"kind": "iid-sphere", "seed": 0}


def _override(B=1, eta=0.01, p=0.5):
    """An override block."""
    return {"B": B, "eta": eta, "p": p}


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


def _epoch(eps=0.1, seed=0):
    """An epoch adversary at ``eps``."""
    return {"kind": "epoch_lower_bound", "epsilon": eps, "seed": seed}


# Configs every command refuses, each with its id: a top level that is not
# an object, a schema that is not the int 1, a field that is not a finite
# number or not a whole one where one is read, or an adversary or override
# that is not an object; a missing field, an unknown problem or adversary
# kind, no replicates, T or d below 1, a Bernoulli mean that is null, a
# bool, an object or beyond a double's range, an epoch adversary without
# its epsilon, a ball override without a delta to spend, an experts
# config that sets the oco problem's lipschitz or diameter, which it would
# ignore, a matrix adversary without a path string, or a key that nothing
# reads: an adversary key its kind ignores, a misspelt top-level key, or
# an output_dir of any value (the files go where --output says).
_MALFORMED = (
    None, {"T": None}, {"epsilon": "1.0"}, {"reps": True}, {"T": math.inf},
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
    {"adversary": {"kind": "bernoulli", "means": [None, 0.5, 0.7], "seed": 1}},
    {"adversary": {"kind": "bernoulli", "means": [True, False, 0.5], "seed": 1}},
    {"adversary": {"kind": "bernoulli", "means": [0.1, {"a": 1}, 0.3], "seed": 1}},
    {"adversary": {"kind": "bernoulli", "means": [10**400, 0.5, 0.7], "seed": 1}},
    {"adversary": {"kind": "epoch_lower_bound", "seed": 1}},
    {"schema": True}, {"schema": 1.0},
    {"T": 0, "override": _override()},
    {"problem": "oco", "adversary": _SPHERE, "T": 0, "override": _override()},
    {"d": 0}, {"T": -5},
    {"problem": "oco", "adversary": _SPHERE, "delta": 0.0, "override": _override()},
    {"problem": "oco", "adversary": _SPHERE, "lipschitz": 0.0, "override": _override()},
    {"problem": "oco", "adversary": _SPHERE, "diameter": 0.0, "override": _override()},
    {"lipschitz": 5.0}, {"diameter": 9.0}, {"lipschitz": 1.0, "diameter": 1.0},
    {"output_dir": 5}, {"output_dir": ["a"]}, {"output_dir": None},
    {"adversary": {"kind": "matrix", "path": 5}}, {"adversary": {"kind": "matrix"}},
    {"adversary": {**_epoch(0.05, 1), "means": [0.3, 0.5, 0.7]}},
    {"adversary": {"kind": "bernoulli", "means": [0.3, 0.5, 0.7], "seed": 1, "epsilon": 0.05}},
    {"adversary": {"kind": "bernoulli", "means": [0.3, 0.5, 0.7], "seed": 1, "lipschitz": 1.0}},
    {"lerner": "strawman"},
)
_MALFORMED_IDS = [
    "array", "null-T", "string-epsilon", "bool-reps", "infinite-T", "nan-delta",
    "string-adversary", "list-override", "null-override-B", "null-lipschitz",
    "null-adversary-seed", "null-adversary-lipschitz", "fractional-T", "fractional-reps",
    "fractional-base_seed", "fractional-override-B", "missing-reps", "missing-adversary",
    "unknown-problem", "unknown-adversary-kind", "zero-reps", "null-mean", "bool-means",
    "object-mean", "huge-mean", "epoch-without-epsilon", "bool-schema", "float-schema",
    "zero-T-override", "zero-T-ball-override", "zero-d", "negative-T", "zero-delta-ball-override",
    "zero-lipschitz-ball-override", "zero-diameter-ball-override",
    "ope-lipschitz", "ope-diameter", "ope-lipschitz-and-diameter",
    "number-output_dir", "list-output_dir", "null-output_dir",
    "number-matrix-path", "matrix-without-path", "epoch-means", "bernoulli-epsilon",
    "bernoulli-lipschitz", "misspelt-top-level-key",
]


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--epsilon-grid", "1.0"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize("overrides", _MALFORMED, ids=_MALFORMED_IDS)
def test_malformed_config_exit_2_writes_nothing(tmp_path, capsys, command, overrides):
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


# The generator configs whose matrices a matrix config plays
_GENERATORS = {
    "bernoulli": ("ope", {"kind": "bernoulli", "means": [0.3, 0.5, 0.7]}),
    "epoch_lower_bound": ("ope", {"kind": "epoch_lower_bound", "epsilon": 0.05}),
    "iid-sphere": ("oco", {"kind": "iid-sphere"}),
    "drift": ("oco", {"kind": "drift"}),
}


def _as_matrix(tmp_path, config_path, dtype=None):
    """A copy of the config at ``config_path`` whose adversary is the
    matrix its stream holds, saved to ``losses.npy``, or cast to ``dtype``
    and saved to ``losses-<dtype>.npy``; the copy's path."""
    cfg = json.loads(config_path.read_text())
    values = _build_stream(cfg).values
    stem = "losses" if dtype is None else f"losses-{np.dtype(dtype).name}"
    matrix = tmp_path / f"{stem}.npy"
    np.save(matrix, values if dtype is None else values.astype(dtype))
    cfg["adversary"] = {"kind": "matrix", "path": str(matrix)}
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("kind", list(_GENERATORS))
def test_matrix_run_matches_its_generator(tmp_path, capsys, kind, seed):
    problem, adversary = _GENERATORS[kind]
    generated = _write_config(
        tmp_path, problem=problem, reps=3, base_seed=seed, adversary={**adversary, "seed": seed}
    )
    # a generated experts stream saves as a bool file; its float64 copy
    # plays the same games through the float matrix's path
    matrix, floats = _as_matrix(tmp_path, generated), _as_matrix(tmp_path, generated, np.float64)
    runs = [("generated", generated), ("matrix", matrix), ("float-matrix", floats)]
    for name, path in runs:
        assert main(["run", "--config", str(path), "--output", str(tmp_path / name)]) == 0
    assert np.load(tmp_path / "losses.npy").dtype == (np.float64 if problem == "oco" else np.bool_)
    for name in ("reps.csv", "summary.json"):
        want = (tmp_path / "generated" / name).read_bytes()
        assert (tmp_path / "matrix" / name).read_bytes() == want
        assert (tmp_path / "float-matrix" / name).read_bytes() == want


def test_matrix_sweep_and_audits_match_their_generator(tmp_path, capsys):
    # one experts shape that the sweep, the marginal and the epsilon audit all take
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps(_audit_config(T=10, d=2, seed=3)))
    matrix = _as_matrix(tmp_path, generated)
    outputs = {}
    for name, path in [("generated", generated), ("matrix", matrix)]:
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--config", str(path), "--epsilon-grid", "0.5", "1.0", "--output", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        for test in ("marginal", "epsilon"):
            assert main(["audit", test, "--config", str(path)]) == 0
        outputs[name] = (out.read_bytes(), capsys.readouterr().out)
    assert outputs["matrix"] == outputs["generated"]
    assert len(outputs["matrix"][1].splitlines()) == 11  # ten marginal batches, one epsilon line


@pytest.mark.parametrize("problem, kind", [("ope", "bernoulli"), ("oco", "drift")])
def test_matrix_reaches_the_engine_without_a_copy(tmp_path, problem, kind):
    # a bool or float64 C-order file stays file-backed from np.load to the engine
    generated = _write_config(tmp_path, problem=problem, adversary=_GENERATORS[kind][1])
    cfg = json.loads(_as_matrix(tmp_path, generated).read_text())
    stream = _build_stream(cfg)
    assert isinstance(stream.values.base, np.memmap) and stream.is_oco == (problem == "oco")
    config = _build_config(cfg)
    prepared = PreparedRun(config, config.measure_kind, stream.values)
    assert np.shares_memory(stream.values, prepared.loss_values)


def _losses_with(value):
    """400 x 3 losses of 0.5 with one entry set to ``value``."""
    values = np.full((400, 3), 0.5)
    values[7, 1] = value
    return values


def _save(array):
    """A writer of ``array`` as a ``.npy`` file."""
    return lambda path: np.save(path, array, allow_pickle=True)


def _savez(path):
    with open(path, "wb") as fh:
        np.savez(fh, losses=_losses_with(0.5))


def _cut(size):
    """A writer of ``_losses_with(0.5)`` as a ``.npy`` file cut to its first ``size`` bytes."""
    def write(path):
        np.save(path, _losses_with(0.5))
        path.write_bytes(path.read_bytes()[:size])
    return write


_STRUCTURED = np.zeros(400, dtype=[("a", "f8"), ("b", "f8"), ("c", "f8")])

# Matrix configs every stream command refuses: (problem, writer of
# losses.npy or None, adversary keys beside kind and path, message)
_REFUSED_MATRICES = {
    "missing-file": ("ope", None, {}, "No such file"),
    "empty-file": ("ope", lambda path: path.write_bytes(b""), {}, "is empty"),
    "text-file": ("ope", lambda path: path.write_text("0.5,0.5,0.5\n"), {}, "not a .npy array"),
    "cut-short": ("ope", _cut(-8), {}, "cut short"),
    "cut-short-header": ("ope", _cut(20), {}, "cut short"),
    "npz": ("ope", _savez, {}, "an archive"),
    "object": ("ope", _save(_losses_with(0.5).astype(object)), {}, "Python objects"),
    "complex": ("ope", _save(_losses_with(0.5).astype(complex)), {}, "complex128 values"),
    "structured": ("ope", _save(_STRUCTURED), {}, "not real numbers"),
    "ndim-1": ("ope", _save(_losses_with(0.5).ravel()), {}, r"shape \(T, d\)"),
    "ndim-3": ("ope", _save(_losses_with(0.5)[..., None]), {}, r"shape \(T, d\)"),
    "transposed": ("ope", _save(_losses_with(0.5).T), {}, r"shape \(T, d\)"),
    "short": ("ope", _save(_losses_with(0.5)[:-1]), {}, r"shape \(T, d\)"),
    "nan": ("ope", _save(_losses_with(math.nan)), {}, "must be finite"),
    "infinity": ("oco", _save(_losses_with(-math.inf)), {}, "must be finite"),
    "loss-above-1": ("ope", _save(_losses_with(1.5)), {}, r"in \[0, 1\]"),
    "negative-loss": ("ope", _save(_losses_with(-0.25)), {}, r"in \[0, 1\]"),
    "gradient-above-lipschitz": ("oco", _save(_losses_with(1.9)), {}, "lipschitz bound"),
    **{
        f"extra-{key}": ("ope", _save(_losses_with(0.5)), {key: value}, "only kind and path")
        for key, value in [("seed", 1), ("means", [0.5] * 3), ("lipschitz", 1.0),
                           ("epsilon", 0.05)]
    },
}


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--epsilon-grid", "1.0"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize("case", list(_REFUSED_MATRICES))
def test_refused_matrix_exit_2_writes_nothing(tmp_path, capsys, command, case):
    problem, write, keys, message = _REFUSED_MATRICES[case]
    matrix = tmp_path / "losses.npy"
    if write is not None:
        write(matrix)
    path = _write_config(
        tmp_path, problem=problem, adversary={"kind": "matrix", "path": str(matrix), **keys}
    )
    assert main([*command, "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and re.search(message, err)
    assert {p.name for p in tmp_path.iterdir()} <= {"config.json", "losses.npy"}


def _lower_bound(T=1000, eps=0.1, d=2, reps=3, seed=0):
    """The fields of the lower-bound experiment's config: the strawman on the
    epoch stream at ``eps``, with stream and replicates seeded from ``seed``."""
    return {"learner": "strawman", "T": T, "d": d, "epsilon": eps, "reps": reps,
            "base_seed": seed, "adversary": _epoch(eps, seed)}


# lower-bound's replicate seeds and strawman regrets at --T 1000 --epsilon 0.05
# --d 4 --reps 10 --seed 3
_STRAWMAN_SEEDS = [
    13604808898340030615, 17027085370592858547, 2554043094958247610, 13592992832856903821,
    10968187914866821265, 14871207630202690639, 11658853342129813110, 16753576447339095367,
    4974725095440772720, 2501910697915934370,
]
_STRAWMAN_REGRETS = ["65.0", "36.0", "42.0", "-7.0", "27.0", "-4.0", "51.0", "56.0", "31.0", "32.0"]

_ETA = "eta must lie in (0, 0.1]"
_EPOCH = "the epoch construction needs T >= 1, d >= 1 and a finite epsilon > 0"
_STRAWMAN_EPS = "the strawman learner needs a finite epsilon above 0"
_LEARNER = "learner must be 'l2p' or 'strawman'"
_NO_CONFIG = "the strawman learner has no l2p config to tune, price or audit"
_TARGET = "target epsilon must be positive and finite"
_L_D = "lipschitz and diameter must be positive and finite"
_MEANS = "adversary.means must be a list of finite numbers"
_OUTPUT_DIR = "unknown config fields: output_dir"


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
    [(["plan", {"override": _override(eta=-0.1)}], _ETA),
     (["plan", {"override": _override(eta=0.5)}], _ETA),
     (["plan", {"override": _override(B=0)}], "B must be a positive integer"),
     (["plan", {"delta": 0.0, "override": _override()}], "delta1 must lie in (0, 1)"),
     (["plan", {"epsilon": 0.0, "override": _override()}],
      "a regret bound needs epsilon and delta above 0"),
     (["run", {**_lower_bound(), "T": -100}], "config fields must be at least 1: T"),
     (["run", _lower_bound(eps=-1.0)], _EPOCH),
     (["run", _lower_bound(eps=math.inf)], "config fields must be finite numbers: epsilon"),
     (["run", _lower_bound(reps=0)], "need at least one replicate"),
     (["run", _lower_bound(reps=-1)], "need at least one replicate"),
     (["run", {"learner": "strawman", "epsilon": 0.0}], _STRAWMAN_EPS),
     (["run", {"learner": "tree"}], _LEARNER),
     (["run", {"learner": ["strawman"]}], _LEARNER),
     (["run", {**_lower_bound(), "problem": "oco", "adversary": _SPHERE}],
      "the strawman learner plays experts configs without an override"),
     (["run", {**_lower_bound(), "override": _override()}],
      "the strawman learner plays experts configs without an override"),
     (["run", {"learner": "strawman", "T": 4, "epsilon": 100.0}],
      "the strawman's 54 switches at epsilon 100.0 exceed T=4"),
     (["sweep", _lower_bound(), "--epsilon-grid", "0"], _STRAWMAN_EPS),
     (["audit", "marginal", {"learner": "strawman"}], _NO_CONFIG),
     (["plan", _lower_bound()], _NO_CONFIG),
     (["audit", "ratio", {"reps": 0}], "ratio audit needs at least 1 run"),
     (["audit", "epsilon", {"d": 2, "reps": 50}],
      "bucketing audit needs at least 100 runs per stream"),
     (["audit", "ratio", {"T": 1, "reps": 10, "override": {"B": 1, "eta": 0.05, "p": 0.5}}],
      "ratio audit needs at least two batches"),
     (["audit", "switches", {"reps": 50}], "need at least 100 runs from an identical config"),
     (["audit", "marginal", {"problem": "oco"}], "audits run on experts configs"),
     (["audit", "marginal", {"output_dir": "out"}], _OUTPUT_DIR),
     (["sweep", {"output_dir": "out"}, "--epsilon-grid", "1.0"], _OUTPUT_DIR),
     (["plan", {"output_dir": "out"}], _OUTPUT_DIR),
     (["run", {"output_dir": "out"}], _OUTPUT_DIR),
     (["audit", "marginal", {"adversary": {"kind": "epoch_lower_bound", "seed": 1}}],
      "an epoch_lower_bound adversary needs epsilon"),
     (["audit", "marginal", {"adversary": {"kind": "bernoulli", "means": [True, False, 0.5]}}],
      _MEANS),
     (["audit", "marginal", {"adversary": {"kind": "bernoulli", "means": [0.1, {"a": 1}, 0.3]}}],
      _MEANS),
     (["plan", {"epsilon": 0.0}], _TARGET),
     (["plan", {"epsilon": -1.0}], _TARGET),
     (["plan", {"problem": "oco", "adversary": _SPHERE, "lipschitz": 0.0}], _L_D),
     (["plan", {"problem": "oco", "adversary": _SPHERE, "diameter": -1.0}], _L_D)],
    ids=["plan-eta-negative", "plan-eta-above-cap", "plan-B-0", "plan-delta-0",
         "plan-override-epsilon-0", "lower-bound-T-negative", "lower-bound-epsilon-negative",
         "lower-bound-epsilon-inf", "lower-bound-reps-0", "lower-bound-reps-negative",
         "strawman-epsilon-0", "unknown-learner", "non-string-learner", "lower-bound-oco",
         "lower-bound-override", "strawman-switches-above-T", "lower-bound-sweep-epsilon-0",
         "audit-strawman", "plan-lower-bound",
         "audit-ratio-runs-0", "audit-epsilon-runs-50", "audit-ratio-one-batch",
         "audit-switches-runs-50", "audit-oco-config", "audit-output-dir",
         "sweep-output-dir", "plan-output-dir", "run-output-dir",
         "audit-epoch-without-epsilon", "audit-bool-means", "audit-object-mean",
         "plan-epsilon-0", "plan-epsilon-negative", "plan-oco-lipschitz-0",
         "plan-oco-diameter-negative"],
)
def test_bad_flags_exit_2_writes_nothing(
    tmp_path, tmp_path_factory, monkeypatch, capsys, argv, message
):
    # input a command cannot honour ends in its own configuration error: no
    # traceback, no game played, no budget or result printed, no file
    # written. A row names its config's fields beside its command's
    # flags, and the config is written outside the cwd.
    def no_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(PreparedRun, "run", no_game)
    monkeypatch.setattr("l2p.cli.strawman_fixed_switch", no_game)
    if argv[0] == "audit":
        argv = _audit(tmp_path_factory.mktemp("config"), argv[1], **argv[2])
    else:
        path = tmp_path_factory.mktemp("config") / f"{argv[0]}.json"
        path.write_text(json.dumps(_audit_config(**argv[1])))
        argv = [argv[0], "--config", str(path), *argv[2:]]
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
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        out = tmp_path / "out"
        assert (out / "reps.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "provenance.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_reps"] == 5

    def test_rerun_byte_identical(self, tmp_path):
        path = _write_config(tmp_path)
        main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
        first = (tmp_path / "out" / "reps.csv").read_bytes()
        main(["run", "--config", str(path), "--output", str(tmp_path / "out")])
        assert (tmp_path / "out" / "reps.csv").read_bytes() == first

    def test_partial_override_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.01})
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2

    def test_full_override_accepted(self, tmp_path):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.01, "p": 0.5})
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0

    def test_ball_override_reports_accounted_budget(self, tmp_path, capsys):
        # the budget of a ball override uses the divergence bound of its measure;
        # with the nominal eta=0.01, delta0=0 it read eps 3.51 here
        path = _write_config(
            tmp_path, problem="oco", T=400, reps=2,
            adversary={"kind": "iid-sphere", "seed": 1},
            override={"B": 1, "eta": 0.01, "p": 0.1},
        )
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
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
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
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
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert provenance["tuned"]["eta_accounted"] > 0.1
        budget = provenance["budget"]
        assert budget["preconditions_met"] is False
        assert (
            "accounted eta exceeds the divergence cap; budget is nominal only" in budget["notes"]
        )

    def test_invalid_override_exit_2_writes_nothing(self, tmp_path, capsys):
        path = _write_config(tmp_path, override={"B": 1, "eta": 0.5, "p": 0.5})
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "eta must lie in (0, 0.1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sampler_failure_exit_4_writes_nothing(self, tmp_path, capsys):
        # a tuned ball at d=50, T=1000 accepts about 8e-12 of its proposals at the
        # centre, so no proposal of about a million lands
        path = _write_config(
            tmp_path, problem="oco", T=1000, d=50, reps=1,
            adversary={"kind": "iid-sphere", "seed": 1},
        )
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 4
        assert "sampler failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_output_flag_beats_output_dir(self, tmp_path, monkeypatch, capsys):
        # without --output, run writes into the working directory the bytes
        # it writes into --output's
        path = _write_config(tmp_path)
        flag = tmp_path / "flag"
        assert main(["run", "--config", str(path), "--output", str(flag)]) == 0
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", str(path)]) == 0
        names = ["provenance.json", "reps.csv", "summary.json"]
        assert sorted(p.name for p in cwd.iterdir()) == names
        for name in names:
            assert (cwd / name).read_bytes() == (flag / name).read_bytes()

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
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        stream = epoch_lower_bound_stream(400, 0.05, 3, 1)
        want = monte_carlo(tune_ope(400, 3, 1.0, 1e-6), stream, 3, 0).to_json() + "\n"
        assert (tmp_path / "out" / "summary.json").read_text() == want

    def test_bad_schema(self, tmp_path):
        path = _write_config(tmp_path, schema=2)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 2

    def test_missing_file(self):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_tuner_infeasible_exit_code(self, tmp_path):
        path = _write_config(tmp_path, T=10, epsilon=1e-6)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 3


def _plan(tmp_path, capsys, **fields):
    """``plan`` on ``_write_config(tmp_path, **fields)``: its exit code and printed object."""
    code = main(["plan", "--config", str(_write_config(tmp_path, **fields))])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else out


class TestAccount:
    # plan prices an override config as it prices a tuned one

    def test_golden_key_values(self, tmp_path, capsys):
        code, obj = _plan(tmp_path, capsys, T=1000, delta=0.002, override=_override(10, 0.01, 0.1))
        assert code == 0
        assert obj["delta1"] == 1e-6
        assert obj["budget"]["epsilon"] == pytest.approx(1.3009, abs=1e-3)
        assert obj["budget"]["delta"] == pytest.approx(0.002)

    def test_degenerate_p_is_flagged(self, tmp_path, capsys):
        # at p=1 the fake-switch coin hides nothing; the config's own budget says so
        code, obj = _plan(tmp_path, capsys, T=1000, delta=0.002, override=_override(1, 0.01, 1.0))
        assert code == 0
        assert obj["budget"]["preconditions_met"] is False
        assert obj["budget"]["notes"][-1] == (
            "degenerate fake-switch probability p=1; run is not private"
        )


class TestTune:
    # plan tunes a config without an override block

    def test_ope(self, tmp_path, capsys):
        code, obj = _plan(tmp_path, capsys, T=100000, d=10)
        assert code == 0
        assert obj["B"] == 1
        assert obj["budget"]["epsilon"] <= 1.0

    def test_oco(self, tmp_path, capsys):
        code, obj = _plan(tmp_path, capsys, problem="oco", T=10000, adversary=_SPHERE)
        assert code == 0
        assert obj["eta_accounted"] > obj["eta"]
        assert obj["budget"]["epsilon"] <= 1.0

    def test_oco_nominal_budget_noted(self, tmp_path, capsys):
        # this tuned ball config is accepted with its accounted eta above ETA_MAX
        code, obj = _plan(
            tmp_path, capsys, problem="oco", T=10, d=2, epsilon=8, delta=0.05, adversary=_SPHERE
        )
        assert code == 0
        assert obj["eta_accounted"] > 0.1
        assert obj["budget"]["preconditions_met"] is False
        assert (
            "accounted eta exceeds the divergence cap; budget is nominal only"
            in obj["budget"]["notes"]
        )

    def test_infeasible_exit_3(self, tmp_path, capsys):
        code, out = _plan(tmp_path, capsys, T=10, d=2, epsilon=1e-6)
        assert (code, out) == (3, "")


# What `l2p tune` printed for each of its command lines in the tests, README
# and CI before plan replaced it, with the run config that names the same
# tuning.
_TUNE_LINES = [
    ({"T": 100000, "d": 10},  # tune ope --T 100000 --d 10 --epsilon 1 --delta 1e-6
     '{"B": 1, "T": 100000, "beta": null, "budget": {"delta": 1e-06, "epsilon": '
     '0.3666654007999567, "notes": ["precondition eta*B*log(1/delta1)/p <= 1 not met"], '
     '"preconditions_met": false}, "delta0": 0.0, "delta1": 5e-12, "eta": '
     '0.0001894521204484593, "eta_accounted": null, "lam": null, "p": 0.001894521204484593, '
     '"radius": null}'),
    ({"T": 1000},  # tune ope --T 1000 --d 3 --epsilon 1 --delta 1e-6
     '{"B": 1, "T": 1000, "beta": null, "budget": {"delta": 1e-06, "epsilon": '
     '0.5384724542796423, "notes": ["precondition eta*B*log(1/delta1)/p <= 1 not met"], '
     '"preconditions_met": false}, "delta0": 0.0, "delta1": 4.999999999999999e-10, "eta": '
     '0.0015994255455002685, "eta_accounted": null, "lam": null, "p": 0.015994255455002684, '
     '"radius": null}'),
    ({"T": 20000, "d": 10},  # tune ope --T 20000 --d 10 --epsilon 1 --delta 1e-6
     '{"B": 1, "T": 20000, "beta": null, "budget": {"delta": 1e-06, "epsilon": '
     '0.45843126606152107, "notes": ["precondition eta*B*log(1/delta1)/p <= 1 not met"], '
     '"preconditions_met": false}, "delta0": 0.0, "delta1": 2.4999999999999998e-11, "eta": '
     '0.0004523728228932503, "eta_accounted": null, "lam": null, "p": 0.0045237282289325035, '
     '"radius": null}'),
    ({"problem": "oco", "T": 1000},  # tune oco --T 1000 --d 3 --epsilon 1 --delta 1e-6
     '{"B": 1, "T": 1000, "beta": 6.864689885231885e-05, "budget": {"delta": '
     '6.423485829607179e-07, "epsilon": 0.5930396035985328, "notes": ["precondition '
     'eta*B*log(1/delta1)/p <= 1 not met"], "preconditions_met": false}, "delta0": '
     '4.100939185073553e-15, "delta1": 2.4999999999999996e-10, "eta": 0.0003015933902105916, '
     '"eta_accounted": 0.0011092941445262432, "lam": 15094.101979412573, "p": '
     '0.004825494243369466, "radius": 0.5}'),
    ({"problem": "oco", "T": 10000},  # tune oco --T 10000 --d 3 --epsilon 1.0 --delta 1e-6
     '{"B": 1, "T": 10000, "beta": 3.31130715108839e-05, "budget": {"delta": '
     '6.450302499912364e-07, "epsilon": 0.6119850621932768, "notes": ["precondition '
     'eta*B*log(1/delta1)/p <= 1 not met"], "preconditions_met": false}, "delta0": '
     '1.643213117986731e-16, "delta1": 2.4999999999999998e-11, "eta": 0.00012598852610636133, '
     '"eta_accounted": 0.0004849370060226307, "lam": 41722.22608048689, "p": '
     '0.0020158164177017813, "radius": 0.5}'),
    ({"problem": "oco", "T": 10, "d": 2, "epsilon": 8, "delta": 0.05},
     # tune oco --T 10 --d 2 --epsilon 8 --delta 0.05
     '{"B": 1, "T": 10, "beta": 0.005364915065723369, "budget": {"delta": 0.03481208424788421, '
     '"epsilon": 4.528973550947782, "notes": ["precondition eta*B*log(1/delta1)/p <= 1 not '
     'met", "accounted eta exceeds the divergence cap; budget is nominal only"], '
     '"preconditions_met": false}, "delta0": 2.15192331357029e-06, "delta1": 0.00125, "eta": '
     '0.05, "eta_accounted": 0.11747753828268197, "lam": 42.919320525786944, "p": 0.1, '
     '"radius": 0.5}'),
]

# What `l2p account --json` printed for each of its command lines in the
# tests, README and CI, with the override config that prices the same run:
# its delta is 2 T delta1, which ope_config halves back to delta1 = 1e-6.
_ACCOUNT_LINES = [
    ({"T": 1000, "delta": 0.002, "override": _override(10, 0.01, 0.1)},
     # account --eta 0.01 --p 0.1 --T 1000 --B 10 --delta1 1e-6
     '{"delta": 0.002, "epsilon": 1.3008681120439138, "notes": ["precondition '
     'eta*B*log(1/delta1)/p <= 1 not met"], "preconditions_met": false}'),
    ({"T": 100, "delta": 2e-4, "override": _override(1, 0.01, 0.5)},
     # account --eta 0.01 --p 0.5 --T 100 --B 1 --delta1 1e-6
     '{"delta": 0.00019999999999999998, "epsilon": 2.546532951074569, "notes": [], '
     '"preconditions_met": true}'),
    ({"T": 1000, "delta": 0.002, "override": _override(1, 0.01, 1.0)},
     # account --eta 0.01 --p 1 --T 1000 --B 1 --delta1 1e-6
     '{"delta": 0.002, "epsilon": 12.803775045764315, "notes": ["degenerate fake-switch '
     'probability p=1; run is not private"], "preconditions_met": false}'),
]


class TestPlan:
    @pytest.mark.parametrize(
        "fields, line", _TUNE_LINES,
        ids=["ope-1e5-10", "ope-1000-3", "ope-2e4-10", "oco-1000-3", "oco-1e4-3", "oco-10-2"],
    )
    def test_tune_lines_gain_only_the_regret_bound(self, tmp_path, capsys, fields, line):
        if fields.get("problem") == "oco":
            fields = {**fields, "adversary": _SPHERE}
        path = _write_config(tmp_path, **fields)
        assert main(["plan", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        cfg = json.loads(path.read_text())
        if cfg["problem"] == "ope":
            bound = regret_bound_ope(cfg["T"], cfg["d"], cfg["epsilon"], cfg["delta"])
        else:
            bound = regret_bound_oco(cfg["T"], cfg["d"], cfg["epsilon"], cfg["delta"], 1.0, 1.0)
        assert out == line[:-1] + f', "regret_bound": {bound!r}}}\n'

    @pytest.mark.parametrize("fields, budget", _ACCOUNT_LINES, ids=["B10-p0.1", "B1-p0.5", "B1-p1"])
    def test_account_lines_priced_alike(self, tmp_path, capsys, fields, budget):
        code, obj = _plan(tmp_path, capsys, **fields)
        assert code == 0
        assert (obj["delta0"], obj["delta1"]) == (0.0, 1e-6)
        assert json.dumps(obj["budget"], sort_keys=True) == budget

    @pytest.mark.parametrize(
        "fields",
        [{},
         {"problem": "oco", "T": 200, "lipschitz": 2.0, "diameter": 0.5,
          "adversary": {"kind": "iid-sphere", "seed": 1, "lipschitz": 2.0}},
         {"problem": "oco", "adversary": {"kind": "iid-sphere", "seed": 1},
          "override": _override(1, 0.01, 0.1)}],
        ids=["tuned-ope", "tuned-oco", "ball-override"],
    )
    def test_one_meaning_across_commands(self, tmp_path, capsys, fields):
        # plan's config and budget are the ones run records, and its bound
        # is the one sweep prints at the config's epsilon
        path = _write_config(tmp_path, reps=2, **fields)
        assert main(["plan", "--config", str(path)]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        tuned = ("B", "eta", "p", "delta0", "delta1", "eta_accounted")
        assert {k: plan[k] for k in tuned} == provenance["tuned"]
        assert plan["budget"] == provenance["budget"]
        # sweep tunes per epsilon, so it reads the config without its override
        path = _write_config(tmp_path, reps=2, **{**fields, "override": _MISSING})
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(path), "--epsilon-grid", "1.0", "--output", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[1].split(",")[3] == repr(plan["regret_bound"])

    @pytest.mark.parametrize(
        "fields, code",
        [({"T": 10, "d": 2, "epsilon": 1e-6}, 3),
         ({"override": _override(eta=0.5)}, 2),
         ({"problem": "oco", "adversary": _SPHERE, "override": _override(p=0.0)}, 2)],
        ids=["infeasible", "eta-above-cap", "ball-p-0"],
    )
    def test_refusal_prints_nothing(self, tmp_path, capsys, fields, code):
        assert _plan(tmp_path, capsys, **fields) == (code, "")

    def test_infinite_epsilon_is_strict_json_null(self, tmp_path, capsys):
        # p=0 makes no fake switch, so the budget's epsilon is infinite;
        # plan and run write it as null, which every JSON parser reads
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = _write_config(tmp_path, reps=2, override=_override(1, 0.01, 0.0))
        assert main(["plan", "--config", str(path)]) == 0
        plan = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "provenance.json").read_text()
        provenance = json.loads(text, parse_constant=refuse)
        for budget in (plan["budget"], provenance["budget"]):
            assert budget["epsilon"] is None and "epsilon is infinite" in budget["notes"]
            assert not budget["preconditions_met"]

    @pytest.mark.parametrize(
        "overrides",
        [o for o, i in zip(_MALFORMED, _MALFORMED_IDS) if i != "zero-reps"],
        ids=[i for i in _MALFORMED_IDS if i != "zero-reps"],
    )
    def test_malformed_config_exit_2(self, tmp_path, capsys, overrides):
        # every config run refuses as it loads; plan plays no replicates, so
        # a config without any still has a plan
        path = _write_config(tmp_path, **(overrides or {}))
        if overrides is None:
            path.write_text("[1, 2]")
        assert main(["plan", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "configuration error" in captured.err

    @pytest.mark.parametrize("command", ["tune", "account"])
    def test_removed_commands_exit_2(self, capsys, command):
        assert main([command]) == 2
        assert "invalid choice" in capsys.readouterr().err


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
        path = _write_config(tmp_path, override=_override())
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
        # the strawman's switch count is round((T eps)^(2/3)) = 14; the
        # replicate seeds and regrets are the ones lower-bound wrote at
        # --T 1000 --epsilon 0.05 --d 4 --reps 10 --seed 3
        path = _write_config(tmp_path, **_lower_bound(T=1000, eps=0.05, d=4, reps=10, seed=3))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "reps.csv").read_text().splitlines()
        assert lines[0] == ",".join(REP_CSV_COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(r[1]), r[6]) for r in rows] == list(zip(_STRAWMAN_SEEDS, _STRAWMAN_REGRETS))
        assert all(r[2:6] == ["1000", "", "", ""] and r[7:9] == ["14", "0"] for r in rows)
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert provenance["tuned"] is None and provenance["budget"] is None
        assert provenance["config"]["learner"] == "strawman"
        assert provenance["seeds"] == _STRAWMAN_SEEDS

    def test_lower_bound_single_expert(self, tmp_path, capsys):
        # one expert is its own best in hindsight: every regret is 0, and
        # nothing is printed beside it (lower-bound's stderr note went)
        path = _write_config(tmp_path, **_lower_bound(T=100, eps=0.1, d=1, reps=2))
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "out" / "reps.csv").read_text().splitlines()[1:]
        assert [line.split(",")[6] for line in lines] == ["0.0"] * 2

    def test_lower_bound_clamp_reported_once(self, tmp_path, capsys):
        # the library's warning is the one report; the regrets are lower-bound's
        # at --T 16 --epsilon 1 --d 2 --reps 3 --seed 0
        path = _write_config(tmp_path, **_lower_bound(T=16, eps=1.0, d=2, reps=3, seed=0))
        with pytest.warns(UserWarning, match="clamped to T") as record:
            assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        assert len(record) == 1
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "out" / "reps.csv").read_text().splitlines()[1:]
        assert [line.split(",")[6] for line in lines] == ["3.0", "2.0", "4.0"]

    def test_lower_bound_sweep_switches_per_epsilon(self, tmp_path, capsys):
        # each grid epsilon sets its own switch count; the bound is the DP-OPE rate
        path = _write_config(tmp_path, **_lower_bound(T=1000, eps=0.05, d=4, reps=4, seed=3))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(path), "--epsilon-grid", "0.05", "0.5"]
        assert main([*argv, "--output", str(out)]) == 0
        stream = epoch_lower_bound_stream(1000, 0.05, 4, 3)
        for line, (eps, switches) in zip(out.read_text().splitlines()[1:], [(0.05, 14), (0.5, 63)]):
            regrets = [strawman_fixed_switch(stream, switches, replicate_seed(3, i)).regret
                       for i in range(4)]
            mean, std = float(np.mean(regrets)), float(np.std(regrets, ddof=1))
            assert line == f"{eps!r},{mean!r},{std!r},{regret_bound_ope(1000, 4, eps, 1e-6)!r}"


class TestAudit:
    _OVERRIDE = {"B": 1, "eta": 0.1, "p": 0.5}

    def test_marginal_json_lines(self, tmp_path, capsys):
        # one JSON line per batch, each naming its batch
        argv = _audit(tmp_path, "marginal", reps=20_000, override=self._OVERRIDE)
        assert main(argv) == 0
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [obj["name"] for obj in objs] == [f"marginal_tv[s={s}]" for s in range(1, 6)]
        assert all(obj["passed"] is True for obj in objs)

    def test_marginal_prints_the_profile(self, tmp_path, capsys):
        # every row of marginal_tv_profile on the config's run, stream and
        # seed, each naming its batch
        argv = _audit(tmp_path, "marginal", reps=20_000, seed=3, override=self._OVERRIDE)
        stream = bernoulli_experts(3, 5, np.linspace(0.3, 0.7, 3), 3)
        config = L2PConfig(T=5, B=1, eta=0.1, p=0.5, delta0=0.0, delta1=1e-6 / 10)
        want = [r.to_json_line() for r in marginal_tv_profile(config, stream, 20_000, 3)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == want

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
            tmp_path, T=20, d=2, reps=300, base_seed=7,
            adversary={"kind": "epoch_lower_bound", "epsilon": 0.2, "seed": 1},
        )
        stream = epoch_lower_bound_stream(20, 0.2, 2, 1)
        config = tune_ope(20, 2, 1.0, 1e-6)
        neighbor = neighbor_of(stream, 10, 1.0 - stream.values[10])
        want = empirical_epsilon(config, stream, neighbor, 300, 7).to_json_line() + "\n"
        assert main(["audit", "epsilon", "--config", str(path)]) == 0
        assert capsys.readouterr().out == want

    def test_epsilon_at_p_zero_is_strict_json(self, tmp_path, capsys):
        # p=0 prices an infinite budget epsilon, the audit's threshold, which
        # the line writes as null, as every JSON parser reads it
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        argv = _audit(tmp_path, "epsilon", T=10, d=2, reps=200, override={"B": 2, "eta": 0.01, "p": 0.0})
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert obj["threshold"] is None and obj["passed"] is True

    @pytest.mark.parametrize("s", ["0", "6"])
    def test_marginal_batch_out_of_range_exit_2(self, tmp_path, capsys, s):
        # no audit takes --s: argparse refuses it, in or out of 1..5
        argv = _audit(tmp_path, "marginal", "--s", s, reps=20_000, override=self._OVERRIDE)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --s" in captured.err

    @pytest.mark.parametrize("test", ["ratio", "epsilon", "switches"])
    def test_s_outside_marginal_exit_2(self, tmp_path, capsys, test):
        # no audit takes --s; argparse refuses it before the config is read
        argv = _audit(tmp_path, test, "--s", "3", T=20, reps=50, seed=1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --s" in captured.err

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
