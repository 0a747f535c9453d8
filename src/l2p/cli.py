"""Command-line front end.

Subcommands: run, sweep, audit, plan. Long-form flags only. Each reads
one JSON run config (``--config``): an adversary stream, a learner and
``reps`` replicate runs seeded from ``base_seed``. The learner is l2p,
tuned or overridden, or, in ``run`` and ``sweep``, the strawman
(``"learner": "strawman"``). The stream is a generator's or, for
``{"kind": "matrix", "path": ...}``, a ``.npy`` file's (T, d) matrix of
expert losses or gradients, as ``problem`` says. A key nothing reads is
refused. Outputs go where ``--output`` says: ``run`` writes its three
files into that directory (the current one by default) and ``sweep``
its CSV into that file (``sweep.csv`` by default). Exit codes: 0
success, 2 configuration or usage error, 3 tuner infeasibility, 4
sampler failure. All CSV output is RFC-4180, UTF-8, LF-terminated, and
byte-reproducible from (config, version), and from (config, matrix
file, version) for a matrix.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .accountant import (
    TunerError,
    ball_config,
    config_budget,
    ope_config,
    regret_bound_oco,
    regret_bound_ope,
    tune_oco,
    tune_ope,
)
from .adversaries import (
    LossStream,
    bernoulli_experts,
    epoch_lower_bound_stream,
    linear_oco_stream,
    neighbor_of,
)
from .audit import (
    empirical_epsilon,
    marginal_tv_profile,
    ratio_range_check,
    switch_statistics,
)
from .harness import MonteCarloSummary, monte_carlo, strawman_fixed_switch
from .measures import SamplerError
from .transform import ConfigError, L2PConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TUNER = 3
EXIT_SAMPLER = 4

SCHEMA_VERSION = 1


# The numeric fields the commands read, as "block.key" for nested ones:
# each must be a finite number when present, the integral ones a whole one.
_INTEGRAL = ("T", "d", "reps", "base_seed", "override.B", "adversary.seed")
_NUMERIC = (
    *_INTEGRAL, "epsilon", "delta", "lipschitz", "diameter", "override.eta", "override.p",
    "adversary.lipschitz", "adversary.epsilon",
)

# The keys a run config may set: the required ones, then the top level's
# others, and each adversary kind's beside "kind". Any other key would go
# unread, so it is refused.
_REQUIRED = ("problem", "T", "d", "epsilon", "delta", "reps", "base_seed", "adversary")
_CONFIG_KEYS = (*_REQUIRED, "schema", "learner", "override", "lipschitz", "diameter")
_ADVERSARY_KEYS = {
    "bernoulli": ("seed", "means"), "epoch_lower_bound": ("seed", "epsilon"),
    "iid-sphere": ("seed", "lipschitz"), "drift": ("seed", "lipschitz"), "matrix": ("path",),
}

# The fields of a built config that provenance.json records as "tuned"
_TUNED = ("B", "eta", "p", "delta0", "delta1", "eta_accounted")


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number a finite double holds; a bool is not one."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _load_run_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    schema = cfg.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    missing = [k for k in _REQUIRED if k not in cfg]
    if missing:
        raise ConfigError(f"config missing fields: {', '.join(missing)}")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    if not isinstance(cfg["adversary"], dict):
        raise ConfigError("adversary must be a JSON object")
    if cfg["problem"] not in ("ope", "oco"):
        raise ConfigError("problem must be 'ope' or 'oco'")
    if cfg["problem"] == "ope" and ("lipschitz" in cfg or "diameter" in cfg):
        raise ConfigError("lipschitz and diameter apply to oco problems only")
    override = cfg.get("override")
    if override is not None and (type(override) is not dict or set(override) != {"B", "eta", "p"}):
        raise ConfigError("override block must be an object setting exactly B, eta and p")
    fields = dict(cfg)
    for block in ("override", "adversary"):
        fields.update((f"{block}.{k}", v) for k, v in (cfg.get(block) or {}).items())
    values = {k: fields[k] for k in _NUMERIC if k in fields}
    bad = [k for k, v in values.items() if not _is_number(v)]
    if bad:
        raise ConfigError(f"config fields must be finite numbers: {', '.join(bad)}")
    fractional = [k for k in _INTEGRAL if k in values and values[k] != int(values[k])]
    if fractional:
        raise ConfigError(f"config fields must be integers: {', '.join(fractional)}")
    small = [k for k in ("T", "d") if values[k] < 1]
    if small:
        raise ConfigError(f"config fields must be at least 1: {', '.join(small)}")
    adversary = cfg["adversary"]
    kind = adversary.get("kind")
    if type(kind) is not str or kind not in _ADVERSARY_KEYS:
        raise ConfigError(f"unknown adversary kind {kind!r}")
    keys = ("kind", *_ADVERSARY_KEYS[kind])
    extra = sorted(set(adversary) - set(keys))
    if extra:
        allowed = f"{', '.join(keys[:-1])} and {keys[-1]}"
        raise ConfigError(f"the {kind} adversary takes only {allowed}, not {', '.join(extra)}")
    if kind == "matrix" and type(adversary.get("path")) is not str:
        raise ConfigError("a matrix adversary needs a path string")
    means = adversary.get("means", [])
    if type(means) is not list or not all(map(_is_number, means)):
        raise ConfigError("adversary.means must be a list of finite numbers")
    if kind == "epoch_lower_bound" and "epsilon" not in adversary:
        raise ConfigError("an epoch_lower_bound adversary needs epsilon")
    if cfg.get("learner", "l2p") not in ("l2p", "strawman"):
        raise ConfigError("learner must be 'l2p' or 'strawman'")
    if cfg.get("learner") == "strawman" and (cfg["problem"] != "ope" or "override" in cfg):
        raise ConfigError("the strawman learner plays experts configs without an override")
    return cfg


def _switch_count(T: int, eps: float) -> int:
    """The strawman's switches at target ``eps``: ``max(1, round((T eps)^(2/3)))``, at most T."""
    if not (_is_number(eps) and eps > 0):
        raise ConfigError("the strawman learner needs a finite epsilon above 0")
    switches = max(1, round((T * eps) ** (2.0 / 3.0)))
    if switches > T:
        raise ConfigError(f"the strawman's {switches} switches at epsilon {eps!r} exceed T={T}")
    return switches


def _load_matrix(path: str) -> np.ndarray:
    """The real numeric array a ``.npy`` file holds, memory-mapped read-only.

    Only ``LossStream`` checks its shape and values; this refuses what
    would reach it as something else: an empty file, an ``.npz``
    archive or any other file that is not a ``.npy`` array, one cut
    short, and a complex or structured array, which a float64
    conversion would cut to its real part or silently flatten.
    """
    with open(path, "rb") as fh:
        magic = fh.read(6)
    if magic != b"\x93NUMPY":
        what = "an archive, not one .npy array" if magic[:2] == b"PK" else "not a .npy array"
        raise ConfigError(f"matrix file {path} is {what if magic else 'empty'}")
    try:
        values = np.load(path, allow_pickle=False, mmap_mode="r")
    except ValueError as exc:
        # numpy's words for a header, or data, shorter than the header says
        if "EOF" not in str(exc) and "mmap length" not in str(exc):
            raise
        raise ConfigError(f"matrix file {path} is cut short") from None
    if values.dtype.kind not in "biuf":
        raise ConfigError(f"matrix file {path} holds {values.dtype} values, not real numbers")
    return values


def _build_stream(cfg: dict):
    adv = cfg["adversary"]
    kind = adv.get("kind")
    T, d = int(cfg["T"]), int(cfg["d"])
    if kind == "matrix":
        # the problem says what the rows are: gradients carry the config's bound
        lipschitz = _lipschitz_diameter(cfg)[0] if cfg["problem"] == "oco" else None
        return LossStream("matrix", d, T, 0, _load_matrix(adv["path"]), lipschitz=lipschitz)
    seed = int(adv.get("seed", 0))
    if kind == "bernoulli":
        means = adv.get("means", list(np.linspace(0.35, 0.65, d)))
        return bernoulli_experts(d, T, means, seed)
    if kind == "epoch_lower_bound":
        return epoch_lower_bound_stream(T, float(adv["epsilon"]), d, seed)
    return linear_oco_stream(d, T, float(adv.get("lipschitz", 1.0)), seed, kind)


def _lipschitz_diameter(cfg: dict) -> tuple[float, float]:
    """The oco problem's Lipschitz bound L and ball diameter D, each 1.0 unless set."""
    return float(cfg.get("lipschitz", 1.0)), float(cfg.get("diameter", 1.0))


def _build_config(cfg: dict) -> L2PConfig:
    if cfg.get("learner", "l2p") != "l2p":
        raise ConfigError("the strawman learner has no l2p config to tune, price or audit")
    T, d = int(cfg["T"]), int(cfg["d"])
    eps, delta = float(cfg["epsilon"]), float(cfg["delta"])
    override = cfg.get("override")
    if cfg["problem"] == "ope":
        if override is None:
            return tune_ope(T, d, eps, delta)
        return ope_config(
            T, int(override["B"]), float(override["eta"]), float(override["p"]), delta
        )
    L, D = _lipschitz_diameter(cfg)
    if override is None:
        return tune_oco(T, d, eps, delta, L, D)
    return ball_config(
        T, d, int(override["B"]), float(override["eta"]), float(override["p"]), delta, L, D
    )


def _regret_bound(cfg: dict, eps: float) -> float:
    """The regret rate of the config's problem at target ``eps``."""
    T, d, delta = int(cfg["T"]), int(cfg["d"]), float(cfg["delta"])
    if not (eps > 0.0 and delta > 0.0):
        raise ConfigError("a regret bound needs epsilon and delta above 0")
    if cfg["problem"] == "ope":
        return regret_bound_ope(T, d, eps, delta)
    return regret_bound_oco(T, d, eps, delta, *_lipschitz_diameter(cfg))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _play(cfg: dict, stream: LossStream, eps: float) -> MonteCarloSummary:
    """The config's replicates at target ``eps``: l2p's tuned or overridden
    config, or the strawman with ``_switch_count(T, eps)`` switches."""
    reps, base_seed = int(cfg["reps"]), int(cfg["base_seed"])
    if cfg.get("learner", "l2p") == "l2p":
        return monte_carlo(_build_config({**cfg, "epsilon": eps}), stream, reps, base_seed)
    play = partial(strawman_fixed_switch, stream, _switch_count(stream.T, eps))
    return monte_carlo(None, stream, reps, base_seed, play)


def cmd_run(args) -> int:
    cfg = _load_run_config(args.config)
    stream = _build_stream(cfg)
    summary = _play(cfg, stream, float(cfg["epsilon"]))
    config = summary.config
    outdir = Path(args.output)
    buf = io.StringIO()
    summary.write_csv(buf)
    _write(outdir / "reps.csv", buf.getvalue())
    _write(outdir / "summary.json", summary.to_json() + "\n")
    provenance = {
        "config": cfg,
        "library_version": __version__,
        "tuned": None if config is None else {k: getattr(config, k) for k in _TUNED},
        "budget": None if config is None else config_budget(config).to_dict(),
        "seeds": [r.seed for r in summary.results],
    }
    text = json.dumps(provenance, sort_keys=True, allow_nan=False)
    _write(outdir / "provenance.json", text + "\n")
    print(f"wrote {outdir}/reps.csv, summary.json, provenance.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    if cfg.get("override") is not None:
        raise ConfigError("sweep tunes a config per epsilon; it takes no override block")
    grid = [float(v) for v in args.epsilon_grid]
    stream = _build_stream(cfg)
    rows = ["epsilon,mean_regret,std_regret,theory_bound"]
    for eps in grid:
        summary, bound = _play(cfg, stream, eps), _regret_bound(cfg, eps)
        rows.append(f"{eps!r},{summary.mean_regret!r},{summary.std_regret!r},{bound!r}")
    out = Path(args.output or "sweep.csv")
    _write(out, "\n".join(rows) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_run_config(args.config)
    if cfg["problem"] != "ope":
        raise ConfigError("audits run on experts configs")
    stream = _build_stream(cfg)
    config = _build_config(cfg)
    reps, base_seed = int(cfg["reps"]), int(cfg["base_seed"])
    if args.test == "marginal":
        for report in marginal_tv_profile(config, stream, reps, base_seed):
            print(report.to_json_line())
    elif args.test == "epsilon":
        t = config.T // 2
        neighbor = neighbor_of(stream, t, 1.0 - stream.values[t])
        print(empirical_epsilon(config, stream, neighbor, reps, base_seed).to_json_line())
    else:
        audit = ratio_range_check if args.test == "ratio" else switch_statistics
        print(audit(config, stream, reps, base_seed).to_json_line())
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _load_run_config(args.config)
    config = _build_config(cfg)
    out = {k: getattr(config, k) for k in (*_TUNED, "T", "beta", "lam", "radius")}
    out["budget"] = config_budget(config).to_dict()
    out["regret_bound"] = _regret_bound(cfg, float(cfg["epsilon"]))
    print(json.dumps(out, sort_keys=True, allow_nan=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2p", description="Private online learning by lazy switching"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run replicated games from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=".")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="regret vs epsilon over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--epsilon-grid", nargs="+", required=True)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="distribution and privacy checks on a run config")
    p_audit.add_argument("test", choices=["marginal", "ratio", "epsilon", "switches"])
    p_audit.add_argument("--config", required=True)
    p_audit.set_defaults(func=cmd_audit)

    p_plan = sub.add_parser("plan", help="tuned config, budget and regret bound of a run config")
    p_plan.add_argument("--config", required=True)
    p_plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TunerError as exc:
        print(f"tuner infeasibility: {exc}", file=sys.stderr)
        return EXIT_TUNER
    except SamplerError as exc:
        print(f"sampler failure: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
