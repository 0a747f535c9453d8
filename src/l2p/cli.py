"""Command-line front end.

Subcommands: run, sweep, lower-bound, account, audit, tune. Long-form
flags only. ``run``, ``sweep`` and ``audit`` read the same JSON run
config (``--config``): one adversary stream, a tuned or overridden
config, and ``reps`` replicate runs seeded from ``base_seed``. Exit
codes: 0 success, 2 configuration or usage error, 3 tuner
infeasibility, 4 sampler failure. All CSV output is RFC-4180, UTF-8,
LF-terminated, and byte-reproducible from (config, version).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
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
from .harness import monte_carlo, strawman_fixed_switch
from .measures import SamplerError
from .seeding import replicate_seed
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


def _load_run_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    required = ["T", "d", "epsilon", "delta", "reps", "base_seed"]
    missing = [k for k in ["problem", *required, "adversary"] if k not in cfg]
    if missing:
        raise ConfigError(f"config missing fields: {', '.join(missing)}")
    if not isinstance(cfg["adversary"], dict):
        raise ConfigError("adversary must be a JSON object")
    if cfg["problem"] not in ("ope", "oco"):
        raise ConfigError("problem must be 'ope' or 'oco'")
    override = cfg.get("override")
    if override is not None and (type(override) is not dict or set(override) != {"B", "eta", "p"}):
        raise ConfigError("override block must be an object setting exactly B, eta and p")
    fields = dict(cfg)
    for block in ("override", "adversary"):
        fields.update((f"{block}.{k}", v) for k, v in (cfg.get(block) or {}).items())
    values = {k: fields[k] for k in _NUMERIC if k in fields}
    bad = [k for k, v in values.items() if type(v) not in (int, float) or not abs(v) < math.inf]
    if bad:
        raise ConfigError(f"config fields must be finite numbers: {', '.join(bad)}")
    fractional = [k for k in _INTEGRAL if k in values and values[k] != int(values[k])]
    if fractional:
        raise ConfigError(f"config fields must be integers: {', '.join(fractional)}")
    return cfg


def _build_stream(cfg: dict):
    adv = cfg["adversary"]
    kind = adv.get("kind")
    T, d = int(cfg["T"]), int(cfg["d"])
    seed = int(adv.get("seed", 0))
    if kind == "bernoulli":
        means = adv.get("means", list(np.linspace(0.35, 0.65, d)))
        return bernoulli_experts(d, T, means, seed)
    if kind == "epoch_lower_bound":
        return epoch_lower_bound_stream(T, float(adv["epsilon"]), d, seed)
    if kind in ("iid-sphere", "drift"):
        return linear_oco_stream(d, T, float(adv.get("lipschitz", 1.0)), seed, kind)
    raise ConfigError(f"unknown adversary kind {kind!r}")


def _lipschitz_diameter(cfg: dict) -> tuple[float, float]:
    """The oco problem's Lipschitz bound L and ball diameter D, each 1.0 unless set."""
    return float(cfg.get("lipschitz", 1.0)), float(cfg.get("diameter", 1.0))


def _build_config(cfg: dict) -> L2PConfig:
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


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    cfg = _load_run_config(args.config)
    stream = _build_stream(cfg)
    config = _build_config(cfg)
    reps, base_seed = int(cfg["reps"]), int(cfg["base_seed"])
    summary = monte_carlo(config, stream, reps, base_seed)
    outdir = Path(args.output or cfg.get("output_dir", "."))
    buf = io.StringIO()
    summary.write_csv(buf)
    _write(outdir / "reps.csv", buf.getvalue())
    _write(outdir / "summary.json", summary.to_json() + "\n")
    provenance = {
        "config": cfg,
        "library_version": __version__,
        "tuned": {
            "B": config.B,
            "eta": config.eta,
            "p": config.p,
            "delta0": config.delta0,
            "delta1": config.delta1,
            "eta_accounted": config.eta_accounted,
        },
        "budget": config_budget(config).to_dict(),
        "seeds": [replicate_seed(base_seed, i) for i in range(reps)],
    }
    _write(outdir / "provenance.json", json.dumps(provenance, sort_keys=True) + "\n")
    print(f"wrote {outdir}/reps.csv, summary.json, provenance.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    if cfg.get("override") is not None:
        raise ConfigError("sweep tunes a config per epsilon; it takes no override block")
    grid = [float(v) for v in args.epsilon_grid]
    stream = _build_stream(cfg)
    T, d, delta = int(cfg["T"]), int(cfg["d"]), float(cfg["delta"])
    rows = ["epsilon,mean_regret,std_regret,theory_bound"]
    for eps in grid:
        local = dict(cfg)
        local["epsilon"] = eps
        config = _build_config(local)
        summary = monte_carlo(config, stream, int(cfg["reps"]), int(cfg["base_seed"]))
        if cfg["problem"] == "ope":
            bound = regret_bound_ope(T, d, eps, delta)
        else:
            bound = regret_bound_oco(T, d, eps, delta, *_lipschitz_diameter(cfg))
        rows.append(
            f"{eps!r},{summary.mean_regret!r},{summary.std_regret!r},{bound!r}"
        )
    out = Path(args.output or "sweep.csv")
    _write(out, "\n".join(rows) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_lower_bound(args) -> int:
    T, eps, d, reps = args.T, args.epsilon, args.d, args.reps
    if reps < 1:
        raise ConfigError("--reps must be at least 1")
    stream = epoch_lower_bound_stream(T, eps, d, args.seed)
    comparator = math.sqrt(stream.n_epochs) * stream.epoch_len
    budget = max(1, round((T * eps) ** (2.0 / 3.0)))
    rows = ["rep,seed,strawman_regret,comparator,clamped"]
    for i in range(reps):
        seed = replicate_seed(args.seed, i)
        result = strawman_fixed_switch(stream, budget, seed)
        rows.append(f"{i},{seed},{result.regret!r},{comparator!r},{int(stream.clamped)}")
    out = Path(args.output or "lower_bound.csv")
    _write(out, "\n".join(rows) + "\n")
    if d == 1:
        print("note: single expert, regret is identically 0", file=sys.stderr)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_account(args) -> int:
    config = L2PConfig(
        T=args.T, B=args.B, eta=args.eta, p=args.p, delta0=args.delta0, delta1=args.delta1
    )
    budget = config_budget(config)
    if args.json:
        print(json.dumps(budget.to_dict(), sort_keys=True))
    else:
        print(f"epsilon={budget.epsilon!r}")
        print(f"delta={budget.delta!r}")
        print(f"preconditions_met={budget.preconditions_met}")
        for note in budget.notes:
            print(f"note={note}")
    return EXIT_OK


def cmd_tune(args) -> int:
    if args.problem == "ope":
        if args.L is not None or args.D is not None:
            raise ConfigError("--L and --D apply to oco only")
        config = tune_ope(args.T, args.d, args.epsilon, args.delta)
    else:
        L, D = 1.0 if args.L is None else args.L, 1.0 if args.D is None else args.D
        config = tune_oco(args.T, args.d, args.epsilon, args.delta, L, D)
    out = {
        "T": config.T,
        "B": config.B,
        "eta": config.eta,
        "p": config.p,
        "delta0": config.delta0,
        "delta1": config.delta1,
        "beta": config.beta,
        "lam": config.lam,
        "radius": config.radius,
        "eta_accounted": config.eta_accounted,
        "budget": config_budget(config).to_dict(),
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.s is not None and args.test != "marginal":
        raise ConfigError("--s applies to the marginal audit only")
    cfg = _load_run_config(args.config)
    if cfg["problem"] != "ope":
        raise ConfigError("audits run on experts configs")
    if "output_dir" in cfg:
        raise ConfigError("an audit writes no files; output_dir is unused")
    stream = _build_stream(cfg)
    config = _build_config(cfg)
    reps, base_seed = int(cfg["reps"]), int(cfg["base_seed"])
    if args.test == "marginal":
        if args.s is not None and not 1 <= args.s <= config.n_batches:
            raise ConfigError(f"--s must lie in 1..{config.n_batches}")
        reports = marginal_tv_profile(config, stream, reps, base_seed)
        for report in reports if args.s is None else [reports[args.s - 1]]:
            print(report.to_json_line())
    elif args.test == "epsilon":
        t = config.T // 2
        neighbor = neighbor_of(stream, t, 1.0 - stream.values[t])
        print(empirical_epsilon(config, stream, neighbor, reps, base_seed).to_json_line())
    else:
        audit = ratio_range_check if args.test == "ratio" else switch_statistics
        print(audit(config, stream, reps, base_seed).to_json_line())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2p", description="Private online learning by lazy switching"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run replicated games from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="regret vs epsilon over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--epsilon-grid", nargs="+", required=True)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_lb = sub.add_parser("lower-bound", help="epoch-stream demo for limited switching")
    p_lb.add_argument("--T", type=int, required=True)
    p_lb.add_argument("--epsilon", type=float, required=True)
    p_lb.add_argument("--d", type=int, required=True)
    p_lb.add_argument("--reps", type=int, default=100)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.add_argument("--output", default=None)
    p_lb.set_defaults(func=cmd_lower_bound)

    p_acc = sub.add_parser("account", help="print the budget of the experts run these flags set")
    p_acc.add_argument("--eta", type=float, required=True)
    p_acc.add_argument("--p", type=float, required=True)
    p_acc.add_argument("--T", type=int, required=True)
    p_acc.add_argument("--B", type=int, required=True)
    p_acc.add_argument("--delta0", type=float, default=0.0)
    p_acc.add_argument("--delta1", type=float, required=True)
    p_acc.add_argument("--json", action="store_true")
    p_acc.set_defaults(func=cmd_account)

    p_tune = sub.add_parser("tune", help="closed-form parameter tuning")
    p_tune.add_argument("problem", choices=["ope", "oco"])
    p_tune.add_argument("--T", type=int, required=True)
    p_tune.add_argument("--d", type=int, required=True)
    p_tune.add_argument("--epsilon", type=float, required=True)
    p_tune.add_argument("--delta", type=float, required=True)
    p_tune.add_argument("--L", type=float, default=None)
    p_tune.add_argument("--D", type=float, default=None)
    p_tune.set_defaults(func=cmd_tune)

    p_audit = sub.add_parser("audit", help="distribution and privacy checks on a run config")
    p_audit.add_argument("test", choices=["marginal", "ratio", "epsilon", "switches"])
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--s", type=int, default=None)
    p_audit.set_defaults(func=cmd_audit)
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
