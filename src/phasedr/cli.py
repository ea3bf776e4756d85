"""Command-line front end for the experiment runners.

Subcommands: gen-image, spectral-cert, local-rate, global, noise-sweep,
padding-sweep.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    ExperimentConfig,
    run_global,
    run_local_rate,
    run_noise_sweep,
    run_padding_sweep,
    run_spectral_cert,
)
from .forward import VARIANT_MULTI
from .grids import GridShape
from .images import KIND_RPP, KIND_TCB, ImageSpec, gen_image, support_rank
from .io import save_pgm_pair
from .solvers import (
    INIT_CONSTANT,
    INIT_NEAR,
    INIT_RANDOM,
    NO_SECTOR,
    InitSpec,
    SectorSpec,
    SolverConfig,
)


def parse_shape(text: str) -> GridShape:
    try:
        return GridShape(tuple(int(part) for part in text.lower().split("x")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from None


def parse_sector(text: str) -> SectorSpec:
    try:
        alpha, beta = (float(p) for p in text.split(","))
        return SectorSpec(alpha=alpha, beta=beta)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sector {text!r}: {exc}") from None


def parse_init(text: str) -> InitSpec:
    if text == INIT_RANDOM or text == INIT_CONSTANT:
        return InitSpec(kind=text)
    if text.startswith("near:"):
        return InitSpec(kind=INIT_NEAR, delta=float(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"bad init {text!r} (want ri, ci or near:DELTA)")


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}") from None


def split_variant(text: str) -> tuple[str, int]:
    if text.startswith("multi:"):
        return VARIANT_MULTI, int(text.split(":", 1)[1])
    return text, 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phasedr", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def instance(p, trials_default=20):
        p.add_argument("--shape", type=parse_shape, default=GridShape((8, 8)))
        p.add_argument("--variant", default="one-and-half",
                       help="one-mask, one-and-half, two-mask or multi:L")
        p.add_argument("--margin", type=int, default=1)
        p.add_argument("--image", default=KIND_RPP, choices=[KIND_RPP, KIND_TCB])
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    def runner(p, *options):
        """The instance options, the solver options every runner reads, and
        those of `options` ("init", "ntilde", "nsr") this runner reads."""
        instance(p)
        p.add_argument("--sector", type=parse_sector, default=NO_SECTOR,
                       help="a,b for the sector [-a*pi, b*pi] (default: 1,1, no constraint)")
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
        p.add_argument("--tol", type=float, default=SolverConfig.tol)
        if "init" in options:
            p.add_argument("--init", type=parse_init, default=InitSpec())
        if "ntilde" in options:
            p.add_argument("--ntilde", type=parse_floats, default=ExperimentConfig.ntilde_ratios,
                           help="padding ratios ntilde/n")
        if "nsr" in options:
            p.add_argument("--nsr", type=parse_floats, default=ExperimentConfig.nsr_grid)

    g = sub.add_parser("gen-image", help="write a test image as a PGM pair")
    g.add_argument("--kind", default=KIND_RPP, choices=[KIND_RPP, KIND_TCB])
    g.add_argument("--shape", type=parse_shape, default=GridShape((16, 16)))
    g.add_argument("--sector", type=parse_sector, default=NO_SECTOR)
    g.add_argument("--margin", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path stem")

    s = sub.add_parser("spectral-cert", help="certify the spectral gap lambda2 < 1")
    instance(s, trials_default=1)

    # local-rate reads only the init's delta: every solve starts near.
    runner(sub.add_parser("local-rate"), "init")
    runner(sub.add_parser("global"))
    runner(sub.add_parser("noise-sweep"), "init", "nsr")
    runner(sub.add_parser("padding-sweep"), "ntilde")

    return parser


def _experiment_config(args, experiment: str) -> ExperimentConfig:
    """The runner's configuration; options it does not take keep their defaults."""
    variant, patterns = split_variant(args.variant)
    options = vars(args)
    solver = SolverConfig(**{key: options[key] for key in ("max_iters", "tol", "init", "sector")
                             if key in options})
    image = ImageSpec(kind=args.image, shape=args.shape, margin=args.margin,
                      alpha=solver.sector.alpha, beta=solver.sector.beta)
    return ExperimentConfig(
        experiment=experiment, image=image, variant=variant,
        patterns=patterns, trials=args.trials, base_seed=args.seed, solver=solver,
        nsr_grid=options.get("nsr", ExperimentConfig.nsr_grid),
        ntilde_ratios=options.get("ntilde", ExperimentConfig.ntilde_ratios),
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_usage()
        return 2

    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"phasedr: config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"phasedr: numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "gen-image":
        spec = ImageSpec(kind=args.kind, shape=args.shape, margin=args.margin,
                         alpha=args.sector.alpha, beta=args.sector.beta, seed=args.seed)
        grid = gen_image(spec)
        paths = save_pgm_pair(args.out, grid)
        print(f"gen-image: {args.kind} {args.shape} margin={args.margin} "
              f"support_rank={support_rank(grid)} -> {paths[0]}")
        return 0

    runners = {
        "spectral-cert": run_spectral_cert,
        "local-rate": run_local_rate,
        "global": run_global,
        "noise-sweep": run_noise_sweep,
        "padding-sweep": run_padding_sweep,
    }
    name = args.command
    cfg = _experiment_config(args, name)
    result = runners[name](cfg)
    summary = _summarize(name, result)
    print(f"{name}: {summary}" + (f" -> {result.csv_path}" if result.csv_path else ""))
    # Only the certificate has a verdict that can fail.
    return 0 if getattr(result, "certified", True) else 3


def _summarize(name: str, result) -> str:
    if name == "spectral-cert":
        return (f"{len(result.rows)} trial(s), max lambda2 = {result.max_lambda2:.6f} "
                f"({result.verdict})")
    if name == "local-rate":
        lams = [t["lambda2"] for t in result.trials]
        rates = [t["fdr_rate"] for t in result.trials if t["fdr_geometric"]]
        lam = f"lambda2 in [{min(lams):.4f}, {max(lams):.4f}]" if lams else "no trials"
        rate = f", median FDR rate {np.median(rates):.4f}" if rates else ""
        return lam + rate
    if name == "global":
        parts = [f"{init}@{thr:g}: {rate:.0%}" for (init, thr), rate in sorted(result.success.items())]
        return ", ".join(parts)
    if name == "noise-sweep":
        slopes = ", ".join(f"{b}: {s:.2f}" for b, s in sorted(result.slopes.items()))
        return f"error-vs-NSR slopes {{{slopes}}} (reference 2.2 at full scale)"
    # padding-sweep
    pairs = ", ".join(f"{r:g}: {result.mean_error[r]:.2e}" for r in sorted(result.mean_error))
    return f"mean error by ratio {{{pairs}}}, trend corr {result.trend_correlation:.2f}"


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
