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
    make_instance,
    run_global,
    run_local_rate,
    run_noise_sweep,
    run_padding_sweep,
)
from .forward import VARIANT_MULTI
from .grids import GridShape
from .images import KIND_RPP, KIND_TCB, ImageSpec, gen_image, support_rank
from .io import save_pgm_pair, write_csv
from .solvers import (
    INIT_CONSTANT,
    INIT_NEAR,
    INIT_RANDOM,
    NO_SECTOR,
    InitSpec,
    SectorSpec,
    SolverConfig,
)
from .spectral import (
    CSV_FIELDS,
    DENSE_GUARD,
    lambda2_power,
    linearize_at_solution,
    report_csv_row,
    svd_oracle,
)


def parse_shape(text: str) -> GridShape:
    try:
        return GridShape(tuple(int(part) for part in text.lower().split("x")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from None


def parse_sector(text: str) -> SectorSpec:
    try:
        alpha, beta = (float(p) for p in text.split(","))
        return SectorSpec(alpha=alpha, beta=beta, active=True)
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

    def common(p):
        instance(p)
        p.add_argument("--sector", type=parse_sector, default=None,
                       help="a,b for the sector [-a*pi, b*pi] (default: none)")
        p.add_argument("--init", type=parse_init, default=InitSpec(kind=INIT_RANDOM))
        p.add_argument("--max-iters", type=int, default=2000)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--ntilde", type=parse_floats, default=(4.0, 5.0, 6.0, 7.0, 8.0),
                       help="padding ratios ntilde/n")
        p.add_argument("--nsr", type=parse_floats, default=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2))

    g = sub.add_parser("gen-image", help="write a test image as a PGM pair")
    g.add_argument("--kind", default=KIND_RPP, choices=[KIND_RPP, KIND_TCB])
    g.add_argument("--shape", type=parse_shape, default=GridShape((16, 16)))
    g.add_argument("--sector", type=parse_sector, default=None)
    g.add_argument("--margin", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path stem")

    s = sub.add_parser("spectral-cert", help="certify the spectral gap lambda2 < 1")
    instance(s, trials_default=1)

    for name in ("local-rate", "global", "noise-sweep", "padding-sweep"):
        common(sub.add_parser(name))

    return parser


def _image_spec(args) -> ImageSpec:
    sector = args.sector if args.sector is not None else NO_SECTOR
    return ImageSpec(
        kind=args.image, shape=args.shape, margin=args.margin,
        alpha=sector.alpha if sector.active else 1.0,
        beta=sector.beta if sector.active else 1.0,
    )


def _experiment_config(args, experiment: str, algorithm: str = "fdr") -> ExperimentConfig:
    variant, patterns = split_variant(args.variant)
    sector = args.sector if args.sector is not None else NO_SECTOR
    solver = SolverConfig(
        algorithm=algorithm, max_iters=args.max_iters, tol=args.tol,
        init=args.init, sector=sector,
    )
    return ExperimentConfig(
        experiment=experiment, image=_image_spec(args), variant=variant,
        patterns=patterns, trials=args.trials, base_seed=args.seed,
        solver=solver, nsr_grid=args.nsr, ntilde_ratios=args.ntilde, out=args.out,
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
        sector = args.sector if args.sector is not None else NO_SECTOR
        spec = ImageSpec(kind=args.kind, shape=args.shape, margin=args.margin,
                         alpha=sector.alpha if sector.active else 1.0,
                         beta=sector.beta if sector.active else 1.0, seed=args.seed)
        grid = gen_image(spec)
        paths = save_pgm_pair(args.out, grid)
        print(f"gen-image: {args.kind} {args.shape} margin={args.margin} "
              f"support_rank={support_rank(grid)} -> {paths[0]}")
        return 0

    if args.command == "spectral-cert":
        variant, patterns = split_variant(args.variant)
        cfg = ExperimentConfig(
            experiment="spectral-cert",
            image=ImageSpec(kind=args.image, shape=args.shape, margin=args.margin),
            variant=variant, patterns=patterns, trials=args.trials, base_seed=args.seed,
        )
        rows = []
        worst = 0.0
        for t in range(args.trials):
            x0, op = make_instance(cfg, t)
            pt = linearize_at_solution(op, x0)
            report = lambda2_power(pt, op)
            if 2 * op.n * op.N <= DENSE_GUARD:
                oracle = svd_oracle(pt, op)
                drift = abs(report.lambda2 - oracle.values[1])
                if drift > 1e-6:
                    raise RuntimeError(f"Lanczos/SVD disagreement {drift:.2e} at trial {t}")
            rows.append(report_csv_row(report, args.seed, args.variant, op.n, op.N, t))
            worst = max(worst, report.lambda2)
        if args.out:
            write_csv(args.out, list(CSV_FIELDS), rows,
                      f"experiment=spectral-cert shape={args.shape} kind={args.image} "
                      f"margin={args.margin} variant={args.variant} trials={args.trials} "
                      f"base_seed={args.seed}")
        print(f"spectral-cert: {args.trials} trial(s), max lambda2 = {worst:.6f} "
              f"({'gap certified' if worst < 1.0 else 'NO GAP'})")
        return 0 if worst < 1.0 else 3

    runners = {
        "local-rate": ("local-rate", run_local_rate),
        "global": ("global", run_global),
        "noise-sweep": ("noise-sweep", run_noise_sweep),
        "padding-sweep": ("padding-sweep", run_padding_sweep),
    }
    name, runner = runners[args.command]
    cfg = _experiment_config(args, name)
    result = runner(cfg)
    summary = _summarize(name, result)
    print(f"{name}: {summary}" + (f" -> {result.csv_path}" if result.csv_path else ""))
    return 0


def _summarize(name: str, result) -> str:
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
    if name == "padding-sweep":
        pairs = ", ".join(f"{r:g}: {result.mean_error[r]:.2e}" for r in sorted(result.mean_error))
        return f"mean error by ratio {{{pairs}}}, trend corr {result.trend_correlation:.2f}"
    return ""


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
