"""Tests for the command-line interface contract."""

import argparse
import re
import shlex
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from phasedr.cli import build_parser, main, parse_floats, parse_init, parse_sector, parse_shape
from phasedr.experiments import ExperimentConfig, make_instance, run_spectral_cert
from phasedr.images import ImageSpec
from phasedr.io import read_csv
from phasedr.solvers import InitSpec
from phasedr.spectral import lambda2_power, linearize_at_solution

README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_is_config_error():
    assert main(["global", "--bogus-flag", "3"]) == 2


def test_bad_shape_is_config_error():
    assert main(["spectral-cert", "--shape", "axb"]) == 2


def test_nan_near_delta_is_config_error():
    assert main(["local-rate", "--shape", "4x4", "--init", "near:nan"]) == 2


@pytest.mark.parametrize("argv", [
    ["global", "--trials", "0"],
    ["global", "--tol", "0"],
    ["global", "--margin", "-1"],
    ["noise-sweep", "--nsr", "0.7"],
    ["noise-sweep", "--trials", "1", "--max-iters", "10", "--nsr", "nan,0.1"],
    ["global", "--tol", "nan"],
    ["global", "--trials", "1", "--tol", "inf"],
    ["padding-sweep", "--trials", "1", "--max-iters", "5", "--ntilde", "inf"],
    ["padding-sweep", "--trials", "1", "--max-iters", "5", "--ntilde=-3"],
], ids=["no-trials", "zero-tol", "negative-margin", "nsr-above-half", "nan-nsr", "nan-tol",
        "infinite-tol", "infinite-ntilde", "negative-ntilde"])
def test_runner_config_error_exits_2(argv, capsys):
    # A ValueError from a runner's configuration is a config error, not a crash.
    assert main([*argv, "--shape", "4x4"]) == 2
    assert "phasedr: config error" in capsys.readouterr().err


def test_parse_init():
    assert parse_init("ri") == InitSpec(kind="ri")
    assert parse_init("ci") == InitSpec(kind="ci")
    assert parse_init("near:0.01") == InitSpec(kind="near", delta=0.01)


@pytest.mark.parametrize("parse, text", [
    (parse_init, "near"), (parse_init, "random"),
    (parse_sector, "0.5"), (parse_sector, "0,x"), (parse_sector, "0,2"),
    (parse_floats, "4,x"), (parse_shape, "axb"),
])
def test_bad_option_text(parse, text):
    with pytest.raises(argparse.ArgumentTypeError, match=re.escape(repr(text))):
        parse(text)


def test_gen_image_writes_pgm_pair(tmp_path, capsys):
    stem = tmp_path / "img"
    code = main([
        "gen-image", "--kind", "rpp", "--shape", "8x8", "--margin", "1",
        "--sector", "0,0.5", "--seed", "3", "--out", str(stem),
    ])
    assert code == 0
    assert (tmp_path / "img.re.pgm").exists()
    assert (tmp_path / "img.im.pgm").exists()
    assert (tmp_path / "img.range.txt").exists()
    assert "support_rank=2" in capsys.readouterr().out


def test_spectral_cert_certifies_gap(tmp_path, capsys):
    out = tmp_path / "cert.csv"
    code = main([
        "spectral-cert", "--shape", "6x6", "--variant", "one-and-half",
        "--seed", "1", "--trials", "2", "--out", str(out),
    ])
    assert code == 0
    assert "gap certified" in capsys.readouterr().out
    header, body, _ = read_csv(out)
    assert header[:6] == ["seed", "variant", "n", "N", "lambda1", "lambda2"]
    assert header[-1] == "trial"
    assert len(body) == 2
    for t, row in enumerate(body):
        assert float(row[5]) < 1.0
        assert (row[0], row[-1]) == ("1", str(t))


def test_spectral_cert_row_regenerates_from_file(tmp_path):
    for layout in ("multi:3", "multi:2"):
        out = tmp_path / f"cert-{layout[-1]}.csv"
        assert main([
            "spectral-cert", "--shape", "5x5", "--variant", layout, "--image", "tcb",
            "--margin", "0", "--seed", "6", "--trials", "2", "--out", str(out),
        ]) == 0
        header, body, comment = read_csv(out)
        conf = dict(item.split("=", 1) for item in comment.split())
        row = dict(zip(header, body[1]))
        assert row["variant"] == conf["variant"] == "multi"
        cfg = ExperimentConfig(
            experiment=conf["experiment"],
            image=ImageSpec(kind=conf["kind"], shape=parse_shape(conf["shape"]),
                            margin=int(conf["margin"])),
            variant=conf["variant"], patterns=int(conf["patterns"]),
            trials=int(conf["trials"]), base_seed=int(row["seed"]),
        )
        x0, op = make_instance(cfg, int(row["trial"]))
        report = lambda2_power(linearize_at_solution(op, x0), op)
        assert repr(report.lambda2) == row["lambda2"]


def test_spectral_cert_comment_claims_no_solve(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["spectral-cert", "--shape", "4x4", "--out", str(out)]) == 0
    keys = [item.split("=", 1)[0] for item in read_csv(out)[2].split()]
    assert keys == ["experiment", "shape", "kind", "margin", "sector", "variant",
                    "patterns", "trials", "base_seed"]


def test_spectral_cert_runner_gives_the_cli_rows(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["spectral-cert", "--shape", "5x5", "--variant", "two-mask", "--seed", "2",
                 "--trials", "2", "--out", str(out)]) == 0
    cfg = ExperimentConfig(experiment="spectral-cert",
                           image=ImageSpec(kind="rpp", shape=parse_shape("5x5"), margin=1),
                           variant="two-mask", trials=2, base_seed=2)
    res = run_spectral_cert(cfg)
    assert res.certified and res.csv_path is None
    assert read_csv(out)[1] == [[str(v) for v in row] for row in res.rows]


def test_spectral_cert_fails_without_convergence(monkeypatch, capsys):
    monkeypatch.setattr("phasedr.experiments.lambda2_power", partial(lambda2_power, max_iters=5))
    assert main(["spectral-cert", "--shape", "6x6", "--seed", "1", "--trials", "2"]) == 3
    assert "NOT CONVERGED on trial(s) 0, 1" in capsys.readouterr().out


def test_spectral_cert_reports_no_gap(monkeypatch, capsys):
    # One coded pattern with a margin of zeros has l_2 = 1, as the SVD oracle
    # confirms; a report at exactly 1 passes the oracle check and fails the gap.
    monkeypatch.setattr("phasedr.experiments.lambda2_power",
                        lambda pt, op: replace(lambda2_power(pt, op), lambda2=1.0))
    assert main(["spectral-cert", "--shape", "4x4", "--variant", "one-mask"]) == 3
    assert "max lambda2 = 1.000000 (NO GAP)" in capsys.readouterr().out


def test_spectral_cert_fails_on_oracle_drift(monkeypatch, capsys):
    monkeypatch.setattr("phasedr.experiments.lambda2_power",
                        lambda pt, op: replace(lambda2_power(pt, op), lambda2=0.5))
    assert main(["spectral-cert", "--shape", "6x6", "--seed", "1", "--trials", "2"]) == 3
    assert "Lanczos/SVD disagreement" in capsys.readouterr().err


def test_spectral_cert_rejects_solver_options():
    assert main(["spectral-cert", "--shape", "4x4", "--tol", "1e-3"]) == 2


@pytest.mark.parametrize("command, option, value", [
    ("global", "--init", "near:0.5"),
    ("global", "--ntilde", "9"),
    ("global", "--nsr", "0.3"),
    ("padding-sweep", "--nsr", "0.3"),
    ("padding-sweep", "--init", "ci"),
    ("noise-sweep", "--ntilde", "4"),
    ("local-rate", "--ntilde", "4"),
    ("local-rate", "--nsr", "0.3"),
])
def test_runner_rejects_options_it_ignores(command, option, value):
    # Each runner takes only the options it reads.
    assert main([command, "--shape", "4x4", "--trials", "1", option, value]) == 2


def test_global_subcommand_runs(tmp_path, capsys):
    out = tmp_path / "glob.csv"
    code = main([
        "global", "--shape", "6x6", "--variant", "one-and-half",
        "--trials", "2", "--seed", "4", "--max-iters", "400", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    header, body, comment = read_csv(out)
    assert header == ["trial", "init", "k", "relative_error"]
    assert "experiment=global" in comment


def test_noise_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    code = main([
        "noise-sweep", "--shape", "6x6", "--trials", "1", "--seed", "2",
        "--max-iters", "300", "--nsr", "0,0.05,0.1", "--out", str(out),
    ])
    assert code == 0
    assert "slopes" in capsys.readouterr().out
    assert out.exists()


def test_padding_sweep_subcommand(tmp_path):
    out = tmp_path / "pad.csv"
    code = main([
        "padding-sweep", "--shape", "6x6", "--trials", "1", "--seed", "2",
        "--max-iters", "100", "--ntilde", "4,8", "--out", str(out),
    ])
    assert code == 0
    header, body, _ = read_csv(out)
    assert header[0] == "ratio"


def test_local_rate_subcommand(tmp_path, capsys):
    code = main([
        "local-rate", "--shape", "6x6", "--trials", "1", "--seed", "1",
        "--max-iters", "300", "--tol", "1e-12", "--init", "near:1e-3",
        "--out", str(tmp_path / "rate.csv"),
    ])
    assert code == 0
    assert "lambda2" in capsys.readouterr().out


def test_one_mask_sector_global(tmp_path):
    out = tmp_path / "sector.csv"
    code = main([
        "global", "--variant", "one-mask", "--sector", "0,0.5",
        "--shape", "6x6", "--margin", "0", "--trials", "1", "--seed", "3",
        "--max-iters", "200", "--out", str(out),
    ])
    assert code == 0
    header, body, _ = read_csv(out)
    assert header == ["trial", "init", "k", "relative_error"]
    assert len(body) <= 400  # ri and ci curves


def test_multi_variant_parsing(tmp_path):
    code = main([
        "global", "--shape", "4x4", "--variant", "multi:3",
        "--trials", "1", "--seed", "0", "--max-iters", "150",
    ])
    assert code == 0


def test_readme_command_lines_parse():
    # Every command line in README's "Command line" block parses (nothing runs).
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("phasedr ")]
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    assert {argv[0] for argv in argvs} == {
        "gen-image", "spectral-cert", "global", "local-rate", "noise-sweep", "padding-sweep"}
