"""Tests for the command-line interface contract."""

from functools import partial

import pytest

from phasedr.cli import main, parse_shape, split_variant
from phasedr.experiments import ExperimentConfig, make_instance
from phasedr.images import ImageSpec
from phasedr.io import read_csv
from phasedr.spectral import lambda2_power, linearize_at_solution


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_is_config_error():
    assert main(["global", "--bogus-flag", "3"]) == 2


def test_bad_shape_is_config_error():
    assert main(["spectral-cert", "--shape", "axb"]) == 2


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
    out = tmp_path / "cert.csv"
    assert main([
        "spectral-cert", "--shape", "5x5", "--variant", "multi:3", "--image", "tcb",
        "--margin", "0", "--seed", "6", "--trials", "2", "--out", str(out),
    ]) == 0
    header, body, comment = read_csv(out)
    conf = dict(item.split("=", 1) for item in comment.split())
    row = dict(zip(header, body[1]))
    variant, patterns = split_variant(conf["variant"])
    cfg = ExperimentConfig(
        experiment=conf["experiment"],
        image=ImageSpec(kind=conf["kind"], shape=parse_shape(conf["shape"]),
                        margin=int(conf["margin"])),
        variant=variant, patterns=patterns, trials=int(conf["trials"]),
        base_seed=int(row["seed"]),
    )
    x0, op = make_instance(cfg, int(row["trial"]))
    report = lambda2_power(linearize_at_solution(op, x0), op)
    assert repr(report.lambda2) == row["lambda2"]


def test_spectral_cert_fails_without_convergence(monkeypatch, capsys):
    monkeypatch.setattr("phasedr.cli.lambda2_power", partial(lambda2_power, max_iters=5))
    assert main(["spectral-cert", "--shape", "6x6", "--seed", "1", "--trials", "2"]) == 3
    assert "NOT CONVERGED on trial(s) 0, 1" in capsys.readouterr().out


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
