"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffkern2d import cli, inversion
from diffkern2d.cli import main
from diffkern2d.config import RunConfig, load_config, parse_config_text
from diffkern2d.errors import ConfigError
from diffkern2d.fileio import read_image, write_pgm
from diffkern2d.inversion import inverse_from_rho
from diffkern2d.kernels import exp_kernel
from diffkern2d.operators import ConvOperator

from conftest import MODEL_BUILDERS, operator_for
from oracle import check_difference_kernel

IDENTITY_CFG = """# pure jump kernel
kernel = identity
c = 1.0
n1 = 8
n2 = 8
sizes = 8,12
"""

EXP_CFG = """kernel = exp
c = 1.0
amp = 0.15
b1 = 1.0
b2 = 0.7
n1 = 8
n2 = 8
sizes = 8,16,32
"""

# the mean that normalization takes over the sigma samples overflows
HUGE_AMP_CFG = """kernel = exp
amp = 1e306
c = 1.0
n1 = 24
n2 = 24
"""

GAUSS_BLUR_CFG = """kernel = gaussian
c = 1.0
amp = 0.4
width = 0.45
n1 = 32
n2 = 32
"""


def model_for(tag):
    """A ``MODEL_BUILDERS`` kernel, or a complex exp kernel for "complex"."""
    return exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def checkerboard(n, block=4, lo=40, hi=210):
    a = np.indices((n, n)).sum(axis=0) // block % 2
    return np.where(a == 0, lo, hi).astype(float)


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config_text(EXP_CFG)
        assert cfg.kernel == "exp"
        assert cfg.params["amp"] == 0.15
        assert cfg.sizes == [8, 16, 32]
        assert cfg.normalize is True

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel = exp\nbogus = 3\n")
        assert err.value.line == 2
        assert err.value.field == "bogus"

    def test_bad_value_reports_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel = exp\nn1 = soon\n")
        assert err.value.field == "n1"

    def test_missing_kernel(self):
        with pytest.raises(ConfigError):
            parse_config_text("n1 = 8\n")

    def test_separable_rejects_profiles(self):
        with pytest.raises(ConfigError):
            parse_config_text("kernel = separable\nalpha = sin\n")

    def test_separable_built_in_code_rejects_profiles(self):
        # the rule lives in RunConfig, so a config built in code is checked
        # when it builds its model, and the parser reports the key's line
        cfg = RunConfig(kernel="separable", alpha=("sin", 0.5, 2.0))
        with pytest.raises(ConfigError, match="fixes its own edge profiles") as err:
            cfg.build_model()
        assert err.value.field == "alpha"
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel = separable\nn1 = 6\nbeta = cos\n")
        assert (err.value.line, err.value.field) == (3, "beta")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"kernel = exp\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="not UTF-8 text: byte 0xe9") as err:
            load_config(path)
        assert err.value.line == 2
        assert main(["rho", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config file {path} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "rho_max_rel_err = nan", "rho_max_rel_err = inf", "rho_max_rel_err = -0.1",
        "sizes = 8", "sizes = 8,8", "sizes = 1,8", "sizes = 8,16,8", "seed = -1",
        "c = nan", "rho_lambda1 = nan, 1.0", "rho_mu2 = 1e400, 2.0",
        "rho_lambda1 = ,", "rho_mu2 =",
    ])
    def test_bad_tolerance_or_sizes_reports_field(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"kernel = exp\n{line}\n")
        assert err.value.line == 2
        assert err.value.field == line.split(" =")[0]

    @pytest.mark.parametrize("text,line,field", [
        ("kernel = identity\namp = 0.3\n", 2, "amp"),
        ("kernel = separable\nc = 2.0\n", 2, "c"),
        ("kernel = gaussian\nn1 = 8\nb1 = 5\nq = 3\n", 3, "b1"),
        # a profile parameter needs its profile, and separable takes none
        ("kernel = exp\nalpha_amp = 0.5\n", 2, "alpha_amp"),
        ("kernel = exp\nbeta = none\nbeta_rate = 3.0\n", 3, "beta_rate"),
        ("kernel = separable\nbeta_amp = 0.5\n", 2, "beta_amp"),
    ])
    def test_parameter_of_another_family_reports_field(self, tmp_path, capsys,
                                                       text, line, field):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert (err.value.line, err.value.field) == (line, field)
        cfg = write_cfg(tmp_path, text)
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "reconstruct_report.json").exists()


class TestVerifyCommand:
    def test_identity_kernel_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["overall_pass"] is True
        for size_block in report["per_size"].values():
            assert size_block["displacement_k1"] <= 1e-12
            assert size_block["displacement_k2"] <= 1e-12
            assert size_block["side_i2_k1"] <= 1e-12
            assert size_block["side_i1_k2"] <= 1e-12
        assert (out / "convergence.csv").exists()
        assert (out / "convergence.svg").exists()

    def test_zero_operator_exits_2(self, tmp_path, capsys):
        # S = 0: the identity residuals read 0 and the g-block solve refuses S
        cfg = write_cfg(tmp_path, "kernel = identity\nc = 0\nsizes = 4,8\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "condition estimate inf" in capsys.readouterr().err

    def test_factor_pairs_built_once_per_size(self, tmp_path, monkeypatch):
        from diffkern2d import inversion

        built = []
        real = cli.assemble_pi

        def spy(samples, k):
            built.append((samples.grid.n1, k))
            return real(samples, k)

        monkeypatch.setattr(cli, "assemble_pi", spy)
        monkeypatch.setattr(inversion, "assemble_pi", spy)
        cfg = write_cfg(tmp_path, EXP_CFG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,12"]) == 0
        assert built == [(8, 1), (8, 2), (12, 1), (12, 2)]

    def test_dense_S_assembled_once_per_size(self, tmp_path, monkeypatch):
        # the g blocks' LU factors the S that the identity checks cached
        sizes = []
        assemble = ConvOperator._assemble_dense
        monkeypatch.setattr(ConvOperator, "_assemble_dense",
                            lambda S: sizes.append(S.grid.n1) or assemble(S))
        cfg = write_cfg(tmp_path, EXP_CFG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,16"]) == 0
        assert sizes == [8, 16]

    def test_exp_kernel_orders(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--sizes", "8,16"]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        for name, fit in report["orders"].items():
            assert fit["exact"] or fit["order"] >= 0.8, name

    def test_contract_pass_is_a_json_bool(self, tmp_path):
        # a string "False" would be truthy to every reader of the report
        cfg = write_cfg(tmp_path, EXP_CFG)
        out = tmp_path / "out"
        main(["verify", "--config", cfg, "--out", str(out), "--sizes", "8,16"])
        report = json.loads((out / "verify_report.json").read_text())
        assert report["contracts"]
        for c in report["contracts"]:
            assert c["pass"] is True or c["pass"] is False, c["name"]

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "kernel = exp\nn1 = -\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_tolerance_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        for key in ("nope", "cond_limit", "symmetry"):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--tol-override", f"{key}=1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-10", "abc"])
    def test_bad_tolerance_value_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, EXP_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,12", "--tol-override", f"rank_rel={value}"])
        assert code == 2
        assert "rank_rel" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["8", "8,8", "6,4,6"])
    def test_fewer_than_two_sizes_exits_2(self, tmp_path, capsys, sizes):
        # one distinct size cannot give a convergence order, and a repeated
        # size would count twice in every fit
        cfg = write_cfg(tmp_path, EXP_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", sizes])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
        assert code == 2
        assert "field '--seed'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "verify_report.json").exists()

    @pytest.mark.parametrize("command,sizes", [("verify", "8,1500"), ("reconstruct", None)])
    def test_guard_refuses_before_sampling(self, tmp_path, monkeypatch, command, sizes):
        # an oversized grid exits 2 before its kernel is sampled, here or
        # after a smaller size; no report is written
        grids = []
        sample = cli.sample_kernel
        monkeypatch.setattr(cli, "sample_kernel", lambda m, g: grids.append(g) or sample(m, g))
        cfg = write_cfg(tmp_path, EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 1500\nn2 = 1500"))
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out)]
        assert main(argv + (["--sizes", sizes] if sizes else [])) == 2
        assert grids == []
        assert list(out.iterdir()) == []

    def test_dense_guard_refusal(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,128"])
        assert code == 2
        assert "n1*n2 <= 4096" in capsys.readouterr().err
        assert not (tmp_path / "o" / "verify_report.json").exists()

    def test_generator_agreement_contract(self, tmp_path, monkeypatch):
        # the generator factors are checked against A_k S w - S A_k^* w
        # applied through the FFT; factors off by 1e-9 fail the contract
        cfg = write_cfg(tmp_path, EXP_CFG)
        argv = ["verify", "--config", cfg, "--sizes", "8,12"]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        report = json.loads((tmp_path / "ok" / "verify_report.json").read_text())
        contracts = {c["name"]: c for c in report["contracts"]}
        for n in ("8", "12"):
            assert report["per_size"][n]["generator_agreement"] <= 1e-14
            assert contracts[f"generator_agreement_n{n}"]["pass"] is True

        real = cli.discrete_generator
        monkeypatch.setattr(cli, "discrete_generator",
                            lambda S, k: (real(S, k)[0] * (1 + 1e-9), real(S, k)[1]))
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 1
        report = json.loads((tmp_path / "bad" / "verify_report.json").read_text())
        failed = [c["name"] for c in report["contracts"] if not c["pass"]]
        assert failed == ["generator_agreement_n8", "generator_agreement_n12"]

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["verify", "--config", cfg, "--out", str(out),
                         "--sizes", "8,12", "--seed", "7"]) == 0
            outs.append((out / "verify_report.json").read_bytes())
        assert outs[0] == outs[1]


class TestRhoCommand:
    @pytest.mark.filterwarnings("error")
    def test_identity_diagonal_column(self, tmp_path):
        # lam = mu pairs on the diagonal: direct rho = area / c, and the
        # structured form must use the admissible off-diagonal pairs
        cfg = write_cfg(tmp_path, IDENTITY_CFG + "c = 2.0\n".replace("c = 2.0", "")
                        )  # keep c = 1.0 from the base text
        out = tmp_path / "out"
        assert main(["rho", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "rho_report.json").read_text())
        assert report["pairs_evaluated"] > 0
        assert report["max_rel_diff"] <= report["bound"]
        lines = (out / "rho_direct.csv").read_text().splitlines()
        assert lines[0].startswith("lam1_re,")
        assert len(lines) == 1 + report["pairs_total"]

    def test_all_pairs_skipped_is_failure(self, tmp_path):
        text = IDENTITY_CFG + (
            "rho_lambda1 = 1.0\nrho_lambda2 = 1.0\n"
            "rho_mu1 = 1.0\nrho_mu2 = 1.0\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["rho", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "rho_report.json").read_text())
        assert report["pairs_evaluated"] == 0
        assert report["explanation"]
        assert report["skipped"] == [{
            "lam": [1.0, 1.0], "mu": [1.0, 1.0],
            "reason": "mu coincides with lam in both coordinates at "
                      "lam=((1+0j), (1+0j)), mu=((1+0j), (1+0j))"}]

    @pytest.mark.parametrize("n1,n2", [(32, 32), (48, 24)])
    def test_gaussian_on_a_rectangle_within_bound(self, tmp_path, n1, n2):
        # G(lam) is ill-conditioned at some lam here (5.7e4 at
        # lam = (2.2, -1.7)); with a flip-consistent g pair its condition
        # no longer amplifies a mismatch between the blocks
        text = ("kernel = gaussian\namp = 8.0\nwidth = 0.15\n"
                f"omega1 = 1.7\nomega2 = 0.9\nn1 = {n1}\nn2 = {n2}\n")
        out = tmp_path / "out"
        assert main(["rho", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "rho_report.json").read_text())
        assert report["pairs_evaluated"] == 625
        assert report["max_rel_diff"] <= report["bound"]

    def test_runs_above_dense_guard(self, tmp_path, monkeypatch):
        # 66 x 64 points: the g blocks and h are GMRES solves, and nothing
        # assembles S densely
        calls = []
        assemble = ConvOperator._assemble_dense
        monkeypatch.setattr(ConvOperator, "_assemble_dense",
                            lambda S: calls.append(S) or assemble(S))
        text = EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 66\nn2 = 64") + (
            "rho_lambda1 = -0.9, 1.1\nrho_lambda2 = -0.6, 1.3\n"
            "rho_mu1 = -0.4, 1.65\nrho_mu2 = -0.1, 1.75\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["rho", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "rho_report.json").read_text())
        assert report["overall_pass"] is True
        assert report["pairs_evaluated"] == 16
        assert calls == []

    def test_writes_two_tables_and_a_report(self, tmp_path):
        # each value is written once: the two CSVs hold every pair, and the
        # report carries the sample lists the pairs are drawn from
        text = EXP_CFG + ("rho_lambda1 = -0.9, 1.1\nrho_lambda2 = 0.4\n"
                          "rho_mu1 = -0.4, 1.65, 2.7\nrho_mu2 = -0.1\n")
        out = tmp_path / "out"
        assert main(["rho", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "rho_direct.csv", "rho_report.json", "rho_structured.csv"]
        report = json.loads((out / "rho_report.json").read_text())
        assert (report["lambda1"], report["lambda2"], report["mu1"], report["mu2"]) == (
            [-0.9, 1.1], [0.4], [-0.4, 1.65, 2.7], [-0.1])
        table = np.loadtxt(out / "rho_direct.csv", delimiter=",", skiprows=1)
        assert table.shape == (6, 10)
        np.testing.assert_array_equal(table[:, [0, 2, 4, 6]], [
            [lam, 0.4, mu, -0.1] for lam in (-0.9, 1.1) for mu in (-0.4, 1.65, 2.7)])

    def test_nan_structured_value_fails_the_bound(self, tmp_path, monkeypatch):
        # a nan from the structured form is an evaluated pair that fails,
        # wherever it falls in the block; it is never counted as skipped
        real = cli.rho_structured

        def nan_third(ev, lam, mu):
            block = real(ev, lam, mu)
            block.flat[2] = complex(np.nan, 0.0)
            return block

        monkeypatch.setattr(cli, "rho_structured", nan_third)
        out = tmp_path / "out"
        assert main(["rho", "--config", write_cfg(tmp_path, EXP_CFG), "--out", str(out)]) == 1
        report = json.loads((out / "rho_report.json").read_text())
        assert report["overall_pass"] is False
        assert report["pairs_evaluated"] == report["pairs_total"] == 625
        assert report["pairs_skipped"] == 0
        assert np.isnan(report["max_rel_diff"])

    def test_byte_identical_reports(self, tmp_path):
        text = IDENTITY_CFG + "rho_lambda1 = 1.0, 0.3\nrho_mu1 = 1.0, -0.4\n"
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["rho", "--config", write_cfg(tmp_path, text), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_exp_direct_vs_structured_bound(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 16\nn2 = 16"))
        out = tmp_path / "out"
        assert main(["rho", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "rho_report.json").read_text())
        assert report["max_rel_diff"] <= 0.05


class TestDeconvCommand:
    def test_identity_blur_round_trips_exactly(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        img = checkerboard(8)
        write_pgm(tmp_path / "in.pgm", img, 255)
        out = tmp_path / "out"
        assert main(["deconv", "--config", cfg, "--out", str(out),
                     "--input", str(tmp_path / "in.pgm")]) == 0
        rec, maxval = read_image(out / "recovered.pgm")
        assert maxval == 255
        np.testing.assert_array_equal(rec, img)

    def test_gaussian_blur_psnr(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_BLUR_CFG)
        img = checkerboard(32)
        write_pgm(tmp_path / "in.pgm", img, 255)
        out = tmp_path / "out"
        assert main(["deconv", "--config", cfg, "--out", str(out),
                     "--input", str(tmp_path / "in.pgm")]) == 0
        report = json.loads((out / "deconv_report.json").read_text())
        assert report["psnr_db"] >= 80.0
        blurred, _ = read_image(out / "blurred.pgm")
        assert np.abs(blurred - img).max() > 1.0    # the blur actually acted

    def test_tol_override_strips_spaces(self, tmp_path):
        # as in the config file, where `key = value` carries spaces
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        write_pgm(tmp_path / "in.pgm", checkerboard(8), 255)
        out = tmp_path / "o"
        assert main(["deconv", "--config", cfg, "--out", str(out),
                     "--input", str(tmp_path / "in.pgm"),
                     "--tol-override", " psnr_min = 90 "]) == 0
        assert json.loads((out / "deconv_report.json").read_text())["psnr_min"] == 90.0

    def test_dimension_mismatch_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_BLUR_CFG)   # grid is 32x32
        write_pgm(tmp_path / "in.pgm", checkerboard(16), 255)
        code = main(["deconv", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--input", str(tmp_path / "in.pgm")])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    def test_non_finite_pixel_exits_2(self, tmp_path, capsys, fmt):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        rows = [" ".join(["7"] * 8)] * 8
        rows[2] = "7 7 7 7 7 nan 7 7"
        path = tmp_path / f"in.{fmt}"
        if fmt == "csv":
            path.write_text("\n".join(r.replace(" ", ",") for r in rows) + "\n")
        else:
            path.write_text("P2\n8 8\n255\n" + "\n".join(rows) + "\n")
        code = main(["deconv", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "(2, 5)" in err

    @pytest.mark.parametrize("header,pixels", [
        ("-2 -2\n255", "1 2 3 4"),
        ("2 2\n-5", "1 2 3 4"),
        ("2 2\n0", "0 0 0 0"),            # PSNR against a zero peak
        ("2 2\n255", "1 2 300 4"),
        ("2 2\n255", "1 2 3 4 5 6"),
    ], ids=["negative-size", "negative-maxval", "zero-maxval", "pixel-above-maxval",
            "too-many-pixels"])
    def test_bad_p2_header_or_pixel_exits_2(self, tmp_path, capsys, header, pixels):
        cfg = write_cfg(tmp_path, "kernel = identity\nn1 = 2\nn2 = 2\n")
        path = tmp_path / "in.pgm"
        path.write_text(f"P2\n{header}\n{pixels}\n")
        code = main(["deconv", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--input", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o" / "deconv_report.json").exists()

    @pytest.mark.parametrize("data", [
        b"P5\n2 2\n255\n" + bytes([0, 200, 255, 17]),
        b"P2\n2 2\n255\n1 2 3 \xe9\n",
    ], ids=["raw-p5", "not-utf8"])
    def test_raw_or_non_utf8_input_exits_2(self, tmp_path, capsys, data):
        cfg = write_cfg(tmp_path, "kernel = identity\nn1 = 2\nn2 = 2\n")
        path = tmp_path / "in.pgm"
        path.write_bytes(data)
        code = main(["deconv", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--input", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o" / "deconv_report.json").exists()

    def test_byte_identical_reports(self, tmp_path):
        # P2 input, so the two graymaps are compared too
        cfg = write_cfg(tmp_path, GAUSS_BLUR_CFG)
        write_pgm(tmp_path / "in.pgm", checkerboard(32), 255)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["deconv", "--config", cfg, "--out", str(out), "--seed", "7",
                         "--input", str(tmp_path / "in.pgm")]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outs[0]) == ["blurred.csv", "blurred.pgm", "deconv_report.json",
                                   "recovered.csv", "recovered.pgm"]
        assert outs[0] == outs[1]

    @pytest.mark.filterwarnings("error")
    def test_psnr_of_a_huge_image_is_finite(self, tmp_path, rng):
        # peak^2 passes the largest double; the report still gives the
        # PSNR that the error measured on a 1e155 scale implies
        cfg = write_cfg(tmp_path, EXP_CFG)
        img = 1e155 * rng.integers(1, 256, (8, 8)).astype(float)
        np.savetxt(tmp_path / "in.csv", img, delimiter=",")
        out = tmp_path / "out"
        assert main(["deconv", "--config", cfg, "--out", str(out),
                     "--input", str(tmp_path / "in.csv")]) == 0
        report = json.loads((out / "deconv_report.json").read_text())
        rec = np.loadtxt(out / "recovered.csv", delimiter=",")
        mse = np.mean(((rec - img) / 1e155) ** 2)
        want = 20 * np.log10(report["peak"] / 1e155) - 10 * np.log10(mse)
        assert np.isfinite(report["psnr_db"]) and np.isfinite(report["mse"])
        assert abs(report["psnr_db"] - want) <= 1e-12 * want
        assert abs(report["psnr_db"] - (20 * np.log10(report["peak"])
                                        - 10 * np.log10(report["mse"]))) <= 1e-12 * want

    def test_csv_input(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        img = checkerboard(8)
        np.savetxt(tmp_path / "in.csv", img, delimiter=",")
        out = tmp_path / "out"
        assert main(["deconv", "--config", cfg, "--out", str(out),
                     "--input", str(tmp_path / "in.csv")]) == 0
        rec = np.loadtxt(out / "recovered.csv", delimiter=",")
        np.testing.assert_allclose(rec, img, rtol=0, atol=1e-9)


class TestReconstructCommand:
    def test_identity_kernel(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["reconstruction_error"] <= 1e-10
        assert report["structure_residual"] <= 1e-12

    def test_exp_kernel(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["reconstruction_error"] <= 1e-9
        assert report["structure_residual"] <= 1e-8
        S = operator_for(exp_kernel(c=1.0, amp=0.15, b1=1.0, b2=0.7), 8)
        ref = np.linalg.cond(S.dense())
        assert abs(report["cond_S"] - ref) <= 1e-12 * ref

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["reconstruct", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append((out / "reconstruct_report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("amp,width", [(20, 0.1), (40, 0.08)])
    def test_ill_conditioned_gaussian_passes(self, tmp_path, amp, width):
        # condition estimates 3.5e3 and 2.7e4: T takes one Newton-Schulz step
        text = f"kernel = gaussian\namp = {amp}\nwidth = {width}\nn1 = 32\nn2 = 32\n"
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["overall_pass"] is True
        assert report["reconstruction_error"] <= 1e-10

    def test_unguarded_generator_table_fails_ill_conditioned_gaussian(self, tmp_path,
                                                                     monkeypatch):
        # the generator's residual grows as cond^2 eps: 1.4e-9 here, above
        # the 1e-9 tolerance, where the Newton-Schulz step reads 1.6e-13
        monkeypatch.setattr(inversion, "GENERATOR_COND", np.inf)
        text = "kernel = gaussian\namp = 40\nwidth = 0.08\nn1 = 32\nn2 = 32\n"
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["reconstruction_error"] > report["reconstruction_tol"]

    def test_singular_operator_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kernel = identity\nc = 0.0\nn1 = 4\nn2 = 4\n")
        code = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "condition estimate inf" in capsys.readouterr().err

    def test_gmres_table_never_assembles_S(self, tmp_path, monkeypatch):
        # with the LU modelled as far too dear, GMRES solves the rho table,
        # and no step of reconstruct reads a dense S
        def refuse(S):
            raise AssertionError("S assembled densely")

        monkeypatch.setattr(inversion, "_t_lu", lambda N, m: 1e300)
        monkeypatch.setattr(ConvOperator, "_assemble_dense", refuse)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", write_cfg(tmp_path, EXP_CFG),
                     "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["overall_pass"] is True

    def test_guard_refusal_with_guidance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 128\nn2 = 128"))
        code = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dense" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", [False, True])
    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (12, 9), (7, 4)])
    def test_residuals_match_dense_products(self, tag, n1, n2, blocked, rng, monkeypatch):
        # blocked: 8 columns per apply_fft, with a shorter last block
        if blocked:
            monkeypatch.setattr(inversion, "CHECK_BLOCK", 32 * n1 * n2)
        model = model_for(tag)
        S = operator_for(model, n1, n2, omega1=1.7, omega2=0.9)
        D, eye = S.dense(), np.eye(n1 * n2)
        T = rng.standard_normal(D.shape)
        if tag == "complex":
            T = T + 1j * rng.standard_normal(D.shape)
        for got, want in ((cli._inverse_residual(S, T), np.linalg.norm(D @ T - eye)),
                          (cli._inverse_residual(S, T.T[::-1, ::-1]),
                           np.linalg.norm(T @ D - eye))):
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (12, 9), (7, 4)])
    def test_residuals_bound_the_dense_inverse_metrics(self, tag, n1, n2):
        # the values reconstruct reported before: T against a dense S^{-1},
        # and the offset-class fit of a dense T^{-1}
        model = model_for(tag)
        S = operator_for(model, n1, n2, omega1=1.7, omega2=0.9)
        T = inverse_from_rho(S)
        dense_inv = np.linalg.inv(S.dense())
        rec_err = np.linalg.norm(T - dense_inv) / np.linalg.norm(dense_inv)
        structure = check_difference_kernel(np.linalg.inv(T), S.grid)
        assert rec_err <= cli._inverse_residual(S, T) <= 1e-12
        assert structure <= cli._inverse_residual(S, T.T[::-1, ::-1]) <= 1e-12

    def test_perturbed_inverse_fails_both_gates(self, tmp_path, monkeypatch, capsys):
        E = np.random.default_rng(3).standard_normal((64, 64))
        monkeypatch.setattr(cli, "inverse_from_rho", lambda S: inverse_from_rho(S) + 1e-6 * E)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", write_cfg(tmp_path, EXP_CFG),
                     "--out", str(out)]) == 1
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["reconstruction_error"] > report["reconstruction_tol"]
        assert report["structure_residual"] > report["structure_tol"]
        assert report["overall_pass"] is False
        assert "FAIL reconstruct" in capsys.readouterr().err


class TestCond2:
    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 7), (32, 32)])
    def test_matches_full_svd(self, tag, n1, n2):
        # the default gaussian at 32^2 has its top two singular values
        # equal to 15 digits, the hard case for Lanczos
        S = operator_for(model_for(tag), n1, n2)
        ref = np.linalg.cond(S.dense())
        assert abs(cli._cond_2(S, np.linalg.inv(S.dense())) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (16, 16), (24, 24)])
    def test_matches_full_svd_with_the_rho_inverse(self, tag, n1, n2):
        # reconstruct's cond_S: ||T||_2 for the inverse built from rho
        model = model_for(tag)
        S = operator_for(model, n1, n2)
        ref = np.linalg.cond(S.dense())
        assert abs(cli._cond_2(S, inverse_from_rho(S)) - ref) <= 1e-12 * ref


class TestOverflowingKernel:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,message", [
        ("verify", "operator condition estimate"),
        ("rho", "kernel evaluator 'sigma' returned a non-finite value"),
        ("deconv", "kernel evaluator 'sigma' returned a non-finite value"),
        ("reconstruct", "kernel evaluator 'sigma' returned a non-finite value"),
    ])
    def test_huge_amplitude_exits_2_under_warnings_as_errors(self, tmp_path, capsys,
                                                             command, message):
        # verify starts at its first default size, 8, where the
        # normalization holds and the g-block solve's condition check
        # refuses S
        argv = [command, "--config", write_cfg(tmp_path, HUGE_AMP_CFG),
                "--out", str(tmp_path / "o")]
        if command == "deconv":
            img = np.random.default_rng(1).integers(0, 256, (24, 24))
            np.savetxt(tmp_path / "in.csv", img, fmt="%d", delimiter=",")
            argv += ["--input", str(tmp_path / "in.csv")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_huge_factor_columns_pass_the_backward_check(self, tmp_path, capsys):
        # unnormalized, the Pi_1 columns that the evaluator solves are too
        # large to square: the LU path's backward check scales them and
        # holds, and the psi form then refuses its G(lam)
        cfg = write_cfg(tmp_path, "kernel = gaussian\namp = 1e308\nwidth = 0.01\n"
                                  "normalize = false\nn1 = 8\nn2 = 8\n")
        assert main(["rho", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "G(lam) condition estimate" in err and "backward error" not in err


    @pytest.mark.filterwarnings("error")
    def test_huge_kernel_reconstructs_with_its_condition_number(self, tmp_path):
        # both residuals pass near 1e-13; cond_S's Lanczos runs on 2^-e S
        # and 2^e T, as S^H S would overflow
        from diffkern2d.grid import make_grid, sample_kernel
        from diffkern2d.kernels import gaussian_kernel

        cfg = write_cfg(tmp_path, "kernel = gaussian\namp = 1e308\nwidth = 0.01\n"
                                  "normalize = false\nn1 = 8\nn2 = 8\n")
        out = tmp_path / "o"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "reconstruct_report.json").read_text())
        assert report["overall_pass"] is True
        S = ConvOperator(sample_kernel(gaussian_kernel(amp=1e308, width=0.01),
                                       make_grid(1.0, 1.0, 8, 8)))
        ref = np.linalg.cond(S.dense() / S.norm1())
        assert abs(report["cond_S"] - ref) <= 1e-12 * ref


class TestThreadedRho:
    def test_thread_count_does_not_change_results(self, tmp_path):
        # BLAS reads its thread count when it loads, so each count runs in
        # its own process; at 32^2 the LU of S and the products are threaded.
        # The last bits may differ between counts, so values are compared.
        cfg = write_cfg(tmp_path, EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 32\nn2 = 32"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "diffkern2d", "rho", "--config", cfg,
                            "--out", str(out)], env=env, check=True)
            tables.append([np.loadtxt(out / name, delimiter=",", skiprows=1)
                           for name in ("rho_direct.csv", "rho_structured.csv")])
        for one, two in zip(*tables):
            assert one.shape == two.shape == (625, 10)
            assert np.array_equal(two[:, :8], one[:, :8])       # the (lam, mu) pairs
            rho1, rho2 = one[:, 8] + 1j * one[:, 9], two[:, 8] + 1j * two[:, 9]
            assert np.max(np.abs(rho2 - rho1) / np.abs(rho1)) <= 1e-12


class TestReportsAcrossProcesses:
    def test_byte_identical_across_hash_seeds(self, tmp_path):
        # each process has its own string hashing (PYTHONHASHSEED), so set
        # and dict orders that leak into a report would show here
        cfg = write_cfg(tmp_path, EXP_CFG + "alpha = sin\nalpha_amp = 0.1\nalpha_rate = 1.3\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        commands = [["verify", "--config", cfg, "--sizes", "4,6", "--seed", "7"],
                    ["rho", "--config", cfg], ["reconstruct", "--config", cfg]]
        runs = []
        for hash_seed in ("0", "1"):
            top = tmp_path / f"h{hash_seed}"
            argvs = [argv + ["--out", str(top / argv[0])] for argv in commands]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1",
                       OMP_NUM_THREADS="1",
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c",
                            "import sys; from diffkern2d.cli import main; "
                            f"sys.exit(max(main(argv) for argv in {argvs!r}))"],
                           env=env, check=True)
            runs.append({str(p.relative_to(top)): p.read_bytes()
                         for p in sorted(top.rglob("*")) if p.is_file()})
        assert len(runs[0]) == 7            # 3 verify, 3 rho and 1 reconstruct file
        assert runs[0] == runs[1]
