"""Command-line interface: exit codes, reports, determinism."""

import json

import numpy as np
import pytest

from diffkern2d.cli import main
from diffkern2d.config import load_config, parse_config_text
from diffkern2d.errors import ConfigError
from diffkern2d.fileio import read_image, write_pgm

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

GAUSS_BLUR_CFG = """kernel = gaussian
c = 1.0
amp = 0.4
width = 0.45
n1 = 32
n2 = 32
"""


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("line", [
        "rho_max_rel_err = nan", "rho_max_rel_err = inf", "rho_max_rel_err = -0.1",
        "sizes = 8", "sizes = 8,8", "sizes = 1,8",
    ])
    def test_bad_tolerance_or_sizes_reports_field(self, line):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"kernel = exp\n{line}\n")
        assert err.value.line == 2
        assert err.value.field == line.split(" =")[0]


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

    def test_exp_kernel_orders(self, tmp_path):
        cfg = write_cfg(tmp_path, EXP_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--sizes", "8,16"]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        for name, fit in report["orders"].items():
            assert fit["exact"] or fit["order"] >= 0.8, name

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "kernel = exp\nn1 = -\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_tolerance_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tol-override", "nope=1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-10", "abc"])
    def test_bad_tolerance_value_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, EXP_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,12", "--tol-override", f"rank_rel={value}"])
        assert code == 2
        assert "rank_rel" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["8", "8,8"])
    def test_fewer_than_two_sizes_exits_2(self, tmp_path, capsys, sizes):
        # one distinct size cannot give a convergence order
        cfg = write_cfg(tmp_path, EXP_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", sizes])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_dense_guard_refusal(self, tmp_path):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sizes", "8,128"])
        assert code == 2

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

    def test_guard_refusal_with_guidance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXP_CFG.replace("n1 = 8\nn2 = 8", "n1 = 128\nn2 = 128"))
        code = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dense" in capsys.readouterr().err


class TestThreadedRho:
    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, IDENTITY_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        monkeypatch.setenv("DIFFKERN2D_THREADS", "1")
        assert main(["rho", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setenv("DIFFKERN2D_THREADS", "4")
        assert main(["rho", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "rho_direct.csv").read_bytes() == (out2 / "rho_direct.csv").read_bytes()
        assert (out1 / "rho_structured.csv").read_bytes() == (out2 / "rho_structured.csv").read_bytes()
