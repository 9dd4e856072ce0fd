"""File writers: the exact text each one produces.

The expected text is literal, so a change of writer (a hand-rolled
formatter, ``np.savetxt``, ``json.dumps``) cannot move a byte unnoticed.
"""

import numpy as np
import pytest

from diffkern2d.errors import InvalidArgumentError
from diffkern2d.fileio import (
    read_image,
    write_convergence_csv,
    write_json_report,
    write_pgm,
    write_rho_csv,
)

RHO_CSV = (
    "lam1_re,lam1_im,lam2_re,lam2_im,mu1_re,mu1_im,mu2_re,mu2_im,rho_re,rho_im\n"
    "1.00000000000000000e+00,0.00000000000000000e+00,5.00000000000000000e-01,"
    "0.00000000000000000e+00,-0.00000000000000000e+00,0.00000000000000000e+00,"
    "2.00000000000000000e+00,0.00000000000000000e+00,nan,nan\n"
    "-0.00000000000000000e+00,0.00000000000000000e+00,1.00000000000000000e+00,"
    "0.00000000000000000e+00,2.99999999999999989e-01,0.00000000000000000e+00,"
    "-1.50000000000000000e+00,0.00000000000000000e+00,-0.00000000000000000e+00,"
    "1.00000000000000000e+00\n"
    "1.00000000000000006e-01,0.00000000000000000e+00,2.00000000000000000e+00,"
    "0.00000000000000000e+00,3.33333333333333315e-01,0.00000000000000000e+00,"
    "-2.50000000000000000e+00,0.00000000000000000e+00,6.66666666666666630e-01,"
    "-1.00000000000000006e-01\n"
)

JSON_REPORT = """{
  "bad": [
    NaN,
    Infinity,
    -Infinity
  ],
  "count": 7,
  "f64": 0.3333333333333333,
  "flag": true,
  "matrix": [
    [
      1.0,
      2.0
    ],
    [
      3.0,
      4.5
    ]
  ],
  "pair": [
    1,
    2.5
  ],
  "single": 0.10000000149011612
}
"""


def test_rho_csv_skipped_row_negative_zero_and_17_digits(tmp_path):
    # a skipped pair (nan), -0.0 kept with its sign, values needing 17 digits
    coords = np.array([[1.0, 0.5, -0.0, 2.0],
                       [-0.0, 1.0, 0.3, -1.5],
                       [0.1, 2.0, 1 / 3, -2.5]], dtype=complex)
    values = np.array([complex(np.nan, np.nan), complex(-0.0, 1.0), complex(2 / 3, -0.1)])
    write_rho_csv(tmp_path / "rho.csv", coords, values)
    assert (tmp_path / "rho.csv").read_text() == RHO_CSV


def test_json_report_numpy_scalars_non_finite_tuple_and_array(tmp_path):
    payload = {"flag": np.bool_(True), "count": np.int64(7), "single": np.float32(0.1),
               "bad": [float("nan"), float("inf"), -np.inf], "pair": (1, 2.5),
               "matrix": np.array([[1.0, 2.0], [3.0, 4.5]]), "f64": np.float64(1 / 3)}
    write_json_report(tmp_path / "r.json", payload)
    assert (tmp_path / "r.json").read_text() == JSON_REPORT


@pytest.mark.parametrize("value", [{1}, 1 + 2j, object()])
def test_json_report_refuses_what_json_cannot_write(tmp_path, value):
    # no str() fallback: a value with no JSON form is the caller's error
    with pytest.raises(TypeError):
        write_json_report(tmp_path / "r.json", {"value": value})


def test_convergence_csv(tmp_path):
    write_convergence_csv(tmp_path / "c.csv", [8, 16],
                          {"b": [0.1, 1e-20], "a": [np.float64(2 / 3), -0.0]})
    assert (tmp_path / "c.csv").read_text() == (
        "n,a,b\n"
        "8,6.66666666666666630e-01,1.00000000000000006e-01\n"
        "16,-0.00000000000000000e+00,9.99999999999999945e-21\n"
    )


def test_pgm_rounds_and_clips(tmp_path):
    write_pgm(tmp_path / "p.pgm", np.array([[-3.0, 12.4, 300.0], [0.5, 1.5, 254.6 + 1j]]), 255)
    assert (tmp_path / "p.pgm").read_text() == "P2\n3 2\n255\n0 12 255\n0 2 255\n"


@pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"], ids=["empty", "blank", "comment"])
def test_csv_without_rows_rejected_naming_the_file(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError, match="in.csv: no pixels"):
        read_image(path)


@pytest.mark.parametrize("data,match", [
    (b"P5\n2 2\n255\n" + bytes([0, 200, 255, 17]), "a raw P5 graymap; only plain P2 is read"),
    (b"1,2\n3,\xe9\n", "not UTF-8 text: byte 0xe9 at offset 6"),
    (b"P2\n2 2\n255\n1 2 3 4 5 6\n", "expected 4 pixels, found 6"),
], ids=["raw-p5", "not-utf8", "too-many-pixels"])
def test_unreadable_image_rejected_naming_the_file(tmp_path, data, match):
    path = tmp_path / "in.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidArgumentError, match=f"in.pgm: {match}"):
        read_image(path)
