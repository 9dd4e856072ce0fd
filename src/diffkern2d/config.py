"""Run configuration: key = value text files describing a kernel and a run.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Unknown keys and malformed values are reported with their
line number and field name.

Kernel schema
-------------
kernel       identity | exp | poly | gaussian | separable   (required)
c            jump coefficient (all families except separable; default 1.0)
amp, b1, b2  exp family:      sigma = amp * exp(b1 x1 + b2 x2)
amp, q       poly family:     sigma = amp * (x1 x2 + q x1^2 x2^2)
amp, width   gaussian family: sigma = amp * exp(-|x|^2 / (2 width^2))
c1, amp1, r1,
c2, amp2, r2 separable family: tensor of c_i I + conv(amp_i e^{r_i u})
alpha, beta  edge profiles: none | exp | sin | cos (default none)
alpha_amp, alpha_rate   alpha profile amplitude and rate (default 0.1, 1.0)
beta_amp, beta_rate     beta profile amplitude and rate (default 0.1, 1.0)
omega1, omega2   rectangle sides (default 1.0)
n1, n2           grid resolution (default 8)
sizes            comma list of distinct sizes >= 2 for convergence studies
                 (default 8,16,32)
seed             RNG seed for randomized checks, an integer >= 0 (default 0)
normalize        true/false, re-center the smooth part (default true)
rho_lambda1, rho_lambda2, rho_mu1, rho_mu2   non-empty comma float lists

A family takes only its own parameters, the keywords of its builder in
``kernels``, whose defaults apply; a parameter of another family is an
error naming its line and field.  Likewise ``alpha_amp`` and
``alpha_rate`` need ``alpha`` set to a kind other than none, and
``beta_amp`` and ``beta_rate`` need such a ``beta``.  The separable
family fixes its own edge profiles, so it takes no ``alpha`` or ``beta``
but none, hence no profile parameter either; ``RunConfig`` checks this
for a config built in code too.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError
from .grid import GridSpec, KernelModel, make_grid
from .kernels import (
    exp_kernel,
    gaussian_kernel,
    identity_kernel,
    PROFILE_KINDS,
    poly_kernel,
    separable_kernel,
    with_profiles,
)

__all__ = ["RunConfig", "parse_config_text", "parse_sizes", "check_seed",
           "load_config", "default_tolerances"]

_FAMILIES = {"identity": identity_kernel, "exp": exp_kernel, "poly": poly_kernel,
             "gaussian": gaussian_kernel, "separable": separable_kernel}
# the parameters a family takes are its builder's keywords
_FAMILY_KEYS = {name: set(inspect.signature(build).parameters)
                for name, build in _FAMILIES.items()}
_PARAM_KEYS = set().union(*_FAMILY_KEYS.values())
_PROFILE_PARAMS = {"alpha_amp", "alpha_rate", "beta_amp", "beta_rate"}

_FLOAT_KEYS = _PARAM_KEYS | _PROFILE_PARAMS | {"omega1", "omega2", "rho_max_rel_err"}
_INT_KEYS = {"n1", "n2", "seed"}
_LIST_FLOAT_KEYS = {"rho_lambda1", "rho_lambda2", "rho_mu1", "rho_mu2"}
_STR_KEYS = {"kernel", "alpha", "beta"}
_BOOL_KEYS = {"normalize"}
_LIST_INT_KEYS = {"sizes"}

_KNOWN = _FLOAT_KEYS | _INT_KEYS | _LIST_FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS | _LIST_INT_KEYS


def default_tolerances() -> Dict[str, float]:
    """Named tolerances; overridable per-run via --tol-override."""
    return {
        "exact": 1e-12,            # residual treated as exactly satisfied
        "min_order": 0.8,          # required fitted convergence order
        "rank_rel": 1e-10,         # singular value cutoff, relative to s1
        "agreement": 1e-12,        # FFT vs dense matvec
        "involution": 1e-12,
        "rho_max_rel_err": 0.15,   # direct vs structured rho misfit at one
                                   # grid; scales like h^2, so n = 8 sits
                                   # near 0.1 and n = 16 near 0.025
        "reconstruct": 1e-9,
        "structure": 1e-8,
        "psnr_min": 80.0,
    }


@dataclass
class RunConfig:
    kernel: str = "identity"
    params: Dict[str, float] = field(default_factory=dict)
    alpha: Tuple[str, float, float] = ("none", 0.1, 1.0)
    beta: Tuple[str, float, float] = ("none", 0.1, 1.0)
    omega1: float = 1.0
    omega2: float = 1.0
    n1: int = 8
    n2: int = 8
    sizes: List[int] = field(default_factory=lambda: [8, 16, 32])
    seed: int = 0
    normalize: bool = True
    # default mu grids keep a >= 0.4 separation from every lambda value so
    # the 1/(mu_k - lam_k) prefactor cannot amplify quadrature error much
    rho_lambda1: List[float] = field(default_factory=lambda: [-2.0, -0.9, 0.3, 1.1, 2.2])
    rho_lambda2: List[float] = field(default_factory=lambda: [-1.7, -0.6, 0.4, 1.3, 2.1])
    rho_mu1: List[float] = field(default_factory=lambda: [-1.5, -0.4, 0.7, 1.65, 2.7])
    rho_mu2: List[float] = field(default_factory=lambda: [-1.2, -0.1, 0.85, 1.75, 2.6])
    tolerances: Dict[str, float] = field(default_factory=default_tolerances)

    def set_tolerance(self, key: str, raw, line: Optional[int] = None) -> None:
        """Set a named tolerance; it must be a finite number >= 0."""
        if key not in self.tolerances:
            raise ConfigError(f"unknown tolerance {key!r}; known: {sorted(self.tolerances)}",
                              line=line, field=key)
        try:
            val = float(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse value {raw!r}: {exc}",
                              line=line, field=key) from exc
        if not (math.isfinite(val) and val >= 0):
            raise ConfigError(f"tolerance must be finite and >= 0, got {raw!r}",
                              line=line, field=key)
        self.tolerances[key] = val

    def make_grid(self, n1: Optional[int] = None, n2: Optional[int] = None) -> GridSpec:
        return make_grid(self.omega1, self.omega2,
                         self.n1 if n1 is None else n1,
                         self.n2 if n2 is None else n2)

    def check_profiles(self, lines: Optional[Dict[str, int]] = None) -> None:
        """Raise ConfigError if the separable family, which fixes its own
        edge profiles, is given one; ``lines`` maps keys to config lines."""
        given = [side for side in ("alpha", "beta") if getattr(self, side)[0] != "none"]
        if self.kernel == "separable" and given:
            raise ConfigError("the separable family fixes its own edge profiles; "
                              f"it takes no {given[0]!r}",
                              line=(lines or {}).get(given[0]), field=given[0])

    def build_model(self) -> KernelModel:
        self.check_profiles()
        model = _FAMILIES[self.kernel](**self.params)
        if self.alpha[0] != "none" or self.beta[0] != "none":
            model = with_profiles(model, alpha=self.alpha, beta=self.beta)
        return model

    def echo(self) -> dict:
        """Config as a plain dict for report embedding (fixed key order)."""
        return {
            "kernel": self.kernel,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "omega1": self.omega1,
            "omega2": self.omega2,
            "n1": self.n1,
            "n2": self.n2,
            "sizes": self.sizes,
            "seed": self.seed,
            "normalize": self.normalize,
        }


def parse_sizes(raw: str, line: Optional[int] = None, field: str = "sizes") -> List[int]:
    """Comma list of square grid sizes for a convergence study: at least
    two distinct integers >= 2 (an order needs two points, and a repeated
    size would count twice in the fit)."""
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}", line=line, field=field) from exc
    if any(n < 2 for n in sizes) or len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ConfigError(f"sizes must be at least two distinct integers >= 2; got {raw!r}",
                          line=line, field=field)
    return sizes


def check_seed(seed: int, line: Optional[int] = None, field: str = "seed") -> int:
    """RNG seed for the randomized checks: an integer >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be an integer >= 0; got {seed}", line=line, field=field)
    return seed


def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return val


def _parse_value(key: str, raw: str, line_no: int):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return _finite(raw)
        if key == "seed":
            return check_seed(int(raw), line_no)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _LIST_INT_KEYS:
            return parse_sizes(raw, line_no, key)
        if key in _LIST_FLOAT_KEYS:
            vals = [_finite(tok) for tok in raw.split(",") if tok.strip()]
            if not vals:
                raise ValueError("empty list")
            return vals
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}",
                          line=line_no, field=key) from exc


def parse_config_text(text: str) -> RunConfig:
    values = {}
    lines = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=line_no)
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _KNOWN:
            raise ConfigError(f"unknown key {key!r}", line=line_no, field=key)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=line_no, field=key)
        values[key] = _parse_value(key, raw, line_no)
        lines[key] = line_no

    if "kernel" not in values:
        raise ConfigError("missing required key 'kernel'", field="kernel")
    kernel = values.pop("kernel")
    if kernel not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {kernel!r}, "
                          f"expected one of {tuple(_FAMILIES)}",
                          line=lines.get("kernel"), field="kernel")

    cfg = RunConfig(kernel=kernel)
    for key, val in values.items():
        if key in _PARAM_KEYS:
            if key not in _FAMILY_KEYS[kernel]:
                raise ConfigError(
                    f"the {kernel} family takes no parameter {key!r}; "
                    f"it takes {sorted(_FAMILY_KEYS[kernel])}",
                    line=lines[key], field=key)
            cfg.params[key] = val
        elif key in ("alpha", "beta") or key in _PROFILE_PARAMS:
            # folded into the profile tuples below
            side = key.split("_")[0]
            if key == side and val not in PROFILE_KINDS:
                raise ConfigError(
                    f"unknown profile {val!r}, expected one of {PROFILE_KINDS}",
                    line=lines[key], field=key)
            if key != side and values.get(side, "none") == "none":
                raise ConfigError(f"{key!r} needs a {side} profile; set {side} to one of "
                                  f"{PROFILE_KINDS[1:]}", line=lines[key], field=key)
        elif key in ("omega1", "omega2"):
            if val <= 0:
                raise ConfigError("rectangle sides must be positive",
                                  line=lines[key], field=key)
            setattr(cfg, key, val)
        elif key in ("n1", "n2"):
            if val < 2:
                raise ConfigError("need at least 2 points per side",
                                  line=lines[key], field=key)
            setattr(cfg, key, val)
        elif key == "rho_max_rel_err":
            cfg.set_tolerance(key, val, line=lines[key])
        else:
            setattr(cfg, key, val)

    cfg.alpha = (values.get("alpha", "none"), values.get("alpha_amp", 0.1),
                 values.get("alpha_rate", 1.0))
    cfg.beta = (values.get("beta", "none"), values.get("beta_amp", 0.1),
                values.get("beta_rate", 1.0))
    cfg.check_profiles(lines)
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())
