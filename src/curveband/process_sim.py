"""Synthetic curve panels: mean signals, stochastic paths, and noise.

Generates the panel Y_ij = f(t_j) + Z_i(t_j) + eps_ij for four process
families (Brownian bridge, Brownian motion, stationary AR(1), and its
cumulative-sum integration), with calibration of the noise level via the
process-to-noise variance ratio and of the signal amplitude via a target
signal-to-noise ratio.  Each family is defined once, by its covariance
matrix on the grid, which no other module reads: panels and the
theoretical coefficient variances come from its Cholesky factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grid_basis import BasisMatrix, Grid, check_count, check_nonnegative, check_open, check_seed

__all__ = [
    "SignalSpec",
    "ProcessSpec",
    "PanelConfig",
    "CurvePanel",
    "Calibration",
    "eval_signal",
    "covariance_matrix",
    "process_variance",
    "calibrate",
    "generate_panel",
    "replicate_configs",
    "sigma_k_theoretical",
]

# The parameters each signal and process kind reads.  A spec holds every
# other field at its default, so one process has one spec and one cached
# factor, and the CLI reads its key checks and sidecar echo from here.
_AR_PARAMS = ("ar_phi", "innovation_sd")
KIND_PARAMS = {
    "signal": {"signal1": ("c1", "c2"), "signal2": ("c3",), "custom": ("custom_values",)},
    "process": {"bb": (), "bm": (), "ar1": _AR_PARAMS, "arima11": _AR_PARAMS},
}
SIGNAL_KINDS = tuple(KIND_PARAMS["signal"])
PROCESS_KINDS = tuple(KIND_PARAMS["process"])


def check_keys(keys, known, where: str):
    """Reject keys outside known, naming them and where they were given."""
    unread = sorted(set(keys) - set(known))
    if unread:
        raise ValueError(f"{where} does not read key(s) {unread}; it reads some of {sorted(known)}")


def check_kind(kind, family: str):
    """Reject a kind, such as a list or an unknown name, that is not one of the family's."""
    if not (isinstance(kind, str) and kind in KIND_PARAMS[family]):
        raise ValueError(f"unknown {family} kind {kind!r}")


def _check_unread_at_default(spec, family: str):
    """A field the spec's kind does not read must keep its default."""
    changed = [f.name for f in fields(spec) if f.name != "kind" and getattr(spec, f.name) != f.default]
    check_keys(changed, KIND_PARAMS[family][spec.kind], f"{spec.kind} {family}")


@dataclass(frozen=True)
class SignalSpec:
    """Mean-function family.

    signal1 is a pair of Gaussian bumps (amplitudes c1, c2), signal2 a
    pair of indicator plateaus (common amplitude c3), custom a fixed
    vector of grid values.
    """

    kind: str = "signal1"
    c1: float = 0.75
    c2: float = 1.93
    c3: float = 1.0
    custom_values: tuple | None = None

    def __post_init__(self):
        check_kind(self.kind, "signal")
        for name in ("c1", "c2", "c3"):
            check_open(getattr(self, name), name, -np.inf, np.inf)
        values = self.custom_values
        if values is not None:
            if not (isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1):
                raise ValueError(f"custom_values must be a list of grid values, got {values!r}")
            for v in values:
                check_open(v, "custom_values", -np.inf, np.inf)
            object.__setattr__(self, "custom_values", tuple(float(v) for v in values))
        elif self.kind == "custom":
            raise ValueError("custom signal needs custom_values")
        _check_unread_at_default(self, "signal")


@dataclass(frozen=True)
class ProcessSpec:
    """Zero-mean process family; ar_phi and innovation_sd drive ar1 and arima11."""

    kind: str = "bb"
    ar_phi: float = 0.5
    innovation_sd: float = 1.0

    def __post_init__(self):
        check_kind(self.kind, "process")
        check_open(self.ar_phi, "ar_phi", -1, 1)
        check_open(self.innovation_sd, "innovation_sd", 0, np.inf)
        _check_unread_at_default(self, "process")


@dataclass(frozen=True, eq=False)
class PanelConfig:
    """One simulated panel; f, its mean on the grid, is derived once and
    read-only, so a custom signal that does not fit the grid fails here."""

    n: int
    grid: Grid
    signal: SignalSpec
    process: ProcessSpec
    noise_sd: float
    seed: int
    f: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # n >= 2 so the coefficient sample SD downstream is defined
        check_count(self.n, "n", 2)
        check_nonnegative(self.noise_sd, "noise_sd")
        check_seed(self.seed, "seed")
        object.__setattr__(self, "f", _cached_signal(self.signal, self.grid))


@dataclass(frozen=True, eq=False)
class CurvePanel:
    """n curves observed on the m-point grid, one per row of Y; the grid is
    derived from the width of Y."""

    Y: np.ndarray
    grid: Grid = field(init=False)

    def __post_init__(self):
        Y = np.array(self.Y, dtype=float)
        if Y.ndim != 2:
            raise ValueError(f"panel must be an n x m matrix, got shape {Y.shape}")
        if not np.isfinite(Y).all():
            raise ValueError("panel entries must be finite")
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "grid", Grid(Y.shape[1]))

    @property
    def n(self) -> int:
        return self.Y.shape[0]


def eval_signal(spec: SignalSpec, grid: Grid) -> np.ndarray:
    t = grid.points
    if spec.kind == "signal1":
        return spec.c1 * np.exp(-64.0 * (t - 0.25) ** 2) + spec.c2 * np.exp(
            -256.0 * (t - 0.75) ** 2
        )
    if spec.kind == "signal2":
        first = ((t > 0.35) & (t < 0.375)).astype(float)
        second = ((t > 0.75) & (t < 0.875)).astype(float)
        return spec.c3 * first + spec.c3 * second
    values = np.asarray(spec.custom_values, dtype=float)
    if values.shape != (grid.m,):
        raise ValueError(f"custom signal length {values.shape} does not match m={grid.m}")
    return values.copy()


@functools.lru_cache(maxsize=8)
def _cached_signal(signal: SignalSpec, grid: Grid) -> np.ndarray:
    """eval_signal for up to eight (signal, m) pairs, read-only, for
    PanelConfig.f: a scenario runner builds every panel of a run from one
    signal and cycles through four calibrated ones."""
    values = eval_signal(signal, grid)
    values.setflags(write=False)
    return values


def _check_process(process, caller: str):
    if not isinstance(process, ProcessSpec):
        raise TypeError(f"{caller} needs a ProcessSpec, got {type(process).__name__}")


def covariance_matrix(process: ProcessSpec, grid: Grid) -> np.ndarray:
    """Full kernel matrix Gamma(t_i, t_j) on the grid."""
    _check_process(process, "covariance_matrix")
    t = grid.points
    if process.kind == "bb":
        return np.minimum.outer(t, t) - np.outer(t, t)
    if process.kind == "bm":
        return np.minimum.outer(t, t)
    phi = process.ar_phi
    var = process.innovation_sd**2 / (1.0 - phi**2)
    lags = var * phi ** np.arange(grid.m)
    # row i is lags[|i - j|] over j: windows of one 2m - 1 vector, copied
    both = np.concatenate([lags[:0:-1], lags])
    cov = np.lib.stride_tricks.sliding_window_view(both, grid.m)[::-1].copy()
    if process.kind == "arima11":
        # integrated AR(1): covariance of the running sums, down the columns
        # a row at a time (np.cumsum along axis 0 walks each column through
        # memory, several times slower at m=1024), then along the rows
        for i in range(1, grid.m):
            cov[i] += cov[i - 1]
        np.cumsum(cov, axis=1, out=cov)
    return cov


@functools.lru_cache(maxsize=1)
def _cholesky_t(process: ProcessSpec, noise_sd: float, grid: Grid) -> np.ndarray:
    """Read-only upper Cholesky factor U of Gamma + noise_sd^2 I, so U^T U is
    the covariance of one noisy curve; adding 0.0 is exact.

    Every replicate loop draws all of its panels from one (process, noise,
    grid), so one cached factor serves them all; at m=1024 building and
    factorising the covariance costs about five n=200 panels.  Grids
    compare by m, so two grid objects of the same m share the factor.
    """
    cov = covariance_matrix(process, grid)
    cov.flat[:: grid.m + 1] += noise_sd**2
    upper = np.linalg.cholesky(cov).T
    upper.setflags(write=False)
    return upper


def process_variance(process: ProcessSpec, grid: Grid) -> np.ndarray:
    """Gamma(t_j, t_j) on the grid, read-only and shared by every caller of
    the same (process, m)."""
    _check_process(process, "process_variance")
    return _cached_process_variance(process, grid)


@functools.lru_cache(maxsize=8)
def _cached_process_variance(process: ProcessSpec, grid: Grid) -> np.ndarray:
    """The covariance diagonal for up to eight (process, m) pairs, copied
    so the m x m matrix is freed.

    Its own cache, not the one-entry factor's: calibrate reads three or
    four processes in a row, and a scenario runner cycles through four.
    """
    variance = np.diag(covariance_matrix(process, grid)).copy()
    variance.setflags(write=False)
    return variance


def _median(values) -> np.float64:
    """np.median of a nonempty finite vector, bit for bit: the middle sorted
    value, or the mean of the middle two, each summed from +0.0 as
    np.median's mean sums them.  np.median imports numpy.ma on its first
    call, which costs a fresh process more than every median it takes.
    Private, but metrics_bench.run_scenario takes its medians from it too."""
    s = np.sort(values)
    k = len(s) // 2
    return s[k] + 0.0 if len(s) % 2 else (s[k - 1] + s[k] + 0.0) / 2.0


@dataclass(frozen=True)
class Calibration:
    noise_sd: float
    signal: SignalSpec
    process: ProcessSpec


def _match_innovation(process: ProcessSpec, grid: Grid) -> ProcessSpec:
    """Set innovation_sd so the process variance matches its Brownian twin.

    ar1 matches the Brownian bridge's median pointwise variance (its
    stationary variance is constant); arima11 matches Brownian motion's.
    """
    if process.kind == "ar1":
        target = _median(process_variance(ProcessSpec(kind="bb"), grid))
        sd = np.sqrt(target * (1.0 - process.ar_phi**2))
        return replace(process, innovation_sd=float(sd))
    if process.kind == "arima11":
        target = _median(process_variance(ProcessSpec(kind="bm"), grid))
        unit = replace(process, innovation_sd=1.0)
        base_median = _median(process_variance(unit, grid))
        return replace(process, innovation_sd=float(np.sqrt(target / base_median)))
    return process


def calibrate(
    process: ProcessSpec,
    grid: Grid,
    sigma_star: float,
    snr: float,
    signal: SignalSpec,
) -> Calibration:
    """Derive noise level and signal scale from (sigma*, SNR).

    sigma* = Var[Z]/sigma_eps^2 with Var[Z] the median pointwise process
    variance; SNR = Range[f]/sqrt(Var[Z] + sigma_eps^2).  Autoregressive
    processes first get their innovation matched to the paired Brownian
    variance, so calibrated scenarios differ only in dependence structure.
    """
    check_open(sigma_star, "sigma_star", 0, np.inf)
    check_open(snr, "snr", 0, np.inf)
    if process.innovation_sd != ProcessSpec.innovation_sd:
        raise ValueError(f"calibrate derives innovation_sd, so it must keep its default, got {process.innovation_sd}")
    process = _match_innovation(process, grid)
    var_z = float(_median(process_variance(process, grid)))
    noise_sd = float(np.sqrt(var_z / sigma_star))
    values = eval_signal(signal, grid)
    rng_f = float(np.max(values) - np.min(values))
    if rng_f == 0.0:
        raise ValueError("cannot calibrate a zero-range signal")
    factor = snr * np.sqrt(var_z + noise_sd**2) / rng_f
    if signal.kind == "signal1":
        scaled = replace(signal, c1=signal.c1 * factor, c2=signal.c2 * factor)
    elif signal.kind == "signal2":
        scaled = replace(signal, c3=signal.c3 * factor)
    else:
        scaled = replace(signal, custom_values=tuple(v * factor for v in values))
    return Calibration(noise_sd=noise_sd, signal=scaled, process=process)


def generate_panel(config: PanelConfig) -> CurvePanel:
    """n independent noisy curves; deterministic given the seed.

    Each row of Y - f is N(0, Gamma + noise_sd^2 I), a path plus white
    noise, so one generator draws one n x m standard normal block N and
    Y = f + N U, with U that covariance's upper Cholesky factor.
    """
    grid = config.grid
    rng = np.random.default_rng(config.seed)
    Y = rng.standard_normal((config.n, grid.m)) @ _cholesky_t(config.process, config.noise_sd, grid)
    Y += config.f  # in place: N U + f is f + N U bit for bit
    return CurvePanel(Y)


def replicate_configs(template: PanelConfig, base_seed: int, S: int) -> list:
    """S copies of template, copy r seeded with the r-th word derived from base_seed.

    bands.each_replicate draws every replicated experiment's panels from
    this list, so a replicate can be rerun alone from the panel seed quoted.
    """
    check_count(S, "S", 1)
    check_seed(base_seed, "base_seed")
    seeds = np.random.SeedSequence(base_seed).generate_state(S, dtype=np.uint64)
    t = template
    # built directly, not by dataclasses.replace, which costs as much again
    return [PanelConfig(t.n, t.grid, t.signal, t.process, t.noise_sd, int(seed)) for seed in seeds]


def sigma_k_theoretical(process: ProcessSpec, basis: BasisMatrix) -> np.ndarray:
    """Coefficient variances sigma_k^2 = (1/m^2) phi_k' Gamma phi_k.

    With Gamma = L L^T this is |L^T phi_k|^2 / m^2, a sum of squares and
    never negative; L is built uncached, so one m x m factor stays resident.
    The result is read-only and shared by every caller of the same
    (process, basis object).
    """
    _check_process(process, "sigma_k_theoretical")
    return _cached_sigma_k(process, basis)


@functools.lru_cache(maxsize=8)
def _cached_sigma_k(process: ProcessSpec, basis: BasisMatrix) -> np.ndarray:
    """sigma_k^2 for up to eight (process, basis) pairs: four processes on
    both families.  BasisMatrix hashes by identity, and the key's strong
    reference keeps its id from being reused, so a hand-built basis never
    reads another basis's entry; an entry also keeps its basis alive."""
    proj = _cholesky_t.__wrapped__(process, 0.0, basis.grid) @ basis.values
    variances = np.sum(proj**2, axis=0) / basis.m**2
    variances.setflags(write=False)
    return variances
