"""Noise-level schedule and prior-strength schedules.

The sigma schedule drives the sampler: N denoiser calls at strictly positive,
strictly decreasing noise levels, plus a final level of exactly 0 as the
integration target. The normalized step position i/(N-1) feeds the
prior-strength gate, which is a cosine-decayed, hard-cutoff weight evaluated
globally or per region through a binary activity map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConfigError, FileFormatError
from .netpbm import read_frame
from .tensor import trilinear_resize

GLOBAL_SCHEDULES = ("constant", "cosine", "gated_cosine")  # one strength for every cell
SCHEDULE_MODES = GLOBAL_SCHEDULES + ("regional",)


@dataclass(frozen=True)
class SigmaSchedule:
    """Discrete noise levels sigma_0..sigma_N with sigma_N = 0.

    sigmas has N+1 entries; step i denoises at sigmas[i] and integrates to
    sigmas[i+1]. times[i] = i/(N-1) is the normalized step position used by
    the prior gate (0.0 for a single-step schedule).
    """

    sigmas: tuple[float, ...]
    times: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        sig = self.sigmas
        n = len(sig) - 1
        if n < 1:
            raise ArgumentError("schedule needs at least one step")
        if abs(sig[0] - 1.0) > 1e-12:
            raise ArgumentError(f"sigma_0 must be 1.0, got {sig[0]}")
        if sig[-1] != 0.0:
            raise ArgumentError(f"final sigma must be 0.0, got {sig[-1]}")
        for a, b in zip(sig, sig[1:]):
            if not b < a:
                raise ArgumentError(f"sigmas must strictly decrease, got {a} -> {b}")
        if any(s <= 0.0 for s in sig[:-1]):
            raise ArgumentError("sampled sigmas must be positive")
        times = tuple(i / (n - 1) for i in range(n)) if n > 1 else (0.0,)
        object.__setattr__(self, "times", times)

    @property
    def steps(self) -> int:
        return len(self.sigmas) - 1

    @classmethod
    def linear(cls, steps: int) -> "SigmaSchedule":
        """sigma_i = 1 - i/N: unit noise down to zero in equal decrements."""
        if steps < 1:
            raise ArgumentError(f"steps must be >= 1, got {steps}")
        return cls(tuple(1.0 - i / steps for i in range(steps)) + (0.0,))

    @classmethod
    def from_list(cls, sampled: "list[float]") -> "SigmaSchedule":
        """Custom sampled sigmas (positive, decreasing, first 1.0); the final
        0 is appended here."""
        return cls(tuple(float(s) for s in sampled) + (0.0,))


def lambda_global(t: float, tau: float, lambda_base: float) -> float:
    """Cosine-decayed prior strength with a hard gate at t > tau."""
    if lambda_base < 0:
        raise ArgumentError(f"base strength must be nonnegative, got {lambda_base}")
    if t > tau:
        return 0.0
    return lambda_base * math.cos(t * math.pi / 2.0)


@dataclass(frozen=True)
class PriorScheduleConfig:
    """Prior-strength configuration.

    mode 'constant' ignores the gate entirely; 'cosine' decays without a
    gate; 'gated_cosine' applies the cutoff tau; 'regional' switches between
    tau_active and tau_background per cell of the activity map.
    """

    lambda_base: float = 0.0
    mode: str = "gated_cosine"
    tau: float = 0.1
    tau_active: float = 0.1
    tau_background: float = 0.35
    activity_map: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda_base < 0:
            raise ConfigError(f"lambda_base must be nonnegative, got {self.lambda_base}")
        if self.mode not in SCHEDULE_MODES:
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if self.tau_active > self.tau_background:
            raise ConfigError(
                f"active cutoff {self.tau_active} must not exceed background "
                f"cutoff {self.tau_background}"
            )
        if self.mode == "regional":
            if self.activity_map is None:
                raise ConfigError("regional schedule requires an activity map")
            a = np.asarray(self.activity_map)
            if a.ndim != 2:
                raise ConfigError(f"activity map must be 2-D, got {a.ndim}-D")
            if not np.isin(a, (0, 1)).all():
                raise ConfigError("activity map must be binary")
            object.__setattr__(self, "activity_map", a.astype(bool))

    def strength_at(self, t: float):
        """Prior strength at normalized step t: scalar, or an (H, W) plane in
        regional mode."""
        if self.mode == "constant":
            return self.lambda_base
        if self.mode == "cosine":
            return self.lambda_base * math.cos(t * math.pi / 2.0)
        if self.mode == "gated_cosine":
            return lambda_global(t, self.tau, self.lambda_base)
        return lambda_regional(t, self, self.activity_map)


def lambda_regional(t: float, cfg: PriorScheduleConfig, activity: np.ndarray) -> np.ndarray:
    """Per-cell gated strength: the active-region cutoff where the map is 1,
    the background cutoff where it is 0. Returns an (H, W) float32 plane."""
    if activity is None:
        raise ConfigError("regional strength requires an activity map")
    a = np.asarray(activity).astype(bool)
    fg = lambda_global(t, cfg.tau_active, cfg.lambda_base)
    bg = lambda_global(t, cfg.tau_background, cfg.lambda_base)
    return np.where(a, np.float32(fg), np.float32(bg)).astype(np.float32)


def load_activity_map(path, target_h: int, target_w: int) -> np.ndarray:
    """Read a stored activity map, a single-channel frame (P5 PGM or FLT1),
    rescale it to the latent grid, and binarize with the test value > 0.
    Returns a boolean (target_h, target_w) array."""
    plane = read_frame(path)
    if plane.ndim != 2:
        raise FileFormatError(f"{path}: activity map must be single-channel, got {plane.shape}")
    # a non-negative scale, such as a PGM's maxval, cannot change which cells are > 0
    plane = np.clip(plane, 0, 1).astype(np.float32)
    if plane.shape != (target_h, target_w):
        plane = trilinear_resize(plane[None, None], 1, target_h, target_w)[0, 0]
    return plane > 0.0
