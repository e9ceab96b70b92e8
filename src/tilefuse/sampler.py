"""Tiled sampling loops.

One run draws seeded noise on the canvas, then repeats: crop every planned
tile, denoise the tiles (concurrently if configured), merge the predictions
with the prior-regularized closed form, and take one Euler step in sigma.
The state convention is x = clean + sigma * (noise - clean), so the model
output approximates noise - clean, the one-step clean estimate is
x - sigma * y, and integration follows x' = x + (sigma' - sigma) * y.

A thread pool of the configured worker count lives for the whole run. It
predicts tiles while the calling thread adds each finished prediction to the
float64 numerator. Predictions may finish in any order, but they are added
strictly in plan order, and at most 2 x workers are in flight (submitted but
not yet added). The weight denominator is the same every step and is built
once. The merge, the trace statistic and the Euler update then run as one
pass per channel on the same pool. Every cell sees the same arithmetic in
the same order whatever the worker count, so runs are bitwise reproducible.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .blending import DEFAULT_MIN_WEIGHT, ramp_weight_map
from .denoisers import DenoiserRequest
from .errors import ConfigError, DenoiseError, ShapeError
from .fusion import (  # accumulate stays importable from this module
    FusionAccumulator,
    accumulate,
    add_weighted_tile,
    fuse_fd_flow,
    fuse_md,
)
from .planner import TilePlan, plan_tiles
from .schedules import PriorScheduleConfig, SigmaSchedule
from .tensor import as_latent, crop, ensure_finite, trilinear_resize

RUN_MODES = ("md", "fd", "fd_regional")


@dataclass(frozen=True)
class SamplerConfig:
    """One sampling run's settings. The plan, the sigma schedule and the
    tile weight maps are built here, once, so a bad value fails at
    construction; the lower layers' range checks raise ArgumentError."""

    canvas_shape: tuple[int, int, int, int]
    steps: int = 6
    sigmas: tuple[float, ...] | None = None  # custom sampled levels, sans final 0
    window_h: int = 60
    window_w: int = 104
    overlap: float = 0.3
    ramp: int | tuple[int, int] | None = None  # None: span the overlap extent
    min_weight: float = DEFAULT_MIN_WEIGHT
    prior: PriorScheduleConfig = field(default_factory=PriorScheduleConfig)
    mode: str = "fd"
    seed: int = 0
    workers: int = 1
    conditioning: str = ""

    def __post_init__(self):
        if self.mode not in RUN_MODES:
            raise ConfigError(f"unknown run mode {self.mode!r}")
        if len(self.canvas_shape) != 4 or min(self.canvas_shape) < 1:
            raise ConfigError(f"bad canvas shape {self.canvas_shape}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit value, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.mode == "fd_regional":
            if self.prior.mode != "regional":
                raise ConfigError("fd_regional mode needs a regional prior schedule")
            a = self.prior.activity_map
            if a.shape != self.canvas_shape[2:]:
                raise ConfigError(
                    f"activity map {a.shape} does not match canvas "
                    f"{self.canvas_shape[2:]}"
                )
        elif self.mode == "fd" and self.prior.mode == "regional":
            raise ConfigError("regional prior schedule requires fd_regional mode")

        if self.sigmas is None:
            schedule = SigmaSchedule.linear(self.steps)
        else:
            schedule = SigmaSchedule.from_list(list(self.sigmas))
            if schedule.steps != self.steps:
                raise ConfigError(
                    f"custom schedule has {schedule.steps} steps, config says {self.steps}"
                )
        plan = plan_tiles(
            self.canvas_shape[2],
            self.canvas_shape[3],
            self.window_h,
            self.window_w,
            self.overlap,
        )
        ramp = self.ramp
        if ramp is None:
            ramp = (
                max(0, plan.window_h - plan.stride_h),
                max(0, plan.window_w - plan.stride_w),
            )
        weights = {
            (r.height, r.width): ramp_weight_map(
                r.height, r.width, ramp, self.min_weight
            ).astype(np.float64)
            for r in plan.tiles
        }
        # frozen: the built parts go straight into the instance dict
        self.__dict__.update(_schedule=schedule, _plan=plan, _weights=weights)

    def schedule(self) -> SigmaSchedule:
        return self._schedule

    def plan(self) -> TilePlan:
        return self._plan

    def weights(self) -> dict:
        """float64 weight map of each tile size, keyed by (height, width)."""
        return self._weights


@dataclass(frozen=True)
class StepRecord:
    step: int
    t: float
    sigma: float
    lam_min: float
    lam_max: float
    fg_mse: float | None
    bg_mse: float | None


@dataclass
class RunTrace:
    records: list[StepRecord] = field(default_factory=list)

    HEADER = "step\tt\tsigma\tlambda_min\tlambda_max\tfg_mse\tbg_mse"

    def to_tsv(self) -> str:
        def cell(v):
            return "-" if v is None else f"{v:.8g}"

        lines = [self.HEADER]
        for r in self.records:
            lines.append(
                f"{r.step}\t{r.t:.8g}\t{r.sigma:.8g}\t{cell(r.lam_min)}"
                f"\t{cell(r.lam_max)}\t{cell(r.fg_mse)}\t{cell(r.bg_mse)}"
            )
        return "\n".join(lines) + "\n"


def make_noise(canvas_shape, seed: int, stream: int = 0) -> np.ndarray:
    """Standard-normal canvas from the counter-based Philox generator,
    filled in canonical layout order. Distinct streams of one seed are
    independent (stage separation in the pipeline)."""
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(canvas_shape, dtype=np.float32)


def build_prior(prior_latent: np.ndarray, canvas_shape) -> np.ndarray:
    """Upsample a native-resolution prior onto the canvas grid. A float32
    prior already at canvas shape is returned as is, not copied."""
    prior_latent = as_latent(prior_latent, "prior")
    c, t, h, w = canvas_shape
    if prior_latent.shape[0] != c:
        raise ShapeError(
            f"prior has {prior_latent.shape[0]} channels, canvas has {c}"
        )
    if prior_latent.shape == tuple(canvas_shape):
        return prior_latent
    return trilinear_resize(prior_latent, t, h, w)


def euler_update(x: np.ndarray, y: np.ndarray, dsigma: float, out=None) -> np.ndarray:
    """x + dsigma * y, evaluated in float64 and rounded to float32, into out
    if given."""
    x_next = y.astype(np.float64)
    x_next *= dsigma
    x_next += x
    if out is None:
        return x_next.astype(np.float32)
    np.copyto(out, x_next, casting="same_kind")
    return out


def trace_prior_mse(x_t, sigma_t, y, x_prior, activity=None):
    """Mean squared distance of the one-step clean estimate from the prior,
    split by the activity partition. Empty partitions report None."""
    sq = y.astype(np.float64)
    sq *= sigma_t
    np.subtract(x_t, sq, out=sq)  # the clean estimate x_t - sigma * y
    sq -= x_prior
    np.square(sq, out=sq)
    if activity is None:
        return float(sq.mean()), None
    mask = np.asarray(activity, dtype=bool)
    if mask.shape != sq.shape[sq.ndim - mask.ndim:]:
        mask = np.broadcast_to(mask, sq.shape)
    # a trailing-axes mask selects the same cells in the same order as the
    # broadcast one, without index arrays over the leading axes; the means
    # run over the flat selection so the summation order is unchanged too
    fg = float(sq[..., mask].ravel().mean()) if mask.any() else None
    bg = float(sq[..., ~mask].ravel().mean()) if not mask.all() else None
    return fg, bg


class TiledSampler:
    """Bound sampling state: plan, schedule, weight maps, prior, denoiser."""

    def __init__(self, cfg: SamplerConfig, denoiser, prior=None):
        self.cfg = cfg
        self.denoiser = denoiser
        self.plan = cfg.plan()
        self.schedule = cfg.schedule()
        self._weights = cfg.weights()

        if prior is None:
            if cfg.mode != "md" and cfg.prior.lambda_base > 0:
                raise ConfigError("prior-regularized run needs a prior latent")
            self.prior = np.zeros(cfg.canvas_shape, dtype=np.float32)
        else:
            self.prior = build_prior(prior, cfg.canvas_shape)

        # the weight sum is the same every step: add it up once, in plan order
        self._den = np.zeros(cfg.canvas_shape[2:], dtype=np.float64)
        for r in self.plan.tiles:
            self._den[r.row_slice, r.col_slice] += self._weights[(r.height, r.width)]
        self._pool = None
        self._depth = 0  # most predictions submitted but not yet added

    @contextmanager
    def _executor(self):
        """The run's tile pool; a step called outside run gets its own."""
        if self._pool is not None:
            yield self._pool
            return
        workers = self.cfg.workers
        with ThreadPoolExecutor(workers, thread_name_prefix="tilefuse-tile") as pool:
            self._pool, self._depth = pool, 2 * workers
            try:
                yield pool
            finally:
                self._pool = None

    def _predict_tile(self, x, i, t, sigma, k, rect):
        req = DenoiserRequest(
            tile=crop(x, rect),
            step_index=i,
            t=t,
            sigma=sigma,
            conditioning=self.cfg.conditioning,
            rect=rect,
        )
        try:
            resp = self.denoiser(req)
        except Exception as exc:
            raise DenoiseError(
                f"step {i}, tile {k} at ({rect.row},{rect.col}): {exc}"
            ) from exc
        if resp.kind != "flow":
            raise DenoiseError(
                f"step {i}, tile {k}: denoiser returned {resp.kind!r} "
                f"prediction, the loop integrates 'flow'"
            )
        pred = resp.prediction
        if pred.shape != req.tile.shape:
            raise DenoiseError(
                f"step {i}, tile {k}: prediction shape {pred.shape} does not "
                f"match tile {req.tile.shape}"
            )
        ensure_finite(pred, f"step {i} tile {k} prediction")
        return pred

    def _accumulate(self, pool, num, x, i, t, sigma):
        """Add every tile's weighted prediction to num in plan order while
        the pool predicts the next ones. On failure the queued predictions
        are cancelled and the running ones awaited before the error leaves."""
        pending = deque()

        def add_oldest():
            rect, future = pending.popleft()
            pred = future.result()
            add_weighted_tile(num, pred, rect, self._weights[(rect.height, rect.width)])

        try:
            for k, rect in enumerate(self.plan.tiles):
                pending.append(
                    (rect, pool.submit(self._predict_tile, x, i, t, sigma, k, rect))
                )
                if len(pending) == self._depth:
                    add_oldest()
            while pending:
                add_oldest()
        finally:
            futures = [future for _, future in pending]
            for future in futures:
                future.cancel()
            wait(futures)

    def step(self, x: np.ndarray, i: int):
        """One sampler step; returns (x_next, StepRecord)."""
        t = self.schedule.times[i]
        sigma = self.schedule.sigmas[i]
        sigma_next = self.schedule.sigmas[i + 1]
        lam = 0.0 if self.cfg.mode == "md" else self.cfg.prior.strength_at(t)
        plain = np.ndim(lam) == 0 and float(lam) == 0.0
        activity = self.cfg.prior.activity_map

        x = as_latent(x, "latent")
        if x.shape != tuple(self.cfg.canvas_shape):
            raise ShapeError(
                f"latent {x.shape} does not match canvas {self.cfg.canvas_shape}"
            )
        num = np.zeros(x.shape, dtype=np.float64)
        x_next = np.empty_like(x)

        def update(c):
            """Merge, trace and Euler-update channel c."""
            block = slice(c, c + 1)
            acc = FusionAccumulator(num=num[block], den=self._den)
            if plain:
                y = fuse_md(acc)
            else:
                y = fuse_fd_flow(acc, x[block], self.prior[block], lam, sigma)
            mse = trace_prior_mse(x[block], sigma, y, self.prior[block], activity)
            euler_update(x[block], y, sigma_next - sigma, out=x_next[block])
            return mse

        with self._executor() as pool:
            self._accumulate(pool, num, x, i, t, sigma)
            per_channel = list(pool.map(update, range(x.shape[0])))

        fg, bg = (_mean_or_none(part) for part in zip(*per_channel))
        lam_arr = np.asarray(lam, dtype=np.float64)
        record = StepRecord(
            step=i,
            t=t,
            sigma=sigma,
            lam_min=float(lam_arr.min()),
            lam_max=float(lam_arr.max()),
            fg_mse=fg,
            bg_mse=bg,
        )
        return x_next, record

    def run(self, initial_noise=None):
        if initial_noise is None:
            x = make_noise(self.cfg.canvas_shape, self.cfg.seed)
        else:
            x = as_latent(initial_noise, "initial noise")
            del initial_noise  # the first step's result replaces it
            if x.shape != self.cfg.canvas_shape:
                raise ShapeError(
                    f"initial noise {x.shape} does not match canvas "
                    f"{self.cfg.canvas_shape}"
                )
        ensure_finite(x, "initial noise")
        trace = RunTrace()
        with self._executor():
            for i in range(self.schedule.steps):
                x, record = self.step(x, i)
                trace.records.append(record)
        ensure_finite(x, "final latent")
        return x, trace


def _mean_or_none(values):
    """Mean of equally weighted per-channel statistics; None if empty."""
    if values[0] is None:
        return None
    return float(np.mean(values))


def run(cfg: SamplerConfig, denoiser, prior=None, initial_noise=None):
    """Configure and execute a full sampling run."""
    return TiledSampler(cfg, denoiser, prior).run(initial_noise)
