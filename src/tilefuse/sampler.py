"""Tiled sampling loops.

One run starts from a seeded noise canvas, then repeats: view every planned
tile, denoise the tiles (concurrently if configured), merge the predictions
with the prior-regularized closed form, and take one Euler step in sigma.
The state convention is x = clean + sigma * (noise - clean), so the model
output approximates noise - clean, the one-step clean estimate is
x - sigma * y, and integration follows x' = x + (sigma' - sigma) * y.

A run keeps two kinds of threads. A tile pool of the configured worker
count only predicts tiles. min(workers, C) channel lanes, each one thread
that owns a contiguous slice of the channels, add the predictions to the
float64 numerator and merge those channels, each through a float64 tile
channel buffer and kernel scratch of its own. The calling thread only
submits: each prediction in plan order, and with it its add on every lane,
which waits for the prediction itself. One window rule bounds the work:
at most 2 x workers predictions are alive (submitted but not yet added by
every lane), and at that many the calling thread waits, in order, for the
lanes' tasks through the oldest one's add. The weight denominator is the
same every step and is built once.

A step streams over row bands. The plan is row-major and tile tops never
decrease, so once the last tile of a tile row has been added, the rows
above the next tile row's top are final: no later tile adds to them or
reads them. That band is queued on every lane behind that add, so it
runs once every tile that reads its rows is predicted, and there the
merge, the trace statistic and the Euler update run per (band, channel)
and write the new values straight into the latent, while later tiles are
still predicted. The same invariant lets an in-process denoiser read its
tile as a read-only view of the latent, uncopied: no band update writes
the rows of a tile still in flight. The numerator is a ring of window_h rows, one
tile row, reused across the run's steps. It starts zeroed, and each band
update zeroes the ring rows it has read, so rows are zero when the next
tiles reach them. A lane runs its tasks in the order they are queued, and
it alone adds and merges its channels, so a band's update reads and
zeroes its ring rows before the same lane adds the next tile row into
them: nothing waits for a band before ring rows are reused. Each band
update also adds its channel's trace sums; the lane that owns the channel
is their one writer, so they are added in band order.

The prior is held at thumbnail size: build_prior keeps a prior with the
canvas's frames and at most its rows and columns as it is (the thumbnail
stage's output), and resizes any other to the canvas's frames and
columns. Each band reads the source rows its canvas rows blend from,
frame group by frame group: it casts them to float64, blends their
columns to the canvas width as trilinear_resize does and rounds them to
float32, then blends the rows in float32 as a * src[lo] + b * src[hi]
(expand_prior's prior). Every source takes both blends, by tables built
once per sampler; at the canvas's width or height a blend has weights 1
and 0, which give the source's finite values back. A run with no prior
blends a zero source of one row and one column.

One band kernel does a band channel's prior cells, merge, trace and Euler
update in frame groups of about GROUP_BUDGET elements, through scratch
buffers that each lane makes once per run, in one allocation at the
sizes the run's largest band piece needs, and keeps, so the passes
over a group reuse buffers that are already cached. Each float32 operand
of a group is cast to float64 once, so the passes after it are pure
float64 ones. It applies the elementwise operations of fuse_md or
fuse_fd_flow, trace_prior_mse and euler_update in their order, so the
latent gets the same bits as their composition on the expanded prior.
The trace means are float64 sums and cell counts over the bands; only
these sums run in another order than trace_prior_mse's. A sampler built
with trace=False, such as the CLI's thumbnail pass and sweep points,
skips the trace's passes, and in a plain step (strength 0 at every cell)
also the prior's column pass and row blend, which only the trace reads
there; a step with a nonzero strength still blends the prior for its
merge. The latent's bits are the same either way.

Every cell sees the same additions in the same order and the same
elementwise closed form whatever the worker count, so runs are bitwise
reproducible. run adopts the noise canvas it is handed as its latent,
which each step overwrites in place; step on any other array copies it.
Each run keeps its pool, lanes, ring and latent on its calling thread.
"""

from __future__ import annotations

import copy
import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .blending import DEFAULT_MIN_WEIGHT, ramp_weight_map
from .denoisers import DenoiserRequest
from .errors import ConfigError, DenoiseError, ShapeError
# a step calls neither crop, accumulate nor the fuse_* forms, but they stay
# importable from this module, where perfbench/child.py wraps them by name
from .fusion import accumulate, add_weighted_tile, fuse_fd_flow, fuse_md
from .planner import TilePlan, plan_tiles
from .schedules import PriorScheduleConfig, SigmaSchedule
from .tensor import _axis_indices, _lerp, as_latent, crop, ensure_finite, latent_view, trilinear_resize

# elements per frame group in the band update: a group's passes run over
# buffers of a few MiB, near a 2 MiB per-core L2 cache, and the groups are
# few: with two threads on a 2-vCPU VM, halving the groups' size raised the
# kernel's CPU time by a quarter (the ufunc calls take the interpreter lock)
GROUP_BUDGET = 1 << 16


@dataclass(frozen=True)
class SamplerConfig:
    """One sampling run's settings. The plan, the sigma schedule and the
    tile weight map are built here, once, so a bad value fails at
    construction; the lower layers' range checks raise ArgumentError.
    The prior schedule alone decides the merge: strength 0, the default,
    is the plain weighted tile mean. Any activity map must match the canvas."""

    canvas_shape: tuple[int, int, int, int]
    steps: int = 6
    sigmas: tuple[float, ...] | None = None  # custom sampled levels, sans final 0
    window_h: int = 60
    window_w: int = 104
    overlap: float = 0.3
    ramp: int | tuple[int, int] | None = None  # None: span the overlap extent
    min_weight: float = DEFAULT_MIN_WEIGHT
    prior: PriorScheduleConfig = field(default_factory=PriorScheduleConfig)
    seed: int = 0
    workers: int = 1
    conditioning: str = ""

    def __post_init__(self):
        # frozen: normalized and built values go straight into the instance dict
        self.__dict__["canvas_shape"] = tuple(map(int, self.canvas_shape))
        if self.ramp is not None and np.ndim(self.ramp):
            self.__dict__["ramp"] = tuple(map(int, self.ramp))
        if len(self.canvas_shape) != 4 or min(self.canvas_shape) < 1:
            raise ConfigError(f"bad canvas shape {self.canvas_shape}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit value, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        _check_map(self.canvas_shape, self.prior)

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
        weight = ramp_weight_map(plan.window_h, plan.window_w, ramp, self.min_weight)
        self.__dict__.update(_schedule=schedule, _plan=plan, _weight=weight.astype(np.float64))

    def schedule(self) -> SigmaSchedule:
        return self._schedule

    def plan(self) -> TilePlan:
        return self._plan

    def weight_map(self) -> np.ndarray:
        """The float64 weight map of the plan's window, the size of every tile."""
        return self._weight

    def with_prior(self, prior: PriorScheduleConfig) -> SamplerConfig:
        """This config with another prior schedule, whose map is checked as
        at construction. The plan, the sigma schedule and the weight map do
        not depend on the prior, so the two configs share them."""
        _check_map(self.canvas_shape, prior)
        config = copy.copy(self)
        config.__dict__["prior"] = prior
        return config


def _check_map(canvas_shape, prior: PriorScheduleConfig) -> None:
    a = prior.activity_map
    if a is not None and a.shape != canvas_shape[2:]:
        raise ConfigError(f"activity map {a.shape} does not match canvas {canvas_shape[2:]}")


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
    """Standard-normal float32 canvas of stream `stream` of `seed`; see
    fill_noise."""
    out = np.empty(canvas_shape, dtype=np.float32)
    fill_noise(out, seed, stream)
    return out


def fill_noise(out: np.ndarray, seed: int, stream: int = 0) -> None:
    """Fill a C-contiguous float32 array with standard normals from the
    counter-based Philox generator keyed [seed, stream], in canonical
    layout order. Distinct streams of one seed are independent (stage
    separation in the pipeline). numpy releases the interpreter lock while
    it fills, so other threads run meanwhile."""
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.standard_normal(dtype=np.float32, out=out)


def build_prior(prior_latent: np.ndarray, canvas_shape) -> np.ndarray:
    """The source of a native-resolution prior on the canvas grid. A prior
    with the canvas's frames and at most its rows and columns, such as the
    thumbnail stage's output, is the source as it is (a float32 one is not
    copied); any other is resized to the canvas's frames and columns and
    to min(H, h0) rows. expand_prior blends a source to canvas columns and
    rows."""
    prior_latent = as_latent(prior_latent, "prior")
    c, t, h, w = canvas_shape
    if prior_latent.shape[0] != c:
        raise ShapeError(
            f"prior has {prior_latent.shape[0]} channels, canvas has {c}"
        )
    _, t0, h0, w0 = prior_latent.shape
    if t0 == t and h0 <= h and w0 <= w:
        return prior_latent
    return trilinear_resize(prior_latent, t, min(h, h0), w)


def _row_tables(src_h: int, height: int, width: int):
    """The (index, weight) tables that blend a row source of src_h rows to
    `height` rows: the (2, height) near and far source rows of _axis_indices
    and the float32 (2, height, width) planes of their weights (planes, not
    columns: a column broadcast along the width makes the blend many times
    slower). At src_h == height the weights are exactly 1 and 0."""
    lo, hi, frac = _axis_indices(src_h, height)
    weight = np.empty((2, height, width), dtype=np.float32)
    weight[0], weight[1] = (1.0 - frac)[:, None], frac[:, None]
    return np.stack((lo, hi)), weight


def _column_tables(src_w: int, width: int):
    """trilinear_resize's column pass from src_w columns to `width`, as
    _lerp's (lo, hi, w_lo, w_hi): the near and far source columns of
    _axis_indices and their float64 weights."""
    lo, hi, frac = _axis_indices(src_w, width)
    return lo, hi, 1.0 - frac, frac


def _prior_tables(src_h: int, src_w: int, height: int, width: int):
    """The _column_tables and _row_tables that expand a source of src_h
    rows and src_w columns to `height` rows and `width` columns."""
    return _column_tables(src_w, width), _row_tables(src_h, height, width)


def expand_prior(source: np.ndarray, height: int, width: int, tables=None) -> np.ndarray:
    """The prior of a float32 source (..., h0, w0) on a canvas `height` rows
    by `width` columns, the cells the band kernel builds. The columns come
    first, in float64 and rounded to float32 as trilinear_resize makes
    them; the rows are then blended in float32 as a * source[lo] +
    b * source[hi] by _row_tables. tables, the source's _prior_tables, are
    built here when not given; a caller that expands many sources of one
    shape builds them once. A source of that shape is returned as is."""
    if source.shape[-2:] == (height, width):
        return source
    columns, (index, weight) = tables or _prior_tables(*source.shape[-2:], height, width)
    source = _lerp(source.astype(np.float64), -1, *columns).astype(np.float32)
    rows = np.take(source, index.ravel(), axis=-2, mode="clip")
    rows *= weight.reshape(2 * height, -1)
    return np.add(rows[..., :height, :], rows[..., height:, :])


def euler_update(x: np.ndarray, y: np.ndarray, dsigma: float) -> np.ndarray:
    """x + dsigma * y, evaluated in float64 and rounded to float32."""
    x_next = y.astype(np.float64)
    x_next *= dsigma
    x_next += x
    return x_next.astype(np.float32)


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


def _kernel_buffers(n, cells, src, wide):
    """The band kernel's buffers, carved from one allocation with the
    float64 views first, so that every view is aligned: float64s of n
    (four), 2 * cells, src and wide (two), then float32s of n, 2n and wide."""
    f64 = 4 * n + 2 * cells + src + 2 * wide
    block = np.empty(8 * f64 + 4 * (3 * n + wide), np.uint8)
    *flat, planes, s64, near, far = np.split(
        block[: 8 * f64].view(np.float64), np.cumsum([n, n, n, n, 2 * cells, src, wide])
    )
    y32, pairs, src32 = np.split(block[8 * f64 :].view(np.float32), [n, 3 * n])
    return (*flat, y32), pairs, planes, (s64, near, far, src32)


class _KernelScratch:
    """One lane's band-kernel buffers of fixed sizes, the most any band
    piece of the run needs (_kernel_buffers(*sizes)): the lane makes them
    on its first band and keeps them, so what is allocated does not depend
    on which bands a step has."""

    def __init__(self, sizes):
        self.sizes, self.held = sizes, None

    def buffers(self):
        if self.held is None:
            self.held = _kernel_buffers(*self.sizes)
        return self.held


def _band_update(
    x, source, blend, columns, num, den, slam, sigma, dsigma, masks, scratch,
    budget=GROUP_BUDGET, trace=True,
):
    """Merge, trace and Euler-update one band channel; x is updated in place.

    x is the float32 (T, rows, W) latent rows, num the float64 numerator
    rows, zeroed once read, and den the float64 (rows, W) denominator: the
    weight sum, plus sigma**2 * lam with the prior term. source is the
    float32 (T, k, w0) prior source rows that the band's blend reads, blend
    the band's rows of its _row_tables: (2, rows) indices into those k rows
    and float32 (2, rows, W) weights, and columns its _column_tables to W.
    Each frame group's source rows are cast to float64, blended to W
    columns and rounded to float32, as expand_prior does, and then their
    rows are summed in float32. slam is sigma * lam, a float or a (rows, W)
    plane, or None for the plain weighted mean. masks is None or the
    float64 (rows, W) foreground and background indicator planes. Returns
    the squared residual's sums over the two partitions; with no masks all
    of it is foreground.

    With trace False the trace passes are skipped (the clean estimate, its
    residual against the prior, the square and the sum or regional plane),
    and so, where slam is None, are the prior's float64 column pass and
    float32 row blend, which only the trace reads then; the sums returned
    are 0. x gets the same bits either way.

    Frames go in groups of at most `budget` elements (one frame if a frame
    is larger) through the calling lane's _KernelScratch buffers. The
    latent, prior and fused velocity of a group are each cast to float64
    once, so every later pass is a pure float64 one (a ufunc that casts
    float32 operands as it goes costs about twice as much). The operations are
    those of fuse_md or fuse_fd_flow, trace_prior_mse and euler_update in
    their order, so x gets the same bits as their composition. The
    regional split sums the residual over frames per cell and weights that
    plane with each mask.
    """
    t, rows, w = x.shape
    cells = rows * w
    index, weight = blend
    group = max(1, min(t, budget // cells))
    flat, pairs, planes, wide = scratch.buffers()
    plane, part = planes[: 2 * cells].reshape(2, rows, w)
    plane[...] = 0.0
    total = 0.0
    for start in range(0, t, group):
        frames = slice(start, start + group)
        xg = x[frames]
        x64, p64, y64, r, y32 = (b[: xg.size].reshape(xg.shape) for b in flat)
        np.copyto(x64, xg)
        if trace or slam is not None:  # the prior's cells, which only these read
            src = source[frames]  # trilinear_resize's column pass, then its rounding
            g, k, w0 = src.shape
            s64, near, far, src32 = (
                b[: g * k * n].reshape(g, k, n) for b, n in zip(wide, (w0, w, w, w))
            )
            np.copyto(s64, src)
            np.copyto(src32, _lerp(s64, -1, *columns, near, far))
            both = pairs[: 2 * xg.size].reshape(len(xg), 2, rows, w)
            np.take(src32, index, axis=1, out=both, mode="clip")
            both *= weight
            near = both[:, 0]
            np.add(near, both[:, 1], out=near)  # in float32, then cast: cheaper
            np.copyto(p64, near)  # than numpy casting the sum's output itself
        if slam is None:
            np.divide(num[frames], den, out=y32, casting="same_kind")
        else:
            np.subtract(x64, p64, out=r)
            r *= slam
            r += num[frames]
            np.divide(r, den, out=y32, casting="same_kind")
        num[frames] = 0.0  # read: zeroed for the next rows that reuse it
        np.copyto(y64, y32)
        if trace:
            np.multiply(y64, sigma, out=r)
            np.subtract(x64, r, out=r)  # the clean estimate x - sigma * y
            r -= p64
            np.square(r, out=r)
            if masks is None:
                total += r.sum()
            else:
                np.add.reduce(r, axis=0, out=part)
                plane += part
        np.multiply(y64, dsigma, out=r)
        np.add(r, x64, out=xg, casting="same_kind")
    if masks is None:
        return float(total), 0.0
    # einsum's own loop, not a BLAS call that could start threads of its own
    return tuple(float(np.einsum("ij,ij->", plane, m)) for m in masks)


@dataclass
class _Lane:
    """A channel lane: one thread that adds the predictions of channels cs
    to the numerator ring, each once its prediction is ready, and updates
    their bands, in the order its tasks are queued, through a float64 tile
    channel buffer and kernel scratch of its own."""

    executor: ThreadPoolExecutor
    cs: slice
    buf: np.ndarray
    scratch: _KernelScratch


@dataclass
class _RunState:
    """One run's tile pool, which only predicts, most predictions alive,
    float64 (C, T, rows, W) numerator ring of one tile row (the plan's
    window_h rows), channel lanes, and the latent its steps update."""

    pool: ThreadPoolExecutor
    depth: int
    ring: np.ndarray
    lanes: list[_Lane]
    latent: np.ndarray | None = None


class TiledSampler:
    """Bound sampling state: plan, schedule, weight map, prior, denoiser.
    An untraced sampler (trace=False) computes no prior-distance trace: its
    run and step give None in place of the RunTrace and StepRecord, and
    its latent has the same bits as a traced one's. A denoiser whose
    checks_finite attribute is true, such as an ExternalDenoiser, has
    scanned each prediction for inf and NaN itself, so the sampler does
    not scan it again."""

    def __init__(self, cfg: SamplerConfig, denoiser, prior=None, trace=True):
        self.cfg = cfg
        self.trace = trace
        self.denoiser = denoiser
        self._scan = not getattr(denoiser, "checks_finite", False)
        self.plan = cfg.plan()
        self.schedule = cfg.schedule()
        self._weight = cfg.weight_map()

        # the prior is held as build_prior's source; each band kernel blends
        # the columns and rows it needs, by tables built here once
        c, t, h, w = cfg.canvas_shape
        if prior is None:
            if cfg.prior.lambda_base > 0:
                raise ConfigError("prior-regularized run needs a prior latent")
            self.prior = np.zeros((c, t, 1, 1), dtype=np.float32)
        else:  # named before any tile runs
            self.prior = ensure_finite(build_prior(prior, cfg.canvas_shape), "prior")
        self._columns, self._blend = _prior_tables(*self.prior.shape[2:], h, w)

        # the weight sum is the same every step: add it up once, in plan order
        self._den = np.zeros(cfg.canvas_shape[2:], dtype=np.float64)
        for r in self.plan.tiles:
            self._den[r.row_slice, r.col_slice] += self._weight
        # so are the trace's float64 partition masks; a band reads its rows
        activity = cfg.prior.activity_map
        self._masks = None
        if activity is not None and trace:
            self._masks = (activity.astype(np.float64), (~activity).astype(np.float64))
        self._local = threading.local()  # .run: the calling thread's _RunState

    @contextmanager
    def _executor(self, latent=None):
        """The _RunState of the run the calling thread is in, or a new one
        that owns `latent`, for run or for a step called outside run. Its
        min(workers, C) lanes split the channels into contiguous slices."""
        state = getattr(self._local, "run", None)
        if state is not None:
            yield state
            return
        workers = self.cfg.workers
        c, t, _, w = self.cfg.canvas_shape
        rows = self.plan.window_h  # one tile row: the plan's window, at most H
        n, sizes = min(workers, c), self._scratch_sizes()
        with ExitStack() as stack:
            pool = stack.enter_context(
                ThreadPoolExecutor(workers, thread_name_prefix="tilefuse-tile")
            )
            lanes = [
                _Lane(
                    stack.enter_context(
                        ThreadPoolExecutor(1, thread_name_prefix=f"tilefuse-lane-{k}")
                    ),
                    slice(k * c // n, (k + 1) * c // n),
                    np.empty(t * rows * self.plan.window_w, dtype=np.float64),
                    _KernelScratch(sizes),
                )
                for k in range(n)
            ]
            self._local.run = _RunState(
                pool, 2 * workers, np.zeros((c, t, rows, w), dtype=np.float64), lanes, latent
            )
            try:
                yield self._local.run
            finally:
                self._local.run = None

    def _scratch_sizes(self):
        """The _kernel_buffers sizes that cover every band piece of the run.
        The pieces are the bands, the rows from one tile row's top to the
        next's (or to the canvas bottom), split where the ring of one tile
        row wraps. A piece takes frame groups of at most GROUP_BUDGET
        elements, or one frame if a frame is larger, and a group reads the
        source rows that the piece's row table spans, in each of its frames."""
        _, t, h, w = self.cfg.canvas_shape
        tops = sorted({r.row for r in self.plan.tiles}) + [h]
        index, n, cells, most = self._blend[0], 0, 0, 0
        for a, b in zip(tops, tops[1:]):
            for rows, _ in _ring_slices(a, b, self.plan.window_h):
                piece = (rows.stop - rows.start) * w
                group = max(1, min(t, GROUP_BUDGET // piece))
                span = int(index[1, rows.stop - 1] - index[0, rows.start]) + 1
                n, cells = max(n, group * piece), max(cells, piece)
                most = max(most, group * span)
        return n, cells, most * self.prior.shape[3], most * w

    def _predict_tile(self, x, i, t, sigma, k, rect):
        tile = x[:, :, rect.row_slice, rect.col_slice]
        tile.flags.writeable = False  # a view of the latent, lent read-only
        req = DenoiserRequest(
            tile=tile,
            step_index=i,
            t=t,
            sigma=sigma,
            conditioning=self.cfg.conditioning,
            rect=rect,
        )
        try:
            pred = latent_view(self.denoiser(req), "prediction")
        except Exception as exc:
            raise DenoiseError(
                f"step {i}, tile {k} at ({rect.row},{rect.col}): {exc}"
            ) from exc
        if pred.shape != req.tile.shape:
            raise DenoiseError(
                f"step {i}, tile {k}: prediction shape {pred.shape} does not "
                f"match tile {req.tile.shape}"
            )
        if self._scan:
            ensure_finite(pred, f"step {i} tile {k} prediction")
        return pred

    def _stream(self, state, x, i, t, sigma, band):
        """Submit every tile's prediction in plan order and at once queue
        its add on every lane, which waits for the prediction itself; as
        soon as a band is final, queue band(rows, ring_rows)(c, scratch) on
        every lane for its channels c, behind the adds. The window holds
        the predictions not yet added by every lane: at state.depth of
        them, the calling thread waits for the lane tasks in order through
        the oldest one's add, and a failed prediction or task is raised
        there. On failure the queued tasks are cancelled and the running
        ones awaited before the error leaves."""
        pool, ring, lanes, tiles = state.pool, state.ring, state.lanes, self.plan.tiles
        size = ring.shape[2]
        window = deque()  # futures of the predictions some lane has yet to add
        queued = deque()  # (lane futures, whether an add) of each add or band, in order

        def add(lane, prediction, pieces):
            pred = prediction.result()
            for part, at in pieces:
                add_weighted_tile(
                    ring[lane.cs], pred[lane.cs, :, part], at, self._weight[part], lane.buf
                )

        def merge(lane, updates):
            for update in updates:
                for c in range(lane.cs.start, lane.cs.stop):
                    update(c, lane.scratch)

        def to_lanes(is_add, task, *args):
            queued.append(([lane.executor.submit(task, lane, *args) for lane in lanes], is_add))

        def settle(through_add=True):
            """Wait for the lane tasks in order, through the oldest add or all."""
            while queued:
                for future in queued[0][0]:
                    future.result()
                _, is_add = queued.popleft()
                if is_add:
                    window.popleft()
                    if through_add:
                        return

        try:
            for k, rect in enumerate(tiles):
                if len(window) == state.depth:
                    settle()
                window.append(pool.submit(self._predict_tile, x, i, t, sigma, k, rect))
                pieces = [
                    (
                        slice(rows.start - rect.row, rows.stop - rect.row),
                        replace(rect, row=ring_rows.start, height=ring_rows.stop - ring_rows.start),
                    )
                    for rows, ring_rows in _ring_slices(rect.row, rect.row + rect.height, size)
                ]
                to_lanes(True, add, window[-1], pieces)
                below = tiles[k + 1].row if k + 1 < len(tiles) else x.shape[2]
                if below != rect.row:  # the rows above `below` are final
                    updates = list(itertools.starmap(band, _ring_slices(rect.row, below, size)))
                    to_lanes(False, merge, updates)
            settle(through_add=False)
        finally:
            futures = [*window, *(future for lane_futures, _ in queued for future in lane_futures)]
            for future in futures:
                future.cancel()
            wait(futures)

    def step(self, x: np.ndarray, i: int):
        """One sampler step; returns (x_next, StepRecord), or (x_next, None)
        if the sampler is untraced. The latent the running run owns is
        updated in place and returned; any other x is copied first and left
        as it is."""
        t = self.schedule.times[i]
        sigma = self.schedule.sigmas[i]
        dsigma = self.schedule.sigmas[i + 1] - sigma
        lam = self.cfg.prior.strength_at(t)
        lam_min, lam_max = float(np.min(lam)), float(np.max(lam))
        if lam_min == lam_max:  # a plane of one value takes the scalar path: same bits
            lam = lam_min
        plain = lam_min == lam_max == 0.0
        plane = np.ndim(lam) == 2

        state = getattr(self._local, "run", None)
        if state is None or x is not state.latent:
            x = as_latent(x, "latent")
            if x.shape != self.cfg.canvas_shape:
                raise ShapeError(
                    f"latent {x.shape} does not match canvas {self.cfg.canvas_shape}"
                )
            x = x.copy()
        sums = np.zeros((x.shape[0], 4))  # per channel: fg sum, cells, bg sum, cells
        with self._executor() as state:
            ring = state.ring  # for the lanes

            def band(rows, ring_rows):
                """The update of canvas rows `rows` as a function of the
                channel; the planes all channels share are built once."""
                if plain:
                    den, slam = self._den[rows], None
                else:  # fuse_fd_flow's denominator and prior factor
                    lam_b = np.asarray(lam[rows] if plane else lam, dtype=np.float64)
                    den, slam = sigma**2 * lam_b + self._den[rows], sigma * lam_b
                cells = x.shape[1] * den.size
                # the source rows the band reads, and its row table into them
                index, weight = (table[:, rows] for table in self._blend)
                top, bottom = index[0, 0], index[1, -1] + 1
                blend = index - top, weight
                masks, n_fg = None, cells
                if self._masks is not None:
                    masks = tuple(m[rows] for m in self._masks)
                    n_fg = np.count_nonzero(masks[0]) * x.shape[1]

                def update(c, scratch):
                    """Merge, trace and Euler-update channel c of the band in
                    place, through the lane's scratch, and add the trace's
                    (sum, cells) per part to sums[c]. The lane that owns c is
                    its one writer and runs c's bands in order."""
                    fg, bg = _band_update(
                        x[c, :, rows], self.prior[c, :, top:bottom], blend, self._columns,
                        ring[c, :, ring_rows], den, slam, sigma, dsigma, masks, scratch,
                        trace=self.trace,
                    )
                    sums[c] += fg, n_fg, bg, cells - n_fg

                return update

            self._stream(state, x, i, t, sigma, band)
        if not self.trace:
            return x, None
        record = StepRecord(
            step=i,
            t=t,
            sigma=sigma,
            lam_min=lam_min,
            lam_max=lam_max,
            fg_mse=_mean_or_none(sums[:, 0], sums[:, 1]),
            bg_mse=_mean_or_none(sums[:, 2], sums[:, 3]),
        )
        return x, record

    def run(self, initial_noise=None):
        """Returns (x_final, RunTrace), or (x_final, None) if the sampler is
        untraced. A writable C-contiguous float32 initial_noise is the run's
        latent, overwritten in place and returned; any other array is copied
        once and left as it is. None draws make_noise(canvas, cfg.seed)."""
        if initial_noise is None:
            x = make_noise(self.cfg.canvas_shape, self.cfg.seed)
        else:
            x = as_latent(initial_noise, "initial noise")
            if not x.flags.writeable:
                x = x.copy()
            if x.shape != self.cfg.canvas_shape:
                raise ShapeError(
                    f"initial noise {x.shape} does not match canvas "
                    f"{self.cfg.canvas_shape}"
                )
        ensure_finite(x, "initial noise")
        trace = RunTrace() if self.trace else None
        with self._executor(x):  # unnamed, so the ring is freed before ensure_finite
            for i in range(self.schedule.steps):
                x, record = self.step(x, i)
                if trace is not None:
                    trace.records.append(record)
        ensure_finite(x, "final latent")
        return x, trace


def _ring_slices(start, stop, size):
    """Canvas rows [start, stop) as (canvas rows, ring rows) slice pairs in
    a ring of `size` rows: one pair, or two where the rows wrap."""
    pairs = []
    while start < stop:
        at = start % size
        n = min(stop - start, size - at)
        pairs.append((slice(start, start + n), slice(at, at + n)))
        start += n
    return pairs


def _mean_or_none(sums, counts):
    """Mean over channels of each channel's sum / count; None if the
    partition holds no cell (every channel counts the same cells)."""
    if counts[0] == 0:
        return None
    return float(np.mean(sums / counts))


def run(cfg: SamplerConfig, denoiser, prior=None, initial_noise=None):
    """Configure and execute a full sampling run; see TiledSampler.run."""
    return TiledSampler(cfg, denoiser, prior).run(initial_noise)
