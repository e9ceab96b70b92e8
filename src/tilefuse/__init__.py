"""tilefuse: prior-regularized tiled diffusion sampling on latent canvases.

The package factors into small layers: dense latent tensors and spatial
primitives, tile planning, border-ramp blending, noise and prior-strength
schedules, the closed-form fusion math, a pluggable-denoiser sampling loop,
full-resolution metrics, and a CLI that strings the stages together.
"""

from .blending import ramp_profile, ramp_weight_map
from .denoisers import (
    DenoiserRequest,
    ExternalDenoiser,
    GaussianAnalytic,
    TargetDriver,
)
from .errors import (
    ArgumentError,
    BoundsError,
    ConfigError,
    CoverageError,
    DenoiseError,
    DomainError,
    FileFormatError,
    MalformedFrameError,
    MetricError,
    ProtocolError,
    ProtocolTimeoutError,
    ShapeError,
    TileFuseError,
    WorkerExitError,
    WorkerReportedError,
)
from .fusion import (
    FusionAccumulator,
    accumulate,
    fuse_fd_flow,
    fuse_md,
)
from .metrics import (
    prior_alignment,
    seam_energy,
    temporal_consistency,
    tenengrad,
    video_tenengrad,
)
from .planner import (
    TilePlan,
    plan_tiles,
    plan_tiles_pixels,
    prior_resolution,
    snap_dim,
)
from .sampler import (
    RunTrace,
    SamplerConfig,
    StepRecord,
    TiledSampler,
    build_prior,
    euler_update,
    expand_prior,
    make_noise,
    run,
    trace_prior_mse,
)
from .schedules import (
    PriorScheduleConfig,
    SigmaSchedule,
    load_activity_map,
)
from .tensor import Rect, crop, read_flt, trilinear_resize, write_flt

__version__ = "0.1.0"
