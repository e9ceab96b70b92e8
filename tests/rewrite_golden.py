"""Golden latent bytes: the configurations, and the script that rewrites
their table.

    PYTHONPATH=src python tests/rewrite_golden.py

Each configuration is one small TiledSampler.run. Its noise, prior, target
and activity map come from integer_noise, exact integer arithmetic with no
numpy Generator in the path, so only the sampler's own arithmetic decides
the latent. The table (golden_latents.json, beside this file) holds the
sha256 of each final latent's bytes and of one fill_noise canvas, which
test_golden.py pins apart: a numpy upgrade that changes the normal stream
fails that test alone. A change that moves latent bits on purpose reruns
this script and commits the new table.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tilefuse import GaussianAnalytic, PriorScheduleConfig, SamplerConfig, TargetDriver, TiledSampler
from tilefuse.sampler import fill_noise

TABLE = Path(__file__).resolve().parent / "golden_latents.json"
FILL_NOISE = dict(shape=(2, 3, 5, 7), seed=20260808, stream=1)


def integer_noise(shape, seed: int) -> np.ndarray:
    """A float32 array of `shape` from splitmix64 over the cell index and
    seed, in wrapping uint64 arithmetic: each value is the top 24 bits of
    its draw, centred and scaled by 2**-22, so exactly representable in
    [-2, 2)."""
    z = np.arange(math.prod(shape), dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    top = (z >> np.uint64(40)).astype(np.int64) - (1 << 23)
    return (top.astype(np.float32) * np.float32(2.0**-22)).reshape(shape)


def _activity(h: int, w: int) -> np.ndarray:
    return integer_noise((h, w), 7) > 0


# name: (canvas, window, overlap, prior shape or None, prior schedule,
# denoiser, workers). Canvases of 24 or 25 rows by 37 columns under 8x12
# windows end in a flush-edge tile row and column. A
# target-driven step with no prior term lands on the target exactly, so
# the target-driven runs take the constant schedule, whose last step still
# has the prior term; the cosine schedules are all but 0 at the last step.
CONFIGS = {
    "md_flush_gaussian_w1": ((2, 3, 24, 37), (8, 12), 0.3, None, {}, "gaussian", 1),
    "md_flush_gaussian_w3": ((3, 2, 25, 37), (8, 12), 0.5, None, {}, "gaussian", 3),
    "fd_thumbnail_gaussian_w1": (
        (2, 3, 24, 37), (8, 12), 0.3, (2, 3, 6, 9),
        dict(lambda_base=1.5, mode="gated_cosine", tau=0.5), "gaussian", 1,
    ),
    "fd_latent_target_w3": (  # a prior.latent of other frames and more rows and columns
        (3, 4, 24, 37), (8, 12), 0.3, (3, 2, 30, 41),
        dict(lambda_base=0.8, mode="constant"), "target", 3,
    ),
    "fd_regional_thumbnail_gaussian_w3": (
        (3, 2, 24, 37), (8, 12), 0.5, (3, 2, 6, 9),
        dict(lambda_base=5.0, mode="regional", tau_active=0.2, tau_background=0.6),
        "gaussian", 3,
    ),
    "fd_regional_canvas_prior_gaussian_w1": (
        (2, 3, 24, 37), (8, 12), 0.3, (2, 3, 24, 37),
        dict(lambda_base=1.5, mode="regional", tau_active=0.1, tau_background=0.35),
        "gaussian", 1,
    ),
    "fd_one_tile_target_w1": (  # the window is clipped to the canvas
        (2, 2, 13, 17), (20, 30), 0.3, (2, 2, 4, 5),
        dict(lambda_base=1.5, mode="constant"), "target", 1,
    ),
    "fd_window_is_canvas_gaussian_w3": (
        (3, 2, 16, 24), (16, 24), 0.3, (3, 2, 4, 6),
        dict(lambda_base=0.5, mode="gated_cosine", tau=0.4), "gaussian", 3,
    ),
}


def run_config(name: str) -> np.ndarray:
    """The final latent of configuration `name`."""
    canvas, (wh, ww), overlap, prior_shape, schedule, kind, workers = CONFIGS[name]
    if schedule.get("mode") == "regional":
        schedule = dict(schedule, activity_map=_activity(*canvas[2:]))
    cfg = SamplerConfig(
        canvas_shape=canvas, steps=4, window_h=wh, window_w=ww, overlap=overlap,
        prior=PriorScheduleConfig(**schedule), workers=workers,
    )
    if kind == "gaussian":
        denoiser = GaussianAnalytic(0.25, 0.8)
    else:
        denoiser = TargetDriver(integer_noise(canvas, 3))
    prior = None if prior_shape is None else integer_noise(prior_shape, 5)
    x_final, _ = TiledSampler(cfg, denoiser, prior).run(integer_noise(canvas, 1))
    return x_final


def latent_sha256(name: str) -> str:
    return hashlib.sha256(run_config(name).tobytes()).hexdigest()


def fill_noise_sha256() -> str:
    out = np.empty(FILL_NOISE["shape"], dtype=np.float32)
    fill_noise(out, FILL_NOISE["seed"], FILL_NOISE["stream"])
    return hashlib.sha256(out.tobytes()).hexdigest()


def table() -> dict:
    return {
        "fill_noise": fill_noise_sha256(),
        "latents": {name: latent_sha256(name) for name in CONFIGS},
    }


def main() -> None:
    TABLE.write_text(json.dumps(table(), indent=2) + "\n")
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
