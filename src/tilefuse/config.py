"""Run configuration: INI files with flag overrides, resolved settings, and
the run manifest.

The manifest JSON written at the end of a sampling run embeds the fully
resolved configuration, so feeding a manifest back reproduces the run
exactly.
"""

from __future__ import annotations

import configparser
import json
import os
import shlex
from dataclasses import dataclass, field

from .errors import ConfigError
from .planner import DEFAULT_COMPRESSION, snap_dim
from .schedules import PriorScheduleConfig, load_activity_map
from .sampler import SamplerConfig

DEFAULTS = {
    "run": {
        "seed": "0",
        "mode": "fd",
        "prediction": "flow",
        "steps": "6",
        "sigmas": "",
        "workers": "1",
        "strict": "true",
        "output": "",
        "trace": "",
        "manifest": "",
    },
    "canvas": {
        "channels": "16",
        "frames": "21",
        "height": "",
        "width": "",
        "pixel_height": "",
        "pixel_width": "",
        "factor": str(DEFAULT_COMPRESSION),
    },
    "tiles": {
        "window_height": "",
        "window_width": "",
        "pixel_window_height": "480",
        "pixel_window_width": "832",
        "overlap": "0.3",
    },
    "blending": {
        "ramp": "auto",
        "min_weight": "0.1",
    },
    "prior": {
        "lambda_base": "1.5",
        "schedule": "gated_cosine",
        "tau": "0.1",
        "tau_active": "0.1",
        "tau_background": "0.35",
        "activity_map": "",
        "latent": "",
    },
    "denoiser": {
        "kind": "gaussian",
        "mean": "0.0",
        "std": "1.0",
        "target": "",
        "command": "",
        "timeout": "300",
        "conditioning": "",
    },
}


def default_config() -> dict:
    return {sec: dict(keys) for sec, keys in DEFAULTS.items()}


def load_config_file(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = default_config()
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            cfg[section][key] = value.strip()
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply 'section.key=value' strings on top of a config dict."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = head.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        cfg[section][key] = value.strip()
    return cfg


def _get_int(cfg, section, key):
    raw = cfg[section][key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc


def _get_float(cfg, section, key):
    raw = cfg[section][key]
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc


def _get_bool(cfg, section, key):
    raw = cfg[section][key].lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")


@dataclass
class PipelineSettings:
    """Typed view of one sampling pipeline configuration."""

    raw: dict = field(repr=False)
    seed: int = 0
    mode: str = "fd"
    prediction: str = "flow"
    steps: int = 6
    sigmas: tuple | None = None
    workers: int = 1
    strict: bool = True
    output: str = ""
    trace_path: str = ""
    manifest_path: str = ""
    channels: int = 16
    frames: int = 21
    latent_h: int = 0
    latent_w: int = 0
    pixel_h: int = 0
    pixel_w: int = 0
    compression: int = DEFAULT_COMPRESSION
    window_h: int = 60
    window_w: int = 104
    overlap: float = 0.3
    ramp: object = None
    min_weight: float = 0.1
    lambda_base: float = 1.5
    prior_schedule: str = "gated_cosine"
    tau: float = 0.1
    tau_active: float = 0.1
    tau_background: float = 0.35
    activity_path: str = ""
    prior_latent_path: str = ""
    denoiser_kind: str = "gaussian"
    gauss_mean: float = 0.0
    gauss_std: float = 1.0
    target_path: str = ""
    worker_command: list = field(default_factory=list)
    timeout: float = 300.0
    conditioning: str = ""

    def canvas_shape(self):
        return (self.channels, self.frames, self.latent_h, self.latent_w)

    def prior_schedule_config(self) -> PriorScheduleConfig:
        if self.mode == "md":
            return PriorScheduleConfig(lambda_base=0.0, mode="gated_cosine")
        if self.mode == "fd_regional":
            if not self.activity_path:
                raise ConfigError("fd_regional mode requires prior.activity_map")
            activity = load_activity_map(self.activity_path, self.latent_h, self.latent_w)
            return PriorScheduleConfig(
                lambda_base=self.lambda_base,
                mode="regional",
                tau=self.tau,
                tau_active=self.tau_active,
                tau_background=self.tau_background,
                activity_map=activity,
            )
        return PriorScheduleConfig(
            lambda_base=self.lambda_base,
            mode=self.prior_schedule,
            tau=self.tau,
            tau_active=self.tau_active,
            tau_background=self.tau_background,
        )

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            canvas_shape=self.canvas_shape(),
            steps=self.steps,
            sigmas=self.sigmas,
            window_h=self.window_h,
            window_w=self.window_w,
            overlap=self.overlap,
            ramp=self.ramp,
            min_weight=self.min_weight,
            prior=self.prior_schedule_config(),
            mode=self.mode,
            prediction=self.prediction,
            seed=self.seed,
            workers=self.workers,
            strict=self.strict,
            conditioning=self.conditioning,
        )

    def sampler_config_for_prior(self, prior_shape) -> SamplerConfig:
        """Thumbnail stage: one full-canvas tile, no prior term."""
        return SamplerConfig(
            canvas_shape=tuple(prior_shape),
            steps=self.steps,
            sigmas=self.sigmas,
            window_h=prior_shape[2],
            window_w=prior_shape[3],
            overlap=self.overlap,
            ramp=self.ramp,
            min_weight=self.min_weight,
            mode="md",
            prediction=self.prediction,
            seed=self.seed,
            workers=1,
            strict=self.strict,
            conditioning=self.conditioning,
        )


def resolve_settings(cfg: dict) -> PipelineSettings:
    s = PipelineSettings(raw={sec: dict(keys) for sec, keys in cfg.items()})
    s.seed = _get_int(cfg, "run", "seed")
    s.mode = cfg["run"]["mode"]
    if s.mode not in ("md", "fd", "fd_regional"):
        raise ConfigError(f"run.mode must be md, fd, or fd_regional, got {s.mode!r}")
    s.prediction = cfg["run"]["prediction"]
    s.steps = _get_int(cfg, "run", "steps")
    raw_sigmas = cfg["run"]["sigmas"]
    if raw_sigmas:
        try:
            s.sigmas = tuple(float(v) for v in raw_sigmas.split(","))
        except ValueError as exc:
            raise ConfigError("run.sigmas must be comma-separated numbers") from exc
    s.workers = _get_int(cfg, "run", "workers")
    s.strict = _get_bool(cfg, "run", "strict")
    s.output = cfg["run"]["output"]
    s.trace_path = cfg["run"]["trace"] or (s.output + ".trace.tsv" if s.output else "")
    s.manifest_path = cfg["run"]["manifest"] or (
        s.output + ".manifest.json" if s.output else ""
    )

    s.channels = _get_int(cfg, "canvas", "channels")
    s.frames = _get_int(cfg, "canvas", "frames")
    s.compression = _get_int(cfg, "canvas", "factor")
    if s.compression < 1:
        raise ConfigError(f"canvas.factor must be >= 1, got {s.compression}")
    if cfg["canvas"]["height"] and cfg["canvas"]["width"]:
        s.latent_h = _get_int(cfg, "canvas", "height")
        s.latent_w = _get_int(cfg, "canvas", "width")
        s.pixel_h = s.latent_h * s.compression
        s.pixel_w = s.latent_w * s.compression
    elif cfg["canvas"]["pixel_height"] and cfg["canvas"]["pixel_width"]:
        s.pixel_h = snap_dim(_get_int(cfg, "canvas", "pixel_height"))
        s.pixel_w = snap_dim(_get_int(cfg, "canvas", "pixel_width"))
        s.latent_h = max(1, s.pixel_h // s.compression)
        s.latent_w = max(1, s.pixel_w // s.compression)
    else:
        raise ConfigError(
            "canvas needs height+width (latent) or pixel_height+pixel_width"
        )
    if min(s.channels, s.frames, s.latent_h, s.latent_w) < 1:
        raise ConfigError(f"degenerate canvas {s.canvas_shape()}")

    if cfg["tiles"]["window_height"] and cfg["tiles"]["window_width"]:
        s.window_h = _get_int(cfg, "tiles", "window_height")
        s.window_w = _get_int(cfg, "tiles", "window_width")
    else:
        s.window_h = max(1, _get_int(cfg, "tiles", "pixel_window_height") // s.compression)
        s.window_w = max(1, _get_int(cfg, "tiles", "pixel_window_width") // s.compression)
    s.overlap = _get_float(cfg, "tiles", "overlap")

    raw_ramp = cfg["blending"]["ramp"]
    try:
        s.ramp = None if raw_ramp == "auto" else int(raw_ramp)
    except ValueError as exc:
        raise ConfigError(
            f"blending.ramp must be auto or an integer, got {raw_ramp!r}"
        ) from exc
    s.min_weight = _get_float(cfg, "blending", "min_weight")

    s.lambda_base = _get_float(cfg, "prior", "lambda_base")
    s.prior_schedule = cfg["prior"]["schedule"]
    if s.prior_schedule not in ("constant", "cosine", "gated_cosine"):
        raise ConfigError(
            f"prior.schedule must be constant, cosine, or gated_cosine, got "
            f"{s.prior_schedule!r} (regional comes from run.mode)"
        )
    s.tau = _get_float(cfg, "prior", "tau")
    s.tau_active = _get_float(cfg, "prior", "tau_active")
    s.tau_background = _get_float(cfg, "prior", "tau_background")
    s.activity_path = cfg["prior"]["activity_map"]
    s.prior_latent_path = cfg["prior"]["latent"]

    s.denoiser_kind = cfg["denoiser"]["kind"]
    if s.denoiser_kind not in ("gaussian", "target", "external"):
        raise ConfigError(
            f"denoiser.kind must be gaussian, target, or external, got "
            f"{s.denoiser_kind!r}"
        )
    s.gauss_mean = _get_float(cfg, "denoiser", "mean")
    s.gauss_std = _get_float(cfg, "denoiser", "std")
    s.target_path = cfg["denoiser"]["target"]
    if s.denoiser_kind == "target" and not s.target_path:
        raise ConfigError("denoiser.kind=target requires denoiser.target")
    command = cfg["denoiser"]["command"]
    s.worker_command = shlex.split(command) if command else []
    if s.denoiser_kind == "external" and not s.worker_command:
        raise ConfigError("denoiser.kind=external requires denoiser.command")
    s.timeout = _get_float(cfg, "denoiser", "timeout")
    s.conditioning = cfg["denoiser"]["conditioning"]

    # fail fast on inconsistent regional setup, before any compute
    if s.mode == "fd_regional" and not s.activity_path:
        raise ConfigError("fd_regional mode requires prior.activity_map")
    return s


def write_manifest(path, settings: PipelineSettings, outputs: dict, timings: dict, version: str) -> None:
    inputs = {
        key: value
        for key, value in (
            ("prior_latent", settings.prior_latent_path),
            ("activity_map", settings.activity_path),
            ("target", settings.target_path),
        )
        if value
    }
    doc = {
        "version": version,
        "seed": settings.seed,
        "config": settings.raw,
        "canvas_shape": list(settings.canvas_shape()),
        "inputs": inputs,
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def config_from_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "config" not in doc:
        raise ConfigError(f"{path}: manifest has no config snapshot")
    cfg = default_config()
    for section, keys in doc["config"].items():
        if section not in cfg:
            raise ConfigError(f"{path}: unknown section [{section}] in manifest")
        for key, value in keys.items():
            if key not in cfg[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key} in manifest")
            cfg[section][key] = str(value)
    return cfg
