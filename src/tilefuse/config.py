"""Run configuration: INI files with flag overrides, resolved settings, and
the run manifest. Each key is one row of KEYS: section, name, default text
and parser. Defaults, the reading of files, overrides and manifests, the
error text and the typed view settings.<section>.<key> all come from that
table. Resolving also builds both stages' sampler configurations, so every
bad value fails before any work starts; run.mode only picks the prior
schedule they carry. The manifest embeds the raw configuration, so feeding
it back reproduces the run exactly.
"""

from __future__ import annotations

import configparser
import json
import math
import shlex
from dataclasses import replace
from types import SimpleNamespace

from .errors import ArgumentError, ConfigError
from .planner import DEFAULT_COMPRESSION, _latent_dims, prior_resolution, snap_dim
from .schedules import GLOBAL_SCHEDULES, PriorScheduleConfig, load_activity_map
from .sampler import SamplerConfig
from .tensor import atomic_write

RUN_MODES = ("md", "fd", "fd_regional")  # the schedules of _prior_schedule


def _parser(what, convert, valid=lambda value: True):
    """A key's parser: the converted text, or ValueError(what) if the text
    does not convert or the value is not valid."""

    def parse(raw):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(what) from None
        if not valid(value):
            raise ValueError(what)
        return value

    return parse


def _choice(*names):
    return _parser("one of " + ", ".join(names), str, lambda value: value in names)


def _numbers(raw):
    return tuple(float(v) for v in raw.split(",")) if raw else None


INTEGER = _parser("an integer", int)
OPTIONAL_INTEGER = _parser("an integer or empty", lambda raw: int(raw) if raw else None)
POSITIVE_INTEGER = _parser("an integer >= 1", int, lambda v: v >= 1)
NUMBER = _parser("a finite number", float, math.isfinite)
NONNEGATIVE = _parser("a finite number >= 0", float, lambda v: 0 <= v < math.inf)
POSITIVE = _parser("a finite number > 0", float, lambda v: 0 < v < math.inf)
SIGMAS = _parser("empty or comma-separated numbers", _numbers)  # the schedule checks them
RAMP = _parser("auto or an integer", lambda raw: None if raw == "auto" else int(raw))
COMMAND = _parser("a shell command line", shlex.split)
DIMS = _parser("HxW", lambda raw: tuple(map(int, raw.lower().split("x"))), lambda v: len(v) == 2)

KEYS = (
    ("run", "seed", "0", INTEGER),
    ("run", "mode", "fd", _choice(*RUN_MODES)),
    ("run", "steps", "6", INTEGER),
    ("run", "sigmas", "", SIGMAS),
    ("run", "workers", "1", INTEGER),
    ("run", "output", "", str),
    ("run", "trace", "", str),
    ("run", "manifest", "", str),
    ("canvas", "channels", "16", INTEGER),
    ("canvas", "frames", "21", INTEGER),
    ("canvas", "height", "", OPTIONAL_INTEGER),
    ("canvas", "width", "", OPTIONAL_INTEGER),
    ("canvas", "pixel_height", "", OPTIONAL_INTEGER),
    ("canvas", "pixel_width", "", OPTIONAL_INTEGER),
    ("canvas", "factor", str(DEFAULT_COMPRESSION), POSITIVE_INTEGER),
    ("tiles", "window_height", "", OPTIONAL_INTEGER),
    ("tiles", "window_width", "", OPTIONAL_INTEGER),
    ("tiles", "pixel_window_height", "480", INTEGER),
    ("tiles", "pixel_window_width", "832", INTEGER),
    ("tiles", "overlap", "0.3", NUMBER),
    ("blending", "ramp", "auto", RAMP),
    ("blending", "min_weight", "0.1", NUMBER),
    ("prior", "lambda_base", "1.5", NUMBER),
    ("prior", "schedule", "gated_cosine", _choice(*GLOBAL_SCHEDULES)),
    ("prior", "tau", "0.1", NUMBER),
    ("prior", "tau_active", "0.1", NUMBER),
    ("prior", "tau_background", "0.35", NUMBER),
    ("prior", "activity_map", "", str),
    ("prior", "latent", "", str),
    ("denoiser", "kind", "gaussian", _choice("gaussian", "target", "external")),
    ("denoiser", "mean", "0.0", NUMBER),
    ("denoiser", "std", "1.0", NONNEGATIVE),
    ("denoiser", "target", "", str),
    ("denoiser", "command", "", COMMAND),
    ("denoiser", "timeout", "300", POSITIVE),
    ("denoiser", "conditioning", "", str),
)

RETIRED = (("run", "strict"), ("run", "prediction"))  # skipped in old manifests


def _grid(section, key):
    """A parser of comma-separated values, each by the rule of key section.key."""
    parse = next(rule for s, k, _, rule in KEYS if (s, k) == (section, key))
    what = f"comma-separated values valid for {section}.{key}"
    return _parser(what, lambda raw: [parse(item) for item in raw.split(",")])


# The parser of each valued flag of the CLI, by dest; --embedder and --timeout
# follow the denoiser.command and denoiser.timeout rules.
FLAGS = {
    "canvas": DIMS,
    "window": DIMS,
    "overlap": NUMBER,
    "factor": POSITIVE_INTEGER,
    "embedder": _parser("a shell command line", COMMAND, bool),
    "timeout": POSITIVE,
    "seam_window": DIMS,
    "seam_overlap": NUMBER,
    "seam_factor": POSITIVE_INTEGER,
    "lambda_grid": _grid("prior", "lambda_base"),
    "tau_grid": _grid("prior", "tau"),
}


def default_config() -> dict:
    cfg = {}
    for section, key, default, _ in KEYS:
        cfg.setdefault(section, {})[key] = default
    return cfg


def _put(cfg, source, section, key, value) -> None:
    if key not in cfg.get(section, ()):
        raise ConfigError(f"{source}unknown key {section}.{key}")
    cfg[section][key] = str(value).strip()


def load_config_file(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = default_config()
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            _put(cfg, f"{path}: ", section, key, value)
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply 'section.key=value' strings on top of a config dict."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        _put(cfg, "", *head.split(".", 1), value)
    return cfg


class Settings:
    """One resolved run. settings.<section>.<key> is each key's parsed
    value and raw its text, the manifest's config snapshot. tiled and
    prior_stage are the sampler configurations of the two stages;
    prior_stage is None when prior.latent supplies the prior."""

    def __init__(self, raw: dict):
        self.raw = raw
        parsed = {}
        for section, key, _, parse in KEYS:
            text = raw[section][key]
            try:
                parsed.setdefault(section, {})[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} must be {exc}, got {text!r}") from None
        for section, values in parsed.items():
            setattr(self, section, SimpleNamespace(**values))

    def canvas_shape(self):
        return self.tiled.canvas_shape


def resolve_settings(cfg: dict) -> Settings:
    s = Settings({section: dict(keys) for section, keys in cfg.items()})
    if s.denoiser.kind == "target" and not s.denoiser.target:
        raise ConfigError("denoiser.kind=target requires denoiser.target")
    if s.denoiser.kind == "external" and not s.denoiser.command:
        raise ConfigError("denoiser.kind=external requires denoiser.command")
    if s.denoiser.kind == "external":  # FDP1 sends it as UTF-8 with a u16 length
        try:
            size = len(s.denoiser.conditioning.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise ConfigError(
                f"denoiser.conditioning must be valid UTF-8, got {s.denoiser.conditioning!r} ({exc.reason})"
            ) from None
        if size > 65535:
            raise ConfigError(f"denoiser.conditioning must be at most 65535 UTF-8 bytes, got {size}")
    if s.run.mode == "fd_regional" and not s.prior.activity_map:
        raise ConfigError("fd_regional mode requires prior.activity_map")
    try:
        _build_stages(s)
    except ArgumentError as exc:  # a range check of a lower layer
        raise ConfigError(str(exc)) from exc
    return s


def _build_stages(s: Settings) -> None:
    """Canvas geometry and both stages' sampler configurations."""
    c, t = s.canvas, s.tiles
    latent, pixel = (c.height, c.width), (c.pixel_height, c.pixel_width)
    if None not in latent:  # a given 0 is given, and fails as a bad shape
        pixel = tuple(n * c.factor for n in latent)
    elif None not in pixel:
        latent = _latent_dims(pixel, c.factor, snap=True)
        pixel = tuple(map(snap_dim, pixel))  # the thumbnail keeps the snapped aspect
    else:
        raise ConfigError("canvas needs height+width (latent) or pixel_height+pixel_width")
    window = (t.window_height, t.window_width)
    if None in window:
        window = _latent_dims((t.pixel_window_height, t.pixel_window_width), c.factor)
    s.tiled = SamplerConfig(
        canvas_shape=(c.channels, c.frames, *latent),
        steps=s.run.steps,
        sigmas=s.run.sigmas,
        window_h=window[0],
        window_w=window[1],
        overlap=t.overlap,
        ramp=s.blending.ramp,
        min_weight=s.blending.min_weight,
        prior=_prior_schedule(s, *latent),
        seed=s.run.seed,
        workers=s.run.workers,
        conditioning=s.denoiser.conditioning,
    )
    s.prior_stage = None
    if not s.prior.latent:  # thumbnail stage: one full-canvas tile, no prior term
        thumbnail = _latent_dims(prior_resolution(*pixel), c.factor, snap=True)
        shape = (c.channels, c.frames, *thumbnail)
        s.prior_stage = replace(
            s.tiled,
            canvas_shape=shape,
            window_h=shape[2],
            window_w=shape[3],
            prior=PriorScheduleConfig(),
        )


def _prior_schedule(s: Settings, h: int, w: int) -> PriorScheduleConfig:
    """The tiled stage's prior schedule, which alone decides its merge: md
    is strength 0, fd prior.schedule, fd_regional the regional schedule.
    An activity map, if given, is read in every mode: it splits the trace."""
    p = s.prior
    activity = load_activity_map(p.activity_map, h, w) if p.activity_map else None
    if s.run.mode == "md":
        return PriorScheduleConfig(activity_map=activity)
    return PriorScheduleConfig(
        lambda_base=p.lambda_base,
        mode="regional" if s.run.mode == "fd_regional" else p.schedule,
        tau=p.tau,
        tau_active=p.tau_active,
        tau_background=p.tau_background,
        activity_map=activity,
    )


def write_manifest(path, settings: Settings, outputs: dict, timings: dict, version: str) -> None:
    inputs = {
        "prior_latent": settings.prior.latent,
        "activity_map": settings.prior.activity_map,
        "target": settings.denoiser.target,
    }
    doc = {
        "version": version,
        "seed": settings.run.seed,
        "config": settings.raw,
        "canvas_shape": list(settings.canvas_shape()),
        "inputs": {key: value for key, value in inputs.items() if value},
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))


def config_from_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: manifest is not JSON ({exc})") from exc
    snapshot = doc.get("config") if isinstance(doc, dict) else None
    if not isinstance(snapshot, dict) or not all(isinstance(v, dict) for v in snapshot.values()):
        raise ConfigError(f"{path}: manifest has no config snapshot")
    cfg = default_config()
    for section, keys in snapshot.items():
        for key, value in keys.items():
            if (section, key) not in RETIRED:
                _put(cfg, f"{path}: manifest: ", section, key, value)
    return cfg
