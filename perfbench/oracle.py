"""Independent float64 reference for the benchmark workloads.

Both denoisers the workloads use are linear in the tile: GaussianAnalytic
with mean 0 returns g(sigma) * x and the echo worker returns x. Every tile
then predicts the same value for a cell, so the fused velocity at a cell is

    (sigma * lam * (x - p) + D * g * x) / (sigma^2 * lam + D)

with D the summed tile weight there. The state stays a per-cell linear
combination u * n + v * p of the canvas noise n and the upsampled prior p.
This module iterates the (H, W) planes u and v directly, with no tiles,
crops or accumulators, and touches the whole canvas only for a few per-cell
sums and the final statistics. It shares no code with the package; what it
restates from the README is the format, the seeding convention, the
schedules and the closed form.
"""

from __future__ import annotations

import math

import numpy as np

PRIOR_AREA = 480 * 832  # thumbnail pixel budget of the prior stage
SNAP = 16
FACTOR = 8
MIN_WEIGHT = 0.1
CONSISTENCY_SIZE = 128
CONSISTENCY_DIVISOR = 64.0**2


def noise_channels(shape, seed, stream):
    """The CLI's Philox noise for one stage, one channel at a time."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    for _ in range(shape[0]):
        yield gen.standard_normal(shape[1:], dtype=np.float32).astype(np.float64)


def prior_dims(latent_h, latent_w):
    def snap(v):
        return max(SNAP, v // SNAP * SNAP)

    h, w = latent_h * FACTOR, latent_w * FACTOR
    ph = snap(math.floor(math.sqrt(PRIOR_AREA * h / w) + 0.5))
    pw = snap(math.floor(math.sqrt(PRIOR_AREA * w / h) + 0.5))
    return max(1, ph // FACTOR), max(1, pw // FACTOR)


def _starts(n, win, stride):
    if win >= n:
        return [0]
    starts = list(range(0, n - win + 1, stride))
    if starts[-1] != n - win:
        starts.append(n - win)
    return starts


def _ramp(length, ramp):
    if ramp == 0:
        return np.ones(length)
    edge = np.minimum(np.arange(length), np.arange(length)[::-1])
    return np.minimum(1.0, MIN_WEIGHT + (1.0 - MIN_WEIGHT) * edge / ramp)


def weight_sum(h, w, win_h, win_w, overlap):
    """D: the summed border-ramp weight of every tile covering each cell."""
    sh = max(1, math.floor(win_h * (1.0 - overlap)))
    sw = max(1, math.floor(win_w * (1.0 - overlap)))
    win_h, win_w = min(win_h, h), min(win_w, w)
    tile_w = np.outer(_ramp(win_h, max(0, win_h - sh)), _ramp(win_w, max(0, win_w - sw)))
    tile_w = tile_w.astype(np.float32).astype(np.float64)  # maps are stored as float32
    d = np.zeros((h, w))
    for r in _starts(h, win_h, sh):
        for c in _starts(w, win_w, sw):
            d[r : r + win_h, c : c + win_w] += tile_w
    return d


def _lerp_matrix(n_in, n_out):
    """(n_out, n_in) endpoint-aligned linear interpolation operator."""
    m = np.zeros((n_out, n_in))
    if n_in == 1 or n_out == 1:
        m[:, 0] = 1.0
        return m
    pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    lo = np.minimum(np.floor(pos).astype(int), n_in - 2)
    m[np.arange(n_out), lo] = 1.0 - (pos - lo)
    m[np.arange(n_out), lo + 1] += pos - lo
    return m


def _area_matrix(n_in, n_out):
    """(n_out, n_in) operator averaging the source interval of each output."""
    edges = np.arange(n_out + 1) * (n_in / n_out)
    j = np.arange(n_in)
    cover = np.minimum(edges[1:, None], j + 1) - np.maximum(edges[:-1, None], j)
    return np.clip(cover, 0.0, None) * (n_out / n_in)


def velocity_gain(denoiser, sigma, std=1.0):
    if denoiser == "echo":
        return 1.0
    d = (1.0 - sigma) ** 2 * std**2 + sigma**2
    return (1.0 - (1.0 - sigma) * std**2 / d) / sigma


def _strength(spec, lam_base, t, activity):
    def gated(tau):
        return 0.0 if t > tau else lam_base * math.cos(t * math.pi / 2.0)

    if spec["mode"] == "fd_regional":
        plane = np.where(activity, gated(spec["tau_active"]), gated(spec["tau_background"]))
        return plane.astype(np.float32).astype(np.float64)
    return gated(spec["tau"])


def _sigmas(steps):
    sig = [1.0 - i / steps for i in range(steps)] + [0.0]
    times = [i / (steps - 1) for i in range(steps)] if steps > 1 else [0.0]
    return sig, times


def _sobel_energy(frame):
    p = np.pad(frame, 1, mode="edge")
    rows = p[:-2] + 2.0 * p[1:-1] + p[2:]
    cols = p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]
    gx = rows[:, 2:] - rows[:, :-2]
    gy = cols[2:] - cols[:-2]
    return float(np.mean(gx * gx + gy * gy))


class Canvas:
    """Per-cell sums of the noise and prior that every figure reduces to."""

    def __init__(self, spec):
        c, t, h, w = spec["canvas"]
        self.spec = spec
        self.sigmas, self.times = _sigmas(spec["steps"])
        ph, pw = prior_dims(h, w)
        scale = 1.0  # the prior stage is a plain mean: x shrinks by one factor
        for i in range(spec["steps"]):
            scale *= 1.0 + (self.sigmas[i + 1] - self.sigmas[i]) * velocity_gain(
                spec["denoiser"], self.sigmas[i]
            )
        up_t, up_h, up_w = _lerp_matrix(t, t), _lerp_matrix(ph, h), _lerp_matrix(pw, w)
        self.snn = np.zeros((h, w))
        self.snp = np.zeros((h, w))
        self.spp = np.zeros((h, w))
        self.noise, self.prior = [], []
        for n_c, small in zip(
            noise_channels((c, t, h, w), spec["seed"], 1),
            noise_channels((c, t, ph, pw), spec["seed"], 0),
        ):
            small = (scale * small).astype(np.float32).astype(np.float64)
            small = np.einsum("st,thw->shw", up_t, small)
            p_c = (up_h @ small @ up_w.T).astype(np.float32).astype(np.float64)
            self.snn += np.einsum("thw,thw->hw", n_c, n_c)
            self.snp += np.einsum("thw,thw->hw", n_c, p_c)
            self.spp += np.einsum("thw,thw->hw", p_c, p_c)
            self.noise.append(n_c.astype(np.float32))
            self.prior.append(p_c.astype(np.float32))
        self.weights = weight_sum(h, w, spec["window"][0], spec["window"][1], spec["overlap"])
        self.activity = spec.get("activity")

    def _mse(self, a, b, mask):
        c, t = self.spec["canvas"][:2]
        sq = a * a * self.snn + 2.0 * a * b * self.snp + b * b * self.spp
        if mask is None:
            return float(sq.sum() / (sq.size * c * t))
        if not mask.any():
            return None
        return float(sq[mask].sum() / (mask.sum() * c * t))

    def run(self, lam_base):
        """Iterate the tiled stage; returns (u, v, trace rows)."""
        h, w = self.spec["canvas"][2:]
        u, v = np.ones((h, w)), np.zeros((h, w))
        d = self.weights
        rows = []
        for i in range(self.spec["steps"]):
            sig, t = self.sigmas[i], self.times[i]
            g = velocity_gain(self.spec["denoiser"], sig)
            lam = _strength(self.spec, lam_base, t, self.activity)
            q = (sig * lam + d * g) / (sig * sig * lam + d)
            r = -sig * lam / (sig * sig * lam + d)
            a = u - sig * q * u
            b = v - sig * (q * v + r) - 1.0
            if self.activity is None:
                fg, bg = self._mse(a, b, None), None
            else:
                fg = self._mse(a, b, self.activity)
                bg = self._mse(a, b, ~self.activity)
            lam_arr = np.asarray(lam)
            rows.append((i, t, sig, float(lam_arr.min()), float(lam_arr.max()), fg, bg))
            dsig = self.sigmas[i + 1] - sig
            u, v = u + dsig * q * u, v + dsig * (q * v + r)
        return u, v, rows

    def channel_stats(self, u, v):
        x = [u * n + v * p for n, p in zip(self.noise, self.prior)]
        return [float(c.mean()) for c in x], [float(c.std()) for c in x]

    def sweep_row(self, u, v):
        """prior_l2, sharpness and temporal consistency of the final latent."""
        c = self.spec["canvas"][0]
        b = v - 1.0
        l2 = math.sqrt(float((u * u * self.snn + 2.0 * u * b * self.snp + b * b * self.spp).sum()))
        frames = (u * sum(self.noise) + v * sum(self.prior)) / c
        sharp = float(np.mean([_sobel_energy(f) for f in frames]))
        ah = _area_matrix(frames.shape[1], CONSISTENCY_SIZE)
        aw = _area_matrix(frames.shape[2], CONSISTENCY_SIZE)
        small = [ah @ f @ aw.T for f in frames]
        diffs = [float(np.sum((b2 - b1) ** 2)) / CONSISTENCY_DIVISOR for b1, b2 in zip(small, small[1:])]
        return l2, sharp, sum(diffs) / len(diffs) if diffs else math.nan
