"""Independent reference implementations used to verify the library.

Everything here is written as plain loops or one-shot formulas, deliberately
avoiding the library's production code paths, so a test that compares the
two is a genuine cross-check rather than a tautology.
"""

import numpy as np


def crop_loop(canvas, row, col, height, width):
    c, t, _, _ = canvas.shape
    out = np.zeros((c, t, height, width), dtype=np.float64)
    for ci in range(c):
        for ti in range(t):
            for i in range(height):
                for j in range(width):
                    out[ci, ti, i, j] = canvas[ci, ti, row + i, col + j]
    return out


def trilinear_loop(src, out_t, out_h, out_w):
    """Brute-force endpoint-aligned trilinear interpolation, one output
    element at a time."""
    c, st, sh, sw = src.shape
    out = np.zeros((c, out_t, out_h, out_w), dtype=np.float64)

    def axis_pos(k, n_out, n_src):
        if n_out == 1 or n_src == 1:
            return 0, 0, 0.0
        pos = k * (n_src - 1) / (n_out - 1)
        lo = min(int(np.floor(pos)), n_src - 2)
        return lo, lo + 1, pos - lo

    srcd = src.astype(np.float64)
    for ci in range(c):
        for kt in range(out_t):
            t0, t1, ft = axis_pos(kt, out_t, st)
            for kh in range(out_h):
                h0, h1, fh = axis_pos(kh, out_h, sh)
                for kw in range(out_w):
                    w0, w1, fw = axis_pos(kw, out_w, sw)
                    acc = 0.0
                    for dt, wt in ((t0, 1 - ft), (t1, ft)):
                        for dh, wh in ((h0, 1 - fh), (h1, fh)):
                            for dw, ww in ((w0, 1 - fw), (w1, fw)):
                                acc += wt * wh * ww * srcd[ci, dt, dh, dw]
                    out[ci, kt, kh, kw] = acc
    return out


def fusion_loss_field_flow(y, tiles, x, prior, lam, sigma):
    """Per-element value of the prior-regularized flow objective at
    candidate y: sum_i w_i (y - y_i)^2 on each window plus
    lam * ((x - sigma*y) - prior)^2."""
    lam_b = np.broadcast_to(np.asarray(lam, dtype=np.float64), x.shape)
    field = lam_b * ((x - sigma * y) - prior) ** 2
    field = field.astype(np.float64)
    for pred, rect, w in tiles:
        sl = (
            slice(None),
            slice(None),
            slice(rect.row, rect.row + rect.height),
            slice(rect.col, rect.col + rect.width),
        )
        field[sl] = field[sl] + w[None, None] * (y[sl] - pred) ** 2
    return field


def quadratic_minimizer(loss_field):
    """Per-element vertex of a quadratic from three evaluations.

    loss_field(y_const) evaluates the separable objective at a constant
    candidate; sampling it at 0, 1, 2 pins the parabola a*y^2 + b*y + c per
    element, whose minimizer is -b / (2a).
    """
    l0 = loss_field(0.0)
    l1 = loss_field(1.0)
    l2 = loss_field(2.0)
    a = (l2 - 2.0 * l1 + l0) / 2.0
    b = l1 - l0 - a
    if np.any(a <= 0):
        raise AssertionError("objective is not strictly convex everywhere")
    return -b / (2.0 * a)


def minimize_fd_flow(tiles, x, prior, lam, sigma, shape):
    def at(const):
        y = np.full(shape, const, dtype=np.float64)
        return fusion_loss_field_flow(y, tiles, x, prior, lam, sigma)

    return quadratic_minimizer(at)


def sobel_loop(lum, border="replicate"):
    """Direct 3x3 Sobel convolution with explicit loops."""
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
    ky = kx.T
    h, w = lum.shape
    lum = lum.astype(np.float64)

    def sample(i, j):
        return lum[min(max(i, 0), h - 1), min(max(j, 0), w - 1)]

    if border == "replicate":
        rows, cols, off = h, w, 0
    else:
        rows, cols, off = h - 2, w - 2, 1
    gx = np.zeros((rows, cols))
    gy = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            ax = ay = 0.0
            for di in range(3):
                for dj in range(3):
                    v = sample(i + off + di - 1, j + off + dj - 1)
                    ax += kx[di, dj] * v
                    ay += ky[di, dj] * v
            gx[i, j] = ax
            gy[i, j] = ay
    return gx, gy


def area_average_loop(lum, out_h, out_w):
    """Direct box-overlap area averaging, one output cell at a time."""
    h, w = lum.shape
    lum = lum.astype(np.float64)
    out = np.zeros((out_h, out_w))
    sh = h / out_h
    sw = w / out_w
    for oi in range(out_h):
        for oj in range(out_w):
            r0, r1 = oi * sh, (oi + 1) * sh
            c0, c1 = oj * sw, (oj + 1) * sw
            acc = 0.0
            for i in range(int(np.floor(r0)), min(h, int(np.ceil(r1)))):
                ri = min(r1, i + 1) - max(r0, i)
                if ri <= 0:
                    continue
                for j in range(int(np.floor(c0)), min(w, int(np.ceil(c1)))):
                    cj = min(c1, j + 1) - max(c0, j)
                    if cj > 0:
                        acc += ri * cj * lum[i, j]
            out[oi, oj] = acc / (sh * sw)
    return out


def gaussian_posterior_mc(x_query, sigma, mu, s, n_samples, seed, bandwidth):
    """Monte-Carlo estimate of E[clean | observation near x_query] under
    x = (1-sigma)*clean + sigma*noise with clean ~ N(mu, s^2)."""
    rng = np.random.default_rng(seed)
    clean = rng.normal(mu, s, n_samples)
    noisy = (1.0 - sigma) * clean + sigma * rng.standard_normal(n_samples)
    mask = np.abs(noisy - x_query) < bandwidth
    if mask.sum() < 100:
        raise AssertionError(f"only {mask.sum()} samples near {x_query}")
    return clean[mask].mean()
