"""Reference FDP1 worker: echoes tiles back as flow predictions and embeds
tensors as their first-moment signature. Useful for loopback testing and as
a template for wiring a real backbone.

Run with: python -m tilefuse.echo_worker [--scale S]
"""

from __future__ import annotations

import argparse

import numpy as np

from .protocol import serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    def denoise(step, t, sigma, rect, conditioning, tile):
        if args.scale == 1.0:
            return tile
        return (args.scale * tile).astype(np.float32)

    def embed(tensor):
        flat = tensor.astype(np.float64).ravel()
        return np.array(
            [flat.mean(), flat.std(), flat.min(), flat.max()], dtype=np.float32
        )

    serve(denoise=denoise, embed=embed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
