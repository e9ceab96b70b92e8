import os
import threading
import tracemalloc

import numpy as np
import pytest

from tilefuse import Rect, crop, read_flt, trilinear_resize, write_flt
from tilefuse.errors import ArgumentError, BoundsError, FileFormatError, ShapeError
from tilefuse.tensor import atomic_write, ensure_finite, flt_from_bytes, flt_parts

from _oracles import crop_loop, trilinear_loop

from conftest import random_latent


class TestRect:
    def test_rejects_negative_corner(self):
        with pytest.raises(BoundsError):
            Rect(-1, 0, 2, 2)

    def test_rejects_empty_window(self):
        with pytest.raises(ArgumentError):
            Rect(0, 0, 0, 2)

    def test_bounds_error_names_dimension(self):
        with pytest.raises(BoundsError, match="height"):
            Rect(3, 0, 2, 2).validate_within(4, 8)
        with pytest.raises(BoundsError, match="width"):
            Rect(0, 7, 2, 2).validate_within(4, 8)


class TestCrop:
    def test_identity_crop(self, rng):
        x = random_latent(rng, (2, 3, 5, 7))
        out = crop(x, Rect(0, 0, 5, 7))
        assert np.array_equal(out, x)
        assert out is not x

    def test_index_arithmetic(self):
        vals = np.zeros((1, 1, 4, 4), dtype=np.float32)
        for i in range(4):
            for j in range(4):
                vals[0, 0, i, j] = 10 * i + j
        out = crop(vals, Rect(1, 2, 2, 2))
        assert out[0, 0].tolist() == [[12, 13], [22, 23]]

    def test_matches_loop(self, rng):
        x = random_latent(rng, (3, 2, 9, 11))
        r = Rect(2, 3, 4, 5)
        assert np.array_equal(
            crop(x, r), crop_loop(x, 2, 3, 4, 5).astype(np.float32)
        )

    def test_out_of_bounds(self, rng):
        x = random_latent(rng, (1, 1, 4, 4))
        with pytest.raises(BoundsError):
            crop(x, Rect(2, 0, 3, 2))


class TestTrilinearResize:
    def test_identity_is_bit_exact(self, rng):
        x = random_latent(rng, (2, 3, 4, 5))
        out = trilinear_resize(x, 3, 4, 5)
        assert np.array_equal(out, x)

    def test_ramp_midpoint(self):
        x = np.array([0.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2)
        out = trilinear_resize(x, 1, 1, 3)
        assert np.allclose(out[0, 0, 0], [0.0, 0.5, 1.0])

    def test_matches_loop_oracle(self, rng):
        x = random_latent(rng, (1, 2, 4, 4))
        out = trilinear_resize(x, 3, 8, 8)
        ref = trilinear_loop(x, 3, 8, 8)
        assert np.allclose(out, ref, atol=1e-6)

    def test_matches_loop_downscale(self, rng):
        x = random_latent(rng, (2, 3, 7, 5))
        out = trilinear_resize(x, 2, 3, 4)
        ref = trilinear_loop(x, 2, 3, 4)
        assert np.allclose(out, ref, atol=1e-6)

    def test_bounds_preserved(self, rng):
        x = random_latent(rng, (1, 3, 6, 6))
        out = trilinear_resize(x, 5, 11, 9)
        assert out.min() >= x.min() - 1e-6
        assert out.max() <= x.max() + 1e-6

    def test_constant_stays_constant(self):
        x = np.full((2, 2, 3, 3), 0.37, dtype=np.float32)
        out = trilinear_resize(x, 5, 7, 9)
        assert np.allclose(out, 0.37, atol=1e-6)

    def test_zero_output_rejected(self, rng):
        x = random_latent(rng, (1, 1, 2, 2))
        with pytest.raises(ArgumentError):
            trilinear_resize(x, 0, 2, 2)

    def test_singleton_axes(self):
        x = np.array([3.0], dtype=np.float32).reshape(1, 1, 1, 1)
        out = trilinear_resize(x, 2, 3, 4)
        assert np.allclose(out, 3.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_temporaries_are_frames_not_channels(self, rng, workers):
        # the upsample runs while the tiled stage's noise is alive, so its
        # float64 scratch must stay a few output frames per thread
        x = random_latent(rng, (2, 4, 8, 8))
        tracemalloc.start()
        try:
            out = trilinear_resize(x, 16, 64, 64, workers)
            scratch = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        frame64 = 64 * 64 * 8
        assert scratch <= 4 * workers * frame64  # a channel is 16 frames
        assert np.allclose(out, trilinear_loop(x, 16, 64, 64), atol=1e-6)


class TestFltFormat:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        x = random_latent(rng, (3, 2, 5, 4))
        path = tmp_path / "latent.flt"
        write_flt(path, x)
        back = read_flt(path)
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), x.view(np.uint32))

    def test_header_layout(self, rng):
        x = random_latent(rng, (1, 2, 3, 4))
        blob = b"".join(flt_parts(x))
        assert blob[:4] == b"FLT1"
        assert np.frombuffer(blob[4:24], dtype="<u4").tolist() == [1, 1, 2, 3, 4]
        assert len(blob) == 24 + 4 * x.size

    def test_bad_magic(self):
        with pytest.raises(FileFormatError, match="magic"):
            flt_from_bytes(b"NOPE" + bytes(20))

    def test_truncated_payload(self, rng):
        blob = b"".join(flt_parts(random_latent(rng, (1, 1, 2, 2))))
        with pytest.raises(FileFormatError):
            flt_from_bytes(blob[:-4])

    def test_non_finite_rejected(self):
        x = np.full((1, 1, 1, 2), np.nan, dtype=np.float32)
        with pytest.raises(FileFormatError, match="^payload contains non-finite values$"):
            flt_from_bytes(b"".join(flt_parts(x)))

    def test_float32_max_values_decode(self):
        x = np.full((1, 2, 8, 8), np.finfo(np.float32).max, dtype=np.float32)
        back = flt_from_bytes(bytearray(b"".join(flt_parts(x))))
        assert back.tobytes() == x.tobytes()

    def test_decode_makes_no_temporary_the_size_of_the_payload(self):
        """A writable payload is decoded in place, and the finiteness test
        is a sum: no bool array a quarter of the payload's size."""
        x = np.full((8, 8, 256, 256), 0.5, dtype=np.float32)  # 16 MiB
        blob = bytearray(b"".join(flt_parts(x)))
        tracemalloc.start()
        try:
            back = flt_from_bytes(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(back, np.frombuffer(blob, np.uint8))
        assert peak < 0.01 * len(blob)


    def test_read_holds_the_file_once(self, tmp_path):
        """read_flt reads into a writable buffer sized from the file and
        decodes it in place: its peak is the tensor, not the tensor twice."""
        x = np.full((4, 4, 256, 256), 0.25, dtype=np.float32)  # 4 MiB
        path = tmp_path / "latent.flt"
        write_flt(path, x)
        tracemalloc.start()
        try:
            back = read_flt(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.flags.writeable and back.tobytes() == x.tobytes()
        assert peak < 1.25 * x.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_read_from_a_pipe(self, rng, tmp_path):
        """A file whose size the system does not report, a pipe, is read to
        its end all the same."""
        x = random_latent(rng, (2, 3, 40, 50))
        path = tmp_path / "latent.pipe"
        os.mkfifo(path)

        def feed():
            with open(path, "wb") as fh:
                for part in flt_parts(x):
                    fh.write(part)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        back = read_flt(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.tobytes() == x.tobytes()


class TestEnsureFinite:
    F32_MAX = np.finfo(np.float32).max

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([np.inf], 1),
            ([-np.inf], 1),
            ([np.nan], 1),
            ([np.inf, -np.inf], 2),
            ([np.nan, np.inf, -np.inf], 3),
        ],
        ids=["inf", "-inf", "nan", "inf-and-minus-inf", "all-three"],
    )
    def test_non_finite_values_are_counted(self, rng, values, bad):
        x = random_latent(rng, (2, 3, 5, 4))
        x.reshape(-1)[[1, 17, 60][: len(values)]] = values
        with pytest.raises(ShapeError, match=f"^latent contains {bad} non-finite values$"):
            ensure_finite(x, "latent")

    def test_float32_max_values_pass(self):
        x = np.full((2, 3, 64, 64), self.F32_MAX, dtype=np.float32)
        x[1] = -self.F32_MAX
        assert ensure_finite(x) is x

    def test_huge_finite_float64_values_pass(self):
        x = np.full((1, 1, 2, 2), np.finfo(np.float64).max)
        assert ensure_finite(x) is x

    def test_no_temporary_the_size_of_the_array(self):
        x = np.full((8, 8, 256, 256), 0.5, dtype=np.float32)  # 16 MiB
        tracemalloc.start()
        try:
            ensure_finite(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * x.nbytes


class TestAtomicWrite:
    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"ab", memoryview(b"cd"), bytearray(b"e"))
        assert path.read_bytes() == b"abcde"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_chunk_keeps_old_content_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write(path, b"new", "not bytes")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("target", ["dir", "nodir/out.bin"])
    def test_error_names_the_target_only(self, tmp_path, target):
        (tmp_path / "dir").mkdir()
        path = str(tmp_path / target)
        with pytest.raises(OSError) as info:
            atomic_write(path, b"data")
        assert info.value.filename == path
        assert ".tmp." not in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    def test_failed_rename_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write(target, b"data")
        assert target.is_dir()
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
