import numpy as np
import pytest

from tilefuse.errors import FileFormatError
from tilefuse.netpbm import read_frame, read_pnm, write_pgm, write_ppm
from tilefuse.tensor import write_flt


class TestPgm:
    def test_round_trip(self, rng, tmp_path):
        img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back, maxval = read_pnm(path)
        assert maxval == 255
        assert np.array_equal(back, img)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        img, maxval = read_pnm(path)
        assert img.tolist() == [[1, 2], [3, 4]]

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 2\n65535\n" + bytes([0x01, 0x00, 0x00, 0xFF]))
        img, maxval = read_pnm(path)
        assert maxval == 65535
        assert img.dtype == np.uint16
        assert img.ravel().tolist() == [256, 255]

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FileFormatError):
            read_pnm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P9\n1 1\n255\n\x00")
        with pytest.raises(FileFormatError):
            read_pnm(path)


class TestPpm:
    def test_round_trip(self, rng, tmp_path):
        img = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(path, img)
        back, maxval = read_pnm(path)
        assert back.shape == (5, 4, 3)
        assert np.array_equal(back, img)

    def test_float_input_clipped(self, tmp_path):
        img = np.array([[[300.0, -5.0, 127.4]]])
        path = tmp_path / "f.ppm"
        write_ppm(path, img)
        back, _ = read_pnm(path)
        assert back.ravel().tolist() == [255, 0, 127]


class TestReadFrame:
    def test_netpbm_as_read_pnm(self, rng, tmp_path):
        gray = rng.integers(0, 256, (3, 5)).astype(np.uint8)
        color = rng.integers(0, 256, (3, 5, 3)).astype(np.uint8)
        write_pgm(tmp_path / "g.flt", gray)  # the suffix does not pick the format
        write_ppm(tmp_path / "c.ppm", color)
        assert np.array_equal(read_frame(tmp_path / "g.flt"), gray)
        assert np.array_equal(read_frame(tmp_path / "c.ppm"), color)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_flt_as_height_width_channels(self, rng, tmp_path, channels):
        tensor = rng.standard_normal((channels, 1, 3, 5)).astype(np.float32)
        write_flt(tmp_path / "f.pgm", tensor)
        frame = read_frame(tmp_path / "f.pgm")
        assert frame.dtype == np.float32
        expected = tensor[0, 0] if channels == 1 else np.moveaxis(tensor[:, 0], 0, -1)
        assert np.array_equal(frame, expected)

    @pytest.mark.parametrize("shape", [(2, 1, 3, 5), (1, 2, 3, 5)])
    def test_flt_that_is_not_one_frame_rejected(self, tmp_path, shape):
        write_flt(tmp_path / "f.flt", np.zeros(shape, np.float32))
        with pytest.raises(FileFormatError, match="frame tensors"):
            read_frame(tmp_path / "f.flt")

    @pytest.mark.parametrize("head", [b"P3\n1 1\n255\n0 0 0\n", b"GIF89a\x01\x00"])
    def test_other_magic_rejected(self, tmp_path, head):
        (tmp_path / "x.pgm").write_bytes(head)
        with pytest.raises(FileFormatError, match="expected P5/P6 netpbm or FLT1"):
            read_frame(tmp_path / "x.pgm")
