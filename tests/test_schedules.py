import math

import numpy as np
import pytest

from tilefuse import (
    PriorScheduleConfig,
    SigmaSchedule,
    load_activity_map,
    write_flt,
)
from tilefuse.errors import ArgumentError, ConfigError, FileFormatError
from tilefuse.netpbm import write_pgm

from _oracles import trilinear_loop


def gated(t, tau, lambda_base):
    """The gated_cosine strength at t: the global schedule's rule."""
    return PriorScheduleConfig(lambda_base=lambda_base, tau=tau).strength_at(t)


class TestSigmaSchedule:
    def test_linear_defaults(self):
        sched = SigmaSchedule.linear(6)
        assert sched.steps == 6
        assert sched.sigmas[0] == 1.0
        assert sched.sigmas[-1] == 0.0
        assert np.allclose(sched.sigmas, [1, 5 / 6, 4 / 6, 3 / 6, 2 / 6, 1 / 6, 0])
        assert np.allclose(sched.times, [0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_sampled_sigmas_positive_and_decreasing(self):
        sched = SigmaSchedule.linear(50)
        sampled = np.array(sched.sigmas[:-1])
        assert (sampled > 0).all()
        assert (np.diff(sched.sigmas) < 0).all()

    def test_single_step(self):
        sched = SigmaSchedule.from_list([1.0])
        assert sched.sigmas == (1.0, 0.0)
        assert sched.times == (0.0,)

    def test_custom_list(self):
        sched = SigmaSchedule.from_list([1.0, 0.6, 0.2])
        assert sched.steps == 3
        assert sched.times == (0.0, 0.5, 1.0)

    def test_rejects_bad_first_sigma(self):
        with pytest.raises(ArgumentError):
            SigmaSchedule.from_list([0.9, 0.5])

    def test_rejects_nondecreasing(self):
        with pytest.raises(ArgumentError):
            SigmaSchedule.from_list([1.0, 0.5, 0.5])


class TestLambdaGlobal:
    def test_full_strength_at_start(self):
        assert gated(0.0, 0.1, 1.5) == 1.5

    def test_gate_closes(self):
        assert gated(0.2, 0.1, 7.0) == 0.0

    def test_cosine_endpoint(self):
        assert abs(gated(1.0, 1.0, 3.0)) < 1e-12

    def test_cosine_value(self):
        # evaluated numerically: 1.5 * cos(0.1*pi)
        assert math.isclose(gated(0.2, 0.35, 1.5), 1.4265848, rel_tol=1e-6)

    def test_nonincreasing_inside_gate(self):
        vals = [gated(t, 1.0, 2.0) for t in np.linspace(0, 1, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_base_kills_schedule(self):
        assert all(
            gated(t, 1.0, 0.0) == 0.0 for t in np.linspace(0, 1, 11)
        )


class TestLambdaRegional:
    def test_six_step_gating_pattern(self):
        cfg = PriorScheduleConfig(
            lambda_base=1.5,
            mode="regional",
            tau_active=0.1,
            tau_background=0.35,
            activity_map=np.array([[1, 0]]),
        )
        times = [i / 5 for i in range(6)]
        fg = [cfg.strength_at(t)[0, 0] for t in times]
        bg = [cfg.strength_at(t)[0, 1] for t in times]
        assert [v > 0 for v in fg] == [True, False, False, False, False, False]
        assert [v > 0 for v in bg] == [True, True, False, False, False, False]
        assert fg[0] == 1.5
        assert math.isclose(bg[1], 1.4265848, rel_tol=1e-6)

    def test_all_active_equals_global(self):
        ones = np.ones((3, 4))
        cfg = PriorScheduleConfig(
            lambda_base=2.0, mode="regional", tau_active=0.3,
            tau_background=0.8, activity_map=ones,
        )
        for t in (0.0, 0.25, 0.5):
            plane = cfg.strength_at(t)
            assert np.allclose(plane, gated(t, 0.3, 2.0), atol=1e-6)

    def test_background_gate_dominates(self):
        a = np.zeros((2, 2))
        cfg = PriorScheduleConfig(
            lambda_base=1.0, mode="regional", tau_active=0.1,
            tau_background=0.9, activity_map=a,
        )
        for t in (0.0, 0.2, 0.5, 0.85):
            plane = cfg.strength_at(t)
            assert (plane >= gated(t, 0.1, 1.0) - 1e-7).all()

    def test_requires_map(self):
        with pytest.raises(ConfigError):
            PriorScheduleConfig(lambda_base=1.0, mode="regional")

    @pytest.mark.parametrize("mode", ["constant", "cosine", "gated_cosine", "regional"])
    def test_map_checked_in_every_mode(self, mode):
        with pytest.raises(ConfigError, match="2-D"):
            PriorScheduleConfig(mode=mode, activity_map=np.ones((1, 2, 2)))
        with pytest.raises(ConfigError, match="binary"):
            PriorScheduleConfig(mode=mode, activity_map=np.full((2, 2), 0.5))
        cfg = PriorScheduleConfig(mode=mode, activity_map=np.eye(2))
        assert cfg.activity_map.dtype == bool

    def test_tau_ordering_enforced(self):
        with pytest.raises(ConfigError):
            PriorScheduleConfig(tau_active=0.5, tau_background=0.1)


class TestScheduleModes:
    def test_constant_ignores_time(self):
        cfg = PriorScheduleConfig(lambda_base=2.5, mode="constant")
        assert cfg.strength_at(0.0) == 2.5
        assert cfg.strength_at(1.0) == 2.5

    def test_zero_base_kills_every_mode(self):
        board = np.ones((2, 2))
        for mode in ("constant", "cosine", "gated_cosine", "regional"):
            cfg = PriorScheduleConfig(
                lambda_base=0.0, mode=mode, tau=1.0,
                activity_map=board if mode == "regional" else None,
            )
            for t in (0.0, 0.3, 1.0):
                assert np.all(np.asarray(cfg.strength_at(t)) == 0.0)

    def test_cosine_ungated(self):
        cfg = PriorScheduleConfig(lambda_base=2.0, mode="cosine", tau=0.0)
        assert math.isclose(cfg.strength_at(0.5), 2.0 * math.cos(math.pi / 4))

    def test_gated_cosine(self):
        cfg = PriorScheduleConfig(lambda_base=2.0, mode="gated_cosine", tau=0.4)
        assert cfg.strength_at(0.5) == 0.0
        assert cfg.strength_at(0.4) > 0


class TestLoadActivityMap:
    def test_pgm_round_trip(self, tmp_path):
        img = np.zeros((6, 8), dtype=np.uint8)
        img[2:4, 3:6] = 255
        path = tmp_path / "map.pgm"
        write_pgm(path, img)
        a = load_activity_map(path, 6, 8)
        assert a.dtype == bool
        assert a[2, 3] and a[3, 5]
        assert not a[0, 0]

    def test_all_zero_file(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(path, np.zeros((4, 4), dtype=np.uint8))
        a = load_activity_map(path, 4, 4)
        assert not a.any()

    def test_faint_value_binarizes_to_one(self, tmp_path):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 1, 1] = 0.3
        path = tmp_path / "map.flt"
        write_flt(path, x)
        a = load_activity_map(path, 4, 4)
        assert a[1, 1]
        assert a.sum() == 1

    def test_checkerboard_upscale_matches_resize_oracle(self, tmp_path):
        board = ((np.indices((4, 4)).sum(axis=0) % 2) * 255).astype(np.uint8)
        path = tmp_path / "board.pgm"
        write_pgm(path, board)
        a = load_activity_map(path, 8, 8)
        ref = trilinear_loop((board / 255.0).astype(np.float32)[None, None], 1, 8, 8)
        assert np.array_equal(a, ref[0, 0] > 0)

    def test_wrong_channel_count_rejected(self, tmp_path):
        x = np.zeros((2, 1, 4, 4), dtype=np.float32)
        path = tmp_path / "multi.flt"
        write_flt(path, x)
        with pytest.raises(FileFormatError):
            load_activity_map(path, 4, 4)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02\x03junkjunk")
        with pytest.raises(FileFormatError):
            load_activity_map(path, 4, 4)
