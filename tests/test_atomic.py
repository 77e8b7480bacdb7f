from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from racekit import _atomic, cli
from racekit import evaluator as reval
from racekit import policy as rpolicy
from racekit import track as rtrack
from racekit._atomic import atomic_open
from racekit.policy import PolicyConfig, init_params, load_checkpoint_file, save_checkpoint_file
from racekit.scenario import EpisodeRecord, load_episode, save_episode
from racekit.simulator import Trace, write_trace_csv
from racekit.track import generate_raceline, make_circle_track, write_raceline_csv, write_track_csv
from racekit.trainer import write_loss_curve_csv


class Boom(Exception):
    pass


def leftovers(directory, target):
    return sorted(p.name for p in directory.iterdir() if p.name != target)


class TestAtomicOpen:
    def test_raise_midway_keeps_previous_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(Boom):
            with atomic_open(target) as fh:
                fh.write("new, half written")
                raise Boom
        assert target.read_text() == "old\n"
        assert leftovers(tmp_path, "out.txt") == []

    def test_raise_before_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(Boom):
            with atomic_open(tmp_path / "out.bin", "wb"):
                raise Boom
        assert list(tmp_path.iterdir()) == []

    def test_completed_write_replaces_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with atomic_open(target, "w", newline="") as fh:
            fh.write("a\r\nb\n")
        assert target.read_bytes() == b"a\r\nb\n"
        assert leftovers(tmp_path, "out.csv") == []

    def test_failing_close_removes_the_temporary(self, tmp_path, monkeypatch):
        class FailingClose:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                return self._fh.write(data)

            def close(self):
                self._fh.close()
                raise OSError("no space left on device")

        target = tmp_path / "out.txt"
        target.write_text("old\n")
        monkeypatch.setattr(_atomic, "open", lambda *a, **k: FailingClose(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space left"):
            with atomic_open(target) as fh:
                fh.write("new\n")
        assert target.read_text() == "old\n"
        assert leftovers(tmp_path, "out.txt") == []

    def test_failing_replace_removes_the_temporary(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        target = tmp_path / "out.txt"
        target.write_text("old\n")
        monkeypatch.setattr(_atomic.os, "replace", failing_replace)
        with pytest.raises(PermissionError, match="cannot replace"):
            with atomic_open(target) as fh:
                fh.write("new\n")
        assert target.read_text() == "old\n"
        assert leftovers(tmp_path, "out.txt") == []


class TestWritersAreAtomic:
    def test_checkpoint(self, tmp_path, monkeypatch):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        path = tmp_path / "policy.ckpt"
        save_checkpoint_file(init_params(cfg, np.random.default_rng(0)), cfg, path)
        before = path.read_bytes()

        def failing_save(params, cfg, fh):
            fh.write(b"E2R1")
            raise Boom

        monkeypatch.setattr(rpolicy, "save_checkpoint", failing_save)
        with pytest.raises(Boom):
            save_checkpoint_file(init_params(cfg, np.random.default_rng(1)), cfg, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "policy.ckpt") == []
        load_checkpoint_file(path)

    def test_loss_curve(self, tmp_path):
        path = tmp_path / "loss_curve.csv"
        write_loss_curve_csv([(1, 0.5, 1e-3)], path)
        before = path.read_bytes()
        # the third row cannot be formatted: two rows are written first
        with pytest.raises(ValueError):
            write_loss_curve_csv([(1, 0.4, 1e-3), (2, 0.3, 1e-3), (3, "bad", 1e-3)], path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "loss_curve.csv") == []

    def test_episode(self, tmp_path):
        path = tmp_path / "ep.bin"
        rec = EpisodeRecord("x", 1, np.ones((3, 4), np.float32), np.ones(3, np.float32),
                            np.zeros((3, 2), np.float32), "Overtaking", 0.3)
        save_episode(rec, path)
        before = path.read_bytes()
        # a header that cannot be serialised raises with the file open
        bad = EpisodeRecord("y", 2, rec.scans, rec.ego_v, rec.actions, "Overtaking",
                            duration_actual=object())
        with pytest.raises(TypeError):
            save_episode(bad, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "ep.bin") == []
        assert load_episode(path).scenario_id == "x"


class TestTrackAndRenderOutputsAreAtomic:
    """Each writer below raises partway through its file, after the target
    already held a complete one."""

    def test_track_csv(self, tmp_path):
        path = tmp_path / "track.csv"
        write_track_csv(make_circle_track(), path)
        before = path.read_bytes()
        # the second row's width cannot be formatted: the header and one row go first
        bad = SimpleNamespace(xy=np.zeros((2, 2)), w_right=[1.0, "wide"], w_left=[1.0, 1.0])
        with pytest.raises(ValueError):
            write_track_csv(bad, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "track.csv") == []

    def test_raceline_csv(self, tmp_path):
        path = tmp_path / "raceline.csv"
        write_raceline_csv(generate_raceline(make_circle_track(), "center"), path)
        before = path.read_bytes()
        bad = SimpleNamespace(points=[(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                                      (0.1, 1.0, 2.0, 3.0, 4.0, "fast")])
        with pytest.raises(ValueError):
            write_raceline_csv(bad, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "raceline.csv") == []

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        pose = np.array([[0.0, 0.0, 0.0, 1.0, 0.0]])
        write_trace_csv(Trace(times=[0.0], poses=[pose], collided=[np.array([False])]), path)
        before = path.read_bytes()
        # the second step's poses are missing
        bad = Trace(times=[0.0, 0.01], poses=[pose, None],
                    collided=[np.array([False]), np.array([False])])
        with pytest.raises(AttributeError):
            write_trace_csv(bad, path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "trace.csv") == []

    def test_track_gen_boundaries(self, tmp_path, monkeypatch):
        assert cli.main(["--out", str(tmp_path), "track", "gen", "--shape", "circle"]) == 0
        path = tmp_path / "track_circle_boundaries.csv"
        before = path.read_bytes()
        real = rtrack.make_track

        def track_with_bad_outer(*args, **kwargs):
            # the outer boundary's second vertex has three coordinates
            return replace(real(*args, **kwargs), outer_boundary=[[0.0, 0.0], [1.0, 2.0, 3.0]])

        monkeypatch.setattr(rtrack, "make_track", track_with_bad_outer)
        with pytest.raises(ValueError):
            cli.main(["--out", str(tmp_path), "track", "gen", "--shape", "circle"])
        assert path.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("command", ["track gen", "eval single", "render"])
    def test_svg(self, tmp_path, monkeypatch, command):
        # a lone surrogate cannot be encoded: the write fails after the
        # target was opened
        track = tmp_path / "track" / "track_circle.csv"
        assert cli.main(["--out", str(track.parent), "track", "gen", "--shape", "circle"]) == 0
        out = tmp_path / "out"
        if command == "track gen":
            argv = ["--out", str(out), "track", "gen", "--shape", "circle"]
            svg, patch = out / "track_circle.svg", (reval, "render_episode")
        elif command == "eval single":
            cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
            ckpt = tmp_path / "policy.ckpt"
            save_checkpoint_file(init_params(cfg, np.random.default_rng(0)), cfg, ckpt)
            cfgfile = tmp_path / "cfg.ini"
            cfgfile.write_text("[sim]\nn_beams = 8\n")
            argv = ["--config", str(cfgfile), "--out", str(out), "eval", "single",
                    "--checkpoint", str(ckpt), "--track", str(track), "--laps", "1",
                    "--timeout", "0.2", "--render"]
            svg, patch = out / "single.svg", (reval, "render_episode")
        else:
            trace = tmp_path / "run.csv"
            write_trace_csv(Trace(times=[0.0], poses=[np.array([[10.0, 0.0, 1.6, 1.0, 0.0]])],
                                  collided=[np.array([False])]), trace)
            argv = ["--out", str(out), "render", "--trace", str(trace), "--track", str(track)]
            svg, patch = out / "run.svg", (reval, "render_episode")
        assert cli.main(argv) == 0
        before = svg.read_bytes()
        monkeypatch.setattr(*patch, lambda *args, **kwargs: "<svg>\ud800</svg>")
        with pytest.raises(UnicodeEncodeError):
            cli.main(argv)
        assert svg.read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
