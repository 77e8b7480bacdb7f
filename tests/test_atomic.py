import numpy as np
import pytest

from racekit import policy as rpolicy
from racekit._atomic import atomic_open
from racekit.policy import PolicyConfig, init_params, load_checkpoint_file, save_checkpoint_file
from racekit.scenario import EpisodeRecord, load_episode, save_episode
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


class TestWritersAreAtomic:
    def test_checkpoint(self, tmp_path, monkeypatch):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        path = tmp_path / "policy.ckpt"
        save_checkpoint_file(init_params(cfg, np.random.default_rng(0)), cfg, path)
        before = path.read_bytes()

        def failing_save(params, cfg):
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
