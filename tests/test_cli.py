import hashlib
import json
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest

from racekit import cli
from racekit import config as rconfig
from racekit.config import KitConfig, config_hash, load_config
from racekit.policy import PolicyConfig, init_params, load_checkpoint_file, save_checkpoint_file
from racekit.scenario import Outcome, load_episode


def run_cli(*argv):
    return cli.main(list(argv))


def default_config_text() -> str:
    """An INI template with every key at its default."""
    cfg = KitConfig()
    lines = ["[global]", f"seed = {cfg.seed}", f"workers = {cfg.workers}"]
    for name in rconfig._SECTIONS:
        lines += ["", f"[{name}]"]
        for key, value in asdict(getattr(cfg, name)).items():
            if isinstance(value, tuple):
                value = ",".join(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    assert run_cli("--out", str(out), "track", "gen", "--shape", "stadium",
                   "--length", "60", "--width", "3") == 0
    return out


@pytest.fixture(scope="module")
def collected(tmp_path_factory, track_dir):
    out = tmp_path_factory.mktemp("collect")
    code = run_cli("--out", str(out), "--seed", "5", "collect",
                   "--track", str(track_dir / "track_stadium.csv"),
                   "--scenarios", "4")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, collected, track_dir):
    out = tmp_path_factory.mktemp("train")
    code = run_cli("--out", str(out), "--seed", "5", "train",
                   "--dataset", str(collected / "dataset.json"),
                   "--epochs", "2")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def single_rendered(tmp_path_factory, trained, track_dir):
    out = tmp_path_factory.mktemp("single")
    assert run_cli("--out", str(out), "--seed", "5", "eval", "single",
                   "--checkpoint", str(trained / "policy.ckpt"),
                   "--track", str(track_dir / "track_stadium.csv"),
                   "--laps", "1", "--timeout", "3", "--render") == 0
    return out


class TestTrackCommands:
    def test_gen_outputs(self, track_dir):
        assert (track_dir / "track_stadium.csv").exists()
        assert (track_dir / "track_stadium_boundaries.csv").exists()
        for rid in ("left", "center", "right"):
            assert (track_dir / f"raceline_stadium_{rid}.csv").exists()
        svg = (track_dir / "track_stadium.svg").read_text()
        ET.fromstring(svg)
        manifest = json.loads((track_dir / "manifest.json").read_text())
        assert manifest["command"] == "track gen"
        assert "track_stadium.csv" in manifest["outputs"]

    def test_info_on_circle(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run_cli("--out", str(out), "track", "gen", "--shape", "circle",
                       "--length", str(2 * np.pi * 10), "--width", "3") == 0
        assert run_cli("track", "info", "--track",
                       str(out / "track_circle.csv")) == 0
        text = capsys.readouterr().out
        length = float([ln for ln in text.splitlines()
                        if "total_length" in ln][0].split()[1])
        assert abs(length - 2 * np.pi * 10) / (2 * np.pi * 10) < 1e-3

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_m,y_m,w_tr_right_m,w_tr_left_m\na,b,c,d\n")
        assert run_cli("track", "info", "--track", str(bad)) == 2
        assert "row" in capsys.readouterr().err

    def test_missing_track_exit_2(self):
        assert run_cli("track", "info") == 2


class TestCollect:
    def test_manifest_partition(self, collected):
        manifest = json.loads((collected / "dataset.json").read_text())
        counts = manifest["counts"]
        assert sum(counts.values()) == 4
        assert len(manifest["episodes"]) + len(manifest["excluded"]) == 4
        assert manifest["total_samples"] > 0
        kept = [load_episode(collected / f) for f in manifest["episodes"]]
        excluded = [load_episode(collected / f) for f in manifest["excluded"]]
        # collision episodes are excluded, every other one is kept
        assert all(ep.outcome != Outcome.COLLISION for ep in kept)
        assert all(ep.outcome == Outcome.COLLISION for ep in excluded)
        assert counts == {k: sum(ep.outcome == k for ep in kept + excluded)
                          for k in Outcome.ALL}
        assert manifest["total_samples"] == sum(ep.n_frames for ep in kept)

    def test_same_seed_same_config_hash_and_bytes(self, tmp_path, track_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("--out", str(out), "--seed", "9", "collect",
                           "--track", str(track_dir / "track_stadium.csv"),
                           "--scenarios", "2") == 0
            outs.append(out)
        m1 = json.loads((outs[0] / "manifest.json").read_text())
        m2 = json.loads((outs[1] / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        for f in m1["outputs"]:
            if f == "manifest.json":
                continue
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f

    def test_worker_count_same_bytes(self, tmp_path, track_dir):
        # six scenarios: the pool hands out chunks of four, so both workers run
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 1.0\n")
        outs = {}
        for workers in (2, 1):
            out = tmp_path / f"w{workers}"
            assert run_cli("--config", str(cfgfile), "--out", str(out), "--seed", "3",
                           "--workers", str(workers), "collect",
                           "--track", str(track_dir / "track_stadium.csv"),
                           "--scenarios", "6") == 0
            outs[workers] = out
        manifest = json.loads((outs[1] / "dataset.json").read_text())
        episodes = manifest["episodes"] + manifest["excluded"]
        assert len(episodes) == 6
        for f in ["dataset.json"] + episodes:
            assert (outs[2] / f).read_bytes() == (outs[1] / f).read_bytes(), f

    # sha256 over dataset.json and every episode file (name, then bytes), as
    # written before the one-shot lattice and the cached projection tables;
    # a change that moves one byte of a collected dataset fails here
    GOLDEN_DIGEST = "d5a05d859d98856018fbfa89532347ed2c5321a4818cf7e690bf7141cef090d8"

    def test_golden_digest(self, tmp_path, track_dir):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 1.5\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfgfile), "--out", str(out), "--seed", "7",
                       "--workers", "1", "collect",
                       "--track", str(track_dir / "track_stadium.csv"),
                       "--scenarios", "4") == 0
        manifest = json.loads((out / "dataset.json").read_text())
        digest = hashlib.sha256()
        for f in ["dataset.json"] + sorted(manifest["episodes"] + manifest["excluded"]):
            digest.update(f.encode())
            digest.update((out / f).read_bytes())
        assert digest.hexdigest() == self.GOLDEN_DIGEST

    def test_no_valid_spawn_exit_3(self, tmp_path, track_dir, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nd_gap = 0.1\n")
        code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"),
                       "collect", "--track", str(track_dir / "track_stadium.csv"),
                       "--scenarios", "2")
        assert code == 3


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "policy.ckpt").exists()
        curve = (trained / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,mean_loss,lr"
        assert len(curve) == 3
        params, cfg = load_checkpoint_file(trained / "policy.ckpt")
        assert cfg.n_beams == 360

    def test_missing_dataset_exit_4(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "train",
                       "--dataset", str(tmp_path / "nope.json")) == 4

    def test_lidar_only_ablation_flag(self, tmp_path, collected):
        out = tmp_path / "lo"
        assert run_cli("--out", str(out), "train",
                       "--dataset", str(collected / "dataset.json"),
                       "--epochs", "1", "--ablation", "lidar-only") == 0
        _, cfg = load_checkpoint_file(out / "policy.ckpt")
        assert cfg.use_speed_input is False

    def test_multiplier_ablation_flag(self, tmp_path, collected):
        out = tmp_path / "m8"
        assert run_cli("--out", str(out), "train",
                       "--dataset", str(collected / "dataset.json"),
                       "--epochs", "1", "--ablation", "8x") == 0
        _, cfg = load_checkpoint_file(out / "policy.ckpt")
        assert cfg.hidden_multiplier == 8


class TestEval:
    def test_h2h_counts_sum(self, tmp_path, trained, track_dir, capsys):
        out = tmp_path / "h2h"
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 1.0\n")
        assert run_cli("--config", str(cfgfile), "--out", str(out), "--seed", "5",
                       "eval", "h2h",
                       "--checkpoint", str(trained / "policy.ckpt"),
                       "--track", str(track_dir / "track_stadium.csv"),
                       "--scenarios", "3") == 0
        report = json.loads((out / "report_h2h.json").read_text())
        assert report["n"] == 3
        assert (report["car_following"] + report["overtaking"]
                + report["collision"]) == 3

    def test_noise_levels(self, tmp_path, trained, track_dir):
        out = tmp_path / "noise"
        assert run_cli("--out", str(out), "--seed", "5", "eval", "noise",
                       "--checkpoint", str(trained / "policy.ckpt"),
                       "--track", str(track_dir / "track_stadium.csv"),
                       "--levels", "0.1,0.3,0.5", "--laps", "1",
                       "--timeout", "3") == 0
        report = json.loads((out / "report_noise.json").read_text())
        assert report["eta_levels"] == [0.1, 0.3, 0.5]
        assert len(report["single"]) == 3

    def test_single_with_render(self, single_rendered):
        out = single_rendered
        assert (out / "report_single.json").exists()
        assert (out / "report_single.csv").exists()
        ET.fromstring((out / "single.svg").read_text())

    @pytest.mark.parametrize("suite, extra", [
        ("h2h", ["--eta", "0.2"]),
        ("noise", ["--mode", "h2h", "--levels", "0.2"]),
    ])
    def test_worker_count_same_report(self, tmp_path, trained, track_dir, suite, extra):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 1.0\n")
        reports = {}
        for workers in (2, 1):
            out = tmp_path / f"w{workers}"
            assert run_cli("--config", str(cfgfile), "--out", str(out), "--seed", "5",
                           "--workers", str(workers), "eval", suite,
                           "--checkpoint", str(trained / "policy.ckpt"),
                           "--track", str(track_dir / "track_stadium.csv"),
                           "--scenarios", "2", *extra) == 0
            reports[workers] = {p.name: p.read_bytes() for p in out.glob("report_*")}
        assert len(reports[1]) == 2
        assert reports[2] == reports[1]

    def test_latency_tiny(self, tmp_path, capsys):
        out = tmp_path / "lat"
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[policy]\nn_beams = 8\nembed_dim = 2\nhidden_multiplier = 2\n")
        assert run_cli("--config", str(cfgfile), "--out", str(out),
                       "eval", "latency", "--samples", "1000") == 0
        report = json.loads((out / "report_latency.json").read_text())
        assert report["samples"] == 1000
        assert report["median_ms"] <= report["p99_ms"] <= report["max_ms"]
        assert "median" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["h2h", "--eta", "1.5"],
        ["noise", "--levels", "1.5"],
        ["noise", "--levels", "0.1,x"],
        ["single", "--eta", "-0.3"],
    ], ids=["h2h-eta-above-one", "noise-level-above-one", "noise-level-not-a-number",
            "single-eta-negative"])
    def test_noise_level_outside_unit_interval_is_usage_error(self, tmp_path, trained,
                                                               track_dir, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(tmp_path / "o"), "--seed", "5", "eval", *argv,
                    "--checkpoint", str(trained / "policy.ckpt"),
                    "--track", str(track_dir / "track_stadium.csv"),
                    "--scenarios", "1", "--laps", "1", "--timeout", "1")
        assert exc.value.code == 2

    def test_noise_levels_in_unit_interval_parse(self):
        parser = cli.build_parser()
        assert parser.parse_args(["eval", "h2h", "--eta", "0.2"]).eta == 0.2
        assert parser.parse_args(["eval", "noise", "--levels", "0,1"]).levels == [0.0, 1.0]
        assert parser.parse_args(["eval", "noise"]).levels == [0.1, 0.2, 0.3]

    def test_bad_checkpoint_exit_5(self, tmp_path, track_dir):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert run_cli("--out", str(tmp_path / "o"), "eval", "single",
                       "--checkpoint", str(bad),
                       "--track", str(track_dir / "track_stadium.csv")) == 5


class TestRender:
    def test_trace_to_svg(self, tmp_path, single_rendered, track_dir):
        # the trace that eval single --render writes redraws as its own SVG
        manifest = json.loads((single_rendered / "manifest.json").read_text())
        assert "single.trace.csv" in manifest["outputs"]
        out = tmp_path / "render"
        assert run_cli("--out", str(out), "render",
                       "--trace", str(single_rendered / "single.trace.csv"),
                       "--track", str(track_dir / "track_stadium.csv")) == 0
        svg = (out / "single.trace.svg").read_bytes()
        ET.fromstring(svg)
        assert svg == (single_rendered / "single.svg").read_bytes()


class TestConfig:
    def test_default_template_roundtrip(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text(default_config_text())
        cfg = load_config(path)
        assert cfg == load_config(None)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[trainer]\nlearning_speed = 9\n")
        from racekit.config import ConfigError
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[expert]\nleader_speed_discount = 0\n",   # outside (0, 1]
        "[expert]\nleader_speed_discount = 1.5\n",
        "[scenario]\nv_ell_discount = 0.6\n",      # the second knob is gone
    ], ids=["discount-zero", "discount-above-one", "v_ell_discount"])
    def test_leader_speed_discount_is_the_only_knob(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        from racekit.config import ConfigError
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_error_exits_6(self, tmp_path, capsys):
        # 6, not the 2 of track errors and argparse usage errors
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nspawn_jitter = 0.5\n")
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                       "track", "gen", "--shape", "circle") == 6
        assert "config error" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[telemetry]\nx = 1\n")
        from racekit.config import ConfigError
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_invariant_to_order_and_format(self, tmp_path):
        a = tmp_path / "a.ini"
        b = tmp_path / "b.ini"
        a.write_text("[trainer]\nepochs = 100\nlr0 = 0.001\n[global]\nseed = 4\n")
        b.write_text("[global]\nseed = 4\n[trainer]\nlr0 = 1e-3\nepochs = 100\n")
        assert config_hash(load_config(a)) == config_hash(load_config(b))

    def test_overrides_change_hash(self, tmp_path):
        a = tmp_path / "a.ini"
        a.write_text("[trainer]\nepochs = 100\n")
        h1 = config_hash(load_config(a))
        h2 = config_hash(load_config(a, {"trainer.epochs": "200"}))
        assert h1 != h2

    @pytest.mark.parametrize("flag, env, expected", [
        (None, None, "2"),      # [global] workers
        (None, "3", "3"),       # E2R_WORKERS over the config
        ("1", "3", "1"),        # --workers over both
    ])
    def test_workers_resolution(self, tmp_path, monkeypatch, flag, env, expected):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[global]\nworkers = 2\n")
        if env is None:
            monkeypatch.delenv("E2R_WORKERS", raising=False)
        else:
            monkeypatch.setenv("E2R_WORKERS", env)
        out = tmp_path / "o"
        argv = ["--config", str(cfgfile), "--out", str(out)]
        if flag is not None:
            argv += ["--workers", flag]
        assert run_cli(*argv, "track", "gen", "--shape", "circle") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = load_config(cfgfile, {"workers": expected})
        assert want.workers == int(expected)
        assert manifest["config_hash"] == config_hash(want)

    def test_tuple_field_parsing(self, tmp_path):
        a = tmp_path / "a.ini"
        a.write_text("[scenario]\nego_racelines = left, center ,right\n")
        cfg = load_config(a)
        assert cfg.scenario.ego_racelines == ("left", "center", "right")

    def test_typed_fields_follow_annotations(self, tmp_path, monkeypatch):
        # a field's type comes from its annotation, not from its spelling
        @dataclass(frozen=True)
        class Probe:
            ints: tuple[int, ...] = ()
            maybe: float | None = 1.0

        monkeypatch.setitem(rconfig._SECTIONS, "paths", Probe)
        path = tmp_path / "probe.ini"
        path.write_text("[paths]\nints = 1, 2\nmaybe = 0.5\n")
        cfg = load_config(path)
        assert cfg.paths.ints == (1, 2)
        assert cfg.paths.maybe == 0.5
        assert load_config(path, {"paths.maybe": "none"}).paths.maybe is None

    @pytest.mark.parametrize("text", [
        "[trainer]\nepochs = many\n",
        "[policy]\nuse_speed_input = maybe\n",
        "[global]\nseed = 1.5\n",
    ], ids=["int", "bool", "global-int"])
    def test_malformed_value_rejected(self, tmp_path, text):
        # a value its field's type cannot hold is a config error (exit 6)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        from racekit.config import ConfigError
        with pytest.raises(ConfigError):
            load_config(path)
