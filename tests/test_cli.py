import ctypes
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from racekit import cli
from racekit import config as rconfig
from racekit import scenario as rscn
from racekit.config import KitConfig, config_hash, load_config
from racekit.policy import PolicyConfig, init_params, load_checkpoint_file, save_checkpoint_file
from racekit.scenario import EpisodeRecord, Outcome, load_episode, save_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return cli.main(list(argv))


def dispatch_key() -> tuple[bool, str]:
    """(numpy dispatches to its AVX-512 kernels, the OpenBLAS core): the two
    settings that float64 bits follow. The core is the kernel set that
    numpy's bundled OpenBLAS runs (SkylakeX, Haswell, ...), which
    OPENBLAS_CORETYPE overrides."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    assert libs, "numpy bundles no libscipy_openblas64_*.so to read the OpenBLAS core from"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return bool(__cpu_features__["AVX512_SKX"]), corename().decode()


def golden_digest(digests: dict, name: str) -> str:
    key = dispatch_key()
    assert key in digests, (f"no {name} digest recorded for numpy AVX-512 dispatch {key[0]} "
                            f"with OpenBLAS core {key[1]}")
    return digests[key]


def default_config_text() -> str:
    """An INI template with every key at its default; the fields that copy
    another setting are not keys."""
    cfg = KitConfig()
    lines = ["[global]", f"seed = {cfg.seed}", f"workers = {cfg.workers}"]
    for name in rconfig._SECTIONS:
        lines += ["", f"[{name}]"]
        for key, value in asdict(getattr(cfg, name)).items():
            if (name, key) in rconfig._COPIES:
                continue
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
def trained8(tmp_path_factory, track_dir):
    """A policy trained, with no config, on a dataset collected under
    [sim] n_beams = 8."""
    base = tmp_path_factory.mktemp("beams8")
    cfgfile = base / "cfg.ini"
    cfgfile.write_text("[sim]\nn_beams = 8\n[scenario]\nduration = 1.0\n")
    assert run_cli("--config", str(cfgfile), "--out", str(base / "collect"), "--seed", "5",
                   "collect", "--track", str(track_dir / "track_stadium.csv"),
                   "--scenarios", "2") == 0
    assert run_cli("--out", str(base / "train"), "--seed", "5", "train",
                   "--dataset", str(base / "collect" / "dataset.json"), "--epochs", "1") == 0
    return base / "train"


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

    @pytest.mark.parametrize("shape", ["circle", "oval"])
    @pytest.mark.parametrize("flag", [("--width", "100"), ("--length", "0.5")],
                             ids=lambda flag: "=".join(flag))
    def test_too_wide_exit_2(self, tmp_path, capsys, shape, flag):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "track", "gen", "--shape", shape, *flag) == 2
        assert "track error" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_writer_failing_mid_pool_leaves_no_manifest(self, tmp_path, track_dir, monkeypatch,
                                                        workers):
        """The writer fails on the third episode: the two episodes before it
        stay, neither dataset.json nor manifest.json is written, and no pool
        worker is left running while the error, whose traceback holds every
        frame it passed through, is still alive."""
        written = []

        def save_episode(record, path):
            if len(written) == 2:
                raise OSError("disk full")
            save(record, path)
            written.append(path.name)

        save = rscn.save_episode
        monkeypatch.setattr(rscn, "save_episode", save_episode)
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 0.5\n")
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full") as failure:
            run_cli("--config", str(cfgfile), "--out", str(out), "--workers", workers,
                    "collect", "--track", str(track_dir / "track_stadium.csv"),
                    "--scenarios", "16")
        assert len(written) == 2
        assert sorted(p.name for p in (out / "episodes").iterdir()) == sorted(written)
        assert sorted(p.name for p in out.iterdir()) == ["episodes"]
        assert not multiprocessing.active_children()
        assert failure.traceback

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

    def test_policy_takes_the_dataset_beam_count(self, trained8):
        _, cfg = load_checkpoint_file(trained8 / "policy.ckpt")
        assert cfg.n_beams == 8

    def test_mixed_beam_counts_exit_4(self, tmp_path, capsys):
        records = [(f"ep_{n}.bin", EpisodeRecord(
            scenario_id=f"x:{n}", seed=n, scans=np.full((3, n), 5.0, dtype=np.float32),
            ego_v=np.ones(3, dtype=np.float32), actions=np.zeros((3, 2), dtype=np.float32),
            outcome=Outcome.OVERTAKING, duration_actual=0.3)) for n in (8, 16)]
        save_dataset(tmp_path, records)
        assert run_cli("--out", str(tmp_path / "o"), "train",
                       "--dataset", str(tmp_path / "dataset.json"), "--epochs", "1") == 4
        assert "training error" in capsys.readouterr().err

    def test_empty_dataset_exit_4(self, tmp_path, capsys):
        # EmptyDataset is a ScenarioError, yet an empty dataset is a training error
        save_dataset(tmp_path, [])
        assert run_cli("--out", str(tmp_path / "o"), "train",
                       "--dataset", str(tmp_path / "dataset.json"), "--epochs", "1") == 4
        assert "training error" in capsys.readouterr().err

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

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """`train --epochs 1` in a fresh interpreter at 1 and 2 BLAS threads
        writes the same checkpoint and loss curve. At 16 episodes of 80
        frames and 32 beams (I = 48, H = 96, one batch of 16) every GEMM
        of the epoch, from the 1280 x 48 x 288 input projection to the
        16 x 96 x 288 per-step u_h product, is above OpenBLAS's
        single-thread bound (m n k <= 4 * 65536), so each is split across
        the threads. About 1 s on a 2-vCPU host; the tier-1 budget is 10 s."""
        rng = np.random.default_rng(0)
        save_dataset(tmp_path, [(f"ep_{i}.bin", EpisodeRecord(
            scenario_id=f"x:{i}", seed=i,
            scans=rng.uniform(0.2, 30.0, (80, 32)).astype(np.float32),
            ego_v=rng.uniform(0.0, 7.0, 80).astype(np.float32),
            actions=rng.uniform(-0.4, 7.0, (80, 2)).astype(np.float32),
            outcome=Outcome.OVERTAKING, duration_actual=8.0)) for i in range(16)])
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[policy]\nhidden_multiplier = 2\n")
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "racekit.cli", "--config", str(cfgfile),
                            "--out", str(out), "train", "--dataset",
                            str(tmp_path / "dataset.json"), "--epochs", "1"],
                           env=env, check=True, capture_output=True, timeout=60)
            digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("policy.ckpt", "loss_curve.csv")])
        assert digests[0] == digests[1]

    # sha256 over `train --epochs 2`'s checkpoint and loss curve, as written
    # before backpropagation reused its forward caches for its gradients:
    # six seeded episodes of 9 to 14 frames and 16 beams, three batches of
    # two per epoch (padding, the masks and Adam all in play). The bits
    # follow numpy's float64 exp and tanh dispatch and the OpenBLAS kernels,
    # so each (AVX-512 dispatch, OpenBLAS core) pair has its digest; a pair
    # with none recorded fails and names itself.
    TRAIN_DIGESTS = {
        (True, "SkylakeX"): "4f72b71005dff50f1b97bb28aed627c27f380c480f09470d8dc295329916e209",
        (False, "Haswell"): "9d726e87cb089640110d6e917134ffc81ee1f3fbeee4f1638289d52153cc1a71",
        (False, "SkylakeX"): "9b5c68a15aa4e095735c8d18f7e74a06674476e9da0d7192822ed36e68a6d85b",
        (True, "Haswell"): "8cc50d1c8b5a7226f2f51bee8f231e3be032dd13d33db0b755ac7aebaeada24e",
    }

    def test_golden_digest(self, tmp_path):
        rng = np.random.default_rng(3)
        save_dataset(tmp_path, [(f"ep_{i}.bin", EpisodeRecord(
            scenario_id=f"g:{i}", seed=i,
            scans=rng.uniform(0.2, 30.0, (t, 16)).astype(np.float32),
            ego_v=rng.uniform(0.0, 7.0, t).astype(np.float32),
            actions=rng.uniform(-0.4, 7.0, (t, 2)).astype(np.float32),
            outcome=Outcome.OVERTAKING, duration_actual=t / 10.0))
            for i, t in enumerate((9, 14, 11, 12, 10, 13))])
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[policy]\nhidden_multiplier = 2\n[trainer]\nbatch_size = 2\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfgfile), "--out", str(out), "--seed", "3", "train",
                       "--dataset", str(tmp_path / "dataset.json"), "--epochs", "2") == 0
        digest = hashlib.sha256()
        for name in ("policy.ckpt", "loss_curve.csv"):
            digest.update(name.encode())
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == golden_digest(self.TRAIN_DIGESTS, "train")


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

    # sha256 over `eval single --eta 0.1 --render`'s outputs for a
    # random-init 32-beam checkpoint (H = 36), as written while the policy
    # stepped each row alone: a chunk of one must keep these bytes. The
    # trace's bits follow numpy's float64 exp dispatch (AVX-512 or not);
    # keyed like TRAIN_DIGESTS, they are the same on both OpenBLAS cores.
    SINGLE_DIGESTS = {
        (True, "SkylakeX"): "17bff725df097542765fc6e37c4da08db87654b9edecc1cfed0c76debe5465b6",
        (True, "Haswell"): "17bff725df097542765fc6e37c4da08db87654b9edecc1cfed0c76debe5465b6",
        (False, "SkylakeX"): "3524b071deed637bbd3e23860e8c6a48603f5083a3e181a8f264da2aa7d30342",
        (False, "Haswell"): "3524b071deed637bbd3e23860e8c6a48603f5083a3e181a8f264da2aa7d30342",
    }

    def test_single_golden_digest(self, tmp_path, track_dir):
        cfg = PolicyConfig(n_beams=32, embed_dim=4, hidden_multiplier=1)
        save_checkpoint_file(init_params(cfg, np.random.default_rng(0)), cfg,
                             tmp_path / "tiny.ckpt")
        out = tmp_path / "single"
        assert run_cli("--out", str(out), "--seed", "5", "eval", "single",
                       "--checkpoint", str(tmp_path / "tiny.ckpt"),
                       "--track", str(track_dir / "track_stadium.csv"),
                       "--laps", "1", "--timeout", "10", "--eta", "0.1", "--render") == 0
        digest = hashlib.sha256()
        for name in ("report_single.json", "report_single.csv", "single.trace.csv",
                     "single.svg"):
            digest.update(name.encode())
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == golden_digest(self.SINGLE_DIGESTS, "single")

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

    def test_h2h_scans_at_the_checkpoint_beam_count(self, tmp_path, trained8, track_dir):
        # an 8-beam checkpoint needs no [sim] n_beams = 8 to be evaluated
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[sim]\nn_beams = 8\n")
        reports = []
        for config in ([], ["--config", str(cfgfile)]):
            out = tmp_path / f"h2h{len(config)}"
            assert run_cli(*config, "--out", str(out), "--seed", "5", "eval", "h2h",
                           "--checkpoint", str(trained8 / "policy.ckpt"),
                           "--track", str(track_dir / "track_stadium.csv"),
                           "--scenarios", "2") == 0
            reports.append({p.name: p.read_bytes() for p in out.glob("report_*")})
        assert len(reports[0]) == 2
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("with_checkpoint", [False, True])
    def test_latency_manifest_records_random_init(self, tmp_path, trained8, with_checkpoint):
        ckpt = trained8 / "policy.ckpt" if with_checkpoint else tmp_path / "missing.ckpt"
        out = tmp_path / "lat"
        assert run_cli("--out", str(out), "eval", "latency", "--checkpoint", str(ckpt),
                       "--samples", "10") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["random_init"] is not with_checkpoint

    def test_latency_tiny(self, tmp_path, capsys):
        out = tmp_path / "lat"
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[sim]\nn_beams = 8\n[policy]\nembed_dim = 2\nhidden_multiplier = 2\n")
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

    HEADER = "t_s,agent,x_m,y_m,theta_rad,v_mps,delta_rad,collided\n"

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("", "no column t_s"),
        (HEADER, "no rows"),
        (HEADER.replace("t_s,", "") + "0,0.0,0.0,0.0,0.0,0.0,0\n", "no column t_s"),
        (HEADER + "0.0,0,1.0,2.0,0.0,zero,0.0,0\n", "line 2: could not convert"),
        (HEADER + "0.0,0,1.0,2.0\n", "line 2:"),
        (HEADER + "0.0,0,1,2,0,0,0,0\n0.0,1,3,2,0,0,0,0\n0.01,0,1,2,0,0,0,0\n",
         "number of agents changes"),
        (HEADER + "0.0,0,nan,2.0,0.0,0.0,0.0,0\n", "line 2: non-finite time or pose"),
        (HEADER + "inf,0,1.0,2.0,0.0,0.0,0.0,0\n", "line 2: non-finite time or pose"),
    ], ids=["missing", "empty", "header-only", "missing-column", "unparsable-value",
            "short-row", "agents-change", "nan-pose", "inf-time"])
    def test_unreadable_trace_is_evaluation_error(self, tmp_path, capsys, track_dir, text,
                                                  message):
        trace = tmp_path / "t.trace.csv"
        if text is not None:
            trace.write_text(text)
        out = tmp_path / "render"
        assert run_cli("--out", str(out), "render", "--trace", str(trace),
                       "--track", str(track_dir / "track_stadium.csv")) == cli.EXIT_EVAL
        err = capsys.readouterr().err
        assert err.startswith("cannot read trace: ") and message in err
        assert not out.exists()


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["collect", "--scenarios", "0"],
        ["train", "--epochs", "0"],
        ["eval", "latency", "--samples", "0"],
        ["eval", "single", "--laps", "0"],
    ], ids=["scenarios", "epochs", "samples", "laps"])
    def test_zero_count_is_usage_error(self, tmp_path, capsys, argv):
        # a zero count neither falls back to the config's count nor runs
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(tmp_path), *argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: 0 is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["track", "gen", "--shape", "stadium", "--length", "0"],
        ["track", "gen", "--shape", "oval", "--length", "-10"],
        ["track", "gen", "--shape", "serpentine", "--length", "nan"],
        ["track", "gen", "--shape", "stadium", "--length", "inf"],
        ["track", "gen", "--shape", "stadium", "--width", "nan"],
        ["track", "gen", "--shape", "stadium", "--width", "inf"],
        ["track", "gen", "--shape", "stadium", "--width", "0"],
        ["eval", "single", "--timeout", "-1"],
        ["eval", "single", "--timeout", "nan"],
        ["eval", "single", "--timeout", "inf"],
        ["eval", "single", "--timeout", "0"],
    ], ids=lambda argv: f"{argv[-2][2:]}={argv[-1]}")
    def test_nonpositive_or_nonfinite_float_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(tmp_path / "out"), *argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: {argv[-1]} is not a finite positive number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("text", [
        "[expert]\nwheelbase_L = 0.33\n",
        "[expert]\nsteer_limit = 0.4189\n",
        "[expert]\nsample_dt = 0.01\n",
        "[expert]\naccel_max = 9.51\n",
        "[expert]\ndecel_max = -9.51\n",
        "[policy]\nn_beams = 360\n",
        "[scenario]\nseed = 0\n",
        "[trainer]\nseed = 0\n",
    ], ids=["wheelbase_L", "steer_limit", "sample_dt", "accel_max", "decel_max",
            "policy-n_beams", "scenario-seed", "trainer-seed"])
    def test_copied_setting_is_not_a_key(self, tmp_path, capsys, text):
        # the car, the beam count and the seed each have one home
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                       "track", "gen", "--shape", "circle") == 6
        assert "unknown key" in capsys.readouterr().err

    def test_copies_follow_their_home(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[global]\nseed = 7\n[sim]\nn_beams = 8\n")
        cfg = load_config(path)
        assert (cfg.policy.n_beams, cfg.scenario.seed, cfg.trainer.seed) == (8, 7, 7)
        cfg = load_config(path, {"seed": "3"})
        assert (cfg.scenario.seed, cfg.trainer.seed) == (3, 3)

    def test_config_error_exits_6(self, tmp_path, capsys):
        # 6, not the 2 of track errors and argparse usage errors
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nspawn_jitter = 0.5\n")
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                       "track", "gen", "--shape", "circle") == 6
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[sim]\ndt = 0\n",
        "[sim]\ndt = -0.01\n",
        "[sim]\ndt = 0.03\n",                 # 3.33 steps per 0.1 s frame
        "[sim]\nn_beams = 0\n",
        "[sim]\nlidar_range_max = -1\n",
        "[scenario]\nduration = 0.04\n",       # shorter than one frame
        "[scenario]\nego_racelines = fast\n",
        "[scenario]\nleader_racelines =\n",
        "[expert]\nv_floor = 0\n",
        "[trainer]\nbatch_size = 0\n",
        "[trainer]\nepochs = 0\n",
        "[policy]\nembed_dim = 0\n",
        "[policy]\nhidden_multiplier = 0\n",
        "[policy]\nmlp_hidden = 0\n",
        "[policy]\nsigmoid_k = 0\n",
        "[raceline]\nv_max = -1\n",
        "[raceline]\na_lat_max = 0\n",
    ], ids=["dt-zero", "dt-negative", "dt-not-whole-steps", "n_beams-zero",
            "lidar_range_max-negative", "duration-below-frame", "ego_racelines-unknown",
            "leader_racelines-empty", "v_floor-zero", "batch_size-zero", "epochs-zero",
            "embed_dim-zero", "hidden_multiplier-zero", "mlp_hidden-zero", "sigmoid_k-zero",
            "v_max-negative", "a_lat_max-zero"])
    def test_invalid_value_exits_6(self, tmp_path, capsys, collected, track_dir, text):
        # rejected at load, naming the key, before the command that reads it runs
        path = tmp_path / "bad.ini"
        path.write_text(text)
        train = ["train", "--dataset", str(collected / "dataset.json")]
        command = {"[trainer]": train,
                   "[policy]": train + ["--epochs", "1"]}.get(  # short, should the value pass
            text.splitlines()[0],
            ["collect", "--track", str(track_dir / "track_stadium.csv"), "--scenarios", "1"])
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"), *command) == 6
        key = text.splitlines()[1].split("=")[0].strip()
        err = capsys.readouterr().err
        assert "config error" in err and key in err

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

    @pytest.mark.parametrize("flag, expected", [
        (None, "2"),      # [global] workers
        ("1", "1"),       # --workers over the config
    ])
    def test_workers_resolution(self, tmp_path, flag, expected):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[global]\nworkers = 2\n")
        out = tmp_path / "o"
        argv = ["--config", str(cfgfile), "--out", str(out)]
        if flag is not None:
            argv += ["--workers", flag]
        assert run_cli(*argv, "track", "gen", "--shape", "circle") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = load_config(cfgfile, {"workers": expected})
        assert want.workers == int(expected)
        assert manifest["config_hash"] == config_hash(want)

    @pytest.mark.parametrize("flag", ["--scenarios", "--epochs", "--ablation=lidar-only",
                                      "--ablation=2x", "--track", "--checkpoint"])
    def test_manifest_hash_covers_setting_flag(self, tmp_path, trained8, single_rendered,
                                               track_dir, flag):
        # the manifest hashes the config that ran, setting flags included
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[scenario]\nduration = 0.5\n")
        track = str(track_dir / "track_stadium.csv")
        dataset = str(trained8.parent / "collect" / "dataset.json")
        ckpt = str(trained8 / "policy.ckpt")
        argv, overrides = {
            "--scenarios": (["collect", "--track", track, "--scenarios", "1"],
                            {"paths.track": track, "scenario.k_positions": "1"}),
            "--epochs": (["train", "--dataset", dataset, "--epochs", "1"],
                         {"trainer.epochs": "1"}),
            "--ablation=lidar-only": (
                ["train", "--dataset", dataset, "--epochs", "1", "--ablation", "lidar-only"],
                {"trainer.epochs": "1", "policy.use_speed_input": "false"}),
            "--ablation=2x": (
                ["train", "--dataset", dataset, "--epochs", "1", "--ablation", "2x"],
                {"trainer.epochs": "1", "policy.hidden_multiplier": "2"}),
            "--track": (["render", "--trace", str(single_rendered / "single.trace.csv"),
                         "--track", track], {"paths.track": track}),
            "--checkpoint": (["eval", "latency", "--checkpoint", ckpt, "--samples", "10"],
                             {"paths.checkpoint": ckpt}),
        }[flag]
        out = tmp_path / "o"
        assert run_cli("--config", str(cfgfile), "--out", str(out), *argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(load_config(cfgfile, overrides))
        assert manifest["config_hash"] != config_hash(load_config(cfgfile))

    def test_epochs_change_the_hash(self, tmp_path, trained8):
        dataset = str(trained8.parent / "collect" / "dataset.json")
        hashes = []
        for epochs in ("1", "2"):
            out = tmp_path / epochs
            assert run_cli("--out", str(out), "train", "--dataset", dataset,
                           "--epochs", epochs) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

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
