"""The four workloads: inputs made through the kit's public API, the command
each run drives, the work one command does, and the checks on its outputs.

Set-up writes every input a command reads (track CSV, INI config, policy
checkpoint, episode dataset) from the workload seed alone. Commands always
get --workers, --track, --checkpoint and --dataset explicitly, so neither
E2R_WORKERS nor the missing-checkpoint fallback of `eval latency` changes
what runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from racekit import policy as rpol
from racekit import scenario as rscn
from racekit import track as rtrack
from racekit.config import load_config
from racekit.seeding import rng_for


@dataclass(frozen=True)
class Size:
    """How much work one command and one set-up do."""

    setup_repeats: int        # at least this many set-ups per run ...
    setup_min_s: float        # ... and more until they took this long together
    collect_scenarios: int    # spawn grid of `collect` (scenario.k_positions)
    collect_duration: float   # simulated seconds per `collect` episode
    h2h_scenarios: int        # spawn grid of `eval h2h`
    h2h_duration: float       # simulated seconds per `eval h2h` episode
    train_episodes: int
    train_frames: int
    epochs: int
    samples: int              # latency samples per command


FULL = Size(setup_repeats=5, setup_min_s=1.0, collect_scenarios=8, collect_duration=4.0,
            h2h_scenarios=4, h2h_duration=8.0, train_episodes=16, train_frames=80,
            epochs=3, samples=5000)
# a few seconds per workload; used by the benchmark's own test
TINY = Size(setup_repeats=1, setup_min_s=0.0, collect_scenarios=2, collect_duration=0.3,
            h2h_scenarios=2, h2h_duration=0.3, train_episodes=2, train_frames=6, epochs=1,
            samples=300)

H2H_ETA = 0.2


def _write_track(d: Path, shape: str) -> str:
    path = d / f"track_{shape}.csv"
    rtrack.write_track_csv(rtrack.make_track(shape, length=60.0, width=3.0), path)
    return str(path)


def _write_checkpoint(d: Path) -> str:
    """A random-init policy at the default architecture: it makes the same
    calls per step as a trained one. Its weights do not depend on the
    workload seed, because they decide which h2h episodes end early in a
    collision, and so how much a run simulates."""
    cfg = rpol.PolicyConfig()
    path = d / "policy.ckpt"
    rpol.save_checkpoint_file(rpol.init_params(cfg, rng_for(0, "racebench:policy")),
                              cfg, path)
    return str(path)


def _scenario_config(d: Path, duration: float) -> str:
    # The spawn grid does not depend on the seed: expert episodes that
    # collide end early, so a seeded grid would change the work per run.
    path = d / "bench.ini"
    path.write_text(f"[scenario]\nspawn_phase = 0.0\nduration = {duration!r}\n")
    return str(path)


def _expected_scenarios(inp: dict) -> int:
    """Scenario count of the spawn grid, found through the kit's API."""
    cfg = load_config(inp["config"])
    env = rscn.RaceEnvironment.build(rtrack.load_track(inp["track"]), cfg.sim,
                                     cfg.expert, cfg.raceline)
    scn_cfg = replace(cfg.scenario, k_positions=inp["scenarios"], seed=inp["seed"])
    return len(rscn.enumerate_scenarios(scn_cfg, env)[0])


def _sha256(paths: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(str(p.relative_to(base)).encode() + b"\0")
        digest.update(p.read_bytes())
    return digest.hexdigest()


def _global_args(inp: dict, out: Path, workers: int) -> list[str]:
    argv = ["--seed", str(inp["seed"]), "--workers", str(workers), "--out", str(out)]
    if "config" in inp:
        argv = ["--config", inp["config"]] + argv
    return argv


class Workload:
    name = ""
    unit = ""          # what one unit of throughput_per_s is
    workers = 1        # --workers of the measured commands

    def setup(self, d: Path, seed: int, size: Size) -> dict:
        raise NotImplementedError

    def argv(self, inp: dict, out: Path, workers: int) -> list[str]:
        raise NotImplementedError

    def expect(self, inp: dict) -> dict:
        """Expectations for the checks, computed once before any command."""
        return {}

    def units(self, inp: dict, exp: dict) -> int:
        raise NotImplementedError

    def check(self, out: Path, inp: dict, exp: dict) -> list[str]:
        raise NotImplementedError

    def digest(self, out: Path) -> str:
        """sha256 of the outputs that equal seeds must reproduce byte for byte."""
        raise NotImplementedError


class Collect(Workload):
    name = "collect"
    unit = "episodes"
    workers = 2

    def setup(self, d, seed, size):
        return {"seed": seed, "track": _write_track(d, "stadium"),
                "config": _scenario_config(d, size.collect_duration),
                "scenarios": size.collect_scenarios, "duration": size.collect_duration}

    def argv(self, inp, out, workers):
        return _global_args(inp, out, workers) + [
            "collect", "--track", inp["track"], "--scenarios", str(inp["scenarios"])]

    def expect(self, inp):
        return {"scenarios": _expected_scenarios(inp),
                "max_frames": int(round(inp["duration"] * rscn.FRAME_HZ))}

    def units(self, inp, exp):
        return exp["scenarios"]

    def check(self, out, inp, exp):
        errors = []
        manifest = json.loads((out / "dataset.json").read_text())
        counts = manifest["counts"]
        n = sum(counts.values())
        if n != exp["scenarios"]:
            errors.append(f"outcome counts sum to {n}, expected {exp['scenarios']} scenarios")
        if len(manifest["episodes"]) + len(manifest["excluded"]) != n:
            errors.append("dataset lists a different number of episodes than outcomes")
        if counts[rscn.Outcome.COLLISION] != len(manifest["excluded"]):
            errors.append("excluded episodes differ from the collision count")
        frames = 0
        for name in manifest["episodes"]:
            rec = rscn.load_episode(out / name)
            if rec.outcome == rscn.Outcome.COLLISION:
                errors.append(f"{name}: collision episode kept in the dataset")
            if not 0 < rec.n_frames <= exp["max_frames"]:
                errors.append(f"{name}: {rec.n_frames} frames")
            frames += rec.n_frames
        if frames != manifest["total_samples"]:
            errors.append(f"total_samples {manifest['total_samples']} != {frames} kept frames")
        return errors

    def digest(self, out):
        return _sha256([out / "dataset.json"] + sorted((out / "episodes").iterdir()), out)


class H2HNoise(Workload):
    name = "h2h-noise"
    unit = "episodes"

    def setup(self, d, seed, size):
        return {"seed": seed, "track": _write_track(d, "serpentine"),
                "checkpoint": _write_checkpoint(d),
                "config": _scenario_config(d, size.h2h_duration),
                "scenarios": size.h2h_scenarios}

    def argv(self, inp, out, workers):
        return _global_args(inp, out, workers) + [
            "eval", "h2h", "--eta", str(H2H_ETA), "--track", inp["track"],
            "--checkpoint", inp["checkpoint"], "--scenarios", str(inp["scenarios"])]

    def expect(self, inp):
        return {"scenarios": _expected_scenarios(inp)}

    def units(self, inp, exp):
        return exp["scenarios"]

    def check(self, out, inp, exp):
        errors = []
        report = json.loads((out / "report_h2h.json").read_text())
        total = report["car_following"] + report["overtaking"] + report["collision"]
        if total != exp["scenarios"] or report["n"] != total:
            errors.append(f"outcome counts sum to {total} (n={report['n']}), "
                          f"expected {exp['scenarios']} scenarios")
        if report["noise_eta"] != H2H_ETA:
            errors.append(f"report noise_eta {report['noise_eta']} != {H2H_ETA}")
        if len((out / "report_h2h.csv").read_text().splitlines()) != 2:
            errors.append("report_h2h.csv should hold a header and one row")
        return errors

    def digest(self, out):
        return _sha256([out / "report_h2h.json", out / "report_h2h.csv"], out)


class Train(Workload):
    name = "train"
    unit = "training frames"

    def setup(self, d, seed, size):
        """Seeded synthetic full-length episodes: the trainer's cost depends
        only on their shapes."""
        rng = rng_for(seed, "racebench:dataset")
        (d / "episodes").mkdir()
        files = []
        counts = {k: 0 for k in rscn.Outcome.ALL}
        t = size.train_frames
        for i in range(size.train_episodes):
            outcome = (rscn.Outcome.CAR_FOLLOWING, rscn.Outcome.OVERTAKING)[i % 2]
            actions = np.stack([rng.uniform(0.5, 7.0, t), rng.uniform(-0.4, 0.4, t)], axis=1)
            rec = rscn.EpisodeRecord(
                scenario_id=f"synthetic:{i:04d}", seed=i,
                scans=rng.uniform(0.2, 30.0, (t, rpol.PolicyConfig().n_beams)).astype(np.float32),
                ego_v=rng.uniform(0.0, 7.0, t).astype(np.float32),
                actions=actions.astype(np.float32), outcome=outcome,
                duration_actual=t / rscn.FRAME_HZ)
            name = f"episodes/ep_{i:04d}.bin"
            rscn.save_episode(rec, d / name)
            files.append(name)
            counts[outcome] += 1
        manifest = d / "dataset.json"
        rscn.write_manifest(manifest, files, [], counts, size.train_episodes * t)
        return {"seed": seed, "dataset": str(manifest), "epochs": size.epochs,
                "frames": size.train_episodes * t}

    def argv(self, inp, out, workers):
        return _global_args(inp, out, workers) + [
            "train", "--dataset", inp["dataset"], "--epochs", str(inp["epochs"])]

    def units(self, inp, exp):
        return inp["frames"] * inp["epochs"]

    def check(self, out, inp, exp):
        errors = []
        rows = (out / "loss_curve.csv").read_text().splitlines()
        if rows[0] != "epoch,mean_loss,lr" or len(rows) != inp["epochs"] + 1:
            errors.append(f"loss curve has {len(rows) - 1} rows, expected {inp['epochs']}")
        for row in rows[1:]:
            _, loss, lr = (float(x) for x in row.split(","))
            if not (math.isfinite(loss) and math.isfinite(lr) and loss >= 0.0 and lr > 0.0):
                errors.append(f"loss curve row out of range: {row}")
        params, cfg = rpol.load_checkpoint_file(out / "policy.ckpt")
        params.validate(cfg)
        return errors

    def digest(self, out):
        return _sha256([out / "loss_curve.csv", out / "policy.ckpt"], out)


class Latency(Workload):
    name = "latency"
    unit = "steps"
    _TIMINGS = ("median_ms", "p99_ms", "max_ms")

    def setup(self, d, seed, size):
        return {"seed": seed, "checkpoint": _write_checkpoint(d),
                "samples": size.samples}

    def argv(self, inp, out, workers):
        return _global_args(inp, out, workers) + [
            "eval", "latency", "--precision", "float32",
            "--checkpoint", inp["checkpoint"], "--samples", str(inp["samples"])]

    def units(self, inp, exp):
        return inp["samples"]

    def check(self, out, inp, exp):
        errors = []
        report = json.loads((out / "report_latency.json").read_text())
        cfg = rpol.PolicyConfig()
        if report["samples"] != inp["samples"]:
            errors.append(f"{report['samples']} latency samples, requested {inp['samples']}")
        if report["precision"] != "float32":
            errors.append(f"precision {report['precision']}")
        if (report["input_dim"], report["hidden_dim"]) != (cfg.input_dim, cfg.hidden_dim):
            errors.append("report dimensions differ from the checkpoint's")
        if not 0.0 < report["median_ms"] <= report["p99_ms"] <= report["max_ms"]:
            errors.append("latency percentiles out of order")
        return errors

    def digest(self, out):
        # the timings differ on every run; the rest of the report must not
        report = json.loads((out / "report_latency.json").read_text())
        stable = {k: v for k, v in report.items() if k not in self._TIMINGS}
        return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Collect(), H2HNoise(), Train(), Latency())}
