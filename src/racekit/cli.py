"""Command-line entry point.

Subcommands: track {gen, info}, collect, train, eval {single, h2h, noise,
latency}, render. One declarative INI config (--config) feeds every stage;
flags override file values; every command honors --seed and writes its
outputs plus a run manifest under --out. `eval single --render` writes the
episode's trace as single.trace.csv next to single.svg, and `render
--trace` redraws such a trace as an SVG.

Exit codes: 0 ok, 2 track errors, 3 scenario errors, 4 training errors,
5 evaluation errors, 6 config errors (an unreadable or invalid --config
file or override); argparse usage errors also exit 2.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluator as reval
from . import scenario as rscn
from . import simulator as rsim
from . import track as rtrack
from . import trainer as rtrain
from ._atomic import atomic_open
from .config import ConfigError, KitConfig, config_hash, load_config
from .policy import PolicyError, init_params, load_checkpoint_file, save_checkpoint_file
from .scenario import (EmptyDataset, ExpertSource, NoValidSpawn, Outcome,
                       RaceEnvironment, ScenarioError)
from .seeding import rng_for

EXIT_OK = 0
EXIT_TRACK = 2
EXIT_SCENARIO = 3
EXIT_TRAIN = 4
EXIT_EVAL = 5
EXIT_CONFIG = 6


def _write_manifest(out_dir: Path, command: str, cfg: KitConfig, outputs: list[str],
                    started: str) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "tool_version": __version__,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    with atomic_open(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_track_arg(args, cfg: KitConfig) -> rtrack.TrackModel:
    path = args.track or cfg.paths.track
    if not path:
        raise rtrack.TrackError("no track file given (use --track or [paths] track)")
    return rtrack.load_track(path)


def _build_env(track, cfg: KitConfig) -> RaceEnvironment:
    return RaceEnvironment.build(track, cfg.sim, cfg.expert, cfg.raceline)


def _scenario_pool(args, cfg: KitConfig, env: RaceEnvironment):
    """The spawn-screened scenarios of the seeded scenario config
    (--scenarios overrides k_positions) and the number of spawns skipped."""
    scn_cfg = replace(cfg.scenario, seed=cfg.seed)
    if args.scenarios:
        scn_cfg = replace(scn_cfg, k_positions=args.scenarios)
    return rscn.enumerate_scenarios(scn_cfg, env)


# ---------------------------------------------------------------------------
# track


def cmd_track_gen(args, cfg: KitConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    track = rtrack.make_track(args.shape, length=args.length, width=args.width)
    outputs = []
    base = out / f"track_{args.shape}.csv"
    rtrack.write_track_csv(track, base)
    outputs.append(base.name)
    bounds = out / f"track_{args.shape}_boundaries.csv"
    with atomic_open(bounds) as fh:
        fh.write("boundary,x_m,y_m\n")
        for name, poly in (("inner", track.inner_boundary), ("outer", track.outer_boundary)):
            for x, y in poly:
                fh.write(f"{name},{x!r},{y!r}\n")
    outputs.append(bounds.name)
    for rid in ("left", "center", "right"):
        rl = rtrack.generate_raceline(track, rid, cfg.raceline)
        p = out / f"raceline_{args.shape}_{rid}.csv"
        rtrack.write_raceline_csv(rl, p)
        outputs.append(p.name)
    preview = out / f"track_{args.shape}.svg"
    with atomic_open(preview) as fh:
        fh.write(_track_preview_svg(track))
    outputs.append(preview.name)
    _write_manifest(out, "track gen", cfg, outputs, started)
    print(f"{args.shape}: length {track.total_length:.2f} m, "
          f"{len(track.xy)} waypoints -> {out}")
    return EXIT_OK


def _track_preview_svg(track) -> str:
    trace = rsim.Trace()
    # a single static frame renders boundaries only
    trace.times = [0.0]
    trace.states = [[]]
    trace.collided = [[]]
    return reval.render_episode(trace, track)


def cmd_track_info(args, cfg: KitConfig) -> int:
    track = _load_track_arg(args, cfg)
    print(f"waypoints:    {len(track.xy)}")
    print(f"total_length: {track.total_length:.6f} m")
    print(f"width range:  [{(track.w_left + track.w_right).min():.2f}, "
          f"{(track.w_left + track.w_right).max():.2f}] m")
    rl = rtrack.generate_raceline(track, 0.0, cfg.raceline)
    print(f"centerline curvature |k| max: {np.abs(rl.kappa).max():.4f} 1/m")
    print(f"v_ref range:  [{rl.v_ref.min():.2f}, {rl.v_ref.max():.2f}] m/s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# collect


def cmd_collect(args, cfg: KitConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    track = _load_track_arg(args, cfg)
    env = _build_env(track, cfg)
    scenarios, skipped = _scenario_pool(args, cfg, env)
    records = rscn.rollout_many(scenarios, ExpertSource(), env, cfg.scenario.duration,
                                cfg.workers)
    (out / "episodes").mkdir(exist_ok=True)
    outputs = [f"episodes/ep_{sc.id.replace(':', '_')}.bin" for sc in scenarios]
    dataset = rscn.save_dataset(out, list(zip(outputs, records)), skipped)
    counts, total = dataset.pool_counts, dataset.total_samples
    outputs.append("dataset.json")
    _write_manifest(out, "collect", cfg, outputs, started)
    print(f"collected {len(records)} episodes "
          f"({counts[Outcome.CAR_FOLLOWING]}/{counts[Outcome.OVERTAKING]}/"
          f"{counts[Outcome.COLLISION]} follow/overtake/collision, "
          f"{skipped} spawns skipped), {total} training samples")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args, cfg: KitConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    manifest = Path(args.dataset) if args.dataset else out / "dataset.json"
    if not manifest.exists():
        print(f"dataset manifest not found: {manifest}", file=sys.stderr)
        return EXIT_TRAIN
    dataset = rscn.load_manifest_dataset(manifest)
    pol_cfg = cfg.policy
    if args.ablation == "lidar-only":
        pol_cfg = replace(pol_cfg, use_speed_input=False)
    elif args.ablation in ("2x", "4x", "8x"):
        pol_cfg = replace(pol_cfg, hidden_multiplier=int(args.ablation[0]))
    trn_cfg = replace(cfg.trainer, seed=cfg.seed)
    if args.epochs:
        trn_cfg = replace(trn_cfg, epochs=args.epochs)
    def progress(epoch, loss, lr):
        if epoch == 1 or epoch % 10 == 0:
            print(f"epoch {epoch:4d}  loss {loss:.6f}  lr {lr:.2e}", flush=True)
    best, curve, state = rtrain.train(dataset, pol_cfg, trn_cfg, progress=progress)
    ckpt = out / (args.checkpoint_name or "policy.ckpt")
    save_checkpoint_file(best, pol_cfg, ckpt)
    curve_path = out / "loss_curve.csv"
    rtrain.write_loss_curve_csv(curve, curve_path)
    _write_manifest(out, "train", cfg, [ckpt.name, curve_path.name], started)
    print(f"best loss {min(r[1] for r in curve):.6f} -> {ckpt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_policy(args, cfg: KitConfig):
    path = args.checkpoint or cfg.paths.checkpoint
    if args.command == "eval" and args.suite == "latency" and not Path(path).exists():
        # latency depends only on the architecture; a fresh init suffices
        pol_cfg = cfg.policy
        return init_params(pol_cfg, rng_for(cfg.seed, "latency-init")), pol_cfg
    return load_checkpoint_file(path)


def cmd_eval(args, cfg: KitConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    try:
        params, pol_cfg = _load_policy(args, cfg)
    except (OSError, PolicyError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return EXIT_EVAL
    outputs = []
    if args.suite == "latency":
        report = reval.bench_latency(params, pol_cfg, n_samples=args.samples,
                                     precision=args.precision, seed=cfg.seed)
        with atomic_open(out / "report_latency.json") as fh:
            fh.write(reval.report_json(report))
        outputs.append("report_latency.json")
        print(f"latency: median {report.median_ms:.4f} ms, p99 {report.p99_ms:.4f} ms, "
              f"max {report.max_ms:.4f} ms over {report.samples} samples "
              f"({report.precision}, input {report.input_dim}, hidden {report.hidden_dim})")
        _write_manifest(out, f"eval {args.suite}", cfg, outputs, started)
        return EXIT_OK

    track = _load_track_arg(args, cfg)
    env = _build_env(track, cfg)
    if args.suite == "single":
        report, trace = reval.run_single_agent(
            params, pol_cfg, env, laps_target=args.laps, noise_eta=args.eta,
            seed=cfg.seed, timeout_s=args.timeout, record_trace=args.render)
        with atomic_open(out / "report_single.json") as fh:
            fh.write(reval.report_json(report))
        reval.write_single_csv([("single", report)], out / "report_single.csv")
        outputs += ["report_single.json", "report_single.csv"]
        if args.render and trace is not None:
            rsim.write_trace_csv(trace, out / "single.trace.csv")
            svg = reval.render_episode(trace, track, sim_cfg=cfg.sim)
            with atomic_open(out / "single.svg") as fh:
                fh.write(svg)
            outputs += ["single.trace.csv", "single.svg"]
        print(f"single-agent: {report.laps_completed:.1f} laps, "
              f"mean speed {report.mean_speed:.2f} m/s"
              + (", collided" if report.collided else ""))
    elif args.suite == "h2h":
        scenarios, _ = _scenario_pool(args, cfg, env)
        report, _ = reval.run_h2h(params, pol_cfg, scenarios, env, noise_eta=args.eta,
                                  seed=cfg.seed, duration=cfg.scenario.duration,
                                  workers=cfg.workers)
        with atomic_open(out / "report_h2h.json") as fh:
            fh.write(reval.report_json(report))
        reval.write_h2h_csv([("h2h", report)], out / "report_h2h.csv")
        outputs += ["report_h2h.json", "report_h2h.csv"]
        print(f"h2h over {report.n}: {report.car_following} follow / "
              f"{report.overtaking} overtake / {report.collision} collision "
              f"(overtake {report.overtake_rate:.1f}%, safety {report.safety_rate:.1f}%)")
    elif args.suite == "noise":
        scenarios = None
        if args.mode in ("h2h", "both"):
            scenarios, _ = _scenario_pool(args, cfg, env)
        report = reval.run_noise_sweep(params, pol_cfg, env, args.levels, seed=cfg.seed,
                                       mode=args.mode, scenarios=scenarios,
                                       laps_target=args.laps, timeout_s=args.timeout,
                                       duration=cfg.scenario.duration, workers=cfg.workers)
        with atomic_open(out / "report_noise.json") as fh:
            fh.write(reval.report_json(report))
        outputs.append("report_noise.json")
        if report.single:
            reval.write_single_csv(
                [(f"{r.noise_eta:.0%} noise", r) for r in report.single],
                out / "report_noise_single.csv")
            outputs.append("report_noise_single.csv")
        if report.h2h:
            reval.write_h2h_csv(
                [(f"{r.noise_eta:.0%} noise", r) for r in report.h2h],
                out / "report_noise_h2h.csv")
            outputs.append("report_noise_h2h.csv")
        for r in report.single:
            print(f"eta {r.noise_eta:.2f}: mean speed {r.mean_speed:.2f} m/s, "
                  f"laps {r.laps_completed:.1f}")
        for r in report.h2h:
            print(f"eta {r.noise_eta:.2f}: overtake {r.overtake_rate:.1f}%, "
                  f"safety {r.safety_rate:.1f}%")
    _write_manifest(out, f"eval {args.suite}", cfg, outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def cmd_render(args, cfg: KitConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    track = _load_track_arg(args, cfg)
    trace = rsim.read_trace_csv(args.trace)
    svg = reval.render_episode(trace, track, outcome=args.outcome, sim_cfg=cfg.sim)
    target = out / (Path(args.trace).stem + ".svg")
    with atomic_open(target) as fh:
        fh.write(svg)
    _write_manifest(out, "render", cfg, [target.name], started)
    print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _noise_level(text: str) -> float:
    """argparse type of a beam-dropout fraction: a float in [0, 1]."""
    try:
        eta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= eta <= 1.0:
        raise argparse.ArgumentTypeError(f"noise level {text} is outside [0, 1]")
    return eta


def _noise_levels(text: str) -> list[float]:
    return [_noise_level(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="racekit",
                                description="head-to-head racing kit")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--seed", type=int, default=None, help="global seed override")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel episode rollouts (default: env E2R_WORKERS, "
                        "then [global] workers)")
    sub = p.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="track tooling")
    track_sub = p_track.add_subparsers(dest="track_cmd", required=True)
    p_gen = track_sub.add_parser("gen", help="generate a synthetic track")
    p_gen.add_argument("--shape", required=True,
                       choices=sorted(rtrack.TRACK_GENERATORS))
    p_gen.add_argument("--length", type=float, default=60.0)
    p_gen.add_argument("--width", type=float, default=3.0)
    p_info = track_sub.add_parser("info", help="validate and describe a track")
    p_info.add_argument("--track", default=None)

    p_collect = sub.add_parser("collect", help="expert demonstration collection")
    p_collect.add_argument("--track", default=None)
    p_collect.add_argument("--scenarios", type=int, default=None,
                           help="override scenario.k_positions")

    p_train = sub.add_parser("train", help="behavior cloning")
    p_train.add_argument("--dataset", default=None, help="dataset manifest path")
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--ablation", default=None,
                         choices=["lidar-only", "2x", "4x", "8x"])
    p_train.add_argument("--checkpoint-name", default=None)

    p_eval = sub.add_parser("eval", help="evaluation suites")
    p_eval.add_argument("suite", choices=["single", "h2h", "noise", "latency"])
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--track", default=None)
    p_eval.add_argument("--scenarios", type=int, default=None)
    p_eval.add_argument("--laps", type=int, default=10)
    p_eval.add_argument("--eta", type=_noise_level, default=0.0,
                        help="beam-dropout fraction in [0, 1]")
    p_eval.add_argument("--levels", type=_noise_levels, default="0.1,0.2,0.3",
                        help="comma-separated beam-dropout fractions in [0, 1]")
    p_eval.add_argument("--mode", default="single", choices=["single", "h2h", "both"])
    p_eval.add_argument("--samples", type=int, default=10000)
    p_eval.add_argument("--precision", default="float32",
                        choices=["float32", "float64"])
    p_eval.add_argument("--timeout", type=float, default=None)
    p_eval.add_argument("--render", action="store_true")

    p_render = sub.add_parser("render", help="trace CSV -> SVG")
    p_render.add_argument("--trace", required=True)
    p_render.add_argument("--track", default=None)
    p_render.add_argument("--outcome", default=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    # --workers > E2R_WORKERS > [global] workers
    workers = args.workers if args.workers is not None else os.environ.get("E2R_WORKERS")
    if workers is not None:
        overrides["workers"] = str(workers)
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "track":
            if args.track_cmd == "gen":
                return cmd_track_gen(args, cfg)
            return cmd_track_info(args, cfg)
        if args.command == "collect":
            return cmd_collect(args, cfg)
        if args.command == "train":
            return cmd_train(args, cfg)
        if args.command == "eval":
            return cmd_eval(args, cfg)
        if args.command == "render":
            return cmd_render(args, cfg)
    except rtrack.TrackError as exc:
        print(f"track error: {exc}", file=sys.stderr)
        return EXIT_TRACK
    except (NoValidSpawn, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (EmptyDataset, rtrain.TrainerError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except PolicyError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
