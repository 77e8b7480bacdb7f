"""Command-line entry point.

Subcommands: track {gen, info}, collect, train, eval {single, h2h, noise,
latency}, render. One declarative INI config (--config) feeds every stage,
and every flag that sets a config value is a dotted override of it, from
one table:

    --seed        seed
    --workers     workers
    --scenarios   scenario.k_positions
    --epochs      trainer.epochs
    --track       paths.track
    --checkpoint  paths.checkpoint
    --ablation    lidar-only: policy.use_speed_input = false;
                  2x, 4x, 8x: policy.hidden_multiplier = 2, 4, 8

Every command reads its settings from the resolved config alone, so the
`config_hash` of the run manifest it writes under --out covers every one of
these flags. `eval single --render` writes the episode's trace as
single.trace.csv next to single.svg, and `render --trace` redraws such a
trace as an SVG. `collect` writes each episode as the pool yields it, then
dataset.json and manifest.json: one that fails mid-pool may leave episode
files, never those two, and it stops the pool's workers before the error
leaves the command. `train` writes policy.ckpt whenever an epoch's loss
is the lowest yet, then loss_curve.csv and manifest.json: one that fails
may leave the best-so-far policy.ckpt, never those two.

`[sim] n_beams` is the one beam count: `collect` scans at it, `train` sizes
the policy from the dataset's episode headers, and `eval single|h2h|noise`
scan at the checkpoint's. `eval latency` without a checkpoint file times a
random-init policy and says so in its manifest (`random_init`).

Exit codes: 0 ok, 2 track errors, 3 scenario errors, 4 training errors
(among them a missing, empty or unreadable dataset), 5 evaluation errors
(an unreadable or non-finite checkpoint, or a missing, empty or
malformed `render --trace` file), 6 config errors (an unreadable --config
file, an unknown key, or a value its field cannot hold, such as a float
that is not finite, or that its section rejects); argparse usage errors also exit 2, among them a count below 1
or a length, width or timeout that is not a finite positive number.

Each command imports only what it runs. Importing this module loads the
config's sections (and with them the track, simulator, expert, scenario,
policy and trainer modules), but not `evaluator`: `track gen`, `eval` and
`render` import it as they start, and `render_episode` imports
`xml.etree`. `numpy.random` loads on a command's first draw (`eval` and
`train` draw, `collect` and `track` do not), and `multiprocessing` only
when a scenario pool starts (`collect`, `eval h2h` and `eval noise`'s
head-to-head suite at `--workers` 2 or more).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from contextlib import closing
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import scenario as rscn
from . import simulator as rsim
from . import track as rtrack
from . import trainer as rtrain
from ._atomic import atomic_open
from .config import ConfigError, KitConfig, config_hash, load_config
from .policy import PolicyError, init_params, load_checkpoint_file
from .scenario import ExpertSource, Outcome, RaceEnvironment, ScenarioError
from .seeding import rng_for

EXIT_OK = 0
EXIT_TRACK = 2
EXIT_SCENARIO = 3
EXIT_TRAIN = 4
EXIT_EVAL = 5
EXIT_CONFIG = 6

# flag (argparse dest) -> the dotted config key it overrides
_SETTING_FLAGS = {"seed": "seed", "workers": "workers", "scenarios": "scenario.k_positions",
                  "epochs": "trainer.epochs", "track": "paths.track",
                  "checkpoint": "paths.checkpoint"}
# --ablation choice -> the policy overrides it stands for
_ABLATIONS = {"lidar-only": {"policy.use_speed_input": "false"},
              **{f"{k}x": {"policy.hidden_multiplier": str(k)} for k in (2, 4, 8)}}


def _overrides(args) -> dict[str, str]:
    """The dotted config overrides of the setting flags given."""
    overrides = {key: str(getattr(args, flag)) for flag, key in _SETTING_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    overrides.update(_ABLATIONS.get(getattr(args, "ablation", None), {}))
    return overrides


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _Outputs:
    """One command's output directory. Every output goes through `write`,
    which writes it atomically and records its name; `finish` writes the
    run manifest over the recorded names."""

    def __init__(self, out: str):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.started = _now()
        self.names: list[str] = []

    def write(self, name: str, data, *more: str):
        """Write output `name`: `data` is its text, or a writer of the
        target path (each kit writer goes through atomic_open), whose
        result is returned. `more` names the further files that writer puts
        under the directory."""
        for parent in {(self.dir / n).parent for n in (name, *more)}:
            parent.mkdir(parents=True, exist_ok=True)
        path, result = self.dir / name, None
        if callable(data):
            result = data(path)
        else:
            with atomic_open(path) as fh:
                fh.write(data)
        self.names += [name, *more]
        return result

    def finish(self, command: str, cfg: KitConfig, **facts) -> None:
        manifest = {
            **facts,
            "command": command,
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "tool_version": __version__,
            "started_at": self.started,
            "finished_at": _now(),
            "outputs": sorted(self.names),
        }
        with atomic_open(self.dir / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_track(cfg: KitConfig) -> rtrack.TrackModel:
    if not cfg.paths.track:
        raise rtrack.TrackError("no track file given (use --track or [paths] track)")
    return rtrack.load_track(cfg.paths.track)


# ---------------------------------------------------------------------------
# track


def cmd_track_gen(args, cfg: KitConfig) -> int:
    from . import evaluator as reval
    track = rtrack.make_track(args.shape, length=args.length, width=args.width)
    run = _Outputs(args.out)
    run.write(f"track_{args.shape}.csv", partial(rtrack.write_track_csv, track))
    run.write(f"track_{args.shape}_boundaries.csv", "boundary,x_m,y_m\n" + "".join(
        f"{name},{x!r},{y!r}\n"
        for name, poly in (("inner", track.inner_boundary), ("outer", track.outer_boundary))
        for x, y in poly))
    for rid in ("left", "center", "right"):
        rl = rtrack.generate_raceline(track, rid, cfg.raceline)
        run.write(f"raceline_{args.shape}_{rid}.csv", partial(rtrack.write_raceline_csv, rl))
    run.write(f"track_{args.shape}.svg", reval.render_episode(None, track))
    run.finish("track gen", cfg)
    print(f"{args.shape}: length {track.total_length:.2f} m, "
          f"{len(track.xy)} waypoints -> {run.dir}")
    return EXIT_OK


def cmd_track_info(args, cfg: KitConfig) -> int:
    track = _load_track(cfg)
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
    run = _Outputs(args.out)
    env = RaceEnvironment.build(_load_track(cfg), cfg.sim, cfg.expert, cfg.raceline)
    scenarios, skipped = rscn.enumerate_scenarios(cfg.scenario, env)
    names = [f"episodes/ep_{sc.id.replace(':', '_')}.bin" for sc in scenarios]
    with closing(rscn.rollout_many(scenarios, ExpertSource(), env, cfg.scenario.duration,
                                   cfg.workers)) as records:
        counts, samples = run.write("dataset.json", lambda path: rscn.save_dataset(
            path.parent, zip(names, records), skipped), *names)
    run.finish("collect", cfg)
    print(f"collected {len(scenarios)} episodes "
          f"({counts[Outcome.CAR_FOLLOWING]}/{counts[Outcome.OVERTAKING]}/"
          f"{counts[Outcome.COLLISION]} follow/overtake/collision, "
          f"{skipped} spawns skipped), {samples} training samples")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args, cfg: KitConfig) -> int:
    run = _Outputs(args.out)
    def progress(epoch, loss, lr):
        if epoch == 1 or epoch % 10 == 0:
            print(f"epoch {epoch:4d}  loss {loss:.6f}  lr {lr:.2e}", flush=True)
    try:
        # headers only: each batch reads its episodes' frames
        episodes = rscn.load_manifest_dataset(
            Path(args.dataset) if args.dataset else run.dir / "dataset.json")
        pol_cfg = replace(cfg.policy, n_beams=episodes[0].n_beams)
        curve = run.write("policy.ckpt", partial(rtrain.train, episodes, pol_cfg, cfg.trainer,
                                                 progress=progress))
    except ScenarioError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    run.write("loss_curve.csv", partial(rtrain.write_loss_curve_csv, curve))
    run.finish("train", cfg)
    print(f"best loss {min(r[1] for r in curve):.6f} -> {run.dir / 'policy.ckpt'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args, cfg: KitConfig) -> int:
    from . import evaluator as reval
    run = _Outputs(args.out)
    # latency depends only on the architecture; without a checkpoint a fresh init suffices
    random_init = args.suite == "latency" and not Path(cfg.paths.checkpoint).exists()
    # the float32 latency session never needs the float64 set
    dtype = np.float32 if args.suite == "latency" and args.precision == "float32" else np.float64
    try:
        if random_init:
            pol_cfg = cfg.policy
            params = init_params(pol_cfg, rng_for(cfg.seed, "latency-init"), dtype)
        else:
            params, pol_cfg = load_checkpoint_file(cfg.paths.checkpoint, dtype)
    except (OSError, PolicyError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return EXIT_EVAL
    if args.suite == "latency":
        report = reval.bench_latency(params, pol_cfg, n_samples=args.samples,
                                     precision=args.precision, seed=cfg.seed)
        run.write("report_latency.json", reval.report_json(report))
        print(f"latency: median {report.median_ms:.4f} ms, p99 {report.p99_ms:.4f} ms, "
              f"max {report.max_ms:.4f} ms over {report.samples} samples "
              f"({report.precision}, input {report.input_dim}, hidden {report.hidden_dim})")
        run.finish("eval latency", cfg, random_init=random_init)
        return EXIT_OK

    track = _load_track(cfg)
    env = RaceEnvironment.build(track, replace(cfg.sim, n_beams=pol_cfg.n_beams), cfg.expert,
                                cfg.raceline)
    if args.suite == "single":
        trace = rsim.Trace()
        report = reval.run_single_agent(
            params, pol_cfg, env, laps_target=args.laps, noise_eta=args.eta,
            seed=cfg.seed, timeout_s=args.timeout, observers=[trace] if args.render else ())
        run.write("report_single.json", reval.report_json(report))
        run.write("report_single.csv", partial(reval.write_single_csv, [("single", report)]))
        if args.render:
            run.write("single.trace.csv", partial(rsim.write_trace_csv, trace))
            run.write("single.svg", reval.render_episode(trace, track, sim_cfg=cfg.sim))
        print(f"single-agent: {report.laps_completed:.1f} laps, "
              f"mean speed {report.mean_speed:.2f} m/s"
              + (", collided" if report.collided else ""))
    elif args.suite == "h2h":
        scenarios, _ = rscn.enumerate_scenarios(cfg.scenario, env)
        report = reval.run_h2h(params, pol_cfg, scenarios, env, noise_eta=args.eta,
                               seed=cfg.seed, duration=cfg.scenario.duration,
                               workers=cfg.workers)
        run.write("report_h2h.json", reval.report_json(report))
        run.write("report_h2h.csv", partial(reval.write_h2h_csv, [("h2h", report)]))
        print(f"h2h over {report.n}: {report.car_following} follow / "
              f"{report.overtaking} overtake / {report.collision} collision "
              f"(overtake {report.overtake_rate:.1f}%, safety {report.safety_rate:.1f}%)")
    elif args.suite == "noise":
        scenarios = None
        if args.mode in ("h2h", "both"):
            scenarios, _ = rscn.enumerate_scenarios(cfg.scenario, env)
        report = reval.run_noise_sweep(params, pol_cfg, env, args.levels, seed=cfg.seed,
                                       mode=args.mode, scenarios=scenarios,
                                       laps_target=args.laps, timeout_s=args.timeout,
                                       duration=cfg.scenario.duration, workers=cfg.workers)
        run.write("report_noise.json", reval.report_json(report))
        if report.single:
            run.write("report_noise_single.csv", partial(
                reval.write_single_csv, [(f"{r.noise_eta:.0%} noise", r) for r in report.single]))
        if report.h2h:
            run.write("report_noise_h2h.csv", partial(
                reval.write_h2h_csv, [(f"{r.noise_eta:.0%} noise", r) for r in report.h2h]))
        for r in report.single:
            print(f"eta {r.noise_eta:.2f}: mean speed {r.mean_speed:.2f} m/s, "
                  f"laps {r.laps_completed:.1f}")
        for r in report.h2h:
            print(f"eta {r.noise_eta:.2f}: overtake {r.overtake_rate:.1f}%, "
                  f"safety {r.safety_rate:.1f}%")
    run.finish(f"eval {args.suite}", cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def cmd_render(args, cfg: KitConfig) -> int:
    from . import evaluator as reval
    try:
        trace = rsim.read_trace_csv(args.trace)
        if not trace.times:
            raise rsim.MalformedTrace(f"{args.trace}: no rows")
    except (OSError, rsim.MalformedTrace) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_EVAL
    run = _Outputs(args.out)
    track = _load_track(cfg)
    name = Path(args.trace).stem + ".svg"
    run.write(name, reval.render_episode(trace, track, outcome=args.outcome, sim_cfg=cfg.sim))
    run.finish("render", cfg)
    print(f"wrote {run.dir / name}")
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


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def _positive_float(text: str) -> float:
    """argparse type of a length or a duration: a finite float above 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"{text} is not a finite positive number")
    return x


def _noise_levels(text: str) -> list[float]:
    return [_noise_level(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="racekit",
                                description="head-to-head racing kit")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--seed", type=int, default=None, help="global seed override")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel episode rollouts (overrides [global] workers)")
    sub = p.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="track tooling")
    track_sub = p_track.add_subparsers(dest="track_cmd", required=True)
    p_gen = track_sub.add_parser("gen", help="generate a synthetic track")
    p_gen.set_defaults(run=cmd_track_gen)
    p_gen.add_argument("--shape", required=True,
                       choices=sorted(rtrack.TRACK_GENERATORS))
    p_gen.add_argument("--length", type=_positive_float, default=60.0)
    p_gen.add_argument("--width", type=_positive_float, default=3.0)
    p_info = track_sub.add_parser("info", help="validate and describe a track")
    p_info.set_defaults(run=cmd_track_info)
    p_info.add_argument("--track", default=None)

    p_collect = sub.add_parser("collect", help="expert demonstration collection")
    p_collect.set_defaults(run=cmd_collect)
    p_collect.add_argument("--track", default=None)
    p_collect.add_argument("--scenarios", type=_positive_int, default=None,
                           help="override scenario.k_positions")

    p_train = sub.add_parser("train", help="behavior cloning")
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--dataset", default=None, help="dataset manifest path")
    p_train.add_argument("--epochs", type=_positive_int, default=None)
    p_train.add_argument("--ablation", default=None, choices=list(_ABLATIONS))

    p_eval = sub.add_parser("eval", help="evaluation suites")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("suite", choices=["single", "h2h", "noise", "latency"])
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--track", default=None)
    p_eval.add_argument("--scenarios", type=_positive_int, default=None)
    p_eval.add_argument("--laps", type=_positive_int, default=10)
    p_eval.add_argument("--eta", type=_noise_level, default=0.0,
                        help="beam-dropout fraction in [0, 1]")
    p_eval.add_argument("--levels", type=_noise_levels, default="0.1,0.2,0.3",
                        help="comma-separated beam-dropout fractions in [0, 1]")
    p_eval.add_argument("--mode", default="single", choices=["single", "h2h", "both"])
    p_eval.add_argument("--samples", type=_positive_int, default=10000)
    p_eval.add_argument("--precision", default="float32",
                        choices=["float32", "float64"])
    p_eval.add_argument("--timeout", type=_positive_float, default=None)
    p_eval.add_argument("--render", action="store_true")

    p_render = sub.add_parser("render", help="trace CSV -> SVG")
    p_render.set_defaults(run=cmd_render)
    p_render.add_argument("--trace", required=True)
    p_render.add_argument("--track", default=None)
    p_render.add_argument("--outcome", default=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.run(args, cfg)
    except rtrack.TrackError as exc:
        print(f"track error: {exc}", file=sys.stderr)
        return EXIT_TRACK
    except rtrain.TrainerError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except PolicyError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
