"""racebench: the racekit benchmark.

    python3 racebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It needs nothing but the sources under
src/ and numpy. One run makes the workload's inputs from the seed through
the kit's public API (set-up, repeated and timed). Then it runs the
workload's racekit command again and again until --seconds have passed,
each time in a fresh interpreter (racebench/measure.py) that drives it
in-process through `racekit.cli.main(argv)`: every command pays the same
cold start a user's does, and its peak memory is its own. Every command's
outputs are checked, and the run prints every metric with its unit, a
sha256 of the byte-stable outputs, and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. One command is one
operation. A failed check marks every operation of the run failed.

Because the benchmark drives the commands, and not the library loops, a
change that replaces the code behind `collect`, `eval` or `train` (batched
rollouts, one GRU kernel) is measured without editing the benchmark.

Workloads, and why each exists
------------------------------
collect
    `racekit collect --workers 2` over 8 scenarios on the 60 m stadium
    (480 waypoints): the expert ego races the expert leader. Here LiDAR
    (~54% of frame time), the expert lattice (~18%), the sim step and
    collision check (~16%) and progress tracking (~11%) do their work; the
    policy and the trainer sit idle. It is the only workload on the
    ProcessPoolExecutor path of `cli._rollout_many`. Two workers match the
    two cores this was sized on, and 8 scenarios fill both chunks of 4
    that the pool hands out. Its episodes last 4 simulated seconds, so
    that a run times several commands and reports their median. After
    the timed commands, one `--workers 1` command must give the same
    episode bytes.
h2h-noise
    `racekit eval h2h --eta 0.2 --workers 1` over 4 scenarios on the 60 m
    serpentine (600 waypoints, 1200 boundary segments). The ego is a
    random-init checkpoint. Every frame runs the float64
    `InferenceSession.step`, `apply_noise` and LiDAR, but never the ego
    lattice: the leader only tracks its raceline. It is the serial rollout
    path, and its curvier, denser segment set shows whether a LiDAR or
    collision change tuned on the stadium carries over to other tracks. A
    random policy makes the same calls per frame as a trained one, and
    its episodes mostly run their full 8 s; its outcome rates mean
    nothing, so they are not metrics.
train
    `racekit train --epochs 3` at the default policy (I=376, H=1504,
    batch 16) over 16 seeded synthetic episodes of 80 frames x 360 beams,
    written with `save_episode`/`write_manifest`. The trainer's cost
    depends only on shapes, and the episodes a collector keeps are full
    length, so synthetic data measures the same work; it also keeps
    `setup_s` from becoming a second `collect`. The simulator and the
    expert sit idle.
latency
    `racekit eval latency --precision float32 --samples 5000` on the
    same random-init checkpoint: the only workload on the float32 deploy
    path of `InferenceSession`. 5000 samples keep a command near 5 s, so
    that a run times several commands; the traced run's step p99 pools
    the samples of all its traced commands.

The seed draws the synthetic dataset (train) and is passed to every
command as --seed, which seeds the scenario records (collect), the
beam-dropout streams (h2h-noise), the shuffle, masks and initial weights
(train) and the random scans (latency). The spawn grid and the checkpoint
weights are the same for every seed: they decide which episodes end early
in a collision, and so how much work a run does.

End-to-end metrics (--trace 0, every workload)
----------------------------------------------
setup_s           median over the run's set-ups of making the inputs:
                  track generation, config, checkpoint or dataset. The
                  first set-up makes the inputs the commands read; after
                  each timed command the run sets up again, into a spare
                  directory, until that batch took 0.2 s, so the median
                  spans the whole run (as the throughput does) and not the
                  host's speed at one moment. A run sets up at least 5
                  times, and until the set-ups took 1 s together.
throughput_per_s  median over the run's commands of units of work per
                  second of command wall time (importing racekit.cli and
                  running main). The unit is an episode on
                  collect and h2h-noise (episodes/s), an active training
                  frame per epoch on train (training frames/s), and an
                  inference step on latency (steps/s, the checkpoint load
                  included).
peak_rss_mb       median over the run's commands of the command's peak
                  resident set: its interpreter's, plus, for pooled
                  commands, workers x the largest worker's.

Step latency percentiles exist only on `latency`, and every end-to-end
metric must exist on every workload, so p50/p99 per inference step are
per-layer metrics (`policy.InferenceSession.step.p50_ms` and `.p99_ms`).

Per-layer metrics (--trace 1)
-----------------------------
A traced run alternates an untraced and a traced command with the same
arguments, each in a fresh interpreter, always at --workers 1, because
spans recorded inside pool worker processes would be lost. Spans come from wrappers that
racebench/tracing.py puts around the layers' public functions; the
program itself is not changed. Names are `<module>.<function>.<stat>`
with stat `calls` and `self_ms` per traced command, and `p50_ms`/`p99_ms`
per call where a span has at least 20/1000 calls (0 otherwise). Counters:
`<fn>.bytes` (file sizes read or written), `scenario.spawn_kept_ratio`
(scenarios / spawn candidates), `expert.candidates_kept_ratio` (mean
`sample_lattice` length / (n_lateral x n_speed)), `expert.fallbacks`
(`sample_lattice` calls that raise NoFeasibleCandidate or
FarFromRaceline; each becomes a silent straight brake) and
`scenario.outcome.<Outcome>`. `<module>.self_ms` sums a module's self
time. `bench.trace_overhead_ms` is the traced minus the untraced wall
time of one command (median over the pairs). A metric a workload never
reaches reads 0.

Which end-to-end metric each layer should move, on which workload:

  simulator.scan_lidar, geom.ray_hits       throughput_per_s on collect, h2h-noise
  simulator.step, simulator.check_collision throughput_per_s on collect, h2h-noise
  scenario.ProgressTracker.update           throughput_per_s on collect, h2h-noise
  expert.expert_action.ego,
  expert.sample_lattice,
  expert.score_candidates                   throughput_per_s on collect only;
                                            h2h-noise should not move
  expert.expert_action.leader               throughput_per_s on collect, h2h-noise
  policy.InferenceSession.step              throughput_per_s on h2h-noise and
                                            latency; collect should not move
  evaluator.PolicySource.act,
  simulator.apply_noise                     throughput_per_s on h2h-noise only
  trainer.backward, trainer._forward_batch,
  trainer.adam_update                       throughput_per_s on train only
  scenario.save_episode,
  policy.save_checkpoint_file
  (.self_ms, .bytes)                        setup_s on train, h2h-noise, latency;
                                            throughput_per_s on collect
                                            (episodes) and train (checkpoint)
  scenario.load_episode,
  policy.load_checkpoint_file
  (.self_ms, .bytes)                        throughput_per_s on train (episodes),
                                            h2h-noise and latency (checkpoint)
  track.build_track, track.generate_raceline,
  geom.polyline_self_intersects             setup_s on collect and h2h-noise
                                            (O(N^2), ~0.36 s per stadium build),
                                            and throughput_per_s there too:
                                            each command loads its track

Files: every run writes .racebench/<workload>-seed<n>-trace<t>/ under the
repository root: environment.json (nproc, Python, numpy, BLAS and its
threads, whether numba imports, git commit, seed, and the time of a fixed
pure-Python loop, which shows how fast the host was), result.json (every
command, check and metric), command.log, commands/ (each command's argv
and result), and on traced runs one spans-<command>.json.gz per traced
command. The inputs and command outputs are deleted at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

WORK_DIR = ROOT / ".racebench"
RUN_LIMIT_S = 170.0   # the whole run, set-up included, must end within 180 s


def _declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares of this kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> int | None:
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _imports(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: this host's speed at the
    start of the run, for telling a slower program from a slower machine."""
    def loop():
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5))


def environment_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "numpy": np.__version__, "blas": _blas_name(), "blas_threads": _blas_threads(),
        "numba_imports": _imports("numba"), "git_commit": _git_commit(),
        "reference_loop_s": _reference_loop_s(),
    }


class _Runner:
    """Runs one workload's commands, each in a fresh interpreter
    (racebench.measure), and checks every command's outputs."""

    def __init__(self, wl, inp: dict, run_dir: Path, deadline: float,
                 between=lambda: None):
        self.wl, self.inp, self.run_dir, self.deadline = wl, inp, run_dir, deadline
        self.between = between   # called after each timed command
        self.exp = wl.expect(inp)
        self.ops: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def command(self, label: str, workers: int, trace: bool = False) -> dict:
        out = self.run_dir / "out" / label
        argv = self.wl.argv(self.inp, out, workers)
        files = self.run_dir / "commands"
        files.mkdir(exist_ok=True)
        argv_path, result_path = files / f"{label}.argv.json", files / f"{label}.result.json"
        argv_path.write_text(json.dumps(argv))
        cmd = [sys.executable, "-m", "racebench.measure", str(argv_path), str(result_path)]
        if trace:
            cmd.append(str(self.run_dir / f"spans-{label}.json.gz"))
        with open(self.run_dir / "command.log", "a") as log:
            log.write(f"$ racekit {' '.join(argv)}\n")
            log.flush()
            proc = subprocess.run(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(self.deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"measuring interpreter of {label} exited with code "
                               f"{proc.returncode}; see {self.run_dir / 'command.log'}")
        op = {"label": label, "workers": workers, "errors": [], "digest": None}
        op.update(json.loads(result_path.read_text()))
        if op["rc"] != 0:
            op["errors"].append(f"exit code {op['rc']}")
        else:
            try:
                op["errors"] += self.wl.check(out, self.inp, self.exp)
                op["digest"] = self.wl.digest(out)
            except Exception as exc:
                op["errors"].append(f"check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op

    def measure(self, seconds: float) -> dict:
        """Commands at the workload's --workers until `seconds` have passed."""
        wl = self.wl
        timed = []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < seconds:
            timed.append(self.command(f"run{len(timed)}", wl.workers))
            self.between()
        if wl.workers > 1:
            # the same scenarios serially: the episode bytes must not change
            self.command("workers1", 1)
        units = wl.units(self.inp, self.exp)
        return {
            "throughput_per_s": (statistics.median(units / op["wall_s"] for op in timed), "1/s"),
            "peak_rss_mb": (statistics.median(
                op["rss_mb"] + (wl.workers * op["worker_rss_mb"] if wl.workers > 1 else 0.0)
                for op in timed), "MB"),
        }

    def trace(self, seconds: float) -> dict:
        """Pairs of an untraced and a traced command, both at --workers 1,
        until `seconds` have passed."""
        from racebench.tracing import layer_metrics
        pairs = []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < seconds:
            n = len(pairs)
            pairs.append((self.command(f"untraced{n}", 1)["wall_s"],
                          self.command(f"traced{n}", 1, trace=True)["wall_s"]))
        metrics = layer_metrics(sorted(self.run_dir.glob("spans-*.json.gz")))
        metrics.update({
            "bench.trace_overhead_ms": (statistics.median(1e3 * (t - u) for u, t in pairs), "ms"),
            "bench.untraced_wall_ms": (statistics.median(1e3 * u for u, _ in pairs), "ms"),
            "bench.traced_wall_ms": (statistics.median(1e3 * t for _, t in pairs), "ms"),
        })
        return metrics


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, size=None,
        work: Path = WORK_DIR) -> dict:
    """Set up, measure, check; returns the run record with its `summary`,
    the object printed as the last line."""
    from racebench.workloads import FULL, WORKLOADS
    size = size or FULL
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[workload]
    run_dir = Path(work).resolve() / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment_record(workload, seed, seconds, trace)
    (run_dir / "environment.json").write_text(json.dumps(env, indent=2) + "\n")

    setup_times = []

    def set_up(d: Path) -> dict:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        t0 = time.perf_counter()
        inp = wl.setup(d, seed, size)
        setup_times.append(time.perf_counter() - t0)
        return inp

    def set_up_again(min_s: float) -> None:
        """Set up into the spare directory once, and again until this
        batch took min_s."""
        batch_start = len(setup_times)
        while sum(setup_times[batch_start:]) < min_s or len(setup_times) == batch_start:
            set_up(spare_dir)

    inputs_dir, spare_dir = run_dir / "inputs", run_dir / "setup-spare"
    inp = set_up(inputs_dir)
    try:
        runner = _Runner(wl, inp, run_dir, deadline, between=lambda: set_up_again(
            size.setup_min_s / size.setup_repeats))
        computed = runner.trace(seconds) if trace else runner.measure(seconds)
        while not trace and (len(setup_times) < size.setup_repeats
                             or sum(setup_times) < size.setup_min_s):
            set_up_again(0.0)
    finally:
        for d in (inputs_dir, spare_dir, run_dir / "out"):
            shutil.rmtree(d, ignore_errors=True)

    ops = runner.ops
    errors = [f"{op['label']}: {e}" for op in ops for e in op["errors"]]
    digests = {op["digest"] for op in ops if op["digest"] is not None}
    if len(digests) > 1:
        errors.append("outputs differ between commands: "
                      + ", ".join(f"{op['label']}={op['digest']}" for op in ops))
    if trace:
        declared = _declared("per_layer")
        metrics = {name: computed.get(name, (0.0, unit))[0] for name, unit in declared}
    else:
        computed["setup_s"] = (statistics.median(setup_times), "s")
        declared = _declared("end_to_end")
        metrics = {name: computed[name][0] for name, _ in declared}
    attempted = len(ops)
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    record = {"environment": env, "setup_s": setup_times, "inputs": inp, "ops": ops,
              "work_per_command": f"{wl.units(inp, runner.exp)} {wl.unit}", "errors": errors,
              "digest": sorted(digests), "all_metrics": computed, "summary": summary}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="racekit benchmark (see module docstring)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        from racebench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"racebench: cannot import the racekit sources under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"racebench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env, summary = record["environment"], record["summary"]
    print(f"racebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} commands, {summary['failed']} failed")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()
                                     if k not in ("workload", "seed", "seconds", "trace")))
    if args.trace:
        print("traced run: every command uses --workers 1, because spans recorded "
              "inside pool worker processes would be lost")
    for digest in record["digest"]:
        print(f"sha256 {args.workload} {digest}")
    for error in record["errors"]:
        print(f"CHECK FAILED {error}")
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
