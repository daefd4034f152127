"""lanetopo benchmark: per-scene CLI latency, batch throughput and fit speed.

Run from the repository root:

    python3 perfbench/run.py --workload grid-small-batch --seed 1 --seconds 5 --trace 0

The benchmark generates the workload's scenes from --seed, writes them under
.perfbench_run/, and drives the program only through its public entry
points: ``lanetopo.cli.main`` in-process for predict, eval and fitdemo, and
a fresh ``python -m lanetopo --version`` process for set-up time. It repeats
rounds (each scene through the per-file CLI, the corpus through the
directory form, fitdemo on the fit scenes) until --seconds have been spent,
at least one round. Every output is checked; see README.md for the checks,
the metrics and why each workload exists.

--trace 0 prints the end-to-end metrics. --trace 1 follows each traced
round with the same per-file commands untraced, and prints per-layer metrics
per traced round plus the tracing overhead (traced over untraced predict and
eval medians). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_MIN_SAMPLES = 20
SCORES = ("det_l", "det_t", "top_ll", "top_lt", "ols")
MAX_LISTED_FAILURES = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_thread_cap(nproc: int) -> int:
    """BLAS threads per worker so that default workers x BLAS threads <= nproc.

    The CLI's default worker count is min(8, cpu count).
    """
    return max(1, nproc // min(8, nproc))


class Bench:
    """One benchmark run over one workload corpus."""

    def __init__(self, workload, work: Path):
        import lanetopo.cli
        import lanetopo.serialize
        from workloads import PREDICT_NOISE

        self.cli = lanetopo.cli
        self.ser = lanetopo.serialize
        self.wl = workload
        self.noise = PREDICT_NOISE
        self.work = work
        self.tracer = None  # set while a traced round runs
        self.attempted = 0
        self.failures: list[str] = []
        self.names = [name for name, _ in workload.scenes]
        self.predicted: dict[str, bool] = {}  # scene or "<dir>" -> predicted this round
        # ms of successful per-file commands, untraced (False) and traced (True)
        self.predicts: dict[bool, list[float]] = {False: [], True: []}
        self.evals: dict[bool, list[float]] = {False: [], True: []}
        self.batch_predict_s = 0.0
        # untraced only: scenes/s of each directory predict + eval, and steps/s
        # of each fitdemo call
        self.batches: list[float] = []
        self.fits: list[float] = []
        self.reports: dict[str, dict] = {}  # per-file report entry per scene
        self.hashes: dict[str, str] = {}  # output file -> sha256 of its first write

    # -- operations --------------------------------------------------------

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # the run goes on; the operation counts as failed
            rc = f"raised {type(exc).__name__}: {exc}"
        return rc, err.getvalue().strip()

    def call(self, op: str, scene: str, argv):
        """Run one round's CLI command, as a root span when tracing;
        (problems, wall seconds)."""
        if self.tracer is None:
            return self._call_untraced(argv)
        return self.tracer.op(op, scene, self._call_untraced, argv)

    def _call_untraced(self, argv):
        t0 = time.perf_counter()
        rc, err = self._main(argv)
        dt = time.perf_counter() - t0
        return ([] if rc == 0 else [f"exit {rc}: {err[-300:]}"]), dt

    def finish(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def same_as_first(self, path: Path) -> list[str]:
        """Outputs must not change from round to round (tracing included)."""
        key = str(path.relative_to(self.work))
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            return [f"{key} does not read back: {exc}"]
        first = self.hashes.setdefault(key, digest)
        return [] if first == digest else [f"{key} differs from its first write"]

    def check_report(self, path: Path, n_scenes: int) -> tuple[list[str], dict]:
        try:
            doc = self.ser.read_json(path)
            scenes = doc["scenes"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"report does not read back: {exc}"], {}
        problems = []
        if len(scenes) != n_scenes:
            problems.append(f"report scores {len(scenes)} scenes, expected {n_scenes}")
        for name, entry in scenes.items():
            for key in SCORES:
                v = entry.get(key)
                if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                    problems.append(f"{name}.{key} = {v!r} is not a score in [0, 1]")
        return problems, scenes

    def check_prediction(self, path: Path) -> list[str]:
        try:
            self.ser.read_prediction(path)
        except (OSError, ValueError) as exc:
            return [f"prediction does not read back: {exc}"]
        return self.same_as_first(path)

    # -- set-up --------------------------------------------------------------

    def write_scenes(self, generate) -> None:
        for sub in ("scenes", "fit_scenes", "reference", "file", "fit"):
            (self.work / sub).mkdir()
        for sub, items in (("scenes", self.wl.scenes), ("fit_scenes", self.wl.fit_scenes),
                           ("reference", (self.wl.reference,))):
            for name, kw in items:
                scene = generate(name, kw)
                self.ser.write_json(self.work / sub / f"{name}.json",
                                    self.ser.scene_to_dict(scene))

    def control(self, lanetopo) -> None:
        """A zero-noise perturbation of the reference scene, written as a
        prediction and read back, must score 1.0 on all five metrics."""
        name = self.wl.reference[0]
        path = self.work / "reference" / "control.json"
        try:
            scene = self.ser.read_scene(self.work / "reference" / f"{name}.json")
            self.ser.write_json(path, self.ser.prediction_to_dict(
                lanetopo.perturb(scene, lanetopo.NoiseParams(), 0)))
            report = lanetopo.evaluate(self.ser.read_prediction(path), scene)
            problems = [f"{k} = {getattr(report, k)!r}, expected 1.0"
                        for k in SCORES if getattr(report, k) != 1.0]
        except Exception as exc:  # the run goes on; the control counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.finish(f"control on {name}", problems)

    def warm_up(self) -> None:
        """One untimed predict, eval and fitdemo on the reference scene, so
        that first-call costs inside the program are paid before timing."""
        name = self.wl.reference[0]
        out = self.work / "reference"
        scene = out / f"{name}.json"
        for argv in (["predict", "--scene", scene, "--out", out / "pred.json", *self.noise],
                     ["eval", "--pred", out / "pred.json", "--gt", scene,
                      "--out", out / "report.json"],
                     ["fitdemo", "--scene", scene, "--out", out / "losses.csv"]):
            problems, _ = self._call_untraced(argv)
            self.finish(f"warm-up {argv[0]}", problems)

    # -- one round -------------------------------------------------------------

    def run_round(self, full: bool = True) -> float:
        """One round: every corpus scene through the per-file CLI, the corpus
        through the directory form, fitdemo on each fit scene, and the
        workload's extra predicts of its first scene. Without `full`, only
        the per-file commands.

        The fitdemo calls and extra predicts are spread evenly between the
        other commands, so that on grid-large they sample the whole round
        rather than one moment of it.
        """
        main = [op for name, _ in self.wl.scenes
                for op in (lambda n=name: self.predict_file(n), lambda n=name: self.eval_file(n))]
        if not full:
            t0 = time.perf_counter()
            for op in main:
                op()
            return time.perf_counter() - t0
        main += [self.batch_predict, self.batch_eval] * self.wl.batch_runs
        fits = [lambda n=name: self.fitdemo(n) for name, _ in self.wl.fit_scenes]
        first = self.wl.scenes[0][0]
        repeats = [lambda: self.predict_file(first)] * self.wl.extra_predicts
        # each extra op at the middle of its share of the round
        extras = sorted([((k + 0.5) / len(ops), j, op) for j, ops in enumerate((fits, repeats))
                         for k, op in enumerate(ops)], key=lambda e: e[:2])
        schedule = [[op] for op in main]
        for position, _, op in extras:
            schedule[min(int(position * len(main)), len(main) - 1)].append(op)
        t0 = time.perf_counter()
        for ops in schedule:
            for op in ops:
                op()
        return time.perf_counter() - t0

    def predict_file(self, name: str) -> None:
        pred = self.work / "file" / f"{name}.json"
        problems, dt = self.call("op.predict", name,
                                 ["predict", "--scene", self.work / "scenes" / f"{name}.json",
                                  "--out", pred, *self.noise])
        problems = problems or self.check_prediction(pred)
        self.predicted[name] = self.finish(f"predict {name}", problems)
        if self.predicted[name]:
            self.predicts[self.tracer is not None].append(1e3 * dt)

    def eval_file(self, name: str) -> None:
        if not self.predicted[name]:
            return
        report = self.work / "file" / f"report-{name}.json"
        problems, dt = self.call("op.eval", name,
                                 ["eval", "--pred", self.work / "file" / f"{name}.json",
                                  "--gt", self.work / "scenes" / f"{name}.json", "--out", report])
        if not problems:
            problems, scenes = self.check_report(report, 1)
            problems += self.same_as_first(report)
            problems += self.same_as_first(report.with_suffix(".csv"))
            self.reports.update(scenes)
        if self.finish(f"eval {name}", problems):
            self.evals[self.tracer is not None].append(1e3 * dt)

    def batch_predict(self) -> None:
        """The directory form, at the CLI's default worker count."""
        problems, self.batch_predict_s = self.call(
            "op.batch_predict", "batch", ["predict", "--scene", self.work / "scenes",
                                          "--out", self.work / "batch" / "pred", *self.noise])
        if not problems:
            for name in self.names:
                problems += self.check_prediction(self.work / "batch" / "pred" / f"{name}.json")
                if self.hashes.get(f"batch/pred/{name}.json") != self.hashes.get(f"file/{name}.json"):
                    problems.append(f"{name}: directory prediction differs from the per-file one")
        self.predicted["<dir>"] = self.finish("predict <dir>", problems)

    def batch_eval(self) -> None:
        if not self.predicted["<dir>"]:
            return
        report = self.work / "batch" / "report.json"
        problems, dt = self.call("op.batch_eval", "batch",
                                 ["eval", "--pred", self.work / "batch" / "pred",
                                  "--gt", self.work / "scenes", "--out", report])
        if not problems:
            # an eval that scores fewer scenes than the corpus must not read as faster
            problems, scenes = self.check_report(report, len(self.names))
            problems += [f"{name}: directory report differs from the per-file one"
                         for name in self.names if scenes.get(name) != self.reports.get(name)]
            problems += self.same_as_first(report)
            problems += self.same_as_first(report.with_suffix(".csv"))
        if self.finish("eval <dir>", problems) and self.tracer is None:
            self.batches.append(len(self.names) / (self.batch_predict_s + dt))

    def fitdemo(self, name: str) -> None:
        losses = self.work / "fit" / f"{name}.csv"
        problems, dt = self.call("op.fitdemo", name,
                                 ["fitdemo", "--scene", self.work / "fit_scenes" / f"{name}.json",
                                  "--out", losses])
        steps = 0
        if not problems:
            try:
                steps = len(losses.read_text(encoding="utf-8").splitlines()) - 1
            except OSError as exc:
                problems.append(f"loss trajectory does not read back: {exc}")
            problems += self.same_as_first(losses)
        if self.finish(f"fitdemo {name}", problems) and self.tracer is None:
            self.fits.append(steps / dt)

    def digest(self) -> str:
        """sha256 over every prediction, report and loss file (manifests excluded)."""
        h = hashlib.sha256()
        for key in sorted(self.hashes):
            h.update(f"{key}\0{self.hashes[key]}\n".encode())
        return h.hexdigest()


# -- measurements outside the rounds --------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(bench: Bench) -> list[float]:
    """Wall seconds of fresh `python -m lanetopo --version` processes."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "lanetopo", "--version"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        problems = [] if proc.returncode == 0 and proc.stdout.strip() else \
            [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        if bench.finish(f"set-up process {k}", problems):
            times.append(dt)
    return times


# module groups for the import-time breakdown; the longest matching prefix wins
IMPORT_GROUPS = ("scipy.special", "scipy.optimize", "scipy", "numpy", "lanetopo")


def import_self_times() -> dict[str, float]:
    """Per-group import self time (s) from `python -X importtime`, median of
    SETUP_REPEATS fresh processes."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lanetopo"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        groups = dict.fromkeys(IMPORT_GROUPS + ("total",), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            module = parts[2].strip()
            groups["total"] += self_us / 1e6
            for g in IMPORT_GROUPS:
                if module == g or module.startswith(g + "."):
                    groups[g] += self_us / 1e6
                    break
        runs.append(groups)
    return {g: statistics.median(r[g] for r in runs) for g in runs[0]}


def blas_record(cap: int) -> dict:
    """The BLAS library numpy and scipy link, and the threads it will use."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    rec = {"cap_per_worker": cap, "cap_vars": {v: os.environ[v] for v in BLAS_VARS}}
    for pkg in (numpy, scipy):
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            rec[f"{pkg.__name__}_blas"] = {k: blas.get(k) for k in
                                          ("name", "version", "openblas configuration")}
        except (KeyError, TypeError, AttributeError):
            rec[f"{pkg.__name__}_blas"] = "unknown"
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib_path).name] = fn()
                break
    rec["threads"] = threads
    return rec


def tail(samples: list[float]):
    """Highest whole percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(samples)[rank - 1], n - rank


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lanetopo" / "__init__.py").is_file():
        print(f"error: no lanetopo sources at {SRC.relative_to(ROOT)}/lanetopo; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    cap = blas_thread_cap(nproc)
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = str(cap)
    sys.path.insert(0, str(SRC))

    import lanetopo
    import numpy
    import scipy
    import workloads

    if not Path(lanetopo.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lanetopo from {lanetopo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        wl = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, work)
    workers = getattr(bench.cli.build_parser().parse_args(
        ["predict", "--scene", "s", "--out", "o"]), "workers", 1)
    machine = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "default_workers": workers,
        "blas": blas_record(cap),
    }
    print("machine: " + json.dumps(machine, sort_keys=True))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    def generate(name, kw):
        def call():
            return lanetopo.synth.generate_scene(lanetopo.SynthParams(**kw))

        return tracer.op("op.generate", name, call) if tracer else call()

    with traced(tracer):
        bench.write_scenes(generate)
    setup = setup_times(bench)
    bench.control(lanetopo)
    bench.warm_up()
    rounds, spent = 0, 0.0
    while True:
        if tracer:
            # each traced round is followed by the same per-file commands
            # untraced, the reference for the tracing overhead
            with traced(tracer):
                bench.tracer = tracer
                spent += bench.run_round()
            bench.tracer = None
            spent += bench.run_round(full=False)
        else:
            spent += bench.run_round()
        rounds += 1
        if spent >= args.seconds:
            break

    print(f"workload: {wl.name} seed={args.seed} scenes={len(wl.scenes)} "
          f"fit_scenes={len(wl.fit_scenes)} rounds={rounds} trace={args.trace}")
    if not tracer:
        metrics = end_to_end(bench, setup, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    n_failed = len(bench.failures)
    print(f"failed_frac = {n_failed / bench.attempted:.6g} ratio "
          f"({n_failed} of {bench.attempted} operations)")
    for line in bench.failures[:MAX_LISTED_FAILURES]:
        print(f"failure: {line}")
    print(f"digest {wl.name} seed={args.seed}: {bench.digest()}")
    wanted = spec["end_to_end"]

    if tracer:
        p50 = {t: median_or_zero(bench.predicts[t]) + median_or_zero(bench.evals[t])
               for t in (False, True)}
        metrics = layer_metrics(tracer, rounds, p50[True] / p50[False] - 1.0, workers)
        trace_file = WORK / f"trace-{wl.name}.npz"
        tracer.write(trace_file)
        print(f"tracing overhead = {metrics['trace.overhead_frac']:.4g} ratio (predict p50 + "
              f"eval p50: untraced {p50[False]:.6g} ms, traced {p50[True]:.6g} ms)")
        print(f"absent wrap targets: {', '.join(tracer.absent) or 'none'}")
        if tracer.counter_errors:
            print(f"counter hooks that failed: {tracer.counter_errors}")
        print(f"spans: {len(tracer.arrays()['id'])} written to {trace_file.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    result = {
        "correct": n_failed == 0,
        "attempted": bench.attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


@contextlib.contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the block, when there is a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def end_to_end(bench: Bench, setup: list[float], units: dict) -> dict[str, float]:
    """The end-to-end metrics, printed with unit and sample count, and the tails."""
    ols = [entry["ols"] for entry in bench.reports.values()]
    predicts, evals = bench.predicts[False], bench.evals[False]
    e2e = {
        "predict_ms_p50": median_or_zero(predicts),
        "eval_ms_p50": median_or_zero(evals),
        "batch_scenes_per_s": median_or_zero(bench.batches),
        "fit_steps_per_s": median_or_zero(bench.fits),
        "setup_s": median_or_zero(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ols_mean": statistics.fmean(ols) if ols else 0.0,
    }
    counts = {"predict_ms_p50": len(predicts), "eval_ms_p50": len(evals),
              "batch_scenes_per_s": len(bench.batches), "fit_steps_per_s": len(bench.fits),
              "setup_s": len(setup), "ols_mean": len(ols)}
    for name, value in e2e.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} = {value:.6g} {units[name]}{n}")
    for name, samples in (("predict_ms_tail", predicts), ("eval_ms_tail", evals)):
        t = tail(samples)
        if t is None:
            print(f"{name}: omitted, {len(samples)} samples < {TAIL_MIN_SAMPLES}")
        else:
            print(f"{name} = p{t[0]} {t[1]:.6g} ms (n={len(samples)}, {t[2]} beyond)")
    return e2e


def layer_metrics(tracer, rounds: int, overhead: float, workers: int) -> dict[str, float]:
    """Per-layer metrics per round; corpus generation happens once per run."""
    summary = tracer.summary()
    out = {}
    for name, stats in summary.items():
        if name.startswith("op."):
            continue
        per = 1 if name == "synth.generate" else rounds
        for key, value in stats.items():
            out[f"{name}.{key}"] = value / per
    c = tracer.counters
    frechet = summary["geometry.discrete_frechet"]["calls"]
    avg_l1 = summary["geometry.avg_l1"]["calls"]
    out["geometry.frechet_calls_per_pair"] = frechet / c["eval_pairs"] if c["eval_pairs"] else 0.0
    out["metrics.frechet_useful_ratio"] = c["frechet_useful"] / frechet if frechet else 0.0
    out["connect.half_pairs"] = c["half_pairs"] / rounds
    out["heads.half_distance_calls_per_pair"] = avg_l1 / c["half_pairs"] if c["half_pairs"] else 0.0
    out["attention.mask_entries"] = c["mask_entries"] / rounds
    out["serialize.bytes_written"] = c["bytes_written"] / rounds
    busy, wall = tracer.pool_busy_s()
    out["cli.pool_busy_frac"] = busy / (wall * workers) if wall else 0.0
    out["trace.overhead_frac"] = overhead
    for group, seconds in import_self_times().items():
        out[f"setup.import_s.{group.replace('.', '_')}"] = seconds
    return out


if __name__ == "__main__":
    sys.exit(main())
