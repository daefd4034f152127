"""Command-line harness.

Subcommands: synth, connected, predict, eval, gradcheck, fitdemo. Every
file-writing command also writes a <output>.manifest.json recording the
command, parameters, seeds, and input/output hashes, so runs can be
reproduced and compared byte for byte (manifest equality ignores wall time).

Exit codes: 0 success, 1 check failure (gradcheck exceedance, fitdemo miss),
2 input or contract error (schema violations are printed one per line; a
nonzero noise flag under predict --source gt, which would change nothing).
predict prints one stderr warning per scene whose lanes, connections or
traffic elements its query budgets cut, and one per run when --score-noise
or --topo-flip-rate is nonzero (they change nothing, so its manifest omits
them); the exit code and outputs stay as they are. Every numeric flag, and
gradcheck's --corrupt, is checked at parse time; an output path naming an
input or another output exits 2 unwritten. Directory runs read their
files in sorted order, in groups of about GROUP_LANES lanes, so memory does
not grow with the directory. A directory predict draws the model
parameters once per point count and runs the model once per group of
scenes of one shape (pipeline.predict_batch); a directory eval scores each
group at once (metrics.evaluate_group). Either way every output is byte
for byte what the per-file command writes, and the wrote, warning and
error lines come in sorted file order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import geometry, gradcheck, metrics, pipeline, synth, training
from .attention import ModelDims
from .connect import build_connected_gt
from .metrics import (
    DET_L_THRESHOLDS,
    DET_T_IOU,
    TOP_FRECHET,
    TOP_IOU,
    LaneSegmentReport,
    MetricReport,
    ScoringError,
    evaluate,
    evaluate_group,
    valid_distances,
)
from .pipeline import PipelineConfig, run_pipeline
from .scene import Prediction, checked, field_check
from .serialize import (
    TOOL_VERSION,
    SchemaError,
    build_manifest,
    connected_list_to_dict,
    manifest_path_for,
    metrics_csv,
    prediction_to_dict,
    read_prediction,
    read_scene,
    report_to_dict,
    scene_to_dict,
    write_json,
    write_manifest,
    write_text,
)
from .synth import NoiseParams, SynthParams, generate_roundabout, generate_scene
from .training import FitDiverged, toy_fit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

# lanes a directory run reads before it scores them as one group (predict:
# the lanes the model reads; eval: predicted and ground-truth lanes): enough
# to share each kernel call among dozens of small scenes, few enough that
# memory does not grow with the directory
GROUP_LANES = 256


def _data_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.glob("*.json")
                  if not p.name.endswith(".manifest.json"))


def _print_error(err: Exception, scene: str = "") -> None:
    """One stderr line per problem; scene names the file in directory runs."""
    if isinstance(err, SchemaError):
        lines = err.violations
    elif isinstance(err, json.JSONDecodeError):
        lines = [f"invalid JSON: {err}"]
    else:
        lines = [str(err)]
    for line in lines:
        print(f"error: {scene}{line}", file=sys.stderr)


def _file_identity(path: Path):
    """(device, inode) of an existing file, else its absolute path, which a
    missing input or a new output keeps for the error of its own read or
    write. 2 us, where Path.resolve takes 18-40 us (2 vCPU, Python 3.11)."""
    try:
        st = path.stat()
        return st.st_dev, st.st_ino
    except FileNotFoundError:
        return os.path.abspath(path)


def _check_distinct(inputs, outputs) -> None:
    """Refuse, before anything is written, an output path that names an
    input file or another output path; the manifest of the first output is
    an output too."""
    seen = {_file_identity(Path(p)): f"input {p}" for p in inputs}
    for p in [*outputs, manifest_path_for(outputs[0])]:
        key = _file_identity(Path(p))
        if key in seen:
            raise ValueError(f"output {p} would overwrite {seen[key]}")
        seen[key] = f"output {p}"


# the synth flag (argparse dest) that sets each SynthParams field
SYNTH_FLAGS = {"seed": "seed", "n_points": "n_points", "n_corridors": "corridors",
               "n_segments": "segments", "segment_length": "segment_length",
               "lane_spacing": "spacing", "split_prob": "split_prob",
               "merge_prob": "merge_prob", "n_traffic": "traffic", "grade": "grade"}


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    if args.kind == "grid":
        params = SynthParams(**{name: getattr(args, dest) for name, dest in SYNTH_FLAGS.items()})
        scene = generate_scene(params)
        manifest_params = asdict(params)
    else:
        scene = generate_roundabout(radius=args.radius, n_arms=args.arms,
                                    n_points=args.n_points, seed=args.seed)
        manifest_params = {"kind": "roundabout", "radius": args.radius,
                           "n_arms": args.arms, "n_points": args.n_points}
    write_json(args.out, scene_to_dict(scene))
    write_manifest(args.out, build_manifest(
        "synth", manifest_params, {"seed": args.seed}, [], [args.out],
        time.perf_counter() - t0))
    print(f"wrote {args.out}: {len(scene.lanes)} lanes, "
          f"{len(scene.traffic)} traffic elements, "
          f"{int(scene.topo.ll.sum())} lane-lane edges")
    return EXIT_OK


def cmd_connected(args) -> int:
    t0 = time.perf_counter()
    _check_distinct([args.scene], [args.out])
    scene = read_scene(args.scene)
    conn = build_connected_gt(scene)
    write_json(args.out, connected_list_to_dict(conn))
    write_manifest(args.out, build_manifest(
        "connected", {}, {}, [args.scene], [args.out],
        time.perf_counter() - t0))
    print(f"wrote {args.out}: {len(conn)} connected lanes")
    return EXIT_OK


# predict flags that only --source perturbed reads
NOISE_FLAGS = ("point_sigma", "drop_rate", "spurious_rate", "score_noise",
               "topo_flip_rate", "noise_seed")
# noise flags that degraded scores and topology the pipeline replaces with
# its own: nothing draws them, so they change nothing
SCORE_NOISE_FLAGS = ("score_noise", "topo_flip_rate")


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        dims=ModelDims(c=args.channels, n_heads=args.heads),
        n_lane_queries=args.lane_queries,
        n_traffic_queries=args.traffic_queries,
        param_seed=args.param_seed,
        source=args.source,
        noise=NoiseParams(
            point_sigma=args.point_sigma, drop_rate=args.drop_rate,
            spurious_rate=args.spurious_rate,
        ),
        noise_seed=args.noise_seed,
        use_tam=not args.no_tam,
    )


def _predict_one(scene_path: Path, out_path: Path, cfg: PipelineConfig,
                 manifest_params: dict) -> str:
    t0 = time.perf_counter()
    scene = read_scene(scene_path)
    pred = run_pipeline(scene, cfg, warn=lambda msg: print(
        f"warning: {scene_path.name}: {msg}", file=sys.stderr))
    return _write_prediction(pred, scene_path, out_path, cfg, manifest_params,
                             time.perf_counter() - t0)


def _write_prediction(pred, scene_path: Path, out_path: Path, cfg: PipelineConfig,
                      manifest_params: dict, seconds: float) -> str:
    t0 = time.perf_counter()
    write_json(out_path, prediction_to_dict(pred))
    write_manifest(out_path, build_manifest(
        "predict", manifest_params,
        {"param_seed": cfg.param_seed, "noise_seed": cfg.noise_seed},
        [scene_path], [out_path], seconds + time.perf_counter() - t0))
    return f"wrote {out_path}: {len(pred.lanes)} lanes"


@dataclass
class _Job:
    """One scene of a directory predict: its model inputs or the error that
    stopped it, and the warnings the per-file command prints for it."""

    scene_path: Path
    inputs: pipeline.SceneInputs | None = None
    pred: Prediction | None = None
    error: Exception | None = None
    warnings: list[str] = field(default_factory=list)
    seconds: float = 0.0


def _prepare(scene_path: Path, cfg: PipelineConfig, params: dict) -> _Job:
    """A job holding the scene's model inputs, its parameters drawn into
    params[n_points] on first use, or the error that stopped it."""
    job = _Job(scene_path)
    t0 = time.perf_counter()
    try:
        scene = read_scene(scene_path)
        if scene.n_points not in params:
            params[scene.n_points] = pipeline.init_pipeline_params(cfg, scene.n_points)
        job.inputs = pipeline.scene_inputs(scene, cfg, warn=job.warnings.append)
    except (OSError, ValueError) as err:
        job.error = err
    job.seconds = time.perf_counter() - t0
    return job


def _predict_chunk(jobs: list, out_dir: Path, cfg: PipelineConfig, manifest_params: dict,
                   params: dict) -> bool:
    """Predict the prepared jobs, one forward per group of one shape, and
    write them in order, each with its warnings, its wrote line or its
    errors, as the per-file command prints them; False if any failed."""
    groups: dict[tuple, list] = {}
    for job in jobs:
        if job.error is None:
            groups.setdefault(job.inputs.shape, []).append(job)
    for (n_points, *_), group in groups.items():
        t0 = time.perf_counter()
        try:
            preds = pipeline.predict_batch(params[n_points], [j.inputs for j in group], cfg)
        except ValueError as err:
            # every error of the forward depends on the shape alone, so
            # each scene of the group raises it in the per-file command too
            preds = [None] * len(group)
            for job in group:
                job.error = err
        for job, pred in zip(group, preds):
            job.pred = pred
            job.seconds += (time.perf_counter() - t0) / len(group)
    ok = True
    for job in jobs:
        out_path = out_dir / job.scene_path.name
        for msg in job.warnings:
            print(f"warning: {job.scene_path.name}: {msg}", file=sys.stderr)
        if job.error is None:
            try:
                print(_write_prediction(job.pred, job.scene_path, out_path, cfg,
                                        manifest_params, job.seconds))
                continue
            except (OSError, ValueError) as err:
                job.error = err
        # a bad scene is reported and skipped; the others still get output
        _print_error(job.error, f"{job.scene_path.name}: ")
        ok = False
        # an earlier run's output must not be scored as this scene's
        for stale in (out_path, manifest_path_for(out_path)):
            stale.unlink(missing_ok=True)
    return ok


def cmd_predict(args) -> int:
    if args.source == "gt":
        # a flag the run cannot read must not be recorded as if it had acted
        inert = [_flag(name) for name in NOISE_FLAGS if getattr(args, name)]
        if inert:
            raise ValueError(f"{', '.join(inert)} change nothing under --source gt; "
                             "use --source perturbed")
    cfg = _pipeline_config(args)
    inert = [_flag(name) for name in SCORE_NOISE_FLAGS if getattr(args, name)]
    if inert:
        # recorded nowhere: the manifest lists only parameters that act
        print(f"warning: {', '.join(inert)} change nothing: predict keeps only the "
              "perturbed lanes and scores them with the pipeline", file=sys.stderr)
    manifest_params = {
        "channels": args.channels, "heads": args.heads,
        "lane_queries": args.lane_queries, "traffic_queries": args.traffic_queries,
        "source": args.source, "use_tam": not args.no_tam,
        "point_sigma": args.point_sigma, "drop_rate": args.drop_rate,
        "spurious_rate": args.spurious_rate,
    }
    scene_path = Path(args.scene)
    out_path = Path(args.out)
    if scene_path.is_dir():
        files = _data_files(scene_path)
        if not files:
            raise ValueError(f"no scene files in {scene_path}")
        if out_path.resolve() == scene_path.resolve():
            # outputs would replace the scenes, and a failed scene's file be removed
            raise ValueError(f"output directory {out_path} is the scene directory")
        out_path.mkdir(parents=True, exist_ok=True)
        ok, params, chunk, n_lanes = True, {}, [], 0
        for k, f in enumerate(files):
            job = _prepare(f, cfg, params)
            chunk.append(job)
            n_lanes += 0 if job.inputs is None else len(job.inputs.L)
            if n_lanes >= GROUP_LANES or k == len(files) - 1:
                ok &= _predict_chunk(chunk, out_path, cfg, manifest_params, params)
                chunk, n_lanes = [], 0
        return EXIT_OK if ok else EXIT_INPUT_ERROR
    _check_distinct([scene_path], [out_path])
    print(_predict_one(scene_path, out_path, cfg, manifest_params))
    return EXIT_OK


def _read_or_report(read, path: Path):
    """read(path), or None after printing its errors prefixed with the path."""
    try:
        return read(path)
    except (OSError, ValueError) as err:
        _print_error(err, f"{path}: ")
        return None


def _score_group(group: list, args, rows: list) -> bool:
    """Append (name, report) for each (pred path, gt path, pred, scene) of
    group to rows, scored as one group; False, with rows as they were,
    after printing the error of the first pair that cannot be scored,
    prefixed with the file it is in."""
    pairs = [(pred, scene) for _, _, pred, scene in group]
    thresholds = dict(det_l_thresholds=args.det_thresholds, det_t_iou=args.det_iou,
                      top_frechet=args.top_frechet, top_iou=args.top_iou,
                      lane_width=args.lane_width)
    try:
        # a group of one is evaluate's own call (perfbench's tracer times cli.evaluate)
        reports = evaluate_group(pairs, **thresholds) if len(pairs) > 1 \
            else [evaluate(*pairs[0], **thresholds)]
    except ScoringError as err:
        _print_error(err, f"{group[err.item][err.side]}: ")
        return False
    rows += [(pf.stem, report) for (pf, *_), report in zip(group, reports)]
    return True


def _mean_report(reports: list, cls=MetricReport):
    """Field-wise mean over the reports where each field is present (not None)."""
    mean = {}
    for f in dataclass_fields(cls):
        present = [v for v in (getattr(r, f.name) for r in reports) if v is not None]
        if not present:
            mean[f.name] = None
        elif f.name == "lane_segments":
            mean[f.name] = _mean_report(present, LaneSegmentReport)
        else:
            mean[f.name] = float(np.mean(present))
    return cls(**mean)


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)
    if pred_path.is_dir() != gt_path.is_dir():
        raise ValueError("pred and gt must both be files or both be directories")

    if pred_path.is_dir():
        pred_files = _data_files(pred_path)
        if not pred_files:
            raise ValueError(f"no prediction files in {pred_path}")
        preds = {f.name for f in pred_files}
        gts = {f.name for f in _data_files(gt_path)}
        # every scene on either side must be scored; none is dropped silently
        for missing, kind, where in ((preds - gts, "ground-truth", gt_path),
                                     (gts - preds, "prediction", pred_path)):
            if missing:
                raise ValueError(f"no {kind} file for {', '.join(sorted(missing))} in {where}")
        jobs = [(f, gt_path / f.name) for f in pred_files]
    else:
        jobs = [(pred_path, gt_path)]
    out_json = Path(args.out)
    out_csv = Path(args.csv) if args.csv else out_json.with_suffix(".csv")
    _check_distinct([p for pair in jobs for p in pair], [out_json, out_csv])

    rows, group, n_lanes, failed = [], [], 0, False
    for k, (pf, gf) in enumerate(jobs):
        # every unreadable file is reported; scoring stops at the first
        # failure, since no report is written then
        scene, pred = _read_or_report(read_scene, gf), _read_or_report(read_prediction, pf)
        failed = failed or scene is None or pred is None
        if failed:
            continue
        group.append((pf, gf, pred, scene))
        n_lanes += len(pred.lanes) + len(scene.lanes)
        if n_lanes >= GROUP_LANES or k == len(jobs) - 1:
            failed = not _score_group(group, args, rows)
            group, n_lanes = [], 0
    if failed:
        return EXIT_INPUT_ERROR

    mean = _mean_report([r for _, r in rows])
    doc = {
        "version": 1,
        "scenes": {name: report_to_dict(r) for name, r in rows},
        "mean": report_to_dict(mean),
    }
    write_json(out_json, doc)
    csv_rows = list(rows) + ([("mean", mean)] if len(rows) > 1 else [])
    write_text(out_csv, metrics_csv(csv_rows))
    inputs = sorted({str(p) for pair in jobs for p in pair})
    write_manifest(out_json, build_manifest(
        "eval",
        {"det_thresholds": list(args.det_thresholds), "det_iou": args.det_iou,
         "top_frechet": args.top_frechet, "top_iou": args.top_iou,
         "lane_width": args.lane_width},
        {}, inputs, [out_json, out_csv], time.perf_counter() - t0))
    for name, r in rows:
        print(f"{name}: DET_l {r.det_l:.4f}  DET_t {r.det_t:.4f}  "
              f"TOP_ll {r.top_ll:.4f}  TOP_lt {r.top_lt:.4f}  OLS {r.ols:.4f}")
    if len(rows) > 1:
        print(f"mean: OLS {mean.ols:.4f} over {len(rows)} scenes")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    results = gradcheck.run_gradcheck(seed=args.seed, instances=args.instances,
                                      eps=args.eps, corrupt=args.corrupt)
    by_op: dict[str, list] = {}
    for r in results:
        by_op.setdefault(r.op, []).append(r)

    print(f"{'op':<24} {'instances':>9} {'max rel err':>12}  status")
    checked = [r for r in results if not r.skipped]
    overall = max((r.max_rel_error for r in checked), default=0.0)
    for op, rs in by_op.items():
        live = [r for r in rs if not r.skipped]
        worst = max((r.max_rel_error for r in live), default=0.0)
        status = "ok" if worst < args.tol else "FAIL"
        if len(live) < len(rs):
            status += f" ({len(rs) - len(live)} skipped)"
        print(f"{op:<24} {len(rs):>9} {worst:>12.3e}  {status}")

    passed = bool(checked) and overall < args.tol
    print(f"max relative error {overall:.3e} (tolerance {args.tol:g}) -> "
          f"{'pass' if passed else 'FAIL'}")

    doc = {
        "version": 1, "seed": args.seed, "instances": args.instances,
        "eps": args.eps, "tol": args.tol,
        "ops": [{"op": r.op, "max_rel_error": r.max_rel_error,
                 "n_entries": r.n_entries, "skipped": r.skipped,
                 "note": r.note} for r in results],
        "max_rel_error": overall, "pass": passed,
    }
    write_json(args.out, doc)
    write_manifest(args.out, build_manifest(
        "gradcheck",
        {"instances": args.instances, "eps": args.eps, "tol": args.tol,
         "corrupt": args.corrupt},
        {"seed": args.seed}, [], [args.out], time.perf_counter() - t0))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_fitdemo(args) -> int:
    t0 = time.perf_counter()
    _check_distinct([args.scene], [args.out])
    scene = read_scene(args.scene)
    try:
        result = toy_fit(scene, steps=args.steps, lr=args.lr, seed=args.seed)
    except FitDiverged as err:
        raise ValueError(f"--{err}") from None

    lines = ["step,loss"]
    lines += [f"{k},{loss:.9g}" for k, loss in enumerate(result.losses)]
    write_text(args.out, "\n".join(lines) + "\n")
    write_manifest(args.out, build_manifest(
        "fitdemo",
        {"steps": args.steps, "lr": args.lr, "max_loss": args.max_loss},
        {"seed": args.seed}, [args.scene], [args.out],
        time.perf_counter() - t0))

    final = result.losses[-1]
    print(f"wrote {args.out}: {len(result.losses)} steps, "
          f"loss {result.losses[0]:.6f} -> {final:.6f}")
    if final < args.max_loss:
        return EXIT_OK
    print(f"final loss {final:.6f} did not reach {args.max_loss:g}")
    return EXIT_CHECK_FAILED


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _checked(check, parse=float):
    """argparse type: parse then check, so a bad value exits 2 with its message."""
    def arg_type(text: str):
        try:
            return check(parse(text))
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return arg_type


def _field(cls, name: str) -> dict:
    """type and default of the flag for field name of cls: parsed like the
    field's default, which it takes, then checked by field_check."""
    f = next(f for f in dataclass_fields(cls) if f.name == name)
    return {"type": _checked(field_check(f), type(f.default)), "default": f.default}


@functools.cache  # one parser per process: parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanetopo",
        description="Lane-graph topology toolkit: synthetic scenes, "
                    "connected-lane construction, topology prediction, metrics.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth scene")
    p.add_argument("--kind", choices=("grid", "roundabout"), default="grid")
    p.add_argument("--out", required=True)
    for name, dest in SYNTH_FLAGS.items():
        p.add_argument(_flag(dest), **_field(SynthParams, name))
    p.add_argument("--radius", type=_checked(synth.check_radius), default=20.0,
                   help="roundabout only")
    p.add_argument("--arms", type=_checked(synth.check_arms, int), default=4,
                   help="roundabout only")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("connected", help="build ground-truth connected lanes")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("predict", help="run the pipeline on a scene or directory")
    p.add_argument("--scene", required=True, help="scene file or directory")
    p.add_argument("--out", required=True, help="output file or directory")
    p.add_argument("--source", choices=("gt", "perturbed"), default="gt")
    p.add_argument("--param-seed", **_field(PipelineConfig, "param_seed"))
    p.add_argument("--noise-seed", **_field(PipelineConfig, "noise_seed"))
    for name in ("point_sigma", "drop_rate", "spurious_rate"):
        p.add_argument(_flag(name), **_field(NoiseParams, name))
    for name in SCORE_NOISE_FLAGS:
        p.add_argument(_flag(name), default=0.0,
                       type=_checked(functools.partial(checked, name, lo=0.0, hi=1.0)))
    p.add_argument("--no-tam", action="store_true",
                   help="ablation: skip the masked cross-attention")
    p.add_argument("--channels", **_field(ModelDims, "c"))
    p.add_argument("--heads", **_field(ModelDims, "n_heads"))
    p.add_argument("--lane-queries", **_field(PipelineConfig, "n_lane_queries"))
    p.add_argument("--traffic-queries", **_field(PipelineConfig, "n_traffic_queries"))
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction file or directory")
    p.add_argument("--gt", required=True, help="scene file or directory")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--csv", default=None, help="CSV path (default: out with .csv)")
    p.add_argument("--det-thresholds", type=_checked(valid_distances, _comma_floats),
                   default=DET_L_THRESHOLDS, metavar="T1,T2,T3")
    p.add_argument("--det-iou", type=_checked(metrics.check_iou), default=DET_T_IOU)
    p.add_argument("--top-frechet", type=_checked(metrics.check_distance), default=TOP_FRECHET)
    p.add_argument("--top-iou", type=_checked(metrics.check_iou), default=TOP_IOU)
    p.add_argument("--lane-width", type=_checked(geometry.check_width), default=1.75,
                   help="width used to widen centerlines into lane segments")
    p.set_defaults(func=cmd_eval)

    # pass thresholds that only the CLI reads
    positive = lambda name: _checked(functools.partial(checked, name, lo=0.0, above=True))

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=_checked(training.check_seed, int), default=0)
    p.add_argument("--instances", type=_checked(gradcheck.check_instances, int), default=20)
    p.add_argument("--eps", type=_checked(gradcheck.check_eps), default=1e-5)
    p.add_argument("--tol", type=positive("tol"), default=1e-4)
    p.add_argument("--out", default="gradcheck_report.json")
    p.add_argument("--corrupt", default=None, choices=gradcheck.OP_NAMES,
                   help="fault injection: offset this op's analytic gradient")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fitdemo", help="fit the topology stack to one scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="loss-trajectory CSV path")
    p.add_argument("--steps", type=_checked(training.check_steps, int), default=500)
    p.add_argument("--lr", type=_checked(training.check_lr), default=0.05)
    p.add_argument("--seed", type=_checked(training.check_seed, int), default=0)
    p.add_argument("--max-loss", type=positive("max_loss"), default=0.05)
    p.set_defaults(func=cmd_fitdemo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        _print_error(err)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
