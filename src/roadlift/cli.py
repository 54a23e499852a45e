"""Command-line surface: geometry one-liners, synthetic experiments,
metric evaluation, bank simulation, and gradient checking.

Every subcommand accepts --out.  simulate, bank-sim and gradcheck also
take --seed, and their outputs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .camera_geometry import (
    GeometryError,
    check_focal_length,
    depth_to_ground,
    height_sensitivity,
    lift_to_ground,
    project_to_image,
)
from .evaluation import (
    check_scored,
    distance_error,
    detection_ratio_curve,
    frame_detection_stats,
    match,
    overlap_matrix,
    pr_curve_from_stats,
)
from .formats import (
    FormatError,
    check_json,
    parse_calibration_doc,
    parse_labels,
    serialize_calibration,
    serialize_labels,
)
from .loss_functions import (
    VECTOR_PARAM_NAMES,
    finite_difference_gradient,
    loss_gradient,
    random_smooth_case,
)
from .position_embedding import embed_depth_map
from .scene_cue_bank import (
    CELL_BLOCK,
    SceneBank,
    _scattered_grid,
    bank_memory_elements,
    cell_centers,
    check_channels,
    extract_cues,
    grid_dims_for_image,
    make_mask,
    save_bank,
)
from .scene_scheduler import SceneScheduler, SchedulerConfig, apply_augmentation, scaled_image_size
from .synthetic_world import (
    CueField,
    NoiseModel,
    SceneConfig,
    SyntheticScene,
    generate_scene,
    render_cue_grid,
    resample_objects,
    simulate_predictions,
)

GRADCHECK_TOLERANCE = 1e-4

# Frames per simulate / bank-sim run.  simulate writes two label files
# per frame, so an unbounded count writes until the disk is full.
MAX_FRAMES = 100_000

# Rows of one `sensitivity --sweep` (10 m steps, so 1,000 km of range):
# the rows are built in memory before any is written.
MAX_SWEEP_ROWS = 100_000


def _fmt(value: float) -> str:
    # Ten significant digits round a value this near the end of the float
    # range up to 1.797693135e308, which reads back as inf.
    if -1.7976931345e308 < value < 1.7976931345e308:
        return f"{value:.10g}"
    return repr(float(value))  # NaN and the infinities print as before


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_input(flag: str, path, parse):
    """``parse`` of the text of the input file ``path``, given as ``flag``
    (for a directory, one of its label files).  Any error reading or
    parsing the file names the flag and the path."""
    try:
        # open, not Path(path).read_text(): one more Path per label file
        # raised the eval-dense benchmark's peak RSS by 0.7 MB.
        with open(path) as file:
            return parse(file.read())
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # FormatError, GeometryError, UnicodeDecodeError
        raise ValueError(f"{flag} {path}: {exc}") from exc


def _read_config(path: str, like):
    """The ``--config`` JSON at ``path``, checked into a copy of ``like``."""

    def parse(text: str):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # or nested past the parser's stack
            raise FormatError(f"config is not valid JSON: {exc}") from exc
        return check_json(data, like, "")

    return _read_input("--config", path, parse)


def _finite(flag: str, value: float) -> float:
    """``value``, or a ValueError naming ``flag`` if it is NaN or infinite."""
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value}")
    return value


def _check_outputs(args) -> None:
    """Refuse, before any work, an output flag (``--out``, ``--bank-out``,
    ``--distance-csv``) whose write would fail or replace a file the
    command uses, so that no output is written when another cannot be.
    A file output (all but simulate's ``--out``, a directory) must not
    name a directory or a symlink loop, and its parent directory must
    exist.  No output
    may name the same file as another output, whose write would replace
    the first, or as one of the command's inputs (``--config``,
    ``--calib``, ``--gt``, ``--pred``, and for a directory input its
    ``*.txt`` label files), which the write would replace.  Paths are
    compared resolved (``os.path.realpath``, which is what
    ``Path.resolve`` returns, but without raising on a symlink loop).
    Inputs are looked up only for outputs that exist already, since no
    other can be a file the command reads, and a directory is resolved
    once: a label file in it that is not a symlink resolves to the
    directory's path joined with its name.  Last, the nearest path that
    exists on the way up from simulate's ``--out`` must be a directory."""
    outputs = {}
    for flag in ("--out", "--bank-out", "--distance-csv"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if not path:
            continue
        real = os.path.realpath(path)
        if not (flag == "--out" and args.command == "simulate"):
            if os.path.basename(path) in ("", ".", "..") or os.path.isdir(real):
                raise ValueError(f"{flag} must name a file, not a directory, got {path}")
            if not os.path.isdir(os.path.dirname(real)):
                raise ValueError(f"{flag} must name a file in an existing directory, got {path}")
            if os.path.islink(real):  # realpath leaves only a loop unresolved
                raise ValueError(f"{flag} must not name a symlink loop, got {path}")
        if real in outputs:
            raise ValueError(
                f"{outputs[real][0]} and {flag} must name different files, got {path} for both"
            )
        outputs[real] = flag, path
    existing = {real: named for real, named in outputs.items() if os.path.exists(real)}
    for in_flag in ("--config", "--calib", "--gt", "--pred"):
        path = getattr(args, in_flag[2:], None)
        if not (path and existing):
            continue
        files = [os.path.realpath(path)]
        if os.path.isdir(files[0]):
            with os.scandir(files[0]) as entries:
                files = [os.path.realpath(e.path) if e.is_symlink() else e.path
                         for e in entries if e.name.endswith(".txt")]
        for f in files:
            if f in existing:
                flag, named = existing[f]
                raise ValueError(f"{flag} must not name an input file ({in_flag}), got {named}")
    if args.command == "simulate" and args.out:
        up = os.path.realpath(args.out)  # absolute: the walk ends at the root at the latest
        while not os.path.lexists(up):
            up = os.path.dirname(up)
        if not os.path.isdir(up):  # a file, or a symlink loop
            raise ValueError(f"--out must name a directory, got {args.out}")


def _check_frames(n_frames: int) -> None:
    if n_frames < 1:
        raise ValueError(f"frames must be at least 1, got {n_frames}")
    if n_frames > MAX_FRAMES:
        raise ValueError(f"frames must be at most {MAX_FRAMES}, got {n_frames}")


@dataclass(frozen=True)
class _SimulateConfig:
    """A ``simulate --config``."""

    scene: SceneConfig
    noise: NoiseModel
    frames: int

    def __post_init__(self):
        _check_frames(self.frames)


@dataclass(frozen=True)
class _BankSimConfig:
    """A ``bank-sim --config``; ``--seed`` is its one scheduler seed."""

    scene: SceneConfig
    frames: int
    momentum: float
    channels: int
    cue_noise_sigma: float
    scheduler: SchedulerConfig

    def __post_init__(self):
        _check_frames(self.frames)
        check_channels(self.channels)
        if not 0.0 <= self.momentum <= 1.0:  # NaN fails too
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        sigma = self.cue_noise_sigma
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"cue_noise_sigma must be a finite number >= 0, got {sigma}")
        height, width = self.scene.image_height, self.scene.image_width
        bank_memory_elements(height, width, self.channels)
        # Each drawn scale lies in [clamp_lo, clamp_hi] and no image side
        # shrinks as the scale grows, so these two sizes bound every
        # augmented camera's grid.
        for scale in (self.scheduler.clamp_lo, self.scheduler.clamp_hi):
            bank_memory_elements(*scaled_image_size(height, width, scale), self.channels)
        # The shortest augmented focal length is the band's at clamp_lo.
        check_focal_length("focal_band[0] * clamp_lo",
                           self.scene.focal_band[0] * self.scheduler.clamp_lo)


def cmd_plane(args) -> int:
    plane = _read_input("--calib", args.calib, parse_calibration_doc).rig.plane
    text = (
        f"{_fmt(plane.a)} {_fmt(plane.b)} {_fmt(plane.c)} {_fmt(plane.d)}\n"
        f"height {_fmt(plane.camera_height)}\n"
    )
    _emit(text, args.out)
    return 0


def cmd_lift(args) -> int:
    for name in ("u", "v", "hr"):
        _finite(f"--{name}", getattr(args, name))
    rig = _read_input("--calib", args.calib, parse_calibration_doc).rig
    point = lift_to_ground(rig, args.u, args.v, args.hr)
    _emit(" ".join(_fmt(v) for v in point) + "\n", args.out)
    return 0


def cmd_sensitivity(args) -> int:
    for name in ("height", "range", "dh", "hr"):
        _finite(f"--{name}", getattr(args, name))
    # Checks every argument, the range included, before any row.
    at_range = height_sensitivity(args.height, args.hr, args.range, args.dh)
    if args.sweep:
        # Rows at 10, 20, ... m up to the range, with 1e-9 m of slack.
        n_rows = math.floor((args.range + 1e-9) / 10.0)
        if n_rows > MAX_SWEEP_ROWS:
            raise ValueError(
                f"--sweep writes one row per 10 m and at most {MAX_SWEEP_ROWS} rows, "
                f"got --range {args.range}"
            )
        lines = ["range_m,error_m"]
        for k in range(1, n_rows + 1):
            r = 10.0 * k
            lines.append(f"{_fmt(r)},{_fmt(height_sensitivity(args.height, args.hr, r, args.dh))}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_fmt(at_range) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    if not args.out:
        raise ValueError("simulate requires --out (output directory)")
    config = _read_config(args.config, _SimulateConfig(SceneConfig(), NoiseModel(), frames=1))
    scene_cfg, noise, n_frames = config.scene, config.noise, config.frames
    out = Path(args.out)
    # A second run would overwrite some frames and leave the rest beside
    # another scene's calibration.
    if (out / "calib.json").exists() or any(
        any((out / side).glob("*.txt")) for side in ("gt", "pred")
    ):
        raise ValueError(
            f"--out {out} already holds a simulate run (calib.json or gt/, pred/ label files); "
            "give an empty or new directory"
        )
    scene = generate_scene(scene_cfg, args.seed)
    (out / "gt").mkdir(parents=True, exist_ok=True)
    (out / "pred").mkdir(parents=True, exist_ok=True)
    (out / "calib.json").write_text(serialize_calibration(scene.rig, scene.scene_id))
    for k in range(n_frames):
        frame_scene = scene if k == 0 else resample_objects(scene, scene_cfg, k)
        record = simulate_predictions(frame_scene, noise, seed=k)
        (out / "gt" / f"frame_{k:04d}.txt").write_text(serialize_labels(record.gt_boxes))
        (out / "pred" / f"frame_{k:04d}.txt").write_text(serialize_labels(record.pred_boxes))
    print(f"wrote {n_frames} frame(s) for {scene.scene_id} to {out}")
    return 0


def _label_files(flag: str, path: str) -> list[Path]:
    p = Path(path)
    if not p.is_dir():
        return [p]
    files = sorted(p.glob("*.txt"))
    if not files:
        raise ValueError(f"{flag} {p}: no .txt label files")
    return files


def cmd_evaluate(args) -> int:
    if not 0.0 <= args.iou <= 1.0:
        raise ValueError(f"--iou must be a number in [0, 1], got {args.iou}")
    thresholds = []
    if args.ratio_thresholds is not None:
        for text in args.ratio_thresholds.split(","):
            try:
                t = float(text)
            except ValueError:
                t = math.nan
            if not 0.0 <= t < math.inf:  # NaN fails too
                raise ValueError(f"--ratio-thresholds must be a finite number >= 0, got {text!r}")
            thresholds.append(t)
    foot = (0.0, 0.0)
    if args.calib:
        rig = _read_input("--calib", args.calib, parse_calibration_doc).rig
        foot = tuple(rig.camera_center_ground()[:2])
    gt_files, pred_files = _label_files("--gt", args.gt), _label_files("--pred", args.pred)
    if Path(args.gt).is_dir() and Path(args.pred).is_dir():
        unpaired = sorted({f.name for f in gt_files} ^ {f.name for f in pred_files})
        if unpaired:
            raise ValueError(f"{unpaired[0]} is in only one of {args.gt} and {args.pred}")
    if len(gt_files) != len(pred_files):
        raise ValueError(
            f"frame count mismatch: {len(gt_files)} GT vs {len(pred_files)} prediction files"
        )

    def gt_frame(text: str):
        frame = parse_labels(text)
        for cls in frame.categories:
            if cls == "all" or "," in cls:
                raise ValueError(
                    f"category {cls!r} cannot name an AP row: 'all' is the row of every "
                    "category, and ',' separates CSV fields"
                )
        return frame

    # Each file's content rules are checked as it is read, so an error
    # names the file.
    gts = [_read_input("--gt", f, gt_frame) for f in gt_files]
    preds = [_read_input("--pred", f, lambda text: check_scored(parse_labels(text)))
             for f in pred_files]
    classes = sorted({c for frame in gts for c in frame.categories})
    # One overlap matrix per frame; the "all" row matches on it whole
    # (across categories), each class row on its class's rows and columns.
    overlaps = [overlap_matrix(g, p, args.kind) for g, p in zip(gts, preds)]
    matches = [match(g, p, m, args.iou) for g, p, m in zip(gts, preds, overlaps)]

    def class_matches(cls: str):
        for g, p, m in zip(gts, preds, overlaps):
            keep = [i for i, c in enumerate(g.categories) if c == cls]
            cols = [i for i, c in enumerate(p.categories) if c == cls]
            yield match(g.take(keep), p.take(cols), m[keep][:, cols], args.iou)

    # A class row's results are matched as its stats are taken, so only
    # one frame's slice is alive at a time.
    rows = ["metric,class,threshold,value"]
    for name, results in [("all", matches)] + [(c, class_matches(c)) for c in classes]:
        curve = pr_curve_from_stats(list(map(frame_detection_stats, results)))
        rows.append(f"ap_{args.kind},{name},{_fmt(args.iou)},{_fmt(curve.ap)}")
    if thresholds:
        ratios = detection_ratio_curve(gts, preds, thresholds)
        for t, ratio in zip(thresholds, ratios):
            rows.append(f"detection_ratio,all,{_fmt(t)},{_fmt(ratio)}")
    _emit("\n".join(rows) + "\n", args.out)
    if args.distance_csv:
        table = distance_error(matches, camera_foot=foot)
        lines = ["bin_lo_m,bin_hi_m,mean_error_pct,matched"]
        for b in table.bins:
            value = "-" if b.mean_error_pct is None else _fmt(b.mean_error_pct)
            lines.append(f"{_fmt(b.lo)},{_fmt(b.hi)},{value},{b.count}")
        Path(args.distance_csv).write_text("\n".join(lines) + "\n")
    return 0


def _observe(truth: np.ndarray, cells: np.ndarray, sigma: float, rng) -> np.ndarray:
    """``truth`` plus ``sigma`` Gaussian noise, as a new array of the same
    (len(cells), channels) shape: one observation's rows, not a grid.
    ``truth`` holds one row of channels per flat cell in ``cells``
    (ascending row-major indices into the grid).  Noise is drawn in
    row-major cell order up to the last of ``cells``, ``CELL_BLOCK``
    cells per fill of one reused buffer, and each fill's rows at
    ``cells`` are used as they are drawn.  The Generator fills arrays in
    C order and each fill continues the stream, so every value equals the
    one a single full-grid draw gives.  Besides the result it allocates
    only the buffer, ``CELL_BLOCK`` x channels, so a caller that scatters
    the rows into a grid decides when that grid exists."""
    channels = truth.shape[1]
    values = np.empty_like(truth)
    if cells.size:
        end = cells[-1] + 1
        buf = np.empty((min(end, CELL_BLOCK), channels))
        for start in range(0, end, CELL_BLOCK):
            n = min(CELL_BLOCK, end - start)
            rng.standard_normal(out=buf[:n])
            lo, hi = np.searchsorted(cells, (start, start + n))
            values[lo:hi] = truth[lo:hi] + sigma * buf[cells[lo:hi] - start]
    return values


def _error_row(phase: str, t: int, did_reset: bool, err: np.ndarray) -> str:
    """One CSV row from the channel-0 errors at a frame's cells."""
    return (
        f"{phase},{t},{int(did_reset)},{err.size},"
        f"{_fmt(float(np.abs(err).mean()))},{_fmt(float((err ** 2).mean()))}"
    )


def cmd_bank_sim(args) -> int:
    """Run one scene's frames through a training bank (momentum updates,
    augmented camera, reset every ``tau`` frames) and an inference bank
    (running mean, plain camera), writing each frame's channel-0 errors.

    Frame ``t`` observes the training cues with the noise stream
    ``[seed, 5, t]`` and the inference cues with ``[seed, 6, t]``.  The
    plain camera's cues are rendered once; each augmented camera's are
    evaluated only at the cells each frame's mask reads.  Both streams
    take one path: ``_observe`` gives the noisy rows at the masked cells,
    ``_scattered_grid`` puts them in a zero grid and ``extract_cues``
    reads the mask from it.  The inference ``_observe`` runs on one
    worker thread, queued one frame ahead, and returns only those rows;
    the scattering, the bank updates and the CSV rows happen here, in
    frame order, so the outputs do not depend on thread timing.  Each
    stream's grids are built just before its bank update and dropped
    right after it, so the two streams' observation grids are never
    alive together and the worker holds none.  Those grids, both banks'
    memories and ``CueField.at``'s results (the render's full grid among
    them) are ``scene_cue_bank.zero_grid`` arrays: each maps its own
    private zero pages, and only the pages written (at masked cells, for
    all but the render and a reset's copy) become resident, even where a
    full read such as ``save_bank``'s follows.  ``np.zeros`` would, once
    glibc serves grid-sized blocks from its heap, memset every page and
    keep freed pages resident; the price is one mapping per grid and one
    page at least."""
    like = _BankSimConfig(SceneConfig(), frames=60, momentum=0.1, channels=4,
                          cue_noise_sigma=0.05, scheduler=SchedulerConfig(tau=20))
    config = _read_config(args.config, like)
    scheduler = SceneScheduler(config.scheduler, args.seed)
    n_frames, channels, sigma = config.frames, config.channels, config.cue_noise_sigma
    scene = generate_scene(config.scene, args.seed)
    sid = scene.scene_id
    bank_train = SceneBank()
    bank_infer = SceneBank()
    true_plain = render_cue_grid(scene, channels)
    plain_rows = true_plain.values.reshape(-1, channels)
    rows = ["phase,frame,did_reset,cells,mean_abs_err,mean_sq_err"]
    aug_scene: SyntheticScene | None = None
    aug_cues: CueField | None = None
    resets = 0

    def _mask_for(target_scene: SyntheticScene, frame_scene: SyntheticScene):
        rig = target_scene.rig
        points = []
        for box in frame_scene.objects:
            try:
                points.append(project_to_image(rig, box.bottom_center))
            except GeometryError:
                continue
        return make_mask(points, grid_dims_for_image(rig.image_height, rig.image_width))

    from concurrent.futures import ThreadPoolExecutor

    def _submit_plain(worker, t: int):
        """Frame ``t``'s objects and plain mask, with its inference
        observation rows queued on ``worker``."""
        frame_scene = scene if t == 0 else resample_objects(scene, config.scene, t)
        mask_plain = _mask_for(scene, frame_scene)
        cells_plain = np.flatnonzero(mask_plain.cells)
        observed_plain = worker.submit(_observe_plain, cells_plain, t)
        return frame_scene, mask_plain, cells_plain, observed_plain

    def _observe_plain(cells: np.ndarray, t: int) -> np.ndarray:
        """Frame ``t``'s inference rows, gathered and seeded here on the
        worker, so no heap block of this thread is freed at a moment set
        by the worker's timing."""
        return _observe(plain_rows[cells], cells, sigma,
                        np.random.default_rng([args.seed, 6, t]))

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = _submit_plain(worker, 0)
        for t in range(n_frames):
            frame_scene, mask_plain, cells_plain, observed_plain = pending
            if t + 1 < n_frames:
                pending = _submit_plain(worker, t + 1)
            params, did_reset = scheduler.step(sid)
            if aug_scene is None or did_reset:
                aug_scene = replace(scene, rig=apply_augmentation(scene.rig, params))
                aug_cues = CueField(aug_scene, channels)
                resets += int(did_reset)
            mask = _mask_for(aug_scene, frame_scene)
            cells = np.flatnonzero(mask.cells)
            truth = aug_cues.at(cells)
            rng = np.random.default_rng([args.seed, 5, t])
            cues = extract_cues(
                _scattered_grid(_observe(truth, cells, sigma, rng), cells, aug_cues.shape), mask
            )
            if did_reset:
                bank_train.reset_scene(sid, cues)
            else:
                bank_train.update_momentum(sid, cues, config.momentum, mask)
            # Each stream's grids go as soon as its bank has read them:
            # the peak RSS is set by how many grids are alive at once.
            del cues
            if cells.size:
                err = bank_train.memorized(sid, cells, 0) - truth[:, 0]
                rows.append(_error_row("train", t, did_reset, err))
            cues_plain = extract_cues(
                _scattered_grid(observed_plain.result(), cells_plain, true_plain.values.shape),
                mask_plain,
            )
            bank_infer.update_running_average(sid, cues_plain, mask_plain)
            del cues_plain
            seen = np.flatnonzero(bank_infer.counter(sid) > 0)
            if seen.size:
                err = bank_infer.memorized(sid, seen, 0) - plain_rows[seen, 0]
                rows.append(_error_row("infer", t, False, err))
    _emit("\n".join(rows) + "\n", args.out)
    if args.bank_out:
        save_bank(bank_infer, args.bank_out)
    print(f"bank-sim: {n_frames} frames, {resets} augmentation reset(s)", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    pred, gt, pred_hr = random_smooth_case(rng)
    analytic = loss_gradient(pred, gt, pred_hr=pred_hr)
    numeric = finite_difference_gradient(pred, gt, pred_hr=pred_hr)
    rows = ["parameter,analytic,finite_difference,rel_error"]
    worst = 0.0
    for name, a, f in zip(VECTOR_PARAM_NAMES, analytic, numeric):
        rel = abs(a - f) / max(abs(a), abs(f), 1.0)
        worst = max(worst, rel)
        rows.append(f"{name},{_fmt(a)},{_fmt(f)},{rel:.3e}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def cmd_embed(args) -> int:
    # sine_encode's own message for such a size does not name the flag.
    if args.de <= 0 or args.de % 2:
        raise ValueError(f"--de must be a positive even integer, got {args.de}")
    rig = _read_input("--calib", args.calib, parse_calibration_doc).rig
    grid = embed_depth_map(rig, args.de)
    us, vs = cell_centers(rig.image_height, rig.image_width)
    rows = ["row,col,depth_m,sin0,cos0"]
    for (r, c), u in np.ndenumerate(us):
        try:
            depth = _fmt(depth_to_ground(rig, float(u), float(vs[r, c])))
        except GeometryError:
            depth = "-"
        rows.append(f"{r},{c},{depth},{_fmt(grid[r, c, 0])},{_fmt(grid[r, c, 1])}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that adds the option strings of each
    one-value option added to it to ``value_flags``, a set it may share
    with other parsers."""

    def __init__(self, *args, value_flags: set[str], **kwargs):
        self.value_flags = value_flags  # before the base class adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.value_flags.update(action.option_strings)
        return action


def _attach_dash_values(argv, value_flags: set[str]) -> list[str]:
    """``argv`` with each token that starts with a single '-' and follows
    one of ``value_flags`` joined to that flag, as ``--flag=token``.
    argparse reads such a token as an option unless its negative-number
    pattern matches, and that pattern reads no exponent (``-1e-1``), no
    ``-inf`` and no list (``-1,2``)."""
    tokens = []
    for token in argv:
        if (tokens and tokens[-1] in value_flags
                and token.startswith("-") and not token.startswith("--")):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return tokens


def _build_parser() -> _Parser:
    """The CLI's parser; its ``value_flags`` are every subcommand's
    one-value options."""
    # Flags are written in full: an abbreviation would also escape
    # _attach_dash_values, which sees the flags as typed.
    make = functools.partial(_Parser, value_flags=set(), allow_abbrev=False)
    parser = make(
        prog="roadlift",
        description="Roadside monocular 3D detection geometry and metrics toolkit",
    )
    common = make(add_help=False)
    common.add_argument("--out", default=None, help="write primary output to this path")
    seeded = make(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make)

    p = sub.add_parser("plane", parents=[common], help="print the virtual ground plane")
    p.add_argument("--calib", required=True, help="calibration JSON file")
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("lift", parents=[common], help="lift a pixel + relative height to 3D")
    p.add_argument("--calib", required=True)
    p.add_argument("--u", type=float, required=True, help="pixel u coordinate")
    p.add_argument("--v", type=float, required=True, help="pixel v coordinate")
    p.add_argument("--hr", type=float, required=True, help="relative height in meters")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser(
        "sensitivity", parents=[common], help="location error caused by a relative-height error"
    )
    p.add_argument("--height", type=float, required=True, help="camera height in meters")
    p.add_argument("--range", type=float, required=True, help="object range in meters")
    p.add_argument("--dh", type=float, required=True, help="height error in meters")
    p.add_argument("--hr", type=float, default=0.0, help="base relative height (default 0)")
    p.add_argument("--sweep", action="store_true", help="emit a range,error CSV in 10 m steps")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate", parents=[seeded], help="generate a scene + noisy predictions")
    p.add_argument("--config", required=True, help="JSON: {scene: {...}, noise: {...}, frames: N}")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", parents=[common], help="AP and related metrics from label files")
    p.add_argument("--gt", required=True, help="GT label file or directory")
    p.add_argument("--pred", required=True, help="prediction label file or directory")
    p.add_argument("--iou", type=float, default=0.5, help="IoU threshold (default 0.5)")
    p.add_argument("--kind", choices=("bev", "3d"), default="bev", help="IoU kind")
    p.add_argument(
        "--ratio-thresholds",
        default=None,
        help="comma-separated meters; adds detection_ratio rows",
    )
    p.add_argument("--distance-csv", default=None, help="also write a binned distance-error CSV")
    p.add_argument(
        "--calib",
        default=None,
        help="calibration JSON; the distance CSV measures range from its camera's "
        "ground foot point instead of (0, 0)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "bank-sim", parents=[seeded], help="simulate schedule + bank accumulation convergence"
    )
    p.add_argument(
        "--config",
        required=True,
        help="JSON: {scene: {...}, frames, scheduler: {...}, momentum, channels, "
        "cue_noise_sigma}",
    )
    p.add_argument("--bank-out", default=None, help="also save the inference bank (binary)")
    p.set_defaults(func=cmd_bank_sim)

    p = sub.add_parser(
        "gradcheck", parents=[seeded], help="analytic vs finite-difference loss gradients"
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("embed", parents=[common], help="export the depth embedding grid as CSV")
    p.add_argument("--calib", required=True)
    p.add_argument(
        "--de", type=int, default=32,
        help="embedding size (even, default 32); the CSV writes only sin0 and cos0, "
        "which no size changes",
    )
    p.set_defaults(func=cmd_embed)
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(argv, parser.value_flags))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # The parser is cyclic garbage from here on.  Dropped now, it is freed
    # young, on this thread, before a command starts a worker; held for
    # the whole command it would be freed by a full collection later, at
    # a moment set by thread timing.
    del parser
    try:
        # numpy's own message for a negative seed does not name the flag.
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        _check_outputs(args)
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (GeometryError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
