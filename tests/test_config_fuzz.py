"""Mangled simulate and bank-sim configs: each run exits 0, or exits 1
with one ``error:`` line, and never leaks a traceback or a warning (the
suite turns warnings into errors)."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadlift.cli import run_command
from roadlift.scene_scheduler import SchedulerConfig
from roadlift.synthetic_world import NoiseModel, SceneConfig


def _plain(value):
    """``value`` as JSON data: dataclasses become objects, tuples lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


# Every key spelt out, with small sizes: 3 objects, 2 frames and a
# 256 x 128 image, whose short focal lengths let the objects be placed.
_SCENE = {**_plain(SceneConfig()), "n_objects": 3, "image_width": 256, "image_height": 128,
          "focal_band": [200.0, 400.0]}
BASES = {
    "simulate": {
        "scene": _SCENE,
        "noise": {**_plain(NoiseModel()), "sigma_hr": 0.2, "sigma_dims": 0.1,
                  "drop_rate": 0.2, "false_positive_rate": 0.5},
        "frames": 2,
    },
    "bank-sim": {
        "scene": _SCENE,
        "frames": 2,
        "momentum": 0.1,
        "channels": 2,
        "cue_noise_sigma": 0.05,
        "scheduler": {k: v for k, v in _plain(SchedulerConfig(tau=1)).items() if k != "seed"},
    },
}

# Any value may land on any field, and a number field mostly gets a
# number.  Integers stay at most 2 or go past every cap, so an accepted
# one keeps the run small.
NUMBERS = [
    1e308, -1e308, 1e12, -1e12, 1e9, -1e9, 0.0, -1.0, 0.5, 2.5, math.nan, math.inf,
    -1, 0, 1, 2, 10**30,
]
VALUES = NUMBERS + ["truck", "#car", "", "my car", None, True, [], {}, [1.0], [2.0, 1.0]]


def _paths(doc, prefix=()):
    """Every path into ``doc``, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    out = doc.copy()
    out[path[0]] = _replace(doc[path[0]], path[1:], value)
    return out


@st.composite
def mangled_configs(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    doc = BASES[command]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _get(doc, path)
        number = type(target) in (int, float) and draw(st.integers(0, 3)) > 0
        value = draw(st.sampled_from(NUMBERS if number else VALUES))
        if isinstance(target, dict) and draw(st.booleans()):
            value = {**target, "unknown_key": value}
        doc = _replace(doc, path, value)
    return command, doc


def _pinned(command, path, value):
    return command, _replace(BASES[command], path, value)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(mangled_configs())
@example(_pinned("simulate", ("scene", "range_band"), [1e308, 1e308]))
@example(_pinned("bank-sim", ("cue_noise_sigma",), 1e308))
@example(_pinned("simulate", ("scene", "height_band", 1), 1e308))
@example(_pinned("simulate", ("scene", "focal_band"), [1e308, 1e308]))
@example(_pinned("simulate", ("noise", "sigma_hr"), 1e308))
@example(_pinned("simulate", ("noise", "sigma_dims"), 1e308))
def test_every_config_exits_cleanly(case):
    command, doc = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command([command, "--config", str(config), "--out", str(out)])
        rows = out.read_text().splitlines()[1:] if code == 0 and command == "bank-sim" else []
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(",")[1:]), row
