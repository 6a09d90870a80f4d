import os
import re

import pytest

from flowseg.cli import main, parse_object_spec
from flowseg.config import (ConfigError, config_lines, load_config,
                            parse_assignments)
from flowseg.engine import EngineConfig
from flowseg.events import DEFAULT_GEOMETRY
from flowseg.synth import generate_scene, read_gt


def test_load_config_defaults():
    cfg = load_config([])
    assert cfg == EngineConfig()
    assert cfg.flow_plane.n == 20
    assert cfg.track_plane.evolve_threshold == 3
    # every key a scene sets, and no other
    assert [line.split(" = ")[0] for line in config_lines(cfg)] == [
        "flow_plane.n", "flow_plane.v_ref", "flow_plane.p_stable",
        "flow_plane.noise_lifespan_s", "track_plane.evolve_threshold"]


def test_load_config_overrides():
    cfg = load_config(["flow_plane.n = 40",
                       "flow_plane.noise_lifespan_s = 2.5",
                       "track_plane.evolve_threshold = 12"])
    assert cfg.flow_plane.n == 40
    assert cfg.flow_plane.noise_lifespan_s == 2.5
    assert cfg.track_plane.evolve_threshold == 12


def test_load_config_rejects_bad_keys():
    with pytest.raises(ConfigError):
        load_config(["n = 40"])                       # no section
    with pytest.raises(ConfigError):
        load_config(["flow_plane.bogus = 1"])
    with pytest.raises(ConfigError):
        load_config(["rocket.n = 1"])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(["track_plane.h_max_deg = 0.1"])  # init-only, ignored
    with pytest.raises(ConfigError):
        load_config(["flow_plane.n = twenty"])
    with pytest.raises(ConfigError):
        load_config(["flow_plane.n = 1"])             # fails validation


@pytest.mark.parametrize("key", [
    "engine.merge_flow_tol", "engine.merge_overlap_tol",
    "engine.prune_fraction", "engine.prune_window_lifetimes",
    "engine.prune_grace_lifetimes", "track_plane.v_floor",
    "flow_plane.angular_range", "flow_plane.q", "flow_plane.w",
    "flow_plane.depth_max", "track_plane.lifetime_px",
    "engine.maintenance_period"])
def test_load_config_rejects_maintenance_constants(key):
    # the merge and prune thresholds, the speed floor, the top array's
    # range, the refinement shrink and depth, the seed threshold, the
    # event lifetime and the maintenance period are constants, not
    # config keys: a file or a --set that sets one is refused, not ignored
    message = re.escape(f"unknown config key '{key}'")
    with pytest.raises(ConfigError, match=f"^line 1: {message}$"):
        load_config([f"{key} = 1.0"])
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config([], [f"{key}=1.0"])


def test_parse_assignments():
    assert parse_assignments(["a.b=1", " c.d = 2 "]) == {"a.b": "1", "c.d": "2"}
    with pytest.raises(ConfigError):
        parse_assignments(["oops"])


def test_load_config_round_trips(tmp_path):
    cfg = load_config(["flow_plane.v_ref = 80.0",
                       "track_plane.evolve_threshold = 7"])
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n" + "\n".join(config_lines(cfg)) + "\n")
    loaded = load_config(str(path))
    assert loaded == cfg
    overridden = load_config(str(path), ["flow_plane.v_ref=120"])
    assert overridden.flow_plane.v_ref == 120.0


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    events = str(root / "events.txt")
    gt = str(root / "gt.txt")
    code = run_cli(
        "synth", "--out", events, "--gt", gt,
        "--object", "shape=hexagon,width=50,cx=60,cy=90,vu=57,vv=8",
        "--duration", "1.0", "--noise-rate", "300", "--burst-size", "2",
        "--seed", "23")
    assert code == 0
    return root, events, gt


def test_cli_run_eval_render(tmp_path, synth_files, capsys):
    _, events, gt = synth_files
    labeled = str(tmp_path / "labeled.txt")
    manifest = str(tmp_path / "manifest.txt")
    assert run_cli("run", events, "--out", labeled,
                   "--manifest", manifest,
                   "--set", "flow_plane.p_stable=250") == 0
    assert os.path.exists(labeled)
    assert "config.flow_plane.p_stable=250" in open(manifest).read()

    assert run_cli("eval", "--labeled", labeled, "--gt", gt) == 0
    out = capsys.readouterr().out
    assert "labeled_coverage=" in out
    assert "magnitude" in out

    frames = str(tmp_path / "frames")
    assert run_cli("render", "--labeled", labeled, "--out-dir", frames,
                   "--mode", "flow") == 0
    assert any(name.endswith(".ppm") for name in os.listdir(frames))


def test_cli_rotation_truth_reads_back(tmp_path):
    # a rotating object's truth velocities are computed from numpy
    # positions; its truth file must hold numbers that `eval` reads
    events, gt, labeled = (str(tmp_path / name)
                           for name in ("events.txt", "gt.txt", "labeled.txt"))
    spec = "shape=bar,length=30,thickness=3,motion=rotation,omega_deg=90"
    assert run_cli("synth", "--out", events, "--gt", gt, "--object", spec,
                   "--duration", "0.2", "--seed", "1") == 0
    assert run_cli("run", events, "--out", labeled) == 0
    assert run_cli("eval", "--labeled", labeled, "--gt", gt) == 0
    _, truth = generate_scene([parse_object_spec(spec, DEFAULT_GEOMETRY)],
                              0.2, seed=1)
    assert truth.records and repr(read_gt(gt)) == repr(truth.records)


def test_cli_run_writes_plane_snapshots(tmp_path, synth_files):
    _, events, _ = synth_files
    snapshots = tmp_path / "planes.csv"
    manifest = tmp_path / "manifest.txt"
    assert run_cli("run", events, "--out", str(tmp_path / "labeled.txt"),
                   "--snapshots", str(snapshots),
                   "--manifest", str(manifest)) == 0
    header, *rows = snapshots.read_text().splitlines()
    assert header == "id,t,v_u,v_v,cells,events"
    fields = manifest.read_text().splitlines()
    assert f"count.planes_live={len(rows)}" in fields
    assert rows, "the scene ends with a live plane"
    for row in rows:
        plane_id, t, v_u, v_v, cells, held = row.split(",")
        assert int(plane_id) >= 0 and int(t) > 0
        assert float(v_u) > 0 and int(cells) > 0 and int(held) >= 0
    # the manifest records the one tracking field, no ignored one
    tracking = [f for f in fields if f.startswith("config.track_plane.")]
    assert tracking == ["config.track_plane.evolve_threshold=3"]


def test_cli_lk(tmp_path, synth_files):
    _, events, _ = synth_files
    out = str(tmp_path / "lk.txt")
    assert run_cli("lk", events, "--out", out) == 0
    assert os.path.exists(out)


def test_cli_render_empty_is_ok(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# t u v s segment v_u v_v\n")
    frames = str(tmp_path / "frames")
    assert run_cli("render", "--labeled", str(empty),
                   "--out-dir", frames) == 0
    assert "wrote 0 frames" in capsys.readouterr().out


@pytest.mark.parametrize("record, message", [
    ("100 500 5 1 0 58.0 0.0", "record 1: coordinate (500, 5) outside 10x10"),
    ("100 -3 5 1 0 58.0 0.0", "record 1: coordinate (-3, 5) outside 10x10"),
    ("40 5 5 1 0 58.0 0.0", "record 1: timestamp 40 before previous 50"),
], ids=["past_the_width", "negative_u", "earlier"])
def test_cli_render_rejects_bad_records(tmp_path, capsys, record, message):
    # off the sensor, a record ended in an IndexError traceback, or was
    # drawn at a wrapped pixel (u = -3 at u = 7); out of order, it ended
    # in an IndexError traceback
    labeled = tmp_path / "labeled.txt"
    labeled.write_text(f"50 1 1 1 0 58.0 0.0\n{record}\n")
    frames = tmp_path / "frames"
    assert run_cli("render", "--labeled", str(labeled),
                   "--out-dir", str(frames), "--geometry", "10x10") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not frames.exists()


def test_cli_error_codes(tmp_path, capsys):
    assert run_cli("synth", "--definitely-not-a-flag") == 1
    assert run_cli() == 1
    assert run_cli("run", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "x.txt")) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not an event line\n")
    assert run_cli("run", str(bad), "--out", str(tmp_path / "y.txt")) == 2
    events = tmp_path / "tiny.txt"
    events.write_text("geometry 240 180\n100 5 5 1\n")
    assert run_cli("run", str(events), "--out", str(tmp_path / "z.txt"),
                   "--set", "flow_plane.n=0") == 2
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("100 5 5 1\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("100 58.0 0.0 0\n")
    assert run_cli("eval", "--labeled", str(labeled), "--gt", str(gt)) == 2
    labeled.write_text("100 5 5 1 0 58.0 3.0\n")
    assert run_cli("eval", "--labeled", str(labeled), "--gt", str(gt)) == 0
    capsys.readouterr()
    gt.write_text("100 58.0 0.0\n")
    assert run_cli("eval", "--labeled", str(labeled), "--gt", str(gt)) == 2
    # eval and render name the file that holds the bad record
    assert capsys.readouterr().err == (
        f"error: {gt}: line 1: expected 4 fields, got 3\n")
    gt.write_text("100 58.0 0.0 0\n")
    labeled.write_text("100 5 5 1 0 58.0\n")
    assert run_cli("eval", "--labeled", str(labeled), "--gt", str(gt)) == 2
    assert capsys.readouterr().err == (
        f"error: {labeled}: line 1: expected 7 fields, got 6\n")
    assert run_cli("render", "--labeled", str(labeled),
                   "--out-dir", str(tmp_path / "frames")) == 2
    assert capsys.readouterr().err == (
        f"error: {labeled}: line 1: expected 7 fields, got 6\n")


def test_cli_reports_input_too_large_for_memory(tmp_path, capsys):
    # each of the plane fit's two timestamp surfaces of this valid
    # geometry takes 728 TiB, more than a 48-bit address space holds,
    # so it fails at once; it ended in a MemoryError traceback, exit 1
    events = tmp_path / "huge.txt"
    events.write_text("geometry 10000000 10000000\n100 5 5 1\n")
    assert run_cli("lk", str(events), "--out", str(tmp_path / "lk.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 728. TiB")
    assert err.count("\n") == 1


def test_cli_object_spec_errors(tmp_path, capsys):
    out = str(tmp_path / "events.txt")
    assert run_cli("synth", "--out", out, "--object", "shape=triangle,width=5",
                   "--duration", "0.5") == 2
    assert run_cli("synth", "--out", out, "--object", "shape=circle",
                   "--duration", "0.5") == 2
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=5,warp=9",
                   "--duration", "0.5") == 2
    capsys.readouterr()
    # an infinite speed ended in a ZeroDivisionError traceback; a NaN
    # center wrote no event and exited 0
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=5,vu=inf",
                   "--duration", "0.5") == 2
    assert capsys.readouterr().err == (
        "error: object spec vu: expected a finite number, got 'inf'\n")
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=5,cx=nan",
                   "--duration", "0.5") == 2
    assert capsys.readouterr().err == (
        "error: object spec cx: expected a finite number, got 'nan'\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value", [("--noise-rate", "-1.5"),
                                         ("--jitter-us", "-5"),
                                         ("--refractory-us", "-5")])
def test_cli_synth_rejects_negative_options(tmp_path, capsys, flag, value):
    out = tmp_path / "events.txt"
    assert run_cli("synth", "--out", str(out),
                   "--object", "shape=circle,radius=5", "--duration", "0.5",
                   flag, value) == 2
    option = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"error: {option} must be non-negative, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--duration", "inf", "duration must be positive and finite, got inf"),
    ("--duration", "nan", "duration must be positive and finite, got nan"),
    ("--noise-rate", "inf", "noise_rate must be finite, got inf"),
    ("--noise-rate", "nan", "noise_rate must be finite, got nan")])
def test_cli_synth_rejects_non_finite_options(tmp_path, capsys, flag, value,
                                              message):
    # inf ended in an OverflowError traceback; a NaN duration exited 2
    # naming no option, and a NaN noise rate wrote a noiseless scene
    out = tmp_path / "events.txt"
    args = {"--duration": "0.5", flag: value}
    assert run_cli("synth", "--out", str(out),
                   "--object", "shape=circle,radius=5",
                   *[item for pair in args.items() for item in pair]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.fixture
def tiny_truth(tmp_path):
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("100 5 5 1 0 58.0 3.0\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("100 50.0 0.0 0\n")
    return str(labeled), str(gt)


@pytest.mark.parametrize("flag, value, message", [
    ("--mag-bin", "0", "mag_bin must be positive and finite, got 0.0"),
    ("--mag-bin", "nan", "mag_bin must be positive and finite, got nan"),
    ("--mag-bin", "-5", "mag_bin must be positive and finite, got -5.0"),
    ("--angle-bin", "inf", "angle_bin must be positive and finite, got inf"),
    ("--mag-bin", "1e-320",
     "mag_bin is too small to bin these errors, got 1e-320"),
    ("--angle-bin", "1e-320",
     "angle_bin is too small to bin these errors, got 1e-320")])
def test_cli_eval_rejects_unusable_bin_widths(tiny_truth, capsys, flag, value,
                                              message):
    # 0 and 1e-320, which an error over it makes infinite, ended in a
    # ZeroDivisionError and an OverflowError traceback; the others
    # exited 0
    labeled, gt = tiny_truth
    assert run_cli("eval", "--labeled", labeled, "--gt", gt,
                   flag, value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--frame-dt", "nan",
     "frame_dt_s must be finite and at least 1e-6 s, got nan"),
    ("--frame-dt", "1e-9",
     "frame_dt_s must be finite and at least 1e-6 s, got 1e-09"),
    ("--v-sat", "nan", "v_sat must be positive and finite, got nan")])
def test_cli_render_rejects_unusable_settings(tmp_path, tiny_truth, capsys,
                                              flag, value, message):
    # a NaN frame length exited 2 naming no option, 1-ns frames were
    # rendered as 1-us frames, and a NaN v_sat rendered and exited 0
    labeled, _ = tiny_truth
    frames = tmp_path / "frames"
    assert run_cli("render", "--labeled", labeled, "--out-dir", str(frames),
                   flag, value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not frames.exists()


@pytest.fixture
def tiny_events(tmp_path):
    events = tmp_path / "tiny.txt"
    events.write_text("geometry 240 180\n100 5 5 1\n")
    return str(events)


def test_cli_set_bad_integer_names_its_key(tmp_path, tiny_events, capsys):
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--set", "flow_plane.n=abc") == 2
    assert capsys.readouterr().err == (
        "error: flow_plane.n: expected an integer, got 'abc'\n")


@pytest.mark.parametrize("assignment, message", [
    ("flow_plane.n=1", "flow_plane: n must be at least 2"),
    ("flow_plane.n=1025", "flow_plane: n must be at most 1024"),
    ("flow_plane.n=100000", "flow_plane: n must be at most 1024"),
])
def test_cli_rejects_arrays_past_the_grid_keys(tmp_path, tiny_events, capsys,
                                               assignment, message):
    # n*n grid keys k * 2**43 + packed must fit in int64; without the
    # check, n = 100000 died allocating 74.5 GiB
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--set", assignment) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_set_bad_number_names_its_key(tmp_path, tiny_events, capsys):
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--set", "flow_plane.v_ref=fast") == 2
    assert capsys.readouterr().err == (
        "error: flow_plane.v_ref: expected a number, got 'fast'\n")


@pytest.mark.parametrize("key, value", [
    ("flow_plane.noise_lifespan_s", "nan"),
    ("flow_plane.v_ref", "inf"),
    ("flow_plane.noise_lifespan_s", "-inf"),
])
def test_cli_set_non_finite_number_names_its_key(tmp_path, tiny_events,
                                                 capsys, key, value):
    # accepted, these stopped a run mid-way without naming the key, or
    # ran to the end with garbage projections; -inf is refused as not
    # finite before the key's own bound is checked
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--set", f"{key}={value}") == 2
    assert capsys.readouterr().err == (
        f"error: {key}: expected a finite number, got '{value}'\n")


def test_cli_config_file_non_finite_number_names_its_line(tmp_path,
                                                          tiny_events,
                                                          capsys):
    config = tmp_path / "run.cfg"
    config.write_text("flow_plane.n = 12\nflow_plane.v_ref = inf\n")
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--config", str(config)) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 2: flow_plane.v_ref: expected a finite "
        "number, got 'inf'\n")


def test_cli_config_file_bad_value_names_its_line(tmp_path, tiny_events,
                                                  capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# tuned\nflow_plane.n = 12\nflow_plane.p_stable = x\n")
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--config", str(config)) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 3: flow_plane.p_stable: expected an "
        "integer, got 'x'\n")
    # a --set override replaces the bad line's value before it is read
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--config", str(config),
                   "--set", "flow_plane.p_stable=300") == 0


def test_cli_config_file_line_without_value_names_its_line(tmp_path,
                                                           tiny_events,
                                                           capsys):
    config = tmp_path / "run.cfg"
    config.write_text("flow_plane.n = 12\n\nflow_plane.p_stable\n")
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--config", str(config)) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 3: expected key = value\n")


def test_cli_config_file_non_ascii_byte_names_its_line(tmp_path,
                                                      tiny_events, capsys):
    # read in the locale's encoding, this exited 2 with a codec error
    # that named neither the file nor the line
    config = tmp_path / "run.cfg"
    config.write_bytes(b"flow_plane.n = 12\n# caf\xe9\n")
    assert run_cli("run", tiny_events, "--out", str(tmp_path / "out.txt"),
                   "--config", str(config)) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 2: non-ASCII byte 0xe9\n")


def test_load_config_lines_name_the_line():
    with pytest.raises(ConfigError, match=r"^line 2: flow_plane\.p_"
                       r"stable: expected an integer, got '1e3'$"):
        load_config(["flow_plane.n = 12", "flow_plane.p_stable = 1e3"])


def test_cli_object_spec_bad_number_names_its_key(tmp_path, capsys):
    out = str(tmp_path / "events.txt")
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=abc",
                   "--duration", "0.5") == 2
    assert capsys.readouterr().err == (
        "error: object spec radius: expected a number, got 'abc'\n")
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=5,vu=fast",
                   "--duration", "0.5") == 2
    assert capsys.readouterr().err == (
        "error: object spec vu: expected a number, got 'fast'\n")
