import os

import pytest

from flowseg.cli import main
from flowseg.config import (ConfigError, config_lines, load_config,
                            parse_assignments)


def test_load_config_defaults():
    cfg = load_config([])
    assert cfg.flow_plane.n == 20
    assert cfg.track_plane.m_grid == 3
    assert cfg.maintenance_period == 1000


def test_load_config_overrides():
    cfg = load_config(["flow_plane.n = 40",
                       "track_plane.h0_deg = 0.05",
                       "engine.maintenance_period = 500"])
    assert cfg.flow_plane.n == 40
    assert cfg.track_plane.h0_deg == 0.05
    assert cfg.maintenance_period == 500


def test_load_config_rejects_bad_keys():
    with pytest.raises(ConfigError):
        load_config(["n = 40"])                       # no section
    with pytest.raises(ConfigError):
        load_config(["flow_plane.bogus = 1"])
    with pytest.raises(ConfigError):
        load_config(["rocket.n = 1"])
    with pytest.raises(ConfigError):
        load_config(["flow_plane.n = twenty"])
    with pytest.raises(ConfigError):
        load_config(["flow_plane.n = 1"])             # fails validation


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
    labeled.write_text("100 5 5 1 0 58.0 0.0\n")
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


def test_cli_object_spec_errors(tmp_path):
    out = str(tmp_path / "events.txt")
    assert run_cli("synth", "--out", out, "--object", "shape=triangle,width=5",
                   "--duration", "0.5") == 2
    assert run_cli("synth", "--out", out, "--object", "shape=circle",
                   "--duration", "0.5") == 2
    assert run_cli("synth", "--out", out,
                   "--object", "shape=circle,radius=5,warp=9",
                   "--duration", "0.5") == 2


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
    ("track_plane.m_grid=1025", "track_plane: m_grid must be at most 1023"),
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
                   "--set", "track_plane.h0_deg=fast") == 2
    assert capsys.readouterr().err == (
        "error: track_plane.h0_deg: expected a number, got 'fast'\n")


@pytest.mark.parametrize("key, value", [
    ("flow_plane.noise_lifespan_s", "nan"),
    ("flow_plane.v_ref", "inf"),
    ("engine.merge_flow_tol", "-inf"),
])
def test_cli_set_non_finite_number_names_its_key(tmp_path, tiny_events,
                                                 capsys, key, value):
    # accepted, these stopped a run mid-way without naming the key, or
    # ran to the end with garbage projections or merging silently off
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


def test_load_config_lines_name_the_line():
    with pytest.raises(ConfigError, match=r"^line 2: engine\.maintenance_"
                       r"period: expected an integer, got '1e3'$"):
        load_config(["flow_plane.n = 12", "engine.maintenance_period = 1e3"])


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
