"""Self-test of the benchmark on the 0.4 s `tiny` hexagon scene.

    python3 -m pytest perfbench

Not part of the tier-1 suite (pyproject's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from flowseg.events import save_stream                  # noqa: E402

from workloads import WORKLOADS                          # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny",
         "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)


def check_result(done, declared):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert m["better"] in ("higher", "lower")
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert isinstance(got["value"], float) and got["unit"] == m["unit"]
        line = (f"{m['name']} = ", f" {m['unit']} ({m['better']} is better)")
        assert any(text.startswith(line[0]) and text.endswith(line[1])
                   for text in lines), m["name"]
    return result["metrics"]


def test_untraced_run_emits_every_end_to_end_metric():
    metrics = check_result(bench("--trace", "0"), SPEC["end_to_end"])
    # spreads are taken as a share of the median: none may read 0
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_emits_every_per_layer_metric():
    metrics = check_result(bench("--trace", "1"), SPEC["per_layer"])
    assert metrics["track_plane.try_match.hits"]["value"] > 0
    assert metrics["flow_plane.try_emit.seeds"]["value"] > 0


def test_self_times_are_non_negative_and_within_wall(tmp_path):
    events = tmp_path / "tiny.events"
    stream, _ = WORKLOADS["tiny"].scene(3)
    save_stream(stream, str(events))
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(events),
         "--workload", "tiny", "--trace"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    spans = raw["spans"]
    assert spans["track_plane.try_match"]["calls"] > 0
    assert all(s["self_s"] >= 0.0 for s in spans.values())
    assert all(s["self_s"] <= s["total_s"] for s in spans.values())
    assert sum(s["self_s"] for s in spans.values()) <= raw["wall_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
