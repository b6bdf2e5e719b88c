"""Toy-size smoke test of the benchmark: every workload, untraced and traced.

Run from the repository root:  python -m pytest perfbench/test_smoke.py -q
Each run must end with the result line and print every metric that
BENCHMARK.json lists for its mode, by name and with its unit.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TOY_RUN = (
    "import sys; sys.path.insert(0, {bench!r}); import run; "
    "sys.exit(run.main(['--workload', {wl!r}, '--seed', '7', '--seconds', '0.05', "
    "'--trace', {trace!r}], toy=True))"
)


def toy_run(workload, trace):
    code = TOY_RUN.format(bench=str(BENCH), wl=workload, trace=str(trace))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    lines = toy_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["trace.unattributed_frac"] <= 1.0
        trace_line = next(line for line in lines if line.startswith("trace "))
        fields = dict(f.split("=") for f in trace_line.split()[1:])
        assert float(fields["op_ms"]) == pytest.approx(float(fields["accounted_ms"]))
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_refuses_to_run_without_the_library():
    """In a directory holding only the benchmark, it exits non-zero without a result."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for f in BENCH.glob("*.py"):
            (bare / "perfbench" / f.name).write_text(f.read_text())
        (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip()
