"""The command as the outside world runs it."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.cache import cache_dir

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]


def _digest(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        return {}
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def test_sweep_leaves_committed_store_and_user_cache_unchanged(tmp_path):
    store = ROOT / "benchmarks" / "results" / "store"
    before = (_digest(store), _digest(cache_dir()))
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "sweep-jobs2",
         "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (_digest(store), _digest(cache_dir())) == before
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    lines = proc.stdout.splitlines()
    assert any(line.startswith("sweep-jobs2 warm_s ") for line in lines)
    assert json.loads(out.read_text())["workloads"]["sweep-jobs2"]


def test_without_the_sources_it_fails_fast_and_prints_no_result(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "count-er",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
