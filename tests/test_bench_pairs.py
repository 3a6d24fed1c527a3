"""scripts/bench_pairs.py keeps every pair it ran when one run fails."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# A stand-in for perfbench/run.py: it prints one result line with every
# end-to-end metric at VALUE, or exits 1 on the seed FAIL_SEED.
FAKE_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {fail_seed}:
    sys.exit("Traceback (most recent call last):\\nValueError: pool is empty")
names = ("instance_ms_mean", "items_per_s", "peak_rss_mib", "setup_s")
print("fake: 7 rounds, 21 instances", file=sys.stderr)
print(json.dumps({{"metrics": {{n: {{"value": {value} + seed}} for n in names}},
                  "correct": True, "failed": 0, "attempted": 21}}))
"""


def _tree(root: Path, value: float, fail_seed: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(value=value, fail_seed=fail_seed))
    return root


def test_a_failed_run_is_recorded_and_the_other_pairs_kept(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    record = tmp_path / "BENCH.json"
    monkeypatch.setattr(bench_pairs, "RECORD", record)
    base = _tree(tmp_path / "base", 10.0, fail_seed=-1)
    change = _tree(tmp_path / "change", 5.0, fail_seed=102)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--base", str(base), "--change", str(change),
        "--workload", "construct-deep", "--pairs", "4", "--seconds", "1",
        "--seed", "100"])
    assert bench_pairs.main() == 0
    [entry] = json.loads(record.read_text())
    assert entry["failed_runs"] == [{
        "side": "change", "pair": 3, "workload": "construct-deep", "seed": 102,
        "exit_code": 1, "stderr": "ValueError: pool is empty"}]
    workload = entry["workloads"]["construct-deep"]
    assert workload["all_correct"] is False
    assert workload["rounds"] == {"base": [7, 7, 7, 7], "change": [7, 7, 7]}
    ms = workload["instance_ms_mean"]
    assert ms["base"]["runs"] == [110.0, 111.0, 112.0, 113.0]
    assert ms["change"]["runs"] == [105.0, 106.0, 108.0]
    assert ms["change"]["median"] == 106.0
    # only the three pairs where both runs finished are compared
    assert ms["change_better_pairs"] == 3
    assert workload["items_per_s"]["change_better_pairs"] == 0
