"""Tests of the benchmark's own seed handling and metric names.

Run from the root of a checkout:  python3 -m pytest -q perfbench
(about 10 s; the repository's own test run does not collect it).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _one_round(name, seed):
    api = run.load_package()
    wl = WORKLOADS[name]
    wl.warm(api)
    results, round_s, probes = run.run_rounds(api, wl, seed, None, rounds=1)
    assert len(probes) == len(results) + 1
    assert len(round_s) == 1
    failures = [(r.item_id, r.problems) for r in results if r.problems]
    return [r.cell for r in results], failures, {r.item_id: r.digest for r in results}


@pytest.mark.parametrize("name", ["lines-small", "split-generic"])
def test_same_seed_gives_identical_digests(name):
    cells_a, failures_a, digests_a = _one_round(name, run.DEFAULT_SEED)
    cells_b, failures_b, digests_b = _one_round(name, run.DEFAULT_SEED)
    assert not failures_a and not failures_b
    assert cells_a == cells_b
    assert digests_a == digests_b
    recorded = json.loads(run.EXPECTED.read_text())[name][0]
    assert [digests_a[f"0:{i}"] for i in range(len(recorded))] == recorded


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_keeps_item_count_and_cell_mix(name):
    wl = WORKLOADS[name]
    cells_0 = [spec.cell for spec in wl.round_specs(run.DEFAULT_SEED, 0)]
    cells_1, failures, digests = _one_round(name, 1)
    assert cells_1 == cells_0
    assert failures == []
    assert len(digests) == len(cells_0)


def test_other_seed_draws_other_lines():
    api = run.load_package()
    fam = api.family
    wl = WORKLOADS["split-generic"]

    def forms(seed):
        out = []
        for spec in wl.round_specs(seed, 0):
            line = fam.sample_line(fam.context(spec.n, spec.d, spec.k), spec.mode,
                                   seed=spec.case_seed)
            out.append((line.f1, line.f2))
        return out

    assert forms(run.DEFAULT_SEED) == forms(run.DEFAULT_SEED)
    assert all(a != b for a, b in zip(forms(run.DEFAULT_SEED), forms(1)))


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = tracer.layer_metrics(tracer.Tracer(), items=1, wall_s=1.0)
    layer["trace.overhead_frac"] = 0.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: tracer.unit(k) for k in layer}
