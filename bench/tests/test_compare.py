"""compare.py applies each metric's own direction and bound."""

import json

from bench import compare

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.10},
    ],
}


def runs(rate, lat, failed=0, workload="w"):
    return [
        {"workload": workload, "trace": 0, "correct": not failed,
         "attempted": 100, "failed": failed,
         "metrics": {"rate": {"value": r, "unit": "1/s"},
                     "lat": {"value": l, "unit": "ms"}}}
        for r, l in zip(rate, lat)
    ]


def grouped(records):
    return {"w": records}


def verdicts(parent, change, capsys):
    code = compare.compare(SPEC, grouped(parent), grouped(change))
    rows = [
        line.split() for line in capsys.readouterr().out.splitlines()[1:]
    ]
    return code, {row[1]: row[-1] for row in rows if row[0] == "w"}


def test_directions_and_bounds(capsys):
    steady = runs([100] * 5, [10] * 5)
    code, got = verdicts(steady, runs([85] * 5, [8] * 5), capsys)
    assert code == 1
    assert got == {"rate": "regressed", "lat": "improved"}
    code, got = verdicts(steady, runs([95] * 5, [10.9] * 5), capsys)
    assert code == 0
    assert got == {"rate": "unchanged", "lat": "unchanged"}


def test_a_spread_wider_than_the_bound_is_unresolved(capsys):
    noisy = runs([80, 90, 100, 110, 120], [10] * 5)
    code, got = verdicts(noisy, runs([100] * 5, [10] * 5), capsys)
    assert code == 0
    assert got["rate"] == "unresolved"
    assert got["lat"] == "unchanged"


def test_more_failed_operations_is_a_regression(capsys):
    steady = runs([100] * 5, [10] * 5)
    code, _ = verdicts(steady, runs([100] * 5, [10] * 5, failed=1), capsys)
    assert code == 1


def test_single_runs_and_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(runs([100], [10])))
    b.write_text(json.dumps(runs([100], [20])[0]))
    assert compare.load_runs(str(b))["w"][0]["failed"] == 0
    code = compare.compare(
        SPEC, compare.load_runs(str(a)), compare.load_runs(str(b))
    )
    assert code == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2
