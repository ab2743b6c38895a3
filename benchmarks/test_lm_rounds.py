"""Smoke test of the LM loop table (``run_instantiation.py --lm``).

A few stub rounds per Figure 5 shape, so an API change that breaks the
table fails here; the full table is ``python
benchmarks/run_instantiation.py --lm``.
"""

import json

from repro.circuit import FIG5_BENCHMARKS

from .run_instantiation import LM_WIDTHS, lm_suite


def test_lm_table_covers_every_shape(tmp_path, capsys):
    path = tmp_path / "BENCH_lm.json"
    lm_suite(trials=1, json_path=str(path), rounds=5)
    report = json.loads(path.read_text())
    assert report["mode"] == "lm"
    rows = report["rows"]
    assert [(row["name"], row["contract"]) for row in rows] == [
        (name, contract)
        for name in FIG5_BENCHMARKS
        for contract in ("full", "column")
    ]
    for row in rows:
        dim = row["dim"]
        size = 2 * dim * dim if row["contract"] == "full" else 2 * dim
        assert row["num_residuals"] == size
        timings = [row["scalar_us"]]
        timings += [row[f"round_w{width}_us"] for width in LM_WIDTHS]
        assert all(t > 0 for t in timings)
    assert "round W=8(us)" in capsys.readouterr().out
