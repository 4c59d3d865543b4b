"""Tests for the bench runner's per-trial records and scenario summaries."""

import dataclasses

from structfft.bench import CSV_COLUMNS, run_bench, summarize_records


def test_fixture_row_has_mismatch_column():
    records, summary = run_bench({"seed": 0, "scenarios": [
        {"kind": "fixture", "trials": 2, "params": {"name": "paper_sas"}},
    ]})
    row = dict(zip(CSV_COLUMNS, records[0].as_row()))
    assert row["family"] == "fixture:paper_sas"
    assert row["mismatch_nodes"] == 0
    assert summary["scenarios"][0]["mismatch_nodes_total"] == 0
    # r = (0, 1): one node {0, 512} of weight 2, x = 1 and -1 at any odd stride, ||V^-1||_inf = 1
    assert row["amplification"] == 1.0


def test_summary_sums_mismatch_nodes():
    # elementary sets with r = 8 at M = 12 alias clustered nodes, which the
    # planned shift stride decodes in float64 with no node flagged
    records, summary = run_bench({"seed": 0, "scenarios": [
        {"kind": "elementary", "trials": 3, "params": {"M": 12, "r": 8}},
    ]})
    assert all(r.correct for r in records)
    assert sum(r.mismatch_nodes for r in records) == 0
    assert summary["scenarios"][0]["mismatch_nodes_total"] == 0
    bumped = [dataclasses.replace(r, mismatch_nodes=i + 1) for i, r in enumerate(records)]
    assert summarize_records(bumped)["mismatch_nodes_total"] == 6
