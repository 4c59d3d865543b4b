"""Tests for the bench runner's per-trial records and scenario summaries."""

import dataclasses

from structfft.bench import CSV_COLUMNS, run_bench, summarize_records


def test_fixture_row_has_escalation_columns():
    records, summary = run_bench({"seed": 0, "scenarios": [
        {"kind": "fixture", "trials": 2, "params": {"name": "paper_sas"}},
    ]})
    row = dict(zip(CSV_COLUMNS, records[0].as_row()))
    assert row["family"] == "fixture:paper_sas"
    assert row["escalated_nodes"] == 0 and row["dense_fallbacks"] == 0
    scenario = summary["scenarios"][0]
    assert scenario["escalated_nodes_total"] == 0
    assert scenario["dense_fallbacks_total"] == 0


def test_summary_sums_escalations_and_fallbacks():
    # elementary sets with r = 8 at M = 12 alias clustered nodes, which the
    # planned shift stride decodes in float64: nothing escalates any more
    records, summary = run_bench({"seed": 0, "scenarios": [
        {"kind": "elementary", "trials": 3, "params": {"M": 12, "r": 8}},
    ]})
    assert all(r.correct for r in records)
    escalated = sum(r.escalated_nodes for r in records)
    assert escalated == 0
    assert summary["scenarios"][0]["escalated_nodes_total"] == escalated
    bumped = [dataclasses.replace(r, dense_fallbacks=i + 1) for i, r in enumerate(records)]
    totals = summarize_records(bumped)
    assert totals["dense_fallbacks_total"] == 6
    assert totals["escalated_nodes_total"] == escalated
