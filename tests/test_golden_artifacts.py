"""Behavioural contract: Tables 1–3 and the Figure 4 trace regenerate
byte-identical to the committed artifacts in ``benchmarks/results/``.

These four outputs pin the kernel's observable behaviour end to end —
every message, latency draw and trace record of the paper's fault
experiments.  A refactor that keeps them identical has changed no
behaviour they exercise; one that changes them must say why and
regenerate them (``pytest benchmarks/bench_table*_*.py
benchmarks/bench_fig4_es_group.py``).
"""

import pytest

from benchmarks.bench_fig4_es_group import run_es_recovery
from benchmarks.conftest import RESULTS_DIR
from repro.experiments.fault_tables import render_table, run_table

TABLES = {"wd": "table1_wd", "gsd": "table2_gsd", "es": "table3_es"}


@pytest.mark.parametrize("component", sorted(TABLES))
def test_fault_table_matches_committed_artifact(component):
    text = render_table(component, run_table(component, heartbeat_interval=30.0)) + "\n"
    assert text == (RESULTS_DIR / f"{TABLES[component]}.txt").read_text()


def test_fig4_trace_matches_committed_artifact(tmp_path):
    trace = tmp_path / "fig4_es_trace.jsonl"
    run_es_recovery("process", trace_path=str(trace))
    assert trace.read_bytes() == (RESULTS_DIR / "fig4_es_trace.jsonl").read_bytes()
