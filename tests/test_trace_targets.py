"""The benchmark's layer trace still finds every function it wraps.

benchmarks/spans.py times each layer by swapping a name that one hexknot
module imported from another. A refactor that renames or merges such a
name leaves the trace running but blind to that layer, so these tests
fail instead.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workload  # noqa: E402
from spans import TARGETS  # noqa: E402


def _spans_of(in_cli):
    return {name for module, _, name in TARGETS if (module == "hexknot.cli") == in_cli}


def test_every_target_resolves_to_a_callable():
    for module, attr, _ in TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_traced_estimator_enters_every_span():
    payload = workload.run_estimator("oracle", 7, 0, 1 << 12, trace_calls=1)
    assert payload["absent_targets"] == [] and payload["absent_spans"] == []
    assert _spans_of(in_cli=False) <= set(payload["spans"])


def test_traced_cli_enters_every_span(tmp_path):
    payload = workload.run_cli_traced(7, 1, 200, tmp_path)
    assert payload["exit_codes"] == [0] * 6
    assert payload["absent_targets"] == [] and payload["absent_spans"] == []
    assert _spans_of(in_cli=True) <= set(payload["spans"])


def test_traced_predicate_run_enters_its_spans_and_counts_its_hits():
    # predicate mode calls the two samplers, class_masks and, from it,
    # nine_functions; the per-layer hit counter reads class_masks' output
    payload = workload.run_estimator("predicate", 7, 0, 1 << 16, trace_calls=1)
    spans = {"action_angle.sample_action_batch", "action_angle.sample_angles_batch",
             "trefoil_predicates.class_masks", "trefoil_predicates.nine_functions"}
    assert spans <= _spans_of(in_cli=False)
    assert payload["absent_targets"] == [] and spans <= set(payload["spans"])
    hits = sum(payload["traced_calls"][0]["hits"].values())
    assert payload["counts"]["trefoil_predicates.class_masks.hits"] == hits > 0
