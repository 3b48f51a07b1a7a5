"""The benchmark's tracer against the program it wraps.

``perfbench/tracing.py`` swaps toepsym module attributes for timing wrappers
in traced benchmark runs, and counts relations and violations from what the
wrapped calls return.  A renamed or reshaped name breaks only those runs, so
this runs one traced ``check`` and holds the tracer's counters to the
printed report, and its spans to the layers a check passes through.
"""

import importlib
import json
from pathlib import Path

from toepsym import cli
from toepsym.symbols import random_matrix_symbol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_check_counts_what_the_report_lists(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not hasattr(module, attr)]
    missing += [f"{cls.__name__}.{attr}" for cls, attr, _ in tracing.CLASS_TARGETS
                if not isinstance(cls.__dict__.get(attr), classmethod)]
    assert missing == []
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(random_matrix_symbol(5, 40, 1.0).to_json()))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = cli.main(["check", "--symbol-file", str(path), "--spec", "block_ctilde"])
    payload = json.loads(capsys.readouterr().out)
    reported = payload["condition"]["violation_count"]
    assert code == 1 and reported > 0
    assert tracer.counters["conditions.violations"] == reported
    assert tracer.counters["conditions.relations"] > 0
    names = [span[3] for span in tracer.spans]
    assert names.count("symmetry.residual") >= 1 and names.count("toeplitz.truncate") >= 1
