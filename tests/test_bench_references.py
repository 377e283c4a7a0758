"""Reports stay byte-identical to the benchmark's recorded references.

``bench/references/<workload>.json`` hold the exit code, stdout and stderr
of every item of each of the four workloads (``builtin``, ``sections``,
``enclosures`` and ``corpus``) at the recorded seed.  A change that speeds
the program up must leave them unchanged, so they are replayed here
through ``cli.main`` in this process, the way the benchmark calls it.
Only reads ``bench/``.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from dyadicspec.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["builtin", "sections", "enclosures", "corpus"])
def test_reports_match_bench_references(workload, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    doc = json.loads((BENCH / "references" / f"{workload}.json").read_text())
    refs = doc["items"]
    items = WORKLOADS[workload].items(doc["seed"])
    assert sorted(item.key for item in items) == sorted(refs)
    mismatched = []
    for item in items:
        monkeypatch.setattr(sys, "stdin", io.StringIO(item.config))
        code = main(item.argv)
        out, err = capsys.readouterr()
        ref = refs[item.key]
        if (code, out, err) != (ref["exit"], ref["stdout"], ref["stderr"]):
            mismatched.append(item.id)
    assert not mismatched
