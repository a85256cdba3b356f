"""Every committed BENCH_*.json carries what a speed claim must point to:
what was measured, against which commit, on which machine, and at least one
block of timings."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
MACHINE = {"cores": int, "arch": str, "python": str, "numpy": str, "scipy": str,
           "blas_threads": int}
TIMING_BLOCKS = ("per_layer", "end_to_end")


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("doc", ["README.md", "ROADMAP.md"])
def test_every_bench_file_a_doc_names_is_committed(doc):
    # a speed claim must point to a file that is there to read
    named = set(re.findall(r"BENCH_\w+\.json", (ROOT / doc).read_text()))
    missing = sorted(n for n in named if not (ROOT / n).is_file())
    assert not missing, f"{doc} names {missing}, which are not in the repository"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records_its_claim(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc.get("what"), str) and doc["what"].strip()
    assert re.fullmatch(r"[0-9a-f]{7,40}", str(doc.get("parent_commit")))
    machine = doc.get("machine")
    assert isinstance(machine, dict)
    for key, kind in MACHINE.items():
        assert isinstance(machine.get(key), kind), f"machine.{key}"
    blocks = [doc[k] for k in TIMING_BLOCKS if k in doc]
    assert any(isinstance(b, dict) and b for b in blocks)
