"""Every performance claim in README cites a committed benchmark record.

The ``benchmark_artifacts/BENCH_*.json`` files are the evidence behind the
numbers README and ``docs/`` quote; nothing in the package reads them.  A row
of README's Performance table names its record directly, or says "same
record" under a row that names one; every record named anywhere in README or
``docs/*.md`` exists and parses as JSON.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "benchmark_artifacts"
RECORD = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")


def performance_rows():
    """The body rows of README's Performance table, in order."""
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    lines = readme.split("### Performance", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    return lines[start + 2 : end]  # below the header and the separator


def test_every_performance_row_cites_a_record():
    rows = performance_rows()
    assert len(rows) > 10
    cited = None
    uncited = []
    for row in rows:
        named = [name for name in RECORD.findall(row) if (ARTIFACTS / name).is_file()]
        if named:
            cited = named[0]
        elif "same record" not in row or cited is None:
            uncited.append(row.split("|")[1].strip())
    assert uncited == []


def test_every_named_record_exists_and_parses():
    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    named = {
        name
        for document in documents
        for name in RECORD.findall(document.read_text(encoding="utf-8"))
    }
    assert named
    for name in sorted(named):
        path = ARTIFACTS / name
        assert path.is_file(), name
        json.loads(path.read_text(encoding="utf-8"))
