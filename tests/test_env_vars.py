"""The environment variables the library reads are a fixed, documented set.

Every ``REPRO_*`` name in ``src/repro`` must be on the list below and
named in README.md, so adding (or reviving) an environment variable
takes a deliberate edit here and in the docs.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PATTERN = re.compile(r"\bREPRO_[A-Z_]+")

EXPECTED = {
    "REPRO_BENCH_DIR",
    "REPRO_CACHE_DIR",
    "REPRO_JOBS",
    "REPRO_LEDGER",
    "REPRO_LOG_JSON",
    "REPRO_LOG_LEVEL",
    "REPRO_TASK_RETRIES",
    "REPRO_TASK_TIMEOUT",
}


def _names_in_library() -> set[str]:
    return {
        name
        for path in (REPO / "src" / "repro").rglob("*.py")
        for name in PATTERN.findall(path.read_text(encoding="utf-8"))
    }


def test_library_reads_exactly_the_pinned_variables():
    assert _names_in_library() == EXPECTED


def test_readme_names_every_variable():
    readme = set(PATTERN.findall((REPO / "README.md").read_text(
        encoding="utf-8")))
    assert EXPECTED - readme == set()
