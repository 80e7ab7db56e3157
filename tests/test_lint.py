"""The no-bare-print lint covers the whole library, cache included.

``tools/check_no_print.py`` walks its roots recursively, so new
packages are covered the moment they land — these tests pin that
contract (a planted offender under a nested package is found, and the
real tree is currently clean) so a layout change can't silently drop
worker-side code such as ``repro.cache`` from the lint.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_no_print.py"


def _run(*roots, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, roots)],
        cwd=cwd, capture_output=True, text=True,
    )


class TestCheckNoPrint:
    def test_library_tree_is_clean(self):
        result = _run()
        assert result.returncode == 0, result.stderr

    def test_allow_list_does_not_depend_on_the_root(self):
        # The allow-list names paths inside the repro package; scanning
        # from the source root must not turn the CLI into an offender.
        result = _run("src")
        assert result.returncode == 0, result.stderr

    def test_planted_offender_outside_allow_list_is_caught(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "core").mkdir(parents=True)
        (package / "cli.py").write_text('print("ok")\n')
        (package / "core" / "fra.py").write_text('print("leak")\n')
        result = _run(tmp_path / "src")
        assert result.returncode == 1
        assert "fra.py:1" in result.stderr
        assert "cli.py" not in result.stderr

    def test_cache_package_is_inside_the_scanned_tree(self):
        scanned = {
            path.relative_to(REPO / "src" / "repro").as_posix()
            for path in (REPO / "src" / "repro").rglob("*.py")
        }
        assert "cache/store.py" in scanned
        assert "cache/keys.py" in scanned
        assert "cache/codec.py" in scanned
        assert "ml/compiled.py" in scanned

    def test_obs_modules_are_inside_the_scanned_tree(self):
        # The ledger/profile/summary/bench modules return strings for
        # the CLI to print — they must never print themselves.
        scanned = {
            path.relative_to(REPO / "src" / "repro").as_posix()
            for path in (REPO / "src" / "repro").rglob("*.py")
        }
        assert "obs/ledger.py" in scanned
        assert "obs/profile.py" in scanned
        assert "obs/summary.py" in scanned
        assert "obs/bench.py" in scanned

    def test_supervision_modules_are_inside_the_scanned_tree(self):
        # Worker supervision and the artifact codec log through
        # repro.obs — a stray print in a worker process would interleave
        # with real output nondeterministically.
        scanned = {
            path.relative_to(REPO / "src" / "repro").as_posix()
            for path in (REPO / "src" / "repro").rglob("*.py")
        }
        assert "parallel/supervision.py" in scanned
        assert "cache/codec.py" in scanned

    def test_planted_offender_in_nested_package_is_caught(self, tmp_path):
        nested = tmp_path / "lib" / "cache"
        nested.mkdir(parents=True)
        (nested / "store.py").write_text('print("leak")\n')
        result = _run(tmp_path / "lib")
        assert result.returncode == 1
        assert "store.py:1" in result.stderr

    def test_docstring_print_does_not_trip(self, tmp_path):
        root = tmp_path / "lib"
        root.mkdir()
        (root / "mod.py").write_text('"""Docs mention print(x)."""\n')
        result = _run(root)
        assert result.returncode == 0, result.stderr
