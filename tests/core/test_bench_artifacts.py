"""The shared BENCH_PR artifact helper and the conftest no-clobber guard.

``repro bench --compare`` and the benchmark suite's baseline discovery
both order artifacts through :mod:`repro.core.artifacts` — numeric PR
order, so ``BENCH_PR10`` beats ``BENCH_PR9`` despite sorting before it
lexically.  The benchmark conftest additionally refuses an output name
that would overwrite an older PR's artifact (the history is the point).
"""

import os
import subprocess
import sys

import pytest

from repro.core.artifacts import (bench_artifacts, bench_pr_number,
                                  changes_pr_number)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestBenchPrNumber:
    @pytest.mark.parametrize("name,expected", [
        ("BENCH_PR4.json", 4),
        ("BENCH_PR10.json", 10),
        ("/some/dir/BENCH_PR7.json", 7),
        ("BENCH_PRx.json", None),
        ("BENCH_PR4.json.bak", None),
        ("bench_pr4.json", None),
        ("notes.txt", None),
    ])
    def test_parses_basenames_only(self, name, expected):
        assert bench_pr_number(name) == expected


class TestBenchArtifacts:
    def test_numeric_order_beats_lexical(self, tmp_path):
        for n in (10, 4, 9):
            (tmp_path / f"BENCH_PR{n}.json").write_text("{}")
        (tmp_path / "BENCH_PRx.json").write_text("{}")
        names = [os.path.basename(p)
                 for p in bench_artifacts(str(tmp_path))]
        assert names == ["BENCH_PR4.json", "BENCH_PR9.json",
                         "BENCH_PR10.json"]

    def test_missing_dir_is_empty(self, tmp_path):
        assert bench_artifacts(str(tmp_path / "nope")) == []

    def test_cli_compare_uses_the_shared_helper(self):
        from repro.cli import _bench_artifacts

        # same function under the hood: identical answers by module
        assert _bench_artifacts.__doc__ is not None
        src = open(os.path.join(REPO_ROOT, "src", "repro",
                                "cli.py")).read()
        assert "from .core.artifacts import bench_artifacts" in src

    def test_conftest_uses_the_shared_helper(self):
        src = open(os.path.join(REPO_ROOT, "benchmarks",
                                "conftest.py")).read()
        assert "from repro.core.artifacts import" in src
        assert "re.search" not in src        # no private reimplementation


class TestChangesPrNumber:
    def test_highest_entry_wins(self, tmp_path):
        path = tmp_path / "CHANGES.md"
        entry = "PR {}: a change\n".format
        # only lines that start with the entry count
        path.write_text(entry(1) + entry(12) + entry(9) + "see " + entry(40))
        assert changes_pr_number(str(path)) == 12

    def test_no_file_or_entry_is_none(self, tmp_path):
        assert changes_pr_number(str(tmp_path / "nope.md")) is None
        path = tmp_path / "CHANGES.md"
        path.write_text("nothing here\n")
        assert changes_pr_number(str(path)) is None


def _collect_benchmarks(output_name):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               REPRO_BENCH_OUTPUT=output_name)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "--collect-only", "--no-header", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


class TestNoClobberGuard:
    def test_older_pr_artifact_is_refused(self):
        proc = _collect_benchmarks("BENCH_PR1.json")
        assert proc.returncode != 0
        assert "would overwrite an older PR's benchmark artifact" \
            in proc.stdout

    def test_default_name_follows_changes(self):
        """Without REPRO_BENCH_OUTPUT the session writes the artifact of
        the newest CHANGES.md entry, and the guard anchors on it."""
        number = changes_pr_number(os.path.join(REPO_ROOT, "CHANGES.md"))
        proc = _collect_benchmarks("BENCH_PR1.json")
        assert f"this PR writes BENCH_PR{number}.json" in proc.stdout

    def test_own_artifact_name_is_allowed(self):
        # BENCH_PR9935.json cannot exist -> allowed trivially; the
        # interesting case (existing own-name artifact) is covered by
        # the default name during real bench sessions
        proc = _collect_benchmarks("BENCH_PR9935.json")
        assert proc.returncode == 0, proc.stdout
