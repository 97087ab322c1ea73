"""The shared BENCH_PR artifact helper and the conftest no-clobber guard.

``repro bench --compare`` and the benchmark suite's baseline discovery
both order artifacts through :mod:`repro.core.artifacts` — numeric PR
order, so ``BENCH_PR10`` beats ``BENCH_PR9`` despite sorting before it
lexically.  The benchmark conftest additionally refuses an output name
that would overwrite an older PR's artifact (the history is the point),
and writes the artifact only from a session that ran every bench
module.
"""

import json
import os
import shutil
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


class TestSubsetSessions:
    """A bench session writes its artifact only when it ran every bench
    module: a session over one module would otherwise cut the PR's
    record down to that module's benches."""

    @pytest.fixture
    def tree(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        shutil.copy(os.path.join(REPO_ROOT, "benchmarks", "conftest.py"),
                    bench)
        (bench / "__init__.py").write_text("")
        for name in ("one", "two"):
            (bench / f"test_bench_{name}.py").write_text(
                f"def test_{name}():\n    pass\n")
        (tmp_path / "CHANGES.md").write_text("PR 7: a change\n")
        return tmp_path

    @staticmethod
    def _pytest(root, target):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_BENCH_OUTPUT", None)
        return subprocess.run(
            [sys.executable, "-m", "pytest", target, "-q",
             "-p", "no:cacheprovider"],
            cwd=str(root), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    def test_a_subset_session_leaves_the_artifact_alone(self, tree):
        artifact = tree / "benchmarks" / "BENCH_PR7.json"
        artifact.write_text('{"kept": true}\n')
        proc = self._pytest(tree, "benchmarks/test_bench_one.py")
        assert proc.returncode == 0, proc.stdout
        assert artifact.read_text() == '{"kept": true}\n'
        said = [line for line in proc.stdout.splitlines()
                if "not written" in line]
        assert said == ["BENCH_PR7.json not written: this session left "
                        "out 1 of the bench modules (test_bench_two.py)"]

    def test_a_full_session_writes_it(self, tree):
        proc = self._pytest(tree, "benchmarks")
        assert proc.returncode == 0, proc.stdout
        assert "not written" not in proc.stdout
        with open(tree / "benchmarks" / "BENCH_PR7.json") as fh:
            payload = json.load(fh)
        assert sorted(nodeid.split("::")[-1]
                      for nodeid in payload["bench_wall_s"]) == \
            ["test_one", "test_two"]
