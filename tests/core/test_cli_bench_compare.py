"""CLI tests for ``repro bench --compare``, the retired ``--backend`` and
``--collapse`` flags, and the ``collapse:`` counter line."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write_bench(path, counters, wall):
    with open(path, "w") as fh:
        json.dump({"counters": counters, "bench_wall_s": wall}, fh)


class TestBenchCompare:
    def test_diffs_newest_two_by_pr_number(self, tmp_path, capsys):
        _write_bench(tmp_path / "BENCH_PR2.json",
                     {"lu_factor": 1000}, {"a": 2.0})
        _write_bench(tmp_path / "BENCH_PR4.json",
                     {"lu_factor": 100}, {"a": 1.0})
        _write_bench(tmp_path / "BENCH_PR10.json",
                     {"lu_factor": 10}, {"a": 0.5})
        assert main(["bench", "--compare", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # PR4 -> PR10 (numeric ordering, not lexicographic)
        assert "BENCH_PR4.json -> BENCH_PR10.json" in out
        assert "10.00x" in out

    def test_tolerates_missing_counter_keys(self, tmp_path, capsys):
        """Older artifacts predate newer counters (and vice versa):
        one-sided keys print as '-' instead of crashing or reading as
        a zero-vs-N regression."""
        _write_bench(tmp_path / "BENCH_PR1.json",
                     {"lu_factor": 500}, {"a": 1.0})
        _write_bench(tmp_path / "BENCH_PR2.json",
                     {"lu_factor": 50, "batched_solves": 7}, {"a": 1.0})
        assert main(["bench", "--compare", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "batched_solves" in out
        line = next(l for l in out.splitlines() if "batched_solves" in l)
        assert "-" in line and "7" in line

    def test_diffs_the_last_batched_backend_artifact(self, tmp_path,
                                                     capsys):
        """BENCH_PR14.json still carries the retired ``backend`` /
        ``backend_economics`` keys and the batched-only counters; an
        artifact of today's engine has neither, and the diff runs."""
        from repro.core.profiling import COUNTERS

        pr14 = REPO_ROOT / "benchmarks" / "BENCH_PR14.json"
        shutil.copy(pr14, tmp_path / "BENCH_PR14.json")
        _write_bench(tmp_path / "BENCH_PR15.json", COUNTERS.snapshot(),
                     {"test_bench_x": 1.0})
        assert main(["bench", "--compare", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_PR14.json -> BENCH_PR15.json" in out
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines()[1:]}
        for retired in ("batched_solves", "batch_fill", "woodbury_hits",
                        "batch_fallbacks", "delta_reassemblies"):
            assert retired not in COUNTERS.snapshot()
            assert rows[retired][1] == "-"
        assert rows["lu_factor"][1] == str(COUNTERS.lu_factor)

    def test_needs_two_artifacts(self, tmp_path, capsys):
        _write_bench(tmp_path / "BENCH_PR1.json", {}, {})
        assert main(["bench", "--compare", str(tmp_path)]) == 1

    def test_missing_directory_is_a_clean_failure(self, tmp_path,
                                                  capsys):
        """A repo without a benchmarks dir (or a typoed path) must get
        the found-0 message, not a FileNotFoundError traceback."""
        missing = str(tmp_path / "no_such_dir")
        assert main(["bench", "--compare", missing]) == 1
        err = capsys.readouterr().err
        assert "found 0" in err

    def test_legacy_scalar_wall(self, tmp_path, capsys):
        """`repro bench --json` artifacts carry a scalar wall_s."""
        for n, wall in ((1, 4.0), (2, 2.0)):
            with open(tmp_path / f"BENCH_PR{n}.json", "w") as fh:
                json.dump({"wall_s": wall, "counters": {"x": 1}}, fh)
        assert main(["bench", "--compare", str(tmp_path)]) == 0
        assert "2.00x" in capsys.readouterr().out


class TestCollapseFlag:
    """``--collapse`` is retired: every fault campaign run collapses,
    and no record shows whether it did."""

    @pytest.mark.parametrize("command", ["coverage", "campaign", "mc",
                                         "submit"])
    def test_is_a_usage_error(self, command, capsys):
        argv = [command] + (["campaign"] if command == "submit" else [])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--collapse", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --collapse" in \
            capsys.readouterr().err

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--collapse", "maybe"])

    @pytest.mark.parametrize("command", ["coverage", "campaign", "mc"])
    def test_default_is_off(self, command, tmp_path, capsys):
        """The flag's default, ``off``, evaluated every fault (die) on its
        own, and a run still reports exactly that: in-process
        (``--workers 1``) it collapses across the whole draw, yet prints
        and exports what ``--workers 2``, whose workers each collapse
        only their own share, does."""
        from repro.core.profiling import profiled

        size = ["--dies", "2"] if command == "mc" else ["--sample", "12"]
        seen = []
        for workers in ("1", "2"):
            argv = [command, *size, "--workers", workers]
            export = tmp_path / f"run{len(seen)}.json"
            if command != "coverage":
                argv += ["--export", str(export)]
            with profiled() as counters:
                assert main(argv) == 0
            if workers == "1":
                # the in-process run really went through the classes
                # (an mc die's own memo: its DC and scan tiers share
                # the link stage)
                assert counters.class_hits > 0
            out = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith(("collapse:", "wrote "))]
            seen.append((out, export.read_bytes()
                         if export.exists() else None))
        assert seen[0] == seen[1]


class TestCollapseLine:
    """Every run prints the ``collapse:`` counter line: a forked run's
    workers send their counts back with each record."""

    @pytest.mark.parametrize("flags", [
        ["--workers", "1"],
        ["--workers", "2"],
        ["--timeout", "600"],
        [],
    ], ids=["in-process", "workers-2", "timeout", "default"])
    def test_printed_at_every_worker_count(self, flags, capsys):
        from repro.core.profiling import profiled

        # a CLI process starts with zeroed counters; so does this run
        with profiled():
            assert main(["campaign", "--sample", "8", "--tiers", "dc",
                         *flags]) == 0
        out = capsys.readouterr().out
        assert "collapse:" in out

    def test_each_command_reports_its_own_run(self, capsys):
        """The counter lines are deltas from the command's start: in one
        interpreter a forked run after an in-process one prints its own
        workers' counts, one supervised worker (which takes the faults
        in item order, with one memo) prints the in-process run's, and
        a repeat prints the first run's."""
        argv = ["campaign", "--sample", "8", "--tiers", "dc"]

        def collapse_line(extra):
            assert main(argv + extra) == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("collapse:")]
            return lines[0] if lines else None

        first = collapse_line(["--workers", "1"])
        assert first is not None
        assert collapse_line(["--workers", "2"]) is not None
        assert collapse_line(["--workers", "1", "--timeout", "600"]) == first
        assert collapse_line(["--workers", "1"]) == first


class TestBackendFlagRetired:
    @pytest.mark.parametrize("command", ["coverage", "campaign", "mc",
                                         "bench", "submit"])
    def test_is_a_usage_error(self, command, capsys):
        argv = [command] + (["campaign"] if command == "submit" else [])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--backend", "serial"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in \
            capsys.readouterr().err


class TestFaultsCommand:
    def test_prints_the_universe_summary(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "structural faults" in out
        assert "by block:" in out
        assert "by kind:" in out

    def test_classes_flag_parses(self):
        args = build_parser().parse_args(["faults", "--classes"])
        assert args.classes
