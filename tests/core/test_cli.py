"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_eye_defaults(self):
        args = build_parser().parse_args(["eye"])
        assert args.rate == 2.5e9
        assert args.length_mm == 10.0

    def test_lock_options(self):
        args = build_parser().parse_args(
            ["lock", "--phase", "3", "--trace"])
        assert args.phase == 3
        assert args.trace

    def test_netlist_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["netlist", "flux_capacitor"])

    @pytest.mark.parametrize("command", ["coverage", "campaign", "bench",
                                         "patterns"])
    def test_negative_sample_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--sample", "-3"])
        assert exc.value.code == 2
        assert "sample must be >= 0" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, message", [
        (["campaign", "--timeout", "0"], "timeout must be > 0, got 0.0"),
        (["campaign", "--retries", "-1"], "retries must be >= 0, got -1"),
        (["mc", "--timeout", "-2"], "timeout must be > 0, got -2.0"),
        (["mc", "--retries", "-1"], "retries must be >= 0, got -1"),
        (["mc", "--dies", "0"], "dies must be >= 1, got 0"),
        (["submit", "mc", "--dies", "0"], "dies must be >= 1, got 0"),
        (["serve", "--timeout", "0"], "timeout must be > 0, got 0.0"),
        (["serve", "--lease-ttl", "-1"], "lease-ttl must be > 0, got -1.0"),
        (["serve", "--lease-ttl", "nan"], "lease-ttl must be > 0, got nan"),
        (["serve", "--poll", "-0.5"], "poll must be >= 0, got -0.5"),
        (["serve", "--retries", "-1"], "retries must be >= 0, got -1"),
        (["serve", "--shard-retries", "-1"],
         "shard-retries must be >= 0, got -1"),
        (["serve", "--retry-backoff", "-1"],
         "retry-backoff must be >= 0, got -1.0"),
        (["serve", "--timeout", "soon"], "invalid float value: 'soon'"),
        (["campaign", "--sample", "3", "--tiers", "dc", "--workers", "-2"],
         "workers must be >= 1, got -2"),
        (["campaign", "--workers", "0"], "workers must be >= 1, got 0"),
        (["coverage", "--workers", "0"], "workers must be >= 1, got 0"),
        (["mc", "--workers", "0"], "workers must be >= 1, got 0"),
        (["patterns", "--workers", "0"], "workers must be >= 1, got 0"),
        (["bench", "--workers", "0"], "workers must be >= 1, got 0"),
        (["submit", "mc", "--workers", "0"], "workers must be >= 1, got 0"),
        (["submit", "campaign", "--sample", "-1"],
         "sample must be >= 0, got -1"),
        (["submit", "campaign", "--shards", "0"],
         "shards must be >= 1, got 0"),
        (["serve", "--workers", "-1"], "workers must be >= 1, got -1"),
    ])
    def test_bad_supervision_value_is_a_usage_error(self, argv, message,
                                                    capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--dies", "2", "--sigma-vt", "-5"],
         "sigma-vt must be >= 0, got -5.0"),
        (["mc", "--dies", "2", "--sigma-kp", "-0.5"],
         "sigma-kp must be >= 0, got -0.5"),
        (["submit", "mc", "--sigma-vt", "-5"],
         "sigma-vt must be >= 0, got -5.0"),
        (["submit", "mc", "--sigma-kp", "nan"],
         "sigma-kp must be >= 0, got nan"),
    ])
    def test_negative_mismatch_sigma_is_a_usage_error(self, argv, message,
                                                      tmp_path, capsys):
        """A negative sigma would mirror every draw: refused before
        any die runs or any job is queued."""
        root = str(tmp_path / "svc")
        extra = ["--root", root] if argv[0] == "submit" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "svc").exists()

    @pytest.mark.parametrize("command", [["mc"], ["submit", "mc"]])
    def test_zero_mismatch_sigmas_parse(self, command):
        args = build_parser().parse_args(
            command + ["--sigma-vt", "0", "--sigma-kp", "0"])
        assert (args.sigma_vt, args.sigma_kp) == (0.0, 0.0)

    @pytest.mark.parametrize("argv", [
        ["serve", "--timeout", "0.5", "--retries", "0",
         "--shard-retries", "0", "--retry-backoff", "0", "--poll", "0",
         "--lease-ttl", "0.1"],
        ["mc", "--dies", "1", "--timeout", "1e-3", "--retries", "0"],
    ])
    def test_boundary_supervision_values_parse(self, argv):
        build_parser().parse_args(argv)

    def test_serve_with_a_bad_timeout_claims_nothing(self, tmp_path,
                                                     capsys):
        """The bad value is refused before the serve loop claims the
        queued job, which stays queued for a good serve loop."""
        from repro.service import JobQueue

        root = str(tmp_path / "svc")
        assert main(["submit", "campaign", "--root", root,
                     "--sample", "2"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--root", root, "--once", "--timeout", "0"])
        assert exc.value.code == 2
        assert [doc["state"] for doc in JobQueue(root).jobs()] == ["queued"]


class TestCommands:
    def test_eye_passes_at_paper_point(self, capsys):
        assert main(["eye"]) == 0
        out = capsys.readouterr().out
        assert "equalized" in out and "CLOSED" in out

    def test_eye_fails_when_link_infeasible(self, capsys):
        # 20 mm at 4 Gbps: even the FFE cannot keep the eye open
        rc = main(["eye", "--rate", "4e9", "--length-mm", "20"])
        assert rc == 1

    def test_overhead(self, capsys):
        assert main(["overhead", "-v"]) == 0
        out = capsys.readouterr().out
        assert "Flip-flop" in out and "provenance" in out

    def test_dc(self, capsys):
        assert main(["dc"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lock_with_trace(self, capsys):
        assert main(["lock", "--phase", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "locked              : True" in out
        assert "# t_ns vc_V phase_idx" in out

    def test_netlist_to_stdout(self, capsys):
        assert main(["netlist", "comparator"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("*")
        assert ".end" in out

    def test_netlist_to_file_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "vcdl.sp"
        assert main(["netlist", "vcdl", "-o", str(path)]) == 0
        from repro.analog import load_spice

        c = load_spice(str(path))
        assert len(c.elements_of_type(type(c["vcdl_MN0"]))) >= 10

    @pytest.mark.parametrize("patterns, message", [
        (",", "empty pattern sweep"),
        ("", "empty pattern sweep"),
        ("prbs7,morse", "unknown pattern 'morse'"),
        ("prbs7,isi,prbs7", "duplicate pattern in sweep"),
    ], ids=["comma", "empty", "unknown", "duplicate"])
    def test_patterns_rejects_a_bad_sweep(self, patterns, message, capsys):
        """One line on stderr and exit 1, as ``campaign --tiers ,``."""
        assert main(["patterns", "--patterns", patterns]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("command", ["campaign", "mc"])
    @pytest.mark.parametrize("tiers, message", [
        ("nope", "unknown tier 'nope'"),
        ("dc,dc", "duplicate tier name 'dc'"),
        ("dc,bist@morse", "unknown pattern 'morse'"),
        ("dc@isi", "tier 'dc' takes no pattern"),
        ("bist@prbs7", "tier 'bist@prbs7' is spelled 'bist'"),
        (",", "no tiers requested"),
    ], ids=["unknown", "duplicate", "unknown-pattern", "no-pattern",
            "default-pattern", "empty"])
    def test_rejects_a_bad_tier_list(self, command, tiers, message, capsys):
        """One line on stderr and exit 1, before anything is simulated."""
        assert main([command, "--tiers", tiers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    def test_coverage_sampled(self, capsys):
        assert main(["coverage", "--sample", "6", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Test tier" in out
        assert "stratified sample" in out

    def test_coverage_is_campaign(self, capsys):
        """``coverage`` is another name for ``campaign``: its flags parse
        to the same command, and a run prints what ``campaign`` prints,
        the ``overall:`` line included."""
        from repro.cli import cmd_campaign

        args = build_parser().parse_args(
            ["coverage", "--sample", "6", "--seed", "4", "--progress",
             "--workers", "2"])
        assert args.func is cmd_campaign
        assert (args.sample, args.seed, args.progress, args.workers) == \
            (6, 4, True, 2)
        outs = []
        for command in ("coverage", "campaign"):
            assert main([command, "--sample", "6", "--tiers", "dc"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "overall:" in outs[0]


class TestOutcomeLines:
    """``repro campaign`` words each abnormal outcome once, below the
    tier rows, whatever the tier list."""

    @pytest.mark.parametrize("tiers", [[], ["--tiers", "dc"]],
                             ids=["default", "dc"])
    def test_quarantined_fault_printed_once(self, tiers, monkeypatch,
                                            capsys):
        import os

        from repro.core import failpoints

        parent = os.getpid()

        def kill_third_item(index):
            if os.getpid() != parent and index == 2:
                os._exit(3)

        monkeypatch.setitem(failpoints._ARMED, "supervisor.pre_evaluate",
                            kill_third_item)
        assert main(["campaign", "--sample", "6", "--workers", "2",
                     "--retries", "0", *tiers]) == 0
        lines = capsys.readouterr().out.splitlines()
        outcome = [line for line in lines if "quarantined" in line]
        assert outcome == ["  supervisor: 1 fault(s) quarantined — "
                           "unreached tiers counted undetected"]
        assert lines.index(outcome[0]) < \
            next(i for i, line in enumerate(lines)
                 if line.startswith("overall:"))
