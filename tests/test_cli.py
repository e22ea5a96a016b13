"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import _store_dirs, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "sobel"])
        assert args.backend == "both"
        assert not args.show_programs

    def test_isa_filters(self):
        args = build_parser().parse_args(
            ["isa", "--target", "neon", "--group", "narrow"])
        assert args.target == "neon"
        assert args.group == "narrow"

    def test_compile_engine_flags(self):
        args = build_parser().parse_args(
            ["compile", "sobel", "--stats-json", "s.json",
             "--cache-dir", "/tmp/c"])
        assert args.stats_json == "s.json"
        assert args.cache_dir == "/tmp/c"
        assert not args.cache

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["compile", "sobel"])
        assert not hasattr(args, "jobs")
        assert args.stats_json is None
        assert args.cache_dir is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8347
        assert args.port_file is None
        assert not args.quiet

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--queue-size", "16",
             "--cache-dir", "/tmp/c", "--port-file", "p.txt", "--quiet"])
        assert args.port == 0
        assert args.workers == 4
        assert args.queue_size == 16
        assert args.port_file == "p.txt"
        assert args.quiet

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "sobel", "--url", "http://127.0.0.1:9000",
             "--priority", "3", "--deadline", "30", "--wait"])
        assert args.workload == "sobel"
        assert args.url == "http://127.0.0.1:9000"
        assert args.priority == 3
        assert args.deadline == 30.0
        assert args.wait

    def test_status_job_optional(self):
        assert build_parser().parse_args(["status"]).job is None
        assert build_parser().parse_args(["status", "abc123"]).job == "abc123"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sobel" in out and "depthwise_conv" in out
        assert out.count("\n") >= 22

    def test_isa_all(self, capsys):
        assert main(["isa"]) == 0
        out = capsys.readouterr().out
        assert "vtmpy" in out and "neon.vmlal" in out

    def test_isa_neon_only(self, capsys):
        assert main(["isa", "--target", "neon"]) == 0
        out = capsys.readouterr().out
        assert "neon.vmull" in out
        assert "\nvtmpy" not in out

    def test_isa_group_filter(self, capsys):
        assert main(["isa", "--target", "hvx", "--group", "sliding"]) == 0
        out = capsys.readouterr().out
        assert "vtmpy" in out
        assert "vadd " not in out

    def test_compile_unknown_workload(self, capsys):
        assert main(["compile", "nonexistent"]) == 2

    def test_compile_baseline_only(self, capsys):
        assert main(["compile", "mul", "--backend", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_compile_both_reports_speedup(self, capsys):
        assert main(["compile", "mul", "--backend", "both",
                     "--show-programs"]) == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "vmpy" in out  # a program listing was printed

    def test_speedups_single(self, capsys):
        assert main(["speedups", "--only", "dilate3x3"]) == 0
        out = capsys.readouterr().out
        assert "dilate3x3" in out and "geomean" in out

    def test_compile_engine_summary_and_stats_json(self, capsys, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        assert main(["compile", "mul", "--backend", "rake",
                     "--stats-json", str(stats_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "synthesis engine:" in out
        assert "hit rate" in out
        stats = json.loads(stats_path.read_text())
        assert stats["totals"]["queries"] > 0
        assert set(stats["stages"]) == {
            "lifting", "sketching", "swizzling", "verify"}
        assert (tmp_path / "cache" / "oracle.jsonl").exists()

    def test_compile_warm_cache_all_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compile", "mul", "--backend", "rake",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["compile", "mul", "--backend", "rake",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "100% hit rate" in out


class TestErrorHandling:
    """Operator mistakes get one-line errors and a nonzero exit — never a
    traceback."""

    def _blocked_path(self, tmp_path, *more):
        # A path whose parent is a *file*: unwritable even when the test
        # runs as root (which ignores permission bits).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return str(blocker.joinpath(*more))

    def test_unknown_workload_message(self, capsys):
        assert main(["compile", "nonexistent"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload")
        assert "repro list" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_speedups_unknown_only(self, capsys):
        assert main(["speedups", "--only", "mul", "nonexistent"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "nonexistent" in err
        assert "Traceback" not in err

    def test_unwritable_cache_dir(self, capsys, tmp_path):
        bad = self._blocked_path(tmp_path, "cache")
        assert main(["compile", "mul", "--cache-dir", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_stats_json(self, capsys, tmp_path):
        bad = self._blocked_path(tmp_path, "stats.json")
        assert main(["compile", "mul", "--stats-json", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_stats_json_probe_keeps_existing_file(self, capsys, tmp_path):
        # The writability probe must not clobber a file that already has
        # content: probing opens in append mode.
        stats = tmp_path / "stats.json"
        stats.write_text("precious")
        assert main(["compile", "nonexistent",
                     "--stats-json", str(stats)]) == 2
        assert stats.read_text() == "precious"

    def test_submit_unreachable_server(self, capsys):
        # Port 1 is reserved and closed; connection is refused instantly.
        assert main(["submit", "mul", "--url", "http://127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach compile server")
        assert "Traceback" not in err

    def test_status_unreachable_server(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace", "mul"])
        assert args.backend == "rake"
        assert not hasattr(args, "jobs")
        assert args.depth == 4
        assert args.format == "chrome"
        assert args.trace_out is None

    def test_global_logging_flags(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-json", "list"])
        assert args.log_level == "debug"
        assert args.log_json

    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "mul"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "pipeline.compile" in out
        assert "lifting" in out

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        from repro.trace.export import validate_chrome_trace

        path = tmp_path / "t.json"
        assert main(["trace", "mul", "--trace-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"pipeline.compile", "lifting", "sketch", "swizzle",
                "oracle.query"} <= names

    def test_trace_flame_format(self, capsys, tmp_path):
        path = tmp_path / "flame.txt"
        assert main(["trace", "mul", "--trace-out", str(path),
                     "--format", "flame"]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_trace_unknown_workload(self, capsys):
        assert main(["trace", "nonexistent"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err

    def test_compile_trace_out(self, capsys, tmp_path):
        import json

        from repro.trace.export import validate_chrome_trace

        path = tmp_path / "c.json"
        assert main(["compile", "mul", "--backend", "rake",
                     "--trace-out", str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(path.read_text())) == []


@pytest.mark.parametrize("argv", [["compile", "mul"], ["serve"],
                                  ["mine-rules"]],
                         ids=lambda argv: argv[0])
def test_store_directory_rules(argv, tmp_path, monkeypatch, capsys):
    """compile, serve and mine-rules resolve their cache, rules and
    telemetry directories by the same rules."""
    default = str(tmp_path / "default")
    monkeypatch.setenv("REPRO_CACHE_DIR", default)
    mining = argv[0] == "mine-rules"
    cache, rules, telemetry = (str(tmp_path / name)
                               for name in ("c", "r", "t"))

    def dirs(*flags):
        return _store_dirs(build_parser().parse_args(argv + list(flags)))

    # --cache-dir beats --cache, which beats no flag.
    assert dirs()[0] is None
    assert dirs("--cache")[0] == default
    assert dirs("--cache", "--cache-dir", cache)[0] == cache
    # --rules-dir implies --rules unless --no-rules is given; rules
    # default to the cache dir, else the default cache dir.
    assert dirs("--rules-dir", rules)[1] == rules
    if mining:
        assert dirs()[1] == default
        assert dirs("--cache-dir", cache)[1] == cache
        assert dirs()[2] is None
    else:
        assert dirs()[1] is None
        assert dirs("--rules")[1] == default
        assert dirs("--rules", "--cache-dir", cache)[1] == cache
        assert dirs("--no-rules", "--rules-dir", rules)[1] is None
        # --telemetry-dir implies --telemetry.
        assert dirs()[2] is None
        assert dirs("--telemetry-dir", telemetry)[2] == telemetry
        assert dirs("--telemetry")[2] == os.path.join(default, "telemetry")
    # An unwritable directory is a one-line error that names the flag.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    bad = str(blocker / "sub")
    cases = [("--cache-dir", ["--cache-dir", bad]),
             ("--rules-dir" if mining else "--rules", ["--rules-dir", bad])]
    if not mining:
        cases.append(("--telemetry", ["--telemetry-dir", bad]))
    for flag, flags in cases:
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert err.count("\n") == 1
