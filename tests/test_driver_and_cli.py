"""The SafeFlow facade, report rendering, and the command line."""

import json

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.cli import main as cli_main
from repro.core.driver import _count_loc
from tests.conftest import FIGURE2_SOURCE, analyze


class TestFacade:
    def test_analyze_source_end_to_end(self, figure2_report):
        counts = figure2_report.counts()
        assert counts["warnings"] == 1
        # the paper's running-example dependency: output <- feedback
        assert counts["errors"] + counts["false_positives"] == 1

    def test_analyze_files(self, tmp_path):
        path = tmp_path / "core.c"
        path.write_text(FIGURE2_SOURCE)
        report = SafeFlow().analyze_files([str(path)], name="fig2")
        assert len(report.warnings) == 1

    def test_multi_file_program(self, tmp_path):
        (tmp_path / "shm.c").write_text("""
            typedef struct { double v; } R;
            R *nc;
            void initShm(void)
            /***SafeFlow Annotation shminit /***/
            {
                nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
                /***SafeFlow Annotation
                    assume(shmvar(nc, sizeof(R)));
                    assume(noncore(nc)) /***/
            }
        """)
        (tmp_path / "main.c").write_text("""
            typedef struct { double v; } R;
            extern R *nc;
            void initShm(void);
            void emit(double v);
            int main(void) {
                double x;
                initShm();
                x = nc->v;
                /***SafeFlow Annotation assert(safe(x)); /***/
                emit(x);
                return 0;
            }
        """)
        report = SafeFlow().analyze_files(
            [str(tmp_path / "shm.c"), str(tmp_path / "main.c")]
        )
        assert len(report.errors) == 1

    def test_report_render_contains_summary(self, figure2_report):
        text = figure2_report.render(verbose=True)
        assert "SafeFlow report" in text
        assert "warning" in text

    def test_passed_flag(self):
        report = analyze("int main(void) { return 0; }")
        assert report.passed

    def test_stats_populated(self, figure2_report):
        stats = figure2_report.stats
        assert stats.functions == 4
        assert stats.shm_regions == 2
        assert stats.noncore_regions == 2
        assert stats.loc_total > 0

    def test_restrictions_can_be_skipped(self):
        source = FIGURE2_SOURCE.replace(
            "output = decision(feedback, safeControl, noncoreCtrl);",
            "output = decision(feedback, safeControl, noncoreCtrl);"
            " shmdt(feedback);",
        )
        strict = analyze(source)
        assert any(v.rule == "P1" for v in strict.violations)
        relaxed = analyze(source, AnalysisConfig(check_restrictions=False))
        assert relaxed.violations == []


class TestLocCounter:
    def test_blank_and_comment_lines_ignored(self):
        text = "int a;\n\n/* comment */\n// line\nint b;\n"
        assert _count_loc(text) == 2

    def test_multiline_comment_ignored(self):
        text = "int a;\n/* one\n two\n three */\nint b;\n"
        assert _count_loc(text) == 2

    def test_code_after_comment_close_counted(self):
        text = "/* x\n y */ int a;\n"
        assert _count_loc(text) == 1


class TestCli:
    def test_analyze_json(self, tmp_path, capsys):
        path = tmp_path / "core.c"
        path.write_text(FIGURE2_SOURCE)
        rc = cli_main(["analyze", str(path), "--json"])
        assert rc == 1  # an error dependency was found
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["warnings"] == 1
        assert not payload["passed"]

    def test_default_cache_dir_is_the_runs_own(self, tmp_path,
                                               private_cache_dir):
        path = tmp_path / "core.c"
        path.write_text(FIGURE2_SOURCE)
        assert cli_main(["analyze", str(path)]) == 1
        assert list((private_cache_dir / "ir").glob("*.pkl"))

    def test_analyze_clean_program_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int main(void) { return 0; }")
        assert cli_main(["analyze", str(path)]) == 0

    def test_batch_run_again_on_its_cache_dir_replays(self, tmp_path,
                                                      capsys):
        paths = []
        for i in range(2):
            path = tmp_path / f"core{i}.c"
            path.write_text(FIGURE2_SOURCE)
            paths.append(str(path))
        args = ["batch", "--jobs", "1", "--json",
                "--cache-dir", str(tmp_path / "cache"), *paths]
        runs = []
        for _ in range(2):
            cli_main(args)
            runs.append(json.loads(capsys.readouterr().out))
        replayed = [[bool(job["report"]["stats"].get("verdict_replayed"))
                     for job in run["jobs"]] for run in runs]
        assert replayed == [[False, False], [True, True]]
        assert "resumed_jobs" not in runs[1]
        for cold, warm in zip(runs[0]["jobs"], runs[1]["jobs"]):
            assert cold["report"]["errors"] == warm["report"]["errors"]
            assert cold["report"]["warnings"] == warm["report"]["warnings"]

    def test_analyze_dot_export(self, tmp_path):
        src = tmp_path / "core.c"
        src.write_text(FIGURE2_SOURCE)
        dot = tmp_path / "vfg.dot"
        cli_main(["analyze", str(src), "--dot", str(dot)])
        assert "digraph" in dot.read_text()

    def test_corpus_command_matches(self, capsys):
        rc = cli_main(["corpus", "ip"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out

    def test_table1_command(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Generic Simplex" in out

    def test_demo_protected(self, capsys):
        rc = cli_main(["demo", "--duration", "3.0"])
        assert rc == 0
        assert "recoverable" in capsys.readouterr().out

    def test_demo_rigged_and_trusting_falls(self, capsys):
        rc = cli_main(["demo", "--duration", "4.0", "--rigged", "--trusting"])
        assert rc == 1
        assert "FELL" in capsys.readouterr().out

    def test_nonexistent_file_reports_error(self, capsys):
        rc = cli_main(["analyze", "/nonexistent/file.c"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCliErrorReporting:
    """Exit-code and error-reporting consistency: tool failures exit 2
    with a structured entry per failed job, never a traceback spray."""

    BROKEN = "int main(void) { return 0;"  # unbalanced brace

    def test_batch_broken_file_exits_2_without_traceback(
            self, tmp_path, capsys):
        good = tmp_path / "good.c"
        good.write_text("int main(void) { return 0; }")
        bad = tmp_path / "bad.c"
        bad.write_text(self.BROKEN)
        rc = cli_main(["batch", str(good), str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "ERROR" in captured.out          # structured per-job line
        assert "PASS" in captured.out           # sibling still reported
        assert "job(s) failed" in captured.err
        assert "Traceback" not in captured.out
        assert "Traceback" not in captured.err

    def test_batch_missing_file_exits_2_without_traceback(
            self, tmp_path, capsys):
        rc = cli_main(["batch", str(tmp_path / "absent.c")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "ERROR" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_batch_timeout_exits_2_with_structured_entries(
            self, tmp_path, capsys):
        for name in ("one.c", "two.c"):
            (tmp_path / name).write_text(FIGURE2_SOURCE)
        rc = cli_main(["batch", str(tmp_path / "one.c"),
                       str(tmp_path / "two.c"), "--jobs", "2",
                       "--timeout", "0.000001"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "timed out" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_batch_json_errors_stay_machine_readable(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text(self.BROKEN)
        rc = cli_main(["batch", str(bad), "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        payload = json.loads(captured.out)
        job = payload["jobs"][0]
        assert job["ok"] is False
        assert job["report"] is None
        assert "ParseError" in job["error"]
        assert "\n" not in job["error"]         # one concise line
        assert "Traceback" in job["detail"]     # full context preserved
