"""One keep-going mode: ``AnalysisConfig.recover_tiers`` and its three
states, and the one per-file front-end path ``analyze`` and ``watch``
share.

``None`` is strict, ``()`` is ``--keep-going`` (the recovery ladder with
zero tiers) and a non-empty tuple is ``--recover``. IR-cache keys of
strict and keep-going runs keep the plain ``False``/``True`` token they
always carried; the config fingerprint tells all three apart.
"""

import json

import pytest

from repro import AnalysisConfig, SafeFlow
from repro.cli import main as cli_main
from repro.degrade import KIND_UNIT
from repro.errors import PreprocessorError
from repro.frontend.driver import recover_token
from repro.frontend.recovery import DEFAULT_TIERS, recovery_fingerprint
from repro.incremental.watcher import IncrementalSession
from repro.perf.fingerprint import config_fingerprint
from tests.conftest import FIGURE2_SOURCE

OK = "int ok(int a) { return a + 1; }\n"
#: "é" in latin-1: not valid UTF-8
LATIN1 = "/* caf\xe9 */\nint legacy(int a) { return a - 1; }\n".encode(
    "latin-1")

STATES = [None, (), DEFAULT_TIERS]


class TestOneField:
    def test_default_is_strict(self):
        assert AnalysisConfig().recover_tiers is None

    def test_ir_cache_token_of_each_state(self):
        assert recover_token(None) is False
        assert recover_token(()) is True
        assert recover_token(DEFAULT_TIERS) == (
            f"True+recovery[{recovery_fingerprint(DEFAULT_TIERS)}]")

    def test_config_fingerprints_pairwise_distinct(self):
        prints = {config_fingerprint(AnalysisConfig(recover_tiers=state))
                  for state in STATES}
        assert len(prints) == len(STATES)

    @pytest.mark.parametrize("flags, state", [
        ([], None),
        (["--keep-going"], ()),
        (["--recover"], DEFAULT_TIERS),
        (["--keep-going", "--recover", "gnu"], ("gnu",)),
    ], ids=["strict", "keep-going", "recover", "both"])
    def test_cli_flags_map_to_one_value(self, flags, state, tmp_path,
                                        monkeypatch):
        seen = []
        real = SafeFlow.analyze_files

        def spy(self, paths, name="program"):
            seen.append(self.config.recover_tiers)
            return real(self, paths, name=name)

        monkeypatch.setattr(SafeFlow, "analyze_files", spy)
        path = tmp_path / "ok.c"
        path.write_text(OK)
        cli_main(["analyze", str(path), "--no-cache", *flags])
        assert seen == [state]


def _inputs(tmp_path):
    bad = tmp_path / "latin1.c"
    bad.write_bytes(LATIN1)
    ok = tmp_path / "ok.c"
    ok.write_text(OK)
    return str(bad), str(ok)


class TestUndecodableFile:
    def test_strict_analyze_is_a_tool_error(self, tmp_path, capsys):
        bad, ok = _inputs(tmp_path)
        with pytest.raises(PreprocessorError):
            SafeFlow().analyze_files([bad, ok])
        assert cli_main(["analyze", "--no-cache", bad, ok]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_strict_session_raises_the_same_error(self, tmp_path):
        bad, ok = _inputs(tmp_path)
        session = IncrementalSession(
            [bad, ok], config=AnalysisConfig(summary_mode=True))
        with pytest.raises(PreprocessorError):
            session.verdict()

    def test_keep_going_analyze_loses_only_that_unit(self, tmp_path,
                                                     capsys):
        bad, ok = _inputs(tmp_path)
        rc = cli_main(["analyze", "--no-cache", "--keep-going", "--json",
                       bad, ok])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # degraded, never certified
        assert payload["verdict"] == "degraded"
        assert [(d["kind"], d["name"]) for d in payload["degraded"]] == [
            (KIND_UNIT, bad)]
        assert payload["stats"]["functions"] >= 1  # ok.c was analyzed

    @pytest.mark.parametrize("state", [(), DEFAULT_TIERS],
                             ids=["keep-going", "recover"])
    def test_session_and_analyze_agree(self, state, tmp_path):
        bad, ok = _inputs(tmp_path)
        config = AnalysisConfig(summary_mode=True, recover_tiers=state)
        cold = SafeFlow(config).analyze_files([bad, ok])
        watched = IncrementalSession([bad, ok], config=config).verdict()
        assert [d.kind for d in cold.degraded] == [KIND_UNIT]
        assert watched.degraded == cold.degraded
        assert watched.render(verbose=True) == cold.render(verbose=True)


class TestMemoizedVerdict:
    def test_no_change_verdict_does_not_share_lists(self, tmp_path):
        path = tmp_path / "figure2.c"
        path.write_text(FIGURE2_SOURCE)
        session = IncrementalSession(
            [str(path)], config=AnalysisConfig(summary_mode=True))
        first = session.verdict()
        assert len(first.warnings) == 1
        first.warnings.clear()
        first.errors.clear()
        again = session.verdict()
        assert session.memo_verdicts == 1
        assert len(again.warnings) == 1
        assert again.errors
        again.degraded.append(None)
        assert session.verdict().degraded == []
