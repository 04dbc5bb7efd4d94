"""Checksum-framed cache entries: corruption is detected, evicted, and
silently recomputed — never trusted, never fatal."""

import hashlib
import os
import pickle
import struct

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SafeFlow
from repro.incremental.segments import SegmentStore
from repro.perf.integrity import (
    HEADER_LEN, MAGIC, IntegrityError, frame, read_frame_log, read_sealed,
    seal, unseal, write_sealed,
)
from repro.resilience import faults

from tests.perf.test_cache_correctness import SIMPLE


class TestSealUnseal:
    def test_roundtrip(self):
        payload = b"x" * 1000
        blob = seal(payload)
        assert blob.startswith(MAGIC)
        assert len(blob) == HEADER_LEN + len(payload)
        assert unseal(blob) == payload

    def test_flipped_payload_byte_is_detected(self):
        blob = bytearray(seal(b"hello cache"))
        blob[-1] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal(bytes(blob))

    def test_flipped_digest_byte_is_detected(self):
        blob = bytearray(seal(b"hello cache"))
        blob[len(MAGIC)] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal(bytes(blob))

    def test_truncation_is_detected(self):
        blob = seal(b"a longer payload that will be torn")
        with pytest.raises(IntegrityError):
            unseal(blob[: len(blob) // 2])

    def test_legacy_unframed_entry_is_rejected(self):
        # entries written before the checksum frame are raw pickles:
        # no magic, so they fail closed and get recomputed
        with pytest.raises(IntegrityError):
            unseal(pickle.dumps({"legacy": True}))


class TestIRCacheSelfHeal:
    """A request reads the verdict record first and the program record
    only when no verdict record answers: each case damages the record
    its next request reads."""

    def _config(self, tmp_path):
        return AnalysisConfig(cache_dir=str(tmp_path / "cache"))

    def _program_record_next(self, config):
        """Drop the verdict record, so the next request reads the
        program record."""
        path = faults.ir_record(config.cache_dir, "verdict")
        assert path is not None
        os.remove(path)

    def test_corrupt_entry_is_evicted_and_recomputed(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        assert cold.stats.cache_integrity_evictions == 0

        assert faults.corrupt_ir_entry(config.cache_dir,
                                       "program") is not None
        self._program_record_next(config)
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        assert healed.stats.frontend_cache_hits == 0

        # the eviction rewrote the entry: the next run hits again
        warm = SafeFlow(config).analyze_source(SIMPLE)
        assert warm.render(verbose=True) == cold.render(verbose=True)
        assert warm.stats.frontend_cache_hits >= 1
        assert warm.stats.cache_integrity_evictions == 0

    def test_truncated_entry_is_evicted_and_recomputed(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        assert faults.truncate_ir_entry(config.cache_dir) is not None
        self._program_record_next(config)
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1

    def test_legacy_raw_pickle_entry_is_evicted(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        self._program_record_next(config)
        ir_dir = os.path.join(config.cache_dir, "ir")
        names = [n for n in os.listdir(ir_dir) if n.endswith(".pkl")]
        assert names
        _strip_frame(os.path.join(ir_dir, names[0]))
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1

    def test_corrupt_verdict_record_is_evicted_and_recomputed(
            self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)

        assert faults.corrupt_ir_entry(config.cache_dir) is not None
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        # recomputed on the program record
        assert not healed.stats.verdict_replayed
        assert healed.stats.frontend_cache_hits == 1

        # the recompute rewrote the record: the next run replays it
        warm = SafeFlow(config).analyze_source(SIMPLE)
        assert warm.render(verbose=True) == cold.render(verbose=True)
        assert warm.stats.verdict_replayed
        assert warm.stats.cache_integrity_evictions == 0

    def test_truncated_verdict_record_is_evicted_and_recomputed(
            self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        assert faults.truncate_ir_entry(config.cache_dir,
                                        "verdict") is not None
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        assert not healed.stats.verdict_replayed

    def test_legacy_raw_pickle_verdict_record_is_evicted(self, tmp_path):
        config = self._config(tmp_path)
        cold = SafeFlow(config).analyze_source(SIMPLE)
        _strip_frame(faults.ir_record(config.cache_dir, "verdict"))
        healed = SafeFlow(config).analyze_source(SIMPLE)
        assert healed.render(verbose=True) == cold.render(verbose=True)
        assert healed.stats.cache_integrity_evictions >= 1
        assert not healed.stats.verdict_replayed


def _strip_frame(path):
    """Rewrite a sealed record as its bare payload: a pre-checksum
    entry."""
    with open(path, "rb") as f:
        payload = unseal(f.read())
    with open(path, "wb") as f:
        f.write(payload)


def _layout_seal(payload: bytes) -> bytes:
    """The sealed-file layout, spelled out without the codec."""
    return b"SFCK1\n" + hashlib.sha256(payload).digest() + payload


def _layout_frame(record) -> bytes:
    sealed = _layout_seal(pickle.dumps(record,
                                       protocol=pickle.HIGHEST_PROTOCOL))
    return struct.pack(">I", len(sealed)) + sealed


class TestCodecLayout:
    """The bytes every store writes are pinned, so stores written
    before the codec was shared still load."""

    def test_sealed_file_is_magic_digest_payload(self, tmp_path):
        payload = b"fixed payload \x00\xff"
        assert MAGIC == b"SFCK1\n"
        assert seal(payload) == _layout_seal(payload)
        path = str(tmp_path / "entry.pkl")
        assert write_sealed(path, payload)
        with open(path, "rb") as f:
            assert f.read() == _layout_seal(payload)
        assert read_sealed(path) == (payload, False)

    def test_log_frames_are_length_then_sealed(self):
        record = ("segment", "k", {"a": 1})
        assert frame(record) == _layout_frame(record)

    def test_hand_built_stores_load(self, tmp_path):
        from repro.incremental.segments import SEGMENT_FORMAT_VERSION
        from repro.perf.fingerprint import code_digest

        log = tmp_path / "seg"
        log.mkdir()
        with open(log / "segments.log", "wb") as f:
            f.write(_layout_frame(("header", {
                "format": SEGMENT_FORMAT_VERSION, "code": code_digest()})))
            f.write(_layout_frame(("closures", {"f": "fp-f"})))
        store = SegmentStore(str(log))
        assert store.integrity_evictions == 0
        assert store._closures == {"f": "fp-f"}

    def test_torn_frame_log_is_cut_to_its_intact_prefix(self, tmp_path):
        path = tmp_path / "log"
        intact = _layout_frame(("a",)) + _layout_frame(("b",))
        with open(path, "wb") as f:
            f.write(intact + _layout_frame(("c",))[:-3])
        assert read_frame_log(str(path)) == ([("a",), ("b",)], True)
        assert path.read_bytes() == intact
        assert read_frame_log(str(path)) == ([("a",), ("b",)], False)


class TestDurableVerdictWrite:
    """A batch run again after a crash resumes from verdict records, so
    their write is fsynced, file and directory; program records are a
    cache and are not."""

    @staticmethod
    def _synced(monkeypatch):
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    def test_store_verdict_fsyncs_the_record_and_its_directory(
            self, tmp_path, monkeypatch):
        from repro.perf.ircache import IRCache

        cache = IRCache(str(tmp_path))
        synced = self._synced(monkeypatch)
        assert cache.store_verdict("k", "fp", [], {"verdict": 1})
        (name,) = os.listdir(cache.directory)
        record = os.path.join(cache.directory, name)
        assert name.endswith(".verdict")
        assert synced == [os.stat(record).st_ino,
                          os.stat(cache.directory).st_ino]

    def test_program_store_does_not_fsync(self, tmp_path, monkeypatch):
        from repro.frontend.driver import load_source
        from repro.perf.ircache import IRCache

        cache = IRCache(str(tmp_path))
        program = load_source(SIMPLE, filename="simple.c")
        synced = self._synced(monkeypatch)
        assert cache.store("k", program)
        assert synced == []
