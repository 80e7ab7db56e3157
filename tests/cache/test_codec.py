"""Tests for the framed artifact codec behind every cache entry."""

import pickle
import sys
import types

import pytest

from repro.cache.codec import (
    FRAME_MAGIC,
    CorruptArtifact,
    StaleArtifact,
    atomic_write_bytes,
    dump_artifact,
    frame,
    is_framed,
    load_artifact,
    quarantine_entry,
    unframe,
    write_artifact,
)


class TestRoundTrip:
    @pytest.mark.parametrize("payload", [
        {"rows": [1, 2, 3]},
        list(range(1000)),
        "text",
        b"\x00" * 64,
        None,
        ("nested", {"deep": [1.5, float("inf")]}),
    ])
    def test_dump_load_identity(self, payload):
        assert load_artifact(dump_artifact(payload)) == payload

    def test_framed_blobs_carry_the_magic(self):
        blob = dump_artifact(123)
        assert is_framed(blob)
        assert blob.startswith(FRAME_MAGIC)

    def test_frame_unframe_raw_bytes(self):
        payload = b"arbitrary bytes, not a pickle"
        assert unframe(frame(payload)) == payload

    def test_unframe_returns_a_view_into_the_blob(self):
        blob = frame(b"payload bytes")
        view = unframe(blob)
        assert isinstance(view, memoryview)
        assert view.obj is blob  # verified in place, never copied


class TestVerifyInPlace:
    """``load_artifact`` verifies a view of the blob; every check that
    guarded the old copied payload still fires through it."""

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_loads_any_buffer(self, wrap):
        blob = dump_artifact({"rows": list(range(20))})
        assert load_artifact(wrap(blob)) == {"rows": list(range(20))}

    @pytest.mark.parametrize("damage, reason", [
        (lambda blob: blob[:20], "truncated-header"),
        (lambda blob: blob[:-1], "length-mismatch"),
        (lambda blob: blob + b"\x00", "length-mismatch"),
        (lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x01]),
         "digest-mismatch"),
    ])
    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    def test_rejects_damaged_blobs(self, damage, reason, wrap):
        blob = damage(dump_artifact(list(range(50))))
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(wrap(blob))
        assert excinfo.value.reason == reason


class TestWriteArtifact:
    @pytest.mark.parametrize("payload", [
        {"rows": [1, 2, 3]},
        list(range(1000)),
        b"\x00" * 70_000,
        None,
    ])
    def test_file_holds_the_framed_pickle_exactly(self, tmp_path, payload):
        # The header and the pickler's buffer are written one after the
        # other; the bytes on disk are still exactly the frame of the
        # pickle, so entries written before and after read the same.
        target = tmp_path / "entry.pkl"
        written = write_artifact(target, payload)
        expected = frame(pickle.dumps(payload,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        assert target.read_bytes() == expected
        assert target.read_bytes() == dump_artifact(payload)
        assert written == len(expected)
        assert load_artifact(target.read_bytes()) == payload


class TestEverySingleByteFlipIsDetected:
    def test_flip_any_byte_raises_corrupt(self):
        # The acceptance criterion verbatim: a flipped byte anywhere —
        # magic, version, digest, length, or payload — never loads.
        blob = dump_artifact({"value": list(range(10))})
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= 0xFF
            with pytest.raises(CorruptArtifact):
                load_artifact(bytes(damaged))

    def test_truncation_at_any_length_raises_corrupt(self):
        blob = dump_artifact(list(range(50)))
        for length in range(len(blob)):
            with pytest.raises(CorruptArtifact):
                load_artifact(blob[:length])

    def test_appended_garbage_is_detected(self):
        blob = dump_artifact("payload")
        with pytest.raises(CorruptArtifact, match="length-mismatch"):
            load_artifact(blob + b"trailing")

    def test_reason_slugs(self):
        blob = dump_artifact("x")
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(blob[:8])
        assert excinfo.value.reason == "truncated-header"
        damaged = bytearray(blob)
        damaged[-1] ^= 0x01  # payload bit
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(bytes(damaged))
        assert excinfo.value.reason == "digest-mismatch"
        versioned = bytearray(blob)
        versioned[4] = 99  # unknown schema version
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(bytes(versioned))
        assert excinfo.value.reason == "unknown-version"


class TestStaleVsCorrupt:
    def _ghost_blob(self):
        """A valid frame whose payload references a vanished module."""
        module = types.ModuleType("repro_test_ghost_module")

        class Ghost:
            pass

        Ghost.__module__ = "repro_test_ghost_module"
        Ghost.__qualname__ = "Ghost"
        module.Ghost = Ghost
        sys.modules["repro_test_ghost_module"] = module
        try:
            return dump_artifact(Ghost())
        finally:
            del sys.modules["repro_test_ghost_module"]

    def test_vanished_class_is_stale_not_corrupt(self):
        with pytest.raises(StaleArtifact):
            load_artifact(self._ghost_blob())

    def test_unframed_stale_blob_is_corrupt(self):
        blob = self._ghost_blob()
        legacy = unframe(blob)  # bare pickle of a vanished class
        # Without a frame nothing vouches for the bytes, so they are
        # never unpickled — corrupt, not stale.
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(legacy)
        assert excinfo.value.reason == "bad-magic"


class TestLegacyReadBack:
    def test_bare_pickle_is_corrupt(self):
        legacy = pickle.dumps({"old": "entry"},
                              protocol=pickle.HIGHEST_PROTOCOL)
        assert not is_framed(legacy)
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(legacy)
        assert excinfo.value.reason == "bad-magic"

    def test_legacy_garbage_is_corrupt(self):
        with pytest.raises(CorruptArtifact) as excinfo:
            load_artifact(b"definitely not a pickle")
        assert excinfo.value.reason == "bad-magic"

    def test_empty_blob_is_corrupt(self):
        with pytest.raises(CorruptArtifact):
            load_artifact(b"")


class TestQuarantine:
    def test_moves_the_file_keeping_its_name(self, tmp_path):
        entry = tmp_path / "ab" / "abcd.pkl"
        entry.parent.mkdir()
        entry.write_bytes(b"damaged")
        moved = quarantine_entry(entry, tmp_path)
        assert moved == tmp_path / "quarantine" / "abcd.pkl"
        assert moved.read_bytes() == b"damaged"
        assert not entry.exists()

    def test_second_corruption_overwrites_the_first(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir()
        for content in (b"first", b"second"):
            entry = shard / "abcd.pkl"
            entry.write_bytes(content)
            moved = quarantine_entry(entry, tmp_path)
        assert moved.read_bytes() == b"second"
        assert len(list((tmp_path / "quarantine").iterdir())) == 1


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_writes_chunks_back_to_back(self, tmp_path):
        target = tmp_path / "artifact.bin"
        data = bytearray(b"payload")
        written = atomic_write_bytes(target, b"head:", memoryview(data))
        assert target.read_bytes() == b"head:payload"
        assert written == len(b"head:payload")
