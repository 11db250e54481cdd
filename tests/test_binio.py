import errno
import json
import os
import re
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import pytest

from vidcap import binio, decoder, evaluator
from vidcap.errors import DataError, FormatError, ParameterError, VidcapError
from vidcap.features import Codebook
from vidcap.numerics import make_rng


class TestFeatureFile:
    def test_round_trip_bits(self, tmp_path):
        rng = make_rng(0)
        rows = [(f"video{i:03d}", rng.normal(size=16).astype(np.float32)) for i in range(100)]
        p1, p2 = tmp_path / "a.vfea", tmp_path / "b.vfea"
        binio.write_feature_file(p1, "gcnn", rows)
        name, loaded = binio.read_feature_file(p1)
        assert name == "gcnn"
        assert len(loaded) == 100
        for (vid1, v1), (vid2, v2) in zip(rows, loaded):
            assert vid1 == vid2
            assert v1.tobytes() == v2.tobytes()
        binio.write_feature_file(p2, name, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dim_mismatch_rejected(self, tmp_path):
        rows = [("a", np.zeros(4, np.float32)), ("b", np.zeros(5, np.float32))]
        with pytest.raises(FormatError):
            binio.write_feature_file(tmp_path / "x.vfea", "f", rows)

    def test_empty_file_valid(self, tmp_path):
        path = tmp_path / "empty.vfea"
        binio.write_feature_file(path, "nothing", [])
        name, rows = binio.read_feature_file(path)
        assert name == "nothing" and rows == []

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            binio.read_feature_file(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "cut.vfea"
        binio.write_feature_file(path, "f", [("v", np.ones(8, np.float32))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="truncated"):
            binio.read_feature_file(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "extra.vfea"
        binio.write_feature_file(path, "f", [("v", np.ones(8, np.float32))])
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FormatError, match="trailing"):
            binio.read_feature_file(path)


class TestCheckpointFile:
    def test_round_trip_mixed_dtypes(self, tmp_path):
        rng = make_rng(1)
        tensors = {
            "w64": rng.normal(size=(3, 4)),
            "b64": rng.normal(size=7),
            "w32": rng.normal(size=(2, 2, 2)).astype(np.float32),
        }
        header = {"depth": "2", "note": "a=b=c"}
        p1, p2 = tmp_path / "c1.vlmp", tmp_path / "c2.vlmp"
        binio.write_checkpoint(p1, binio.LM_MAGIC, header, tensors)
        h, t = binio.read_checkpoint(p1, binio.LM_MAGIC)
        assert h == header
        assert set(t) == set(tensors)
        for k in tensors:
            assert t[k].dtype == tensors[k].dtype
            assert t[k].tobytes() == tensors[k].tobytes()
        binio.write_checkpoint(p2, binio.LM_MAGIC, h, t)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_family(self, tmp_path):
        path = tmp_path / "e.vevp"
        binio.write_checkpoint(path, binio.EVAL_MAGIC, {}, {"x": np.zeros(2)})
        with pytest.raises(FormatError):
            binio.read_checkpoint(path, binio.LM_MAGIC)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            binio.write_checkpoint(tmp_path / "x.vlmp", binio.LM_MAGIC, {},
                                   {"bad": np.zeros(3, dtype=np.int64)})

    def test_bit_flip_in_data_fails_checksum(self, tmp_path):
        path = tmp_path / "c.vlmp"
        binio.write_checkpoint(path, binio.LM_MAGIC, {"a": 1}, {"x": np.ones(3)})
        raw = bytearray(path.read_bytes())
        raw[-6] ^= 1  # inside the last float
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="c.vlmp: checksum"):
            binio.read_checkpoint(path, binio.LM_MAGIC)

    def test_corrupt_extent_allocates_nothing(self, tmp_path):
        path = tmp_path / "big.vlmp"
        index = b'{"header":{},"tensors":[["x","<f8",[4294967295,4294967295]]],"version":1}'
        body = binio.LM_MAGIC + struct.pack("<I", len(index)) + index
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="truncated"):
            binio.read_checkpoint(path, binio.LM_MAGIC)


@dataclass
class _Inner:
    n: int
    x: float = 0.5


@dataclass
class _Outer:
    name: str
    widths: tuple[int, ...] = (1,)
    inner: list[_Inner] = field(default_factory=list)
    path: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ParameterError("name must not be empty")


class TestConfigFromJson:
    def test_decodes_nested_types(self):
        doc = {"name": "a", "widths": [2, 3], "inner": [{"n": 1, "x": 2}], "path": None}
        got = binio.config_from_json(_Outer, doc, "cfg.json")
        assert got == _Outer("a", (2, 3), [_Inner(1, 2.0)], None)
        assert isinstance(got.widths, tuple) and isinstance(got.inner[0].x, float)

    def test_none_default_may_be_left_out(self):
        assert binio.config_from_json(_Outer, {"name": "a", "widths": [1], "inner": []},
                                      "c") == _Outer("a")

    def test_partial_keeps_defaults(self):
        assert binio.config_from_json(_Outer, {"name": "a"}, "c", partial=True) == _Outer("a")
        with pytest.raises(FormatError, match="missing key 'widths'"):
            binio.config_from_json(_Outer, {"name": "a"}, "c")

    @pytest.mark.parametrize("doc, words", [
        ([1], "expected _Outer, got list"),
        ({"name": "a", "bogus": 1}, "unknown key 'bogus'"),
        ({"name": "a", "inner": [{"x": 1.0}]}, "missing key 'inner\\[0\\].n'"),
        ({"name": 5}, "key 'name': expected str, got 5"),
        ({"name": "a", "widths": [1, "2"]}, "key 'widths\\[1\\]': expected int"),
        ({"name": "a", "widths": [True]}, "key 'widths\\[0\\]': expected int"),
        ({"name": "a", "inner": [{"n": 1, "x": 10 ** 400}]},
         "key 'inner\\[0\\].x': expected float"),
        ({"name": "a", "path": 3}, "key 'path': expected str"),
        ({"name": ""}, "name must not be empty"),
    ])
    def test_rejects_naming_file_and_key(self, doc, words):
        with pytest.raises(FormatError, match=f"^cfg.json: .*{words}"):
            binio.config_from_json(_Outer, doc, "cfg.json", partial=True)

    @pytest.mark.parametrize("text", [b"{", b"\xff", b"[" * 100_000, b"1" * 5000])
    def test_parse_json_rejects(self, text):
        with pytest.raises(FormatError, match="^f.json: not valid JSON"):
            binio.parse_json(text, "f.json")


def _tiny_artifacts(tmp_path):
    """One small file of each magic, with the loader that reads it."""
    rng = make_rng(3)
    feat = tmp_path / "f.vfea"
    binio.write_feature_file(feat, "gcnn", [(f"v{i}", rng.normal(size=2)) for i in range(2)])
    book = tmp_path / "b.vcbk"
    Codebook(channel="HOG", centroids=rng.normal(size=(2, 2))).save(book)
    lm_cfg = decoder.LMConfig(vocab_size=4, init_dim=1, persist_dim=1, depth=1, hidden=1,
                              embed_dim=1)
    lm = tmp_path / "m.vlmp"
    decoder.save_lm(lm, lm_cfg, decoder.init_lm_params(lm_cfg, rng),
                    init_feature="categ", persist_feature="feat-a")
    ev_cfg = evaluator.EvaluatorConfig(vocab_size=4, video_dim=1, embed_dim=1, filter_widths=(1,),
                                       filters_per_width=1, joint_dim=1, n_negatives=1,
                                       feature_name="feat-a")
    ev = tmp_path / "e.vevp"
    evaluator.save_evaluator(ev, ev_cfg, evaluator.init_evaluator_params(ev_cfg, rng))
    return [(feat, binio.read_feature_file), (book, Codebook.load),
            (lm, decoder.load_lm), (ev, evaluator.load_evaluator)]


def test_non_finite_tensor_of_each_kind(tmp_path):
    """A NaN written over the first value of an artifact's first tensor, with the
    checksum recomputed, raises FormatError naming the file and the tensor."""
    for path, load in _tiny_artifacts(tmp_path):
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 4)
        name, code, _ = json.loads(raw[8 : 8 + n])["tensors"][0]
        nan = np.array([np.nan], code).tobytes()
        body = raw[: 8 + n] + nan + raw[8 + n + len(nan) : -4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        words = f"{path}: tensor {name!r} holds a non-finite value"
        with pytest.raises(FormatError, match=re.escape(words)):
            load(path)


@pytest.mark.parametrize("magic, load, header", [
    (binio.LM_MAGIC, decoder.load_lm, asdict(decoder.LMConfig(
        vocab_size=4, init_dim=1, persist_dim=1)) | {"hidden": 2_000_000_000}),
    (binio.EVAL_MAGIC, evaluator.load_evaluator, asdict(evaluator.EvaluatorConfig(
        vocab_size=4, video_dim=1)) | {"filter_widths": [2, 100_000_000]}),
], ids=["lm", "evaluator"])
def test_header_larger_than_memory_is_a_format_error(tmp_path, magic, load, header):
    """A checkpoint header whose parameters would not fit in physical memory is
    rejected, naming the file, before any tensor is read."""
    path = tmp_path / "big.ckpt"
    binio.write_checkpoint(path, magic, header, {})
    with pytest.raises(FormatError, match=r"big\.ckpt: .* bytes of physical memory"):
        load(path)


def _variants(raw: bytes):
    """Every truncation, then every offset set to 0x00, 0xFF and xor 1."""
    for n in range(len(raw)):
        yield raw[:n]
    for i, b in enumerate(raw):
        for v in {0x00, 0xFF, b ^ 1} - {b}:
            yield raw[:i] + bytes([v]) + raw[i + 1:]


def test_corruption_sweep(tmp_path):
    """A damaged artifact of any kind raises FormatError naming the file; with the
    checksum recomputed, so that only the parser stands guard, it loads or raises a
    VidcapError, never another exception."""
    loaded = 0
    for path, load in _tiny_artifacts(tmp_path):
        raw = path.read_bytes()
        load(path)
        bad = path.with_name("bad" + path.suffix)
        for variant in _variants(raw):
            bad.write_bytes(variant)
            with pytest.raises(FormatError) as e:
                load(bad)
            assert str(bad) in str(e.value)
            body = variant[:-4]
            if len(variant) == len(raw) and body != raw[:-4]:
                bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
                try:
                    load(bad)
                    loaded += 1
                except VidcapError:
                    pass
    assert loaded > 0  # flips inside float data still parse


class TestWriteFile:
    """`binio.write_file`, the one writer: the new file whole or the old one
    kept, the target named on failure, and no temporary file left either way."""

    def test_writes_text_as_utf8_and_bytes_as_given(self, tmp_path):
        binio.write_file(tmp_path / "t.txt", "caf\u00e9\n")
        binio.write_file(tmp_path / "b.bin", b"\x00\xff")
        assert (tmp_path / "t.txt").read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert sorted(os.listdir(tmp_path)) == ["b.bin", "t.txt"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"a much longer old file\n")
        binio.write_file(str(path), "new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["f.json"]

    def test_a_cut_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A write that stops partway, as on a full disk, leaves the old bytes
        and raises a DataError naming the target."""
        write_bytes = Path.write_bytes

        def cut(self, data):
            write_bytes(self, data[:3])
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"old\n")
        monkeypatch.setattr(Path, "write_bytes", cut)
        with pytest.raises(DataError, match=re.escape(f"{path}: [Errno 27] File too large")):
            binio.write_file(path, "a new vocabulary\n")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["vocab.tsv"]

    def test_an_interrupt_removes_the_temporary_file(self, tmp_path, monkeypatch):
        write_bytes = Path.write_bytes

        def interrupted(self, data):
            write_bytes(self, data)
            raise KeyboardInterrupt

        path = tmp_path / "pools.jsonl"
        path.write_bytes(b"old\n")
        monkeypatch.setattr(Path, "write_bytes", interrupted)
        with pytest.raises(KeyboardInterrupt):
            binio.write_file(path, "new\n")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["pools.jsonl"]

    @pytest.mark.parametrize("where, words", [
        ("missing/f.json", "[Errno 2] No such file or directory"),
        ("a-directory", "[Errno 21] Is a directory"),
    ])
    def test_error_names_the_target_not_the_temporary_file(self, tmp_path, where, words):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / where
        with pytest.raises(DataError) as caught:
            binio.write_file(path, "x")
        assert str(caught.value) == f"{path}: {words}"
        assert sorted(os.listdir(tmp_path)) == ["a-directory"]
        assert os.listdir(tmp_path / "a-directory") == []
