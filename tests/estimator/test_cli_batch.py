"""CLI coverage for the batch subcommand and the --zdict flags."""

import zlib

import pytest

from repro.estimator.cli import main
from repro.lzss.batch import effective_dictionary
from repro.workloads.messages import json_messages

ZDICT = b'{"user":"amara0000","event":"login","ts":1700000000,' \
        b'"session":"00000000","items":[],"tags":["sensor"],"ok":true}' * 4


@pytest.fixture()
def message_files(tmp_path):
    paths = []
    for i, message in enumerate(json_messages(6, 1024)):
        path = tmp_path / f"msg{i}.json"
        path.write_bytes(message)
        paths.append(path)
    return paths


class TestBatchCommand:
    def test_positional_files(self, message_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["batch", *map(str, message_files),
                     "--out-dir", str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "6 payloads" in output
        for path in message_files:
            stream = (out_dir / (path.name + ".lzz")).read_bytes()
            assert zlib.decompress(stream) == path.read_bytes()

    def test_manifest_with_comments(self, message_files, tmp_path,
                                    capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# batch payloads\n"
            + "\n".join(p.name for p in message_files[3:]) + "\n"
        )
        out_dir = tmp_path / "out"
        assert main(["batch", str(message_files[0]),
                     "--manifest", str(manifest),
                     "--out-dir", str(out_dir)]) == 0
        assert "4 payloads" in capsys.readouterr().out
        assert len(list(out_dir.iterdir())) == 4

    def test_zdict_streams_need_the_dictionary(self, message_files,
                                               tmp_path, capsys):
        dict_file = tmp_path / "dict.bin"
        dict_file.write_bytes(ZDICT)
        out_dir = tmp_path / "out"
        assert main(["batch", *map(str, message_files),
                     "--zdict", str(dict_file),
                     "--out-dir", str(out_dir)]) == 0
        effective = effective_dictionary(ZDICT, 4096)
        for path in message_files:
            stream = (out_dir / (path.name + ".lzz")).read_bytes()
            decoder = zlib.decompressobj(zdict=effective)
            assert decoder.decompress(stream) + decoder.flush() \
                == path.read_bytes()

    def test_no_shared_plan_flag(self, message_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["batch", str(message_files[0]),
                     "--no-shared-plan",
                     "--out-dir", str(out_dir)]) == 0
        choices_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if "block choices:" in line
        )
        assert "shared" not in choices_line.split("block choices:")[1]

    def test_parallel_workers(self, message_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["batch", *map(str, message_files),
                     "--workers", "2", "--chunk-payloads", "2",
                     "--out-dir", str(out_dir)]) == 0
        for path in message_files:
            stream = (out_dir / (path.name + ".lzz")).read_bytes()
            assert zlib.decompress(stream) == path.read_bytes()

    def test_no_payloads_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["batch"])


class TestZdictFlags:
    def test_compress_decompress_roundtrip(self, tmp_path, capsys):
        data = b"\n".join(json_messages(20, 1024))
        source = tmp_path / "input.bin"
        source.write_bytes(data)
        dict_file = tmp_path / "dict.bin"
        dict_file.write_bytes(ZDICT)
        stream_file = tmp_path / "input.lzz"
        assert main(["compress", str(source),
                     "--zdict", str(dict_file),
                     "-o", str(stream_file)]) == 0
        assert "FDICT" in capsys.readouterr().out
        # CPython zlib accepts the stream with the trimmed dictionary.
        decoder = zlib.decompressobj(
            zdict=effective_dictionary(ZDICT, 4096)
        )
        assert decoder.decompress(stream_file.read_bytes()) \
            + decoder.flush() == data
        # And our own decompress --zdict closes the loop.
        restored = tmp_path / "restored.bin"
        assert main(["decompress", str(stream_file),
                     "--zdict", str(dict_file),
                     "-o", str(restored)]) == 0
        assert restored.read_bytes() == data

    def test_compress_zdict_honours_the_strategy(self, tmp_path, capsys):
        data = b"\n".join(json_messages(20, 1024))
        source = tmp_path / "input.bin"
        source.write_bytes(data)
        dict_file = tmp_path / "dict.bin"
        dict_file.write_bytes(ZDICT)
        streams = {}
        for strategy in ("fixed", "adaptive"):
            out = tmp_path / f"input.{strategy}.lzz"
            assert main(["compress", str(source), "--zdict",
                         str(dict_file), "--strategy", strategy,
                         "-o", str(out)]) == 0
            streams[strategy] = out.read_bytes()
        assert "FDICT" in capsys.readouterr().out
        # JSON text codes smaller with dynamic tables than fixed ones.
        assert len(streams["adaptive"]) < len(streams["fixed"])
        decoder = zlib.decompressobj(
            zdict=effective_dictionary(ZDICT, 4096)
        )
        assert decoder.decompress(streams["adaptive"]) \
            + decoder.flush() == data

    def test_empty_dictionary_file_rejected(self, tmp_path):
        source = tmp_path / "input.bin"
        source.write_bytes(b"payload")
        dict_file = tmp_path / "dict.bin"
        dict_file.write_bytes(b"")
        with pytest.raises(SystemExit):
            main(["compress", str(source), "--zdict", str(dict_file)])

    def test_pcompress_zdict_stitched_stream(self, tmp_path, capsys):
        data = b"\n".join(json_messages(40, 1024))
        source = tmp_path / "input.bin"
        source.write_bytes(data)
        dict_file = tmp_path / "dict.bin"
        dict_file.write_bytes(ZDICT)
        stream_file = tmp_path / "input.lzz"
        assert main(["pcompress", str(source), "--workers", "1",
                     "--shard-kb", "16",
                     "--zdict", str(dict_file),
                     "-o", str(stream_file)]) == 0
        decoder = zlib.decompressobj(
            zdict=effective_dictionary(ZDICT, 4096)
        )
        assert decoder.decompress(stream_file.read_bytes()) \
            + decoder.flush() == data
