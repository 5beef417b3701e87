"""Golden output hashes: refactors must not move a single output byte.

Every row pins the sha256 of one compressed output, recorded before a
refactor and checked after it:

* each preset profile on five 32 KiB corpus samples, through three entry
  points: the one-call :func:`repro.api.compress`, a
  :class:`~repro.deflate.stream.ZLibStreamCompressor` fed 8 KiB writes
  with one sync flush, and serial :func:`~repro.parallel.engine.
  compress_shard_body` over 8 KiB shards with carried history;
* one stream with every chunk diverted through the traced backend;
* :func:`repro.compress_batch` on templated message lists, with and
  without a preset dictionary, under ``auto`` and ``fast``;
* the one-shot entry points: :func:`repro.api.compress` and
  :func:`repro.deflate.gzip_container.compress` under every block
  strategy on compressible, random, empty and 18-byte inputs (plus
  200 KiB of random bytes through gzip ADAPTIVE), the preset-dictionary
  paths (:func:`~repro.deflate.preset_dict.compress_with_dict`,
  ``compress(zdict=...)`` and a stitched
  :class:`~repro.parallel.engine.ShardedCompressor` stream),
  :func:`~repro.deflate.splitter.zlib_compress_adaptive` with the cut
  search, the sniff or the profile varied, and
  :func:`~repro.transcode.transcode` of a zlib and a gzip stream.

The ``best`` rows need numpy: without it the ``sa`` matcher runs its
pure-Python builder, whose search history is shorter by design, so its
bytes differ.
"""

from __future__ import annotations

import hashlib
import importlib.util

import pytest

from repro.api import compress
from repro.batch import compress_batch
from repro.deflate import gzip_container
from repro.deflate.block_writer import BlockStrategy
from repro.deflate.preset_dict import compress_with_dict
from repro.deflate.splitter import zlib_compress_adaptive
from repro.deflate.stream import ZLibStreamCompressor
from repro.lzss.tokens import MIN_LOOKAHEAD
from repro.parallel.engine import ShardedCompressor, compress_shard_body
from repro.profile import as_profile
from repro.transcode import transcode
from repro.workloads.corpus import sample
from repro.workloads.messages import html_messages, json_messages

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

SIZE = 32 * 1024
CHUNK = 8 * 1024
PRESETS = ("fastest", "balanced", "best")
INPUTS = ("syslog", "wiki", "mixed", "random", "x2e")
MODES = ("oneshot", "stream", "shards")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stream(data: bytes, **kwargs) -> bytes:
    stream = ZLibStreamCompressor(**kwargs)
    out = bytearray()
    for start in range(0, len(data), CHUNK):
        out += stream.compress(data[start:start + CHUNK])
        if start == CHUNK:
            out += stream.flush_sync()
    out += stream.finish()
    return bytes(out)


def _shards(data: bytes, profile: str) -> bytes:
    keep = as_profile(profile).window_size + MIN_LOOKAHEAD
    out = bytearray()
    for index, start in enumerate(range(0, len(data), CHUNK)):
        out += compress_shard_body(
            data[start:start + CHUNK],
            history=data[max(0, start - keep):start],
            profile=profile,
            shard_index=index,
        )
    return bytes(out)


def output(profile: str, name: str, mode: str) -> bytes:
    data = sample(name, SIZE)
    if mode == "oneshot":
        return compress(data, profile=profile)
    if mode == "stream":
        return _stream(data, profile=profile)
    return _shards(data, profile)


def _messages(kind: str):
    make = json_messages if kind == "json-msg" else html_messages
    return make(24, 600, seed=7)


def batch_output(kind: str, backend: str, with_dict: bool) -> bytes:
    payloads = _messages(kind)
    zdict = b"".join(_messages(kind)[:3]) if with_dict else b""
    result = compress_batch(payloads, zdict=zdict, backend=backend)
    return b"".join(len(s).to_bytes(4, "big") + s for s in result.streams)


GOLDEN = {
    "fastest/syslog/oneshot":
        "8a8f434b4ca37ce2bb6d497efada5b98d2da75db2cf910fa6ba7ef56e6695369",
    "fastest/syslog/stream":
        "491c89ad1efda2da083373069d7433c1f6e195dbf2def81fa5d279c6f0bffe31",
    "fastest/syslog/shards":
        "b3d8f73656cc729b7234eef462c903fb729c977bb34b74187dc7a26ddc8733fb",
    "fastest/wiki/oneshot":
        "64c8eca4acdc18012e6a13af5ae80620804b85f8084154db2ce3ee78245c9aa8",
    "fastest/wiki/stream":
        "528d6fa845b9202fa18c9ec2d0327b5ac2558560708b933a792f17125a7ca7e1",
    "fastest/wiki/shards":
        "371c9bbc4fafbc7926621723b9568e51be8e75ace4b686e65591910718273901",
    "fastest/mixed/oneshot":
        "7c882ce270bd206b964a22c4bcb39ef6d1e5cdfbe012d41e07948a0faaf687bf",
    "fastest/mixed/stream":
        "b5df9ab83b918524bbf690a1b30b952053ee46306b7685bf5f77d3f31ba2f30a",
    "fastest/mixed/shards":
        "d790d9de1451ae5fc2acc701166986e34c38ab09c37581667868a3833f49927e",
    "fastest/random/oneshot":
        "0eb6f7afd4e3b9a5f7e48f993100cf9e453d4d48c1041de36c384966ad49aad7",
    "fastest/random/stream":
        "8821d73caaa7d8cf2c102df0c7603751d6f4b4f2eb003156b53b99d6363f6ada",
    "fastest/random/shards":
        "ee892758fef1f8b9b334765db70bb68c838afb73787907307dae5d31e85f613d",
    "fastest/x2e/oneshot":
        "23e0c417c06c9334fff078c9b3f5de49726c92cddc0e6a981a047575f23a2af6",
    "fastest/x2e/stream":
        "0fddc1e6ffb6eebbbe0b9aa35e0c55afa35b3ecce65f5217c4af3c5052eb8e1a",
    "fastest/x2e/shards":
        "c1bf3034c911a2dd5bb560912b0daa0e4f8d76236f5a5456e06150a4143942e1",
    "balanced/syslog/oneshot":
        "35dcd92a2b7e496570c28d76a2a081c29374fe78483e33050ab47c887ec760d7",
    "balanced/syslog/stream":
        "799fd0403a855fbe86ed7262e0bff949d4702eb40a2055998b96ac9bb2373d5f",
    "balanced/syslog/shards":
        "e484234eb64ceec62b6b5f5158f4e1d2c2360c8ef92e31dd5f29a651c501e2a9",
    "balanced/wiki/oneshot":
        "ce818e4ec53c719c7934536fe44d6ed9e4dbe8db2822bf71af866a57edb1dd41",
    "balanced/wiki/stream":
        "7cc98655f7d9c7e5a99c7639d079ae1fa504556c328d800476a73f8aa6dac981",
    "balanced/wiki/shards":
        "50404ad0b7f6335dc9e7098d52ba084d47dec770f204e796d25903d23e14825f",
    "balanced/mixed/oneshot":
        "3dcfc32d27885305734c3b3dd80158a2d504b4b3b0015ab7ff1e70a048303df7",
    "balanced/mixed/stream":
        "0a3eba52ffb61913d5c887e395cbce6f86cedfa7568849c1b8fe900d709f99fe",
    "balanced/mixed/shards":
        "924325f99c072624fdfb9567acfb2293191c09647b9c8aaacf6f2f093f0dd082",
    "balanced/random/oneshot":
        "4c3fe8cc67107930553c11c93ee6c11d559a9116a07528b17b4bca5fb11ab523",
    "balanced/random/stream":
        "8f950a54e2571905e316f6b5e6c9fd63aefa53274055bc6dd3dd66b37ce4dc75",
    "balanced/random/shards":
        "0f1ff496a990ee64afd8fe089677893ece03513bfdca8a6796c5270fe126708f",
    "balanced/x2e/oneshot":
        "1c780889695e4df39e25639b74cf28dd1fcb75dcc6432af373d8fa59a6b86637",
    "balanced/x2e/stream":
        "69d416e414d827e7cbba20a7d542c2d20f6b2946522e5cd7140f8104b38ae3d3",
    "balanced/x2e/shards":
        "91f27a63895b59acadda4892b87bbab4e54f02f54c840ea2ed173ee9218f1e44",
    "best/syslog/oneshot":
        "829dee7763311beb550829fe0af5bf3112c9ed7af41f34a7172e629211ebee39",
    "best/syslog/stream":
        "b198ee7c75d3693ad090a6fe7513536199f78ebf18fa60950363c510fc8da92f",
    "best/syslog/shards":
        "9d93ca9aa4ebbd3134417754c37277480e95b1558b0ec375329a3e3af1b9d691",
    "best/wiki/oneshot":
        "6a346e0a68d1a593766dcd52a165dc3c0837d1fb6a93725b9f6424a88fe6076b",
    "best/wiki/stream":
        "3734c163fc36dc3a1d6caba0e3ca0df41bcf0e4e573a8e4bcd7c247dcebd6ffe",
    "best/wiki/shards":
        "d3de5bae35702df595907c53d1edc5e5bf609169675663f1d260ef6b6ccabfed",
    "best/mixed/oneshot":
        "0b183ad782b1f36a9edc9c381f2cf567c2aa58c09aa50014a3f964cd81025eb3",
    "best/mixed/stream":
        "66e1d90cd81927d98b26372a11d6641fb060d2b46db7d0b0fa55515c17bbde42",
    "best/mixed/shards":
        "a213521de4ab3263b08c680a394e00de0502b8a196139fdce1a72e88467af43c",
    "best/random/oneshot":
        "cbc2dc4f7011140940140d4ac09958c2ae3d501c29726117102ff671e8c0959c",
    "best/random/stream":
        "861a1198c1177834716cb0f2a4086b89e849f369a6869d7a242880e65f60002e",
    "best/random/shards":
        "0f1ff496a990ee64afd8fe089677893ece03513bfdca8a6796c5270fe126708f",
    "best/x2e/oneshot":
        "69d7af41ac85cc899d40c6993a8b446d047430778bb803210e4502ad661c432f",
    "best/x2e/stream":
        "1f436e75b6475a89519ca82c6b1eb387be4c905bb1387febc088accbdb85fb26",
    "best/x2e/shards":
        "45c3b9b0219994a5951677086aae294d769685d39a9c158204eaaac64160a47e",
}

TRACED_STREAM = (
    "c35ff012a63c3f15dc448d25bac1c1d4ef87b1f01c0dd3c16faf212e864a4514"
)

GOLDEN_BATCH = {
    "json-msg/auto/plain":
        "01f24d0b7de284d1e11f2ff954591c93dfb7153f197e62caf00fa1105d026c60",
    "json-msg/auto/zdict":
        "b345393d17410c979fedc31cedff77a793a9a48985586dc4a4cdc64b532e2420",
    "json-msg/fast/plain":
        "01f24d0b7de284d1e11f2ff954591c93dfb7153f197e62caf00fa1105d026c60",
    "json-msg/fast/zdict":
        "b345393d17410c979fedc31cedff77a793a9a48985586dc4a4cdc64b532e2420",
    "html-msg/auto/plain":
        "d16ecddd6f69426586b929075b5ba3c685c33c60d0db7fb3107a98c57b2a75e3",
    "html-msg/auto/zdict":
        "2ffa6746f28796075dafc6d35745caed0e607da1c366dede251d1bd0674a9a7c",
    "html-msg/fast/plain":
        "d16ecddd6f69426586b929075b5ba3c685c33c60d0db7fb3107a98c57b2a75e3",
    "html-msg/fast/zdict":
        "2ffa6746f28796075dafc6d35745caed0e607da1c366dede251d1bd0674a9a7c",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("profile", PRESETS)
def test_preset_output_unchanged(profile, name, mode):
    if profile == "best" and not HAVE_NUMPY:
        pytest.skip("pure-Python sa builder has a shorter history cap")
    assert _digest(output(profile, name, mode)) == \
        GOLDEN[f"{profile}/{name}/{mode}"]


def test_traced_sampled_stream_unchanged():
    data = sample("wiki", SIZE)
    stream = ZLibStreamCompressor(profile="balanced", trace_fraction=1.0)
    out = bytearray()
    for start in range(0, len(data), CHUNK):
        out += stream.compress(data[start:start + CHUNK])
    out += stream.finish()
    assert _digest(bytes(out)) == TRACED_STREAM
    assert len(stream.calibration) == len(data) // CHUNK


@pytest.mark.parametrize("with_dict", [False, True],
                         ids=["plain", "zdict"])
@pytest.mark.parametrize("backend", ["auto", "fast"])
@pytest.mark.parametrize("kind", ["json-msg", "html-msg"])
def test_batch_output_unchanged(kind, backend, with_dict):
    key = f"{kind}/{backend}/{'zdict' if with_dict else 'plain'}"
    assert _digest(batch_output(kind, backend, with_dict)) == \
        GOLDEN_BATCH[key]


# -- one-shot entry points, containers, dictionaries, transcode ---------

ONESHOT_INPUTS = ("syslog", "random", "empty", "tiny")
STRATEGIES = ("fixed", "dynamic", "stored", "adaptive")
BIG = 200 * 1024
ZDICT_SIZE = 24 * 1024


def _input(name: str) -> bytes:
    if name == "empty":
        return b""
    if name == "tiny":
        return b"hello, hello world"  # 18 B
    return sample(name, SIZE)


def _zdict_case():
    """24 KiB of syslog and a 3,000 B dictionary cut from further on."""
    return sample("syslog", ZDICT_SIZE), sample("syslog", 40 * 1024)[-3000:]


def _transcode_input(container: str) -> bytes:
    data = sample("wiki", SIZE)
    if container == "zlib":
        return compress(data, profile="fastest")
    return gzip_container.compress(data, strategy=BlockStrategy.FIXED)


def entry_output(key: str) -> bytes:
    entry, _, rest = key.partition("/")
    if entry in ("api", "gzip"):
        strategy, _, name = rest.partition("/")
        strategy = BlockStrategy(strategy)
        if name == "random-200k":
            data = sample("random", BIG)
        else:
            data = _input(name)
        if entry == "api":
            return compress(data, strategy=strategy)
        return gzip_container.compress(data, strategy=strategy)
    if entry == "zdict":
        data, zdict = _zdict_case()
        if rest == "compress_with_dict":
            return compress_with_dict(data, zdict)
        if rest == "api":
            return compress(data, zdict=zdict)
        return ShardedCompressor(
            workers=1, shard_size=8192, carry_window=True, zdict=zdict,
        ).compress(data).data
    if entry == "adaptive":
        if rest == "no-sniff":
            return zlib_compress_adaptive(sample("random", 2 * SIZE),
                                          sniff=False)
        data = sample("mixed", 3 * SIZE)
        if rest == "no-cut-search":
            return zlib_compress_adaptive(data, cut_search=False)
        if rest == "fastest":
            return zlib_compress_adaptive(data, profile="fastest")
        return zlib_compress_adaptive(data)
    if entry == "transcode":
        return transcode(_transcode_input(rest)).data
    raise KeyError(key)


ENTRY_KEYS = (
    [f"{entry}/{strategy}/{name}"
     for entry in ("api", "gzip")
     for strategy in STRATEGIES
     for name in ONESHOT_INPUTS]
    + ["gzip/adaptive/random-200k",
       "zdict/compress_with_dict", "zdict/api", "zdict/shards",
       "adaptive/default", "adaptive/no-cut-search", "adaptive/no-sniff",
       "adaptive/fastest",
       "transcode/zlib", "transcode/gzip"]
)

GOLDEN_ENTRY = {
    "api/fixed/syslog":
        "8a8f434b4ca37ce2bb6d497efada5b98d2da75db2cf910fa6ba7ef56e6695369",
    "api/fixed/random":
        "0eb6f7afd4e3b9a5f7e48f993100cf9e453d4d48c1041de36c384966ad49aad7",
    "api/fixed/empty":
        "7fd613ce78df79adf47f1b0ec634ac7451ca243d5332b3eb115c1f65a26dc67c",
    "api/fixed/tiny":
        "76a88c937f29d8697f1937f030c4e428cd24f4b0931810af8b49bc030686dfff",
    "api/dynamic/syslog":
        "5f8eed96fb1fa63f060a33f5e0295d50be3b75a7d545e03182d7cc0a8c925aaa",
    "api/dynamic/random":
        "86c2a29c15a70f34ede8d14a5b5e28bfe2f0db8cbbd5bbfe4b700222c63dd658",
    "api/dynamic/empty":
        "edf6e5052a48eb6c3ca139b6b38bbb5478fbbb86d78ab50d93e8ea405b620adf",
    "api/dynamic/tiny":
        "14090782ab7bfbd3d742519c7872ed5d0a12877a72a787b28c53e60b66243643",
    "api/stored/syslog":
        "17815e7b2cc35bac38a0288f27360405eb68a605adce26aba840b28446906ad9",
    "api/stored/random":
        "cdba7cfb71e6a7fbcc9092efb628c968bfdd5f30d6a89b998631c90a61133cc6",
    "api/stored/empty":
        "247e7a3475060bc26ce3bb035fa9341cbc9e767d883fbda46796303d243c0ec0",
    "api/stored/tiny":
        "4c87c2a2b8f5576179c3ec848b876c1a2d91c71e59591bc4f97ec7932eb7a1f8",
    "api/adaptive/syslog":
        "5f8eed96fb1fa63f060a33f5e0295d50be3b75a7d545e03182d7cc0a8c925aaa",
    "api/adaptive/random":
        "cdba7cfb71e6a7fbcc9092efb628c968bfdd5f30d6a89b998631c90a61133cc6",
    "api/adaptive/empty":
        "7fd613ce78df79adf47f1b0ec634ac7451ca243d5332b3eb115c1f65a26dc67c",
    "api/adaptive/tiny":
        "76a88c937f29d8697f1937f030c4e428cd24f4b0931810af8b49bc030686dfff",
    "gzip/fixed/syslog":
        "e64978e1ff71e43ab381702e659bf878051777ff9be35ece6cf4bfff5779ba8e",
    "gzip/fixed/random":
        "7eca51c2bd344f1d00ded88685b52ddfde401dba46c06e2b9cee69e319170843",
    "gzip/fixed/empty":
        "458c5a203299dd326aa747fee1bbc7709bfbd560507d1603459d9f7d9eb6be76",
    "gzip/fixed/tiny":
        "853cf3ff82ab1103227d96bbc636f386c28777c6e94d635dcdaf051c93de6ded",
    "gzip/dynamic/syslog":
        "5d0ed6e8975d6369085e5fbb587173d920091006da90e78dde790fb81bf1117f",
    "gzip/dynamic/random":
        "da1a1697f16f92b7a2e99d57d8fb093c58895d7ce9d06c35259ed0c9b4e7254e",
    "gzip/dynamic/empty":
        "0fa1c1ab792a594f9b9cbdf8840feefc749b204a05291bdfef5711dce7b66f11",
    "gzip/dynamic/tiny":
        "997ebda4ff3887a8e97c764ed01f8ea9ac84e39cae8b3f763ea8d0352f319071",
    "gzip/stored/syslog":
        "fa7475759ba5e37c7e99a0c087ad03766e53025afba3ba4c459c5c5414a9db9b",
    "gzip/stored/random":
        "4729e2ef0a3f04d69a29f0a2e1d1d9b7cbfe2ff150f7d0aff93dcfe9676c6706",
    "gzip/stored/empty":
        "81da0491c5af5635831f6a3febb5d9bfd66987ba3ecc42e58dc3d80938c25705",
    "gzip/stored/tiny":
        "af3388f1eaca2b11d71d14fcf283fdc36ec3fd9fa2ecfe0428ae717ee4f203fa",
    "gzip/adaptive/syslog":
        "5d0ed6e8975d6369085e5fbb587173d920091006da90e78dde790fb81bf1117f",
    "gzip/adaptive/random":
        "4729e2ef0a3f04d69a29f0a2e1d1d9b7cbfe2ff150f7d0aff93dcfe9676c6706",
    "gzip/adaptive/empty":
        "458c5a203299dd326aa747fee1bbc7709bfbd560507d1603459d9f7d9eb6be76",
    "gzip/adaptive/tiny":
        "853cf3ff82ab1103227d96bbc636f386c28777c6e94d635dcdaf051c93de6ded",
    "gzip/adaptive/random-200k":
        "98670c795ff05ccca4fe993c61a60eba848ad043b44eb8bf596a7a7ae7b4a684",
    "zdict/compress_with_dict":
        "90c026262cb75bc4e832df95ea44410b72c4d291a8a5481d6fc097abcda5b9ba",
    "zdict/api":
        "90c026262cb75bc4e832df95ea44410b72c4d291a8a5481d6fc097abcda5b9ba",
    "zdict/shards":
        "71a4ad7bbbb76959a7bdf6f1ef54931522312bce43242f7726f9174d2a75ee98",
    "adaptive/default":
        "8c29290bc42f5bfa9fd9bdd0ad8b927751df9aabaff892b2360b4fb4b0aa362b",
    "adaptive/no-cut-search":
        "dc6ec6acde16b2bac0f5c6c298619293ea98732b49f75761903284ca5292cf6f",
    "adaptive/no-sniff":
        "05bc3e972d2f1be38b9553ce2a6e79479afa1f1de64e0285234533941f987baf",
    "adaptive/fastest":
        "dc6ec6acde16b2bac0f5c6c298619293ea98732b49f75761903284ca5292cf6f",
    "transcode/zlib":
        "d8292c6706b851def78a3673f02dfc7756899818c3547c4557ac6aba2466117b",
    "transcode/gzip":
        "87ae358c5dcb30b05eeb81c172d5a8b979056c34c6674ddce24c94b5ca16755b",
}


@pytest.mark.parametrize("key", ENTRY_KEYS)
def test_entry_point_output_unchanged(key):
    assert _digest(entry_output(key)) == GOLDEN_ENTRY[key]
