"""Tests of the benchmark itself: spec, tail rule, digests, tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import sys
import time
import types
import zlib

import pytest

import inputs
import spans
import spec
import stats
import workloads
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- spec ----------------------------------------------------------------

def test_metric_names_are_valid_and_unique():
    names = [row[0] for row in spec.END_TO_END + spec.PER_LAYER]
    names += [name for name, _ in spec.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for row in spec.END_TO_END + spec.PER_LAYER:
        assert spec.UNIT_RE.match(row[1]), row
        assert row[2] in ("higher", "lower"), row


def test_end_to_end_bounds_and_setup():
    rows = {row[0]: row for row in spec.END_TO_END}
    assert rows["setup_s"][1:3] == ("s", "lower")
    bounds = [row[3] for row in spec.END_TO_END]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert rows["setup_s"][3] == max(bounds)


def test_committed_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in committed["workloads"]] == sorted(
        WORKLOADS, key=[n for n, _ in spec.WORKLOADS].index)
    for workload in committed["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_self_time_key_is_traced():
    keys = {target[2] for target in spans.TARGETS}
    assert keys == set(spec.SELF_METRIC)


# -- tail rule -------------------------------------------------------------

@pytest.mark.parametrize("count, pct", [
    (1000, 99), (999, 90), (100, 90), (99, 75), (40, 75), (39, 100),
    (1, 100),
])
def test_ladder_pct_needs_ten_samples_beyond(count, pct):
    assert stats.ladder_pct(count) == pct
    if pct < 100:
        assert stats.beyond(count, pct) >= stats.MIN_BEYOND


def test_tail_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.tail(samples, 90) == (90, 10)
    assert stats.tail(samples, 100) == (100, 0)
    assert stats.percentile([5.0], 50) == 5.0


def test_workload_tail_pcts_are_on_the_ladder():
    for cls in WORKLOADS.values():
        assert cls.TAIL_PCT in stats.TAIL_LADDER + (100,)


# -- inputs and digests ---------------------------------------------------

def test_inputs_follow_the_seed_only():
    wl = WORKLOADS["messages"]()
    first = inputs.manifest(m for r in wl.rounds(3) for m in
                            wl.round_inputs(r))
    again = inputs.manifest(m for r in wl.rounds(3) for m in
                            wl.round_inputs(r))
    other = inputs.manifest(m for r in wl.rounds(4) for m in
                            wl.round_inputs(r))
    assert first == again
    assert first["sha256"] != other["sha256"]
    assert first["count"] == other["count"]


def test_check_manifest_refuses_a_changed_digest():
    pinned = {"docs": {"7": "a" * 64}}
    assert inputs.check_manifest("docs", 7, "a" * 64, pinned) is True
    assert inputs.check_manifest("docs", 8, "b" * 64, pinned) is False
    with pytest.raises(inputs.InputsChanged):
        inputs.check_manifest("docs", 7, "b" * 64, pinned)


def test_pinned_digests_match_the_generators():
    pinned = inputs.load_pinned()
    assert set(pinned) == set(WORKLOADS)
    for name, cls in WORKLOADS.items():
        seeds = pinned[name]
        assert str(inputs.CONFIRM_SEED) in seeds
        assert {str(s) for s in inputs.PINNED_SEEDS} <= set(seeds)
        wl = cls()
        got = inputs.manifest(item for rnd in wl.rounds(0)
                              for item in wl.round_inputs(rnd))
        assert inputs.check_manifest(name, 0, got["sha256"], pinned)


def test_run_refuses_to_time_changed_inputs(monkeypatch, tmp_path, capsys):
    import run

    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"messages": {"5": "0" * 64}}))
    monkeypatch.setattr(inputs, "DIGESTS_PATH", str(path))
    code = run.main(["--workload", "messages", "--seed", "5",
                     "--seconds", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "refusing" in captured.err
    assert captured.out == ""


# -- output checks ---------------------------------------------------------

class _Repeats(workloads.Workload):
    """Two distinct rounds of one zlib stream each; from the third round
    on, the second round's stream is replaced by ``later_stream``."""

    name = "repeats"
    pool_rounds = 2

    def __init__(self, later_stream):
        super().__init__()
        self.later_stream = later_stream
        self.done = 0

    def rounds(self, seed):
        return [b"first " * 500, b"second " * 500]

    def run_round(self, data):
        res = workloads.RoundResult(start_s=time.perf_counter())
        stream = zlib.compress(data)
        if self.done >= 2 and data.startswith(b"second"):
            stream = self.later_stream
        out = self._timed(res, lambda: stream, len(data))
        res.checks.append((0, data, out))
        res.wall_s = time.perf_counter() - res.start_s
        self.done += 1
        return res


def _measure(monkeypatch, wl):
    import run

    monkeypatch.setattr(run, "setup_samples", lambda name: ([0.1], [0.1]))
    monkeypatch.setattr(run, "yardstick", lambda wl, pool: (1.0, 0.5))
    # One timed decode per output of the first pass, none after it.
    monkeypatch.setattr(run, "DECODE_MIN_S", 0.0)
    monkeypatch.setattr(run, "DECODE_SHARE", 0.0)
    decoded = []

    def zlib_decompress(stream):
        decoded.append(stream)
        return zlib.decompress(stream)

    repro = types.SimpleNamespace(zlib_decompress=zlib_decompress)
    _, attempted, failed = run.measure(wl, repro, wl.rounds(0), 0.2, {})
    return attempted, failed, decoded


def test_repeated_outputs_are_checked_by_digest(monkeypatch):
    wl = _Repeats(zlib.compress(b"second " * 500))
    attempted, failed, decoded = _measure(monkeypatch, wl)
    assert attempted == wl.done > 2 and failed == 0
    assert decoded == [zlib.compress(b"first " * 500),
                       zlib.compress(b"second " * 500)]


def test_a_changed_repeat_is_decoded_again(monkeypatch):
    # Decodes to the right bytes but differs from the first pass's stream.
    wl = _Repeats(zlib.compress(b"second " * 500, 1))
    attempted, failed, decoded = _measure(monkeypatch, wl)
    assert failed == 0
    assert wl.later_stream in decoded


def test_a_wrong_repeat_fails(monkeypatch):
    wl = _Repeats(zlib.compress(b"other! " * 500))
    attempted, failed, _ = _measure(monkeypatch, wl)
    assert failed == (wl.done - 2) // 2 > 0


# -- tracer --------------------------------------------------------------

def _snapshot():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(mod).items())
        if callable(value)
    }


def _method_snapshot():
    import importlib

    out = {}
    for module_name, attr, _key, _hook in spans.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(importlib.import_module(module_name), cls_name)
            out[attr] = owner.__dict__[meth]
    return out


def test_tracer_patches_callers_and_restores_everything():
    import repro
    import repro.api
    import repro.deflate.splitter

    for module_name, _attr, _key, _hook in spans.TARGETS:
        __import__(module_name)
    before, methods = _snapshot(), _method_snapshot()
    original = repro.api.compress
    data = b"tracing round trip " * 300
    untraced = repro.api.compress(data, profile="balanced")
    tracer = spans.Tracer()
    with tracer.active():
        assert repro.api.compress is not original
        # The splitter imported this by name; its binding is patched too.
        assert (repro.deflate.splitter.write_stored_block
                is not before[("repro.deflate.block_writer",
                               "write_stored_block")])
        traced = repro.api.compress(data, profile="balanced")
        assert repro.zlib_decompress(traced) == data
    assert traced == untraced
    assert _snapshot() == before
    assert _method_snapshot() == methods
    keys = {span[0] for span in tracer.finished_spans()}
    assert {"api.compress", "lzss.tokenize", "inflate"} <= keys
    assert tracer.counts["lzss.tokenize_in_bytes"] == len(data)


def test_tracer_restores_after_an_error():
    import repro.api

    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active():
            raise RuntimeError("boom")
    assert _snapshot() == before
    assert tracer._patched == []
    assert repro.api.compress is before[("repro.api", "compress")]


def test_self_times_nested_and_unattributed():
    spans_ = [
        ("outer", 0, 100, 1, -1),
        ("inner", 20, 50, 1, 0),
        ("inner", 60, 70, 1, 0),
        ("leaf", 30, 40, 1, 1),
    ]
    by_key, unattributed = spans.self_times(spans_, [(0, 120)])
    assert by_key == {"outer": 60, "inner": 30, "leaf": 10}
    assert unattributed == 20
    assert sum(by_key.values()) + unattributed == 120


def test_self_times_interleaved_spans_still_add_up():
    spans_ = [("a", 0, 50, 1, -1), ("b", 10, 80, 2, -1),
              ("a", 60, 70, 1, -1)]
    by_key, unattributed = spans.self_times(spans_, [(0, 50), (55, 90)])
    assert by_key == {"a": 20, "b": 55}
    assert unattributed == 10
    assert sum(by_key.values()) + unattributed == 85
