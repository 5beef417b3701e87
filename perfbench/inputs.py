"""Seeded input generators of the benchmark, independent of the program.

Every input the benchmark times is made here from ``--seed`` with the
standard library's :class:`random.Random` only, so an edit to the
program (``repro.workloads`` included) cannot change what is timed.
The families mirror the data the library targets: syslog text,
wiki-style prose, CAN-bus logger records, JSON telemetry, random bytes
standing in for already-compressed blobs, and templated JSON/HTML
messages.

Sizes and mixes are fixed per workload; only the content follows the
seed, so runs on different seeds do the same amount of the same kind
of work. :func:`manifest` digests every generated input;
``digests.json`` pins those digests for the seeds listed there and
:func:`check_manifest` refuses a run whose inputs no longer match.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Iterable, List, Optional

#: Seed reserved for confirming a claimed gain; never used while tuning.
CONFIRM_SEED = 90001

#: Seeds whose input digests ``digests.json`` pins (plus CONFIRM_SEED).
PINNED_SEEDS = tuple(range(32))

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream for one (seed, labels...) combination."""
    key = "/".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- text families ----------------------------------------------------

_HOSTS = [f"node-{i:02d}" for i in range(12)]
_DAEMONS = ["sshd", "kernel", "cron", "systemd", "nginx", "dhclient",
            "postfix/smtpd", "dockerd"]
_USERS = ["root", "alice", "bob", "deploy", "backup", "www-data"]
_SYSLOG_TEMPLATES = [
    "Accepted publickey for {user} from 10.{a}.{b}.{c} port {port} ssh2",
    "Failed password for invalid user {user} from 192.168.{a}.{b} "
    "port {port} ssh2",
    "pam_unix(sshd:session): session opened for user {user} by (uid=0)",
    "({user}) CMD (run-parts /etc/cron.hourly)",
    "Started Session {num} of user {user}.",
    "eth0: link up, {speed} Mbps, full-duplex, lpa 0x{hexv:04X}",
    "GET /api/v1/items/{num}?page={b} HTTP/1.1 {status} {size} "
    "\"-\" \"curl/7.{a}\"",
    "DHCPACK of 10.{a}.{b}.{c} from 10.{a}.0.1",
    "connect from unknown[172.16.{b}.{c}]",
    "container {hexv:08x} health_status: healthy",
]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec"]


def syslog_lines(rng: random.Random, count: int) -> List[bytes]:
    """``count`` syslog lines (~100 B each, newline-terminated)."""
    month = rng.choice(_MONTHS)
    day = rng.randint(1, 28)
    clock = rng.randint(0, 80000)
    lines = []
    for _ in range(count):
        clock += rng.randint(0, 3)
        hh, rem = divmod(clock % 86400, 3600)
        mm, ss = divmod(rem, 60)
        text = rng.choice(_SYSLOG_TEMPLATES).format(
            user=rng.choice(_USERS), a=rng.randint(0, 255),
            b=rng.randint(0, 255), c=rng.randint(1, 254),
            port=rng.randint(1024, 65535), num=rng.randint(1, 99999),
            speed=rng.choice((100, 1000, 10000)),
            hexv=rng.getrandbits(32), status=rng.choice((200, 200, 304,
                                                          404, 500)),
            size=rng.randint(0, 50000),
        )
        lines.append(
            f"{month} {day:2d} {hh:02d}:{mm:02d}:{ss:02d} "
            f"{rng.choice(_HOSTS)} {rng.choice(_DAEMONS)}"
            f"[{rng.randint(100, 32000)}]: {text}\n".encode()
        )
    return lines


def _fill(parts: Iterable[bytes], size: int) -> bytes:
    out = bytearray()
    for part in parts:
        out += part
        if len(out) >= size:
            break
    return bytes(out[:size])


def syslog(rng: random.Random, size: int) -> bytes:
    """``size`` bytes of syslog text."""
    def lines():
        while True:
            yield from syslog_lines(rng, 256)
    return _fill(lines(), size)


_SYLLABLES = ["ka", "lo", "ver", "tion", "an", "de", "re", "in", "sto",
              "mar", "el", "ist", "ra", "phi", "gen", "o", "u", "cal",
              "ter", "ly", "me", "sa", "ber", "ing", "ous", "che", "ni"]


def wiki(rng: random.Random, size: int) -> bytes:
    """Wiki-style prose: Zipf vocabulary, links, headings, templates."""
    vocab = []
    for _ in range(3000):
        word = "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(1, 4)))
        vocab.append(word)
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    def paragraphs():
        title = " ".join(rng.choices(vocab, cum_weights=cum, k=2)).title()
        yield f"== {title} ==\n".encode()
        while True:
            words = rng.choices(vocab, cum_weights=cum, k=120)
            for i in range(0, 120, 9):
                if rng.random() < 0.15:
                    words[i] = f"[[{words[i]}|{words[i].title()}]]"
            sentences = []
            for i in range(0, 120, 15):
                chunk = words[i:i + 15]
                chunk[0] = chunk[0].capitalize()
                sentences.append(" ".join(chunk) + ".")
            text = " ".join(sentences)
            if rng.random() < 0.2:
                text += (" {{cite web |url=http://example.org/"
                         f"{rng.choice(vocab)} |title={rng.choice(vocab)}}}}}")
            yield (text + "\n\n").encode()
            if rng.random() < 0.1:
                head = " ".join(rng.choices(vocab, cum_weights=cum,
                                            k=2)).title()
                yield f"=== {head} ===\n".encode()
    return _fill(paragraphs(), size)


def can_records(rng: random.Random, size: int) -> bytes:
    """CAN-logger text records: periodic IDs, counters, slow signals."""
    ids = sorted(rng.sample(range(0x80, 0x7FF), 24))
    periods = {cid: rng.choice((1, 2, 5, 10, 20, 50)) for cid in ids}
    signals = {cid: [rng.randint(0, 255) for _ in range(8)] for cid in ids}
    counters = {cid: 0 for cid in ids}

    def records():
        tick = 0
        base = rng.randint(0, 10 ** 6)
        while True:
            tick += 1
            for cid in ids:
                if tick % periods[cid]:
                    continue
                data = signals[cid]
                counters[cid] = (counters[cid] + 1) & 0xFF
                data[0] = counters[cid]
                slot = rng.randrange(1, 6)
                data[slot] = (data[slot] + rng.choice((-1, 0, 0, 1))) & 0xFF
                data[6] = rng.getrandbits(8)  # noisy sensor bytes
                data[7] = rng.getrandbits(8)
                stamp = (base + tick) / 1000.0
                yield (f"{stamp:12.3f} 1 {cid:03X} Rx d 8 "
                       + " ".join(f"{b:02X}" for b in data) + "\n").encode()
    return _fill(records(), size)


def telemetry_json(rng: random.Random, size: int) -> bytes:
    """Newline-delimited JSON telemetry records."""
    devices = [f"dev-{rng.randint(1000, 9999)}" for _ in range(16)]
    state = {d: [rng.uniform(15, 30), rng.uniform(900, 1100), 100.0]
             for d in devices}

    def records():
        ts = 1_700_000_000 + rng.randint(0, 10 ** 6)
        while True:
            ts += rng.randint(1, 5)
            dev = rng.choice(devices)
            temp, press, batt = state[dev]
            temp += rng.uniform(-0.2, 0.2)
            press += rng.uniform(-0.5, 0.5)
            batt = max(0.0, batt - rng.uniform(0, 0.01))
            state[dev] = [temp, press, batt]
            yield json.dumps({
                "ts": ts, "device": dev, "temp_c": round(temp, 2),
                "pressure_hpa": round(press, 1), "battery": round(batt, 2),
                "status": rng.choice(("ok", "ok", "ok", "warn")),
                "seq": rng.randint(0, 1 << 20),
            }, separators=(",", ":")).encode() + b"\n"
    return _fill(records(), size)


def random_bytes(rng: random.Random, size: int) -> bytes:
    """Uniform random bytes: stands in for already-compressed data."""
    return rng.randbytes(size)


def message(rng: random.Random, kind: str, size: int) -> bytes:
    """One templated JSON or HTML message of exactly ``size`` bytes."""
    out = bytearray()
    if kind == "json":
        out += b'{"type":"order","version":3,"items":['
        while len(out) < size:
            out += json.dumps({
                "sku": f"SKU-{rng.randint(10000, 99999)}",
                "qty": rng.randint(1, 9),
                "price": round(rng.uniform(1, 500), 2),
                "warehouse": rng.choice(("north", "south", "east")),
                "tags": rng.sample(["new", "sale", "bulk", "gift",
                                    "fragile"], 2),
            }, separators=(",", ":")).encode() + b","
    else:
        out += (b"<!DOCTYPE html><html><head><title>Report</title></head>"
                b"<body><table class=\"grid\">")
        while len(out) < size:
            out += (f"<tr><td class=\"id\">{rng.randint(1, 99999)}</td>"
                    f"<td class=\"name\">{rng.choice(_USERS)}</td>"
                    f"<td class=\"amount\">{rng.uniform(0, 1e4):.2f}</td>"
                    "</tr>").encode()
    return bytes(out[:size])


DOC_FAMILIES = {
    "syslog": syslog,
    "wiki": wiki,
    "can": can_records,
    "json": telemetry_json,
    "random": random_bytes,
}


def document(seed: int, family: str, size: int, *labels) -> bytes:
    return DOC_FAMILIES[family](rng_for(seed, family, size, *labels), size)


# -- digests ----------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(inputs: Iterable[bytes]) -> Dict[str, object]:
    """Per-input sha256 digests plus one digest over all of them."""
    each = [sha256(item) for item in inputs]
    overall = hashlib.sha256("\n".join(each).encode()).hexdigest()
    return {"count": len(each), "sha256": overall, "inputs": each}


def load_pinned(path: Optional[str] = None) -> dict:
    try:
        with open(path or DIGESTS_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


class InputsChanged(Exception):
    """The generated inputs no longer match their pinned digest."""


def check_manifest(workload: str, seed: int, digest: str,
                   pinned: Optional[dict] = None) -> bool:
    """Refuse inputs whose digest differs from the pinned one.

    Returns True when the seed is pinned and matches, False when the
    seed is not pinned; raises :class:`InputsChanged` on a mismatch.
    """
    if pinned is None:
        pinned = load_pinned()
    expected = pinned.get(workload, {}).get(str(seed))
    if expected is None:
        return False
    if expected != digest:
        raise InputsChanged(
            f"{workload} seed {seed}: inputs digest {digest[:16]}... "
            f"differs from the pinned {expected[:16]}...; the input "
            "generators changed, so these runs are not comparable"
        )
    return True
