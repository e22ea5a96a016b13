"""Verdict-store load time: map records against one line per verdict, and
a scoped open against a full one.

Writes the same 7,349 synthetic verdicts (sha256-hex keys, as query keys
are; the count a cold 42-pair pass stored before the cost bound cut it
to 5,355) into two stores: one through ``OracleCache`` itself, as map
records of up to 128 verdicts, and one as the one-verdict ``{"t":"v"}``
lines that older stores hold, through the same ``fsutil.encode_record``.
It then opens each store with ``OracleCache.with_disk`` :data:`ROUNDS`
times, alternating which goes first, and prints the median load time of
each and their ratio.

It exits non-zero unless both stores load the same verdict map with no
corrupt line and the map store loads at least :data:`MIN_SPEEDUP` times
faster.

With ``--scoped`` it spreads the same verdicts over :data:`SCOPES`
scopes instead, written as that many compiles write them (each through
``OracleCache.with_disk(scope=...)``), and alternates a full open with a
scoped open of one scope, a different one each round.  It exits non-zero
unless every scoped open leaves the other scopes' lines unparsed, answers
its scope's keys as the full open does, and opens at least
:data:`MIN_SCOPED_SPEEDUP` times faster (medians).

Both comparisons run in one process on one machine, so the ratio does
not depend on the runner's speed.  CI's ``cache-store-smoke`` runs both::

    python benchmarks/bench_store_load.py
    python benchmarks/bench_store_load.py --scoped
"""

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.fsutil import encode_record
from repro.synthesis.engine import CACHE_FILE_NAME, OracleCache

VERDICTS = 7349
ROUNDS = 15
MIN_SPEEDUP = 3.0
#: compiles the scoped store holds, one scope each (the 42 pairs)
SCOPES = 42
MIN_SCOPED_SPEEDUP = 3.0


def verdicts() -> dict:
    """Fixed keys shaped like query keys, about half of them refuted."""
    out = {}
    for i in range(VERDICTS):
        digest = hashlib.sha256(f"query {i}".encode()).digest()
        out[digest.hex()] = digest[0] % 2 == 0
    return out


def write_stores(root: Path, expected: dict) -> tuple[Path, Path]:
    maps, lines = root / "maps", root / "lines"
    cache = OracleCache.with_disk(maps)
    for key, verdict in expected.items():
        cache.record(key, verdict)
    cache.flush()
    lines.mkdir()
    (lines / CACHE_FILE_NAME).write_text("".join(
        encode_record({"t": "v", "k": key, "v": int(verdict)}) + "\n"
        for key, verdict in expected.items()))
    return maps, lines


def load_ms(directory: Path, scope=None) -> tuple[float, OracleCache]:
    start = time.perf_counter()
    cache = OracleCache.with_disk(directory, scope=scope)
    return (time.perf_counter() - start) * 1e3, cache


def maps_against_lines() -> int:
    expected = verdicts()
    with tempfile.TemporaryDirectory() as tmp:
        maps, lines = write_stores(Path(tmp), expected)
        n_lines = [len((d / CACHE_FILE_NAME).read_bytes().splitlines())
                   for d in (maps, lines)]
        times = {maps: [], lines: []}
        for i in range(ROUNDS):
            for directory in ((maps, lines) if i % 2 else (lines, maps)):
                ms, cache = load_ms(directory)
                times[directory].append(ms)
                if (cache._verdicts != expected
                        or cache.store.corrupt_lines):
                    print(f"FAIL: {directory.name} store loaded "
                          f"{len(cache)} verdicts, "
                          f"{cache.store.corrupt_lines} corrupt lines")
                    return 1
    map_ms = statistics.median(times[maps])
    line_ms = statistics.median(times[lines])
    speedup = line_ms / map_ms
    print(f"{VERDICTS} verdicts: map records {n_lines[0]} lines "
          f"{map_ms:.2f} ms, one per line {n_lines[1]} lines "
          f"{line_ms:.2f} ms (medians of {ROUNDS}): {speedup:.1f}x")
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: map store loads only {speedup:.1f}x faster "
              f"(need {MIN_SPEEDUP}x)")
        return 1
    print("store load OK")
    return 0


def write_scoped_store(directory: Path, expected: dict) -> dict:
    """The verdicts spread over :data:`SCOPES` compiles, each writing its
    share under its own scope; returns scope -> its verdicts."""
    keys = list(expected)
    shares = {}
    for i in range(SCOPES):
        scope = hashlib.sha256(f"compile {i}".encode()).hexdigest()
        shares[scope] = {key: expected[key] for key in keys[i::SCOPES]}
        cache = OracleCache.with_disk(directory, scope=scope)
        for key, verdict in shares[scope].items():
            cache.record(key, verdict)
        cache.flush()
    return shares


def scoped_against_full() -> int:
    expected = verdicts()
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp)
        shares = write_scoped_store(store, expected)
        data = (store / CACHE_FILE_NAME).read_bytes()
        lines = data.decode().splitlines()
        scopes = list(shares)
        times = {"full": [], "scoped": []}
        for i in range(ROUNDS):
            scope = scopes[i * 5 % SCOPES]
            opened = {}
            for kind in (("full", "scoped") if i % 2 else ("scoped", "full")):
                ms, opened[kind] = load_ms(
                    store, scope if kind == "scoped" else None)
                times[kind].append(ms)
            full, scoped = opened["full"], opened["scoped"]
            theirs = sum(f'"s":"{scope}"' not in line for line in lines)
            unparsed = scoped.deferred
            answers = {key: scoped.lookup(key) for key in shares[scope]}
            if (full._verdicts != expected or full.store.corrupt_lines
                    or scoped.store.corrupt_lines
                    or unparsed != theirs or scoped.deferred != theirs
                    or answers != {key: full.lookup(key)
                                   for key in shares[scope]}):
                print(f"FAIL: the open scoped to compile {i * 5 % SCOPES} "
                      f"left {unparsed} of the other scopes' {theirs} "
                      f"lines unparsed, {scoped.deferred} after its "
                      f"lookups, or answered its keys unlike a full open")
                return 1
        if (store / CACHE_FILE_NAME).read_bytes() != data:
            print("FAIL: a scoped open that only hit its own keys wrote")
            return 1
    full_ms = statistics.median(times["full"])
    scoped_ms = statistics.median(times["scoped"])
    speedup = full_ms / scoped_ms
    print(f"{VERDICTS} verdicts under {SCOPES} scopes, {len(lines)} lines: "
          f"full open {full_ms:.2f} ms, scoped open {scoped_ms:.2f} ms "
          f"(medians of {ROUNDS}): {speedup:.1f}x")
    if speedup < MIN_SCOPED_SPEEDUP:
        print(f"FAIL: a scoped open is only {speedup:.1f}x faster "
              f"(need {MIN_SCOPED_SPEEDUP}x)")
        return 1
    print("scoped open OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scoped", action="store_true",
                        help="compare a scoped open of one compile's "
                             "verdicts with a full open instead")
    args = parser.parse_args(argv)
    return scoped_against_full() if args.scoped else maps_against_lines()


if __name__ == "__main__":
    sys.exit(main())
