"""Verdict-store load time: map records against one line per verdict.

Writes the same 7,349 synthetic verdicts (the count a 42-pair store
holds; sha256-hex keys, as query keys are) into two stores: one through
``OracleCache`` itself, as map records of up to 128 verdicts, and one as
the one-verdict ``{"t":"v"}`` lines that older stores hold, through the
same ``fsutil.encode_record``.  It then opens each store with
``OracleCache.with_disk`` :data:`ROUNDS` times, alternating which goes
first, and prints the median load time of each and their ratio.

It exits non-zero unless both stores load the same verdict map with no
corrupt line and the map store loads at least :data:`MIN_SPEEDUP` times
faster.  Both loads run in one process on one machine, so the ratio
does not depend on the runner's speed.  CI's ``cache-store-smoke`` runs
it::

    python benchmarks/bench_store_load.py
"""

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


def load_ms(directory: Path) -> tuple[float, OracleCache]:
    start = time.perf_counter()
    cache = OracleCache.with_disk(directory)
    return (time.perf_counter() - start) * 1e3, cache


def main() -> int:
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


if __name__ == "__main__":
    sys.exit(main())
