"""The repository benchmark: cold, warm-recompile and served (clustered)
compiles of the 42 (kernel, target) pairs.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``cold_compile`` — one caller compiles a seeded permutation of the 42
  pairs, each against its own empty on-disk verdict store, no rules.
  Every pass runs in a fresh interpreter (``inproc.py``), because the
  process-wide memos make a second pass in one process much faster.
* ``warm_recompile`` — set-up compiles the 42 pairs once into one store
  in a child process; then one caller sends a seeded stream with
  repeats, each request reopening that store as ``repro compile
  --cache-dir`` does.  No rules.
* ``cluster_warm`` — ``repro serve-cluster`` fronting two ``serve --rules
  --cache-tier`` workers and a ``cache-server``; set-up compiles each
  pair once and runs an untimed warm-up round, then one closed-loop
  client sends a seeded stream with ``rules=True``.

Every compile uses ``jobs=1``.  The seed only generates the request list.
``--seconds`` is the length of the served workload's timed phase; the two
in-process workloads do a fixed amount of work (:data:`ROUNDS` passes or
rounds of the 42 pairs).  Request times are scaled to a reference
host's speed by a calibration loop run before each request
(``common.calibrate``, see the README).
After the timed phase, outside its timing, every distinct selection is
run with ``repro.sim.execute`` and compared pixel for pixel with
``repro.sim.reference_execute``; served selections must also equal an
in-process compile against the serving node's flushed store and rule
library.  A wrong output fails the run (exit status 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
timed phase twice, without and with the span wrappers (``spans.py``),
requires byte-identical selections and counts from both, and prints the
per-layer ledger: mean self ms and counts per request, each ``_frac``
with its ``.base``.  Spans, the ledger and the per-pair count ledger are
written under ``.bench_out/<workload>-seed<N>-trace<T>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

LAUNCH = common.launch_monotonic()

WORKLOADS = ("cold_compile", "warm_recompile", "cluster_warm")

#: ``PYTHONHASHSEED`` of every benchmark process
HASH_SEED = "0"

#: cold passes and warm rounds (42 requests each) per phase of the two
#: in-process workloads: a fixed amount of work, so memory and count
#: ledgers compare between runs, and medians that span two request orders
#: (cold: one order and its reverse)
ROUNDS = 2

# -- workloads -----------------------------------------------------------------


def cold_compile(pairs, seed, seconds, run_dir, out_dir, traced_phase):
    """Fresh-interpreter passes over seeded permutations of the pairs.

    The work is :data:`ROUNDS` whole passes, so every run of a seed does
    the same compiles.  The order matters, because memos filled by one
    kernel speed up later ones; so every second pass runs the one before
    it backwards, and each pair is compiled once early and once late.  A
    phase of a traced run is one pass over the first permutation.  Each
    pass sets up once, in its own interpreter; ``setup_s`` is their
    median, as measured: that set-up is mostly imports, and a loop run
    at a fresh interpreter's start did not follow its speed.
    """
    import inproc

    phase = {"records": [], "peak_rss_mb": 0.0, "span_files": []}
    setups = []
    passes = 1 if traced_phase is not None else ROUNDS
    for n in range(passes):
        order = common.permutation(pairs, seed, f"pass{n // 2}")
        job = {"kind": "cold", "seed": seed,
               "pairs": order[::-1] if n % 2 else order,
               "work_dir": str(run_dir / f"pass{n}-{traced_phase}"),
               "trace": bool(traced_phase),
               "rid_prefix": f"p{n}.{traced_phase}."}
        if traced_phase:
            job["spans_out"] = str(out_dir / "cold.spans.jsonl")
            phase["span_files"].append(job["spans_out"])
        (result,) = inproc.run_children([job], run_dir)
        setups.append(result["setup_s"])
        phase["records"] += common.scaled(result["records"])
        phase["peak_rss_mb"] = max(phase["peak_rss_mb"], result["maxrss_mb"])
        shutil.rmtree(job["work_dir"], ignore_errors=True)
    phase["setup_s"] = common.quantile(sorted(setups), 0.5)
    phase["timed_s"] = common.busy_s(phase["records"])
    phase["host_scale"] = common.host_scale(
        [r["calib_s"] for r in phase["records"]])
    return phase


def warm_recompile(pairs, seed, seconds, run_dir, out_dir, traced_phase):
    """Requests reopen one warm on-disk store, one caller, closed loop.

    The work is :data:`ROUNDS` whole rounds of the stream: the caller's
    memory grows with every reopened store, so a fixed request count
    keeps peak memory comparable between runs.  The store is filled once
    per run; a traced run's second phase reuses it.
    """
    import inproc

    store = run_dir / "warm-store"
    calibs = common.calibrations()
    fill_wall_s, fill_s = 0.0, 0.0
    if not store.exists():
        fill_wall_s, fill_s = inproc.fill_store(pairs, store, run_dir,
                                                rules=False)
    calibs += common.calibrations()
    recorder = None
    if traced_phase:
        import spans

        recorder = spans.Recorder()
        spans.install_layers(recorder)
    stream = itertools.islice(common.request_stream(pairs, seed),
                              ROUNDS * len(pairs))
    start = time.monotonic()
    setup_s = fill_s + common.host_scale(calibs) * (
        start - LAUNCH - fill_wall_s - sum(calibs))
    try:
        records, compiled_at = inproc.run_stream(
            stream, recorder, lambda i: str(store),
            rid_prefix=f"{traced_phase}.")
    finally:
        if recorder is not None:
            recorder.unpatch()
    peak = common.self_maxrss_mb()
    span_files = []
    if recorder is not None:
        span_files.append(out_dir / "warm.spans.jsonl")
        recorder.write(span_files[0])
    inproc.check_records(records, compiled_at, seed)
    records = common.scaled(records)
    return {"records": records, "setup_s": setup_s,
            "timed_s": common.busy_s(records), "peak_rss_mb": peak,
            "span_files": span_files,
            "host_scale": common.host_scale([r["calib_s"] for r in records])}


def cluster_warm(pairs, seed, seconds, run_dir, out_dir, traced_phase):
    import served

    phase = served.run_served(
        pairs, seed, seconds, run_dir / f"cluster-{traced_phase}",
        out_dir if traced_phase else None, LAUNCH)
    if phase["setup_errors"]:
        raise RuntimeError("cluster set-up failed: "
                           f"{phase['setup_errors'][0]}")
    return phase


# -- metrics -------------------------------------------------------------------


def _ok(records):
    return [r for r in records if r["error"] is None]


def end_to_end(phase) -> tuple:
    """The end-to-end metrics, and the tail percentile with its sample
    count; ``phase`` has at least one successful request."""
    records = phase["records"]
    ok = _ok(records)
    latencies = sorted((r["end"] - r["start"]) * 1000.0 * r["scale"]
                       for r in ok)
    pct = common.tail_percentile(len(latencies))
    by_pair = defaultdict(set)
    for r in ok:
        by_pair[tuple(r["pair"])].add(r["cycles"])
    pair_logs = sorted(sum(math.log(c) for c in cycles) / len(cycles)
                       for cycles in by_pair.values())
    return {
        "setup_s": (phase["setup_s"], "s"),
        "compiles_per_s": (len(ok) / phase["timed_s"], "1/s"),
        "latency_p50_ms": (common.quantile(latencies, 0.5), "ms"),
        "latency_tail_ms": (common.quantile(latencies, pct / 100), "ms"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
        "cycles_geomean": (math.exp(sum(pair_logs) / len(pair_logs)),
                           "cycles"),
        "ok_frac": (len(ok) / len(records), "frac"),
    }, {"latency.tail_pct": (pct, "%"),
        "latency.samples": (len(latencies), "count")}


def count_ledger(records) -> dict:
    """Per pair: cycles and the counts of its first compile in the timed
    phase; ``varies`` marks a pair whose later compiles counted otherwise."""
    ledger = {}
    for r in _ok(records):
        key = "/".join(r["pair"])
        entry = {"cycles": r["cycles"], "counts": r["counts"]}
        if key not in ledger:
            ledger[key] = dict(entry, varies=False)
        elif (entry["cycles"], entry["counts"]) != (
                ledger[key]["cycles"], ledger[key]["counts"]):
            ledger[key]["varies"] = True
    return dict(sorted(ledger.items()))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _frac(num, den) -> float:
    return num / den if den else 0.0


def per_layer(plain, traced) -> dict:
    """The per-layer ledger of a traced run (see BENCHMARK.json)."""
    import spans

    records = traced["records"]
    n = len(records)
    layer = spans.layer_totals(spans.load_spans(traced["span_files"]),
                               {r["rid"] for r in records})
    # span times at the reference host's speed, like the end-to-end ones
    scale = traced["host_scale"]

    def calls(name):
        return layer[name]["calls"] / n if name in layer else 0.0

    def self_ms(*names):
        return scale * sum(layer[x]["self_ms"] for x in names
                           if x in layer) / n

    def total_ms(name):
        return scale * layer[name]["total_ms"] / n if name in layer else 0.0

    def outcome(name):
        return layer[name]["outcome"] if name in layer else 0

    def raw_calls(name):
        return layer[name]["calls"] if name in layer else 0

    ok = _ok(records)

    def counted(path):
        def get(r):
            value = r["counts"]
            for part in path.split("."):
                value = value[part]
            return value
        return _mean(get(r) for r in ok)

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def frac(name, num, den, base_unit="count"):
        put(name, _frac(num, den), "frac")
        put(name + ".base", den, base_unit)

    put("valuation.calls", calls("valuation"), "count")
    put("valuation.self_ms", self_ms("valuation"), "ms")
    put("lifting.calls", calls("lifting"), "count")
    put("lifting.self_ms", self_ms("lifting"), "ms")
    put("lifting.queries", counted("stages.lifting.queries"), "count")
    put("lowering.calls", calls("lowering"), "count")
    put("lowering.self_ms", self_ms("lowering"), "ms")
    put("sketching.queries", counted("stages.sketching.queries"), "count")
    put("swizzle.calls", calls("swizzle"), "count")
    put("swizzle.self_ms", self_ms("swizzle"), "ms")
    put("swizzling.queries", counted("stages.swizzling.queries"), "count")
    put("swizzle.pruned_grammar_hits",
        counted("totals.pruned_grammar_hits"), "count")
    put("oracle.calls", calls("oracle") + calls("oracle.lane0"), "count")
    put("oracle.self_ms", self_ms("oracle"), "ms")
    put("oracle.lane0.self_ms", self_ms("oracle.lane0"), "ms")
    put("oracle.full_checks", outcome("oracle") / n, "count")
    put("oracle.counterexamples", counted("totals.counterexamples"), "count")
    put("oracle.query_key.self_ms", self_ms("oracle.query_key"), "ms")
    put("fingerprints.self_ms",
        self_ms("fingerprints.resolve", "fingerprints.learn"), "ms")
    frac("fingerprints.hit_frac", outcome("fingerprints.resolve"),
         raw_calls("fingerprints.resolve"))
    put("eval.plan.self_ms", self_ms("eval.plan"), "ms")
    put("eval.denote_bank.calls", calls("eval.denote_bank"), "count")
    put("eval.denote_bank.self_ms", self_ms("eval.denote_bank"), "ms")
    batched = sum(r["counts"]["totals"]["batched_evals"] for r in ok)
    fallback = sum(r["counts"]["totals"]["fallback_evals"] for r in ok)
    frac("eval.batched_frac", batched, batched + fallback)
    put("cache.lookups", calls("cache.lookup"), "count")
    frac("cache.hit_frac", outcome("cache.lookup"), raw_calls("cache.lookup"))
    put("cache.load_ms", total_ms("cache.load"), "ms")
    put("cache.records", calls("cache.record"), "count")
    put("cache.flush_ms", total_ms("cache.flush"), "ms")
    put("rules.match.calls", calls("rules.match"), "count")
    put("rules.match.self_ms", self_ms("rules.match"), "ms")
    frac("rules.hit_frac", outcome("rules.match"), raw_calls("rules.match"))
    put("rules.recheck_failures", counted("totals.rule_recheck_failures"),
        "count")
    put("rules.hits", counted("totals.rule_hits"), "count")
    put("rules.misses", counted("totals.rule_misses"), "count")
    put("frontend.self_ms", self_ms("frontend"), "ms")
    put("sim.self_ms", self_ms("sim"), "ms")
    put("baseline.fallbacks", _mean(r["fallbacks"] for r in ok), "count")
    put("baseline.self_ms", self_ms("baseline"), "ms")
    put("pipeline.self_ms", self_ms("pipeline"), "ms")
    put("verify.queries", counted("stages.verify.queries"), "count")
    put("cache.hits", counted("totals.cache_hits"), "count")
    put("cache.misses", counted("totals.cache_misses"), "count")
    put("fingerprints.hits", counted("totals.fingerprint_hits"), "count")

    # the service and cluster layers, measured from the client side
    served = "before" in traced
    views = [r for r in ok if r.get("run_s") is not None]
    put("service.submit_ms", total_ms("service.submit"), "ms")
    put("service.polls", calls("service.status"), "count")
    put("service.poll_ms", total_ms("service.status"), "ms")
    put("service.queue_wait_ms",
        _mean(r["wait_s"] * 1000 * r["scale"] for r in views), "ms")
    put("service.run_ms",
        _mean(r["run_s"] * 1000 * r["scale"] for r in views), "ms")
    put("service.overhead_ms", _mean(
        (r["end"] - r["start"] - r["wait_s"] - r["run_s"]) * 1000
        * r["scale"] for r in views), "ms")
    frac("service.coalesced_frac",
         sum(1 for r in ok if r.get("coalesced")), n if served else 0)
    put("service.retries", traced.get("retries", 0) / n, "count")
    delta = _counter_deltas(traced) if served else defaultdict(float)
    put("served.rule_hits", delta["repro_rule_hits_total"] / n, "count")
    put("served.oracle_cache_misses",
        delta["repro_oracle_cache_misses_total"] / n, "count")
    put("served.jobs_coalesced", delta["repro_jobs_coalesced_total"] / n,
        "count")
    put("cluster.forwards", delta["repro_router_forwards_total"] / n,
        "count")
    put("cluster.failovers", delta["repro_router_failovers_total"] / n,
        "count")
    nodes = defaultdict(int)
    for r in views:
        nodes[r["node"]] += 1
    cluster = bool(traced.get("after", {}).get("router"))
    frac("cluster.node_share_max", max(nodes.values()) if cluster else 0,
         len(views) if cluster else 0)
    put("cachetier.gets", delta["tier.gets"] / n, "count")
    frac("cachetier.hit_frac", delta["tier.hits"], delta["tier.gets"])

    # the paper's Table 1 split, from the untraced phase's stage timers
    stage_s = defaultdict(float)
    for r in _ok(plain["records"]):
        for stage, secs in r.get("stage_s", {}).items():
            stage_s[stage] += secs * r["scale"]
    total_stage_ms = sum(stage_s.values()) * 1000
    for stage in ("lifting", "sketching", "swizzling", "verify"):
        frac(f"stage.{stage}_frac", stage_s[stage] * 1000, total_stage_ms,
             "ms")

    plain_cps = len(_ok(plain["records"])) / plain["timed_s"]
    traced_cps = len(ok) / traced["timed_s"]
    put("trace.overhead_frac", 1 - traced_cps / plain_cps, "frac")
    put("trace.overhead_frac.base", plain_cps, "1/s")
    plain_records = plain["records"]
    frac("failed_frac", len(plain_records) - len(_ok(plain_records)),
         len(plain_records))
    return out


def _counter_deltas(phase) -> dict:
    before, after = phase["before"], phase["after"]
    delta = defaultdict(float)
    for group in ("served", "router"):
        for name, value in after[group].items():
            delta[name] = value - before[group].get(name, 0)
    for name, value in after["tier"].items():
        delta[f"tier.{name}"] = value - before["tier"].get(name, 0)
    return delta


def _by_pair(records, field) -> dict:
    out = defaultdict(set)
    for r in _ok(records):
        out["/".join(r["pair"])].add(json.dumps(r[field], sort_keys=True))
    return out


def tracing_guard(plain, traced) -> list:
    """Pairs whose selections or counts differ with the wrappers on."""
    problems = []
    for field in ("selection", "counts"):
        a, b = _by_pair(plain["records"], field), \
            _by_pair(traced["records"], field)
        for pair in sorted(set(a) & set(b)):
            if a[pair] != b[pair]:
                problems.append(f"{pair}: {field} differs with tracing on")
    return problems


# -- entry point -------------------------------------------------------------


def _emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # String hashing order changes some synthesis counts (counterexamples)
    # and cold compile time, so every process of every run hashes alike;
    # the seed then changes nothing but the request list.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    common.use_source_tree()
    import repro.neon  # noqa: F401 - register the Neon families
    import repro.workloads  # noqa: F401 - populate the registry

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = common.ROOT / ".bench_run" / f"{tag}-{int(time.time() * 1e6)}"
    out_dir = common.ROOT / ".bench_out" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run_dir.mkdir(parents=True)
    workload = globals()[args.workload]
    pairs = common.all_pairs()
    try:
        plain = workload(pairs, args.seed, args.seconds, run_dir, out_dir,
                         0 if args.trace else None)
        phases = [plain]
        traced = None
        if args.trace:
            traced = workload(pairs, args.seed, args.seconds, run_dir,
                              out_dir, 1)
            phases.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(len(p["records"]) for p in phases)
    failed = sum(len(p["records"]) - len(_ok(p["records"])) for p in phases)
    problems = [f"{'/'.join(r['pair'])}: {r['error']}"
                for p in phases for r in p["records"] if r["error"]]
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not _ok(plain["records"]):
        print(f"{args.workload}: no request succeeded", file=sys.stderr)
        return 1
    ledger = count_ledger(plain["records"])
    digest = hashlib.sha256(
        json.dumps(ledger, sort_keys=True).encode()).hexdigest()
    (out_dir / "ledger.json").write_text(json.dumps(
        {"digest": digest, "pairs": ledger}, indent=1, sort_keys=True))
    (out_dir / "requests.json").write_text(json.dumps([
        {k: r.get(k) for k in ("pair", "start", "end", "calib_s", "scale",
                               "error", "wait_s", "run_s", "node",
                               "coalesced")}
        for r in plain["records"]]))
    metrics, tail = end_to_end(plain)
    if traced is not None:
        guard = tracing_guard(plain, traced)
        for problem in guard[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        problems += guard
        layers = per_layer(plain, traced)
        layers.update(tail)
        (out_dir / "layers.json").write_text(json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            indent=1))
        metrics = layers
    print(f"{args.workload}: {attempted} requests, {failed} failed; "
          f"tail p{tail['latency.tail_pct'][0]:g} over "
          f"{tail['latency.samples'][0]} samples; ledger {digest[:16]}",
          file=sys.stderr)
    correct = not problems
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
