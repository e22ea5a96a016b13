"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the 21-benchmark suite with paper bands.
* ``compile WORKLOAD`` — compile with one or both instruction selectors,
  report simulated cycles and (optionally) the selected programs.
* ``isa`` — browse the registered instruction families (HVX and Neon).
* ``speedups`` — the Figure 11 sweep over every workload (slow: full
  synthesis for the suite).
* ``trace WORKLOAD`` — compile once with tracing on and render/export the
  span tree (ASCII timeline, Chrome ``trace_event`` JSON, flamegraph).
* ``prune-grammar`` — precompute each target's pruned swizzle grammar.
* ``mine-rules`` — compile workloads and persist every proven lowering
  as a parameterized rewrite rule; ``compile --rules`` then answers
  matching expressions from the library (see :mod:`repro.rules`).
* ``serve`` — run the long-lived compilation server
  (:mod:`repro.service`); ``submit`` / ``status`` talk to it.
  ``serve-cluster`` fronts several servers and ``cache-server`` runs
  their shared verdict tier (:mod:`repro.cluster`).
* ``perf`` — analyze the persistent telemetry corpus.

``--log-level``/``--log-json`` (global, before the subcommand) configure
the structured logger every component shares (:mod:`repro.trace.log`).

Each setting is declared once.  A flag that several subcommands take
lives in one parent parser (:func:`build_parser`); :func:`_store_dirs`
resolves the cache, rules and telemetry directories for every command
that opens them; :func:`_serve_daemon` is the one start-up path of the
three daemons.

Errors the user can act on (unknown workloads, unwritable paths, an
unreachable server) are reported as a one-line message on stderr with a
nonzero exit code — never a traceback.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

from . import workloads  # noqa: F401 - populate the registry
from . import neon  # noqa: F401 - register the Neon instruction families
from . import faults
from .errors import ReproError
from .fsutil import atomic_write_json, atomic_write_text
from .hvx import all_instructions, program_listing, to_assembly
from .pipeline import compile_pipeline
from .reporting import (
    SpeedupRow,
    engine_summary,
    job_summary,
    service_summary,
    speedup_figure,
)
from .sim import measure
from .synthesis.engine import default_cache_dir
from .trace import Tracer, configure_logging, get_logger, write_chrome_trace
from .workloads.base import all_workloads, get, names

_log = get_logger("repro.cli")


def _fail(message: str) -> int:
    """One-line operator-facing error; the uniform nonzero-exit path."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _writable_dir_error(path) -> str | None:
    """Why ``path`` cannot be used as a writable directory, or ``None``."""
    probe = os.path.join(str(path), ".write-probe")
    try:
        os.makedirs(path, exist_ok=True)
        with open(probe, "a", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as exc:
        return f"cannot write to directory {path}: {exc.strerror or exc}"
    return None


def _writable_file_error(path: str) -> str | None:
    """Why ``path`` cannot be opened for writing, or ``None``.

    Probes with append mode so an existing file's content survives the
    check; a file the probe had to create is removed again.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        return f"cannot write {path}: {exc.strerror or exc}"
    return None


def _opted_in(args, store: str) -> bool:
    """Did this invocation opt into ``store`` (``rules`` or ``telemetry``)?

    ``--rules`` / ``--no-rules`` decide when given; otherwise
    ``--rules-dir DIR`` implies ``--rules``.  Telemetry follows the same
    convention.
    """
    on = getattr(args, store, None)
    if on is None:
        return bool(getattr(args, f"{store}_dir", None))
    return on


def _store_dirs(args):
    """The cache, rules and telemetry directories of this invocation.

    Returns ``(cache_dir, rules_dir, telemetry_dir)``, each ``None`` when
    that store is off.  ``--cache-dir`` beats ``--cache`` (the default
    cache dir), which beats no verdict store.  Rules (see
    :func:`_opted_in`; ``mine-rules``, which makes them, has no switch)
    live in ``--rules-dir``, else the cache dir, else the default cache
    dir; telemetry in ``--telemetry-dir``, else ``<default cache
    dir>/telemetry``.

    Each directory is probed before any work starts, so a typo'd path
    fails in milliseconds instead of after a multi-minute compile, with
    a one-line :class:`ReproError` naming the flag.  Opting in is a
    statement of intent: the rule and telemetry *writes* stay
    best-effort once the work runs.
    """
    mining = args.command == "mine-rules"
    cache_dir = args.cache_dir or (
        str(default_cache_dir()) if args.cache else None)
    rules_dir = telemetry_dir = None
    if mining or _opted_in(args, "rules"):
        rules_dir = args.rules_dir or cache_dir or str(default_cache_dir())
    if _opted_in(args, "telemetry"):
        from .telemetry import default_telemetry_dir

        telemetry_dir = args.telemetry_dir or str(default_telemetry_dir())
    for flag, path in (("--cache-dir", cache_dir),
                       ("--rules-dir" if mining else "--rules", rules_dir),
                       ("--telemetry", telemetry_dir)):
        if path is not None:
            problem = _writable_dir_error(path)
            if problem is not None:
                raise ReproError(f"{flag}: {problem}")
    return cache_dir, rules_dir, telemetry_dir


def _fault_plan(source: str):
    """The ``--fault-plan`` named by ``source`` (a built-in plan or a
    plan file), or a one-line :class:`ReproError`."""
    try:
        return faults.load_plan(source)
    except ValueError as exc:
        raise ReproError(f"--fault-plan: {exc}") from None


def _serve_daemon(args, build, announce) -> int:
    """Run the daemon ``build()`` makes until SIGINT/SIGTERM or a
    shutdown request: the start-up ``serve``, ``serve-cluster`` and
    ``cache-server`` share.

    ``--port-file`` is probed first and receives ``host port`` once the
    socket is bound (with ``--port 0``, the only way a script learns the
    port).  ``--fault-plan``, on the commands that take it, is active
    from before the daemon is built, so its store loads see it, for the
    daemon's lifetime.  ``announce(daemon)`` reports the bound daemon.
    """
    if args.port_file:
        problem = _writable_file_error(args.port_file)
        if problem is not None:
            return _fail(f"--port-file: {problem}")
    if getattr(args, "fault_plan", None):
        plan = faults.activate(_fault_plan(args.fault_plan))
        _log.warning("fault injection active",
                     plan=plan.name or args.fault_plan,
                     rules=len(plan.rules), seed=plan.seed)
    daemon = build()

    def _on_signal(signum, frame):
        # Drain off the signal handler's thread: shutdown blocks.
        threading.Thread(target=daemon.shutdown, name="repro-shutdown",
                         daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _on_signal)
    host, port = daemon.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{host} {port}\n")
    announce(daemon)
    try:
        daemon.serve_forever()
    except OSError:
        pass  # the socket was closed by the signal-handler shutdown
    _log.info("stopped", command=args.command)
    return 0


def _cmd_list(args) -> int:
    print(f"{'name':>16}  {'category':<14} {'band':<10} notes")
    print("-" * 76)
    for wl in all_workloads():
        paper = f"{wl.paper_speedup}x" if wl.paper_speedup else wl.paper_band
        note = (wl.notes[:60] + "...") if len(wl.notes) > 60 else wl.notes
        print(f"{wl.name:>16}  {wl.category:<14} {paper:<10} {note}")
    return 0


def _compile_one(name: str, backend: str, show_programs: bool,
                 width: int | None, height: int | None, asm: bool = False,
                 cache_dir: str | None = None, batch_eval: bool = True,
                 tracer=None, target: str = "hvx", rules=None):
    wl = get(name)
    compiled = compile_pipeline(wl.build(), backend=backend,
                                cache_dir=cache_dir, batch_eval=batch_eval,
                                tracer=tracer, target=target, rules=rules)
    cycles = measure(compiled, width or wl.width, height or wl.height)
    label = backend if target == "hvx" else f"{backend}/{target}"
    rule_note = (f", {compiled.rule_hits} via rules"
                 if compiled.rule_hits else "")
    print(f"[{label}] {name}: {cycles.total} cycles "
          f"({compiled.optimized_exprs} expressions synthesized, "
          f"{compiled.fallbacks} fallbacks{rule_note})")
    for sc in cycles.stages:
        print(f"    stage {sc.name}: {sc.total} cycles "
              f"(II {sc.compute_ii}, mem {sc.memory_cycles}, {sc.bound}-bound)")
    if show_programs or asm:
        for cs in compiled.stages:
            for ce in cs.exprs:
                if ce.selector == "trivial":
                    continue
                print(f"\n-- {cs.name} [{ce.selector}] --")
                if asm:
                    print(to_assembly(ce.program))
                else:
                    print(program_listing(ce.program))
    return cycles.total, compiled


def _cmd_compile(args) -> int:
    if args.workload not in names():
        print(f"error: unknown workload {args.workload!r}; "
              f"see `python -m repro list`", file=sys.stderr)
        return 2
    backends = ["rake", "baseline"] if args.backend == "both" else [args.backend]
    cache_dir, rules_dir, telemetry_dir = _store_dirs(args)
    for flag, path in (("--stats-json", args.stats_json),
                       ("--trace-out", args.trace_out)):
        problem = _writable_file_error(path) if path else None
        if problem is not None:
            return _fail(f"{flag}: {problem}")
    rules_lib = None
    if rules_dir is not None:
        from .rules import RuleLibrary, rules_file

        rules_lib = RuleLibrary(rules_file(rules_dir, args.target),
                                target=args.target)
    plan = None
    if args.fault_plan:
        plan = faults.activate(_fault_plan(args.fault_plan))
        print(f"fault injection active: plan "
              f"{plan.name or args.fault_plan!r} (seed {plan.seed}, "
              f"{len(plan.rules)} rules)")
    telemetry_store = None
    if telemetry_dir is not None:
        from .telemetry import TelemetryStore

        telemetry_store = TelemetryStore(telemetry_dir)
    tracer = Tracer() if args.trace_out else None
    totals = {}
    compiled_by_backend = {}
    wall_by_backend = {}
    try:
        for backend in backends:
            began = time.perf_counter()
            totals[backend], compiled_by_backend[backend] = _compile_one(
                args.workload, backend, args.show_programs, args.width,
                args.height, asm=args.asm, cache_dir=cache_dir,
                batch_eval=not args.no_batch_eval,
                tracer=tracer, target=args.target,
                rules=rules_lib if backend == "rake" else None,
            )
            wall_by_backend[backend] = time.perf_counter() - began
    finally:
        if plan is not None:
            faults.deactivate()
            injected = plan.by_site()
            if injected:
                sites = ", ".join(
                    f"{site} x{count}"
                    for site, count in sorted(injected.items())
                )
                print(f"faults injected: {plan.injected_total()} ({sites})")
            else:
                print("faults injected: 0")
    telemetry_info = None
    if telemetry_store is not None:
        from .telemetry import build_record, emit

        # With --backend both, one tracer collects both compiles'
        # spans; attributing the merged tree to either record would
        # misreport, so spans fold in only for single-backend runs.
        tree = (tracer.tree()
                if tracer is not None and len(backends) == 1 else None)
        for backend in backends:
            compiled = compiled_by_backend[backend]
            record = build_record(
                source="cli",
                workload=args.workload,
                target=args.target,
                backend=backend,
                wall_s=wall_by_backend[backend],
                stats=compiled.stats,
                trace_tree=tree,
                degraded=bool(getattr(compiled, "degraded", False)),
                knobs={
                    "batch_eval": not args.no_batch_eval,
                    "rules": rules_lib is not None and backend == "rake",
                    "cache": cache_dir is not None,
                },
            )
            record_id = emit(telemetry_store, record)
            if backend == "rake" and record_id is not None:
                telemetry_info = {
                    "record_id": record_id,
                    "store": str(telemetry_store.directory),
                }
    rake_compiled = compiled_by_backend.get("rake")
    rake_stats = rake_compiled.stats if rake_compiled is not None else None
    if rake_stats is not None and rake_stats.total("queries"):
        print(engine_summary(rake_stats, telemetry=telemetry_info))
    if args.stats_json and rake_stats is not None:
        payload = rake_stats.as_dict()
        if telemetry_info is not None:
            payload["telemetry"] = telemetry_info
        try:
            atomic_write_json(args.stats_json, payload, indent=2)
        except OSError as exc:
            return _fail(f"cannot write --stats-json {args.stats_json}: "
                         f"{exc.strerror or exc}")
        print(f"wrote synthesis stats to {args.stats_json}")
    if tracer is not None:
        try:
            write_chrome_trace(tracer.tree(), args.trace_out)
        except OSError as exc:
            return _fail(f"cannot write --trace-out {args.trace_out}: "
                         f"{exc.strerror or exc}")
        print(f"wrote Chrome trace to {args.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if len(totals) == 2:
        print(f"\nspeedup: {totals['baseline'] / totals['rake']:.2f}x "
              f"(baseline / rake)")
    return 0


def _cmd_isa(args) -> int:
    for name, instr in sorted(all_instructions().items()):
        if args.target == "hvx" and name.startswith("neon."):
            continue
        if args.target == "neon" and not name.startswith("neon."):
            continue
        if args.group and args.group not in instr.groups:
            continue
        groups = ",".join(sorted(instr.groups))
        print(f"{name:<18} [{instr.resource:>7}] ({groups})")
        print(f"    {instr.doc}")
    return 0


def _cmd_speedups(args) -> int:
    if args.only:
        unknown = [name for name in args.only if name not in names()]
        if unknown:
            print(f"error: unknown workload(s): {', '.join(unknown)}; "
                  f"see `python -m repro list`", file=sys.stderr)
            return 2
    rows = []
    for wl in all_workloads():
        if args.only and wl.name not in args.only:
            continue
        _log.info("compiling", workload=wl.name)
        rake = compile_pipeline(wl.build(), backend="rake",
                                batch_eval=not args.no_batch_eval)
        base = compile_pipeline(wl.build(), backend="baseline")
        rows.append(SpeedupRow(
            name=wl.name,
            rake_cycles=measure(rake, wl.width, wl.height).total,
            baseline_cycles=measure(base, wl.width, wl.height).total,
            paper_speedup=wl.paper_speedup,
            paper_band=wl.paper_band,
        ))
    print(speedup_figure(sorted(rows, key=lambda r: r.name)))
    return 0


def _cmd_trace(args) -> int:
    from .reporting import trace_timeline
    from .trace import write_flamegraph

    if args.workload not in names():
        print(f"error: unknown workload {args.workload!r}; "
              f"see `python -m repro list`", file=sys.stderr)
        return 2
    if args.trace_out:
        problem = _writable_file_error(args.trace_out)
        if problem is not None:
            return _fail(f"--trace-out: {problem}")
    wl = get(args.workload)
    tracer = Tracer()
    compiled = compile_pipeline(
        wl.build(), backend=args.backend,
        batch_eval=not args.no_batch_eval, tracer=tracer,
    )
    cycles = measure(compiled, args.width or wl.width,
                     args.height or wl.height)
    tree = tracer.tree()
    print(trace_timeline(tree, max_depth=args.depth))
    print(f"\n[{args.backend}] {args.workload}: {cycles.total} cycles "
          f"({compiled.optimized_exprs} expressions synthesized, "
          f"{compiled.fallbacks} fallbacks)")
    if args.trace_out:
        try:
            if args.format == "flame":
                write_flamegraph(tree, args.trace_out)
            elif args.format == "timeline":
                atomic_write_text(
                    args.trace_out,
                    trace_timeline(tree, max_depth=args.depth) + "\n",
                )
            else:
                write_chrome_trace(tree, args.trace_out)
        except OSError as exc:
            return _fail(f"cannot write --trace-out {args.trace_out}: "
                         f"{exc.strerror or exc}")
        print(f"wrote {args.format} trace to {args.trace_out}")
    return 0


def _cmd_prune_grammar(args) -> int:
    from .targets import TARGET_NAMES, get_target
    from .targets import pruning

    targets = list(TARGET_NAMES) if args.target == "all" else [args.target]
    if args.workloads:
        unknown = [name for name in args.workloads if name not in names()]
        if unknown:
            print(f"error: unknown workload(s): {', '.join(unknown)}; "
                  f"see `python -m repro list`", file=sys.stderr)
            return 2
        workload_names = args.workloads
    else:
        workload_names = names()
    out_dir = args.out or pruning.data_dir()
    problem = _writable_dir_error(out_dir)
    if problem is not None:
        return _fail(f"--out: {problem}")
    for target_name in targets:
        target = get_target(target_name)
        _log.info("harvesting placeholders", target=target_name,
                  workloads=len(workload_names))
        table = pruning.build_table(target, workload_names)
        path = os.path.join(out_dir, f"pruned_{target_name}.json")
        try:
            pruning.write_table(table, path)
        except OSError as exc:
            return _fail(f"cannot write {path}: {exc.strerror or exc}")
        kept = sum(len(e["keep"]) for e in table["signatures"].values())
        total = sum(e["total"] for e in table["signatures"].values())
        print(f"[{target_name}] {len(table['signatures'])} signatures: "
              f"{total} realizations pruned to {kept} "
              f"({path})")
    # A process that already compiled sees the new tables on next load.
    pruning.invalidate()
    return 0


def _cmd_mine_rules(args) -> int:
    from .rules import mine_rules

    cache_dir, rules_dir, _ = _store_dirs(args)
    targets = ("hvx", "neon") if args.target == "all" else (args.target,)
    if args.workloads:
        for name in args.workloads:
            if name not in names():
                return _fail(f"unknown workload {name!r}")
    reports = mine_rules(workloads=args.workloads or None, targets=targets,
                         cache_dir=cache_dir, rules_dir=rules_dir)
    for report in reports:
        print(f"[{report.target}] mined {report.mined} rules from "
              f"{len(report.workloads)} workloads "
              f"({report.rule_hits} answered by existing rules); "
              f"library now holds {report.library_size} -> {report.path}")
    return 0


def _cmd_serve(args) -> int:
    from .service.server import CompileServer

    cache_dir, rules_dir, telemetry_dir = _store_dirs(args)
    return _serve_daemon(
        args,
        lambda: CompileServer(
            host=args.host, port=args.port, workers=args.workers,
            queue_size=args.queue_size, cache_dir=cache_dir,
            aging_rate=args.aging_rate, quiet=args.quiet,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            rules=rules_dir is not None, rules_dir=rules_dir,
            telemetry_dir=telemetry_dir, node_id=args.node_id,
            cache_tier=args.cache_tier,
        ),
        lambda server: _log.info("listening", url=server.url,
                                 workers=args.workers,
                                 queue_size=args.queue_size),
    )


def _cmd_serve_cluster(args) -> int:
    from .cluster.router import ClusterRouter

    if len(args.node) < 1:
        return _fail("serve-cluster needs at least one --node URL")
    nodes = args.node
    if all("=" in url.split("://", 1)[0] for url in nodes):
        # ``--node name=url`` syntax: keep the operator's node ids so
        # router health/metrics agree with what the workers call
        # themselves (``serve --node-id``).
        nodes = dict(url.split("=", 1) for url in nodes)
    return _serve_daemon(
        args,
        lambda: ClusterRouter(
            nodes, host=args.host, port=args.port, router_id=args.router_id,
            health_interval_s=args.health_interval, quiet=args.quiet,
        ),
        lambda router: _log.info("router listening", url=router.url,
                                 nodes=len(router.nodes)),
    )


def _cmd_cache_server(args) -> int:
    from .cluster.cachetier import CacheTierServer

    if args.cache_dir:
        problem = _writable_dir_error(args.cache_dir)
        if problem is not None:
            return _fail(f"--cache-dir: {problem}")

    def announce(server):
        print(f"cache tier listening on {server.endpoint}"
              + (f" (persisted in {args.cache_dir})" if args.cache_dir
                 else " (in-memory)"))

    return _serve_daemon(
        args,
        lambda: CacheTierServer(host=args.host, port=args.port,
                                cache_dir=args.cache_dir),
        announce,
    )


def _cmd_submit(args) -> int:
    from .service.client import ServiceClient
    from .service.protocol import CompileRequest

    request = CompileRequest(
        workload=args.workload,
        backend=args.backend,
        target=args.target,
        width=args.width,
        height=args.height,
        priority=args.priority,
        deadline_s=args.deadline,
        batch_eval=not args.no_batch_eval,
        trace=bool(args.trace or args.trace_out),
        rules=bool(args.rules),
    ).validate()
    if args.trace_out:
        problem = _writable_file_error(args.trace_out)
        if problem is not None:
            return _fail(f"--trace-out: {problem}")
    client = ServiceClient(args.url)
    submitted = client.submit(request)
    coalesced = " (coalesced onto an identical in-flight job)" if (
        submitted.get("coalesced")) else ""
    print(f"submitted job {submitted['id']}{coalesced}")
    if not args.wait:
        print(f"poll with: python -m repro status {submitted['id']} "
              f"--url {args.url}")
        return 0
    view = client.wait(submitted["id"], timeout=args.timeout)
    print(job_summary(view))
    if view.trace_id:
        print(f"    trace id: {view.trace_id}")
    if args.show_programs and view.result is not None:
        for prog in view.result.programs:
            print(f"\n-- {prog['stage']} [{prog['selector']}] --")
            print(prog["listing"])
    if args.trace_out:
        tree = client.trace(submitted["id"])
        if tree is None:
            print("no trace recorded for this job (it may have coalesced "
                  "onto an untraced submission)", file=sys.stderr)
        else:
            try:
                write_chrome_trace(tree, args.trace_out)
            except OSError as exc:
                return _fail(f"cannot write --trace-out {args.trace_out}: "
                             f"{exc.strerror or exc}")
            print(f"wrote Chrome trace to {args.trace_out}")
    return 0 if view.state == "done" else 1


def _cmd_status(args) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job:
        print(job_summary(client.status(args.job)))
        return 0
    print(service_summary(client.healthz(), client.metrics()))
    return 0


def _load_corpus(path, args):
    """Read + filter one telemetry store for the ``perf`` commands.

    Returns ``(records, error)`` — exactly one is ``None``.  A path with
    no segment files is a *bad store* (exit 2 at the call sites), while
    a store whose records all filter away is merely empty.
    """
    from .telemetry import filter_records, read_store, segment_files

    if not segment_files(path):
        return None, f"no telemetry store at {path} (no segment files)"
    report = read_store(path)
    if report.corrupt_lines:
        print(f"note: {path}: {report.corrupt_lines} corrupt lines "
              f"quarantined across {len(report.quarantined)} segment(s)",
              file=sys.stderr)
    records = filter_records(
        report.records,
        workload=getattr(args, "workload", None),
        target=getattr(args, "filter_target", None),
        source=getattr(args, "source", None),
        rev=getattr(args, "rev", None),
        node_id=getattr(args, "node", None),
    )
    return records, None


def _cmd_perf_report(args) -> int:
    from .telemetry import corpus_geomean, summarize_groups

    records, problem = _load_corpus(args.store, args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    rows = summarize_groups(records, args.metric)
    print(f"telemetry corpus: {args.store}  metric={args.metric}  "
          f"records={len(records)}")
    if not rows:
        print("(no matching records)")
        return 0
    print(f"{'workload':<14} {'target':<8} {'n':>4} {'min':>10} {'p50':>10} "
          f"{'p90':>10} {'max':>10} {'deg':>4}  rev")
    for row in rows:
        print(f"{row['workload']:<14} {row['target']:<8} {row['n']:>4} "
              f"{row['min']:>10.4g} {row['p50']:>10.4g} "
              f"{row['p90']:>10.4g} {row['max']:>10.4g} "
              f"{row['degraded']:>4}  {row['latest_rev']}")
    print(f"geomean(p50) = {corpus_geomean(rows):.4g}")
    return 0


def _cmd_perf_diff(args) -> int:
    from .telemetry import compare

    baseline, problem = _load_corpus(args.baseline, args)
    if problem is not None:
        print(f"error: baseline: {problem}", file=sys.stderr)
        return 2
    current, problem = _load_corpus(args.current, args)
    if problem is not None:
        print(f"error: current: {problem}", file=sys.stderr)
        return 2
    try:
        report = compare(
            baseline, current, metric=args.metric,
            threshold=args.threshold, min_samples=args.min_samples,
            min_delta=args.min_delta,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"perf diff  metric={args.metric}  threshold={args.threshold:.0%}"
          f"  min_samples={args.min_samples}  min_delta={args.min_delta:g}")
    for d in report.deltas:
        name = f"{d.workload}/{d.target}"
        if d.skipped:
            print(f"  SKIP {name:<22} {d.reason}")
            continue
        pct = f"{d.ratio:+.1%}" if d.ratio is not None else "n/a"
        verdict = ("REGRESSED" if d.regressed
                   else "improved" if d.improved else "ok")
        print(f"  {verdict:<9} {name:<22} p50 {d.baseline_p50:.4g} -> "
              f"{d.current_p50:.4g} ({pct}, n={d.baseline_n}/{d.current_n})")
    print(f"{len(report.regressions)} regression(s), "
          f"{len(report.improvements)} improvement(s), "
          f"{len(report.skipped)} skipped of {len(report.deltas)} group(s)")
    return 1 if report.regressions else 0


def _cmd_perf_dashboard(args) -> int:
    from .telemetry import render_ascii, render_html

    records, problem = _load_corpus(args.store, args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.out:
        problem = _writable_file_error(args.out)
        if problem is not None:
            return _fail(f"--out: {problem}")
        atomic_write_text(args.out, render_html(records, args.metric))
        print(f"wrote dashboard to {args.out} ({len(records)} records)")
    else:
        print(render_ascii(records, args.metric))
    return 0


def _cmd_perf(args) -> int:
    return {
        "report": _cmd_perf_report,
        "diff": _cmd_perf_diff,
        "dashboard": _cmd_perf_dashboard,
    }[args.perf_command](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rake (ASPLOS 2022) reproduction: synthesis-based "
                    "vector instruction selection",
    )
    parser.add_argument("--log-level",
                        choices=("debug", "info", "warning", "error"),
                        default="info",
                        help="structured-log verbosity (stderr)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands take, each declared once.
    def shared():
        return argparse.ArgumentParser(add_help=False)

    target = shared()
    target.add_argument("--target", choices=("hvx", "neon"), default="hvx",
                        help="target ISA: HVX (128-byte vectors) or ARM "
                             "Neon (16-byte Q registers)")
    targets = shared()
    targets.add_argument("--target", choices=("hvx", "neon", "all"),
                         default="all", help="target ISA, or all of them")
    size = shared()
    size.add_argument("--width", type=int, default=None)
    size.add_argument("--height", type=int, default=None)
    batch = shared()
    batch.add_argument("--no-batch-eval", action="store_true",
                       help="disable the batched NumPy oracle and check "
                            "every valuation through the scalar "
                            "interpreters (identical verdicts, slower)")
    cache = shared()
    cache.add_argument("--cache", action="store_true",
                       help="persist oracle verdicts in the default cache "
                            "dir (REPRO_CACHE_DIR or ~/.cache/repro-rake)")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist oracle verdicts in DIR (implies "
                            "--cache)")
    rules = shared()
    rules.add_argument("--rules", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="consult (and grow) the rewrite-rule library: "
                            "proven lowerings answer matching expressions "
                            "after a full-bank re-check, skipping "
                            "sketch/swizzle enumeration (serve: for jobs "
                            "that request it with submit --rules)")
    rules_dir = shared()
    rules_dir.add_argument("--rules-dir", default=None, metavar="DIR",
                           help="directory holding rules_<target>.jsonl "
                                "(default: the cache dir, or the default "
                                "cache dir; implies --rules where the "
                                "command has it)")
    telemetry = shared()
    telemetry.add_argument("--telemetry",
                           action=argparse.BooleanOptionalAction,
                           default=None,
                           help="append a schema-versioned record per "
                                "compile or completed job to the "
                                "persistent telemetry corpus (analyze "
                                "with `repro perf`)")
    telemetry.add_argument("--telemetry-dir", default=None, metavar="DIR",
                           help="telemetry store directory (implies "
                                "--telemetry; default: <cache "
                                "dir>/telemetry)")
    fault_plan = shared()
    fault_plan.add_argument("--fault-plan", default=None, metavar="PLAN",
                            help="activate deterministic fault injection "
                                 "for the command's lifetime: a built-in "
                                 "plan name (torn-cache, slow-oracle, "
                                 "socket-reset, cachetier-outage, "
                                 "router-flap) or a FaultPlan JSON file")
    listen = shared()
    listen.add_argument("--host", default="127.0.0.1")
    listen.add_argument("--port-file", default=None, metavar="PATH",
                        help="write 'host port' here once listening (how "
                             "scripts learn an ephemeral port)")
    url = shared()
    url.add_argument("--url", default="http://127.0.0.1:8347",
                     help="server base URL")

    sub.add_parser("list", help="list the 21 paper benchmarks")

    p_compile = sub.add_parser(
        "compile", help="compile one benchmark",
        parents=[target, size, cache, batch, fault_plan, rules, rules_dir,
                 telemetry])
    p_compile.add_argument("workload")
    p_compile.add_argument("--backend", choices=("rake", "baseline", "both"),
                           default="both")
    p_compile.add_argument("--show-programs", action="store_true")
    p_compile.add_argument("--asm", action="store_true",
                           help="print register-allocated assembly listings")
    p_compile.add_argument("--stats-json", default=None, metavar="PATH",
                           help="dump per-stage synthesis statistics as JSON")
    p_compile.add_argument("--trace-out", default=None, metavar="PATH",
                           help="record a span trace of the compile and "
                                "write it as Chrome trace_event JSON")

    p_isa = sub.add_parser("isa", help="browse the instruction registry",
                           parents=[targets])
    p_isa.add_argument("--group", default=None,
                       help="filter by group tag (e.g. mpy, narrow, swizzle)")

    p_speed = sub.add_parser("speedups",
                             help="the Figure 11 sweep (slow: full synthesis)",
                             parents=[batch])
    p_speed.add_argument("--only", nargs="*", default=None,
                         help="restrict to these workloads")

    p_trace = sub.add_parser(
        "trace",
        help="compile one benchmark with tracing on and export the spans",
        parents=[size, batch])
    p_trace.add_argument("workload")
    p_trace.add_argument("--backend", choices=("rake", "baseline"),
                         default="rake")
    p_trace.add_argument("--depth", type=int, default=4,
                         help="timeline nesting depth shown on stdout")
    p_trace.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the trace to PATH (see --format)")
    p_trace.add_argument("--format",
                         choices=("chrome", "flame", "timeline"),
                         default="chrome",
                         help="--trace-out format: Chrome trace_event "
                              "JSON, collapsed flamegraph stacks, or the "
                              "ASCII timeline")

    p_prune = sub.add_parser(
        "prune-grammar",
        help="precompute per-target pruned swizzle-realization sets "
             "(offline observational-equivalence pass)",
        parents=[targets])
    p_prune.add_argument("--out", default=None, metavar="DIR",
                         help="output directory for pruned_<target>.json "
                              "(default: the packaged repro/targets/data "
                              "directory the pipeline loads from)")
    p_prune.add_argument("--workloads", nargs="*", default=None,
                         help="harvest placeholders from these workloads "
                              "only (default: the full 21-benchmark suite)")

    p_mine = sub.add_parser(
        "mine-rules",
        help="compile workloads and persist every proven lowering as a "
             "parameterized rewrite rule (warms the --rules fast path)",
        parents=[targets, cache, rules_dir])
    p_mine.add_argument("--workloads", nargs="*", default=None,
                        help="mine from these workloads only (default: the "
                             "full 21-benchmark suite)")

    p_serve = sub.add_parser(
        "serve", help="run the long-lived compilation server",
        parents=[listen, cache, fault_plan, rules, rules_dir, telemetry])
    p_serve.add_argument("--port", type=int, default=8347,
                         help="listen port (0 = ephemeral; see --port-file)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent compilation workers")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="max queued jobs before submissions get 503")
    p_serve.add_argument("--aging-rate", type=float, default=1.0,
                         help="priority points a queued job gains per "
                              "second (anti-starvation)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logs")
    p_serve.add_argument("--breaker-threshold", type=int, default=5,
                         help="consecutive job crashes before the circuit "
                              "breaker opens and sheds load (default 5)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         help="seconds the breaker stays open before "
                              "admitting a half-open probe (default 30)")
    p_serve.add_argument("--node-id", default=None, metavar="NAME",
                         help="this daemon's identity within a cluster "
                              "(stamped into job views and telemetry)")
    p_serve.add_argument("--cache-tier", default=None, metavar="HOST:PORT",
                         help="shared verdict-cache tier to layer behind "
                              "the node-local cache (repro cache-server); "
                              "tier outages degrade to local caching")

    p_cluster = sub.add_parser(
        "serve-cluster",
        help="run the cluster router over N worker daemons",
        parents=[listen, fault_plan])
    p_cluster.add_argument("--node", action="append", default=[],
                           metavar="[NAME=]URL",
                           help="one worker base URL (repeatable; "
                                "NAME=URL pins the node id so it matches "
                                "the worker's --node-id, else ring order "
                                "names node-0, node-1, ...: keep it stable)")
    p_cluster.add_argument("--port", type=int, default=8447,
                           help="router listen port (0 = ephemeral; see "
                                "--port-file)")
    p_cluster.add_argument("--router-id", default="router",
                           help="identity stamped into routed jobs as "
                                "routed_by")
    p_cluster.add_argument("--health-interval", type=float, default=0.5,
                           metavar="SECONDS",
                           help="per-node health probe period")
    p_cluster.add_argument("--quiet", action="store_true",
                           help="suppress per-request access logs")

    p_tier = sub.add_parser(
        "cache-server",
        help="run the shared verdict-cache tier for a cluster",
        parents=[listen])
    p_tier.add_argument("--port", type=int, default=8547,
                        help="listen port (0 = ephemeral; see --port-file)")
    p_tier.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist tier verdicts in DIR (default: "
                             "in-memory only)")

    p_submit = sub.add_parser(
        "submit", help="submit one compile to a running server",
        parents=[url, target, size, batch])
    p_submit.add_argument("workload")
    p_submit.add_argument("--backend", choices=("rake", "baseline"),
                          default="rake")
    p_submit.add_argument("--priority", type=int, default=10,
                          help="queue priority (lower runs first)")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="cancel the job if it runs longer than this")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job is terminal")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="give up waiting after this many seconds")
    p_submit.add_argument("--show-programs", action="store_true",
                          help="with --wait: print the selected programs")
    p_submit.add_argument("--trace", action="store_true",
                          help="record a span trace server-side (fetch it "
                               "with GET /jobs/<id>?trace=1)")
    p_submit.add_argument("--trace-out", default=None, metavar="PATH",
                          help="with --wait: fetch the job's trace and "
                               "write Chrome trace_event JSON (implies "
                               "--trace)")
    p_submit.add_argument("--rules", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="ask the server to answer from its "
                               "rewrite-rule library when possible "
                               "(requires a server started with --rules)")

    p_status = sub.add_parser(
        "status", help="query a running server (or one job)", parents=[url])
    p_status.add_argument("job", nargs="?", default=None,
                          help="job id (omit for server health + metrics)")

    p_perf = sub.add_parser(
        "perf",
        help="analyze the persistent telemetry corpus (trends, "
             "regression gating, dashboard)")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    def _add_corpus_args(p, positional: bool = True):
        if positional:
            p.add_argument("store", nargs="?",
                           default=str(default_cache_dir() / "telemetry"),
                           help="telemetry store directory (default: "
                                "<cache dir>/telemetry)")
        p.add_argument("--metric", default="wall_s",
                       help="dotted metric path into each record, e.g. "
                            "wall_s, totals.queries, stage_time_s.verify "
                            "(default: wall_s)")
        p.add_argument("--workload", default=None,
                       help="restrict to one workload")
        p.add_argument("--filter-target", default=None, metavar="TARGET",
                       help="restrict to one target ISA (hvx, neon)")
        p.add_argument("--source", default=None,
                       help="restrict to one producer (cli, service, "
                            "bench:table1, ...)")
        p.add_argument("--rev", default=None,
                       help="restrict to one git revision")
        p.add_argument("--node", default=None, metavar="NODE_ID",
                       help="restrict to records from one cluster worker "
                            "node (serve --node-id)")

    p_report = perf_sub.add_parser(
        "report", help="per-workload trend table over one store")
    _add_corpus_args(p_report)

    p_diff = perf_sub.add_parser(
        "diff",
        help="compare two stores; exits 1 when any group regressed")
    p_diff.add_argument("baseline", help="baseline store directory")
    p_diff.add_argument("current", help="current store directory")
    _add_corpus_args(p_diff, positional=False)
    p_diff.add_argument("--threshold", type=float, default=0.20,
                        help="relative worsening of the group median that "
                             "counts as a regression (default 0.20 = 20%%)")
    p_diff.add_argument("--min-samples", type=int, default=2,
                        help="samples required on each side before a "
                             "group gets a verdict (default 2)")
    p_diff.add_argument("--min-delta", type=float, default=0.0,
                        help="absolute floor (metric units) a delta must "
                             "also exceed (default 0)")

    p_dash = perf_sub.add_parser(
        "dashboard",
        help="render the corpus: ASCII to stdout, or a self-contained "
             "HTML file with --out")
    _add_corpus_args(p_dash)
    p_dash.add_argument("--out", default=None, metavar="HTML",
                        help="write a zero-dependency HTML dashboard here "
                             "(inline SVG sparklines)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    handler = {
        "list": _cmd_list,
        "compile": _cmd_compile,
        "isa": _cmd_isa,
        "speedups": _cmd_speedups,
        "trace": _cmd_trace,
        "prune-grammar": _cmd_prune_grammar,
        "mine-rules": _cmd_mine_rules,
        "serve": _cmd_serve,
        "serve-cluster": _cmd_serve_cluster,
        "cache-server": _cmd_cache_server,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "perf": _cmd_perf,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        # Library errors are user-actionable (unknown workload, protocol
        # mismatch, unreachable server, full queue) — one line, no trace.
        return _fail(str(exc))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
