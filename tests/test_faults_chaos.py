"""The chaos acceptance invariant, replayed per built-in fault plan.

Under any built-in plan a compile must end one of exactly three ways:

1. a **byte-identical program** to the fault-free compile,
2. a **degraded baseline** lowering explicitly marked ``degraded``, or
3. a **typed error** (``ReproError`` subclass),

and never a wrong program, a corrupted persisted cache, or a hang past
its deadline.  The same seed must also reproduce the same injection
trace — that's what makes a chaos failure debuggable.
"""

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.cancel import CancelToken
from repro.errors import DeadlineExceededError
from repro.hvx import program_listing
from repro.pipeline import compile_pipeline
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.protocol import JOB_DONE
from repro.fsutil import decode_record
from repro.synthesis.engine import OracleCache
from repro.workloads.base import get

WORKLOAD = "mul"


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def listings(compiled):
    return [
        (cs.name, ce.selector, program_listing(ce.program))
        for cs in compiled.stages for ce in cs.exprs
    ]


@pytest.fixture(scope="module")
def clean_reference():
    """Listings from a fault-free compile — the soundness yardstick."""
    wl = get(WORKLOAD)
    return listings(compile_pipeline(wl.build(), cache=OracleCache()))


class TestTornCachePlan:
    def test_compile_clean_and_store_reloads_valid(self, tmp_path,
                                                   clean_reference):
        wl = get(WORKLOAD)
        cache = OracleCache.with_disk(tmp_path)
        with faults.injected(faults.load_plan("torn-cache")):
            compiled = compile_pipeline(wl.build(), cache=cache)
            cache.flush()
        assert listings(compiled) == clean_reference

        # The persisted store is never *corrupt*: a fresh load skips any
        # torn tail, quarantines, and leaves a fully decodable file.
        store = OracleCache.with_disk(tmp_path)
        for line in (tmp_path / "oracle.jsonl").read_text().splitlines():
            assert decode_record(line) is not None

        # Every surviving verdict must agree with a clean recompile that
        # warm-loads it: wrong verdicts would change the output program.
        warm = compile_pipeline(wl.build(), cache=store)
        assert listings(warm) == clean_reference


class TestSlowOraclePlan:
    def test_deadline_yields_typed_timeout_not_a_hang(self):
        wl = get(WORKLOAD)
        with faults.injected(faults.load_plan("slow-oracle")):
            with pytest.raises(DeadlineExceededError):
                compile_pipeline(wl.build(), cache=OracleCache(),
                                 cancel=CancelToken(timeout=0.1))

    def test_without_deadline_result_is_byte_identical(self, clean_reference):
        plan = faults.load_plan("slow-oracle")
        # Keep the injected latency tiny: correctness is what's under
        # test, the built-in 20 ms per query is for humans watching CI.
        plan.rules[0].latency_s = 0.0005
        wl = get(WORKLOAD)
        with faults.injected(plan):
            compiled = compile_pipeline(wl.build(), cache=OracleCache())
        assert listings(compiled) == clean_reference
        assert plan.injected_total() > 0

    def test_same_seed_same_injection_trace(self):
        wl = get(WORKLOAD)
        traces = []
        for _ in range(2):
            plan = faults.load_plan("slow-oracle")
            plan.rules[0].latency_s = 0.0005
            with faults.injected(plan):
                compile_pipeline(wl.build(), cache=OracleCache())
            traces.append(plan.trace())
        assert traces[0] and traces[0] == traces[1]


class TestSocketResetPlan:
    def test_client_absorbs_the_reset_end_to_end(self):
        server = CompileServer(workers=1, quiet=True).start()
        try:
            client = ServiceClient(server.url)
            plan = faults.load_plan("socket-reset")
            with faults.injected(plan):
                view = client.compile(
                    CompileRequest(workload=WORKLOAD), timeout=120)
            assert view.state == JOB_DONE
            assert not view.degraded
            assert view.result.total_cycles > 0
            assert plan.injected_total() == 1
        finally:
            server.shutdown()


class TestDegradedFallback:
    def test_synthesis_crash_degrades_to_verified_baseline(self):
        """When synthesis crashes, the pipeline substitutes the baseline
        lowering and says so — outcome (2) of the invariant."""
        wl = get(WORKLOAD)
        baseline = compile_pipeline(wl.build(), backend="baseline")
        # Crash the very first oracle query: synthesis dies mid-lifting,
        # but the final verification of the substituted baseline (later
        # queries) still runs and proves it.
        plan = faults.FaultPlan(rules=[
            faults.FaultRule(site=faults.SITE_ORACLE_QUERY, kind="error",
                             on_nth=1, max_fires=1),
        ])
        with faults.injected(plan):
            compiled = compile_pipeline(wl.build(), cache=OracleCache())
        assert compiled.degraded
        assert compiled.degraded_exprs >= 1
        assert listings(compiled) == listings(baseline)
