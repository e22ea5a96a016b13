"""The shared verdict-cache tier: wire protocol, degradation, adapter.

The server/client pair is exercised over real sockets; the
:class:`TieredOracleCache` adapter is pinned against the exact
``OracleCache`` surface the synthesis engine consumes.  The outage
tests are the contract the cluster stands on: a dead, lying or
fault-injected tier degrades to node-local caching, silently.
"""

import socket
import struct

import pytest

from repro import faults
from repro.cluster.cachetier import (
    CacheTierClient,
    CacheTierServer,
    TieredOracleCache,
    parse_address,
)
from repro.faults import FaultPlan, FaultRule
from repro.synthesis.engine import OracleCache


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


@pytest.fixture
def tier():
    server = CacheTierServer().start()
    yield server
    server.shutdown()


@pytest.fixture
def tier_client(tier):
    client = CacheTierClient(tier.endpoint)
    yield client
    client.close()


class TestWireProtocol:
    def test_put_then_get_roundtrip(self, tier_client):
        assert tier_client.get("k1") is None
        assert tier_client.put("k1", True)
        assert tier_client.get("k1") is True
        assert tier_client.put("k2", False)
        assert tier_client.get("k2") is False

    def test_ping_and_stats(self, tier_client):
        assert tier_client.ping()
        tier_client.put("k", True)
        tier_client.get("k")
        stats = tier_client.server_stats()
        assert stats["puts"] == 1
        assert stats["gets"] == 1
        assert stats["hits"] == 1
        assert stats["verdicts"] == 1

    def test_malformed_put_is_rejected_not_stored(self, tier):
        # A put with a non-bool verdict must not poison the store.
        assert tier.dispatch({"op": "put", "k": "k", "v": "yes"})["ok"] is False
        assert tier.dispatch({"op": "get", "k": "k"})["hit"] is False
        assert tier.stats["bad_frames"] == 1

    def test_unknown_op_answers_error_frame(self, tier):
        reply = tier.dispatch({"op": "explode"})
        assert reply["ok"] is False and "unknown op" in reply["error"]

    def test_corrupt_frame_closes_connection_cleanly(self, tier):
        # A frame whose CRC does not verify decodes to None server-side;
        # the connection ends, the server survives for the next client.
        host, port = tier.address
        with socket.create_connection((host, port), timeout=2) as sock:
            payload = b'{"op":"get","k":"x","crc":1}'  # wrong CRC
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            assert sock.recv(4) == b""  # server closed on us
        client = CacheTierClient(tier.endpoint)
        try:
            assert client.ping()
        finally:
            client.close()

    def test_persisted_tier_survives_restart(self, tmp_path):
        first = CacheTierServer(cache_dir=str(tmp_path)).start()
        client = CacheTierClient(first.endpoint)
        client.put("durable", True)
        client.close()
        first.shutdown()
        second = CacheTierServer(cache_dir=str(tmp_path)).start()
        client = CacheTierClient(second.endpoint)
        try:
            assert client.get("durable") is True
        finally:
            client.close()
            second.shutdown()

    def test_parse_address_defaults_host(self):
        assert parse_address(":8547") == ("127.0.0.1", 8547)
        assert parse_address("10.0.0.2:99") == ("10.0.0.2", 99)


class TestClientDegradation:
    def test_dead_tier_degrades_to_miss_and_drop(self):
        client = CacheTierClient("127.0.0.1:9", timeout=0.2,
                                 trip_threshold=2, cooldown_s=60.0)
        assert client.get("k") is None
        assert client.put("k", True) is False
        assert client.stats["errors"] == 2
        # Third call lands inside the tripped window: skipped, no socket.
        assert client.get("k") is None
        assert client.stats["skipped"] == 1

    def test_tripped_client_recovers_after_cooldown(self, tier):
        client = CacheTierClient(tier.endpoint, trip_threshold=1,
                                 cooldown_s=0.05)
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHETIER_GET, kind="oserror",
                      on_nth=1, max_fires=1),
        ])):
            assert client.get("k") is None  # injected outage trips it
        import time

        time.sleep(0.06)
        client.put("k", True)
        assert client.get("k") is True
        client.close()

    def test_injected_outage_plan_never_raises(self, tier):
        client = CacheTierClient(tier.endpoint)
        with faults.injected(faults.builtin_plans()["cachetier-outage"]):
            for _ in range(5):
                assert client.get("k") is None
                client.put("k", True)
        client.close()


class TestTieredOracleCache:
    def test_lookup_falls_through_and_backfills(self, tier, tier_client):
        local = OracleCache()
        cache = TieredOracleCache(local, tier_client)
        tier_client.put("shared", True)
        assert cache.lookup("shared") is True
        # Backfilled: a tier outage now cannot lose us the verdict.
        assert local.lookup("shared") is True

    def test_record_publishes_to_tier(self, tier):
        a = TieredOracleCache(OracleCache(), CacheTierClient(tier.endpoint))
        b = TieredOracleCache(OracleCache(), CacheTierClient(tier.endpoint))
        a.record("proved-on-a", False)
        # Node B's first lookup is warmed by node A's publish.
        assert b.lookup("proved-on-a") is False

    def test_outage_mid_compile_degrades_silently(self, tier):
        cache = TieredOracleCache(OracleCache(),
                                  CacheTierClient(tier.endpoint))
        cache.record("before", True)
        tier.shutdown()
        # Tier is gone: locals still serve, writes drop, nothing raises.
        assert cache.lookup("before") is True
        cache.record("during", True)
        assert cache.lookup("during") is True
        assert cache.lookup("never-seen") is None
        assert len(cache) == 2
        cache.flush()
