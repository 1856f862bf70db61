"""Multi-process graph service: correctness, admission, protocol, lifecycle.

The service invariant mirrors the storage one: answers served over the
wire are exactly the answers of a locally loaded graph -- worker count,
mmap sharing and connection scheduling are invisible to clients.
Failures arrive as structured error frames carrying the server-side
exception class name and its ``retry_after`` hint, never as silently
wrong or truncated answers.
"""

import random
import socket
import struct
import threading
import time

import pytest

from repro.core import compress
from repro.core.serialize import load_compressed, save_compressed
from repro.errors import QueryTimeout
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.service import (
    GraphService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.protocol import recv_message, send_message
from repro.storage.segments import SegmentStore, StorePolicy

N_NODES = 120
T_MAX = 4000


def _contacts(seed=23, m=9000):
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        u = rng.randrange(N_NODES)
        v = rng.randrange(N_NODES)
        if u == v:
            continue
        rows.append(Contact(u, v, rng.randrange(T_MAX), 0))
    return rows


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "graph.chrono"
    cg = compress(
        graph_from_contacts(GraphKind.POINT, _contacts(), num_nodes=N_NODES)
    )
    save_compressed(cg, path)
    return path


@pytest.fixture(scope="module")
def local(container):
    return load_compressed(container)


@pytest.fixture(scope="module")
def service(container):
    svc = GraphService(str(container), ServiceConfig(workers=2))
    svc.start()
    yield svc
    svc.stop()


def _client(service, **kwargs):
    host, port = service.address
    return ServiceClient(host, port, **kwargs)


class TestServedAnswersMatchLocal:
    def test_point_queries(self, service, local):
        with _client(service) as client:
            for u in range(0, N_NODES, 7):
                assert client.neighbors(u, 0, T_MAX) == local.neighbors(
                    u, 0, T_MAX
                )
                assert client.edge_timestamps(
                    u, (u + 1) % N_NODES
                ) == local.edge_timestamps(u, (u + 1) % N_NODES)
                assert client.has_edge(
                    u, (u + 2) % N_NODES, 100, 900
                ) == local.has_edge(u, (u + 2) % N_NODES, 100, 900)

    def test_batch_and_snapshot(self, service, local):
        queries = [(u, 50, 1800) for u in range(N_NODES)]
        with _client(service) as client:
            assert client.neighbors_many(queries) == local.neighbors_many(
                queries
            )
            assert client.snapshot(200, 1400) == local.snapshot(200, 1400)

    def test_complete_answers_report_no_skips(self, service):
        with _client(service, allow_partial=True) as client:
            client.neighbors(3, 0, T_MAX)
            assert client.last_skipped == []


class TestMultiProcessSharing:
    def test_concurrent_clients_agree_with_local(self, service, local):
        """Eight threads, each with its own connection, all bit-identical."""
        expected = [local.neighbors(u, 0, T_MAX) for u in range(16)]
        failures = []

        def worker():
            try:
                with _client(service) as client:
                    got = [client.neighbors(u, 0, T_MAX) for u in range(16)]
                    if got != expected:
                        failures.append(got)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []

    def test_at_least_two_workers_answer(self, service):
        """Connections are spread across worker processes sharing one map."""
        pids = set()
        for _ in range(50):
            with _client(service) as client:
                pids.add(client.ping()["pid"])
            if len(pids) >= 2:
                break
        assert len(pids) >= 2

    def test_stats_report_graph_counts(self, service, local):
        with _client(service) as client:
            stats = client.stats()
        assert stats["num_nodes"] == local.num_nodes
        assert stats["num_contacts"] == local.num_contacts
        assert "governor" in stats


class TestAdmissionControl:
    def test_tenant_budget_sheds_with_retry_after(self, container):
        config = ServiceConfig(
            workers=1, tenant_rate=0.000001, tenant_burst=1.0
        )
        with GraphService(str(container), config) as svc:
            with _client(svc, tenant="hog") as client:
                client.neighbors(0, 0, 10)  # consumes the whole burst
                with pytest.raises(ServiceError) as info:
                    client.neighbors(1, 0, 10)
        assert info.value.error_type == "RejectedError"
        assert info.value.retry_after is not None

    def test_timeout_maps_to_query_timeout(self, service):
        with _client(service, timeout_ms=1) as client:
            with pytest.raises(ServiceError) as info:
                client.snapshot(0, T_MAX)
        assert info.value.error_type == "QueryTimeout"


class TestProtocolErrors:
    def test_unknown_op_is_rejected(self, service):
        with _client(service) as client:
            with pytest.raises(ServiceError) as info:
                client._call("explode")
        assert info.value.error_type == "ProtocolError"

    def test_bad_arguments_are_rejected(self, service):
        with _client(service) as client:
            with pytest.raises(ServiceError) as info:
                client._call("neighbors", {"args": "nope"})
        assert info.value.error_type == "ProtocolError"

    @pytest.mark.parametrize(
        "op, params",
        [
            ("neighbors", {"args": [0, 10]}),
            ("snapshot", {"args": [0]}),
            ("has_edge", {"args": [0, 1, 0, 10, 99]}),
            ("edge_timestamps", {"args": []}),
            ("neighbors_many", {"queries": [[0, 0, 10], [1, 0]]}),
            ("neighbors", {"args": [True, 0, 10]}),
            ("edge_timestamps", {"args": [0, False]}),
        ],
        ids=[
            "neighbors-2-args", "snapshot-1-arg", "has_edge-5-args",
            "edge_timestamps-0-args", "neighbors_many-short-query",
            "neighbors-bool-node", "edge_timestamps-bool-node",
        ],
    )
    def test_bad_args_get_error_frame_and_connection_survives(
        self, service, local, op, params
    ):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            send_message(raw, {"id": 1, "op": op, "params": params})
            response = recv_message(raw)
            assert response is not None and not response["ok"]
            assert response["error"]["type"] == "ProtocolError"
            send_message(
                raw, {"id": 2, "op": "neighbors", "params": {"args": [0, 0, 500]}}
            )
            response = recv_message(raw)
        assert response["id"] == 2 and response["ok"]
        assert response["result"] == local.neighbors(0, 0, 500)

    def test_negative_timeout_is_rejected(self, service):
        with _client(service, timeout_ms=-5) as client:
            with pytest.raises(ServiceError) as info:
                client.neighbors(0, 0, 10)
        assert info.value.error_type == "ProtocolError"

    def test_out_of_range_node_maps_domain_error(self, service):
        with _client(service) as client:
            with pytest.raises(ServiceError) as info:
                client.neighbors(10**9, 0, 10)
        assert info.value.error_type == "GraphDomainError"

    def test_malformed_frame_gets_error_then_hangup(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            payload = b"this is not json"
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and not response["ok"]
            assert recv_message(raw) is None  # server hung up

    def test_request_must_be_object(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            payload = b"[1, 2, 3]"
            raw.sendall(struct.pack("!I", len(payload)) + payload)
            response = recv_message(raw)
            assert response is not None and not response["ok"]

    def test_response_ids_echo_requests(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            send_message(raw, {"id": 941, "op": "ping"})
            response = recv_message(raw)
        assert response["id"] == 941 and response["ok"]


class TestClientDeadline:
    @pytest.mark.parametrize(
        "kwargs, deadline",
        [({"connect_timeout": 0.5}, 0.5), ({"timeout_ms": 100}, 2.1)],
        ids=["connect-timeout", "timeout-ms"],
    )
    def test_silent_server_raises_query_timeout(self, kwargs, deadline):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()
            client = ServiceClient(host, port, **kwargs)
            conn, _ = listener.accept()  # accepted, never answered
            with conn, client:
                start = time.monotonic()
                with pytest.raises(QueryTimeout):
                    client.ping()
                elapsed = time.monotonic() - start
                assert elapsed < 2 * deadline
                assert client._sock.fileno() == -1  # closed on expiry


class TestLifecycle:
    def test_stop_refuses_new_connections(self, container):
        svc = GraphService(str(container), ServiceConfig(workers=1))
        host, port = svc.start()
        with ServiceClient(host, port) as client:
            assert client.ping()["pong"]
        svc.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_from_url_validation(self):
        from repro.errors import DomainError

        with pytest.raises(DomainError):
            ServiceClient.from_url("http://127.0.0.1:80")
        with pytest.raises(DomainError):
            ServiceClient.from_url("tcp://nohost:notaport")


class TestSegmentStoreTarget:
    def test_service_over_store_directory(self, tmp_path):
        root = tmp_path / "store"
        store = SegmentStore.create(
            root, GraphKind.POINT, policy=StorePolicy(seal_contacts=400)
        )
        store.ingest(_contacts(seed=5, m=1500))
        store.seal()
        expected = {
            u: store.graph.neighbors(u, 0, T_MAX) for u in range(0, 40, 3)
        }
        store.close()

        with GraphService(str(root), ServiceConfig(workers=2)) as svc:
            with _client(svc) as client:
                for u, answer in expected.items():
                    assert client.neighbors(u, 0, T_MAX) == answer
