"""Service graph data model."""

import math

import pytest

from repro.microservices.service_graph import (
    Application,
    CallNode,
    Microservice,
    RequestType,
)

#: NaN and the infinities: ``value < 0`` is false for the first two.
NON_FINITE = (math.nan, math.inf, -math.inf)


def _simple_app():
    services = {
        "frontend": Microservice("frontend"),
        "backend": Microservice("backend"),
        "db": Microservice("db", io_ms=0.3, io_concurrency=2),
    }
    root = CallNode(
        service="frontend",
        cpu_ms=1.0,
        stages=(
            (
                CallNode(
                    service="backend",
                    cpu_ms=2.0,
                    stages=((CallNode("db", cpu_ms=0.5),),),
                ),
            ),
        ),
    )
    request = RequestType(name="get", root=root, client_cpu_ms=0.2)
    return Application(name="simple", services=services, request_types={"get": request})


class TestMicroservice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Microservice("bad", memory_mb=0.0)
        with pytest.raises(ValueError):
            Microservice("bad", io_ms=-1.0)
        with pytest.raises(ValueError):
            Microservice("bad", io_concurrency=0)

    @pytest.mark.parametrize("field", ["memory_mb", "io_ms"])
    def test_rejects_non_finite(self, field):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=f"^db: {field} must be"):
                Microservice("db", **{field: value})


class TestCallNode:
    def test_walk_and_totals(self):
        app = _simple_app()
        root = app.request_type("get").root
        assert len(list(root.walk())) == 3
        assert root.total_cpu_ms() == pytest.approx(3.5)
        assert root.services_used() == {"frontend", "backend", "db"}
        assert root.rpc_count() == 2

    def test_cpu_by_service_accumulates_repeats(self):
        node = CallNode(
            service="a",
            cpu_ms=1.0,
            stages=((CallNode("b", cpu_ms=2.0), CallNode("b", cpu_ms=3.0)),),
        )
        assert node.cpu_ms_by_service() == {"a": 1.0, "b": 5.0}

    def test_total_bytes(self):
        node = CallNode(service="a", cpu_ms=1.0, request_bytes=100, response_bytes=200)
        assert node.total_bytes() == pytest.approx(300)

    def test_validation(self):
        with pytest.raises(ValueError):
            CallNode(service="a", cpu_ms=-1.0)
        with pytest.raises(ValueError):
            CallNode(service="a", cpu_ms=1.0, request_bytes=-5)

    @pytest.mark.parametrize(
        "field", ["cpu_ms", "request_bytes", "response_bytes", "io_ms"]
    )
    def test_rejects_non_finite(self, field):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=f"^db: {field} must be"):
                CallNode(**{"service": "db", "cpu_ms": 1.0, field: value})


class TestRequestType:
    def test_total_cpu_with_and_without_client(self):
        request = _simple_app().request_type("get")
        assert request.total_cpu_ms() == pytest.approx(3.5)
        assert request.total_cpu_ms(include_client=True) == pytest.approx(3.7)

    def test_rejects_negative_client_cpu(self):
        with pytest.raises(ValueError):
            RequestType(name="x", root=CallNode("a", 1.0), client_cpu_ms=-1.0)

    @pytest.mark.parametrize(
        "field", ["client_cpu_ms", "client_request_bytes", "client_response_bytes"]
    )
    def test_rejects_non_finite(self, field):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=f"^x: {field} must be"):
                RequestType(name="x", root=CallNode("a", 1.0), **{field: value})


class TestApplication:
    def test_lookup_and_errors(self):
        app = _simple_app()
        assert app.service("db").io_ms == pytest.approx(0.3)
        with pytest.raises(KeyError):
            app.service("cache")
        with pytest.raises(KeyError):
            app.request_type("post")

    def test_request_referencing_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            Application(
                name="broken",
                services={"a": Microservice("a")},
                request_types={
                    "r": RequestType(name="r", root=CallNode("missing", 1.0))
                },
            )

    def test_service_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Application(
                name="broken",
                services={"x": Microservice("y")},
                request_types={},
            )

    def test_placement_group_validation(self):
        services = {"a": Microservice("a"), "b": Microservice("b")}
        with pytest.raises(ValueError):
            Application(
                name="broken",
                services=services,
                request_types={},
                placement_groups=(("a", "zzz"),),
            )
        with pytest.raises(ValueError):
            Application(
                name="broken",
                services=services,
                request_types={},
                placement_groups=(("a",), ("a",)),
            )

    def test_ungrouped_services_and_memory(self):
        app = _simple_app()
        assert app.ungrouped_services() == ("backend", "db", "frontend")
        assert app.total_memory_mb() == pytest.approx(64.0 * 3)
        assert app.service_names() == ("backend", "db", "frontend")
