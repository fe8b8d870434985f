"""Backend registry tests: lookup, knob validation, model construction."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.backends import (
    FabricBackend,
    available_backends,
    create_network,
    get_backend,
    register_backend,
)
from repro.parallelism.mesh import DeviceMesh
from repro.simulator.fabric_network import (
    FatTreeNetworkModel,
    OCSReconfigurableNetworkModel,
    RailOptimizedNetworkModel,
)
from repro.simulator.network import NetworkModel

EXPECTED_BACKENDS = {"photonic", "electrical", "ideal", "fattree", "railopt", "ocs"}


@pytest.fixture()
def tiny_mesh(tiny_workload, tiny_cluster):
    return DeviceMesh(tiny_workload.parallelism, tiny_cluster)


def test_registry_contains_all_builtin_backends():
    assert EXPECTED_BACKENDS <= set(available_backends())


def test_unknown_backend_raises_with_known_names():
    with pytest.raises(ConfigurationError, match="registered"):
        get_backend("carrier-pigeon")


def test_duplicate_registration_raises():
    spec = get_backend("ideal")
    with pytest.raises(ConfigurationError):
        register_backend(
            FabricBackend(name="ideal", description="dup", factory=spec.factory)
        )


@pytest.mark.parametrize("name", sorted(EXPECTED_BACKENDS))
def test_every_backend_builds_a_network_model(name, tiny_cluster, tiny_mesh):
    network = create_network(name, tiny_cluster, tiny_mesh)
    assert isinstance(network, NetworkModel)


def test_unknown_knob_is_rejected(tiny_cluster, tiny_mesh):
    with pytest.raises(ConfigurationError, match="does not accept"):
        create_network("ideal", tiny_cluster, tiny_mesh, warp_speed=True)
    # The removed approximate-allocator knobs are unknown, not ignored.
    for knob in ("allocator_epsilon", "coarsen_quantum"):
        with pytest.raises(ConfigurationError, match="does not accept"):
            create_network(
                "fattree", tiny_cluster, tiny_mesh, network_mode="flow", **{knob: 0.05}
            )


def test_backend_knobs_reach_the_model(tiny_cluster, tiny_mesh):
    network = create_network(
        "ocs", tiny_cluster, tiny_mesh, reconfiguration_delay=0.123
    )
    assert isinstance(network, OCSReconfigurableNetworkModel)
    assert network.reconfiguration_delay == pytest.approx(0.123)


def test_fattree_model_bottleneck_never_exceeds_port_bandwidth(
    tiny_cluster, tiny_mesh
):
    network = create_network("fattree", tiny_cluster, tiny_mesh)
    assert isinstance(network, FatTreeNetworkModel)
    # A cross-domain dp-style pair: ranks 0 and 4 live in different domains.
    link = network.group_link_parameters((0, 4))
    assert 0 < link.bandwidth <= tiny_cluster.scaleout_port_bandwidth
    assert link.latency > 0


def test_railopt_model_routes_along_the_rail(tiny_cluster, tiny_mesh):
    network = create_network("railopt", tiny_cluster, tiny_mesh)
    assert isinstance(network, RailOptimizedNetworkModel)
    link = network.group_link_parameters((0, 4))
    assert 0 < link.bandwidth <= tiny_cluster.scaleout_port_bandwidth


def test_ocs_model_charges_delay_only_on_schedule_changes(tiny_cluster, tiny_mesh):
    from repro.collectives.primitives import CollectiveOp, CollectiveType
    from repro.parallelism.dag import OpKind, Operation

    network = create_network(
        "ocs", tiny_cluster, tiny_mesh, reconfiguration_delay=0.5
    )
    op = Operation(
        op_id=0,
        kind=OpKind.COMMUNICATION,
        ranks=(0, 4),
        deps=(),
        collective=CollectiveOp(
            collective=CollectiveType.ALL_REDUCE,
            group=(0, 4),
            size_bytes=1e6,
            parallelism="dp",
        ),
    )
    first = network.timing(op, ready_time=0.0)
    assert first.start == pytest.approx(0.5)  # cold rails: pay the switch time
    assert len(first.reconfigs) == 1
    second = network.timing(op, ready_time=first.end)
    assert second.start == pytest.approx(second.end - first.duration)
    assert second.start == pytest.approx(first.end)  # schedule unchanged: free
    assert second.reconfigs == ()
