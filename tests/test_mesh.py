"""Device-mesh placement by index arithmetic, checked against per-rank scans.

The mesh answers group, stage and placement queries from the rank grid's
strides.  Every answer here is compared with a reference that walks the ranks
through :meth:`DeviceMesh.coordinate` / :meth:`DeviceMesh.rank_of`.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.contention import scale_scenario
from repro.experiments.session import SimulationSession
from repro.parallelism.config import ParallelismConfig
from repro.parallelism.dag import DagBuildOptions, _DagBuilder
from repro.parallelism.groups import GroupRegistry
from repro.parallelism.mesh import AXIS_ORDER, DeviceMesh, MeshCoordinate
from repro.parallelism.workloads import small_test_workload
from repro.topology.devices import perlmutter_testbed

#: ``(pp, dp, cp, ep, tp)`` shapes, including cp > 1 and ep > 1.
SHAPES = [
    shape
    for shape in itertools.product((1, 2, 3), (1, 2, 3), (1, 2), (1, 2, 3), (1, 2, 4))
    if shape[2] > 1 or shape[3] > 1 or shape[0] * shape[1] * shape[4] <= 8
]


def _mesh(shape, with_cluster: bool = True) -> DeviceMesh:
    pp, dp, cp, ep, tp = shape
    parallelism = ParallelismConfig(pp=pp, dp=dp, cp=cp, ep=ep, tp=tp)
    cluster = None
    if with_cluster:
        cluster = perlmutter_testbed(num_nodes=-(-parallelism.world_size // 4))
    return DeviceMesh(parallelism, cluster)


def _reference_group(mesh: DeviceMesh, axis: str, rank: int):
    base = mesh.coordinate(rank).as_dict()
    return tuple(
        mesh.rank_of(MeshCoordinate(**{**base, axis: index}))
        for index in range(mesh.size(axis))
    )


def _reference_groups(mesh: DeviceMesh, axis: str):
    groups = []
    for rank in mesh.ranks():
        group = _reference_group(mesh, axis, rank)
        if group not in groups:
            groups.append(group)
    return groups


def _reference_placement(mesh: DeviceMesh, group):
    cluster = mesh.cluster
    domains = tuple(sorted({cluster.domain_of(rank) for rank in group}))
    rails = tuple(sorted({cluster.rail_of(rank) for rank in group}))
    return domains, rails, len(domains) > 1


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_groups_and_stages_match_the_coordinate_scan(shape):
    mesh = _mesh(shape)
    for axis in AXIS_ORDER:
        assert mesh.groups_along(axis) == _reference_groups(mesh, axis)
        for rank in mesh.ranks():
            assert mesh.group_along(axis, rank) == _reference_group(mesh, axis, rank)
    for stage in range(-1, mesh.size("pp") + 1):
        assert mesh.ranks_of_stage(stage) == tuple(
            rank for rank in mesh.ranks() if mesh.coordinate(rank).pp == stage
        )
    for rank in mesh.ranks():
        assert mesh.pipeline_stage(rank) == mesh.coordinate(rank).pp
        coordinate = mesh.coordinate(rank)
        assert mesh.rank_at(*(coordinate.along(axis) for axis in AXIS_ORDER)) == rank


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_group_placement_matches_per_rank_lookups(shape):
    mesh = _mesh(shape)
    for axis in AXIS_ORDER:
        for group in mesh.groups_along(axis):
            expected = _reference_placement(mesh, group)
            assert tuple(mesh.placement(group)) == expected
            assert tuple(mesh.placement(list(group))) == expected
            assert mesh.domains_of_group(group) == expected[0]
            assert mesh.rails_of_group(group) == expected[1]
            assert mesh.is_scaleout_group(group) == expected[2]
    registry = GroupRegistry(mesh)
    for group in registry.all_groups():
        domains, rails, scaleout = _reference_placement(mesh, group.ranks)
        assert (group.domains, group.scaleout) == (domains, scaleout)
        assert group.rails == (rails if scaleout else ())


@pytest.mark.parametrize(
    "shape", [s for s in SHAPES if s[0] <= 2], ids=lambda s: "x".join(map(str, s))
)
def test_dag_rank_sets_match_the_coordinate_scan(shape):
    pp, dp, cp, ep, tp = shape
    workload = small_test_workload(pp=pp, dp=dp, tp=tp)
    workload = replace(
        workload,
        model=replace(workload.model, num_experts=4),
        parallelism=ParallelismConfig(pp=pp, dp=dp, cp=cp, ep=ep, tp=tp),
    )
    mesh = _mesh(shape)
    builder = _DagBuilder(workload, mesh, DagBuildOptions())
    for stage, replica in itertools.product(range(pp), range(dp)):
        assert builder._ranks_of(stage, replica) == tuple(
            rank
            for rank in mesh.ranks()
            if (mesh.coordinate(rank).pp, mesh.coordinate(rank).dp) == (stage, replica)
        )
        for c, e, t in builder._inner_indices():
            expected = mesh.rank_of(MeshCoordinate(pp=stage, dp=replica, cp=c, ep=e, tp=t))
            assert builder._rank_at(stage, replica, c, e, t) == expected
            assert builder._dp_group(stage, c, e, t) == _reference_group(mesh, "dp", expected)


def test_out_of_range_ranks_and_coordinates_raise():
    mesh = _mesh((2, 2, 2, 1, 2))
    world = mesh.world_size
    for rank in (-1, world):
        with pytest.raises(ConfigurationError):
            mesh.coordinate(rank)
        with pytest.raises(ConfigurationError):
            mesh.group_along("dp", rank)
        with pytest.raises(ConfigurationError):
            mesh.pipeline_stage(rank)
        with pytest.raises(ConfigurationError):
            mesh.placement((0, rank))
        with pytest.raises(ConfigurationError):
            mesh.is_scaleout_group((rank,))
    with pytest.raises(ConfigurationError):
        mesh.rank_of(MeshCoordinate(pp=0, dp=2, cp=0, ep=0, tp=0))
    with pytest.raises(ConfigurationError):
        mesh.rank_at(0, 0, 0, 0, -1)
    with pytest.raises(ConfigurationError):
        mesh.rank_at(2, 0)
    with pytest.raises(ConfigurationError):
        mesh.groups_along("xp")
    with pytest.raises(ConfigurationError):
        mesh.group_along("xp", 0)
    # A failed lookup leaves nothing behind in the placement memo.
    assert mesh._placements == {}

    workload = replace(
        small_test_workload(pp=2, dp=2, tp=2),
        parallelism=ParallelismConfig(pp=2, dp=2, cp=2, tp=2),
    )
    builder = _DagBuilder(workload, mesh, DagBuildOptions())
    with pytest.raises(ConfigurationError):
        builder._rank_at(0, 2)
    with pytest.raises(ConfigurationError):
        builder._dp_group(0, 2, 0, 0)


def test_along_accepts_only_mesh_axes():
    coordinate = MeshCoordinate(pp=1, dp=2, cp=3, ep=4, tp=5)
    assert [coordinate.along(axis) for axis in AXIS_ORDER] == [1, 2, 3, 4, 5]
    for name in ("as_dict", "along", "__class__", "xp"):
        with pytest.raises(ConfigurationError):
            coordinate.along(name)


def test_placement_without_a_cluster_raises():
    mesh = _mesh((1, 2, 1, 1, 2), with_cluster=False)
    assert mesh.groups_along("dp") == [(0, 2), (1, 3)]
    for query in (
        mesh.placement,
        mesh.is_scaleout_group,
        mesh.rails_of_group,
        mesh.domains_of_group,
    ):
        with pytest.raises(ConfigurationError):
            query((0, 2))
    registry = GroupRegistry(mesh)
    assert all(group.scaleout and not group.rails for group in registry.all_groups())


def test_session_start_makes_no_coordinate_calls(monkeypatch):
    calls = []
    original = DeviceMesh.coordinate

    def counting(self, rank):
        calls.append(rank)
        return original(self, rank)

    monkeypatch.setattr(DeviceMesh, "coordinate", counting)
    # 240 GPUs: scale scenarios come in multiples of tp x ep = 40.
    session = SimulationSession.start(scale_scenario(240))
    assert session.executor.dag.num_operations > 0
    assert calls == []
