"""NIC port partitioning and the bandwidth-fragmentation constraint (C3).

The paper's §3 identifies three constraints imposed by the limited node degree
of a GPU in a photonic rail:

* **C1** — only ring-style collectives are feasible at low degree;
* **C2** — the number of simultaneously supported parallelism dimensions is
  bounded by the degree;
* **C3** — statically partitioning NIC ports across communication groups
  fragments the NIC bandwidth, so each collective only sees a fraction of it.

This module provides a small allocator that assigns logical NIC ports to
scale-out parallelism dimensions and reports the per-dimension bandwidth, used
by the examples, the ablation benchmarks, and the feasibility checks in
:mod:`repro.parallelism.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from ..errors import ConfigurationError
from .devices import NICPortConfig, NICSpec, CONNECTX7

#: Number of circuit endpoints (neighbors) a rank needs per scale-out
#: parallelism dimension when using a bidirectional ring algorithm: one
#: neighbor upstream and one downstream.  A dimension of size 2 degenerates to
#: a single neighbor.
RING_NEIGHBORS = 2


@dataclass(frozen=True)
class PortAssignment:
    """The NIC ports assigned to one scale-out parallelism dimension."""

    dimension: str
    ports: Tuple[int, ...]
    port_bandwidth: float

    @property
    def num_ports(self) -> int:
        """Number of logical ports assigned to this dimension."""
        return len(self.ports)

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth available to this dimension (bytes/s)."""
        return self.num_ports * self.port_bandwidth


@dataclass(frozen=True)
class NICAllocation:
    """A complete static partition of a NIC's logical ports across dimensions."""

    nic: NICSpec
    port_config: NICPortConfig
    assignments: Tuple[PortAssignment, ...]

    @property
    def total_bandwidth(self) -> float:
        """The NIC's full-bandwidth (unfragmented) capacity."""
        return self.nic.total_bandwidth

    def assignment_for(self, dimension: str) -> PortAssignment:
        """Return the port assignment for ``dimension``."""
        for assignment in self.assignments:
            if assignment.dimension == dimension:
                return assignment
        raise ConfigurationError(f"no ports assigned to dimension {dimension!r}")

    def bandwidth_fraction(self, dimension: str) -> float:
        """Fraction of full NIC bandwidth available to ``dimension`` (C3)."""
        return self.assignment_for(dimension).bandwidth / self.total_bandwidth

    @property
    def fragmentation_factor(self) -> float:
        """Worst-case bandwidth fraction across all assigned dimensions.

        1.0 means a dimension can use the full NIC; 0.5 means the fabric
        halves the bandwidth seen by every collective (the paper's DGX H200
        example with the 4-port configuration and two scale-out dimensions).
        """
        if not self.assignments:
            return 1.0
        return min(
            assignment.bandwidth / self.total_bandwidth
            for assignment in self.assignments
        )


def ports_required(num_scaleout_dimensions: int, dimension_sizes: Sequence[int]) -> int:
    """Number of logical NIC ports needed to host the given scale-out dimensions.

    Each dimension using a ring needs two neighbors unless its size is 2
    (a single peer) or 1 (no scale-out traffic at all).
    """
    if num_scaleout_dimensions != len(dimension_sizes):
        raise ConfigurationError(
            "dimension_sizes must have one entry per scale-out dimension"
        )
    total = 0
    for size in dimension_sizes:
        if size <= 0:
            raise ConfigurationError("parallelism dimension sizes must be positive")
        if size == 1:
            continue
        total += 1 if size == 2 else RING_NEIGHBORS
    return total


def allocate_ports(
    dimensions: Mapping[str, int],
    nic: NICSpec = CONNECTX7,
    num_ports: int = 4,
) -> NICAllocation:
    """Statically partition ``num_ports`` logical NIC ports across dimensions.

    Parameters
    ----------
    dimensions:
        Mapping of scale-out dimension name to its group size, e.g.
        ``{"dp": 4, "pp": 2}``.  Dimensions of size 1 receive no ports.
    nic:
        The NIC model (defaults to ConnectX-7).
    num_ports:
        Which logical port configuration to use (1, 2, or 4 for ConnectX-7).

    Returns
    -------
    NICAllocation
        Port assignments in the order the dimensions were given.

    Raises
    ------
    ConfigurationError
        If the dimensions need more ports than the configuration exposes
        (the paper's constraint C2).
    """
    port_config = nic.config_with_ports(num_ports)
    needed = ports_required(
        len(dimensions), [size for size in dimensions.values()]
    )
    if needed > port_config.num_ports:
        raise ConfigurationError(
            f"{len(dimensions)} scale-out dimensions need {needed} NIC ports but "
            f"the {num_ports}-port configuration of {nic.name} only exposes "
            f"{port_config.num_ports} (constraint C2)"
        )

    assignments: List[PortAssignment] = []
    next_port = 0
    for name, size in dimensions.items():
        if size == 1:
            assignments.append(
                PortAssignment(
                    dimension=name, ports=(), port_bandwidth=port_config.port_bandwidth
                )
            )
            continue
        count = 1 if size == 2 else RING_NEIGHBORS
        ports = tuple(range(next_port, next_port + count))
        next_port += count
        assignments.append(
            PortAssignment(
                dimension=name,
                ports=ports,
                port_bandwidth=port_config.port_bandwidth,
            )
        )
    return NICAllocation(
        nic=nic, port_config=port_config, assignments=tuple(assignments)
    )
