"""Units and physical constants used throughout the photonic-rails reproduction.

Conventions
-----------
The whole library uses a single, consistent set of base units:

* **time** — seconds (``float``)
* **data size** — bytes (``float``; fractional bytes are allowed in analytic
  formulas)
* **bandwidth / rate** — bytes per second
* **power** — watts
* **cost** — US dollars

Helper constants convert the units that appear in the paper (milliseconds for
OCS reconfiguration times, Gbps for link rates, MB/GB for collective payloads)
into the base units.  Keeping conversions explicit at call sites -- e.g.
``25 * MILLISECONDS`` or ``400 * GBPS`` -- keeps the code readable and removes
a whole class of unit-mismatch bugs.
"""

from __future__ import annotations

# --------------------------------------------------------------------------- #
# Time
# --------------------------------------------------------------------------- #

SECONDS: float = 1.0
MILLISECONDS: float = 1e-3
MICROSECONDS: float = 1e-6
NANOSECONDS: float = 1e-9
MINUTES: float = 60.0
HOURS: float = 3600.0

# --------------------------------------------------------------------------- #
# Data sizes (decimal and binary)
# --------------------------------------------------------------------------- #

BYTES: float = 1.0
KB: float = 1e3
MB: float = 1e6
GB: float = 1e9
TB: float = 1e12

KIB: float = 1024.0
MIB: float = 1024.0**2
GIB: float = 1024.0**3

# --------------------------------------------------------------------------- #
# Bandwidth
# --------------------------------------------------------------------------- #

#: One gigabit per second, expressed in bytes per second.
GBPS: float = 1e9 / 8.0
#: One terabit per second, expressed in bytes per second.
TBPS: float = 1e12 / 8.0
#: One gigabyte per second.
GBYTES_PER_S: float = 1e9

# --------------------------------------------------------------------------- #
# Compute
# --------------------------------------------------------------------------- #

FLOPS: float = 1.0
GFLOPS: float = 1e9
TFLOPS: float = 1e12
PFLOPS: float = 1e15

# --------------------------------------------------------------------------- #
# Power and cost
# --------------------------------------------------------------------------- #

WATTS: float = 1.0
KILOWATTS: float = 1e3
MEGAWATTS: float = 1e6

DOLLARS: float = 1.0
