"""The oracle tests of every layer, collected under one module.

Each layer keeps its oracles and its tests in a module of its own, whose
docstring says what its oracles are and what must agree:

- ``oracles_expansion``: the exact elements of Q(beta), interval expansion,
  word sums, orbit digits and root brackets;
- ``oracles_symbolic``: cylinders and the follower automaton;
- ``oracles_recurrence``: the recurrence scans and the certified distance
  decisions;
- ``oracles_cantor``: block pools, block draws and the Cantor construction.

Oracles that several layers read are in ``oracle_common``.  This module
imports every test class and module fixture of the four, so that pytest
collects each test once, under this module's name.
"""

from oracles_cantor import *  # noqa: F401,F403
from oracles_expansion import *  # noqa: F401,F403
from oracles_recurrence import *  # noqa: F401,F403
from oracles_symbolic import *  # noqa: F401,F403
