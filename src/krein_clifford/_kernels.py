"""The blade kernel used by the algebra layer.

``_blade_py`` is the only implementation; this module re-exports its
names so that ``clifford_core`` and the benchmark harness (which reads
``BACKEND``) have one stable place to import them from.
"""

from ._blade_py import BACKEND, MAX_TABLE_N, blade_sign, gp_dense, sign_table
