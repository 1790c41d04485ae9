"""Lowered execution paths for rule bodies (the "generated code" layer).

The paper's compiler emits compiled C++ per rule; this reproduction keeps
the rule-body language interpreted by default but adds two lowered paths
that the engine can select per transform (a real algorithmic choice, tuned
like any other):

* ``LEAF_INTERP`` (0) — the reference tree-walking interpreter in
  :mod:`repro.language.interp`.  Always available, always correct.
* ``LEAF_CLOSURE`` (1) — :mod:`repro.engine_fast.closure` generates Python
  source from the where-clause and body AST once per rule and ``exec``\\ s it
  into a closure; per-instance cost drops from a tree walk plus dict/view
  churn to one direct call.  Bit-for-bit identical to the interpreter,
  including work accounting, so it is the default.
* ``LEAF_VECTOR`` (2) — :mod:`repro.engine_fast.vectorize` executes a whole
  data-parallel step as NumPy slice arithmetic when the body is
  straight-line elementwise math over affine cell accesses and the
  dependency analysis proves the free-variable instances independent.

Both lowerers emit through one source builder
(:mod:`repro.engine_fast.builder`), so a rule has exactly two generated
kernels: the scalar closure and the (batch-axis) vector step.
:mod:`repro.engine_fast.geometry` caches the per-(segment, rule, size-env)
iteration geometry so affine bounds are not re-solved per application.
"""

from repro.engine_fast.closure import RuleKernel, lower_rule
from repro.engine_fast.geometry import (
    Geometry,
    LRUCache,
    build_geometry,
    geometry_key,
)
from repro.engine_fast.vectorize import VectorPlan, plan_vector_leaf

#: leaf-path tunable values (``"{Transform}.__leaf_path__"``).
LEAF_INTERP = 0
LEAF_CLOSURE = 1
LEAF_VECTOR = 2

LEAF_PATH_NAMES = {
    LEAF_INTERP: "interp",
    LEAF_CLOSURE: "closure",
    LEAF_VECTOR: "vector",
}

__all__ = [
    "Geometry",
    "LRUCache",
    "LEAF_CLOSURE",
    "LEAF_INTERP",
    "LEAF_PATH_NAMES",
    "LEAF_VECTOR",
    "RuleKernel",
    "VectorPlan",
    "build_geometry",
    "geometry_key",
    "lower_rule",
    "plan_vector_leaf",
]
