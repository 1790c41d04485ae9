"""Batch requests and results.

A request is ``(transform, inputs, config[, sizes])``.  Two requests
share a bucket — and therefore a stacked execution — exactly when they
replay the same :class:`~repro.compiler.plan.RunPlan`: same program
object, same transform, and the transform's own plan key, which is the
configuration's content (``ChoiceConfig.key()``), the exact input shapes
and the normalised explicit sizes.  Exact shapes (not a coarser size
class) are required because stacking lays requests along a new leading
axis of one shared array per matrix.

The program component is a registration token handed out per
compiled-program object in first-seen order: deterministic for a given
submission sequence without hashing IR structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.codegen import CompiledTransform
from repro.compiler.config import ChoiceConfig
from repro.runtime.matrix import Matrix

ArrayLike = Union[np.ndarray, Matrix, Sequence]


@dataclass
class BatchRequest:
    """One submitted execution, tagged with its submission id."""

    request_id: int
    transform: CompiledTransform
    #: The transform's bound input views (declared order), or the raw
    #: inputs when binding failed — the serial run then raises the
    #: engine's own error.
    inputs: Union[Mapping[str, Any], Sequence[ArrayLike], None]
    #: A private copy made at submit: mutating the caller's object
    #: afterwards changes neither bucketing nor execution.
    config: ChoiceConfig
    sizes: Optional[Mapping[str, int]] = None
    #: Input shapes in declared order; None when the inputs or sizes
    #: did not bind — such a request buckets alone and runs serially.
    shapes: Optional[Tuple[Tuple[int, ...], ...]] = None


@dataclass
class BatchResult:
    """The outcome of one request: outputs or the serial engine's error."""

    request_id: int
    outputs: Optional[Dict[str, Matrix]]
    error: Optional[Exception] = None
    #: True when the result came off a stacked (batched) execution.
    stacked: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    def output(self, name: Optional[str] = None) -> np.ndarray:
        """One output as a numpy array (mirrors ``RunResult.output``)."""
        if self.error is not None:
            raise self.error
        assert self.outputs is not None
        if name is None:
            if len(self.outputs) != 1:
                raise ValueError("transform has multiple outputs; pass a name")
            name = next(iter(self.outputs))
        return self.outputs[name].data
