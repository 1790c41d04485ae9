"""The PetaBricks compiler.

Pipeline (paper §3.1), operating on symbolic regions of unknown size:

1. **IR construction** (:mod:`repro.compiler.ir`) — semantic analysis of
   the parsed AST (or of a :class:`~repro.compiler.builder.TransformBuilder`
   program) into :class:`TransformIR`.
2. **Normalization + applicable regions**
   (:mod:`repro.compiler.applicable`) — each rule gets a symbolic center
   and the region where it may legally be applied.
3. **Choice grid** (:mod:`repro.compiler.choicegrid`) — each matrix is cut
   into rectilinear segments with a uniform applicable-rule set; rule
   priorities filter each segment; where-restricted rules become
   meta-rules.
4. **Choice dependency graph** (:mod:`repro.compiler.depgraph`) — edges
   between segments annotated with (rule, direction, offset); cycle
   detection doubles as the deadlock-freedom guarantee of §3.6.
5. **Code generation** (:mod:`repro.compiler.codegen`) — an executable
   :class:`CompiledTransform` whose every call replays a cached
   :class:`~repro.compiler.plan.RunPlan`, built by
   :mod:`repro.compiler.plan` and replayed by
   :mod:`repro.compiler.leaves`.  Dynamic mode keys plans by the content
   of the :class:`~repro.compiler.config.ChoiceConfig` given at run
   time; static mode (:func:`~repro.compiler.codegen.specialize`) bakes
   one configuration in and never reads a config again.
"""

from repro.compiler.builder import TransformBuilder, NativeContext
from repro.compiler.codegen import CompiledProgram, CompiledTransform, compile_program
from repro.compiler.config import ChoiceConfig, Selector
from repro.compiler.ir import ProgramIR, RegionIR, RuleIR, TransformIR, build_ir

__all__ = [
    "ChoiceConfig",
    "CompiledProgram",
    "CompiledTransform",
    "NativeContext",
    "ProgramIR",
    "RegionIR",
    "RuleIR",
    "Selector",
    "TransformBuilder",
    "TransformIR",
    "build_ir",
    "compile_program",
]
