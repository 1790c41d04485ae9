"""The one source builder behind both generated kernels of a rule.

A lowered rule is a ``_maker`` function — hoisted size variables,
tunables, backing arrays and extents, then the kernel ``def`` it
returns — ``exec``'d once per rule.  The scalar closure
(:mod:`repro.engine_fast.closure`, which shows the full shape) and the
vector step (:mod:`repro.engine_fast.vectorize`) are two lowerers over
this one builder: they differ in what they emit into the kernel body,
not in how names are hoisted, affine coordinates lowered or the source
compiled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Set, Tuple

from repro.symbolic import Affine

if TYPE_CHECKING:  # typing only — keeps engine_fast free of compiler deps
    from repro.compiler.ir import RegionIR, RuleIR, TransformIR


class KernelBuilder:
    """Usage tracking, affine lowering and maker assembly for one rule.

    ``scalar_vars`` are the rule variables the kernel holds as integers
    ``_s_<var>``; every other variable of an affine coordinate is a size
    variable read from the hoisted environment.  ``box_vars`` are those
    a kernel loops over itself, between ``_first_<var>`` and
    ``_last_<var>`` (see :meth:`_affine`).  ``folds`` maps each matrix
    whose storage is folded to its ``(axis, window)`` (the engine's
    cached PB606 verdicts, see :meth:`point_index`).
    """

    #: per-lowerer constants: the filename tag of the generated source,
    #: the maker's parameter list, the name of the kernel ``def`` it
    #: returns, and the leading axes of the backing arrays that are not
    #: matrix dimensions.
    tag: str
    maker_args: str
    kernel_name: str
    axis_shift = 0
    box_vars: Tuple[str, ...] = ()

    def __init__(
        self,
        transform: TransformIR,
        rule: RuleIR,
        scalar_vars: Iterable[str],
        folds: Dict[str, Tuple[int, int]],
    ) -> None:
        self.transform = transform
        self.rule = rule
        self.scalar_vars = frozenset(scalar_vars)
        self.folds = folds
        self.lines: List[str] = []
        self.maker_lines: List[str] = []
        self.depth = 2
        self.used_env: Set[str] = set()
        self.used_box: Set[str] = set()
        self.used_tunables: Set[str] = set()
        self.used_matrices: Set[str] = set()
        self.used_dims: Dict[str, Set[int]] = {}
        self.tunable_names = {t.name for t in transform.tunables}
        self.bindings: Dict[str, RegionIR] = {
            region.bind_name: region for region in rule.all_regions
        }

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def _matrix_ref(self, name: str) -> str:
        self.used_matrices.add(name)
        return f"_m_{name}"

    def _dim_ref(self, matrix: str, dim: int) -> str:
        self.used_matrices.add(matrix)
        self.used_dims.setdefault(matrix, set()).add(dim)
        return f"_d_{matrix}_{dim}"

    def point_index(self, matrix: str, dim: int, ref: str) -> Tuple[str, str]:
        """``(extent, subscript)`` for ``ref``, a point coordinate (not
        a slice) into dimension ``dim`` of ``matrix``: the coordinate is
        in the view when ``0 <= ref < extent``.

        The one emitter of folded indices.  On a folded (matrix, axis)
        the array keeps only ``window`` planes, so the coordinate is
        checked against the *declared* extent — the same condition, and
        so the same ``IndexError``, as with every plane kept — and the
        subscript is the plane's slot ``ref % window``.  Every other
        dimension checks the array's own extent and subscripts with
        ``ref`` itself: a rule that touches no folded matrix lowers to
        the source it would without folding."""
        axis, window = self.folds.get(matrix, (None, 0))
        if axis != dim:
            return self._dim_ref(matrix, dim), ref
        declared = self._affine(self.transform.matrices[matrix].dims[dim])
        return declared, f"{ref} % {window}"

    def _affine(self, expr: Affine, bound: int = 0) -> str:
        """Exact integer lowering of ``expr.eval_ceil(env)``.

        An :class:`Affine` *is* an integer numerator over one common
        denominator ``L`` (:meth:`Affine.as_integers`), and
        ``ceil(num/L) == -((-num) // L)``; for ``L == 1`` this collapses
        to plain integer arithmetic.

        ``bound`` -1 / +1 lowers the least / greatest value the
        expression takes over the box of ``box_vars`` instead: ``ceil``
        of an affine form is monotone in every variable, so the extreme
        sits where each box variable is at the end of its range the sign
        of its coefficient selects.
        """
        constant, terms, lcm = expr.as_integers()
        parts: List[str] = []
        if constant or not terms:
            parts.append(str(constant))
        for var, numerator in terms:
            if bound and var in self.box_vars:
                self.used_box.add(var)
                end = "first" if (numerator > 0) == (bound < 0) else "last"
                name = f"_{end}_{var}"
            elif var in self.scalar_vars:
                name = f"_s_{var}"
            else:
                self.used_env.add(var)
                name = f"_e_{var}"
            parts.append(name if numerator == 1 else f"{numerator} * {name}")
        code = " + ".join(parts)
        if lcm == 1:
            return f"({code})"
        return f"(-((-({code})) // {lcm}))"

    def build(
        self, params: Iterable[str], namespace: Dict[str, object]
    ) -> Tuple[Callable, str]:
        """Assemble the maker around the emitted lines, ``exec`` it in
        ``namespace`` and return ``(maker, source)``."""
        out: List[str] = [f"def _maker({self.maker_args}):"]
        for name in sorted(self.used_env):
            out.append(f"    _e_{name} = _env[{name!r}]")
        for name in sorted(self.used_tunables):
            out.append(f"    _u_{name} = _tunables[{name!r}]")
        for name in sorted(self.used_matrices):
            out.append(f"    _m_{name} = _arrays[{name!r}]")
        for matrix in sorted(self.used_dims):
            for dim in sorted(self.used_dims[matrix]):
                out.append(
                    f"    _d_{matrix}_{dim} = "
                    f"_m_{matrix}.shape[{dim + self.axis_shift}]"
                )
        out.extend(self.maker_lines)
        out.append(f"    def {self.kernel_name}({', '.join(params)}):")
        out.extend(self.lines)
        out.append(f"    return {self.kernel_name}")
        source = "\n".join(out) + "\n"
        filename = f"<{self.tag} {self.transform.name}.{self.rule.label}>"
        exec(  # noqa: S102 - compiling our own generated source
            compile(source, filename, "exec"), namespace
        )
        return namespace["_maker"], source
