"""Matrix storage and region views.

PetaBricks matrices are dense n-dimensional arrays addressed with the
coordinate convention of the paper: for a 2-D matrix ``A[w, h]`` the first
coordinate is the column index ``x`` and the second the row index ``y``,
so ``A.cell(x, y)``, ``A.row(y)`` (a 1-D slice across ``x``) and
``A.column(x)`` (a 1-D slice across ``y``).

:class:`Matrix` owns a numpy buffer; :class:`MatrixView` is a window into
a matrix (or into another view) through which rule bodies read inputs and
write outputs.  Views share storage, so writes through a view are visible
everywhere — exactly the aliasing model of the original runtime.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

Index = Union[int, Sequence[int]]


class Matrix:
    """Dense n-dimensional matrix backed by a numpy array.

    ``Matrix.zeros((w, h))`` allocates storage; ``Matrix.from_array`` wraps
    an existing array (sharing its buffer).  A 0-dimensional matrix holds a
    single scalar value.
    """

    __slots__ = ("data", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = data
        self.name = name

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(shape: Sequence[int], name: str = "", dtype=np.float64) -> "Matrix":
        return Matrix(np.zeros(tuple(shape), dtype=dtype), name)

    @staticmethod
    def from_array(array, name: str = "") -> "Matrix":
        return Matrix(np.asarray(array, dtype=np.float64), name)

    @staticmethod
    def scalar(value: float = 0.0, name: str = "") -> "Matrix":
        return Matrix(np.array(value, dtype=np.float64), name)

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def whole(self) -> "MatrixView":
        """A view covering the entire matrix."""
        return MatrixView._whole(self.data, self.name)

    # The region API mirrors MatrixView's; delegate through a whole-view.

    def cell(self, *coords: int) -> "MatrixView":
        return self.whole().cell(*coords)

    def region(self, *bounds: int) -> "MatrixView":
        return self.whole().region(*bounds)

    def row(self, y: int) -> "MatrixView":
        return self.whole().row(y)

    def column(self, x: int) -> "MatrixView":
        return self.whole().column(x)

    def __repr__(self) -> str:
        label = self.name or "Matrix"
        return f"<{label} shape={self.shape}>"


class MatrixView:
    """A rectangular window into matrix storage.

    A view of ``k`` dimensions supports:

    * ``cell(*coords)`` — a 0-D view of one element (``.value`` to read,
      ``.set(v)`` to write),
    * ``region(lo_0, .., lo_{k-1}, hi_0, .., hi_{k-1})`` — PetaBricks
      region syntax: the first ``k`` arguments are the low corner, the
      last ``k`` the (exclusive) high corner — for 2-D,
      ``region(x1, y1, x2, y2)``,
    * ``row(y)`` / ``column(x)`` — 1-D slices of a 2-D view,
    * numpy interop via ``to_numpy()`` / ``assign()``.

    Coordinates are always *view-relative*; the view applies its own
    offsets, so recursive rules never see absolute indices.  ``shape``
    (extent per axis) is set with the bounds, which never change.
    """

    __slots__ = ("_data", "_bounds", "name", "_window", "shape")

    def __init__(
        self,
        data: np.ndarray,
        bounds: Tuple[Tuple[int, int], ...],
        name: str = "",
    ) -> None:
        if len(bounds) != data.ndim:
            raise ValueError(
                f"bounds arity {len(bounds)} != array ndim {data.ndim}"
            )
        for axis, (lo, hi) in enumerate(bounds):
            if not (0 <= lo <= hi <= data.shape[axis]):
                raise IndexError(
                    f"bounds {bounds} out of range for shape {data.shape}"
                )
        self._data = data
        self._bounds = bounds
        self.name = name
        self._window: np.ndarray = None  # lazily built by to_numpy()
        self.shape: Tuple[int, ...] = tuple([hi - lo for lo, hi in bounds])

    @classmethod
    def _whole(cls, data: np.ndarray, name: str) -> "MatrixView":
        """The view of all of ``data``: bounds taken from its own shape
        need no range check, and the window is the array (if not 0-D)."""
        view = cls.__new__(cls)
        view._data = data
        view.shape = data.shape
        view._bounds = tuple([(0, extent) for extent in view.shape])
        view.name = name
        view._window = data if data.ndim else None
        return view

    # -- geometry ----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self._bounds)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def _axis_slice(self) -> Tuple[slice, ...]:
        return tuple(slice(lo, hi) for lo, hi in self._bounds)

    # -- sub-views -----------------------------------------------------------

    def cell(self, *coords: int) -> "MatrixView":
        """A 0-D view of the single element at view-relative ``coords``."""
        if len(coords) != self.ndim:
            raise ValueError(
                f"cell() takes {self.ndim} coordinates, got {len(coords)}"
            )
        bounds = []
        for axis, c in enumerate(coords):
            lo, hi = self._bounds[axis]
            absolute = lo + int(c)
            if not (lo <= absolute < hi):
                raise IndexError(
                    f"cell{coords} outside view of shape {self.shape}"
                )
            bounds.append((absolute, absolute + 1))
        window = self._data[tuple(slice(lo, hi) for lo, hi in bounds)]
        return MatrixView._whole(window.reshape(()), self.name)

    def region(self, *args: int) -> "MatrixView":
        """A sub-view ``[lo, hi)`` per axis, PetaBricks argument order."""
        k = self.ndim
        if len(args) != 2 * k:
            raise ValueError(
                f"region() takes {2 * k} bounds for a {k}-D view"
            )
        los, his = args[:k], args[k:]
        new_bounds = []
        for axis in range(k):
            base_lo, base_hi = self._bounds[axis]
            lo = base_lo + int(los[axis])
            hi = base_lo + int(his[axis])
            if not (base_lo <= lo <= hi <= base_hi):
                raise IndexError(
                    f"region{args} outside view of shape {self.shape}"
                )
            new_bounds.append((lo, hi))
        return MatrixView(self._data, tuple(new_bounds), self.name)

    def row(self, y: int) -> "MatrixView":
        """The 1-D slice with second coordinate fixed (2-D views only)."""
        if self.ndim != 2:
            raise ValueError("row() requires a 2-D view")
        (x_lo, x_hi), (y_lo, y_hi) = self._bounds
        absolute = y_lo + int(y)
        if not (y_lo <= absolute < y_hi):
            raise IndexError(f"row({y}) outside view of shape {self.shape}")
        return MatrixView._whole(self._data[x_lo:x_hi, absolute], self.name)

    def column(self, x: int) -> "MatrixView":
        """The 1-D slice with first coordinate fixed (2-D views only)."""
        if self.ndim != 2:
            raise ValueError("column() requires a 2-D view")
        (x_lo, x_hi), (y_lo, y_hi) = self._bounds
        absolute = x_lo + int(x)
        if not (x_lo <= absolute < x_hi):
            raise IndexError(f"column({x}) outside view of shape {self.shape}")
        return MatrixView._whole(self._data[absolute, y_lo:y_hi], self.name)

    def slice_axis(self, axis: int, index: int) -> "MatrixView":
        """Generalized row/column: drop ``axis`` at view-relative ``index``.

        Used for matrix versions ``A<t>`` where the version dimension is
        collapsed after analysis.
        """
        lo, hi = self._bounds[axis]
        absolute = lo + int(index)
        if not (lo <= absolute < hi):
            raise IndexError(f"slice_axis({axis}, {index}) out of range")
        slicer = [slice(b_lo, b_hi) for b_lo, b_hi in self._bounds]
        slicer[axis] = absolute
        return MatrixView._whole(self._data[tuple(slicer)], self.name)

    # -- element access --------------------------------------------------------

    @property
    def value(self) -> float:
        """The scalar value of a 0-D view."""
        if self.ndim != 0:
            raise ValueError(f"value on {self.ndim}-D view; use to_numpy()")
        return float(self._data[()])

    def set(self, value: float) -> None:
        """Write the scalar value of a 0-D view."""
        if self.ndim != 0:
            raise ValueError("set() on non-scalar view; use assign()")
        self._data[()] = value

    def __getitem__(self, index: Index) -> float:
        coords = (index,) if isinstance(index, int) else tuple(index)
        return self.cell(*coords).value

    def __setitem__(self, index: Index, value: float) -> None:
        coords = (index,) if isinstance(index, int) else tuple(index)
        self.cell(*coords).set(value)

    # -- bulk access -------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """The underlying numpy window (a *view*, writes pass through).

        The window is cached: a view's bounds are immutable, so building
        the slice once is enough (the lowered execution paths call this
        on every segment application).
        """
        window = self._window
        if window is None:
            window = self._window = self._data[self._axis_slice()]
        return window

    @property
    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        """Absolute ``(lo, hi)`` bounds per axis into the backing array."""
        return self._bounds

    def assign(self, values) -> None:
        """Bulk write ``values`` (array-like of matching shape)."""
        window = self._window
        if window is None:
            self._data[self._axis_slice()] = values
        else:  # the same cells, already sliced
            window[...] = values

    def __repr__(self) -> str:
        label = self.name or "view"
        return f"<{label} bounds={self._bounds}>"
