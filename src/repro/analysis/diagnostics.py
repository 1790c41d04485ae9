"""Structured diagnostics for the static verifier suite.

Every finding of the analysis passes is a :class:`Diagnostic`: a stable
code (``PB1xx`` bounds, ``PB2xx`` races/deadlocks, ``PB3xx`` coverage,
``PB4xx`` hygiene, ``PB5xx`` leaf execution paths, ``PB6xx``
dependence/rewrite legality), the severity ``CODE_TABLE`` registers for
that code, the offending transform/rule/region, a source position when
the program came from the parser, a one-line fix hint, and — for the
witness-based checks — the concrete size/instance assignment that
exhibits the problem.  Passes build them through :class:`Findings`.
Error-severity diagnostics are always backed by such a witness, so an
error is never a false positive: it names sizes at which the program
would corrupt memory, race, or fail.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: The diagnostic code registry: code -> (severity, pass family, summary).
#: DESIGN.md renders this table; tests assert it matches emitted codes.
CODE_TABLE: Dict[str, Tuple[str, str, str]] = {
    "PB001": (ERROR, "general", "compile error (uncategorized)"),
    "PB101": (ERROR, "bounds", "region access provably out of bounds"),
    "PB102": (ERROR, "bounds", "rule variable has an unbounded instance space"),
    "PB103": (INFO, "bounds", "in-bounds only under runtime size guards"),
    "PB201": (ERROR, "races", "two instances of one rule write the same cell"),
    "PB202": (ERROR, "races", "one application's to-bindings overlap"),
    "PB203": (ERROR, "races", "concurrent writers overlap (rules or segments)"),
    "PB204": (ERROR, "races", "dependency cycle would deadlock (§3.6)"),
    "PB205": (ERROR, "races", "self-dependency has no schedulable iteration order"),
    "PB301": (ERROR, "coverage", "region of an output matrix is uncovered"),
    "PB302": (INFO, "coverage", "segment has multiple interchangeable options"),
    "PB401": (WARNING, "hygiene", "where-clause is unsatisfiable"),
    "PB402": (WARNING, "hygiene", "tunable is never used"),
    "PB403": (WARNING, "hygiene", "matrix is never used"),
    "PB404": (WARNING, "hygiene", "rule is never selectable in any segment"),
    "PB405": (WARNING, "hygiene", "rule is priority-shadowed everywhere"),
    "PB501": (INFO, "leafpaths", "rule qualifies for vectorized leaf execution"),
    "PB502": (INFO, "leafpaths", "rule is not vectorizable (closure path applies)"),
    "PB503": (INFO, "leafpaths", "transform batch-axis (stacking) eligibility"),
    "PB601": (INFO, "depend", "producer→consumer fusion is legal (proven distance)"),
    "PB602": (INFO, "depend", "fusion blocked by a cross-instance flow dependence"),
    "PB603": (INFO, "depend", "rewrite audit: dependence and fusion summary"),
    "PB604": (INFO, "depend", "tiling/interchange of a rule's schedule is legal"),
    "PB605": (INFO, "depend", "tiling/interchange blocked by a tile-crossing dependence"),
    "PB606": (INFO, "depend", "storage of a through matrix folds to its dependence window"),
    "PB607": (INFO, "depend", "storage of a through matrix is not folded (every plane kept)"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass; its severity is the
    registered one of its code (errors for unknown codes)."""

    code: str
    message: str
    transform: str = ""
    rule: str = ""
    region: str = ""
    line: int = 0
    column: int = 0
    hint: str = ""
    witness: str = ""
    path: str = ""

    @property
    def severity(self) -> str:
        return CODE_TABLE.get(self.code, (ERROR,))[0]

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (stable key order, empty fields included)."""
        fields = dict(asdict(self), severity=self.severity)
        return {key: value for key, value in sorted(fields.items())}

    def format(self) -> str:
        """One human-readable line, lint style."""
        location = self.path or "<source>"
        if self.line:
            location += f":{self.line}:{self.column}"
        subject = ".".join(p for p in (self.transform, self.rule) if p)
        parts = [f"{location}: {self.severity}[{self.code}]"]
        if subject:
            parts.append(f"{subject}:")
        parts.append(self.message)
        text = " ".join(parts)
        if self.witness:
            text += f"\n    witness: {self.witness}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def sort_key(self) -> Tuple:
        return (
            self.path,
            _SEVERITY_RANK[self.severity],
            self.transform,
            self.line,
            self.code,
            self.rule,
            self.region,
            self.message,
        )


class Findings:
    """The collector every pass reports through, bound to one transform
    IR and the path its source came from.

    :meth:`add` fills the transform, the rule and the source position
    from a finding's *subject* — a rule, a matrix, a tunable, or
    ``None`` for the transform — by one rule: the position ``at`` when
    given, else the subject's own, else the transform's.  A finding
    whose dedupe ``key`` was already added under its code is dropped,
    so a defect seen at many sizes or instances is reported once."""

    def __init__(self, ir, path: str = "") -> None:
        self.ir = ir
        self.path = path
        self.diagnostics: List[Diagnostic] = []
        self._keys: Set[Tuple] = set()

    def add(
        self,
        code: str,
        subject,
        message: str,
        hint: str = "",
        witness: str = "",
        key: Optional[Tuple] = None,
        region: str = "",
        at: Tuple[int, int] = (0, 0),
    ) -> None:
        if key is not None:
            if (code, key) in self._keys:
                return
            self._keys.add((code, key))
        line, column = at
        for place in (subject, self.ir):
            if place is not None:
                line, column = line or place.line, column or place.column
        self.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                transform=self.ir.name,
                rule=getattr(subject, "label", ""),
                region=region,
                line=line,
                column=column,
                hint=hint,
                witness=witness,
                path=self.path,
            )
        )


class AnalysisReport:
    """An ordered collection of diagnostics with lint-style summaries;
    a diagnostic equal to one already held is dropped."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._held: Dict[Diagnostic, None] = dict.fromkeys(diagnostics)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return list(self._held)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._held.update(dict.fromkeys(diagnostics))

    def add(self, diagnostic: Diagnostic) -> None:
        self._held[diagnostic] = None

    def sorted(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self._held)

    def with_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.sorted() if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.with_severity(ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.with_severity(WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.with_severity(INFO)

    @property
    def clean(self) -> bool:
        """No errors and no warnings (info is always allowed)."""
        return not self.errors and not self.warnings

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self, strict: bool = False) -> int:
        """Lint-style: 1 for errors (or warnings under --strict), else 0."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def summary_line(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "counts": self.counts_by_code(),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
