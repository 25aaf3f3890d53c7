"""AST-based determinism and idiom lint for the simulator sources.

Simulation results must be a pure function of (configuration, workload,
seed): the benchmark memoization (``ExperimentCache``), the figure
regression tests, and cross-run comparisons all assume it.  This pass
flags the constructs that silently break that property, plus the
type-hint defect family that seeded this PR:

* ``wall-clock``       — calls that read real time (``time.time``,
  ``time.perf_counter``, ``datetime.now``...).  Simulated time lives in
  ``EventQueue.now``; wall-clock reads make runs unreproducible.
* ``global-random``    — module-level ``random.*`` draws use the shared,
  unseeded global RNG.  Use an explicitly seeded ``random.Random(seed)``
  (see ``workloads/generator.py``).
* ``set-iteration``    — ``for``/comprehension iteration over a value
  statically known to be a ``set``/``frozenset``.  Set order is an
  implementation detail; when iteration feeds event scheduling or output,
  it must be wrapped in ``sorted(...)``.
* ``implicit-optional``— a parameter or annotated assignment typed as a
  plain ``int``/``str``/... with a ``None`` default (``writer: int =
  None``); the annotation must say ``Optional[...]``.
* ``hot-path-slots``   — a class defined under the per-cycle packages
  (``core/``, ``mem/``) without a ``__slots__`` declaration.  Those
  objects are allocated/accessed millions of times per run; a dict per
  instance is measurable (see ``docs/performance.md``).  Enum,
  exception, Protocol-style, and decorated classes are exempt.
* ``hot-path-allocation`` — container displays, comprehensions,
  lambdas, and nested ``def`` inside a function whose ``def`` line is
  marked ``# repro: hot`` (the specialized engine's inner-loop
  closures).  Each such construct allocates per call on a path that
  runs every simulated cycle; hoist it into the closure maker, or waive
  a deliberate allocation with ``# repro: allow-hot-path-allocation``.
  The column layout adds three more hazards under the same rule:
  ``.copy()`` calls and slice-copies (each clones a hot column per
  call) and ``for`` iteration over slot maps (attributes annotated as
  dicts, or ``.items()``/``.keys()``/``.values()`` views) — slot-keyed
  state is meant to be walked through the rings and flat columns.

A finding is waived by a trailing ``# repro: allow-<rule>`` comment on
the offending line — e.g. ``# repro: allow-wall-clock`` on a deliberate
clock read.

Known-set inference is deliberately shallow and name-based (a lint, not a
type checker): set displays/constructors/comprehensions, locals assigned
from those (including via set operators), attributes annotated ``Set[...]``
anywhere in the linted tree, and calls of functions/methods whose return
annotation is a set type.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set

#: Functions that read the wall clock, as ``module.attr`` paths.
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
}

#: Names the global-RNG rule treats as the ``random`` module.
RANDOM_MODULE = "random"

#: ``random.<attr>`` accesses that do *not* draw from the global RNG:
#: constructing an explicitly seeded generator is the recommended fix.
RANDOM_SAFE_ATTRS = {"Random", "SystemRandom", "seed"}

#: Iteration wrappers that impose a deterministic order on a set.
ORDERING_WRAPPERS = {"sorted", "min", "max", "sum", "len", "any", "all",
                     "frozenset", "set"}

SET_TYPE_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet",
                  "AbstractSet"}

#: Annotation names the ``hot-path-allocation`` rule treats as dicts
#: (slot maps: dep->waiters, lq_id->entry...).  Iterating one inside a
#: ``# repro: hot`` function walks the map per call — the column/ring
#: scan is the layout the engine closures are supposed to use.
DICT_TYPE_NAMES = {"dict", "Dict", "defaultdict", "DefaultDict",
                   "OrderedDict", "Mapping", "MutableMapping"}

#: Packages whose classes live on the per-cycle path: every simulated
#: cycle allocates/touches their instances, so they must declare
#: ``__slots__`` (rule ``hot-path-slots``).  ``pinning`` and
#: ``security`` joined when the defense machinery moved onto the
#: event-driven wakeup path (the pin chain and VP walk run on every
#: non-skipped tick of a defended core).
HOT_PATH_PACKAGES = {"core", "mem", "pinning", "security"}

#: Base classes that exempt a class from ``hot-path-slots``: enums and
#: exceptions are not per-cycle objects, and Protocol/ABC-style bases
#: exist for typing, not allocation.
SLOTS_EXEMPT_BASES = {
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Exception",
    "BaseException", "Protocol", "NamedTuple", "TypedDict", "ABC",
}

#: rule name -> one-line invariant, consumed by the analysis framework
#: (``repro.verify.passes``) when it runs this lint as one of its passes.
RULES = {
    "wall-clock": "simulated time must come from EventQueue.now, "
                  "never the wall clock",
    "global-random": "randomness must come from an explicitly seeded "
                     "random.Random",
    "set-iteration": "iteration over a set feeding scheduling/output "
                     "must be wrapped in sorted(...)",
    "implicit-optional": "a None default requires an Optional[...] "
                         "annotation",
    "hot-path-slots": "classes in per-cycle packages must declare "
                      "__slots__",
    "hot-path-allocation": "functions marked '# repro: hot' must not "
                           "allocate containers or closures per call",
}

#: marker comment that opts a function into ``hot-path-allocation``
HOT_FUNCTION_MARKER = "# repro: hot"


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message}")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute path of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = _dotted(node)
    return name is not None and name.split(".")[-1] in SET_TYPE_NAMES


def _annotation_is_dict(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = _dotted(node)
    return name is not None and name.split(".")[-1] in DICT_TYPE_NAMES


def _annotation_allows_none(annotation: ast.AST) -> bool:
    text = ast.unparse(annotation)
    return ("Optional" in text or "None" in text or "Any" in text
            or "object" in text)


class _SetRegistry:
    """Names of attributes/functions known (by annotation) to be sets.

    Inference is by bare name, so an attribute name annotated ``Set[...]``
    in one class and something else in another (e.g. ``_lines`` is a set in
    ``CannotPinTable`` but a dict in ``L1TagPinRecord``) is ambiguous
    and deliberately dropped — a false negative beats telling someone to
    ``sorted()`` an order-bearing container.
    """

    def __init__(self) -> None:
        self._set_attrs: Set[str] = set()
        self._nonset_attrs: Set[str] = set()
        self._dict_attrs: Set[str] = set()
        self._nondict_attrs: Set[str] = set()
        self.set_returning: Set[str] = set()

    def is_set_attr(self, name: str) -> bool:
        return name in self._set_attrs and name not in self._nonset_attrs

    def is_dict_attr(self, name: str) -> bool:
        """Attribute known (by annotation, unambiguously) to be a dict —
        the slot maps the ``hot-path-allocation`` iteration check
        targets."""
        return name in self._dict_attrs \
            and name not in self._nondict_attrs

    def scan(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                if isinstance(target, ast.Attribute):
                    (self._set_attrs
                     if _annotation_is_set(node.annotation)
                     else self._nonset_attrs).add(target.attr)
                    (self._dict_attrs
                     if _annotation_is_dict(node.annotation)
                     else self._nondict_attrs).add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _annotation_is_set(node.returns):
                self.set_returning.add(node.name)


def _is_hot_path(path: str) -> bool:
    """Is ``path`` inside a package subject to ``hot-path-slots``?"""
    return bool(HOT_PATH_PACKAGES.intersection(Path(path).parts))


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, registry: _SetRegistry,
                 lines: Optional[Sequence[str]] = None) -> None:
        self.path = path
        self.registry = registry
        self.findings: List[Finding] = []
        self._hot_path = _is_hot_path(path)
        #: source lines, for the comment-marker rules (None in the rare
        #: AST-only call paths: the marker rule is then inert)
        self._lines = lines
        #: per-function stack of local names inferred to hold sets
        self._set_locals: List[Set[str]] = [set()]

    # -- helpers -------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno,
                                     node.col_offset, rule, message))

    def _is_known_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.registry.set_returning:
                return True
            return False
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.Sub, ast.BitOr, ast.BitAnd,
                                         ast.BitXor)):
            return self._is_known_set(node.left) \
                or self._is_known_set(node.right)
        if isinstance(node, ast.Name):
            return node.id in self._set_locals[-1]
        if isinstance(node, ast.Attribute):
            return self.registry.is_set_attr(node.attr)
        return False

    # -- scopes --------------------------------------------------------

    def _visit_function(self, node) -> None:
        self._check_arg_defaults(node)
        if self._is_hot_function(node):
            self._check_hot_allocations(node)
        args = node.args
        scope = {arg.arg
                 for arg in (args.posonlyargs + args.args
                             + args.kwonlyargs)
                 if _annotation_is_set(arg.annotation)}
        self._set_locals.append(scope)
        self.generic_visit(node)
        self._set_locals.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- hot-path allocation -------------------------------------------

    def _is_hot_function(self, node) -> bool:
        if self._lines is None:
            return False
        line = self._lines[node.lineno - 1] \
            if node.lineno - 1 < len(self._lines) else ""
        return HOT_FUNCTION_MARKER in line

    _ALLOCATION_KINDS = {
        ast.List: "list display", ast.Set: "set display",
        ast.Dict: "dict display", ast.ListComp: "list comprehension",
        ast.SetComp: "set comprehension",
        ast.DictComp: "dict comprehension",
        ast.GeneratorExp: "generator expression",
        ast.Lambda: "lambda", ast.FunctionDef: "nested function",
        ast.AsyncFunctionDef: "nested function",
    }

    def _check_hot_allocations(self, node) -> None:
        """Flag per-call container/closure construction inside a
        function marked ``# repro: hot``.  Nested functions are flagged
        as a whole (the def itself allocates a closure every call) and
        not descended into.  Beyond the display/comprehension kinds,
        three column-layout hazards are flagged: ``.copy()`` calls and
        slice-copies (both clone a hot column per call) and ``for``
        iteration over slot maps (dict-annotated attributes or
        ``.items()``/``.keys()``/``.values()`` views) — the ring/column
        scan is the supported walk."""
        stack = list(node.body)
        while stack:
            child = stack.pop()
            kind = self._ALLOCATION_KINDS.get(type(child))
            if kind is not None:
                self._emit(
                    child, "hot-path-allocation",
                    f"{kind} inside '# repro: hot' function "
                    f"{node.name}() allocates per call; hoist it into "
                    f"the closure maker or waive with "
                    f"# repro: allow-hot-path-allocation")
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue
            elif isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "copy" and not child.args:
                self._emit(
                    child, "hot-path-allocation",
                    f"{ast.unparse(child.func.value)}.copy() inside "
                    f"'# repro: hot' function {node.name}() clones a "
                    f"container per call; hoist it into the closure "
                    f"maker or waive with "
                    f"# repro: allow-hot-path-allocation")
            elif isinstance(child, ast.Subscript) \
                    and isinstance(child.slice, ast.Slice) \
                    and isinstance(child.ctx, ast.Load):
                self._emit(
                    child, "hot-path-allocation",
                    f"slice-copy {ast.unparse(child)} inside "
                    f"'# repro: hot' function {node.name}() allocates "
                    f"a fresh list per call; index the column in place "
                    f"or waive with # repro: allow-hot-path-allocation")
            elif isinstance(child, ast.For):
                self._check_hot_dict_iteration(node, child)
            stack.extend(ast.iter_child_nodes(child))

    def _check_hot_dict_iteration(self, func, loop: ast.For) -> None:
        iterable = loop.iter
        if isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Attribute) \
                and iterable.func.attr in ("items", "keys", "values") \
                and not iterable.args:
            self._emit(
                iterable, "hot-path-allocation",
                f"dict iteration over "
                f"{ast.unparse(iterable)} inside '# repro: hot' "
                f"function {func.name}() walks a slot map per call; "
                f"scan the ring/columns instead or waive with "
                f"# repro: allow-hot-path-allocation")
        elif isinstance(iterable, ast.Attribute) \
                and self.registry.is_dict_attr(iterable.attr):
            self._emit(
                iterable, "hot-path-allocation",
                f"dict iteration over {ast.unparse(iterable)} inside "
                f"'# repro: hot' function {func.name}() walks a slot "
                f"map per call; scan the ring/columns instead or waive "
                f"with # repro: allow-hot-path-allocation")

    # -- hot-path __slots__ --------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._hot_path and not node.decorator_list \
                and not self._slots_exempt(node) \
                and not self._declares_slots(node):
            self._emit(
                node, "hot-path-slots",
                f"class {node.name} is on the per-cycle path "
                f"({'/'.join(sorted(HOT_PATH_PACKAGES))} packages) but "
                f"declares no __slots__")
        self.generic_visit(node)

    @staticmethod
    def _slots_exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = _dotted(base)
            short = name.split(".")[-1] if name else ""
            if short in SLOTS_EXEMPT_BASES or short.endswith("Error"):
                return True
        return node.name.endswith("Error")

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id == "__slots__":
                    return True
        return False

    # -- implicit Optional ---------------------------------------------

    def _check_arg_defaults(self, node) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        defaults: Sequence[Optional[ast.AST]] = \
            [None] * (len(positional) - len(args.defaults)) \
            + list(args.defaults)
        pairs = list(zip(positional, defaults)) \
            + list(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in pairs:
            if default is None or arg.annotation is None:
                continue
            if isinstance(default, ast.Constant) and default.value is None \
                    and not _annotation_allows_none(arg.annotation):
                self._emit(
                    arg, "implicit-optional",
                    f"parameter '{arg.arg}: "
                    f"{ast.unparse(arg.annotation)} = None' needs an "
                    f"Optional[...] annotation")

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.value, ast.Constant) and node.value.value is None \
                and not _annotation_allows_none(node.annotation):
            self._emit(node, "implicit-optional",
                       f"'{ast.unparse(node.target)}: "
                       f"{ast.unparse(node.annotation)} = None' needs an "
                       f"Optional[...] annotation")
        if _annotation_is_set(node.annotation) \
                and isinstance(node.target, ast.Name):
            self._set_locals[-1].add(node.target.id)
        self.generic_visit(node)

    # -- set inference through assignments -----------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_known_set(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals[-1].add(target.id)
        self.generic_visit(node)

    # -- set iteration -------------------------------------------------

    def _check_iteration(self, node: ast.AST, iterable: ast.AST) -> None:
        if self._is_known_set(iterable):
            self._emit(
                iterable, "set-iteration",
                f"iteration over a set ({ast.unparse(iterable)}) has "
                f"unspecified order; wrap it in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(node, generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a *new* set from a set is order-insensitive
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # wall clock
        name = _dotted(node.func)
        if name in WALL_CLOCK_CALLS:
            self._emit(node, "wall-clock",
                       f"{name}() reads the wall clock; simulated time "
                       f"must come from EventQueue.now")
        elif name is not None and "." in name:
            module, func = name.rsplit(".", 1)
            if module == RANDOM_MODULE and func not in RANDOM_SAFE_ATTRS:
                self._emit(node, "global-random",
                           f"random.{func}() draws from the unseeded "
                           f"global RNG; use a seeded random.Random")
        # sorted(<set>) etc. impose an order: don't descend into the
        # iterable argument with the set-iteration rule
        if name in ORDERING_WRAPPERS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    self.generic_visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            self.visit(node.func)
            return
        self.generic_visit(node)


def _waived(finding: Finding, lines: Sequence[str]) -> bool:
    """A ``# repro: allow-<rule>`` comment on the finding's line waives
    it (narrowly: only that rule, only that line).  The matching logic
    is the framework-wide one (``repro.verify.passes.waivers``)."""
    from repro.verify.passes.waivers import is_waived
    return is_waived(finding, lines)


def lint_source_raw(source: str, path: str = "<string>",
                    registry: Optional[_SetRegistry] = None,
                    tree: Optional[ast.AST] = None) -> List[Finding]:
    """Lint one module, *without* applying waivers.

    The analysis framework calls this and applies the unified waiver
    pass itself (so stale lint waivers are auditable); standalone
    ``lint_source`` keeps the historical filtered behavior.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    if registry is None:
        registry = _SetRegistry()
        registry.scan(tree)
    linter = _Linter(path, registry, source.splitlines())
    linter.visit(tree)
    return linter.findings


def lint_source(source: str, path: str = "<string>",
                registry: Optional[_SetRegistry] = None) -> List[Finding]:
    """Lint one module's source text."""
    findings = lint_source_raw(source, path, registry)
    lines = source.splitlines()
    return [finding for finding in findings
            if not _waived(finding, lines)]
