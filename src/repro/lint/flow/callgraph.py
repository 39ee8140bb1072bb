"""The whole-package call graph the flow rules analyse.

Built purely from the already-parsed :class:`~repro.lint.context.ModuleUnit`
set — no imports are executed.  Nodes are functions and methods, keyed by a
qualified name (``module.Class.method`` / ``module.function``); edges are
resolved call sites.  Resolution is deliberately *optimistic*: a call whose
target cannot be pinned to a scanned function contributes no edge (the
lineage pass separately accounts for RNG values escaping into such calls),
which keeps the analysis free of false paths at the cost of missing effects
behind truly dynamic dispatch.

What does resolve:

* plain calls to module-level functions (same module or imported from a
  scanned module, through the unit's import map);
* constructor calls to scanned classes (edges into ``__init__``);
* ``self.method()`` / ``cls.method()`` and ``super().method()`` through the
  scanned part of the MRO;
* method calls on locals and ``self`` attributes whose class is known
  because they were assigned from a scanned constructor
  (``self.core = _BoostedCore(...)`` makes ``self.core.transition()``
  resolve into ``_BoostedCore.transition``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.lint.context import ModuleUnit

__all__ = ["CallGraph", "ClassInfo", "FunctionInfo"]


@dataclass
class FunctionInfo:
    """One function or method node of the call graph."""

    qname: str
    module: str
    unit: ModuleUnit
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.cls is not None and not self._is_static()

    def _is_static(self) -> bool:
        for decorator in self.node.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
                return True
        return False

    def parameters(self) -> tuple[str, ...]:
        """Positional-ish parameter names, ``self``/``cls`` included."""
        args = self.node.args
        return tuple(
            arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )

    def positional_parameters(self) -> tuple[str, ...]:
        """Parameter names positional arguments bind to, in order."""
        args = self.node.args
        return tuple(arg.arg for arg in (*args.posonlyargs, *args.args))


@dataclass
class ClassInfo:
    """One scanned class: its methods, bases and constructor-typed attributes."""

    qname: str
    module: str
    unit: ModuleUnit
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base-class references as written (resolved lazily through the graph).
    bases: tuple[ast.expr, ...] = ()
    #: ``self.<attr>`` names assigned from a scanned constructor, mapped to
    #: the constructed class's qualified name.
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


def _module_key(unit: ModuleUnit) -> str:
    """The module key units are indexed under (stable for packageless files)."""
    return unit.module if unit.module is not None else f"<file>{unit.path.stem}"


class CallGraph:
    """Functions, classes and resolved call edges over a set of units."""

    def __init__(self, units: Sequence[ModuleUnit]) -> None:
        self.units = tuple(units)
        #: qname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: (module, class name) -> ClassInfo
        self.classes: dict[tuple[str, str], ClassInfo] = {}
        #: (module, top-level name) -> "function" | "class"
        self._top_level: dict[tuple[str, str], str] = {}
        for unit in self.units:
            self._index_unit(unit)
        for info in self.classes.values():
            self._infer_attr_types(info)

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #

    def _index_unit(self, unit: ModuleUnit) -> None:
        module = _module_key(unit)
        for node in unit.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{module}.{node.name}"
                self.functions[qname] = FunctionInfo(
                    qname=qname, module=module, unit=unit, node=node, cls=None
                )
                self._top_level[(module, node.name)] = "function"
            elif isinstance(node, ast.ClassDef):
                self._index_class(unit, module, node)
                self._top_level[(module, node.name)] = "class"

    def _index_class(
        self, unit: ModuleUnit, module: str, node: ast.ClassDef
    ) -> None:
        info = ClassInfo(
            qname=f"{module}.{node.name}",
            module=module,
            unit=unit,
            node=node,
            bases=tuple(node.bases),
        )
        self.classes[(module, node.name)] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{module}.{node.name}.{child.name}"
                function = FunctionInfo(
                    qname=qname,
                    module=module,
                    unit=unit,
                    node=child,
                    cls=node.name,
                )
                self.functions[qname] = function
                info.methods[child.name] = function

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """Record ``self.<attr> = ScannedClass(...)`` constructor types."""
        for method in info.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                target_cls = self._class_of_constructor(info.unit, node.value.func)
                if target_cls is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types[target.attr] = target_cls.qname

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def class_by_qname(self, qname: str) -> ClassInfo | None:
        module, _, name = qname.rpartition(".")
        return self.classes.get((module, name))

    def mro(self, info: ClassInfo) -> Iterator[ClassInfo]:
        """The scanned part of a class's MRO (own class first, depth-first)."""
        seen: set[str] = set()

        def walk(current: ClassInfo) -> Iterator[ClassInfo]:
            if current.qname in seen:
                return
            seen.add(current.qname)
            yield current
            for base in current.bases:
                resolved = self._resolve_class_expr(current.unit, base)
                if resolved is not None:
                    yield from walk(resolved)

        return walk(info)

    def resolve_method(self, info: ClassInfo, name: str) -> FunctionInfo | None:
        """Resolve ``name`` through the scanned MRO of ``info``."""
        for cls in self.mro(info):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def methods_of(self, info: ClassInfo) -> Mapping[str, FunctionInfo]:
        """Every method reachable on ``info`` through the scanned MRO."""
        resolved: dict[str, FunctionInfo] = {}
        for cls in self.mro(info):
            for name, method in cls.methods.items():
                resolved.setdefault(name, method)
        return resolved

    def _resolve_class_expr(
        self, unit: ModuleUnit, node: ast.expr
    ) -> ClassInfo | None:
        """A class reference expression -> the scanned ClassInfo, if any."""
        if isinstance(node, ast.Name):
            module = _module_key(unit)
            if self._top_level.get((module, node.id)) == "class":
                return self.classes[(module, node.id)]
            qualified = unit.import_map.get(node.id)
            if qualified is not None:
                mod, _, attr = qualified.rpartition(".")
                return self.classes.get((mod, attr))
            return None
        if isinstance(node, ast.Attribute):
            # ``module_alias.ClassName`` through the import map.
            if isinstance(node.value, ast.Name):
                qualified_root = unit.import_map.get(node.value.id)
                if qualified_root is not None:
                    return self.classes.get((qualified_root, node.attr))
        if isinstance(node, ast.Subscript):
            return self._resolve_class_expr(unit, node.value)
        return None

    def _class_of_constructor(
        self, unit: ModuleUnit, func: ast.expr
    ) -> ClassInfo | None:
        """The scanned class a ``Cls(...)`` constructor call instantiates."""
        return self._resolve_class_expr(unit, func)

    # ------------------------------------------------------------------ #
    # Call resolution
    # ------------------------------------------------------------------ #

    def resolve_call(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        local_types: Mapping[str, str] | None = None,
    ) -> FunctionInfo | None:
        """Resolve a call site inside ``caller`` to a scanned function.

        ``local_types`` maps local variable names to class qnames (supplied
        by the lineage pass, which tracks ``x = ScannedClass(...)``
        assignments).  Returns ``None`` for unresolvable targets — the
        caller then treats the call as an effect-free black box, with RNG
        escape tracked separately.
        """
        unit, module = caller.unit, caller.module
        func = call.func
        if isinstance(func, ast.Name):
            kind = self._top_level.get((module, func.id))
            if kind == "function":
                return self.functions[f"{module}.{func.id}"]
            if kind == "class":
                info = self.classes[(module, func.id)]
                return self.resolve_method(info, "__init__")
            qualified = unit.import_map.get(func.id)
            if qualified is not None:
                mod, _, attr = qualified.rpartition(".")
                target = self.functions.get(f"{mod}.{attr}")
                if target is not None and target.cls is None:
                    return target
                info = self.classes.get((mod, attr))
                if info is not None:
                    return self.resolve_method(info, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        # self.method() / cls.method()
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            if caller.cls is not None:
                info = self.classes.get((module, caller.cls))
                if info is not None:
                    resolved = self.resolve_method(info, func.attr)
                    if resolved is not None:
                        return resolved
            return None
        # super().method()
        if (
            isinstance(owner, ast.Call)
            and isinstance(owner.func, ast.Name)
            and owner.func.id == "super"
            and caller.cls is not None
        ):
            info = self.classes.get((module, caller.cls))
            if info is not None:
                for cls in self.mro(info):
                    if cls.qname == info.qname:
                        continue
                    if func.attr in cls.methods:
                        return cls.methods[func.attr]
            return None
        # self.attr.method() through constructor-typed attributes.
        if (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "self"
            and caller.cls is not None
        ):
            info = self.classes.get((module, caller.cls))
            if info is not None:
                for cls in self.mro(info):
                    type_qname = cls.attr_types.get(owner.attr)
                    if type_qname is not None:
                        owner_cls = self.class_by_qname(type_qname)
                        if owner_cls is not None:
                            return self.resolve_method(owner_cls, func.attr)
            return None
        if isinstance(owner, ast.Name):
            # local.method() through lineage-tracked constructor types.
            if local_types is not None and owner.id in local_types:
                owner_cls = self.class_by_qname(local_types[owner.id])
                if owner_cls is not None:
                    return self.resolve_method(owner_cls, func.attr)
            # module_alias.function() / ClassName.method() through imports.
            qualified_root = unit.import_map.get(owner.id)
            if qualified_root is not None:
                target = self.functions.get(f"{qualified_root}.{func.attr}")
                if target is not None and target.cls is None:
                    return target
                mod, _, attr = qualified_root.rpartition(".")
                info = self.classes.get((mod, attr))
                if info is not None:
                    return self.resolve_method(info, func.attr)
            if self._top_level.get((module, owner.id)) == "class":
                info = self.classes[(module, owner.id)]
                return self.resolve_method(info, func.attr)
        return None

    # ------------------------------------------------------------------ #
    # Serialisation (the --flow-graph artifact)
    # ------------------------------------------------------------------ #

    def to_dict(self, edges: Mapping[str, Iterable[str]] | None = None) -> dict:
        """JSON-ready structure: nodes, classes and (optionally) edges."""
        payload: dict = {
            "functions": [
                {
                    "qname": info.qname,
                    "module": info.module,
                    "class": info.cls,
                    "line": info.node.lineno,
                    "path": info.unit.display_path,
                }
                for info in self.iter_functions()
            ],
            "classes": sorted(info.qname for info in self.classes.values()),
        }
        if edges is not None:
            payload["edges"] = {
                qname: sorted(set(targets))
                for qname, targets in sorted(edges.items())
                if targets
            }
        return payload
