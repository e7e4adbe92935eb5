"""Every name a package module imports or defines is used.

The import scan parses each ``src/ransomflow/*.py`` file with :mod:`ast`. A
name counts as used when it appears as a name anywhere in the module (an
attribute chain such as ``np.zeros`` uses ``np``) or is listed in the
module's ``__all__``, which re-exports it.

The definition scan lists each function, class and method those files
define, dunders excepted, and requires each name to occur as a word
somewhere besides its definition in the ``.py`` files under ``src/``,
``tests/`` or ``perfbench/``.

The reach scan is stricter: tests do not count, and a definition must be
read by code reached from the entry points, each module's own top-level
statements and perfbench's own modules, ``perfbench/*.py`` without its tests,
following reads to a fixed point (see :func:`unreached_definitions`). Only
the verification API a test outside ``tests/`` builds on may stay unreached.

The parameter scan does the same for the optional parameters of the
package's definitions, a dataclass's fields among them: each must be passed
by some call in ``src/ransomflow`` or ``perfbench``, and no default may be
one every such call overrides (see :func:`parameter_findings`).

The field scan holds dataclass fields to the same rule: each must be read as
an attribute somewhere in ``src/ransomflow`` or ``perfbench``, or by a method
of its class that hands ``self`` to ``asdict`` or ``astuple``, which
renders the dataclasses its field annotations name as well (see
:func:`unread_fields`). The attribute scan reads the same sources for what
the exception ``__init__``s in ``errors.py`` store: each must be read off a
caught exception somewhere in ``src/ransomflow`` or ``perfbench``; a read in
``tests/`` does not count (see :func:`unread_exception_attributes`).

The re-cast scan keeps every package module but ``serialize.py`` from
converting what it is given: every array is typed where it is made, float64
or int64 (see :func:`recasts`). ``serialize.array_doc``'s cast is the stored
format, not a re-cast: it fixes the stored bytes as little-endian float64
(``"<f8"``) whatever the machine's byte order.

The exception scan keeps each exception type one that some code tells apart:
every exception class lives in ``errors.py``, and each is caught by type
somewhere in ``src/ransomflow`` or carries fields a handler can read (see
:func:`untyped_exceptions`).
"""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ransomflow"
MODULES = sorted(PACKAGE.glob("*.py"))
SEARCHED = sorted(p for tree in ("src", "tests", "perfbench")
                  for p in (ROOT / tree).rglob("*.py"))
# the sources the parameter, field and attribute scans read besides MODULES
BENCH = sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_names_and_counts_reexports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys\n"
              "import numpy as np\n"
              "from .errors import DataError, SchemaMismatch as Bad\n"
              "from .nn import Adam\n"
              "__all__ = ['Adam']\n"
              "def f(x: np.ndarray):\n"
              "    raise DataError(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (5, "Bad")]


def test_modules_are_found():
    assert {"cli.py", "dataset.py", "lstm.py", "nn.py"} <= {
        m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_uses_every_imported_name(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list:
    """Each function, class and method the source defines, but dunders."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_definitions(names, texts) -> list:
    """The names in ``names`` that occur as a word in ``texts`` no more
    often than they are defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, defined in Counter(names).items()
                  if words[name] <= defined)


def test_definition_scan_finds_names_used_nowhere_else():
    source = ("class Kept:\n"
              "    def __init__(self): pass\n"
              "    def lonely(self): pass\n"
              "def twice(): pass\n"
              "def twice(): pass\n"
              "def helper():\n"
              "    def inner(): pass\n"
              "    return Kept\n")
    names = defined_names(source)
    assert names == ["Kept", "twice", "twice", "helper", "lonely", "inner"]
    assert dead_definitions(names, [source, "helper()\n"]) == [
        "inner", "lonely", "twice"]


def test_every_defined_name_is_used_elsewhere():
    names = [name for module in MODULES
             for name in defined_names(module.read_text(encoding="utf-8"))]
    texts = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert dead_definitions(names, texts) == []


# Definitions no command and no benchmark code reaches, kept as the API a
# test outside tests/ builds on: perfbench's generator test decodes the
# target column back to its class names.
VERIFICATION_API = ("EncodedTable.decoded",)
TRACER = ROOT / "perfbench" / "tracer.py"


def _aliases(tree, package: str) -> dict:
    """Local name -> what an import in ``tree`` binds it to: ``"module"``
    for a package module, ``"module.name"`` for a name imported from one."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                module = node.module
            elif node.level == 0 and node.module \
                    and node.module.startswith(package + "."):
                module = node.module[len(package) + 1:]
            elif node.module in (None, package):  # from . import mod
                module = None
            else:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name \
                    if module is None else f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(package + "."):
                    aliases[alias.asname] = alias.name[len(package) + 1:]
    return aliases


def _class_code(node: ast.ClassDef) -> list:
    """What runs when a class is defined: its bases, keywords, decorators
    and the statements of its body that are not methods."""
    return [*node.bases, *node.keywords, *node.decorator_list,
            *(item for item in node.body
              if not isinstance(item, ast.FunctionDef))]


def unreached_definitions(modules: dict, others, traced: dict,
                          package: str = "ransomflow") -> list:
    """The definitions in ``modules`` (module name -> source) that no code
    reached from the roots reads, sorted: module-level functions and classes
    as ``module.name``, methods and properties as ``Class.name``; dunders are
    skipped.

    The roots are each module's top-level statements (not its definitions),
    every dunder method, the sources in ``others`` whole, and the names
    ``traced`` (layer -> names, as in the tracer's ``LAYERS``) lists. The
    reach then grows to a fixed point. Code reads a module-level definition
    by its name in its own module, by a name imported from its module (an
    import alone reads nothing), or as an attribute of its imported module;
    it reads a method by reading an attribute of that name, except that
    ``self.<name>`` inside a method of class ``C`` reads only ``C.<name>``
    when ``C`` defines a method of that name (so a subclass's override of it
    must be read some other way), and every method of that name otherwise,
    since it may be inherited or overridden. A reached
    function brings its whole body, nested definitions included; a reached
    class its bases, decorators and class-level statements, not its methods.
    """
    # a definition -> (its module, the nodes that run once it is reached,
    # the module's import aliases, the class a method belongs to); pending
    # holds reached code not yet read
    code, methods, pending = {}, {}, []
    for source in others:
        tree = ast.parse(source)
        pending.append((None, [tree], _aliases(tree, package), None))
    for module, source in modules.items():
        tree = ast.parse(source)
        aliases = _aliases(tree, package)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                code[f"{module}.{node.name}"] = module, [node], aliases, None
            elif isinstance(node, ast.ClassDef):
                code[f"{module}.{node.name}"] = \
                    module, _class_code(node), aliases, None
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    name = f"{node.name}.{item.name}"
                    if item.name.startswith("__") and item.name.endswith("__"):
                        pending.append((module, [item], aliases, node.name))
                    else:
                        code[name] = module, [item], aliases, node.name
                        methods.setdefault(item.name, []).append(name)
            else:
                pending.append((module, [node], aliases, None))
    reached = {name if "." in name else f"{layer}.{name}"
               for layer, names in traced.items()
               for name in names} & set(code)
    pending += [code[name] for name in reached]
    while pending:
        own, nodes, aliases, cls = pending.pop()
        read = []
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.append(aliases.get(node.id, f"{own}.{node.id}"))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                member = f"{cls}.{node.attr}"
                if cls and ast.unparse(node.value) == "self" \
                        and member in methods.get(node.attr, []):
                    read.append(member)
                else:
                    read += methods.get(node.attr, [])
                if isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    read.append(f"{aliases[node.value.id]}.{node.attr}")
        for name in read:
            if name in code and name not in reached:
                reached.add(name)
                pending.append(code[name])
    return sorted(set(code) - reached)


def test_reach_scan_follows_names_imports_attributes_and_the_tracer():
    modules = {
        "a": ("from . import b\n"
              "from .b import imported\n"
              "def used(): pass\n"
              "def lonely(): pass\n"
              "def traced(): pass\n"
              "def ping(): return pong()\n"
              "def pong(): return ping()\n"
              "def caller(): return imported()\n"
              "class Box:\n"
              "    def __init__(self): self.ready()\n"
              "    def ready(self): pass\n"
              "    def read(self): return self.helper()\n"
              "    def helper(self): pass\n"
              "    def spare(self): return self.hidden()\n"
              "    def hidden(self): pass\n"
              "    def wrapped(self): pass\n"
              "x = used() or b.fetched() or Box().read()\n"),
        "b": ("def fetched(): pass\n"
              "def imported(): pass\n"
              "def benched(): pass\n"
              "def named_by_chance(): pass\n"
              "def only_imported(): pass\n"),
    }
    bench = ("from ransomflow.b import benched, only_imported\n"
             "benched()\n"
             "named_by_chance = 1\n")
    traced = {"a": ("traced", "Box.wrapped")}
    # spare reads hidden, caller reads imported, and ping and pong read each
    # other, but nothing reached reads any of them
    assert unreached_definitions(modules, [bench], traced) == [
        "Box.hidden", "Box.spare", "a.caller", "a.lonely", "a.ping", "a.pong",
        "b.imported", "b.named_by_chance", "b.only_imported"]


def test_reach_scan_reads_self_attributes_of_their_own_class():
    modules = {
        "a": ("class Box:\n"
              "    def __init__(self): self.ready()\n"
              "    def ready(self): return self.helper()\n"
              "    def helper(self): pass\n"
              "class Crate:\n"
              "    def ready(self): pass\n"
              "    def helper(self): pass\n"
              "class Base:\n"
              "    def __init__(self): self.hook()\n"
              "class Child(Base):\n"
              "    def hook(self): pass\n"
              "x = Box(), Child(), Crate\n"),
    }
    # Box reads its own ready and helper; Base defines no hook, so its
    # self.hook() reads every hook
    assert unreached_definitions(modules, [], {}) == [
        "Crate.helper", "Crate.ready"]


def test_every_definition_is_reached_or_verification_api():
    modules = {m.stem: m.read_text(encoding="utf-8") for m in MODULES}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    traced = ast.literal_eval(next(
        node.value for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS"))
    assert unreached_definitions(modules, bench, traced) == sorted(
        VERIFICATION_API)


def _test_sources() -> list:
    return [p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "tests").glob("*.py"))
            if p.name != Path(__file__).name]


def test_verification_api_is_used_by_the_tests():
    words = set(re.findall(r"\w+", "\n".join(_test_sources())))
    assert [name for name in VERIFICATION_API
            if name.rsplit(".", 1)[1] not in words] == []


def _signature(node, method: bool) -> tuple:
    """(positional parameter names, optional parameter names) of a ``def``;
    a method's first parameter (``self`` or ``cls``) is not one a call
    passes, unless it is a static method."""
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    if method and not any(ast.unparse(d) == "staticmethod"
                          for d in node.decorator_list):
        positional = positional[1:]
    defaults = len(node.args.defaults)
    optional = positional[len(positional) - defaults:] if defaults else []
    optional += [a.arg for a, default in zip(node.args.kwonlyargs,
                                             node.args.kw_defaults)
                 if default is not None]
    return positional, optional


def _field_signature(node: ast.ClassDef) -> tuple:
    """(positional, optional) parameter names of the ``__init__`` that
    ``@dataclass`` writes: the fields in order, those with a default (a
    value, or ``field(default=...)`` or ``field(default_factory=...)``)
    optional, and ``field(init=False)`` ones left out."""
    positional, optional = [], []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        keywords = {}
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            keywords = {k.arg: ast.unparse(k.value) for k in value.keywords}
            if keywords.get("init") == "False":
                continue
        positional.append(item.target.id)
        if value is not None and (not keywords or {"default", "default_factory"}
                                  & set(keywords)):
            optional.append(item.target.id)
    return positional, optional


def parameter_findings(modules: dict, others) -> dict:
    """``{"module.function(param)": finding}`` for each optional parameter
    of the module-level functions, the methods (``module.Class.method``,
    dunders skipped) and the dataclasses (``module.Class(field)``) in
    ``modules`` (module name -> source) that the calls in ``modules`` and
    ``others`` leave unused. The finding is "never passed" when no call
    passes the parameter, or "always overridden" when every call does, so
    its default is never taken.

    Calls are matched by name: ``f(...)`` and ``anything.f(...)`` are calls
    of every definition named ``f``, and ``Class.f(...)`` only of
    ``Class``'s. A call through ``from ... import f as g`` counts as a call
    of ``f``, and ``cls(...)`` inside a class as a call of that class. A
    call holding ``*args`` or ``**kwargs`` may pass or leave every
    parameter, so it hides both findings; so does handing a class to a
    call, by name or as ``cls`` inside it, since the callee may build it.
    A definition that no call names is the reach scan's concern and yields
    no finding here, so a colliding name can add calls that hide a finding
    but cannot invent one about a definition's own calls.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    defined = {}  # "module.[Class.]name" -> (name, class, positional, optional)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[f"{module}.{node.name}"] = (
                    node.name, None, *_signature(node, False))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    defined[f"{module}.{node.name}"] = (
                        node.name, None, *_field_signature(node))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("__"):
                        defined[f"{module}.{node.name}.{item.name}"] = (
                            item.name, node.name, *_signature(item, True))
    classes = {cls for _, cls, _, _ in defined.values()}
    class_names = {node.name for tree in trees.values()
                   for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    calls = {qualified: [] for qualified in defined}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        imported = {alias.asname: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.asname}
        # ``cls`` inside a class names that class
        in_class = {id(ref): cls.name for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef)
                    for ref in ast.walk(cls)
                    if isinstance(ref, ast.Name) and ref.id == "cls"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            owner = None
            if isinstance(node.func, ast.Name):
                name = in_class.get(id(node.func)) \
                    or imported.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in classes:
                    owner = node.func.value.id
            else:
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            call = None if splat else (len(node.args),
                                       {k.arg for k in node.keywords})
            # a class handed to a call, as in ``read(cls, doc)`` or
            # ``field(default_factory=Class)``, may be built there the way a
            # **kwargs call builds it
            built = [(in_class.get(id(a)) or a.id, None, None)
                     for a in [*node.args, *(k.value for k in node.keywords)]
                     if id(a) in in_class or (isinstance(a, ast.Name)
                                              and a.id in class_names)]
            for called, by, call in [(name, owner, call), *built]:
                for qualified, (own_name, cls, _, _) in defined.items():
                    if own_name == called and by in (None, cls):
                        calls[qualified].append(call)
    findings = {}
    for qualified, (_, _, positional, optional) in defined.items():
        for param in optional if calls[qualified] else ():
            index = positional.index(param) if param in positional else None
            # per call: True passes the parameter, False leaves its default,
            # None cannot tell (a *args or **kwargs call)
            outcomes = {None if call is None else param in call[1]
                        or (index is not None and index < call[0])
                        for call in calls[qualified]}
            if outcomes == {False}:
                findings[f"{qualified}({param})"] = "never passed"
            elif outcomes == {True}:
                findings[f"{qualified}({param})"] = "always overridden"
    return findings


def test_parameter_scan_finds_parameters_and_defaults_no_call_needs():
    modules = {
        "a": ("from .b import grow as make\n"
              "def f(x, y=1, *, z=2, w=3): pass\n"
              "def g(x, y=1): pass\n"
              "def uncalled(x, y=1): pass\n"
              "class Box:\n"
              "    def __init__(self, size=0): pass\n"
              "    @classmethod\n"
              "    def create(cls, n, seed=0): pass\n"
              "    @staticmethod\n"
              "    def pure(n, scale=1): pass\n"
              "f(1, 2, z=3)\n"
              "f(1, z=4)\n"
              "g(*[1, 2])\n"
              "Box(1).create(1, 2)\n"
              "Box.pure(1)\n"
              "make(1, 2)\n"),
        # a dataclass's fields are its constructor's parameters
        "c": ("from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class Point:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    z: int = field(default=1)\n"
              "    w: list = field(default_factory=list)\n"
              "    seen: int = field(default=0, init=False)\n"
              "    @classmethod\n"
              "    def origin(cls):\n"
              "        return cls(0, 0, w=[])\n"
              "@dataclass\n"
              "class Stored:\n"
              "    n: int = 0\n"
              "    @classmethod\n"
              "    def load(cls, doc):\n"
              "        return read(cls, doc)\n"
              "@dataclass\n"
              "class Section:\n"
              "    n: int = 0\n"
              "def read_section(cls, doc):\n"
              "    return read(cls, doc)\n"
              "Point(3, y=4)\n"
              "Stored()\n"
              "Section(n=1)\n"
              "read_section(Section, {})\n"),
        "b": ("def grow(n, rate=1): pass\n"
              "class Other:\n"
              "    def create(self, n): pass\n"
              "    def pure(self, n, scale=1): pass\n"
              "Other.pure(1)\n"),
    }
    assert parameter_findings(modules, []) == {
        "a.f(w)": "never passed",
        "a.f(z)": "always overridden",
        "a.Box.create(seed)": "always overridden",
        "a.Box.pure(scale)": "never passed",
        "b.Other.pure(scale)": "never passed",
        "b.grow(rate)": "always overridden",
        "c.Point(y)": "always overridden",
        "c.Point(z)": "never passed",
    }
    # calls elsewhere that pass the parameter or leave the default clear
    # findings, a colliding method name for both methods; an alias holds
    # only in the file that imports it
    assert parameter_findings(modules, [
        "from a import f\nf(0, z=1, w=1)\nthing.create(1)\n"
        "thing.pure(1, 2)\nmake(1)\nPoint(1, 2, 3)\n",
    ]) == {"a.f(z)": "always overridden", "b.grow(rate)": "always overridden",
           "c.Point(y)": "always overridden"}


def test_every_parameter_is_used():
    modules = {m.stem: m.read_text(encoding="utf-8") for m in MODULES}
    assert parameter_findings(modules, [
        p.read_text(encoding="utf-8") for p in BENCH]) == {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(modules, others) -> list:
    """``Class.field`` for each dataclass field declared in the sources
    ``modules`` that neither they nor ``others`` read as an attribute,
    sorted. Assigning an attribute does not count as reading it. A method of
    the class calling ``asdict(self)`` or ``astuple(self)`` reads every
    field, and so every field of each dataclass that a field's annotation
    names, as in ``items: dict[str, Item]``, since rendering the object
    renders those too."""
    trees = [ast.parse(source) for source in modules]
    read = {node.attr for tree in [*trees, *map(ast.parse, others)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)]

    def renders_self(cls: ast.ClassDef) -> bool:
        return any(isinstance(node, ast.Call)
                   and ast.unparse(node.func) in ("asdict", "astuple")
                   and [ast.unparse(a) for a in node.args] == ["self"]
                   for node in ast.walk(cls))

    def fields_of(name: str) -> list:
        return [item for cls in classes if cls.name == name
                for item in cls.body if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)]

    rendered = [cls.name for cls in classes if renders_self(cls)]
    for name in rendered:  # grows while it is walked
        rendered += sorted({
            ref.id for item in fields_of(name)
            for ref in ast.walk(item.annotation) if isinstance(ref, ast.Name)
            and ref.id in {cls.name for cls in classes}} - set(rendered))
    return sorted(f"{name}.{item.target.id}"
                  for name in sorted({cls.name for cls in classes}
                                     - set(rendered))
                  for item in fields_of(name) if item.target.id not in read)


def test_field_scan_finds_fields_only_written():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class Kept:\n"
              "    read: int\n"
              "    stored: int = 0\n"
              "    cached: list = field(default_factory=list)\n"
              "class Plain:\n"
              "    note: str = ''\n"
              "@dataclass\n"
              "class Row:\n"
              "    cell: int\n"
              "    def cells(self):\n"
              "        return astuple(self)\n"
              "@dataclass\n"
              "class Pair:\n"
              "    left: int\n"
              "    def halves(self, other):\n"
              "        return asdict(other)\n"
              "def use(k):\n"
              "    k.stored = k.read\n")
    other = "def peek(k):\n    return k.cached\n"
    assert unread_fields([source], []) == ["Kept.cached", "Kept.stored",
                                           "Pair.left"]
    assert unread_fields([source], [other]) == ["Kept.stored", "Pair.left"]


def test_field_scan_counts_nested_dataclasses_rendered_whole():
    # Basket renders its items, and their parts, through asdict; Crate's
    # loose items are read off the crate, but their weight never is
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Part:\n"
              "    size: int\n"
              "@dataclass\n"
              "class Item:\n"
              "    parts: list[Part]\n"
              "@dataclass\n"
              "class Basket:\n"
              "    items: dict[str, Item]\n"
              "    def doc(self):\n"
              "        return asdict(self)\n"
              "@dataclass\n"
              "class Loose:\n"
              "    weight: int\n"
              "@dataclass\n"
              "class Crate:\n"
              "    loose: list[Loose]\n"
              "def fill(crate):\n"
              "    crate.loose[0].weight = 1\n")
    assert unread_fields([source], []) == ["Loose.weight"]


def test_every_dataclass_field_is_read():
    modules = [m.read_text(encoding="utf-8") for m in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in BENCH]
    assert unread_fields(modules, bench) == []


def unread_exception_attributes(errors_source: str, others) -> list:
    """``Class.name`` for each ``self.<name> = ...`` in a class ``__init__``
    of ``errors_source`` that no source in ``others`` reads off a caught
    exception, sorted. A read is ``e.<name>`` or ``getattr(e, "<name>")``
    where ``except ... as e`` binds ``e``, or ``info.value.<name>`` where
    ``with pytest.raises(...) as info`` binds ``info``."""
    stored = sorted(
        f"{cls.name}.{target.attr}"
        for cls in ast.parse(errors_source).body if isinstance(cls, ast.ClassDef)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and ast.unparse(target.value) == "self")
    read = set()
    for tree in map(ast.parse, others):
        caught = set()  # expressions that hold a caught exception
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.name:
                caught.add(node.name)
            elif isinstance(node, ast.withitem) \
                    and isinstance(node.optional_vars, ast.Name) \
                    and ast.unparse(node.context_expr).startswith(
                        "pytest.raises("):
                caught.add(f"{node.optional_vars.id}.value")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and ast.unparse(node.value) in caught:
                read.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and ast.unparse(node.func) == "getattr" \
                    and len(node.args) > 1 \
                    and ast.unparse(node.args[0]) in caught \
                    and isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
    return [name for name in stored if name.split(".")[1] not in read]


def test_attribute_scan_finds_attributes_no_handler_reads():
    errors = ("class Base(Exception):\n"
              "    pass\n"
              "class Bad(Base):\n"
              "    def __init__(self, a, b, c, d):\n"
              "        self.a = a\n"
              "        self.b = b\n"
              "        self.c = c\n"
              "        self.d = d\n"
              "        super().__init__(f'{self.d}')\n")
    other = ("import pytest\n"
             "def f(node):\n"
             "    try:\n"
             "        return node.d\n"
             "    except Base as exc:\n"
             "        return exc.a, getattr(exc, 'b')\n"
             "def test():\n"
             "    with pytest.raises(Bad) as info:\n"
             "        f(None)\n"
             "    assert info.value.c\n")
    assert unread_exception_attributes(errors, []) == [
        "Bad.a", "Bad.b", "Bad.c", "Bad.d"]
    assert unread_exception_attributes(errors, [errors, other]) == ["Bad.d"]


def test_every_exception_attribute_is_read():
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    texts = [path.read_text(encoding="utf-8") for path in [*MODULES, *BENCH]]
    assert unread_exception_attributes(errors, texts) == []


# serialize.py casts to the stored little-endian "<f8" in array_doc
RECAST_MODULES = tuple(m.name for m in MODULES if m.name != "serialize.py")


def recasts(source: str) -> list:
    """``line: call`` for each call in ``source`` that re-casts an input of
    its innermost enclosing function: an ``np.<name>(input, ...)`` call
    passing ``dtype=``, a bare ``np.asarray(input)``, or
    ``<parameter>.astype(...)``. An input is a parameter, ``self.<field>``,
    or the name a ``for`` loop or comprehension binds over a tuple or list
    literal that holds one of those two."""
    found = []

    def given(node, inputs) -> bool:
        text = ast.unparse(node)
        return text in inputs or bool(
            re.fullmatch(r"self\.\w+", text) and "self" in inputs)

    def with_loop_targets(function, params) -> set:
        return params | {
            loop.target.id for loop in ast.walk(function)
            if isinstance(loop, (ast.For, ast.comprehension))
            and isinstance(loop.target, ast.Name)
            and isinstance(loop.iter, (ast.Tuple, ast.List))
            and any(given(element, params) for element in loop.iter.elts)}

    def visit(node, inputs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                a = child.args
                visit(child, with_loop_targets(child, {
                    p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}))
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute):
                func, args = child.func, child.args
                owner = ast.unparse(func.value)
                if (owner == "np" and args and given(args[0], inputs)
                        and (any(k.arg == "dtype" for k in child.keywords)
                             or (func.attr == "asarray" and len(args) == 1
                                 and not child.keywords))) \
                        or (func.attr == "astype" and owner in inputs):
                    found.append(f"{child.lineno}: {ast.unparse(child)}")
            visit(child, inputs)

    visit(ast.parse(source), set())
    return found


def test_recast_scan_finds_casts_of_inputs_only():
    source = ("import numpy as np\n"
              "class Layer:\n"
              "    def __post_init__(self):\n"
              "        self.w = np.asarray(self.w, dtype=np.float64)\n"
              "        for v in (self.w, 1):\n"
              "            np.asarray(v)\n"
              "def f(x, y, rows, *, z):\n"
              "    x = np.asarray(x, dtype=np.float64)\n"
              "    y = y.astype(np.int64)\n"
              "    rows = np.asarray(rows)\n"
              "    out = np.empty(x.shape[0], dtype=np.float64)\n"
              "    kept = np.asfortranarray(x)\n"
              "    local = np.asarray(x + z, dtype=np.float64)\n"
              "    flat = (x + 1).astype(np.int64)\n"
              "    cols = [np.asarray(s, dtype=np.float64) for s in (x, out)]\n"
              "    made = [np.asarray(t, dtype=np.float64) for t in (out, kept)]\n"
              "    each = [np.asarray(r, dtype=np.float64) for r in rows]\n"
              "    def inner(v):\n"
              "        return np.multiply(v, 0.5, dtype=np.float64), \\\n"
              "            np.asarray(x, dtype=np.float64)\n"
              "    return np.add(z, 1, dtype=float), inner\n")
    assert recasts(source) == [
        "4: np.asarray(self.w, dtype=np.float64)",
        "6: np.asarray(v)",
        "8: np.asarray(x, dtype=np.float64)",
        "9: y.astype(np.int64)",
        "10: np.asarray(rows)",
        "15: np.asarray(s, dtype=np.float64)",
        "19: np.multiply(v, 0.5, dtype=np.float64)",
        "21: np.add(z, 1, dtype=float)",
    ]


@pytest.mark.parametrize("name", RECAST_MODULES)
def test_learning_module_does_not_recast_its_input(name):
    assert recasts((PACKAGE / name).read_text(encoding="utf-8")) == []


def untyped_exceptions(modules: dict) -> list:
    """``module.Class`` for each exception class of ``modules`` (name ->
    source) that needs no type of its own, sorted: every one defined outside
    ``errors``, and every one in ``errors`` that no module catches by type
    (an ``except`` clause or an ``isinstance`` check) and whose ``__init__``
    stores no field on ``self``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    exceptions = {n for n, v in vars(builtins).items()
                  if isinstance(v, type) and issubclass(v, BaseException)}
    classes = [(name, node) for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found, grown = {}, True
    while grown:  # a class is an exception when one of its bases is
        grown = False
        for module, node in classes:
            if node.name not in found and any(
                    ast.unparse(b).split(".")[-1] in exceptions
                    for b in node.bases):
                found[node.name] = (module, node)
                exceptions.add(node.name)
                grown = True
    caught = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type:
                types = node.type
            elif isinstance(node, ast.Call) \
                    and ast.unparse(node.func) == "isinstance":
                types = node.args[1]
            else:
                continue
            for t in getattr(types, "elts", [types]):
                caught.add(ast.unparse(t).split(".")[-1])

    def has_fields(node):
        return any(isinstance(target, ast.Attribute)
                   and ast.unparse(target.value) == "self"
                   for init in node.body if isinstance(init, ast.FunctionDef)
                   and init.name == "__init__"
                   for n in ast.walk(init) if isinstance(n, ast.Assign)
                   for target in n.targets)

    return sorted(f"{module}.{name}" for name, (module, node) in found.items()
                  if module != "errors"
                  or not (name in caught or has_fields(node)))


def test_exception_scan_finds_types_nothing_tells_apart():
    errors = ("class DataError(Exception):\n"
              "    pass\n"
              "class Caught(DataError):\n"
              "    pass\n"
              "class Checked(DataError):\n"
              "    pass\n"
              "class Fielded(DataError):\n"
              "    def __init__(self, line):\n"
              "        self.line = line\n"
              "        super().__init__(f'line {line}')\n"
              "class Spare(DataError):\n"
              "    def __init__(self, line):\n"
              "        super().__init__(f'line {line}')\n"
              "class Deeper(Spare):\n"
              "    pass\n")
    cli = ("from . import errors\n"
           "class Local(errors.Spare):\n"
           "    pass\n"
           "class Usage(ValueError):\n"
           "    pass\n"
           "class Plain:\n"
           "    pass\n"
           "def main(run):\n"
           "    try:\n"
           "        run()\n"
           "    except (errors.Caught, KeyError) as exc:\n"
           "        return isinstance(exc, (Checked,)) \\\n"
           "            or isinstance(exc, DataError)\n")
    assert untyped_exceptions({"errors": errors, "cli": cli}) == [
        "cli.Local", "cli.Usage", "errors.Deeper", "errors.Spare"]
    assert untyped_exceptions({"errors": errors}) == [
        "errors.Caught", "errors.Checked", "errors.DataError",
        "errors.Deeper", "errors.Spare"]


def test_each_exception_type_is_caught_or_carries_fields():
    modules = {m.stem: m.read_text(encoding="utf-8") for m in MODULES}
    assert untyped_exceptions(modules) == []
