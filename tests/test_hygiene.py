"""Source hygiene: every name a module or test file imports is used in
that file, every import sits at module level, not inside a function body,
every private module-level name is used somewhere in the package, and so is
every public function and class, unless it is library surface.  Every field
of a record in the package (a `@dataclass`, a `NamedTuple` or a class with
`__slots__`) is read as an attribute in the package or its tests, and
`import dsnkit.cli` loads neither `dataclasses` nor `inspect`.  No `cmd_*`
step of the CLI assigns to `args` or writes stdout itself: `cli.main` holds
the input and writes the report.  The package holds no `assert` statement
and reads no `__debug__`, so every runtime self-check also runs under
`python -O`, on paths that no test reaches too.  The integer weight form
stays in the graph core: outside `graphs.py`, only `SolutionSubgraph.cost`
and `_IntHost.__init__` call `scaled_weights()`, and no call of
`WeightedDigraph` passes a `scale`.  No module but `graphs.py` reads a
graph's private slots.  Every `raise InvariantError` in the package has a
`pytest.raises(InvariantError, match=...)` in the tests that matches its
message, but for the sites listed as unreachable, each with its reason.

`__init__.py` is exempt from the unused-import scan because it imports names
only to re-export them through `__all__`."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dsnkit

SOURCES = sorted(Path(dsnkit.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
# Public functions that no code in the package calls: the API that callers
# and the acceptance criteria use directly.
LIBRARY_SURFACE = {
    ("dsn.py", "is_inclusion_minimal"),
    ("dsn.py", "minimize"),
    ("dsn.py", "reverse_instance"),
    ("dsn.py", "reverse_solution"),
    ("dsn.py", "violated_request"),
    ("formats.py", "emit_psi"),
    ("ladders.py", "ladder_two_path_decomposition"),
    ("reduction.py", "embedding_solution"),
    ("reduction.py", "extract_embedding"),
}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_body_imports(source):
    tree = ast.parse(source)
    return sorted(
        (node.lineno, func.name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Dict, List\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"graphs.py", "ladders.py", "structure.py"}


def test_test_files_found():
    assert {p.name for p in TESTS} >= {"conftest.py", "test_hygiene.py", "test_solvers.py"}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_function_body_import():
    source = "import os\n\ndef f():\n    def g():\n        import sys\n    from os import path\n"
    assert function_body_imports(source) == [(5, "f"), (5, "g"), (6, "f")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_body_imports(path.read_text()) == []


def private_definitions(tree):
    """(name, statement) for each underscore-prefixed, non-dunder name that
    a module-level statement defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def referenced_names(node):
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def public_definitions(tree):
    """(name, statement) for each module-level public function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node


def unreferenced_names(sources, definitions):
    """(module, name) for each name from `definitions` that no statement of
    any module references outside the statement defining it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [node for tree in trees.values() for node in tree.body]
    found = []
    for module, tree in trees.items():
        for name, definition in definitions(tree):
            if not any(name in referenced_names(node) for node in statements if node is not definition):
                found.append((module, name))
    return found


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_used = 1\n_alone = 2\n\ndef _recursive():\n    return _recursive()\n",
        "b.py": "from .a import _used\n\nclass _Kept:\n    pass\n\nx = _Kept()\n__all__ = []\n",
    }
    assert unreferenced_names(sources, private_definitions) == [("a.py", "_alone"), ("a.py", "_recursive")]


def test_private_names_are_referenced():
    assert unreferenced_names({p.name: p.read_text() for p in SOURCES}, private_definitions) == []


def test_scan_finds_a_left_behind_public_function():
    sources = {
        "graphs.py": "def search(g, s):\n    return {}\n\ndef all_simple_paths(g, s, t):\n    return []\n",
        "dsn.py": "from .graphs import search\n",
    }
    assert unreferenced_names(sources, public_definitions) == [("graphs.py", "all_simple_paths")]


def test_public_names_are_referenced_or_library_surface():
    found = unreferenced_names({p.name: p.read_text() for p in SOURCES}, public_definitions)
    assert set(found) == LIBRARY_SURFACE


def is_dataclass(cls):
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def is_named_tuple(cls):
    return any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" or isinstance(b, ast.Attribute) and b.attr == "NamedTuple"
        for b in cls.bases
    )


def record_fields(tree):
    """(class, field) for each annotated field of a `@dataclass` or
    `NamedTuple` class, and for each name in a class's `__slots__`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        annotated = is_dataclass(cls) or is_named_tuple(cls)
        for stmt in cls.body:
            if annotated and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls.name, stmt.target.id
            elif isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        yield cls.name, node.value


def unread_fields(sources, readers):
    """(class, field) for each record field defined in `sources` that no
    code in `sources` or `readers` reads as an attribute (`x.field`)."""
    trees = [ast.parse(source) for source in sources]
    read = {
        node.attr
        for tree in trees + [ast.parse(source) for source in readers]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(field for tree in trees for field in record_fields(tree) if field[1] not in read)


def test_scan_finds_an_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n\nclass Q:\n    z: int\n\n"
        "class R(NamedTuple):\n    u: int\n    v: int = 0\n\n"
        "class S(typing.NamedTuple):\n    w: int\n\n"
        "class T(_Record):\n    __slots__ = ('s', 't')\n    k: int\n"
    )
    readers = ["print(P(1, 2).x, R(1).u, T(1, 2).s)\n"]
    assert unread_fields([source], readers) == [("P", "y"), ("R", "v"), ("S", "w"), ("T", "t")]


def test_record_fields_are_read():
    assert unread_fields([p.read_text() for p in SOURCES], [p.read_text() for p in TESTS]) == []


def test_record_fields_scan_covers_the_package_records():
    found = {cls for p in SOURCES for cls, _ in record_fields(ast.parse(p.read_text()))}
    assert found >= {"DirectedPath", "DsnInstance", "LadderSpec", "LadderVerdict", "SolveResult", "StructureReport"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without `site`, so that only dsnkit's own imports count.
    src = str(Path(dsnkit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dsnkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def runner_bypasses(source):
    """(line, function) for each node of a `cmd_*` function that assigns to
    an attribute of `args`, calls `print` without `file=`, or names `stdout`."""
    found = []
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            attribute = isinstance(node, ast.Attribute)
            stores_on_args = (
                attribute and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "args"
            )
            prints_to_stdout = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
                and not any(k.arg == "file" for k in node.keywords)
            )
            if stores_on_args or prints_to_stdout or attribute and node.attr == "stdout":
                found.append((node.lineno, func.name))
    return sorted(found)


def test_scan_finds_a_command_that_bypasses_the_runner():
    source = (
        "def cmd_x(args, inst, data):\n"
        "    args.instance = inst\n"
        "    print('report')\n"
        "    sys.stdout.write('report')\n"
        "    print('note', file=sys.stderr)\n"
    )
    assert runner_bypasses(source) == [(2, "cmd_x"), (3, "cmd_x"), (4, "cmd_x")]


def test_cli_commands_leave_args_and_stdout_to_the_runner():
    assert runner_bypasses((Path(dsnkit.__file__).parent / "cli.py").read_text()) == []


def optimized_away(source):
    """Line of each `assert` statement and each `__debug__` in `source`:
    the code that `python -O` strips or skips."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    )


def test_scan_finds_code_that_python_o_strips():
    source = "def f(x):\n    assert x, 'x'\n    if __debug__:\n        check(x)\n    return x  # assert x\n"
    assert optimized_away(source) == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_self_checks_survive_python_o(path):
    assert optimized_away(path.read_text()) == []


# The hot spots outside `graphs.py` that read the stored integer weights.
SCALED_WEIGHTS_READERS = {"SolutionSubgraph.cost", "_IntHost.__init__"}


def integer_form_uses(source):
    """(line, scope) for each `scaled_weights()` call outside the scopes in
    SCALED_WEIGHTS_READERS, and for each `WeightedDigraph(...)` call that
    passes a scale: a third argument or `scale=`.  The scope is the dotted
    name of the enclosing classes and functions, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                reads_scaled = name == "scaled_weights" and scope not in SCALED_WEIGHTS_READERS
                passes_scale = name == "WeightedDigraph" and (
                    len(child.args) > 2 or any(k.arg == "scale" for k in child.keywords)
                )
                if reads_scaled or passes_scale:
                    found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_scan_finds_a_use_of_the_integer_form():
    source = (
        "class SolutionSubgraph:\n"
        "    def cost(self):\n"
        "        return self.host.scaled_weights()\n"
        "    def scale(self):\n"
        "        return self.host.scaled_weights()[1]\n"
        "def emit(g):\n"
        "    h = graphs.WeightedDigraph(g.vertices, {}, 2)\n"
        "    return WeightedDigraph(g.vertices, g.arcs(), scale=1), WeightedDigraph(g.vertices, g.arcs())\n"
        "ints = g.scaled_weights()\n"
    )
    assert integer_form_uses(source) == [(5, "SolutionSubgraph.scale"), (7, "emit"), (8, "emit"), (9, "")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graphs.py"], ids=lambda p: p.name)
def test_integer_weights_stay_in_the_graph_core(path):
    assert integer_form_uses(path.read_text()) == []


# The private slots of the graph classes in `graphs.py`.
GRAPH_SLOTS = {"_out", "_in", "_arcs", "_adj", "_vset", "_scaled", "_facts"}


def graph_slot_reads(source):
    """(line, attribute) for each attribute access `x._out`, `x._arcs`, ...
    of a name in GRAPH_SLOTS."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GRAPH_SLOTS
    )


def test_scan_finds_a_graph_slot_read():
    source = (
        "def degree(g, v):\n"
        "    return len(g._out[v]) + len(g.in_neighbors(v))\n"
        "adj = graph.sym()._adj\n"
        "g._arcs = {}\n"
        "_out = g.out_neighbors\n"
    )
    assert graph_slot_reads(source) == [(2, "_out"), (3, "_adj"), (4, "_arcs")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graphs.py"], ids=lambda p: p.name)
def test_graph_slots_stay_in_the_graph_core(path):
    assert graph_slot_reads(path.read_text()) == []


# `raise InvariantError` sites that no fault outside their own function can
# reach, each with the reason (`tests/test_selfchecks.py` gives the argument).
UNREACHABLE_INVARIANTS = {
    "anchor map hits a terminal more than twice":
        "each terminal labels at most one vertex `<-` and one `->`, and anchors only vertices it labels",
    "marked quadruple ordering violated at {}: {}":
        "j1 <= j2 <= j <= j3 <= j4 follows from how the four indices are chosen, for any back-jump sets",
}
WORD = re.compile(r"[A-Za-z_]{2,}")


def message_words(text):
    """The words of a message or a `match=` pattern, with regex escapes dropped."""
    return WORD.findall(re.sub(r"\\.", " ", text))


def literal_text(node):
    """A string literal's text, or an f-string's with `{}` for each value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def invariant_sites(source):
    """The message of each `raise InvariantError(...)` in `source`."""
    return [
        literal_text(node.exc.args[0])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "InvariantError"
    ]


def bound_texts(func, name):
    """Texts that a test function binds to `name`: its column of a
    `parametrize` table, or the matching tuple member of an assignment."""
    texts = []
    for deco in func.decorator_list:
        if isinstance(deco, ast.Call) and getattr(deco.func, "attr", None) == "parametrize":
            names = [n.strip() for n in deco.args[0].value.split(",")]
            if name in names:
                i = names.index(name)
                rows = deco.args[1].elts
                texts += [literal_text(row.elts[i] if len(names) > 1 else row) for row in rows]
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            names = [getattr(t, "id", None) for t in node.targets[0].elts]
            if name in names:
                i = names.index(name)
                texts += [
                    literal_text(t.elts[i]) for t in ast.walk(node.value)
                    if isinstance(t, ast.Tuple) and len(t.elts) == len(names)
                ]
    return [t for t in texts if t is not None]


def invariant_patterns(source):
    """The `match=` text of each `pytest.raises(InvariantError, match=...)`
    in a test function of `source`, read through a name if need be."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "raises"
                    and node.args and getattr(node.args[0], "id", None) == "InvariantError"):
                continue
            for k in node.keywords:
                if k.arg == "match":
                    text = literal_text(k.value)
                    found += [text] if text is not None else bound_texts(func, getattr(k.value, "id", None))
    return found


def contiguous_run(short, long):
    return len(short) >= 2 and any(long[i : i + len(short)] == short for i in range(len(long) - len(short) + 1))


def unfired_invariants(sources, tests):
    """Each site message in `sources` that no test pattern matches: neither
    one's words (two or more) are a contiguous run of the other's.  A
    pattern may quote part of a message, or a whole one with its values."""
    patterns = [message_words(p) for source in tests for p in invariant_patterns(source)]

    def fired(site):
        words = message_words(site)
        return any(contiguous_run(p, words) or contiguous_run(words, p) for p in patterns)

    return sorted(site for source in sources for site in invariant_sites(source) if not fired(site))


def test_scan_finds_an_unfired_invariant():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise InvariantError(f'solution cost {x} is below the threshold')\n"
        "    raise InvariantError('embedding is not total')\n"
        "def g(x):\n"
        "    raise InvariantError(f'pattern edge {x} not realized')\n"
        "    raise InvariantError(f'labelling condition violated: {x}')\n"
    )
    tests = [
        "@pytest.mark.parametrize('case, message', [(1, r'edge \\(0, 1\\) not realized'), (2, 'not injective')])\n"
        "def test_a(case, message):\n"
        "    with pytest.raises(InvariantError, match=message):\n"
        "        g(case)\n"
        "def test_b():\n"
        "    with pytest.raises(InvariantError, match='cost 26 is below'):\n"
        "        f(26)\n"
        "    with pytest.raises(InvariantError, match='labelling condition violated: a violation'):\n"
        "        g('a violation')\n"
        "    with pytest.raises(ValueError, match='embedding is not total'):\n"
        "        f(0)\n"
    ]
    assert unfired_invariants([source], tests) == ["embedding is not total"]


def test_every_invariant_check_fires_in_a_test():
    """A self-check that no test trips could be wrong, or dead, unseen."""
    found = unfired_invariants([p.read_text() for p in MODULES], [p.read_text() for p in TESTS])
    assert found == sorted(UNREACHABLE_INVARIANTS)
