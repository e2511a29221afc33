"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself. Threads and worker pools are made in
one place, ``gateway.map_contained``. JSON is decoded at two sites: bytes
from outside the program (local files, chat cache entries, completion and
embeddings bodies) in ``core.decode_object``, and model responses in
``gateway.extract_json_block``. The chat cache is read in one place,
``ChatGateway.complete``, so every chat call takes that one path. Only
``core`` reads the aliased keys of the annotated-document layout. Run
manifests are written in one place, ``cli.main``, for every command. An
output's directory is made in one place, ``core.atomic_writer``, which every
file the package writes goes through: no other code calls ``mkdir`` or
``makedirs``."""

import ast
import sys
from pathlib import Path

import synthex

PACKAGE_DIR = Path(synthex.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _imported_modules(tree):
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "synthex":
                foreign.append(f"{path.name}:{lineno}: {name}")
    assert foreign == []


POOL_CONSTRUCTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}


def _called_name(call: ast.Call):
    """The name a call uses, bare or as an attribute."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _calls(tree: ast.AST):
    """``(scope, call)`` for each call, where ``scope`` is the dotted name of
    the enclosing classes and functions, such as ``ChatGateway.complete``, or
    None at module level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from visit(child, inner)

    yield from visit(tree, None)


def _pool_constructions(tree: ast.AST):
    """``(scope, constructor)`` for each call that makes a pool or a thread,
    whether the name is used bare, as an attribute or imported under another
    name."""
    names = {name: name for name in POOL_CONSTRUCTORS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update({a.asname: a.name for a in node.names if a.name in POOL_CONSTRUCTORS and a.asname})
    for scope, call in _calls(tree):
        called = _called_name(call)
        if called in names:
            yield scope, names[called]


def test_pools_and_threads_are_made_only_in_map_contained():
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(path.name, function, name) for function, name in _pool_constructions(tree)]
    assert sites == [("gateway.py", "map_contained", "ThreadPoolExecutor")]


DECODERS = {"loads", "raw_decode"}


def test_json_is_decoded_only_at_the_listed_sites():
    sites = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites |= {(path.name, scope) for scope, call in _calls(tree) if _called_name(call) in DECODERS}
    assert sorted(sites) == [("core.py", "decode_object"), ("gateway.py", "extract_json_block")]


def test_chat_cache_is_read_only_in_complete():
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(path.name, scope) for scope, call in _calls(tree) if _called_name(call) == "_read_cache"]
    assert sites == [("gateway.py", "ChatGateway.complete")]


def test_manifests_are_written_only_in_main():
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(path.name, scope) for scope, call in _calls(tree) if _called_name(call) == "write_manifest"]
    assert sites == [("cli.py", "main")]


def test_directories_are_made_only_in_atomic_writer():
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(path.name, scope) for scope, call in _calls(tree) if _called_name(call) in ("mkdir", "makedirs")]
    assert sites == [("core.py", "atomic_writer")]


ALIASED_KEYS = {"relations", "triples", "annotated_text", "text_with_spans"}


def _aliased_key_reads(tree: ast.AST):
    """``(line, key)`` for each read of an aliased layout key by subscript,
    ``.get`` or ``in``; writing one as a dict-literal key is no read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            keys = [node.slice]
        elif isinstance(node, ast.Call) and _called_name(node) == "get":
            keys = node.args[:1]
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            keys = [node.left]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and key.value in ALIASED_KEYS:
                yield node.lineno, key.value


def test_only_core_reads_the_aliased_layout_keys():
    sites = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [f"{path.name}:{line}: {key}" for line, key in _aliased_key_reads(tree) if path.name != "core.py"]
    assert sites == []


def test_aliased_key_reads_are_found():
    source = 'a = d["relations"]\nb = d.get("triples", [])\nc = "annotated_text" in d\nd = {"text_with_spans": 1}\n'
    assert list(_aliased_key_reads(ast.parse(source))) == [(1, "relations"), (2, "triples"), (3, "annotated_text")]
