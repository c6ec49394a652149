"""Every file the package writes goes through ``core_model.write_atomic``,
or, for the checkpoint journal's records, ``core_model.append_durable``.

A failed write, at the fsync or at the rename, must leave the destination
with its old bytes and no temporary file beside it; a good one fsyncs the
directory after the rename; an append cuts a torn tail first; and no
module may open a file for writing anywhere else.  Likewise, no module may decode binary bytes outside
``core_model.BinaryReader``, none may open a text file for reading outside
the few readers that own a text format, none but ``cli._shards`` may read
an embedding shard, none may import ``threading``,
``multiprocessing`` or ``concurrent``, none may hold an ``assert``
statement, every public name must be used elsewhere in the package, and
every public dataclass field must be read outside its own class.
"""

import ast
import os
import stat
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pamcurate import cli, geo_align, hkmeans, hsample
from pamcurate.errors import ValidationError
from pamcurate.core_model import (
    CurationManifest,
    EmbeddingShard,
    append_durable,
    save_deployment,
    write_atomic,
    write_manifest,
    write_shard,
)
from conftest import build_pipeline_fixture, make_hierarchy
from synth import iter_windows
from test_cli import run, run_pipeline

SRC = Path(cli.__file__).parent
OLD = b"old bytes\n"


def _aligned_set(deployment):
    window_ids = [window.window_id for window in list(iter_windows(deployment))[:3]]
    return geo_align.AlignedWindowSet.of(window_ids, [300000001] * 3)


def _state():
    state = hsample.SelectionState.empty([2, 1])
    state.fold([0], [5], [0.25])
    return state


# writer -> (destination file name, call that writes it: write(path, deployment))
WRITERS = {
    "write_shard": (
        "s.bin",
        lambda p, d: write_shard(EmbeddingShard(2, np.arange(3, dtype=np.uint64), np.ones((3, 2))), p),
    ),
    "write_manifest": (
        "m.txt",
        lambda p, d: write_manifest(CurationManifest.of([7], "H1", "R1", 0, "ais", mmsi=1), p),
    ),
    "save_deployment": ("d.json", lambda p, d: save_deployment(d, p)),
    "write_sidecar": ("a.csv", lambda p, d: geo_align.write_sidecar(_aligned_set(d), p)),
    "save_model": ("model.bin", lambda p, d: hkmeans.save_model(make_hierarchy(np.random.default_rng(1)), p)),
    "save_checkpoint": ("sel.ckpt", lambda p, d: hsample.save_checkpoint(_state(), p, 0, [bytes(32)])),
    "_write_json": ("x.json", lambda p, d: cli._write_json(p, {"a": 1})),
    "write_atomic": ("raw.bin", lambda p, d: write_atomic(p, b"new")),
}


def _fail(monkeypatch, how: str, dest: Path):
    """Make ``os.fsync`` raise, or ``os.replace`` raise when it targets ``dest``."""
    real = getattr(os, how)

    def failing(*args):
        if how == "fsync" or Path(args[1]) == dest:
            raise OSError(f"injected {how} failure")
        return real(*args)

    monkeypatch.setattr(os, how, failing)


@pytest.mark.parametrize("how", ["fsync", "replace"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_old_destination(writer, how, tmp_path, monkeypatch, deployment):
    name, write = WRITERS[writer]
    dest = tmp_path / name
    write(dest, deployment)
    assert dest.read_bytes() != OLD
    dest.write_bytes(OLD)
    with monkeypatch.context() as patch:
        _fail(patch, how, dest)
        with pytest.raises(OSError, match="injected"):
            write(dest, deployment)
    assert dest.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _stage_argv(name: str, fixture, out: Path) -> list:
    """The stage that writes ``name`` into ``out``."""
    if name == "summary.txt":
        manifests = ["--ais-manifest", out / "manifest_ais.txt", "--hkmeans-manifest", out / "manifest_hkmeans.txt"]
        return ["assemble", *manifests, "--out", out]
    aligned = ["--aligned", out / "aligned.csv"] if name == "occurrence_curve.csv" else []
    return ["stats", "--config", fixture["config"], *aligned, "--out", out]


@pytest.mark.parametrize("name", ["summary.txt", "occurrence_curve.csv", "hydrophones.csv"])
def test_failed_stage_write_keeps_old_destination(name, tmp_path, monkeypatch):
    fixture = build_pipeline_fixture(tmp_path / "fx")
    out = tmp_path / "out"
    run_pipeline(fixture, out)
    argv = _stage_argv(name, fixture, out)
    dest = out / name
    dest.write_bytes(OLD)
    listing = sorted(p.name for p in out.iterdir())
    with monkeypatch.context() as patch:
        _fail(patch, "replace", dest)
        assert run(*argv) == 2
    assert dest.read_bytes() == OLD
    assert sorted(p.name for p in out.iterdir()) == listing
    assert run(*argv) == 0
    assert dest.read_bytes() != OLD


def test_directory_fsynced_after_rename(tmp_path, monkeypatch):
    calls = []

    def record(name):
        real = getattr(os, name)

        def recorded(*args):
            if name == "fsync":
                st = os.fstat(args[0])
                calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
            else:
                calls.append(("replace", Path(args[1]).name))
            return real(*args)

        monkeypatch.setattr(os, name, recorded)

    record("fsync")
    record("replace")
    write_atomic(tmp_path / "out.bin", b"new")
    dest = (tmp_path / "out.bin").stat().st_ino
    assert calls == [("fsync", "file", dest), ("replace", "out.bin"), ("fsync", "dir", tmp_path.stat().st_ino)]


def test_written_files_get_the_usual_permissions(tmp_path):
    # the umask the process started with, and one set after the package was imported
    for umask in (None, 0o077):
        out = tmp_path / f"umask-{umask}"
        out.mkdir()
        old = os.umask(umask) if umask is not None else None
        try:
            write_atomic(out / "atomic", "x")
            append_durable(out / "appended", b"x", 0)
            (out / "plain").write_text("x")
        finally:
            if old is not None:
                os.umask(old)
        assert (out / "atomic").stat().st_mode == (out / "plain").stat().st_mode, umask
        assert (out / "appended").stat().st_mode == (out / "plain").stat().st_mode, umask


def test_append_cuts_the_torn_tail_and_fsyncs_what_it_creates(tmp_path, monkeypatch):
    synced = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(stat.S_ISDIR(os.fstat(fd).st_mode)) or real(fd))
    path = tmp_path / "j.bin"
    assert append_durable(path, b"head", 0) == 4
    assert synced == [False, True]  # the file, then the directory that now holds it
    assert append_durable(path, b"one", 4) == 7
    assert synced[2:] == [False]
    path.write_bytes(b"headonetorn")
    assert append_durable(path, b"two", 7) == 10
    assert path.read_bytes() == b"headonetwo"
    with pytest.raises(ValidationError, match="fewer than the 12 already appended"):
        append_durable(path, b"three", 12)
    assert path.read_bytes() == b"headonetwo"


# ---------------------------------------------------------------------------
# One write path: no other code in the package opens a file for writing
# ---------------------------------------------------------------------------


def _mode_of(call: ast.Call):
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[1] if len(call.args) > 1 else None


WRITE_HELPERS = {"write_atomic", "append_durable"}


def _read_only(mode) -> bool:
    """A mode that cannot write: ``r``, ``b`` and ``t`` letters, or
    ``os.O_RDONLY`` alone."""
    if isinstance(mode, ast.Constant):
        return set(str(mode.value)) <= set("rbt")
    return isinstance(mode, ast.Attribute) and mode.attr == "O_RDONLY"


def write_sites(source: str) -> list[int]:
    """Line numbers of writes outside ``write_atomic`` and ``append_durable``:
    ``open``/``fdopen`` in a write, append or update mode (``os.open`` with
    any flags but ``os.O_RDONLY`` alone), ``.write_text(`` and
    ``.write_bytes(``."""
    sites = []

    def visit(node, inside_helper):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_helper = inside_helper or node.name in WRITE_HELPERS
        if isinstance(node, ast.Call) and not inside_helper:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("write_text", "write_bytes"):
                sites.append(node.lineno)
            elif name in ("open", "fdopen"):
                mode = _mode_of(node)
                if mode is not None and not _read_only(mode):
                    sites.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_helper)

    visit(ast.parse(source), False)
    return sites


def test_guard_finds_every_kind_of_write():
    source = "\n".join(
        [
            "open(p, 'w')",
            "open(p, mode='ab')",
            "open(p, 'r+')",
            "open(p, m)",
            "os.fdopen(fd, 'wb')",
            "Path(p).write_text('x')",
            "p.write_bytes(b'x')",
            "open(p)",
            "open(p, 'rb')",
            "def write_atomic(p):\n    open(p, 'wb')",
            "def append_durable(p):\n    os.open(p, os.O_WRONLY | os.O_APPEND)",
            "def append_journal(p):\n    os.open(p, os.O_WRONLY | os.O_APPEND)",
            "def write_atomic_copy(p):\n    open(p, 'ab')",
            "os.open(p, os.O_RDONLY)",
            "os.open(p, os.O_RDONLY | os.O_CREAT)",
            "def _fsync_dir(p):\n    os.open(p, os.O_WRONLY)",
        ]
    )
    assert write_sites(source) == [1, 2, 3, 4, 5, 6, 7, 15, 17, 19, 21]


def test_package_writes_only_through_write_atomic():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := write_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# One read path: no other code in the package decodes binary bytes
# ---------------------------------------------------------------------------

DECODERS = {"unpack_from", "iter_unpack", "frombuffer", "fromfile", "read_bytes"}


def read_sites(source: str) -> list[int]:
    """Line numbers of binary decoding outside ``BinaryReader``: ``struct.unpack``
    or a bare ``unpack``, and any ``unpack_from``, ``iter_unpack``,
    ``frombuffer``, ``fromfile`` or ``.read_bytes(`` call."""
    tree = ast.parse(source)
    readers = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "BinaryReader"]
    exempt = {id(node) for reader in readers for node in ast.walk(reader)}
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if isinstance(func, ast.Name):
            decodes = func.id in DECODERS or func.id == "unpack"
        elif isinstance(func, ast.Attribute):
            on_struct = isinstance(func.value, ast.Name) and func.value.id == "struct"
            decodes = func.attr in DECODERS or (func.attr == "unpack" and on_struct)
        else:
            decodes = False
        if decodes:
            sites.append(node.lineno)
    return sorted(sites)


def test_guard_finds_every_kind_of_decode():
    source = "\n".join(
        [
            "struct.unpack('<I', b)",
            "struct.unpack_from('<I', b, 8)",
            "HEADER.unpack_from(b)",
            "unpack('<I', b)",
            "struct.iter_unpack('<I', b)",
            "np.frombuffer(b, dtype='<u4')",
            "np.fromfile(f, dtype='<u4')",
            "Path(p).read_bytes()",
            "reader.unpack('I', 'dim')",
            "struct.pack('<I', 1)",
            "Path(p).read_text()",
            "class BinaryReader:\n    def f(self):\n        return np.frombuffer(Path(p).read_bytes())",
        ]
    )
    assert read_sites(source) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_package_decodes_only_through_binary_reader():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := read_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# One text decoder per format: the sidecar and manifests are read only by
# ``core_model.decode_text``, so no second per-line reader comes back
# ---------------------------------------------------------------------------

# decode_text and its fault locator; the line count that locates a manifest
# row; the AIS CSV reader; and the deployment config, one JSON document.
TEXT_READERS = {"decode_text", "_bad_line", "read_manifest", "read_ais_csv", "load_deployment"}


def text_read_sites(source: str) -> list[int]:
    """Line numbers of text-mode reads outside the functions of
    :data:`TEXT_READERS`: ``open`` or ``fdopen`` with no mode or a mode of
    only ``r`` and ``t``, and ``.read_text(``."""
    sites = []

    def visit(node, inside_reader):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_reader = inside_reader or node.name in TEXT_READERS
        if isinstance(node, ast.Call) and not inside_reader:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            mode = _mode_of(node)
            text_mode = mode is None or (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rt"))
            if name == "read_text" or (name in ("open", "fdopen") and text_mode):
                sites.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_reader)

    visit(ast.parse(source), False)
    return sites


def test_guard_finds_every_kind_of_text_read():
    source = "\n".join(
        [
            "open(p)",
            "open(p, 'r', encoding='utf-8')",
            "open(p, mode='rt')",
            "io.open(p)",
            "os.fdopen(fd, 'r')",
            "Path(p).read_text()",
            "open(p, 'rb')",
            "open(p, 'w')",
            "def read_ais_csv(p):\n    open(p)",
            "def read_manifest(p):\n    def lines():\n        return Path(p).read_text()",
        ]
    )
    assert text_read_sites(source) == [1, 2, 3, 4, 5, 6]


def test_package_reads_text_only_through_its_format_readers():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := text_read_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# One shard reader: ``cli._shards`` reads each shard file once, parses it
# and checks its dim, for ``fit`` and ``sample`` alike
# ---------------------------------------------------------------------------


def shard_read_sites(source: str, module: str) -> list[int]:
    """Line numbers where ``read_shard`` is called or passed on, except
    inside ``_shards`` when ``module`` is ``"cli"``."""
    sites = []

    def visit(node, inside_reader):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_reader = inside_reader or (module == "cli" and node.name == "_shards")
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "read_shard" and isinstance(node.ctx, ast.Load) and not inside_reader:
            sites.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_reader)

    visit(ast.parse(source), False)
    return sites


def test_guard_finds_every_shard_read():
    source = "\n".join(
        [
            "read_shard(p)",
            "core_model.read_shard(p, data)",
            "shards = map(read_shard, paths)",
            "def _select_partition(paths):\n    return [read_shard(p) for p in paths]",
            "def _shards(paths):\n    def one(p):\n        return read_shard(p)",
            "from .core_model import read_shard",
            "def read_shard(path):\n    pass",
        ]
    )
    assert shard_read_sites(source, "cli") == [1, 2, 3, 5]
    assert shard_read_sites(source, "hsample") == [1, 2, 3, 5, 8]


def test_package_reads_shards_only_in_cli_shards():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := shard_read_sites(path.read_text(encoding="utf-8"), path.stem))
    }
    assert found == {}
    assert len(shard_read_sites((SRC / "cli.py").read_text(encoding="utf-8"), "")) == 1


# ---------------------------------------------------------------------------
# One row path: the package holds AIS rows, windows and manifest rows in
# columns, never in per-row objects (those live in tests/synth.py as the
# reference)
# ---------------------------------------------------------------------------

PER_ROW_NAMES = {"DictReader", "AisPulse", "AudioWindow", "ManifestEntry", "lookup"}


def per_row_sites(source: str, names: set[str] = PER_ROW_NAMES) -> list[int]:
    """Line numbers where one of ``names`` (by default ``csv.DictReader``,
    ``AisPulse``, ``AudioWindow``, ``ManifestEntry`` and ``lookup``) is
    named, defined or imported."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            sites.append(node.lineno)
    return sorted(sites)


def test_guard_finds_every_per_row_ais_name():
    source = "\n".join(
        [
            "reader = csv.DictReader(fh)",
            "from csv import DictReader",
            "from csv import DictReader as Rows",
            "class AisPulse:\n    pass",
            "pulse = core_model.AisPulse(1, 2)",
            "rows = AisPulse",
            "reader = csv.reader(fh)",
            "pulses = np.empty(3, AIS_COLUMNS)",
            "from .core_model import AudioWindow",
            "entries = [ManifestEntry(*window) for window in index.lookup(ids)]",
        ]
    )
    assert per_row_sites(source) == [1, 2, 3, 4, 6, 7, 10, 11, 11]
    assert per_row_sites(source, {"DictReader", "AisPulse"}) == [1, 2, 3, 4, 6, 7]


def test_package_has_one_ais_path():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := per_row_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# One stream per stage: no module imports a thread or process pool.  A
# parallel path comes back only with a measured gain over one stream.
# ---------------------------------------------------------------------------

CONCURRENCY_MODULES = {"threading", "multiprocessing", "concurrent"}


def concurrency_imports(source: str) -> list[int]:
    """Line numbers of every import of ``threading``, ``multiprocessing`` or
    ``concurrent``, or of one of their submodules, by statement or by
    ``__import__`` / ``importlib.import_module`` with a literal name."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in {"__import__", "import_module"}
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            modules = [node.args[0].value]
        else:
            continue
        if any(module.split(".")[0] in CONCURRENCY_MODULES for module in modules):
            sites.append(node.lineno)
    return sorted(sites)


def test_guard_finds_every_concurrency_import():
    source = "\n".join(
        [
            "import threading",
            "import os, multiprocessing as mp",
            "from concurrent.futures import ThreadPoolExecutor",
            "from multiprocessing.pool import Pool",
            "import concurrent.futures",
            "pool = importlib.import_module('multiprocessing')",
            "threads = __import__('threading')",
            "import threadingx",
            "from .threading import Lock",
            "from pamcurate import threading_notes",
            "threading = None",
        ]
    )
    assert concurrency_imports(source) == [1, 2, 3, 4, 5, 6, 7]


def test_package_runs_one_stream_per_stage():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := concurrency_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# No ``assert`` in the package: ``python -O`` strips them, so every check
# the program relies on raises its own error.
# ---------------------------------------------------------------------------


def assert_sites(source: str) -> list[int]:
    """Line numbers of every ``assert`` statement, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_guard_finds_every_assert():
    source = "\n".join(
        [
            "assert x",
            "def f(x):",
            "    assert x > 0, 'positive'",
            "class C:",
            "    def g(self):",
            "        if self:",
            "            assert (self, 'a tuple is always true')",
            "asserted = 1",
            "self.assertTrue(x)",
            "raise AssertionError('raised, not asserted')",
        ]
    )
    assert assert_sites(source) == [1, 3, 7]


def test_package_has_no_assert():
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := assert_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# ---------------------------------------------------------------------------
# Only what the stages run: every public name in the package is used by
# another part of it, except the library API that README documents for
# callers outside the pipeline
# ---------------------------------------------------------------------------

LIBRARY_API = {
    "core_model.write_shard",
    "core_model.save_deployment",
    "core_model.DeploymentConfig.total_windows",
    "core_model.window_id_of",
}


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every public module-level function or class, of
    every module-level constant, private ones included but not dunders, and
    ``module.Class.method`` of every public method, whose name no
    ``ast.Name`` or ``ast.Attribute`` that is not an assignment target in any
    of ``sources`` (module name -> source) refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        defined.append((f"{module}.{node.name}.{method.name}", method.name))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                    if not name.startswith("__"):
                        defined.append((f"{module}.{name}", name))
    return sorted(qualified for qualified, name in defined if name not in used)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store))


def unread_dataclass_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.field`` of every public field of a ``@dataclass`` in
    ``sources`` (module name -> source) that no ``ast.Attribute`` load
    outside the class's own body reads.  A ``getattr`` by a computed name,
    as a generic ``__eq__`` makes, is not a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                inside = _attribute_reads(node)
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        if not name.startswith("_") and reads[name] <= inside[name]:
                            unread.append(f"{module}.{node.name}.{name}")
    return sorted(unread)


def test_guard_finds_every_unused_public_name():
    sources = {
        "a": "\n".join(
            [
                "def used(): pass",
                "def unused(): pass",
                "def _private(): pass",
                "class Shape:",
                "    def area(self): pass",
                "    def spare(self): pass",
                "    def __eq__(self, other): pass",
                "    @property",
                "    def width(self): pass",
                "class Lonely: pass",
                "def outer():",
                "    def inner(): pass",
                "LIMIT = 3",
                "SPARE = 4",
                "_SCALE: float = 2.0",
                "_SPARE_SCALE = 5.0",
                "__all__ = ['used']",
                "@dataclasses.dataclass(frozen=True)",
                "class Box:",
                "    size: int",
                "    extra: int",
                "    _hidden: int",
                "    def __eq__(self, other): return self.extra == getattr(other, 'extra') == getattr(self, 'size')",
                "@dataclass",
                "class Pair:",
                "    left: int",
                "    right: int",
            ]
        ),
        "b": "\n".join(
            [
                "from a import unused, Lonely",
                "used()",
                "x: Shape = s.area() + s.width * a.LIMIT * _SCALE",
                "SPARE = 1",
                "Box(1, 2, 3).size",
                "p = Pair(left=1, right=2); p.right = p.left",
            ]
        ),
    }
    assert unread_dataclass_fields(sources) == ["a.Box.extra", "a.Pair.right"]
    assert unused_public_names(sources) == [
        "a.Lonely",
        "a.SPARE",
        "a.Shape.spare",
        "a._SPARE_SCALE",
        "a.outer",
        "a.unused",
        "b.SPARE",
        "b.x",
    ]


def test_package_defines_only_what_it_uses():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(unused_public_names(sources)) == LIBRARY_API
    assert unread_dataclass_fields(sources) == []
