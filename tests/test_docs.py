"""The decoder and channel tables and their documentation cannot drift apart.

README's config schema and the ``latdec`` help text list the decoder names,
and README lists each decoder's parameters; both must equal
``sim.DECODERS``.  Both also list each channel type's fields, which must
equal ``sim.CHANNELS``.

The library keeps only what runs: every module-level function and class
in ``src/latdec`` has a reader in the library, in ``benchmarks/`` or in
README's library example, and so does every field of the search, ML and
frame results.  Code that only tests read belongs in the test tree.
"""

import ast
import dataclasses
import glob
import os
import re

from latdec import cli, oracle, search, sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def _readme():
    with open(README) as fh:
        return fh.read()


def _decoder_names(text):
    """The names of the first `"name": "a" | "b" | ...` alternative list in text."""
    names = re.search(r'"name":\s*((?:"[\w-]+"\s*\|\s*)+"[\w-]+")', text).group(1)
    return re.findall(r'"([\w-]+)"', names)


def test_readme_lists_the_decoder_table():
    assert _decoder_names(_readme()) == list(sim.DECODERS)


def test_cli_help_lists_the_decoder_table():
    assert _decoder_names(cli.__doc__) == list(sim.DECODERS)


def test_readme_lists_each_decoders_parameters():
    # "parameters by decoder: bias (stack/fano), step (fano), ...;" over
    # several // comment lines
    text = re.sub(r"\s*//\s*", " ", _readme())
    line = re.search(r"parameters by decoder:([^;]*);", text).group(1)
    documented = {}
    for key, names in re.findall(r"(\w+) \(([\w/-]+)\)", line):
        for name in names.split("/"):
            documented.setdefault(name, []).append(key)
    assert documented == {name: list(kind.fields) for name, kind in sim.DECODERS.items()
                          if kind.fields}


def _channel_fields():
    return [(typ, list(kind.rules)) for typ, kind in sim.CHANNELS.items()]


def test_readme_lists_each_channels_fields():
    # "fields by type: vblast (M, N, Q), ld (...), isi (...);" over several
    # // comment lines
    text = re.sub(r"\s*//\s*", " ", _readme())
    line = re.search(r"fields by type:([^;]*);", text).group(1)
    documented = [(typ, keys.split(", ")) for typ, keys in re.findall(r"(\w+) \(([^)]*)\)", line)]
    assert documented == _channel_fields()


def test_cli_help_lists_each_channels_fields():
    # one '{"type": "vblast", "M", "N", "Q"}' line per type
    documented = [(typ, re.findall(r'"(\w+)"', keys))
                  for typ, keys in re.findall(r'\{"type": "(\w+)", ([^}]*)\}', cli.__doc__)]
    assert documented == _channel_fields()


def _names_read(tree):
    """Names, attributes and string constants that occur in an AST."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _reader_statements():
    """(in the library, statement) for the top-level statements of the
    library (__init__'s exports do not count) and of benchmarks/*.py, and
    README's library example as one statement."""
    library = [path for path in sorted(glob.glob(os.path.join(ROOT, "src", "latdec", "*.py")))
               if os.path.basename(path) != "__init__.py"]
    example = re.search(r"## Library use\s*```python\n(.*?)```", _readme(), re.S).group(1)
    statements = [(False, ast.parse(example))]
    for path in library + sorted(glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))):
        with open(path) as fh:
            statements += [(path in library, stmt) for stmt in ast.parse(fh.read()).body]
    return statements


def test_every_library_definition_has_a_reader():
    # readers are the other top-level statements of the library, of
    # benchmarks/*.py and of README's library example
    statements = _reader_statements()
    reads = [_names_read(stmt) for _, stmt in statements]
    unread = [stmt.name for i, (in_library, stmt) in enumerate(statements)
              if in_library and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not any(stmt.name in names for j, names in enumerate(reads) if j != i)]
    assert not unread, f"defined in src/latdec but read only outside it: {unread}"


def test_every_result_field_is_read():
    # a result field that nothing reads as x.field outside its own class is
    # computed on every decode and then thrown away
    statements = _reader_statements()
    unread = []
    for cls in (search.SearchOutcome, oracle.MlResult, sim.FrameResult):
        reads = {node.attr for _, stmt in statements
                 if not (isinstance(stmt, ast.ClassDef) and stmt.name == cls.__name__)
                 for node in ast.walk(stmt)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                   if f.name not in reads]
    assert not unread, f"result fields that nothing reads: {unread}"
