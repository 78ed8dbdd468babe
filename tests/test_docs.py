"""The decoder and channel tables and their documentation cannot drift apart.

README's config schema and the ``latdec`` help text list the decoder names,
and README lists each decoder's parameters; both must equal
``sim.DECODERS``.  Both also list each channel type's fields, which must
equal ``sim.CHANNELS``.  README's decoder table, the paper's
classification, must equal its rendering from the ``search.policy_*``
factories and from the acceptance tests that run each decoder.  README's
library example runs, and its CSV column block equals ``sim.CSV_COLUMNS``.

The library keeps only what runs: every module-level function and class
in ``src/latdec`` has a reader in the library, in ``benchmarks/`` or in
README's library example, and so does every field of the search, ML and
frame results.  Code that only tests read belongs in the test tree.
"""

import ast
import dataclasses
import glob
import math
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


def _readme_library_example():
    return re.search(r"## Library use\s*```python\n(.*?)```", _readme(), re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_library_example(), README, "exec"), {})
    assert capsys.readouterr().out.strip()  # the trace lines it prints


def test_readme_lists_the_csv_columns():
    # the block after "`simulate` writes a CSV with the columns"
    block = re.search(r"writes a CSV with the columns\s*```\n(.*?)```", _readme(), re.S).group(1)
    assert block.replace(",\n", ",").strip().split(",") == sim.CSV_COLUMNS


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
    statements = [(False, ast.parse(_readme_library_example()))]
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


# ---------------------------------------------------------------------------
# the paper's classification: README's decoder table


ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
TABLE_HEADER = ("| decoder | sort rule | child order | bound | strict | g2 | bias "
                "| first-leaf exit | exact | acceptance criteria that run it |")
# a sample value of every decoder parameter, each told apart from the others
SAMPLE_PARAMS = {"radius": 4.0, "bounds": (1.0, 2.0), "weights": (3.0, 5.0), "M": 3,
                 "T": 2.5, "bias": 1.5}
# the decoders that no policy_* factory builds, in the table's columns up to "exact"
NOT_POLICIES = {
    "fano": ["threshold walk", "se", "T, in multiples of `step`", "≤", "—", "`bias`", "yes", "no"],
    "ml": ["exhaustive enumeration", "—", "—", "—", "—", "—", "—", "yes"],
}


def _exact(policy):
    """Only the incumbent's metric prunes: a scalar bound (the restart
    schedule relaxes it until a leaf is found), no rule g2, and no
    first-leaf exit unless the list is ordered by the unbiased cost."""
    return (policy.g2 is None and not isinstance(policy.bound, tuple)
            and (not policy.first_leaf_exit or (policy.sort == "cost" and policy.bias == 0)))


def _criteria_running_each_decoder():
    """{decoder: sorted acceptance criteria whose test runs it}: a policy_*
    factory, fano_decode or exhaustive_ml called by name, or a decoder
    config {"name": ...}."""
    by_call = {kind.policy.__name__: name for name, kind in sim.DECODERS.items() if kind.policy}
    by_call.update(fano_decode="fano", exhaustive_ml="ml")
    with open(ACCEPTANCE) as fh:
        tree = ast.parse(fh.read())
    out = {name: set() for name in sim.DECODERS}
    for fn in tree.body:
        crit = isinstance(fn, ast.FunctionDef) and re.match(r"test_criterion_(\d+)_", fn.name)
        if not crit:
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Name, ast.Attribute)):
                called = node.id if isinstance(node, ast.Name) else node.attr
                if called in by_call:
                    out[by_call[called]].add(int(crit.group(1)))
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (isinstance(key, ast.Constant) and key.value == "name"
                            and isinstance(value, ast.Constant) and value.value in out):
                        out[value.value].add(int(crit.group(1)))
    return {name: sorted(crits) for name, crits in out.items()}


def _symbol(value, params):
    """A policy value as the config field whose sample it is, else the value."""
    named = [f"`{f}`" for f, v in params.items()
             if value == (tuple(map(float, v)) if isinstance(v, tuple) else v)]
    return named[0] if named else "∞" if value == math.inf else f"{value:g}"


def _decoder_table():
    """README's decoder table as rendered from the policy factories."""
    criteria = _criteria_running_each_decoder()
    lines = [TABLE_HEADER, "|" + "---|" * TABLE_HEADER.count(" |")]
    for name, kind in sim.DECODERS.items():
        if kind.policy is None:
            cells = list(NOT_POLICIES[name])
        else:
            params = {f: SAMPLE_PARAMS[f] for f in kind.fields}
            policy = kind.policy(*params.values())
            exact = "yes" if _exact(policy) else "no"
            if exact == "no" and "bias" in params and _exact(kind.policy(0.0)):
                exact = "at `bias` 0"
            g2 = "—" if policy.g2 is None else f"{policy.g2} {_symbol(policy.g2_param, params)}"
            cells = [policy.sort, policy.gen, _symbol(policy.bound, params),
                     "<" if policy.strict else "≤", g2, _symbol(policy.bias, params),
                     "yes" if policy.first_leaf_exit else "no", exact]
        cells.append(", ".join(map(str, criteria[name])) or "—")
        lines.append("| " + " | ".join([f"`{name}`"] + cells) + " |")
    return lines


def test_readme_decoder_table_is_rendered_from_the_policies():
    text = _readme().splitlines()
    start = text.index(TABLE_HEADER)
    end = text.index("", start)
    assert text[start:end] == _decoder_table()
