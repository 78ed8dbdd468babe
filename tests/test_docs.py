"""The decoder and channel tables and their documentation cannot drift apart.

README's config schema and the ``latdec`` help text list the decoder names,
and README lists each decoder's parameters; both must equal
``sim.DECODERS``.  Both also list each channel type's fields, which must
equal ``sim.CHANNELS``.
"""

import os
import re

from latdec import cli, sim

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
