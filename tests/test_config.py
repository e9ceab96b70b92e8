"""The README's configuration block is the documented key set: it must load
and resolve, and name every key, so a retired or new key cannot drift."""

import configparser
import re
from pathlib import Path

from tilefuse.config import default_config, load_config_file, resolve_settings

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_ini_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration file", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_names_every_key_and_resolves(tmp_path):
    block = readme_ini_block()
    path = tmp_path / "readme.ini"
    path.write_text(block)
    settings = resolve_settings(load_config_file(path))  # unknown keys fail here

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(block)
    documented = {(sec, key) for sec in parser.sections() for key in parser[sec]}
    known = {(sec, key) for sec, keys in default_config().items() for key in keys}
    assert documented == known
    assert settings.canvas_shape() == (16, 21, 270, 480)
