"""The README's commands, --config table and cited names agree with the code.

Nothing here runs a command: each one is only parsed by the real parser.
"""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import sing
from sing import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _shell_commands() -> list[str]:
    """Every `sing ...` line of the README's bash blocks, continuations joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("sing "):
                commands.append(line)
    return commands


def _config_table() -> dict[str, tuple[str, str]]:
    """key -> (default, flag) from the README's --config table."""
    rows = re.findall(r"^\s*\| `([a-z_.]+)` \| (\S+) \| `(--[a-z-]+)` \|$", README.read_text(),
                      flags=re.M)
    return {key: (default, flag) for key, default, flag in rows}


def test_readme_shows_every_verb():
    assert {shlex.split(command)[1] for command in _shell_commands()} == set(cli._HANDLERS)


@pytest.mark.parametrize("command", _shell_commands())
def test_readme_command_parses(command):
    parser = cli._build_parser(cli._load_defaults([]))
    parser.parse_args(shlex.split(command)[1:])


def test_config_table_lists_every_key_with_its_default_and_flag():
    table = _config_table()
    assert sorted(table) == sorted(cli._CONFIG_KEYS)
    parser = cli._build_parser(cli._load_defaults([]))
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dest_of = {
        flag: action.dest
        for sub in verbs.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    for key, (default, flag) in table.items():
        table_flag, dest, builtin, _ = cli._CONFIG_KEYS[key]
        assert default == str(builtin), key
        assert flag == table_flag and dest_of[flag] == dest, key


def _cited_names() -> list[str]:
    """Every backticked `<module>.<name>` (or `sing.<module>.<name>`) the
    README cites for a `sing` module or for `oracles`."""
    modules = "|".join([m.name for m in pkgutil.iter_modules(sing.__path__)] + ["oracles"])
    name = r"[A-Za-z_]\w*"
    cited = re.findall(rf"`((?:sing\.)?(?:{modules})\.{name}(?:\.{name})*)`", README.read_text())
    return sorted(set(cited) - set(cli._CONFIG_KEYS))


@pytest.mark.parametrize("cited", _cited_names())
def test_readme_names_resolve(cited):
    """A renamed or deleted function, class or constant leaves no stale citation."""
    module, *attributes = cited.removeprefix("sing.").split(".")
    target = importlib.import_module("oracles" if module == "oracles" else f"sing.{module}")
    for attribute in attributes:
        target = getattr(target, attribute)
