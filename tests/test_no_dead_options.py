"""Every option of every command is read by its handler.

``cli._HANDLERS`` maps each command to its handler, and ``cli.build_parser``
gives the command one ``--option`` per parameter of that handler.  This
test reads ``src/mscv/cli.py`` as source and fails when a handler has a
parameter that its body never reads: an option that parses and then does
nothing.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "mscv" / "cli.py"


def unread_parameters(source: str) -> dict:
    """``{command: parameters its handler never reads}`` of a cli module's source."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["_HANDLERS"])
    unread = {}
    for key, handler in zip(table.keys, table.values):
        func = defs[handler.id]
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread[key.value] = params - read
    return unread


def test_scanner_finds_the_unread_parameter():
    source = '''
def _cmd_a(out, seed=0):
    write(out, seed)
def _cmd_b(out, unread=0):
    unread = 1
    print(out, "unread")
_HANDLERS = {"a": _cmd_a, "b": _cmd_b}
'''
    assert unread_parameters(source) == {"a": set(), "b": {"unread"}}


def test_each_command_takes_exactly_what_its_handler_reads():
    for command, unread in unread_parameters(CLI.read_text()).items():
        assert unread == set(), f"{command} takes options it never reads"
