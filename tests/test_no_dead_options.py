"""Each command takes exactly the options its handler reads.

``cli.RunConfig``'s fields are the options (one ``--option`` per field)
and ``cli._HANDLERS`` maps each command to its handler and the options it
takes, the only ones its subparser accepts.  This test reads
``src/mscv/cli.py`` as source and fails when a handler reads a field as
``cfg.<field>`` that its command does not take, or takes an option that
it does not read: one that parses and then does nothing.  It also fails
when a command takes an option that is no field, or when no command
takes a field.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "mscv" / "cli.py"


def option_use(source: str) -> tuple[set, dict, dict]:
    """``(fields, takes, reads)`` of a cli module's source: the
    ``RunConfig`` fields other than ``command``, the options each command
    takes and the fields each command's handler reads off its argument."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    fields = {stmt.target.id for stmt in defs["RunConfig"].body
              if isinstance(stmt, ast.AnnAssign)} - {"command"}
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["_HANDLERS"])
    takes, reads = {}, {}
    for key, value in zip(table.keys, table.values):
        handler, names = value.elts
        takes[key.value] = [n.value for n in names.elts]
        func = defs[handler.id]
        arg = func.args.args[0].arg
        reads[key.value] = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)
                            and isinstance(n.value, ast.Name) and n.value.id == arg}
    return fields, takes, reads


def test_scanner_sees_fields_requirements_and_reads():
    source = '''
class RunConfig:
    command: str
    out: str | None = None
    seed: int = 0
    unread: int = 0
    def __post_init__(self):
        if self.unread < 0:
            raise ValueError
def _cmd_a(cfg):
    write(cfg.out, cfg.seed)
def _cmd_b(c):
    print(c.out, getattr(c, "unread"))
_HANDLERS = {"a": (_cmd_a, ("out", "seed")), "b": (_cmd_b, ("out", "seed"))}
'''
    fields, takes, reads = option_use(source)
    assert fields == {"out", "seed", "unread"}
    assert takes == {"a": ["out", "seed"], "b": ["out", "seed"]}
    assert reads == {"a": {"out", "seed"}, "b": {"out"}}


def test_every_option_is_read_and_every_requirement_is_a_field():
    fields, takes, reads = option_use(CLI.read_text())
    assert fields - set().union(*takes.values()) == set(), "options no command takes"
    for command, names in takes.items():
        assert set(names) <= fields, f"{command} takes options that are no field"


def test_each_command_takes_exactly_what_its_handler_reads():
    _, takes, reads = option_use(CLI.read_text())
    for command, names in takes.items():
        assert set(names) - reads[command] == set(), f"{command} takes options it never reads"
        assert reads[command] - set(names) == set(), f"{command} reads options it does not take"
