"""Every command-line option is read by some command.

``cli.RunConfig``'s fields are the options (one ``--option`` per field)
and ``cli._HANDLERS`` maps each command to its handler and the options it
requires.  This test reads ``src/mscv/cli.py`` as source and fails when a
field is read as ``cfg.<field>`` by no handler, an option that parses and
then does nothing, or when a handler requires an option that is no field.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "mscv" / "cli.py"


def option_use(source: str) -> tuple[set, dict, dict]:
    """``(fields, required, reads)`` of a cli module's source: the
    ``RunConfig`` fields other than ``command``, each command's required
    options and the fields each command's handler reads off its argument."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    fields = {stmt.target.id for stmt in defs["RunConfig"].body
              if isinstance(stmt, ast.AnnAssign)} - {"command"}
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["_HANDLERS"])
    required, reads = {}, {}
    for key, value in zip(table.keys, table.values):
        handler, names = value.elts
        required[key.value] = [n.value for n in names.elts]
        func = defs[handler.id]
        arg = func.args.args[0].arg
        reads[key.value] = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)
                            and isinstance(n.value, ast.Name) and n.value.id == arg}
    return fields, required, reads


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
_HANDLERS = {"a": (_cmd_a, ("out",)), "b": (_cmd_b, ("out", "seed"))}
'''
    fields, required, reads = option_use(source)
    assert fields == {"out", "seed", "unread"}
    assert required == {"a": ["out"], "b": ["out", "seed"]}
    assert reads == {"a": {"out", "seed"}, "b": {"out"}}


def test_every_option_is_read_and_every_requirement_is_a_field():
    fields, required, reads = option_use(CLI.read_text())
    assert fields - set().union(*reads.values()) == set(), "options no command reads"
    for command, names in required.items():
        assert set(names) <= fields, f"{command} requires options that are no field"
