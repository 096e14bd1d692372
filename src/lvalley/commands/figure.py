"""``lvalley figure``: the data sweep behind one figure, a preset of another command."""

from .. import cli
from ..errors import UsageError


def rows(params, ns):
    if ns.id not in cli.FIGURES:
        raise UsageError(
            f"unknown figure id {ns.id!r}; valid ids: {', '.join(cli.FIGURES)} "
            "(fig6 is a schematic with no computed curve)"
        )
    preset = cli._parse(cli.FIGURES[ns.id])
    return preset.rows(params, preset)
