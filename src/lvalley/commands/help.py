"""The ``--help`` listings, built from the command table of :mod:`lvalley.cli`."""

from ..cli import _COMMANDS, _COMMON, _REQUIRED


def listing(command: str | None) -> str:
    """The --help text of ``command``, or of the program if None."""
    if command is None:
        lines = [
            "usage: lvalley COMMAND [flags]",
            "",
            "Valley-crossover design data for strained SiGe/Si(111)/SiGe wells.",
            "'lvalley COMMAND --help' lists the flags of one command.",
            "",
            "commands:",
            *(f"  {name:<13}{summary}" for name, (summary, _) in _COMMANDS.items()),
        ]
    else:
        summary, own = _COMMANDS[command]
        lines = [f"usage: lvalley {command} [flags]", "", summary, "", "flags:"]
        for flag, (kind, default, text) in {**own, **_COMMON}.items():
            if isinstance(kind, tuple):
                text += f"; one of {', '.join(kind)}"
            if default is _REQUIRED:
                text += " (required)"
            elif kind is list:
                text += " (repeatable)"
            elif default is not None:
                text += f" (default {default})"
            lines.append(f"  {flag:<12} {text}")
        lines.append(f"  {'-h, --help':<12} print this listing")
    return "\n".join(lines) + "\n"
