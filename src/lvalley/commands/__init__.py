"""One module per subcommand, each imported only when its command runs.

``lvalley.commands.<name>`` defines ``rows(params, ns) -> (header, rows)``
for the subcommand ``<name>`` of :mod:`lvalley.cli`, which imports it once
the command line has parsed cleanly.  A row builder imports the physics
modules it computes with when it runs, so a usage error loads none of
them.  ``lvalley.commands.help`` holds the ``--help`` listings and is
imported only when ``--help`` is given.
"""
