"""``python -m trusskit``: one command per process, through ``cli.entry``,
which freezes the heap once the command has returned so that the
interpreter's exit does not collect it (see ``cli``)."""

import sys

from .cli import entry

sys.exit(entry())
