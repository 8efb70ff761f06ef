"""``python -m diamondstab``: the command-line driver of ``diamondstab.cli``."""

import sys

from .cli import main

sys.exit(main())
