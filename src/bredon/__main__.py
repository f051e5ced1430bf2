"""``python -m bredon``: the command-line interface of ``bredon.cli``."""

import sys

from .cli import main

sys.exit(main())
