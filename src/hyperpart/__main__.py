"""``python -m hyperpart``: the command-line front end, runnable from a
checkout with ``PYTHONPATH=src``."""

import sys

from .cli import main

sys.exit(main())
