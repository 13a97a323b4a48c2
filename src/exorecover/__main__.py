"""``python -m exorecover``: the command line of :mod:`exorecover.cli`."""

import sys

from .cli import main

sys.exit(main())
