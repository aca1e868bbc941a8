"""``python -m rotorsand``: the ``rotorsand`` command."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a spawned pool worker re-imports it
    sys.exit(main())
