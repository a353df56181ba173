"""``python -m lyapcert``: the command-line interface, as the ``lyapcert`` script."""

import sys

from .frontend.cli import main

if __name__ == "__main__":
    sys.exit(main())
