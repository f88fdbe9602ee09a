"""``python -m cpsfds``: the command-line tool of cpsfds.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
