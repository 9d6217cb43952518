"""Entry point for `python -m berezin_lab`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
