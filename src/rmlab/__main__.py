"""`python -m rmlab ...` runs the rmlab command line."""

import sys

from .cli import main

sys.exit(main())
