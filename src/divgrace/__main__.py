"""`python -m divgrace ...` runs the command line, as the divgrace script does."""

import sys

from .cli import main

sys.exit(main())
