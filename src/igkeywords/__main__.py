"""``python -m igkeywords``: the command line of ``igkeywords.cli``."""

import sys

from .cli import main

sys.exit(main())
