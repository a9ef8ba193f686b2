"""`python -m twopoint COMMAND config.txt [key=value ...]`: the `twopoint`
command (`harness.main`), exiting with its code."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
