"""`python -m tripletlab ...` runs the command line, as the tripletlab script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
