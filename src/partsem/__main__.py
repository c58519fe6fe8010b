"""``python -m partsem``: the ``partsem`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
