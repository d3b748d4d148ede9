"""``python -m labelcal``: the ``labelcal`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
