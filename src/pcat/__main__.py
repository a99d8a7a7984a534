"""``python -m pcat``: the ``pcat`` command line without an install."""

from .cli import run

if __name__ == "__main__":
    run()
