"""``python -m bcreg``: the same command line as the ``bcreg`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
