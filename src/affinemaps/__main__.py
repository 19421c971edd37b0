"""``python -m affinemaps``: the affinemaps command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
