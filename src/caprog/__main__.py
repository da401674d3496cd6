"""``python -m caprog``: the ``caprog`` command without an installed script."""
from .cli import entry

if __name__ == "__main__":
    entry()
