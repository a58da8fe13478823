"""``python -m equitower``: the command-line workbench of :mod:`equitower.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
