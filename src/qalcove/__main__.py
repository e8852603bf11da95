"""``python -m qalcove``: the same command line as the ``qalcove`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
