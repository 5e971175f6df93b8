"""`python -m nodalheat`: the same command as the installed `nodalheat` script."""

from nodalheat.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
