"""``python -m coherlss``: the coherlss command line."""

from .cli import main

main()
