"""python -m spreadlab: the spreadlab command line."""

from .cli import main

main()
