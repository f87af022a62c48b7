"""``python -m ecgdx``: the same command-line interface as ``ecgdx``."""
from .cli import main

main()
