"""Run the command-line interface as ``python -m wsnec``."""

from .cli import main

raise SystemExit(main())
